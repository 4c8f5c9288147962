//! Allocation gate for RACE's host-side load path: a load that does not
//! split writes its block and slot straight into blade memory and
//! allocates nothing, a kv-chunk rollover included (chunks come from the
//! blade's bump allocator); a split allocates only the sibling subtable's
//! `Rc` and any directory growth, never once per moved slot.
//!
//! Same counting allocator as `crates/core/tests/no_alloc.rs`: counted
//! per thread, so the harness's parallel test threads cannot leak into a
//! measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use smart_race::{RaceConfig, RaceHashTable};
use smart_rnic::{Cluster, ClusterConfig, MemoryBlade};
use smart_rt::Simulation;

struct CountingAlloc;

thread_local! {
    /// `const` and `Drop`-free: reading it never allocates or registers a
    /// destructor, which the allocator itself could not survive.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|c| c.set(c.get() + 1));
}

// SAFETY: defers entirely to the system allocator; the counter is a
// thread-local cell with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Kv chunk size for the fresh-key load: small enough that its blocks
/// roll over to a new chunk several times on each blade.
const SMALL_CHUNK: u64 = 16 << 10;

#[test]
fn loading_fresh_keys_without_a_split_allocates_nothing() {
    let sim = Simulation::new(1);
    let cluster = Cluster::new(sim.handle(), ClusterConfig::with_region(1, 2, 16 << 20));
    // 4 subtables of 4096 buckets: 131 072 slots for 10 000 keys.
    let table = RaceHashTable::create(
        cluster.blades(),
        RaceConfig {
            initial_depth: 2,
            kv_chunk_bytes: SMALL_CHUNK,
            ..Default::default()
        },
    );
    let subtables = table.subtable_count();
    let cursor = |b: &MemoryBlade| b.alloc(8, 8);
    let before: Vec<u64> = cluster.blades().iter().map(|b| cursor(b)).collect();
    let n = allocations(|| {
        for k in 0..10_000u64 {
            table.load(&k.to_le_bytes(), &k.to_be_bytes());
        }
    });
    assert_eq!(table.subtable_count(), subtables, "no load may split");
    assert_eq!(n, 0, "{n} allocations for 10 000 loads");
    for (b, start) in cluster.blades().iter().zip(before) {
        let grown = cursor(b) - start;
        assert!(
            grown > 3 * SMALL_CHUNK,
            "blade carved only {grown} bytes: too few chunk rollovers"
        );
    }
    assert_eq!(
        table.get_direct(&7u64.to_le_bytes()),
        Some(7u64.to_be_bytes().to_vec())
    );
}

#[test]
fn a_split_allocates_a_constant_number_of_times() {
    let sim = Simulation::new(1);
    let cluster = Cluster::new(sim.handle(), ClusterConfig::with_region(1, 1, 16 << 20));
    // 256-bucket subtables: each split moves hundreds of slots.
    let table = RaceHashTable::create(
        cluster.blades(),
        RaceConfig {
            buckets_per_subtable: 256,
            initial_depth: 0,
            ..Default::default()
        },
    );
    let mut splits = 0;
    for k in 0..20_000u64 {
        let before = table.subtable_count();
        let n = allocations(|| table.load(&k.to_le_bytes(), &k.to_be_bytes()));
        let grown = table.subtable_count() - before;
        if grown == 0 {
            assert_eq!(n, 0, "load of key {k} allocated {n} times without a split");
        } else {
            splits += grown;
            // The sibling's `Rc<Subtable>` and at most one directory
            // growth per split.
            assert!(
                n <= 2 * grown as u64,
                "{n} allocations for {grown} split(s) at key {k}"
            );
        }
    }
    assert!(splits > 10, "only {splits} splits");
}
