//! Allocation gate for the tracing hot path: recording an event whose
//! category is masked off must not allocate at all. The runtime leaves
//! its instrumentation compiled in on every hot path (executor wake
//! path, rnic per-WR dispatch, lock acquire/release), so a masked probe
//! has to cost a couple of branches — a hidden `format!` or ring push
//! would tax every simulated event of every untraced run.
//!
//! The counting allocator lives here rather than in the library because
//! `smart-trace` itself is `#![forbid(unsafe_code)]`; a test binary is
//! its own crate and may install a `#[global_allocator]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use smart_trace::{Actor, Args, Category, SyncOp, TraceSink};

struct CountingAlloc;

thread_local! {
    /// Per thread, so sibling tests of this binary (the harness runs them
    /// on parallel threads) cannot leak into a measured window. `const`
    /// and `Drop`-free: reading it never allocates or registers a
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

#[test]
fn masked_and_disabled_recording_is_allocation_free() {
    let masked = TraceSink::with_capacity(64);
    masked.set_mask(0);
    let disabled = TraceSink::disabled();
    let actor = Actor::new(1, 2);

    for sink in [&masked, &disabled] {
        let n = allocations(|| {
            for i in 0..10_000u64 {
                sink.span(i, 7, actor, Category::DbLock, "qp_lock", Args::one("w", i));
                sink.instant(i, actor, Category::Cache, "wqe_miss", Args::NONE);
                sink.counter(i, actor, Category::Tune, "c_max", i);
                sink.sync_probe(i, actor, "cell", SyncOp::Acquire, i);
                sink.begin_op(i, actor, "ht_get");
                sink.end_op(i + 1, actor);
            }
        });
        assert_eq!(n, 0, "masked-off recording allocated {n} times");
        assert!(sink.is_empty());
    }
}

#[test]
fn sync_probes_under_default_mask_are_allocation_free() {
    // The default mask excludes Sync, so the probes inside every lock
    // acquire/release must vanish without building their args.
    let sink = TraceSink::with_capacity(64);
    let actor = Actor::new(0, 0);
    let n = allocations(|| {
        for i in 0..10_000u64 {
            sink.sync_probe(i, actor, "qp_lock", SyncOp::Acquire, i);
            sink.sync_probe(i + 1, actor, "qp_lock", SyncOp::Release, i);
        }
    });
    assert_eq!(n, 0, "default-masked sync probes allocated {n} times");
    assert!(sink.is_empty());
}

#[test]
fn unmasked_recording_does_allocate_into_the_ring() {
    // Guard against the gate passing vacuously (e.g. the counter not
    // counting): unmasked recording past the ring's preallocation must
    // grow the ring, and growing the ring allocates.
    let sink = TraceSink::with_capacity(1 << 13);
    let actor = Actor::new(1, 2);
    let n = allocations(|| {
        for i in 0..6_000u64 {
            sink.instant(i, actor, Category::Cache, "wqe_miss", Args::NONE);
        }
    });
    assert_eq!(sink.len(), 6_000);
    assert!(n > 0, "allocation counter is not observing the test binary");
}
