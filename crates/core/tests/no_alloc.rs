//! Allocation gate for the verb path: a steady-state `post_send` + `sync`
//! lap may allocate only what a work request *is* — its boxed lifecycle
//! future and, for a READ, its payload — plus a fixed handful of buffers
//! per lap. Per-WR join state, table rehashes, a completion map per
//! `sync` or a group-by map per `ship` are bookkeeping no model stage
//! needs; at twice this gate's count they were a third of `micro_read`'s
//! host time.
//!
//! Same counting allocator as `crates/rt/tests/no_alloc.rs`: counted per
//! thread, so the harness's parallel test threads cannot leak into a
//! measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

use smart::{QpPolicy, SmartConfig, SmartContext};
use smart_rnic::{
    BladeId, Cluster, ClusterConfig, FaultHook, InjectDecision, Qp, RemoteAddr, WorkRequest,
};
use smart_rt::{Duration, Simulation};

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

fn setup(blades: usize) -> (Simulation, Cluster, Rc<SmartContext>) {
    let sim = Simulation::new(3);
    let cluster = Cluster::new(sim.handle(), ClusterConfig::new(1, blades));
    for b in cluster.blades() {
        b.alloc(1 << 20, 8);
    }
    let ctx = SmartContext::new(
        cluster.compute(0),
        cluster.blades(),
        SmartConfig::baseline(QpPolicy::PerThreadQp, 1),
    );
    (sim, cluster, ctx)
}

const BATCH: u64 = 8;

#[test]
fn eight_read_lap_allocates_two_per_wr_plus_four() {
    let (mut sim, _cluster, ctx) = setup(1);
    let thread = ctx.create_thread();
    let coro = thread.coroutine();
    let laps = Rc::new(Cell::new(0u64));
    let counted = Rc::clone(&laps);
    sim.spawn(async move {
        loop {
            for i in 0..BATCH {
                coro.read(RemoteAddr::new(BladeId(0), 64 + i * 8), 8);
            }
            coro.post_send().await;
            assert_eq!(coro.sync().await.len(), BATCH as usize);
            counted.set(counted.get() + 1);
        }
    });
    // Warm-up grows the task slab, the timer wheel, both `DetMap`s and
    // every reused buffer to their high-water marks.
    sim.run_for(Duration::from_millis(1));
    let before = laps.get();
    let n = allocations(|| sim.run_for(Duration::from_millis(20)));
    let measured = laps.get() - before;
    assert!(measured > 1_000, "only {measured} laps");
    let per_lap = n as f64 / measured as f64;
    // Per WR: the boxed lifecycle future and the READ payload. Per lap:
    // the `pending` buffer `post_send` consumes (grown in two steps), the
    // ids `ship` returns, and the completions `claim` returns. Before the
    // verb path was put on this diet the lap read 39.8.
    assert!(
        (per_lap - 20.0).abs() < 0.05,
        "{per_lap:.2} allocations per 8-READ lap ({n} in {measured} laps)"
    );
}

/// Records every work request's `(blade, wr_id)` as its lifecycle
/// starts — the order the QPs were rung in.
#[derive(Default)]
struct PostOrder(RefCell<Vec<(u32, u64)>>);

impl FaultHook for PostOrder {
    fn on_wr(&self, qp: &Qp, wr: &WorkRequest) -> InjectDecision {
        self.0.borrow_mut().push((qp.target().id().0, wr.wr_id));
        InjectDecision::Deliver
    }
}

#[test]
fn two_blade_batch_rings_blade_0_first_and_syncs_in_posting_order() {
    let (mut sim, cluster, ctx) = setup(2);
    let order = Rc::new(PostOrder::default());
    cluster
        .compute(0)
        .install_fault_hook(Rc::clone(&order) as Rc<dyn FaultHook>);
    let thread = ctx.create_thread();
    let (buffered, synced) = sim.block_on(async move {
        let coro = thread.coroutine();
        // Interleaved targets, blade 1 first.
        let buffered: Vec<(u32, u64)> = (0..BATCH)
            .map(|i| {
                let blade = 1 - (i % 2) as u32;
                let addr = RemoteAddr::new(BladeId(blade), 64 + i * 8);
                (blade, coro.read(addr, 8))
            })
            .collect();
        coro.post_send().await;
        let synced: Vec<u64> = coro.sync().await.iter().map(|c| c.wr_id).collect();
        (buffered, synced)
    });
    let chain = |blade: u32| buffered.iter().copied().filter(move |(b, _)| *b == blade);
    let expected: Vec<(u32, u64)> = chain(0).chain(chain(1)).collect();
    assert_eq!(
        *order.0.borrow(),
        expected,
        "blade 0's chain is rung before blade 1's, each in buffer order"
    );
    let posted: Vec<u64> = expected.iter().map(|(_, id)| *id).collect();
    assert_eq!(synced, posted, "sync returns completions in posting order");
}
