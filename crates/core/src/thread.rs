//! Per-thread framework state.

use std::cell::Cell;
use std::rc::Rc;

use smart_rnic::{BladeId, Qp};
use smart_rt::sync::FifoResource;
use smart_rt::{SimHandle, SimTime};
use smart_trace::Actor;

use crate::conflict::ConflictControl;
use crate::context::SmartContext;
use crate::coro::SmartCoro;
use crate::hub::CompletionHub;
use crate::pool::QpPool;
use crate::stats::ThreadStats;
use crate::throttle::WrThrottle;

/// One application thread's SMART state: its QP pool (one QP per memory
/// blade), completion hub, CPU model, credit throttle and
/// conflict-avoidance state.
///
/// Threads are scheduling domains: all coroutines of a thread share its
/// QPs, CQ and doorbell (§4.1) and serialize on its CPU.
pub struct SmartThread {
    ctx: Rc<SmartContext>,
    idx: usize,
    tag: u64,
    next_coro: Cell<u32>,
    pub(crate) cpu: FifoResource,
    qps: Vec<Rc<Qp>>,
    pub(crate) hub: Rc<CompletionHub>,
    pub(crate) throttle: Rc<WrThrottle>,
    pub(crate) conflict: Rc<ConflictControl>,
    pool: Option<QpPool>,
    stats: ThreadStats,
}

impl std::fmt::Debug for SmartThread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SmartThread")
            .field("idx", &self.idx)
            .field("qps", &self.qps.len())
            .finish()
    }
}

impl SmartThread {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        ctx: Rc<SmartContext>,
        idx: usize,
        cpu: FifoResource,
        qps: Vec<Rc<Qp>>,
        hub: Rc<CompletionHub>,
        throttle: Rc<WrThrottle>,
        conflict: Rc<ConflictControl>,
        pool: Option<QpPool>,
        stats: ThreadStats,
    ) -> Rc<Self> {
        let tag = ((ctx.node().id().0 as u64) << 32) | idx as u64;
        conflict.install_probe(ctx.handle());
        throttle.install_probe(ctx.handle());
        Rc::new(SmartThread {
            ctx,
            idx,
            tag,
            next_coro: Cell::new(0),
            cpu,
            qps,
            hub,
            throttle,
            conflict,
            pool,
            stats,
        })
    }

    /// This thread's QP pool (Figure 6b): acquire/release QPs to blades
    /// dynamically, all bound to this thread's CQ and doorbell.
    ///
    /// `None` under the shared-QP and multiplexed policies, whose QPs
    /// belong to thread groups rather than single threads.
    pub fn qp_pool(&self) -> Option<&QpPool> {
        self.pool.as_ref()
    }

    /// This thread's index within its context.
    pub fn index(&self) -> usize {
        self.idx
    }

    /// Stable thread identity (`node_id << 32 | thread_index`), used as
    /// the spinlock owner tag and as the trace track id. Unlike a pointer
    /// it is identical across same-seed runs.
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// The trace actor for thread-level (coroutine-less) events.
    pub fn actor(&self) -> Actor {
        Actor::thread(self.tag)
    }

    pub(crate) fn next_coro_index(&self) -> u32 {
        let i = self.next_coro.get();
        self.next_coro.set(i + 1);
        i
    }

    /// The owning context.
    pub fn context(&self) -> &Rc<SmartContext> {
        &self.ctx
    }

    /// The simulation handle.
    pub fn handle(&self) -> &SimHandle {
        self.ctx.handle()
    }

    /// Current virtual time (convenience for latency measurements).
    pub fn now(&self) -> SimTime {
        self.ctx.handle().now()
    }

    /// This thread's statistics.
    pub fn stats(&self) -> &ThreadStats {
        &self.stats
    }

    /// This thread's completion hub, shared with the rest of its QP group
    /// under the shared-QP and multiplexed policies.
    pub fn hub(&self) -> &Rc<CompletionHub> {
        &self.hub
    }

    /// This thread's credit throttle (§4.2).
    pub fn throttle(&self) -> &Rc<WrThrottle> {
        &self.throttle
    }

    /// This thread's conflict-avoidance state (§4.3).
    pub fn conflict(&self) -> &Rc<ConflictControl> {
        &self.conflict
    }

    /// The QP connected to `blade`.
    ///
    /// # Panics
    ///
    /// Panics if the blade is not connected.
    pub fn qp_to(&self, blade: BladeId) -> &Rc<Qp> {
        &self.qps[self.ctx.blade_index(blade)]
    }

    /// All of this thread's QPs (one per blade).
    pub fn qps(&self) -> &[Rc<Qp>] {
        &self.qps
    }

    /// Creates a coroutine bound to this thread. All verbs are issued
    /// through coroutines; a thread typically spawns
    /// [`SmartConfig::coroutines_per_thread`](crate::SmartConfig) of them.
    pub fn coroutine(self: &Rc<Self>) -> SmartCoro {
        SmartCoro::new(Rc::clone(self))
    }
}
