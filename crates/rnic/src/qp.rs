//! Queue pairs and completion queues.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use smart_rt::sync::{ContendedLock, Notify};
use smart_trace::{Actor, SyncOp};

use crate::blade::MemoryBlade;
use crate::device::DeviceContext;
use crate::doorbell::Doorbell;
use crate::types::{Cqe, WorkRequest};
use crate::verbs;

/// A completion queue. Completions are pushed by the RNIC model and
/// drained by [`Cq::poll`]; [`Cq::wait_nonempty`] parks a task until at
/// least one entry is available.
pub struct Cq {
    entries: RefCell<VecDeque<Cqe>>,
    notify: Notify,
    pushed: Cell<u64>,
}

impl std::fmt::Debug for Cq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cq")
            .field("pending", &self.entries.borrow().len())
            .field("pushed", &self.pushed.get())
            .finish()
    }
}

impl Default for Cq {
    fn default() -> Self {
        Cq {
            entries: RefCell::new(VecDeque::new()),
            notify: Notify::new(),
            pushed: Cell::new(0),
        }
    }
}

impl Cq {
    /// Creates an empty completion queue.
    pub fn new() -> Rc<Self> {
        Rc::new(Cq::default())
    }

    /// Delivers a completion entry.
    ///
    /// Normally called by the RNIC model when an operation finishes;
    /// exposed publicly so higher layers can unit-test completion
    /// handling.
    pub fn push(&self, cqe: Cqe) {
        self.entries.borrow_mut().push_back(cqe);
        self.pushed.set(self.pushed.get() + 1);
        self.notify.notify_all();
    }

    /// Drains up to `max` completions (`ibv_poll_cq`).
    pub fn poll(&self, max: usize) -> Vec<Cqe> {
        let mut entries = self.entries.borrow_mut();
        let n = entries.len().min(max);
        entries.drain(..n).collect()
    }

    /// Moves every undrained completion onto the end of `out`, so a
    /// poller can keep one buffer across polls.
    pub fn drain_into(&self, out: &mut Vec<Cqe>) {
        out.extend(self.entries.borrow_mut().drain(..));
    }

    /// Number of undrained completions.
    pub fn len(&self) -> usize {
        self.entries.borrow().len()
    }

    /// Whether there are no undrained completions.
    pub fn is_empty(&self) -> bool {
        self.entries.borrow().is_empty()
    }

    /// Total completions ever delivered to this CQ.
    pub fn delivered(&self) -> u64 {
        self.pushed.get()
    }

    /// Waits until the CQ has at least one undrained entry.
    pub async fn wait_nonempty(&self) {
        while self.is_empty() {
            self.notify.notified().await;
        }
    }
}

/// A reliable-connected queue pair to one memory blade.
pub struct Qp {
    ctx: Rc<DeviceContext>,
    index: u32,
    target: Rc<MemoryBlade>,
    cq: Rc<Cq>,
    doorbell: Rc<Doorbell>,
    lock: ContendedLock,
    shared: bool,
    outstanding: Cell<u32>,
    posted: Cell<u64>,
    errored: Cell<bool>,
    reestablished: Cell<u64>,
    probe: u64,
}

impl std::fmt::Debug for Qp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Qp")
            .field("index", &self.index)
            .field("target", &self.target.id())
            .field("doorbell", &self.doorbell.index())
            .field("shared", &self.shared)
            .field("outstanding", &self.outstanding.get())
            .finish()
    }
}

impl Qp {
    pub(crate) fn new(
        ctx: Rc<DeviceContext>,
        index: u32,
        target: Rc<MemoryBlade>,
        cq: Rc<Cq>,
        doorbell: Rc<Doorbell>,
        shared: bool,
    ) -> Rc<Self> {
        let cfg = &ctx.node().cfg;
        let lock = ContendedLock::new(
            ctx.node().handle.clone(),
            cfg.qp_lock_handoff,
            cfg.db_penalty_cap,
        );
        let probe = ctx.node().handle.fresh_probe_id();
        Rc::new(Qp {
            ctx,
            index,
            target,
            cq,
            doorbell,
            lock,
            shared,
            outstanding: Cell::new(0),
            posted: Cell::new(0),
            errored: Cell::new(false),
            reestablished: Cell::new(0),
            probe,
        })
    }

    /// Index of this QP within its context.
    pub fn index(&self) -> u32 {
        self.index
    }

    /// The memory blade this QP is connected to.
    pub fn target(&self) -> &Rc<MemoryBlade> {
        &self.target
    }

    /// The completion queue receiving this QP's completions.
    pub fn cq(&self) -> &Rc<Cq> {
        &self.cq
    }

    /// The doorbell this QP rings.
    pub fn doorbell(&self) -> &Rc<Doorbell> {
        &self.doorbell
    }

    /// The owning device context.
    pub fn context(&self) -> &Rc<DeviceContext> {
        &self.ctx
    }

    /// Work requests posted on this QP that have not yet completed.
    pub fn outstanding(&self) -> u32 {
        self.outstanding.get()
    }

    /// Total work requests ever posted.
    pub fn posted(&self) -> u64 {
        self.posted.get()
    }

    pub(crate) fn complete_one(&self) {
        self.outstanding.set(self.outstanding.get() - 1);
    }

    /// Whether this QP is in the error state. While errored, every work
    /// request that has not yet left the node completes with
    /// [`CqeError::FlushErr`](crate::CqeError::FlushErr) instead of
    /// executing.
    pub fn is_errored(&self) -> bool {
        self.errored.get()
    }

    /// Forces the QP into the error state (fault injection). New posts
    /// flush at once; work requests still in the requester pipeline flush
    /// as they reach departure; work requests already on the wire execute
    /// and complete normally.
    pub fn force_error(&self) {
        self.errored.set(true);
    }

    /// Tears the QP back to ready-to-send after an error transition
    /// (`modify_qp` through RESET → INIT → RTR → RTS). The caller models
    /// the reconnection latency; this just flips the state and counts.
    pub fn reestablish(&self) {
        self.errored.set(false);
        self.reestablished.set(self.reestablished.get() + 1);
    }

    /// How many times this QP has been re-established after an error.
    pub fn reestablish_count(&self) -> u64 {
        self.reestablished.get()
    }

    /// Serializes a post of `n` WQEs on the QP lock (the RPC path reuses
    /// the one-sided posting costs).
    pub(crate) async fn lock_for_post(&self, n: u32, actor: Actor) {
        let cfg = &self.ctx.node().cfg;
        let mut hold = cfg.db_wqe_write.saturating_mul(n);
        if self.shared {
            hold += cfg.qp_shared_extra;
        }
        self.lock.exec_as(hold, actor, "qp_lock").await;
    }

    /// Posts a chain of work requests (`ibv_post_send`) and rings the
    /// doorbell. The returned future resolves when the doorbell write has
    /// been issued — completions arrive asynchronously on the CQ.
    ///
    /// Cost model: WQE writes are serialized on the QP lock (with an extra
    /// penalty for thread-shared QPs), then the doorbell MMIO write is
    /// serialized on the doorbell's driver spinlock — which other threads'
    /// QPs may share (§3.1).
    ///
    /// `owner_tag` identifies the posting thread (any stable id); it
    /// exempts a thread's own queued posts from the cross-core spinlock
    /// handoff penalties on the QP lock and doorbell.
    ///
    /// # Panics
    ///
    /// Panics if `wrs` is empty or if a request targets a different blade
    /// than this QP is connected to.
    pub async fn post_send(self: &Rc<Self>, wrs: Vec<WorkRequest>, owner_tag: u64) {
        self.post_send_as(wrs, Actor::thread(owner_tag)).await;
    }

    /// Like [`Self::post_send`] with `actor.tid` as the owner tag; the
    /// actor additionally labels the `db_lock` spans recorded for the QP
    /// lock and doorbell and travels with each work request's lifecycle so
    /// pipeline/fabric time is attributed to the posting coroutine.
    pub async fn post_send_as(self: &Rc<Self>, wrs: Vec<WorkRequest>, actor: Actor) {
        assert!(
            !wrs.is_empty(),
            "post_send requires at least one work request"
        );
        for wr in &wrs {
            assert_eq!(
                wr.op.target(),
                self.target.id(),
                "work request targets blade {:?} but QP is connected to {:?}",
                wr.op.target(),
                self.target.id()
            );
        }
        let node = self.ctx.node();
        let n = wrs.len() as u32;
        if let Some(plan) = node.domain_plan.borrow().as_ref() {
            if plan.crossing(node.id(), self.target.id()) {
                node.cross_domain_wrs.add(wrs.len() as u64);
            }
        }
        self.posted.set(self.posted.get() + wrs.len() as u64);
        self.outstanding.set(self.outstanding.get() + n);
        // Appending to the send queue is a blind write on the QP's queue
        // cell for the `smart-check` atomicity sanitizer.
        node.handle
            .probe_sync(actor, "qp_sq", SyncOp::Write, self.probe);

        self.lock_for_post(n, actor).await;
        self.doorbell.ring_as(actor).await;

        for wr in wrs {
            let qp = Rc::clone(self);
            node.handle.spawn_detached(verbs::lifecycle(qp, wr, actor));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Cqe, OpResult};
    use smart_rt::Simulation;

    #[test]
    fn cq_poll_drains_fifo() {
        let cq = Cq::default();
        for i in 0..5 {
            cq.push(Cqe {
                wr_id: i,
                result: OpResult::Write,
            });
        }
        assert_eq!(cq.len(), 5);
        let got = cq.poll(3);
        assert_eq!(
            got.iter().map(|c| c.wr_id).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(cq.len(), 2);
        assert_eq!(cq.delivered(), 5);
        // `drain_into` appends the rest to the caller's buffer.
        let mut got = got;
        cq.drain_into(&mut got);
        assert_eq!(
            got.iter().map(|c| c.wr_id).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert!(cq.is_empty());
    }

    #[test]
    fn wait_nonempty_parks_until_push() {
        let mut sim = Simulation::new(0);
        let cq = Cq::new();
        let cq2 = Rc::clone(&cq);
        let h = sim.handle();
        sim.spawn(async move {
            h.sleep(smart_rt::Duration::from_nanos(100)).await;
            cq2.push(Cqe {
                wr_id: 1,
                result: OpResult::Write,
            });
        });
        let cq3 = Rc::clone(&cq);
        let h2 = sim.handle();
        let t = sim.block_on(async move {
            cq3.wait_nonempty().await;
            h2.now().as_nanos()
        });
        assert_eq!(t, 100);
    }

    #[test]
    fn wait_nonempty_returns_immediately_when_ready() {
        let mut sim = Simulation::new(0);
        let cq = Cq::new();
        cq.push(Cqe {
            wr_id: 1,
            result: OpResult::Write,
        });
        let cq2 = Rc::clone(&cq);
        let h = sim.handle();
        let t = sim.block_on(async move {
            cq2.wait_nonempty().await;
            h.now().as_nanos()
        });
        assert_eq!(t, 0);
    }
}
