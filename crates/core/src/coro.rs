//! The coroutine-level verb API (§5.1): `read`/`write`/`cas`/`faa` buffer
//! work requests, `post_send` ships them (throttled), `sync` awaits their
//! completions, and `backoff_cas_sync` adds conflict avoidance.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use smart_rnic::{Cqe, CqeError, OneSidedOp, RemoteAddr, WorkRequest};
use smart_rt::detmap::DetMap;
use smart_rt::SimTime;
use smart_trace::{Actor, Args, Category};

use crate::thread::SmartThread;

/// A `sync` gave up on a failed work request: either the completion error
/// is permanent (not retriable) or the [`RetryPolicy`](crate::RetryPolicy)
/// budget ran out while it kept failing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultError {
    /// The work request the recovery layer gave up on.
    pub wr_id: u64,
    /// Its final completion error.
    pub error: CqeError,
    /// Retry rounds performed before giving up (0 = failed on first
    /// completion with a permanent error).
    pub attempts: u32,
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "wr {} failed with {} after {} retry attempts",
            self.wr_id, self.error, self.attempts
        )
    }
}

impl std::error::Error for FaultError {}

/// A coroutine handle: the unit through which applications issue verbs.
///
/// Verb builders (`read`, `write`, `cas`, `faa`) are synchronous — they
/// append to the coroutine's WR buffer and return the `wr_id`. The async
/// `post_send`/`sync` pair ships and awaits them; `*_sync` conveniences
/// combine all three.
pub struct SmartCoro {
    thread: Rc<SmartThread>,
    actor: Actor,
    pending: RefCell<Vec<WorkRequest>>,
    unsynced: RefCell<Vec<u64>>,
    /// Posted-but-unacknowledged work requests, retained so the recovery
    /// layer can repost them when their completions come back as errors.
    /// Point-lookup only (insert/get/remove by wr_id) — [`DetMap`] keeps
    /// the hot path O(1) without exposing any iteration order.
    in_flight: RefCell<DetMap<WorkRequest>>,
    backoff_attempt: Cell<u32>,
    holds_slot: Cell<bool>,
    in_op: Cell<bool>,
    op_conflicted: Cell<bool>,
}

/// Guard returned by [`SmartCoro::op_scope`]; dropping it ends the
/// operation and releases the coroutine's concurrency slot.
pub struct OpGuard<'a> {
    coro: &'a SmartCoro,
}

impl std::fmt::Debug for OpGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpGuard").finish()
    }
}

impl Drop for OpGuard<'_> {
    fn drop(&mut self) {
        self.coro.end_op();
    }
}

impl std::fmt::Debug for SmartCoro {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SmartCoro")
            .field("thread", &self.thread.index())
            .field("pending", &self.pending.borrow().len())
            .field("unsynced", &self.unsynced.borrow().len())
            .finish()
    }
}

impl SmartCoro {
    pub(crate) fn new(thread: Rc<SmartThread>) -> Self {
        let actor = Actor::new(thread.tag(), thread.next_coro_index());
        SmartCoro {
            thread,
            actor,
            pending: RefCell::new(Vec::new()),
            unsynced: RefCell::new(Vec::new()),
            in_flight: RefCell::new(DetMap::new()),
            backoff_attempt: Cell::new(0),
            holds_slot: Cell::new(false),
            in_op: Cell::new(false),
            op_conflicted: Cell::new(false),
        }
    }

    /// Opens an application-operation scope, acquiring one of the
    /// thread's `c_max` concurrency slots (§4.3) for the whole operation.
    ///
    /// The paper's coroutine throttling works at *operation* granularity:
    /// "under high contention workloads, a coroutine does not suspend
    /// until the current operation has been completed". Applications wrap
    /// each index operation / transaction attempt in an `op_scope`, so
    /// shrinking `c_max` reduces the number of whole operations in
    /// flight — the mechanism that narrows the read→CAS vulnerability
    /// window. Without a scope, `sync` releases the slot per verb.
    pub async fn op_scope(&self) -> OpGuard<'_> {
        self.op_scope_named("op").await
    }

    /// [`Self::op_scope`] with an operation-kind label (`"ht_get"`,
    /// `"dtx_txn"`, `"bt_insert"`, …) for the tracer's latency-attribution
    /// layer: until the guard drops, `db_lock`/`credit`/`pipeline`/
    /// `fabric`/`backoff` spans recorded by this coroutine are charged to
    /// one operation of that kind.
    pub async fn op_scope_named(&self, kind: &'static str) -> OpGuard<'_> {
        if !self.holds_slot.get() {
            self.thread
                .conflict
                .acquire_slot_as(self.thread.handle(), self.actor)
                .await;
            self.holds_slot.set(true);
        }
        self.in_op.set(true);
        self.op_conflicted.set(false);
        let h = self.thread.handle();
        h.with_tracer(|t| t.begin_op(h.now().as_nanos(), self.actor, kind));
        OpGuard { coro: self }
    }

    /// Marks the current operation as having suffered a contention retry
    /// (failed CAS, lost lock, transaction abort). Feeds the γ retry rate
    /// of §4.3 — "the percentage of retries for all operations".
    pub fn mark_op_conflict(&self) {
        if self.in_op.get() {
            self.op_conflicted.set(true);
        } else {
            // No surrounding operation: count the event as an operation
            // of its own.
            self.thread.conflict.record(false);
        }
    }

    fn end_op(&self) {
        let h = self.thread.handle();
        h.with_tracer(|t| t.end_op(h.now().as_nanos(), self.actor));
        self.in_op.set(false);
        self.thread.conflict.record(!self.op_conflicted.get());
        self.op_conflicted.set(false);
        if self.holds_slot.get() {
            self.thread.conflict.release_slot_as(h, self.actor);
            self.holds_slot.set(false);
        }
    }

    /// The owning thread.
    pub fn thread(&self) -> &Rc<SmartThread> {
        &self.thread
    }

    /// This coroutine's trace identity (thread tag + coroutine index).
    pub fn actor(&self) -> Actor {
        self.actor
    }

    /// Current virtual time.
    pub fn now(&self) -> smart_rt::SimTime {
        self.thread.now()
    }

    fn push(&self, op: OneSidedOp) -> u64 {
        let id = self.thread.context().next_wr_id();
        self.pending
            .borrow_mut()
            .push(WorkRequest { wr_id: id, op });
        id
    }

    /// Buffers an RDMA READ of `len` bytes; returns its `wr_id`.
    pub fn read(&self, addr: RemoteAddr, len: u32) -> u64 {
        self.push(OneSidedOp::Read { addr, len })
    }

    /// Buffers an RDMA WRITE; returns its `wr_id`.
    pub fn write(&self, addr: RemoteAddr, data: Vec<u8>) -> u64 {
        self.push(OneSidedOp::Write {
            addr,
            data,
            persistent: false,
        })
    }

    /// Buffers an RDMA WRITE to persistent memory (pays the NVM write
    /// latency at the blade); returns its `wr_id`.
    pub fn write_persistent(&self, addr: RemoteAddr, data: Vec<u8>) -> u64 {
        self.push(OneSidedOp::Write {
            addr,
            data,
            persistent: true,
        })
    }

    /// Buffers an RDMA CAS; returns its `wr_id`.
    pub fn cas(&self, addr: RemoteAddr, expect: u64, swap: u64) -> u64 {
        self.push(OneSidedOp::Cas { addr, expect, swap })
    }

    /// Buffers an RDMA FAA; returns its `wr_id`.
    pub fn faa(&self, addr: RemoteAddr, add: u64) -> u64 {
        self.push(OneSidedOp::Faa { addr, add })
    }

    /// Posts every buffered work request.
    ///
    /// Applies SMART's machinery in order: the coroutine-slot limit
    /// (`c_max`, §4.3), the credit throttle (`C_max`, Algorithm 1 — chains
    /// longer than the credit cap are split and stall between chunks),
    /// the thread-CPU cost of building WQEs, and finally the QP/doorbell
    /// path of the underlying RNIC.
    pub async fn post_send(&self) {
        let wrs = self.pending.take();
        if wrs.is_empty() {
            return;
        }
        if !self.holds_slot.get() {
            self.thread
                .conflict
                .acquire_slot_as(self.thread.handle(), self.actor)
                .await;
            self.holds_slot.set(true);
        }
        let ids = self.ship(wrs).await;
        self.unsynced.borrow_mut().extend(ids);
    }

    /// Posts `wrs` through the credit path, returning their ids in posted
    /// order. Shared by the first post and by recovery reposts — retries
    /// consume fresh credits like any other post, which is what keeps the
    /// throttle's conservation invariant intact under injected errors.
    async fn ship(&self, mut wrs: Vec<WorkRequest>) -> Vec<u64> {
        let cfg = self.thread.context().config();
        let mut shipped = Vec::with_capacity(wrs.len());
        // Post blade by blade in ascending order, each blade's requests in
        // buffer order: a stable sort, skipped for the usual batch that
        // targets one blade (or already runs in that order).
        if !wrs.is_sorted_by_key(|wr| wr.op.target().0) {
            wrs.sort_by_key(|wr| wr.op.target().0);
        }
        while let Some(first) = wrs.first() {
            let blade = first.op.target();
            let group = wrs.iter().take_while(|wr| wr.op.target() == blade).count();
            let want = group.min(self.thread.throttle.chunk_limit());
            let take = self
                .thread
                .throttle
                .acquire_chunk_as(want, self.thread.handle(), self.actor)
                .await;
            // Taking all that is left moves the buffer; nothing is copied.
            let rest = wrs.split_off(take);
            let chunk = std::mem::replace(&mut wrs, rest);
            self.thread.stats().rdma_posted.add(chunk.len() as u64);
            self.thread
                .cpu
                .use_for(cfg.cpu_build_wr * chunk.len() as u32 + cfg.cpu_post_overhead)
                .await;
            {
                let mut in_flight = self.in_flight.borrow_mut();
                for wr in &chunk {
                    in_flight.insert(wr.wr_id, wr.clone());
                    shipped.push(wr.wr_id);
                }
            }
            // The QP-lock/doorbell serialization below delays this
            // coroutine directly; it is NOT additionally charged to
            // the thread CPU — coroutines of one thread never truly
            // spin against each other (they share the OS thread), and
            // charging inter-thread lock waits twice would compound
            // the contention model quadratically.
            self.thread
                .qp_to(blade)
                .post_send_as(chunk, self.actor)
                .await;
        }
        shipped
    }

    /// Waits for every work request this coroutine has posted (and not
    /// yet synced), returning their completions in posting order.
    ///
    /// Replenishes credits (Algorithm 1 `SMARTPOLLCQ`) and releases the
    /// coroutine slot. Retriable completion errors are retried
    /// transparently per the [`RetryPolicy`](crate::RetryPolicy).
    ///
    /// # Panics
    ///
    /// Panics on an unrecoverable fault — a permanent completion error or
    /// an exhausted retry budget. Use [`Self::try_sync`] to handle faults
    /// as values instead.
    pub async fn sync(&self) -> Vec<Cqe> {
        self.try_sync()
            .await
            .unwrap_or_else(|e| panic!("unrecoverable RDMA fault: {e}"))
    }

    /// Like [`Self::sync`], but surfaces unrecoverable faults as a typed
    /// [`FaultError`] instead of panicking.
    ///
    /// Retriable errors (flushes from an errored QP, RNR rejections,
    /// fabric timeouts, stale post-restart registrations) are handled
    /// in-place: the coroutine backs off with the §4.3 truncated
    /// exponential delay, re-establishes errored QPs, waits out memory
    /// re-registration, and reposts the failed work requests through the
    /// normal credit path — so a run under any fault plan that eventually
    /// heals completes with exactly-once results. Permanent errors
    /// (remote access, length) and exhausted retry budgets return `Err`.
    pub async fn try_sync(&self) -> Result<Vec<Cqe>, FaultError> {
        let mut ids = self.unsynced.take();
        let out = self.await_recovered(&ids).await;
        // Hand the buffer back for the next lap's ids.
        ids.clear();
        if self.unsynced.borrow().is_empty() {
            self.unsynced.replace(ids);
        }
        // Inside an op_scope the slot is held until the guard drops; the
        // slot is released on the error path too, so a surfaced fault
        // never strands a concurrency slot.
        if self.holds_slot.get() && !self.in_op.get() {
            self.thread
                .conflict
                .release_slot_as(self.thread.handle(), self.actor);
            self.holds_slot.set(false);
        }
        out
    }

    /// The recovery loop: claims `ids`, retries failed work requests per
    /// the retry policy, and returns the successful completions in the
    /// order of `ids`.
    async fn await_recovered(&self, ids: &[u64]) -> Result<Vec<Cqe>, FaultError> {
        if ids.is_empty() {
            return Ok(Vec::new());
        }
        let thread = &self.thread;
        let cfg = thread.context().config();
        let handle = thread.handle().clone();
        let start = handle.now();
        // Fault-path state; none of it allocates until a completion fails.
        let mut done: DetMap<Cqe> = DetMap::new();
        let mut fault_since: DetMap<SimTime> = DetMap::new();
        let mut reposted: Vec<u64> = Vec::new();
        let mut rounds: u32 = 0;
        loop {
            let wait: &[u64] = if rounds == 0 { ids } else { &reposted };
            let cqes = thread.hub.claim(wait).await;
            // Per-thread hubs replenish credits in the polling coroutine
            // (Algorithm 1); shared hubs cannot know the owner, so the
            // claimer replenishes its own credits here. Error completions
            // release credits like successes — the request is off the RNIC
            // either way.
            if cfg.policy.shares_qps() {
                thread.throttle.replenish(wait.len() as u64);
            }
            thread.stats().rdma_completed.add(wait.len() as u64);
            if rounds == 0 && cqes.iter().all(|cqe| cqe.error().is_none()) {
                // The usual sync: `claim` returned every completion, in
                // the order of `ids`.
                let mut in_flight = self.in_flight.borrow_mut();
                for cqe in &cqes {
                    in_flight.remove(&cqe.wr_id);
                }
                return Ok(cqes);
            }
            let mut failed: Vec<(u64, CqeError)> = Vec::new();
            for cqe in cqes {
                match cqe.error() {
                    None => {
                        self.in_flight.borrow_mut().remove(&cqe.wr_id);
                        if let Some(t0) = fault_since.remove(&cqe.wr_id) {
                            let stats = thread.stats();
                            stats.faults_recovered.incr();
                            stats
                                .recovery_ns
                                .borrow_mut()
                                .record((handle.now() - t0).as_nanos() as u64);
                        }
                        done.insert(cqe.wr_id, cqe);
                    }
                    Some(err) => failed.push((cqe.wr_id, err)),
                }
            }
            if failed.is_empty() {
                return Ok(ids
                    .iter()
                    // Invariant, not a fault path: with `failed` empty,
                    // every claimed id was inserted into `done` above.
                    // lint:allow(panic-in-recovery)
                    .map(|id| done.remove(id).expect("claimed wr present"))
                    .collect());
            }
            rounds += 1;
            let now = handle.now();
            for (id, _) in &failed {
                thread.stats().faults_seen.incr();
                fault_since.get_or_insert_with(*id, || now);
            }
            let budget_spent = cfg.retry.max_retries.is_some_and(|m| rounds > m)
                || cfg.retry.deadline.is_some_and(|d| now - start > d);
            let give_up =
                failed
                    .iter()
                    .find(|(_, e)| !e.is_retriable())
                    .copied()
                    .or(if budget_spent {
                        failed.first().copied()
                    } else {
                        None
                    });
            if let Some((wr_id, error)) = give_up {
                let mut in_flight = self.in_flight.borrow_mut();
                for (id, _) in &failed {
                    in_flight.remove(id);
                }
                return Err(FaultError {
                    wr_id,
                    error,
                    attempts: rounds - 1,
                });
            }
            // Heal before retrying: back off (§4.3 Equation 1), bring
            // errored QPs back to ready-to-send, and wait out memory
            // re-registration after a blade restart.
            let delay = thread.conflict.backoff_delay(rounds - 1, &handle);
            handle.with_tracer(|t| {
                t.span(
                    handle.now().as_nanos(),
                    delay.as_nanos() as u64,
                    self.actor,
                    Category::Fault,
                    "fault_retry",
                    Args::two("wrs", failed.len() as u64, "round", rounds as u64),
                );
            });
            handle.sleep(delay).await;
            let needs_rereg = failed.iter().any(|(_, e)| *e == CqeError::MrRevoked);
            let retry_wrs: Vec<WorkRequest> = {
                let in_flight = self.in_flight.borrow();
                failed
                    .iter()
                    // Invariant, not a fault path: `in_flight` retains a
                    // WR until its completion is claimed, and failed WRs
                    // never were. lint:allow(panic-in-recovery)
                    .map(|(id, _)| in_flight.get(id).expect("failed wr retained").clone())
                    .collect()
            };
            let mut reconnected: Vec<u32> = Vec::new();
            for wr in &retry_wrs {
                let blade = wr.op.target();
                if reconnected.contains(&blade.0) {
                    continue;
                }
                let qp = Rc::clone(thread.qp_to(blade));
                if qp.is_errored() {
                    handle.sleep(cfg.retry.reconnect_latency).await;
                    qp.reestablish();
                    handle.with_tracer(|t| {
                        t.instant(
                            handle.now().as_nanos(),
                            self.actor,
                            Category::Fault,
                            "qp_reestablish",
                            Args::two("blade", blade.0 as u64, "count", qp.reestablish_count()),
                        );
                    });
                    reconnected.push(blade.0);
                }
            }
            if needs_rereg {
                handle.sleep(cfg.retry.reregister_latency).await;
                handle.with_tracer(|t| {
                    t.instant(
                        handle.now().as_nanos(),
                        self.actor,
                        Category::Fault,
                        "mr_rereg",
                        Args::NONE,
                    );
                });
            }
            reposted = self.ship(retry_wrs).await;
        }
    }

    /// READ + `post_send` + `sync`, returning the data.
    pub async fn read_sync(&self, addr: RemoteAddr, len: u32) -> Vec<u8> {
        let id = self.read(addr, len);
        self.roundtrip(id).await.read_data().to_vec()
    }

    /// WRITE + `post_send` + `sync`.
    pub async fn write_sync(&self, addr: RemoteAddr, data: Vec<u8>) {
        let id = self.write(addr, data);
        self.roundtrip(id).await;
    }

    /// CAS + `post_send` + `sync`, returning the old value.
    ///
    /// Emits a `smart-check` CAS probe on the target cell: in the
    /// sanitizer's model an atomic compare-and-swap *closes* any open
    /// read-modify-write on the cell, because the comparison re-validates
    /// the value read before any suspension (the RACE/Sherman optimistic
    /// retry protocol).
    pub async fn cas_sync(&self, addr: RemoteAddr, expect: u64, swap: u64) -> u64 {
        let id = self.cas(addr, expect, swap);
        let old = self.roundtrip(id).await.atomic_old();
        self.probe_cell(addr, "cas_cell", smart_trace::SyncOp::Cas);
        old
    }

    /// FAA + `post_send` + `sync`, returning the old value.
    pub async fn faa_sync(&self, addr: RemoteAddr, add: u64) -> u64 {
        let id = self.faa(addr, add);
        self.roundtrip(id).await.atomic_old()
    }

    /// Fallible [`Self::read_sync`]: surfaces unrecoverable faults as a
    /// [`FaultError`] instead of panicking.
    pub async fn try_read_sync(&self, addr: RemoteAddr, len: u32) -> Result<Vec<u8>, FaultError> {
        let id = self.read(addr, len);
        Ok(self.try_roundtrip(id).await?.read_data().to_vec())
    }

    /// Fallible [`Self::write_sync`].
    pub async fn try_write_sync(&self, addr: RemoteAddr, data: Vec<u8>) -> Result<(), FaultError> {
        let id = self.write(addr, data);
        self.try_roundtrip(id).await?;
        Ok(())
    }

    /// Fallible [`Self::cas_sync`], returning the old value.
    pub async fn try_cas_sync(
        &self,
        addr: RemoteAddr,
        expect: u64,
        swap: u64,
    ) -> Result<u64, FaultError> {
        let id = self.cas(addr, expect, swap);
        let old = self.try_roundtrip(id).await?.atomic_old();
        self.probe_cell(addr, "cas_cell", smart_trace::SyncOp::Cas);
        Ok(old)
    }

    /// Fallible [`Self::faa_sync`], returning the old value.
    pub async fn try_faa_sync(&self, addr: RemoteAddr, add: u64) -> Result<u64, FaultError> {
        let id = self.faa(addr, add);
        Ok(self.try_roundtrip(id).await?.atomic_old())
    }

    async fn roundtrip(&self, id: u64) -> Cqe {
        self.try_roundtrip(id)
            .await
            .unwrap_or_else(|e| panic!("unrecoverable RDMA fault: {e}"))
    }

    /// `post_send` + `try_sync`, returning the completion of `id` (a
    /// `wr_id` from one of the verb builders) or the fault the recovery
    /// layer gave up on.
    pub async fn try_roundtrip(&self, id: u64) -> Result<Cqe, FaultError> {
        self.post_send().await;
        let cqes = self.try_sync().await?;
        Ok(cqes
            .into_iter()
            .find(|c| c.wr_id == id)
            // Invariant, not a fault path: `try_sync` already returned
            // Ok, which claims every posted WR's completion — `id` was
            // posted by this roundtrip. lint:allow(panic-in-recovery)
            .expect("posted wr must complete"))
    }

    /// CAS with conflict avoidance (§4.3, §5.1): same semantics as
    /// `cas` + `sync`, but a failed comparison also records a retry for
    /// the γ controller and delays the coroutine by the truncated
    /// exponential backoff before returning, "allowing the application to
    /// change the expected value".
    pub async fn backoff_cas_sync(&self, addr: RemoteAddr, expect: u64, swap: u64) -> u64 {
        let old = self.cas_sync(addr, expect, swap).await;
        let success = old == expect;
        let stats = self.thread.stats();
        stats.cas_attempts.incr();
        if !success {
            self.mark_op_conflict();
        }
        if success {
            self.backoff_attempt.set(0);
        } else {
            stats.cas_failures.incr();
            if self.thread.conflict.backoff_enabled() {
                let d = self
                    .thread
                    .conflict
                    .backoff_delay(self.backoff_attempt.get(), self.thread.handle());
                let h = self.thread.handle();
                h.with_tracer(|t| {
                    t.span(
                        h.now().as_nanos(),
                        d.as_nanos() as u64,
                        self.actor,
                        Category::Backoff,
                        "cas_backoff",
                        Args::two(
                            "t_max_ns",
                            self.thread.conflict.t_max().as_nanos() as u64,
                            "c_max",
                            self.thread.conflict.c_max().max(0) as u64,
                        ),
                    );
                });
                self.thread.handle().sleep(d).await;
            }
            self.backoff_attempt.set(self.backoff_attempt.get() + 1);
        }
        old
    }

    /// The consecutive-failure count driving the exponential backoff.
    pub fn backoff_attempt(&self) -> u32 {
        self.backoff_attempt.get()
    }

    /// Emits a `smart-check` probe recording that this coroutine performed
    /// `op` on the shared cell at `addr` (identified by
    /// [`RemoteAddr::cell_id`]). Data structures call this where they
    /// *observe* a slot/cell they will later CAS or overwrite, so the
    /// await-point atomicity sanitizer can track the read→modify window.
    pub fn probe_cell(&self, addr: RemoteAddr, name: &'static str, op: smart_trace::SyncOp) {
        self.thread
            .handle()
            .probe_sync(self.actor, name, op, addr.cell_id());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RetryPolicy, SmartConfig};
    use crate::context::SmartContext;
    use smart_rnic::{Cluster, ClusterConfig, FaultHook, InjectDecision, Qp};
    use smart_rt::Simulation;

    fn setup(cfg: SmartConfig) -> (Simulation, Cluster, Rc<SmartThread>) {
        let sim = Simulation::new(11);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::new(1, 1));
        let ctx = SmartContext::new(cluster.compute(0), cluster.blades(), cfg);
        let thread = ctx.create_thread();
        (sim, cluster, thread)
    }

    #[test]
    fn recovery_reestablishes_errored_qp_and_retries() {
        let (mut sim, cluster, thread) = setup(SmartConfig::smart_full(1));
        let blade = Rc::clone(cluster.blade(0));
        let off = blade.alloc(8, 8);
        let addr = RemoteAddr::new(blade.id(), off);
        let qp = Rc::clone(thread.qp_to(blade.id()));
        qp.force_error();
        let coro = thread.coroutine();
        let t = Rc::clone(&thread);
        sim.block_on(async move {
            coro.write_sync(addr, 77u64.to_le_bytes().to_vec()).await;
        });
        assert_eq!(blade.read_u64(off), 77, "write lands after recovery");
        assert_eq!(qp.reestablish_count(), 1);
        assert!(thread.stats().faults_seen.get() >= 1);
        assert_eq!(thread.stats().faults_recovered.get(), 1);
        assert!(thread.stats().recovery_ns.borrow().count() == 1);
        assert!(t.throttle().conservation_violations().is_empty());
    }

    struct AlwaysFail(CqeError);
    impl FaultHook for AlwaysFail {
        fn on_wr(&self, _qp: &Qp, _wr: &WorkRequest) -> InjectDecision {
            InjectDecision::Fail(self.0)
        }
    }

    #[test]
    fn permanent_error_surfaces_without_retry() {
        let (mut sim, cluster, thread) = setup(SmartConfig::smart_full(1));
        cluster
            .compute(0)
            .install_fault_hook(Rc::new(AlwaysFail(CqeError::RemoteAccess)));
        let blade = cluster.blade(0);
        let addr = RemoteAddr::new(blade.id(), blade.alloc(8, 8));
        let coro = thread.coroutine();
        let err = sim
            .block_on(async move { coro.try_write_sync(addr, vec![0u8; 8]).await })
            .expect_err("permanent error must surface");
        assert_eq!(err.error, CqeError::RemoteAccess);
        assert_eq!(err.attempts, 0, "permanent errors are not retried");
        assert!(thread.throttle().conservation_violations().is_empty());
    }

    #[test]
    fn retry_budget_bounds_transient_failures() {
        let cfg = SmartConfig::smart_full(1).with_retry(RetryPolicy::default().with_max_retries(3));
        let (mut sim, cluster, thread) = setup(cfg);
        cluster
            .compute(0)
            .install_fault_hook(Rc::new(AlwaysFail(CqeError::Timeout)));
        let blade = cluster.blade(0);
        let addr = RemoteAddr::new(blade.id(), blade.alloc(8, 8));
        let coro = thread.coroutine();
        let err = sim
            .block_on(async move { coro.try_read_sync(addr, 8).await })
            .expect_err("budget exhaustion must surface");
        assert_eq!(err.error, CqeError::Timeout);
        assert_eq!(err.attempts, 3);
        assert!(thread.throttle().conservation_violations().is_empty());
    }

    #[test]
    fn fault_error_formats_for_humans() {
        let e = FaultError {
            wr_id: 42,
            error: CqeError::RnrNak,
            attempts: 5,
        };
        let s = e.to_string();
        assert!(s.contains("42") && s.contains("5"), "{s}");
    }
}
