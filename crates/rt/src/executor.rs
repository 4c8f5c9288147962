//! The single-threaded executor: task slab, ready queue, virtual clock.
//!
//! One [`Simulation`] step is either a task poll or a timer fire, and
//! the order of steps is the simulation. Tasks are polled in FIFO order
//! of their wakes; timers fire in `(deadline, tie_key, seq)` order (the
//! timer wheel, `wheel.rs`) and only while no task is ready.
//!
//! # Ready queue
//!
//! Everything the executor does on its own thread — a spawn, a wake by
//! task id ([`Wakeup::Task`]), a pop — goes through a local
//! `RefCell<VecDeque>` FIFO, with a per-slot `scheduled` flag for dedup
//! beside the slot's generation: no atomic read-modify-write anywhere on
//! that path. A `Waker` must be `Send + Sync`, so a wake through one
//! (a [`SlotWaker`]: `wake_at`, a hand-written combinator, a waker that
//! left the thread) lands in a locked [`Inbox`] instead. The inbox is
//! folded into the back of the local FIFO before the next local push or
//! pop, which on the executor's thread gives every wake exactly the
//! position it would have had in one shared queue.

use std::cell::{Cell, RefCell, UnsafeCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::Duration;

use crate::join::{JoinHandle, JoinState};
use crate::metrics::ExecutorMetrics;
use crate::pdes::{Inbound, Payload};
use crate::rng::{mix64, SimRng};
use crate::time::SimTime;
use crate::wheel::{TimerToken, TimerWake, TimerWheel, NO_TASK};

/// A task identity: slab index in the low half, slot generation in the
/// high half. The generation lets the executor drop a wake that was
/// enqueued for a previous occupant of a reused slot.
pub(crate) type TaskId = u64;

fn pack(idx: u32, gen: u32) -> TaskId {
    ((gen as u64) << 32) | idx as u64
}

fn unpack(id: TaskId) -> (u32, u32) {
    (id as u32, (id >> 32) as u32)
}

/// Where wakes through a [`SlotWaker`] land: the one queue a `Waker`
/// that is `Send + Sync` can reach, so it is locked (a spin guard:
/// `smart-lint` keeps OS locks out of sim code, and uncontended the two
/// cost the same). The executor's own spawns and wakes by task id go to its
/// local FIFO and never touch it; every local push or pop first folds a
/// nonempty inbox into that FIFO (see [`Inner::fold_inbox`]), so on the
/// executor's thread a waker wake takes exactly the queue position it
/// would have had in one shared queue. `pending` spares the executor the
/// lock while the inbox is empty, which it always is unless something
/// woke a waker.
#[derive(Default)]
struct Inbox {
    pending: AtomicBool,
    locked: AtomicBool,
    queue: UnsafeCell<Vec<TaskId>>,
}

// SAFETY: `pending` and `locked` are atomics. `queue` holds plain
// task ids and is only touched inside `with`, which holds the `locked`
// spin guard; its Acquire/Release pair orders those accesses. `pending`
// is stored (Release) inside the guard and read (Acquire) outside it
// only to decide whether to take the guard.
unsafe impl Send for Inbox {}
unsafe impl Sync for Inbox {}

impl Inbox {
    fn with<R>(&self, f: impl FnOnce(&mut Vec<TaskId>) -> R) -> R {
        while self
            .locked
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            std::hint::spin_loop();
        }
        // SAFETY: the spin guard above gives exclusive access.
        let out = f(unsafe { &mut *self.queue.get() });
        self.locked.store(false, Ordering::Release);
        out
    }
}

/// The per-slot waker, created once when a slab slot is first used and
/// reused by every task that later occupies the slot — spawning no longer
/// allocates a fresh `Arc` pair per task. `gen` mirrors the slot's
/// current generation so wakes are stamped with the occupant they were
/// meant for.
///
/// This is the runtime's only `Waker` implementation and the wake path
/// of every context the runtime cannot name: `wake_at`, a combinator
/// that polls with a waker of its own, a waker that left the thread.
/// The runtime's own futures, polled with their task's own context, park
/// a [`Wakeup::Task`] instead and never clone, wake or drop one of these.
///
/// Aligned to 16 so its `Arc` stays a 48-byte allocation, the size it had
/// with the two `Arc`s it used to hold: one allocation per task slot, and
/// a smaller size class moved `micro_read`'s `host_peak_rss_mb` from
/// 5.6 MB to 6.3 MB in four runs of six (glibc's bins, not live memory).
#[repr(align(16))]
struct SlotWaker {
    idx: u32,
    gen: AtomicU32,
    /// Set while the slot has an entry in the inbox, so wakes repeated
    /// before the executor folds it add nothing. Whether the wake counts
    /// is decided at the fold, against the slot's `scheduled` flag.
    inboxed: AtomicBool,
    inbox: Arc<Inbox>,
}

impl Wake for SlotWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        if !self.inboxed.swap(true, Ordering::Relaxed) {
            self.inbox.with(|queue| {
                queue.push(pack(self.idx, self.gen.load(Ordering::Relaxed)));
                self.inbox.pending.store(true, Ordering::Release);
            });
        }
    }
}

/// One slab slot: the resident future (when occupied) plus the slot's
/// permanent waker machinery. `waker` is moved out for the duration of a
/// poll and back with the future, so a poll clones nothing.
struct TaskSlot {
    future: Option<Pin<Box<dyn Future<Output = ()>>>>,
    gen: u32,
    /// Dedup flag: set while the slot has an entry in the ready queue.
    /// It lives here, beside `gen`, so a wake by id and a poll touch one
    /// cache line and no atomic.
    scheduled: bool,
    waker: Option<Waker>,
    slot: Arc<SlotWaker>,
}

/// Executor-side counters behind [`SimHandle::metrics`]; the timer
/// cancellation/purge counters live in the [`TimerWheel`] itself.
#[derive(Default)]
struct ExecStats {
    tasks_spawned: Cell<u64>,
    polls: Cell<u64>,
    /// Deduplicated wakes through a `Waker`, counted at the fold.
    waker_wakes: Cell<u64>,
    /// Deduplicated wakes by task id; `ExecutorMetrics::wakes` is the
    /// sum of the two.
    task_wakes: Cell<u64>,
    timers_scheduled: Cell<u64>,
    timers_fired: Cell<u64>,
}

fn bump(counter: &Cell<u64>) {
    counter.set(counter.get() + 1);
}

thread_local! {
    /// The executor stepping on this thread, set and restored by
    /// [`Simulation::enter`]: how a future that holds no [`SimHandle`]
    /// finds the executor whose task is polling it.
    static CURRENT: RefCell<Option<Rc<Inner>>> = const { RefCell::new(None) };
}

/// Restores the previously stepping executor when dropped, so PDES
/// domains sharing a lane and a `Simulation` run from inside a task nest.
struct Stepping(Option<Rc<Inner>>);

impl Drop for Stepping {
    fn drop(&mut self) {
        CURRENT.with(|c| c.replace(self.0.take()));
    }
}

/// How a parked runtime future (`Notified`, `Acquire`, `Claim`,
/// `JoinHandle`, the PDES receiver) resumes its task.
#[derive(Debug)]
pub(crate) enum Wakeup {
    /// Polled with the context of the task its executor was polling: the
    /// task is named by id and woken with no atomic read-modify-write.
    /// The executor is held weakly — a handle that outlives its
    /// `Simulation` wakes nothing and keeps nothing alive.
    Task(Weak<Inner>, TaskId),
    /// Any other context: whatever waker it came with.
    Waker(Waker),
}

impl Wakeup {
    /// The cheapest way to resume whoever polls with `cx`.
    pub(crate) fn of(cx: &Context<'_>) -> Wakeup {
        let task = CURRENT.with(|c| {
            let current = c.borrow();
            let inner = current.as_ref()?;
            Some(Wakeup::Task(Rc::downgrade(inner), inner.polled_by(cx)?))
        });
        task.unwrap_or_else(|| Wakeup::Waker(cx.waker().clone()))
    }

    pub(crate) fn wake(self) {
        match self {
            Wakeup::Task(exec, id) => {
                if let Some(inner) = exec.upgrade() {
                    inner.wake_task(id);
                }
            }
            Wakeup::Waker(waker) => waker.wake(),
        }
    }
}

/// How the executor breaks ties among timers that fire at the same virtual
/// time.
///
/// The default [`SchedulePolicy::Fifo`] fires same-deadline timers in
/// registration order — the schedule every bench and test relies on.
/// [`SchedulePolicy::SeededTieBreak`] permutes *only* those ties with a
/// deterministic per-salt hash, which is the schedule-exploration hook used
/// by `smart-check`: every perturbed schedule is still a legal total order
/// of the same event set (events never fire early or late, only same-time
/// peers swap), so any invariant violation it exposes is a real bug in the
/// simulated protocol, not a simulator artifact.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SchedulePolicy {
    /// Same-deadline timers fire in registration order.
    #[default]
    Fifo,
    /// Same-deadline timers fire in `splitmix64(seq ^ salt)` order; each
    /// salt selects one reproducible alternative schedule.
    SeededTieBreak(u64),
}

impl SchedulePolicy {
    pub(crate) fn tie_key(self, seq: u64) -> u64 {
        match self {
            SchedulePolicy::Fifo => seq,
            // `mix64` is bijective, so two timers never collide on a key.
            SchedulePolicy::SeededTieBreak(salt) => mix64(seq ^ salt),
        }
    }
}

pub(crate) struct Inner {
    now: Cell<SimTime>,
    seq: Cell<u64>,
    policy: Cell<SchedulePolicy>,
    probe_seq: Cell<u64>,
    timers: RefCell<TimerWheel>,
    /// The executor-local FIFO of tasks to poll.
    ready: RefCell<VecDeque<TaskId>>,
    inbox: Arc<Inbox>,
    tasks: RefCell<Vec<TaskSlot>>,
    free: RefCell<Vec<u32>>,
    /// The task `poll_task` is polling right now: its waker's data
    /// pointer (what a `Context` is recognised by) and its id.
    polling: Cell<Option<(*const (), TaskId)>>,
    rng: RefCell<SimRng>,
    tracer: RefCell<Option<smart_trace::TraceSink>>,
    /// PDES envelopes waiting on the wheel, and the channels they go to.
    inbound: RefCell<Inbound>,
    stats: ExecStats,
}

impl Inner {
    /// The id of the task being polled, if `cx` is that task's own context.
    fn polled_by(&self, cx: &Context<'_>) -> Option<TaskId> {
        match self.polling.get() {
            Some((data, id)) if data == cx.waker().data() => Some(id),
            _ => None,
        }
    }

    /// Moves the wakes waiting in the inbox to the back of the local
    /// FIFO, in the order they were made, dropping those whose task is
    /// already queued. Only a load while the inbox is empty. Runs before
    /// every local push and pop, so a waker wake made on the executor's
    /// thread meets the `scheduled` flag in the state it had at the wake.
    #[inline]
    fn fold_inbox(&self) {
        if self.inbox.pending.load(Ordering::Acquire) {
            self.inbox.with(|inbox| self.fold_locked(inbox));
        }
    }

    fn fold_locked(&self, inbox: &mut Vec<TaskId>) {
        self.inbox.pending.store(false, Ordering::Relaxed);
        let (mut tasks, mut ready) = (self.tasks.borrow_mut(), self.ready.borrow_mut());
        for id in inbox.drain(..) {
            let Some(slot) = tasks.get_mut(unpack(id).0 as usize) else {
                continue; // the simulation was dropped
            };
            slot.slot.inboxed.store(false, Ordering::Relaxed);
            if !slot.scheduled {
                slot.scheduled = true;
                bump(&self.stats.waker_wakes);
                ready.push_back(id);
            }
        }
    }

    fn pop_ready(&self) -> Option<TaskId> {
        self.fold_inbox();
        self.ready.borrow_mut().pop_front()
    }

    /// The task-id twin of [`SlotWaker::wake_by_ref`]: a flag test, a
    /// `Cell` bump and a push onto the local FIFO, all on the executor's
    /// thread.
    fn wake_task(&self, id: TaskId) {
        self.fold_inbox();
        let (idx, gen) = unpack(id);
        let mut tasks = self.tasks.borrow_mut();
        let Some(slot) = tasks.get_mut(idx as usize) else {
            return; // the simulation was dropped
        };
        if slot.gen == gen && !slot.scheduled {
            slot.scheduled = true;
            bump(&self.stats.task_wakes);
            self.ready.borrow_mut().push_back(id);
        }
    }
}

/// A cheaply clonable handle onto a running [`Simulation`].
///
/// Handles are how code *inside* tasks reaches the executor: reading the
/// virtual clock, sleeping, spawning sub-tasks and drawing random numbers.
/// All handles refer to the same underlying simulation.
///
/// ```rust
/// use smart_rt::{Duration, Simulation};
///
/// let mut sim = Simulation::new(7);
/// let h = sim.handle();
/// sim.block_on(async move {
///     let h2 = h.clone();
///     let child = h.spawn(async move {
///         h2.sleep(Duration::from_nanos(100)).await;
///         5u32
///     });
///     assert_eq!(child.await, 5);
/// });
/// ```
#[derive(Clone)]
pub struct SimHandle {
    inner: Rc<Inner>,
}

impl std::fmt::Debug for SimHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimHandle")
            .field("now", &self.now())
            .finish()
    }
}

impl SimHandle {
    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.now.get()
    }

    /// Spawns a task onto the simulation and returns a [`JoinHandle`] that
    /// resolves to its output.
    pub fn spawn<F>(&self, future: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let state = Rc::new(RefCell::new(JoinState::default()));
        let state2 = Rc::clone(&state);
        let wrapped = async move {
            let out = future.await;
            JoinState::finish(&state2, out);
        };
        self.spawn_raw(Box::pin(wrapped));
        JoinHandle::new(state)
    }

    /// Spawns a task nobody joins: `future` is boxed straight into the
    /// task slab, with no [`JoinHandle`] state to allocate, fill or wake.
    /// Scheduling is exactly [`spawn`](Self::spawn)'s.
    pub fn spawn_detached(&self, future: impl Future<Output = ()> + 'static) {
        self.spawn_raw(Box::pin(future));
    }

    fn spawn_raw(&self, future: Pin<Box<dyn Future<Output = ()>>>) {
        self.inner.fold_inbox();
        let mut tasks = self.inner.tasks.borrow_mut();
        let idx = match self.inner.free.borrow_mut().pop() {
            Some(idx) => idx,
            None => {
                // First occupancy of a fresh slot: build its permanent
                // waker. Every later task in this slot reuses it.
                assert!(tasks.len() < NO_TASK as usize, "task slab exhausted");
                let idx = tasks.len() as u32;
                let slot = Arc::new(SlotWaker {
                    idx,
                    gen: AtomicU32::new(0),
                    inboxed: AtomicBool::new(false),
                    inbox: Arc::clone(&self.inner.inbox),
                });
                tasks.push(TaskSlot {
                    future: None,
                    gen: 0,
                    scheduled: false,
                    waker: Some(Waker::from(Arc::clone(&slot))),
                    slot,
                });
                idx
            }
        };
        let slot = &mut tasks[idx as usize];
        debug_assert!(slot.future.is_none(), "spawn into an occupied slot");
        slot.future = Some(future);
        slot.scheduled = true;
        bump(&self.inner.stats.tasks_spawned);
        self.inner.ready.borrow_mut().push_back(pack(idx, slot.gen));
    }

    /// Snapshot of the executor's internal counters; see
    /// [`ExecutorMetrics`].
    pub fn metrics(&self) -> ExecutorMetrics {
        let s = &self.inner.stats;
        let timers = self.inner.timers.borrow();
        ExecutorMetrics {
            tasks_spawned: s.tasks_spawned.get(),
            polls: s.polls.get(),
            wakes: s.waker_wakes.get() + s.task_wakes.get(),
            timers_scheduled: s.timers_scheduled.get(),
            timers_fired: s.timers_fired.get(),
            timers_cancelled: timers.cancelled,
            timers_purged: timers.purged,
        }
    }

    /// Registers `waker` to be woken at virtual time `at`.
    ///
    /// This is the low-level primitive beneath [`sleep`](Self::sleep); the
    /// queueing primitives in [`crate::sync`] use it directly.
    pub fn wake_at(&self, at: SimTime, waker: Waker) {
        self.register_timer(at, TimerWake::Waker(waker));
    }

    /// Registers a timer and returns its cancellation token; used by
    /// [`Sleep`] so a dropped sleep tombstones its entry instead of
    /// firing a dead waker at the deadline.
    #[inline]
    fn register_timer(&self, at: SimTime, wake: TimerWake) -> TimerToken {
        let seq = self.inner.seq.get();
        self.inner.seq.set(seq + 1);
        let key = self.inner.policy.get().tie_key(seq);
        bump(&self.inner.stats.timers_scheduled);
        self.inner
            .timers
            .borrow_mut()
            .insert(at.as_nanos(), key, seq, wake)
    }

    /// Parks a PDES envelope for channel `chan` and registers its delivery
    /// at `at`: a timer that hands `payload` to the channel's receiver
    /// when it fires, with no task to spawn or poll.
    pub(crate) fn deliver_at(&self, at: SimTime, chan: u32, payload: Payload) {
        let slot = self.inner.inbound.borrow_mut().park(chan, payload);
        self.register_timer(at, TimerWake::Deliver(slot));
    }

    /// The simulation's PDES receiving side; see [`Inbound`].
    pub(crate) fn inbound(&self) -> &RefCell<Inbound> {
        &self.inner.inbound
    }

    /// Tombstones a pending timer; stale tokens are ignored.
    fn cancel_timer(&self, token: TimerToken) {
        self.inner.timers.borrow_mut().cancel(token);
    }

    /// Allocates a fresh probe identity for a sync primitive or shared
    /// cell, for use in [`SimHandle::probe_sync`] events. Ids are handed
    /// out in deterministic creation order starting at 1 (0 is reserved
    /// for "unprobed").
    pub fn fresh_probe_id(&self) -> u64 {
        let id = self.inner.probe_seq.get() + 1;
        self.inner.probe_seq.set(id);
        id
    }

    /// Emits a [`smart_trace::Category::Sync`] probe at the current virtual
    /// time: `actor` performed `op` on the lock/cell `id` named `name`.
    /// Costs a couple of branches unless a tracer is installed with Sync
    /// events unmasked.
    pub fn probe_sync(
        &self,
        actor: smart_trace::Actor,
        name: &'static str,
        op: smart_trace::SyncOp,
        id: u64,
    ) {
        let t_ns = self.now().as_nanos();
        self.with_tracer(|t| t.sync_probe(t_ns, actor, name, op, id));
    }

    /// Returns a future that completes once virtual time reaches
    /// `self.now() + duration`.
    pub fn sleep(&self, duration: Duration) -> Sleep {
        self.sleep_until(self.now() + duration)
    }

    /// Returns a future that completes once virtual time reaches `deadline`.
    pub fn sleep_until(&self, deadline: SimTime) -> Sleep {
        Sleep {
            handle: self.clone(),
            deadline,
            token: None,
        }
    }

    /// Returns a future that completes once every event at `deadline`
    /// has run — where [`Simulation::run_until`] stops: its timer fires
    /// after every other timer of that instant, and only once the ready
    /// queue is empty. The timer takes no tie-break sequence number, so
    /// adding such a waiter moves no other event under any
    /// [`SchedulePolicy`]. A deadline already passed means the end of the
    /// current instant. Phase controllers read window counters at such
    /// edges.
    pub fn settle_until(&self, deadline: SimTime) -> Settle {
        Settle(self.sleep_until(deadline.max(self.now())))
    }

    /// Draws from the simulation's deterministic PRNG.
    pub fn with_rng<R>(&self, f: impl FnOnce(&mut SimRng) -> R) -> R {
        f(&mut self.inner.rng.borrow_mut())
    }

    /// Uniform random `u64` in `[0, bound)` from the simulation PRNG.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn rand_below(&self, bound: u64) -> u64 {
        assert!(bound > 0, "rand_below bound must be positive");
        self.with_rng(|r| r.next_u64_below(bound))
    }

    /// Installs a [`smart_trace::TraceSink`] on the simulation; subsequent
    /// instrumentation in the runtime and everything built on top records
    /// into it. Replaces any previously installed sink.
    ///
    /// Recording never advances virtual time, so installing (or enabling /
    /// disabling) a tracer cannot change simulated behaviour — only observe
    /// it.
    pub fn install_tracer(&self, sink: smart_trace::TraceSink) {
        *self.inner.tracer.borrow_mut() = Some(sink);
    }

    /// A clone of the installed tracer, if any.
    pub fn tracer(&self) -> Option<smart_trace::TraceSink> {
        self.inner.tracer.borrow().clone()
    }

    /// Runs `f` with the installed tracer when one is present *and*
    /// enabled. This is the hot-path guard used by all instrumentation:
    /// with no tracer (or a disabled one) it is a borrow, a check and an
    /// early return.
    pub fn with_tracer(&self, f: impl FnOnce(&smart_trace::TraceSink)) {
        if let Some(sink) = self.inner.tracer.borrow().as_ref() {
            if sink.is_enabled() {
                f(sink);
            }
        }
    }
}

/// Future returned by [`SimHandle::sleep`] and [`SimHandle::sleep_until`].
///
/// Polled with its task's own context it registers the task's id, and the
/// executor polls that task in place when the timer fires; polled through
/// any other waker (a hand-written combinator) it registers a clone of
/// that waker, exactly like [`SimHandle::wake_at`].
///
/// Dropping a `Sleep` before its deadline (losing a `with_timeout` race,
/// a select taken by another branch) cancels the underlying timer: the
/// entry is tombstoned and purged without firing, instead of waking a
/// dead task at the deadline. The cancellations are visible as
/// `timers_cancelled` / `timers_purged` in [`SimHandle::metrics`].
#[derive(Debug)]
pub struct Sleep {
    handle: SimHandle,
    deadline: SimTime,
    token: Option<TimerToken>,
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.handle.now() >= self.deadline {
            // Fired (or was never pending): nothing left to cancel.
            self.token = None;
            return Poll::Ready(());
        }
        if self.token.is_none() {
            let wake = match self.handle.inner.polled_by(cx) {
                Some(id) => TimerWake::Task(id),
                None => TimerWake::Waker(cx.waker().clone()),
            };
            self.token = Some(self.handle.register_timer(self.deadline, wake));
        }
        Poll::Pending
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        if let Some(token) = self.token.take() {
            self.handle.cancel_timer(token);
        }
    }
}

/// Future returned by [`SimHandle::settle_until`]. Dropping it before
/// it fires cancels the timer, as for [`Sleep`].
#[derive(Debug)]
pub struct Settle(Sleep);

impl Future for Settle {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let sleep = &mut self.0;
        let inner = &sleep.handle.inner;
        match sleep.token {
            Some(token) if inner.timers.borrow().is_pending(token) => Poll::Pending,
            Some(_) => {
                sleep.token = None;
                Poll::Ready(())
            }
            None => {
                let wake = match inner.polled_by(cx) {
                    Some(id) => TimerWake::Task(id),
                    None => TimerWake::Waker(cx.waker().clone()),
                };
                bump(&inner.stats.timers_scheduled);
                // The largest key and seq: last of its instant, and the
                // sequence every other timer draws from is left alone.
                let at = sleep.deadline.as_nanos();
                sleep.token = Some(
                    inner
                        .timers
                        .borrow_mut()
                        .insert(at, u64::MAX, u64::MAX, wake),
                );
                Poll::Pending
            }
        }
    }
}

/// A deterministic discrete-event simulation: the executor, the virtual
/// clock and the task set.
///
/// `Simulation` owns everything; [`SimHandle`]s (from [`Self::handle`]) are
/// used inside tasks. Dropping the `Simulation` drops all tasks, breaking
/// any `Rc` cycles between tasks and the executor.
///
/// ```rust
/// use smart_rt::{Duration, Simulation};
///
/// let mut sim = Simulation::new(1);
/// let h = sim.handle();
/// let t = sim.block_on(async move {
///     h.sleep(Duration::from_micros(5)).await;
///     h.now()
/// });
/// assert_eq!(t.as_nanos(), 5_000);
/// ```
pub struct Simulation {
    handle: SimHandle,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.handle.now())
            .finish()
    }
}

impl Simulation {
    /// Creates an empty simulation whose PRNG is seeded with `seed`, using
    /// the default [`SchedulePolicy::Fifo`] tie-breaking.
    pub fn new(seed: u64) -> Self {
        Simulation::with_policy(seed, SchedulePolicy::Fifo)
    }

    /// Creates an empty simulation with an explicit tie-breaking policy.
    ///
    /// The policy applies to timers registered after construction, i.e. to
    /// everything — set it up front rather than mid-run so every tie in
    /// the run is broken the same way.
    pub fn with_policy(seed: u64, policy: SchedulePolicy) -> Self {
        Simulation {
            handle: SimHandle {
                inner: Rc::new(Inner {
                    now: Cell::new(SimTime::ZERO),
                    seq: Cell::new(0),
                    policy: Cell::new(policy),
                    probe_seq: Cell::new(0),
                    timers: RefCell::new(TimerWheel::new()),
                    ready: RefCell::new(VecDeque::new()),
                    inbox: Arc::new(Inbox::default()),
                    // Slab and free list grow once per distinct task
                    // slot, never per event.
                    tasks: RefCell::new(Vec::new()),
                    free: RefCell::new(Vec::new()),
                    polling: Cell::new(None),
                    rng: RefCell::new(SimRng::new(seed)),
                    tracer: RefCell::new(None),
                    inbound: RefCell::new(Inbound::default()),
                    stats: ExecStats::default(),
                }),
            },
        }
    }

    /// Number of live (spawned, not yet completed) tasks. After
    /// [`Self::run`] drains every event, a nonzero count means some task is
    /// parked forever with nothing left to wake it — the lost-wakeup /
    /// stuck-task signal consumed by `smart-check`.
    pub fn live_tasks(&self) -> usize {
        self.handle
            .inner
            .tasks
            .borrow()
            .iter()
            .filter(|t| t.future.is_some())
            .count()
    }

    /// Returns a handle usable inside tasks.
    pub fn handle(&self) -> SimHandle {
        self.handle.clone()
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.handle.now()
    }

    /// Spawns a task; see [`SimHandle::spawn`].
    pub fn spawn<F>(&self, future: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        self.handle.spawn(future)
    }

    /// Names this simulation as the thread's stepping executor until the
    /// guard drops (see [`CURRENT`]).
    fn enter(&self) -> Stepping {
        let inner = Rc::clone(&self.handle.inner);
        Stepping(CURRENT.with(|c| c.replace(Some(inner))))
    }

    fn poll_task(&self, id: TaskId) {
        let (idx, gen) = unpack(id);
        let inner = &*self.handle.inner;
        let (mut future, waker) = {
            let mut tasks = inner.tasks.borrow_mut();
            let Some(slot) = tasks.get_mut(idx as usize) else {
                return;
            };
            if slot.gen != gen {
                return; // wake stamped for a previous occupant of the slot
            }
            slot.scheduled = false;
            let Some(future) = slot.future.take() else {
                return; // task already completed
            };
            (future, slot.waker.take().expect("waker parked with future"))
        };
        bump(&inner.stats.polls);
        let outer = inner.polling.replace(Some((waker.data(), id)));
        let polled = future.as_mut().poll(&mut Context::from_waker(&waker));
        inner.polling.set(outer);
        let mut tasks = inner.tasks.borrow_mut();
        let slot = &mut tasks[idx as usize];
        slot.waker = Some(waker);
        match polled {
            Poll::Ready(()) => {
                // Retire this occupancy: bump the generation (mirrored
                // into the waker) so in-flight wakes for the finished
                // task die at the queue instead of poking its successor.
                slot.gen = slot.gen.wrapping_add(1);
                slot.slot.gen.store(slot.gen, Ordering::Relaxed);
                inner.free.borrow_mut().push(idx);
            }
            Poll::Pending => slot.future = Some(future),
        }
    }

    /// Runs one scheduling step: a ready task if there is one, otherwise
    /// the earliest timer at or before `last` ns (`None`: no timer may
    /// fire). Returns `false` if no such work remains.
    fn step(&self, last: Option<u64>) -> bool {
        let inner = &*self.handle.inner;
        if let Some(id) = inner.pop_ready() {
            self.poll_task(id);
            return true;
        }
        let fired = last.and_then(|last| inner.timers.borrow_mut().pop_through(last));
        let Some((at, wake)) = fired else {
            return false;
        };
        let at = SimTime::from_nanos(at);
        debug_assert!(at >= inner.now.get());
        bump(&inner.stats.timers_fired);
        inner.now.set(at);
        match wake {
            // Timers fire only when the ready queue is empty, so pushing
            // the task and popping it straight back is the same schedule
            // as polling it here; the wake is counted all the same.
            TimerWake::Task(id) => {
                bump(&inner.stats.task_wakes);
                self.poll_task(id);
            }
            TimerWake::Deliver(slot) => inner.inbound.borrow_mut().deliver(slot),
            TimerWake::Waker(waker) => waker.wake(),
        }
        true
    }

    /// Polls exactly the tasks that are ready now, in queue order: not the
    /// ones they wake or spawn meanwhile, and no timer.
    pub(crate) fn poll_ready(&mut self) {
        let _stepping = self.enter();
        let inner = &*self.handle.inner;
        inner.fold_inbox();
        let ready = inner.ready.borrow().len();
        for _ in 0..ready {
            // Wakes and spawns push behind these; nothing else pops.
            let id = inner
                .pop_ready()
                .expect("a ready task leaves only when popped");
            self.poll_task(id);
        }
    }

    /// Runs until no ready tasks and no timers remain.
    pub fn run(&mut self) {
        let _stepping = self.enter();
        while self.step(Some(u64::MAX)) {}
    }

    /// The virtual time of the earliest pending work: `now` when a task
    /// is ready to poll (a wake still in the inbox counts), otherwise the
    /// earliest timer deadline, `None` when the simulation is fully
    /// quiescent.
    ///
    /// This is the PDES coordinator's lower-bound probe (see
    /// [`crate::pdes`]): a scheduling domain reports its next event time
    /// and the coordinator derives the conservative horizon from the
    /// minimum across domains.
    pub fn next_event_at(&self) -> Option<SimTime> {
        let inner = &*self.handle.inner;
        inner.fold_inbox();
        if !inner.ready.borrow().is_empty() {
            return Some(self.handle.now());
        }
        inner.timers.borrow_mut().peek_at().map(SimTime::from_nanos)
    }

    /// Processes every event strictly before `limit` and stops, leaving
    /// the clock at the last fired event (it is **not** forced forward to
    /// `limit`, unlike [`Self::run_until`]).
    ///
    /// This is the PDES epoch-advance primitive: a domain must not
    /// observe time `limit` itself, because a cross-domain event may
    /// still be delivered exactly there by another domain.
    pub fn run_events_before(&mut self, limit: SimTime) {
        let _stepping = self.enter();
        let last = limit.as_nanos().checked_sub(1);
        while self.step(last) {}
    }

    /// Runs until virtual time `deadline`: every event at or before the
    /// deadline is processed, then the clock is set to the deadline.
    pub fn run_until(&mut self, deadline: SimTime) {
        let _stepping = self.enter();
        while self.step(Some(deadline.as_nanos())) {}
        if self.handle.now() < deadline {
            self.handle.inner.now.set(deadline);
        }
    }

    /// Runs for `duration` of virtual time; see [`Self::run_until`].
    pub fn run_for(&mut self, duration: Duration) {
        let deadline = self.handle.now() + duration;
        self.run_until(deadline);
    }

    /// Spawns `future` and runs the simulation until it completes,
    /// returning its output.
    ///
    /// # Panics
    ///
    /// Panics if the simulation runs out of events before the future
    /// completes (a deadlock in the simulated system).
    pub fn block_on<F>(&mut self, future: F) -> F::Output
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let join = self.spawn(future);
        let _stepping = self.enter();
        while !join.is_finished() {
            if !self.step(Some(u64::MAX)) {
                panic!("simulation deadlock: no events left but block_on future is pending");
            }
        }
        join.try_take().expect("join state finished")
    }
}

impl Drop for Simulation {
    fn drop(&mut self) {
        // Break Rc cycles: tasks hold SimHandles which hold Inner which
        // holds the tasks. Dropping the futures may cancel their pending
        // sleeps (Sleep::drop), which borrows the timer wheel — so the
        // wheel is cleared strictly afterwards — and may wake parked
        // tasks by id, which reads the slab, so it is emptied first.
        // Envelopes still pending go with the wheel that would fire them.
        let tasks = std::mem::take(&mut *self.handle.inner.tasks.borrow_mut());
        drop(tasks);
        self.handle.inner.timers.borrow_mut().clear();
        let inbound = std::mem::take(&mut *self.handle.inner.inbound.borrow_mut());
        drop(inbound);
        self.handle.inner.ready.borrow_mut().clear();
        self.handle.inner.inbox.with(Vec::clear);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::Mutex;

    #[test]
    fn slot_waker_allocation_stays_at_48_bytes() {
        // The `Arc` header is two `usize`s.
        assert_eq!(16 + std::mem::size_of::<SlotWaker>(), 48);
    }

    #[test]
    fn clock_starts_at_zero() {
        let sim = Simulation::new(0);
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn sleep_advances_virtual_time() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let t = sim.block_on(async move {
            h.sleep(Duration::from_nanos(123)).await;
            h.now()
        });
        assert_eq!(t.as_nanos(), 123);
    }

    #[test]
    fn sequential_sleeps_accumulate() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let t = sim.block_on(async move {
            for _ in 0..10 {
                h.sleep(Duration::from_nanos(10)).await;
            }
            h.now()
        });
        assert_eq!(t.as_nanos(), 100);
    }

    #[test]
    fn concurrent_tasks_interleave_by_time() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let order = Rc::new(RefCell::new(Vec::new()));
        for (i, delay) in [(0u32, 30u64), (1, 10), (2, 20)] {
            let h2 = h.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                h2.sleep(Duration::from_nanos(delay)).await;
                order.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![1, 2, 0]);
        assert_eq!(sim.now().as_nanos(), 30);
    }

    #[test]
    fn join_handle_returns_value() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let v = sim.block_on(async move {
            let h2 = h.clone();
            let a = h.spawn(async move {
                h2.sleep(Duration::from_nanos(5)).await;
                21u64
            });
            a.await * 2
        });
        assert_eq!(v, 42);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let hits = Rc::new(Cell::new(0u32));
        let hits2 = Rc::clone(&hits);
        sim.spawn(async move {
            loop {
                h.sleep(Duration::from_nanos(100)).await;
                hits2.set(hits2.get() + 1);
            }
        });
        sim.run_until(SimTime::from_nanos(550));
        assert_eq!(hits.get(), 5);
        assert_eq!(sim.now().as_nanos(), 550);
        sim.run_for(Duration::from_nanos(50));
        assert_eq!(hits.get(), 6);
    }

    #[test]
    fn yield_now_lets_peers_run() {
        let mut sim = Simulation::new(0);
        let log = Rc::new(RefCell::new(Vec::new()));
        let l1 = Rc::clone(&log);
        let l2 = Rc::clone(&log);
        sim.spawn(async move {
            l1.borrow_mut().push("a1");
            crate::yield_now().await;
            l1.borrow_mut().push("a2");
        });
        sim.spawn(async move {
            l2.borrow_mut().push("b1");
            crate::yield_now().await;
            l2.borrow_mut().push("b2");
        });
        sim.run();
        assert_eq!(*log.borrow(), vec!["a1", "b1", "a2", "b2"]);
    }

    #[test]
    fn same_deadline_fires_in_registration_order() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..4 {
            let h2 = h.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                h2.sleep(Duration::from_nanos(7)).await;
                order.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn seeded_tie_break_permutes_same_deadline_ties_reproducibly() {
        fn run_once(policy: SchedulePolicy) -> Vec<u32> {
            let mut sim = Simulation::with_policy(0, policy);
            let h = sim.handle();
            let order = Rc::new(RefCell::new(Vec::new()));
            for i in 0..8u32 {
                let h2 = h.clone();
                let order = Rc::clone(&order);
                sim.spawn(async move {
                    h2.sleep(Duration::from_nanos(7)).await;
                    order.borrow_mut().push(i);
                });
            }
            sim.run();
            let v = order.borrow().clone();
            v
        }
        assert_eq!(run_once(SchedulePolicy::Fifo), (0..8).collect::<Vec<_>>());
        // Some salt among the first few must permute an 8-way tie.
        let perturbed: Vec<Vec<u32>> = (1..=4)
            .map(|s| run_once(SchedulePolicy::SeededTieBreak(s)))
            .collect();
        assert!(
            perturbed.iter().any(|o| *o != (0..8).collect::<Vec<_>>()),
            "no salt permuted the tie: {perturbed:?}"
        );
        for (i, o) in perturbed.iter().enumerate() {
            let mut sorted = o.clone();
            sorted.sort_unstable();
            assert_eq!(
                sorted,
                (0..8).collect::<Vec<_>>(),
                "salt {} lost events",
                i + 1
            );
            assert_eq!(
                *o,
                run_once(SchedulePolicy::SeededTieBreak(i as u64 + 1)),
                "same salt must reproduce the same schedule"
            );
        }
    }

    #[test]
    fn tie_break_never_reorders_distinct_deadlines() {
        let mut sim = Simulation::with_policy(0, SchedulePolicy::SeededTieBreak(3));
        let h = sim.handle();
        let order = Rc::new(RefCell::new(Vec::new()));
        for (i, delay) in [(0u32, 30u64), (1, 10), (2, 20)] {
            let h2 = h.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                h2.sleep(Duration::from_nanos(delay)).await;
                order.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![1, 2, 0]);
    }

    #[test]
    fn live_tasks_counts_parked_tasks() {
        let mut sim = Simulation::new(0);
        assert_eq!(sim.live_tasks(), 0);
        let h = sim.handle();
        sim.spawn(async move {
            h.sleep(Duration::from_nanos(5)).await;
        });
        sim.spawn(async move {
            std::future::pending::<()>().await;
        });
        sim.run();
        assert_eq!(sim.live_tasks(), 1, "the pending task is stuck");
    }

    #[test]
    fn probe_ids_are_fresh_and_deterministic() {
        let sim = Simulation::new(0);
        let h = sim.handle();
        assert_eq!(h.fresh_probe_id(), 1);
        assert_eq!(h.fresh_probe_id(), 2);
        assert_eq!(sim.handle().fresh_probe_id(), 3);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn block_on_detects_deadlock() {
        let mut sim = Simulation::new(0);
        sim.block_on(async {
            std::future::pending::<()>().await;
        });
    }

    #[test]
    fn settle_runs_last_in_its_instant_and_leaves_ties_alone() {
        // Eight sleepers tie at 7 ns, the first of them re-arming for the
        // same instant; a settle waiter registered first and one for a
        // passed deadline must still see all of them, and the sleepers'
        // tie order must be what it is without any settle waiter.
        fn run_once(policy: SchedulePolicy, settle: bool) -> Vec<u32> {
            let mut sim = Simulation::with_policy(0, policy);
            let h = sim.handle();
            let order = Rc::new(RefCell::new(Vec::new()));
            if settle {
                let (h2, order) = (h.clone(), Rc::clone(&order));
                sim.spawn(async move {
                    h2.settle_until(SimTime::from_nanos(7)).await;
                    order.borrow_mut().push(100);
                    h2.settle_until(SimTime::ZERO).await;
                    order.borrow_mut().push(101);
                });
            }
            for i in 0..8u32 {
                let (h2, order) = (h.clone(), Rc::clone(&order));
                sim.spawn(async move {
                    h2.sleep(Duration::from_nanos(7)).await;
                    if i == 0 {
                        // A timer registered for the instant being run.
                        let mut armed = false;
                        std::future::poll_fn(|cx| {
                            if std::mem::replace(&mut armed, true) {
                                return Poll::Ready(());
                            }
                            h2.wake_at(h2.now(), cx.waker().clone());
                            Poll::Pending
                        })
                        .await;
                    }
                    order.borrow_mut().push(i);
                });
            }
            sim.run();
            assert_eq!(sim.now().as_nanos(), 7);
            let v = order.borrow().clone();
            v
        }
        for policy in [SchedulePolicy::Fifo, SchedulePolicy::SeededTieBreak(3)] {
            let plain = run_once(policy, false);
            let mut settled = run_once(policy, true);
            assert_eq!(settled.split_off(8), vec![100, 101], "{policy:?}");
            assert_eq!(settled, plain, "{policy:?}");
        }
    }

    #[test]
    fn determinism_same_seed_same_schedule() {
        fn run_once(seed: u64) -> Vec<u64> {
            let mut sim = Simulation::new(seed);
            let h = sim.handle();
            let out = Rc::new(RefCell::new(Vec::new()));
            for _ in 0..8 {
                let h2 = h.clone();
                let out = Rc::clone(&out);
                sim.spawn(async move {
                    let d = h2.rand_below(1000);
                    h2.sleep(Duration::from_nanos(d)).await;
                    out.borrow_mut().push(h2.now().as_nanos());
                });
            }
            sim.run();
            let v = out.borrow().clone();
            v
        }
        assert_eq!(run_once(99), run_once(99));
        assert_ne!(run_once(99), run_once(100));
    }

    #[test]
    fn dropping_simulation_releases_tasks() {
        let dropped = Rc::new(Cell::new(false));
        struct SetOnDrop(Rc<Cell<bool>>);
        impl Drop for SetOnDrop {
            fn drop(&mut self) {
                self.0.set(true);
            }
        }
        {
            let sim = Simulation::new(0);
            let h = sim.handle();
            let guard = SetOnDrop(Rc::clone(&dropped));
            sim.spawn(async move {
                let _guard = guard;
                h.sleep(Duration::from_secs(1_000_000)).await;
            });
            // not run to completion
        }
        assert!(dropped.get(), "task future must be dropped with the sim");
    }

    #[test]
    fn many_tasks_reuse_slots() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        for round in 0..100 {
            let h2 = h.clone();
            let j = sim.spawn(async move {
                h2.sleep(Duration::from_nanos(1)).await;
                round
            });
            sim.run();
            assert_eq!(j.try_take(), Some(round));
        }
        // All 100 tasks ran sequentially; the slab should stay tiny.
        assert!(sim.handle.inner.tasks.borrow().len() <= 2);
    }

    #[test]
    fn metrics_count_spawns_polls_and_timers() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        assert_eq!(h.metrics(), ExecutorMetrics::default());
        sim.block_on(async move {
            for _ in 0..3 {
                h.sleep(Duration::from_nanos(10)).await;
            }
        });
        let m = sim.handle().metrics();
        assert_eq!(m.tasks_spawned, 1);
        assert_eq!(m.timers_scheduled, 3);
        assert_eq!(m.timers_fired, 3);
        // First poll registers the first sleep, then one poll per fire.
        assert_eq!(m.polls, 4);
        assert_eq!(m.wakes, 3, "one deduplicated wake per timer fire");
        assert_eq!(m.timers_cancelled, 0);
        assert_eq!(m.events(), m.polls + m.timers_fired);
    }

    // --- wake-path contract --------------------------------------------

    use crate::sync::{Notify, Semaphore};
    use std::future::poll_fn;

    /// Polls `fut` once with the calling task's own context.
    async fn poll_once<F: Future + Unpin>(fut: &mut F) -> Poll<F::Output> {
        poll_fn(|cx| Poll::Ready(Pin::new(&mut *fut).poll(cx))).await
    }

    /// Wakes counted on the `Waker` path (as opposed to by task id).
    fn waker_wakes(sim: &Simulation) -> u64 {
        sim.handle.inner.stats.waker_wakes.get()
    }

    fn stepping_is_none() -> bool {
        CURRENT.with(|c| c.borrow().is_none())
    }

    /// 64 tasks x 5 rounds of sleep / semaphore hand-off / sleep /
    /// `notify_all` barrier, one `with_timeout` loser per task, joined
    /// from the root task.
    fn fixed_scenario() -> Simulation {
        let mut sim = Simulation::new(15);
        let h = sim.handle();
        let sem = Semaphore::new(8);
        let barrier = Notify::new();
        let joins: Vec<_> = (0..64u64)
            .map(|i| {
                let (h, sem, barrier) = (h.clone(), sem.clone(), barrier.clone());
                sim.spawn(async move {
                    for _ in 0..5 {
                        h.sleep(Duration::from_nanos(10 + i)).await;
                        sem.acquire(1).await;
                        h.sleep(Duration::from_nanos(7)).await;
                        sem.release(1);
                        barrier.notified().await;
                    }
                    let never = Notify::new();
                    let lost =
                        crate::with_timeout(&h, Duration::from_nanos(3), never.notified()).await;
                    assert!(lost.is_err());
                    i
                })
            })
            .collect();
        let sum = sim.block_on(async move {
            for _ in 0..5 {
                h.sleep(Duration::from_nanos(500)).await;
                barrier.notify_all();
            }
            let mut sum = 0;
            for j in joins {
                sum += j.await;
            }
            sum
        });
        assert_eq!(sum, 63 * 64 / 2);
        sim
    }

    #[test]
    fn fixed_scenario_metrics_match_the_waker_only_executor() {
        let sim = fixed_scenario();
        // Literals recorded from the parent commit, where every wake went
        // through an `Arc<SlotWaker>`.
        assert_eq!(
            sim.handle().metrics(),
            ExecutorMetrics {
                tasks_spawned: 65,
                polls: 1158,
                wakes: 1093,
                timers_scheduled: 709,
                timers_fired: 709,
                timers_cancelled: 0,
                timers_purged: 0,
            }
        );
        assert_eq!(sim.now().as_nanos(), 2_503);
        // ... and here not one of them did.
        assert_eq!(waker_wakes(&sim), 0);
    }

    #[test]
    fn timeout_races_tombstone_and_purge() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        sim.block_on(async move {
            // Future wins: the 50 ns deadline is tombstoned.
            let won = crate::with_timeout(
                &h,
                Duration::from_nanos(50),
                h.sleep(Duration::from_nanos(20)),
            );
            assert!(won.await.is_ok());
            // Deadline wins: the 900 ns sleep is tombstoned.
            let lost = crate::with_timeout(
                &h,
                Duration::from_nanos(10),
                h.sleep(Duration::from_nanos(900)),
            );
            assert!(lost.await.is_err());
        });
        let m = sim.handle().metrics();
        assert_eq!((m.timers_scheduled, m.timers_fired), (4, 2));
        assert_eq!((m.timers_cancelled, m.timers_purged), (2, 0));
        assert_eq!((m.polls, m.wakes), (3, 2));
        sim.run(); // the cursor reaches both tombstones without firing them
        let m = sim.handle().metrics();
        assert_eq!((m.timers_fired, m.timers_purged), (2, 2));
        assert_eq!(sim.now().as_nanos(), 30);
    }

    #[test]
    fn parked_task_handles_outlive_their_simulation_harmlessly() {
        let (notify, sem) = (Notify::new(), Semaphore::new(0));
        let stash = Rc::new(RefCell::new(None));
        let mut sim = Simulation::new(0);
        let weak = Rc::downgrade(&sim.handle.inner);
        {
            let (notify, sem, stash) = (notify.clone(), sem.clone(), Rc::clone(&stash));
            sim.spawn(async move {
                let (mut notified, mut acquire) = (notify.notified(), sem.acquire(1));
                assert!(poll_once(&mut notified).await.is_pending());
                assert!(poll_once(&mut acquire).await.is_pending());
                // Registered by task id; now they leave the task.
                *stash.borrow_mut() = Some((notified, acquire));
            });
        }
        sim.run();
        let spare = sim.handle();
        drop(sim);
        notify.notify_one(); // executor alive through `spare`, slab gone
        drop(spare);
        assert!(weak.upgrade().is_none(), "parked handles keep it alive");
        sem.release(1); // executor gone
        assert_eq!(sem.available(), 0, "the stashed acquire was granted");
    }

    #[test]
    fn stale_wakes_are_discarded_and_double_wakes_poll_once() {
        let mut sim = Simulation::new(0);
        let (old, new) = (Notify::new(), Notify::new());
        let stash = Rc::new(RefCell::new(None));
        {
            let (old, stash) = (old.clone(), Rc::clone(&stash));
            sim.spawn(async move {
                let mut notified = old.notified();
                assert!(poll_once(&mut notified).await.is_pending());
                *stash.borrow_mut() = Some(notified);
            });
        }
        sim.run();
        // B reuses A's slot; A's task-id handle is still queued in `old`.
        let polls = Rc::new(Cell::new(0u32));
        let waker = Rc::new(RefCell::new(None::<Waker>));
        {
            let (new, polls, waker) = (new.clone(), Rc::clone(&polls), Rc::clone(&waker));
            sim.spawn(async move {
                let mut notified = new.notified();
                poll_fn(|cx| {
                    polls.set(polls.get() + 1);
                    *waker.borrow_mut() = Some(cx.waker().clone());
                    Pin::new(&mut notified).poll(cx)
                })
                .await
            });
        }
        sim.run();
        assert_eq!(sim.handle.inner.tasks.borrow().len(), 1, "slot reused");
        let parked = sim.handle().metrics();
        assert_eq!(polls.get(), 1);
        old.notify_one();
        sim.run();
        assert_eq!(
            sim.handle().metrics(),
            parked,
            "wake for the previous occupant"
        );
        // One wake by id and two through the waker before B runs: one poll.
        new.notify_one();
        let waker = waker.borrow_mut().take().expect("stashed");
        waker.wake_by_ref();
        waker.wake();
        sim.run();
        assert_eq!(polls.get(), 2);
        assert_eq!(sim.handle().metrics().wakes, parked.wakes + 1);
        assert_eq!(sim.live_tasks(), 0);

        // Queue-level discard: C wakes itself and completes, D takes the
        // slot before the stale entry is popped.
        sim.spawn(poll_fn(|cx| {
            cx.waker().wake_by_ref();
            Poll::Ready(())
        }));
        assert!(sim.step(Some(u64::MAX)));
        let d_polls = Rc::new(Cell::new(0u32));
        let d = Rc::clone(&d_polls);
        sim.spawn(poll_fn(move |_| {
            d.set(d.get() + 1);
            Poll::<()>::Pending
        }));
        sim.run();
        assert_eq!(d_polls.get(), 1);
        assert_eq!(sim.handle.inner.tasks.borrow().len(), 1, "slot reused");
    }

    #[test]
    fn detached_tasks_are_counted_and_retired_like_spawned_ones() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let (old, new) = (Notify::new(), Notify::new());
        let stash = Rc::new(RefCell::new(None));
        {
            let (old, stash) = (old.clone(), Rc::clone(&stash));
            h.spawn_detached(async move {
                let mut notified = old.notified();
                assert!(poll_once(&mut notified).await.is_pending());
                *stash.borrow_mut() = Some(notified);
            });
        }
        sim.run();
        assert_eq!(sim.live_tasks(), 0);
        assert_eq!(h.metrics().tasks_spawned, 1);
        assert_eq!(h.metrics().polls, 1);
        // B (detached too) takes A's slot under the next generation; A's
        // task-id handle is still queued in `old`.
        let polls = Rc::new(Cell::new(0u32));
        {
            let (new, polls) = (new.clone(), Rc::clone(&polls));
            h.spawn_detached(async move {
                let mut notified = new.notified();
                poll_fn(|cx| {
                    polls.set(polls.get() + 1);
                    Pin::new(&mut notified).poll(cx)
                })
                .await
            });
        }
        sim.run();
        assert_eq!(sim.handle.inner.tasks.borrow().len(), 1, "slot reused");
        let parked = h.metrics();
        assert_eq!((parked.tasks_spawned, polls.get()), (2, 1));
        old.notify_one();
        sim.run();
        assert_eq!(h.metrics(), parked, "wake for the previous occupant");
        new.notify_one();
        sim.run();
        assert_eq!((polls.get(), sim.live_tasks()), (2, 0));
        // A joined spawn is the next occupant of the same slot.
        let j = sim.spawn(async { 7 });
        sim.run();
        assert_eq!(j.try_take(), Some(7));
        assert_eq!(sim.handle.inner.tasks.borrow().len(), 1, "slot reused");
        assert_eq!(h.metrics().tasks_spawned, 3);
    }

    #[test]
    fn nested_simulation_restores_the_stepping_executor() {
        let mut outer = Simulation::new(1);
        let h = outer.handle();
        let gate = Notify::new();
        {
            let (h, gate) = (h.clone(), gate.clone());
            outer.spawn(async move {
                h.sleep(Duration::from_nanos(50)).await;
                gate.notify_one();
            });
        }
        let inner_metrics = outer.block_on(async move {
            let mut inner = Simulation::new(2);
            let (ih, n) = (inner.handle(), Notify::new());
            let n2 = n.clone();
            inner.spawn(async move { n2.notified().await });
            inner.spawn(async move {
                ih.sleep(Duration::from_nanos(10)).await;
                n.notify_one();
            });
            inner.run();
            assert_eq!((inner.live_tasks(), waker_wakes(&inner)), (0, 0));
            let m = inner.handle().metrics();
            drop(inner);
            // Back in the outer task: this must park with the outer
            // executor again, by task id.
            gate.notified().await;
            h.sleep(Duration::from_nanos(5)).await;
            m
        });
        assert_eq!(inner_metrics.wakes, 2);
        assert_eq!(outer.now().as_nanos(), 55);
        assert_eq!(outer.handle().metrics().wakes, 3);
        assert_eq!(waker_wakes(&outer), 0);
        assert!(stepping_is_none());
    }

    #[test]
    fn simulations_interleaved_on_one_thread_wake_into_their_own_executor() {
        // What a PDES lane hosting two domains does: alternate epochs.
        let mut sims: Vec<Simulation> = (0..2).map(Simulation::new).collect();
        let done = Rc::new(Cell::new(0u32));
        for sim in &sims {
            let (h, n, done) = (sim.handle(), Notify::new(), Rc::clone(&done));
            let n2 = n.clone();
            sim.spawn(async move {
                for _ in 0..4 {
                    n2.notified().await;
                }
                done.set(done.get() + 1);
            });
            sim.spawn(async move {
                for _ in 0..4 {
                    h.sleep(Duration::from_nanos(30)).await;
                    n.notify_one();
                }
            });
        }
        for epoch in 1..=13 {
            for sim in &mut sims {
                sim.run_events_before(SimTime::from_nanos(epoch * 10));
                assert!(stepping_is_none());
            }
        }
        assert_eq!(done.get(), 2);
        for sim in &sims {
            assert_eq!(sim.handle().metrics().wakes, 8);
            assert_eq!((sim.live_tasks(), waker_wakes(sim)), (0, 0));
        }
    }

    // --- ready-queue order ----------------------------------------------

    /// A task that parks once through a hand-written combinator (its
    /// waker leaves the task, so a wake goes through the inbox), logs
    /// `name` when polled again and finishes.
    fn park_on_waker(
        sim: &Simulation,
        name: &'static str,
        log: &Rc<RefCell<Vec<&'static str>>>,
    ) -> Rc<RefCell<Option<Waker>>> {
        let stash = Rc::new(RefCell::new(None::<Waker>));
        let (stash2, log) = (Rc::clone(&stash), Rc::clone(log));
        sim.spawn(poll_fn(move |cx| {
            match stash2.borrow_mut().replace(cx.waker().clone()) {
                None => Poll::Pending,
                Some(_) => {
                    log.borrow_mut().push(name);
                    Poll::Ready(())
                }
            }
        }));
        stash
    }

    /// A task that parks on `notify` by task id, then logs `name`.
    fn park_on_id(
        sim: &Simulation,
        name: &'static str,
        log: &Rc<RefCell<Vec<&'static str>>>,
    ) -> Notify {
        let (notify, log) = (Notify::new(), Rc::clone(log));
        let n = notify.clone();
        sim.spawn(async move {
            n.notified().await;
            log.borrow_mut().push(name);
        });
        notify
    }

    #[test]
    fn waker_wakes_id_wakes_and_spawns_keep_exact_fifo_order() {
        let mut sim = Simulation::new(0);
        let log = Rc::new(RefCell::new(Vec::new()));
        let (w1, w3, w6) = (
            park_on_waker(&sim, "w1", &log),
            park_on_waker(&sim, "w3", &log),
            park_on_waker(&sim, "w6", &log),
        );
        let (n2, n5) = (park_on_id(&sim, "n2", &log), park_on_id(&sim, "n5", &log));
        sim.run();
        assert!(log.borrow().is_empty());
        let h = sim.handle();
        let log2 = Rc::clone(&log);
        sim.spawn(async move {
            // Inbox, local, inbox, spawn, local, inbox: one poll, one
            // order, whichever queue each wake lands in.
            let wake =
                |w: &Rc<RefCell<Option<Waker>>>| w.borrow().as_ref().expect("parked").wake_by_ref();
            wake(&w1);
            n2.notify_one();
            wake(&w3);
            let log = Rc::clone(&log2);
            h.spawn_detached(async move { log.borrow_mut().push("s4") });
            n5.notify_one();
            wake(&w6);
        });
        sim.run();
        assert_eq!(*log.borrow(), ["w1", "n2", "w3", "s4", "n5", "w6"]);
        assert_eq!(waker_wakes(&sim), 3);
    }

    #[test]
    fn wake_at_fires_interleave_with_task_id_timers_in_tie_order() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let log = Rc::new(RefCell::new(Vec::new()));
        for name in ["a", "b", "c", "d"] {
            let (h, log) = (h.clone(), Rc::clone(&log));
            if name == "b" || name == "d" {
                // Registered by task id, polled in place at the fire.
                sim.spawn(async move {
                    h.sleep(Duration::from_nanos(10)).await;
                    log.borrow_mut().push(name);
                });
            } else {
                // Registered as a waker: the fire goes through the inbox.
                let mut armed = false;
                sim.spawn(poll_fn(move |cx| {
                    if armed {
                        log.borrow_mut().push(name);
                        return Poll::Ready(());
                    }
                    armed = true;
                    h.wake_at(SimTime::from_nanos(10), cx.waker().clone());
                    Poll::Pending
                }));
            }
        }
        sim.run();
        assert_eq!(*log.borrow(), ["a", "b", "c", "d"]);
        assert_eq!(waker_wakes(&sim), 2);
        assert_eq!(sim.now().as_nanos(), 10);
    }

    #[test]
    fn waker_woken_from_another_thread_mid_run_polls_its_task_once() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let (polls, at) = (Rc::new(Cell::new(0u32)), Rc::new(Cell::new(0u64)));
        let parked = Arc::new(Mutex::new(None::<Waker>));
        {
            let (h, polls, at, parked) = (
                h.clone(),
                Rc::clone(&polls),
                Rc::clone(&at),
                Arc::clone(&parked),
            );
            sim.spawn(poll_fn(move |cx| {
                polls.set(polls.get() + 1);
                at.set(h.now().as_nanos());
                match parked.lock().unwrap().replace(cx.waker().clone()) {
                    None => Poll::Pending,
                    Some(_) => Poll::Ready(()),
                }
            }));
        }
        sim.spawn(async move {
            h.sleep(Duration::from_nanos(10)).await;
            let waker = parked.lock().unwrap().clone().expect("parked");
            std::thread::scope(|s| {
                for _ in 0..2 {
                    let waker = waker.clone();
                    s.spawn(move || {
                        waker.wake_by_ref();
                        waker.wake();
                    });
                }
            });
            h.sleep(Duration::from_nanos(10)).await;
        });
        sim.run();
        assert_eq!((polls.get(), at.get()), (2, 10));
        assert_eq!(waker_wakes(&sim), 1, "four wakes, one deduplicated");
        assert_eq!((sim.live_tasks(), sim.now().as_nanos()), (0, 20));
    }

    #[test]
    fn next_event_at_reports_a_wake_still_in_the_inbox() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let parked = Arc::new(Mutex::new(None::<Waker>));
        let p = Arc::clone(&parked);
        let done = sim.spawn(async move {
            h.sleep(Duration::from_nanos(30)).await;
            poll_fn(|cx| match p.lock().unwrap().replace(cx.waker().clone()) {
                None => Poll::Pending,
                Some(_) => Poll::Ready(()),
            })
            .await;
        });
        sim.run();
        assert_eq!(sim.next_event_at(), None, "quiescent while parked");
        let waker = parked.lock().unwrap().clone().expect("parked");
        std::thread::spawn(move || waker.wake()).join().unwrap();
        // Nothing is in the local FIFO and no timer is pending: only the
        // inbox holds work, and a PDES domain must not look quiescent.
        assert_eq!(sim.next_event_at(), Some(SimTime::from_nanos(30)));
        sim.run();
        assert!(done.is_finished());
        assert_eq!(sim.next_event_at(), None);
    }
}
