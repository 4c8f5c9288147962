//! Conservative parallel deterministic simulation (PDES) core.
//!
//! The single-threaded [`Simulation`] is a total order over one event
//! queue. This module partitions a simulation into **scheduling
//! domains** — one per blade / thread group, one for the fabric — each
//! owning its *own* executor (timer wheel, ready queue, slab, PRNG) and
//! hosted by one of the run's OS threads. Domains interact **only** through
//! fixed-latency inter-domain channels, the simulated analogue
//! of NIC verbs crossing the fabric: that isolation is exactly what
//! smart-lint's `cross-domain-shared-state` / `rc-escape` rules prove
//! statically for the workspace (DESIGN.md §5.6), and it is the
//! precondition conservative PDES needs.
//!
//! ## Synchronization: epoch barriers with lookahead
//!
//! Every channel has a latency `L > 0`; the engine's **lookahead** is the
//! minimum latency over all channels. The coordinator repeatedly
//! computes the lower bound on the next event anywhere:
//!
//! ```text
//! LBTS    = min( every domain's next local event time,
//!                every routed-but-undelivered envelope's delivery time )
//! horizon = LBTS + lookahead
//! ```
//!
//! and lets every domain process its events with `t < horizon`
//! concurrently. Any event a domain emits during the epoch happens at
//! some `t >= LBTS`, so its delivery lands at `t + L >= horizon` — in a
//! later epoch, never in this one. No domain can ever receive an event
//! from its past, with **zero** rollbacks and no null-message traffic.
//!
//! ## Determinism: the merge rule
//!
//! Envelopes routed to a domain between epochs are injected in ascending
//! `(delivery time, channel id, channel sequence number)` order — a
//! total order, because the per-channel sequence number is unique. A
//! domain's execution is therefore a pure function of its seed and its
//! injected envelope batches; the epoch schedule itself is derived only
//! from reported event times and envelope stamps. None of that depends
//! on how domains map onto OS threads, so a parallel run is
//! **byte-identical** to the sequential (`workers = 1`) run: same event
//! order, same RNG draws, same trace bytes. `tests/scheduler_equiv.rs`
//! and `crates/rt/tests/pdes_prop.rs` enforce exactly that, at workers
//! 1, 2 and 4, before any of this is allowed to matter.
//!
//! ## Threads: lanes, mailboxes, spin-then-park
//!
//! `run(k)` uses `k` OS threads *including the caller*. The caller is
//! **lane 0**: it is the coordinator, hosts every local domain and its
//! round-robin share of the `Send` domains. Each further lane is a
//! scoped thread with a private **mailbox** — inject batches and the
//! horizon in, emitted envelopes and next-event times out, the same
//! buffers swapped back and forth every epoch — handed over by bumping
//! the mailbox's epoch-generation atomic. A waiter polls that atomic for
//! a bounded budget and then parks; it polls at all only when the lanes
//! fit [`std::thread::available_parallelism`], because on an
//! oversubscribed host a spinner only delays the lane it waits for. A
//! lane none of whose domains has an envelope to inject or a local event
//! below the horizon is neither signalled nor waited for: advancing it
//! would be a no-op. A panic on any lane poisons the run through a drop
//! guard, so the other side of the barrier fails instead of hanging.
//!
//! ## Example
//!
//! ```rust
//! use smart_rt::pdes::PdesBuilder;
//! use smart_rt::Duration;
//!
//! let mut b = PdesBuilder::new(7);
//! let client = b.domain_id(0);
//! let server = b.domain_id(1);
//! let (req_tx, req_rx) = b.channel::<u64>(client, server, Duration::from_micros(2));
//! let (rsp_tx, rsp_rx) = b.channel::<u64>(server, client, Duration::from_micros(2));
//!
//! b.add_domain("client", move |ctx| {
//!     let tx = ctx.bind_tx(req_tx);
//!     let rx = ctx.bind_rx(rsp_rx);
//!     let h = ctx.handle();
//!     ctx.handle().spawn(async move {
//!         tx.send(41);
//!         let v = rx.recv().await;
//!         assert_eq!(v, 42);
//!         assert_eq!(h.now().as_nanos(), 4_000); // two fabric crossings
//!     });
//!     Box::new(|ctx: &smart_rt::pdes::DomainCtx| {
//!         format!("done at {}", ctx.now().as_nanos()).into_bytes()
//!     })
//! });
//! b.add_domain("server", move |ctx| {
//!     let rx = ctx.bind_rx(req_rx);
//!     let tx = ctx.bind_tx(rsp_tx);
//!     ctx.handle().spawn(async move {
//!         let v = rx.recv().await;
//!         tx.send(v + 1);
//!     });
//!     Box::new(|_: &smart_rt::pdes::DomainCtx| Vec::new())
//! });
//! let report = b.run(1); // workers=1: the sequential reference
//! assert_eq!(report.domains[0].artifact, b"done at 4000");
//! ```

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::task::{Context, Poll};
// The one deliberate exception to the `os-concurrency` rule (see
// PDES_ENGINE_FILES in smart-lint): this module IS the engine that hosts
// deterministic domains on OS threads. Determinism is guaranteed by the
// epoch/merge construction above and gated by the differential matrix,
// not by the absence of threads.
use std::thread;
use std::time::Duration;

use crate::executor::{SchedulePolicy, SimHandle, Simulation, Wakeup};
use crate::metrics::ExecutorMetrics;
use crate::rng::mix64;
use crate::time::SimTime;

/// Identity of a scheduling domain, dense from zero in creation order.
///
/// By convention the partition planners put the fabric domain first
/// (id 0) and blade / thread-group domains after it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct DomainId(pub u32);

impl DomainId {
    /// The domain's index into [`PdesReport::domains`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Seed of domain `id` under master seed `seed`. Domain 0 keeps the raw
/// seed, so a one-domain partition draws the same stream as a plain
/// `Simulation::new(seed)`; later domains get independent mixed streams.
fn domain_seed(seed: u64, id: u32) -> u64 {
    if id == 0 {
        seed
    } else {
        mix64(seed ^ mix64(id as u64))
    }
}

/// Per-channel static metadata, fixed at build time.
#[derive(Clone, Copy, Debug)]
struct ChannelMeta {
    dst: u32,
    latency_ns: u64,
}

/// An envelope's value, type-erased for the crossing.
pub(crate) type Payload = Box<dyn Any + Send>;

/// A cross-domain event in flight: payload plus the merge key.
struct Envelope {
    chan: u32,
    deliver_ns: u64,
    seq: u64,
    payload: Payload,
}

impl Envelope {
    /// The total merge order: `(delivery time, channel, sequence)`.
    fn key(&self) -> (u64, u32, u64) {
        (self.deliver_ns, self.chan, self.seq)
    }
}

/// Sender capability for one channel, created by [`PdesBuilder::channel`]
/// and bound inside the owning domain with [`DomainCtx::bind_tx`].
///
/// Tokens are plain `Send` values regardless of `T`, so they can travel
/// into the domain-setup closure that runs on the domain's own thread.
pub struct TxToken<T> {
    chan: u32,
    src: u32,
    latency_ns: u64,
    _marker: PhantomData<fn(T)>,
}

/// Receiver capability for one channel; see [`TxToken`].
pub struct RxToken<T> {
    chan: u32,
    dst: u32,
    _marker: PhantomData<fn() -> T>,
}

/// A delivery closure registered by `bind_rx`: downcasts the erased
/// payload and hands it to the channel's receiver queue.
type DeliverFn = Rc<dyn Fn(Payload)>;

/// A domain's receiving side, owned by its [`Simulation`]: the channels
/// bound with `bind_rx`, and the envelopes injected but not yet due.
/// Each of those waits on the wheel as a delivery timer naming its slot
/// here, fired like any timer and delivered in place. Slots are reused
/// across epochs; what is still pending drops with the simulation.
#[derive(Default)]
pub(crate) struct Inbound {
    /// Delivery closures by dense channel id (grown on bind).
    rx: Vec<Option<DeliverFn>>,
    /// `(channel, payload)` of each envelope on the wheel, by slot.
    pending: Vec<Option<(u32, Payload)>>,
    /// Slots of `pending` whose envelope was delivered.
    free: Vec<u32>,
    /// Envelopes delivered into this domain, total.
    delivered: u64,
}

impl Inbound {
    /// Parks an envelope for channel `chan` and returns its slot.
    pub(crate) fn park(&mut self, chan: u32, payload: Payload) -> u32 {
        let entry = Some((chan, payload));
        if let Some(slot) = self.free.pop() {
            self.pending[slot as usize] = entry;
            return slot;
        }
        // Slot `u32::MAX` is the wheel's tombstone id.
        assert!(
            self.pending.len() < u32::MAX as usize,
            "pdes delivery slots exhausted"
        );
        self.pending.push(entry);
        (self.pending.len() - 1) as u32
    }

    /// Hands the envelope in `slot` to its channel's receiver: the fire
    /// of its delivery timer.
    pub(crate) fn deliver(&mut self, slot: u32) {
        let (chan, payload) = self.pending[slot as usize]
            .take()
            .expect("a delivery timer fires once");
        self.free.push(slot);
        // A delivery only queues the value and wakes the receiver,
        // neither of which reaches this table.
        let deliver = self
            .rx
            .get(chan as usize)
            .and_then(Option::as_ref)
            .unwrap_or_else(|| panic!("channel {chan} delivered before bind_rx"));
        self.delivered += 1;
        deliver(payload);
    }
}

/// The execution context handed to a domain's setup closure.
///
/// It owns the domain's [`SimHandle`] (clock, spawn, RNG, tracer) and
/// binds channel endpoints. The same context is handed to the finish
/// hook after the last epoch, for reading end-of-run state.
pub struct DomainCtx {
    id: DomainId,
    name: String,
    handle: SimHandle,
    /// Envelopes emitted this epoch, drained by the runtime.
    outbox: Rc<RefCell<Vec<Envelope>>>,
}

impl DomainCtx {
    /// This domain's id.
    pub fn id(&self) -> DomainId {
        self.id
    }

    /// The domain's name as given to [`PdesBuilder::add_domain`].
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The domain's simulation handle: spawn tasks, sleep, draw from the
    /// domain's own deterministic PRNG, install a tracer.
    pub fn handle(&self) -> SimHandle {
        self.handle.clone()
    }

    /// The domain's current virtual time.
    pub fn now(&self) -> SimTime {
        self.handle.now()
    }

    /// Envelopes delivered into this domain so far.
    pub fn envelopes_delivered(&self) -> u64 {
        self.handle.inbound().borrow().delivered
    }

    /// Materializes the sending end of a channel inside its source
    /// domain.
    ///
    /// # Panics
    ///
    /// Panics if the token's source domain is not this domain.
    pub fn bind_tx<T: Send + 'static>(&self, token: TxToken<T>) -> PdesSender<T> {
        assert_eq!(
            token.src, self.id.0,
            "bind_tx: channel {} is sent from domain {}, not {}",
            token.chan, token.src, self.id.0
        );
        PdesSender {
            handle: self.handle.clone(),
            outbox: Rc::clone(&self.outbox),
            chan: token.chan,
            latency_ns: token.latency_ns,
            seq: Cell::new(0),
            _marker: PhantomData,
        }
    }

    /// Materializes the receiving end of a channel inside its
    /// destination domain.
    ///
    /// # Panics
    ///
    /// Panics if the token's destination domain is not this domain, or
    /// if the channel was already bound.
    pub fn bind_rx<T: Send + 'static>(&self, token: RxToken<T>) -> PdesReceiver<T> {
        assert_eq!(
            token.dst, self.id.0,
            "bind_rx: channel {} delivers to domain {}, not {}",
            token.chan, token.dst, self.id.0
        );
        let state = Rc::new(RxState {
            queue: RefCell::new(VecDeque::new()),
            waker: RefCell::new(None),
        });
        let deliver_into = Rc::clone(&state);
        let deliver: DeliverFn = Rc::new(move |payload| {
            let value = *payload
                .downcast::<T>()
                .expect("pdes channel payload type confusion");
            deliver_into.queue.borrow_mut().push_back(value);
            if let Some(w) = deliver_into.waker.borrow_mut().take() {
                w.wake();
            }
        });
        let rx = &mut self.handle.inbound().borrow_mut().rx;
        let chan = token.chan as usize;
        if rx.len() <= chan {
            rx.resize(chan + 1, None);
        }
        let prev = rx[chan].replace(deliver);
        assert!(
            prev.is_none(),
            "bind_rx: channel {} bound twice",
            token.chan
        );
        PdesReceiver {
            state,
            _marker: PhantomData,
        }
    }
}

/// The sending half of an inter-domain channel.
///
/// Sends are non-blocking: the value is stamped with `now + latency` and
/// handed to the coordinator at the end of the epoch. Capacity is
/// enforced at routing time against the number of envelopes queued for
/// injection on the channel.
pub struct PdesSender<T> {
    handle: SimHandle,
    outbox: Rc<RefCell<Vec<Envelope>>>,
    chan: u32,
    latency_ns: u64,
    /// Next send sequence number. A [`TxToken`] binds once and senders
    /// do not clone, so this is the channel's only counter.
    seq: Cell<u64>,
    _marker: PhantomData<fn(T)>,
}

impl<T: Send + 'static> PdesSender<T> {
    /// Sends `value` across the domain boundary; it becomes visible to
    /// the receiver exactly `latency` after the current virtual time.
    pub fn send(&self, value: T) {
        let seq = self.seq.replace(self.seq.get() + 1);
        self.outbox.borrow_mut().push(Envelope {
            chan: self.chan,
            deliver_ns: self.handle.now().as_nanos() + self.latency_ns,
            seq,
            payload: Box::new(value),
        });
    }

    /// The channel's fixed one-way latency.
    pub fn latency(&self) -> Duration {
        Duration::from_nanos(self.latency_ns)
    }
}

struct RxState<T> {
    queue: RefCell<VecDeque<T>>,
    waker: RefCell<Option<Wakeup>>,
}

/// The receiving half of an inter-domain channel (single consumer).
pub struct PdesReceiver<T> {
    state: Rc<RxState<T>>,
    _marker: PhantomData<fn() -> T>,
}

impl<T> PdesReceiver<T> {
    /// Waits until a value is delivered (at its stamped virtual delivery
    /// time) and returns it.
    pub fn recv(&self) -> Recv<'_, T> {
        Recv { rx: self }
    }
}

/// Future returned by [`PdesReceiver::recv`].
pub struct Recv<'a, T> {
    rx: &'a PdesReceiver<T>,
}

impl<T> std::future::Future for Recv<'_, T> {
    type Output = T;

    fn poll(self: std::pin::Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        if let Some(v) = self.rx.state.queue.borrow_mut().pop_front() {
            return Poll::Ready(v);
        }
        *self.rx.state.waker.borrow_mut() = Some(Wakeup::of(cx));
        Poll::Pending
    }
}

/// A domain's finish hook: runs after the last epoch, still on the
/// domain's thread, and returns the domain's **artifact** — the bytes
/// (report text, histogram dump, trace JSON, anything) that the
/// differential tests compare across worker counts.
pub type DomainFinish = Box<dyn FnOnce(&DomainCtx) -> Vec<u8>>;

enum DomainSlot {
    /// Setup is `Send`: the domain may be hosted by any lane.
    Remote {
        name: String,
        setup: Box<dyn FnOnce(&DomainCtx) -> DomainFinish + Send>,
    },
    /// Setup captures thread-local state (`Rc` graphs built outside):
    /// the domain always runs inline on the coordinator thread.
    Local {
        name: String,
        setup: Box<dyn FnOnce(&DomainCtx) -> DomainFinish>,
    },
}

/// A worker-hosted domain in transit to its thread (only the `Send`
/// variant of [`DomainSlot`] ever takes this form).
struct RemoteDomain {
    id: usize,
    name: String,
    setup: Box<dyn FnOnce(&DomainCtx) -> DomainFinish + Send>,
}

/// Builder for a partitioned simulation. See the [module docs](self).
pub struct PdesBuilder {
    seed: u64,
    policy: SchedulePolicy,
    domains: Vec<DomainSlot>,
    channels: Vec<ChannelMeta>,
}

impl PdesBuilder {
    /// Creates a builder whose domains derive their PRNG seeds from
    /// `seed`, with FIFO tie-breaking.
    pub fn new(seed: u64) -> Self {
        PdesBuilder::with_policy(seed, SchedulePolicy::Fifo)
    }

    /// Creates a builder with an explicit tie-breaking policy, applied
    /// to every domain's executor.
    pub fn with_policy(seed: u64, policy: SchedulePolicy) -> Self {
        PdesBuilder {
            seed,
            policy,
            domains: Vec::new(),
            channels: Vec::new(),
        }
    }

    /// The id the `n`-th added domain will get (they are dense in
    /// creation order). Handy for declaring channels before the domains.
    pub fn domain_id(&self, n: u32) -> DomainId {
        DomainId(n)
    }

    /// Declares an inter-domain channel from `src` to `dst` with the
    /// given one-way latency. The engine's conservative lookahead is the
    /// minimum latency over all channels.
    ///
    /// # Panics
    ///
    /// Panics if the latency is zero (zero-latency edges would collapse
    /// the lookahead and with it the parallelism) or if `src == dst`.
    pub fn channel<T: Send + 'static>(
        &mut self,
        src: DomainId,
        dst: DomainId,
        latency: Duration,
    ) -> (TxToken<T>, RxToken<T>) {
        let latency_ns = u64::try_from(latency.as_nanos()).expect("latency fits u64");
        assert!(latency_ns > 0, "pdes channel latency must be positive");
        assert_ne!(src, dst, "pdes channels must cross domains");
        let chan = u32::try_from(self.channels.len()).expect("too many channels");
        self.channels.push(ChannelMeta {
            dst: dst.0,
            latency_ns,
        });
        (
            TxToken {
                chan,
                src: src.0,
                latency_ns,
                _marker: PhantomData,
            },
            RxToken {
                chan,
                dst: dst.0,
                _marker: PhantomData,
            },
        )
    }

    /// Adds a scheduling domain whose setup closure is `Send`, so the
    /// domain can be hosted by any of the run's threads. The closure
    /// runs exactly once on the hosting thread: it builds the domain's
    /// task graph (all `Rc` state stays on that thread) and returns the
    /// finish hook producing the domain's artifact.
    pub fn add_domain(
        &mut self,
        name: &str,
        setup: impl FnOnce(&DomainCtx) -> DomainFinish + Send + 'static,
    ) -> DomainId {
        let id = DomainId(u32::try_from(self.domains.len()).expect("too many domains"));
        self.domains.push(DomainSlot::Remote {
            name: name.to_string(),
            setup: Box::new(setup),
        });
        id
    }

    /// Adds a domain whose setup captures thread-local (`Rc`) state and
    /// therefore always runs inline on the coordinator thread, whatever
    /// the worker count. This is how the shared-graph cluster
    /// simulations ride the same engine: a coarse one-domain partition
    /// is simply one local domain and no channels.
    pub fn add_local_domain(
        &mut self,
        name: &str,
        setup: impl FnOnce(&DomainCtx) -> DomainFinish + 'static,
    ) -> DomainId {
        let id = DomainId(u32::try_from(self.domains.len()).expect("too many domains"));
        self.domains.push(DomainSlot::Local {
            name: name.to_string(),
            setup: Box::new(setup),
        });
        id
    }

    /// Runs the partitioned simulation to quiescence and returns the
    /// per-domain artifacts and counters.
    ///
    /// `workers` is the number of OS threads *including the caller*: `1`
    /// runs everything inline on the calling thread (the sequential
    /// reference, no thread spawned); `k > 1` makes the caller lane 0 and
    /// spawns up to `k - 1` further lanes. Local domains always run on
    /// the calling thread; [`Self::add_domain`] domains are dealt
    /// round-robin over all lanes, starting at the first lane that holds
    /// no local domain. **The result is byte-identical for every value
    /// of `workers`.**
    ///
    /// # Panics
    ///
    /// Panics if a channel endpoint references a domain that was never
    /// added, or if a domain thread panics.
    pub fn run(self, workers: usize) -> PdesReport {
        let PdesBuilder {
            seed,
            policy,
            domains,
            channels,
        } = self;
        let n = domains.len();
        for c in &channels {
            assert!((c.dst as usize) < n, "channel delivers to unknown domain");
        }
        let lookahead_ns = channels.iter().map(|c| c.latency_ns).min();
        Coordinator {
            seed,
            policy,
            channels,
            lookahead_ns,
        }
        .run(domains, workers.max(1))
    }
}

/// Final state of one domain after [`PdesBuilder::run`].
#[derive(Clone, Debug)]
pub struct DomainReport {
    /// The domain's name.
    pub name: String,
    /// The bytes returned by the domain's finish hook.
    pub artifact: Vec<u8>,
    /// The domain executor's counters.
    pub metrics: ExecutorMetrics,
    /// The domain's final virtual time (its last processed event).
    pub final_now_ns: u64,
    /// Tasks still alive after quiescence — nonzero means a task is
    /// parked forever (lost wakeup / stranded coroutine).
    pub live_tasks: usize,
    /// Envelopes delivered into this domain.
    pub delivered: u64,
}

/// Outcome of a partitioned run. Everything in here (and in
/// [`Self::render`]) is independent of the worker count.
#[derive(Clone, Debug)]
pub struct PdesReport {
    /// Per-domain results, in [`DomainId`] order.
    pub domains: Vec<DomainReport>,
    /// Conservative epochs executed.
    pub epochs: u64,
    /// Envelopes routed across domains, total.
    pub envelopes: u64,
    /// The engine lookahead in nanoseconds (`None` without channels).
    pub lookahead_ns: Option<u64>,
}

impl PdesReport {
    /// Deterministic text rendering of the run: the byte-comparison
    /// surface used by the differential tests. Deliberately excludes
    /// anything worker-count-dependent (there is nothing else to
    /// exclude: that is the point). A domain's `spawned=` counts only
    /// the tasks its model spawned, and `events=` one timer fire per
    /// delivered envelope: an envelope is a delivery timer, not a task.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "pdes: {} domains, {} epochs, {} envelopes, lookahead {:?}",
            self.domains.len(),
            self.epochs,
            self.envelopes,
            self.lookahead_ns
        );
        for (i, d) in self.domains.iter().enumerate() {
            let _ = writeln!(
                s,
                "domain {i} `{}`: now={} events={} spawned={} delivered={} live={}",
                d.name,
                d.final_now_ns,
                d.metrics.events(),
                d.metrics.tasks_spawned,
                d.delivered,
                d.live_tasks
            );
            let _ = writeln!(s, "  artifact: {}", String::from_utf8_lossy(&d.artifact));
        }
        s
    }

    /// Total scheduling events processed across all domains.
    pub fn events(&self) -> u64 {
        self.domains.iter().map(|d| d.metrics.events()).sum()
    }
}

/// One domain's in-flight runtime, living on its hosting thread.
struct DomainRuntime {
    sim: Simulation,
    ctx: DomainCtx,
    finish: Option<DomainFinish>,
}

impl DomainRuntime {
    fn build(
        index: usize,
        name: String,
        seed: u64,
        policy: SchedulePolicy,
        setup: impl FnOnce(&DomainCtx) -> DomainFinish,
    ) -> Self {
        // Ids fit `u32`: `add_domain` checked when it assigned them.
        let index = index as u32;
        let sim = Simulation::with_policy(domain_seed(seed, index), policy);
        let ctx = DomainCtx {
            id: DomainId(index),
            name,
            handle: sim.handle(),
            outbox: Rc::default(),
        };
        let finish = setup(&ctx);
        DomainRuntime {
            sim,
            ctx,
            finish: Some(finish),
        }
    }

    /// Moves the envelopes emitted so far into the (empty) `io`, whose
    /// buffer becomes the next outbox, and reports the next local event
    /// time. Called on its own once after setup (sends from setup run at
    /// `t = 0`).
    fn collect(&mut self, io: &mut Vec<Envelope>) -> Option<u64> {
        debug_assert!(io.is_empty());
        std::mem::swap(io, &mut *self.ctx.outbox.borrow_mut());
        self.sim.next_event_at().map(SimTime::as_nanos)
    }

    /// Injects the routed envelopes in `io` (already in merge order) and
    /// advances the domain through every event strictly below `horizon`
    /// (`None` = run to quiescence). Leaves the envelopes emitted this
    /// epoch in `io` and returns the next local event time.
    ///
    /// Each envelope becomes a delivery timer, registered in merge order
    /// before anything else this epoch draws a sequence number (and with
    /// it a tie key) — except the tasks a domain's setup left ready,
    /// which draw theirs first, on its first epoch. Every epoch ends with
    /// the ready queue empty, so that is the order in which a task per
    /// envelope, queued behind them, drew its keys at its first poll:
    /// every pinned run was made that way (DESIGN.md §5.7).
    fn advance(&mut self, io: &mut Vec<Envelope>, horizon: Option<u64>) -> Option<u64> {
        self.sim.poll_ready();
        for env in io.drain(..) {
            let deliver_at = SimTime::from_nanos(env.deliver_ns);
            // Strictly later: the lookahead puts a delivery at or past the
            // horizon the domain last ran below.
            debug_assert!(deliver_at > self.ctx.now(), "pdes causality violation");
            self.ctx
                .handle
                .deliver_at(deliver_at, env.chan, env.payload);
        }
        match horizon {
            Some(h) => self.sim.run_events_before(SimTime::from_nanos(h)),
            None => self.sim.run(),
        }
        self.collect(io)
    }

    fn finish(mut self) -> DomainReport {
        let finish = self.finish.take().expect("finish hook consumed twice");
        let artifact = finish(&self.ctx);
        DomainReport {
            name: self.ctx.name.clone(),
            artifact,
            metrics: self.ctx.handle.metrics(),
            final_now_ns: self.ctx.handle.now().as_nanos(),
            live_tasks: self.sim.live_tasks(),
            delivered: self.ctx.envelopes_delivered(),
        }
    }
}

/// Polls of a mailbox generation a waiter burns before it parks: about
/// 80 µs, the order of one futex sleep/wake round trip on a slow host, so
/// a wait never costs more than twice what parking at once would have. A
/// peer lane's epoch is shorter than that and is normally caught
/// spinning; a lane that sits idle for many epochs, or whose peer is
/// descheduled, gives the CPU back.
const SPIN_BUDGET: u32 = 1 << 12;

/// Values of [`LaneShared::stop`].
const RUNNING: u8 = 0;
/// The last epoch is over: lanes run their finish hooks and return.
const FINISH: u8 = 1;
/// Some lane panicked: every waiter gives up at once.
const POISON: u8 = 2;

/// Run-wide state every lane of one [`PdesBuilder::run`] call borrows.
struct LaneShared {
    /// `RUNNING`, `FINISH` or `POISON`. Stored `Release`, read `Acquire`
    /// by [`Mailbox::wait`]; a store is always followed by an `unpark`
    /// of the threads that may be parked on it.
    stop: AtomicU8,
    /// Whether waiters busy-poll before parking: only when every lane can
    /// have a CPU of its own, otherwise a spinner just delays the lane it
    /// waits for.
    spin: bool,
}

/// What crosses a lane boundary each epoch. Buffers are swapped through,
/// never reallocated: an inject batch's buffer comes back holding the
/// emitted envelopes and is reused for a later batch.
struct Mail {
    horizon: Option<u64>,
    /// Per hosted domain: the inject batch (merge order) on the way in,
    /// the envelopes it emitted on the way out.
    io: Vec<Vec<Envelope>>,
    /// Per hosted domain: next local event time, on the way out.
    next: Vec<Option<u64>>,
}

/// The private hand-off slot between the coordinator and one lane.
#[repr(align(128))] // generations of neighbouring lanes never share a line
struct Mailbox {
    /// Epoch generation: `mail` belongs to the lane while even and to the
    /// coordinator while odd. Bumped `Release` by the side handing over,
    /// read `Acquire` by the side waiting, so the mail contents are
    /// ordered by it (the mutex is there for safe interior mutability and
    /// is never contended).
    gen: AtomicU64,
    mail: Mutex<Mail>,
}

impl Mailbox {
    fn new(domains: usize) -> Self {
        Mailbox {
            gen: AtomicU64::new(0),
            mail: Mutex::new(Mail {
                horizon: None,
                io: (0..domains).map(|_| Vec::new()).collect(),
                next: vec![None; domains],
            }),
        }
    }

    fn mail(&self) -> std::sync::MutexGuard<'_, Mail> {
        self.mail
            .lock()
            .expect("the generation protocol never reopens a mailbox whose owner panicked")
    }

    /// Hands the mail to the other side and wakes it if it parked.
    fn publish(&self, peer: &thread::Thread) {
        self.gen.fetch_add(1, Ordering::Release);
        peer.unpark();
    }

    /// Waits until the generation has `parity` (the caller's turn) and
    /// returns `RUNNING`, or returns the stop state raised meanwhile.
    /// No wake-up is lost: both `publish` and a stop store are followed
    /// by `unpark`, whose token makes a later `park` return at once.
    fn wait(&self, parity: u64, shared: &LaneShared) -> u8 {
        let mut budget = if shared.spin { SPIN_BUDGET } else { 0 };
        loop {
            if self.gen.load(Ordering::Acquire) & 1 == parity {
                return RUNNING;
            }
            let stop = shared.stop.load(Ordering::Acquire);
            if stop != RUNNING {
                return stop;
            }
            if budget > 0 {
                budget -= 1;
                std::hint::spin_loop();
            } else {
                thread::park();
            }
        }
    }
}

/// Drop guard held by every lane, the coordinator's included: a panic
/// unwinding through it poisons the run and wakes the threads that may be
/// waiting on this one, so neither side of the barrier can hang.
struct PoisonOnPanic<'a> {
    shared: &'a LaneShared,
    wake: Vec<thread::Thread>,
}

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.shared.stop.store(POISON, Ordering::Release);
            self.wake.iter().for_each(thread::Thread::unpark);
        }
    }
}

/// The coordinator's end of one worker lane.
struct LaneLink<'scope, 'env> {
    /// Hosted domain ids, in the order `Mail::io` / `Mail::next` lay them out.
    hosted: Vec<usize>,
    mailbox: &'env Mailbox,
    handle: thread::ScopedJoinHandle<'scope, Vec<(usize, DomainReport)>>,
    /// Whether the lane was signalled in the current epoch.
    ran: bool,
}

/// The coordinator's view of every domain between epochs, indexed by
/// domain id.
struct Routes {
    /// Next local event time, as last reported.
    next: Vec<Option<u64>>,
    /// Routed-but-uninjected envelopes, in merge order.
    pending: Vec<Vec<Envelope>>,
    /// Envelopes emitted in the epoch just run, awaiting [`Self::absorb`];
    /// empty between epochs, when the buffers serve as swap partners.
    emitted: Vec<Vec<Envelope>>,
    /// Pending queues that received an out-of-order envelope.
    unsorted: Vec<bool>,
    envelopes: u64,
}

impl Routes {
    /// Earliest event anywhere: a domain's local queue or the head of a
    /// (sorted) pending queue.
    fn lbts(&self) -> Option<u64> {
        let heads = self.pending.iter().filter_map(|q| q.first());
        let local = self.next.iter().flatten().copied();
        local.chain(heads.map(|e| e.deliver_ns)).min()
    }

    /// Whether domain `i` has anything to do below `horizon`. When it has
    /// not, `advance(∅, horizon)` is a no-op — `run_events_before` finds
    /// the ready queue empty and the wheel head at or past the horizon —
    /// so the domain (and a lane hosting only such domains) is skipped.
    fn active(&self, i: usize, horizon: Option<u64>) -> bool {
        !self.pending[i].is_empty() || self.next[i].is_some_and(|t| horizon.is_none_or(|h| t < h))
    }

    /// Moves domain `i`'s pending queue into the (empty) `io` for
    /// injection.
    fn take_batch(&mut self, i: usize, io: &mut Vec<Envelope>) {
        std::mem::swap(&mut self.pending[i], io);
    }

    /// Takes over what a lane left in its mail: emitted envelopes and
    /// next-event times of the domains it hosts.
    fn collect(&mut self, hosted: &[usize], mail: &mut Mail) {
        for (j, &i) in hosted.iter().enumerate() {
            std::mem::swap(&mut self.emitted[i], &mut mail.io[j]);
            self.next[i] = mail.next[j];
        }
    }

    /// Routes the epoch's emitted envelopes into per-destination pending
    /// queues and restores merge order. The sorted result is independent
    /// of the lane layout, because merge keys are unique.
    fn absorb(&mut self, channels: &[ChannelMeta]) {
        for out in &mut self.emitted {
            for env in out.drain(..) {
                let dst = channels[env.chan as usize].dst as usize;
                let queue = &mut self.pending[dst];
                if queue.last().is_some_and(|last| last.key() > env.key()) {
                    self.unsorted[dst] = true;
                }
                queue.push(env);
                self.envelopes += 1;
            }
        }
        for (queue, unsorted) in self.pending.iter_mut().zip(&mut self.unsorted) {
            if std::mem::take(unsorted) {
                queue.sort_unstable_by_key(Envelope::key);
            }
        }
    }
}

struct Coordinator {
    seed: u64,
    policy: SchedulePolicy,
    channels: Vec<ChannelMeta>,
    lookahead_ns: Option<u64>,
}

impl Coordinator {
    fn run(self, domains: Vec<DomainSlot>, workers: usize) -> PdesReport {
        let n = domains.len();
        // Deal domains onto lanes. Lane 0 is the calling thread: it hosts
        // every Local domain and takes its turn in the round-robin of the
        // `Send` ones, which starts at the first lane without a Local
        // domain. With one worker everything lands on lane 0: the
        // sequential reference path, no thread and no mailbox.
        let sendable = |d: &DomainSlot| matches!(d, DomainSlot::Remote { .. });
        let first = usize::from(!domains.iter().all(sendable));
        let lanes = workers
            .min(first + domains.iter().filter(|d| sendable(d)).count())
            .max(1);
        let mut local: Vec<(usize, DomainSlot)> = Vec::new();
        let mut bundles: Vec<Vec<RemoteDomain>> = (1..lanes).map(|_| Vec::new()).collect();
        let mut dealt = first;
        for (id, slot) in domains.into_iter().enumerate() {
            let lane = if sendable(&slot) {
                dealt += 1;
                (dealt - 1) % lanes
            } else {
                0
            };
            match slot {
                DomainSlot::Remote { name, setup } if lane > 0 => {
                    bundles[lane - 1].push(RemoteDomain { id, name, setup });
                }
                slot => local.push((id, slot)),
            }
        }
        let mailboxes: Vec<Mailbox> = bundles.iter().map(|b| Mailbox::new(b.len())).collect();
        let shared = LaneShared {
            stop: AtomicU8::new(RUNNING),
            spin: lanes > 1
                && thread::available_parallelism().is_ok_and(|cpus| lanes <= cpus.get()),
        };
        let (shared, seed, policy) = (&shared, self.seed, self.policy);

        let (slots, epochs, envelopes) = thread::scope(|scope| {
            let caller = thread::current();
            let mut guard = PoisonOnPanic {
                shared,
                wake: Vec::new(),
            };
            let mut links: Vec<LaneLink> = Vec::new();
            for (bundle, mailbox) in bundles.into_iter().zip(&mailboxes) {
                let hosted = bundle.iter().map(|d| d.id).collect();
                let caller = caller.clone();
                let handle =
                    scope.spawn(move || lane_main(bundle, seed, policy, mailbox, shared, caller));
                guard.wake.push(handle.thread().clone());
                links.push(LaneLink {
                    hosted,
                    mailbox,
                    handle,
                    ran: true,
                });
            }

            let mut local_rt: Vec<(usize, DomainRuntime)> = local
                .into_iter()
                .map(|(i, slot)| {
                    let rt = match slot {
                        DomainSlot::Remote { name, setup } => {
                            DomainRuntime::build(i, name, seed, policy, setup)
                        }
                        DomainSlot::Local { name, setup } => {
                            DomainRuntime::build(i, name, seed, policy, setup)
                        }
                    };
                    (i, rt)
                })
                .collect();

            let mut routes = Routes {
                next: vec![None; n],
                pending: (0..n).map(|_| Vec::new()).collect(),
                emitted: (0..n).map(|_| Vec::new()).collect(),
                unsorted: vec![false; n],
                envelopes: 0,
            };
            let mut epochs = 0u64;

            // Initial state: setups may already have emitted (sends from
            // setup are stamped `t = 0`).
            for (i, rt) in &mut local_rt {
                routes.next[*i] = rt.collect(&mut routes.emitted[*i]);
            }
            for link in &links {
                if link.mailbox.wait(1, shared) != RUNNING {
                    panic!("pdes worker thread died during setup");
                }
                routes.collect(&link.hosted, &mut link.mailbox.mail());
            }
            routes.absorb(&self.channels);

            // LBTS: earliest event anywhere. Nothing left => done.
            while let Some(lbts) = routes.lbts() {
                let horizon = self.lookahead_ns.map(|l| lbts.saturating_add(l));
                epochs += 1;

                // Signal the busy worker lanes first so they run while
                // lane 0 advances its own domains; idle lanes are neither
                // signalled nor waited for.
                for link in &mut links {
                    link.ran = link.hosted.iter().any(|&i| routes.active(i, horizon));
                    if !link.ran {
                        continue;
                    }
                    let mut mail = link.mailbox.mail();
                    mail.horizon = horizon;
                    for (j, &i) in link.hosted.iter().enumerate() {
                        routes.take_batch(i, &mut mail.io[j]);
                    }
                    drop(mail);
                    link.mailbox.publish(link.handle.thread());
                }
                for (i, rt) in &mut local_rt {
                    if routes.active(*i, horizon) {
                        let mut io = std::mem::take(&mut routes.emitted[*i]);
                        routes.take_batch(*i, &mut io);
                        routes.next[*i] = rt.advance(&mut io, horizon);
                        routes.emitted[*i] = io;
                    }
                }
                for link in links.iter().filter(|l| l.ran) {
                    if link.mailbox.wait(1, shared) != RUNNING {
                        panic!("pdes worker thread panicked during an epoch");
                    }
                    routes.collect(&link.hosted, &mut link.mailbox.mail());
                }
                routes.absorb(&self.channels);
            }

            // Quiescent: release the lanes into their finish hooks and
            // collect reports in domain order.
            shared.stop.store(FINISH, Ordering::Release);
            guard.wake.iter().for_each(thread::Thread::unpark);
            let mut slots: Vec<Option<DomainReport>> = (0..n).map(|_| None).collect();
            for (i, rt) in local_rt {
                slots[i] = Some(rt.finish());
            }
            for link in links {
                let done = link
                    .handle
                    .join()
                    .unwrap_or_else(|_| panic!("pdes worker thread panicked during finish"));
                for (i, r) in done {
                    slots[i] = Some(r);
                }
            }
            (slots, epochs, routes.envelopes)
        });

        PdesReport {
            domains: slots
                .into_iter()
                .map(|r| r.expect("domain produced no report"))
                .collect(),
            epochs,
            envelopes,
            lookahead_ns: self.lookahead_ns,
        }
    }
}

/// A worker lane's main loop: build the hosted domains, report their
/// initial state, then advance them one epoch per mailbox hand-over until
/// the run finishes (returning the domain reports) or is poisoned.
fn lane_main(
    bundle: Vec<RemoteDomain>,
    seed: u64,
    policy: SchedulePolicy,
    mailbox: &Mailbox,
    shared: &LaneShared,
    coordinator: thread::Thread,
) -> Vec<(usize, DomainReport)> {
    let guard = PoisonOnPanic {
        shared,
        wake: vec![coordinator],
    };
    let coordinator = &guard.wake[0];
    let mut runtimes: Vec<(usize, DomainRuntime)> = bundle
        .into_iter()
        .map(|d| {
            let rt = DomainRuntime::build(d.id, d.name, seed, policy, d.setup);
            (d.id, rt)
        })
        .collect();
    {
        let mail = &mut *mailbox.mail();
        for (j, (_, rt)) in runtimes.iter_mut().enumerate() {
            mail.next[j] = rt.collect(&mut mail.io[j]);
        }
    }
    mailbox.publish(coordinator);
    loop {
        match mailbox.wait(0, shared) {
            RUNNING => {}
            FINISH => break,
            _ => return Vec::new(),
        }
        {
            let mail = &mut *mailbox.mail();
            for (j, (_, rt)) in runtimes.iter_mut().enumerate() {
                mail.next[j] = rt.advance(&mut mail.io[j], mail.horizon);
            }
        }
        mailbox.publish(coordinator);
    }
    runtimes
        .into_iter()
        .map(|(i, rt)| (i, rt.finish()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A ping-pong ring: each of `k` domains forwards a token to the
    /// next, `rounds` times around. Returns the full render.
    fn ring(seed: u64, k: u32, rounds: u64, workers: usize) -> String {
        ring_report(seed, k, rounds, workers).render()
    }

    fn ring_report(seed: u64, k: u32, rounds: u64, workers: usize) -> PdesReport {
        let mut b = PdesBuilder::new(seed);
        let mut links = Vec::new();
        for i in 0..k {
            let (tx, rx) = b.channel::<u64>(
                DomainId(i),
                DomainId((i + 1) % k),
                Duration::from_nanos(250),
            );
            links.push((tx, rx));
        }
        // Domain i sends on links[i] and receives on links[(i + k - 1) % k].
        let mut rxs: Vec<Option<RxToken<u64>>> = links.iter().map(|_| None).collect();
        let mut txs: Vec<Option<TxToken<u64>>> = links.iter().map(|_| None).collect();
        for (i, (tx, rx)) in links.into_iter().enumerate() {
            txs[i] = Some(tx);
            rxs[(i + 1) % k as usize] = Some(rx);
        }
        for i in 0..k {
            let tx = txs[i as usize].take().unwrap();
            let rx = rxs[i as usize].take().unwrap();
            b.add_domain(&format!("d{i}"), move |ctx| {
                let tx = ctx.bind_tx(tx);
                let rx = ctx.bind_rx(rx);
                let h = ctx.handle();
                let log: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
                let log2 = Rc::clone(&log);
                ctx.handle().spawn(async move {
                    if i == 0 {
                        tx.send(0);
                    }
                    loop {
                        let v = rx.recv().await;
                        log2.borrow_mut().push(h.now().as_nanos());
                        if v >= rounds * k as u64 {
                            break;
                        }
                        tx.send(v + 1);
                    }
                });
                Box::new(move |ctx: &DomainCtx| {
                    format!(
                        "{:?} rng={}",
                        log.borrow(),
                        ctx.handle().with_rng(|r| r.next_u64())
                    )
                    .into_bytes()
                })
            });
        }
        b.run(workers)
    }

    #[test]
    fn ring_is_byte_identical_across_worker_counts() {
        let seq = ring(42, 5, 8, 1);
        for workers in [2, 3, 4, 8] {
            assert_eq!(seq, ring(42, 5, 8, workers), "workers={workers}");
        }
        // A different seed gives a different (but still stable) run.
        assert_ne!(seq, ring(43, 5, 8, 1));
        assert_eq!(ring(43, 5, 8, 1), ring(43, 5, 8, 4));
    }

    #[test]
    fn domains_sharing_a_lane_count_the_same_wakes_as_domains_apart() {
        // On one lane the five executors take turns on one thread; each
        // receiver must park with, and be woken into, its own domain.
        let metrics = |workers| -> Vec<ExecutorMetrics> {
            let report = ring_report(42, 5, 8, workers);
            report.domains.iter().map(|d| d.metrics).collect()
        };
        let together = metrics(1);
        assert!(together.iter().all(|m| m.wakes > 0 && m.polls > m.wakes));
        assert_eq!(together, metrics(2));
        assert_eq!(together, metrics(8));
    }

    #[test]
    fn one_domain_matches_plain_simulation() {
        // A single local domain with no channels must replay exactly the
        // stream a plain Simulation would: same seed, same RNG draws,
        // same timestamps.
        let mut plain = Simulation::new(9);
        let plain_log = Rc::new(RefCell::new(Vec::new()));
        {
            let log = Rc::clone(&plain_log);
            let h2 = plain.handle();
            plain.spawn(async move {
                for _ in 0..4 {
                    let d = h2.with_rng(|r| r.next_u64_below(100));
                    h2.sleep(Duration::from_nanos(d + 1)).await;
                    log.borrow_mut().push((h2.now().as_nanos(), d));
                }
            });
        }
        plain.run();
        let expected = format!("{:?}", plain_log.borrow());

        let mut b = PdesBuilder::new(9);
        b.add_local_domain("only", |ctx| {
            let h = ctx.handle();
            let log = Rc::new(RefCell::new(Vec::new()));
            let log2 = Rc::clone(&log);
            ctx.handle().spawn(async move {
                for _ in 0..4 {
                    let d = h.with_rng(|r| r.next_u64_below(100));
                    h.sleep(Duration::from_nanos(d + 1)).await;
                    log2.borrow_mut().push((h.now().as_nanos(), d));
                }
            });
            Box::new(move |_: &DomainCtx| format!("{:?}", log.borrow()).into_bytes())
        });
        let report = b.run(4);
        assert_eq!(report.domains[0].artifact, expected.as_bytes());
        assert_eq!(
            report.epochs, 1,
            "no channels => one run-to-quiescence epoch"
        );
    }

    #[test]
    fn same_time_envelopes_merge_in_channel_seq_order() {
        // Two producers send to one consumer with equal latency at the
        // same instant; the consumer must see channel 0's value first
        // (merge key (deliver, chan, seq)), at any worker count.
        let run = |workers: usize| {
            let mut b = PdesBuilder::new(1);
            let c0 = b.domain_id(0);
            let p1 = b.domain_id(1);
            let p2 = b.domain_id(2);
            let (t1, r1) = b.channel::<&'static str>(p1, c0, Duration::from_nanos(100));
            let (t2, r2) = b.channel::<&'static str>(p2, c0, Duration::from_nanos(100));
            b.add_domain("consumer", move |ctx| {
                let r1 = ctx.bind_rx(r1);
                let r2 = ctx.bind_rx(r2);
                let seen = Rc::new(RefCell::new(Vec::new()));
                // Spawned in reverse, so only the delivery order can put
                // channel 0's value first.
                for r in [r2, r1] {
                    let (h, seen) = (ctx.handle(), Rc::clone(&seen));
                    ctx.handle().spawn(async move {
                        let v = r.recv().await;
                        seen.borrow_mut().push((h.now().as_nanos(), v));
                    });
                }
                Box::new(move |_: &DomainCtx| format!("{:?}", seen.borrow()).into_bytes())
            });
            b.add_domain("p1", move |ctx| {
                let t1 = ctx.bind_tx(t1);
                t1.send("from-p1");
                Box::new(|_: &DomainCtx| Vec::new())
            });
            b.add_domain("p2", move |ctx| {
                let t2 = ctx.bind_tx(t2);
                t2.send("from-p2");
                Box::new(|_: &DomainCtx| Vec::new())
            });
            b.run(workers)
        };
        let seq = run(1);
        assert_eq!(
            seq.domains[0].artifact, br#"[(100, "from-p1"), (100, "from-p2")]"#,
            "channel id breaks the same-time tie"
        );
        for workers in [2, 4] {
            assert_eq!(seq.render(), run(workers).render(), "workers={workers}");
        }
    }

    /// The distinct threads that ran the setup or an event of `domains`
    /// sleeping `Send` domains under `run(workers)`.
    fn hosting_threads(domains: u32, workers: usize) -> Vec<thread::ThreadId> {
        let seen: Arc<Mutex<Vec<thread::ThreadId>>> = Arc::default();
        let mut b = PdesBuilder::new(5);
        for i in 0..domains {
            let seen = Arc::clone(&seen);
            b.add_domain(&format!("d{i}"), move |ctx| {
                let note = move || {
                    let mut seen = seen.lock().unwrap();
                    if !seen.contains(&thread::current().id()) {
                        seen.push(thread::current().id());
                    }
                };
                note();
                let h = ctx.handle();
                ctx.handle().spawn(async move {
                    h.sleep(Duration::from_nanos(10)).await;
                    note();
                });
                Box::new(|_: &DomainCtx| Vec::new())
            });
        }
        b.run(workers);
        let seen = seen.lock().unwrap().clone();
        seen
    }

    #[test]
    fn run_uses_exactly_k_threads_including_the_caller() {
        let caller = thread::current().id();
        for (domains, workers) in [(3, 2), (3, 3), (3, 4), (5, 2), (1, 4)] {
            let threads = hosting_threads(domains, workers);
            assert_eq!(
                threads.len(),
                workers.min(domains as usize),
                "{domains} domains at workers={workers}"
            );
            assert!(threads.contains(&caller), "the caller is lane 0");
        }
        // With workers=1 nothing ever leaves the caller.
        assert_eq!(hosting_threads(3, 1), [caller]);
    }

    /// One client fanning out to four servers over 300 ns channels, eight
    /// requests outstanding per server: client-only and server-only
    /// epochs alternate, so a lane without the client is idle (neither
    /// signalled nor waited for) every second epoch.
    fn fanout(workers: usize, rounds: u32) -> PdesReport {
        let mut b = PdesBuilder::new(11);
        let client = b.domain_id(0);
        let mut client_links = Vec::new();
        let mut server_links = Vec::new();
        for i in 0..4 {
            let server = b.domain_id(1 + i);
            let (req_tx, req_rx) = b.channel::<u32>(client, server, Duration::from_nanos(300));
            let (rsp_tx, rsp_rx) = b.channel::<u32>(server, client, Duration::from_nanos(300));
            client_links.push((req_tx, rsp_rx));
            server_links.push((req_rx, rsp_tx));
        }
        b.add_domain("client", move |ctx| {
            let log: Rc<RefCell<Vec<(u64, u32)>>> = Rc::default();
            for (tx, rx) in client_links {
                let (tx, rx) = (ctx.bind_tx(tx), ctx.bind_rx(rx));
                for slot in 0..8 {
                    tx.send(slot);
                }
                let (h, log) = (ctx.handle(), Rc::clone(&log));
                ctx.handle().spawn(async move {
                    for _ in 0..rounds * 8 {
                        let slot = rx.recv().await;
                        log.borrow_mut().push((h.now().as_nanos(), slot));
                        tx.send(slot);
                    }
                });
            }
            Box::new(move |ctx: &DomainCtx| {
                let sum = log.borrow().iter().fold(0u64, |a, (t, s)| {
                    a.wrapping_mul(31).wrapping_add(t ^ u64::from(*s))
                });
                format!(
                    "{} replies, digest {sum}, end {}",
                    log.borrow().len(),
                    ctx.now().as_nanos()
                )
                .into_bytes()
            })
        });
        for (i, (rx, tx)) in server_links.into_iter().enumerate() {
            b.add_domain(&format!("server{i}"), move |ctx| {
                let (rx, tx) = (ctx.bind_rx(rx), Rc::new(ctx.bind_tx(tx)));
                let h = ctx.handle();
                ctx.handle().spawn(async move {
                    loop {
                        let slot = rx.recv().await;
                        let (tx, h2) = (Rc::clone(&tx), h.clone());
                        h.spawn(async move {
                            let d = h2.with_rng(|r| r.next_u64_below(40));
                            h2.sleep(Duration::from_nanos(20 + d)).await;
                            tx.send(slot);
                        });
                    }
                });
                Box::new(|ctx: &DomainCtx| ctx.envelopes_delivered().to_string().into_bytes())
            });
        }
        b.run(workers)
    }

    #[test]
    fn fanout_with_idle_lanes_matches_the_pinned_sequential_run() {
        let seq = fanout(1, 50);
        // Pinned from the mpsc epoch engine (no lane 0, no idle skip):
        // the rewrites since must not move an event. The render's event
        // and spawn counts are left out of the hash and checked below.
        assert_eq!((seq.epochs, seq.envelopes), (104, 3264));
        let render: String = seq
            .render()
            .lines()
            .map(|line| {
                let kept: Vec<&str> = line
                    .split(' ')
                    .filter(|w| !w.starts_with("events=") && !w.starts_with("spawned="))
                    .collect();
                kept.join(" ") + "\n"
            })
            .collect();
        assert_eq!(fnv1a(render.as_bytes()), 0xb391_60f6_d5ec_9804);
        // The same engine's counts, less what a task per delivery cost:
        // one spawn, and two polls (the sleep's registration, the
        // delivery) besides the timer fire that is all a delivery is now.
        let delivered: Vec<u64> = seq.domains.iter().map(|d| d.delivered).collect();
        assert_eq!(delivered, [1_632, 408, 408, 408, 408]);
        let with_tasks = [
            (6_500, 1_636),
            (2_857, 817),
            (2_857, 817),
            (2_857, 817),
            (2_857, 817),
        ];
        for (d, (events, spawned)) in seq.domains.iter().zip(with_tasks) {
            assert_eq!(
                (d.metrics.events(), d.metrics.tasks_spawned),
                (events - 2 * d.delivered, spawned - d.delivered),
                "{}",
                d.name
            );
        }
        for workers in [2, 3, 5] {
            assert_eq!(
                seq.render(),
                fanout(workers, 50).render(),
                "workers={workers}"
            );
        }
    }

    /// Domain `a` sends `1` at t = 0 over a 100 ns channel; `b`'s setup
    /// spawns a task that sleeps 100 ns and one that receives, so `b`'s
    /// first epoch has both its setup's ready tasks and an envelope, and
    /// the sleep and the delivery tie at t = 100. Returns `b`'s log.
    fn first_epoch_tie(policy: SchedulePolicy) -> String {
        let mut b = PdesBuilder::with_policy(1, policy);
        let (a, z) = (b.domain_id(0), b.domain_id(1));
        let (tx, rx) = b.channel::<u64>(a, z, Duration::from_nanos(100));
        b.add_domain("a", move |ctx| {
            ctx.bind_tx(tx).send(1);
            Box::new(|_: &DomainCtx| Vec::new())
        });
        b.add_domain("b", move |ctx| {
            let rx = ctx.bind_rx(rx);
            let log: Rc<RefCell<Vec<String>>> = Rc::default();
            let (h, l) = (ctx.handle(), Rc::clone(&log));
            ctx.handle().spawn(async move {
                h.sleep(Duration::from_nanos(100)).await;
                l.borrow_mut().push(format!("local@{}", h.now().as_nanos()));
            });
            let (h, l) = (ctx.handle(), Rc::clone(&log));
            ctx.handle().spawn(async move {
                let v = rx.recv().await;
                l.borrow_mut()
                    .push(format!("remote{v}@{}", h.now().as_nanos()));
            });
            Box::new(move |_: &DomainCtx| log.borrow().join(",").into_bytes())
        });
        let report = b.run(1);
        String::from_utf8_lossy(&report.domains[1].artifact).into_owned()
    }

    #[test]
    fn setup_tasks_register_before_the_first_envelope_batch() {
        // Pinned from the engine that spawned a task per envelope behind
        // the setup's ready tasks. Registering the envelope before those
        // tasks ran gave `remote1@100,local@100` under `Fifo`.
        for (policy, want) in [
            (SchedulePolicy::Fifo, "local@100,remote1@100"),
            (SchedulePolicy::SeededTieBreak(1), "local@100,remote1@100"),
            (SchedulePolicy::SeededTieBreak(2), "remote1@100,local@100"),
        ] {
            assert_eq!(first_epoch_tie(policy), want, "{policy:?}");
        }
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Every hop of the ring token is an epoch with one busy domain, so
    /// each one is a hand-off to (and back from) a single lane while all
    /// others stay asleep: a lost wake-up hangs the run, a skipped or
    /// doubled epoch changes the render.
    #[test]
    fn twenty_thousand_one_event_epochs_lose_no_wakeup() {
        let seq = ring_report(7, 8, 2_500, 1);
        assert!(seq.epochs >= 20_000, "{} epochs", seq.epochs);
        // workers=2 spins on a multi-core host; workers=8 oversubscribes
        // anything below eight CPUs and takes the park path at once.
        for workers in [2, 8] {
            assert_eq!(
                seq.render(),
                ring(7, 8, 2_500, workers),
                "workers={workers}"
            );
        }
    }

    /// Three domains; `d1` (on a worker lane whenever `workers > 1`)
    /// panics at `t = 500` while the others keep exchanging envelopes.
    fn run_with_panicking_domain(workers: usize) {
        let mut b = PdesBuilder::new(3);
        let (d0, d2) = (b.domain_id(0), b.domain_id(2));
        let (tx02, rx02) = b.channel::<u64>(d0, d2, Duration::from_nanos(100));
        let (tx20, rx20) = b.channel::<u64>(d2, d0, Duration::from_nanos(100));
        let echo = |tx: TxToken<u64>, rx: RxToken<u64>, kick: bool| {
            move |ctx: &DomainCtx| -> DomainFinish {
                let (tx, rx) = (ctx.bind_tx(tx), ctx.bind_rx(rx));
                if kick {
                    tx.send(0);
                }
                ctx.handle().spawn(async move {
                    loop {
                        let v = rx.recv().await;
                        if v < 100 {
                            tx.send(v + 1);
                        }
                    }
                });
                Box::new(|_: &DomainCtx| Vec::new())
            }
        };
        b.add_domain("d0", echo(tx02, rx20, true));
        b.add_domain("d1", |ctx| {
            let h = ctx.handle();
            ctx.handle().spawn(async move {
                h.sleep(Duration::from_nanos(500)).await;
                panic!("domain d1 failed at t=500");
            });
            Box::new(|_: &DomainCtx| Vec::new())
        });
        b.add_domain("d2", echo(tx20, rx02, false));
        b.run(workers);
    }

    #[test]
    #[should_panic(expected = "pdes worker thread panicked during an epoch")]
    fn panicking_worker_domain_fails_the_run_spinning() {
        run_with_panicking_domain(2);
    }

    #[test]
    #[should_panic(expected = "pdes worker thread panicked during an epoch")]
    fn panicking_worker_domain_fails_the_run_parked() {
        run_with_panicking_domain(8);
    }

    /// Domain d0 runs on the coordinator's lane and panics there: lane 1,
    /// waiting for its next epoch, must be released or `thread::scope`
    /// would never join it.
    #[test]
    #[should_panic(expected = "domain d0 failed")]
    fn panicking_coordinator_domain_releases_the_waiting_lane() {
        let mut b = PdesBuilder::new(3);
        let (d0, d1) = (b.domain_id(0), b.domain_id(1));
        let (tx, rx) = b.channel::<u64>(d1, d0, Duration::from_nanos(50));
        b.add_domain("d0", move |ctx| {
            let rx = ctx.bind_rx(rx);
            ctx.handle().spawn(async move {
                rx.recv().await;
                panic!("domain d0 failed");
            });
            Box::new(|_: &DomainCtx| Vec::new())
        });
        b.add_domain("d1", move |ctx| {
            ctx.bind_tx(tx).send(1);
            Box::new(|_: &DomainCtx| Vec::new())
        });
        b.run(2);
    }

    #[test]
    #[should_panic(expected = "bind_tx: channel 0 is sent from domain 0, not 1")]
    fn binding_tx_in_wrong_domain_panics() {
        let mut b = PdesBuilder::new(3);
        let a = b.domain_id(0);
        let z = b.domain_id(1);
        let (tx, rx) = b.channel::<u64>(a, z, Duration::from_nanos(50));
        b.add_domain("a", move |_ctx| {
            let _never_bound = rx; // the send side is the bug under test
            Box::new(|_: &DomainCtx| Vec::new())
        });
        b.add_domain("z", move |ctx| {
            let _tx = ctx.bind_tx(tx);
            Box::new(|_: &DomainCtx| Vec::new())
        });
        b.run(1);
    }

    #[test]
    fn domain_seeds_are_independent_but_domain_zero_keeps_raw_seed() {
        assert_eq!(domain_seed(1234, 0), 1234);
        assert_ne!(domain_seed(1234, 1), domain_seed(1234, 2));
        assert_ne!(domain_seed(1234, 1), domain_seed(4321, 1));
    }
}
