//! The serve scenario: arrivals, admission, sessions, routing and
//! membership wired into one deterministic run.
//!
//! The scenario is written once, as `ServeScenario`, and driven two
//! ways: [`run_serve`] here (the inline driver: one [`Simulation`],
//! imperative `run_for` over the plan and the drain budget) and
//! [`crate::run_serve_decomposed`] (the engine driver: the same body in
//! the compute domain of a PDES run whose memory blades are engine
//! domains). One run is one complete open-loop experiment:
//!
//! 1. install the fault injector with the membership script's crash
//!    windows (plus any caller-supplied background chaos), then carve a
//!    per-`(shard, blade)` slab of balance cells and seed the initial
//!    balances on each shard's first home;
//! 2. start `threads × depth` worker coroutines draining the session
//!    queue with SMART `try_*` verbs, routed through the epoch-versioned
//!    [`ShardRouter`];
//! 3. start the membership driver, a phase clerk that snapshots recovery
//!    histograms at each phase boundary, and the dispatcher (arrival
//!    engine + admission controller);
//! 4. after the driver has run the plan and the drain, audit (balance
//!    ledger vs blade memory, credit conservation, no stranded workers)
//!    and assemble the [`ServeReport`].
//!
//! Transfers are executed as two FAA rounds (debit, then credit), each
//! through the fallible recovery path, and every *applied* delta is
//! folded into a client-side ledger; the final audit demands that the
//! wrapping sum of every cell on every blade equals the seeded total
//! plus that ledger — so a recovery bug that drops or double-applies a
//! work request is caught even while blades crash and rejoin mid-run.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use smart::{FaultError, ShardRouter, SmartConfig, SmartContext, SmartThread};
use smart_fault::{FaultInjector, FaultPlan};
use smart_rnic::{BladeConfig, Cluster, ClusterConfig, MemoryBlade, RemoteAddr};
use smart_rt::{Duration, JoinHandle, SimHandle, Simulation};
use smart_trace::{Actor, Args, Category, LogHistogram, TraceSink};

use crate::admission::{AdmissionConfig, AdmissionController, Rejected};
use crate::arrival::{ArrivalEngine, RatePlan, ServeOp};
use crate::membership::MembershipPlan;
use crate::report::{digest_fold, PhaseStats, ServeReport, DIGEST_SEED};
use crate::session::{Request, SessionPool};

/// Everything that defines one serve run.
#[derive(Clone)]
pub struct ServeSpec {
    /// Simulation seed; the whole report is a function of it.
    pub seed: u64,
    /// Logical client population (sessions), e.g. 100_000.
    pub clients: usize,
    /// Simulated serving threads.
    pub threads: usize,
    /// Worker coroutines per thread (bounded session executors).
    pub depth: usize,
    /// Memory blades in the roster.
    pub blades: usize,
    /// Keyspace shards routed over the blades.
    pub shards: usize,
    /// Balance accounts spread over the shards.
    pub accounts: u64,
    /// Zipf skew of account popularity (0 ≤ θ < 1).
    pub theta: f64,
    /// Percent of arrivals that are read-only balance probes.
    pub probe_pct: u32,
    /// Initial balance seeded into every account.
    pub initial_balance: u64,
    /// The offered-load schedule (phases drive the report rows).
    pub plan: RatePlan,
    /// Admission policy; `None` runs open (no controller object at all).
    pub admission: Option<AdmissionConfig>,
    /// Scripted blade leave/join windows.
    pub membership: MembershipPlan,
    /// Extra background chaos merged into the membership fault plan.
    pub chaos: FaultPlan,
    /// Optional trace sink for serve-phase/admission/membership markers.
    pub trace: Option<TraceSink>,
    /// Virtual-time budget for draining after the plan ends.
    pub drain: Duration,
}

impl ServeSpec {
    /// A spec with required scale parameters and conservative defaults
    /// (tune the public fields afterwards).
    pub fn new(seed: u64, clients: usize, plan: RatePlan) -> ServeSpec {
        ServeSpec {
            seed,
            clients,
            threads: 4,
            depth: 8,
            blades: 3,
            shards: 12,
            accounts: 4096,
            theta: 0.9,
            probe_pct: 50,
            initial_balance: 1_000,
            plan,
            admission: None,
            membership: MembershipPlan::new(),
            chaos: FaultPlan::new(),
            trace: None,
            drain: Duration::from_millis(50),
        }
    }
}

/// Shared per-run accumulators the dispatcher and workers write into.
struct Accum {
    phases: RefCell<Vec<PhaseStats>>,
    digest: Cell<u64>,
    /// Wrapping sum of every FAA delta that was confirmed applied.
    ledger: Cell<u64>,
}

impl Accum {
    fn new(plan: &RatePlan) -> Accum {
        Accum {
            phases: RefCell::new(
                plan.phases()
                    .iter()
                    .map(|p| PhaseStats {
                        name: p.name,
                        dur_ns: p.dur.as_nanos() as u64,
                        ..Default::default()
                    })
                    .collect(),
            ),
            digest: Cell::new(DIGEST_SEED),
            ledger: Cell::new(0),
        }
    }
}

/// Fixed-layout addressing of one account's balance cell.
pub(crate) struct Slabs {
    /// `bases[shard][blade]` — byte offset of the shard's slab on that
    /// blade. Every blade hosts a replica slab for every shard, so any
    /// membership view has a home cell ready.
    bases: Vec<Vec<u64>>,
    shards: usize,
    cells_per_shard: u64,
}

impl Slabs {
    fn carve(blades: &[Rc<MemoryBlade>], shards: usize, accounts: u64) -> Slabs {
        let cells_per_shard = accounts.div_ceil(shards as u64);
        let bases = (0..shards)
            .map(|_| {
                blades
                    .iter()
                    .map(|b| b.alloc(cells_per_shard * 8, 8))
                    .collect()
            })
            .collect();
        Slabs {
            bases,
            shards,
            cells_per_shard,
        }
    }

    fn shard_of(&self, account: u64) -> usize {
        (account % self.shards as u64) as usize
    }

    fn cell(&self, account: u64, blade: usize) -> u64 {
        let idx = account / self.shards as u64;
        debug_assert!(idx < self.cells_per_shard);
        self.bases[self.shard_of(account)][blade] + idx * 8
    }

    /// The account's cell at its *current* home under `router`'s view.
    fn addr(&self, account: u64, router: &ShardRouter, blades: &[Rc<MemoryBlade>]) -> RemoteAddr {
        let home = router.home(self.shard_of(account));
        RemoteAddr::new(blades[home].id(), self.cell(account, home))
    }

    /// Wrapping sum of every shard's cells on blade `bi` (`blade` is the
    /// copy to read: the authoritative one, in a decomposed run).
    pub(crate) fn sum_on(&self, bi: usize, blade: &MemoryBlade) -> u64 {
        let mut sum: u64 = 0;
        for bases in &self.bases {
            for cell in 0..self.cells_per_shard {
                sum = sum.wrapping_add(blade.read_u64(bases[bi] + cell * 8));
            }
        }
        sum
    }
}

/// The cluster shape a serve run needs: one compute node and
/// `spec.blades` blades sized for the balance slabs.
pub(crate) fn cluster_config(spec: &ServeSpec) -> ClusterConfig {
    let cells = spec.accounts.div_ceil(spec.shards as u64) * 8;
    ClusterConfig {
        compute_nodes: 1,
        memory_blades: spec.blades,
        blade: BladeConfig {
            region_bytes: (spec.shards as u64 * cells) + (1 << 20),
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Carves the balance slabs and seeds every account's initial balance
/// on its shard's first home. Only the bump allocator and direct writes
/// are used — no RNG, no simulated time — so every domain of a
/// decomposed run replays this and holds identical bytes.
pub(crate) fn seed_balances(
    blades: &[Rc<MemoryBlade>],
    shards: usize,
    accounts: u64,
    initial_balance: u64,
) -> (ShardRouter, Slabs) {
    let router = ShardRouter::new(blades.len(), shards);
    let slabs = Slabs::carve(blades, shards, accounts);
    for account in 0..accounts {
        let home = router.home(slabs.shard_of(account));
        blades[home].write_u64(slabs.cell(account, home), initial_balance);
    }
    (router, slabs)
}

fn describe_admission(admission: &Option<AdmissionConfig>) -> String {
    match admission {
        None => "open (no controller)".to_string(),
        Some(c) if c.is_unlimited() => "controller present, unlimited".to_string(),
        Some(c) => {
            let q = if c.max_queue == usize::MAX {
                "unbounded".to_string()
            } else {
                c.max_queue.to_string()
            };
            format!("rate {}/s burst {} queue {}", c.rate, c.burst, q)
        }
    }
}

/// Executes one admitted request; `Ok(delta)` carries the wrapping sum
/// of the FAA deltas that were applied (0 for probes).
async fn execute(
    coro: &smart::SmartCoro,
    req: &Request,
    slabs: &Slabs,
    router: &ShardRouter,
    blades: &[Rc<MemoryBlade>],
) -> Result<u64, FaultError> {
    match req.op {
        ServeOp::Probe { account } => {
            let _op = coro.op_scope_named("serve_probe").await;
            coro.try_read_sync(slabs.addr(account, router, blades), 8)
                .await?;
            Ok(0)
        }
        ServeOp::Transfer { from, to, amount } => {
            let _op = coro.op_scope_named("serve_transfer").await;
            // Debit first; nothing is applied if it fails, so a typed
            // error here leaves the ledger untouched.
            let debit = amount.wrapping_neg();
            coro.try_faa_sync(slabs.addr(from, router, blades), debit)
                .await?;
            // The debit is applied from here on: fold it into the
            // returned delta even if the credit round fails, so the
            // audit's expectation tracks what actually hit memory.
            match coro
                .try_faa_sync(slabs.addr(to, router, blades), amount)
                .await
            {
                Ok(_) => Ok(debit.wrapping_add(amount)),
                Err(e) => {
                    // Torn transfer: count the op as failed but keep the
                    // half that landed on the books.
                    coro.thread().stats().faults_seen.incr();
                    let _ = e;
                    Ok(debit)
                }
            }
        }
    }
}

/// The balance-conservation audit as far as one domain can take it: what
/// the blades it owns hold, and what all blades together must hold.
pub(crate) struct BalanceAudit {
    held: u64,
    expected: u64,
}

impl BalanceAudit {
    /// Adds what the blades of other domains hold (0 when this domain
    /// owns them all) and appends the verdict to the report's audits.
    pub(crate) fn settle(self, remote: u64, report: &mut ServeReport) {
        let total = self.held.wrapping_add(remote);
        if total != self.expected {
            report.conservation.push(format!(
                "balance ledger mismatch: blades hold {total}, ledger expects {}",
                self.expected
            ));
        }
    }
}

/// A started serve scenario: every task is spawned, nothing has run yet.
/// The driver advances virtual time, then calls [`Self::report`].
pub(crate) struct ServeScenario {
    accum: Rc<Accum>,
    pool: Rc<SessionPool>,
    router: Rc<ShardRouter>,
    slabs: Rc<Slabs>,
    blades: Vec<Rc<MemoryBlade>>,
    injector: Rc<FaultInjector>,
    ctx: Rc<SmartContext>,
    threads: Vec<Rc<SmartThread>>,
    workers: Vec<JoinHandle<()>>,
    /// The phase clerk's recovery-histogram snapshots, one per boundary.
    snaps: Rc<RefCell<Vec<LogHistogram>>>,
}

impl ServeScenario {
    /// Installs `spec.trace`, builds the scenario on `cluster` and spawns
    /// its tasks on `h`, in a fixed order (fault driver, workers,
    /// membership driver, phase clerk, dispatcher) that both drivers'
    /// goldens depend on.
    pub(crate) fn start(h: &SimHandle, cluster: &Cluster, spec: &ServeSpec) -> ServeScenario {
        if let Some(sink) = &spec.trace {
            h.install_tracer(sink.clone());
        }
        let plan = spec.membership.fault_plan().merge(&spec.chaos);
        let injector = FaultInjector::install(cluster, plan);

        let (router, slabs) = seed_balances(
            cluster.blades(),
            spec.shards,
            spec.accounts,
            spec.initial_balance,
        );
        let (router, slabs) = (Rc::new(router), Rc::new(slabs));

        let accum = Rc::new(Accum::new(&spec.plan));
        let queue_cap = spec.admission.as_ref().map_or(usize::MAX, |c| c.max_queue);
        let pool = Rc::new(SessionPool::new(spec.clients, queue_cap));

        // Worker coroutines: the bounded execution side of the session pool.
        let mut cfg = SmartConfig::smart_full(spec.threads);
        cfg.expected_threads = spec.threads;
        cfg.coroutines_per_thread = spec.depth;
        let ctx = SmartContext::new(cluster.compute(0), cluster.blades(), cfg);
        let mut threads: Vec<Rc<SmartThread>> = Vec::new();
        let mut workers = Vec::new();
        for _ in 0..spec.threads {
            let thread = ctx.create_thread();
            for _ in 0..spec.depth {
                let coro = thread.coroutine();
                let queue = pool.queue().clone();
                let (pool, accum) = (Rc::clone(&pool), Rc::clone(&accum));
                let (router, slabs) = (Rc::clone(&router), Rc::clone(&slabs));
                // One copy per worker, made here: the order of set-up
                // allocations is host-time-visible on `serve_diurnal`
                // (EXPERIMENTS.md "Hosted path removed").
                let blades = cluster.blades().to_vec();
                let handle = h.clone();
                workers.push(h.spawn(async move {
                    while let Some(req) = queue.recv().await {
                        let outcome = execute(&coro, &req, &slabs, &router, &blades).await;
                        let mut phases = accum.phases.borrow_mut();
                        let ph = &mut phases[req.phase];
                        match outcome {
                            Ok(delta) => {
                                accum.ledger.set(accum.ledger.get().wrapping_add(delta));
                                ph.completed += 1;
                                let lat = handle.now().as_nanos() - req.at.as_nanos() as u64;
                                ph.latency.record(lat);
                                drop(phases);
                                pool.complete(req.client);
                            }
                            Err(_) => ph.failed += 1,
                        }
                    }
                }));
            }
            threads.push(thread);
        }

        // Membership driver.
        h.spawn(spec.membership.clone().drive(h.clone(), Rc::clone(&router)));

        // Phase clerk: marks transitions and snapshots the merged recovery
        // histogram at every phase boundary so per-phase CDFs can be diffed
        // out after the run.
        let snaps: Rc<RefCell<Vec<LogHistogram>>> = Rc::new(RefCell::new(Vec::new()));
        {
            let handle = h.clone();
            let threads = threads.clone();
            let snaps = Rc::clone(&snaps);
            let plan = spec.plan.clone();
            h.spawn(async move {
                let start = handle.now();
                let mut at = Duration::ZERO;
                for (i, p) in plan.phases().iter().enumerate() {
                    handle.with_tracer(|sink| {
                        sink.instant(
                            handle.now().as_nanos(),
                            Actor::SYSTEM,
                            Category::Serve,
                            "phase_start",
                            Args::one("phase", i as u64),
                        );
                    });
                    at += p.dur;
                    handle.sleep_until(start + at).await;
                    let mut merged = LogHistogram::new();
                    for t in &threads {
                        merged.merge(&t.stats().recovery_ns.borrow());
                    }
                    snaps.borrow_mut().push(merged);
                }
            });
        }

        // Dispatcher: the open-loop arrival source plus admission
        // decisions; closes the queue when the schedule ends so the
        // workers drain and exit on their own.
        let controller = spec.admission.as_ref().map(AdmissionController::new);
        {
            let mut engine = ArrivalEngine::new(
                spec.seed,
                spec.plan.clone(),
                spec.clients as u64,
                spec.accounts,
                spec.theta,
                spec.probe_pct,
            );
            let queue = pool.queue().clone();
            let accum = Rc::clone(&accum);
            let handle = h.clone();
            h.spawn(async move {
                let start = handle.now();
                while let Some(a) = engine.next_arrival() {
                    handle.sleep_until(start + a.at).await;
                    let decision = match &controller {
                        Some(c) => c.admit(handle.now(), queue.len()),
                        None => Ok(()),
                    };
                    let mut phases = accum.phases.borrow_mut();
                    let ph = &mut phases[a.phase];
                    ph.offered += 1;
                    match decision {
                        Ok(()) => {
                            let req = Request {
                                at: a.at,
                                client: a.client,
                                phase: a.phase,
                                op: a.op,
                            };
                            match queue.try_push(req) {
                                Ok(()) => {
                                    ph.admitted += 1;
                                    drop(phases);
                                    let mut d = accum.digest.get();
                                    d = digest_fold(d, a.at.as_nanos() as u64);
                                    d = digest_fold(d, a.client);
                                    d = digest_fold(d, op_word(&a.op));
                                    accum.digest.set(d);
                                }
                                Err(_) => ph.shed_queue += 1,
                            }
                        }
                        Err(why) => {
                            match why {
                                Rejected::Throttled => ph.shed_throttled += 1,
                                Rejected::QueueFull => ph.shed_queue += 1,
                            }
                            drop(phases);
                            handle.with_tracer(|sink| {
                                sink.instant(
                                    handle.now().as_nanos(),
                                    Actor::SYSTEM,
                                    Category::Serve,
                                    "shed",
                                    Args::two("phase", a.phase as u64, "why", why as u64),
                                );
                            });
                        }
                    }
                }
                queue.close();
            });
        }

        ServeScenario {
            accum,
            pool,
            router,
            slabs,
            blades: cluster.blades().to_vec(),
            injector,
            ctx,
            threads,
            workers,
            snaps,
        }
    }

    /// Worker coroutines that have not exited yet (the queue closes when
    /// the dispatcher finishes, so this reaches 0 as soon as the backlog
    /// and in-flight recoveries clear).
    pub(crate) fn stranded(&self) -> usize {
        self.workers.iter().filter(|w| !w.is_finished()).count()
    }

    /// Lets the framework's periodic controller coroutines exit, so a
    /// run-to-quiescence driver terminates.
    pub(crate) fn quiesce_controllers(&self) {
        self.ctx.quiesce_controllers();
    }

    /// Audits the finished run and assembles its report. `stranded` is
    /// the driver's [`Self::stranded`] reading at the end of its drain
    /// budget; `owns(blade)` says whether this domain's copy of a blade
    /// is the authoritative one (always, on the inline driver) — the
    /// returned [`BalanceAudit`] covers exactly those. `sim_events` is
    /// left for the driver to fill.
    pub(crate) fn report(
        &self,
        spec: &ServeSpec,
        stranded: usize,
        owns: impl Fn(usize) -> bool,
    ) -> (ServeReport, BalanceAudit) {
        let mut conservation = Vec::new();
        if stranded > 0 {
            conservation.push(format!(
                "{stranded} worker coroutine(s) still stranded after the {}ms drain budget",
                spec.drain.as_millis()
            ));
        }
        for t in &self.threads {
            conservation.extend(t.throttle().conservation_violations());
        }
        let mut held: u64 = 0;
        for (bi, blade) in self.blades.iter().enumerate() {
            if owns(bi) {
                held = held.wrapping_add(self.slabs.sum_on(bi, blade));
            }
        }
        let audit = BalanceAudit {
            held,
            expected: spec
                .accounts
                .wrapping_mul(spec.initial_balance)
                .wrapping_add(self.accum.ledger.get()),
        };

        // Per-phase recovery CDFs from the clerk's boundary snapshots.
        let mut whole_recovery = LogHistogram::new();
        for t in &self.threads {
            whole_recovery.merge(&t.stats().recovery_ns.borrow());
        }
        {
            let snaps = self.snaps.borrow();
            let mut phases = self.accum.phases.borrow_mut();
            let empty = LogHistogram::new();
            for (i, ph) in phases.iter_mut().enumerate() {
                let at_end = snaps.get(i);
                let at_start = if i == 0 {
                    Some(&empty)
                } else {
                    snaps.get(i - 1)
                };
                if let (Some(end), Some(start)) = (at_end, at_start) {
                    ph.recovery = end.diff(start);
                }
            }
            // Recoveries that completed after the last boundary (during
            // the drain) belong to the final phase.
            if let (Some(last_snap), Some(last_phase)) = (snaps.last(), phases.last_mut()) {
                let tail = whole_recovery.diff(last_snap);
                if tail.count() > 0 {
                    last_phase.recovery.merge(&tail);
                }
            }
        }

        let (mut seen, mut recovered) = (0u64, 0u64);
        for t in &self.threads {
            seen += t.stats().faults_seen.get();
            recovered += t.stats().faults_recovered.get();
        }

        let phases = self.accum.phases.borrow().to_vec();
        let report = ServeReport {
            seed: spec.seed,
            clients: spec.clients as u64,
            distinct_served: self.pool.distinct_served(),
            max_session_ops: self.pool.max_session_ops(),
            workers: (spec.threads, spec.depth),
            admission_desc: describe_admission(&spec.admission),
            membership_windows: spec.membership.events().len(),
            final_epoch: self.router.epoch(),
            queue_high_water: self.pool.queue().high_water(),
            phases,
            ops_digest: self.accum.digest.get(),
            faults_injected: self.injector.stats().total_injected(),
            faults_seen: seen,
            faults_recovered: recovered,
            recovery: whole_recovery,
            conservation,
            sim_events: 0,
        };
        (report, audit)
    }
}

/// Runs the scenario to completion on the inline driver — one
/// [`Simulation`] owning compute node and blades alike — and returns its
/// deterministic report.
pub fn run_serve(spec: &ServeSpec) -> ServeReport {
    let mut sim = Simulation::new(spec.seed);
    let cluster = Cluster::new(sim.handle(), cluster_config(spec));
    let scenario = ServeScenario::start(&sim.handle(), &cluster, spec);

    // Run the schedule, then drain in slices until the workers exit.
    sim.run_for(spec.plan.total());
    let mut drained = Duration::ZERO;
    let slice = Duration::from_millis(1);
    while scenario.stranded() > 0 && drained < spec.drain {
        sim.run_for(slice);
        drained += slice;
    }

    let (mut report, audit) = scenario.report(spec, scenario.stranded(), |_| true);
    audit.settle(0, &mut report);
    report.sim_events = sim.handle().metrics().events();
    report
}

fn op_word(op: &ServeOp) -> u64 {
    match *op {
        ServeOp::Probe { account } => account << 1,
        ServeOp::Transfer { from, to, amount } => {
            (from << 1 | 1) ^ (to.rotate_left(21)) ^ (amount.rotate_left(42))
        }
    }
}
