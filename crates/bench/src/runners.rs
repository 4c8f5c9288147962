//! End-to-end experiment runners: build a cluster, load an application,
//! drive it with N simulated threads × depth coroutines, measure
//! throughput and latency over a virtual-time window.
//!
//! Each workload is a `ClosedLoop` scenario — the application loaded
//! and every worker coroutine spawned — built by its `start_*` function
//! over a deterministic preload (`load_ht`, `load_dtx`, `load_bt`) that
//! every domain of a plan replays. [`crate::run`] drives any of them
//! under any `DomainPlan`.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use smart::{SmartConfig, SmartContext, SmartCoro, SmartThread};
use smart_fault::{FaultInjector, FaultPlan};
use smart_ford::{backoff_after_abort, SmallBank, Tatp};
use smart_race::{RaceConfig, RaceHashTable};
use smart_rnic::{Cluster, MemoryBlade};
use smart_rt::metrics::Counter;
use smart_rt::{Duration, SimHandle, SimTime};
use smart_serve::{AdmissionConfig, MembershipPlan, RatePlan, ServeSpec};
use smart_sherman::{ShermanConfig, ShermanTree};
use smart_trace::{LogHistogram, TraceSink};
use smart_workloads::latency::LatencyRecorder;
use smart_workloads::smallbank::SmallBankGenerator;
use smart_workloads::tatp::TatpGenerator;
use smart_workloads::ycsb::{Mix, YcsbGenerator, YcsbOp};

/// Common measurement output.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Application operations completed in the window.
    pub ops: u64,
    /// Million application operations per second.
    pub mops: f64,
    /// Median operation latency.
    pub median: Duration,
    /// 99th-percentile operation latency.
    pub p99: Duration,
    /// Average unsuccessful CAS retries per recorded operation
    /// (hash-table runs; 0 otherwise).
    pub avg_retries: f64,
    /// Retry-count distribution over the window (hash-table runs).
    pub retry_hist: Vec<u64>,
    /// Abort rate over the window (transaction runs).
    pub abort_rate: f64,
    /// Average PCIe-inbound DRAM bytes per WR over the window (Figure
    /// 4b's metric; microbench runs, 0 otherwise).
    pub dram_bytes_per_op: f64,
    /// WQE-cache hit ratio over the whole run (microbench runs).
    pub wqe_hit_ratio: f64,
    /// MTT/MPT cache hit ratio over the whole run (microbench runs).
    pub mtt_hit_ratio: f64,
    /// Fault completions injected by the chaos layer over the whole run,
    /// warm-up included (0 without a fault plan).
    pub faults_injected: u64,
    /// Error completions the recovery layer observed (re-failures of the
    /// same work request included).
    pub faults_seen: u64,
    /// Work requests that failed at least once and later completed
    /// successfully through the recovery path.
    pub faults_recovered: u64,
    /// Median recovery latency (first error completion to eventual
    /// success).
    pub recovery_p50: Duration,
    /// 99th-percentile recovery latency.
    pub recovery_p99: Duration,
    /// Full recovery-latency distribution in nanoseconds, merged across
    /// threads (drives the CDF in `fig_fault_recovery`).
    pub recovery_hist: LogHistogram,
    /// Credit-conservation audit findings across all threads. Must stay
    /// empty: every injected error CQE replenishes exactly one credit,
    /// so faults never strand or mint throttle budget.
    pub conservation: Vec<String>,
    /// Simulator scheduling events (task polls + timer fires) processed
    /// over the whole run, from [`smart_rt::metrics::ExecutorMetrics`].
    /// `examples/decomposed_speedup.rs` prints it per leg. Excluded from
    /// the scheduler-equivalence goldens: purging cancelled timers
    /// changes how many events the executor processes without changing
    /// simulated behaviour.
    pub sim_events: u64,
    /// Tasks still live in the compute domain once the run quiesced
    /// ([`smart_rnic::Decomposed::live_tasks`]): the parked CQ pumps and
    /// remote-port dispatchers. A worker left here is a lost wakeup.
    pub live_tasks: usize,
}

/// What the workers and the phase controller share.
#[derive(Default)]
struct Probe {
    ops: Counter,
    measuring: Cell<bool>,
    stop: Cell<bool>,
    latency: RefCell<LatencyRecorder>,
}

/// Prepares a per-run framework config: for short measurement windows the
/// `C_max` probe interval is scaled down so that a full update phase plus
/// stable phase fits the run, and the warm-up is extended to cover the
/// first update phase (measuring inside it would observe the probing
/// candidates rather than the tuned `C_max`).
fn tune_for_window(
    cfg: &SmartConfig,
    warmup: Duration,
    measure: Duration,
) -> (SmartConfig, Duration) {
    let mut cfg = cfg.clone();
    let mut warmup = warmup;
    if cfg.work_req_throttle {
        if measure < Duration::from_millis(20) {
            cfg.probe_interval = Duration::from_millis(1);
        }
        let update_phase = cfg.probe_interval * (cfg.c_max_candidates.len() as u32 + 2);
        warmup = warmup.max(update_phase);
    }
    if cfg.conflict_backoff && (cfg.dynamic_backoff_limit || cfg.coroutine_throttle) {
        // The γ controller needs ~20 ms to walk c_max to its bound and
        // t_max to its converged value (1 ms steps, geometric moves).
        warmup = warmup.max(Duration::from_millis(30));
    }
    (cfg, warmup)
}

/// A started closed-loop scenario: application loaded, every worker
/// coroutine spawned, nothing has run yet. The driver sleeps through
/// `Self::warmup` and `Self::measure`, bracketing the latter with
/// `Self::open_window`/`Self::close_window`, quiesces
/// `Self::contexts`, runs to quiescence, then calls `Self::report`.
pub(crate) struct ClosedLoop {
    probe: Rc<Probe>,
    /// The chaos layer, when the run has a fault plan.
    injector: Option<Rc<FaultInjector>>,
    /// Every worker thread, for the recovery and credit audits.
    threads: Vec<Rc<SmartThread>>,
    /// The framework config with `tune_for_window` applied.
    cfg: SmartConfig,
    /// One per compute node (their tuner/controller coroutines must be
    /// quiesced for the run to end).
    pub(crate) contexts: Vec<Rc<SmartContext>>,
    /// Warm-up to run before the window, extended for controller
    /// convergence (`tune_for_window`).
    pub(crate) warmup: Duration,
    /// Length of the measure window.
    pub(crate) measure: Duration,
    /// Counter readings — completed operations, then the workload's own
    /// in `read` order: absolute while the window is open, the window's
    /// deltas once it has closed.
    window: RefCell<Vec<u64>>,
    /// Reads the workload's own counters.
    read: Box<dyn Fn() -> Vec<u64>>,
    /// Writes a closed window's workload counters into the report.
    fill: fn(&[u64], &mut RunReport),
}

impl ClosedLoop {
    /// Installs `trace` and the fault plan; the caller then loads its
    /// application and spawns the workers with `Self::spawn_workers`.
    fn new(
        h: &SimHandle,
        cluster: &Cluster,
        trace: &Option<TraceSink>,
        fault: &Option<FaultPlan>,
        smart: &SmartConfig,
        warmup: Duration,
        measure: Duration,
    ) -> ClosedLoop {
        if let Some(sink) = trace {
            h.install_tracer(sink.clone());
        }
        let injector = fault.clone().map(|pl| FaultInjector::install(cluster, pl));
        let (cfg, warmup) = tune_for_window(smart, warmup, measure);
        ClosedLoop {
            probe: Rc::default(),
            injector,
            threads: Vec::new(),
            cfg,
            contexts: Vec::new(),
            warmup,
            measure,
            window: RefCell::default(),
            read: Box::new(Vec::new),
            fill: |_, _| {},
        }
    }

    /// Spawns `threads × depth` closed-loop workers on each of `nodes`
    /// compute nodes, one [`SmartContext`] per node. `worker(node,
    /// thread, coroutine, coro)` builds each one's operation, which it
    /// runs back to back — after `pace`, if set — until the window
    /// closes, counting every completed operation and recording its
    /// latency inside the window.
    fn spawn_workers<Op: AsyncFnMut(SimTime) + 'static>(
        &mut self,
        h: &SimHandle,
        cluster: &Cluster,
        [nodes, threads, depth]: [usize; 3],
        pace: Option<Duration>,
        mut worker: impl FnMut(usize, usize, usize, SmartCoro) -> Op,
    ) {
        for node in 0..nodes {
            let mut cfg = self.cfg.clone();
            cfg.expected_threads = threads;
            cfg.coroutines_per_thread = depth;
            let ctx = SmartContext::new(cluster.compute(node), cluster.blades(), cfg);
            for t in 0..threads {
                let thread = ctx.create_thread();
                for c in 0..depth {
                    let mut op = worker(node, t, c, thread.coroutine());
                    let (probe, handle) = (Rc::clone(&self.probe), h.clone());
                    h.spawn(async move {
                        while !probe.stop.get() {
                            if let Some(d) = pace {
                                handle.sleep(d).await;
                            }
                            let start = handle.now();
                            op(start).await;
                            probe.ops.incr();
                            if probe.measuring.get() {
                                probe.latency.borrow_mut().record(handle.now() - start);
                            }
                        }
                    });
                }
                self.threads.push(thread);
            }
            self.contexts.push(ctx);
        }
    }

    fn counters(&self) -> Vec<u64> {
        let mut counters = vec![self.probe.ops.get()];
        counters.extend((self.read)());
        counters
    }

    /// Starts recording latencies and marks the window's start.
    pub(crate) fn open_window(&self) {
        self.probe.measuring.set(true);
        *self.window.borrow_mut() = self.counters();
    }

    /// Ends the window and tells the workers to exit after their
    /// in-flight operation.
    pub(crate) fn close_window(&self) {
        let now = self.counters();
        self.probe.measuring.set(false);
        self.probe.stop.set(true);
        for (w, n) in self.window.borrow_mut().iter_mut().zip(now) {
            *w = n - *w;
        }
    }

    /// Assembles the report of a quiesced run (`sim_events` and
    /// `live_tasks` are left for the driver to fill).
    pub(crate) fn report(&self) -> RunReport {
        assert!(self.probe.stop.get(), "the window never closed");
        let (window, lat) = (self.window.borrow(), self.probe.latency.borrow());
        let mut report = RunReport {
            ops: window[0],
            mops: window[0] as f64 / self.measure.as_secs_f64() / 1e6,
            median: lat.median(),
            p99: lat.p99(),
            ..RunReport::default()
        };
        (self.fill)(&window[1..], &mut report);
        let mut hist = LogHistogram::new();
        for th in &self.threads {
            report.faults_seen += th.stats().faults_seen.get();
            report.faults_recovered += th.stats().faults_recovered.get();
            hist.merge(&th.stats().recovery_ns.borrow());
            report
                .conservation
                .extend(th.throttle().conservation_violations());
        }
        report.faults_injected = self
            .injector
            .as_ref()
            .map_or(0, |i| i.stats().total_injected());
        report.recovery_p50 = Duration::from_nanos(hist.percentile(500));
        report.recovery_p99 = Duration::from_nanos(hist.percentile(990));
        report.recovery_hist = hist;
        report
    }
}

// ---------------------------------------------------------------------------
// Hash table (RACE / SMART-HT)
// ---------------------------------------------------------------------------

/// Hash-table experiment parameters.
#[derive(Clone, Debug)]
pub struct HtParams {
    /// Framework configuration (the RACE vs SMART-HT axis).
    pub smart: SmartConfig,
    /// Compute nodes (scale-out axis, Figure 7d–f).
    pub compute_nodes: usize,
    /// Memory blades (the paper uses 2).
    pub blades: usize,
    /// Threads per compute node.
    pub threads: usize,
    /// Coroutines per thread (concurrency depth, default 8).
    pub depth: usize,
    /// Keys loaded before the run.
    pub keys: u64,
    /// Zipfian skew (0.99 in the paper).
    pub theta: f64,
    /// Read/write mix.
    pub mix: Mix,
    /// Optional inter-operation pacing (latency-throughput curves).
    pub pace: Option<Duration>,
    /// Warm-up virtual time.
    pub warmup: Duration,
    /// Measurement virtual time.
    pub measure: Duration,
    /// Seed.
    pub seed: u64,
    /// Optional trace sink installed into the simulation (op-level
    /// latency attribution + Perfetto export).
    pub trace: Option<smart_trace::TraceSink>,
    /// Optional chaos schedule injected into the run (must eventually
    /// heal; permanent errors would abort the benchmark workers).
    pub fault: Option<FaultPlan>,
}

impl HtParams {
    /// Paper-consistent defaults: 2 blades, depth 8, θ = 0.99.
    pub fn new(smart: SmartConfig, threads: usize, keys: u64, mix: Mix) -> Self {
        HtParams {
            smart,
            compute_nodes: 1,
            blades: 2,
            threads,
            depth: 8,
            keys,
            theta: 0.99,
            mix,
            pace: None,
            warmup: Duration::from_millis(2),
            measure: Duration::from_millis(5),
            seed: 42,
            trace: None,
            fault: None,
        }
    }
}

fn ht_table_config(keys: u64) -> RaceConfig {
    // Size for ~50 % slot occupancy: slots = 2^depth × buckets × 8.
    let buckets_per_subtable = 1 << 12;
    let slots_per_subtable = (buckets_per_subtable * 8) as u64;
    let want = (keys * 2).max(slots_per_subtable);
    let depth = (want.div_ceil(slots_per_subtable))
        .next_power_of_two()
        .trailing_zeros() as u8;
    RaceConfig {
        buckets_per_subtable,
        initial_depth: depth,
        ..Default::default()
    }
}

/// Creates the table and preloads `keys` keys. Only the bump allocator
/// and direct writes are used — no RNG, no simulated time — so every
/// domain of a decomposed run replays this and holds identical bytes.
pub(crate) fn load_ht(blades: &[Rc<MemoryBlade>], keys: u64) -> Rc<RaceHashTable> {
    let table = RaceHashTable::create(blades, ht_table_config(keys));
    for k in 0..keys {
        table.load(&k.to_le_bytes(), &k.to_be_bytes());
    }
    table
}

/// Starts a hash-table scenario on `cluster`.
pub(crate) fn start_ht(h: &SimHandle, cluster: &Cluster, p: &HtParams) -> ClosedLoop {
    let mut run = ClosedLoop::new(
        h, cluster, &p.trace, &p.fault, &p.smart, p.warmup, p.measure,
    );
    let table = load_ht(cluster.blades(), p.keys);
    let base_gen = YcsbGenerator::new(p.keys, p.theta, p.mix, p.seed);
    let grid = [p.compute_nodes, p.threads, p.depth];
    run.spawn_workers(h, cluster, grid, p.pace, |node, t, c, coro| {
        let table = Rc::clone(&table);
        let mut gen = base_gen.fork(p.seed ^ ((node as u64) << 40) ^ ((t as u64) << 20) ^ c as u64);
        async move |start: SimTime| match gen.next_op() {
            YcsbOp::Lookup(k) => {
                let _ = table.get(&coro, &k.to_le_bytes()).await;
            }
            YcsbOp::Update(k) => {
                let stamp = start.as_nanos().to_le_bytes();
                let _ = table.update(&coro, &k.to_le_bytes(), &stamp).await;
            }
        }
    });
    // Window counters: CAS retries, then the retry histogram.
    run.read = Box::new(move || {
        let stats = table.stats();
        let mut app = vec![stats.cas_retries.get()];
        app.extend(stats.retry_histogram());
        app
    });
    run.fill = |app, report| {
        let (retries, hist) = (app[0], &app[1..]);
        let hist_ops: u64 = hist.iter().sum();
        if hist_ops != 0 {
            report.avg_retries = retries as f64 / hist_ops as f64;
        }
        report.retry_hist = hist.to_vec();
    };
    run
}

// ---------------------------------------------------------------------------
// Distributed transactions (FORD+ / SMART-DTX)
// ---------------------------------------------------------------------------

/// Which OLTP benchmark to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DtxWorkload {
    /// SmallBank (85 % read-write).
    SmallBank,
    /// TATP (80 % read-only).
    Tatp,
}

/// Transaction experiment parameters.
#[derive(Clone, Debug)]
pub struct DtxParams {
    /// Framework configuration (the FORD+ vs SMART-DTX axis).
    pub smart: SmartConfig,
    /// Threads on the (single) compute node.
    pub threads: usize,
    /// Coroutines per thread.
    pub depth: usize,
    /// Benchmark.
    pub workload: DtxWorkload,
    /// Rows: accounts (SmallBank) or subscribers (TATP).
    pub rows: u64,
    /// Optional inter-transaction pacing.
    pub pace: Option<Duration>,
    /// Warm-up virtual time.
    pub warmup: Duration,
    /// Measurement virtual time.
    pub measure: Duration,
    /// Seed.
    pub seed: u64,
    /// Optional trace sink installed into the simulation.
    pub trace: Option<smart_trace::TraceSink>,
    /// Optional chaos schedule injected into the run (must eventually
    /// heal; permanent errors would abort the benchmark workers).
    pub fault: Option<FaultPlan>,
}

impl DtxParams {
    /// Paper-consistent defaults: 2 memory blades, depth 8.
    pub fn new(smart: SmartConfig, threads: usize, workload: DtxWorkload, rows: u64) -> Self {
        DtxParams {
            smart,
            threads,
            depth: 8,
            workload,
            rows,
            pace: None,
            warmup: Duration::from_millis(2),
            measure: Duration::from_millis(5),
            seed: 7,
            trace: None,
            fault: None,
        }
    }
}

/// The loaded application of a transaction run.
pub(crate) enum DtxApp {
    Bank(Rc<SmallBank>),
    Tatp(Rc<Tatp>),
}

/// Creates the benchmark's tables and loads `rows` rows, as
/// deterministically as [`load_ht`].
pub(crate) fn load_dtx(blades: &[Rc<MemoryBlade>], workload: DtxWorkload, rows: u64) -> DtxApp {
    match workload {
        DtxWorkload::SmallBank => DtxApp::Bank(SmallBank::create(blades, rows, 10_000)),
        DtxWorkload::Tatp => DtxApp::Tatp(Tatp::create(blades, rows)),
    }
}

/// Starts a transaction scenario on `cluster`.
pub(crate) fn start_dtx(h: &SimHandle, cluster: &Cluster, p: &DtxParams) -> ClosedLoop {
    let mut run = ClosedLoop::new(
        h, cluster, &p.trace, &p.fault, &p.smart, p.warmup, p.measure,
    );
    let app = Rc::new(load_dtx(cluster.blades(), p.workload, p.rows));
    let db = match &*app {
        DtxApp::Bank(b) => Rc::clone(b.db()),
        DtxApp::Tatp(t) => Rc::clone(t.db()),
    };
    let grid = [1, p.threads, p.depth];
    run.spawn_workers(h, cluster, grid, p.pace, |_, t, c, coro| {
        let app = Rc::clone(&app);
        let seed = p.seed ^ ((t as u64) << 20) ^ ((c as u64) << 8);
        let mut bank_gen = SmallBankGenerator::new(p.rows, seed);
        let mut tatp_gen = TatpGenerator::new(p.rows, seed);
        let log = db.alloc_log_region();
        async move |_| {
            let mut attempt = 0u32;
            match &*app {
                DtxApp::Bank(bank) => {
                    let txn = bank_gen.next_txn();
                    while bank.execute(&coro, log, &txn).await.is_err() {
                        attempt += 1;
                        backoff_after_abort(&coro, attempt).await;
                    }
                }
                DtxApp::Tatp(tatp) => {
                    let txn = tatp_gen.next_txn();
                    while tatp.execute(&coro, log, &txn).await.is_err() {
                        attempt += 1;
                        backoff_after_abort(&coro, attempt).await;
                    }
                }
            }
        }
    });
    // Window counters: commits, then aborts.
    run.read = Box::new(move || vec![db.stats().committed.get(), db.stats().aborted.get()]);
    run.fill = |app, report| {
        let (committed, aborted) = (app[0], app[1]);
        if committed + aborted != 0 {
            report.abort_rate = aborted as f64 / (committed + aborted) as f64;
        }
    };
    run
}

// ---------------------------------------------------------------------------
// B+Tree (Sherman+ / Sherman+ w/ SL / SMART-BT)
// ---------------------------------------------------------------------------

/// The three systems of Figure 12.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BtVariant {
    /// Sherman with per-cacheline versions, per-thread QPs.
    ShermanPlus,
    /// Sherman+ plus speculative lookup, still per-thread QPs.
    ShermanPlusSl,
    /// Speculative lookup plus the full SMART stack.
    SmartBt,
}

impl BtVariant {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            BtVariant::ShermanPlus => "Sherman+",
            BtVariant::ShermanPlusSl => "Sherman+ w/ SL",
            BtVariant::SmartBt => "SMART-BT",
        }
    }

    fn configs(self, threads: usize) -> (ShermanConfig, SmartConfig) {
        match self {
            BtVariant::ShermanPlus => (
                ShermanConfig::default(),
                SmartConfig::baseline(smart::QpPolicy::PerThreadQp, threads),
            ),
            BtVariant::ShermanPlusSl => (
                ShermanConfig::with_speculative_lookup(),
                SmartConfig::baseline(smart::QpPolicy::PerThreadQp, threads),
            ),
            BtVariant::SmartBt => (
                ShermanConfig::with_speculative_lookup(),
                SmartConfig::smart_full(threads),
            ),
        }
    }
}

/// B+Tree experiment parameters.
#[derive(Clone, Debug)]
pub struct BtParams {
    /// System under test.
    pub variant: BtVariant,
    /// Compute nodes (each server doubles as compute and memory blade,
    /// §6.2.3).
    pub compute_nodes: usize,
    /// Threads per compute node (94 in the paper: 96 cores − 2 blade
    /// threads).
    pub threads: usize,
    /// Coroutines per thread.
    pub depth: usize,
    /// Keys loaded before the run.
    pub keys: u64,
    /// Read/write mix.
    pub mix: Mix,
    /// Zipfian skew.
    pub theta: f64,
    /// Overrides the variant's tree configuration (ablations: HOCL
    /// on/off, handover cap, speculative-cache size).
    pub tree_override: Option<ShermanConfig>,
    /// Warm-up virtual time (also warms the speculative cache).
    pub warmup: Duration,
    /// Measurement virtual time.
    pub measure: Duration,
    /// Seed.
    pub seed: u64,
    /// Optional trace sink installed into the simulation.
    pub trace: Option<smart_trace::TraceSink>,
    /// Optional chaos schedule injected into the run (must eventually
    /// heal; permanent errors would abort the benchmark workers).
    pub fault: Option<FaultPlan>,
}

impl BtParams {
    /// Paper-consistent defaults.
    pub fn new(variant: BtVariant, threads: usize, keys: u64, mix: Mix) -> Self {
        BtParams {
            variant,
            compute_nodes: 1,
            threads,
            depth: 8,
            keys,
            mix,
            theta: 0.99,
            tree_override: None,
            warmup: Duration::from_millis(3),
            measure: Duration::from_millis(5),
            seed: 13,
            trace: None,
            fault: None,
        }
    }
}

impl BtParams {
    /// The tree configuration: the variant's, unless overridden.
    pub(crate) fn tree_config(&self) -> ShermanConfig {
        let variant = self.variant.configs(self.threads).0;
        self.tree_override.clone().unwrap_or(variant)
    }
}

/// Creates the tree and bulk-loads `keys` keys host-side, as
/// deterministically as [`load_ht`].
pub(crate) fn load_bt(
    blades: &[Rc<MemoryBlade>],
    cfg: &ShermanConfig,
    keys: u64,
) -> Rc<ShermanTree> {
    let tree = ShermanTree::create(blades, cfg.clone());
    for k in 0..keys {
        tree.load(k, k.wrapping_mul(3));
    }
    tree
}

/// Starts a B+Tree scenario on `cluster`: one tree handle per compute
/// node over one shared tree.
pub(crate) fn start_bt(h: &SimHandle, cluster: &Cluster, p: &BtParams) -> ClosedLoop {
    let smart_cfg = p.variant.configs(p.threads).1;
    let mut run = ClosedLoop::new(
        h, cluster, &p.trace, &p.fault, &smart_cfg, p.warmup, p.measure,
    );
    let tree_cfg = p.tree_config();
    let tree0 = load_bt(cluster.blades(), &tree_cfg, p.keys);
    let base_gen = YcsbGenerator::new(p.keys, p.theta, p.mix, p.seed);
    let root = tree0.root_ptr();
    let mut trees = vec![tree0];
    while trees.len() < p.compute_nodes {
        trees.push(ShermanTree::attach(
            cluster.blades(),
            tree_cfg.clone(),
            root,
        ));
    }
    let grid = [p.compute_nodes, p.threads, p.depth];
    run.spawn_workers(h, cluster, grid, None, |node, t, c, coro| {
        let tree = Rc::clone(&trees[node]);
        let mut gen = base_gen.fork(p.seed ^ ((node as u64) << 40) ^ ((t as u64) << 20) ^ c as u64);
        async move |start: SimTime| match gen.next_op() {
            YcsbOp::Lookup(k) => {
                let _ = tree.get(&coro, k).await;
            }
            YcsbOp::Update(k) => tree.insert(&coro, k, start.as_nanos()).await,
        }
    });
    run
}

/// The standard serve scenario at a given client population and offered
/// load scale: a three-phase diurnal plan (ramp → steady → churn) whose
/// rates are multiplied by `scale`, an admission controller provisioned
/// at three quarters of the steady peak, and one blade leave+join window
/// straddling the steady/churn boundary. `fig_serve` and the tier-1
/// determinism gates in `tests/serve.rs` both run exactly this spec, so
/// a regression in either shows up in both.
pub fn serve_spec(clients: usize, scale: f64, seed: u64) -> ServeSpec {
    let peak = 4_000_000.0 * scale;
    let plan = RatePlan::new()
        .phase("ramp", Duration::from_millis(5), 0.0, peak)
        .phase("steady", Duration::from_millis(15), peak, peak)
        .phase("churn", Duration::from_millis(10), peak, peak / 2.0);
    let mut spec = ServeSpec::new(seed, clients, plan);
    spec.threads = 8;
    spec.depth = 16;
    spec.blades = 3;
    spec.shards = 24;
    spec.accounts = 8_192;
    spec.admission = Some(AdmissionConfig {
        rate: (peak * 0.75) as u64,
        burst: 512,
        max_queue: 8_192,
    });
    spec.membership =
        MembershipPlan::new().leave_at(Duration::from_millis(12), 1, Duration::from_millis(8));
    spec
}
