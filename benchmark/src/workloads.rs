//! The six workload drivers: small applications written against the
//! app-facing layer APIs (`Simulation`, `Cluster`, `SmartContext`,
//! `RaceHashTable`, `YcsbGenerator`, `run_serve`, `PdesBuilder`).
//!
//! A repetition is [`prepare`] (set-up, which the caller times: everything
//! before the first event) and then [`Prepared::run`]: the whole virtual
//! span — warm-up plus measure — as the timed region, then collection and
//! checks outside it. Simulated statistics come from the measure window
//! only; the modelled caches and tuners start cold.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use smart::{QpPolicy, SmartConfig, SmartContext, SmartThread};
use smart_race::{RaceConfig, RaceHashTable};
use smart_rnic::{BladeConfig, BladeId, Cluster, ClusterConfig, RemoteAddr};
use smart_rt::metrics::ExecutorMetrics;
use smart_rt::pdes::{DomainCtx, DomainFinish, PdesBuilder, PdesReport};
use smart_rt::trace::{Category, TraceSink};
use smart_rt::{Duration, SimHandle, Simulation};
use smart_serve::{run_serve, AdmissionConfig, MembershipPlan, RatePlan, ServeSpec};
use smart_workloads::ycsb::{Mix, YcsbGenerator, YcsbOp};

use crate::spans::Spans;
use crate::stats::quantile_sorted;

/// A benchmark workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// 96 threads of raw 8-byte READ batches: `rt` + `rnic` only.
    MicroRead,
    /// RACE table, YCSB write-heavy, zipf 0.99, full SMART.
    HtWrite,
    /// Same table and config, read-only.
    HtRead,
    /// Open-loop `run_serve` with diurnal load and a blade leaving.
    ServeDiurnal,
    /// Pure PDES fan-out, one worker thread.
    PdesFanoutW1,
    /// Pure PDES fan-out, two worker threads.
    PdesFanoutW2,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 6] = [
        Workload::MicroRead,
        Workload::HtWrite,
        Workload::HtRead,
        Workload::ServeDiurnal,
        Workload::PdesFanoutW1,
        Workload::PdesFanoutW2,
    ];

    /// The name used on the command line, in `BENCHMARK.json` and in output.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MicroRead => "micro_read",
            Workload::HtWrite => "ht_write",
            Workload::HtRead => "ht_read",
            Workload::ServeDiurnal => "serve_diurnal",
            Workload::PdesFanoutW1 => "pdes_fanout_w1",
            Workload::PdesFanoutW2 => "pdes_fanout_w2",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether load is offered on a schedule (open loop) or by callers
    /// that each wait for their reply (closed loop).
    pub fn loop_kind(self) -> &'static str {
        match self {
            Workload::ServeDiurnal => "open loop in virtual time",
            _ => "closed loop",
        }
    }

    /// The paper's figure for this workload's `sim_mops`, where it gives one.
    pub fn paper_mops(self) -> Option<f64> {
        match self {
            Workload::MicroRead => Some(MICRO_PAPER_MOPS),
            Workload::HtRead => Some(23.7),
            _ => None,
        }
    }

    /// The op kind whose `TraceSink::attribution()` shares are reported.
    fn dominant_op_kind(self) -> &'static str {
        match self {
            Workload::MicroRead => "micro",
            Workload::HtWrite => "ht_update",
            Workload::HtRead => "ht_get",
            Workload::ServeDiurnal => "serve_transfer",
            Workload::PdesFanoutW1 | Workload::PdesFanoutW2 => "",
        }
    }
}

/// Fig. 3 ceiling of the modelled RNIC, MOPS.
const MICRO_PAPER_MOPS: f64 = 110.0;

/// Simulated results of one repetition. Deterministic: the same seed
/// gives the same bits.
#[derive(Debug)]
pub struct SimStats {
    /// Ops completed in the whole timed region (warm-up + measure); the
    /// divisor of `host_ns_per_op`.
    pub ops_timed: u64,
    /// Ops attempted in the measure window.
    pub attempted: u64,
    /// Ops failed, refused or shed in the measure window.
    pub failed: u64,
    /// Ops completed per virtual microsecond of the measure window.
    pub mops: f64,
    /// Median simulated op latency, µs.
    pub p50_us: f64,
    /// 99th percentile, µs.
    pub p99_us: f64,
    /// 99.9th percentile, µs.
    pub p999_us: f64,
    /// Latency samples behind the three percentiles.
    pub samples: u64,
}

/// One repetition's results.
pub struct Rep {
    /// Host seconds for the timed region.
    pub run_s: f64,
    /// Simulated results.
    pub sim: SimStats,
    /// Per-layer counts over the timed region; they repeat exactly.
    pub counts: Vec<(&'static str, f64)>,
    /// Correctness checks that failed.
    pub failures: Vec<String>,
    /// Deterministic text compared between `pdes_fanout_w1` and `_w2`.
    pub render: String,
    /// Lost-virtual-time shares of the dominant op kind (traced runs),
    /// in `Category` attribution order.
    pub attr: Option<[f64; 5]>,
    /// What the outside-in view can explain of `run_s`: an isolated
    /// per-call cost (a `layers` metric) and how many such calls the timed
    /// region made. Terms do not overlap.
    pub coverage: Vec<(&'static str, f64)>,
}

/// The timed region, collection and checks of one driver, holding the
/// state its set-up built.
type RunPhase = Box<dyn FnOnce(&mut Spans) -> Rep>;

/// A workload that is set up and has not processed an event yet.
pub struct Prepared {
    workload: Workload,
    sink: Option<TraceSink>,
    run: RunPhase,
}

/// Sets `w` up. `scale` shrinks the virtual windows (and the loaded table
/// / request counts) for `--smoke`; `sink` is installed as the
/// simulation's tracer when given.
pub fn prepare(
    w: Workload,
    seed: u64,
    scale: f64,
    sink: Option<&TraceSink>,
    spans: &mut Spans,
) -> Prepared {
    let s = spans.enter("setup");
    let run = match w {
        Workload::MicroRead => micro_read(seed, scale, sink, spans),
        Workload::HtWrite => ht(Mix::WriteHeavy, seed, scale, sink, spans),
        Workload::HtRead => ht(Mix::ReadOnly, seed, scale, sink, spans),
        Workload::ServeDiurnal => serve_diurnal(seed, scale, sink, spans),
        Workload::PdesFanoutW1 => pdes_fanout(1, seed, scale, spans),
        Workload::PdesFanoutW2 => pdes_fanout(2, seed, scale, spans),
    };
    spans.exit(s);
    Prepared {
        workload: w,
        sink: sink.cloned(),
        run,
    }
}

impl Prepared {
    /// Runs the timed region, then collects and checks.
    pub fn run(self, spans: &mut Spans) -> Rep {
        let mut rep = (self.run)(spans);
        if let Some(sink) = &self.sink {
            rep.attr = sink
                .attribution()
                .kind(self.workload.dominant_op_kind())
                .map(|k| {
                    [
                        k.share(Category::DbLock),
                        k.share(Category::Credit),
                        k.share(Category::Pipeline),
                        k.share(Category::Fabric),
                        k.share(Category::Backoff),
                    ]
                });
        }
        rep
    }
}

fn scaled(d: Duration, scale: f64) -> Duration {
    Duration::from_nanos((d.as_nanos() as f64 * scale) as u64)
}

/// Closed-loop bookkeeping shared by the coroutines of one repetition.
#[derive(Default)]
struct Probe {
    ops: Cell<u64>,
    failed: Cell<u64>,
    measuring: Cell<bool>,
    stop: Cell<bool>,
    latency_ns: RefCell<Vec<u32>>,
}

impl Probe {
    fn done(&self, handle: &SimHandle, started_ns: u64, n: u64, ok: bool) {
        self.ops.set(self.ops.get() + n);
        if self.measuring.get() {
            if !ok {
                self.failed.set(self.failed.get() + 1);
            }
            let ns = handle.now().as_nanos() - started_ns;
            self.latency_ns
                .borrow_mut()
                .push(ns.min(u64::from(u32::MAX)) as u32);
        }
    }
}

fn latency_stats(samples: &mut [u32]) -> (f64, f64, f64) {
    samples.sort_unstable();
    let us = |q| f64::from(quantile_sorted(samples, q)) / 1e3;
    (us(0.5), us(0.99), us(0.999))
}

fn rt_counts(m: &ExecutorMetrics, ops: u64) -> Vec<(&'static str, f64)> {
    vec![
        ("rt.events", m.events() as f64),
        ("rt.polls", m.polls as f64),
        ("rt.wakes", m.wakes as f64),
        ("rt.timers_scheduled", m.timers_scheduled as f64),
        ("rt.timers_fired", m.timers_fired as f64),
        ("rt.timers_cancelled", m.timers_cancelled as f64),
        ("rt.timers_purged", m.timers_purged as f64),
        ("rt.tasks_spawned", m.tasks_spawned as f64),
        ("rt.events_per_op", m.events() as f64 / ops.max(1) as f64),
    ]
}

/// `rnic.*` and `core.*` counts for a run on one `SmartContext`.
fn stack_counts(
    ctx: &SmartContext,
    threads: &[Rc<SmartThread>],
    ops: u64,
    span: Duration,
) -> Vec<(&'static str, f64)> {
    let node = ctx.node().counters();
    let report = ctx.contention_report();
    let wrs = node.ops_completed.max(1) as f64;
    let sum = |f: &dyn Fn(&SmartThread) -> u64| threads.iter().map(|t| f(t)).sum::<u64>() as f64;
    let cas_attempts = sum(&|t| t.stats().cas_attempts.get());
    let thread_ns = span.as_nanos() as f64 * threads.len() as f64;
    vec![
        ("rnic.wrs_completed", node.ops_completed as f64),
        (
            "rnic.wrs_per_op",
            node.ops_completed as f64 / ops.max(1) as f64,
        ),
        ("rnic.wqe_hit_ratio", report.wqe_hit_ratio),
        ("rnic.mtt_hit_ratio", report.mtt_hit_ratio),
        ("rnic.dram_bytes_per_wr", node.dram_bytes as f64 / wrs),
        ("rnic.doorbell_rings", report.total_rings() as f64),
        (
            "rnic.doorbell_contention_share",
            report.total_doorbell_contention().as_nanos() as f64 / thread_ns,
        ),
        ("rnic.wrs_errored", node.ops_errored as f64),
        ("core.wrs_posted", sum(&|t| t.stats().rdma_posted.get())),
        (
            "core.cas_failure_ratio",
            sum(&|t| t.stats().cas_failures.get()) / cas_attempts.max(1.0),
        ),
        ("core.throttle_stalls", sum(&|t| t.throttle().stalls())),
        ("core.c_max_final", threads[0].throttle().c_max() as f64),
        (
            "core.t_max_final_ns",
            threads[0].conflict().t_max().as_nanos() as f64,
        ),
    ]
}

// ---------------------------------------------------------------------------
// micro_read
// ---------------------------------------------------------------------------

const MICRO_THREADS: usize = 96;
const MICRO_BATCH: usize = 8;
const MICRO_REGION: u64 = 64 << 20;

fn micro_read(seed: u64, scale: f64, sink: Option<&TraceSink>, spans: &mut Spans) -> RunPhase {
    let warmup = scaled(Duration::from_millis(2), scale);
    let measure = scaled(Duration::from_millis(14), scale);

    let s = spans.enter("setup.cluster");
    let mut sim = Simulation::new(seed);
    if let Some(sink) = sink {
        sim.handle().install_tracer(sink.clone());
    }
    let cluster = Cluster::new(
        sim.handle(),
        ClusterConfig {
            compute_nodes: 1,
            memory_blades: 1,
            blade: BladeConfig {
                region_bytes: MICRO_REGION,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    // Reserve the whole region so random offsets land in valid memory.
    cluster.blade(0).alloc(MICRO_REGION - 64, 8);
    spans.exit(s);

    let s = spans.enter("setup.context");
    let ctx = SmartContext::new(
        cluster.compute(0),
        cluster.blades(),
        SmartConfig::baseline(QpPolicy::ThreadAwareDoorbell, MICRO_THREADS),
    );
    let threads: Vec<_> = (0..MICRO_THREADS).map(|_| ctx.create_thread()).collect();
    spans.exit(s);

    let s = spans.enter("setup.spawn");
    let probe = Rc::new(Probe::default());
    let slots = (MICRO_REGION - 64) / 8 - 2;
    for thread in &threads {
        let coro = thread.coroutine();
        let handle = sim.handle();
        let probe = Rc::clone(&probe);
        sim.spawn(async move {
            loop {
                let started = handle.now().as_nanos();
                let _op = coro.op_scope_named("micro").await;
                for _ in 0..MICRO_BATCH {
                    let offset = 64 + handle.rand_below(slots) * 8;
                    coro.read(RemoteAddr::new(BladeId(0), offset), 8);
                }
                coro.post_send().await;
                coro.sync().await;
                probe.done(&handle, started, MICRO_BATCH as u64, true);
            }
        });
    }
    spans.exit(s);

    Box::new(move |spans: &mut Spans| {
        let t1 = Instant::now();
        let s_run = spans.enter("run");
        let s = spans.enter("run.warmup");
        sim.run_for(warmup);
        spans.exit(s);
        probe.measuring.set(true);
        let node = cluster.compute(0);
        let wrs0 = node.counters().ops_completed;
        let s = spans.enter("run.measure");
        sim.run_for(measure);
        spans.exit(s);
        spans.exit(s_run);
        let run_s = t1.elapsed().as_secs_f64();

        let s = spans.enter("report.collect");
        probe.measuring.set(false);
        let wrs_measured = node.counters().ops_completed - wrs0;
        let ops_timed = node.counters().ops_completed;
        let mut samples = probe.latency_ns.take();
        let (p50_us, p99_us, p999_us) = latency_stats(&mut samples);
        let mops = wrs_measured as f64 / (measure.as_nanos() as f64 / 1e3);
        let mut counts = rt_counts(&sim.handle().metrics(), ops_timed);
        counts.extend(stack_counts(&ctx, &threads, ops_timed, warmup + measure));
        let mut failures = Vec::new();
        if mops > MICRO_PAPER_MOPS * 1.02 {
            failures.push(format!(
                "sim_mops {mops} exceeds the modelled RNIC ceiling {MICRO_PAPER_MOPS} x 1.02"
            ));
        }
        spans.exit(s);

        let s = spans.enter("teardown.drop");
        drop(sim);
        spans.exit(s);
        Rep {
            run_s,
            sim: SimStats {
                ops_timed,
                attempted: wrs_measured,
                failed: node.counters().ops_errored,
                mops,
                p50_us,
                p99_us,
                p999_us,
                samples: samples.len() as u64,
            },
            counts,
            failures,
            render: String::new(),
            attr: None,
            coverage: vec![("core.coro.wr_ns", ops_timed as f64)],
        }
    })
}

// ---------------------------------------------------------------------------
// ht_write / ht_read
// ---------------------------------------------------------------------------

const HT_THREADS: usize = 96;
const HT_DEPTH: usize = 8;
const HT_KEYS: u64 = 1_000_000;
/// Virtual time given to in-flight ops to finish before the
/// credit-conservation audit, which only holds at quiescence.
const HT_DRAIN: Duration = Duration::from_millis(5);

/// Table geometry for ~50 % slot occupancy: slots = 2^depth × buckets × 8.
fn ht_table_config(keys: u64) -> RaceConfig {
    let buckets_per_subtable = 1usize << 12;
    let slots_per_subtable = (buckets_per_subtable * 8) as u64;
    let want = (keys * 2).max(slots_per_subtable);
    let depth = want
        .div_ceil(slots_per_subtable)
        .next_power_of_two()
        .trailing_zeros() as u8;
    RaceConfig {
        buckets_per_subtable,
        initial_depth: depth,
        ..Default::default()
    }
}

fn ht(mix: Mix, seed: u64, scale: f64, sink: Option<&TraceSink>, spans: &mut Spans) -> RunPhase {
    let (warmup, measure) = match mix {
        Mix::ReadOnly => (Duration::from_millis(1), Duration::from_millis(3)),
        _ => (Duration::from_millis(2), Duration::from_millis(3)),
    };
    let (warmup, measure) = (scaled(warmup, scale), scaled(measure, scale));
    let keys = ((HT_KEYS as f64 * scale) as u64).max(1_000);

    let s = spans.enter("setup.cluster");
    let mut sim = Simulation::new(seed);
    if let Some(sink) = sink {
        sim.handle().install_tracer(sink.clone());
    }
    let cluster = Cluster::new(
        sim.handle(),
        ClusterConfig {
            compute_nodes: 1,
            memory_blades: 2,
            blade: BladeConfig {
                region_bytes: (64 << 20) + keys * 96,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    spans.exit(s);

    let s = spans.enter("setup.app_create");
    let table = RaceHashTable::create(cluster.blades(), ht_table_config(keys));
    spans.exit(s);
    let s = spans.enter("setup.load");
    for k in 0..keys {
        table.load(&k.to_le_bytes(), &k.to_be_bytes());
    }
    spans.exit(s);

    let s = spans.enter("setup.context");
    let mut cfg = SmartConfig::smart_full(HT_THREADS);
    cfg.coroutines_per_thread = HT_DEPTH;
    cfg.probe_interval = Duration::from_millis(1);
    let ctx = SmartContext::new(cluster.compute(0), cluster.blades(), cfg);
    let threads: Vec<_> = (0..HT_THREADS).map(|_| ctx.create_thread()).collect();
    spans.exit(s);

    let s = spans.enter("setup.spawn");
    let probe = Rc::new(Probe::default());
    let base_gen = YcsbGenerator::new(keys, 0.99, mix, seed);
    for (t, thread) in threads.iter().enumerate() {
        for c in 0..HT_DEPTH {
            let coro = thread.coroutine();
            let table = Rc::clone(&table);
            let mut gen = base_gen.fork(seed ^ ((t as u64) << 20) ^ c as u64);
            let handle = sim.handle();
            let probe = Rc::clone(&probe);
            sim.spawn(async move {
                while !probe.stop.get() {
                    let started = handle.now().as_nanos();
                    let ok = match gen.next_op() {
                        YcsbOp::Lookup(k) => table.get(&coro, &k.to_le_bytes()).await.is_some(),
                        YcsbOp::Update(k) => table
                            .update(&coro, &k.to_le_bytes(), &started.to_le_bytes())
                            .await
                            .is_ok(),
                    };
                    probe.done(&handle, started, 1, ok);
                }
            });
        }
    }
    spans.exit(s);

    Box::new(move |spans: &mut Spans| {
        let t1 = Instant::now();
        let s_run = spans.enter("run");
        let s = spans.enter("run.warmup");
        sim.run_for(warmup);
        spans.exit(s);
        probe.measuring.set(true);
        let ops0 = probe.ops.get();
        let s = spans.enter("run.measure");
        sim.run_for(measure);
        spans.exit(s);
        spans.exit(s_run);
        let run_s = t1.elapsed().as_secs_f64();

        let s = spans.enter("report.collect");
        probe.measuring.set(false);
        let ops_timed = probe.ops.get();
        let measured = ops_timed - ops0;
        let mut samples = probe.latency_ns.take();
        let (p50_us, p99_us, p999_us) = latency_stats(&mut samples);
        let mut counts = rt_counts(&sim.handle().metrics(), ops_timed);
        counts.extend(stack_counts(&ctx, &threads, ops_timed, warmup + measure));
        counts.push(("race.avg_cas_retries", table.stats().avg_retries()));
        counts.push((
            "race.zero_retry_fraction",
            table.stats().zero_retry_fraction(),
        ));

        let coverage = vec![
            ("race.get_ns", table.stats().lookups.get() as f64),
            ("race.update_ns", table.stats().updates.get() as f64),
        ];

        probe.stop.set(true);
        sim.run_for(HT_DRAIN);
        let mut failures = Vec::new();
        for (i, t) in threads.iter().enumerate() {
            for v in t.throttle().conservation_violations() {
                failures.push(format!("thread {i}: {v}"));
            }
        }
        let stride = (keys / 1_000).max(1);
        let missing = (0..keys)
            .step_by(stride as usize)
            .filter(|k| table.get_direct(&k.to_le_bytes()).is_none())
            .count();
        if missing > 0 {
            failures.push(format!(
                "{missing} sampled loaded keys are missing from the table"
            ));
        }
        spans.exit(s);

        let s = spans.enter("teardown.drop");
        drop(sim);
        drop(table);
        drop(cluster);
        spans.exit(s);
        Rep {
            run_s,
            sim: SimStats {
                ops_timed,
                attempted: measured,
                failed: probe.failed.get(),
                mops: measured as f64 / (measure.as_nanos() as f64 / 1e3),
                p50_us,
                p99_us,
                p999_us,
                samples: samples.len() as u64,
            },
            counts,
            failures,
            render: String::new(),
            attr: None,
            coverage,
        }
    })
}

// ---------------------------------------------------------------------------
// serve_diurnal
// ---------------------------------------------------------------------------

/// The `fig_serve` flagship shape (100 000 clients, 8 × 16 workers,
/// 3 blades, 24 shards, 8 192 accounts, ramp / steady / churn, blade 1
/// leaving across the steady/churn boundary), stretched by `stretch`.
/// The admission controller is provisioned above the peak so that it is
/// consulted on every arrival and refuses none.
fn serve_spec(seed: u64, stretch: f64, sink: Option<&TraceSink>) -> ServeSpec {
    let peak = 4_000_000.0;
    let ms = |x: f64| Duration::from_nanos((x * stretch * 1e6) as u64);
    let plan = RatePlan::new()
        .phase("ramp", ms(5.0), 0.0, peak)
        .phase("steady", ms(15.0), peak, peak)
        .phase("churn", ms(10.0), peak, peak / 2.0);
    let mut spec = ServeSpec::new(seed, 100_000, plan);
    spec.threads = 8;
    spec.depth = 16;
    spec.blades = 3;
    spec.shards = 24;
    spec.accounts = 8_192;
    spec.admission = Some(AdmissionConfig {
        rate: 6_000_000,
        burst: 512,
        max_queue: 8_192,
    });
    spec.membership = MembershipPlan::new().leave_at(ms(12.0), 1, ms(8.0));
    spec.trace = sink.cloned();
    spec
}

fn serve_diurnal(seed: u64, scale: f64, sink: Option<&TraceSink>, spans: &mut Spans) -> RunPhase {
    let spec = serve_spec(seed, 4.0 * scale, sink);

    // `run_serve` sets up and runs in one call. Set-up is measured as
    // everything it does around the plan: the same spec with the plan cut
    // to one 10 µs phase (an all-zero plan is rejected) and no membership
    // script. The timed region below is then the whole second call.
    let s = spans.enter("setup.app_create");
    let mut idle = spec.clone();
    idle.plan = RatePlan::new().phase("idle", Duration::from_micros(10), 1.0, 1.0);
    idle.membership = MembershipPlan::new();
    idle.trace = None;
    let idle_report = run_serve(&idle);
    spans.exit(s);

    Box::new(move |spans: &mut Spans| {
        let t1 = Instant::now();
        let s_run = spans.enter("run");
        let s = spans.enter("run.measure");
        let report = run_serve(&spec);
        spans.exit(s);
        spans.exit(s_run);
        let run_s = t1.elapsed().as_secs_f64();

        let s = spans.enter("report.collect");
        let mut latency = smart_rt::trace::LogHistogram::new();
        for p in &report.phases {
            latency.merge(&p.latency);
        }
        let us = |q| latency.quantile(q) as f64 / 1e3;
        let sum =
            |f: &dyn Fn(&smart_serve::PhaseStats) -> u64| report.phases.iter().map(f).sum::<u64>();
        let counts = vec![
            ("rt.events", report.sim_events as f64),
            (
                "rt.events_per_op",
                report.sim_events as f64 / report.completed().max(1) as f64,
            ),
            ("serve.offered", report.offered() as f64),
            ("serve.admitted", report.admitted() as f64),
            ("serve.shed_throttled", sum(&|p| p.shed_throttled) as f64),
            ("serve.shed_queue", sum(&|p| p.shed_queue) as f64),
            ("serve.queue_high_water", report.queue_high_water as f64),
            ("serve.distinct_served", report.distinct_served as f64),
            ("serve.final_epoch", report.final_epoch as f64),
        ];
        let mut failures: Vec<String> = report
            .conservation
            .iter()
            .chain(&idle_report.conservation)
            .cloned()
            .collect();
        if report.final_epoch != 2 {
            failures.push(format!(
                "final_epoch {} != 2: the blade must leave and rejoin",
                report.final_epoch
            ));
        }
        spans.exit(s);
        Rep {
            run_s,
            sim: SimStats {
                ops_timed: report.completed(),
                attempted: report.offered(),
                failed: report.shed() + report.failed(),
                mops: report.completed() as f64 / (spec.plan.total().as_nanos() as f64 / 1e3),
                p50_us: us(0.5),
                p99_us: us(0.99),
                p999_us: us(0.999),
                samples: latency.count(),
            },
            counts,
            failures,
            render: String::new(),
            attr: None,
            // `run_serve` shows the serve layer's own calls and the event
            // total; the verbs in between are not observable from outside.
            coverage: vec![
                ("serve.arrival.next_ns", report.offered() as f64),
                ("serve.admission.admit_ns", report.offered() as f64),
                ("serve.session.complete_ns", report.completed() as f64),
                ("trace.hist.record_ns", report.completed() as f64),
                ("rt.executor.poll_ns", report.sim_events as f64),
            ],
        }
    })
}

// ---------------------------------------------------------------------------
// pdes_fanout_w1 / pdes_fanout_w2
// ---------------------------------------------------------------------------

const PDES_BLADES: u32 = 4;
const PDES_SLOTS: usize = 16;
const PDES_REQUESTS_PER_SLOT: u64 = 12_500;
const PDES_CHANNEL: Duration = Duration::from_nanos(600);
const PDES_SERVICE_STEPS: u32 = 16;
const PDES_SERVICE_STEP: Duration = Duration::from_nanos(20);

/// One client domain fanning requests out to [`PDES_BLADES`] blade
/// domains over 600 ns channels; each request costs its blade domain 16
/// local timer sleeps before the reply. No `rnic` above the engine.
fn pdes_fanout(workers: usize, seed: u64, scale: f64, spans: &mut Spans) -> RunPhase {
    let per_slot = ((PDES_REQUESTS_PER_SLOT as f64 * scale) as u64).max(10);

    let s = spans.enter("setup.app_create");
    let mut b = PdesBuilder::new(seed);
    let client = b.domain_id(0);
    let mut links = Vec::new();
    for i in 0..PDES_BLADES {
        let blade = b.domain_id(1 + i);
        // A request carries its slot; the reply echoes it.
        let (req_tx, req_rx) = b.channel::<u32>(client, blade, PDES_CHANNEL);
        let (rsp_tx, rsp_rx) = b.channel::<u32>(blade, client, PDES_CHANNEL);
        links.push(((req_tx, rsp_rx), (req_rx, rsp_tx)));
    }
    let (client_links, blade_links): (Vec<_>, Vec<_>) = links.into_iter().unzip();
    b.add_domain("client", move |ctx: &DomainCtx| -> DomainFinish {
        let latency_ns: Rc<RefCell<Vec<u32>>> = Rc::default();
        for (req_tx, rsp_rx) in client_links {
            let tx = Rc::new(ctx.bind_tx(req_tx));
            let rx = ctx.bind_rx(rsp_rx);
            let sent_at: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(vec![0; PDES_SLOTS]));
            let handle = ctx.handle();
            for slot in 0..PDES_SLOTS as u32 {
                sent_at.borrow_mut()[slot as usize] = handle.now().as_nanos();
                tx.send(slot);
            }
            // One receiver per blade keeps PDES_SLOTS requests outstanding.
            let latency_ns = Rc::clone(&latency_ns);
            ctx.handle().spawn(async move {
                let mut left = [per_slot - 1; PDES_SLOTS];
                let mut open = PDES_SLOTS;
                while open > 0 {
                    let slot = rx.recv().await as usize;
                    let now = handle.now().as_nanos();
                    let mut sent_at = sent_at.borrow_mut();
                    latency_ns.borrow_mut().push((now - sent_at[slot]) as u32);
                    if left[slot] == 0 {
                        open -= 1;
                    } else {
                        left[slot] -= 1;
                        sent_at[slot] = now;
                        tx.send(slot as u32);
                    }
                }
            });
        }
        Box::new(move |ctx: &DomainCtx| {
            let mut samples = latency_ns.take();
            let (p50, p99, p999) = latency_stats(&mut samples);
            format!(
                "{} {} {p50:?} {p99:?} {p999:?}",
                samples.len(),
                ctx.now().as_nanos()
            )
            .into_bytes()
        })
    });
    for (i, (req_rx, rsp_tx)) in blade_links.into_iter().enumerate() {
        b.add_domain(
            &format!("blade{i}"),
            move |ctx: &DomainCtx| -> DomainFinish {
                let rx = ctx.bind_rx(req_rx);
                let tx = Rc::new(ctx.bind_tx(rsp_tx));
                // The receiver is single-consumer: one dispatcher takes each
                // request and spawns its service, so the service sleeps of
                // outstanding requests overlap.
                let handle = ctx.handle();
                ctx.handle().spawn(async move {
                    loop {
                        let slot = rx.recv().await;
                        let (tx, service) = (Rc::clone(&tx), handle.clone());
                        handle.spawn(async move {
                            for _ in 0..PDES_SERVICE_STEPS {
                                service.sleep(PDES_SERVICE_STEP).await;
                            }
                            tx.send(slot);
                        });
                    }
                });
                Box::new(|_: &DomainCtx| Vec::new())
            },
        );
    }
    spans.exit(s);

    Box::new(move |spans: &mut Spans| {
        let t1 = Instant::now();
        let s_run = spans.enter("run");
        let s = spans.enter("run.measure");
        let report: PdesReport = b.run(workers);
        spans.exit(s);
        spans.exit(s_run);
        let run_s = t1.elapsed().as_secs_f64();

        let s = spans.enter("report.collect");
        let artifact = String::from_utf8_lossy(&report.domains[0].artifact).into_owned();
        let fields: Vec<f64> = artifact
            .split(' ')
            .map(|f| f.parse().expect("client artifact is numeric"))
            .collect();
        let (round_trips, end_ns) = (fields[0] as u64, fields[1]);
        let mut metrics = ExecutorMetrics::default();
        for d in &report.domains {
            metrics.tasks_spawned += d.metrics.tasks_spawned;
            metrics.polls += d.metrics.polls;
            metrics.wakes += d.metrics.wakes;
            metrics.timers_scheduled += d.metrics.timers_scheduled;
            metrics.timers_fired += d.metrics.timers_fired;
            metrics.timers_cancelled += d.metrics.timers_cancelled;
            metrics.timers_purged += d.metrics.timers_purged;
        }
        let epochs = report.epochs.max(1) as f64;
        let mut counts = rt_counts(&metrics, round_trips);
        counts.extend([
            ("rt.pdes.epochs", report.epochs as f64),
            ("rt.pdes.envelopes", report.envelopes as f64),
            ("rt.pdes.events_per_epoch", report.events() as f64 / epochs),
            (
                "rt.pdes.envelopes_per_epoch",
                report.envelopes as f64 / epochs,
            ),
        ]);
        let mut failures = Vec::new();
        let expected = u64::from(PDES_BLADES) * PDES_SLOTS as u64 * per_slot;
        if round_trips != expected {
            failures.push(format!(
                "{round_trips} round trips completed, expected {expected}"
            ));
        }
        spans.exit(s);
        Rep {
            run_s,
            sim: SimStats {
                ops_timed: round_trips,
                attempted: expected,
                failed: expected - round_trips.min(expected),
                mops: round_trips as f64 / (end_ns / 1e3),
                p50_us: fields[2],
                p99_us: fields[3],
                p999_us: fields[4],
                samples: round_trips,
            },
            counts,
            failures,
            render: report.render(),
            attr: None,
            // A timer's isolated cost includes the poll it wakes.
            coverage: vec![
                ("rt.wheel.timer_ns", metrics.timers_fired as f64),
                (
                    "rt.executor.poll_ns",
                    (metrics.polls - metrics.timers_fired) as f64,
                ),
                ("rt.executor.spawn_ns", metrics.tasks_spawned as f64),
            ],
        }
    })
}
