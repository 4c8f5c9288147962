//! Wall-clock perf harness for the simulator itself.
//!
//! Everything else in this repo measures *virtual* time; this binary is
//! the one place that holds a stopwatch to the executor. It runs pinned
//! fig03/fig07/fig14 configurations (fixed seeds, fixed windows —
//! independent of `SMART_BENCH_MODE`) through `smart_bench::run` — one
//! engine worker on the calling thread under the spec's single-domain
//! plan — reports how many scheduling events (task polls + timer fires)
//! the simulator processed per second of wall time, and writes
//! `BENCH_SIM.json` (schema v4) at the repo root. Every result records
//! the `DomainPlan` shape it ran under (`plan`/`domains`), so a recorded
//! wall clock can never be mistaken for a differently-partitioned run.
//!
//! It also times the same 96-thread fig07 sweep sequentially and in
//! parallel through `smart_bench::sweep`, and the engine drivers
//! (decomposed fig07/fig_serve) at 1 vs `min(4, host CPUs)` engine
//! workers, recording the speedups. On a single-CPU host the parallel legs are
//! *skipped*, not simulated: timing oversubscribed threads would record
//! scheduling noise as "speedup", so the harness prints a perf-note and
//! writes `null` in their place.
//!
//! The committed `BENCH_SIM.json` at the repo root is the baseline of
//! every run, wherever the run writes: each config's measured event
//! count is printed beside the committed one, and its new `ns/event`
//! is compared against it (a perf-note says so when the file cannot be
//! read): a regression beyond 25 % prints a warning
//! (and fails the process under `SMART_PERF_STRICT=1` — CI keeps the
//! default job a soft warning, since shared runners make wall clocks
//! noisy; the ratchet job runs strict). Under strict mode a multi-core
//! host (>= 4 CPUs) must also show at least 1.3x decomposed speedup at
//! 4 engine workers — the payoff gate for the blade-domain partition.
//!
//! Env knobs: `SMART_PERF_REPS` (default 3, best-of wins),
//! `SMART_PERF_OUT` (output path override; the baseline stays the
//! committed file), `SMART_PERF_STRICT`.

use std::fmt::Write as _;
use std::time::Instant;

use smart::{QpPolicy, SmartConfig};
use smart_bench::{
    parallel_map_with, run, serve_spec, worker_threads, HtParams, MicroOp, MicrobenchSpec, Spec,
};
use smart_rnic::DomainPlan;
use smart_rt::Duration;
use smart_serve::run_serve_decomposed;
use smart_workloads::ycsb::Mix;

/// Allowed `ns/event` growth over the committed baseline before the
/// harness complains.
const REGRESSION_TOLERANCE: f64 = 0.25;

/// Engine workers for the decomposed parallel legs on a host with at
/// least that many CPUs, and the speedup the strict gate demands there.
const DECOMPOSED_WORKERS: usize = 4;
const DECOMPOSED_SPEEDUP_GATE: f64 = 1.3;

/// One pinned config timed under a single-domain plan on one engine
/// worker.
struct PerfResult {
    name: &'static str,
    events: u64,
    wall: std::time::Duration,
    mops: f64,
}

impl PerfResult {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall.as_secs_f64()
    }

    fn ns_per_event(&self) -> f64 {
        self.wall.as_nanos() as f64 / self.events.max(1) as f64
    }
}

fn reps() -> u32 {
    std::env::var("SMART_PERF_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(3)
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Engine workers of the recorded decomposed parallel leg: one lane per
/// CPU up to [`DECOMPOSED_WORKERS`], so a narrow host records a real
/// ratio instead of an oversubscribed one.
fn decomposed_workers() -> usize {
    DECOMPOSED_WORKERS.min(host_cpus())
}

/// Runs `run` `reps()` times and keeps the fastest wall clock (the rep
/// least disturbed by the OS; events are identical across reps because
/// the simulation is deterministic).
fn best_of(name: &'static str, run: impl Fn() -> (u64, f64)) -> PerfResult {
    let mut best: Option<PerfResult> = None;
    for _ in 0..reps() {
        let start = Instant::now();
        let (events, mops) = run();
        let wall = start.elapsed();
        if best.as_ref().is_none_or(|b| wall < b.wall) {
            best = Some(PerfResult {
                name,
                events,
                wall,
                mops,
            });
        }
    }
    let r = best.expect("reps() >= 1");
    eprintln!(
        "  {name} [single]: {} events in {:.1} ms -> {:.2} Mevents/s, {:.1} ns/event ({:.2} MOPS)",
        r.events,
        r.wall.as_secs_f64() * 1e3,
        r.events_per_sec() / 1e6,
        r.ns_per_event(),
        r.mops
    );
    r
}

/// Pinned Figure 3 point: baseline per-thread-doorbell READs at the top
/// of the thread sweep — timer-heavy (doorbell pacing + sync waits).
fn fig03() -> PerfResult {
    best_of("fig03_read8_96t", || {
        let mut spec = MicrobenchSpec::new(
            SmartConfig::baseline(QpPolicy::ThreadAwareDoorbell, 96),
            96,
            8,
        );
        spec.op = MicroOp::Read(8);
        spec.warmup = Duration::from_millis(1);
        spec.measure = Duration::from_millis(4);
        let spec = Spec::Micro(spec);
        let report = run(&spec, &spec.single_plan(), 1).report;
        (report.sim_events, report.mops)
    })
}

fn fig07_params(seed: u64) -> HtParams {
    let mut p = HtParams::new(SmartConfig::smart_full(96), 96, 100_000, Mix::WriteHeavy);
    p.warmup = Duration::from_millis(1);
    p.measure = Duration::from_millis(2);
    p.seed = seed;
    p
}

/// Pinned Figure 7 point: SMART-HT write-heavy at 96 threads — the
/// wake-path stress test (768 coroutines contending on buckets).
fn fig07() -> PerfResult {
    best_of("fig07_writeheavy_96t", || {
        let spec = Spec::Ht(fig07_params(42));
        let r = run(&spec, &spec.single_plan(), 1).report;
        (r.sim_events, r.mops)
    })
}

/// Pinned Figure 14 point: all conflict-avoidance machinery on, 100 %
/// updates — backoff timers dominate, exercising cancel/purge.
fn fig14() -> PerfResult {
    best_of("fig14_corothrot_96t", || {
        let mut cfg =
            SmartConfig::baseline(QpPolicy::ThreadAwareDoorbell, 96).with_work_req_throttle(true);
        cfg.conflict_backoff = true;
        cfg.dynamic_backoff_limit = true;
        cfg.coroutine_throttle = true;
        let mut p = HtParams::new(cfg, 96, 100_000, Mix::UpdateOnly);
        p.warmup = Duration::from_millis(1);
        p.measure = Duration::from_millis(2);
        let spec = Spec::Ht(p);
        let r = run(&spec, &spec.single_plan(), 1).report;
        (r.sim_events, r.mops)
    })
}

struct SweepResult {
    points: usize,
    workers: usize,
    sequential: std::time::Duration,
    /// `None` on a single-CPU host, where a parallel timing would
    /// measure oversubscription, not speedup.
    parallel: Option<std::time::Duration>,
}

/// Worker count for the parallel leg: `SMART_BENCH_THREADS` when set,
/// otherwise at least 4 OS threads even on narrow hosts. Capped by the
/// point count.
fn sweep_workers(points: usize) -> usize {
    let hinted = worker_threads(points);
    let requested = if std::env::var("SMART_BENCH_THREADS").is_ok() {
        hinted
    } else {
        hinted.max(4)
    };
    requested.clamp(1, points)
}

/// Times the same 8-point 96-thread fig07 sweep twice — once on the
/// calling thread, once fanned out — and reports the wall-clock ratio
/// together with the worker count the parallel leg actually used. On a
/// single-CPU host the parallel leg is skipped outright.
fn sweep_speedup() -> SweepResult {
    let points = 8usize;
    let seeds: Vec<u64> = (0..points as u64).collect();
    let workers = sweep_workers(points);
    let time_with = |w: usize| {
        let start = Instant::now();
        let mops: Vec<f64> = parallel_map_with(w, seeds.clone(), |_, seed| {
            let spec = Spec::Ht(fig07_params(seed));
            run(&spec, &spec.single_plan(), 1).report.mops
        });
        assert_eq!(mops.len(), points);
        start.elapsed()
    };
    let sequential = time_with(1);
    let parallel = if host_cpus() == 1 {
        eprintln!(
            "  fig07_96t_sweep: single-cpu host, skipping the parallel leg \
             (an oversubscribed timing would masquerade as speedup)"
        );
        None
    } else if workers > 1 {
        Some(time_with(workers))
    } else {
        // SMART_BENCH_THREADS=1: a second timing would measure the same
        // sequential loop again.
        eprintln!("  fig07_96t_sweep: 1 worker requested, skipping parallel timing");
        None
    };
    match parallel {
        Some(par) => eprintln!(
            "  fig07_96t_sweep: {points} points, sequential {:.1} ms, parallel {:.1} ms on {workers} workers -> {:.2}x",
            sequential.as_secs_f64() * 1e3,
            par.as_secs_f64() * 1e3,
            sequential.as_secs_f64() / par.as_secs_f64()
        ),
        None => eprintln!(
            "  fig07_96t_sweep: {points} points, sequential {:.1} ms, parallel leg skipped",
            sequential.as_secs_f64() * 1e3
        ),
    }
    SweepResult {
        points,
        workers,
        sequential,
        parallel,
    }
}

/// One decomposed runner timed at 1 engine worker and (on multi-core
/// hosts) at [`decomposed_workers`]. The two legs execute the identical
/// partition, so their reports are byte-identical and the wall-clock
/// ratio is a pure scheduling measurement.
struct DecomposedResult {
    name: &'static str,
    plan: &'static str,
    domains: u32,
    events: u64,
    sequential: std::time::Duration,
    parallel: Option<std::time::Duration>,
}

impl DecomposedResult {
    fn speedup(&self) -> Option<f64> {
        self.parallel
            .map(|p| self.sequential.as_secs_f64() / p.as_secs_f64())
    }
}

fn time_decomposed(
    name: &'static str,
    plan_desc: &'static str,
    domains: u32,
    run: impl Fn(usize) -> u64,
) -> DecomposedResult {
    let time_leg = |workers: usize| {
        let mut best: Option<(std::time::Duration, u64)> = None;
        for _ in 0..reps() {
            let start = Instant::now();
            let events = run(workers);
            let wall = start.elapsed();
            if best.is_none_or(|(b, _)| wall < b) {
                best = Some((wall, events));
            }
        }
        best.expect("reps() >= 1")
    };
    let (sequential, events) = time_leg(1);
    let parallel = if host_cpus() == 1 {
        None
    } else {
        Some(time_leg(decomposed_workers()).0)
    };
    match parallel {
        Some(par) => eprintln!(
            "  {name} [{plan_desc}, {domains} domains]: sequential {:.1} ms, \
             {} workers {:.1} ms -> {:.2}x",
            sequential.as_secs_f64() * 1e3,
            decomposed_workers(),
            par.as_secs_f64() * 1e3,
            sequential.as_secs_f64() / par.as_secs_f64()
        ),
        None => eprintln!(
            "  {name} [{plan_desc}, {domains} domains]: sequential {:.1} ms, \
             parallel leg skipped (single-cpu host)",
            sequential.as_secs_f64() * 1e3
        ),
    }
    DecomposedResult {
        name,
        plan: plan_desc,
        domains,
        events,
        sequential,
        parallel,
    }
}

/// Decomposed fig07: blades as engine domains under a `per_blade`
/// partition. Smaller than the pinned inline point — the virtual window
/// is dominated by the tuned 30 ms warmup either way, and the epoch
/// barriers are what this entry prices.
fn fig07_decomposed() -> DecomposedResult {
    let mut p = HtParams::new(SmartConfig::smart_full(16), 16, 20_000, Mix::WriteHeavy);
    p.warmup = Duration::from_millis(1);
    p.measure = Duration::from_millis(2);
    p.seed = 42;
    let plan = DomainPlan::per_blade(1, p.blades as u32);
    let domains = plan.domains();
    let spec = Spec::Ht(p);
    time_decomposed("fig07_decomposed", "per_blade", domains, move |workers| {
        run(&spec, &plan, workers).report.sim_events
    })
}

/// Decomposed fig_serve: the serving scenario with its blades spread
/// over a `for_workers` partition.
fn fig_serve_decomposed() -> DecomposedResult {
    let mut spec = serve_spec(2_000, 0.05, 42);
    spec.threads = 4;
    spec.depth = 8;
    let plan = DomainPlan::for_workers(DECOMPOSED_WORKERS, 1, spec.blades as u32);
    let domains = plan.domains();
    time_decomposed(
        "fig_serve_decomposed",
        "for_workers",
        domains,
        move |workers| {
            run_serve_decomposed(&spec, &plan, workers)
                .report
                .sim_events
        },
    )
}

/// The committed `BENCH_SIM.json`: every run's baseline, and its output
/// unless `SMART_PERF_OUT` names another file.
fn committed_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_SIM.json")
}

fn out_path() -> std::path::PathBuf {
    std::env::var("SMART_PERF_OUT")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| committed_path())
}

/// Pulls `(name, events, ns_per_event)` out of each pinned result of a
/// previous `BENCH_SIM.json`. The file is our own output (one result
/// object per line), so a line scan is enough — no JSON parser in the
/// dependency-free workspace.
fn baseline(old: &str) -> Vec<(String, f64, f64)> {
    let mut out = Vec::new();
    for line in old.lines() {
        let Some(name) = field_str(line, "name") else {
            continue;
        };
        if let (Some(events), Some(ns)) =
            (field_f64(line, "events"), field_f64(line, "ns_per_event"))
        {
            out.push((name, events, ns));
        }
    }
    out
}

fn field_str(line: &str, key: &str) -> Option<String> {
    let tail = line.split(&format!("\"{key}\": \"")).nth(1)?;
    Some(tail.split('"').next()?.to_string())
}

fn field_f64(line: &str, key: &str) -> Option<f64> {
    let tail = line.split(&format!("\"{key}\": ")).nth(1)?;
    tail.trim_start()
        .split([',', '}'])
        .next()?
        .trim()
        .parse()
        .ok()
}

fn ms_or_null(d: Option<std::time::Duration>) -> String {
    d.map_or("null".to_string(), |d| {
        format!("{:.3}", d.as_secs_f64() * 1e3)
    })
}

fn render_json(
    results: &[PerfResult],
    sweep: &SweepResult,
    decomposed: &[DecomposedResult],
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"smart-bench-sim-perf/v4\",");
    let _ = writeln!(s, "  \"reps\": {},", reps());
    let _ = writeln!(s, "  \"host_cpus\": {},", host_cpus());
    s.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"plan\": \"single\", \"domains\": 1, \"events\": {}, \"wall_ms\": {:.3}, \"events_per_sec\": {:.0}, \"ns_per_event\": {:.2}, \"mops\": {:.3}}}{}",
            r.name,
            r.events,
            r.wall.as_secs_f64() * 1e3,
            r.events_per_sec(),
            r.ns_per_event(),
            r.mops,
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n");
    let _ = writeln!(
        s,
        "  \"sweep\": {{\"name\": \"fig07_96t_sweep\", \"points\": {}, \"workers\": {}, \"sequential_ms\": {:.3}, \"parallel_ms\": {}, \"speedup\": {}}},",
        sweep.points,
        sweep.workers,
        sweep.sequential.as_secs_f64() * 1e3,
        ms_or_null(sweep.parallel),
        sweep
            .parallel
            .map_or("null".to_string(), |p| format!(
                "{:.2}",
                sweep.sequential.as_secs_f64() / p.as_secs_f64()
            ))
    );
    s.push_str("  \"decomposed\": [\n");
    for (i, d) in decomposed.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"plan\": \"{}\", \"domains\": {}, \"engine_workers\": {}, \"events\": {}, \"sequential_ms\": {:.3}, \"parallel_ms\": {}, \"speedup\": {}}}{}",
            d.name,
            d.plan,
            d.domains,
            decomposed_workers(),
            d.events,
            d.sequential.as_secs_f64() * 1e3,
            ms_or_null(d.parallel),
            d.speedup()
                .map_or("null".to_string(), |x| format!("{x:.2}")),
            if i + 1 < decomposed.len() { "," } else { "" }
        );
    }
    s.push_str("  ]\n");
    s.push_str("}\n");
    s
}

fn main() {
    eprintln!(
        "=== simulator wall-clock perf harness ({} reps, best-of, {} host cpus) ===",
        reps(),
        host_cpus()
    );
    if host_cpus() == 1 {
        eprintln!(
            "perf-note: single-cpu host; every parallel comparison leg is \
             skipped and recorded as null — rerun on a multi-core host to \
             measure the decomposed speedup"
        );
    } else if host_cpus() < DECOMPOSED_WORKERS {
        eprintln!(
            "perf-note: host has {} cpus; the decomposed parallel legs run \
             at {} engine workers instead of {DECOMPOSED_WORKERS}",
            host_cpus(),
            decomposed_workers()
        );
    }
    let results = [fig03(), fig07(), fig14()];
    let sweep = sweep_speedup();
    let decomposed = [fig07_decomposed(), fig_serve_decomposed()];

    let mut regressions = Vec::new();
    let committed = committed_path();
    let old = std::fs::read_to_string(&committed).unwrap_or_else(|e| {
        eprintln!("perf-note: no baseline read from {committed:?}: {e}");
        String::new()
    });
    for (name, old_events, old_ns) in baseline(&old) {
        let Some(new) = results.iter().find(|r| r.name == name) else {
            continue;
        };
        // A change that removes (or adds) events on purpose moves
        // ns/event for that reason alone: log both counts beside it.
        eprintln!(
            "  {name}: {} events measured vs {old_events} committed ({:+.1}%)",
            new.events,
            (new.events as f64 / old_events - 1.0) * 100.0
        );
        let new_ns = new.ns_per_event();
        if new_ns > old_ns * (1.0 + REGRESSION_TOLERANCE) {
            regressions.push(format!(
                "{name}: {new_ns:.2} ns/event vs baseline {old_ns:.2} (+{:.0}%)",
                (new_ns / old_ns - 1.0) * 100.0
            ));
        }
    }
    // The payoff gate: a genuinely multi-core host must see the blade
    // domains pay for their barriers. Only meaningful with real cores —
    // skipped legs and 2-cpu runners stay advisory.
    if host_cpus() >= 4 {
        for d in &decomposed {
            if let Some(speedup) = d.speedup() {
                if speedup < DECOMPOSED_SPEEDUP_GATE {
                    regressions.push(format!(
                        "{}: decomposed speedup {speedup:.2}x at {DECOMPOSED_WORKERS} \
                         engine workers is under the {DECOMPOSED_SPEEDUP_GATE}x gate",
                        d.name
                    ));
                }
            }
        }
    }

    let json = render_json(&results, &sweep, &decomposed);
    let path = out_path();
    std::fs::write(&path, &json).expect("write BENCH_SIM.json");
    eprintln!("[perf] wrote {}", path.display());

    if !regressions.is_empty() {
        for r in &regressions {
            eprintln!("perf-warning: {r}");
        }
        if std::env::var("SMART_PERF_STRICT").as_deref() == Ok("1") {
            std::process::exit(1);
        }
    }
}
