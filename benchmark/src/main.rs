//! The repo benchmark. See `README.md` beside this package.
//!
//! Two ways in:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` measures
//!   one workload in this process and prints, as its last line, the one
//!   JSON object the benchmark contract (`BENCHMARK.json`) asks for;
//! * without `--workload` it runs every workload, each in child processes
//!   of this same binary (so peak RSS is per workload and one process runs
//!   at a time), prints every metric as `workload metric value unit` and
//!   writes `out/results.json`. `--smoke` shortens every workload to a
//!   tenth (it reaches the children as `--scale 0.1`); `--agree` runs the
//!   set twice and compares; `--list` prints the metric registry and runs
//!   nothing.

mod host;
mod layers;
mod metrics;
mod report;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use smart_rt::trace::TraceSink;

use metrics::{ATTR_METRICS, END_TO_END, PER_LAYER, SPAN_METRICS};
use report::{Metric, WorkloadResult};
use spans::Spans;
use workloads::{Rep, Workload};

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 16.0;
/// Untraced repetitions a run makes at least, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// Timed work each isolated driver gets at full scale.
const ISOLATED_BUDGET: Duration = Duration::from_millis(200);
/// Set-up time one repetition samples. Three of the six set-ups take
/// microseconds; a repetition repeats such a set-up until this much of it
/// has been timed and reports the mean, so `setup_s` is steady.
const SETUP_SAMPLE: Duration = Duration::from_millis(10);

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    smoke: bool,
    agree: bool,
    list: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        scale: 1.0,
        smoke: false,
        agree: false,
        list: false,
    };
    let mut words = std::env::args().skip(1);
    while let Some(flag) = words.next() {
        let mut value = || words.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--scale" => args.scale = value()?.parse().map_err(|e| format!("--scale: {e}"))?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--agree" => args.agree = true,
            "--list" => args.list = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds >= 0.0 && args.scale > 0.0 && args.scale <= 1.0) {
        return Err("--seconds must be >= 0 and --scale in (0, 1]".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("smart-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match args.workload {
        _ if args.list => {
            list_metrics();
            true
        }
        Some(w) => {
            let outcome = if args.trace {
                traced_run(w, args.seed, args.scale)
            } else {
                timed_run(w, args.seed, args.seconds, args.scale)
            };
            outcome.print(w);
            outcome.failures.is_empty()
        }
        None => full_run(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints the registry: each metric's unit, direction and bound, and for a
/// per-layer metric the end-to-end metric and workload it should move.
fn list_metrics() {
    for m in &END_TO_END {
        println!(
            "end_to_end {} {} {} bound {}",
            m.name,
            m.unit,
            m.better.word(),
            m.bound
        );
    }
    for m in &PER_LAYER {
        let kind = if m.exact { "exact" } else { "host" };
        println!(
            "per_layer {} {} {} {kind} -> {}",
            m.name,
            m.unit,
            m.better.word(),
            m.moves
        );
    }
}

// ---------------------------------------------------------------------------
// One workload, in this process
// ---------------------------------------------------------------------------

/// What one single-workload run reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Lines printed for the reader; not part of the contract's result.
    notes: Vec<String>,
    /// Correctness checks that failed.
    failures: Vec<String>,
}

impl Outcome {
    fn print(&self, w: Workload) {
        for note in &self.notes {
            println!("# {note}");
        }
        for f in &self.failures {
            println!("# FAILED CHECK: {f}");
        }
        for m in &self.metrics {
            println!("{}", report::text_line(w.name(), m));
        }
        let contract: Vec<Metric> = self
            .metrics
            .iter()
            .filter(|m| in_contract(&m.name))
            .cloned()
            .collect();
        println!(
            "{}",
            report::contract_line(
                self.failures.is_empty(),
                self.attempted.max(1),
                self.failed,
                &contract
            )
        );
    }
}

/// Whether `BENCHMARK.json` lists the metric (`model.paper_err` exists
/// only where the paper gives a figure, so it is printed but not listed).
fn in_contract(name: &str) -> bool {
    END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name)
}

/// A repetition's deterministic part, compared between repetitions.
fn fingerprint(rep: &Rep) -> String {
    format!("{:?} {:?} {}", rep.sim, rep.counts, rep.render)
}

/// One untraced repetition: `(setup_s, results)`.
fn run_plain(w: Workload, seed: u64, scale: f64) -> (f64, Rep) {
    let mut spans = Spans::disabled();
    let (mut spent, mut setups) = (Duration::ZERO, 0u32);
    let prepared = loop {
        let t = Instant::now();
        let prepared = workloads::prepare(w, seed, scale, None, &mut spans);
        spent += t.elapsed();
        setups += 1;
        if spent >= SETUP_SAMPLE {
            break prepared;
        }
    };
    (
        spent.as_secs_f64() / f64::from(setups),
        prepared.run(&mut spans),
    )
}

/// `pdes_fanout_w1` and `_w2` must render byte-identical reports: runs the
/// sibling once (untimed) and compares. Returns the sibling's repetition.
fn pdes_sibling(
    w: Workload,
    seed: u64,
    scale: f64,
    mine: &Rep,
    failures: &mut Vec<String>,
) -> Option<Rep> {
    let sibling = match w {
        Workload::PdesFanoutW1 => Workload::PdesFanoutW2,
        Workload::PdesFanoutW2 => Workload::PdesFanoutW1,
        _ => return None,
    };
    let (_, other) = run_plain(sibling, seed, scale);
    if other.render != mine.render {
        failures.push(format!(
            "PdesReport::render() differs between {} and {}",
            w.name(),
            sibling.name()
        ));
    }
    Some(other)
}

fn describe(w: Workload, seed: u64, scale: f64) -> Vec<String> {
    vec![
        format!(
            "{}: {}, seed {seed}, scale {scale}",
            w.name(),
            w.loop_kind()
        ),
        "timed region = whole virtual span (warm-up + measure); sim_* from the measure window; \
         modelled caches and tuners start cold"
            .to_string(),
    ]
}

/// `--trace 0`: repeats the workload with tracing off for `seconds` and
/// reports the end-to-end metrics as medians over the repetitions.
fn timed_run(w: Workload, seed: u64, seconds: f64, scale: f64) -> Outcome {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut reps: Vec<Rep> = Vec::new();
    let mut setup = Vec::new();
    let mut failures = Vec::new();
    loop {
        let t = Instant::now();
        let (setup_s, rep) = run_plain(w, seed, scale);
        setup.push(setup_s);
        reps.push(rep);
        if reps.len() == 1 {
            pdes_sibling(w, seed, scale, &reps[0], &mut failures);
        }
        if reps.len() >= MIN_REPS && started.elapsed() + t.elapsed() > budget {
            break;
        }
    }

    let first = fingerprint(&reps[0]);
    for (i, rep) in reps.iter().enumerate() {
        failures.extend(rep.failures.iter().map(|f| format!("repetition {i}: {f}")));
        if fingerprint(rep) != first {
            failures.push(format!(
                "repetition {i} differs from repetition 0 in sim_* values, counts or report"
            ));
        }
    }

    let run: Vec<f64> = reps.iter().map(|r| r.run_s).collect();
    let run_s = stats::median(&run);
    let sim = &reps[0].sim;
    let values = [
        stats::median(&setup),
        run_s,
        run_s * 1e9 / sim.ops_timed.max(1) as f64,
        host::peak_rss_mb().unwrap_or(f64::NAN),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(def, v)| Metric::new(def.name, v, def.unit))
        .collect();

    let range = |v: &[f64]| {
        format!(
            "min {:?} max {:?}",
            v.iter().copied().fold(f64::INFINITY, f64::min),
            v.iter().copied().fold(0.0, f64::max)
        )
    };
    let mut notes = describe(w, seed, scale);
    notes.push(format!(
        "{} untraced repetitions in {:.1} s",
        reps.len(),
        started.elapsed().as_secs_f64()
    ));
    notes.push(format!("setup_s {}", range(&setup)));
    notes.push(format!("host_run_s {}", range(&run)));
    notes.push(format!(
        "simulated: {} ops in the timed region, {} latency samples",
        sim.ops_timed, sim.samples
    ));
    Outcome {
        attempted: sim.attempted,
        failed: sim.failed,
        metrics,
        notes,
        failures,
    }
}

/// `--trace 1`: one untraced and one traced repetition plus the isolated
/// drivers; reports every per-layer metric and writes the spans file.
fn traced_run(w: Workload, seed: u64, scale: f64) -> Outcome {
    let mut failures = Vec::new();
    let (_, plain) = run_plain(w, seed, scale);
    let sibling = pdes_sibling(w, seed, scale, &plain, &mut failures);

    let sink = TraceSink::new();
    let mut spans = Spans::recording();
    let t = Instant::now();
    let prepared = workloads::prepare(w, seed, scale, Some(&sink), &mut spans);
    let traced_setup_s = t.elapsed().as_secs_f64();
    let traced = prepared.run(&mut spans);
    for rep in [&plain, &traced] {
        failures.extend(rep.failures.iter().cloned());
    }
    if fingerprint(&plain) != fingerprint(&traced) {
        failures.push("installing a TraceSink changed sim_* values, counts or report".to_string());
    }

    // The self times under the two timed roots must add up to the traced
    // repetition's own stopwatch readings.
    let recorded = spans.finished();
    let own = spans::self_times_ns(recorded);
    let timed_self_s: f64 = recorded
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name.starts_with("setup") || s.name.starts_with("run"))
        .map(|(_, ns)| *ns as f64 / 1e9)
        .sum();
    let stopwatch_s = traced_setup_s + traced.run_s;
    if (timed_self_s - stopwatch_s).abs() > 0.02 * stopwatch_s {
        failures.push(format!(
            "span self times sum to {timed_self_s} s but setup_s + host_run_s is {stopwatch_s} s"
        ));
    }

    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    let sim = &plain.sim;
    values.extend([
        ("sim_mops", sim.mops),
        ("sim_p50_us", sim.p50_us),
        ("sim_p99_us", sim.p99_us),
        ("sim_p999_us", sim.p999_us),
        (
            "sim_failed_share",
            sim.failed as f64 / sim.attempted.max(1) as f64,
        ),
    ]);
    values.extend(plain.counts.iter().copied());
    values.extend(layers::run_all(ISOLATED_BUDGET.mul_f64(scale)));
    values.extend(
        SPAN_METRICS
            .iter()
            .map(|(span, metric)| (*metric, spans::total_s(recorded, span))),
    );
    if let Some(shares) = traced.attr {
        values.extend(ATTR_METRICS.into_iter().zip(shares));
    }

    // Host-time figures derived from the counts and per-call costs above.
    let of = |name: &str| values.get(name).copied().unwrap_or(0.0);
    let run_ns = plain.run_s * 1e9;
    let explained_ns: f64 = plain
        .coverage
        .iter()
        .map(|(per_call, calls)| of(per_call) * calls)
        .sum();
    let mut derived = vec![
        ("rt.host_ns_per_event", run_ns / of("rt.events").max(1.0)),
        ("trace.overhead_ratio", traced.run_s / plain.run_s),
        ("bench.coverage", explained_ns / run_ns),
    ];
    if let Some(other) = &sibling {
        let (w1, w2) = match w {
            Workload::PdesFanoutW1 => (plain.run_s, other.run_s),
            _ => (other.run_s, plain.run_s),
        };
        derived.extend([
            (
                "rt.pdes.host_us_per_epoch",
                run_ns / 1e3 / of("rt.pdes.epochs").max(1.0),
            ),
            (
                "rt.pdes.host_ns_per_envelope",
                run_ns / of("rt.pdes.envelopes").max(1.0),
            ),
            ("rt.pdes.speedup_w2", w1 / w2),
        ]);
    }
    values.extend(derived);

    let mut metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|def| {
            Metric::new(
                def.name,
                values.get(def.name).copied().unwrap_or(0.0),
                def.unit,
            )
        })
        .collect();
    let mut notes = describe(w, seed, scale);
    notes.push(format!(
        "{} latency samples behind sim_p50_us, sim_p99_us, sim_p999_us",
        sim.samples
    ));
    notes.push("a per-layer metric this workload's public API cannot observe reads 0".to_string());
    match w.paper_mops() {
        Some(paper) => metrics.push(Metric::new(
            "model.paper_err",
            (sim.mops - paper).abs() / paper,
            "share",
        )),
        None => notes.push(
            "model.paper_err unvalidated: the paper gives no figure for this workload".to_string(),
        ),
    }
    if sink.dropped() > 0 {
        notes.push(format!(
            "trace ring kept the last {} events, evicted {} (attribution counts them all)",
            sink.len(),
            sink.dropped()
        ));
    }

    match write_out(
        &format!("{}.spans.json", w.name()),
        &report::spans_json(w.name(), 1, recorded),
    ) {
        Ok(path) => notes.push(format!("spans written to {}", path.display())),
        Err(e) => failures.push(e),
    }
    Outcome {
        attempted: sim.attempted,
        failed: sim.failed,
        metrics,
        notes,
        failures,
    }
}

/// Writes `out/<file>` beside this package's manifest and returns its
/// path. `cargo run` tells the program where the manifest is; a bare
/// binary falls back to where it was built.
fn write_out(file: &str, contents: &str) -> Result<PathBuf, String> {
    let package = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    let dir = PathBuf::from(package).join("out");
    let path = dir.join(file);
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, contents))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

// ---------------------------------------------------------------------------
// Every workload, one child process at a time
// ---------------------------------------------------------------------------

/// Runs one child and splits its standard output into metrics and notes.
fn child(
    w: Workload,
    seed: u64,
    seconds: f64,
    scale: f64,
    trace: bool,
) -> Result<(bool, Vec<Metric>, Vec<String>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--scale", &scale.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot start the {} child: {e}", w.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (mut metrics, mut notes) = (Vec::new(), Vec::new());
    for line in stdout.lines() {
        if let Some(m) = report::parse_text_line(line) {
            metrics.push(m);
        } else if let Some(note) = line.strip_prefix("# ") {
            notes.push(note.to_string());
        }
    }
    if metrics.is_empty() {
        return Err(format!(
            "the {} child printed no metrics (exit {})",
            w.name(),
            output.status
        ));
    }
    Ok((output.status.success(), metrics, notes))
}

fn run_set(seed: u64, seconds: f64, scale: f64) -> Result<Vec<WorkloadResult>, String> {
    let mut results = Vec::new();
    for w in Workload::ALL {
        let (ok0, end_to_end, mut notes) = child(w, seed, seconds, scale, false)?;
        let (ok1, per_layer, more) = child(w, seed, seconds, scale, true)?;
        for note in more {
            if !notes.contains(&note) {
                notes.push(note);
            }
        }
        for note in &notes {
            println!("# {note}");
        }
        for m in end_to_end.iter().chain(&per_layer) {
            println!("{}", report::text_line(w.name(), m));
        }
        results.push(WorkloadResult {
            name: w.name().to_string(),
            correct: ok0 && ok1,
            end_to_end,
            per_layer,
            notes,
        });
    }
    Ok(results)
}

/// Compares two sets of the same code: end-to-end metrics within their
/// bounds, simulated and counted metrics exactly.
fn disagreements(a: &[WorkloadResult], b: &[WorkloadResult]) -> Vec<String> {
    let mut out = Vec::new();
    for (ra, rb) in a.iter().zip(b) {
        for (ma, mb) in ra.end_to_end.iter().zip(&rb.end_to_end) {
            let bound = END_TO_END
                .iter()
                .find(|d| d.name == ma.name)
                .map_or(0.0, |d| d.bound);
            let diff = (ma.value - mb.value).abs() / ma.value.min(mb.value);
            println!(
                "# agree {} {} {:?} vs {:?}: {:.2} % (bound {:.0} %)",
                ra.name,
                ma.name,
                ma.value,
                mb.value,
                diff * 100.0,
                bound * 100.0
            );
            if diff > bound {
                out.push(format!(
                    "{} {}: {:?} vs {:?} differ by more than {bound}",
                    ra.name, ma.name, ma.value, mb.value
                ));
            }
        }
        for (ma, mb) in ra.per_layer.iter().zip(&rb.per_layer) {
            let exact = PER_LAYER.iter().any(|d| d.name == ma.name && d.exact);
            if exact && ma.value.to_bits() != mb.value.to_bits() {
                out.push(format!(
                    "{} {}: {:?} vs {:?} must agree exactly",
                    ra.name, ma.name, ma.value, mb.value
                ));
            }
        }
    }
    out
}

fn full_run(args: &Args) -> bool {
    let (seconds, scale) = if args.smoke {
        (0.0, 0.1)
    } else {
        (args.seconds, args.scale)
    };
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "# smart-benchmark: seed {}, {seconds} s per workload, scale {scale}, {cpus} host CPUs",
        args.seed
    );
    let mut problems = Vec::new();
    let first = match run_set(args.seed, seconds, scale) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("smart-benchmark: {e}");
            return false;
        }
    };
    if args.agree {
        match run_set(args.seed, seconds, scale) {
            Ok(second) => problems.extend(disagreements(&first, &second)),
            Err(e) => problems.push(e),
        }
    }
    problems.extend(
        first
            .iter()
            .filter(|r| !r.correct)
            .map(|r| format!("{}: a correctness check failed", r.name)),
    );

    let json = report::results_json(args.seed, seconds, scale, cpus, &first);
    match write_out("results.json", &json) {
        Ok(path) => println!("# results written to {}", path.display()),
        Err(e) => problems.push(e),
    }
    for p in &problems {
        println!("# FAILED: {p}");
    }
    problems.is_empty()
}
