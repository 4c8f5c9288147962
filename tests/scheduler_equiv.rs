//! Scheduler-equivalence gate: the executor's timer queue is an
//! implementation detail, and replacing it must not move a single event.
//! A mixed workload — a fig03-style microbench under both `SchedulePolicy`
//! variants, plus a chaos-plan hash-table run through the full recovery
//! stack — is replayed against golden files captured from the original
//! `BinaryHeap` scheduler. The Perfetto JSON export (every event, with
//! nanosecond timestamps, in emission order) and the report fingerprints
//! must match byte-for-byte.
//!
//! Regenerate after an *intentional* semantic change with:
//! `SMART_UPDATE_GOLDENS=1 cargo test -q --test scheduler_equiv`
//! and review the golden diff like any other code change.
//!
//! The second section pins the **inline driver** on the remaining bench
//! shapes — fig07-small, fig14-small, a serve phase (report fingerprint
//! plus the FNV-1a-64 of the trace JSON) and an 8-seed chaos sweep —
//! against goldens captured before the hosted path was removed.
//!
//! The third section is the **engine-driver matrix** gating the blade
//! engine domains: fig07 and a serve phase run under partitions that
//! cover a domain per blade, blades sharing one remote domain, and a
//! blade co-located with the compute domain next to a remote one, at
//! 1/2/4/8 engine workers. Every leg — report bytes, blade-domain
//! artifacts, epoch/envelope counters and trace hash — must match the
//! committed golden exactly, so the bytes are pinned across worker
//! counts and across commits. The fingerprints are also published under
//! `target/equiv/` for the CI `pdes` job to upload.

use std::path::PathBuf;

use smart_bench::{run_ht, run_ht_decomposed, serve_spec, HtParams, RunReport};
use smart_lab::smart::{run_microbench, MicroOp, MicrobenchSpec, QpPolicy, SmartConfig};
use smart_lab::smart_fault::FaultPlan;
use smart_lab::smart_rnic::DomainPlan;
use smart_lab::smart_rt::{Duration, SchedulePolicy};
use smart_lab::smart_serve::{run_serve, run_serve_decomposed, ServeReport, ServeSpec};
use smart_lab::smart_trace::TraceSink;
use smart_lab::smart_workloads::ycsb::Mix;

/// Ring capacity for the golden traces: small enough to keep the checked
/// in files reviewable, large enough that the tail window spans many
/// timer fires, wakes and op completions.
const TRACE_EVENTS: usize = 1024;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(name)
}

/// Compares `got` against the committed golden, or rewrites the golden
/// when `SMART_UPDATE_GOLDENS=1` is set.
fn assert_golden(name: &str, got: &str) {
    let path = golden_path(name);
    if std::env::var("SMART_UPDATE_GOLDENS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}; regenerate with SMART_UPDATE_GOLDENS=1",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "{name} diverged from the heap-scheduler golden; if the schedule \
         change is intentional, regenerate with SMART_UPDATE_GOLDENS=1 \
         and review the diff"
    );
}

/// One fig03-style microbench point (thread-aware doorbell QPs, depth 8)
/// with a tracer installed, under the given tie-break policy.
fn fig03_run(schedule: SchedulePolicy) -> (String, String) {
    let sink = TraceSink::with_capacity(TRACE_EVENTS);
    let mut spec = MicrobenchSpec::new(
        SmartConfig::baseline(QpPolicy::ThreadAwareDoorbell, 4),
        4,
        8,
    );
    spec.op = MicroOp::Read(8);
    spec.warmup = Duration::from_micros(300);
    spec.measure = Duration::from_millis(1);
    spec.seed = 42;
    spec.trace = Some(sink.clone());
    spec.schedule = schedule;
    let report = run_microbench(&spec);
    (format!("{report:?}\n"), sink.chrome_json())
}

/// A chaos-plan hash-table run: a QP error mid-batch and a blade crash
/// mid-window, recovered through the full retry/re-establish stack, with
/// the tracer on. This exercises `with_timeout` (and therefore cancelled
/// sleeps) on the recovery path.
fn fault_run() -> (String, String) {
    let sink = TraceSink::with_capacity(TRACE_EVENTS);
    let plan = FaultPlan::new()
        .qp_error_at(Duration::from_micros(400), 0, None)
        .blade_crash_at(Duration::from_micros(1_200), 0, Duration::from_micros(100));
    let mut p = HtParams::new(SmartConfig::smart_full(4), 4, 2_000, Mix::UpdateOnly);
    p.warmup = Duration::from_millis(1);
    p.measure = Duration::from_millis(2);
    p.seed = 1907;
    p.trace = Some(sink.clone());
    p.fault = Some(plan);
    let report = run_ht(&p);
    (report_fingerprint(&report), sink.chrome_json())
}

/// Renders every behavioural field of a [`RunReport`]. `sim_events` is
/// deliberately excluded: it counts executor bookkeeping (polls + timer
/// fires), and purging cancelled timers legitimately changes it without
/// changing any simulated outcome.
fn report_fingerprint(r: &RunReport) -> String {
    let RunReport {
        ops,
        mops,
        median,
        p99,
        avg_retries,
        retry_hist,
        abort_rate,
        faults_injected,
        faults_seen,
        faults_recovered,
        recovery_p50,
        recovery_p99,
        recovery_hist: _,
        conservation,
        sim_events: _,
    } = r;
    format!(
        "ops={ops}\nmops={mops:?}\nmedian={median:?}\np99={p99:?}\n\
         avg_retries={avg_retries:?}\nretry_hist={retry_hist:?}\n\
         abort_rate={abort_rate:?}\nfaults_injected={faults_injected}\n\
         faults_seen={faults_seen}\nfaults_recovered={faults_recovered}\n\
         recovery_p50={recovery_p50:?}\nrecovery_p99={recovery_p99:?}\n\
         conservation={conservation:?}\n"
    )
}

#[test]
fn fig03_fifo_matches_heap_scheduler_golden() {
    let (report, trace) = fig03_run(SchedulePolicy::Fifo);
    assert!(trace.len() > 1_000, "trace export is implausibly small");
    assert_golden("scheduler_equiv_fig03_fifo.report.txt", &report);
    assert_golden("scheduler_equiv_fig03_fifo.trace.json", &trace);
}

#[test]
fn fig03_seeded_salts_match_heap_scheduler_goldens() {
    for salt in [1u64, 2] {
        let (report, trace) = fig03_run(SchedulePolicy::SeededTieBreak(salt));
        assert_golden(
            &format!("scheduler_equiv_fig03_salt{salt}.report.txt"),
            &report,
        );
        assert_golden(
            &format!("scheduler_equiv_fig03_salt{salt}.trace.json"),
            &trace,
        );
    }
}

#[test]
fn fault_plan_run_matches_heap_scheduler_golden() {
    let (report, trace) = fault_run();
    assert!(
        !report.contains("faults_recovered=0\n"),
        "the chaos plan must actually exercise the recovery path:\n{report}"
    );
    assert_golden("scheduler_equiv_fault.report.txt", &report);
    assert_golden("scheduler_equiv_fault.trace.json", &trace);
}

// ---------------------------------------------------------------------------
// Inline-driver pins (fig07-small, fig14-small, a serve phase, chaos sweep)
// ---------------------------------------------------------------------------

/// FNV-1a-64 of `bytes`. The cells below pin a trace export by hash
/// instead of committing another ~120 kB JSON file per cell.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The trace half of a cell fingerprint: export size plus hash.
fn trace_line(json: &str) -> String {
    format!(
        "trace_bytes={} trace_fnv1a64={:016x}\n",
        json.len(),
        fnv1a64(json.as_bytes())
    )
}

/// Renders a [`ServeReport`]: the byte-stable text form plus a hash of
/// the full `Debug` form (every histogram bucket) with `sim_events`
/// zeroed, for the same reason [`report_fingerprint`] leaves it out.
fn serve_fingerprint(report: &ServeReport) -> String {
    let mut r = report.clone();
    r.sim_events = 0;
    format!(
        "{}debug_fnv1a64={:016x}\n",
        report.render(),
        fnv1a64(format!("{r:?}").as_bytes())
    )
}

/// Runs one hash-table cell on the inline driver with a tracer installed.
fn inline_ht_cell(mut p: HtParams) -> String {
    let sink = TraceSink::with_capacity(TRACE_EVENTS);
    p.trace = Some(sink.clone());
    let report = run_ht(&p);
    format!(
        "{}{}",
        report_fingerprint(&report),
        trace_line(&sink.chrome_json())
    )
}

fn serve_phase() -> ServeSpec {
    let mut spec = serve_spec(800, 0.05, 42);
    spec.threads = 2;
    spec.depth = 4;
    spec
}

#[test]
fn fig07_small_inline_matches_golden() {
    let mut p = HtParams::new(SmartConfig::smart_full(8), 8, 5_000, Mix::WriteHeavy);
    p.warmup = Duration::from_micros(500);
    p.measure = Duration::from_millis(1);
    p.seed = 42;
    assert_golden("inline_fig07_small.fp.txt", &inline_ht_cell(p));
}

#[test]
fn fig14_small_inline_matches_golden() {
    let mut cfg =
        SmartConfig::baseline(QpPolicy::ThreadAwareDoorbell, 8).with_work_req_throttle(true);
    cfg.conflict_backoff = true;
    cfg.dynamic_backoff_limit = true;
    cfg.coroutine_throttle = true;
    let mut p = HtParams::new(cfg, 8, 5_000, Mix::UpdateOnly);
    p.warmup = Duration::from_micros(500);
    p.measure = Duration::from_millis(1);
    p.seed = 42;
    assert_golden("inline_fig14_small.fp.txt", &inline_ht_cell(p));
}

#[test]
fn serve_phase_inline_matches_golden() {
    let sink = TraceSink::with_capacity(TRACE_EVENTS);
    let mut spec = serve_phase();
    spec.trace = Some(sink.clone());
    let report = run_serve(&spec);
    assert_golden(
        "inline_serve_phase.fp.txt",
        &format!(
            "{}{}",
            serve_fingerprint(&report),
            trace_line(&sink.chrome_json())
        ),
    );
}

#[test]
fn fault_seed_sweep_inline_matches_golden() {
    // Eight seeded chaos plans (random packet loss / RNR / latency
    // spikes / crash events) through the full recovery stack. No trace
    // here — the other cells already pin trace bytes.
    let mut fp = String::new();
    for seed in 0..8u64 {
        let plan = FaultPlan::random(seed, Duration::from_millis(1), 1, 2);
        let mut p = HtParams::new(SmartConfig::smart_full(4), 4, 1_000, Mix::UpdateOnly);
        p.warmup = Duration::from_micros(300);
        p.measure = Duration::from_millis(1);
        p.seed = 1907 + seed;
        p.fault = Some(plan);
        fp.push_str(&format!("seed={seed}\n{}", report_fingerprint(&run_ht(&p))));
    }
    assert_golden("inline_fault_sweep.fp.txt", &fp);
}

// ---------------------------------------------------------------------------
// Engine-driver matrix (blades as real engine domains)
// ---------------------------------------------------------------------------

/// Engine worker counts every decomposed cell runs at. A cell fixes its
/// [`DomainPlan`] up front, so every count executes the identical
/// partition and the bytes must not move at all.
const ENGINE_WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Writes the cell fingerprint under `target/equiv/` so the CI `pdes`
/// job can upload the whole matrix as a build artifact.
fn publish_fingerprint(name: &str, fp: &str) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/equiv");
    if std::fs::create_dir_all(&dir).is_ok() {
        let _ = std::fs::write(dir.join(name), fp);
    }
}

/// Runs one decomposed cell at every engine worker count and asserts the
/// full fingerprint (report bytes, blade artifacts, engine counters and
/// trace hash) matches the committed golden each time — so the bytes are
/// pinned across worker counts *and* across commits.
fn assert_decomposed_golden<F>(label: &str, run: F)
where
    F: Fn(usize) -> String,
{
    for &workers in &ENGINE_WORKERS {
        let fp = run(workers);
        if workers == ENGINE_WORKERS[0] {
            publish_fingerprint(&format!("{label}.fp.txt"), &fp);
        }
        assert_remote_blades_served(label, &fp);
        assert_golden(&format!("{label}.fp.txt"), &fp);
    }
}

/// Every remote blade's artifact line must report `served > 0`: a cell
/// whose traffic never reaches a blade domain gates nothing there.
fn assert_remote_blades_served(label: &str, fp: &str) {
    let served: Vec<u64> = fp
        .lines()
        .filter(|l| l.starts_with("blade"))
        .filter_map(|l| l.split_whitespace().find_map(|w| w.strip_prefix("served=")))
        .map(|v| v.parse().expect("served count"))
        .collect();
    assert!(!served.is_empty(), "{label}: no blade artifact lines");
    assert!(
        served.iter().all(|&n| n > 0),
        "{label}: a remote blade served nothing: {served:?}"
    );
}

#[test]
fn matrix_fig07_decomposed_plans_are_byte_identical_across_engine_workers() {
    // 20 000 keys build two subtables, so both blades hold buckets.
    let mut p = HtParams::new(SmartConfig::smart_full(4), 4, 20_000, Mix::WriteHeavy);
    p.warmup = Duration::from_micros(500);
    p.measure = Duration::from_millis(1);
    p.seed = 42;
    for (pname, plan) in [
        ("per_blade", DomainPlan::per_blade(1, p.blades as u32)),
        // Blade 0 shares the compute domain, blade 1 is remote: the
        // same-domain verb path and the `RemotePort` path in one run.
        ("colocated", DomainPlan::custom(vec![0], vec![0, 1])),
    ] {
        let p = p.clone();
        assert_decomposed_golden(&format!("decomposed_fig07_{pname}"), move |workers| {
            let sink = TraceSink::with_capacity(TRACE_EVENTS);
            let mut p = p.clone();
            p.trace = Some(sink.clone());
            let d = run_ht_decomposed(&p, &plan, workers);
            format!(
                "{}blade_log:\n{}epochs={} envelopes={} blade_requests={}\n{}",
                report_fingerprint(&d.report),
                d.blade_log,
                d.epochs,
                d.envelopes,
                d.blade_requests,
                trace_line(&sink.chrome_json())
            )
        });
    }
}

#[test]
fn matrix_serve_decomposed_plans_are_byte_identical_across_engine_workers() {
    let spec = serve_phase();
    let blades = spec.blades as u32;
    for (pname, plan) in [
        ("per_blade", DomainPlan::per_blade(1, blades)),
        // Blades 0 and 2 share one remote domain, blade 1 has its own.
        ("shared", DomainPlan::for_workers(2, 1, blades)),
    ] {
        let spec = spec.clone();
        assert_decomposed_golden(&format!("decomposed_serve_{pname}"), move |workers| {
            let sink = TraceSink::with_capacity(TRACE_EVENTS);
            let mut spec = spec.clone();
            spec.trace = Some(sink.clone());
            let d = run_serve_decomposed(&spec, &plan, workers);
            format!(
                "{}blade_log:\n{}epochs={} envelopes={} blade_requests={}\n{}",
                serve_fingerprint(&d.report),
                d.blade_log,
                d.epochs,
                d.envelopes,
                d.blade_requests,
                trace_line(&sink.chrome_json())
            )
        });
    }
}

#[test]
fn decomposed_envelope_accounting_matches_cross_domain_wrs() {
    // Fault-free runs in the two pinned bench shapes: every work request
    // that crosses the partition becomes exactly one request envelope at
    // its blade domain (plus one completion envelope back), and the
    // node-side crossing counter agrees with the engine's delivery count.
    for (label, cfg) in [
        (
            "fig03",
            SmartConfig::baseline(QpPolicy::ThreadAwareDoorbell, 2),
        ),
        ("fig07", SmartConfig::smart_full(2)),
    ] {
        let mut p = HtParams::new(cfg, 2, 500, Mix::ReadHeavy);
        p.warmup = Duration::from_micros(300);
        p.measure = Duration::from_millis(1);
        p.seed = 7;
        let plan = DomainPlan::per_blade(1, p.blades as u32);
        let d = run_ht_decomposed(&p, &plan, 2);
        assert!(d.report.ops > 0, "{label}: no ops through blade domains");
        assert_eq!(
            d.cross_domain_wrs, d.blade_requests,
            "{label}: node crossing counter != request envelopes delivered"
        );
        assert_eq!(
            d.envelopes,
            2 * d.blade_requests,
            "{label}: request/completion envelope pairing broken"
        );
    }
}
