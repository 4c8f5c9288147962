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
//! The second section pins the runners on the remaining bench shapes —
//! fig07-small, fig14-small, a small SmallBank transaction run, a small
//! SMART-BT run, a serve phase (report fingerprint plus the FNV-1a-64 of
//! the trace JSON) and an 8-seed chaos sweep. Their report lines were
//! captured from the old inline driver (one `Simulation` stepped through
//! warm-up, measure and a fixed 5 ms drain; hence the `inline_*` golden
//! names) and have not moved since every run goes through the one
//! engine driver under `DomainPlan::single`. The trace lines did move:
//! the ring pins the run's *tail*, and the drain's trailing `tune`
//! counters are gone.
//!
//! Every cell — the fig03 microbench ones included, since the
//! microbench runs through the same driver — also asserts the
//! stranded-task gate ([`assert_quiesced`]): after quiescence, domain 0
//! holds only the parked CQ pumps and remote-port dispatchers (the serve
//! phase's gate is asserted by the `single` row of the serve matrix,
//! which runs the same spec). The fig03 trace goldens were re-pinned
//! when the microbench moved onto the driver: its run no longer stops
//! at the window's close but drains the in-flight batches.
//!
//! The third section is the **engine-driver matrix** gating the blade
//! engine domains: fig07 and a serve phase run under partitions that
//! cover a domain per blade, blades sharing one remote domain, and a
//! blade co-located with the compute domain next to a remote one, and
//! SmallBank, SMART-BT and the fig03 microbench run with a domain per
//! blade, at 1/2/4/8 engine workers. Every leg — report bytes, blade-domain
//! artifacts, epoch/envelope counters and trace hash — must match the
//! committed golden exactly, so the bytes are pinned across worker
//! counts and across commits. The fingerprints are also published under
//! `target/equiv/` for the CI `pdes` job to upload.

use std::path::PathBuf;

use smart_bench::{
    run, serve_spec, BtParams, BtVariant, DtxParams, DtxWorkload, HtParams, MicroOp,
    MicrobenchSpec, RunReport, Spec,
};
use smart_lab::smart::{QpPolicy, SmartConfig};
use smart_lab::smart_fault::FaultPlan;
use smart_lab::smart_rnic::{BladeId, DomainPlan};
use smart_lab::smart_rt::pdes::DomainId;
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

/// The fig03-style microbench point (thread-aware doorbell QPs, depth
/// 8, one blade).
fn fig03_spec() -> MicrobenchSpec {
    let mut spec = MicrobenchSpec::new(
        SmartConfig::baseline(QpPolicy::ThreadAwareDoorbell, 4),
        4,
        8,
    );
    spec.op = MicroOp::Read(8);
    spec.warmup = Duration::from_micros(300);
    spec.measure = Duration::from_millis(1);
    spec.seed = 42;
    spec
}

/// One fig03 point with a tracer installed, under the given tie-break
/// policy.
fn fig03_run(schedule: SchedulePolicy) -> (String, String) {
    let sink = TraceSink::with_capacity(TRACE_EVENTS);
    let mut spec = fig03_spec();
    spec.trace = Some(sink.clone());
    spec.schedule = schedule;
    let threads = spec.threads;
    let report = single(Spec::Micro(spec));
    assert_quiesced(
        &format!("fig03 {schedule:?}"),
        report.live_tasks,
        threads,
        0,
    );
    (micro_fingerprint(&report), sink.chrome_json())
}

/// Renders a microbench [`RunReport`] in the derived `Debug` form of the
/// report type the microbench had before it joined [`RunReport`] (the
/// window's ops and rate, DRAM bytes per WR and the two cache hit
/// ratios), so its goldens keep their bytes.
fn micro_fingerprint(r: &RunReport) -> String {
    let RunReport {
        ops,
        mops,
        dram_bytes_per_op,
        wqe_hit_ratio,
        mtt_hit_ratio,
        ..
    } = r;
    format!(
        "MicrobenchReport {{ ops: {ops:?}, mops: {mops:?}, dram_bytes_per_op: \
         {dram_bytes_per_op:?}, wqe_hit_ratio: {wqe_hit_ratio:?}, mtt_hit_ratio: \
         {mtt_hit_ratio:?} }}\n"
    )
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
    let report = single(Spec::Ht(p.clone()));
    assert_quiesced("fault", report.live_tasks, p.threads, 0);
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
        dram_bytes_per_op: _,
        wqe_hit_ratio: _,
        mtt_hit_ratio: _,
        faults_injected,
        faults_seen,
        faults_recovered,
        recovery_p50,
        recovery_p99,
        recovery_hist: _,
        conservation,
        sim_events: _,
        live_tasks: _,
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

/// `spec` under its single plan on one engine worker.
fn single(spec: Spec) -> RunReport {
    run(&spec, &spec.single_plan(), 1).report
}

/// The stranded-task gate. Once a run has quiesced, domain 0 holds only
/// the tasks parked for good: one CQ pump per `SmartThread` and one reply
/// dispatcher per `RemotePort` (one per remote blade). A worker or
/// controller stranded by a lost wakeup is one more.
fn assert_quiesced(label: &str, live_tasks: usize, threads: usize, remote_blades: usize) {
    assert_eq!(
        live_tasks,
        threads + remote_blades,
        "{label}: tasks left in domain 0 after quiescence"
    );
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
// Runner pins (fig07-small, fig14-small, DTX, B+Tree, a serve phase, chaos
// sweep)
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

/// Runs one closed-loop cell of `threads` `SmartThread`s with a tracer
/// installed: `run` puts the sink into its params and runs them.
fn traced_cell(threads: usize, run: impl FnOnce(TraceSink) -> RunReport) -> String {
    let sink = TraceSink::with_capacity(TRACE_EVENTS);
    let report = run(sink.clone());
    assert_quiesced("cell", report.live_tasks, threads, 0);
    format!(
        "{}{}",
        report_fingerprint(&report),
        trace_line(&sink.chrome_json())
    )
}

/// Runs one hash-table cell under its single plan with a tracer
/// installed.
fn inline_ht_cell(mut p: HtParams) -> String {
    traced_cell(p.compute_nodes * p.threads, |sink| {
        p.trace = Some(sink);
        single(Spec::Ht(p))
    })
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
fn dtx_smallbank_small_inline_matches_golden() {
    let mut p = DtxParams::new(SmartConfig::smart_full(4), 4, DtxWorkload::SmallBank, 2_000);
    p.warmup = Duration::from_micros(500);
    p.measure = Duration::from_millis(1);
    let fp = traced_cell(p.threads, |sink| {
        p.trace = Some(sink);
        single(Spec::Dtx(p))
    });
    assert!(!fp.starts_with("ops=0\n"), "no transaction committed");
    assert_golden("inline_dtx_smallbank.fp.txt", &fp);
}

#[test]
fn bt_smart_small_inline_matches_golden() {
    let mut p = BtParams::new(BtVariant::SmartBt, 4, 5_000, Mix::WriteHeavy);
    p.warmup = Duration::from_micros(500);
    p.measure = Duration::from_millis(1);
    let fp = traced_cell(p.threads, |sink| {
        p.trace = Some(sink);
        single(Spec::Bt(p))
    });
    assert!(!fp.starts_with("ops=0\n"), "no tree operation completed");
    assert_golden("inline_bt_smart.fp.txt", &fp);
}

#[test]
fn serve_phase_inline_matches_golden() {
    let sink = TraceSink::with_capacity(TRACE_EVENTS);
    let mut spec = serve_phase();
    spec.trace = Some(sink.clone());
    // `run_serve` returns no `live_tasks`; the `single` row of the serve
    // matrix runs this spec through the same driver and asserts the gate.
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
        let report = single(Spec::Ht(p.clone()));
        assert_quiesced(
            &format!("sweep seed {seed}"),
            report.live_tasks,
            p.threads,
            0,
        );
        fp.push_str(&format!("seed={seed}\n{}", report_fingerprint(&report)));
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

/// `FaultPlan::random` seeds of the decomposed fault cell.
const FAULT_SEEDS: [u64; 2] = [0, 1];

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
fn assert_decomposed_golden<F>(label: &str, remote_blades: usize, cell: F)
where
    F: Fn(usize) -> String,
{
    for &workers in &ENGINE_WORKERS {
        let fp = cell(workers);
        if workers == ENGINE_WORKERS[0] {
            publish_fingerprint(&format!("{label}.fp.txt"), &fp);
        }
        assert_remote_blades_served(label, remote_blades, &fp);
        assert_golden(&format!("{label}.fp.txt"), &fp);
    }
}

/// Blades of `0..blades` the plan puts outside the compute domain.
fn remote_blades(plan: &DomainPlan, blades: u32) -> usize {
    (0..blades)
        .filter(|&b| plan.blade_domain(BladeId(b)) != DomainId(0))
        .count()
}

/// Every remote blade must have an artifact line reporting `served > 0`:
/// a cell whose traffic never reaches a blade domain gates nothing
/// there. A plan with no remote blade has no lines.
fn assert_remote_blades_served(label: &str, remote: usize, fp: &str) {
    let served: Vec<u64> = fp
        .lines()
        .filter(|l| l.starts_with("blade"))
        .filter_map(|l| l.split_whitespace().find_map(|w| w.strip_prefix("served=")))
        .map(|v| v.parse().expect("served count"))
        .collect();
    assert_eq!(
        served.len(),
        remote,
        "{label}: one artifact line per remote blade"
    );
    assert!(
        served.iter().all(|&n| n > 0),
        "{label}: a remote blade served nothing: {served:?}"
    );
}

/// `spec` with `sink` installed as its tracer.
fn with_trace(spec: &Spec, sink: TraceSink) -> Spec {
    let mut spec = spec.clone();
    match &mut spec {
        Spec::Ht(p) => p.trace = Some(sink),
        Spec::Dtx(p) => p.trace = Some(sink),
        Spec::Bt(p) => p.trace = Some(sink),
        Spec::Micro(s) => s.trace = Some(sink),
    }
    spec
}

/// Runs a cell of `threads` `SmartThread`s decomposed over `plan` with a
/// tracer installed, through [`assert_decomposed_golden`].
fn assert_closed_loop_matrix(label: &str, spec: &Spec, plan: &DomainPlan, threads: usize) {
    let remote = remote_blades(plan, spec.cluster_config().memory_blades as u32);
    let fingerprint = match spec {
        Spec::Micro(_) => micro_fingerprint,
        _ => report_fingerprint,
    };
    assert_decomposed_golden(label, remote, |workers| {
        let sink = TraceSink::with_capacity(TRACE_EVENTS);
        let d = run(&with_trace(spec, sink.clone()), plan, workers);
        assert_quiesced(label, d.live_tasks, threads, remote);
        format!(
            "{}blade_log:\n{}epochs={} envelopes={} blade_requests={}\n{}",
            fingerprint(&d.report),
            d.blade_log,
            d.epochs,
            d.envelopes,
            d.blade_requests,
            trace_line(&sink.chrome_json())
        )
    });
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
        // No blade crosses: the engine runs the compute domain alone.
        ("single", DomainPlan::single(1, p.blades as u32)),
    ] {
        let label = format!("decomposed_fig07_{pname}");
        assert_closed_loop_matrix(&label, &Spec::Ht(p.clone()), &plan, p.threads);
    }
}

#[test]
fn matrix_fig03_decomposed_per_blade_is_byte_identical_across_engine_workers() {
    // The fig03 point on two blades, each in its own domain. The golden
    // was captured from the microbench's own plan-taking entry before it
    // became `Spec::Micro` of the one driver.
    let mut spec = fig03_spec();
    spec.blades = 2;
    spec.region_bytes = 1 << 20;
    let threads = spec.threads;
    let plan = DomainPlan::per_blade(1, 2);
    assert_closed_loop_matrix(
        "decomposed_fig03_per_blade",
        &Spec::Micro(spec),
        &plan,
        threads,
    );
}

#[test]
fn matrix_dtx_smallbank_decomposed_per_blade_is_byte_identical_across_engine_workers() {
    // The `inline_dtx_smallbank` shape; each blade holds half the rows.
    let mut p = DtxParams::new(SmartConfig::smart_full(4), 4, DtxWorkload::SmallBank, 2_000);
    p.warmup = Duration::from_micros(500);
    p.measure = Duration::from_millis(1);
    let spec = Spec::Dtx(p.clone());
    let plan = DomainPlan::per_blade(1, spec.cluster_config().memory_blades as u32);
    assert_closed_loop_matrix(
        "decomposed_dtx_smallbank_per_blade",
        &spec,
        &plan,
        p.threads,
    );
}

#[test]
fn matrix_bt_smart_decomposed_per_blade_is_byte_identical_across_engine_workers() {
    // The `inline_bt_smart` shape; tree nodes round-robin over the blades.
    let mut p = BtParams::new(BtVariant::SmartBt, 4, 5_000, Mix::WriteHeavy);
    p.warmup = Duration::from_micros(500);
    p.measure = Duration::from_millis(1);
    let spec = Spec::Bt(p.clone());
    let plan = DomainPlan::per_blade(1, spec.cluster_config().memory_blades as u32);
    assert_closed_loop_matrix("decomposed_bt_smart_per_blade", &spec, &plan, p.threads);
}

#[test]
fn matrix_serve_decomposed_plans_are_byte_identical_across_engine_workers() {
    let spec = serve_phase();
    let blades = spec.blades as u32;
    for (pname, plan) in [
        ("per_blade", DomainPlan::per_blade(1, blades)),
        // Blades 0 and 2 share one remote domain, blade 1 has its own.
        ("shared", DomainPlan::for_workers(2, 1, blades)),
        ("single", DomainPlan::single(1, blades)),
    ] {
        let spec = spec.clone();
        let remote = remote_blades(&plan, blades);
        assert_decomposed_golden(
            &format!("decomposed_serve_{pname}"),
            remote,
            move |workers| {
                let sink = TraceSink::with_capacity(TRACE_EVENTS);
                let mut spec = spec.clone();
                spec.trace = Some(sink.clone());
                let d = run_serve_decomposed(&spec, &plan, workers);
                assert_quiesced(pname, d.live_tasks, spec.threads, remote);
                format!(
                    "{}blade_log:\n{}epochs={} envelopes={} blade_requests={}\n{}",
                    serve_fingerprint(&d.report),
                    d.blade_log,
                    d.epochs,
                    d.envelopes,
                    d.blade_requests,
                    trace_line(&sink.chrome_json())
                )
            },
        );
    }
}

#[test]
fn matrix_fault_decomposed_per_blade_is_byte_identical_across_engine_workers() {
    // Two seeded chaos plans on the fig07-small shape with every blade
    // remote: post-side draws and QP errors fire in the compute domain,
    // the crash windows on the authoritative blades in their own domains.
    // 20 000 keys build two subtables, so the crashed blade holds buckets.
    let mut p = HtParams::new(SmartConfig::smart_full(8), 8, 20_000, Mix::WriteHeavy);
    p.warmup = Duration::from_micros(500);
    p.measure = Duration::from_millis(1);
    p.seed = 42;
    let plan = DomainPlan::per_blade(1, p.blades as u32);
    let remote = remote_blades(&plan, p.blades as u32) * FAULT_SEEDS.len();
    assert_decomposed_golden("decomposed_fault_per_blade", remote, move |workers| {
        let mut fp = String::new();
        for seed in FAULT_SEEDS {
            let mut p = p.clone();
            p.fault = Some(FaultPlan::random(
                seed,
                Duration::from_micros(1_500),
                1,
                p.blades as u32,
            ));
            let d = run(&Spec::Ht(p.clone()), &plan, workers);
            assert_quiesced("fault_per_blade", d.live_tasks, p.threads, p.blades);
            let r = &d.report;
            assert!(r.faults_injected > 0, "seed {seed}: no fault fired");
            assert!(r.faults_recovered > 0, "seed {seed}: nothing recovered");
            assert!(
                r.conservation.is_empty(),
                "seed {seed}: {:?}",
                r.conservation
            );
            fp += &format!(
                "seed={seed}\n{}blade_log:\n{}epochs={} envelopes={} blade_requests={}\n",
                report_fingerprint(r),
                d.blade_log,
                d.epochs,
                d.envelopes,
                d.blade_requests,
            );
        }
        fp
    });
}

#[test]
fn decomposed_envelopes_pair_requests_with_replies() {
    // Fault-free runs in the two pinned bench shapes: every work request
    // that crosses the partition becomes exactly one request envelope at
    // its blade domain plus one completion envelope back. Routing is
    // checked where it can break: `run_decomposed` panics if a blade
    // behind a remote port served anything on its domain-0 shadow, and a
    // request lost between the domains strands its worker, which the
    // quiescence gate catches.
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
        let d = run(&Spec::Ht(p.clone()), &plan, 2);
        assert_quiesced(label, d.live_tasks, p.threads, p.blades);
        assert!(d.report.ops > 0, "{label}: no ops through blade domains");
        assert!(
            d.blade_requests >= d.report.ops,
            "{label}: {} request envelopes for {} ops",
            d.blade_requests,
            d.report.ops
        );
        assert_eq!(
            d.envelopes,
            2 * d.blade_requests,
            "{label}: request/completion envelope pairing broken"
        );
    }
}
