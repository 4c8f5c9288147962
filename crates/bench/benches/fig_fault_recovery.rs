//! Fault recovery: goodput under injected RDMA errors plus the
//! recovery-latency CDF (chaos layer + §4.3 recovery semantics).
//!
//! Expected shape: goodput degrades *gracefully* with the injected error
//! rate — every lost work request costs one truncated-exponential
//! backoff round, not a crashed worker — the zero-rate run matches the
//! no-fault baseline within 1 %, a blade crash/restart window costs only
//! the outage itself, and the recovery-latency CDF is dominated by the
//! first backoff step (t0 = 1 µs) with a heavy tail from multi-round
//! retries.

use smart::SmartConfig;
use smart_bench::{banner, run, us, BenchTable, DtxParams, DtxWorkload, HtParams, Mode, Spec};
use smart_fault::FaultPlan;
use smart_rt::Duration;
use smart_workloads::ycsb::Mix;

fn ht_params(mode: Mode, threads: usize, keys: u64, fault: Option<FaultPlan>) -> HtParams {
    let mut p = HtParams::new(
        SmartConfig::smart_full(threads),
        threads,
        keys,
        Mix::ReadHeavy,
    );
    p.warmup = mode.pick(Duration::from_millis(2), Duration::from_millis(5));
    p.measure = mode.pick(Duration::from_millis(5), Duration::from_millis(20));
    p.fault = fault;
    p
}

fn main() {
    let mode = Mode::from_env();
    banner("Fault recovery: goodput under chaos", mode);
    let keys = mode.pick(100_000, 1_000_000);
    let threads = 8;

    // (a) Hash-table goodput vs injected packet-loss rate. The 0-rate
    // plan is *passive*: it draws nothing from the PRNG, so the run must
    // match the no-injector baseline within noise (asserted at 1 %).
    let spec = Spec::Ht(ht_params(mode, threads, keys, None));
    let baseline = run(&spec, &spec.single_plan(), 1).report;
    eprintln!("  baseline (no injector): {:.3} MOPS", baseline.mops);

    let mut table = BenchTable::new(
        "fig_fault_a_goodput",
        &[
            "loss_rate",
            "mops",
            "p50_us",
            "p99_us",
            "injected",
            "recovered",
            "rec_p50_us",
            "rec_p99_us",
        ],
    );
    for &rate in &[0.0, 0.001, 0.01, 0.05] {
        let plan = FaultPlan::new().with_packet_loss(rate);
        let spec = Spec::Ht(ht_params(mode, threads, keys, Some(plan)));
        let r = run(&spec, &spec.single_plan(), 1).report;
        eprintln!(
            "  loss={rate}: {:.3} MOPS injected={} recovered={} rec_p99={}",
            r.mops,
            r.faults_injected,
            r.faults_recovered,
            us(r.recovery_p99)
        );
        assert!(
            r.conservation.is_empty(),
            "credit conservation violated at loss={rate}: {:?}",
            r.conservation
        );
        if rate == 0.0 {
            let drift = (r.mops - baseline.mops).abs() / baseline.mops;
            assert!(
                drift < 0.01,
                "passive plan perturbed the run: {:.3} vs {:.3} MOPS ({:.2} %)",
                r.mops,
                baseline.mops,
                drift * 100.0
            );
            assert_eq!(r.faults_injected, 0, "passive plan injected faults");
        } else {
            assert!(r.faults_injected > 0, "no faults injected at loss={rate}");
        }
        table.row(&[
            &rate,
            &format!("{:.3}", r.mops),
            &us(r.median),
            &us(r.p99),
            &r.faults_injected,
            &r.faults_recovered,
            &us(r.recovery_p50),
            &us(r.recovery_p99),
        ]);
    }
    table.finish();

    // (b) Recovery-latency CDF under a mixed plan: packet loss + RNR
    // rejections + one blade crash/restart window mid-run.
    banner("Fault recovery: latency CDF", mode);
    let crash_at = mode.pick(Duration::from_millis(4), Duration::from_millis(10));
    let plan = FaultPlan::new()
        .with_packet_loss(0.01)
        .with_rnr(0.005)
        .blade_crash_at(crash_at, 1, Duration::from_micros(200));
    let spec = Spec::Ht(ht_params(mode, threads, keys, Some(plan)));
    let r = run(&spec, &spec.single_plan(), 1).report;
    assert!(r.conservation.is_empty(), "{:?}", r.conservation);
    assert!(r.faults_recovered > 0, "mixed plan recovered nothing");
    let mut cdf = BenchTable::new("fig_fault_b_recovery_cdf", &["permille", "latency_us"]);
    for &pm in &[100u32, 250, 500, 750, 900, 950, 990, 999, 1000] {
        cdf.row(&[
            &pm,
            &format!("{:.2}", r.recovery_hist.percentile(pm) as f64 / 1e3),
        ]);
    }
    cdf.finish();

    // (c) Transactions through a blade outage: SmallBank keeps
    // committing after the crash window closes, with zero conservation
    // violations and no stranded workers.
    banner("Fault recovery: DTX blade outage", mode);
    let rows = mode.pick(10_000, 100_000);
    let mut table_c = BenchTable::new(
        "fig_fault_c_dtx_outage",
        &["plan", "mops", "abort_rate", "injected", "recovered"],
    );
    for (label, fault) in [
        ("none", None),
        (
            "crash_200us",
            Some(FaultPlan::new().blade_crash_at(crash_at, 0, Duration::from_micros(200))),
        ),
        (
            "crash+loss",
            Some(FaultPlan::new().with_packet_loss(0.005).blade_crash_at(
                crash_at,
                1,
                Duration::from_micros(200),
            )),
        ),
    ] {
        let mut p = DtxParams::new(
            SmartConfig::smart_full(threads),
            threads,
            DtxWorkload::SmallBank,
            rows,
        );
        p.warmup = mode.pick(Duration::from_millis(2), Duration::from_millis(5));
        p.measure = mode.pick(Duration::from_millis(5), Duration::from_millis(20));
        p.fault = fault;
        let spec = Spec::Dtx(p);
        let r = run(&spec, &spec.single_plan(), 1).report;
        eprintln!(
            "  {label}: {:.3} MOPS abort={:.3} injected={} recovered={}",
            r.mops, r.abort_rate, r.faults_injected, r.faults_recovered
        );
        assert!(r.conservation.is_empty(), "{label}: {:?}", r.conservation);
        assert!(r.ops > 0, "{label}: no transactions completed");
        table_c.row(&[
            &label,
            &format!("{:.3}", r.mops),
            &format!("{:.3}", r.abort_rate),
            &r.faults_injected,
            &r.faults_recovered,
        ]);
    }
    table_c.finish();
}
