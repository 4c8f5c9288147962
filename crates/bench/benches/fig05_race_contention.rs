//! Figure 5: RACE hash-table updates under contention (§3.3):
//! (a) throughput + latency vs thread count (depth 8, θ = 0.99);
//! (b) latency vs Zipfian θ at 16 threads.
//!
//! Expected shape: throughput peaks at low thread counts and decays;
//! p99 latency explodes with threads and with skew (the unsuccessful-
//! retry bottleneck that motivates SMART's conflict avoidance).

use smart::{QpPolicy, SmartConfig};
use smart_bench::{banner, run, us, BenchTable, HtParams, Mode, Spec};
use smart_rt::Duration;
use smart_workloads::ycsb::Mix;

fn main() {
    let mode = Mode::from_env();
    banner("Figure 5: RACE update contention", mode);
    let keys = mode.pick(200_000, 2_000_000);

    let mut table = BenchTable::new(
        "fig05a",
        &["threads", "mops", "p50_us", "p99_us", "avg_retries"],
    );
    for &threads in &mode.thread_sweep() {
        let mut p = HtParams::new(
            SmartConfig::baseline(QpPolicy::PerThreadQp, threads),
            threads,
            keys,
            Mix::UpdateOnly,
        );
        p.warmup = mode.pick(Duration::from_millis(2), Duration::from_millis(5));
        p.measure = mode.pick(Duration::from_millis(5), Duration::from_millis(20));
        let spec = Spec::Ht(p);
        let r = run(&spec, &spec.single_plan(), 1).report;
        eprintln!(
            "  threads={threads}: {:.2} MOPS p50={} p99={} retries={:.2}",
            r.mops,
            us(r.median),
            us(r.p99),
            r.avg_retries
        );
        table.row(&[
            &threads,
            &format!("{:.3}", r.mops),
            &us(r.median),
            &us(r.p99),
            &format!("{:.2}", r.avg_retries),
        ]);
    }
    table.finish();

    let mut table_b = BenchTable::new(
        "fig05b",
        &["theta", "mops", "p50_us", "p99_us", "avg_retries"],
    );
    for &theta in &[0.0, 0.5, 0.8, 0.9, 0.95, 0.99] {
        let mut p = HtParams::new(
            SmartConfig::baseline(QpPolicy::PerThreadQp, 16),
            16,
            keys,
            Mix::UpdateOnly,
        );
        p.theta = theta;
        p.warmup = mode.pick(Duration::from_millis(2), Duration::from_millis(5));
        p.measure = mode.pick(Duration::from_millis(5), Duration::from_millis(20));
        let spec = Spec::Ht(p);
        let r = run(&spec, &spec.single_plan(), 1).report;
        eprintln!(
            "  theta={theta}: {:.2} MOPS p50={} p99={}",
            r.mops,
            us(r.median),
            us(r.p99)
        );
        table_b.row(&[
            &theta,
            &format!("{:.3}", r.mops),
            &us(r.median),
            &us(r.p99),
            &format!("{:.2}", r.avg_retries),
        ]);
    }
    table_b.finish();
}
