//! Figure 10: distributed transaction throughput vs thread count,
//! FORD+ vs SMART-DTX on SmallBank and TATP (§6.2.2).
//!
//! Expected shape: FORD+ peaks around 24–32 threads and collapses under
//! doorbell contention; SMART-DTX keeps scaling (paper: up to 5.2× on
//! SmallBank, 2.6× on TATP).

use smart::{QpPolicy, SmartConfig};
use smart_bench::{banner, run, BenchTable, DtxParams, DtxWorkload, Mode, Spec};
use smart_rt::Duration;

fn main() {
    let mode = Mode::from_env();
    banner("Figure 10: DTX scalability (FORD+ vs SMART-DTX)", mode);
    let rows = mode.pick(20_000, 100_000);
    let mut table = BenchTable::new(
        "fig10",
        &["workload", "system", "threads", "mtps", "abort_rate"],
    );
    for (wname, workload) in [
        ("smallbank", DtxWorkload::SmallBank),
        ("tatp", DtxWorkload::Tatp),
    ] {
        for (sys, cfg_of) in [
            (
                "FORD+",
                (|t| SmartConfig::baseline(QpPolicy::PerThreadQp, t)) as fn(usize) -> SmartConfig,
            ),
            (
                "SMART-DTX",
                SmartConfig::smart_full as fn(usize) -> SmartConfig,
            ),
        ] {
            for &threads in &mode.thread_sweep() {
                let mut p = DtxParams::new(cfg_of(threads), threads, workload, rows);
                p.warmup = mode.pick(Duration::from_millis(2), Duration::from_millis(5));
                p.measure = mode.pick(Duration::from_millis(4), Duration::from_millis(15));
                let spec = Spec::Dtx(p);
                let r = run(&spec, &spec.single_plan(), 1).report;
                eprintln!(
                    "  {wname} {sys} threads={threads}: {:.3} Mtxn/s (abort {:.1}%)",
                    r.mops,
                    r.abort_rate * 100.0
                );
                table.row(&[
                    &wname,
                    &sys,
                    &threads,
                    &format!("{:.4}", r.mops),
                    &format!("{:.4}", r.abort_rate),
                ]);
            }
        }
    }
    table.finish();
}
