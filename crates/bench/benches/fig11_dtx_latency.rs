//! Figure 11: transaction throughput vs median latency at 96 threads ×
//! 8 coroutines (768 concurrent tasks), FORD+ vs SMART-DTX (§6.2.2).
//!
//! Expected shape: similar latency at low load; SMART-DTX reaches much
//! higher committed throughput and its median latency at saturation is a
//! fraction of FORD+'s (paper: −71 % SmallBank, −77 % TATP).

use smart::{QpPolicy, SmartConfig};
use smart_bench::{banner, run, us, BenchTable, DtxParams, DtxWorkload, Mode, Spec};
use smart_rt::Duration;

fn main() {
    let mode = Mode::from_env();
    banner("Figure 11: DTX throughput vs latency", mode);
    let rows = mode.pick(20_000, 100_000);
    let threads = 96;
    let paces: Vec<Option<Duration>> = mode
        .pick(
            vec![800u64, 300, 100, 40, 0],
            vec![1600, 800, 400, 200, 100, 50, 20, 0],
        )
        .into_iter()
        .map(|p_us| {
            if p_us == 0 {
                None
            } else {
                Some(Duration::from_micros(p_us))
            }
        })
        .collect();
    let mut table = BenchTable::new(
        "fig11",
        &["workload", "system", "pace_us", "mtps", "p50_us", "p99_us"],
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
            for pace in &paces {
                let mut p = DtxParams::new(cfg_of(threads), threads, workload, rows);
                p.pace = *pace;
                p.warmup = mode.pick(Duration::from_millis(2), Duration::from_millis(5));
                p.measure = mode.pick(Duration::from_millis(5), Duration::from_millis(15));
                let spec = Spec::Dtx(p);
                let r = run(&spec, &spec.single_plan(), 1).report;
                let pace_us = pace.map_or(0, |d| d.as_micros() as u64);
                eprintln!(
                    "  {wname} {sys} pace={pace_us}us: {:.3} Mtxn/s p50={}",
                    r.mops,
                    us(r.median)
                );
                table.row(&[
                    &wname,
                    &sys,
                    &pace_us,
                    &format!("{:.4}", r.mops),
                    &us(r.median),
                    &us(r.p99),
                ]);
            }
        }
    }
    table.finish();
}
