//! Figure 9: throughput vs median/p99 latency for the hash table
//! (read-only, 96 threads), RACE vs SMART-HT (§6.2.1). Offered load is
//! swept by pacing each coroutine.
//!
//! Expected shape: SMART-HT's latency-throughput frontier strictly
//! dominates RACE's (paper: −69.6 % median, −80.6 % p99).

use smart::{QpPolicy, SmartConfig};
use smart_bench::{banner, run, us, BenchTable, HtParams, Mode, Spec};
use smart_rt::Duration;
use smart_workloads::ycsb::Mix;

fn main() {
    let mode = Mode::from_env();
    banner("Figure 9: hash-table throughput vs latency", mode);
    let keys = mode.pick(200_000, 2_000_000);
    let threads = 96;
    let paces: Vec<Option<Duration>> = mode
        .pick(
            vec![400u64, 150, 60, 25, 10, 0],
            vec![800, 400, 200, 100, 50, 25, 10, 5, 0],
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
    let mut table = BenchTable::new("fig09", &["system", "pace_us", "mops", "p50_us", "p99_us"]);
    for (sys, cfg_of) in [
        (
            "RACE",
            (|t| SmartConfig::baseline(QpPolicy::PerThreadQp, t)) as fn(usize) -> SmartConfig,
        ),
        (
            "SMART-HT",
            SmartConfig::smart_full as fn(usize) -> SmartConfig,
        ),
    ] {
        for pace in &paces {
            let mut p = HtParams::new(cfg_of(threads), threads, keys, Mix::ReadOnly);
            p.pace = *pace;
            p.warmup = mode.pick(Duration::from_millis(2), Duration::from_millis(5));
            p.measure = mode.pick(Duration::from_millis(5), Duration::from_millis(15));
            let spec = Spec::Ht(p);
            let r = run(&spec, &spec.single_plan(), 1).report;
            let pace_us = pace.map_or(0, |d| d.as_micros() as u64);
            eprintln!(
                "  {sys} pace={pace_us}us: {:.2} MOPS p50={} p99={}",
                r.mops,
                us(r.median),
                us(r.p99)
            );
            table.row(&[
                &sys,
                &pace_us,
                &format!("{:.3}", r.mops),
                &us(r.median),
                &us(r.p99),
            ]);
        }
    }
    table.finish();
}
