//! Table 1: 8-byte READ throughput under a dynamically changing workload
//! (active thread count oscillates between 36 and 96, batch 64), with
//! and without adaptive work-request throttling (§6.3).
//!
//! Expected shape: without throttling, 96 × 64 outstanding WRs thrash
//! the WQE cache at every high phase; with throttling, throughput stays
//! near the ceiling whenever the changing interval exceeds the epoch
//! length, and still wins (with some loss) for faster changes.
//!
//! Quick mode scales all times down 16× (epoch Δ = 0.5 ms instead of
//! 8 ms, intervals 2–128 ms instead of 32–2048 ms) so the run finishes in
//! seconds; the interval/epoch *ratio* — which is what the table is
//! about — is preserved.

use smart::{QpPolicy, SmartConfig};
use smart_bench::{banner, run, BenchTable, DynamicLoad, MicroOp, MicrobenchSpec, Mode, Spec};
use smart_rt::Duration;

fn main() {
    let mode = Mode::from_env();
    banner("Table 1: dynamically changing workloads", mode);
    let scale = mode.pick(16u64, 1);
    let intervals_ms: Vec<u64> = vec![32, 64, 128, 256, 512, 1024, 2048];
    let mut table = BenchTable::new(
        "table1",
        &[
            "interval_ms(paper)",
            "w/o WorkReqThrot (MOPS)",
            "w/ WorkReqThrot (MOPS)",
        ],
    );
    for &interval in &intervals_ms {
        let scaled = Duration::from_micros(interval * 1000 / scale);
        let mut row: Vec<String> = vec![interval.to_string()];
        for throttled in [false, true] {
            let mut cfg = SmartConfig::baseline(QpPolicy::ThreadAwareDoorbell, 96)
                .with_work_req_throttle(throttled);
            cfg.probe_interval = Duration::from_micros(8_000 / scale);
            let mut spec = MicrobenchSpec::new(cfg, 96, 64);
            spec.op = MicroOp::Read(8);
            spec.dynamic = Some(DynamicLoad {
                interval: scaled,
                low_threads: 36,
                high_threads: 96,
            });
            // Cover several changing intervals and at least one full
            // throttling epoch.
            spec.warmup = Duration::from_micros(70_000 / scale);
            let window = (interval * 1000 / scale * 4).max(40_000 / scale);
            spec.measure = Duration::from_micros(window);
            let spec = Spec::Micro(spec);
            let r = run(&spec, &spec.single_plan(), 1).report;
            eprintln!(
                "  interval={interval}ms throttled={throttled}: {:.1} MOPS",
                r.mops
            );
            row.push(format!("{:.1}", r.mops));
        }
        table.row(&[&row[0], &row[1], &row[2]]);
    }
    table.finish();
}
