//! Figure 8: performance breakdown of the hash table — applying SMART's
//! techniques one at a time (§6.2.1): RACE → +ThdResAlloc →
//! +WorkReqThrot → +ConflictAvoid (= SMART-HT).
//!
//! Expected shape: thread-aware allocation dominates on read-only;
//! throttling helps write-heavy at 8–32 threads; conflict avoidance is
//! decisive on skewed write-heavy at high thread counts.

use smart::{QpPolicy, SmartConfig};
use smart_bench::{banner, run, BenchTable, HtParams, Mode, Spec};
use smart_rt::Duration;
use smart_workloads::ycsb::Mix;

fn configs(threads: usize) -> Vec<(&'static str, SmartConfig)> {
    vec![
        (
            "RACE",
            SmartConfig::baseline(QpPolicy::PerThreadQp, threads),
        ),
        (
            "+ThdResAlloc",
            SmartConfig::baseline(QpPolicy::ThreadAwareDoorbell, threads),
        ),
        (
            "+WorkReqThrot",
            SmartConfig::baseline(QpPolicy::ThreadAwareDoorbell, threads)
                .with_work_req_throttle(true),
        ),
        ("+ConflictAvoid", SmartConfig::smart_full(threads)),
    ]
}

fn main() {
    let mode = Mode::from_env();
    banner("Figure 8: hash-table technique breakdown", mode);
    let keys = mode.pick(200_000, 2_000_000);
    let threads_sweep = mode.pick(vec![8, 32, 96], vec![8, 16, 32, 48, 64, 96]);
    let mut table = BenchTable::new("fig08", &["mix", "config", "threads", "mops"]);
    for (mixname, mix) in [
        ("write-heavy", Mix::WriteHeavy),
        ("read-heavy", Mix::ReadHeavy),
        ("read-only", Mix::ReadOnly),
    ] {
        for &threads in &threads_sweep {
            for (name, cfg) in configs(threads) {
                let mut p = HtParams::new(cfg, threads, keys, mix);
                p.warmup = mode.pick(Duration::from_millis(2), Duration::from_millis(5));
                p.measure = mode.pick(Duration::from_millis(4), Duration::from_millis(15));
                let spec = Spec::Ht(p);
                let r = run(&spec, &spec.single_plan(), 1).report;
                eprintln!("  {mixname} {name} threads={threads}: {:.2} MOPS", r.mops);
                table.row(&[&mixname, &name, &threads, &format!("{:.3}", r.mops)]);
            }
        }
    }
    table.finish();
}
