//! Figure 13: raw 8-byte READ throughput of SMART's sender-side
//! techniques (§6.3): (a) vs thread count at batch 16; (b) vs batch size
//! at 96 threads. Systems: per-thread QP, per-thread context,
//! +ThdResAlloc, +WorkReqThrot.
//!
//! Expected shape: +ThdResAlloc reaches the 110 MOPS hardware limit;
//! +WorkReqThrot stays there even at 56+ threads / large batches where
//! the unthrottled variants fall off the WQE cache.

use smart::{QpPolicy, SmartConfig};
use smart_bench::{banner, run, BenchTable, MicroOp, MicrobenchSpec, Mode, Spec};
use smart_rt::Duration;

fn configs(threads: usize) -> Vec<(&'static str, SmartConfig)> {
    vec![
        (
            "per-thread-qp",
            SmartConfig::baseline(QpPolicy::PerThreadQp, threads),
        ),
        (
            "per-thread-context",
            SmartConfig::baseline(QpPolicy::PerThreadContext, threads),
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
    ]
}

fn main() {
    let mode = Mode::from_env();
    banner(
        "Figure 13: thread-aware allocation + throttling microbench",
        mode,
    );
    let warmup = mode.pick(Duration::from_millis(1), Duration::from_millis(3));
    // The throttle tuner needs at least one update phase: 5 probes x 8 ms.
    let warmup_throttled = Duration::from_millis(45);
    let measure = mode.pick(Duration::from_millis(3), Duration::from_millis(10));

    let mut table = BenchTable::new("fig13a", &["config", "threads", "mops"]);
    for &threads in &mode.thread_sweep() {
        for (name, cfg) in configs(threads) {
            let throttled = cfg.work_req_throttle;
            let mut spec = MicrobenchSpec::new(cfg, threads, 16);
            spec.op = MicroOp::Read(8);
            spec.warmup = if throttled { warmup_throttled } else { warmup };
            spec.measure = measure;
            let spec = Spec::Micro(spec);
            let r = run(&spec, &spec.single_plan(), 1).report;
            eprintln!("  (a) {name} threads={threads}: {:.1} MOPS", r.mops);
            table.row(&[&name, &threads, &format!("{:.2}", r.mops)]);
        }
    }
    table.finish();

    let batches: Vec<usize> = mode.pick(vec![2, 8, 16, 32, 64], vec![1, 2, 4, 8, 16, 32, 64, 128]);
    let mut table_b = BenchTable::new("fig13b", &["config", "batch", "mops"]);
    for &batch in &batches {
        for (name, cfg) in configs(96) {
            let throttled = cfg.work_req_throttle;
            let mut spec = MicrobenchSpec::new(cfg, 96, batch);
            spec.op = MicroOp::Read(8);
            spec.warmup = if throttled { warmup_throttled } else { warmup };
            spec.measure = measure;
            let spec = Spec::Micro(spec);
            let r = run(&spec, &spec.single_plan(), 1).report;
            eprintln!("  (b) {name} batch={batch}: {:.1} MOPS", r.mops);
            table_b.row(&[&name, &batch, &format!("{:.2}", r.mops)]);
        }
    }
    table_b.finish();
}
