//! Figure 14: conflict avoidance on SMART-HT with 100 % updates,
//! zipf 0.99 (§6.3): (a) throughput and (b) average retries per update
//! vs thread count for None / +Backoff / +DynLimit / +CoroThrot;
//! (c) the retry-count distribution at 96 threads.
//!
//! Expected shape: without avoidance retries explode (paper: 11.5 per
//! update at 96 threads); +Backoff caps them below ~1.7; +DynLimit and
//! +CoroThrot recover throughput on top (≈ 1.6×/1.67× of +Backoff);
//! with everything on, ≥ 90 % of updates need no retry.
//!
//! Sweep points fan out over `smart_bench::parallel_map` and merge in
//! submission order, so tables and CSVs are byte-identical to a
//! sequential sweep.

use smart::{QpPolicy, SmartConfig};
use smart_bench::{banner, parallel_map, run, trace_requested, BenchTable, HtParams, Mode, Spec};
use smart_rt::Duration;
use smart_trace::TraceSink;
use smart_workloads::ycsb::Mix;

fn configs(threads: usize) -> Vec<(&'static str, SmartConfig)> {
    let base = || {
        SmartConfig::baseline(QpPolicy::ThreadAwareDoorbell, threads).with_work_req_throttle(true)
    };
    let mut backoff = base();
    backoff.conflict_backoff = true;
    let mut dyn_limit = backoff.clone();
    dyn_limit.dynamic_backoff_limit = true;
    let mut coro = dyn_limit.clone();
    coro.coroutine_throttle = true;
    vec![
        ("none", base()),
        ("+Backoff", backoff),
        ("+DynLimit", dyn_limit),
        ("+CoroThrot", coro),
    ]
}

fn main() {
    let mode = Mode::from_env();
    banner("Figure 14: conflict avoidance", mode);
    let keys = mode.pick(200_000, 2_000_000);
    let threads_sweep = mode.pick(vec![8, 32, 96], vec![8, 16, 32, 48, 64, 96]);
    let trace = trace_requested();
    let max_threads = threads_sweep.iter().copied().max().unwrap_or(0);
    let mut table = BenchTable::new("fig14ab", &["config", "threads", "mops", "avg_retries"]);
    let mut points = Vec::new();
    for &threads in &threads_sweep {
        for (name, cfg) in configs(threads) {
            points.push((name, cfg, threads));
        }
    }
    let rows = parallel_map(points, |_, (name, cfg, threads)| {
        let mut p = HtParams::new(cfg, threads, keys, Mix::UpdateOnly);
        p.warmup = mode.pick(Duration::from_millis(30), Duration::from_millis(60));
        p.measure = mode.pick(Duration::from_millis(5), Duration::from_millis(20));
        // SMART_TRACE=1: show where update latency goes (backoff vs
        // credit wait vs fabric) at the contended end of the sweep.
        if trace && threads == max_threads {
            p.trace = Some(TraceSink::new());
        }
        let sink = p.trace.clone();
        let spec = Spec::Ht(p);
        let r = run(&spec, &spec.single_plan(), 1).report;
        let mut log = format!(
            "  {name} threads={threads}: {:.2} MOPS, {:.2} retries/op\n",
            r.mops, r.avg_retries
        );
        if let Some(sink) = sink {
            log.push_str(&sink.attribution().render());
        }
        (
            log,
            vec![
                name.to_string(),
                threads.to_string(),
                format!("{:.3}", r.mops),
                format!("{:.3}", r.avg_retries),
            ],
        )
    });
    for (log, cells) in rows {
        eprint!("{log}");
        table.row_strings(cells);
    }
    table.finish();

    // (c): retry distribution at 96 threads, none vs everything.
    let mut table_c = BenchTable::new("fig14c", &["config", "retries", "fraction"]);
    let points_c = vec![
        ("none", configs(96).remove(0).1),
        ("+CoroThrot", configs(96).remove(3).1),
    ];
    let rows = parallel_map(points_c, |_, (name, cfg)| {
        let mut p = HtParams::new(cfg, 96, keys, Mix::UpdateOnly);
        p.warmup = mode.pick(Duration::from_millis(30), Duration::from_millis(60));
        p.measure = mode.pick(Duration::from_millis(6), Duration::from_millis(20));
        let spec = Spec::Ht(p);
        let r = run(&spec, &spec.single_plan(), 1).report;
        let total: u64 = r.retry_hist.iter().sum();
        let mut cells = Vec::new();
        for (retries, &count) in r.retry_hist.iter().enumerate().take(12) {
            let frac = if total == 0 {
                0.0
            } else {
                count as f64 / total as f64
            };
            cells.push(vec![
                name.to_string(),
                retries.to_string(),
                format!("{:.4}", frac),
            ]);
        }
        let zero_frac = if total == 0 {
            1.0
        } else {
            r.retry_hist[0] as f64 / total as f64
        };
        let log = format!(
            "  (c) {name}: {:.1}% of updates retry-free\n",
            zero_frac * 100.0
        );
        (log, cells)
    });
    for (log, cells) in rows {
        for row in cells {
            table_c.row_strings(row);
        }
        eprint!("{log}");
    }
    table_c.finish();
}
