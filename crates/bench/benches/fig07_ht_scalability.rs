//! Figure 7: hash-table throughput, RACE vs SMART-HT (§6.2.1).
//! Panels (a)–(c): scale-up on one compute node (write-heavy /
//! read-heavy / read-only, zipf 0.99). Panels (d)–(f): scale-out with
//! 96 threads per compute node.
//!
//! Expected shape: RACE peaks early (8–16 threads on write-heavy) and
//! collapses; SMART-HT keeps scaling (paper: up to 132× on write-heavy
//! scale-out, 2–3.8× on read-only).
//!
//! Every `(mix, system, point)` run is an independent simulation, so the
//! sweep fans out over `smart_bench::parallel_map` and merges rows in
//! submission order — the table and CSV are byte-identical to a
//! sequential sweep (`SMART_BENCH_THREADS=1` forces one).

use smart::{QpPolicy, SmartConfig};
use smart_bench::{banner, parallel_map, run, BenchTable, HtParams, Mode, Spec};
use smart_rt::Duration;
use smart_workloads::ycsb::Mix;

fn mixes() -> [(&'static str, Mix); 3] {
    [
        ("write-heavy", Mix::WriteHeavy),
        ("read-heavy", Mix::ReadHeavy),
        ("read-only", Mix::ReadOnly),
    ]
}

type ConfigOf = fn(usize) -> SmartConfig;

fn systems() -> [(&'static str, ConfigOf); 2] {
    [
        (
            "RACE",
            (|t| SmartConfig::baseline(QpPolicy::PerThreadQp, t)) as ConfigOf,
        ),
        ("SMART-HT", SmartConfig::smart_full as ConfigOf),
    ]
}

fn main() {
    let mode = Mode::from_env();
    banner("Figure 7: hash-table scalability (RACE vs SMART-HT)", mode);
    let keys = mode.pick(200_000, 2_000_000);
    let warmup = mode.pick(Duration::from_millis(2), Duration::from_millis(5));
    let measure = mode.pick(Duration::from_millis(4), Duration::from_millis(15));

    // (a)-(c): scale-up.
    let mut table = BenchTable::new("fig07_scaleup", &["mix", "system", "threads", "mops"]);
    let mut points = Vec::new();
    for (mixname, mix) in mixes() {
        for (sys, cfg_of) in systems() {
            for &threads in &mode.thread_sweep() {
                points.push((mixname, mix, sys, cfg_of, threads));
            }
        }
    }
    let rows = parallel_map(points, |_, (mixname, mix, sys, cfg_of, threads)| {
        let mut p = HtParams::new(cfg_of(threads), threads, keys, mix);
        p.warmup = warmup;
        p.measure = measure;
        let spec = Spec::Ht(p);
        let r = run(&spec, &spec.single_plan(), 1).report;
        (
            format!("  {mixname} {sys} threads={threads}: {:.2} MOPS", r.mops),
            vec![
                mixname.to_string(),
                sys.to_string(),
                threads.to_string(),
                format!("{:.3}", r.mops),
            ],
        )
    });
    for (line, cells) in rows {
        eprintln!("{line}");
        table.row_strings(cells);
    }
    table.finish();

    // (d)-(f): scale-out.
    let nodes_sweep: Vec<usize> = mode.pick(vec![1, 2, 4], vec![1, 2, 3, 4, 5, 6]);
    let threads = mode.pick(48, 96);
    let mut table = BenchTable::new(
        "fig07_scaleout",
        &["mix", "system", "compute_nodes", "threads_total", "mops"],
    );
    let mut points = Vec::new();
    for (mixname, mix) in mixes() {
        for (sys, cfg_of) in systems() {
            for &nodes in &nodes_sweep {
                points.push((mixname, mix, sys, cfg_of, nodes));
            }
        }
    }
    let rows = parallel_map(points, |_, (mixname, mix, sys, cfg_of, nodes)| {
        let mut p = HtParams::new(cfg_of(threads), threads, keys, mix);
        p.compute_nodes = nodes;
        p.warmup = warmup;
        p.measure = measure;
        let spec = Spec::Ht(p);
        let r = run(&spec, &spec.single_plan(), 1).report;
        (
            format!(
                "  {mixname} {sys} nodes={nodes} ({} threads): {:.2} MOPS",
                nodes * threads,
                r.mops
            ),
            vec![
                mixname.to_string(),
                sys.to_string(),
                nodes.to_string(),
                (nodes * threads).to_string(),
                format!("{:.3}", r.mops),
            ],
        )
    });
    for (line, cells) in rows {
        eprintln!("{line}");
        table.row_strings(cells);
    }
    table.finish();
}
