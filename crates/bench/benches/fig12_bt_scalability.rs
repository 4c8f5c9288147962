//! Figure 12: B+Tree throughput — Sherman+, Sherman+ w/ SL and SMART-BT
//! (§6.2.3). Panels (a)–(c): scale-up on one server; (d)–(f): scale-out.
//!
//! Expected shape: on write-heavy the three are close (HOCL dominates);
//! on read-heavy/read-only, speculative lookup lifts Sherman+ by cutting
//! read amplification (bandwidth-bound → IOPS-bound), and SMART's
//! thread-aware allocation is needed to scale the IOPS-bound variant
//! past ~64 threads (paper: 2.0× total on read-only).

use smart_bench::{banner, run, BenchTable, BtParams, BtVariant, Mode, Spec};
use smart_rt::Duration;
use smart_workloads::ycsb::Mix;

fn main() {
    let mode = Mode::from_env();
    banner("Figure 12: B+Tree scalability", mode);
    let keys = mode.pick(200_000, 2_000_000);
    let variants = [
        BtVariant::ShermanPlus,
        BtVariant::ShermanPlusSl,
        BtVariant::SmartBt,
    ];
    let mixes = [
        ("write-heavy", Mix::WriteHeavy),
        ("read-heavy", Mix::ReadHeavy),
        ("read-only", Mix::ReadOnly),
    ];
    let warmup = mode.pick(Duration::from_millis(3), Duration::from_millis(6));
    let measure = mode.pick(Duration::from_millis(4), Duration::from_millis(15));

    // (a)-(c): scale-up; 94 worker threads max (2 cores serve the blade).
    let threads_sweep: Vec<usize> = mode.pick(
        vec![2, 8, 16, 32, 48, 72, 94],
        vec![1, 2, 4, 8, 16, 24, 32, 48, 64, 80, 94],
    );
    let mut table = BenchTable::new("fig12_scaleup", &["mix", "system", "threads", "mops"]);
    for (mixname, mix) in mixes {
        for variant in variants {
            for &threads in &threads_sweep {
                let mut p = BtParams::new(variant, threads, keys, mix);
                p.warmup = warmup;
                p.measure = measure;
                let spec = Spec::Bt(p);
                let r = run(&spec, &spec.single_plan(), 1).report;
                eprintln!(
                    "  {mixname} {} threads={threads}: {:.2} MOPS",
                    variant.name(),
                    r.mops
                );
                table.row(&[
                    &mixname,
                    &variant.name(),
                    &threads,
                    &format!("{:.3}", r.mops),
                ]);
            }
        }
    }
    table.finish();

    // (d)-(f): scale-out.
    let nodes_sweep: Vec<usize> = mode.pick(vec![1, 2, 4], vec![1, 2, 3, 4, 5, 6]);
    let threads = mode.pick(48, 94);
    let mut table = BenchTable::new(
        "fig12_scaleout",
        &["mix", "system", "compute_nodes", "threads_total", "mops"],
    );
    for (mixname, mix) in mixes {
        for variant in variants {
            for &nodes in &nodes_sweep {
                let mut p = BtParams::new(variant, threads, keys, mix);
                p.compute_nodes = nodes;
                p.warmup = warmup;
                p.measure = measure;
                let spec = Spec::Bt(p);
                let r = run(&spec, &spec.single_plan(), 1).report;
                eprintln!(
                    "  {mixname} {} nodes={nodes}: {:.2} MOPS",
                    variant.name(),
                    r.mops
                );
                table.row(&[
                    &mixname,
                    &variant.name(),
                    &nodes,
                    &(nodes * threads),
                    &format!("{:.3}", r.mops),
                ]);
            }
        }
    }
    table.finish();
}
