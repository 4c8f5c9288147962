//! Figure 4: (a) READ/WRITE throughput and (b) average DRAM (PCIe
//! inbound) bytes per work request, as functions of thread count ×
//! outstanding work requests (§3.2).
//!
//! Expected shape: throughput peaks around 768 total OWRs (96 × 8),
//! then degrades as the WQE cache thrashes; DRAM bytes/WR grow from
//! ≈ 93 B to ≈ 180 B at 96 × 32.

use smart::{QpPolicy, SmartConfig};
use smart_bench::{banner, run, BenchTable, MicroOp, MicrobenchSpec, Mode, Spec};
use smart_rt::Duration;

fn main() {
    let mode = Mode::from_env();
    banner("Figure 4: WQE-cache thrashing", mode);
    let threads_sweep: Vec<usize> = mode.pick(vec![24, 48, 96], vec![12, 24, 36, 48, 72, 96]);
    let depth_sweep: Vec<usize> = mode.pick(vec![2, 8, 16, 32], vec![1, 2, 4, 8, 12, 16, 24, 32]);
    let mut table = BenchTable::new(
        "fig04",
        &[
            "op",
            "threads",
            "owr_per_thread",
            "total_owr",
            "mops",
            "dram_bytes_per_wr",
            "wqe_hit",
        ],
    );
    for (opname, op) in [
        ("read-8B", MicroOp::Read(8)),
        ("write-8B", MicroOp::Write(8)),
    ] {
        for &threads in &threads_sweep {
            for &depth in &depth_sweep {
                let mut spec = MicrobenchSpec::new(
                    SmartConfig::baseline(QpPolicy::ThreadAwareDoorbell, threads),
                    threads,
                    depth,
                );
                spec.op = op;
                spec.warmup = mode.pick(Duration::from_millis(1), Duration::from_millis(3));
                spec.measure = mode.pick(Duration::from_millis(3), Duration::from_millis(10));
                let spec = Spec::Micro(spec);
                let r = run(&spec, &spec.single_plan(), 1).report;
                eprintln!(
                    "  {opname} {threads}x{depth}: {:.1} MOPS, {:.0} B/WR",
                    r.mops, r.dram_bytes_per_op
                );
                table.row(&[
                    &opname,
                    &threads,
                    &depth,
                    &(threads * depth),
                    &format!("{:.2}", r.mops),
                    &format!("{:.1}", r.dram_bytes_per_op),
                    &format!("{:.3}", r.wqe_hit_ratio),
                ]);
            }
        }
    }
    table.finish();
}
