//! Figure 3: throughput of 8-byte READs/WRITEs under the four QP
//! allocation policies (§3.1), depth 8, uniform addresses.
//!
//! Expected shape: SharedQp flat and lowest; MultiplexedQp in between;
//! PerThreadQp scales to ~32 threads then collapses (implicit doorbell
//! sharing); ThreadAwareDoorbell (per-thread doorbell) reaches the
//! ~110 MOPS hardware ceiling.
//!
//! Sweep points are independent simulations and run in parallel via
//! `smart_bench::parallel_map`; the traced run builds its `TraceSink`
//! inside the worker (sinks are not `Send`) and ships the rendered
//! attribution back as a string, so output bytes match a sequential run.

use smart::{QpPolicy, SmartConfig};
use smart_bench::{
    banner, parallel_map, run, trace_requested, BenchTable, MicroOp, MicrobenchSpec, Mode, Spec,
};
use smart_rt::Duration;
use smart_trace::TraceSink;

fn main() {
    let mode = Mode::from_env();
    banner("Figure 3: QP allocation policies", mode);
    let trace = trace_requested();
    let policies: &[(&str, QpPolicy)] = &[
        ("shared-qp", QpPolicy::SharedQp),
        (
            "multiplexed-qp(8)",
            QpPolicy::MultiplexedQp { threads_per_qp: 8 },
        ),
        ("per-thread-qp", QpPolicy::PerThreadQp),
        ("per-thread-doorbell", QpPolicy::ThreadAwareDoorbell),
    ];
    let mut table = BenchTable::new("fig03", &["op", "policy", "threads", "mops"]);
    let sweep = mode.thread_sweep();
    let max_threads = sweep.iter().copied().max().unwrap_or(0);
    let mut points = Vec::new();
    for (opname, op) in [
        ("read-8B", MicroOp::Read(8)),
        ("write-8B", MicroOp::Write(8)),
    ] {
        for &(name, policy) in policies {
            for &threads in &sweep {
                points.push((opname, op, name, policy, threads));
            }
        }
    }
    let rows = parallel_map(points, |_, (opname, op, name, policy, threads)| {
        let mut spec = MicrobenchSpec::new(SmartConfig::baseline(policy, threads), threads, 8);
        spec.op = op;
        spec.warmup = mode.pick(Duration::from_millis(1), Duration::from_millis(3));
        spec.measure = mode.pick(Duration::from_millis(3), Duration::from_millis(10));
        // SMART_TRACE=1: attribute latency at the most contended
        // point of the sweep (the §3.1 diagnosis).
        if trace && threads == max_threads {
            spec.trace = Some(TraceSink::new());
        }
        let sink = spec.trace.clone();
        let spec = Spec::Micro(spec);
        let r = run(&spec, &spec.single_plan(), 1).report;
        let mut log = format!("  {opname} {name} threads={threads}: {:.1} MOPS\n", r.mops);
        if let Some(sink) = sink {
            log.push_str(&sink.attribution().render());
        }
        (
            log,
            vec![
                opname.to_string(),
                name.to_string(),
                threads.to_string(),
                format!("{:.2}", r.mops),
            ],
        )
    });
    for (log, cells) in rows {
        eprint!("{log}");
        table.row_strings(cells);
    }
    table.finish();
}
