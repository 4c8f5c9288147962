//! smart-trace quickstart: run a contended micro-benchmark with a trace
//! sink attached, print the latency-attribution report and export a
//! Chrome trace-event JSON file.
//!
//! Run with: `cargo run --release --example trace_quickstart`
//!
//! Then open `smart.trace.json` at <https://ui.perfetto.dev> — one track
//! per simulated thread, with DB-lock waits, RNIC pipeline service,
//! fabric transfers and backoff sleeps as spans on the virtual timeline.

use smart_bench::{run, MicrobenchSpec, Spec};
use smart_lab::smart::{QpPolicy, SmartConfig};
use smart_lab::smart_rt::Duration;
use smart_lab::smart_trace::{Category, TraceSink};

fn main() {
    // The §3.1 bottleneck in miniature: 48 threads share one QP, so every
    // post serializes on the QP spinlock.
    let threads = 48;
    let mut spec = MicrobenchSpec::new(
        SmartConfig::baseline(QpPolicy::SharedQp, threads),
        threads,
        8, // outstanding work requests per thread
    );
    spec.warmup = Duration::from_micros(500);
    spec.measure = Duration::from_millis(2);

    // Attach a sink; every op is recorded as a "micro" op decomposed into
    // db-lock / credit / pipeline / fabric / backoff time.
    let sink = TraceSink::new();
    spec.trace = Some(sink.clone());

    let spec = Spec::Micro(spec);

    let report = run(&spec, &spec.single_plan(), 1).report;
    println!(
        "shared-qp, {threads} threads: {:.1} MOPS over {} ops",
        report.mops, report.ops
    );

    // The plain-text attribution report: per-kind percentiles plus the
    // share of op latency spent in each category.
    print!("{}", sink.attribution().render());
    if let Some(micro) = sink.attribution().kind("micro") {
        println!(
            "db-lock share of op latency: {:.0} % (the paper's §3.1 diagnosis)",
            micro.share(Category::DbLock) * 100.0
        );
    }

    // The Perfetto export. Timestamps are virtual nanoseconds, so the
    // file is byte-identical across same-seed runs.
    let json = sink.chrome_json();
    std::fs::write("smart.trace.json", &json).expect("write smart.trace.json");
    println!(
        "wrote smart.trace.json ({} bytes, {} events kept, {} evicted) — open it at https://ui.perfetto.dev",
        json.len(),
        sink.len(),
        sink.dropped()
    );
}
