//! Overhead guard: trace hooks never advance simulated time or touch the
//! RNG, so a run with tracing enabled, disabled or absent must execute
//! the *same* simulated schedule. We assert exact op-count equality —
//! strictly stronger than the "within 2 %" acceptance criterion.

use smart_bench::{run, MicroOp, MicrobenchSpec, RunReport, Spec};
use smart_lab::smart::{QpPolicy, SmartConfig};
use smart_lab::smart_rt::Duration;
use smart_lab::smart_trace::TraceSink;

/// One microbench run with `trace` as its sink.
fn bench(trace: Option<TraceSink>) -> RunReport {
    let mut micro = MicrobenchSpec::new(
        SmartConfig::baseline(QpPolicy::ThreadAwareDoorbell, 16),
        16,
        8,
    );
    micro.op = MicroOp::Read(8);
    micro.warmup = Duration::from_micros(500);
    micro.measure = Duration::from_millis(2);
    micro.trace = trace;
    let spec = Spec::Micro(micro);
    run(&spec, &spec.single_plan(), 1).report
}

#[test]
fn tracing_has_zero_simulated_time_overhead() {
    let baseline = bench(None);
    let disabled = bench(Some(TraceSink::disabled()));
    let enabled_sink = TraceSink::new();
    let enabled = bench(Some(enabled_sink.clone()));

    assert_eq!(
        baseline.ops, disabled.ops,
        "a disabled sink changed the simulated schedule"
    );
    assert_eq!(
        baseline.ops, enabled.ops,
        "an enabled sink changed the simulated schedule"
    );
    assert!(
        !enabled_sink.is_empty(),
        "enabled sink recorded nothing — the guard would be vacuous"
    );
}
