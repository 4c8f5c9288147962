//! Calibration gate for latency attribution: the trace must *reproduce
//! the paper's §3.1 diagnosis*. At 96 threads the shared and multiplexed
//! QP policies serialize every post on a QP spinlock, so DB-lock wait
//! accounts for the majority of operation latency; with thread-aware
//! doorbells the lock vanishes from the profile and the ~2 µs fabric
//! roundtrip dominates instead.

use smart_bench::{run, MicrobenchSpec, Spec};
use smart_lab::smart::{QpPolicy, SmartConfig};
use smart_lab::smart_rt::Duration;
use smart_lab::smart_trace::{Category, TraceSink};

fn attributed_run(policy: QpPolicy) -> (f64, u64) {
    const THREADS: usize = 96;
    let mut spec = MicrobenchSpec::new(SmartConfig::baseline(policy, THREADS), THREADS, 8);
    spec.warmup = Duration::from_micros(300);
    spec.measure = Duration::from_millis(1);
    let sink = TraceSink::new();
    spec.trace = Some(sink.clone());
    let spec = Spec::Micro(spec);
    let report = run(&spec, &spec.single_plan(), 1).report;
    assert!(report.ops > 0, "no ops completed under {policy:?}");

    let attr = sink.attribution();
    let micro = attr
        .kind("micro")
        .unwrap_or_else(|| panic!("no \"micro\" ops recorded under {policy:?}"));
    (micro.share(Category::DbLock), micro.count())
}

#[test]
fn shared_qp_is_lock_dominated_at_96_threads() {
    let (share, ops) = attributed_run(QpPolicy::SharedQp);
    assert!(
        share > 0.5,
        "SharedQp: DB-lock share {share:.3} of op latency over {ops} ops — \
         expected the §3.1 lock bottleneck (> 50 %)"
    );
}

#[test]
fn multiplexed_qp_is_lock_dominated_at_96_threads() {
    let (share, ops) = attributed_run(QpPolicy::MultiplexedQp { threads_per_qp: 8 });
    assert!(
        share > 0.5,
        "MultiplexedQp(8): DB-lock share {share:.3} over {ops} ops — \
         expected the §3.1 lock bottleneck (> 50 %)"
    );
}

#[test]
fn thread_aware_doorbell_is_not_lock_dominated() {
    let (share, ops) = attributed_run(QpPolicy::ThreadAwareDoorbell);
    assert!(
        share < 0.5,
        "ThreadAwareDoorbell: DB-lock share {share:.3} over {ops} ops — \
         per-thread doorbells should remove the lock from the profile"
    );
}
