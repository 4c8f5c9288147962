//! The metric registry: every name the benchmark prints, with its unit,
//! direction, regression bound (end-to-end) and — for per-layer metrics —
//! the end-to-end metric and workload it is expected to move.
//!
//! `BENCHMARK.json` at the repo root lists the same names, units and
//! directions; a unit test below keeps the two in step.

/// Which way is better.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One end-to-end metric.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// One per-layer metric.
pub struct PerLayer {
    /// Metric name; the prefix up to the last dot-separated word is the layer.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Simulated or counted: repeats exactly for one seed, on any host.
    pub exact: bool,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
}

use Better::{Higher, Lower};

/// End-to-end metrics: host time and memory, what the person running a
/// figure waits for. All are measured with tracing off. The time bounds
/// are as wide as the contract allows because host time on the 2-vCPU
/// build container drifts by up to 15 % over minutes (README, "First
/// recorded numbers").
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "host_run_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "host_ns_per_op",
        unit: "ns",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "host_peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.15,
    },
];

const fn exact(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
        moves,
    }
}

const fn host(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: false,
        moves,
    }
}

const RUN_ALL: &str = "host_run_s on every workload";
const RUN_PDES: &str = "host_run_s on pdes_fanout_* only";
const SIM_STACK: &str = "sim_mops, sim_p99_us on micro_read, ht_*";
const SIM_WRITE: &str = "sim_mops, sim_p999_us on ht_write; zero or flat on ht_read";
const SIM_SERVE: &str = "sim_failed_share, sim_p99_us on serve_diurnal";
const RUN_SYNC: &str = "host_run_s on ht_write, serve_diurnal";
const RUN_RNIC: &str = "host_run_s on micro_read most; not pdes_fanout_*";
const RUN_WRITE: &str = "host_run_s on ht_write";
const RUN_SERVE: &str = "host_run_s on serve_diurnal only";
const SPAN: &str = "where the traced repetition's host time went";
const ATTR: &str = "sim_p99_us of the dominant op kind: lost virtual ns by cause";

/// Per-layer metrics, printed by the traced run.
pub const PER_LAYER: [PerLayer; 91] = [
    // Simulated results of the untraced repetition. The model is
    // deterministic, so a simulator-only change must leave them identical.
    exact(
        "sim_mops",
        "Mops",
        Higher,
        "what a figure publishes; only a model change may move it",
    ),
    exact("sim_p50_us", "us", Lower, "as sim_mops"),
    exact("sim_p99_us", "us", Lower, "as sim_mops"),
    exact("sim_p999_us", "us", Lower, "as sim_mops"),
    exact(
        "sim_failed_share",
        "share",
        Lower,
        "as sim_mops; zero on every workload by construction",
    ),
    // Counts from public counters over the timed region.
    exact("rt.events", "count", Lower, RUN_ALL),
    exact("rt.polls", "count", Lower, RUN_ALL),
    exact("rt.wakes", "count", Lower, RUN_ALL),
    exact("rt.timers_scheduled", "count", Lower, RUN_ALL),
    exact("rt.timers_fired", "count", Lower, RUN_ALL),
    exact("rt.timers_cancelled", "count", Lower, RUN_WRITE),
    exact("rt.timers_purged", "count", Lower, RUN_WRITE),
    exact("rt.tasks_spawned", "count", Lower, RUN_ALL),
    exact("rt.events_per_op", "events/op", Lower, RUN_ALL),
    host("rt.host_ns_per_event", "ns", Lower, RUN_ALL),
    exact("rnic.wrs_completed", "count", Higher, SIM_STACK),
    exact("rnic.wrs_per_op", "wrs/op", Lower, SIM_STACK),
    exact("rnic.wqe_hit_ratio", "ratio", Higher, SIM_STACK),
    exact("rnic.mtt_hit_ratio", "ratio", Higher, SIM_STACK),
    exact("rnic.dram_bytes_per_wr", "bytes", Lower, SIM_STACK),
    exact("rnic.doorbell_rings", "count", Lower, SIM_STACK),
    exact("rnic.doorbell_contention_share", "share", Lower, SIM_STACK),
    exact("rnic.wrs_errored", "count", Lower, SIM_STACK),
    exact("core.wrs_posted", "count", Lower, SIM_WRITE),
    exact("core.cas_failure_ratio", "ratio", Lower, SIM_WRITE),
    exact("core.throttle_stalls", "count", Lower, SIM_WRITE),
    exact("core.c_max_final", "credits", Higher, SIM_WRITE),
    exact("core.t_max_final_ns", "ns", Lower, SIM_WRITE),
    exact("race.avg_cas_retries", "retries/op", Lower, SIM_WRITE),
    exact("race.zero_retry_fraction", "share", Higher, SIM_WRITE),
    exact("serve.offered", "count", Higher, SIM_SERVE),
    exact("serve.admitted", "count", Higher, SIM_SERVE),
    exact("serve.shed_throttled", "count", Lower, SIM_SERVE),
    exact("serve.shed_queue", "count", Lower, SIM_SERVE),
    exact("serve.queue_high_water", "count", Lower, SIM_SERVE),
    exact("serve.distinct_served", "count", Higher, SIM_SERVE),
    exact("serve.final_epoch", "count", Higher, SIM_SERVE),
    exact("rt.pdes.epochs", "count", Lower, RUN_PDES),
    exact("rt.pdes.envelopes", "count", Lower, RUN_PDES),
    exact("rt.pdes.events_per_epoch", "events", Higher, RUN_PDES),
    exact("rt.pdes.envelopes_per_epoch", "envelopes", Higher, RUN_PDES),
    host("rt.pdes.host_us_per_epoch", "us", Lower, RUN_PDES),
    host("rt.pdes.host_ns_per_envelope", "ns", Lower, RUN_PDES),
    host(
        "rt.pdes.speedup_w2",
        "ratio",
        Higher,
        "host_run_s of pdes_fanout_w1 over pdes_fanout_w2",
    ),
    // Host ns per call from the isolated drivers.
    host(
        "rt.executor.poll_ns",
        "ns",
        Lower,
        "host_run_s on all, largest share on micro_read",
    ),
    host(
        "rt.executor.spawn_ns",
        "ns",
        Lower,
        "host_run_s on all, largest share on micro_read",
    ),
    host(
        "rt.wheel.timer_ns",
        "ns",
        Lower,
        "host_run_s on all, largest share on micro_read",
    ),
    host(
        "rt.wheel.cancel_ns",
        "ns",
        Lower,
        "host_run_s on ht_write, not micro_read",
    ),
    host("rt.sync.semaphore_ns", "ns", Lower, RUN_SYNC),
    host("rt.sync.lock_ns", "ns", Lower, RUN_SYNC),
    host("rt.sync.fifo_ns", "ns", Lower, RUN_SYNC),
    host("rt.sync.notify_ns", "ns", Lower, RUN_SYNC),
    host("rt.sync.workqueue_ns", "ns", Lower, RUN_SYNC),
    host("rt.detmap.op_ns", "ns", Lower, RUN_ALL),
    host("rt.rng.u64_ns", "ns", Lower, RUN_ALL),
    host("rnic.verbs.wr_ns", "ns", Lower, RUN_RNIC),
    host("rnic.verbs.events_per_wr", "events/wr", Lower, RUN_RNIC),
    host("rnic.lru.op_ns", "ns", Lower, RUN_RNIC),
    host("rnic.doorbell.ring_ns", "ns", Lower, RUN_RNIC),
    host("rnic.blade.write_ns", "ns", Lower, "setup_s on ht_*"),
    host("race.load_ns", "ns", Lower, "setup_s on ht_*"),
    host(
        "core.coro.wr_ns",
        "ns",
        Lower,
        "host_run_s on ht_write, ht_read, serve_diurnal",
    ),
    host(
        "core.coro.overhead_ns",
        "ns",
        Lower,
        "host_run_s on ht_write, ht_read, serve_diurnal",
    ),
    host("core.throttle.wr_ns", "ns", Lower, RUN_WRITE),
    host("core.conflict.backoff_cas_ns", "ns", Lower, RUN_WRITE),
    host("race.get_ns", "ns", Lower, "host_run_s on ht_read"),
    host("race.update_ns", "ns", Lower, RUN_WRITE),
    host("workloads.zipf.draw_ns", "ns", Lower, "host_run_s on ht_*"),
    host("workloads.ycsb.op_ns", "ns", Lower, "host_run_s on ht_*"),
    host("trace.hist.record_ns", "ns", Lower, RUN_SERVE),
    host(
        "trace.sink.masked_ns",
        "ns",
        Lower,
        "host_run_s on every untraced run",
    ),
    host("trace.sink.record_ns", "ns", Lower, "trace.overhead_ratio"),
    host("serve.arrival.next_ns", "ns", Lower, RUN_SERVE),
    host("serve.admission.admit_ns", "ns", Lower, RUN_SERVE),
    host("serve.session.complete_ns", "ns", Lower, RUN_SERVE),
    // From the traced repetition.
    host("bench.span.setup.cluster_s", "s", Lower, SPAN),
    host("bench.span.setup.app_create_s", "s", Lower, SPAN),
    host("bench.span.setup.load_s", "s", Lower, SPAN),
    host("bench.span.setup.context_s", "s", Lower, SPAN),
    host("bench.span.setup.spawn_s", "s", Lower, SPAN),
    host("bench.span.run.warmup_s", "s", Lower, SPAN),
    host("bench.span.run.measure_s", "s", Lower, SPAN),
    host("bench.span.report.collect_s", "s", Lower, SPAN),
    host("bench.span.teardown.drop_s", "s", Lower, SPAN),
    host(
        "trace.overhead_ratio",
        "ratio",
        Lower,
        "traced over untraced host_run_s",
    ),
    exact("sim.attr.db_lock_share", "share", Lower, ATTR),
    exact("sim.attr.credit_share", "share", Lower, ATTR),
    exact("sim.attr.pipeline_share", "share", Lower, ATTR),
    exact("sim.attr.fabric_share", "share", Lower, ATTR),
    exact("sim.attr.backoff_share", "share", Lower, ATTR),
    host(
        "bench.coverage",
        "share",
        Higher,
        "share of host_run_s the isolated per-call costs explain",
    ),
];

/// The benchmark's own spans and the metric each one's total becomes.
pub const SPAN_METRICS: [(&str, &str); 9] = [
    ("setup.cluster", "bench.span.setup.cluster_s"),
    ("setup.app_create", "bench.span.setup.app_create_s"),
    ("setup.load", "bench.span.setup.load_s"),
    ("setup.context", "bench.span.setup.context_s"),
    ("setup.spawn", "bench.span.setup.spawn_s"),
    ("run.warmup", "bench.span.run.warmup_s"),
    ("run.measure", "bench.span.run.measure_s"),
    ("report.collect", "bench.span.report.collect_s"),
    ("teardown.drop", "bench.span.teardown.drop_s"),
];

/// The `sim.attr.*` metrics in `TraceSink` attribution-category order.
pub const ATTR_METRICS: [&str; 5] = [
    "sim.attr.db_lock_share",
    "sim.attr.credit_share",
    "sim.attr.pipeline_share",
    "sim.attr.fabric_share",
    "sim.attr.backoff_share",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(n.len() <= 64, "{n} is longer than 64 characters");
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for m in &END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.word(),
                m.bound
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for m in &PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.word()
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"better\"").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn every_span_and_attribution_category_has_a_metric() {
        for (span, name) in SPAN_METRICS {
            assert_eq!(name, format!("bench.span.{span}_s"));
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
        for name in ATTR_METRICS {
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
    }
}
