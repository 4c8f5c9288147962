//! `smart-check` — concurrency sanitizers for the SMART simulation.
//!
//! The simulation is cooperatively scheduled and deterministic, which
//! makes it a natural model checker: every run is a totally ordered
//! history of synchronization events, and the executor can replay the
//! same workload under seeded schedule perturbations
//! ([`smart_rt::SchedulePolicy::SeededTieBreak`]). This crate consumes
//! the [`Category::Sync`](smart_trace::Category) probes the runtime and
//! framework emit and runs three detectors over them:
//!
//! * **lock-order analysis** ([`lockorder`]) — builds the directed
//!   acquisition-order graph over probed locks (coroutine slots, QP
//!   locks, doorbells) and reports every cycle with the acquisition
//!   witnesses that created its edges. The simulated workloads acquire
//!   `coro_slot → qp_lock → doorbell`, an acyclic order; a cycle means a
//!   schedule exists that deadlocks.
//! * **await-point atomicity** ([`atomicity`]) — flags read-modify-write
//!   sequences on a shared cell that span a suspension point while a
//!   conflicting writer intervened and no exclusive lock protected both
//!   sides (a lost update). A CAS closing the window is exempt: it
//!   revalidates the read atomically, which is exactly how the RACE
//!   retry protocol stays correct.
//! * **seeded schedule exploration** ([`explore()`]) — drives a workload
//!   closure once per schedule salt and aggregates findings, stuck-task
//!   counts and workload invariant violations into a deterministic
//!   report. Every perturbed schedule is a legal total order of the same
//!   timer ties, so any violation it surfaces is a real bug, not a
//!   checker artifact.
//!
//! Probes are masked out of every sink by default (see
//! [`TraceSink::DEFAULT_MASK`]); build a recording sink with
//! [`recording_sink`] to opt in.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomicity;
pub mod explore;
pub mod lockorder;
pub mod probe;
pub mod report;

pub use atomicity::atomicity_findings;
pub use explore::{explore, ExploreReport};
pub use lockorder::{lock_order_findings, LockOrderGraph};
pub use probe::{probe_events, ProbeEvent};
pub use report::{Finding, RunReport};

use smart_trace::{Category, TraceEvent, TraceSink};

/// A sink sized and masked for sanitizer runs: [`Category::Sync`] events
/// are recorded (they are excluded by [`TraceSink::DEFAULT_MASK`]) and
/// the ring is large enough that workload-scale probe streams are not
/// evicted.
pub fn recording_sink() -> TraceSink {
    let sink = TraceSink::with_capacity(1 << 20);
    sink.set_mask(TraceSink::DEFAULT_MASK | Category::Sync.bit());
    sink
}

/// Runs every event-stream detector over a recorded trace.
pub fn check_events(events: &[TraceEvent]) -> Vec<Finding> {
    let probes = probe_events(events);
    let mut findings = lock_order_findings(&probes);
    findings.extend(atomicity_findings(&probes));
    findings
}

/// [`check_events`] over a sink's ring, plus a finding when the ring
/// overflowed (an incomplete probe stream can hide real bugs, so the
/// overflow itself is reported rather than silently analyzed around).
pub fn check_sink(sink: &TraceSink) -> Vec<Finding> {
    let mut findings = Vec::new();
    if sink.dropped() > 0 {
        findings.push(Finding {
            detector: "probe-stream",
            message: format!(
                "trace ring evicted {} events; grow the sink before trusting the analysis",
                sink.dropped()
            ),
        });
    }
    findings.extend(check_events(&sink.events()));
    findings
}
