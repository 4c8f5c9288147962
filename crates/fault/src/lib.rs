#![warn(missing_docs)]

//! # smart-fault — deterministic fault injection for the SMART stack
//!
//! Memory-disaggregated applications live or die on how they handle
//! faults: a QP error transition flushes every work request not yet sent,
//! a lost packet surfaces as a retransmit timeout, a crashed memory blade
//! takes whole data structures offline until it restarts. This crate adds
//! a **chaos layer** to the simulation so those paths can be exercised as
//! deterministically as the happy path.
//!
//! Two pieces:
//!
//! * [`FaultPlan`] — a declarative schedule of faults: per-work-request
//!   probabilities (packet loss, RNR rejections, latency spikes,
//!   permanent access errors) plus events at absolute virtual times
//!   (QP error transitions, blade crash/restart windows).
//!   [`FaultPlan::random`] generates seeded *healing* plans for sweep
//!   tests.
//! * [`FaultInjector`] — executes a plan against a live
//!   [`Cluster`](smart_rnic::Cluster) by implementing the RNIC model's
//!   [`FaultHook`](smart_rnic::FaultHook) checkpoint and driving scheduled
//!   events from a timeline task.
//!
//! Everything is derived from the simulation's seeded PRNG and virtual
//! clock, so a chaos run replayed with the same seed injects byte-for-byte
//! identical faults — and a plan with all rates at zero and no events is
//! *passive*: it draws nothing from the PRNG and perturbs nothing, making
//! the run identical to one with no injector installed.
//!
//! ```rust
//! use smart_fault::{FaultInjector, FaultPlan};
//! use smart_rnic::{Cluster, ClusterConfig};
//! use smart_rt::{Duration, Simulation};
//!
//! let mut sim = Simulation::new(7);
//! let cluster = Cluster::new(sim.handle(), ClusterConfig::new(2, 2));
//! let plan = FaultPlan::new()
//!     .with_packet_loss(0.01)
//!     .blade_crash_at(Duration::from_micros(50), 1, Duration::from_micros(20));
//! let injector = FaultInjector::install(&cluster, plan);
//! sim.run_for(Duration::from_micros(100));
//! assert_eq!(injector.stats().blade_crashes, 1);
//! ```
//!
//! Injected faults appear in traces under
//! [`Category::Fault`](smart_trace::Category::Fault), and the recovery
//! layer in the `smart` core crate (`SmartCoro::try_sync` + `RetryPolicy`)
//! turns retriable ones back into correct results.

mod injector;
mod plan;

pub use injector::{FaultInjector, FaultStats};
pub use plan::{FaultEvent, FaultEventKind, FaultPlan};
