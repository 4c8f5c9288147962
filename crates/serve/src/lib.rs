//! # smart-serve — open-loop serving scenarios over SMART
//!
//! This crate turns the SMART stack into a *serving system under test*:
//! a seeded open-loop arrival process (Poisson interarrivals thinned
//! against a piecewise diurnal rate plan, Zipfian key popularity) drives
//! 100k+ logical client sessions multiplexed onto a bounded pool of
//! SMART coroutines, behind an admission controller whose typed sheds
//! keep the reported tail latencies meaningful, while a scripted
//! membership plan takes memory blades out of — and back into — the
//! roster mid-run.
//!
//! Everything is deterministic: one seed fixes the arrival stream, the
//! admission decisions, the membership schedule and the fault recovery
//! interleaving, so two identical [`ServeSpec`]s render byte-identical
//! [`ServeReport`]s. That determinism is load-bearing for the tier-1
//! gates in `tests/serve.rs` and for regression-diffing `fig_serve`
//! sweeps.
//!
//! Module map:
//!
//! * [`arrival`] — rate plans, thinned Poisson arrivals, op synthesis;
//! * [`admission`] — token-bucket + queue-depth admission control;
//! * [`session`] — the logical-client session pool and request queue;
//! * [`membership`] — scripted blade leave/join windows lowered onto
//!   the router and the fault layer;
//! * [`engine`] — the scenario body gluing it all together, and its
//!   inline driver [`run_serve`];
//! * [`decomposed`] — the engine driver [`run_serve_decomposed`]: the
//!   same body with memory blades running as real PDES engine domains
//!   behind typed request/completion channels;
//! * [`report`] — per-phase SLO stats and the byte-stable report.

pub mod admission;
pub mod arrival;
pub mod decomposed;
pub mod engine;
pub mod membership;
pub mod report;
pub mod session;

pub use admission::{AdmissionConfig, AdmissionController, Rejected};
pub use arrival::{Arrival, ArrivalEngine, PhaseSpec, RatePlan, ServeOp};
pub use decomposed::run_serve_decomposed;
pub use engine::{run_serve, ServeSpec};
pub use membership::{MembershipEvent, MembershipPlan};
pub use report::{PhaseStats, ServeReport};
pub use session::{Request, SessionPool};
