#![warn(missing_docs)]

//! # smart-bench — the experiment harness
//!
//! One `cargo bench` target per figure/table of the SMART paper (see
//! `benches/`); this library holds the shared runners and reporting.
//!
//! Every closed-loop workload and the §3 microbench run through one
//! public driver, [`run`]: a [`Spec`] (hash table, transactions, B+Tree
//! or microbench) under any `DomainPlan`, on top of
//! `smart_rnic::run_decomposed`. A phase-controller coroutine in the
//! compute domain brackets the warm-up and measure windows, and the
//! engine runs to quiescence. `run(&spec, &spec.single_plan(), 1)` is a
//! plain sequential run; every run returns one [`RunReport`].
//!
//! Modes: `SMART_BENCH_MODE=quick` (default, coarse sweeps and short
//! windows) or `full` (paper-scale). Results print as aligned tables and
//! are also dumped as CSV under `crates/bench/bench_out/`.

pub mod decomposed;
pub mod microbench;
pub mod report;
pub mod runners;
pub mod sweep;

pub use decomposed::{run, Spec};
pub use microbench::{DynamicLoad, MicroOp, MicrobenchSpec};
pub use report::{banner, trace_requested, us, BenchTable, Mode};
pub use runners::{serve_spec, BtParams, BtVariant, DtxParams, DtxWorkload, HtParams, RunReport};
pub use sweep::parallel_map;
