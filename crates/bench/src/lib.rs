#![warn(missing_docs)]

//! # smart-bench — the experiment harness
//!
//! One `cargo bench` target per figure/table of the SMART paper (see
//! `benches/`); this library holds the shared runners and reporting.
//!
//! Every closed-loop workload runs through one public driver,
//! [`run`]: a [`Spec`] (hash table, transactions or B+Tree) under any
//! `DomainPlan`, on top of `smart_rnic::run_decomposed`. A
//! phase-controller coroutine in the compute domain sleeps through the
//! warm-up and measure windows, and the engine runs to quiescence.
//! [`run_ht`], [`run_dtx`] and [`run_bt`] are [`run`] under
//! `DomainPlan::single` on one engine worker.
//!
//! Modes: `SMART_BENCH_MODE=quick` (default, coarse sweeps and short
//! windows) or `full` (paper-scale). Results print as aligned tables and
//! are also dumped as CSV under `crates/bench/bench_out/`.

pub mod decomposed;
pub mod report;
pub mod runners;
pub mod sweep;

pub use decomposed::{run, Spec};
pub use report::{banner, trace_requested, us, BenchTable, Mode};
pub use runners::{
    run_bt, run_dtx, run_ht, serve_spec, BtParams, BtVariant, DtxParams, DtxWorkload, HtParams,
    RunReport,
};
pub use sweep::{parallel_map, parallel_map_with, run_jobs, worker_threads};
