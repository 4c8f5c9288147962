#![warn(missing_docs)]

//! # smart-bench — the experiment harness
//!
//! One `cargo bench` target per figure/table of the SMART paper (see
//! `benches/`); this library holds the shared runners and reporting.
//!
//! A workload's scenario body is written once and driven two ways: the
//! *inline driver* ([`run_ht`], [`run_dtx`], [`run_bt`]; one simulation,
//! stepped imperatively) and, for the hash table, the *engine driver*
//! ([`run_ht_decomposed`]; the same body in the compute domain of a PDES
//! run whose memory blades are engine domains).
//!
//! Modes: `SMART_BENCH_MODE=quick` (default, coarse sweeps and short
//! windows) or `full` (paper-scale). Results print as aligned tables and
//! are also dumped as CSV under `crates/bench/bench_out/`.

pub mod decomposed;
pub mod report;
pub mod runners;
pub mod sweep;

pub use decomposed::run_ht_decomposed;
pub use report::{banner, trace_requested, us, BenchTable, Mode};
pub use runners::{
    run_bt, run_dtx, run_ht, serve_spec, BtParams, BtVariant, DtxParams, DtxWorkload, HtParams,
    RunReport,
};
pub use sweep::{parallel_map, parallel_map_with, run_jobs, worker_threads};
