//! Full-stack decomposed speedup: the two engine-driver shapes timed at
//! one engine worker and at `min(4, host CPUs)` workers.
//!
//! Run with: `cargo run --release --example decomposed_speedup`
//!
//! The shapes are fig07 SMART-HT write-heavy under a `per_blade` plan and
//! fig_serve under `for_workers(4, 1, blades)`. Each leg runs 3 rounds,
//! alternating which worker count goes first, and prints the median wall
//! time of each count and their ratio. Both counts execute the identical
//! partition, so the `Debug` renderings of their outcomes must be
//! byte-identical (the PDES contract); the example asserts that on every
//! run. On a 1-CPU host a parallel timing would measure oversubscription,
//! so the example prints a skip line instead. `tools/ab_pairs.sh` on
//! `benchmark/` remains the repository's wall-clock gate; this is a
//! measurement until a full-stack decomposed workload joins it.

use std::time::Instant;

use smart_bench::{run, serve_spec, HtParams, Spec};
use smart_lab::smart::SmartConfig;
use smart_lab::smart_rnic::DomainPlan;
use smart_lab::smart_rt::Duration;
use smart_lab::smart_serve::run_serve_decomposed;
use smart_lab::smart_workloads::ycsb::Mix;

const ROUNDS: usize = 3;

fn main() {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cpus == 1 {
        println!("decomposed_speedup: skipped, 1 host CPU");
        return;
    }
    let workers = cpus.min(4);
    println!("host CPUs {cpus}; engine workers 1 vs {workers}; median of {ROUNDS} rounds");

    let mut p = HtParams::new(SmartConfig::smart_full(16), 16, 20_000, Mix::WriteHeavy);
    p.warmup = Duration::from_millis(1);
    p.measure = Duration::from_millis(2);
    p.seed = 42;
    let plan = DomainPlan::per_blade(1, p.blades as u32);
    let spec = Spec::Ht(p);
    leg("fig07 per_blade", &plan, workers, |w| {
        let d = run(&spec, &plan, w);
        (d.report.sim_events, format!("{d:?}"))
    });

    let mut spec = serve_spec(2_000, 0.05, 42);
    spec.threads = 4;
    spec.depth = 8;
    let plan = DomainPlan::for_workers(4, 1, spec.blades as u32);
    leg("fig_serve for_workers", &plan, workers, |w| {
        let d = run_serve_decomposed(&spec, &plan, w);
        (d.report.sim_events, format!("{d:?}"))
    });
}

/// Times `run` (events, rendered outcome) at 1 and `workers` engine
/// workers and prints one line.
fn leg(name: &str, plan: &DomainPlan, workers: usize, run: impl Fn(usize) -> (u64, String)) {
    let mut walls = [Vec::new(), Vec::new()];
    let mut first: Option<(u64, String)> = None;
    for round in 0..ROUNDS {
        for side in [round % 2, 1 - round % 2] {
            let w = [1, workers][side];
            let start = Instant::now();
            let out = run(w);
            walls[side].push(start.elapsed().as_secs_f64() * 1e3);
            let first = first.get_or_insert_with(|| out.clone());
            assert!(*first == out, "{name}: outcome differs at {w} workers");
        }
    }
    let [seq, par] = walls.map(|mut v| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    });
    let events = first.expect("ROUNDS > 0").0;
    println!(
        "{name} ({} domains): {events} events, 1 worker {seq:.1} ms, \
         {workers} workers {par:.1} ms -> {:.2}x",
        plan.domains(),
        seq / par
    );
}
