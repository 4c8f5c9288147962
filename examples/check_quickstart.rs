//! smart-check quickstart: explore perturbed schedules of the Figure 3
//! micro-benchmark and a RACE insert/get/update mix, then print the
//! findings report.
//!
//! Run with: `cargo run --release --example check_quickstart [n_seeds]`
//!
//! Salt 0 is the unperturbed FIFO schedule every bench uses; salts 1..n
//! re-run the same seeded workload with timer ties broken differently.
//! Every perturbed schedule is still a legal cooperative interleaving,
//! so any finding — a lock-order cycle, a lost update, a stranded task,
//! a broken application invariant — is a real bug, with a witness.
//! The process exits non-zero if any schedule was dirty, so CI can gate
//! on it directly.

use std::rc::Rc;

use smart_bench::{parallel_map, run, MicrobenchSpec, Spec};
use smart_lab::smart::{SmartConfig, SmartContext};
use smart_lab::smart_check::{
    check_sink, probe_events, recording_sink, ExploreReport, Finding, RunReport,
};
use smart_lab::smart_race::{RaceConfig, RaceHashTable};
use smart_lab::smart_rnic::{Cluster, ClusterConfig};
use smart_lab::smart_rt::{Duration, SchedulePolicy, Simulation};

/// Figure 3 micro-benchmark (full SMART stack) under the sanitizer.
fn fig03_run(policy: SchedulePolicy, salt: u64) -> RunReport {
    let sink = recording_sink();
    let mut spec = MicrobenchSpec::new(SmartConfig::smart_full(8), 8, 4);
    spec.warmup = Duration::from_micros(200);
    spec.measure = Duration::from_micros(800);
    spec.schedule = policy;
    spec.trace = Some(sink.clone());
    let spec = Spec::Micro(spec);
    run(&spec, &spec.single_plan(), 1);
    RunReport {
        salt,
        policy,
        probes: probe_events(&sink.events()).len(),
        stuck_tasks: 0,
        findings: check_sink(&sink),
    }
}

/// RACE hash-table mix: concurrent inserts, lookups and contended
/// updates, with the lost-update witness check at quiescence.
fn race_run(policy: SchedulePolicy, salt: u64) -> RunReport {
    let mut sim = Simulation::with_policy(9, policy);
    let sink = recording_sink();
    sim.handle().install_tracer(sink.clone());
    let cluster = Cluster::new(sim.handle(), ClusterConfig::new(1, 2));
    let table = RaceHashTable::create(cluster.blades(), RaceConfig::default());
    for k in 0..200u64 {
        table.load(&k.to_le_bytes(), &k.to_le_bytes());
    }
    let ctx = SmartContext::new(
        cluster.compute(0),
        cluster.blades(),
        SmartConfig::smart_full(4),
    );
    let mut joins = Vec::new();
    for t in 0..4u64 {
        let thread = ctx.create_thread();
        let table = Rc::clone(&table);
        joins.push(sim.spawn(async move {
            let coro = thread.coroutine();
            for i in 0..25u64 {
                let key = (1_000 + t * 100 + i).to_le_bytes();
                table
                    .insert(&coro, &key, &i.to_le_bytes())
                    .await
                    .expect("insert");
                table.get(&coro, &(i % 200).to_le_bytes()).await;
                table
                    .update(&coro, &0u64.to_le_bytes(), &(9_000 + t).to_le_bytes())
                    .await
                    .expect("update");
            }
        }));
    }
    sim.run_for(Duration::from_secs(2));

    let mut findings = check_sink(&sink);
    let mut witnesses = vec![(
        0u64.to_le_bytes().to_vec(),
        (0..4u64)
            .map(|t| (9_000 + t).to_le_bytes().to_vec())
            .collect(),
    )];
    for t in 0..4u64 {
        for i in 0..25u64 {
            witnesses.push((
                (1_000 + t * 100 + i).to_le_bytes().to_vec(),
                vec![i.to_le_bytes().to_vec()],
            ));
        }
    }
    for msg in table.check_witnesses(&witnesses) {
        findings.push(Finding {
            detector: "invariant",
            message: msg,
        });
    }
    RunReport {
        salt,
        policy,
        probes: probe_events(&sink.events()).len(),
        stuck_tasks: joins.iter().filter(|j| !j.is_finished()).count(),
        findings,
    }
}

/// Parallel twin of `smart_check::explore`: every salt is an independent
/// simulation, so salts fan out across OS threads (the sanitizer crates
/// themselves stay thread-free — the driver lives in `smart-bench`) and
/// reports merge in salt order, rendering byte-identical to a
/// sequential exploration.
fn explore_parallel(n_seeds: u64, run: fn(SchedulePolicy, u64) -> RunReport) -> ExploreReport {
    let salts: Vec<u64> = (0..n_seeds.max(1)).collect();
    let runs = parallel_map(salts, |_, salt| {
        let policy = if salt == 0 {
            SchedulePolicy::Fifo
        } else {
            SchedulePolicy::SeededTieBreak(salt)
        };
        run(policy, salt)
    });
    ExploreReport { runs }
}

fn print_report(name: &str, report: &ExploreReport) {
    println!("== {name} ==");
    print!("{}", report.render());
}

fn main() {
    let n_seeds: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("n_seeds must be a number"))
        .unwrap_or(16);

    let fig03 = explore_parallel(n_seeds, fig03_run);
    print_report("fig03 microbenchmark", &fig03);
    let race = explore_parallel(n_seeds, race_run);
    print_report("RACE insert/get/update mix", &race);

    if !fig03.is_clean() || !race.is_clean() {
        eprintln!("schedule exploration found concurrency bugs");
        std::process::exit(1);
    }
    println!("all {n_seeds} schedules clean in both workloads");
}
