//! Tier-1 gate for `smart-check`: each planted concurrency bug is
//! detected, the real workloads stay clean across 16 perturbed
//! schedules, and same-seed exploration output is byte-identical.

use std::cell::Cell;
use std::rc::Rc;

use smart_bench::{run, MicrobenchSpec, Spec};
use smart_lab::smart::{QpPolicy, SmartConfig, SmartContext};
use smart_lab::smart_check::{
    check_sink, explore, probe_events, recording_sink, Finding, RunReport,
};
use smart_lab::smart_race::{RaceConfig, RaceHashTable};
use smart_lab::smart_rnic::{Cluster, ClusterConfig};
use smart_lab::smart_rt::sync::{Notify, Semaphore};
use smart_lab::smart_rt::{Duration, SchedulePolicy, SimHandle, Simulation};
use smart_lab::smart_sherman::{ShermanConfig, ShermanTree};
use smart_lab::smart_trace::{Actor, SyncOp, TraceSink};

fn instrumented_sim(seed: u64, policy: SchedulePolicy) -> (Simulation, TraceSink) {
    let sim = Simulation::with_policy(seed, policy);
    let sink = recording_sink();
    sim.handle().install_tracer(sink.clone());
    (sim, sink)
}

// ---------------------------------------------------------------------------
// Planted bug 1: unprotected read-modify-write across a suspension point.
// ---------------------------------------------------------------------------

/// Two tasks increment a shared counter with a sleep between the read and
/// the write and no lock: a classic lost update. The atomicity detector
/// must report it, and the final counter value proves the update really
/// was lost.
#[test]
fn planted_lost_update_is_caught() {
    let (mut sim, sink) = instrumented_sim(7, SchedulePolicy::Fifo);
    let cell_id = sim.handle().fresh_probe_id();
    let counter = Rc::new(Cell::new(0u64));
    for tid in 1..=2u64 {
        let h: SimHandle = sim.handle();
        let counter = Rc::clone(&counter);
        sim.spawn(async move {
            let actor = Actor::thread(tid);
            let v = counter.get();
            h.probe_sync(actor, "counter", SyncOp::Read, cell_id);
            h.sleep(Duration::from_nanos(10)).await;
            counter.set(v + 1);
            h.probe_sync(actor, "counter", SyncOp::Write, cell_id);
        });
    }
    sim.run();
    assert_eq!(counter.get(), 1, "one increment must be lost");

    let findings = check_sink(&sink);
    assert_eq!(
        findings.len(),
        1,
        "exactly the lost update is reported: {findings:#?}"
    );
    assert_eq!(findings[0].detector, "atomicity");
    assert!(
        findings[0].message.contains("counter#"),
        "finding names the cell: {}",
        findings[0].message
    );
}

/// The same increment protected by a mutex-style semaphore held across
/// the suspension is atomic — no finding, and no update is lost.
#[test]
fn guarded_rmw_is_not_flagged() {
    let (mut sim, sink) = instrumented_sim(7, SchedulePolicy::Fifo);
    let h0 = sim.handle();
    let cell_id = h0.fresh_probe_id();
    let mutex = Semaphore::new(1);
    mutex.set_probe(h0.fresh_probe_id(), "counter_mutex");
    let counter = Rc::new(Cell::new(0u64));
    for tid in 1..=2u64 {
        let h = sim.handle();
        let counter = Rc::clone(&counter);
        let mutex = mutex.clone();
        sim.spawn(async move {
            let actor = Actor::thread(tid);
            let g = mutex.acquire_guard(1, &h, actor, "counter_mutex").await;
            let v = counter.get();
            h.probe_sync(actor, "counter", SyncOp::Read, cell_id);
            h.sleep(Duration::from_nanos(10)).await;
            counter.set(v + 1);
            h.probe_sync(actor, "counter", SyncOp::Write, cell_id);
            g.release();
        });
    }
    sim.run();
    assert_eq!(counter.get(), 2, "no update lost under the lock");
    let findings = check_sink(&sink);
    assert!(findings.is_empty(), "clean run: {findings:#?}");
}

// ---------------------------------------------------------------------------
// Planted bug 2: two locks acquired in opposite orders.
// ---------------------------------------------------------------------------

/// One task takes `lock_a` then `lock_b`; a later task takes them in the
/// opposite order. The runs never overlap, so nothing deadlocks at
/// runtime — but the acquisition-order cycle is a deadlock waiting for
/// the right interleaving, and the lock-order detector must report it.
#[test]
fn planted_lock_order_cycle_is_caught() {
    let (mut sim, sink) = instrumented_sim(3, SchedulePolicy::Fifo);
    let h0 = sim.handle();
    let a = Semaphore::new(1);
    a.set_probe(h0.fresh_probe_id(), "lock_a");
    let b = Semaphore::new(1);
    b.set_probe(h0.fresh_probe_id(), "lock_b");

    let (h, a2, b2) = (sim.handle(), a.clone(), b.clone());
    sim.spawn(async move {
        let actor = Actor::thread(1);
        let ga = a2.acquire_guard(1, &h, actor, "lock_a").await;
        let gb = b2.acquire_guard(1, &h, actor, "lock_b").await;
        h.sleep(Duration::from_nanos(5)).await;
        gb.release();
        ga.release();
    });
    let h = sim.handle();
    sim.spawn(async move {
        let actor = Actor::thread(2);
        h.sleep(Duration::from_nanos(100)).await;
        let gb = b.acquire_guard(1, &h, actor, "lock_b").await;
        let ga = a.acquire_guard(1, &h, actor, "lock_a").await;
        ga.release();
        gb.release();
    });
    sim.run();

    let findings = check_sink(&sink);
    let cycles: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.detector == "lock-order")
        .collect();
    assert_eq!(cycles.len(), 1, "one cycle reported: {findings:#?}");
    assert!(
        cycles[0].message.contains("lock_a") && cycles[0].message.contains("lock_b"),
        "cycle names both locks: {}",
        cycles[0].message
    );
}

// ---------------------------------------------------------------------------
// Planted bug 3: lost wakeup, exposed only by schedule perturbation.
// ---------------------------------------------------------------------------

/// A waiter and a notifier race on the same virtual instant:
/// `notify_all` stores no permit, so if the notifier wins the timer tie
/// the waiter registers after the notification and parks forever. The
/// FIFO schedule happens to order the waiter first — only the seeded
/// tie-break exploration exposes the stranded task.
#[test]
fn planted_lost_wakeup_is_caught_by_exploration() {
    let run = |policy: SchedulePolicy, salt: u64| -> RunReport {
        let (mut sim, sink) = instrumented_sim(13, policy);
        let notify = Notify::new();
        let (h, n) = (sim.handle(), notify.clone());
        sim.spawn(async move {
            h.sleep(Duration::from_nanos(10)).await;
            n.notified().await;
        });
        let h = sim.handle();
        sim.spawn(async move {
            h.sleep(Duration::from_nanos(10)).await;
            notify.notify_all();
        });
        sim.run();
        RunReport {
            salt,
            policy,
            probes: probe_events(&sink.events()).len(),
            stuck_tasks: sim.live_tasks(),
            findings: check_sink(&sink),
        }
    };
    let report = explore(16, run);
    assert!(report.runs[0].is_clean(), "FIFO hides the bug");
    let dirty = report.dirty_salts();
    assert!(
        !dirty.is_empty(),
        "some perturbed schedule must strand the waiter:\n{}",
        report.render()
    );
    for salt in &dirty {
        assert_eq!(report.runs[*salt as usize].stuck_tasks, 1);
    }
}

// ---------------------------------------------------------------------------
// Clean workloads: zero findings across 16 schedules.
// ---------------------------------------------------------------------------

/// The Figure 3 microbenchmark (full SMART stack: coroutine slots, QP
/// locks, doorbells, throttle epochs) stays free of lock cycles and
/// atomicity violations under every perturbed schedule.
#[test]
fn fig03_microbench_is_clean_across_16_schedules() {
    let report = explore(16, |policy, salt| {
        let sink = recording_sink();
        let mut spec = MicrobenchSpec::new(SmartConfig::smart_full(4), 4, 4);
        spec.warmup = Duration::from_micros(100);
        spec.measure = Duration::from_micros(400);
        spec.schedule = policy;
        spec.trace = Some(sink.clone());
        let spec = Spec::Micro(spec);
        let bench = run(&spec, &spec.single_plan(), 1).report;
        assert!(bench.ops > 0, "bench made progress");
        RunReport {
            salt,
            policy,
            probes: probe_events(&sink.events()).len(),
            stuck_tasks: 0,
            findings: check_sink(&sink),
        }
    });
    assert!(report.is_clean(), "findings:\n{}", report.render());
    assert!(
        report.runs.iter().all(|r| r.probes > 0),
        "sync probes flowed in every run:\n{}",
        report.render()
    );
}

/// RACE insert/get/update mix under the sanitizer: detector-clean, every
/// key ends at a value some client actually wrote, and write credits are
/// conserved in every thread at quiescence.
fn race_mix_run(policy: SchedulePolicy, salt: u64) -> RunReport {
    let (mut sim, sink) = instrumented_sim(9, policy);
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
    let mut throttles = Vec::new();
    let mut joins = Vec::new();
    for t in 0..4u64 {
        let thread = ctx.create_thread();
        throttles.push(Rc::clone(thread.throttle()));
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
                // Every thread hammers key 0: contended CAS arbitration.
                table
                    .update(&coro, &0u64.to_le_bytes(), &(9_000 + t).to_le_bytes())
                    .await
                    .expect("update");
            }
        }));
    }
    sim.run_for(Duration::from_secs(2));

    let mut findings = check_sink(&sink);
    let stuck = joins.iter().filter(|j| !j.is_finished()).count();

    // Witness check: the hot key must hold one of the four written
    // values; each inserted key must hold its only writer's value.
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
    for throttle in &throttles {
        for msg in throttle.conservation_violations() {
            findings.push(Finding {
                detector: "invariant",
                message: msg,
            });
        }
    }
    RunReport {
        salt,
        policy,
        probes: probe_events(&sink.events()).len(),
        stuck_tasks: stuck,
        findings,
    }
}

#[test]
fn race_mix_is_clean_across_16_schedules() {
    let report = explore(16, race_mix_run);
    assert!(report.is_clean(), "findings:\n{}", report.render());
}

/// Sherman insert mix: detector-clean and the tree holds exactly the
/// loaded plus inserted pairs under every schedule.
#[test]
fn sherman_mix_is_clean_across_16_schedules() {
    let report = explore(16, |policy, salt| {
        let (mut sim, sink) = instrumented_sim(21, policy);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::new(1, 2));
        let tree = ShermanTree::create(cluster.blades(), ShermanConfig::with_speculative_lookup());
        for k in 0..300u64 {
            tree.load(k, k + 1);
        }
        let ctx = SmartContext::new(
            cluster.compute(0),
            cluster.blades(),
            SmartConfig::smart_full(4),
        );
        let mut joins = Vec::new();
        for t in 0..4u64 {
            let thread = ctx.create_thread();
            let tree = Rc::clone(&tree);
            joins.push(sim.spawn(async move {
                let coro = thread.coroutine();
                for i in 0..20u64 {
                    let k = 1_000 + t * 50 + i;
                    tree.insert(&coro, k, k).await;
                }
            }));
        }
        sim.run_for(Duration::from_secs(2));

        let mut findings = check_sink(&sink);
        let stuck = joins.iter().filter(|j| !j.is_finished()).count();
        let mut expected: Vec<(u64, u64)> = (0..300).map(|k| (k, k + 1)).collect();
        let mut inserted: Vec<(u64, u64)> = (0..4u64)
            .flat_map(|t| (0..20u64).map(move |i| 1_000 + t * 50 + i))
            .map(|k| (k, k))
            .collect();
        inserted.sort_unstable();
        expected.extend(inserted);
        for msg in tree.consistency_violations(&expected) {
            findings.push(Finding {
                detector: "invariant",
                message: msg,
            });
        }
        RunReport {
            salt,
            policy,
            probes: probe_events(&sink.events()).len(),
            stuck_tasks: stuck,
            findings,
        }
    });
    assert!(report.is_clean(), "findings:\n{}", report.render());
}

// ---------------------------------------------------------------------------
// Reproducibility: same seed, same bytes.
// ---------------------------------------------------------------------------

/// Running the identical exploration twice must render byte-identical
/// reports — the sanitizer itself obeys the determinism contract.
#[test]
fn same_seed_exploration_is_byte_identical() {
    let a = explore(6, race_mix_run).render();
    let b = explore(6, race_mix_run).render();
    assert_eq!(a, b, "same exploration, same bytes");
}

/// Sanity: a baseline config (per-thread QP, no sharing) also explores
/// clean — the detectors key on real probes, not on the SMART policies.
#[test]
fn baseline_config_microbench_is_clean() {
    let report = explore(4, |policy, salt| {
        let sink = recording_sink();
        let mut spec = MicrobenchSpec::new(SmartConfig::baseline(QpPolicy::PerThreadQp, 4), 4, 4);
        spec.warmup = Duration::from_micros(100);
        spec.measure = Duration::from_micros(300);
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
    });
    assert!(report.is_clean(), "findings:\n{}", report.render());
}
