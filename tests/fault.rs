//! Tier-1 gate for the `smart-fault` chaos layer: planted fault plans
//! recover with zero invariant violations, permanent errors surface as
//! clean typed errors (never hangs), same-seed chaos runs are
//! byte-identical, and a seeded sweep of random healing plans leaves
//! every application consistent with no stranded coroutines and all
//! write credits conserved.

use std::rc::Rc;

use smart_bench::{parallel_map, run_ht, HtParams};
use smart_lab::smart::{RetryPolicy, SmartConfig, SmartContext, SmartThread};
use smart_lab::smart_fault::{FaultInjector, FaultPlan};
use smart_lab::smart_ford::{backoff_after_abort, DtxError, RecordId, SmallBank};
use smart_lab::smart_race::{RaceConfig, RaceError, RaceHashTable};
use smart_lab::smart_rnic::{Cluster, ClusterConfig, CqeError};
use smart_lab::smart_rt::{Duration, Simulation};
use smart_lab::smart_sherman::{ShermanConfig, ShermanTree};
use smart_lab::smart_workloads::smallbank::SmallBankTxn;
use smart_lab::smart_workloads::ycsb::Mix;

/// How many random plans the sweep tests draw. Override with
/// `FAULT_SWEEP_SEEDS=<n>` (the CI chaos job uses this to scale the
/// sweep independently of the tier-1 default).
fn sweep_seeds() -> u64 {
    std::env::var("FAULT_SWEEP_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}

fn violations_of(threads: &[Rc<SmartThread>]) -> Vec<String> {
    threads
        .iter()
        .flat_map(|t| t.throttle().conservation_violations())
        .collect()
}

// ---------------------------------------------------------------------------
// Planted plan 1: QP error transition in the middle of a batch-heavy run.
// ---------------------------------------------------------------------------

/// Every QP on the compute node is forced into the error state while the
/// hash-table workload has work requests in flight. The flush errors must
/// be recovered transparently (re-establish + repost), every key must end
/// at a value some client wrote, and write credits must be conserved.
#[test]
fn qp_error_mid_batch_recovers_transparently() {
    let mut sim = Simulation::new(41);
    let cluster = Cluster::new(sim.handle(), ClusterConfig::new(1, 2));
    let plan = FaultPlan::new().qp_error_at(Duration::from_micros(120), 0, None);
    let injector = FaultInjector::install(&cluster, plan);
    let table = RaceHashTable::create(cluster.blades(), RaceConfig::default());
    for k in 0..200u64 {
        table.load(&k.to_le_bytes(), &k.to_le_bytes());
    }
    let ctx = SmartContext::new(
        cluster.compute(0),
        cluster.blades(),
        SmartConfig::smart_full(4),
    );
    let mut threads = Vec::new();
    let mut joins = Vec::new();
    for t in 0..4u64 {
        let thread = ctx.create_thread();
        threads.push(Rc::clone(&thread));
        let table = Rc::clone(&table);
        joins.push(sim.spawn(async move {
            let coro = thread.coroutine();
            for i in 0..40u64 {
                let key = (1_000 + t * 100 + i).to_le_bytes();
                table
                    .insert(&coro, &key, &i.to_le_bytes())
                    .await
                    .expect("insert");
                let _ = table.get(&coro, &(i % 200).to_le_bytes()).await;
            }
        }));
    }
    sim.run_for(Duration::from_secs(1));
    for j in &joins {
        assert!(j.is_finished(), "a client is stranded after the QP error");
    }

    assert!(injector.stats().qp_errors > 0, "the QP error never fired");
    let seen: u64 = threads.iter().map(|t| t.stats().faults_seen.get()).sum();
    let recovered: u64 = threads
        .iter()
        .map(|t| t.stats().faults_recovered.get())
        .sum();
    assert!(seen > 0, "no WR was flushed by the error");
    assert!(recovered > 0, "nothing went through the recovery path");
    assert_eq!(violations_of(&threads), Vec::<String>::new());

    let mut witnesses = Vec::new();
    for t in 0..4u64 {
        for i in 0..40u64 {
            witnesses.push((
                (1_000 + t * 100 + i).to_le_bytes().to_vec(),
                vec![i.to_le_bytes().to_vec()],
            ));
        }
    }
    assert_eq!(table.check_witnesses(&witnesses), Vec::<String>::new());
}

// ---------------------------------------------------------------------------
// Planted plan 2: blade crash/restart while transactions are committing.
// ---------------------------------------------------------------------------

/// A memory blade crashes for 100 µs while SmallBank clients are mid
/// commit. Timeout completions and the post-restart region invalidation
/// must all be retried; afterwards the books balance exactly (only
/// money-conserving transactions run) and no record lock is left held.
#[test]
fn blade_crash_during_dtx_commit_recovers() {
    let mut sim = Simulation::new(43);
    let cluster = Cluster::new(sim.handle(), ClusterConfig::new(1, 2));
    let plan =
        FaultPlan::new().blade_crash_at(Duration::from_micros(150), 0, Duration::from_micros(100));
    let injector = FaultInjector::install(&cluster, plan);
    let accounts = 32u64;
    let initial = 1_000i64;
    let bank = SmallBank::create(cluster.blades(), accounts, initial);
    let ctx = SmartContext::new(
        cluster.compute(0),
        cluster.blades(),
        SmartConfig::smart_full(4),
    );
    let mut threads = Vec::new();
    let mut joins = Vec::new();
    for t in 0..4u64 {
        let thread = ctx.create_thread();
        threads.push(Rc::clone(&thread));
        let bank = Rc::clone(&bank);
        let log = bank.db().alloc_log_region();
        joins.push(sim.spawn(async move {
            let coro = thread.coroutine();
            for i in 0..20u64 {
                let txn = SmallBankTxn::SendPayment {
                    from: (t * 20 + i) % 32,
                    to: (t * 20 + i + 7) % 32,
                    amount: 5,
                };
                let mut attempt = 0u32;
                while bank.execute(&coro, log, &txn).await.is_err() {
                    attempt += 1;
                    assert!(attempt < 1_000, "transaction livelocked after the crash");
                    backoff_after_abort(&coro, attempt).await;
                }
            }
        }));
    }
    sim.run_for(Duration::from_secs(1));
    for j in &joins {
        assert!(j.is_finished(), "a client is stranded after the crash");
    }
    assert_eq!(injector.stats().blade_crashes, 1);
    assert_eq!(
        bank.conservation_violations(accounts as i64 * 2 * initial),
        Vec::<String>::new()
    );
    assert_eq!(violations_of(&threads), Vec::<String>::new());
    assert_eq!(bank.stats().committed.get(), 4 * 20);
}

// ---------------------------------------------------------------------------
// Planted plan 3: 1 % packet loss, byte-identical replays.
// ---------------------------------------------------------------------------

/// The same seed must produce the same chaos: two hash-table runs under
/// 1 % injected packet loss render byte-identical reports, and a third
/// run with a different seed injects a different fault history.
#[test]
fn same_seed_chaos_runs_are_byte_identical() {
    let run = |seed: u64| -> String {
        let mut p = HtParams::new(SmartConfig::smart_full(4), 4, 5_000, Mix::ReadHeavy);
        p.warmup = Duration::from_micros(500);
        p.measure = Duration::from_millis(2);
        p.seed = seed;
        p.fault = Some(FaultPlan::new().with_packet_loss(0.01));
        let r = run_ht(&p);
        assert!(r.conservation.is_empty(), "{:?}", r.conservation);
        assert!(r.faults_injected > 0, "1 % loss injected nothing");
        assert!(r.faults_recovered > 0, "nothing recovered");
        format!("{r:?}")
    };
    let a = run(99);
    let b = run(99);
    let c = run(100);
    assert_eq!(a, b, "same seed, same chaos, same bytes");
    assert_ne!(a, c, "different seed must not replay the same faults");
}

// ---------------------------------------------------------------------------
// Planted plan 4: permanent errors surface as typed errors, not hangs.
// ---------------------------------------------------------------------------

/// Under a 100 % access-error plan every application's fallible entry
/// point returns its typed fault error immediately — no retries burn the
/// budget (permanent errors are not retriable) and nothing hangs.
#[test]
fn permanent_error_surfaces_without_hanging() {
    let mut sim = Simulation::new(47);
    let cluster = Cluster::new(sim.handle(), ClusterConfig::new(1, 2));
    let table = RaceHashTable::create(cluster.blades(), RaceConfig::default());
    table.load(b"k", b"v");
    let tree = ShermanTree::create(cluster.blades(), ShermanConfig::default());
    tree.load(7, 8);
    let bank = SmallBank::create(cluster.blades(), 8, 100);
    // Install after loading so host-side loads are unaffected; from here
    // on every work request fails with a permanent access error.
    let _injector = FaultInjector::install(&cluster, FaultPlan::new().with_access_errors(1.0));

    let ctx = SmartContext::new(
        cluster.compute(0),
        cluster.blades(),
        SmartConfig::smart_full(1).with_retry(RetryPolicy::default().with_max_retries(2)),
    );
    let thread = ctx.create_thread();
    let threads = vec![Rc::clone(&thread)];
    let join = sim.spawn(async move {
        let coro = thread.coroutine();
        let ht = table.try_get(&coro, b"k").await;
        assert_eq!(ht, Err(RaceError::Fault(CqeError::RemoteAccess)));
        let bt = tree.try_get(&coro, 7).await;
        let bt_err = bt.expect_err("tree lookup must fail");
        assert_eq!(bt_err.error, CqeError::RemoteAccess);
        assert_eq!(bt_err.attempts, 0, "permanent errors must not be retried");
        let log = bank.db().alloc_log_region();
        let mut txn = bank.db().begin(&coro, log);
        let dtx = txn.fetch(&[RecordId { table: 0, key: 1 }]).await;
        assert_eq!(
            dtx.expect_err("fetch must fail"),
            DtxError::Fault(CqeError::RemoteAccess)
        );
    });
    sim.run_for(Duration::from_secs(1));
    assert!(join.is_finished(), "permanent-error path hung");
    assert_eq!(violations_of(&threads), Vec::<String>::new());
}

// ---------------------------------------------------------------------------
// Seeded sweep: random healing plans across all three applications.
// ---------------------------------------------------------------------------

fn sweep_horizon() -> Duration {
    Duration::from_millis(1)
}

/// Hash table under a random healing plan: all clients finish, witnesses
/// hold, credits conserved.
fn ht_chaos(seed: u64, plan: FaultPlan) -> Vec<String> {
    let mut sim = Simulation::new(seed);
    let cluster = Cluster::new(sim.handle(), ClusterConfig::new(1, 2));
    let _injector = FaultInjector::install(&cluster, plan);
    let table = RaceHashTable::create(cluster.blades(), RaceConfig::default());
    for k in 0..100u64 {
        table.load(&k.to_le_bytes(), &k.to_le_bytes());
    }
    let ctx = SmartContext::new(
        cluster.compute(0),
        cluster.blades(),
        SmartConfig::smart_full(2),
    );
    let mut threads = Vec::new();
    let mut joins = Vec::new();
    for t in 0..2u64 {
        let thread = ctx.create_thread();
        threads.push(Rc::clone(&thread));
        let table = Rc::clone(&table);
        joins.push(sim.spawn(async move {
            let coro = thread.coroutine();
            for i in 0..25u64 {
                let key = (500 + t * 100 + i).to_le_bytes();
                table
                    .insert(&coro, &key, &i.to_le_bytes())
                    .await
                    .expect("insert");
                let _ = table.get(&coro, &(i % 100).to_le_bytes()).await;
            }
        }));
    }
    sim.run_for(Duration::from_secs(2));
    let mut out = Vec::new();
    for (t, j) in joins.iter().enumerate() {
        if !j.is_finished() {
            out.push(format!("ht client {t} stranded"));
        }
    }
    let mut witnesses = Vec::new();
    for t in 0..2u64 {
        for i in 0..25u64 {
            witnesses.push((
                (500 + t * 100 + i).to_le_bytes().to_vec(),
                vec![i.to_le_bytes().to_vec()],
            ));
        }
    }
    out.extend(table.check_witnesses(&witnesses));
    out.extend(violations_of(&threads));
    out
}

/// SmallBank under a random healing plan: all clients finish, money is
/// conserved, no lock leaked, credits conserved.
fn dtx_chaos(seed: u64, plan: FaultPlan) -> Vec<String> {
    let mut sim = Simulation::new(seed);
    let cluster = Cluster::new(sim.handle(), ClusterConfig::new(1, 2));
    let _injector = FaultInjector::install(&cluster, plan);
    let accounts = 16u64;
    let initial = 500i64;
    let bank = SmallBank::create(cluster.blades(), accounts, initial);
    let ctx = SmartContext::new(
        cluster.compute(0),
        cluster.blades(),
        SmartConfig::smart_full(2),
    );
    let mut threads = Vec::new();
    let mut joins = Vec::new();
    for t in 0..2u64 {
        let thread = ctx.create_thread();
        threads.push(Rc::clone(&thread));
        let bank = Rc::clone(&bank);
        let log = bank.db().alloc_log_region();
        joins.push(sim.spawn(async move {
            let coro = thread.coroutine();
            for i in 0..15u64 {
                let txn = SmallBankTxn::SendPayment {
                    from: (t * 15 + i) % 16,
                    to: (t * 15 + i + 3) % 16,
                    amount: 1,
                };
                let mut attempt = 0u32;
                while bank.execute(&coro, log, &txn).await.is_err() {
                    attempt += 1;
                    if attempt >= 2_000 {
                        return;
                    }
                    backoff_after_abort(&coro, attempt).await;
                }
            }
        }));
    }
    sim.run_for(Duration::from_secs(2));
    let mut out = Vec::new();
    for (t, j) in joins.iter().enumerate() {
        if !j.is_finished() {
            out.push(format!("dtx client {t} stranded"));
        }
    }
    out.extend(bank.conservation_violations(accounts as i64 * 2 * initial));
    out.extend(violations_of(&threads));
    out
}

/// Sherman under a random healing plan: all clients finish, the tree
/// holds exactly the loaded plus inserted pairs, credits conserved.
fn bt_chaos(seed: u64, plan: FaultPlan) -> Vec<String> {
    let mut sim = Simulation::new(seed);
    let cluster = Cluster::new(sim.handle(), ClusterConfig::new(1, 2));
    let _injector = FaultInjector::install(&cluster, plan);
    let tree = ShermanTree::create(cluster.blades(), ShermanConfig::with_speculative_lookup());
    for k in 0..150u64 {
        tree.load(k, k + 1);
    }
    let ctx = SmartContext::new(
        cluster.compute(0),
        cluster.blades(),
        SmartConfig::smart_full(2),
    );
    let mut threads = Vec::new();
    let mut joins = Vec::new();
    for t in 0..2u64 {
        let thread = ctx.create_thread();
        threads.push(Rc::clone(&thread));
        let tree = Rc::clone(&tree);
        joins.push(sim.spawn(async move {
            let coro = thread.coroutine();
            for i in 0..15u64 {
                let k = 1_000 + t * 50 + i;
                tree.insert(&coro, k, k).await;
                let _ = tree.get(&coro, i % 150).await;
            }
        }));
    }
    sim.run_for(Duration::from_secs(2));
    let mut out = Vec::new();
    for (t, j) in joins.iter().enumerate() {
        if !j.is_finished() {
            out.push(format!("bt client {t} stranded"));
        }
    }
    let mut expected: Vec<(u64, u64)> = (0..150).map(|k| (k, k + 1)).collect();
    expected.extend(
        (0..2u64)
            .flat_map(|t| (0..15u64).map(move |i| 1_000 + t * 50 + i))
            .map(|k| (k, k)),
    );
    out.extend(tree.consistency_violations(&expected));
    out.extend(violations_of(&threads));
    out
}

/// The sweep itself: `FAULT_SWEEP_SEEDS` random healing plans, each run
/// against all three applications. Any violation anywhere fails with the
/// offending seed and plan description.
#[test]
fn random_healing_plans_leave_every_app_consistent() {
    let mut jobs = Vec::new();
    for seed in 0..sweep_seeds() {
        for (app, run) in [
            ("ht", ht_chaos as fn(u64, FaultPlan) -> Vec<String>),
            ("dtx", dtx_chaos),
            ("bt", bt_chaos),
        ] {
            jobs.push((seed, app, run));
        }
    }
    // Each (seed, app) chaos run is an independent simulation, so the
    // sweep fans out across OS threads; results merge in submission
    // order, so the failure report reads exactly like a sequential one.
    let failures: Vec<String> = parallel_map(jobs, |_, (seed, app, run)| {
        let plan = FaultPlan::random(seed, sweep_horizon(), 1, 2);
        assert!(plan.eventually_heals(), "random plans must heal");
        let violations = run(seed, plan.clone());
        if violations.is_empty() {
            None
        } else {
            Some(format!(
                "seed {seed} [{app}] plan `{}`: {violations:?}",
                plan.describe()
            ))
        }
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(failures.is_empty(), "chaos sweep failures:\n{failures:#?}");
}

/// Fault statistics of a random plan replay deterministically.
#[test]
fn random_plan_injection_is_deterministic() {
    let run = |seed: u64| -> (u64, String) {
        let mut sim = Simulation::new(5);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::new(1, 2));
        let plan = FaultPlan::random(seed, sweep_horizon(), 1, 2);
        let injector = FaultInjector::install(&cluster, plan);
        let table = RaceHashTable::create(cluster.blades(), RaceConfig::default());
        for k in 0..50u64 {
            table.load(&k.to_le_bytes(), &k.to_le_bytes());
        }
        let ctx = SmartContext::new(
            cluster.compute(0),
            cluster.blades(),
            SmartConfig::smart_full(1),
        );
        let thread = ctx.create_thread();
        let t2 = Rc::clone(&thread);
        sim.spawn(async move {
            let coro = t2.coroutine();
            for i in 0..60u64 {
                let _ = table.get(&coro, &(i % 50).to_le_bytes()).await;
            }
        });
        sim.run_for(Duration::from_secs(1));
        (
            thread.stats().faults_seen.get(),
            format!("{:?}", injector.stats()),
        )
    };
    assert_eq!(run(3), run(3), "same plan seed, same fault history");
}
