//! Functional and concurrency tests for the RACE hash table over the
//! simulated RNIC.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use smart::{QpPolicy, SmartConfig, SmartContext};
use smart_race::{RaceConfig, RaceError, RaceHashTable};
use smart_rnic::{Cluster, ClusterConfig};
use smart_rt::rng::SimRng;
use smart_rt::Simulation;

fn small_cfg() -> RaceConfig {
    RaceConfig {
        buckets_per_subtable: 1 << 8,
        initial_depth: 1,
        ..Default::default()
    }
}

fn setup(
    seed: u64,
    threads: usize,
    smart_cfg: SmartConfig,
) -> (Simulation, Rc<RaceHashTable>, Rc<SmartContext>) {
    let sim = Simulation::new(seed);
    let cluster = Cluster::new(sim.handle(), ClusterConfig::new(1, 2));
    let table = RaceHashTable::create(cluster.blades(), small_cfg());
    let mut cfg = smart_cfg;
    cfg.expected_threads = threads;
    let ctx = SmartContext::new(cluster.compute(0), cluster.blades(), cfg);
    (sim, table, ctx)
}

#[test]
fn load_then_get_over_rdma() {
    let (mut sim, table, ctx) = setup(1, 1, SmartConfig::smart_full(1));
    for k in 0..500u64 {
        table.load(&k.to_le_bytes(), &(k * 3).to_le_bytes());
    }
    let coro = ctx.create_thread().coroutine();
    let t = Rc::clone(&table);
    sim.block_on(async move {
        for k in 0..500u64 {
            let v = t.get(&coro, &k.to_le_bytes()).await.expect("present");
            assert_eq!(v, (k * 3).to_le_bytes());
        }
        assert!(t.get(&coro, b"missing-key").await.is_none());
    });
}

#[test]
fn rdma_insert_then_get() {
    let (mut sim, table, ctx) = setup(2, 1, SmartConfig::smart_full(1));
    let coro = ctx.create_thread().coroutine();
    let t = Rc::clone(&table);
    sim.block_on(async move {
        for k in 1000..1300u64 {
            let retries = t
                .insert(&coro, &k.to_le_bytes(), &k.to_be_bytes())
                .await
                .expect("insert");
            assert_eq!(retries, 0, "no contention with one client");
        }
        for k in 1000..1300u64 {
            let v = t.get(&coro, &k.to_le_bytes()).await.expect("present");
            assert_eq!(v, k.to_be_bytes());
        }
    });
    assert_eq!(table.stats().inserts.get(), 300);
}

#[test]
fn update_changes_value_and_remove_clears() {
    let (mut sim, table, ctx) = setup(3, 1, SmartConfig::smart_full(1));
    table.load(b"k1", b"v1");
    let coro = ctx.create_thread().coroutine();
    let t = Rc::clone(&table);
    sim.block_on(async move {
        t.update(&coro, b"k1", b"v2").await.expect("update");
        assert_eq!(t.get(&coro, b"k1").await.as_deref(), Some(b"v2".as_slice()));
        assert_eq!(
            t.update(&coro, b"nope", b"x").await,
            Err(RaceError::NotFound)
        );
        assert!(t.remove(&coro, b"k1").await.expect("remove"));
        assert!(t.get(&coro, b"k1").await.is_none());
        assert!(!t.remove(&coro, b"k1").await.expect("second remove"));
    });
}

#[test]
fn variable_length_keys_and_values() {
    let (mut sim, table, ctx) = setup(4, 1, SmartConfig::smart_full(1));
    let coro = ctx.create_thread().coroutine();
    let t = Rc::clone(&table);
    sim.block_on(async move {
        let long_val = vec![0xAB; 900];
        t.insert(&coro, b"tiny", &long_val).await.expect("insert");
        t.insert(&coro, b"a-much-longer-key-string", b"v")
            .await
            .expect("insert");
        assert_eq!(t.get(&coro, b"tiny").await.expect("present"), long_val);
        assert_eq!(
            t.get(&coro, b"a-much-longer-key-string").await.as_deref(),
            Some(b"v".as_slice())
        );
    });
}

#[test]
fn table_splits_when_buckets_fill() {
    let sim = Simulation::new(5);
    let cluster = Cluster::new(sim.handle(), ClusterConfig::new(1, 1));
    let cfg = RaceConfig {
        buckets_per_subtable: 8, // tiny: 64 slots per subtable
        initial_depth: 0,
        ..Default::default()
    };
    let table = RaceHashTable::create(cluster.blades(), cfg);
    assert_eq!(table.subtable_count(), 1);
    for k in 0..2000u64 {
        table.load(&k.to_le_bytes(), &k.to_ne_bytes());
    }
    assert!(
        table.subtable_count() > 8,
        "table must have split repeatedly"
    );
    // Every key still readable after all the splits (host side check).
    let mut sim = sim;
    let ctx = SmartContext::new(
        cluster.compute(0),
        cluster.blades(),
        SmartConfig::smart_full(1),
    );
    let coro = ctx.create_thread().coroutine();
    let t = Rc::clone(&table);
    sim.block_on(async move {
        for k in (0..2000u64).step_by(37) {
            assert_eq!(
                t.get(&coro, &k.to_le_bytes())
                    .await
                    .expect("present after split"),
                k.to_ne_bytes()
            );
        }
    });
}

#[test]
fn concurrent_updates_to_one_key_converge() {
    let (mut sim, table, ctx) = setup(6, 9, SmartConfig::smart_full(9));
    table.load(b"hot", b"seed");
    let written: Rc<RefCell<Vec<Vec<u8>>>> = Rc::new(RefCell::new(Vec::new()));
    let mut joins = Vec::new();
    for t in 0..8 {
        let thread = ctx.create_thread();
        let table = Rc::clone(&table);
        let written = Rc::clone(&written);
        joins.push(sim.spawn(async move {
            let coro = thread.coroutine();
            for i in 0..10u32 {
                let val = format!("t{t}-i{i}").into_bytes();
                written.borrow_mut().push(val.clone());
                table.update(&coro, b"hot", &val).await.expect("update");
            }
        }));
    }
    sim.run_for(smart_rt::Duration::from_secs(2));
    for j in &joins {
        assert!(j.is_finished(), "all updaters must finish");
    }
    // The final value must be one that some client actually wrote.
    let coro = ctx.create_thread().coroutine();
    let t = Rc::clone(&table);
    let written2 = Rc::clone(&written);
    let mut sim = sim;
    sim.block_on(async move {
        let v = t.get(&coro, b"hot").await.expect("key still present");
        assert!(
            written2.borrow().contains(&v),
            "final value {:?} was never written",
            String::from_utf8_lossy(&v)
        );
    });
    assert_eq!(table.stats().updates.get(), 80);
}

#[test]
fn high_contention_updates_record_retries() {
    let (mut sim, table, ctx) = setup(7, 16, SmartConfig::baseline(QpPolicy::PerThreadQp, 16));
    table.load(b"hot", b"seed");
    let mut joins = Vec::new();
    for _ in 0..16 {
        let thread = ctx.create_thread();
        let table = Rc::clone(&table);
        joins.push(sim.spawn(async move {
            let coro = thread.coroutine();
            for i in 0..20u32 {
                table
                    .update(&coro, b"hot", &i.to_le_bytes())
                    .await
                    .expect("update");
            }
        }));
    }
    sim.run_for(smart_rt::Duration::from_secs(2));
    for j in &joins {
        assert!(j.is_finished());
    }
    assert!(
        table.stats().cas_retries.get() > 0,
        "16 clients hammering one key must lose some CAS races"
    );
    assert_eq!(table.stats().updates.get(), 16 * 20);
}

#[test]
fn random_ops_match_model_hashmap() {
    let (mut sim, table, ctx) = setup(8, 1, SmartConfig::smart_full(1));
    let coro = ctx.create_thread().coroutine();
    let t = Rc::clone(&table);
    sim.block_on(async move {
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut rng = SimRng::new(99);
        for step in 0..600 {
            let key = rng.next_u64_below(64);
            let kb = key.to_le_bytes();
            match rng.next_u64_below(4) {
                0 | 1 => {
                    let val = step as u64;
                    t.insert(&coro, &kb, &val.to_le_bytes())
                        .await
                        .expect("insert");
                    model.insert(key, val);
                }
                2 => {
                    let present = t.remove(&coro, &kb).await.expect("remove");
                    assert_eq!(present, model.remove(&key).is_some(), "step {step}");
                }
                _ => {
                    let got = t
                        .get(&coro, &kb)
                        .await
                        .map(|v| u64::from_le_bytes(v.try_into().expect("8-byte value")));
                    assert_eq!(got, model.get(&key).copied(), "step {step}");
                }
            }
        }
    });
}

#[test]
fn get_direct_matches_rdma_get() {
    let (mut sim, table, ctx) = setup(13, 1, SmartConfig::smart_full(1));
    for k in 0..300u64 {
        table.load(&k.to_le_bytes(), &(k * 9).to_le_bytes());
    }
    let coro = ctx.create_thread().coroutine();
    let t = Rc::clone(&table);
    sim.block_on(async move {
        for k in (0..300u64).step_by(17) {
            let rdma = t.get(&coro, &k.to_le_bytes()).await;
            let direct = t.get_direct(&k.to_le_bytes());
            assert_eq!(rdma, direct, "key {k}");
        }
        assert_eq!(t.get_direct(b"missing"), None);
    });
}

#[test]
fn rdma_insert_that_splits_keeps_every_key() {
    let sim = Simulation::new(14);
    let cluster = Cluster::new(sim.handle(), ClusterConfig::new(1, 1));
    let cfg = RaceConfig {
        buckets_per_subtable: 8, // tiny: the RDMA inserts must split
        initial_depth: 0,
        ..Default::default()
    };
    let table = RaceHashTable::create(cluster.blades(), cfg);
    for k in 0..40u64 {
        table.load(&k.to_le_bytes(), &k.to_be_bytes());
    }
    let before = table.subtable_count();
    let ctx = SmartContext::new(
        cluster.compute(0),
        cluster.blades(),
        SmartConfig::smart_full(1),
    );
    let coro = ctx.create_thread().coroutine();
    let t = Rc::clone(&table);
    let mut sim = sim;
    sim.block_on(async move {
        for k in 40..600u64 {
            t.insert(&coro, &k.to_le_bytes(), &k.to_be_bytes())
                .await
                .expect("insert");
        }
    });
    assert!(
        table.subtable_count() > before,
        "the RDMA inserts must have split the table"
    );
    for k in 0..600u64 {
        assert_eq!(
            table.get_direct(&k.to_le_bytes()),
            Some(k.to_be_bytes().to_vec()),
            "key {k} lost across a split"
        );
    }
}
