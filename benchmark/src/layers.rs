//! Isolated drivers: host nanoseconds per call of each layer's public
//! functions, timed from outside the layer.
//!
//! Every driver warms up with one untimed batch, then repeats batches
//! until its budget of timed work is spent. Only the calls themselves are
//! inside the timed interval; building the simulation around them is not.
//! The simulated stacks here are small and uncontended on purpose: the
//! distance between these costs and a workload's `host_run_s` is what the
//! outside-in view cannot explain (see `bench.coverage`).

use std::cell::Cell;
use std::future::Future;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

use smart::{QpPolicy, SmartConfig, SmartContext, SmartCoro};
use smart_race::{RaceConfig, RaceHashTable};
use smart_rnic::lru::LruCache;
use smart_rnic::{
    BladeId, Cluster, ClusterConfig, Cq, DoorbellBinding, OneSidedOp, RemoteAddr, WorkRequest,
};
use smart_rt::detmap::DetMap;
use smart_rt::rng::SimRng;
use smart_rt::sync::{ContendedLock, FifoResource, Notify, Semaphore, WorkQueue};
use smart_rt::trace::{Actor, Args, Category, LogHistogram, TraceSink};
use smart_rt::{with_timeout, yield_now, SimTime, Simulation};
use smart_serve::{AdmissionConfig, AdmissionController, ArrivalEngine, RatePlan, SessionPool};
use smart_workloads::ycsb::{Mix, YcsbGenerator};
use smart_workloads::zipf::ScrambledZipfian;

/// Runs every isolated driver for `budget` of timed work each and returns
/// `(metric, value)` pairs.
pub fn run_all(budget: Duration) -> Vec<(&'static str, f64)> {
    let verbs = verbs_wr(budget);
    let plain_wr = coro_wr(budget, false);
    vec![
        ("rt.executor.poll_ns", executor_poll(budget)),
        ("rt.executor.spawn_ns", executor_spawn(budget)),
        ("rt.wheel.timer_ns", wheel_timer(budget)),
        ("rt.wheel.cancel_ns", wheel_cancel(budget)),
        ("rt.sync.semaphore_ns", sync_semaphore(budget)),
        ("rt.sync.lock_ns", sync_lock(budget)),
        ("rt.sync.fifo_ns", sync_fifo(budget)),
        ("rt.sync.notify_ns", sync_notify(budget)),
        ("rt.sync.workqueue_ns", sync_workqueue(budget)),
        ("rt.detmap.op_ns", detmap_op(budget)),
        ("rt.rng.u64_ns", rng_u64(budget)),
        ("rnic.verbs.wr_ns", verbs.0),
        ("rnic.verbs.events_per_wr", verbs.1),
        ("rnic.lru.op_ns", lru_op(budget)),
        ("rnic.doorbell.ring_ns", doorbell_ring(budget)),
        ("rnic.blade.write_ns", blade_write(budget)),
        ("race.load_ns", race_load(budget)),
        ("core.coro.wr_ns", plain_wr),
        ("core.coro.overhead_ns", plain_wr - verbs.0),
        ("core.throttle.wr_ns", coro_wr(budget, true)),
        ("core.conflict.backoff_cas_ns", backoff_cas(budget)),
        ("race.get_ns", race_op(budget, false)),
        ("race.update_ns", race_op(budget, true)),
        ("workloads.zipf.draw_ns", zipf_draw(budget)),
        ("workloads.ycsb.op_ns", ycsb_op(budget)),
        ("trace.hist.record_ns", hist_record(budget)),
        ("trace.sink.masked_ns", sink_span(budget, false)),
        ("trace.sink.record_ns", sink_span(budget, true)),
        ("serve.arrival.next_ns", arrival_next(budget)),
        ("serve.admission.admit_ns", admission_admit(budget)),
        ("serve.session.complete_ns", session_complete(budget)),
    ]
}

/// Host ns per call: `batch` returns how many calls it made and how long
/// they took.
fn per_call_ns(budget: Duration, mut batch: impl FnMut() -> (u64, Duration)) -> f64 {
    batch();
    let (mut calls, mut spent) = (0u64, Duration::ZERO);
    while spent < budget {
        let (n, d) = batch();
        calls += n;
        spent += d;
    }
    spent.as_nanos() as f64 / calls.max(1) as f64
}

/// Times a plain host loop of `n` calls.
fn host_loop(n: u64, mut call: impl FnMut(u64)) -> (u64, Duration) {
    let t = Instant::now();
    for i in 0..n {
        call(i);
    }
    (n, t.elapsed())
}

/// Spawns `tasks` copies of `body` and times running them all to
/// completion. `block_on` (not `run`) because a `SmartContext` keeps
/// controller coroutines alive forever.
fn run_tasks<F, Fut>(sim: &mut Simulation, tasks: usize, body: F) -> Duration
where
    F: Fn(usize) -> Fut,
    Fut: Future<Output = ()> + 'static,
{
    let joins: Vec<_> = (0..tasks).map(|i| sim.spawn(body(i))).collect();
    let t = Instant::now();
    sim.block_on(async move {
        for j in joins {
            j.await;
        }
    });
    t.elapsed()
}

const ITERS: u64 = 20_000;

// --- rt ---------------------------------------------------------------------

fn executor_poll(budget: Duration) -> f64 {
    per_call_ns(budget, || {
        let mut sim = Simulation::new(1);
        let d = run_tasks(&mut sim, 64, |_| async {
            for _ in 0..ITERS / 8 {
                yield_now().await;
            }
        });
        (sim.handle().metrics().polls, d)
    })
}

fn executor_spawn(budget: Duration) -> f64 {
    per_call_ns(budget, || {
        let mut sim = Simulation::new(1);
        let t = Instant::now();
        for _ in 0..ITERS {
            sim.spawn(async {});
        }
        sim.run();
        (ITERS, t.elapsed())
    })
}

fn wheel_timer(budget: Duration) -> f64 {
    per_call_ns(budget, || {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        let d = run_tasks(&mut sim, 64, |i| {
            let h = h.clone();
            async move {
                for _ in 0..ITERS / 16 {
                    h.sleep(Duration::from_nanos(100 + i as u64)).await;
                }
            }
        });
        (sim.handle().metrics().timers_fired, d)
    })
}

fn wheel_cancel(budget: Duration) -> f64 {
    per_call_ns(budget, || {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        let d = run_tasks(&mut sim, 64, |i| {
            let h = h.clone();
            async move {
                for _ in 0..ITERS / 16 {
                    let quick = h.sleep(Duration::from_nanos(100 + i as u64));
                    let _ = with_timeout(&h, Duration::from_micros(10), quick).await;
                }
            }
        });
        (sim.handle().metrics().timers_cancelled, d)
    })
}

fn sync_semaphore(budget: Duration) -> f64 {
    per_call_ns(budget, || {
        let mut sim = Simulation::new(1);
        let sem = Rc::new(Semaphore::new(4));
        let d = run_tasks(&mut sim, 16, |_| {
            let sem = Rc::clone(&sem);
            async move {
                for _ in 0..ITERS / 4 {
                    sem.acquire(1).await;
                    yield_now().await;
                    sem.release(1);
                }
            }
        });
        (16 * (ITERS / 4), d)
    })
}

fn sync_lock(budget: Duration) -> f64 {
    per_call_ns(budget, || {
        let mut sim = Simulation::new(1);
        let lock = Rc::new(ContendedLock::new(
            sim.handle(),
            Duration::from_nanos(50),
            8,
        ));
        let d = run_tasks(&mut sim, 8, |_| {
            let lock = Rc::clone(&lock);
            async move {
                for _ in 0..ITERS / 2 {
                    lock.exec(Duration::from_nanos(20)).await;
                }
            }
        });
        (lock.acquisitions(), d)
    })
}

fn sync_fifo(budget: Duration) -> f64 {
    per_call_ns(budget, || {
        let mut sim = Simulation::new(1);
        let fifo = Rc::new(FifoResource::new(sim.handle()));
        let d = run_tasks(&mut sim, 8, |_| {
            let fifo = Rc::clone(&fifo);
            async move {
                for _ in 0..ITERS / 2 {
                    fifo.use_for(Duration::from_nanos(10)).await;
                }
            }
        });
        (fifo.served(), d)
    })
}

fn sync_notify(budget: Duration) -> f64 {
    per_call_ns(budget, || {
        let mut sim = Simulation::new(1);
        let (ping, pong) = (Notify::new(), Notify::new());
        // Strict ping-pong: at most one notification is ever outstanding,
        // so the single stored permit cannot swallow one.
        let d = run_tasks(&mut sim, 2, |i| {
            let (ping, pong) = (ping.clone(), pong.clone());
            async move {
                for _ in 0..ITERS {
                    if i == 0 {
                        pong.notify_one();
                        ping.notified().await;
                    } else {
                        pong.notified().await;
                        ping.notify_one();
                    }
                }
            }
        });
        (2 * ITERS, d)
    })
}

fn sync_workqueue(budget: Duration) -> f64 {
    per_call_ns(budget, || {
        let mut sim = Simulation::new(1);
        let queue: WorkQueue<u64> = WorkQueue::bounded(256);
        let d = run_tasks(&mut sim, 2, |i| {
            let queue = queue.clone();
            async move {
                if i == 0 {
                    let mut next = 0;
                    while next < 4 * ITERS {
                        if queue.try_push(next).is_ok() {
                            next += 1;
                        } else {
                            yield_now().await;
                        }
                    }
                    queue.close();
                } else {
                    while queue.recv().await.is_some() {}
                }
            }
        });
        (queue.popped(), d)
    })
}

fn detmap_op(budget: Duration) -> f64 {
    per_call_ns(budget, || {
        let mut map: DetMap<u64> = DetMap::new();
        let key = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let t = Instant::now();
        for i in 0..ITERS {
            map.insert(key(i), i);
        }
        for i in 0..ITERS {
            black_box(map.get(&key(i)));
        }
        for i in 0..ITERS {
            black_box(map.remove(&key(i)));
        }
        (3 * ITERS, t.elapsed())
    })
}

fn rng_u64(budget: Duration) -> f64 {
    let mut rng = SimRng::new(1);
    per_call_ns(budget, || {
        host_loop(50 * ITERS, |_| {
            black_box(rng.next_u64());
        })
    })
}

// --- rnic -------------------------------------------------------------------

const BATCH: u64 = 8;
const REGION: u64 = 64 << 20;

fn random_addr(rng: &mut SimRng, blade: u32) -> RemoteAddr {
    RemoteAddr::new(
        BladeId(blade),
        64 + rng.next_u64_below((REGION - 128) / 8) * 8,
    )
}

fn small_cluster(sim: &Simulation, blades: usize) -> Cluster {
    let cluster = Cluster::new(sim.handle(), ClusterConfig::new(1, blades));
    assert!(cluster.blade(0).region_bytes() >= REGION);
    cluster
}

/// Raw `Qp::post_send` + `Cq` polling, no `core`: eight posters with a QP
/// and CQ each, batches of eight READs, on one long-lived simulation.
/// Returns (ns per WR, events per WR).
fn verbs_wr(budget: Duration) -> (f64, f64) {
    let mut sim = Simulation::new(1);
    let cluster = small_cluster(&sim, 1);
    let node = Rc::clone(cluster.compute(0));
    let ctx = node.open_context(None);
    ctx.register_memory(REGION);
    let posters: Vec<_> = (0..8)
        .map(|_| {
            let cq = Cq::new();
            let qp = ctx.create_qp(cluster.blade(0), &cq, DoorbellBinding::DriverDefault, false);
            (qp, cq)
        })
        .collect();
    let round = Cell::new(0u64);
    let ns = per_call_ns(budget, || {
        round.set(round.get() + 1);
        let before = node.counters().ops_completed;
        let d = run_tasks(&mut sim, 8, |i| {
            let (qp, cq) = posters[i].clone();
            let mut rng = SimRng::new(round.get() * 8 + i as u64);
            async move {
                for _ in 0..ITERS / 64 {
                    let wrs = (0..BATCH)
                        .map(|wr_id| WorkRequest {
                            wr_id,
                            op: OneSidedOp::Read {
                                addr: random_addr(&mut rng, 0),
                                len: 8,
                            },
                        })
                        .collect();
                    qp.post_send(wrs, i as u64).await;
                    let mut got = 0;
                    while got < BATCH as usize {
                        cq.wait_nonempty().await;
                        got += cq.poll(BATCH as usize).len();
                    }
                }
            }
        });
        (node.counters().ops_completed - before, d)
    });
    let events = sim.handle().metrics().events() as f64 / node.counters().ops_completed as f64;
    (ns, events)
}

fn lru_op(budget: Duration) -> f64 {
    let mut lru = LruCache::new(1024);
    let mut rng = SimRng::new(1);
    per_call_ns(budget, || {
        host_loop(10 * ITERS, |_| {
            let key = rng.next_u64_below(2048);
            if !lru.touch(&key) {
                lru.insert(key);
            }
        })
    })
}

fn doorbell_ring(budget: Duration) -> f64 {
    per_call_ns(budget, || {
        let mut sim = Simulation::new(1);
        let cluster = small_cluster(&sim, 1);
        let ctx = cluster.compute(0).open_context(None);
        let doorbell = ctx.doorbells().get(0);
        let d = run_tasks(&mut sim, 4, |i| {
            let doorbell = Rc::clone(&doorbell);
            async move {
                for _ in 0..ITERS / 2 {
                    doorbell.ring(i as u64).await;
                }
            }
        });
        (doorbell.rings(), d)
    })
}

fn blade_write(budget: Duration) -> f64 {
    let sim = Simulation::new(1);
    let cluster = small_cluster(&sim, 1);
    let mut rng = SimRng::new(1);
    let value = [7u8; 64];
    per_call_ns(budget, || {
        host_loop(10 * ITERS, |_| {
            let offset = random_addr(&mut rng, 0).offset_bytes;
            cluster.blade(0).write_bytes(offset, &value);
        })
    })
}

const TABLE_KEYS: u64 = 100_000;

fn loaded_table(cluster: &Cluster) -> (Rc<RaceHashTable>, Duration) {
    let table = RaceHashTable::create(
        cluster.blades(),
        RaceConfig {
            initial_depth: 3,
            ..Default::default()
        },
    );
    let t = Instant::now();
    for k in 0..TABLE_KEYS {
        table.load(&k.to_le_bytes(), &k.to_be_bytes());
    }
    (table, t.elapsed())
}

fn race_load(budget: Duration) -> f64 {
    per_call_ns(budget, || {
        let sim = Simulation::new(1);
        let cluster = small_cluster(&sim, 2);
        (TABLE_KEYS, loaded_table(&cluster).1)
    })
}

// --- core / race ------------------------------------------------------------

/// Eight threads of one coroutine each on a fresh context.
fn coroutines(cluster: &Cluster, cfg: SmartConfig) -> (Rc<SmartContext>, Vec<Rc<SmartCoro>>) {
    let ctx = SmartContext::new(cluster.compute(0), cluster.blades(), cfg);
    let coros = (0..8)
        .map(|_| Rc::new(ctx.create_thread().coroutine()))
        .collect();
    (ctx, coros)
}

/// `SmartCoro` read ×8 + `post_send` + `sync`, the same shape as
/// [`verbs_wr`]; with `throttle` the work-request throttle is on.
fn coro_wr(budget: Duration, throttle: bool) -> f64 {
    let mut sim = Simulation::new(1);
    let cluster = small_cluster(&sim, 1);
    let cfg =
        SmartConfig::baseline(QpPolicy::ThreadAwareDoorbell, 8).with_work_req_throttle(throttle);
    let (_ctx, coros) = coroutines(&cluster, cfg);
    let node = Rc::clone(cluster.compute(0));
    let round = Cell::new(0u64);
    per_call_ns(budget, || {
        round.set(round.get() + 1);
        let before = node.counters().ops_completed;
        let d = run_tasks(&mut sim, 8, |i| {
            let coro = Rc::clone(&coros[i]);
            let mut rng = SimRng::new(round.get() * 8 + i as u64);
            async move {
                for _ in 0..ITERS / 64 {
                    for _ in 0..BATCH {
                        coro.read(random_addr(&mut rng, 0), 8);
                    }
                    coro.post_send().await;
                    coro.sync().await;
                }
            }
        });
        (node.counters().ops_completed - before, d)
    })
}

/// Eight coroutines racing `backoff_cas_sync` on one cell, so failed
/// attempts take the backoff path.
fn backoff_cas(budget: Duration) -> f64 {
    let mut sim = Simulation::new(1);
    let cluster = small_cluster(&sim, 1);
    let cell = RemoteAddr::new(BladeId(0), cluster.blade(0).alloc(8, 8));
    let (_ctx, coros) = coroutines(&cluster, SmartConfig::smart_full(8));
    per_call_ns(budget, || {
        let d = run_tasks(&mut sim, 8, |i| {
            let coro = Rc::clone(&coros[i]);
            async move {
                let mut seen = 0;
                for _ in 0..ITERS / 64 {
                    seen = coro.backoff_cas_sync(cell, seen, seen + 1).await;
                }
            }
        });
        (8 * (ITERS / 64), d)
    })
}

/// Uncontended `RaceHashTable::get` / `update` on uniformly spread keys.
fn race_op(budget: Duration, update: bool) -> f64 {
    let mut sim = Simulation::new(1);
    let cluster = small_cluster(&sim, 2);
    let (table, _) = loaded_table(&cluster);
    let (_ctx, coros) = coroutines(&cluster, SmartConfig::smart_full(8));
    let round = Cell::new(0u64);
    per_call_ns(budget, || {
        round.set(round.get() + 1);
        let d = run_tasks(&mut sim, 8, |i| {
            let (coro, table) = (Rc::clone(&coros[i]), Rc::clone(&table));
            let mut rng = SimRng::new(round.get() * 8 + i as u64);
            async move {
                for _ in 0..ITERS / 64 {
                    let key = rng.next_u64_below(TABLE_KEYS).to_le_bytes();
                    if update {
                        table
                            .update(&coro, &key, &key)
                            .await
                            .expect("loaded key updates");
                    } else {
                        table.get(&coro, &key).await.expect("loaded key is found");
                    }
                }
            }
        });
        (8 * (ITERS / 64), d)
    })
}

// --- workloads / trace / serve ----------------------------------------------

fn zipf_draw(budget: Duration) -> f64 {
    let mut zipf = ScrambledZipfian::new(1_000_000, 0.99);
    let mut rng = SimRng::new(1);
    per_call_ns(budget, || {
        host_loop(10 * ITERS, |_| {
            black_box(zipf.next(&mut rng));
        })
    })
}

fn ycsb_op(budget: Duration) -> f64 {
    let mut gen = YcsbGenerator::new(1_000_000, 0.99, Mix::WriteHeavy, 1);
    per_call_ns(budget, || {
        host_loop(10 * ITERS, |_| {
            black_box(gen.next_op());
        })
    })
}

fn hist_record(budget: Duration) -> f64 {
    let mut hist = LogHistogram::new();
    per_call_ns(budget, || {
        host_loop(50 * ITERS, |i| {
            hist.record(black_box(i.wrapping_mul(2_654_435_761) >> 20))
        })
    })
}

/// `TraceSink::span` on a disabled sink (what every untraced run pays at
/// each instrumentation point) or a recording one.
fn sink_span(budget: Duration, enabled: bool) -> f64 {
    let sink = TraceSink::new();
    sink.set_enabled(enabled);
    per_call_ns(budget, || {
        host_loop(50 * ITERS, |i| {
            black_box(&sink).span(
                black_box(i),
                10,
                Actor::thread(i % 8),
                Category::Pipeline,
                "bench",
                Args::NONE,
            );
        })
    })
}

fn arrival_next(budget: Duration) -> f64 {
    per_call_ns(budget, || {
        let plan = RatePlan::new().phase("steady", Duration::from_millis(50), 4e6, 4e6);
        let mut engine = ArrivalEngine::new(1, plan, 100_000, 8_192, 0.9, 50);
        let t = Instant::now();
        while let Some(a) = engine.next_arrival() {
            black_box(a);
        }
        (engine.emitted(), t.elapsed())
    })
}

fn admission_admit(budget: Duration) -> f64 {
    let controller = AdmissionController::new(&AdmissionConfig {
        rate: 3_000_000,
        burst: 512,
        max_queue: 8_192,
    });
    let mut now_ns = 0;
    per_call_ns(budget, || {
        host_loop(10 * ITERS, |_| {
            now_ns += 250; // 4 M/s offered against 3 M/s admitted
            let _ = black_box(controller.admit(SimTime::from_nanos(now_ns), 0));
        })
    })
}

fn session_complete(budget: Duration) -> f64 {
    let pool = SessionPool::new(100_000, 8_192);
    let mut rng = SimRng::new(1);
    per_call_ns(budget, || {
        host_loop(10 * ITERS, |_| pool.complete(rng.next_u64_below(100_000)))
    })
}
