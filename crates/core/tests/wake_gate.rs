//! Herd gate for the completion hub: a drain wakes only the claimers it
//! completed, in the order they began to wait. A claim that waits is
//! polled exactly twice — once to register, once to resume — however
//! many partial batches arrive in between. A hub that wakes every parked
//! claimer per drain (`notify_all`) fails the first batch's poll count.

use std::cell::RefCell;
use std::rc::Rc;

use smart::{CompletionHub, QpPolicy, SmartConfig, SmartContext};
use smart_rnic::{Cluster, ClusterConfig, Cqe, OpResult};
use smart_rt::{Duration, Simulation};

/// Far above any id the context hands out.
const BASE: u64 = 1 << 40;

/// Claimer `i` waits on ids `a(i)` and `b(i)`.
fn a(i: u64) -> u64 {
    BASE + 2 * i
}

fn b(i: u64) -> u64 {
    BASE + 2 * i + 1
}

/// Eight claimers, claimer `i` on `hubs[i]`, registered in index order;
/// then four partial batches, each pushed onto the CQ at once. Checks
/// per batch that the executor polled the pump `pump_polls` times plus
/// once per claimer the batch completed, and that those resumed in
/// registration order.
fn gate(mut sim: Simulation, hubs: [Rc<CompletionHub>; 8], pump_polls: u64) {
    let h = sim.handle();
    let resumed = Rc::new(RefCell::new(Vec::new()));
    // Let the pump park on its empty CQ.
    sim.run_for(Duration::from_micros(1));
    let before = h.metrics().polls;
    for (i, hub) in (0..).zip(&hubs) {
        let (hub, resumed) = (Rc::clone(hub), Rc::clone(&resumed));
        sim.spawn(async move {
            let cqes = hub.claim(&[a(i), b(i)]).await;
            assert_eq!([cqes[0].wr_id, cqes[1].wr_id], [a(i), b(i)]);
            resumed.borrow_mut().push(i);
        });
    }
    sim.run_for(Duration::from_micros(1));
    assert_eq!(h.metrics().polls - before, 8, "each claimer registers once");
    let batches: [(&[u64], &[u64]); 4] = [
        (&[a(7), a(6), a(5), a(4), a(3)], &[]),
        (&[b(6), b(3), a(0), a(1)], &[3, 6]),
        (&[b(7), b(1), b(4), a(2)], &[1, 4, 7]),
        (&[b(5), b(2), b(0)], &[0, 2, 5]),
    ];
    let cq = hubs[0].cq();
    for (ids, completes) in batches {
        let before = h.metrics().polls;
        for &wr_id in ids {
            cq.push(Cqe {
                wr_id,
                result: OpResult::Write,
            });
        }
        sim.run_for(Duration::from_micros(1));
        assert_eq!(
            h.metrics().polls - before,
            pump_polls + completes.len() as u64,
            "a drain of {ids:?} polls the pump and the claimers it completed, no one else"
        );
        assert_eq!(
            resumed.borrow_mut().drain(..).collect::<Vec<_>>(),
            completes
        );
    }
    assert_eq!(hubs[0].unclaimed(), 0);
}

fn context(policy: QpPolicy) -> (Simulation, Rc<SmartContext>) {
    let sim = Simulation::new(7);
    let cluster = Cluster::new(sim.handle(), ClusterConfig::new(1, 1));
    let ctx = SmartContext::new(
        cluster.compute(0),
        cluster.blades(),
        SmartConfig::baseline(policy, 2),
    );
    (sim, ctx)
}

#[test]
fn per_thread_hub_wakes_only_the_claimers_a_drain_completed() {
    let (sim, ctx) = context(QpPolicy::PerThreadQp);
    let thread = ctx.create_thread();
    // Drain, then the CPU charge for it: two pump polls per batch.
    gate(sim, std::array::from_fn(|_| Rc::clone(thread.hub())), 2);
}

#[test]
fn multiplexed_shared_hub_wakes_only_the_claimers_a_drain_completed() {
    let (sim, ctx) = context(QpPolicy::MultiplexedQp { threads_per_qp: 2 });
    let threads = [ctx.create_thread(), ctx.create_thread()];
    assert!(Rc::ptr_eq(threads[0].hub(), threads[1].hub()));
    // Claimers alternate between the two threads; a shared hub charges
    // no CPU, so one pump poll per batch.
    gate(
        sim,
        std::array::from_fn(|i| Rc::clone(threads[i % 2].hub())),
        1,
    );
}
