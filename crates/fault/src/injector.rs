//! The `FaultInjector`: executes a [`FaultPlan`] against a live cluster.
//!
//! The injector implements [`smart_rnic::FaultHook`], so the RNIC model
//! consults it once per work request at the pre-execution checkpoint, and
//! it drives scheduled events (QP errors, blade crash/restart windows)
//! from a spawned timeline task. It holds only [`Weak`] references to QPs
//! — the hook is owned by each compute node, and a strong reference would
//! close an `Rc` cycle (node → hook → qp → ctx → node) that leaks whole
//! clusters across sweep runs.

use std::cell::{Cell, RefCell};
use std::rc::{Rc, Weak};

use smart_rnic::{Cluster, CqeError, FaultHook, InjectDecision, MemoryBlade, Qp, WorkRequest};
use smart_rt::metrics::Counter;
use smart_rt::{SimHandle, SimTime};
use smart_trace::{Actor, Args, Category};

use crate::plan::{FaultEventKind, FaultPlan};

/// One registered QP: which compute node created it, a weak handle, and
/// the last blade-restart epoch this QP's memory registration has caught
/// up with (stale registrations fail once with `MrRevoked`).
struct QpReg {
    node: u32,
    qp: Weak<Qp>,
    seen_epoch: Cell<u64>,
}

/// Counts of injected faults, by kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Work requests dropped on the fabric (timeout completions).
    pub lost: u64,
    /// Work requests rejected RNR-NAK-style.
    pub rnr: u64,
    /// Work requests delayed by a latency spike.
    pub spikes: u64,
    /// Work requests failed with a permanent remote-access error.
    pub access_errors: u64,
    /// Work requests failed against a stale (post-restart) registration.
    pub mr_revoked: u64,
    /// QP error transitions applied.
    pub qp_errors: u64,
    /// Blade crashes applied.
    pub blade_crashes: u64,
}

impl FaultStats {
    /// Total error completions this injector caused directly (excludes
    /// flushes the RNIC generates while a QP sits in the error state).
    pub fn total_injected(&self) -> u64 {
        self.lost + self.rnr + self.access_errors + self.mr_revoked
    }
}

/// Executes a [`FaultPlan`] against a cluster. Install with
/// [`FaultInjector::install`]; inspect what actually fired with
/// [`FaultInjector::stats`].
pub struct FaultInjector {
    handle: SimHandle,
    plan: FaultPlan,
    qps: RefCell<Vec<QpReg>>,
    lost: Counter,
    rnr: Counter,
    spikes: Counter,
    access_errors: Counter,
    mr_revoked: Counter,
    qp_errors: Counter,
    blade_crashes: Counter,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("plan", &self.plan)
            .field("qps", &self.qps.borrow().len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl FaultInjector {
    /// Installs a blade domain's share of a plan lowered with
    /// [`FaultPlan::lower_onto`] on that domain's cluster replica, if the
    /// share schedules anything. Only the crash/restart timeline matters
    /// there: nothing posts in a blade domain, so the probabilistic draws
    /// never fire (the timeline task keeps its own reference to the
    /// injector).
    pub fn install_share(cluster: &Cluster, share: &FaultPlan) {
        if !share.events().is_empty() {
            FaultInjector::install(cluster, share.clone());
        }
    }

    /// Installs `plan` on every compute node of `cluster` and spawns the
    /// timeline task that applies its scheduled events. Call before
    /// creating QPs so the injector can track them from birth.
    ///
    /// # Panics
    ///
    /// Panics if the cluster has no compute nodes, or if an event names a
    /// node or blade the cluster doesn't have.
    pub fn install(cluster: &Cluster, plan: FaultPlan) -> Rc<Self> {
        assert!(
            !cluster.compute_nodes().is_empty(),
            "fault injection needs at least one compute node"
        );
        let handle = cluster.compute(0).handle().clone();
        for ev in plan.events() {
            match ev.kind {
                FaultEventKind::QpError { node, .. } => assert!(
                    (node as usize) < cluster.compute_nodes().len(),
                    "plan names compute node {node}, cluster has {}",
                    cluster.compute_nodes().len()
                ),
                FaultEventKind::BladeCrash { blade, .. } => assert!(
                    (blade as usize) < cluster.blades().len(),
                    "plan names blade {blade}, cluster has {}",
                    cluster.blades().len()
                ),
            }
        }
        let injector = Rc::new(FaultInjector {
            handle: handle.clone(),
            plan,
            qps: RefCell::new(Vec::new()),
            lost: Counter::new(),
            rnr: Counter::new(),
            spikes: Counter::new(),
            access_errors: Counter::new(),
            mr_revoked: Counter::new(),
            qp_errors: Counter::new(),
            blade_crashes: Counter::new(),
        });
        for node in cluster.compute_nodes() {
            node.install_fault_hook(Rc::clone(&injector) as Rc<dyn FaultHook>);
        }
        // Expand crash events into crash + restart entries and replay them
        // in time order from one driver task.
        let mut timeline: Vec<(SimTime, TimelineAction)> = Vec::new();
        for ev in injector.plan.events() {
            let at = SimTime::ZERO + ev.at;
            match ev.kind {
                FaultEventKind::QpError { node, qp } => {
                    timeline.push((at, TimelineAction::QpError { node, qp }));
                }
                FaultEventKind::BladeCrash { blade, down_for } => {
                    timeline.push((at, TimelineAction::Crash { blade }));
                    timeline.push((at + down_for, TimelineAction::Restart { blade }));
                }
            }
        }
        timeline.sort_by_key(|(t, _)| *t);
        if !timeline.is_empty() {
            let driver = Rc::clone(&injector);
            let blades: Vec<Rc<MemoryBlade>> = cluster.blades().iter().map(Rc::clone).collect();
            handle.clone().spawn(async move {
                for (at, action) in timeline {
                    driver.handle.sleep_until(at).await;
                    driver.apply(&blades, action);
                }
            });
        }
        injector
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Snapshot of what has fired so far.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            lost: self.lost.get(),
            rnr: self.rnr.get(),
            spikes: self.spikes.get(),
            access_errors: self.access_errors.get(),
            mr_revoked: self.mr_revoked.get(),
            qp_errors: self.qp_errors.get(),
            blade_crashes: self.blade_crashes.get(),
        }
    }

    fn trace_event(&self, name: &'static str, args: Args) {
        let handle = &self.handle;
        handle.with_tracer(|t| {
            t.instant(
                handle.now().as_nanos(),
                Actor::SYSTEM,
                Category::Fault,
                name,
                args,
            );
        });
    }

    fn apply(&self, blades: &[Rc<MemoryBlade>], action: TimelineAction) {
        match action {
            TimelineAction::QpError { node, qp } => {
                let regs = self.qps.borrow();
                for (nth, reg) in regs.iter().filter(|r| r.node == node).enumerate() {
                    if !(qp.is_none() || qp == Some(nth as u32)) {
                        continue;
                    }
                    if let Some(qp) = reg.qp.upgrade() {
                        if !qp.is_errored() {
                            qp.force_error();
                            self.qp_errors.incr();
                            self.trace_event(
                                "qp_error",
                                Args::two("node", node as u64, "qp", qp.index() as u64),
                            );
                        }
                    }
                }
            }
            TimelineAction::Crash { blade } => {
                let b = &blades[blade as usize];
                if !b.is_crashed() {
                    b.crash();
                    self.blade_crashes.incr();
                    self.trace_event("blade_crash", Args::one("blade", blade as u64));
                }
            }
            TimelineAction::Restart { blade } => {
                let b = &blades[blade as usize];
                if b.is_crashed() {
                    b.restart();
                    self.trace_event("blade_restart", Args::one("blade", blade as u64));
                }
            }
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum TimelineAction {
    QpError { node: u32, qp: Option<u32> },
    Crash { blade: u32 },
    Restart { blade: u32 },
}

impl FaultHook for FaultInjector {
    fn on_wr(&self, qp: &Qp, _wr: &WorkRequest) -> InjectDecision {
        // Stale memory registration after a blade restart: the first work
        // request per QP fails with MrRevoked, then the (re-registered)
        // handle works again. Gated on epoch > 0 so the scan never runs in
        // crash-free plans.
        let blade = qp.target();
        if blade.epoch() > 0 && !blade.is_crashed() {
            let regs = self.qps.borrow();
            if let Some(reg) = regs
                .iter()
                .find(|r| r.qp.upgrade().is_some_and(|rc| std::ptr::eq(&*rc, qp)))
            {
                if reg.seen_epoch.get() < blade.epoch() {
                    reg.seen_epoch.set(blade.epoch());
                    self.mr_revoked.incr();
                    return InjectDecision::Fail(CqeError::MrRevoked);
                }
            }
        }
        // Probabilistic faults. Every draw is gated on its rate so a
        // passive plan consumes nothing from the simulation's PRNG stream
        // and a chaos run at rate 0 is bit-identical to a fault-free run.
        let p = &self.plan;
        if p.access_error_rate() > 0.0
            && self.handle.with_rng(|r| r.gen_bool(p.access_error_rate()))
        {
            self.access_errors.incr();
            return InjectDecision::Fail(CqeError::RemoteAccess);
        }
        if p.loss_rate() > 0.0 && self.handle.with_rng(|r| r.gen_bool(p.loss_rate())) {
            self.lost.incr();
            return InjectDecision::Fail(CqeError::Timeout);
        }
        if p.rnr_rate() > 0.0 && self.handle.with_rng(|r| r.gen_bool(p.rnr_rate())) {
            self.rnr.incr();
            return InjectDecision::Fail(CqeError::RnrNak);
        }
        let (spike_rate, spike_extra) = p.spikes();
        if spike_rate > 0.0 && self.handle.with_rng(|r| r.gen_bool(spike_rate)) {
            self.spikes.incr();
            return InjectDecision::Delay(spike_extra);
        }
        InjectDecision::Deliver
    }

    fn on_qp_created(&self, qp: &Rc<Qp>) {
        self.qps.borrow_mut().push(QpReg {
            node: qp.context().node().id().0,
            qp: Rc::downgrade(qp),
            seen_epoch: Cell::new(qp.target().epoch()),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smart_rnic::{ClusterConfig, Cq, DoorbellBinding, OneSidedOp, OpResult, RemoteAddr};
    use smart_rt::{Duration, Simulation};

    fn cluster(sim: &Simulation) -> Cluster {
        Cluster::new(sim.handle(), ClusterConfig::new(1, 1))
    }

    #[test]
    fn passive_plan_delivers_everything() {
        let sim = Simulation::new(1);
        let c = cluster(&sim);
        let inj = FaultInjector::install(&c, FaultPlan::new());
        let ctx = c.compute(0).open_context(None);
        ctx.register_memory(1 << 20);
        let cq = Cq::new();
        let qp = ctx.create_qp(c.blade(0), &cq, DoorbellBinding::DriverDefault, false);
        let wr = WorkRequest {
            wr_id: 7,
            op: OneSidedOp::Read {
                addr: RemoteAddr::new(c.blade(0).id(), c.blade(0).alloc(64, 8)),
                len: 64,
            },
        };
        assert_eq!(inj.on_wr(&qp, &wr), InjectDecision::Deliver);
        assert_eq!(inj.stats(), FaultStats::default());
    }

    #[test]
    fn full_loss_fails_every_wr_as_timeout() {
        let mut sim = Simulation::new(1);
        let c = cluster(&sim);
        let inj = FaultInjector::install(&c, FaultPlan::new().with_packet_loss(1.0));
        let ctx = c.compute(0).open_context(None);
        ctx.register_memory(1 << 20);
        let cq = Cq::new();
        let qp = ctx.create_qp(c.blade(0), &cq, DoorbellBinding::DriverDefault, false);
        let off = c.blade(0).alloc(64, 8);
        let addr = RemoteAddr::new(c.blade(0).id(), off);
        let got = sim.block_on(async move {
            qp.post_send(
                vec![WorkRequest {
                    wr_id: 1,
                    op: OneSidedOp::Read { addr, len: 64 },
                }],
                0,
            )
            .await;
            qp.cq().wait_nonempty().await;
            qp.cq().poll(1).remove(0)
        });
        assert_eq!(got.result, OpResult::Error(CqeError::Timeout));
        assert_eq!(inj.stats().lost, 1);
    }

    #[test]
    fn scheduled_qp_error_flushes_and_blade_crash_times_out() {
        let mut sim = Simulation::new(2);
        let c = cluster(&sim);
        let plan = FaultPlan::new()
            .qp_error_at(Duration::from_micros(10), 0, None)
            .blade_crash_at(Duration::from_micros(30), 0, Duration::from_micros(5));
        let inj = FaultInjector::install(&c, plan);
        let ctx = c.compute(0).open_context(None);
        ctx.register_memory(1 << 20);
        let cq = Cq::new();
        let qp = ctx.create_qp(c.blade(0), &cq, DoorbellBinding::DriverDefault, false);
        sim.run_for(Duration::from_micros(20));
        assert!(qp.is_errored());
        assert!(!c.blade(0).is_crashed());
        sim.run_for(Duration::from_micros(12));
        assert!(c.blade(0).is_crashed());
        sim.run_for(Duration::from_micros(10));
        assert!(!c.blade(0).is_crashed(), "blade restarts after the window");
        assert_eq!(c.blade(0).epoch(), 1);
        let stats = inj.stats();
        assert_eq!(stats.qp_errors, 1);
        assert_eq!(stats.blade_crashes, 1);
    }

    #[test]
    fn post_restart_wr_fails_once_with_mr_revoked() {
        let mut sim = Simulation::new(3);
        let c = cluster(&sim);
        let plan =
            FaultPlan::new().blade_crash_at(Duration::from_micros(5), 0, Duration::from_micros(5));
        let inj = FaultInjector::install(&c, plan);
        let ctx = c.compute(0).open_context(None);
        ctx.register_memory(1 << 20);
        let cq = Cq::new();
        let qp = ctx.create_qp(c.blade(0), &cq, DoorbellBinding::DriverDefault, false);
        sim.run_for(Duration::from_micros(20));
        let off = c.blade(0).alloc(8, 8);
        let addr = RemoteAddr::new(c.blade(0).id(), off);
        let wr = |id| WorkRequest {
            wr_id: id,
            op: OneSidedOp::Read { addr, len: 8 },
        };
        assert_eq!(
            inj.on_wr(&qp, &wr(1)),
            InjectDecision::Fail(CqeError::MrRevoked)
        );
        assert_eq!(inj.on_wr(&qp, &wr(2)), InjectDecision::Deliver);
        assert_eq!(inj.stats().mr_revoked, 1);
    }

    #[test]
    fn injector_does_not_leak_qps() {
        let sim = Simulation::new(4);
        let c = cluster(&sim);
        let inj = FaultInjector::install(&c, FaultPlan::new());
        let ctx = c.compute(0).open_context(None);
        ctx.register_memory(1 << 20);
        let cq = Cq::new();
        let qp = ctx.create_qp(c.blade(0), &cq, DoorbellBinding::DriverDefault, false);
        assert_eq!(inj.qps.borrow().len(), 1);
        drop(qp);
        drop(ctx);
        assert!(
            inj.qps.borrow()[0].qp.upgrade().is_none(),
            "injector must hold only weak QP references"
        );
    }
}
