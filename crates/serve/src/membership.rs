//! Scripted elastic membership: planned blade leave/join windows that
//! drive both the router view and the fault layer's crash machinery.
//!
//! A [`MembershipPlan`] is the control-plane story ("blade 2 leaves at
//! 40 ms and rejoins at 70 ms"); it lowers onto two existing mechanisms:
//!
//! * the [`ShardRouter`] view changes at the
//!   *announced* leave instant, so new requests re-route to survivors,
//!   and again at the rejoin instant;
//! * a [`FaultPlan`] blade-crash window starting one `grace` after the
//!   announcement, so requests already in flight toward the leaving
//!   blade either drain within the grace or go through the `try_*`
//!   recovery path exactly as an unplanned crash would (epoch bump, MR
//!   revocation, re-registration on restart).
//!
//! The driver task itself only mutates the router and stamps trace
//! markers; physically downing the blade stays the fault injector's job,
//! which keeps chaos scripting in one place.

use std::rc::Rc;

use smart::ShardRouter;
use smart_fault::FaultPlan;
use smart_rt::{Duration, SimHandle};
use smart_trace::{Actor, Args, Category};

/// One scripted leave/rejoin window.
#[derive(Clone, Copy, Debug)]
pub struct MembershipEvent {
    /// When the blade announces its departure (router re-homes here).
    pub leave_at: Duration,
    /// Roster index of the leaving blade.
    pub blade: u32,
    /// How long the blade stays out; it rejoins at `leave_at + down_for`.
    pub down_for: Duration,
}

/// A deterministic membership script for one run.
#[derive(Clone, Debug, Default)]
pub struct MembershipPlan {
    events: Vec<MembershipEvent>,
    grace: Duration,
}

impl MembershipPlan {
    /// An empty script: the roster never changes.
    pub fn new() -> MembershipPlan {
        MembershipPlan {
            events: Vec::new(),
            grace: Duration::from_micros(20),
        }
    }

    /// Sets the drain grace between the router re-homing away from a
    /// leaving blade and the blade actually going down.
    #[must_use]
    pub fn with_grace(mut self, grace: Duration) -> Self {
        self.grace = grace;
        self
    }

    /// Scripts blade `blade` to leave at `leave_at` and rejoin
    /// `down_for` later.
    #[must_use]
    pub fn leave_at(mut self, leave_at: Duration, blade: u32, down_for: Duration) -> Self {
        assert!(down_for > self.grace, "outage must outlast the drain grace");
        self.events.push(MembershipEvent {
            leave_at,
            blade,
            down_for,
        });
        self
    }

    /// The scripted windows, in insertion order.
    pub fn events(&self) -> &[MembershipEvent] {
        &self.events
    }

    /// The drain grace (see [`with_grace`](MembershipPlan::with_grace)).
    pub fn grace(&self) -> Duration {
        self.grace
    }

    /// Lowers the script onto the fault layer: each window becomes a
    /// blade crash at `leave_at + grace` lasting until the rejoin
    /// instant.
    pub fn fault_plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::new();
        for ev in &self.events {
            plan =
                plan.blade_crash_at(ev.leave_at + self.grace, ev.blade, ev.down_for - self.grace);
        }
        plan
    }

    /// Spawn-ready driver: walks the script in time order, flipping the
    /// router view at each announced leave and each rejoin, stamping a
    /// [`Category::Serve`] marker for both transitions.
    pub async fn drive(self, handle: SimHandle, router: Rc<ShardRouter>) {
        // (time, blade, is_join) transitions, sorted by time.
        let mut steps: Vec<(Duration, u32, bool)> = Vec::new();
        for ev in &self.events {
            steps.push((ev.leave_at, ev.blade, false));
            steps.push((ev.leave_at + ev.down_for, ev.blade, true));
        }
        steps.sort_by_key(|&(at, blade, join)| (at, blade, join));
        let start = handle.now();
        for (at, blade, join) in steps {
            handle.sleep_until(start + at).await;
            if join {
                router.join(blade as usize);
            } else {
                router.leave(blade as usize);
            }
            handle.with_tracer(|sink| {
                sink.instant(
                    handle.now().as_nanos(),
                    Actor::SYSTEM,
                    Category::Serve,
                    if join { "blade_join" } else { "blade_leave" },
                    Args::two("blade", blade as u64, "epoch", router.epoch()),
                );
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smart_fault::FaultEventKind;
    use smart_rt::Simulation;

    #[test]
    fn lowers_to_a_crash_window_inside_the_announced_outage() {
        let plan = MembershipPlan::new()
            .with_grace(Duration::from_micros(10))
            .leave_at(Duration::from_millis(1), 2, Duration::from_micros(300));
        let fp = plan.fault_plan();
        assert_eq!(fp.events().len(), 1);
        let ev = &fp.events()[0];
        assert_eq!(ev.at, Duration::from_millis(1) + Duration::from_micros(10));
        match ev.kind {
            FaultEventKind::BladeCrash { blade, down_for } => {
                assert_eq!(blade, 2);
                assert_eq!(down_for, Duration::from_micros(290));
            }
            _ => panic!("expected a blade crash"),
        }
        assert!(fp.eventually_heals());
    }

    #[test]
    fn driver_flips_the_router_at_leave_and_rejoin() {
        let mut sim = Simulation::new(0);
        let router = Rc::new(ShardRouter::new(3, 6));
        let plan = MembershipPlan::new().leave_at(
            Duration::from_micros(100),
            1,
            Duration::from_micros(200),
        );
        let h = sim.handle();
        let r = Rc::clone(&router);
        sim.spawn(plan.drive(h, r));
        sim.run_for(Duration::from_micros(150));
        assert!(!router.is_live(1), "left at 100 µs");
        assert_eq!(router.epoch(), 1);
        sim.run_for(Duration::from_micros(200));
        assert!(router.is_live(1), "rejoined at 300 µs");
        assert_eq!(router.epoch(), 2);
    }
}
