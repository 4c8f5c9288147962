//! The `FaultPlan` DSL: a declarative, deterministic chaos schedule.
//!
//! A plan combines **scheduled events** at absolute virtual times (QP
//! error transitions, blade crash/restart windows) with **per-work-request
//! probabilities** (packet loss, RNR rejections, latency spikes, permanent
//! access errors). Probabilities are drawn from the simulation's seeded
//! PRNG, so a plan replayed against the same seed injects the exact same
//! faults — chaos runs are as reproducible as healthy ones.

use std::time::Duration;

use smart_rnic::{BladeId, NodeId};
use smart_rt::pdes::DomainId;
use smart_rt::rng::SimRng;

/// A scheduled fault at an absolute virtual time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Virtual time (since simulation start) at which the fault fires.
    pub at: Duration,
    /// What happens.
    pub kind: FaultEventKind,
}

/// The kinds of scheduled faults.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultEventKind {
    /// Transition QPs of compute node `node` to the error state: work
    /// requests that have not yet left the node flush as error
    /// completions, and new posts flush until the recovery layer
    /// re-establishes them. `qp` selects the n-th QP created on that
    /// node, `None` selects all of them.
    QpError {
        /// Compute-node index.
        node: u32,
        /// Index into the node's QPs in creation order; `None` = all.
        qp: Option<u32>,
    },
    /// Crash memory blade `blade` for `down_for`: operations targeting it
    /// surface as timeout completions, and after restart each QP sees one
    /// stale-MR completion before its re-registered handle works again.
    BladeCrash {
        /// Blade index.
        blade: u32,
        /// Length of the outage window.
        down_for: Duration,
    },
}

/// A deterministic chaos schedule. Build with the `with_*`/`*_at`
/// methods, then hand to
/// [`FaultInjector::install`](crate::FaultInjector::install).
///
/// ```rust
/// use smart_fault::FaultPlan;
/// use std::time::Duration;
///
/// let plan = FaultPlan::new()
///     .with_packet_loss(0.01)
///     .qp_error_at(Duration::from_micros(50), 0, None)
///     .blade_crash_at(Duration::from_millis(1), 0, Duration::from_micros(200));
/// assert_eq!(plan.events().len(), 2);
/// assert!(!plan.is_passive());
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    loss_rate: f64,
    rnr_rate: f64,
    spike_rate: f64,
    spike_extra: Duration,
    access_error_rate: f64,
}

impl FaultPlan {
    /// An empty plan: no faults at all.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedules a QP error transition (see [`FaultEventKind::QpError`]).
    #[must_use]
    pub fn qp_error_at(mut self, at: Duration, node: u32, qp: Option<u32>) -> Self {
        self.events.push(FaultEvent {
            at,
            kind: FaultEventKind::QpError { node, qp },
        });
        self
    }

    /// Schedules a blade crash/restart window (see
    /// [`FaultEventKind::BladeCrash`]).
    #[must_use]
    pub fn blade_crash_at(mut self, at: Duration, blade: u32, down_for: Duration) -> Self {
        self.events.push(FaultEvent {
            at,
            kind: FaultEventKind::BladeCrash { blade, down_for },
        });
        self
    }

    /// Each work request is independently lost on the fabric with
    /// probability `rate`, surfacing as a retriable timeout completion.
    #[must_use]
    pub fn with_packet_loss(mut self, rate: f64) -> Self {
        self.loss_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Each work request is independently rejected RNR-NAK-style with
    /// probability `rate` (retriable).
    #[must_use]
    pub fn with_rnr(mut self, rate: f64) -> Self {
        self.rnr_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Each work request independently suffers an `extra` latency spike
    /// with probability `rate` (no error; it just arrives late).
    #[must_use]
    pub fn with_latency_spikes(mut self, rate: f64, extra: Duration) -> Self {
        self.spike_rate = rate.clamp(0.0, 1.0);
        self.spike_extra = extra;
        self
    }

    /// Each work request independently fails with a **permanent** remote
    /// access error with probability `rate`. Permanent errors are not
    /// retried: they propagate to the application as a typed error.
    #[must_use]
    pub fn with_access_errors(mut self, rate: f64) -> Self {
        self.access_error_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Folds another plan into this one: scheduled events concatenate
    /// (the injector orders them by time anyway), and each per-WR
    /// probability knob takes `other`'s value when set there, keeping
    /// `self`'s otherwise.
    ///
    /// This lets a scripted timeline (say, a membership driver's blade
    /// leave/join windows) compose with an orthogonal background-noise
    /// plan without either side knowing about the other. When both plans
    /// set the *same* probability knob, `other` wins — callers layering
    /// two noise plans should pick one owner per knob.
    #[must_use]
    pub fn merge(mut self, other: &FaultPlan) -> Self {
        self.events.extend(other.events.iter().cloned());
        if other.loss_rate > 0.0 {
            self.loss_rate = other.loss_rate;
        }
        if other.rnr_rate > 0.0 {
            self.rnr_rate = other.rnr_rate;
        }
        if other.spike_rate > 0.0 {
            self.spike_rate = other.spike_rate;
            self.spike_extra = other.spike_extra;
        }
        if other.access_error_rate > 0.0 {
            self.access_error_rate = other.access_error_rate;
        }
        self
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Packet-loss probability per work request.
    pub fn loss_rate(&self) -> f64 {
        self.loss_rate
    }

    /// RNR-rejection probability per work request.
    pub fn rnr_rate(&self) -> f64 {
        self.rnr_rate
    }

    /// Latency-spike probability and magnitude.
    pub fn spikes(&self) -> (f64, Duration) {
        (self.spike_rate, self.spike_extra)
    }

    /// Permanent access-error probability per work request.
    pub fn access_error_rate(&self) -> f64 {
        self.access_error_rate
    }

    /// Whether the plan injects nothing at all. A passive plan's injector
    /// never draws from the PRNG and never perturbs timing, so a run with
    /// it installed is bit-identical to a run without any injector.
    pub fn is_passive(&self) -> bool {
        self.events.is_empty()
            && self.loss_rate == 0.0
            && self.rnr_rate == 0.0
            && self.spike_rate == 0.0
            && self.access_error_rate == 0.0
    }

    /// Whether every injected fault is transient — i.e. a run under this
    /// plan eventually heals, so a recovery layer with an unlimited retry
    /// budget must converge.
    pub fn eventually_heals(&self) -> bool {
        self.access_error_rate == 0.0
    }

    /// Generates a random *healing* plan from `seed`, scaled to a run of
    /// roughly `horizon` virtual time over `nodes` compute nodes and
    /// `blades` memory blades: low-rate packet loss / RNR / spikes plus up
    /// to two QP error transitions and at most one short blade outage.
    /// Never generates permanent errors, so recovery must converge.
    pub fn random(seed: u64, horizon: Duration, nodes: u32, blades: u32) -> Self {
        let mut rng = SimRng::new(seed);
        let h = horizon.as_nanos() as u64;
        let mut plan = FaultPlan::new()
            .with_packet_loss(rng.next_f64() * 0.02)
            .with_rnr(rng.next_f64() * 0.01);
        if rng.gen_bool(0.5) {
            plan = plan.with_latency_spikes(
                rng.next_f64() * 0.02,
                Duration::from_nanos(rng.gen_range(1_000, 20_000)),
            );
        }
        let qp_errors = rng.next_u64_below(3);
        for _ in 0..qp_errors {
            let at = Duration::from_nanos(rng.gen_range(h / 10, h));
            let node = rng.next_u64_below(nodes.max(1) as u64) as u32;
            plan = plan.qp_error_at(at, node, None);
        }
        if rng.gen_bool(0.5) {
            let at = Duration::from_nanos(rng.gen_range(h / 10, h * 7 / 10));
            let down = Duration::from_nanos(rng.gen_range(h / 50, h / 10));
            let blade = rng.next_u64_below(blades.max(1) as u64) as u32;
            plan = plan.blade_crash_at(at, blade, down);
        }
        plan
    }

    /// Lowers the plan onto a scheduling-domain partition: scheduled
    /// events land on the domain owning their target (QP errors with the
    /// node, blade crashes with the blade), while per-work-request
    /// probability knobs replicate into every domain — they are drawn at
    /// the posting site, which always lives with the node.
    ///
    /// Returns one `(domain, plan)` entry per domain of the partition, in
    /// domain order, so a PDES coordinator can install each sub-plan when
    /// it builds that domain. The concatenation of all sub-plans' events
    /// preserves the original insertion order within each domain.
    pub fn lower_onto(&self, plan: &smart_rnic::DomainPlan) -> Vec<(DomainId, FaultPlan)> {
        let mut out: Vec<(DomainId, FaultPlan)> = (0..plan.domains())
            .map(|d| {
                let mut sub = self.clone();
                sub.events.clear();
                (DomainId(d), sub)
            })
            .collect();
        for ev in &self.events {
            let owner = match ev.kind {
                FaultEventKind::QpError { node, .. } => plan.node_domain(NodeId(node)),
                FaultEventKind::BladeCrash { blade, .. } => plan.blade_domain(BladeId(blade)),
            };
            out[owner.index()].1.events.push(ev.clone());
        }
        out
    }

    /// One-line human-readable summary (for findings reports).
    pub fn describe(&self) -> String {
        format!(
            "loss={:.4} rnr={:.4} spikes={:.4}/{:?} access={:.4} events={}",
            self.loss_rate,
            self.rnr_rate,
            self.spike_rate,
            self.spike_extra,
            self.access_error_rate,
            self.events.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates() {
        let p = FaultPlan::new()
            .with_packet_loss(0.01)
            .with_rnr(0.002)
            .with_latency_spikes(0.05, Duration::from_micros(10))
            .qp_error_at(Duration::from_micros(5), 1, Some(0))
            .blade_crash_at(Duration::from_micros(9), 0, Duration::from_micros(3));
        assert_eq!(p.loss_rate(), 0.01);
        assert_eq!(p.rnr_rate(), 0.002);
        assert_eq!(p.spikes(), (0.05, Duration::from_micros(10)));
        assert_eq!(p.events().len(), 2);
        assert!(!p.is_passive());
        assert!(p.eventually_heals());
    }

    #[test]
    fn empty_plan_is_passive() {
        assert!(FaultPlan::new().is_passive());
        assert!(!FaultPlan::new().with_access_errors(0.5).eventually_heals());
    }

    #[test]
    fn rates_are_clamped() {
        let p = FaultPlan::new().with_packet_loss(7.0).with_rnr(-1.0);
        assert_eq!(p.loss_rate(), 1.0);
        assert_eq!(p.rnr_rate(), 0.0);
    }

    #[test]
    fn random_plans_are_deterministic_and_healing() {
        let h = Duration::from_millis(2);
        for seed in 0..64 {
            let a = FaultPlan::random(seed, h, 2, 2);
            let b = FaultPlan::random(seed, h, 2, 2);
            assert_eq!(a, b, "seed {seed} not reproducible");
            assert!(
                a.eventually_heals(),
                "seed {seed} generated permanent faults"
            );
            for ev in a.events() {
                assert!(ev.at <= h, "seed {seed} scheduled past horizon");
            }
        }
    }

    #[test]
    fn merge_concatenates_events_and_overlays_rates() {
        let timeline = FaultPlan::new()
            .blade_crash_at(Duration::from_micros(10), 1, Duration::from_micros(5))
            .with_packet_loss(0.25);
        let noise = FaultPlan::new()
            .qp_error_at(Duration::from_micros(3), 0, None)
            .with_rnr(0.5);
        let merged = timeline.clone().merge(&noise);
        assert_eq!(merged.events().len(), 2);
        assert_eq!(merged.events()[0], timeline.events()[0]);
        assert_eq!(merged.events()[1], noise.events()[0]);
        assert_eq!(merged.loss_rate(), 0.25, "unset knob keeps self's value");
        assert_eq!(merged.rnr_rate(), 0.5, "other's set knob wins");
        assert!(!merged.is_passive());
        // Merging an empty plan changes nothing.
        assert_eq!(timeline.clone().merge(&FaultPlan::new()), timeline);
    }

    #[test]
    fn lower_onto_routes_events_to_owning_domains() {
        let plan = FaultPlan::new()
            .with_packet_loss(0.1)
            .qp_error_at(Duration::from_micros(3), 0, None)
            .blade_crash_at(Duration::from_micros(10), 1, Duration::from_micros(5))
            .blade_crash_at(Duration::from_micros(20), 0, Duration::from_micros(5));
        let part = smart_rnic::DomainPlan::per_blade(1, 2);
        let lowered = plan.lower_onto(&part);
        assert_eq!(lowered.len(), 3);
        // QP error stays with node 0's domain (0); blade crashes follow
        // their blades (blade 0 → domain 1, blade 1 → domain 2).
        assert_eq!(lowered[0].1.events().len(), 1);
        assert_eq!(lowered[1].1.events().len(), 1);
        assert_eq!(lowered[2].1.events().len(), 1);
        assert!(matches!(
            lowered[2].1.events()[0].kind,
            FaultEventKind::BladeCrash { blade: 1, .. }
        ));
        // Probability knobs replicate everywhere.
        for (_, sub) in &lowered {
            assert_eq!(sub.loss_rate(), 0.1);
        }
        // The single-domain lowering is the plan itself.
        let single = plan.lower_onto(&smart_rnic::DomainPlan::single(1, 2));
        assert_eq!(single.len(), 1);
        assert_eq!(single[0].1, plan);
    }

    #[test]
    fn random_plans_vary_across_seeds() {
        let h = Duration::from_millis(2);
        let distinct: std::collections::BTreeSet<String> = (0..32)
            .map(|s| format!("{:?}", FaultPlan::random(s, h, 2, 2)))
            .collect();
        assert!(
            distinct.len() > 16,
            "only {} distinct plans",
            distinct.len()
        );
    }
}
