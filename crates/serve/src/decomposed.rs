//! The driver of the serve scenario: every serve run goes through here.
//!
//! [`run_serve_decomposed`] runs the `ServeScenario` body — compute
//! node, arrival engine, admission controller, session pool and all
//! worker coroutines — in domain 0 of a [`smart_rnic::run_decomposed`]
//! topology, the same driver every other workload runs through, with
//! FIFO tie-breaking; each blade domain of the [`DomainPlan`] runs its blades
//! behind typed request/completion envelopes whose channel latency is
//! the fabric one-way delay; a blade the plan keeps in domain 0 (every
//! blade, under [`DomainPlan::single`], which is what
//! [`crate::run_serve`] runs) is served in place. A watcher coroutine
//! waits out the rate plan and the drain budget, then quiesces the
//! controller coroutines, and the engine runs to quiescence. All plans
//! share one verb lifecycle (one blade half, one fault rule); what a
//! partition changes is the order in which events of different domains
//! that fall on the same nanosecond merge.
//!
//! Every domain replays the same deterministic bootstrap
//! (`seed_balances`), so each blade domain's own blades are
//! authoritative without shipping state. The membership script's fault
//! plan (plus chaos) is installed in full on domain 0 — post-side draws
//! and the shadow crash timeline that drives `MrRevoked` epochs — and
//! lowered onto the blade domains so the authoritative blades crash and
//! rejoin on the same schedule, as `smart_bench::run` does for the
//! closed-loop workloads.
//!
//! The balance-conservation audit is split across the partition: domain
//! 0 sums only the blades it owns, every blade domain's finish artifact
//! carries `sum=` for its own slabs, and the driver settles the two
//! against `accounts × initial_balance + ledger`.

use std::cell::Cell;
use std::rc::Rc;

use smart_fault::FaultInjector;
use smart_rnic::{run_decomposed, BladeId, Decomposed, DomainPlan};
use smart_rt::pdes::DomainId;
use smart_rt::{Duration, SchedulePolicy};

use crate::engine::{cluster_config, seed_balances, BalanceAudit, ServeScenario};
use crate::report::ServeReport;
use crate::ServeSpec;

/// Runs a serve scenario decomposed over `plan`, executable by up to
/// `engine_workers` OS threads; `spec.trace`, when set, is installed in
/// the compute domain.
///
/// The result is byte-identical for every `engine_workers` value — the
/// PDES determinism contract. `report.sim_events` sums scheduling events
/// over all domains.
///
/// # Panics
///
/// Panics if the plan hosts the compute node outside domain 0 or does
/// not cover the cluster shape.
pub fn run_serve_decomposed(
    spec: &ServeSpec,
    plan: &DomainPlan,
    engine_workers: usize,
) -> Decomposed<ServeReport> {
    let audit: Rc<Cell<Option<BalanceAudit>>> = Rc::default();
    let (spec0, plan0, audit0) = (spec.clone(), plan.clone(), Rc::clone(&audit));
    let lowered = spec
        .membership
        .fault_plan()
        .merge(&spec.chaos)
        .lower_onto(plan);
    let (shards, accounts, initial) = (spec.shards, spec.accounts, spec.initial_balance);
    let mut d = run_decomposed(
        spec.seed,
        SchedulePolicy::Fifo,
        cluster_config(spec),
        plan,
        engine_workers,
        move |h, cluster| {
            let scenario = Rc::new(ServeScenario::start(h, cluster, &spec0));

            // Watcher: waits out the plan, polls the drain budget in
            // 1 ms slices until the workers have exited, then quiesces
            // the controller coroutines so the engine can run to
            // quiescence — in-flight recoveries finish on their own.
            let stranded = Rc::new(Cell::new(0usize));
            {
                let (hh, scenario, stranded) =
                    (h.clone(), Rc::clone(&scenario), Rc::clone(&stranded));
                let (total, drain) = (spec0.plan.total(), spec0.drain);
                h.spawn(async move {
                    let start = hh.now();
                    hh.sleep_until(start + total).await;
                    let slice = Duration::from_millis(1);
                    let mut drained = Duration::ZERO;
                    while scenario.stranded() > 0 && drained < drain {
                        hh.sleep(slice).await;
                        drained += slice;
                    }
                    stranded.set(scenario.stranded());
                    scenario.ctx.quiesce_controllers();
                });
            }

            Box::new(move || {
                // Domain 0 audits only the blades it owns: every other
                // blade's authoritative bytes live in its own domain.
                let (report, balance) = scenario.report(&spec0, stranded.get(), |bi| {
                    plan0.blade_domain(BladeId(bi as u32)) == DomainId(0)
                });
                audit0.set(Some(balance));
                report
            })
        },
        move |cluster, domain| {
            let (_, slabs) = seed_balances(cluster.blades(), shards, accounts, initial);
            FaultInjector::install_share(cluster, &lowered[domain.index()].1);
            Box::new(move |i, blade| format!("sum={} ", slabs.sum_on(i, blade)))
        },
    );
    d.report.sim_events = d.events;
    // Settle the split balance audit: domain 0's share plus every blade
    // domain's authoritative slab sums.
    let remote = d
        .blade_log
        .split_whitespace()
        .filter_map(|w| w.strip_prefix("sum="))
        .fold(0u64, |acc, v| {
            acc.wrapping_add(v.parse().expect("blade artifact sum"))
        });
    audit
        .take()
        .expect("compute domain must finish")
        .settle(remote, &mut d.report);
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::RatePlan;
    use crate::membership::MembershipPlan;

    fn small_spec() -> ServeSpec {
        let plan = RatePlan::new()
            .phase("ramp", Duration::from_millis(2), 0.0, 60_000.0)
            .phase("peak", Duration::from_millis(2), 120_000.0, 120_000.0);
        let mut spec = ServeSpec::new(11, 400, plan);
        spec.threads = 2;
        spec.depth = 4;
        spec.blades = 3;
        spec.shards = 6;
        spec.accounts = 256;
        spec.drain = Duration::from_millis(20);
        spec
    }

    #[test]
    fn decomposed_serve_is_worker_invariant_and_conserves_balances() {
        let spec = small_spec();
        let plan = DomainPlan::per_blade(1, spec.blades as u32);
        let seq = run_serve_decomposed(&spec, &plan, 1);
        let par = run_serve_decomposed(&spec, &plan, 3);
        assert_eq!(format!("{:?}", seq.report), format!("{:?}", par.report));
        assert_eq!(seq.blade_log, par.blade_log);
        assert_eq!(seq.epochs, par.epochs);
        assert_eq!(seq.envelopes, par.envelopes);
        let completed: u64 = seq.report.phases.iter().map(|p| p.completed).sum();
        assert!(completed > 0, "no requests completed through blade domains");
        assert!(
            seq.report.conservation.is_empty(),
            "audit failures: {:?}",
            seq.report.conservation
        );
        assert_eq!(seq.envelopes, 2 * seq.blade_requests);
    }

    #[test]
    fn decomposed_serve_survives_membership_churn() {
        let mut spec = small_spec();
        spec.membership =
            MembershipPlan::new().leave_at(Duration::from_millis(1), 1, Duration::from_millis(1));
        let plan = DomainPlan::for_workers(2, 1, spec.blades as u32);
        let seq = run_serve_decomposed(&spec, &plan, 1);
        let par = run_serve_decomposed(&spec, &plan, 2);
        assert_eq!(format!("{:?}", seq.report), format!("{:?}", par.report));
        assert!(
            seq.report.faults_injected > 0,
            "membership crash not lowered"
        );
        assert_eq!(
            seq.report.final_epoch, 2,
            "leave + join flips the epoch twice"
        );
    }
}
