//! The one driver: every closed-loop workload runs through
//! [`smart_rnic::run_decomposed`].
//!
//! `run_closed_loop` runs a `ClosedLoop` scenario in domain 0 of a
//! [`DomainPlan`]. Its phase controller — written once, here — sleeps
//! through the warm-up, opens the measure window, sleeps through it,
//! closes it (the workers exit after their in-flight operation) and
//! quiesces every `SmartContext`'s controller coroutines; the engine then
//! runs to quiescence, so in-flight recoveries finish on their own and no
//! fixed drain window is needed. [`crate::run_ht`], [`crate::run_dtx`]
//! and [`crate::run_bt`] are this driver under [`DomainPlan::single`]
//! on one engine worker.
//!
//! [`run_ht_decomposed`] takes any plan: compute-side verbs cross to the
//! blade domains over [`BladeRequest`](smart_rnic::BladeRequest)/[`BladeReply`](smart_rnic::BladeReply)
//! channels at fabric one-way latency (the conservative lookahead), and
//! a blade the plan keeps in domain 0 — every blade, under
//! [`DomainPlan::single`] — is served in place. All plans share one verb
//! lifecycle (one blade half, one fault rule); what a partition changes
//! is the order in which events of different domains that fall on the
//! same nanosecond merge. The determinism gate is *worker-count
//! invariance for a fixed plan*, asserted by `tests/scheduler_equiv.rs`
//! at workers 1/2/4/8 against committed goldens.

use std::rc::Rc;

use smart_fault::FaultInjector;
use smart_rnic::{run_decomposed, Cluster, ClusterConfig, Decomposed, DomainPlan};
use smart_rt::pdes::DomainId;
use smart_rt::SimHandle;

use crate::runners::{ht_cluster_config, load_ht, start_ht, ClosedLoop, HtParams, RunReport};

/// Runs the closed-loop scenario `start` builds in domain 0 of `plan`,
/// executable by up to `engine_workers` OS threads, and fills the
/// report's `sim_events` (summed over all domains) and `live_tasks`.
/// `bootstrap` runs in every blade domain on its own replica of the
/// cluster: it must replay the deterministic preload `start` performs.
pub(crate) fn run_closed_loop(
    seed: u64,
    cfg: ClusterConfig,
    plan: &DomainPlan,
    engine_workers: usize,
    start: impl FnOnce(&SimHandle, &Cluster) -> ClosedLoop + 'static,
    bootstrap: impl Fn(&Cluster, DomainId) + Clone + Send + 'static,
) -> Decomposed<RunReport> {
    let mut d = run_decomposed(
        seed,
        cfg,
        plan,
        engine_workers,
        move |h, cluster| {
            let scenario = Rc::new(start(h, cluster));
            let (hh, s) = (h.clone(), Rc::clone(&scenario));
            h.spawn(async move {
                hh.sleep(s.warmup).await;
                s.open_window();
                hh.sleep(s.measure).await;
                s.close_window();
                for ctx in &s.contexts {
                    ctx.quiesce_controllers();
                }
            });
            Box::new(move || scenario.report())
        },
        move |cluster, domain| {
            bootstrap(cluster, domain);
            Box::new(|_, _| String::new())
        },
    );
    d.report.sim_events = d.events;
    d.report.live_tasks = d.live_tasks;
    d
}

/// Runs a hash-table experiment decomposed over `plan`, executable by up
/// to `engine_workers` OS threads; `p.trace`, when set, is installed in
/// the compute domain.
///
/// Every domain replays the same deterministic bootstrap (`load_ht`), so
/// the blade domains' copies are authoritative without any state
/// shipping. A fault plan is installed in full on the compute domain
/// (post-side draws, QP errors and the shadow crash/restart timeline that
/// drives `MrRevoked` epochs) and lowered onto the blade domains
/// ([`smart_fault::FaultPlan::lower_onto`]) so the authoritative blades
/// crash and restart on the same schedule.
///
/// The result is byte-identical for every `engine_workers` value — that
/// is the PDES contract this driver inherits.
///
/// # Panics
///
/// Panics if the plan hosts a compute node outside domain 0 or does not
/// cover `p`'s cluster shape.
pub fn run_ht_decomposed(
    p: &HtParams,
    plan: &DomainPlan,
    engine_workers: usize,
) -> Decomposed<RunReport> {
    let p0 = p.clone();
    let lowered = p.fault.clone().unwrap_or_default().lower_onto(plan);
    let keys = p.keys;
    run_closed_loop(
        p.seed,
        ht_cluster_config(p),
        plan,
        engine_workers,
        move |h, cluster| start_ht(h, cluster, &p0),
        move |cluster, domain| {
            // The table can go once loaded: the blades keep its bytes.
            load_ht(cluster.blades(), keys);
            let sub = &lowered[domain.index()].1;
            if !sub.events().is_empty() {
                // Only the scheduled crash/restart timeline matters here
                // — nothing posts in this domain, so the hook's
                // probabilistic draws never fire (the driver task keeps
                // its own reference to the injector).
                let _ = FaultInjector::install(cluster, sub.clone());
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use smart::SmartConfig;
    use smart_rt::Duration;
    use smart_trace::TraceSink;
    use smart_workloads::ycsb::Mix;

    #[test]
    fn decomposed_ht_is_worker_invariant_and_counts_envelopes() {
        let mut p = HtParams::new(SmartConfig::smart_full(2), 2, 400, Mix::ReadHeavy);
        p.warmup = Duration::from_micros(300);
        p.measure = Duration::from_millis(1);
        let plan = DomainPlan::per_blade(1, p.blades as u32);
        let traced = |workers| {
            let sink = TraceSink::with_capacity(1024);
            let mut p = p.clone();
            p.trace = Some(sink.clone());
            (run_ht_decomposed(&p, &plan, workers), sink.chrome_json())
        };
        let (seq, seq_trace) = traced(1);
        let (par, par_trace) = traced(3);
        assert_eq!(format!("{:?}", seq.report), format!("{:?}", par.report));
        assert_eq!(seq_trace, par_trace);
        assert_eq!(seq.blade_log, par.blade_log);
        assert_eq!(seq.epochs, par.epochs);
        assert_eq!(seq.envelopes, par.envelopes);
        assert!(seq.report.ops > 0, "no progress through blade domains");
        // Every crossing work request is one request envelope plus one
        // reply envelope; nothing else crosses.
        assert_eq!(seq.envelopes, 2 * seq.blade_requests);
        assert_eq!(
            seq.cross_domain_wrs, seq.blade_requests,
            "fault-free run: every crossing WR reaches its blade domain"
        );
    }
}
