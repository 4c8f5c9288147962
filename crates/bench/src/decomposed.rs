//! The one driver: every closed-loop workload runs through [`run`],
//! which runs it through [`smart_rnic::run_decomposed`].
//!
//! [`run`] takes a [`Spec`] — a hash-table, transaction or B+Tree run —
//! and any [`DomainPlan`]. The workload's scenario runs in domain 0. Its
//! phase controller — written once, here — sleeps through the warm-up,
//! opens the measure window, sleeps through it, closes it (the workers
//! exit after their in-flight operation) and quiesces every
//! `SmartContext`'s controller coroutines; the engine then runs to
//! quiescence, so in-flight recoveries finish on their own and no fixed
//! drain window is needed. [`crate::run_ht`], [`crate::run_dtx`] and
//! [`crate::run_bt`] are [`run`] under [`DomainPlan::single`] on one
//! engine worker.
//!
//! Compute-side verbs cross to the blade domains over
//! [`BladeRequest`](smart_rnic::BladeRequest)/[`BladeReply`](smart_rnic::BladeReply)
//! channels at fabric one-way latency (the conservative lookahead), and
//! a blade the plan keeps in domain 0 — every blade, under
//! [`DomainPlan::single`] — is served in place. Every blade domain
//! replays the workload's deterministic preload, so its blades are
//! authoritative without state shipping, and installs its share of the
//! fault plan: the driver lowers the plan onto the partition
//! ([`smart_fault::FaultPlan::lower_onto`]), so the authoritative blades
//! crash and restart on the same schedule as the compute domain's
//! shadows. All plans share one verb lifecycle (one blade half, one fault
//! rule); what a partition changes is the order in which events of
//! different domains that fall on the same nanosecond merge. The
//! determinism gate is *worker-count invariance for a fixed plan*,
//! asserted by `tests/scheduler_equiv.rs` at workers 1/2/4/8 against
//! committed goldens.

use std::rc::Rc;

use smart_fault::FaultInjector;
use smart_rnic::{run_decomposed, ClusterConfig, Decomposed, DomainPlan};
use smart_rt::SchedulePolicy;
use smart_sherman::ShermanConfig;

use crate::runners::{
    load_bt, load_dtx, load_ht, start_bt, start_dtx, start_ht, BtParams, DtxParams, DtxWorkload,
    HtParams, RunReport,
};

/// A closed-loop workload [`run`] can run under any [`DomainPlan`].
#[derive(Clone, Debug)]
pub enum Spec {
    /// A hash-table run (RACE / SMART-HT).
    Ht(HtParams),
    /// A transaction run (FORD+ / SMART-DTX).
    Dtx(DtxParams),
    /// A B+Tree run (Sherman+ / SMART-BT).
    Bt(BtParams),
}

impl Spec {
    /// The cluster shape the workload runs on, every blade sized for its
    /// preload.
    pub fn cluster_config(&self) -> ClusterConfig {
        let mb64 = 64 * 1024 * 1024;
        match self {
            Spec::Ht(p) => {
                ClusterConfig::with_region(p.compute_nodes, p.blades, mb64 + p.keys * 96)
            }
            // Always 2 memory blades, as in §6.2.2.
            Spec::Dtx(p) => ClusterConfig::with_region(1, 2, mb64 + p.rows * 512),
            // Blades mirror compute nodes: the paper co-locates a memory
            // blade with every server.
            Spec::Bt(p) => {
                let blades = p.compute_nodes.max(2);
                ClusterConfig::with_region(p.compute_nodes, blades, mb64 + p.keys * 64)
            }
        }
    }
}

/// What every blade domain replays before its engine starts: the
/// workload's deterministic preload, as `start_*` performs it in the
/// compute domain. Unlike a [`Spec`], which may carry a trace sink, it
/// can cross to a worker thread.
#[derive(Clone)]
enum Preload {
    Ht(u64),
    Dtx(DtxWorkload, u64),
    Bt(ShermanConfig, u64),
}

/// Runs `spec` decomposed over `plan`, executable by up to
/// `engine_workers` OS threads; the spec's trace sink, when set, is
/// installed in the compute domain. `report.sim_events` sums scheduling
/// events over all domains.
///
/// The result is byte-identical for every `engine_workers` value — that
/// is the PDES contract this driver inherits.
///
/// # Panics
///
/// Panics if the plan hosts a compute node outside domain 0 or does not
/// cover the spec's cluster shape.
pub fn run(spec: &Spec, plan: &DomainPlan, engine_workers: usize) -> Decomposed<RunReport> {
    let (seed, fault, preload) = match spec {
        Spec::Ht(p) => (p.seed, &p.fault, Preload::Ht(p.keys)),
        Spec::Dtx(p) => (p.seed, &p.fault, Preload::Dtx(p.workload, p.rows)),
        Spec::Bt(p) => (p.seed, &p.fault, Preload::Bt(p.tree_config(), p.keys)),
    };
    let lowered = fault.clone().unwrap_or_default().lower_onto(plan);
    let spec0 = spec.clone();
    let mut d = run_decomposed(
        seed,
        SchedulePolicy::Fifo,
        spec.cluster_config(),
        plan,
        engine_workers,
        move |h, cluster| {
            let scenario = Rc::new(match &spec0 {
                Spec::Ht(p) => start_ht(h, cluster, p),
                Spec::Dtx(p) => start_dtx(h, cluster, p),
                Spec::Bt(p) => start_bt(h, cluster, p),
            });
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
            let blades = cluster.blades();
            match &preload {
                Preload::Ht(keys) => drop(load_ht(blades, *keys)),
                Preload::Dtx(workload, rows) => drop(load_dtx(blades, *workload, *rows)),
                Preload::Bt(tree, keys) => drop(load_bt(blades, tree, *keys)),
            }
            FaultInjector::install_share(cluster, &lowered[domain.index()].1);
            Box::new(|_, _| String::new())
        },
    );
    d.report.sim_events = d.events;
    d.report.live_tasks = d.live_tasks;
    d
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
            (run(&Spec::Ht(p), &plan, workers), sink.chrome_json())
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
