//! The one driver: every closed-loop workload and the microbench run
//! through [`run`], which runs them through
//! [`smart_rnic::run_decomposed`].
//!
//! [`run`] takes a [`Spec`] — a hash-table, transaction, B+Tree or
//! microbench run — and any [`DomainPlan`]; [`Spec::single_plan`] is the
//! plan that keeps every blade in the compute domain. The workload's
//! scenario runs in domain 0. The closed-loop phase controller — written
//! once, here — sleeps through the warm-up, opens the measure window,
//! sleeps through it, closes it (the workers exit after their in-flight
//! operation) and quiesces every `SmartContext`'s controller coroutines;
//! the engine then runs to quiescence, so in-flight recoveries finish on
//! their own and no fixed drain window is needed. The microbench keeps
//! its own phase controller ([`crate::microbench`]) and runs under its
//! spec's schedule policy; every other spec runs FIFO.
//!
//! Compute-side verbs cross to the blade domains over typed request and
//! reply channels at fabric one-way latency (the conservative
//! lookahead), and a blade the plan keeps in domain 0 — every blade,
//! under [`DomainPlan::single`] — is served in place. Every blade domain
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

use crate::microbench::{self, reserve, MicrobenchSpec};
use crate::runners::{
    load_bt, load_dtx, load_ht, start_bt, start_dtx, start_ht, BtParams, DtxParams, DtxWorkload,
    HtParams, RunReport,
};

/// A workload [`run`] can run under any [`DomainPlan`].
// A spec is built once per run: its size costs nothing, and boxing the
// largest variant would only add noise at every call site.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum Spec {
    /// A hash-table run (RACE / SMART-HT).
    Ht(HtParams),
    /// A transaction run (FORD+ / SMART-DTX).
    Dtx(DtxParams),
    /// A B+Tree run (Sherman+ / SMART-BT).
    Bt(BtParams),
    /// A raw-verb microbench run (§3, Figures 3, 4 and 13, Table 1).
    Micro(MicrobenchSpec),
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
            Spec::Micro(s) => ClusterConfig {
                rnic: s.rnic.clone(),
                ..ClusterConfig::with_region(1, s.blades, s.region_bytes)
            },
        }
    }

    /// The plan that keeps every blade in the compute domain: the run
    /// steps one simulation, and the engine has nothing to overlap.
    pub fn single_plan(&self) -> DomainPlan {
        let cfg = self.cluster_config();
        DomainPlan::single(cfg.compute_nodes as u32, cfg.memory_blades as u32)
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
    /// The microbench's region reservation, per blade.
    Micro(u64),
}

/// Runs `spec` decomposed over `plan`, executable by up to
/// `engine_workers` OS threads; the spec's trace sink, when set, is
/// installed in the compute domain. `report.sim_events` sums scheduling
/// events over all domains. `run(&spec, &spec.single_plan(), 1)` steps
/// one simulation on the calling thread.
///
/// The result is byte-identical for every `engine_workers` value — that
/// is the PDES contract this driver inherits.
///
/// # Panics
///
/// Panics if the plan hosts a compute node outside domain 0 or does not
/// cover the spec's cluster shape.
pub fn run(spec: &Spec, plan: &DomainPlan, engine_workers: usize) -> Decomposed<RunReport> {
    let fifo = SchedulePolicy::Fifo;
    let (seed, policy, fault, preload) = match spec {
        Spec::Ht(p) => (p.seed, fifo, &p.fault, Preload::Ht(p.keys)),
        Spec::Dtx(p) => (p.seed, fifo, &p.fault, Preload::Dtx(p.workload, p.rows)),
        Spec::Bt(p) => (p.seed, fifo, &p.fault, Preload::Bt(p.tree_config(), p.keys)),
        Spec::Micro(s) => (s.seed, s.schedule, &None, Preload::Micro(s.region_bytes)),
    };
    let lowered = fault.clone().unwrap_or_default().lower_onto(plan);
    let spec0 = spec.clone();
    let mut d = run_decomposed(
        seed,
        policy,
        spec.cluster_config(),
        plan,
        engine_workers,
        move |h, cluster| {
            let scenario = Rc::new(match &spec0 {
                Spec::Ht(p) => start_ht(h, cluster, p),
                Spec::Dtx(p) => start_dtx(h, cluster, p),
                Spec::Bt(p) => start_bt(h, cluster, p),
                Spec::Micro(s) => return microbench::start(h, cluster, s),
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
                Preload::Micro(region) => reserve(blades, *region),
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
        // reply envelope; nothing else crosses. (The engine itself
        // asserts that no remote blade's shadow served a request.)
        assert!(seq.blade_requests > 0, "no request crossed the partition");
        assert_eq!(seq.envelopes, 2 * seq.blade_requests);
    }
}
