//! The engine driver for the hash-table scenario: memory blades as real
//! PDES engine domains.
//!
//! [`run_ht_decomposed`] runs the same `HtScenario` body as
//! [`crate::run_ht`] in domain 0 of a [`smart_rnic::run_decomposed`]
//! topology: compute-side verbs cross to the blade domains over
//! [`BladeRequest`](smart_rnic::BladeRequest)/[`BladeReply`](smart_rnic::BladeReply)
//! channels at fabric one-way latency (the conservative lookahead), and
//! a blade the plan keeps in domain 0 — every blade, under
//! [`DomainPlan::single`] — is served in place. Both drivers share one
//! verb lifecycle (one blade half, one fault rule). What differs from
//! the inline driver is only the driving — the warmup → measure
//! schedule is a phase-controller coroutine inside the compute domain,
//! and the engine runs to quiescence instead of for a fixed drain — and,
//! for remote blades, the order in which events of different domains
//! that fall on the same nanosecond merge. The determinism gate is
//! *worker-count invariance for a fixed plan*, asserted by
//! `tests/scheduler_equiv.rs` at workers 1/2/4/8 against committed
//! goldens.

use std::cell::Cell;
use std::rc::Rc;

use smart_fault::FaultInjector;
use smart_rnic::{run_decomposed, Decomposed, DomainPlan};

use crate::runners::{ht_cluster_config, load_ht, HtParams, HtScenario, HtWindow, RunReport};

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
/// is the PDES contract this driver inherits. `report.sim_events` sums
/// scheduling events over all domains.
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
    let mut d = run_decomposed(
        p.seed,
        ht_cluster_config(p),
        plan,
        engine_workers,
        move |h, cluster| {
            let scenario = Rc::new(HtScenario::start(h, cluster, &p0));

            // Phase controller: the stand-in for the inline driver's
            // imperative `run_for` schedule. Workers exit at the window's
            // close, the framework's controller coroutines exit at their
            // next wake-up once quiesced, and the engine then runs to
            // quiescence — no explicit drain window is needed; in-flight
            // recoveries finish on their own.
            let window: Rc<Cell<Option<HtWindow>>> = Rc::default();
            {
                let (hh, scenario, window) = (h.clone(), Rc::clone(&scenario), Rc::clone(&window));
                let measure = p0.measure;
                h.spawn(async move {
                    hh.sleep(scenario.warmup).await;
                    let mark = scenario.open_window();
                    hh.sleep(measure).await;
                    let closed = scenario.close_window(mark);
                    for ctx in &scenario.contexts {
                        ctx.quiesce_controllers();
                    }
                    window.set(Some(closed));
                });
            }

            Box::new(move || {
                let window = window
                    .take()
                    .expect("phase controller must run to completion");
                scenario.report(window, p0.measure)
            })
        },
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
            Box::new(|_, _| String::new())
        },
    );
    d.report.sim_events = d.events;
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
