//! The life of a work request inside the simulated RNIC and fabric.
//!
//! Stages (for a requester-side op posted on a QP):
//!
//! 1. **Requester pipeline** — WQE fetch from host DRAM (PCIe traffic),
//!    MTT/MPT translation of the local buffer page (cache miss ⇒ extra DMA
//!    + pipeline time), base processing at the IOPS ceiling.
//! 2. **Fabric, request leg** — large WRITE payloads serialize on the
//!    requester PCIe, then the request flies the one-way latency.
//! 3. **Blade** — `MemoryBlade::serve`, the one
//!    responder path: large requests serialize on the blade ingress link,
//!    then the blade RNIC's pipeline; atomics additionally serialize on
//!    the blade's atomic unit and execute there, in arrival order;
//!    persistent WRITEs pay the NVM write latency; large responses
//!    serialize on the blade egress link.
//! 4. **Fabric, response leg** — one-way latency; READ payloads serialize
//!    on the requester PCIe.
//! 5. **Completion** — WQE-cache lookup (thrashing ⇒ DMA re-fetch: extra
//!    pipeline time, latency and DRAM traffic), CQE DMA write, CQ push.
//!
//! Stage 3 runs in this task when the blade shares the requester's
//! domain, and in the blade's engine domain behind a
//! [`RemotePort`](crate::engine::RemotePort) otherwise — the same code either way;
//! the two arms differ only in how the flights are paid (one timer each
//! here, one PDES channel each there).
//!
//! Every stage is mirrored onto the installed tracer (if any): pipeline
//! and link visits become `pipeline`/`fabric` spans attributed to the
//! posting actor, cache misses become `cache` instants, and CQE delivery
//! becomes an instant — none of which alters the timing model.
//!
//! **Fault checkpoints.** One rule, whichever domain the blade lives in.
//! The QP error state is checked on the requester side, at post (stage
//! 0, together with the installed [`FaultHook`](crate::FaultHook), if
//! any) and at departure (after stage 1 and the payload's PCIe read,
//! before the request leaves the node); a request that has departed
//! executes and completes normally even if its QP errors meanwhile. The
//! blade's crash state is checked at the blade, on arrival: a crashed
//! blade never answers, so the request surfaces a timeout
//! `fault_timeout` after its arrival. Every checkpoint sits before the
//! responder executes, so a failed work request never partially executes
//! and a recovery layer may repost it with exactly-once semantics. Every
//! failure funnels through [`fail`], which mirrors the success
//! path's completion accounting exactly once — CQE DRAM traffic,
//! node/QP outstanding decrements and the CQ push — so credit
//! conservation holds under any fault plan.

use std::rc::Rc;
use std::time::Duration;

use smart_rt::SimHandle;
use smart_trace::{Actor, Args, Category};

use crate::config::RnicConfig;
use crate::inject::InjectDecision;
use crate::qp::Qp;
use crate::types::{Cqe, CqeError, OneSidedOp, OpResult, WorkRequest};

/// The failure path of every fault checkpoint: once the rest of `err`'s
/// status delay ([`error_delay`] less the `spent` part that has already
/// elapsed) is over, delivers an error completion for `wr_id`, mirroring
/// the success path's accounting exactly once: CQE DRAM bytes, node
/// outstanding decrement, errored-op counter, QP outstanding decrement,
/// trace instant, CQ push.
async fn fail(qp: &Qp, wr_id: u64, err: CqeError, spent: Duration, actor: Actor) {
    let node = qp.context().node();
    let handle = &node.handle;
    let delay = error_delay(&node.cfg, node.fabric.one_way_latency, err);
    handle.sleep(delay.saturating_sub(spent)).await;
    node.dram_bytes.add(node.cfg.cqe_bytes);
    node.outstanding.set(node.outstanding.get() - 1);
    node.ops_errored.incr();
    qp.complete_one();
    handle.with_tracer(|t| {
        t.instant(
            handle.now().as_nanos(),
            actor,
            Category::Fault,
            "cqe_err",
            Args::two("wr_id", wr_id, "status", err.code()),
        );
    });
    qp.cq().push(Cqe {
        wr_id,
        result: OpResult::Error(err),
    });
}

/// Mirrors one fabric flight of `len` starting at `start` ns onto the
/// installed tracer.
fn trace_flight(handle: &SimHandle, start: u64, len: Duration, name: &'static str, actor: Actor) {
    handle.with_tracer(|t| {
        t.span(
            start,
            len.as_nanos() as u64,
            actor,
            Category::Fabric,
            name,
            Args::NONE,
        );
    });
}

/// How long a failing work request takes to surface its error completion.
fn error_delay(cfg: &RnicConfig, one_way: Duration, err: CqeError) -> Duration {
    match err {
        // Flushes are local: the RNIC walks the send queue.
        CqeError::FlushErr => cfg.base_service,
        // RNR NAKs exhaust the receiver-not-ready retry timer.
        CqeError::RnrNak => cfg.rnr_delay,
        // Lost packets burn the whole retransmit budget.
        CqeError::Timeout => cfg.fault_timeout,
        // NAK-carrying responses still make the roundtrip.
        CqeError::MrRevoked | CqeError::RemoteAccess | CqeError::Length => one_way * 2,
    }
}

pub(crate) async fn lifecycle(qp: Rc<Qp>, wr: WorkRequest, actor: Actor) {
    // Borrowed from the `Rc<Qp>` this task owns: nothing to clone per WR.
    // Every local that outlives an `.await` is stored in the task's boxed
    // state, allocated per WR; references used at one stage only are
    // derived there instead.
    let node = qp.context().node();
    let cfg = &node.cfg;
    let handle = &node.handle;
    let one_way = node.fabric.one_way_latency;

    node.outstanding.set(node.outstanding.get() + 1);

    // --- 0. fault checkpoints (pre-execution) ----------------------------
    // A post on an errored QP flushes without touching the pipeline.
    if qp.is_errored() {
        return fail(&qp, wr.wr_id, CqeError::FlushErr, Duration::ZERO, actor).await;
    }
    // The installed chaos hook (if any) rules on this work request.
    let decision = match node.fault_hook() {
        Some(hook) => hook.on_wr(&qp, &wr),
        None => InjectDecision::Deliver,
    };
    match decision {
        InjectDecision::Deliver => {}
        InjectDecision::Delay(extra) => {
            handle.with_tracer(|t| {
                t.span(
                    handle.now().as_nanos(),
                    extra.as_nanos() as u64,
                    actor,
                    Category::Fault,
                    "latency_spike",
                    Args::one("wr_id", wr.wr_id),
                );
            });
            handle.sleep(extra).await;
        }
        InjectDecision::Fail(err) => {
            return fail(&qp, wr.wr_id, err, Duration::ZERO, actor).await;
        }
    }

    // --- 1. requester pipeline -------------------------------------------
    node.dram_bytes.add(cfg.wqe_fetch_bytes);
    let extra_latency = {
        // Scoped so the stage's temporaries are not kept in the task's
        // state past its pipeline visit.
        let (mtt_service, mtt_latency, mtt_bytes) =
            node.mtt_lookup(qp.context().id(), qp.context().registered_pages());
        node.dram_bytes.add(mtt_bytes);
        if mtt_bytes > 0 {
            handle.with_tracer(|t| {
                t.instant(
                    handle.now().as_nanos(),
                    actor,
                    Category::Cache,
                    "mtt_miss",
                    Args::one("dma_bytes", mtt_bytes),
                );
            });
        }
        node.pipeline
            .use_for_as(
                cfg.base_service + mtt_service,
                actor,
                Category::Pipeline,
                "rnic_pipeline",
            )
            .await;
        mtt_latency
    };

    // --- 2. request leg ---------------------------------------------------
    if let OneSidedOp::Write { data, .. } = &wr.op {
        // The RNIC DMA-reads the payload from host memory before sending
        // (small payloads are inlined in the WQE and already accounted).
        if data.len() as u64 >= cfg.small_payload_cutoff {
            node.dram_bytes.add(data.len() as u64);
            node.pcie
                .transfer_as(data.len() as u64, actor, Category::Fabric, "pcie_out")
                .await;
        }
    }
    // Departure: a QP error that struck while this request sat in the
    // requester pipeline flushes it before it leaves the node.
    if qp.is_errored() {
        return fail(&qp, wr.wr_id, CqeError::FlushErr, Duration::ZERO, actor).await;
    }

    // --- 2-4. request leg, blade, response leg -----------------------------
    // The blade half is `MemoryBlade::serve` in both arms; they differ
    // only in where the blade lives. An error surfaces its status delay
    // counted from the request's arrival at the blade.
    let blade = qp.target();
    let result = match blade.remote_port() {
        None => {
            let flight = one_way + extra_latency;
            trace_flight(handle, handle.now().as_nanos(), flight, "net_req", actor);
            handle.sleep(flight).await;
            match blade
                .serve(cfg, node.fabric.header_bytes, &wr.op, actor)
                .await
            {
                Ok(result) => {
                    trace_flight(handle, handle.now().as_nanos(), one_way, "net_resp", actor);
                    handle.sleep(one_way).await;
                    result
                }
                Err(err) => return fail(&qp, wr.wr_id, err, Duration::ZERO, actor).await,
            }
        }
        // The blade is an engine domain: the request and reply channels
        // each pay the one-way flight (the engine's lookahead) and the blade
        // engine runs `serve` on the authoritative copy.
        Some(port) => {
            if extra_latency > Duration::ZERO {
                handle.sleep(extra_latency).await;
            }
            trace_flight(handle, handle.now().as_nanos(), one_way, "net_req", actor);
            match port.roundtrip(wr.op.clone(), actor).await {
                Ok(result) => {
                    let start = handle.now().as_nanos() - one_way.as_nanos() as u64;
                    trace_flight(handle, start, one_way, "net_resp", actor);
                    result
                }
                // The reply leg already spent one flight of the delay.
                Err(err) => return fail(&qp, wr.wr_id, err, one_way, actor).await,
            }
        }
    };
    let resp_payload = wr.op.response_payload();
    node.dram_bytes.add(resp_payload);
    if resp_payload >= cfg.small_payload_cutoff {
        node.pcie
            .transfer_as(resp_payload, actor, Category::Fabric, "pcie_in")
            .await;
    }

    // --- 5. completion ----------------------------------------------------
    if !node.wqe_lookup_is_hit() {
        handle.with_tracer(|t| {
            t.instant(
                handle.now().as_nanos(),
                actor,
                Category::Cache,
                "wqe_miss",
                Args::one("dma_bytes", cfg.wqe_refetch_bytes),
            );
        });
        node.dram_bytes.add(cfg.wqe_refetch_bytes);
        node.pipeline
            .use_for_as(
                cfg.wqe_miss_service,
                actor,
                Category::Pipeline,
                "wqe_refetch",
            )
            .await;
        let stall = cfg.wqe_miss_latency;
        handle.with_tracer(|t| {
            t.span(
                handle.now().as_nanos(),
                stall.as_nanos() as u64,
                actor,
                Category::Pipeline,
                "wqe_miss_stall",
                Args::NONE,
            );
        });
        handle.sleep(stall).await;
    }
    node.dram_bytes.add(cfg.cqe_bytes);
    node.outstanding.set(node.outstanding.get() - 1);
    node.ops_completed.incr();
    qp.complete_one();
    handle.with_tracer(|t| {
        t.instant(
            handle.now().as_nanos(),
            actor,
            Category::Pipeline,
            "cqe",
            Args::one("wr_id", wr.wr_id),
        );
    });
    qp.cq().push(Cqe {
        wr_id: wr.wr_id,
        result,
    });
}
