//! The life of a work request inside the simulated RNIC and fabric.
//!
//! Stages (for a requester-side op posted on a QP):
//!
//! 1. **Requester pipeline** — WQE fetch from host DRAM (PCIe traffic),
//!    MTT/MPT translation of the local buffer page (cache miss ⇒ extra DMA
//!    + pipeline time), base processing at the IOPS ceiling.
//! 2. **Fabric, request leg** — one-way latency; large payloads (WRITEs)
//!    also serialize on the requester PCIe and the blade ingress link.
//! 3. **Responder** — the blade RNIC's pipeline; atomics additionally
//!    serialize on the blade's atomic unit and execute there, in arrival
//!    order; persistent WRITEs pay the NVM write latency.
//! 4. **Fabric, response leg** — one-way latency; READ payloads serialize
//!    on the blade egress link and the requester PCIe.
//! 5. **Completion** — WQE-cache lookup (thrashing ⇒ DMA re-fetch: extra
//!    pipeline time, latency and DRAM traffic), CQE DMA write, CQ push.
//!
//! Every stage is mirrored onto the installed tracer (if any): pipeline
//! and link visits become `pipeline`/`fabric` spans attributed to the
//! posting actor, cache misses become `cache` instants, and CQE delivery
//! becomes an instant — none of which alters the timing model.
//!
//! **Fault checkpoints.** The lifecycle consults fault state at exactly
//! two points, both *before the responder executes* (stage 3), so a
//! failed work request never partially executes and a recovery layer may
//! repost it with exactly-once semantics: on entry it checks the QP error
//! state and the installed [`FaultHook`](crate::FaultHook) (if any), and
//! just before stage 3 it re-checks the QP error state and the blade's
//! crash state. Every injected failure funnels through
//! [`complete_error`], which mirrors the success path's completion
//! accounting exactly once — CQE DRAM traffic, node/QP outstanding
//! decrements and the CQ push — so credit conservation holds under any
//! fault plan.

use std::rc::Rc;
use std::time::Duration;

use smart_trace::{Actor, Args, Category};

use crate::config::RnicConfig;
use crate::inject::InjectDecision;
use crate::node::ComputeNode;
use crate::qp::Qp;
use crate::types::{Cqe, CqeError, OneSidedOp, OpResult, WorkRequest};

/// Delivers an error completion for `wr_id`, mirroring the success path's
/// accounting exactly once: CQE DRAM bytes, node outstanding decrement,
/// errored-op counter, QP outstanding decrement, trace instant, CQ push.
fn complete_error(node: &ComputeNode, qp: &Qp, wr_id: u64, err: CqeError, actor: Actor) {
    let handle = &node.handle;
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
    let ctx = qp.context();
    let node = ctx.node();
    let cfg = &node.cfg;
    let blade = qp.target();
    let handle = &node.handle;
    let one_way = node.fabric.one_way_latency;
    let header = node.fabric.header_bytes;

    node.outstanding.set(node.outstanding.get() + 1);

    // --- 0. fault checkpoints (pre-execution) ----------------------------
    // A post on an errored QP flushes without touching the pipeline.
    if qp.is_errored() {
        handle
            .sleep(error_delay(cfg, one_way, CqeError::FlushErr))
            .await;
        complete_error(node, &qp, wr.wr_id, CqeError::FlushErr, actor);
        return;
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
            handle.sleep(error_delay(cfg, one_way, err)).await;
            complete_error(node, &qp, wr.wr_id, err, actor);
            return;
        }
    }

    // --- 1. requester pipeline -------------------------------------------
    node.dram_bytes.add(cfg.wqe_fetch_bytes);
    let mut service = cfg.base_service;
    let mut extra_latency = Duration::ZERO;
    let (mtt_service, mtt_latency, mtt_bytes) = node.mtt_lookup(ctx.id(), ctx.registered_pages());
    service += mtt_service;
    extra_latency += mtt_latency;
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
        .use_for_as(service, actor, Category::Pipeline, "rnic_pipeline")
        .await;

    // --- 2. request leg ---------------------------------------------------
    let req_payload = wr.op.request_payload();
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
    let resp_payload = wr.op.response_payload();
    let result = if let Some(port) = blade.remote_port() {
        // Decomposed path: the blade lives in its own engine domain. The
        // request crosses on the [`BladeRequest`] channel (which pays the
        // one-way fabric latency — exactly the plan's lookahead) and the
        // blade domain models ingress/responder/atomic/egress contention
        // plus the crash check before replying; the reply channel pays
        // the return leg. The in-flight QP-error flush of the classic
        // path is not re-checked here — an errored QP flushes every
        // subsequent post at stage 0, so recovery semantics (and the
        // "error ⇒ not executed" invariant, enforced blade-side) hold.
        if extra_latency > Duration::ZERO {
            handle.sleep(extra_latency).await;
        }
        handle.with_tracer(|t| {
            t.span(
                handle.now().as_nanos(),
                one_way.as_nanos() as u64,
                actor,
                Category::Fabric,
                "net_req",
                Args::NONE,
            );
        });
        match port.roundtrip(wr.op.clone(), actor).await {
            Ok(result) => {
                handle.with_tracer(|t| {
                    t.span(
                        handle.now().as_nanos() - one_way.as_nanos() as u64,
                        one_way.as_nanos() as u64,
                        actor,
                        Category::Fabric,
                        "net_resp",
                        Args::NONE,
                    );
                });
                result
            }
            Err(err) => {
                complete_error(node, &qp, wr.wr_id, err, actor);
                return;
            }
        }
    } else {
        let req_wire = header + req_payload;
        if req_wire >= cfg.small_payload_cutoff {
            blade
                .ingress
                .transfer_as(req_wire, actor, Category::Fabric, "ingress")
                .await;
        }
        let flight = one_way + extra_latency;
        handle.with_tracer(|t| {
            t.span(
                handle.now().as_nanos(),
                flight.as_nanos() as u64,
                actor,
                Category::Fabric,
                "net_req",
                Args::NONE,
            );
        });
        handle.sleep(flight).await;

        // A QP error transition while this request was in flight flushes
        // it before execution; a crashed blade never answers, so the
        // request burns the retransmit budget and surfaces as a timeout.
        // Both checks sit before stage 3: the failed request did not
        // execute.
        if qp.is_errored() {
            handle
                .sleep(error_delay(cfg, one_way, CqeError::FlushErr))
                .await;
            complete_error(node, &qp, wr.wr_id, CqeError::FlushErr, actor);
            return;
        }
        if blade.is_crashed() {
            handle
                .sleep(error_delay(cfg, one_way, CqeError::Timeout))
                .await;
            complete_error(node, &qp, wr.wr_id, CqeError::Timeout, actor);
            return;
        }

        // --- 3. responder -------------------------------------------------
        blade
            .responder
            .use_for_as(
                cfg.responder_service,
                actor,
                Category::Pipeline,
                "responder",
            )
            .await;
        if wr.op.is_atomic() {
            blade
                .atomic_unit
                .use_for_as(cfg.atomic_service, actor, Category::Pipeline, "atomic_unit")
                .await;
        }
        let result = match &wr.op {
            OneSidedOp::Read { addr, len } => {
                OpResult::Read(blade.read_bytes(addr.offset_bytes, *len as u64))
            }
            OneSidedOp::Write {
                addr,
                data,
                persistent,
            } => {
                blade.write_bytes(addr.offset_bytes, data);
                if *persistent {
                    let nvm = blade.nvm_write_latency;
                    handle.with_tracer(|t| {
                        t.span(
                            handle.now().as_nanos(),
                            nvm.as_nanos() as u64,
                            actor,
                            Category::Pipeline,
                            "nvm_write",
                            Args::NONE,
                        );
                    });
                    handle.sleep(nvm).await;
                }
                OpResult::Write
            }
            OneSidedOp::Cas { addr, expect, swap } => {
                OpResult::Atomic(blade.cas_u64(addr.offset_bytes, *expect, *swap))
            }
            OneSidedOp::Faa { addr, add } => {
                OpResult::Atomic(blade.faa_u64(addr.offset_bytes, *add))
            }
        };
        blade.count_op();

        // --- 4. response leg ----------------------------------------------
        let resp_wire = header + resp_payload;
        if resp_wire >= cfg.small_payload_cutoff {
            blade
                .egress
                .transfer_as(resp_wire, actor, Category::Fabric, "egress")
                .await;
        }
        handle.with_tracer(|t| {
            t.span(
                handle.now().as_nanos(),
                one_way.as_nanos() as u64,
                actor,
                Category::Fabric,
                "net_resp",
                Args::NONE,
            );
        });
        handle.sleep(one_way).await;
        result
    };
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
