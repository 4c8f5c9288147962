//! Blade engine domains: the responder half of a decomposed cluster.
//!
//! The classic simulation runs compute nodes *and* memory blades on one
//! executor; a work request's lifecycle calls straight into a shared
//! `Rc<MemoryBlade>`. This module splits that call: under a non-trivial
//! [`DomainPlan`](crate::DomainPlan), each blade becomes a real PDES
//! engine domain on its own worker thread, and the requester side of
//! [`verbs`](crate::qp::Qp::post_send) crosses to it over a typed
//! [`BladeLink`] — a [`BladeRequest`] travelling requester → blade and a
//! [`BladeReply`] travelling back, each paying the fabric's one-way
//! latency (exactly the plan's conservative lookahead).
//!
//! Wiring ([`run_decomposed`], the one place it is written; the engine
//! drivers in `smart-bench`/`smart-serve` supply the scenario):
//!
//! * every domain replays the *same deterministic bootstrap* — building
//!   the full cluster and loading application state uses only the bump
//!   allocator and direct memory writes, no RNG and no simulated time —
//!   so blade state needs no shipping: the owning domain's copy is
//!   authoritative, every other domain holds an inert shadow;
//! * domain 0 binds the requester ends and attaches a [`RemotePort`] to
//!   each crossing blade's shadow ([`MemoryBlade::attach_remote`]); the
//!   verb lifecycle consults the port instead of executing locally. A
//!   blade the plan co-locates with domain 0 gets no port and keeps the
//!   same-domain path;
//! * each blade domain runs the caller's bootstrap callback (application
//!   preload plus its lowered fault sub-plan — both stay out of this
//!   crate), binds the responder ends and calls [`spawn_blade_engine`] on
//!   its authoritative blades; its finish artifact is one line per blade;
//! * the engine's [`smart_rt::pdes::PdesReport`] is folded into a
//!   [`Decomposed`] result.
//!
//! Timing note: in the same-domain path the blade's ingress link is
//! crossed *before* the one-way flight; here the channel pays the flight
//! first and the ingress/responder/egress contention is modelled at the
//! blade domain, and a crashed blade's timeout burns at the blade before
//! the reply crosses back. Decomposed timing is therefore self-consistent
//! but not byte-comparable to the classic path — the equivalence gate for
//! decomposed runs is *worker-count invariance for a fixed plan*.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use smart_rt::detmap::DetMap;
use smart_rt::pdes::{
    DomainCtx, DomainId, PdesBuilder, PdesReceiver, PdesSender, RxToken, TxToken,
};
use smart_rt::sync::Notify;
use smart_rt::SimHandle;
use smart_trace::{Actor, Category};

use crate::blade::MemoryBlade;
use crate::cluster::Cluster;
use crate::config::{ClusterConfig, FabricConfig, RnicConfig};
use crate::domain::DomainPlan;
use crate::types::{BladeId, CqeError, NodeId, OneSidedOp, OpResult};

/// A work request crossing to a blade engine domain. The `slot` is a
/// per-port correlation id ([`RemotePort`] allocates them densely) —
/// `wr_id`s cannot serve here because different QPs reuse them.
#[derive(Clone, Debug)]
pub struct BladeRequest {
    /// Port-local correlation id, echoed in the matching [`BladeReply`].
    pub slot: u64,
    /// The operation to execute at the blade.
    pub op: OneSidedOp,
    /// The posting coroutine's trace identity, carried across so the
    /// blade domain's queueing resources attribute time to it.
    pub actor: Actor,
}

/// The blade engine's answer to a [`BladeRequest`].
#[derive(Clone, Debug)]
pub struct BladeReply {
    /// Correlation id of the request this answers.
    pub slot: u64,
    /// The executed result, or the error the blade surfaced (a crashed
    /// blade burns the retransmit budget and reports a timeout; it never
    /// executes the request).
    pub result: Result<OpResult, CqeError>,
}

/// The channel pair connecting a requester domain to one blade's engine
/// domain, both directions at fabric one-way latency. Bind each token in
/// its owning domain ([`smart_rt::pdes::DomainCtx::bind_tx`]/`bind_rx`).
pub struct BladeLink {
    /// Request send side — bind inside the requester domain.
    pub req_tx: TxToken<BladeRequest>,
    /// Request receive side — bind inside the blade domain.
    pub req_rx: RxToken<BladeRequest>,
    /// Reply send side — bind inside the blade domain.
    pub rep_tx: TxToken<BladeReply>,
    /// Reply receive side — bind inside the requester domain.
    pub rep_rx: RxToken<BladeReply>,
}

/// Declares the [`BladeLink`] channel pair on `builder`.
///
/// # Panics
///
/// Panics if `requester == responder` or the fabric latency is zero (no
/// conservative lookahead to exploit).
pub fn blade_link(
    builder: &mut PdesBuilder,
    requester: DomainId,
    responder: DomainId,
    fabric: &FabricConfig,
) -> BladeLink {
    let lat = fabric.one_way_latency;
    let (req_tx, req_rx) = builder.channel::<BladeRequest>(requester, responder, lat);
    let (rep_tx, rep_rx) = builder.channel::<BladeReply>(responder, requester, lat);
    BladeLink {
        req_tx,
        req_rx,
        rep_tx,
        rep_rx,
    }
}

/// One in-flight remote verb: the reply value once it arrives, plus the
/// wakeup for the awaiting coroutine.
struct ReplyCell {
    result: RefCell<Option<Result<OpResult, CqeError>>>,
    notify: Notify,
}

/// The requester-side endpoint of a [`BladeLink`], attached to the
/// crossing blade's domain-0 shadow. [`RemotePort::roundtrip`] ships one
/// [`BladeRequest`] and suspends until the matching [`BladeReply`]
/// arrives; a dispatcher task (spawned by [`RemotePort::install`])
/// demultiplexes replies to their waiting slots.
pub struct RemotePort {
    tx: PdesSender<BladeRequest>,
    waiters: RefCell<DetMap<Rc<ReplyCell>>>,
    next_slot: Cell<u64>,
}

impl std::fmt::Debug for RemotePort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemotePort")
            .field("sent", &self.next_slot.get())
            .field("waiting", &self.waiters.borrow().len())
            .finish()
    }
}

impl RemotePort {
    /// Builds the port over a bound sender/receiver pair and spawns its
    /// reply dispatcher on `handle` (the requester domain's handle).
    pub fn install(
        handle: &SimHandle,
        tx: PdesSender<BladeRequest>,
        rx: PdesReceiver<BladeReply>,
    ) -> Rc<Self> {
        let port = Rc::new(RemotePort {
            tx,
            waiters: RefCell::new(DetMap::new()),
            next_slot: Cell::new(0),
        });
        let dispatch = Rc::clone(&port);
        handle.spawn(async move {
            loop {
                let reply = rx.recv().await;
                let cell = dispatch
                    .waiters
                    .borrow_mut()
                    .remove(&reply.slot)
                    .expect("blade reply for unknown slot");
                *cell.result.borrow_mut() = Some(reply.result);
                cell.notify.notify_all();
            }
        });
        port
    }

    /// Ships `op` to the blade engine and waits for its reply. The
    /// request and reply channels each pay the fabric one-way latency;
    /// blade-side contention (ingress, responder pipeline, atomic unit,
    /// egress) is paid at the blade domain.
    pub async fn roundtrip(&self, op: OneSidedOp, actor: Actor) -> Result<OpResult, CqeError> {
        let slot = self.next_slot.get();
        self.next_slot.set(slot + 1);
        let cell = Rc::new(ReplyCell {
            result: RefCell::new(None),
            notify: Notify::new(),
        });
        self.waiters.borrow_mut().insert(slot, Rc::clone(&cell));
        self.tx.send(BladeRequest { slot, op, actor });
        loop {
            if let Some(result) = cell.result.borrow_mut().take() {
                return result;
            }
            cell.notify.notified().await;
        }
    }
}

/// Runs one blade's responder side inside its engine domain: an accept
/// loop receives [`BladeRequest`]s and spawns a handler per request, so
/// concurrent requests overlap in the blade's FIFO resources exactly as
/// they do when requester and blade share a domain.
///
/// Call once per authoritative blade from the blade domain's setup
/// closure, with its cluster's config and the domain-bound `rx`/`tx`
/// ends of the blade's [`BladeLink`].
pub fn spawn_blade_engine(
    blade: &Rc<MemoryBlade>,
    cluster: &ClusterConfig,
    rx: PdesReceiver<BladeRequest>,
    tx: PdesSender<BladeReply>,
) {
    let handle = blade.handle().clone();
    let blade = Rc::clone(blade);
    let cfg = cluster.rnic.clone();
    let header = cluster.fabric.header_bytes;
    // The reply sender is shared by every per-request handler; per-channel
    // sequence numbers live in the engine's coordinator state, so shared
    // use keeps the exact (deliver_ns, channel, seq) merge order.
    let tx = Rc::new(tx);
    let h = handle.clone();
    handle.spawn(async move {
        loop {
            let req = rx.recv().await;
            let blade = Rc::clone(&blade);
            let cfg = cfg.clone();
            let tx = Rc::clone(&tx);
            let h2 = h.clone();
            h.spawn_detached(async move {
                let result = serve_one(&h2, &blade, &cfg, header, &req).await;
                tx.send(BladeReply {
                    slot: req.slot,
                    result,
                });
            });
        }
    });
}

/// Executes one request at the blade: ingress link, crash check (before
/// execution, preserving "error ⇒ not executed"), responder pipeline,
/// atomic unit, the memory operation itself (NVM writes pay their
/// latency), op accounting, egress link.
async fn serve_one(
    handle: &SimHandle,
    blade: &Rc<MemoryBlade>,
    cfg: &RnicConfig,
    header: u64,
    req: &BladeRequest,
) -> Result<OpResult, CqeError> {
    let actor = req.actor;
    let req_wire = header + req.op.request_payload();
    if req_wire >= cfg.small_payload_cutoff {
        blade
            .ingress
            .transfer_as(req_wire, actor, Category::Fabric, "ingress")
            .await;
    }
    if blade.is_crashed() {
        // A crashed blade never answers: the requester's retransmit
        // budget burns (modelled here, at the blade, so the reply's
        // timing still merges deterministically) and the request is
        // reported as a timeout without executing.
        handle.sleep(cfg.fault_timeout).await;
        return Err(CqeError::Timeout);
    }
    blade
        .responder
        .use_for_as(
            cfg.responder_service,
            actor,
            Category::Pipeline,
            "responder",
        )
        .await;
    if req.op.is_atomic() {
        blade
            .atomic_unit
            .use_for_as(cfg.atomic_service, actor, Category::Pipeline, "atomic_unit")
            .await;
    }
    let result = match &req.op {
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
                handle.sleep(blade.nvm_write_latency).await;
            }
            OpResult::Write
        }
        OneSidedOp::Cas { addr, expect, swap } => {
            OpResult::Atomic(blade.cas_u64(addr.offset_bytes, *expect, *swap))
        }
        OneSidedOp::Faa { addr, add } => OpResult::Atomic(blade.faa_u64(addr.offset_bytes, *add)),
    };
    blade.count_op();
    let resp_wire = header + req.op.response_payload();
    if resp_wire >= cfg.small_payload_cutoff {
        blade
            .egress
            .transfer_as(resp_wire, actor, Category::Fabric, "egress")
            .await;
    }
    Ok(result)
}

/// A blade domain's per-blade artifact hook, returned by its bootstrap
/// callback: extra `key=value ` text for blade `i`'s artifact line (the
/// authoritative copy is passed in), or an empty string.
pub type BladeArtifact = Box<dyn Fn(usize, &MemoryBlade) -> String>;

/// Outcome of [`run_decomposed`]: the scenario's report plus the
/// engine's partition counters. Everything in here is independent of the
/// engine worker count.
#[derive(Clone, Debug)]
pub struct Decomposed<R> {
    /// What the compute domain's finish hook returned.
    pub report: R,
    /// Scheduling events summed over *all* domains.
    pub events: u64,
    /// Scheduling domains in the plan (1 compute + blade domains).
    pub domains: u32,
    /// Conservative epochs the engine executed.
    pub epochs: u64,
    /// Envelopes routed across domains, requests and replies combined.
    pub envelopes: u64,
    /// Request envelopes delivered into blade domains. In a fault-free
    /// run this equals `cross_domain_wrs` — every crossing work request
    /// becomes exactly one [`BladeRequest`].
    pub blade_requests: u64,
    /// Work requests the compute side counted as crossing the partition
    /// ([`crate::NodeCounters::cross_domain_wrs`] summed over nodes —
    /// diagnostics-only, never part of golden-visible output).
    pub cross_domain_wrs: u64,
    /// Concatenated blade-domain artifacts: one
    /// `blade<i> <extra>served=<n> epoch=<e>` line per remote blade,
    /// from the authoritative copies.
    pub blade_log: String,
}

/// Runs a cluster scenario decomposed over `plan` on up to
/// `engine_workers` OS threads: compute nodes, fabric requester side and
/// all client state live in domain 0 (a local domain on the calling
/// thread, so the `Rc` graph `compute` builds — a caller-held trace sink
/// included — never crosses a thread); every other domain of the plan
/// runs its blades behind [`spawn_blade_engine`].
///
/// `compute` builds the scenario on domain 0's handle and cluster (ports
/// already attached) and returns its finish hook, which runs once the
/// engine is quiescent. `bootstrap` runs in every blade domain on that
/// domain's own replica of the cluster, before the blade engines start:
/// it must replay the same deterministic preload `compute` performs, and
/// is the place to install the domain's lowered fault sub-plan.
///
/// # Panics
///
/// Panics if the plan is single-domain, hosts a compute node outside
/// domain 0, or does not cover `cfg`'s cluster shape.
pub fn run_decomposed<R: 'static>(
    seed: u64,
    cfg: ClusterConfig,
    plan: &DomainPlan,
    engine_workers: usize,
    compute: impl FnOnce(&SimHandle, &Cluster) -> Box<dyn FnOnce() -> R> + 'static,
    bootstrap: impl Fn(&Cluster, DomainId) -> BladeArtifact + Clone + Send + 'static,
) -> Decomposed<R> {
    assert!(
        !plan.is_single(),
        "decomposed runner needs a partition with at least one blade domain"
    );
    assert!(
        (0..cfg.compute_nodes).all(|n| plan.node_domain(NodeId(n as u32)) == DomainId(0)),
        "compute nodes must live in domain 0"
    );

    let mut b = PdesBuilder::new(seed);
    // Channel pairs for every crossing blade; a blade co-located in
    // domain 0 keeps the classic same-domain path (no port attached).
    let mut ports = Vec::new();
    let mut engines: Vec<Vec<_>> = (0..plan.domains()).map(|_| Vec::new()).collect();
    for i in 0..cfg.memory_blades {
        let d = plan.blade_domain(BladeId(i as u32));
        if d != DomainId(0) {
            let link = blade_link(&mut b, DomainId(0), d, &cfg.fabric);
            ports.push((i, link.req_tx, link.rep_rx));
            engines[d.index()].push((i, link.req_rx, link.rep_tx));
        }
    }

    let out: Rc<RefCell<Option<(R, u64)>>> = Rc::new(RefCell::new(None));
    let (out0, cfg0, plan0) = (Rc::clone(&out), cfg.clone(), plan.clone());
    b.add_local_domain("compute", move |ctx: &DomainCtx| {
        let h = ctx.handle();
        let cluster = Cluster::new_with_plan(h.clone(), cfg0, plan0);
        for (i, tx, rx) in ports {
            let port = RemotePort::install(&h, ctx.bind_tx(tx), ctx.bind_rx(rx));
            cluster.blade(i).attach_remote(port);
        }
        let finish = compute(&h, &cluster);
        Box::new(move |_: &DomainCtx| {
            *out0.borrow_mut() = Some((finish(), cluster.cross_domain_wrs()));
            Vec::new()
        })
    });

    for (d, ends) in engines.into_iter().enumerate().skip(1) {
        let (cfg1, plan1, bootstrap) = (cfg.clone(), plan.clone(), bootstrap.clone());
        b.add_domain(&format!("blades-d{d}"), move |ctx: &DomainCtx| {
            let cluster = Cluster::new_with_plan(ctx.handle(), cfg1, plan1);
            let extra = bootstrap(&cluster, DomainId(d as u32));
            let mut blades = Vec::new();
            for (i, rx, tx) in ends {
                let blade = Rc::clone(cluster.blade(i));
                spawn_blade_engine(&blade, cluster.config(), ctx.bind_rx(rx), ctx.bind_tx(tx));
                blades.push((i, blade));
            }
            Box::new(move |_: &DomainCtx| {
                let mut log = String::new();
                for (i, blade) in &blades {
                    let (served, epoch) = (blade.ops_served(), blade.epoch());
                    log += &format!(
                        "blade{i} {}served={served} epoch={epoch}\n",
                        extra(*i, blade)
                    );
                }
                log.into_bytes()
            })
        });
    }

    let engine = b.run(engine_workers);
    let (report, cross_domain_wrs) = out.borrow_mut().take().expect("compute domain must finish");
    let remote = &engine.domains[1..];
    Decomposed {
        report,
        events: engine.events(),
        domains: plan.domains(),
        epochs: engine.epochs,
        envelopes: engine.envelopes,
        blade_requests: remote.iter().map(|d| d.delivered).sum(),
        cross_domain_wrs,
        blade_log: remote
            .iter()
            .map(|d| String::from_utf8_lossy(&d.artifact))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doorbell::DoorbellBinding;
    use crate::qp::Cq;
    use crate::types::{RemoteAddr, WorkRequest};

    const OPS: u64 = 6;

    /// A 1-node / 1-blade cluster decomposed over two domains: domain 0
    /// posts FAAs through the full QP/doorbell/verb path, the blade
    /// domain executes them through [`spawn_blade_engine`]. Returns the
    /// requester-side log plus the envelope count.
    fn decomposed_faa(workers: usize) -> (String, u64) {
        let cfg = ClusterConfig::new(1, 1);
        let fabric = cfg.fabric.clone();
        let plan = DomainPlan::per_blade(1, 1);
        let mut b = PdesBuilder::new(0xFACE);
        let link = blade_link(&mut b, DomainId(0), plan.blade_domain(BladeId(0)), &fabric);
        let (req_tx, rep_rx) = (link.req_tx, link.rep_rx);
        let out: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
        let out2 = Rc::clone(&out);
        let cfg0 = cfg.clone();
        let plan0 = plan.clone();
        b.add_local_domain("requesters", move |ctx: &DomainCtx| {
            let h = ctx.handle();
            let cluster = Cluster::new_with_plan(h.clone(), cfg0, plan0);
            let blade = Rc::clone(cluster.blade(0));
            let off = blade.alloc(8, 8);
            blade.write_u64(off, 100);
            let port = RemotePort::install(&h, ctx.bind_tx(req_tx), ctx.bind_rx(rep_rx));
            blade.attach_remote(port);
            let node = Rc::clone(cluster.compute(0));
            let dev = node.open_context(None);
            dev.register_memory(1 << 20);
            let cq = Cq::new();
            let qp = dev.create_qp(&blade, &cq, DoorbellBinding::DriverDefault, false);
            let log: Rc<RefCell<String>> = Rc::new(RefCell::new(String::new()));
            let log2 = Rc::clone(&log);
            let h2 = h.clone();
            h.spawn_detached(async move {
                for i in 0..OPS {
                    qp.post_send(
                        vec![WorkRequest {
                            wr_id: i,
                            op: OneSidedOp::Faa {
                                addr: RemoteAddr::new(BladeId(0), off),
                                add: 3,
                            },
                        }],
                        0,
                    )
                    .await;
                    qp.cq().wait_nonempty().await;
                    let cqe = qp.cq().poll(1).remove(0);
                    log2.borrow_mut().push_str(&format!(
                        "wr{} old={} t={}\n",
                        cqe.wr_id,
                        cqe.atomic_old(),
                        h2.now()
                    ));
                }
            });
            let done = Rc::clone(&out2);
            Box::new(move |_: &DomainCtx| {
                let bytes = log.borrow().clone().into_bytes();
                *done.borrow_mut() = bytes.clone();
                bytes
            })
        });
        let cfg1 = cfg.clone();
        let plan1 = plan.clone();
        b.add_domain("blade-0", move |ctx: &DomainCtx| {
            let cluster = Cluster::new_with_plan(ctx.handle(), cfg1, plan1);
            let blade = Rc::clone(cluster.blade(0));
            let off = blade.alloc(8, 8);
            blade.write_u64(off, 100);
            spawn_blade_engine(
                &blade,
                cluster.config(),
                ctx.bind_rx(link.req_rx),
                ctx.bind_tx(link.rep_tx),
            );
            let served = Rc::clone(&blade);
            Box::new(move |_: &DomainCtx| format!("served={}", served.ops_served()).into_bytes())
        });
        let report = b.run(workers);
        let log = String::from_utf8(out.borrow().clone()).unwrap();
        assert_eq!(
            String::from_utf8(report.domains[1].artifact.clone()).unwrap(),
            format!("served={OPS}"),
            "blade domain must execute every request"
        );
        (log, report.envelopes)
    }

    #[test]
    fn decomposed_faa_is_worker_invariant_and_counts_envelopes() {
        let (seq, env_seq) = decomposed_faa(1);
        let (par, env_par) = decomposed_faa(2);
        assert_eq!(seq, par, "decomposed run must not depend on workers");
        assert_eq!(env_seq, 2 * OPS, "one request + one reply per op");
        assert_eq!(env_par, env_seq);
        assert!(seq.contains(&format!("wr{} old={}", OPS - 1, 100 + 3 * (OPS - 1))));
    }

    #[test]
    fn crashed_blade_reports_timeout_without_executing() {
        let cfg = ClusterConfig::new(1, 1);
        let fabric = cfg.fabric.clone();
        let mut b = PdesBuilder::new(0xC4A5);
        let link = blade_link(&mut b, DomainId(0), DomainId(1), &fabric);
        let (req_tx, rep_rx) = (link.req_tx, link.rep_rx);
        let out: Rc<RefCell<String>> = Rc::new(RefCell::new(String::new()));
        let out2 = Rc::clone(&out);
        b.add_local_domain("requester", move |ctx: &DomainCtx| {
            let h = ctx.handle();
            let port = RemotePort::install(&h, ctx.bind_tx(req_tx), ctx.bind_rx(rep_rx));
            let log: Rc<RefCell<String>> = Rc::new(RefCell::new(String::new()));
            let log2 = Rc::clone(&log);
            let h2 = h.clone();
            h.spawn_detached(async move {
                let got = port
                    .roundtrip(
                        OneSidedOp::Faa {
                            addr: RemoteAddr::new(BladeId(0), 64),
                            add: 1,
                        },
                        Actor::SYSTEM,
                    )
                    .await;
                *log2.borrow_mut() = format!("{got:?} t={}", h2.now());
            });
            let done = Rc::clone(&out2);
            Box::new(move |_: &DomainCtx| {
                *done.borrow_mut() = log.borrow().clone();
                Vec::new()
            })
        });
        let cfg1 = cfg.clone();
        b.add_domain("blade-0", move |ctx: &DomainCtx| {
            let cluster = Cluster::new_with_plan(ctx.handle(), cfg1, DomainPlan::per_blade(1, 1));
            let blade = Rc::clone(cluster.blade(0));
            blade.crash();
            spawn_blade_engine(
                &blade,
                cluster.config(),
                ctx.bind_rx(link.req_rx),
                ctx.bind_tx(link.rep_tx),
            );
            let b2 = Rc::clone(&blade);
            Box::new(move |_: &DomainCtx| {
                assert_eq!(b2.ops_served(), 0, "crashed blade must not execute");
                Vec::new()
            })
        });
        b.run(1);
        let log = out.borrow().clone();
        assert!(log.contains("Err(Timeout)"), "got: {log}");
    }
}
