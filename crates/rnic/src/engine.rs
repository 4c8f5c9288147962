//! Blade engine domains: the responder half of a decomposed cluster.
//!
//! A work request's blade half is `MemoryBlade::serve`. When the blade
//! shares the requester's domain, the verb lifecycle calls it directly;
//! under a [`DomainPlan`](crate::DomainPlan) that puts the blade in a
//! domain of its own, this module carries the call across: the blade
//! becomes a real PDES engine domain, and the requester side of
//! [`verbs`](crate::qp::Qp::post_send) crosses to it over a typed
//! [`BladeLink`] — a [`BladeRequest`] travelling requester → blade and a
//! [`BladeReply`] travelling back, each paying the fabric's one-way
//! latency (exactly the plan's conservative lookahead) — and
//! [`spawn_blade_engine`] runs the same `serve` on the blade's side.
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
//!   verb lifecycle consults the port instead of serving locally. The
//!   port's dispatcher delivers each reply into a
//!   [`Claims`](smart_rt::sync::Claims) rendezvous keyed by slot and
//!   wakes only the roundtrip waiting on that slot. A
//!   blade the plan co-locates with domain 0 gets no port, and a
//!   [`DomainPlan::single`](crate::DomainPlan::single) plan gives none at
//!   all: the engine then runs domain 0 alone;
//! * each blade domain runs the caller's bootstrap callback (application
//!   preload plus its lowered fault sub-plan — both stay out of this
//!   crate), binds the responder ends and calls [`spawn_blade_engine`] on
//!   its authoritative blades; its finish artifact is one line per blade;
//! * the engine's [`smart_rt::pdes::PdesReport`] is folded into a
//!   [`Decomposed`] result.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use smart_rt::pdes::{
    DomainCtx, DomainId, PdesBuilder, PdesReceiver, PdesSender, RxToken, TxToken,
};
use smart_rt::sync::Claims;
use smart_rt::{SchedulePolicy, SimHandle};
use smart_trace::Actor;

use crate::blade::MemoryBlade;
use crate::cluster::Cluster;
use crate::config::{ClusterConfig, FabricConfig};
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
    /// blade reports a timeout at once and never executes the request;
    /// the requester burns the rest of the retransmit budget).
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

/// The requester-side endpoint of a [`BladeLink`], attached to the
/// crossing blade's domain-0 shadow. [`RemotePort::roundtrip`] ships one
/// [`BladeRequest`] and claims its slot; a dispatcher task (spawned by
/// [`RemotePort::install`]) delivers each [`BladeReply`] to that slot and
/// wakes its claimer.
pub struct RemotePort {
    tx: PdesSender<BladeRequest>,
    replies: Claims<Result<OpResult, CqeError>>,
    next_slot: Cell<u64>,
}

impl std::fmt::Debug for RemotePort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemotePort")
            .field("sent", &self.next_slot.get())
            .field("replies", &self.replies)
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
            replies: Claims::default(),
            next_slot: Cell::new(0),
        });
        let dispatch = Rc::clone(&port);
        handle.spawn(async move {
            loop {
                let reply = rx.recv().await;
                let awaited = dispatch.replies.deliver(reply.slot, reply.result);
                assert!(awaited, "blade reply for unknown slot");
                dispatch.replies.wake_ready();
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
        self.tx.send(BladeRequest { slot, op, actor });
        self.replies.claim(&[slot]).await;
        self.replies.take(slot)
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
    let cfg = Rc::new(cluster.rnic.clone());
    let header = cluster.fabric.header_bytes;
    // The reply sender is shared by every per-request handler; per-channel
    // sequence numbers live in the engine's coordinator state, so shared
    // use keeps the exact (deliver_ns, channel, seq) merge order.
    let tx = Rc::new(tx);
    let h = handle.clone();
    handle.spawn(async move {
        loop {
            let req = rx.recv().await;
            let (blade, cfg, tx) = (Rc::clone(&blade), Rc::clone(&cfg), Rc::clone(&tx));
            h.spawn_detached(async move {
                let result = blade.serve(&cfg, header, &req.op, req.actor).await;
                tx.send(BladeReply {
                    slot: req.slot,
                    result,
                });
            });
        }
    });
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
    /// Tasks still live in domain 0 once the engine quiesced: tasks
    /// parked for good, such as the CQ pumps and the remote ports'
    /// reply dispatchers. A worker parked here is a lost wakeup.
    pub live_tasks: usize,
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
/// `engine_workers` OS threads, every domain breaking same-instant ties
/// by `policy`: compute nodes, fabric requester side and
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
/// A single-domain plan is the degenerate case: no blade crosses, so
/// the engine has no channels and runs domain 0 alone.
///
/// # Panics
///
/// Panics if the plan hosts a compute node outside domain 0 or does not
/// cover `cfg`'s cluster shape.
pub fn run_decomposed<R: 'static>(
    seed: u64,
    policy: SchedulePolicy,
    cfg: ClusterConfig,
    plan: &DomainPlan,
    engine_workers: usize,
    compute: impl FnOnce(&SimHandle, &Cluster) -> Box<dyn FnOnce() -> R> + 'static,
    bootstrap: impl Fn(&Cluster, DomainId) -> BladeArtifact + Clone + Send + 'static,
) -> Decomposed<R> {
    assert!(
        (0..cfg.compute_nodes).all(|n| plan.node_domain(NodeId(n as u32)) == DomainId(0)),
        "compute nodes must live in domain 0"
    );

    let mut b = PdesBuilder::with_policy(seed, policy);
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
        live_tasks: engine.domains[0].live_tasks,
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
    use std::fmt::Write as _;

    use super::*;
    use crate::doorbell::DoorbellBinding;
    use crate::inject::{FaultHook, InjectDecision};
    use crate::qp::{Cq, Qp};
    use crate::types::{RemoteAddr, WorkRequest};

    /// The word every script targets starts at this value.
    const INIT: u64 = 100;

    /// One row of the plan-invariance table: a blade set-up and the
    /// operations one QP posts, a single WR per step, each awaited before
    /// the next is posted.
    struct Script {
        name: &'static str,
        /// The blade is down for the whole run.
        crashed: bool,
        /// The QP errors while step 0 sits in the requester pipeline.
        qp_error: bool,
        steps: fn(RemoteAddr) -> Vec<OneSidedOp>,
        /// Each step's result, as [`outcome`] renders it.
        want: &'static [&'static str],
    }

    fn faa(addr: RemoteAddr) -> OneSidedOp {
        OneSidedOp::Faa { addr, add: 3 }
    }

    fn read(addr: RemoteAddr, len: u32) -> OneSidedOp {
        OneSidedOp::Read { addr, len }
    }

    fn write(addr: RemoteAddr, byte: u8, len: usize, persistent: bool) -> OneSidedOp {
        OneSidedOp::Write {
            addr,
            data: vec![byte; len],
            persistent,
        }
    }

    const SCRIPTS: &[Script] = &[
        Script {
            name: "faa",
            crashed: false,
            qp_error: false,
            steps: |a| vec![faa(a), faa(a)],
            want: &["Atomic(100)", "Atomic(103)"],
        },
        Script {
            name: "cas",
            crashed: false,
            qp_error: false,
            steps: |addr| {
                let cas = |swap| OneSidedOp::Cas {
                    addr,
                    expect: INIT,
                    swap,
                };
                vec![cas(7), cas(9)]
            },
            want: &["Atomic(100)", "Atomic(7)"],
        },
        Script {
            name: "read_8",
            crashed: false,
            qp_error: false,
            steps: |a| vec![read(a, 8)],
            want: &["Read(8B, 0x64)"],
        },
        Script {
            // 30 + 256 B of response: serializes on the blade egress link.
            name: "read_256_egress",
            crashed: false,
            qp_error: false,
            steps: |a| vec![read(a, 256)],
            want: &["Read(256B, 0x64)"],
        },
        Script {
            // 30 + 512 B of request: serializes on the blade ingress link.
            name: "write_512_ingress",
            crashed: false,
            qp_error: false,
            steps: |a| vec![write(a, 0xab, 512, false), read(a, 8)],
            want: &["Write", "Read(8B, 0xabababababababab)"],
        },
        Script {
            name: "write_persistent",
            crashed: false,
            qp_error: false,
            steps: |a| vec![write(a, 0xcd, 64, true), read(a, 8)],
            want: &["Write", "Read(8B, 0xcdcdcdcdcdcdcdcd)"],
        },
        Script {
            name: "crashed_blade",
            crashed: true,
            qp_error: false,
            steps: |a| vec![faa(a), read(a, 8)],
            want: &["Error(Timeout)", "Error(Timeout)"],
        },
        Script {
            // Step 0 flushes at departure, step 1 at post.
            name: "qp_error_in_pipeline",
            crashed: false,
            qp_error: true,
            steps: |a| vec![faa(a), faa(a)],
            want: &["Error(FlushErr)", "Error(FlushErr)"],
        },
    ];

    /// Forces the QP into error as work request 0 passes the post-time
    /// checkpoint, i.e. as it enters the requester pipeline.
    struct ErrorInPipeline;

    impl FaultHook for ErrorInPipeline {
        fn on_wr(&self, qp: &Qp, wr: &WorkRequest) -> InjectDecision {
            if wr.wr_id == 0 {
                qp.force_error();
            }
            InjectDecision::Deliver
        }
    }

    fn outcome(result: &OpResult) -> String {
        match result {
            OpResult::Read(bytes) => {
                let head = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
                format!("Read({}B, {head:#x})", bytes.len())
            }
            other => format!("{other:?}"),
        }
    }

    /// Runs `script` on a 1-node / 1-blade cluster decomposed over `plan`
    /// and returns the per-WR `wr<id> t=<completion ns> <result>` log.
    fn run_script(script: &Script, plan: &DomainPlan, workers: usize) -> (String, Decomposed<()>) {
        let crashed = script.crashed;
        // Replayed by every domain, like an application preload.
        let prepare = move |blade: &MemoryBlade| {
            let off = blade.alloc(1024, 8);
            blade.write_u64(off, INIT);
            if crashed {
                blade.crash();
            }
            RemoteAddr::new(blade.id(), off)
        };
        let (steps, qp_error) = (script.steps, script.qp_error);
        let log: Rc<RefCell<String>> = Rc::default();
        let log0 = Rc::clone(&log);
        let d = run_decomposed(
            0xFACE,
            SchedulePolicy::Fifo,
            ClusterConfig::new(1, 1),
            plan,
            workers,
            move |h, cluster| {
                let blade = cluster.blade(0);
                let addr = prepare(blade);
                let node = cluster.compute(0);
                if qp_error {
                    node.install_fault_hook(Rc::new(ErrorInPipeline));
                }
                let dev = node.open_context(None);
                dev.register_memory(1 << 20);
                let qp = dev.create_qp(blade, &Cq::new(), DoorbellBinding::DriverDefault, false);
                let h2 = h.clone();
                h.spawn_detached(async move {
                    for (i, op) in steps(addr).into_iter().enumerate() {
                        qp.post_send(
                            vec![WorkRequest {
                                wr_id: i as u64,
                                op,
                            }],
                            0,
                        )
                        .await;
                        qp.cq().wait_nonempty().await;
                        let cqe = qp.cq().poll(1).remove(0);
                        let t = h2.now().as_nanos();
                        let line = format!("wr{} t={t} {}", cqe.wr_id, outcome(&cqe.result));
                        writeln!(log0.borrow_mut(), "{line}").unwrap();
                    }
                });
                Box::new(|| ())
            },
            move |cluster, _| {
                prepare(cluster.blade(0));
                Box::new(|_, _| String::new())
            },
        );
        let log = log.take();
        (log, d)
    }

    #[test]
    fn every_verb_completes_identically_whichever_domain_serves_it() {
        for script in SCRIPTS {
            let (single, d) = run_script(script, &DomainPlan::single(1, 1), 1);
            let got: Vec<&str> = single
                .lines()
                .map(|l| l.splitn(3, ' ').nth(2).unwrap_or_default())
                .collect();
            assert_eq!(got, script.want, "{}: results\n{single}", script.name);
            assert_eq!((d.domains, d.envelopes), (1, 0), "{}", script.name);
            assert!(d.blade_log.is_empty(), "{}", script.name);

            let executed = script
                .want
                .iter()
                .filter(|w| !w.starts_with("Error"))
                .count();
            let arrived = if script.qp_error {
                0
            } else {
                script.want.len()
            };
            for workers in [1, 2] {
                let (remote, d) = run_script(script, &DomainPlan::per_blade(1, 1), workers);
                assert_eq!(
                    remote, single,
                    "{}: the remote blade (workers {workers}) diverged from the co-located one",
                    script.name
                );
                assert_eq!(d.blade_log, format!("blade0 served={executed} epoch=0\n"));
                assert_eq!(d.blade_requests, arrived as u64, "{}", script.name);
                assert_eq!(d.envelopes, 2 * d.blade_requests, "{}", script.name);
            }
            println!(
                "plan-invariant {}: {}",
                script.name,
                single.trim_end().replace('\n', "; ")
            );
        }
    }
}
