//! Two-sided RPC to the memory blade's weak CPU — the alternative the
//! paper's §2.1 argues *against* for disaggregated memory.
//!
//! A memory blade has only 1–2 CPU cores. An RPC-style design (HERD,
//! FaSST, eRPC) ships the request over SEND/RECV and lets the blade CPU
//! execute the lookup locally: one network roundtrip instead of several,
//! but every request costs blade CPU time — and with two cores, the blade
//! saturates around `cores / handler_cpu` requests per second no matter
//! how many clients arrive. One-sided designs trade more roundtrips for
//! zero remote CPU. The `ext_rpc_vs_onesided` bench reproduces that
//! trade-off.
//!
//! The handler runs host-side against the blade's real memory at the
//! simulated completion instant, so RPC services return real data.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use smart_rt::metrics::Counter;
use smart_rt::sync::FifoResource;

use crate::blade::MemoryBlade;
use crate::qp::Qp;

/// A request handler: runs on the blade CPU against blade memory.
pub type RpcHandler = Box<dyn Fn(&MemoryBlade, &[u8]) -> Vec<u8>>;

/// The blade-side RPC service: a handler plus the blade's CPU cores.
pub struct RpcService {
    blade: Rc<MemoryBlade>,
    cores: Vec<FifoResource>,
    handler: RefCell<Option<RpcHandler>>,
    /// CPU time one request costs on a blade core (dispatch + handler).
    request_cpu: Duration,
    served: Counter,
}

impl std::fmt::Debug for RpcService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RpcService")
            .field("blade", &self.blade.id())
            .field("cores", &self.cores.len())
            .field("served", &self.served.get())
            .finish()
    }
}

impl RpcService {
    /// Creates a service on `blade` with `cores` CPU cores, each request
    /// costing `request_cpu` of core time.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(blade: &Rc<MemoryBlade>, cores: usize, request_cpu: Duration) -> Rc<Self> {
        assert!(cores > 0, "a blade CPU needs at least one core");
        let handle = blade.handle().clone();
        Rc::new(RpcService {
            blade: Rc::clone(blade),
            cores: (0..cores)
                .map(|_| FifoResource::new(handle.clone()))
                .collect(),
            handler: RefCell::new(None),
            request_cpu,
            served: Counter::new(),
        })
    }

    /// Installs the request handler.
    pub fn set_handler(&self, handler: RpcHandler) {
        *self.handler.borrow_mut() = Some(handler);
    }

    /// Requests served so far.
    pub fn served(&self) -> u64 {
        self.served.get()
    }

    fn least_loaded_core(&self) -> &FifoResource {
        self.cores
            .iter()
            .min_by_key(|c| c.backlog())
            .expect("at least one core")
    }

    /// Executes one request on the blade CPU (queueing included) and
    /// returns the response bytes.
    ///
    /// # Panics
    ///
    /// Panics if no handler is installed.
    pub(crate) async fn execute(&self, request: &[u8]) -> Vec<u8> {
        self.least_loaded_core().use_for(self.request_cpu).await;
        let out = {
            let handler = self.handler.borrow();
            let handler = handler.as_ref().expect("RPC handler installed");
            handler(&self.blade, request)
        };
        self.served.incr();
        out
    }
}

/// Issues an RPC over `qp`: SEND the request, blade CPU executes the
/// handler, response SENDs back. One network roundtrip plus blade CPU
/// queueing; the sender-side doorbell/pipeline costs match a one-sided
/// post of the same payload.
///
/// `owner_tag` identifies the posting thread, as in
/// [`Qp::post_send`].
///
/// # Panics
///
/// Panics if `service` is not on the QP's target blade.
pub async fn rpc_call(
    qp: &Rc<Qp>,
    service: &Rc<RpcService>,
    request: Vec<u8>,
    owner_tag: u64,
) -> Vec<u8> {
    assert_eq!(
        service.blade.id(),
        qp.target().id(),
        "RPC service lives on a different blade than the QP targets"
    );
    let node = Rc::clone(qp.context().node());
    let cfg = node.config().clone();
    let handle = node.handle().clone();
    let fabric_latency = node.fabric_latency();
    let header = node.fabric_header_bytes();

    // Sender side: QP + doorbell + requester pipeline, like any post.
    let actor = smart_trace::Actor::thread(owner_tag);
    qp.lock_for_post(1, actor).await;
    qp.doorbell().ring_as(actor).await;
    node.charge_wqe_fetch();
    node.requester_pipeline().use_for(cfg.base_service).await;

    // Request leg.
    let req_wire = header + request.len() as u64;
    if req_wire >= cfg.small_payload_cutoff {
        service.blade.ingress.transfer(req_wire).await;
    }
    handle.sleep(fabric_latency).await;
    service.blade.responder.use_for(cfg.responder_service).await;

    // Blade CPU: the RPC bottleneck. A crashed blade never answers; the
    // client burns retransmit timeouts until the blade restarts (SEND is
    // reliable-connected, so the request is redelivered, not lost).
    while service.blade.is_crashed() {
        handle.sleep(cfg.fault_timeout).await;
    }
    let response = service.execute(&request).await;

    // Response leg (a SEND from the blade).
    let resp_wire = header + response.len() as u64;
    if resp_wire >= cfg.small_payload_cutoff {
        service.blade.egress.transfer(resp_wire).await;
    }
    handle.sleep(fabric_latency).await;
    node.charge_rpc_completion(response.len() as u64);
    response
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, ClusterConfig, Cq, DoorbellBinding};
    use smart_rt::{Duration, Simulation};

    fn setup() -> (Simulation, Cluster, Rc<Qp>, Rc<RpcService>) {
        let sim = Simulation::new(4);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::new(1, 1));
        let ctx = cluster.compute(0).open_context(None);
        ctx.register_memory(1 << 20);
        let cq = Cq::new();
        let qp = ctx.create_qp(cluster.blade(0), &cq, DoorbellBinding::DriverDefault, false);
        let svc = RpcService::new(cluster.blade(0), 2, Duration::from_micros(1));
        (sim, cluster, qp, svc)
    }

    #[test]
    fn rpc_roundtrip_executes_handler_on_blade_memory() {
        let (mut sim, cluster, qp, svc) = setup();
        let off = cluster.blade(0).alloc(8, 8);
        cluster.blade(0).write_u64(off, 4242);
        svc.set_handler(Box::new(move |blade, req| {
            assert_eq!(req, b"get");
            blade.read_u64(off).to_le_bytes().to_vec()
        }));
        let resp = sim.block_on(async move { rpc_call(&qp, &svc, b"get".to_vec(), 0).await });
        assert_eq!(u64::from_le_bytes(resp.try_into().expect("8B")), 4242);
    }

    #[test]
    fn rpc_latency_is_one_roundtrip_plus_handler() {
        let (mut sim, _cluster, qp, svc) = setup();
        svc.set_handler(Box::new(|_, _| vec![0u8; 8]));
        let h = sim.handle();
        let elapsed = sim.block_on(async move {
            let t0 = h.now();
            rpc_call(&qp, &svc, vec![0u8; 16], 0).await;
            h.now() - t0
        });
        // 2 × 1150 ns fabric + 1 µs handler + processing ≈ 3.6–3.9 µs.
        assert!(elapsed >= Duration::from_nanos(3_300), "{elapsed:?}");
        assert!(elapsed <= Duration::from_nanos(4_500), "{elapsed:?}");
    }

    #[test]
    fn blade_cores_cap_rpc_throughput() {
        let (mut sim, _cluster, qp, svc) = setup();
        svc.set_handler(Box::new(|_, _| Vec::new()));
        // 64 concurrent callers, 2 cores x 1 µs/request => ~2 M req/s cap.
        for _ in 0..64 {
            let qp = Rc::clone(&qp);
            let svc = Rc::clone(&svc);
            sim.spawn(async move {
                loop {
                    rpc_call(&qp, &svc, vec![1, 2, 3], 0).await;
                }
            });
        }
        sim.run_for(Duration::from_millis(2));
        let before = svc.served();
        sim.run_for(Duration::from_millis(3));
        let rate = (svc.served() - before) as f64 / 3e-3 / 1e6;
        assert!(rate <= 2.05, "blade CPU must cap RPC at ~2 M/s, got {rate}");
        assert!(rate >= 1.8, "blade CPU should saturate, got {rate}");
    }

    #[test]
    #[should_panic(expected = "handler installed")]
    fn rpc_without_handler_panics() {
        let (mut sim, _cluster, qp, svc) = setup();
        sim.block_on(async move {
            rpc_call(&qp, &svc, Vec::new(), 0).await;
        });
    }
}
