//! Per-process framework state: `SmartContext` owns the device context(s)
//! and builds `SmartThread`s according to the allocation policy.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use smart_rnic::{BladeId, ComputeNode, Cq, DeviceContext, DoorbellBinding, MemoryBlade, Qp};
use smart_rt::sync::FifoResource;
use smart_rt::SimHandle;

use crate::config::{QpPolicy, SmartConfig};
use crate::conflict::{run_conflict_controller, ConflictControl};
use crate::hub::CompletionHub;
use crate::pool::QpPool;
use crate::stats::ThreadStats;
use crate::thread::SmartThread;
use crate::throttle::{run_c_max_tuner, WrThrottle};

/// Process-wide SMART state on one compute node.
///
/// Created once per compute node; [`SmartContext::create_thread`] then
/// hands out one [`SmartThread`] per application thread, wired to QPs,
/// CQs and doorbells according to the configured [`QpPolicy`].
pub struct SmartContext {
    handle: SimHandle,
    cfg: SmartConfig,
    node: Rc<ComputeNode>,
    blades: Vec<Rc<MemoryBlade>>,
    /// The shared device context (absent for per-thread-context policy).
    device: Option<Rc<DeviceContext>>,
    shared_qps: RefCell<BTreeMap<(usize, usize), Rc<Qp>>>,
    shared_hubs: RefCell<BTreeMap<usize, Rc<CompletionHub>>>,
    next_thread: Cell<usize>,
    next_wr: Cell<u64>,
    /// Set by [`SmartContext::quiesce_controllers`]; every periodic
    /// controller coroutine exits at its next wake-up once set.
    quiesce: Rc<Cell<bool>>,
}

impl std::fmt::Debug for SmartContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SmartContext")
            .field("policy", &self.cfg.policy)
            .field("threads", &self.next_thread.get())
            .field("blades", &self.blades.len())
            .finish()
    }
}

impl SmartContext {
    /// Builds framework state on `node`, connected to `blades`.
    ///
    /// For every policy except [`QpPolicy::PerThreadContext`] this opens a
    /// single shared device context and registers local memory once —
    /// "sharing the device context … is not only good for management but
    /// also for performance" (§2.2). The thread-aware policy additionally
    /// raises the number of medium-latency doorbells to one per expected
    /// thread (§4.1).
    pub fn new(node: &Rc<ComputeNode>, blades: &[Rc<MemoryBlade>], cfg: SmartConfig) -> Rc<Self> {
        assert!(!blades.is_empty(), "need at least one memory blade");
        let device = match cfg.policy {
            QpPolicy::PerThreadContext => None,
            QpPolicy::ThreadAwareDoorbell => {
                let medium = (cfg.expected_threads as u32).max(node.config().uar_medium);
                let ctx = node.open_context(Some(medium));
                ctx.register_memory(cfg.local_mr_bytes);
                Some(ctx)
            }
            _ => {
                let ctx = node.open_context(None);
                ctx.register_memory(cfg.local_mr_bytes);
                Some(ctx)
            }
        };
        Rc::new(SmartContext {
            handle: node.handle().clone(),
            cfg,
            node: Rc::clone(node),
            blades: blades.to_vec(),
            device,
            shared_qps: RefCell::new(BTreeMap::new()),
            shared_hubs: RefCell::new(BTreeMap::new()),
            next_thread: Cell::new(0),
            next_wr: Cell::new(1),
            quiesce: Rc::new(Cell::new(false)),
        })
    }

    /// Tells every periodic controller coroutine this context spawned
    /// (the `C_max` tuner and the γ conflict controller) to exit at its
    /// next wake-up. A run that executes until the whole simulation
    /// quiesces — every `smart-bench` and `smart-serve` run — needs
    /// this: a forever-ticking controller would keep virtual time
    /// advancing unboundedly.
    pub fn quiesce_controllers(&self) {
        self.quiesce.set(true);
    }

    /// The framework configuration.
    pub fn config(&self) -> &SmartConfig {
        &self.cfg
    }

    /// The compute node this context lives on.
    pub fn node(&self) -> &Rc<ComputeNode> {
        &self.node
    }

    /// The connected memory blades.
    pub fn blades(&self) -> &[Rc<MemoryBlade>] {
        &self.blades
    }

    /// The simulation handle.
    pub fn handle(&self) -> &SimHandle {
        &self.handle
    }

    /// Index of `blade` in this context's blade list.
    ///
    /// # Panics
    ///
    /// Panics if the blade is not connected.
    pub fn blade_index(&self, blade: BladeId) -> usize {
        self.blades
            .iter()
            .position(|b| b.id() == blade)
            .unwrap_or_else(|| panic!("blade {blade:?} not connected"))
    }

    /// The shared device context, if the policy uses one.
    pub fn device(&self) -> Option<&Rc<DeviceContext>> {
        self.device.as_ref()
    }

    /// Snapshots every contention point the paper analyses (doorbell
    /// spinlock losses, WQE/MTT hit rates, PCIe-inbound traffic) — the
    /// simulator's stand-in for perf + Neo-Host (§3, §6.3).
    pub fn contention_report(&self) -> crate::report::ContentionReport {
        crate::report::collect(self)
    }

    pub(crate) fn next_wr_id(&self) -> u64 {
        let id = self.next_wr.get();
        self.next_wr.set(id + 1);
        id
    }

    fn shared_group(self: &Rc<Self>, group: usize) -> (Vec<Rc<Qp>>, Rc<CompletionHub>) {
        let device = self
            .device
            .as_ref()
            .expect("shared policies use the shared context");
        let hub = {
            let mut hubs = self.shared_hubs.borrow_mut();
            Rc::clone(hubs.entry(group).or_insert_with(|| {
                CompletionHub::start(
                    &self.handle,
                    Cq::new(),
                    None,
                    None,
                    self.cfg.cpu_poll,
                    self.cfg.cpu_per_cqe,
                )
            }))
        };
        let mut qps = Vec::with_capacity(self.blades.len());
        for (bi, blade) in self.blades.iter().enumerate() {
            let mut map = self.shared_qps.borrow_mut();
            let qp = map.entry((group, bi)).or_insert_with(|| {
                device.create_qp(blade, hub.cq(), DoorbellBinding::DriverDefault, true)
            });
            qps.push(Rc::clone(qp));
        }
        (qps, hub)
    }

    /// Creates the next application thread's framework state: QPs to every
    /// blade, a completion hub, throttling and conflict-avoidance state,
    /// and their controller coroutines.
    pub fn create_thread(self: &Rc<Self>) -> Rc<SmartThread> {
        let idx = self.next_thread.get();
        self.next_thread.set(idx + 1);
        let cpu = FifoResource::new(self.handle.clone());
        let throttle = WrThrottle::new(self.cfg.work_req_throttle, self.cfg.initial_c_max);

        let (qps, hub, pool) = match self.cfg.policy {
            QpPolicy::SharedQp => {
                let (qps, hub) = self.shared_group(0);
                (qps, hub, None)
            }
            QpPolicy::MultiplexedQp { threads_per_qp } => {
                assert!(threads_per_qp > 0, "threads_per_qp must be positive");
                let (qps, hub) = self.shared_group(idx / threads_per_qp);
                (qps, hub, None)
            }
            QpPolicy::PerThreadQp | QpPolicy::ThreadAwareDoorbell => {
                let device = self.device.as_ref().expect("shared device context");
                let cq = Cq::new();
                let hub = CompletionHub::start(
                    &self.handle,
                    Rc::clone(&cq),
                    Some(cpu.clone()),
                    Some(Rc::clone(&throttle)),
                    self.cfg.cpu_poll,
                    self.cfg.cpu_per_cqe,
                );
                let binding = match self.cfg.policy {
                    QpPolicy::ThreadAwareDoorbell => {
                        DoorbellBinding::Explicit(device.thread_doorbell(idx).index())
                    }
                    _ => DoorbellBinding::DriverDefault,
                };
                let qps = self
                    .blades
                    .iter()
                    .map(|b| device.create_qp(b, &cq, binding, false))
                    .collect();
                let pool = QpPool::new(Rc::clone(device), binding);
                (qps, hub, Some(pool))
            }
            QpPolicy::PerThreadContext => {
                let device = self.node.open_context(None);
                device.register_memory(self.cfg.local_mr_bytes);
                let cq = Cq::new();
                let hub = CompletionHub::start(
                    &self.handle,
                    Rc::clone(&cq),
                    Some(cpu.clone()),
                    Some(Rc::clone(&throttle)),
                    self.cfg.cpu_poll,
                    self.cfg.cpu_per_cqe,
                );
                let qps = self
                    .blades
                    .iter()
                    .map(|b| device.create_qp(b, &cq, DoorbellBinding::DriverDefault, false))
                    .collect();
                let pool = QpPool::new(device, DoorbellBinding::DriverDefault);
                (qps, hub, Some(pool))
            }
        };

        let stats = ThreadStats::new();
        let conflict = ConflictControl::new(&self.cfg, self.cfg.coroutines_per_thread);

        if self.cfg.work_req_throttle {
            self.handle.spawn(run_c_max_tuner(
                self.handle.clone(),
                Rc::clone(&throttle),
                stats.rdma_completed.clone(),
                self.cfg.clone(),
                Rc::clone(&self.quiesce),
            ));
        }
        if self.cfg.conflict_backoff
            && (self.cfg.dynamic_backoff_limit || self.cfg.coroutine_throttle)
        {
            self.handle.spawn(run_conflict_controller(
                self.handle.clone(),
                Rc::clone(&conflict),
                self.cfg.gamma_interval,
                Rc::clone(&self.quiesce),
            ));
        }

        SmartThread::new(
            Rc::clone(self),
            idx,
            cpu,
            qps,
            hub,
            throttle,
            conflict,
            pool,
            stats,
        )
    }
}
