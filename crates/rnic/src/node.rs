//! Compute nodes: the requester-side RNIC model.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use smart_rt::metrics::{Counter, HitStats};
use smart_rt::sync::{Bandwidth, FifoResource};
use smart_rt::SimHandle;

use crate::config::{FabricConfig, RnicConfig};
use crate::device::DeviceContext;
use crate::inject::FaultHook;
use crate::lru::LruCache;
use crate::types::NodeId;

/// A compute node's RNIC: requester pipeline, caches and counters.
///
/// All device contexts, QPs and doorbells of a node hang off this object.
pub struct ComputeNode {
    id: NodeId,
    pub(crate) handle: SimHandle,
    pub(crate) cfg: Rc<RnicConfig>,
    pub(crate) fabric: FabricConfig,
    /// Requester-side processing pipeline (the 110 MOP/s ceiling).
    pub(crate) pipeline: FifoResource,
    /// Host PCIe payload path (PCIe 3.0 ×16 in the paper's testbed).
    pub(crate) pcie: Bandwidth,
    /// PCIe-inbound DRAM traffic in bytes — the Figure 4b metric.
    pub(crate) dram_bytes: Counter,
    /// Completed one-sided operations.
    pub(crate) ops_completed: Counter,
    /// Work requests completed with an error status (injected faults).
    pub(crate) ops_errored: Counter,
    /// Work requests posted but not yet completed, node-wide.
    pub(crate) outstanding: Cell<u64>,
    /// Installed fault-injection hook, if any.
    pub(crate) fault_hook: RefCell<Option<Rc<dyn FaultHook>>>,
    /// WQE-cache hit/miss statistics.
    pub(crate) wqe_stats: HitStats,
    /// MTT/MPT translation cache, keyed by (context id, page index).
    pub(crate) mtt: RefCell<LruCache>,
    /// MTT/MPT hit/miss statistics.
    pub(crate) mtt_stats: HitStats,
    next_ctx: Cell<u32>,
}

impl std::fmt::Debug for ComputeNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComputeNode")
            .field("id", &self.id)
            .field("outstanding", &self.outstanding.get())
            .field("ops_completed", &self.ops_completed.get())
            .finish()
    }
}

/// A snapshot of a node's performance counters (the simulator's
/// equivalent of Mellanox Neo-Host counters).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NodeCounters {
    /// Completed one-sided operations.
    pub ops_completed: u64,
    /// PCIe-inbound DRAM traffic in bytes.
    pub dram_bytes: u64,
    /// WQE-cache hits.
    pub wqe_hits: u64,
    /// WQE-cache misses.
    pub wqe_misses: u64,
    /// MTT/MPT cache hits.
    pub mtt_hits: u64,
    /// MTT/MPT cache misses.
    pub mtt_misses: u64,
    /// Currently outstanding work requests.
    pub outstanding: u64,
    /// Work requests completed with an error status (injected faults).
    pub ops_errored: u64,
}

impl NodeCounters {
    /// Average DRAM bytes per completed work request (Figure 4b's y-axis),
    /// relative to an earlier snapshot.
    pub fn dram_bytes_per_op_since(&self, earlier: &NodeCounters) -> f64 {
        let ops = self.ops_completed.saturating_sub(earlier.ops_completed);
        if ops == 0 {
            return 0.0;
        }
        self.dram_bytes.saturating_sub(earlier.dram_bytes) as f64 / ops as f64
    }
}

impl ComputeNode {
    /// Creates a compute node with the given RNIC and fabric parameters.
    pub fn new(handle: SimHandle, id: NodeId, cfg: RnicConfig, fabric: FabricConfig) -> Rc<Self> {
        let pcie = Bandwidth::new(handle.clone(), cfg.pcie_bytes_per_sec);
        let mtt = RefCell::new(LruCache::new(cfg.mtt_cache_entries));
        Rc::new(ComputeNode {
            id,
            pipeline: FifoResource::new(handle.clone()),
            pcie,
            handle,
            cfg: Rc::new(cfg),
            fabric,
            dram_bytes: Counter::new(),
            ops_completed: Counter::new(),
            ops_errored: Counter::new(),
            outstanding: Cell::new(0),
            fault_hook: RefCell::new(None),
            wqe_stats: HitStats::new(),
            mtt,
            mtt_stats: HitStats::new(),
            next_ctx: Cell::new(0),
        })
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's RNIC parameters.
    pub fn config(&self) -> &RnicConfig {
        &self.cfg
    }

    /// The simulation handle this node runs on.
    pub fn handle(&self) -> &SimHandle {
        &self.handle
    }

    pub(crate) fn fabric_latency(&self) -> Duration {
        self.fabric.one_way_latency
    }

    pub(crate) fn fabric_header_bytes(&self) -> u64 {
        self.fabric.header_bytes
    }

    pub(crate) fn requester_pipeline(&self) -> &FifoResource {
        &self.pipeline
    }

    pub(crate) fn charge_wqe_fetch(&self) {
        self.dram_bytes.add(self.cfg.wqe_fetch_bytes);
    }

    pub(crate) fn charge_rpc_completion(&self, payload_bytes: u64) {
        self.dram_bytes.add(self.cfg.cqe_bytes + payload_bytes);
        self.ops_completed.incr();
    }

    /// Opens a device context (`ibv_open_device` + `ibv_alloc_pd`): a
    /// doorbell table plus an MR registration namespace.
    ///
    /// The common practice — and SMART's recommendation (§4.1) — is **one
    /// shared context per process**; the per-thread-context baseline opens
    /// one per thread, multiplying MR registrations and thrashing the
    /// MTT/MPT cache.
    pub fn open_context(self: &Rc<Self>, medium_doorbells: Option<u32>) -> Rc<DeviceContext> {
        let id = self.next_ctx.get();
        self.next_ctx.set(id + 1);
        let cfg = match medium_doorbells {
            Some(m) => (*self.cfg).clone().with_uars(m),
            None => (*self.cfg).clone(),
        };
        DeviceContext::new(Rc::clone(self), id, &cfg)
    }

    /// Number of contexts opened on this node.
    pub fn context_count(&self) -> u32 {
        self.next_ctx.get()
    }

    /// Snapshot of the node's counters.
    pub fn counters(&self) -> NodeCounters {
        NodeCounters {
            ops_completed: self.ops_completed.get(),
            dram_bytes: self.dram_bytes.get(),
            wqe_hits: self.wqe_stats.hits.get(),
            wqe_misses: self.wqe_stats.misses.get(),
            mtt_hits: self.mtt_stats.hits.get(),
            mtt_misses: self.mtt_stats.misses.get(),
            outstanding: self.outstanding.get(),
            ops_errored: self.ops_errored.get(),
        }
    }

    /// Installs a fault-injection hook on this node; subsequent work
    /// requests consult it at the pre-execution checkpoint and newly
    /// created QPs are announced to it. Install the hook before opening
    /// contexts so it sees every QP.
    pub fn install_fault_hook(&self, hook: Rc<dyn FaultHook>) {
        *self.fault_hook.borrow_mut() = Some(hook);
    }

    /// The installed fault hook, if any.
    pub fn fault_hook(&self) -> Option<Rc<dyn FaultHook>> {
        self.fault_hook.borrow().clone()
    }

    /// Decides whether a completing work request hits the on-chip WQE
    /// cache.
    ///
    /// The cache holds up to `wqe_cache_entries` in-flight WQEs; beyond
    /// that, the probability that a completing WQE was evicted grows with
    /// the overshoot (`1 - capacity/outstanding`). This bulk model
    /// reproduces the gradual degradation of Figure 4a (−5 % at 1152
    /// OWRs, −50 % at 3072 with a 1024-entry cache) that a strict
    /// LRU-with-FIFO-completions would turn into a cliff.
    pub(crate) fn wqe_lookup_is_hit(&self) -> bool {
        let owr = self.outstanding.get();
        let cap = self.cfg.wqe_cache_entries;
        let hit = if owr <= cap {
            true
        } else {
            let miss_p = 1.0 - cap as f64 / owr as f64;
            !self.handle.with_rng(|r| r.gen_bool(miss_p))
        };
        if hit {
            self.wqe_stats.hits.incr();
        } else {
            self.wqe_stats.misses.incr();
        }
        hit
    }

    /// Performs an MTT/MPT lookup for a local buffer page of context
    /// `ctx_id`; returns extra (service, latency, dram bytes) on a miss.
    pub(crate) fn mtt_lookup(&self, ctx_id: u32, pages: u64) -> (Duration, Duration, u64) {
        let page = if pages <= 1 {
            0
        } else {
            self.handle.rand_below(pages)
        };
        let key = mtt_key(ctx_id, page);
        let hit = self.mtt.borrow_mut().touch(&key);
        if hit {
            self.mtt_stats.hits.incr();
            (Duration::ZERO, Duration::ZERO, 0)
        } else {
            self.mtt_stats.misses.incr();
            self.mtt.borrow_mut().insert(key);
            (
                self.cfg.mtt_miss_service,
                self.cfg.mtt_miss_latency,
                self.cfg.mtt_fetch_bytes,
            )
        }
    }
}

/// The MTT cache key of `page` of context `ctx_id`: the context in the
/// high 32 bits and the page in the low 32, so distinct pairs never
/// share a key.
fn mtt_key(ctx_id: u32, page: u64) -> u64 {
    assert!(
        page <= u64::from(u32::MAX),
        "MTT page {page} does not fit the key's 32-bit page field"
    );
    u64::from(ctx_id) << 32 | page
}

#[cfg(test)]
mod tests {
    use super::*;
    use smart_rt::Simulation;

    #[test]
    fn mtt_keys_at_the_field_bounds_are_distinct() {
        let max = u64::from(u32::MAX);
        let pairs = [
            (0, 0),
            (0, 1),
            (0, max),
            (1, 0),
            (1, max),
            (u32::MAX, 0),
            (u32::MAX, max),
        ];
        let keys: std::collections::BTreeSet<u64> = pairs
            .iter()
            .map(|&(ctx, page)| mtt_key(ctx, page))
            .collect();
        assert_eq!(keys.len(), pairs.len());
    }

    #[test]
    #[should_panic(expected = "32-bit page field")]
    fn mtt_key_rejects_a_page_past_its_field() {
        mtt_key(0, 1 << 32);
    }

    fn node() -> (Simulation, Rc<ComputeNode>) {
        let sim = Simulation::new(1);
        let n = ComputeNode::new(
            sim.handle(),
            NodeId(0),
            RnicConfig::default(),
            FabricConfig::default(),
        );
        (sim, n)
    }

    #[test]
    fn contexts_get_sequential_ids() {
        let (_sim, n) = node();
        let a = n.open_context(None);
        let b = n.open_context(None);
        assert_ne!(a.id(), b.id());
        assert_eq!(n.context_count(), 2);
    }

    #[test]
    fn wqe_lookup_always_hits_under_capacity() {
        let (_sim, n) = node();
        n.outstanding.set(512);
        for _ in 0..100 {
            assert!(n.wqe_lookup_is_hit());
        }
        assert_eq!(n.counters().wqe_misses, 0);
    }

    #[test]
    fn wqe_lookup_misses_scale_with_overshoot() {
        let (_sim, n) = node();
        n.outstanding.set(3072); // 3x the 1024-entry cache
        let mut misses = 0;
        for _ in 0..10_000 {
            if !n.wqe_lookup_is_hit() {
                misses += 1;
            }
        }
        let ratio = misses as f64 / 10_000.0;
        assert!(
            (ratio - (1.0 - 1024.0 / 3072.0)).abs() < 0.03,
            "ratio {ratio}"
        );
    }

    #[test]
    fn mtt_lookup_hits_after_warmup_with_few_pages() {
        let (_sim, n) = node();
        for _ in 0..64 {
            n.mtt_lookup(0, 16);
        }
        let c = n.counters();
        assert!(c.mtt_misses <= 16);
        assert!(c.mtt_hits >= 48);
    }

    #[test]
    fn mtt_lookup_thrashes_with_many_contexts() {
        let (_sim, n) = node();
        // 96 contexts x 64 pages = 6144 pages over a 2048-entry cache.
        for i in 0..30_000u32 {
            n.mtt_lookup(i % 96, 64);
        }
        let c = n.counters();
        let hit_ratio = c.mtt_hits as f64 / (c.mtt_hits + c.mtt_misses) as f64;
        assert!(
            hit_ratio < 0.70,
            "hit ratio {hit_ratio} should drop below 70%"
        );
    }

    #[test]
    fn counters_delta_math() {
        let a = NodeCounters {
            ops_completed: 100,
            dram_bytes: 9_300,
            ..Default::default()
        };
        let b = NodeCounters {
            ops_completed: 200,
            dram_bytes: 27_900,
            ..Default::default()
        };
        assert!((b.dram_bytes_per_op_since(&a) - 186.0).abs() < 1e-9);
        assert_eq!(a.dram_bytes_per_op_since(&a), 0.0);
    }
}
