//! Device contexts: doorbell tables + memory-registration namespaces.

use std::cell::Cell;
use std::rc::Rc;

use crate::blade::MemoryBlade;
use crate::config::RnicConfig;
use crate::doorbell::{Doorbell, DoorbellBinding, DoorbellTable};
use crate::node::ComputeNode;
use crate::qp::{Cq, Qp};

/// An RDMA device context (`ibv_context` + protection domain).
///
/// Holds this context's doorbell table and the set of memory regions
/// registered through it. MTT/MPT entries are keyed by `(context, page)`,
/// so opening many contexts multiplies translation entries and degrades
/// the MTT/MPT hit rate (§2.2) — the reason SMART shares one context.
pub struct DeviceContext {
    node: Rc<ComputeNode>,
    id: u32,
    doorbells: DoorbellTable,
    registered_pages: Cell<u64>,
    next_qp: Cell<u32>,
}

impl std::fmt::Debug for DeviceContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceContext")
            .field("id", &self.id)
            .field("doorbells", &self.doorbells.len())
            .field("registered_pages", &self.registered_pages.get())
            .finish()
    }
}

impl DeviceContext {
    pub(crate) fn new(node: Rc<ComputeNode>, id: u32, cfg: &RnicConfig) -> Rc<Self> {
        let doorbells = DoorbellTable::new(&node.handle, cfg);
        Rc::new(DeviceContext {
            node,
            id,
            doorbells,
            registered_pages: Cell::new(0),
            next_qp: Cell::new(0),
        })
    }

    /// This context's id within its node.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The owning compute node.
    pub fn node(&self) -> &Rc<ComputeNode> {
        &self.node
    }

    /// The context's doorbell table.
    pub fn doorbells(&self) -> &DoorbellTable {
        &self.doorbells
    }

    /// Registers `bytes` of local memory as an MR in this context, adding
    /// translation entries (one per huge page) to the MTT/MPT universe.
    pub fn register_memory(&self, bytes: u64) {
        let pages = bytes.div_ceil(self.node.cfg.page_size).max(1);
        self.registered_pages
            .set(self.registered_pages.get() + pages);
    }

    /// Number of translation pages registered through this context.
    pub fn registered_pages(&self) -> u64 {
        self.registered_pages.get()
    }

    /// Creates a reliable-connected QP to `target`, delivering completions
    /// to `cq`, with the given doorbell binding.
    ///
    /// `shared` marks QPs that multiple threads post to (shared-QP /
    /// multiplexed policies); their post path pays an extra serialization
    /// cost for the QP state cache line and shared CQ handling.
    pub fn create_qp(
        self: &Rc<Self>,
        target: &Rc<MemoryBlade>,
        cq: &Rc<Cq>,
        binding: DoorbellBinding,
        shared: bool,
    ) -> Rc<Qp> {
        let index = self.next_qp.get();
        self.next_qp.set(index + 1);
        let doorbell = self.doorbells.assign(binding);
        let qp = Qp::new(
            Rc::clone(self),
            index,
            Rc::clone(target),
            Rc::clone(cq),
            doorbell,
            shared,
        );
        if let Some(hook) = self.node.fault_hook() {
            hook.on_qp_created(&qp);
        }
        qp
    }

    /// Number of QPs created in this context.
    pub fn qp_count(&self) -> u32 {
        self.next_qp.get()
    }

    /// Convenience: the doorbell a thread-aware allocator should use for
    /// thread `thread_idx` (one medium-latency doorbell per thread, §4.1).
    ///
    /// # Panics
    ///
    /// Panics if the context does not have enough medium-latency
    /// doorbells; raise them with
    /// [`ComputeNode::open_context`](crate::ComputeNode::open_context).
    pub fn thread_doorbell(&self, thread_idx: usize) -> Rc<Doorbell> {
        let idx = self.doorbells.first_medium() + thread_idx;
        assert!(
            idx < self.doorbells.len(),
            "context has {} doorbells; thread {} needs index {} — raise \
             medium doorbells (MLX5_TOTAL_UUARS)",
            self.doorbells.len(),
            thread_idx,
            idx
        );
        self.doorbells.get(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BladeConfig, ClusterConfig, FabricConfig};
    use crate::types::{BladeId, NodeId};
    use smart_rt::Simulation;

    fn setup() -> (Simulation, Rc<ComputeNode>, Rc<MemoryBlade>) {
        let sim = Simulation::new(0);
        let cfg = ClusterConfig::default();
        let node = ComputeNode::new(
            sim.handle(),
            NodeId(0),
            cfg.rnic.clone(),
            cfg.fabric.clone(),
        );
        let blade = MemoryBlade::new(
            sim.handle(),
            BladeId(0),
            &BladeConfig {
                region_bytes: 1 << 20,
                ..Default::default()
            },
            &FabricConfig::default(),
        );
        (sim, node, blade)
    }

    #[test]
    fn register_memory_counts_huge_pages() {
        let (_sim, node, _b) = setup();
        let ctx = node.open_context(None);
        ctx.register_memory(5 * 1024 * 1024); // 3 x 2MB pages
        assert_eq!(ctx.registered_pages(), 3);
        ctx.register_memory(1); // rounds up to 1 page
        assert_eq!(ctx.registered_pages(), 4);
    }

    #[test]
    fn create_qp_binds_doorbells_round_robin() {
        let (_sim, node, blade) = setup();
        let ctx = node.open_context(None);
        let cq = Cq::new();
        let mut indices = Vec::new();
        for _ in 0..20 {
            let qp = ctx.create_qp(&blade, &cq, DoorbellBinding::DriverDefault, false);
            indices.push(qp.doorbell().index());
        }
        assert_eq!(&indices[..4], &[0, 1, 2, 3]);
        assert_eq!(&indices[4..16], &(4..16).collect::<Vec<_>>()[..]);
        assert_eq!(&indices[16..20], &[4, 5, 6, 7]);
        assert_eq!(ctx.qp_count(), 20);
    }

    #[test]
    fn thread_doorbell_is_per_thread_and_medium() {
        let (_sim, node, _b) = setup();
        let ctx = node.open_context(Some(96));
        let a = ctx.thread_doorbell(0);
        let b = ctx.thread_doorbell(95);
        assert_ne!(a.index(), b.index());
        assert_eq!(a.index(), 4);
        assert_eq!(b.index(), 99);
    }

    #[test]
    #[should_panic(expected = "raise medium doorbells")]
    fn thread_doorbell_requires_enough_uars() {
        let (_sim, node, _b) = setup();
        let ctx = node.open_context(None); // only 12 medium
        let _ = ctx.thread_doorbell(50);
    }
}
