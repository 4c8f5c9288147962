//! Cluster assembly: compute nodes + memory blades on one fabric.

use std::rc::Rc;

use smart_rt::SimHandle;

use crate::blade::MemoryBlade;
use crate::config::ClusterConfig;
use crate::domain::DomainPlan;
use crate::node::ComputeNode;
use crate::types::{BladeId, NodeId, RemoteAddr};

/// A disaggregated-memory cluster: compute nodes that access memory blades
/// over the simulated fabric.
///
/// ```rust
/// use smart_rnic::{Cluster, ClusterConfig};
/// use smart_rt::Simulation;
///
/// let sim = Simulation::new(0);
/// let cluster = Cluster::new(sim.handle(), ClusterConfig::new(1, 2));
/// assert_eq!(cluster.compute_nodes().len(), 1);
/// assert_eq!(cluster.blades().len(), 2);
/// ```
pub struct Cluster {
    cfg: ClusterConfig,
    compute: Vec<Rc<ComputeNode>>,
    blades: Vec<Rc<MemoryBlade>>,
    plan: Rc<DomainPlan>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("compute_nodes", &self.compute.len())
            .field("memory_blades", &self.blades.len())
            .finish()
    }
}

impl Cluster {
    /// Builds the cluster described by `cfg` on the given simulation with
    /// the sequential single-domain plan.
    pub fn new(handle: SimHandle, cfg: ClusterConfig) -> Self {
        let plan = DomainPlan::single(cfg.compute_nodes as u32, cfg.memory_blades as u32);
        Cluster::new_with_plan(handle, cfg, plan)
    }

    /// Builds the cluster with an explicit scheduling-domain plan: nodes
    /// and blades are tagged with their domains and every node accounts
    /// for work requests that cross a domain boundary
    /// ([`ComputeNode::cross_domain_wrs`]). The plan never changes
    /// simulation behaviour — `new_with_plan(h, cfg, single)` is
    /// byte-identical to `new(h, cfg)`.
    ///
    /// # Panics
    ///
    /// Panics if the plan does not cover exactly the cluster's nodes and
    /// blades.
    pub(crate) fn new_with_plan(handle: SimHandle, cfg: ClusterConfig, plan: DomainPlan) -> Self {
        let plan = Rc::new(plan);
        let compute: Vec<Rc<ComputeNode>> = (0..cfg.compute_nodes)
            .map(|i| {
                ComputeNode::new(
                    handle.clone(),
                    NodeId(i as u32),
                    cfg.rnic.clone(),
                    cfg.fabric.clone(),
                )
            })
            .collect();
        let blades: Vec<Rc<MemoryBlade>> = (0..cfg.memory_blades)
            .map(|i| MemoryBlade::new(handle.clone(), BladeId(i as u32), &cfg.blade, &cfg.fabric))
            .collect();
        for node in &compute {
            plan.node_domain(node.id()); // bounds check: plan must cover it
            node.install_domain_plan(Rc::clone(&plan));
        }
        for blade in &blades {
            blade.set_domain(plan.blade_domain(blade.id()));
        }
        Cluster {
            cfg,
            compute,
            blades,
            plan,
        }
    }

    /// The scheduling-domain plan this cluster was built with.
    pub fn plan(&self) -> &DomainPlan {
        &self.plan
    }

    /// Total work requests, across all nodes, whose target blade lives in
    /// a different scheduling domain than the posting node.
    pub fn cross_domain_wrs(&self) -> u64 {
        self.compute.iter().map(|n| n.cross_domain_wrs()).sum()
    }

    /// The configuration the cluster was built from.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// All compute nodes.
    pub fn compute_nodes(&self) -> &[Rc<ComputeNode>] {
        &self.compute
    }

    /// All memory blades.
    pub fn blades(&self) -> &[Rc<MemoryBlade>] {
        &self.blades
    }

    /// The compute node with the given index.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn compute(&self, i: usize) -> &Rc<ComputeNode> {
        &self.compute[i]
    }

    /// The memory blade with the given index.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn blade(&self, i: usize) -> &Rc<MemoryBlade> {
        &self.blades[i]
    }

    /// The blade owning `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the address names an unknown blade.
    pub fn blade_of(&self, addr: RemoteAddr) -> &Rc<MemoryBlade> {
        &self.blades[addr.blade.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smart_rt::Simulation;

    #[test]
    fn builds_requested_shape() {
        let sim = Simulation::new(0);
        let c = Cluster::new(sim.handle(), ClusterConfig::new(3, 2));
        assert_eq!(c.compute_nodes().len(), 3);
        assert_eq!(c.blades().len(), 2);
        assert_eq!(c.compute(2).id(), NodeId(2));
        assert_eq!(c.blade(1).id(), BladeId(1));
    }

    #[test]
    fn plan_tags_blades_and_counts_crossing_wrs() {
        use crate::doorbell::DoorbellBinding;
        use crate::qp::Cq;
        use crate::types::{OneSidedOp, WorkRequest};

        let mut sim = Simulation::new(5);
        let c = Cluster::new_with_plan(
            sim.handle(),
            ClusterConfig::new(1, 2),
            DomainPlan::per_blade(1, 2),
        );
        assert_eq!(c.blade(0).domain(), smart_rt::pdes::DomainId(1));
        assert_eq!(c.blade(1).domain(), smart_rt::pdes::DomainId(2));
        assert_eq!(c.cross_domain_wrs(), 0);

        let node = Rc::clone(c.compute(0));
        let blade = Rc::clone(c.blade(0));
        let off = blade.alloc(8, 8);
        let ctx = node.open_context(None);
        ctx.register_memory(1 << 20);
        let cq = Cq::new();
        let qp = ctx.create_qp(&blade, &cq, DoorbellBinding::DriverDefault, false);
        sim.block_on(async move {
            qp.post_send(
                vec![WorkRequest {
                    wr_id: 1,
                    op: OneSidedOp::Faa {
                        addr: RemoteAddr::new(blade.id(), off),
                        add: 1,
                    },
                }],
                0,
            )
            .await;
            qp.cq().wait_nonempty().await;
        });
        assert_eq!(c.cross_domain_wrs(), 1);

        // The crossing counter is diagnostics-only: NodeCounters feeds
        // golden-byte comparisons, so it must never surface there.
        let counters = format!("{:?}", node.counters());
        assert!(
            !counters.contains("cross_domain"),
            "cross_domain_wrs leaked into golden-visible NodeCounters: {counters}"
        );

        // The default single-domain plan never counts anything.
        let sim2 = Simulation::new(5);
        let c2 = Cluster::new(sim2.handle(), ClusterConfig::new(1, 2));
        assert_eq!(c2.plan().domains(), 1);
        assert_eq!(c2.blade(1).domain(), smart_rt::pdes::DomainId(0));
    }

    #[test]
    fn blade_of_resolves_addresses() {
        let sim = Simulation::new(0);
        let c = Cluster::new(sim.handle(), ClusterConfig::new(1, 2));
        let addr = RemoteAddr::new(BladeId(1), 128);
        assert_eq!(c.blade_of(addr).id(), BladeId(1));
    }
}
