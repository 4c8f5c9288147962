//! Cluster assembly: compute nodes + memory blades on one fabric.

use std::rc::Rc;

use smart_rt::SimHandle;

use crate::blade::MemoryBlade;
use crate::config::ClusterConfig;
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
    handle: SimHandle,
    cfg: ClusterConfig,
    compute: Vec<Rc<ComputeNode>>,
    blades: Vec<Rc<MemoryBlade>>,
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
    /// Builds the cluster described by `cfg` on the given simulation.
    pub fn new(handle: SimHandle, cfg: ClusterConfig) -> Self {
        let compute = (0..cfg.compute_nodes)
            .map(|i| {
                ComputeNode::new(
                    handle.clone(),
                    NodeId(i as u32),
                    cfg.rnic.clone(),
                    cfg.fabric.clone(),
                )
            })
            .collect();
        let blades = (0..cfg.memory_blades)
            .map(|i| MemoryBlade::new(handle.clone(), BladeId(i as u32), &cfg.blade, &cfg.fabric))
            .collect();
        Cluster {
            handle,
            cfg,
            compute,
            blades,
        }
    }

    /// The simulation this cluster runs on.
    pub fn handle(&self) -> &SimHandle {
        &self.handle
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
    fn blade_of_resolves_addresses() {
        let sim = Simulation::new(0);
        let c = Cluster::new(sim.handle(), ClusterConfig::new(1, 2));
        let addr = RemoteAddr::new(BladeId(1), 128);
        assert_eq!(c.blade_of(addr).id(), BladeId(1));
    }
}
