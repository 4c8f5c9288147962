//! Scheduling-domain partitions for parallel deterministic simulation.
//!
//! The PDES engine in [`smart_rt::pdes`] runs scheduling domains on
//! separate OS threads, synchronized conservatively on a fixed lookahead.
//! This module maps that machinery onto SMART's cluster shape:
//!
//! * a [`DomainPlan`] assigns every compute node and memory blade to a
//!   scheduling domain — the degenerate [`DomainPlan::single`] plan is the
//!   classic sequential simulation, [`DomainPlan::per_blade`] puts each
//!   blade in its own domain, and [`DomainPlan::for_workers`] round-robins
//!   blades over the available worker threads;
//! * the **lookahead** is the fabric's fixed one-way latency: a work
//!   request posted at time *t* cannot affect the responding blade before
//!   *t + latency*, so every blade channel is declared at that latency,
//!   which is precisely the conservative-synchronization window the
//!   coordinator exploits.
//!
//! The plan is read in one place, [`crate::engine::run_decomposed`],
//! which declares the channels that carry verbs between domains and
//! turns the plan into a running engine topology. The cluster model —
//! [`crate::Cluster`], [`crate::ComputeNode`], [`crate::Qp`],
//! [`crate::MemoryBlade`] — never sees it.
//!
//! smart-flow's `cross-domain-shared-state` and `rc-escape` rules prove
//! statically that simulated thread domains and the fabric interact only
//! through NIC verbs. The engine's shadow check is the dynamic mirror of
//! that proof: once the engine is quiescent, domain 0 asserts that every
//! blade it reaches through a remote port served nothing on its own
//! shadow copy, so every work request to that blade crossed the
//! partition as a request envelope.

use smart_rt::pdes::DomainId;

use crate::types::{BladeId, NodeId};

/// Assignment of compute nodes and memory blades to scheduling domains.
///
/// Domain 0 always hosts the compute nodes (and, with them, the fabric
/// requester side); blades may share it or live in their own domains.
/// The plan is pure data: it says only which domain hosts each node and
/// blade.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DomainPlan {
    domains: u32,
    node_domain: Vec<u32>,
    blade_domain: Vec<u32>,
}

impl DomainPlan {
    /// Everything in one domain: the sequential simulation.
    pub fn single(nodes: u32, blades: u32) -> DomainPlan {
        DomainPlan::custom(vec![0; nodes as usize], vec![0; blades as usize])
    }

    /// Nodes and fabric in domain 0; blade `i` in domain `1 + i`.
    pub fn per_blade(nodes: u32, blades: u32) -> DomainPlan {
        DomainPlan::custom(vec![0; nodes as usize], (1..=blades).collect())
    }

    /// Nodes and fabric in domain 0; blades round-robined over
    /// `min(workers, blades)` further domains. `workers <= 1` (or zero
    /// blades) degenerates to [`DomainPlan::single`].
    pub fn for_workers(workers: usize, nodes: u32, blades: u32) -> DomainPlan {
        if workers <= 1 || blades == 0 {
            return DomainPlan::single(nodes, blades);
        }
        let groups = (workers as u32).min(blades);
        let blade_domain = (0..blades).map(|i| 1 + (i % groups)).collect();
        DomainPlan::custom(vec![0; nodes as usize], blade_domain)
    }

    /// An arbitrary partition: element `i` of each vector is the raw
    /// domain id of node/blade `i`. The domain count is
    /// `1 + max(assignments)` so domain 0 (the coordinator-side domain)
    /// always exists.
    pub fn custom(node_domain: Vec<u32>, blade_domain: Vec<u32>) -> DomainPlan {
        let max = node_domain
            .iter()
            .chain(blade_domain.iter())
            .copied()
            .max()
            .unwrap_or(0);
        DomainPlan {
            domains: max + 1,
            node_domain,
            blade_domain,
        }
    }

    /// Number of scheduling domains in the plan.
    pub fn domains(&self) -> u32 {
        self.domains
    }

    /// The scheduling domain hosting a compute node.
    ///
    /// # Panics
    ///
    /// Panics if the node is not covered by the plan.
    pub fn node_domain(&self, node: NodeId) -> DomainId {
        DomainId(self.node_domain[node.0 as usize])
    }

    /// The scheduling domain hosting a memory blade.
    ///
    /// # Panics
    ///
    /// Panics if the blade is not covered by the plan.
    pub fn blade_domain(&self, blade: BladeId) -> DomainId {
        DomainId(self.blade_domain[blade.0 as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_plan_is_sequential() {
        let p = DomainPlan::single(3, 2);
        assert_eq!(p.domains(), 1);
        assert_eq!(p.node_domain(NodeId(2)), DomainId(0));
        assert_eq!(p.blade_domain(BladeId(1)), DomainId(0));
    }

    #[test]
    fn per_blade_isolates_each_blade() {
        let p = DomainPlan::per_blade(2, 3);
        assert_eq!(p.domains(), 4);
        assert_eq!(p.node_domain(NodeId(1)), DomainId(0));
        assert_eq!(p.blade_domain(BladeId(0)), DomainId(1));
        assert_eq!(p.blade_domain(BladeId(2)), DomainId(3));
    }

    #[test]
    fn for_workers_round_robins_and_degenerates() {
        assert_eq!(DomainPlan::for_workers(1, 4, 8).domains(), 1);
        assert_eq!(DomainPlan::for_workers(4, 4, 0).domains(), 1);
        let p = DomainPlan::for_workers(2, 1, 5);
        assert_eq!(p.domains(), 3);
        assert_eq!(p.blade_domain(BladeId(0)), DomainId(1));
        assert_eq!(p.blade_domain(BladeId(1)), DomainId(2));
        assert_eq!(p.blade_domain(BladeId(2)), DomainId(1));
        // More workers than blades: one domain per blade, no empties.
        let q = DomainPlan::for_workers(16, 1, 3);
        assert_eq!(q.domains(), 4);
    }

    #[test]
    fn custom_plan_counts_domains_from_max() {
        let p = DomainPlan::custom(vec![0, 2], vec![1, 1, 0]);
        assert_eq!(p.domains(), 3);
        assert_eq!(p.node_domain(NodeId(1)), DomainId(2));
        assert_eq!(p.blade_domain(BladeId(0)), DomainId(1));
        assert_eq!(p.blade_domain(BladeId(2)), DomainId(0));
    }
}
