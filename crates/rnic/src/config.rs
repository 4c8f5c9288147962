//! Model parameters for the simulated RNIC, fabric and memory blades.
//!
//! Defaults are calibrated against the envelope the SMART paper reports for
//! its testbed (dual Xeon 6240R, 200 Gbps ConnectX-6, PCIe 3.0):
//!
//! * hardware IOPS ceiling 110 MOP/s (§6.1, Figure 13);
//! * 4 low-latency + 12 medium-latency doorbells per context (Figure 2);
//! * WQE-cache sweet spot around 768 outstanding work requests, ≈ −5 % at
//!   1152 and ≈ −50 % at 3072 (§3.2, Figure 4a);
//! * ≈ 93 B of DRAM (PCIe inbound) traffic per work request without
//!   thrashing, ≈ 180 B when thrashing (Figure 4b);
//! * one RDMA roundtrip ≈ `t0 = 4096` cycles ≈ 1.7 µs at 2.4 GHz (§4.3);
//! * PCIe 3.0 ×16 ≈ 128 Gbps compute-side bandwidth cap (§6.2.2).

use std::time::Duration;

/// Parameters of a single simulated RNIC.
#[derive(Clone, Debug)]
pub struct RnicConfig {
    /// Requester-side pipeline service time per work request.
    /// 9 ns ⇒ ≈ 110 MOP/s ceiling.
    pub base_service: Duration,
    /// Responder-side pipeline service time per inbound request.
    pub responder_service: Duration,
    /// Extra serialization at the responder's atomic execution unit for
    /// CAS/FAA (atomics are slower than READ/WRITE on real RNICs).
    pub atomic_service: Duration,

    /// On-chip WQE cache capacity, in outstanding work requests.
    pub wqe_cache_entries: u64,
    /// Extra pipeline occupancy per WQE-cache miss (the *throughput* cost
    /// of the PCIe DMA re-fetch).
    pub wqe_miss_service: Duration,
    /// Extra completion latency per WQE-cache miss (the DMA read itself).
    pub wqe_miss_latency: Duration,
    /// Bytes re-fetched from host DRAM on a WQE-cache miss.
    pub wqe_refetch_bytes: u64,

    /// Bytes fetched from host DRAM per posted WQE (initial fetch).
    pub wqe_fetch_bytes: u64,
    /// Bytes written to host DRAM per completion entry.
    pub cqe_bytes: u64,

    /// MTT/MPT cache capacity (page-granularity translation entries).
    pub mtt_cache_entries: usize,
    /// Extra pipeline occupancy per MTT/MPT miss.
    pub mtt_miss_service: Duration,
    /// Extra latency per MTT/MPT miss.
    pub mtt_miss_latency: Duration,
    /// Bytes fetched from host DRAM per MTT/MPT miss.
    pub mtt_fetch_bytes: u64,
    /// Translation page size (2 MB huge pages, as in the paper's setup).
    pub page_size: u64,

    /// Low-latency doorbells per device context (1 QP each).
    pub uar_low_latency: u32,
    /// Medium-latency doorbells per device context (shared round-robin).
    /// The driver default is 12; SMART raises it via the
    /// `MLX5_TOTAL_UUARS`-style override in [`RnicConfig::with_uars`]
    /// (hardware max 512 on ConnectX-6).
    pub uar_medium: u32,
    /// Hardware limit on doorbells per device context.
    pub uar_hw_max: u32,

    /// MMIO write cost of ringing a doorbell (lock hold component).
    pub db_mmio: Duration,
    /// Per-WQE cost of writing the send-queue entry under the doorbell
    /// lock.
    pub db_wqe_write: Duration,
    /// Spinlock handoff penalty per waiter on a shared doorbell
    /// (cache-line bouncing between spinning cores).
    pub db_handoff: Duration,
    /// Waiter count at which the handoff penalty saturates (a spinlock's
    /// cache-line bouncing cost stops growing once the line ping-pongs
    /// continuously).
    pub db_penalty_cap: u32,

    /// Per-waiter handoff penalty on a queue pair shared between threads
    /// (connection multiplexing / shared-QP policies).
    pub qp_lock_handoff: Duration,
    /// Extra per-post serialization on thread-shared QPs (QP state cache
    /// line transfer + shared-CQ handling) — why QP multiplexing is
    /// suboptimal even without doorbell sharing (§1, FaRM/FaSST findings).
    pub qp_shared_extra: Duration,

    /// Compute-side PCIe bandwidth (payload delivery), bytes/second.
    /// 16 GB/s ≈ PCIe 3.0 ×16 ≈ 128 Gbps.
    pub pcie_bytes_per_sec: u64,
    /// Payloads below this size ride inside header processing and skip the
    /// bandwidth queues (their serialization delay is negligible); traffic
    /// counters still account for them.
    pub small_payload_cutoff: u64,

    /// Time before a lost/unanswered request surfaces as a timeout error
    /// completion (the RC transport's retransmit-exhausted window,
    /// compressed to keep simulations fast).
    pub fault_timeout: Duration,
    /// Delay before an RNR-NAK-style transient rejection surfaces as an
    /// error completion (the receiver-not-ready retry timer).
    pub rnr_delay: Duration,
}

impl Default for RnicConfig {
    fn default() -> Self {
        RnicConfig {
            base_service: Duration::from_nanos(9),
            responder_service: Duration::from_nanos(8),
            atomic_service: Duration::from_nanos(16),

            wqe_cache_entries: 1024,
            wqe_miss_service: Duration::from_nanos(13),
            wqe_miss_latency: Duration::from_nanos(600),
            wqe_refetch_bytes: 96,

            wqe_fetch_bytes: 64,
            cqe_bytes: 21,

            mtt_cache_entries: 2048,
            mtt_miss_service: Duration::from_nanos(10),
            mtt_miss_latency: Duration::from_nanos(500),
            mtt_fetch_bytes: 64,
            page_size: 2 * 1024 * 1024,

            uar_low_latency: 4,
            uar_medium: 12,
            uar_hw_max: 512,

            db_mmio: Duration::from_nanos(300),
            db_wqe_write: Duration::from_nanos(40),
            db_handoff: Duration::from_nanos(900),
            db_penalty_cap: 8,

            qp_lock_handoff: Duration::from_nanos(150),
            qp_shared_extra: Duration::from_nanos(800),

            pcie_bytes_per_sec: 16_000_000_000,
            small_payload_cutoff: 128,

            fault_timeout: Duration::from_micros(12),
            rnr_delay: Duration::from_micros(3),
        }
    }
}

impl RnicConfig {
    /// Overrides the number of medium-latency doorbells, mimicking the
    /// `MLX5_TOTAL_UUARS` environment variable plus the driver patch the
    /// paper describes (§4.1).
    ///
    /// # Panics
    ///
    /// Panics if `medium + self.uar_low_latency` exceeds the hardware
    /// maximum.
    pub fn with_uars(mut self, medium: u32) -> Self {
        assert!(
            medium + self.uar_low_latency <= self.uar_hw_max,
            "requested {} doorbells exceeds hardware max {}",
            medium + self.uar_low_latency,
            self.uar_hw_max
        );
        self.uar_medium = medium;
        self
    }

    /// The theoretical IOPS ceiling implied by [`Self::base_service`].
    pub fn max_iops(&self) -> f64 {
        1e9 / self.base_service.as_nanos() as f64
    }
}

/// Parameters of the network fabric between blades.
#[derive(Clone, Debug)]
pub struct FabricConfig {
    /// One-way propagation + switching latency.
    pub one_way_latency: Duration,
    /// Per-blade link bandwidth, bytes/second (200 Gbps ≈ 25 GB/s).
    pub link_bytes_per_sec: u64,
    /// Per-message header bytes on the wire.
    pub header_bytes: u64,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            one_way_latency: Duration::from_nanos(1_150),
            link_bytes_per_sec: 25_000_000_000,
            header_bytes: 30,
        }
    }
}

/// Parameters of a memory blade.
#[derive(Clone, Debug)]
pub struct BladeConfig {
    /// Size of the blade's registered memory region in bytes.
    pub region_bytes: u64,
    /// Extra write latency when a work request targets persistent memory
    /// (FORD stores database records in NVM).
    pub nvm_write_latency: Duration,
}

impl Default for BladeConfig {
    fn default() -> Self {
        BladeConfig {
            region_bytes: 256 * 1024 * 1024,
            nvm_write_latency: Duration::from_nanos(300),
        }
    }
}

/// Full cluster shape: compute nodes and memory blades.
#[derive(Clone, Debug, Default)]
pub struct ClusterConfig {
    /// Per-RNIC model parameters (same for every node).
    pub rnic: RnicConfig,
    /// Fabric parameters.
    pub fabric: FabricConfig,
    /// Per-blade parameters (same for every blade).
    pub blade: BladeConfig,
    /// Number of compute nodes.
    pub compute_nodes: usize,
    /// Number of memory blades.
    pub memory_blades: usize,
}

impl ClusterConfig {
    /// A small default cluster: `compute` compute nodes, `blades` memory
    /// blades, paper-calibrated RNIC parameters.
    pub fn new(compute: usize, blades: usize) -> Self {
        ClusterConfig {
            compute_nodes: compute,
            memory_blades: blades,
            ..Default::default()
        }
    }

    /// [`Self::new`] with every blade's region `region_bytes` long: the
    /// shape every workload driver sizes for its preload.
    pub fn with_region(compute: usize, blades: usize, region_bytes: u64) -> Self {
        let mut cfg = ClusterConfig::new(compute, blades);
        cfg.blade.region_bytes = region_bytes;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ceiling_is_paper_hardware_limit() {
        let cfg = RnicConfig::default();
        let mops = cfg.max_iops() / 1e6;
        assert!((mops - 111.1).abs() < 1.0, "got {mops} MOPS");
    }

    #[test]
    fn with_uars_raises_medium_count() {
        let cfg = RnicConfig::default().with_uars(128);
        assert_eq!(cfg.uar_medium, 128);
    }

    #[test]
    #[should_panic(expected = "exceeds hardware max")]
    fn with_uars_rejects_over_hw_max() {
        let _ = RnicConfig::default().with_uars(600);
    }

    #[test]
    fn cluster_config_shape() {
        let c = ClusterConfig::new(2, 3);
        assert_eq!(c.compute_nodes, 2);
        assert_eq!(c.memory_blades, 3);
    }
}
