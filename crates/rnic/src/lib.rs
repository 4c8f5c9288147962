#![warn(missing_docs)]

//! # smart-rnic — a discrete-event model of an RDMA NIC, fabric and
//! memory blades
//!
//! The SMART paper (ASPLOS 2024) analyses three scale-up bottlenecks that
//! live *inside* the RNIC and are invisible through the verbs API:
//!
//! 1. **implicit doorbell contention** — the mlx5 driver maps QPs to a
//!    small set of spinlock-protected doorbell registers round-robin, so
//!    different threads' QPs contend (§3.1, Figure 2);
//! 2. **WQE-cache thrashing** — too many outstanding work requests evict
//!    in-flight WQE state from on-chip SRAM, forcing PCIe DMA re-fetches
//!    (§3.2, Figure 4);
//! 3. **MTT/MPT cache pressure** — per-context memory registrations
//!    multiply translation entries (§2.2).
//!
//! This crate reproduces those mechanisms as a deterministic
//! discrete-event model on [`smart-rt`](smart_rt): real bytes move, CAS
//! executes atomically at the owning blade, and every contention point is
//! an explicit queueing resource with counters (IOPS, PCIe-inbound DRAM
//! traffic, cache hit rates) matching the paper's measurement methodology.
//!
//! ## Quick tour
//!
//! ```rust
//! use std::rc::Rc;
//! use smart_rnic::{Cluster, ClusterConfig, Cq, DoorbellBinding, OneSidedOp,
//!                  RemoteAddr, WorkRequest};
//! use smart_rt::Simulation;
//!
//! let mut sim = Simulation::new(7);
//! let cluster = Cluster::new(sim.handle(), ClusterConfig::new(1, 1));
//! let node = Rc::clone(cluster.compute(0));
//! let blade = Rc::clone(cluster.blade(0));
//! let off = blade.alloc(8, 8);
//! blade.write_u64(off, 41);
//!
//! let ctx = node.open_context(None);
//! ctx.register_memory(64 * 1024 * 1024);
//! let cq = Cq::new();
//! let qp = ctx.create_qp(&blade, &cq, DoorbellBinding::DriverDefault, false);
//!
//! let addr = RemoteAddr::new(blade.id(), off);
//! let old = sim.block_on(async move {
//!     qp.post_send(
//!         vec![WorkRequest {
//!             wr_id: 1,
//!             op: OneSidedOp::Faa { addr, add: 1 },
//!         }],
//!         0, // owner tag: the posting thread's id
//!     )
//!     .await;
//!     qp.cq().wait_nonempty().await;
//!     qp.cq().poll(1).remove(0).atomic_old()
//! });
//! assert_eq!(old, 41);
//! assert_eq!(blade.read_u64(off), 42);
//! ```

pub mod blade;
pub mod cluster;
pub mod config;
pub mod device;
pub mod domain;
pub mod doorbell;
pub mod engine;
pub mod inject;
pub mod lru;
pub mod node;
pub mod qp;
pub mod rpc;
pub mod types;
mod verbs;

pub use blade::MemoryBlade;
pub use cluster::Cluster;
pub use config::{BladeConfig, ClusterConfig, FabricConfig, RnicConfig};
pub use device::DeviceContext;
pub use domain::DomainPlan;
pub use doorbell::{Doorbell, DoorbellBinding, DoorbellKind};
pub use engine::{run_decomposed, BladeArtifact, Decomposed};
pub use inject::{FaultHook, InjectDecision};
pub use node::{ComputeNode, NodeCounters};
pub use qp::{Cq, Qp};
pub use rpc::{rpc_call, RpcHandler, RpcService};
pub use types::{BladeId, Cqe, CqeError, NodeId, OneSidedOp, OpResult, RemoteAddr, WorkRequest};
