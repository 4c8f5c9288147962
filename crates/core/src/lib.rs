#![warn(missing_docs)]

//! # smart — the SMART RDMA programming framework (ASPLOS 2024)
//!
//! A Rust reproduction of *Scaling Up Memory Disaggregated Applications
//! with SMART* (Ren et al., ASPLOS 2024), running over the simulated RNIC
//! in [`smart-rnic`](smart_rnic). SMART removes three scale-up
//! bottlenecks of IOPS-bound disaggregated applications:
//!
//! 1. **Thread-aware resource allocation** (§4.1) — one QP pool, CQ and
//!    *dedicated doorbell register* per thread, over one shared device
//!    context ([`QpPolicy::ThreadAwareDoorbell`]).
//! 2. **Adaptive work-request throttling** (§4.2, Algorithm 1) — a
//!    credit cap `C_max` per thread, re-tuned every epoch, keeps the
//!    RNIC's WQE cache from thrashing ([`throttle`]).
//! 3. **Conflict avoidance** (§4.3) — truncated exponential backoff with
//!    a dynamic limit plus concurrency-depth throttling cuts the IOPS
//!    wasted on failed CAS retries ([`conflict`],
//!    [`SmartCoro::backoff_cas_sync`]).
//!
//! The interface mirrors one-sided RDMA verbs (§5.1): coroutines buffer
//! `read`/`write`/`cas`/`faa` requests, `post_send` ships them and `sync`
//! awaits completions — which is why refactoring RACE, FORD and Sherman
//! onto SMART takes under 50 lines each.
//!
//! ## Example
//!
//! ```rust
//! use std::rc::Rc;
//! use smart::{SmartConfig, SmartContext};
//! use smart_rnic::{Cluster, ClusterConfig, RemoteAddr};
//! use smart_rt::Simulation;
//!
//! let mut sim = Simulation::new(1);
//! let cluster = Cluster::new(sim.handle(), ClusterConfig::new(1, 1));
//! let blade = Rc::clone(cluster.blade(0));
//! let off = blade.alloc(8, 8);
//!
//! let ctx = SmartContext::new(cluster.compute(0), cluster.blades(), SmartConfig::smart_full(1));
//! let thread = ctx.create_thread();
//! let addr = RemoteAddr::new(blade.id(), off);
//!
//! let coro = thread.coroutine();
//! let old = sim.block_on(async move {
//!     coro.write_sync(addr, 7u64.to_le_bytes().to_vec()).await;
//!     coro.backoff_cas_sync(addr, 7, 9).await
//! });
//! assert_eq!(old, 7);
//! assert_eq!(blade.read_u64(off), 9);
//! ```

pub mod config;
pub mod conflict;
pub mod context;
pub mod coro;
pub mod hub;
pub mod pool;
pub mod report;
pub mod route;
pub mod stats;
pub mod thread;
pub mod throttle;

pub use config::{QpPolicy, RetryPolicy, SmartConfig};
pub use conflict::ConflictControl;
pub use context::SmartContext;
pub use coro::{FaultError, OpGuard, SmartCoro};
pub use hub::CompletionHub;
pub use pool::QpPool;
pub use report::{ContentionReport, DoorbellReport};
pub use route::ShardRouter;
pub use stats::ThreadStats;
pub use thread::SmartThread;
pub use throttle::WrThrottle;
