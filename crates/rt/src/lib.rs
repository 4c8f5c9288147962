#![warn(missing_docs)]

//! # smart-rt — deterministic discrete-event async runtime
//!
//! The SMART paper's experiments run up to 576 client threads against real
//! RDMA NICs. This reproduction replaces the hardware with a simulated RNIC
//! (`smart-rnic`), and this crate provides the substrate that makes such a
//! simulation possible on a single host:
//!
//! * a **virtual clock** ([`SimTime`]) measured in nanoseconds,
//! * a **single-threaded async executor** ([`Simulation`]) whose tasks play
//!   the role of the paper's threads and coroutines,
//! * **timers** ([`SimHandle::sleep`], [`SimHandle::sleep_until`]),
//! * **queueing primitives** that model hardware contention points:
//!   [`sync::FifoResource`] (a FIFO server with a service time, used for the
//!   RNIC processing pipeline and PCIe/network bandwidth) and
//!   [`sync::ContendedLock`] (a spinlock whose handoff cost grows with the
//!   number of waiters, used for doorbell-register and queue-pair locks),
//! * classic async coordination: [`sync::Notify`] and [`sync::Semaphore`]
//!   (the SMART credit/`c_max` mechanisms are built on the semaphore), and
//!   [`sync::Claims`], a keyed rendezvous that wakes only the claims a
//!   delivery completed (the completion hub's demultiplexer),
//! * a fast, seedable **PRNG** ([`rng::SimRng`]) so every run is
//!   reproducible from one seed.
//!
//! Everything is deterministic: tasks are woken in FIFO order, timers break
//! ties by registration order, and no real time enters the model. The
//! [`pdes`] module scales this out: it partitions a simulation into
//! scheduling domains hosted on OS threads, synchronized conservatively on
//! the fixed fabric latency, with results byte-identical to sequential.
//!
//! ## Example
//!
//! ```rust
//! use smart_rt::{Simulation, Duration};
//!
//! let mut sim = Simulation::new(42);
//! let handle = sim.handle();
//! let out = sim.block_on(async move {
//!     handle.sleep(Duration::from_micros(3)).await;
//!     handle.now().as_nanos()
//! });
//! assert_eq!(out, 3_000);
//! ```

pub mod detmap;
mod executor;
mod join;
pub mod metrics;
pub mod pdes;
pub mod rng;
pub mod sync;
mod time;
mod timeout;
mod wheel;

pub use executor::{SchedulePolicy, SimHandle, Simulation};
pub use join::JoinHandle;
pub use time::SimTime;
pub use timeout::{with_timeout, TimedOut};

/// Re-export of the tracing subsystem so runtime users can install a
/// [`trace::TraceSink`] (see [`SimHandle::install_tracer`]) without naming
/// `smart-trace` in their own dependency list.
pub use smart_trace as trace;

/// Re-export of [`std::time::Duration`]; all simulated durations use it.
pub use std::time::Duration;

/// Yields control back to the executor once, letting other ready tasks run
/// at the same virtual instant.
///
/// ```rust
/// # use smart_rt::Simulation;
/// # let mut sim = Simulation::new(1);
/// # sim.block_on(async {
/// smart_rt::yield_now().await;
/// # });
/// ```
pub async fn yield_now() {
    struct YieldNow {
        yielded: bool,
    }
    impl std::future::Future for YieldNow {
        type Output = ();
        fn poll(
            mut self: std::pin::Pin<&mut Self>,
            cx: &mut std::task::Context<'_>,
        ) -> std::task::Poll<()> {
            if self.yielded {
                std::task::Poll::Ready(())
            } else {
                self.yielded = true;
                executor::Wakeup::of(cx).wake();
                std::task::Poll::Pending
            }
        }
    }
    YieldNow { yielded: false }.await
}
