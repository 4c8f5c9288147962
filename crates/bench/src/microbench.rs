//! The micro-benchmark scenario (§3.1's "bench tool", the artifact's
//! `test_rdma`): measures raw READ/WRITE/CAS throughput for any thread
//! count, concurrency depth and allocation policy.
//!
//! Each thread runs one coroutine that repeatedly posts `depth` work
//! requests at uniformly random 8-byte-aligned offsets in the remote
//! region, rings the doorbell, and waits for all acknowledgements —
//! exactly the paper's loop. Throughput and the PCIe-inbound DRAM traffic
//! per WR (Figure 4b) are measured over a virtual-time window after a
//! warm-up.
//!
//! It is [`Spec::Micro`](crate::Spec::Micro) of the one driver,
//! [`crate::run`], run with the spec's schedule policy. A
//! phase-controller coroutine reads the node counters at the window
//! edges — each read waits until its instant has settled
//! ([`smart_rt::SimHandle::settle_until`]), so it sees what stepping the
//! simulation to that edge would — then stops the workers and the
//! dynamic-load toggler and quiesces the framework controllers; the
//! engine runs to quiescence. Every blade domain replays the region
//! reservation, so the microbench also runs under any
//! [`DomainPlan`](smart_rnic::DomainPlan).
//!
//! ```rust
//! use smart::{QpPolicy, SmartConfig};
//! use smart_bench::{run, MicrobenchSpec, Spec};
//! use smart_rt::Duration;
//!
//! let mut micro = MicrobenchSpec::new(
//!     SmartConfig::baseline(QpPolicy::ThreadAwareDoorbell, 4),
//!     4, // threads
//!     8, // outstanding work requests per thread
//! );
//! micro.warmup = Duration::from_micros(200);
//! micro.measure = Duration::from_micros(500);
//! let spec = Spec::Micro(micro);
//! let report = run(&spec, &spec.single_plan(), 1).report;
//! assert!(report.mops > 1.0);
//! ```

use std::cell::Cell;
use std::rc::Rc;
use std::time::Duration;

use smart::{SmartConfig, SmartContext};
use smart_rnic::{BladeId, Cluster, MemoryBlade, RemoteAddr, RnicConfig};
use smart_rt::{SchedulePolicy, SimHandle, SimTime};

use crate::runners::RunReport;

/// Operation mix issued by the micro-benchmark.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MicroOp {
    /// RDMA READ of the given payload size.
    Read(u32),
    /// RDMA WRITE of the given payload size.
    Write(u32),
    /// RDMA CAS on random addresses (rarely conflicting).
    Cas,
}

/// Varies the number of active threads over time (Table 1's dynamically
/// changing workload).
#[derive(Clone, Copy, Debug)]
pub struct DynamicLoad {
    /// How often the active thread count changes.
    pub interval: Duration,
    /// Active threads in the low phase.
    pub low_threads: usize,
    /// Active threads in the high phase.
    pub high_threads: usize,
}

/// A micro-benchmark configuration.
#[derive(Clone, Debug)]
pub struct MicrobenchSpec {
    /// Framework configuration (policy + SMART feature toggles).
    pub smart: SmartConfig,
    /// Number of benchmark threads.
    pub threads: usize,
    /// Work requests posted per batch (the concurrency depth `k`).
    pub depth: usize,
    /// Operation type and payload.
    pub op: MicroOp,
    /// Number of memory blades.
    pub blades: usize,
    /// Remote region size per blade (addresses are uniform within it).
    pub region_bytes: u64,
    /// Virtual-time warm-up before measuring.
    pub warmup: Duration,
    /// Virtual-time measurement window.
    pub measure: Duration,
    /// PRNG seed.
    pub seed: u64,
    /// Optional dynamically changing load (Table 1).
    pub dynamic: Option<DynamicLoad>,
    /// RNIC model parameters (ablations override cache sizes, doorbell
    /// counts, penalties, ...).
    pub rnic: RnicConfig,
    /// Optional trace sink installed into the simulation: every batch is
    /// recorded as a `"micro"` op with per-category latency attribution.
    pub trace: Option<smart_trace::TraceSink>,
    /// Executor schedule policy: `Fifo` (the default) or a seeded
    /// tie-break perturbation for `smart-check` schedule exploration.
    pub schedule: SchedulePolicy,
}

impl MicrobenchSpec {
    /// A spec with the paper's defaults: 8-byte READs, uniform addresses,
    /// one memory blade, 64 MB region, 2 ms warmup + 5 ms measurement.
    pub fn new(smart: SmartConfig, threads: usize, depth: usize) -> Self {
        MicrobenchSpec {
            smart,
            threads,
            depth,
            op: MicroOp::Read(8),
            blades: 1,
            region_bytes: 64 * 1024 * 1024,
            warmup: Duration::from_millis(2),
            measure: Duration::from_millis(5),
            seed: 42,
            dynamic: None,
            rnic: RnicConfig::default(),
            trace: None,
            schedule: SchedulePolicy::Fifo,
        }
    }
}

/// Reserves the whole region so random offsets land in valid memory.
pub(crate) fn reserve(blades: &[Rc<MemoryBlade>], region_bytes: u64) {
    for blade in blades {
        blade.alloc(region_bytes - 64, 8);
    }
}

/// Spawns the toggler, the workers and the phase controller; returns the
/// finish hook that assembles the report (`ops`, `mops`,
/// `dram_bytes_per_op` and the two cache hit ratios; `sim_events` and
/// `live_tasks` are left for the driver).
pub(crate) fn start(
    h: &SimHandle,
    cluster: &Cluster,
    spec: &MicrobenchSpec,
) -> Box<dyn FnOnce() -> RunReport> {
    if let Some(sink) = &spec.trace {
        h.install_tracer(sink.clone());
    }
    reserve(cluster.blades(), spec.region_bytes);
    let mut smart_cfg = spec.smart.clone();
    smart_cfg.expected_threads = spec.threads;
    let ctx = SmartContext::new(cluster.compute(0), cluster.blades(), smart_cfg);

    let stop = Rc::new(Cell::new(false));
    let active = Rc::new(Cell::new(spec.threads));
    if let Some(dynamic) = spec.dynamic {
        let (active, stop, handle) = (Rc::clone(&active), Rc::clone(&stop), h.clone());
        active.set(dynamic.high_threads);
        h.spawn(async move {
            let mut high = true;
            while !stop.get() {
                handle.sleep(dynamic.interval).await;
                high = !high;
                active.set(if high {
                    dynamic.high_threads
                } else {
                    dynamic.low_threads
                });
            }
        });
    }

    let depth = spec.depth.max(1);
    let op = spec.op;
    let blades = spec.blades as u64;
    let slots = (spec.region_bytes - 64) / 8 - 2;
    for _ in 0..spec.threads {
        let thread = ctx.create_thread();
        let coro = thread.coroutine();
        let (active, stop, handle) = (Rc::clone(&active), Rc::clone(&stop), h.clone());
        h.spawn(async move {
            while !stop.get() {
                if thread.index() >= active.get() {
                    handle.sleep(Duration::from_micros(20)).await;
                    continue;
                }
                let _op = coro.op_scope_named("micro").await;
                for _ in 0..depth {
                    let blade = BladeId(handle.rand_below(blades) as u32);
                    let addr = RemoteAddr::new(blade, 64 + handle.rand_below(slots) * 8);
                    match op {
                        MicroOp::Read(len) => {
                            coro.read(addr, len);
                        }
                        MicroOp::Write(len) => {
                            coro.write(addr, vec![0u8; len as usize]);
                        }
                        MicroOp::Cas => {
                            coro.cas(addr, 0, 1);
                        }
                    }
                }
                coro.post_send().await;
                coro.sync().await;
            }
        });
    }

    // The phase controller: the window's counters, then the stop.
    let window = Rc::new(Cell::new(None));
    let (node, handle, done) = (Rc::clone(cluster.compute(0)), h.clone(), Rc::clone(&window));
    let (open, close) = (
        SimTime::ZERO + spec.warmup,
        SimTime::ZERO + spec.warmup + spec.measure,
    );
    h.spawn(async move {
        handle.settle_until(open).await;
        let before = node.counters();
        handle.settle_until(close).await;
        done.set(Some((before, node.counters())));
        stop.set(true);
        ctx.quiesce_controllers();
    });

    let secs = spec.measure.as_secs_f64();
    Box::new(move || {
        let (before, after) = window.take().expect("the window never closed");
        let ops = after.ops_completed - before.ops_completed;
        let ratio = |hits: u64, misses: u64| {
            if hits + misses == 0 {
                1.0
            } else {
                hits as f64 / (hits + misses) as f64
            }
        };
        RunReport {
            ops,
            mops: ops as f64 / secs / 1e6,
            dram_bytes_per_op: after.dram_bytes_per_op_since(&before),
            wqe_hit_ratio: ratio(after.wqe_hits, after.wqe_misses),
            mtt_hit_ratio: ratio(after.mtt_hits, after.mtt_misses),
            ..RunReport::default()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run, Spec};
    use smart::QpPolicy;

    fn quick(mut spec: MicrobenchSpec) -> RunReport {
        spec.warmup = Duration::from_micros(300);
        spec.measure = Duration::from_millis(1);
        let spec = Spec::Micro(spec);
        run(&spec, &spec.single_plan(), 1).report
    }

    #[test]
    fn single_thread_produces_reasonable_iops() {
        let spec = MicrobenchSpec::new(SmartConfig::baseline(QpPolicy::PerThreadQp, 1), 1, 8);
        let r = quick(spec);
        // One thread, depth 8, ~3.5 µs RTT => roughly 1.5–3.5 MOPS.
        assert!(r.mops > 0.8, "got {} MOPS", r.mops);
        assert!(r.mops < 6.0, "got {} MOPS", r.mops);
    }

    #[test]
    fn throughput_scales_with_threads_under_thread_aware_policy() {
        let mk = |threads| {
            quick(MicrobenchSpec::new(
                SmartConfig::baseline(QpPolicy::ThreadAwareDoorbell, threads),
                threads,
                8,
            ))
        };
        let one = mk(1);
        let sixteen = mk(16);
        assert!(
            sixteen.mops > one.mops * 8.0,
            "1 thread {} MOPS vs 16 threads {} MOPS",
            one.mops,
            sixteen.mops
        );
    }

    #[test]
    fn writes_also_flow() {
        let mut spec = MicrobenchSpec::new(SmartConfig::baseline(QpPolicy::PerThreadQp, 4), 4, 8);
        spec.op = MicroOp::Write(8);
        let r = quick(spec);
        assert!(r.mops > 1.0, "got {} MOPS", r.mops);
    }
}
