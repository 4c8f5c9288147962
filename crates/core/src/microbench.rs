//! The micro-benchmark driver (§3.1's "bench tool", the artifact's
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
//! The run goes through the one driver, [`smart_rnic::run_decomposed`],
//! under `DomainPlan::single` on one engine worker, with the spec's
//! schedule policy. A phase-controller coroutine reads the node counters
//! at the window edges — each read waits until its instant has settled
//! ([`smart_rt::SimHandle::settle_until`]), so it sees what stepping the
//! simulation to that edge would — then stops the workers and the
//! dynamic-load toggler and quiesces the framework controllers; the
//! engine runs to quiescence. Every blade domain replays the region
//! reservation, so the microbench also runs under any
//! [`DomainPlan`].

use std::cell::Cell;
use std::rc::Rc;
use std::time::Duration;

use smart_rnic::{
    run_decomposed, BladeId, Cluster, ClusterConfig, Decomposed, DomainPlan, MemoryBlade,
    RemoteAddr, RnicConfig,
};
use smart_rt::{SchedulePolicy, SimHandle, SimTime};

use crate::config::SmartConfig;
use crate::context::SmartContext;

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

/// Results of one micro-benchmark run.
#[derive(Clone, Debug)]
pub struct MicrobenchReport {
    /// Completed work requests during the window.
    pub ops: u64,
    /// Millions of operations per second.
    pub mops: f64,
    /// Average PCIe-inbound DRAM bytes per WR (Figure 4b's metric).
    pub dram_bytes_per_op: f64,
    /// WQE-cache hit ratio during the whole run.
    pub wqe_hit_ratio: f64,
    /// MTT/MPT cache hit ratio during the whole run.
    pub mtt_hit_ratio: f64,
    /// Simulator scheduling events (task polls + timer fires) over the
    /// whole run, summed over all domains: the denominator of the
    /// `smart-bench` perf harness's wall-clock `ns/event`. Left out of
    /// report goldens, like `RunReport::sim_events` in `smart-bench`.
    pub sim_events: u64,
    /// Tasks still live in the compute domain once the run quiesced
    /// ([`Decomposed::live_tasks`]): one parked CQ pump per thread plus
    /// one reply dispatcher per remote blade. A worker left here is a
    /// lost wakeup.
    pub live_tasks: usize,
}

/// Runs the micro-benchmark to completion and reports throughput.
///
/// ```rust
/// use smart::{run_microbench, MicrobenchSpec, QpPolicy, SmartConfig};
/// use smart_rt::Duration;
///
/// let mut spec = MicrobenchSpec::new(
///     SmartConfig::baseline(QpPolicy::ThreadAwareDoorbell, 4),
///     4, // threads
///     8, // outstanding work requests per thread
/// );
/// spec.warmup = Duration::from_micros(200);
/// spec.measure = Duration::from_micros(500);
/// let report = run_microbench(&spec);
/// assert!(report.mops > 1.0);
/// ```
pub fn run_microbench(spec: &MicrobenchSpec) -> MicrobenchReport {
    run_planned(spec, &DomainPlan::single(1, spec.blades as u32), 1).report
}

/// Runs the micro-benchmark in domain 0 of `plan` on up to
/// `engine_workers` OS threads.
fn run_planned(
    spec: &MicrobenchSpec,
    plan: &DomainPlan,
    engine_workers: usize,
) -> Decomposed<MicrobenchReport> {
    let cfg = ClusterConfig {
        rnic: spec.rnic.clone(),
        ..ClusterConfig::with_region(1, spec.blades, spec.region_bytes)
    };
    let (spec0, region) = (spec.clone(), spec.region_bytes);
    let mut d = run_decomposed(
        spec.seed,
        spec.schedule,
        cfg,
        plan,
        engine_workers,
        move |h, cluster| start(h, cluster, &spec0),
        move |cluster, _| {
            reserve(cluster.blades(), region);
            Box::new(|_, _| String::new())
        },
    );
    d.report.sim_events = d.events;
    d.report.live_tasks = d.live_tasks;
    d
}

/// Reserves the whole region so random offsets land in valid memory.
fn reserve(blades: &[Rc<MemoryBlade>], region_bytes: u64) {
    for blade in blades {
        blade.alloc(region_bytes - 64, 8);
    }
}

/// Spawns the toggler, the workers and the phase controller; returns the
/// finish hook that assembles the report.
fn start(
    h: &SimHandle,
    cluster: &Cluster,
    spec: &MicrobenchSpec,
) -> Box<dyn FnOnce() -> MicrobenchReport> {
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
        MicrobenchReport {
            ops,
            mops: ops as f64 / secs / 1e6,
            dram_bytes_per_op: after.dram_bytes_per_op_since(&before),
            wqe_hit_ratio: ratio(after.wqe_hits, after.wqe_misses),
            mtt_hit_ratio: ratio(after.mtt_hits, after.mtt_misses),
            sim_events: 0,
            live_tasks: 0,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QpPolicy;

    fn quick(spec: &mut MicrobenchSpec) {
        spec.warmup = Duration::from_micros(300);
        spec.measure = Duration::from_millis(1);
    }

    #[test]
    fn single_thread_produces_reasonable_iops() {
        let mut spec = MicrobenchSpec::new(SmartConfig::baseline(QpPolicy::PerThreadQp, 1), 1, 8);
        quick(&mut spec);
        let r = run_microbench(&spec);
        // One thread, depth 8, ~3.5 µs RTT => roughly 1.5–3.5 MOPS.
        assert!(r.mops > 0.8, "got {} MOPS", r.mops);
        assert!(r.mops < 6.0, "got {} MOPS", r.mops);
    }

    #[test]
    fn throughput_scales_with_threads_under_thread_aware_policy() {
        let mk = |threads| {
            let mut spec = MicrobenchSpec::new(
                SmartConfig::baseline(QpPolicy::ThreadAwareDoorbell, threads),
                threads,
                8,
            );
            quick(&mut spec);
            run_microbench(&spec)
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
    fn per_blade_runs_are_byte_identical_across_engine_workers() {
        let mut spec = MicrobenchSpec::new(
            SmartConfig::baseline(QpPolicy::ThreadAwareDoorbell, 4),
            4,
            8,
        );
        spec.blades = 2;
        spec.region_bytes = 1 << 20;
        quick(&mut spec);
        let plan = DomainPlan::per_blade(1, 2);
        let (one, two) = (run_planned(&spec, &plan, 1), run_planned(&spec, &plan, 2));
        assert_eq!(format!("{:?}", one.report), format!("{:?}", two.report));
        assert_eq!(one.blade_log, two.blade_log);
        assert_eq!((one.epochs, one.envelopes), (two.epochs, two.envelopes));
        assert!(one.report.ops > 0, "no batch completed");
        // One parked CQ pump per thread, one reply dispatcher per blade.
        assert_eq!(one.report.live_tasks, spec.threads + 2, "stranded tasks");
        assert_eq!(one.blade_log.lines().count(), 2);
        assert!(!one.blade_log.contains(" served=0 "), "{}", one.blade_log);
    }

    #[test]
    fn writes_also_flow() {
        let mut spec = MicrobenchSpec::new(SmartConfig::baseline(QpPolicy::PerThreadQp, 4), 4, 8);
        spec.op = MicroOp::Write(8);
        quick(&mut spec);
        let r = run_microbench(&spec);
        assert!(r.mops > 1.0, "got {} MOPS", r.mops);
    }
}
