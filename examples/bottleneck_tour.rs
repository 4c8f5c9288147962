//! A guided tour of the three scale-up bottlenecks from SMART §3, using
//! the raw micro-benchmark (8-byte READs, as in Figures 3 and 4).
//!
//! Run with: `cargo run --release --example bottleneck_tour`

use smart_bench::{run, MicroOp, MicrobenchSpec, Spec};
use smart_lab::smart::{QpPolicy, SmartConfig, SmartContext};
use smart_lab::smart_rnic::{Cluster, ClusterConfig, RemoteAddr};
use smart_lab::smart_rt::{Duration, Simulation};

fn bench(policy: QpPolicy, threads: usize, depth: usize, throttle: bool) -> f64 {
    let cfg = SmartConfig::baseline(policy, threads).with_work_req_throttle(throttle);
    let mut spec = MicrobenchSpec::new(cfg, threads, depth);
    spec.op = MicroOp::Read(8);
    spec.warmup = if throttle {
        Duration::from_millis(45) // let the C_max tuner converge
    } else {
        Duration::from_millis(1)
    };
    spec.measure = Duration::from_millis(3);
    let spec = Spec::Micro(spec);
    run(&spec, &spec.single_plan(), 1).report.mops
}

fn main() {
    println!("== Bottleneck 1: implicit doorbell contention (§3.1) ==");
    println!("96 threads, depth 8, 8-byte READs:");
    for (name, policy) in [
        ("shared QP", QpPolicy::SharedQp),
        (
            "multiplexed QP (8 threads/QP)",
            QpPolicy::MultiplexedQp { threads_per_qp: 8 },
        ),
        ("per-thread QP (driver doorbells)", QpPolicy::PerThreadQp),
        ("per-thread doorbell (SMART)", QpPolicy::ThreadAwareDoorbell),
    ] {
        println!("  {name:<34} {:6.1} MOPS", bench(policy, 96, 8, false));
    }
    println!("  -> the driver maps many threads' QPs onto 12 medium-latency");
    println!("     doorbells; the spinlock handoffs eat the IOPS budget.\n");

    println!("== Bottleneck 2: WQE-cache thrashing (§3.2) ==");
    println!("per-thread doorbells, 96 threads, growing concurrency depth:");
    for depth in [4usize, 8, 16, 32] {
        println!(
            "  depth {depth:>2} ({:>4} outstanding WRs)   {:6.1} MOPS",
            96 * depth,
            bench(QpPolicy::ThreadAwareDoorbell, 96, depth, false)
        );
    }
    println!("  -> beyond ~1024 outstanding WRs the on-chip WQE cache spills");
    println!("     to host DRAM over PCIe and throughput collapses.\n");

    println!("== ...and the fix: adaptive work-request throttling (§4.2) ==");
    println!(
        "  depth 32 with throttling            {:6.1} MOPS",
        bench(QpPolicy::ThreadAwareDoorbell, 96, 32, true)
    );
    println!("  -> Algorithm 1 caps credits near the cache-friendly sweet spot.");
    println!();
    println!("Bottleneck 3 (wasted CAS retries, §3.3/§4.3) is an application-");
    println!("level effect — see the kv_cache example and the fig14 bench.");
    println!();

    println!("== Diagnosing it yourself: SmartContext::contention_report ==");
    let mut sim = Simulation::new(1);
    let cluster = Cluster::new(sim.handle(), ClusterConfig::new(1, 2));
    for b in cluster.blades() {
        b.alloc(1 << 20, 8);
    }
    let ctx = SmartContext::new(
        cluster.compute(0),
        cluster.blades(),
        SmartConfig::baseline(QpPolicy::PerThreadQp, 48),
    );
    for _ in 0..48 {
        let thread = ctx.create_thread();
        let coro = thread.coroutine();
        let addr = RemoteAddr::new(cluster.blade(0).id(), 64);
        sim.spawn(async move {
            loop {
                coro.read_sync(addr, 8).await;
            }
        });
    }
    sim.run_for(Duration::from_millis(2));
    print!("{}", ctx.contention_report());
}
