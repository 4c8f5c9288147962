//! Calibration tests: the simulated RNIC + SMART stack must reproduce the
//! *shapes* of the paper's §3 analysis (Figures 3 and 4) — who wins, by
//! roughly what factor, and where the crossovers fall.

use smart::{QpPolicy, SmartConfig};
use smart_bench::{run, MicroOp, MicrobenchSpec, RunReport, Spec};
use smart_rt::Duration;

fn bench(policy: QpPolicy, threads: usize, depth: usize, throttle: bool) -> RunReport {
    let cfg = SmartConfig::baseline(policy, threads).with_work_req_throttle(throttle);
    let mut spec = MicrobenchSpec::new(cfg, threads, depth);
    spec.warmup = Duration::from_micros(500);
    spec.measure = Duration::from_millis(2);
    spec.op = MicroOp::Read(8);
    single(spec)
}

fn single(micro: MicrobenchSpec) -> RunReport {
    let spec = Spec::Micro(micro);
    run(&spec, &spec.single_plan(), 1).report
}

/// Figure 3: with few threads (≤16) per-thread QP and per-thread doorbell
/// are equivalent — every QP effectively has its own doorbell.
#[test]
fn few_threads_per_thread_qp_matches_thread_aware() {
    let qp = bench(QpPolicy::PerThreadQp, 12, 8, false);
    let db = bench(QpPolicy::ThreadAwareDoorbell, 12, 8, false);
    let ratio = db.mops / qp.mops;
    assert!(
        (0.8..1.3).contains(&ratio),
        "12 threads: per-thread QP {:.1} vs thread-aware {:.1} MOPS",
        qp.mops,
        db.mops
    );
}

/// Figure 3: at 96 threads the driver's round-robin doorbell mapping
/// shares each medium doorbell among ~8 threads; per-thread QP collapses
/// while per-thread doorbell keeps scaling (paper: up to 5.6×/3.2×).
#[test]
fn at_96_threads_thread_aware_beats_per_thread_qp() {
    let qp = bench(QpPolicy::PerThreadQp, 96, 8, false);
    let db = bench(QpPolicy::ThreadAwareDoorbell, 96, 8, false);
    let ratio = db.mops / qp.mops;
    assert!(
        ratio >= 2.0,
        "96 threads: thread-aware {:.1} MOPS should be ≥2x per-thread QP {:.1} MOPS",
        db.mops,
        qp.mops
    );
}

/// Figure 3: per-thread QP throughput peaks near 32 threads and then
/// degrades ("cut in half after the number of threads is increased to
/// 96").
#[test]
fn per_thread_qp_degrades_beyond_32_threads() {
    let at32 = bench(QpPolicy::PerThreadQp, 32, 8, false);
    let at96 = bench(QpPolicy::PerThreadQp, 96, 8, false);
    assert!(
        at96.mops < at32.mops * 0.75,
        "per-thread QP: 32 threads {:.1} MOPS vs 96 threads {:.1} MOPS",
        at32.mops,
        at96.mops
    );
}

/// Figure 3: the shared-QP policy is far below per-thread allocation
/// (the paper reports gaps of 2.4×–130×).
#[test]
fn shared_qp_is_orders_of_magnitude_slower() {
    let shared = bench(QpPolicy::SharedQp, 96, 8, false);
    let db = bench(QpPolicy::ThreadAwareDoorbell, 96, 8, false);
    assert!(
        shared.mops * 8.0 < db.mops,
        "shared {:.2} MOPS vs thread-aware {:.1} MOPS",
        shared.mops,
        db.mops
    );
}

/// The hardware ceiling: nothing exceeds ~110 MOPS.
#[test]
fn hardware_iops_ceiling_holds() {
    let db = bench(QpPolicy::ThreadAwareDoorbell, 96, 8, false);
    assert!(db.mops <= 115.0, "got {:.1} MOPS", db.mops);
    assert!(
        db.mops >= 70.0,
        "thread-aware at 96x8 should approach the ceiling, got {:.1}",
        db.mops
    );
}

/// Figure 4a: with 96 threads, raising the depth from 8 to 32 overshoots
/// the WQE cache (768 → 3072 OWRs) and halves throughput.
#[test]
fn deep_concurrency_thrashes_wqe_cache() {
    let d8 = bench(QpPolicy::ThreadAwareDoorbell, 96, 8, false);
    let d32 = bench(QpPolicy::ThreadAwareDoorbell, 96, 32, false);
    assert!(
        d32.mops < d8.mops * 0.70,
        "96 threads: depth 8 {:.1} MOPS vs depth 32 {:.1} MOPS",
        d8.mops,
        d32.mops
    );
    assert!(
        d32.wqe_hit_ratio < 0.6,
        "depth 32 should thrash the WQE cache, hit ratio {:.2}",
        d32.wqe_hit_ratio
    );
}

/// Figure 4b: thrashing shows up as extra PCIe-inbound DRAM traffic per
/// work request (paper: 93 B → 180 B, a 1.9× increase).
#[test]
fn dram_traffic_per_wr_grows_with_thrashing() {
    let d8 = bench(QpPolicy::ThreadAwareDoorbell, 96, 8, false);
    let d32 = bench(QpPolicy::ThreadAwareDoorbell, 96, 32, false);
    assert!(
        (80.0..110.0).contains(&d8.dram_bytes_per_op),
        "baseline DRAM bytes/WR ≈ 93, got {:.0}",
        d8.dram_bytes_per_op
    );
    assert!(
        d32.dram_bytes_per_op > d8.dram_bytes_per_op * 1.5,
        "thrashing DRAM bytes/WR: {:.0} vs {:.0}",
        d32.dram_bytes_per_op,
        d8.dram_bytes_per_op
    );
}

/// Figure 13a: adaptive work-request throttling holds throughput at deep
/// concurrency (it caps outstanding WRs near the cache-friendly sweet
/// spot).
#[test]
fn throttling_rescues_deep_concurrency() {
    let raw = bench(QpPolicy::ThreadAwareDoorbell, 96, 32, false);
    let throttled = bench(QpPolicy::ThreadAwareDoorbell, 96, 32, true);
    assert!(
        throttled.mops > raw.mops * 1.3,
        "throttled {:.1} MOPS vs raw {:.1} MOPS at depth 32",
        throttled.mops,
        raw.mops
    );
}

/// §2.2 / §6.3: per-thread device contexts multiply MR registrations and
/// drag the MTT/MPT hit rate down.
#[test]
fn per_thread_context_thrashes_mtt() {
    let shared_ctx = bench(QpPolicy::ThreadAwareDoorbell, 96, 8, false);
    let per_ctx = bench(QpPolicy::PerThreadContext, 96, 8, false);
    assert!(
        shared_ctx.mtt_hit_ratio > 0.95,
        "shared context MTT hit ratio {:.2}",
        shared_ctx.mtt_hit_ratio
    );
    assert!(
        per_ctx.mtt_hit_ratio < 0.70,
        "per-thread context MTT hit ratio {:.2}",
        per_ctx.mtt_hit_ratio
    );
    assert!(
        per_ctx.mops < shared_ctx.mops,
        "per-thread context {:.1} MOPS should trail shared context {:.1} MOPS",
        per_ctx.mops,
        shared_ctx.mops
    );
}

/// Figure 3 (write curve): the same doorbell story holds for WRITEs.
#[test]
fn write_policies_rank_like_reads() {
    let mk = |policy| {
        let cfg = SmartConfig::baseline(policy, 96);
        let mut spec = MicrobenchSpec::new(cfg, 96, 8);
        spec.warmup = Duration::from_micros(500);
        spec.measure = Duration::from_millis(2);
        spec.op = MicroOp::Write(8);
        single(spec)
    };
    let qp = mk(QpPolicy::PerThreadQp);
    let db = mk(QpPolicy::ThreadAwareDoorbell);
    assert!(
        db.mops > qp.mops * 1.5,
        "writes at 96 threads: thread-aware {:.1} vs per-thread QP {:.1}",
        db.mops,
        qp.mops
    );
}
