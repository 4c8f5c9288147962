//! Ablation studies of the design choices DESIGN.md calls out — not
//! paper figures, but the "why is it built this way" evidence:
//!
//! 1. **More doorbells alone** — raising `MLX5_TOTAL_UUARS` without
//!    thread-aware binding (the driver still stripes QPs round-robin)
//!    vs. SMART's explicit per-thread binding (§4.1 argues awareness is
//!    required, not just more registers).
//! 2. **WQE-cache capacity** — where the Figure 4 cliff moves as the
//!    modeled on-chip cache grows.
//! 3. **HOCL handover cap** — lock handover locality vs. fairness in the
//!    B+Tree write path.
//! 4. **Speculative-cache size** — hit rate vs. compute-side memory in
//!    SMART-BT.
//! 5. **Fixed backoff limit** — the static `t_max` sweep that motivates
//!    the dynamic limit (§4.3).

use smart::{QpPolicy, SmartConfig};
use smart_bench::{
    banner, run, BenchTable, BtParams, BtVariant, HtParams, MicroOp, MicrobenchSpec, Mode, Spec,
};
use smart_rt::Duration;
use smart_sherman::ShermanConfig;
use smart_workloads::ycsb::Mix;

fn main() {
    let mode = Mode::from_env();
    banner("Ablations: design-choice sweeps", mode);
    let warmup = mode.pick(Duration::from_millis(1), Duration::from_millis(3));
    let measure = mode.pick(Duration::from_millis(3), Duration::from_millis(10));

    // 1. More doorbells without awareness.
    let mut t1 = BenchTable::new("ablation_uars", &["config", "medium_doorbells", "mops"]);
    for medium in [12u32, 24, 48, 96, 192] {
        let mut spec = MicrobenchSpec::new(SmartConfig::baseline(QpPolicy::PerThreadQp, 96), 96, 8);
        spec.rnic = spec.rnic.with_uars(medium);
        spec.op = MicroOp::Read(8);
        spec.warmup = warmup;
        spec.measure = measure;
        let spec = Spec::Micro(spec);
        let r = run(&spec, &spec.single_plan(), 1).report;
        eprintln!(
            "  uars: driver-mapped, {medium} medium DBs: {:.1} MOPS",
            r.mops
        );
        t1.row(&[&"driver-round-robin", &medium, &format!("{:.2}", r.mops)]);
    }
    {
        let mut spec = MicrobenchSpec::new(
            SmartConfig::baseline(QpPolicy::ThreadAwareDoorbell, 96),
            96,
            8,
        );
        spec.op = MicroOp::Read(8);
        spec.warmup = warmup;
        spec.measure = measure;
        let spec = Spec::Micro(spec);
        let r = run(&spec, &spec.single_plan(), 1).report;
        eprintln!("  uars: thread-aware binding (96 DBs): {:.1} MOPS", r.mops);
        t1.row(&[&"thread-aware", &96, &format!("{:.2}", r.mops)]);
    }
    t1.finish();

    // 2. WQE-cache capacity sweep at 96 threads x 16 OWRs.
    let mut t2 = BenchTable::new(
        "ablation_wqe_cache",
        &["wqe_cache_entries", "mops", "hit_ratio"],
    );
    for entries in [256u64, 512, 1024, 2048, 4096] {
        let mut spec = MicrobenchSpec::new(
            SmartConfig::baseline(QpPolicy::ThreadAwareDoorbell, 96),
            96,
            16,
        );
        spec.rnic.wqe_cache_entries = entries;
        spec.op = MicroOp::Read(8);
        spec.warmup = warmup;
        spec.measure = measure;
        let spec = Spec::Micro(spec);
        let r = run(&spec, &spec.single_plan(), 1).report;
        eprintln!(
            "  wqe-cache {entries}: {:.1} MOPS (hit {:.2})",
            r.mops, r.wqe_hit_ratio
        );
        t2.row(&[
            &entries,
            &format!("{:.2}", r.mops),
            &format!("{:.3}", r.wqe_hit_ratio),
        ]);
    }
    t2.finish();

    // 3. HOCL: off / handover caps, write-heavy B+Tree.
    let mut t3 = BenchTable::new("ablation_hocl", &["hocl", "handover_cap", "mops"]);
    let keys = mode.pick(100_000, 1_000_000);
    for (hocl, cap) in [
        (false, 0u32),
        (true, 1),
        (true, 8),
        (true, 64),
        (true, 1024),
    ] {
        let mut p = BtParams::new(BtVariant::SmartBt, 48, keys, Mix::WriteHeavy);
        p.tree_override = Some(ShermanConfig {
            hocl,
            hocl_handover_cap: cap,
            ..ShermanConfig::with_speculative_lookup()
        });
        p.warmup = mode.pick(Duration::from_millis(3), Duration::from_millis(6));
        p.measure = measure;
        let spec = Spec::Bt(p);
        let r = run(&spec, &spec.single_plan(), 1).report;
        eprintln!("  hocl={hocl} cap={cap}: {:.2} MOPS", r.mops);
        t3.row(&[&hocl, &cap, &format!("{:.3}", r.mops)]);
    }
    t3.finish();

    // 4. Speculative-cache size, read-only B+Tree.
    let mut t4 = BenchTable::new("ablation_spec_cache", &["spec_entries", "mops"]);
    for entries in [1usize << 10, 1 << 13, 1 << 16, 1 << 19] {
        let mut p = BtParams::new(BtVariant::SmartBt, 48, keys, Mix::ReadOnly);
        p.tree_override = Some(ShermanConfig {
            spec_cache_entries: entries,
            ..ShermanConfig::with_speculative_lookup()
        });
        p.warmup = mode.pick(Duration::from_millis(3), Duration::from_millis(6));
        p.measure = measure;
        let spec = Spec::Bt(p);
        let r = run(&spec, &spec.single_plan(), 1).report;
        eprintln!("  spec-cache {entries}: {:.2} MOPS", r.mops);
        t4.row(&[&entries, &format!("{:.3}", r.mops)]);
    }
    t4.finish();

    // 5. Fixed t_max sweep (update-only hash table, 96 threads) — the
    // case for the dynamic limit.
    let mut t5 = BenchTable::new(
        "ablation_fixed_tmax",
        &["t_max_units_of_t0", "mops", "avg_retries"],
    );
    for units in [1u64, 4, 16, 64, 256, 1024] {
        let mut cfg =
            SmartConfig::baseline(QpPolicy::ThreadAwareDoorbell, 96).with_work_req_throttle(true);
        cfg.conflict_backoff = true;
        cfg.fixed_t_max_units = units;
        let mut p = HtParams::new(cfg, 96, mode.pick(200_000, 2_000_000), Mix::UpdateOnly);
        p.warmup = mode.pick(Duration::from_millis(20), Duration::from_millis(40));
        p.measure = mode.pick(Duration::from_millis(5), Duration::from_millis(15));
        let spec = Spec::Ht(p);
        let r = run(&spec, &spec.single_plan(), 1).report;
        eprintln!(
            "  t_max={units}*t0: {:.2} MOPS, {:.2} retries/op",
            r.mops, r.avg_retries
        );
        t5.row(&[
            &units,
            &format!("{:.3}", r.mops),
            &format!("{:.2}", r.avg_retries),
        ]);
    }
    t5.finish();
}
