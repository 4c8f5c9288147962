//! Open-loop serving at scale: SLO percentiles, goodput vs offered load
//! and shed rate per diurnal phase, with a blade leaving and rejoining
//! the roster mid-run (smart-serve subsystem).
//!
//! Expected shape: the admission controller is provisioned at 75 % of
//! the steady peak, so the steady phase sheds ~25 % while admitted-op
//! p99 stays flat instead of diverging with the backlog; the churn
//! phase absorbs the blade outage with a bounded recovery-latency tail
//! and no conservation violations; goodput tracks admitted load across
//! the offered-load sweep. Two same-seed runs are byte-identical
//! (gated harder in `tests/serve.rs`).

use smart_bench::{banner, parallel_map, serve_spec, BenchTable, Mode};
use smart_serve::run_serve;

fn main() {
    let mode = Mode::from_env();
    banner(
        "Serving layer: open-loop SLOs under diurnal load + churn",
        mode,
    );

    // (clients, offered-load scale); every point includes the scripted
    // blade leave+join window. Quick mode keeps the 100k-client point —
    // sustaining a six-figure session population through membership
    // churn is the subsystem's acceptance bar, not an optional extra.
    let points: Vec<(usize, f64)> = mode.pick(
        vec![(20_000, 0.75), (100_000, 1.0)],
        vec![
            (20_000, 0.5),
            (20_000, 1.0),
            (50_000, 1.0),
            (100_000, 0.5),
            (100_000, 1.0),
            (100_000, 1.25),
        ],
    );

    let reports = parallel_map(points.clone(), |i, (clients, scale)| {
        run_serve(&serve_spec(clients, scale, 42 + i as u64))
    });

    let mut table = BenchTable::new(
        "fig_serve",
        &[
            "clients",
            "scale",
            "phase",
            "offered",
            "admitted",
            "shed_pct",
            "offer_s",
            "good_s",
            "p50_us",
            "p99_us",
            "p999_us",
            "recov_n",
            "recov_p99_us",
        ],
    );
    for ((clients, scale), r) in points.iter().zip(&reports) {
        eprintln!(
            "  {clients} clients x{scale}: offered {} admitted {} shed {} distinct {} epoch {}",
            r.offered(),
            r.admitted(),
            r.shed(),
            r.distinct_served,
            r.final_epoch
        );
        assert!(
            r.conservation.is_empty(),
            "audit violations: {:?}",
            r.conservation
        );
        assert_eq!(r.final_epoch, 2, "blade must leave and rejoin");
        assert!(r.completed() > 0, "no ops completed");
        for p in &r.phases {
            table.row(&[
                clients,
                scale,
                &p.name,
                &p.offered,
                &p.admitted,
                &format!("{:.2}", p.shed_pct()),
                &format!("{:.0}", p.offered_rate()),
                &format!("{:.0}", p.goodput()),
                &format!("{:.1}", p.latency.quantile(0.50) as f64 / 1e3),
                &format!("{:.1}", p.latency.quantile(0.99) as f64 / 1e3),
                &format!("{:.1}", p.latency.quantile(0.999) as f64 / 1e3),
                &p.recovery.count(),
                &format!("{:.1}", p.recovery.quantile(0.99) as f64 / 1e3),
            ]);
        }
    }
    table.finish();

    // The flagship point rendered in full: per-phase SLO rows, fault
    // accounting and the audit verdict.
    if let Some(last) = reports.last() {
        eprintln!();
        eprint!("{}", last.render());
    }
}
