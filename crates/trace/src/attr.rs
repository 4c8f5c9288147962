//! Op-scoped latency attribution: decomposes each application operation
//! into DB-lock wait / credit wait / pipeline / fabric / backoff components.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::hist::LogHistogram;
use crate::{Actor, Category, ATTR_CATEGORIES};

/// An operation currently in flight for one `(tid, coro)` actor.
#[derive(Debug)]
struct OpenOp {
    kind: &'static str,
    start_ns: u64,
    cat_ns: [u64; ATTR_CATEGORIES],
}

/// Mutable attribution state owned by the sink.
#[derive(Debug, Default)]
pub(crate) struct Attribution {
    open: BTreeMap<(u64, u32), OpenOp>,
    kinds: BTreeMap<&'static str, OpKindStats>,
}

impl Attribution {
    /// Charges an attributed span to the actor's open operation, if any.
    pub(crate) fn add_span(&mut self, actor: Actor, cat: Category, dur_ns: u64) {
        let Some(i) = cat.attr_index() else {
            return;
        };
        if let Some(op) = self.open.get_mut(&(actor.tid, actor.coro)) {
            op.cat_ns[i] = op.cat_ns[i].saturating_add(dur_ns);
        }
    }

    /// Opens an operation scope for the actor (replacing any stale one).
    pub(crate) fn begin_op(&mut self, actor: Actor, kind: &'static str, t_ns: u64) {
        self.open.insert(
            (actor.tid, actor.coro),
            OpenOp {
                kind,
                start_ns: t_ns,
                cat_ns: [0; ATTR_CATEGORIES],
            },
        );
    }

    /// Closes the actor's operation scope, folding it into the per-kind
    /// aggregates. Returns `(kind, start_ns)` if a scope was open.
    pub(crate) fn end_op(&mut self, actor: Actor, t_ns: u64) -> Option<(&'static str, u64)> {
        let op = self.open.remove(&(actor.tid, actor.coro))?;
        let total = t_ns.saturating_sub(op.start_ns);
        let stats = self.kinds.entry(op.kind).or_default();
        stats.count += 1;
        stats.total_ns = stats.total_ns.saturating_add(total);
        stats.total.record(total);
        for i in 0..ATTR_CATEGORIES {
            stats.cat_ns[i] = stats.cat_ns[i].saturating_add(op.cat_ns[i]);
            stats.cat_hist[i].record(op.cat_ns[i]);
        }
        Some((op.kind, op.start_ns))
    }

    /// Clones the completed-op aggregates into an immutable report.
    pub(crate) fn snapshot(&self) -> AttributionReport {
        AttributionReport {
            kinds: self.kinds.clone(),
        }
    }
}

/// Aggregated latency statistics for one operation kind (`"ht_get"`,
/// `"dtx_txn"`, …).
#[derive(Clone, Debug)]
pub struct OpKindStats {
    count: u64,
    total_ns: u64,
    total: LogHistogram,
    cat_ns: [u64; ATTR_CATEGORIES],
    cat_hist: [LogHistogram; ATTR_CATEGORIES],
}

impl Default for OpKindStats {
    fn default() -> Self {
        OpKindStats {
            count: 0,
            total_ns: 0,
            total: LogHistogram::new(),
            cat_ns: [0; ATTR_CATEGORIES],
            cat_hist: [
                LogHistogram::new(),
                LogHistogram::new(),
                LogHistogram::new(),
                LogHistogram::new(),
                LogHistogram::new(),
            ],
        }
    }
}

impl OpKindStats {
    /// Number of completed operations of this kind.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of end-to-end operation latencies, in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.total_ns
    }

    /// Total nanoseconds attributed to `cat` across all operations of this
    /// kind (0 for non-attributed categories).
    pub fn category_ns(&self, cat: Category) -> u64 {
        cat.attr_index().map_or(0, |i| self.cat_ns[i])
    }

    /// Fraction of total op latency attributed to `cat` (0.0 when no ops
    /// completed). Components recorded by concurrently outstanding work
    /// requests overlap in time, so the shares of one kind may sum past 1.0.
    pub fn share(&self, cat: Category) -> f64 {
        if self.total_ns == 0 {
            0.0
        } else {
            self.category_ns(cat) as f64 / self.total_ns as f64
        }
    }
}

/// Immutable snapshot of the attribution aggregates, keyed by op kind.
#[derive(Clone, Debug, Default)]
pub struct AttributionReport {
    kinds: BTreeMap<&'static str, OpKindStats>,
}

impl AttributionReport {
    /// Stats for one op kind, if any such ops completed.
    pub fn kind(&self, name: &str) -> Option<&OpKindStats> {
        self.kinds.get(name)
    }

    /// Iterates over all op kinds in deterministic (sorted) order.
    pub fn kinds(&self) -> impl Iterator<Item = (&'static str, &OpKindStats)> {
        self.kinds.iter().map(|(k, v)| (*k, v))
    }

    /// True when no operations completed.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Renders the plain-text attribution report printed by bench runners.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== smart-trace attribution ==============================================\n");
        if self.kinds.is_empty() {
            out.push_str("(no completed operations)\n");
            return out;
        }
        for (kind, s) in &self.kinds {
            let _ = writeln!(
                out,
                "op {kind}: {} ops, mean {}, p50 {}, p90 {}, p99 {}, p999 {}",
                s.count,
                fmt_ns(s.total.mean()),
                fmt_ns(s.total.percentile(500)),
                fmt_ns(s.total.percentile(900)),
                fmt_ns(s.total.percentile(990)),
                fmt_ns(s.total.percentile(999)),
            );
            let mut covered = 0u64;
            for i in 0..ATTR_CATEGORIES {
                let cat = Category::from_attr_index(i);
                covered = covered.saturating_add(s.cat_ns[i]);
                let _ = writeln!(
                    out,
                    "  {:<9} {:>6} of op latency (mean/op {}, p99/op {})",
                    cat.label(),
                    fmt_share(s.share(cat)),
                    fmt_ns(s.cat_hist[i].mean()),
                    fmt_ns(s.cat_hist[i].percentile(990)),
                );
            }
            // Attributed components of concurrent work requests overlap, so
            // coverage can exceed 100 %; anything below 100 % is host CPU,
            // completion polling and queueing not covered by a category.
            let pct10 = (covered.saturating_mul(1000)) / s.total_ns.max(1);
            let _ = writeln!(
                out,
                "  coverage  {:>3}.{}% of op latency attributed",
                pct10 / 10,
                pct10 % 10
            );
        }
        out
    }
}

/// Formats nanoseconds with a deterministic integer-only `us`/`ns` rendering.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000 {
        format!("{}.{:03}us", ns / 1_000, ns % 1_000)
    } else {
        format!("{ns}ns")
    }
}

fn fmt_share(share: f64) -> String {
    format!("{:.1}%", share * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_outside_an_op_are_dropped() {
        let mut a = Attribution::default();
        a.add_span(Actor::thread(1), Category::DbLock, 100);
        assert!(a.snapshot().is_empty());
        a.begin_op(Actor::thread(1), "ht_get", 0);
        a.end_op(Actor::thread(1), 50);
        let r = a.snapshot();
        assert_eq!(r.kind("ht_get").unwrap().category_ns(Category::DbLock), 0);
    }

    #[test]
    fn attribution_sums_per_category_and_kind() {
        let mut a = Attribution::default();
        let actor = Actor::new(1, 2);
        a.begin_op(actor, "ht_get", 100);
        a.add_span(actor, Category::DbLock, 30);
        a.add_span(actor, Category::Fabric, 50);
        a.add_span(actor, Category::DbLock, 10);
        // A different coroutine's spans must not leak in.
        a.add_span(Actor::new(1, 3), Category::DbLock, 999);
        // Non-attributed categories never count.
        a.add_span(actor, Category::Cache, 777);
        assert_eq!(a.end_op(actor, 200), Some(("ht_get", 100)));
        let r = a.snapshot();
        let s = r.kind("ht_get").unwrap();
        assert_eq!(s.count(), 1);
        assert_eq!(s.total_ns(), 100);
        assert_eq!(s.category_ns(Category::DbLock), 40);
        assert_eq!(s.category_ns(Category::Fabric), 50);
        assert_eq!(s.category_ns(Category::Cache), 0);
        assert!((s.share(Category::DbLock) - 0.4).abs() < 1e-9);
    }

    #[test]
    fn end_without_begin_is_ignored() {
        let mut a = Attribution::default();
        assert_eq!(a.end_op(Actor::thread(9), 500), None);
        assert!(a.snapshot().is_empty());
    }

    #[test]
    fn report_renders_all_categories() {
        let mut a = Attribution::default();
        let actor = Actor::thread(4);
        a.begin_op(actor, "dtx_txn", 0);
        a.add_span(actor, Category::Credit, 400);
        a.add_span(actor, Category::Backoff, 100);
        a.end_op(actor, 1_000);
        let text = a.snapshot().render();
        for label in ["db_lock", "credit", "pipeline", "fabric", "backoff"] {
            assert!(text.contains(label), "missing {label} in:\n{text}");
        }
        assert!(text.contains("dtx_txn"));
        assert!(text.contains("40.0%"), "credit share missing in:\n{text}");
        assert!(text.contains("coverage"));
    }
}
