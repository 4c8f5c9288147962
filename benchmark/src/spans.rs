//! The benchmark's own host-time spans, recorded around each call it
//! makes into a layer during the traced repetition.
//!
//! Spans are kept in memory and written out when the run ends. A span's
//! self time is its duration minus what its direct children cover, so the
//! self times of a tree sum to the duration of its root.

use std::time::Instant;

/// One recorded interval, in host nanoseconds since the recorder started.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Span name, e.g. `setup.load`.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

/// Handle of an open span, returned by [`Spans::enter`].
#[must_use = "pass the id back to Spans::exit"]
pub struct SpanId(Option<usize>);

/// Stack-shaped span recorder. A disabled recorder records nothing, so
/// the untraced repetitions run the same driver code without its cost.
pub struct Spans {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that keeps every span.
    pub fn recording() -> Spans {
        Spans {
            origin: Instant::now(),
            enabled: true,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder whose `enter`/`exit` do nothing.
    pub fn disabled() -> Spans {
        Spans {
            enabled: false,
            ..Spans::recording()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
        SpanId(Some(self.spans.len() - 1))
    }

    /// Closes a span.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the innermost open span: spans nest.
    pub fn exit(&mut self, id: SpanId) {
        let Some(i) = id.0 else { return };
        assert_eq!(self.open.pop(), Some(i), "spans must close innermost first");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Every span recorded so far, in start order.
    pub fn finished(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of each span: duration minus the durations of its direct
/// children (which, being stack-recorded, never overlap each other).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Total seconds spent in spans called `name`.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    let ns: u64 = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    ns as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 40, 90, Some(0)),
        ];
        // root: 100 - (30 + 50); a: 30 - 10; leaves keep their duration.
        assert_eq!(self_times_ns(&spans), vec![20, 20, 10, 50]);
        let own: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(own, 100, "self times of a tree sum to its root");
    }

    #[test]
    fn recorder_links_parents_and_disabled_records_nothing() {
        let mut s = Spans::recording();
        let root = s.enter("root");
        let a = s.enter("a");
        s.exit(a);
        let b = s.enter("b");
        s.exit(b);
        s.exit(root);
        let got = s.finished();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].parent, None);
        assert_eq!(got[1].parent, Some(0));
        assert_eq!(got[2].parent, Some(0));
        assert!(got[0].start_ns <= got[1].start_ns && got[2].end_ns <= got[0].end_ns);

        let mut off = Spans::disabled();
        let id = off.enter("x");
        off.exit(id);
        assert!(off.finished().is_empty());
    }

    #[test]
    fn total_sums_same_named_spans() {
        let spans = [
            span("x", 0, 500_000_000, None),
            span("x", 1_000_000_000, 1_500_000_000, None),
        ];
        assert_eq!(total_s(&spans, "x"), 1.0);
        assert_eq!(total_s(&spans, "y"), 0.0);
    }
}
