//! Lightweight counters shared between tasks.
//!
//! All experiment metrics (completed ops, retries, PCIe bytes, cache
//! hits/misses) are plain shared counters read at the end of a measurement
//! window. They are `Rc`-based: the simulation is single-threaded.

use std::cell::Cell;
use std::rc::Rc;

/// A shared monotonically increasing counter.
///
/// ```rust
/// use smart_rt::metrics::Counter;
///
/// let c = Counter::new();
/// let c2 = c.clone();
/// c2.add(3);
/// c.incr();
/// assert_eq!(c.get(), 4);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Counter {
    value: Rc<Cell<u64>>,
}

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n`, wrapping on overflow.
    ///
    /// Byte counters (PCIe/DRAM traffic in full mode) can plausibly
    /// overflow `u64` in very long sweeps; wrapping makes the behaviour
    /// uniform across debug and release builds instead of panicking only
    /// under debug assertions.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.set(self.value.get().wrapping_add(n));
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.get()
    }

    /// Resets to zero and returns the previous value.
    pub fn take(&self) -> u64 {
        self.value.replace(0)
    }
}

/// Snapshot of the executor's hot-path counters, taken with
/// [`SimHandle::metrics`](crate::SimHandle::metrics).
///
/// These count *simulator* work — task polls, waker fires, timer
/// registrations — not application operations. They are the denominator
/// of the `ns/event` figure reported by the `smart-bench` wall-clock
/// harness, and `timers_cancelled`/`timers_purged` observe the timer
/// wheel's tombstone path (a `sleep` raced by `with_timeout`/select is
/// cancelled on drop and purged before it fires).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecutorMetrics {
    /// Tasks spawned onto the executor.
    pub tasks_spawned: u64,
    /// Task polls executed (including the final completing poll).
    pub polls: u64,
    /// Waker fires that enqueued a task (deduplicated re-wakes of an
    /// already-scheduled task are not counted).
    pub wakes: u64,
    /// Timers registered (`sleep`, `sleep_until`, `wake_at`).
    pub timers_scheduled: u64,
    /// Timers that fired and woke their waker.
    pub timers_fired: u64,
    /// Timers cancelled before firing (their `Sleep` was dropped early).
    pub timers_cancelled: u64,
    /// Cancelled timers dropped from the queue without firing.
    pub timers_purged: u64,
}

impl ExecutorMetrics {
    /// Total scheduling events processed: task polls plus timer fires.
    /// `benchmark/`'s `rt.host_ns_per_event` and
    /// `examples/decomposed_speedup.rs` divide host time by this count.
    pub fn events(&self) -> u64 {
        self.polls + self.timers_fired
    }
}

/// A pair of counters expressing a hit ratio (cache statistics).
#[derive(Clone, Debug, Default)]
pub struct HitStats {
    /// Number of hits.
    pub hits: Counter,
    /// Number of misses.
    pub misses: Counter,
}

impl HitStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total accesses.
    pub fn total(&self) -> u64 {
        self.hits.get() + self.misses.get()
    }

    /// Hit ratio in `[0, 1]`; `1.0` when there were no accesses.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            1.0
        } else {
            self.hits.get() as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_shares_state_across_clones() {
        let a = Counter::new();
        let b = a.clone();
        a.add(2);
        b.incr();
        assert_eq!(a.get(), 3);
        assert_eq!(b.take(), 3);
        assert_eq!(a.get(), 0);
    }

    #[test]
    fn add_wraps_on_overflow() {
        let c = Counter::new();
        c.add(u64::MAX);
        c.add(3);
        assert_eq!(c.get(), 2);
    }

    #[test]
    fn hit_ratio_edge_cases() {
        let s = HitStats::new();
        assert_eq!(s.hit_ratio(), 1.0);
        s.hits.add(3);
        s.misses.add(1);
        assert_eq!(s.total(), 4);
        assert!((s.hit_ratio() - 0.75).abs() < 1e-12);
    }
}
