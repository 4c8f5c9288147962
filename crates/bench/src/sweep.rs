//! Parallel sweep driver: fan independent `(config × seed)` simulation
//! runs across OS threads without giving up a byte of determinism.
//!
//! Every simulation in this repo is single-threaded and deterministic —
//! which means two *different* runs share nothing and can execute on
//! different cores. The driver exploits exactly that and nothing more:
//!
//! - Each job runs to completion on one worker thread, constructing its
//!   own `Simulation` (and, if it wants one, its own `TraceSink` — sinks
//!   are `Rc`-based and must be created inside the job, never moved
//!   across threads).
//! - Results land in a slot vector indexed by submission order, so the
//!   merged output is in the same fixed key order as a sequential loop —
//!   CSV rows, report lines and golden bytes are identical no matter how
//!   many workers ran or how they interleaved.
//! - Workers pull jobs off a shared atomic cursor (work stealing by
//!   index), so an expensive point (96 threads, chaos plan) doesn't
//!   convoy the cheap ones behind it.
//!
//! This file intentionally lives in `smart-bench`, the one crate allowed
//! to touch OS threads and wall clocks: the simulation itself stays
//! `std::thread`-free (the `os-concurrency` lint rule guards that), only
//! the *driver* that launches many simulations goes wide.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Number of worker threads a sweep of `jobs` independent runs should
/// use: every available core (`SMART_BENCH_THREADS` overrides, `1`
/// forces the sequential path), capped by the job count.
///
/// When the environment does not pin a count, multi-job sweeps always get
/// at least 2 workers, even on hosts that report a single hardware
/// thread: narrow CI containers used to silently collapse every sweep to
/// the sequential loop, so the parallel path — thread spawning, the
/// work-stealing cursor, slot merging — went completely unexercised
/// there. Oversubscribing a 1-core host costs a few percent; never
/// running the code CI exists to cover costs a lot more.
fn worker_threads(jobs: usize) -> usize {
    let hw = thread::available_parallelism().map_or(1, |n| n.get());
    let cap = match std::env::var("SMART_BENCH_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        Some(pinned) => pinned,
        None if jobs > 1 => hw.max(2),
        None => hw,
    };
    cap.min(jobs.max(1))
}

/// Runs `f` over every item on a pool of OS threads and returns the
/// results **in item order** — byte-identical to
/// `items.into_iter().map(f).collect()`, just faster.
///
/// `f` receives `(index, item)`; the index is the item's position in the
/// input, handy for deriving per-job seeds or labels. Each invocation
/// must be self-contained: build the `Simulation` (and any `TraceSink`)
/// inside `f`, return plain data out.
///
/// # Panics
///
/// Propagates the first worker panic after the scope joins.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let workers = worker_threads(n);
    if workers <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let items: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = items[i].lock().unwrap().take().expect("job taken twice");
                let out = f(i, item);
                *slots[i].lock().unwrap() = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap().expect("job produced no result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        // Deliberately uneven job costs: the last-submitted jobs finish
        // first on most schedules, and the order must not care.
        let items: Vec<u64> = (0..64).rev().collect();
        let expect: Vec<u64> = items.iter().map(|&v| v * v).collect();
        let got = parallel_map(items, |_, v| {
            if v % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            v * v
        });
        assert_eq!(got, expect);
    }

    #[test]
    fn parallel_bytes_match_sequential_bytes() {
        let render = |via_pool: bool| -> String {
            let items: Vec<u64> = (0..40).collect();
            let rows = if via_pool {
                parallel_map(items, |i, seed| {
                    format!("row {i} seed {seed} v {}", seed * 3)
                })
            } else {
                items
                    .into_iter()
                    .enumerate()
                    .map(|(i, seed)| format!("row {i} seed {seed} v {}", seed * 3))
                    .collect()
            };
            rows.join("\n")
        };
        assert_eq!(render(true), render(false));
    }

    #[test]
    fn index_matches_item_position() {
        let got = parallel_map((10..20).collect::<Vec<u64>>(), |i, v| (i, v));
        for (i, &(idx, v)) in got.iter().enumerate() {
            assert_eq!(idx, i);
            assert_eq!(v, 10 + i as u64);
        }
    }

    #[test]
    fn worker_threads_is_capped_by_jobs() {
        assert_eq!(worker_threads(0), 1);
        assert_eq!(worker_threads(1), 1);
        assert!(worker_threads(4) <= 4);
    }

    #[test]
    fn multi_job_sweeps_get_at_least_two_workers_unless_pinned() {
        // Regardless of how many hardware threads this host reports, an
        // unpinned multi-job sweep must exercise the parallel path.
        if std::env::var("SMART_BENCH_THREADS").is_err() {
            assert!(worker_threads(8) >= 2);
        }
    }
}
