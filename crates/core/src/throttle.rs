//! Adaptive work-request throttling — §4.2, Algorithm 1.
//!
//! Each thread keeps a credit balance capped at `C_max`. Posting `size`
//! work requests consumes `size` credits (stalling while depleted);
//! polling completions replenishes them. `C_max` is re-tuned every epoch:
//! an update phase probes each candidate value for Δ = 8 ms and keeps the
//! one with the highest completed-WR throughput, then a stable phase of
//! 60 × Δ = 480 ms follows.

use std::cell::Cell;
use std::rc::Rc;

use smart_rt::metrics::Counter;
use smart_rt::sync::Semaphore;
use smart_rt::SimHandle;
use smart_trace::{Actor, Category, SyncOp};

use crate::config::SmartConfig;

/// Thread-local credit state (Algorithm 1 lines 1–13).
pub struct WrThrottle {
    enabled: bool,
    credits: Semaphore,
    c_max: Cell<i64>,
    stalls: Counter,
    probe: Cell<u64>,
}

impl std::fmt::Debug for WrThrottle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WrThrottle")
            .field("enabled", &self.enabled)
            .field("c_max", &self.c_max.get())
            .field("credits", &self.credits.available())
            .finish()
    }
}

impl WrThrottle {
    /// Creates a throttle with `C_max = initial` credits; a disabled
    /// throttle never blocks.
    pub fn new(enabled: bool, initial: i64) -> Rc<Self> {
        Rc::new(WrThrottle {
            enabled,
            credits: Semaphore::new(initial),
            c_max: Cell::new(initial),
            stalls: Counter::new(),
            probe: Cell::new(0),
        })
    }

    /// Installs a `smart-check` probe identity for the `C_max` epoch cell:
    /// the tuner's `UPDATECMAX` decisions become writes and posting
    /// threads' `chunk_limit` observations become reads on that cell.
    /// Idempotent (throttles can be shared between threads).
    pub fn install_probe(&self, handle: &SimHandle) {
        if self.probe.get() == 0 {
            self.probe.set(handle.fresh_probe_id());
        }
    }

    /// The epoch-cell probe identity (0 when unprobed).
    pub fn probe_id(&self) -> u64 {
        self.probe.get()
    }

    /// Credit-conservation invariant at quiescence: once every posted WR
    /// has completed and been polled, all consumed credits are back, so
    /// the balance must equal `C_max`. Returns violations (empty when
    /// conserved); only meaningful when nothing is in flight.
    pub fn conservation_violations(&self) -> Vec<String> {
        if !self.enabled {
            return Vec::new();
        }
        let (avail, cmax) = (self.credits.available(), self.c_max.get());
        if avail == cmax {
            Vec::new()
        } else {
            vec![format!(
                "credit balance {avail} != C_max {cmax} at quiescence"
            )]
        }
    }

    /// Whether throttling is active.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Current `C_max`.
    pub fn c_max(&self) -> i64 {
        self.c_max.get()
    }

    /// Times a post had to stall on depleted credits.
    pub fn stalls(&self) -> u64 {
        self.stalls.get()
    }

    /// Largest chain a single post should carry: posts bigger than the
    /// credit cap are split so that a 64-WR batch still flows through a
    /// 12-credit budget ("SMART absorbs the backpressure by internal
    /// stalling", §5.1).
    pub fn chunk_limit(&self) -> usize {
        if self.enabled {
            self.c_max.get().max(1) as usize
        } else {
            usize::MAX
        }
    }

    /// Consumes `size` credits, stalling while the balance is short
    /// (Algorithm 1 lines 5–7).
    ///
    /// Prefer [`Self::acquire_chunk`] for sizes derived from `C_max`: a
    /// fixed-size acquire larger than the *current* `C_max` can never be
    /// satisfied after the tuner shrinks the cap.
    pub async fn acquire(&self, size: u64) {
        if !self.enabled {
            return;
        }
        if !self.credits.try_acquire(size) {
            self.stalls.incr();
            self.credits.acquire(size).await;
        }
    }

    /// Acquires between 1 and `want` credits, returning how many were
    /// granted: waits for a single credit, then greedily takes what is
    /// available. This is how posts are chunked — it adapts to `C_max`
    /// changes mid-stall instead of deadlocking on a shrunken cap.
    pub async fn acquire_chunk(&self, want: usize) -> usize {
        debug_assert!(want > 0);
        if !self.enabled {
            return want;
        }
        if !self.credits.try_acquire(1) {
            self.stalls.incr();
            self.credits.acquire(1).await;
        }
        1 + self.credits.take_up_to(want as u64 - 1) as usize
    }

    /// [`Self::acquire_chunk`] with tracing: time stalled on depleted
    /// credits is recorded as a `credit` span (`"wr_credits"`) attributed
    /// to `actor`. The throttle holds no [`SimHandle`], so the caller
    /// passes one in.
    pub async fn acquire_chunk_as(&self, want: usize, handle: &SimHandle, actor: Actor) -> usize {
        debug_assert!(want > 0);
        if !self.enabled {
            return want;
        }
        if self.probe.get() != 0 {
            // The chunk size observes the tuner's epoch cell.
            handle.probe_sync(actor, "c_max_epoch", SyncOp::Read, self.probe.get());
        }
        if !self.credits.try_acquire(1) {
            self.stalls.incr();
            self.credits
                .acquire_traced(1, handle, actor, "wr_credits")
                .await;
        }
        1 + self.credits.take_up_to(want as u64 - 1) as usize
    }

    /// Replenishes `n` credits after completions are polled
    /// (Algorithm 1 line 13).
    pub fn replenish(&self, n: u64) {
        if self.enabled {
            self.credits.release(n);
        }
    }

    /// `UPDATECMAX(target)` — Algorithm 1 line 15: shift the balance by
    /// `target − C_max` (possibly negative) and record the new cap.
    pub fn update_c_max(&self, target: i64) {
        self.credits.adjust(target - self.c_max.get());
        self.c_max.set(target);
    }
}

/// The epoch-based tuner (Algorithm 1 lines 14–24): probes each candidate
/// `C_max` for Δ, keeps the best, then sleeps through the stable phase.
/// Spawn it once per thread; it runs until `quiesce` is set (checked
/// after every sleep, so a quiesced tuner neither finishes its probe
/// round nor moves `C_max` again), which run-to-quiescence engines use
/// to let the simulation terminate — see
/// [`SmartContext::quiesce_controllers`](crate::SmartContext::quiesce_controllers).
pub async fn run_c_max_tuner(
    handle: SimHandle,
    throttle: Rc<WrThrottle>,
    completed: Counter,
    cfg: SmartConfig,
    quiesce: Rc<std::cell::Cell<bool>>,
) {
    while !quiesce.get() {
        let mut best_score = 0u64;
        let mut best_target = throttle.c_max();
        for &target in &cfg.c_max_candidates {
            throttle.update_c_max(target);
            let before = completed.get();
            handle.sleep(cfg.probe_interval).await;
            if quiesce.get() {
                return;
            }
            let score = completed.get() - before;
            if score > best_score {
                best_score = score;
                best_target = target;
            }
        }
        throttle.update_c_max(best_target);
        if throttle.probe_id() != 0 {
            handle.probe_sync(
                Actor::SYSTEM,
                "c_max_epoch",
                SyncOp::Write,
                throttle.probe_id(),
            );
        }
        // Record the epoch decision; the tuner is a background task, so
        // the sample lands on the system track.
        handle.with_tracer(|t| {
            t.counter(
                handle.now().as_nanos(),
                Actor::SYSTEM,
                Category::Tune,
                "c_max",
                best_target.max(0) as u64,
            );
        });
        handle.sleep(cfg.probe_interval * cfg.stable_epochs).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smart_rt::{Duration, Simulation};

    #[test]
    fn disabled_throttle_never_blocks() {
        let mut sim = Simulation::new(0);
        let t = WrThrottle::new(false, 4);
        let t2 = Rc::clone(&t);
        sim.block_on(async move {
            t2.acquire(1_000_000).await; // returns immediately
        });
        assert_eq!(t.chunk_limit(), usize::MAX);
    }

    #[test]
    fn acquire_stalls_until_replenish() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let t = WrThrottle::new(true, 8);
        let t2 = Rc::clone(&t);
        let h2 = h.clone();
        sim.spawn(async move {
            h2.sleep(Duration::from_nanos(500)).await;
            t2.replenish(8);
        });
        let t3 = Rc::clone(&t);
        let when = sim.block_on(async move {
            t3.acquire(8).await; // all credits
            t3.acquire(4).await; // stalls until replenish
            h.now().as_nanos()
        });
        assert_eq!(when, 500);
        assert_eq!(t.stalls(), 1);
    }

    #[test]
    fn update_c_max_shifts_balance() {
        let mut sim = Simulation::new(0);
        let t = WrThrottle::new(true, 8);
        let t2 = Rc::clone(&t);
        sim.block_on(async move {
            t2.acquire(6).await; // balance 2
            t2.update_c_max(4); // balance 2 + (4-8) = -2
            assert_eq!(t2.c_max(), 4);
            // Replenish the 6 in flight: balance becomes 4 == new C_max.
            t2.replenish(6);
        });
        assert_eq!(t.chunk_limit(), 4);
    }

    #[test]
    fn acquire_chunk_survives_c_max_shrink() {
        // Regression: a fixed-size acquire(12) issued while C_max is 12
        // deadlocks forever if the tuner then shrinks C_max to 4 (total
        // credits < need). acquire_chunk adapts instead.
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let t = WrThrottle::new(true, 12);
        let t2 = Rc::clone(&t);
        sim.block_on(async move {
            t2.acquire(12).await; // all credits in flight
            let h2 = h.clone();
            let t3 = Rc::clone(&t2);
            h.spawn(async move {
                h2.sleep(Duration::from_nanos(100)).await;
                t3.update_c_max(4); // shrink below the stalled request
                t3.replenish(12); // in-flight completes: balance -> 4
            });
            let got = t2.acquire_chunk(12).await;
            assert_eq!(got, 4, "chunk adapts to the shrunken cap");
        });
    }

    #[test]
    fn acquire_chunk_takes_what_is_available() {
        let mut sim = Simulation::new(0);
        let t = WrThrottle::new(true, 8);
        let t2 = Rc::clone(&t);
        sim.block_on(async move {
            assert_eq!(t2.acquire_chunk(3).await, 3);
            assert_eq!(t2.acquire_chunk(64).await, 5, "capped by balance");
            t2.replenish(8);
        });
    }

    #[test]
    fn tuner_picks_highest_throughput_candidate() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let t = WrThrottle::new(true, 8);
        let completed = Counter::new();
        let cfg = SmartConfig::default();

        // A synthetic workload whose completion rate peaks at C_max == 10.
        let t2 = Rc::clone(&t);
        let completed2 = completed.clone();
        let h2 = h.clone();
        sim.spawn(async move {
            loop {
                h2.sleep(Duration::from_micros(10)).await;
                let c = t2.c_max();
                let rate = if c == 10 { 50 } else { 10 };
                completed2.add(rate);
            }
        });
        sim.spawn(run_c_max_tuner(
            h.clone(),
            Rc::clone(&t),
            completed,
            cfg.clone(),
            Rc::new(std::cell::Cell::new(false)),
        ));
        // Run through one full update phase.
        sim.run_for(cfg.probe_interval * 6);
        assert_eq!(t.c_max(), 10);
    }

    #[test]
    fn quiesced_tuner_stops_mid_probe() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let sink = smart_trace::TraceSink::with_capacity(64);
        h.install_tracer(sink.clone());
        let t = WrThrottle::new(true, 8);
        let cfg = SmartConfig::default();
        let quiesce = Rc::new(std::cell::Cell::new(false));
        sim.spawn(run_c_max_tuner(
            h,
            Rc::clone(&t),
            Counter::new(),
            cfg.clone(),
            Rc::clone(&quiesce),
        ));
        // Halfway through the second candidate's probe.
        sim.run_for(cfg.probe_interval * 3 / 2);
        let probing = t.c_max();
        assert_eq!(probing, cfg.c_max_candidates[1]);
        quiesce.set(true);
        sim.run();
        assert_eq!(t.c_max(), probing, "a quiesced tuner moved C_max");
        assert!(
            sink.events().iter().all(|e| e.name() != "c_max"),
            "a quiesced tuner emitted a c_max counter"
        );
        assert_eq!(sim.live_tasks(), 0);
    }
}
