//! Conflict avoidance — §4.3: truncated exponential backoff with a
//! dynamic limit, plus concurrency-depth (coroutine) throttling.
//!
//! For the `i`-th consecutive failed CAS an operation backs off
//! `t = min(t0·2^i, t_max) + rand(t0)` (Equation 1). Every millisecond the
//! controller computes the retry rate γ over all attempts and steers:
//! shrink `c_max` (concurrent coroutine slots) when γ > γ_H, expand it
//! when γ < γ_L; `t_max` only moves when `c_max` is pinned at a bound,
//! doubling up to `t_M = 2^10·t0` or halving down to `t0`.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Duration;

use smart_rt::sync::Semaphore;
use smart_rt::SimHandle;
use smart_trace::{Actor, Category};

use crate::config::SmartConfig;

/// Per-thread conflict-avoidance state.
pub struct ConflictControl {
    backoff_enabled: bool,
    dynamic_limit: bool,
    coro_throttle: bool,

    t0: Duration,
    t_m: Duration,
    t_max: Cell<Duration>,

    gamma_high: f64,
    gamma_low: f64,

    c_max: Cell<i64>,
    c_cap: i64,
    slots: Semaphore,

    window_attempts: Cell<u64>,
    window_failures: Cell<u64>,
}

impl std::fmt::Debug for ConflictControl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConflictControl")
            .field("backoff_enabled", &self.backoff_enabled)
            .field("t_max", &self.t_max.get())
            .field("c_max", &self.c_max.get())
            .finish()
    }
}

impl ConflictControl {
    /// Builds conflict-avoidance state for one thread from the framework
    /// configuration. `depth` is the thread's coroutine count — the upper
    /// bound for `c_max`.
    pub fn new(cfg: &SmartConfig, depth: usize) -> Rc<Self> {
        let t0 = cfg.t0();
        let initial_t_max = if cfg.dynamic_backoff_limit {
            t0
        } else {
            cfg.fixed_t_max()
        };
        let cap = depth.max(1) as i64;
        Rc::new(ConflictControl {
            backoff_enabled: cfg.conflict_backoff,
            dynamic_limit: cfg.dynamic_backoff_limit,
            coro_throttle: cfg.coroutine_throttle,
            t0,
            t_m: cfg.t_m(),
            t_max: Cell::new(initial_t_max),
            gamma_high: cfg.gamma_high,
            gamma_low: cfg.gamma_low,
            c_max: Cell::new(cap),
            c_cap: cap,
            slots: Semaphore::new(cap),
            window_attempts: Cell::new(0),
            window_failures: Cell::new(0),
        })
    }

    /// Whether exponential backoff is active.
    pub fn backoff_enabled(&self) -> bool {
        self.backoff_enabled
    }

    /// Current backoff limit `t_max`.
    pub fn t_max(&self) -> Duration {
        self.t_max.get()
    }

    /// Current coroutine-slot cap `c_max`.
    pub fn c_max(&self) -> i64 {
        self.c_max.get()
    }

    /// Records a CAS attempt outcome for the γ window.
    pub fn record(&self, success: bool) {
        self.window_attempts.set(self.window_attempts.get() + 1);
        if !success {
            self.window_failures.set(self.window_failures.get() + 1);
        }
    }

    /// Backoff delay for the `attempt`-th consecutive failure
    /// (Equation 1): `min(t0·2^attempt, t_max) + rand(t0)`.
    pub fn backoff_delay(&self, attempt: u32, handle: &SimHandle) -> Duration {
        let exp = self
            .t0
            .saturating_mul(1u32.checked_shl(attempt.min(31)).unwrap_or(u32::MAX))
            .min(self.t_max.get());
        let jitter = Duration::from_nanos(handle.rand_below(self.t0.as_nanos().max(1) as u64));
        exp + jitter
    }

    /// Acquires a coroutine slot (no-op when depth throttling is off).
    /// Time blocked on the `c_max` slot semaphore is recorded as a
    /// `credit` span (`"coro_slot"`) attributed to `actor`, and a
    /// `smart-check` acquire probe is emitted when a probe identity is
    /// installed.
    pub async fn acquire_slot_as(&self, handle: &SimHandle, actor: Actor) {
        if self.coro_throttle {
            self.slots
                .acquire_traced(1, handle, actor, "coro_slot")
                .await;
            self.slots.mark_acquired(handle, actor);
        }
    }

    /// Releases a coroutine slot, emitting the release probe paired with
    /// [`Self::acquire_slot_as`].
    pub fn release_slot_as(&self, handle: &SimHandle, actor: Actor) {
        if self.coro_throttle {
            self.slots.release_probed(1, handle, actor);
        }
    }

    /// Installs a `smart-check` probe identity on the slot semaphore so
    /// slot acquisitions show up in the lock-order graph. Idempotent.
    pub fn install_probe(&self, handle: &SimHandle) {
        if self.slots.probe_id() == 0 {
            self.slots.set_probe(handle.fresh_probe_id(), "coro_slot");
        }
    }

    fn step(&self) {
        let attempts = self.window_attempts.replace(0);
        let failures = self.window_failures.replace(0);
        if attempts == 0 {
            return;
        }
        let gamma = failures as f64 / attempts as f64;
        if gamma > self.gamma_high {
            // Too many retries: first narrow concurrency, then widen the
            // backoff window.
            if self.coro_throttle && self.c_max.get() > 1 {
                let new = (self.c_max.get() / 2).max(1);
                self.slots.adjust(new - self.c_max.get());
                self.c_max.set(new);
            } else if self.dynamic_limit {
                let new = (self.t_max.get() * 2).min(self.t_m);
                self.t_max.set(new);
            }
        } else if gamma < self.gamma_low {
            // Conflicts are rare: first relax the backoff window, then
            // widen concurrency.
            if self.dynamic_limit && self.t_max.get() > self.t0 {
                let new = (self.t_max.get() / 2).max(self.t0);
                self.t_max.set(new);
            } else if self.coro_throttle && self.c_max.get() < self.c_cap {
                let new = (self.c_max.get() * 2).min(self.c_cap);
                self.slots.adjust(new - self.c_max.get());
                self.c_max.set(new);
            }
        }
    }
}

/// The per-thread controller loop: samples γ every `gamma_interval` and
/// steers `c_max`/`t_max`. Spawn once per thread; it runs until
/// `quiesce` is set (checked after each sample sleep) — see
/// [`SmartContext::quiesce_controllers`](crate::SmartContext::quiesce_controllers).
pub async fn run_conflict_controller(
    handle: SimHandle,
    control: Rc<ConflictControl>,
    interval: Duration,
    quiesce: Rc<std::cell::Cell<bool>>,
) {
    loop {
        handle.sleep(interval).await;
        if quiesce.get() {
            return;
        }
        control.step();
        handle.with_tracer(|t| {
            let ns = handle.now().as_nanos();
            t.counter(
                ns,
                Actor::SYSTEM,
                Category::Tune,
                "conflict_c_max",
                control.c_max().max(0) as u64,
            );
            t.counter(
                ns,
                Actor::SYSTEM,
                Category::Tune,
                "t_max_ns",
                control.t_max().as_nanos() as u64,
            );
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SmartConfig;
    use smart_rt::Simulation;

    fn full_cfg() -> SmartConfig {
        SmartConfig::smart_full(1)
    }

    #[test]
    fn backoff_delay_doubles_then_truncates() {
        let sim = Simulation::new(0);
        let cfg = full_cfg();
        let c = ConflictControl::new(&cfg, 8);
        c.t_max.set(cfg.t0() * 4);
        let h = sim.handle();
        let t0 = cfg.t0();
        for attempt in 0..8 {
            let d = c.backoff_delay(attempt, &h);
            let expected_base = (t0 * (1u32 << attempt.min(2))).min(t0 * 4);
            assert!(
                d >= expected_base,
                "attempt {attempt}: {d:?} < {expected_base:?}"
            );
            assert!(
                d < expected_base + t0,
                "attempt {attempt}: jitter exceeds t0"
            );
        }
    }

    #[test]
    fn gamma_above_high_shrinks_c_max_first() {
        let cfg = full_cfg();
        let c = ConflictControl::new(&cfg, 8);
        for _ in 0..10 {
            c.record(false);
        }
        c.step();
        assert_eq!(c.c_max(), 4);
        assert_eq!(c.t_max(), cfg.t0()); // untouched while c_max > 1
    }

    #[test]
    fn t_max_doubles_only_at_c_max_floor() {
        let cfg = full_cfg();
        let c = ConflictControl::new(&cfg, 8);
        // Drive c_max to the floor: 8 -> 4 -> 2 -> 1.
        for _ in 0..3 {
            for _ in 0..4 {
                c.record(false);
            }
            c.step();
        }
        assert_eq!(c.c_max(), 1);
        let before = c.t_max();
        for _ in 0..4 {
            c.record(false);
        }
        c.step();
        assert_eq!(c.t_max(), before * 2);
    }

    #[test]
    fn low_gamma_relaxes_t_max_then_c_max() {
        let cfg = full_cfg();
        let c = ConflictControl::new(&cfg, 8);
        c.t_max.set(cfg.t0() * 4);
        c.c_max.set(2);
        c.slots.adjust(2 - 8);
        // All successes: γ = 0 < γ_L.
        for _ in 0..10 {
            c.record(true);
        }
        c.step();
        assert_eq!(c.t_max(), cfg.t0() * 2); // halved first
        c.t_max.set(cfg.t0());
        for _ in 0..10 {
            c.record(true);
        }
        c.step();
        assert_eq!(c.c_max(), 4); // then concurrency doubles
    }

    #[test]
    fn t_max_bounded_by_t_m_and_t0() {
        let cfg = full_cfg();
        let c = ConflictControl::new(&cfg, 1); // c_cap = 1: t_max moves directly
        for _ in 0..30 {
            for _ in 0..4 {
                c.record(false);
            }
            c.step();
        }
        assert_eq!(c.t_max(), cfg.t_m());
        for _ in 0..30 {
            for _ in 0..4 {
                c.record(true);
            }
            c.step();
        }
        assert_eq!(c.t_max(), cfg.t0());
    }

    #[test]
    fn empty_window_is_a_no_op() {
        let cfg = full_cfg();
        let c = ConflictControl::new(&cfg, 8);
        let (cm, tm) = (c.c_max(), c.t_max());
        c.step();
        assert_eq!((c.c_max(), c.t_max()), (cm, tm));
    }

    #[test]
    fn fixed_limit_when_dynamic_disabled() {
        let mut cfg = full_cfg();
        cfg.dynamic_backoff_limit = false;
        cfg.coroutine_throttle = false;
        let c = ConflictControl::new(&cfg, 8);
        assert_eq!(c.t_max(), cfg.fixed_t_max());
        for _ in 0..10 {
            c.record(false);
        }
        c.step();
        assert_eq!(c.t_max(), cfg.fixed_t_max()); // never moves
        assert_eq!(c.c_max(), 8);
    }

    #[test]
    fn slots_limit_concurrency_when_enabled() {
        let mut sim = Simulation::new(0);
        let cfg = full_cfg();
        let c = ConflictControl::new(&cfg, 2);
        let c1 = Rc::clone(&c);
        let h = sim.handle();
        let done = std::rc::Rc::new(Cell::new(0u32));
        for _ in 0..4 {
            let c = Rc::clone(&c1);
            let h = h.clone();
            let done = std::rc::Rc::clone(&done);
            sim.spawn(async move {
                c.acquire_slot_as(&h, Actor::SYSTEM).await;
                h.sleep(Duration::from_nanos(100)).await;
                c.release_slot_as(&h, Actor::SYSTEM);
                done.set(done.get() + 1);
            });
        }
        sim.run_for(Duration::from_nanos(150));
        assert_eq!(done.get(), 2); // only c_max=2 ran in the first round
        sim.run_for(Duration::from_nanos(100));
        assert_eq!(done.get(), 4);
    }
}
