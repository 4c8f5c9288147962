//! The serving layer's admission policy: token-bucket rate limiting plus
//! queue-depth shedding, decided synchronously at each arrival.
//!
//! Shedding at the door is what makes the tail of *admitted* operations
//! meaningful: an overloaded open-loop system otherwise grows its queue
//! without bound and every percentile degenerates to "how long did the
//! run last". Rejections are typed ([`Rejected`]) so reports can separate
//! rate-policy sheds from backlog sheds.
//!
//! The rate limit is a classic token bucket re-read against simulated
//! time: refills are computed lazily from the elapsed virtual nanoseconds
//! in pure integer arithmetic, so the token sequence is a deterministic
//! function of the arrival timestamps — no background task, no
//! floating-point accumulation, no PRNG.

use std::cell::Cell;

use smart_rt::SimTime;

/// Nano-tokens per token: refill math runs at 10⁻⁹-token granularity so
/// arbitrary rates divide the nanosecond timeline without rounding drift.
const NANO: u128 = 1_000_000_000;

/// A lazily-refilled token bucket over virtual time.
///
/// Holds up to `burst` tokens; `rate` tokens accrue per virtual second.
/// [`try_take`] refills from the elapsed time since the last call and
/// consumes one token if a whole one is available. Calls must present
/// monotonically non-decreasing timestamps (simulation time never runs
/// backwards); a zero `rate` never refills, modelling a closed gate once
/// the initial burst is spent.
///
/// [`try_take`]: TokenBucket::try_take
#[derive(Debug)]
struct TokenBucket {
    rate: u64,
    burst: u64,
    /// Current fill in nano-tokens, capped at `burst * NANO`.
    nano_tokens: Cell<u128>,
    last_ns: Cell<u64>,
}

impl TokenBucket {
    /// A bucket starting full at `burst` tokens, refilling at `rate`
    /// tokens per virtual second.
    fn new(rate: u64, burst: u64) -> TokenBucket {
        TokenBucket {
            rate,
            burst,
            nano_tokens: Cell::new(burst as u128 * NANO),
            last_ns: Cell::new(0),
        }
    }

    /// Consumes one token if available at virtual time `now`.
    fn try_take(&self, now: SimTime) -> bool {
        let now_ns = now.as_nanos();
        let elapsed = now_ns.saturating_sub(self.last_ns.get());
        self.last_ns.set(now_ns);
        // elapsed_ns · rate_per_sec / 1e9 seconds · 1e9 nano-per-token
        // cancels exactly: nano-tokens gained = elapsed · rate.
        let gained = elapsed as u128 * self.rate as u128;
        let fill = (self.nano_tokens.get() + gained).min(self.burst as u128 * NANO);
        let taken = fill >= NANO;
        self.nano_tokens.set(if taken { fill - NANO } else { fill });
        taken
    }
}

/// Why an arrival was turned away.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rejected {
    /// The token bucket was empty: the offered rate exceeds the
    /// provisioned admission rate.
    Throttled,
    /// The session queue was at capacity: admitted work is not draining
    /// fast enough.
    QueueFull,
}

impl Rejected {
    /// Stable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Rejected::Throttled => "throttled",
            Rejected::QueueFull => "queue_full",
        }
    }
}

/// Admission policy knobs.
#[derive(Clone, Debug)]
pub struct AdmissionConfig {
    /// Sustained admission rate, ops per virtual second.
    pub rate: u64,
    /// Token-bucket burst capacity.
    pub burst: u64,
    /// Maximum backlog (queued, not-yet-executing ops) before sheds.
    pub max_queue: usize,
}

impl AdmissionConfig {
    /// A controller that admits everything: the rate gate never engages
    /// and the queue bound is effectively infinite. Wiring this must be
    /// observationally identical to running with no controller at all —
    /// `tests/serve.rs` holds that identity.
    pub fn unlimited() -> AdmissionConfig {
        AdmissionConfig {
            rate: 0,
            burst: 0,
            max_queue: usize::MAX,
        }
    }

    /// True when neither the rate gate nor the queue bound can ever
    /// reject an arrival.
    pub fn is_unlimited(&self) -> bool {
        self.rate == 0 && self.max_queue == usize::MAX
    }
}

/// The admission controller: applies [`AdmissionConfig`] at each arrival.
#[derive(Debug)]
pub struct AdmissionController {
    bucket: Option<TokenBucket>,
    max_queue: usize,
}

impl AdmissionController {
    /// Builds the controller; a zero `rate` disables the token bucket
    /// (queue-depth shedding may still apply).
    pub fn new(cfg: &AdmissionConfig) -> AdmissionController {
        AdmissionController {
            bucket: (cfg.rate > 0).then(|| TokenBucket::new(cfg.rate, cfg.burst.max(1))),
            max_queue: cfg.max_queue,
        }
    }

    /// Decides one arrival given the current backlog depth. Queue
    /// pressure is checked first: when the system is already drowning,
    /// spending a token on an op we then drop would double-charge the
    /// rate budget.
    pub fn admit(&self, now: SimTime, queue_depth: usize) -> Result<(), Rejected> {
        if queue_depth >= self.max_queue {
            return Err(Rejected::QueueFull);
        }
        match &self.bucket {
            Some(b) if !b.try_take(now) => Err(Rejected::Throttled),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn burst_drains_then_rate_governs() {
        let b = TokenBucket::new(1_000_000, 3); // 1 token per µs, burst 3
        for _ in 0..3 {
            assert!(b.try_take(t(0)));
        }
        assert!(!b.try_take(t(0)), "burst exhausted");
        assert!(!b.try_take(t(500)), "half a token is not a token");
        assert!(b.try_take(t(1_000)), "1 µs refills one token");
        assert!(!b.try_take(t(1_000)));
    }

    #[test]
    fn fill_caps_at_burst() {
        let b = TokenBucket::new(1_000_000_000, 2);
        // A long idle caps at burst.
        assert!(b.try_take(t(1_000_000)));
        assert!(b.try_take(t(1_000_000)));
        assert!(!b.try_take(t(1_000_000)));
    }

    #[test]
    fn zero_rate_never_refills() {
        let b = TokenBucket::new(0, 1);
        assert!(b.try_take(t(0)));
        assert!(!b.try_take(t(u64::MAX / 2)));
    }

    #[test]
    fn fractional_rates_accumulate_exactly() {
        // ~1/3 token per ns: 9 ns accrue 2.999999997 tokens — floors to 2.
        let b = TokenBucket::new(333_333_333, 3);
        for _ in 0..3 {
            assert!(b.try_take(t(0)));
        }
        assert!(b.try_take(t(9)));
        assert!(b.try_take(t(9)));
        assert!(!b.try_take(t(9)));
    }

    #[test]
    fn queue_pressure_wins_over_rate() {
        let c = AdmissionController::new(&AdmissionConfig {
            rate: 1_000_000,
            burst: 1,
            max_queue: 4,
        });
        assert_eq!(c.admit(t(0), 4), Err(Rejected::QueueFull));
        assert_eq!(c.admit(t(0), 3), Ok(()));
        assert_eq!(c.admit(t(0), 3), Err(Rejected::Throttled));
        assert_eq!(c.admit(t(1_000), 3), Ok(()), "refilled after 1 µs");
    }

    #[test]
    fn unlimited_never_rejects() {
        let c = AdmissionController::new(&AdmissionConfig::unlimited());
        assert!(AdmissionConfig::unlimited().is_unlimited());
        for i in 0..10_000 {
            assert_eq!(c.admit(t(0), i), Ok(()));
        }
    }
}
