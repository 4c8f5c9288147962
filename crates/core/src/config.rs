//! SMART framework configuration: QP allocation policy, feature toggles
//! and the tuning constants from §4 of the paper.

use std::time::Duration;

/// How RDMA resources (QPs, CQs, doorbells, contexts) are allocated to
/// threads — the four mechanisms compared in §3.1 plus the
/// per-thread-context baseline from §6.3.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QpPolicy {
    /// All threads share a single QP per blade (Infiniswap-style).
    SharedQp,
    /// Connection multiplexing: each QP is shared by `threads_per_qp`
    /// threads (FaRM/LITE-style).
    MultiplexedQp {
        /// Number of threads sharing one QP.
        threads_per_qp: usize,
    },
    /// One QP per thread, driver-default doorbell mapping — different
    /// threads' QPs implicitly share doorbells (the hidden bottleneck).
    PerThreadQp,
    /// One device context per thread (X-RDMA-style): private doorbells,
    /// but every context re-registers local memory, thrashing the MTT/MPT
    /// cache (§2.2, §4.1).
    PerThreadContext,
    /// SMART's thread-aware allocation (§4.1): one shared context, one QP
    /// pool + CQ + dedicated medium-latency doorbell per thread.
    ThreadAwareDoorbell,
}

impl QpPolicy {
    /// Whether threads post to QPs they share with other threads.
    pub fn shares_qps(self) -> bool {
        matches!(self, QpPolicy::SharedQp | QpPolicy::MultiplexedQp { .. })
    }
}

/// Recovery policy for failed work requests (DESIGN.md §5.3).
///
/// Retriable completion errors (RNR rejections, fabric timeouts, flushes
/// from an errored QP, stale registrations after a blade restart) are
/// retried by [`SmartCoro::try_sync`](crate::SmartCoro::try_sync) with the
/// §4.3 truncated exponential backoff between rounds, until the retry
/// budget or deadline runs out. Permanent errors (remote access, length)
/// are never retried. The defaults retry forever — correct for chaos
/// plans that eventually heal; set a budget when the application would
/// rather surface the fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum retry rounds per `sync` before giving up (`None` =
    /// unlimited).
    pub max_retries: Option<u32>,
    /// Virtual-time budget per `sync` across all retries (`None` =
    /// unlimited).
    pub deadline: Option<Duration>,
    /// Cost of tearing an errored QP back to ready-to-send
    /// (RESET → INIT → RTR → RTS handshake).
    pub reconnect_latency: Duration,
    /// Cost of re-registering memory after a blade restart revokes MRs.
    pub reregister_latency: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: None,
            deadline: None,
            reconnect_latency: Duration::from_micros(10),
            reregister_latency: Duration::from_micros(20),
        }
    }
}

impl RetryPolicy {
    /// Caps the retry rounds per `sync`.
    #[must_use]
    pub fn with_max_retries(mut self, n: u32) -> Self {
        self.max_retries = Some(n);
        self
    }

    /// Caps the virtual time spent recovering per `sync`.
    #[must_use]
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }
}

/// Full framework configuration.
///
/// Use the builder-style `with_*`/`enable_*` methods; the default is the
/// paper's strongest baseline (per-thread QP, every SMART technique off):
///
/// ```rust
/// use smart::{QpPolicy, SmartConfig};
///
/// let cfg = SmartConfig::smart_full(96);
/// assert_eq!(cfg.policy, QpPolicy::ThreadAwareDoorbell);
/// assert!(cfg.work_req_throttle && cfg.conflict_backoff);
/// let base = SmartConfig::default();
/// assert_eq!(base.policy, QpPolicy::PerThreadQp);
/// ```
#[derive(Clone, Debug)]
pub struct SmartConfig {
    /// Resource allocation policy.
    pub policy: QpPolicy,
    /// Adaptive work-request throttling (§4.2, Algorithm 1).
    pub work_req_throttle: bool,
    /// Truncated exponential backoff on failed CAS (§4.3).
    pub conflict_backoff: bool,
    /// Dynamic adjustment of the backoff limit `t_max` (§4.3).
    pub dynamic_backoff_limit: bool,
    /// Credit-based coroutine (concurrency-depth) throttling (§4.3).
    pub coroutine_throttle: bool,

    /// Number of threads the application will create (sizes the doorbell
    /// table for [`QpPolicy::ThreadAwareDoorbell`]).
    pub expected_threads: usize,
    /// Coroutines per thread (the paper's default concurrency depth is 8).
    pub coroutines_per_thread: usize,
    /// Bytes of local (compute-side) memory registered as MRs.
    pub local_mr_bytes: u64,

    /// Initial maximum credit `C_max` (outstanding WRs per thread).
    pub initial_c_max: i64,
    /// Candidate `C_max` values probed in the update phase (Algorithm 1
    /// line 17).
    pub c_max_candidates: Vec<i64>,
    /// Probe interval Δ per candidate (8 ms in the paper).
    pub probe_interval: Duration,
    /// Stable-phase epochs: the stable phase lasts `stable_epochs × Δ`
    /// (60 × 8 ms = 480 ms in the paper).
    pub stable_epochs: u32,

    /// CPU frequency used to convert backoff cycles to time (GHz).
    pub cpu_ghz: f64,
    /// Backoff unit `t0` in cycles (4096 ≈ one RDMA roundtrip).
    pub t0_cycles: u64,
    /// Longest allowed backoff `t_M = t_m_factor × t0` (2^10 by default).
    pub t_m_factor: u64,
    /// Fixed `t_max` (in units of `t0`) used when
    /// [`Self::dynamic_backoff_limit`] is off but backoff is on.
    pub fixed_t_max_units: u64,
    /// High watermark γ_H on the retry rate.
    pub gamma_high: f64,
    /// Low watermark γ_L on the retry rate.
    pub gamma_low: f64,
    /// Retry-rate sampling interval (1 ms in the paper).
    pub gamma_interval: Duration,

    /// CPU cost of building one work request.
    pub cpu_build_wr: Duration,
    /// Fixed CPU cost of a `post_send` call (descriptor bookkeeping).
    pub cpu_post_overhead: Duration,
    /// CPU cost of one `ibv_poll_cq` call in the polling coroutine.
    pub cpu_poll: Duration,
    /// CPU cost of handling one polled completion.
    pub cpu_per_cqe: Duration,

    /// Recovery policy for failed work requests (DESIGN.md §5.3).
    pub retry: RetryPolicy,
}

impl Default for SmartConfig {
    fn default() -> Self {
        SmartConfig {
            policy: QpPolicy::PerThreadQp,
            work_req_throttle: false,
            conflict_backoff: false,
            dynamic_backoff_limit: false,
            coroutine_throttle: false,

            expected_threads: 1,
            coroutines_per_thread: 8,
            local_mr_bytes: 64 * 1024 * 1024,

            initial_c_max: 8,
            c_max_candidates: vec![4, 6, 8, 10, 12],
            probe_interval: Duration::from_millis(8),
            stable_epochs: 60,

            cpu_ghz: 2.4,
            t0_cycles: 4096,
            t_m_factor: 1024,
            fixed_t_max_units: 16,
            gamma_high: 0.5,
            gamma_low: 0.1,
            gamma_interval: Duration::from_millis(1),

            cpu_build_wr: Duration::from_nanos(40),
            cpu_post_overhead: Duration::from_nanos(150),
            cpu_poll: Duration::from_nanos(80),
            cpu_per_cqe: Duration::from_nanos(30),

            retry: RetryPolicy::default(),
        }
    }
}

impl SmartConfig {
    /// The paper's full SMART configuration: thread-aware allocation +
    /// work-request throttling + conflict avoidance, for `threads`
    /// application threads.
    pub fn smart_full(threads: usize) -> Self {
        SmartConfig {
            policy: QpPolicy::ThreadAwareDoorbell,
            work_req_throttle: true,
            conflict_backoff: true,
            dynamic_backoff_limit: true,
            coroutine_throttle: true,
            expected_threads: threads,
            ..Default::default()
        }
    }

    /// A baseline configuration with the given policy and everything else
    /// off (how RACE/FORD/Sherman allocate resources).
    pub fn baseline(policy: QpPolicy, threads: usize) -> Self {
        SmartConfig {
            policy,
            expected_threads: threads,
            ..Default::default()
        }
    }

    /// Sets the allocation policy.
    pub fn with_policy(mut self, policy: QpPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the per-thread coroutine count (concurrency depth).
    pub fn with_depth(mut self, depth: usize) -> Self {
        self.coroutines_per_thread = depth;
        self
    }

    /// Enables/disables adaptive work-request throttling (§4.2).
    pub fn with_work_req_throttle(mut self, on: bool) -> Self {
        self.work_req_throttle = on;
        self
    }

    /// Sets the fault-recovery retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// `t0` as a duration.
    pub fn t0(&self) -> Duration {
        Duration::from_nanos((self.t0_cycles as f64 / self.cpu_ghz) as u64)
    }

    /// `t_M` (the hard ceiling on `t_max`) as a duration.
    pub fn t_m(&self) -> Duration {
        self.t0() * self.t_m_factor as u32
    }

    /// The fixed `t_max` used when the dynamic limit is disabled.
    pub fn fixed_t_max(&self) -> Duration {
        self.t0() * self.fixed_t_max_units as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t0_matches_paper_roundtrip() {
        let cfg = SmartConfig::default();
        // 4096 cycles at 2.4 GHz ≈ 1.71 µs, "close to an RDMA roundtrip".
        let t0 = cfg.t0();
        assert!((t0.as_nanos() as i64 - 1706).abs() < 5, "t0 = {t0:?}");
    }

    #[test]
    fn t_m_is_1024_t0() {
        let cfg = SmartConfig::default();
        assert_eq!(cfg.t_m(), cfg.t0() * 1024);
        // ≈ 1.6–1.75 ms, the paper's skewed-workload convergence point.
        assert!(cfg.t_m() > Duration::from_micros(1_500));
    }

    #[test]
    fn policy_sharing_classification() {
        assert!(QpPolicy::SharedQp.shares_qps());
        assert!(QpPolicy::MultiplexedQp { threads_per_qp: 4 }.shares_qps());
        assert!(!QpPolicy::PerThreadQp.shares_qps());
        assert!(!QpPolicy::ThreadAwareDoorbell.shares_qps());
        assert!(!QpPolicy::PerThreadContext.shares_qps());
    }

    #[test]
    fn smart_full_enables_everything() {
        let cfg = SmartConfig::smart_full(48);
        assert!(cfg.work_req_throttle);
        assert!(cfg.conflict_backoff);
        assert!(cfg.dynamic_backoff_limit);
        assert!(cfg.coroutine_throttle);
        assert_eq!(cfg.expected_threads, 48);
    }

    #[test]
    fn retry_policy_defaults_to_unlimited() {
        let r = RetryPolicy::default();
        assert_eq!(r.max_retries, None);
        assert_eq!(r.deadline, None);
        let bounded = r
            .with_max_retries(3)
            .with_deadline(Duration::from_millis(1));
        assert_eq!(bounded.max_retries, Some(3));
        assert_eq!(bounded.deadline, Some(Duration::from_millis(1)));
    }

    #[test]
    fn builders_compose() {
        let cfg = SmartConfig::baseline(QpPolicy::PerThreadQp, 8)
            .with_depth(16)
            .with_work_req_throttle(true);
        assert_eq!(cfg.coroutines_per_thread, 16);
        assert!(cfg.work_req_throttle);
        assert!(!cfg.conflict_backoff);
    }
}
