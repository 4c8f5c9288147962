//! Doorbell registers (UARs) and the driver's QP→doorbell mapping.
//!
//! Doorbells are the hidden contention point SMART §3.1 identifies: the
//! mlx5 driver protects each doorbell with a spinlock, and its **default
//! mapping assigns QPs to doorbells round-robin**, so QPs owned by
//! *different threads* can share a doorbell (Figure 2b). Each device
//! context gets 4 low-latency doorbells (one QP each) and 12
//! medium-latency doorbells (shared) unless raised via the
//! `MLX5_TOTAL_UUARS`-style override.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Duration;

use smart_rt::sync::ContendedLock;
use smart_rt::SimHandle;
use smart_trace::Actor;

use crate::config::RnicConfig;

/// Latency class of a doorbell register (Figure 2a).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DoorbellKind {
    /// Dedicated to a single QP.
    LowLatency,
    /// Shared by multiple QPs, round-robin.
    Medium,
}

/// One doorbell register: an MMIO word protected by a driver spinlock.
pub struct Doorbell {
    index: usize,
    kind: DoorbellKind,
    lock: ContendedLock,
    mmio: Duration,
    qps: Cell<u32>,
    rings: Cell<u64>,
    last_owner: Cell<u64>,
    multi_owner: Cell<bool>,
}

impl std::fmt::Debug for Doorbell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Doorbell")
            .field("index", &self.index)
            .field("kind", &self.kind)
            .field("qps", &self.qps.get())
            .field("rings", &self.rings.get())
            .finish()
    }
}

impl Doorbell {
    pub(crate) fn new(
        handle: SimHandle,
        index: usize,
        kind: DoorbellKind,
        cfg: &RnicConfig,
    ) -> Rc<Self> {
        Rc::new(Doorbell {
            index,
            kind,
            lock: ContendedLock::new(handle, cfg.db_handoff, cfg.db_penalty_cap),
            mmio: cfg.db_mmio,
            qps: Cell::new(0),
            rings: Cell::new(0),
            last_owner: Cell::new(u64::MAX),
            multi_owner: Cell::new(false),
        })
    }

    /// This doorbell's index within its device context.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Latency class.
    pub fn kind(&self) -> DoorbellKind {
        self.kind
    }

    /// Number of QPs currently bound to this doorbell.
    pub fn bound_qps(&self) -> u32 {
        self.qps.get()
    }

    pub(crate) fn bind_qp(&self) {
        self.qps.set(self.qps.get() + 1);
    }

    /// Rings the doorbell: acquires the driver spinlock and performs the
    /// MMIO write. Contention with *other threads'* QPs on the same
    /// doorbell is charged here; `owner_tag` identifies the posting
    /// thread so its own back-to-back posts only serialize, never pay the
    /// cross-core handoff penalty.
    pub async fn ring(&self, owner_tag: u64) {
        self.ring_as(Actor::thread(owner_tag)).await;
    }

    /// Like [`Self::ring`] with `actor.tid` as the owner tag; the doorbell
    /// lock section is recorded as a `db_lock` span labelled `"doorbell"`
    /// on the installed tracer.
    pub async fn ring_as(&self, actor: Actor) {
        self.rings.set(self.rings.get() + 1);
        let last = self.last_owner.replace(actor.tid);
        if last != u64::MAX && last != actor.tid {
            self.multi_owner.set(true);
        }
        self.lock.exec_as(self.mmio, actor, "doorbell").await;
    }

    /// Whether rings from more than one owner (thread) were observed —
    /// the §3.1 red flag that thread-aware allocation eliminates.
    pub fn cross_thread(&self) -> bool {
        self.multi_owner.get()
    }

    /// Total rings so far.
    pub fn rings(&self) -> u64 {
        self.rings.get()
    }

    /// Time lost to spinlock queueing/handoff on this doorbell — the
    /// `pthread_spin_lock` overhead the paper profiles (74 % of execution
    /// time at 96 threads with per-thread QPs).
    pub fn contention_time(&self) -> Duration {
        self.lock.contention_time()
    }
}

/// The doorbell table of one device context, with the driver's default
/// round-robin binding policy and SMART's explicit binding.
pub struct DoorbellTable {
    doorbells: Vec<Rc<Doorbell>>,
    low: u32,
    next_qp: Cell<u32>,
}

impl std::fmt::Debug for DoorbellTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DoorbellTable")
            .field("doorbells", &self.doorbells.len())
            .field("low_latency", &self.low)
            .finish()
    }
}

/// How a QP picks its doorbell at creation time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DoorbellBinding {
    /// The driver's round-robin default (Figure 2b): the first
    /// `uar_low_latency` QPs get dedicated low-latency doorbells, the rest
    /// stripe across the medium-latency doorbells.
    DriverDefault,
    /// Bind to the doorbell at this index — SMART's thread-aware
    /// allocation: deterministic driver behaviour lets the framework know
    /// (and here choose) the doorbell before creating the QP (§4.1).
    Explicit(usize),
}

impl DoorbellTable {
    pub(crate) fn new(handle: &SimHandle, cfg: &RnicConfig) -> Self {
        // Table built once per device context.
        let mut doorbells = Vec::new();
        for i in 0..cfg.uar_low_latency {
            doorbells.push(Doorbell::new(
                handle.clone(),
                i as usize,
                DoorbellKind::LowLatency,
                cfg,
            ));
        }
        for i in 0..cfg.uar_medium {
            doorbells.push(Doorbell::new(
                handle.clone(),
                (cfg.uar_low_latency + i) as usize,
                DoorbellKind::Medium,
                cfg,
            ));
        }
        DoorbellTable {
            doorbells,
            low: cfg.uar_low_latency,
            next_qp: Cell::new(0),
        }
    }

    /// Total doorbells in this context.
    pub fn len(&self) -> usize {
        self.doorbells.len()
    }

    /// Whether the context has no doorbells (never true in practice).
    pub fn is_empty(&self) -> bool {
        self.doorbells.is_empty()
    }

    /// The doorbell at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn get(&self, index: usize) -> Rc<Doorbell> {
        Rc::clone(&self.doorbells[index])
    }

    /// Index of the first medium-latency doorbell.
    pub fn first_medium(&self) -> usize {
        self.low as usize
    }

    /// Assigns a doorbell for the next created QP under `binding`.
    pub(crate) fn assign(&self, binding: DoorbellBinding) -> Rc<Doorbell> {
        let db = match binding {
            DoorbellBinding::Explicit(idx) => self.get(idx),
            DoorbellBinding::DriverDefault => {
                let n = self.next_qp.get();
                self.next_qp.set(n + 1);
                let idx = if n < self.low {
                    n as usize
                } else {
                    let medium = (self.doorbells.len() as u32 - self.low).max(1);
                    (self.low + (n - self.low) % medium) as usize
                };
                self.get(idx)
            }
        };
        db.bind_qp();
        db
    }

    /// All doorbells (for diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = &Rc<Doorbell>> {
        self.doorbells.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smart_rt::Simulation;

    fn table(medium: u32) -> (Simulation, DoorbellTable) {
        let sim = Simulation::new(0);
        let cfg = RnicConfig::default().with_uars(medium);
        let t = DoorbellTable::new(&sim.handle(), &cfg);
        (sim, t)
    }

    #[test]
    fn default_table_shape_matches_figure2() {
        let (_sim, t) = table(12);
        assert_eq!(t.len(), 16);
        assert_eq!(t.get(0).kind(), DoorbellKind::LowLatency);
        assert_eq!(t.get(3).kind(), DoorbellKind::LowLatency);
        assert_eq!(t.get(4).kind(), DoorbellKind::Medium);
        assert_eq!(t.first_medium(), 4);
    }

    #[test]
    fn driver_default_round_robins_over_medium() {
        let (_sim, t) = table(12);
        // First 4 QPs -> dedicated low-latency doorbells.
        for i in 0..4 {
            let db = t.assign(DoorbellBinding::DriverDefault);
            assert_eq!(db.index(), i);
            assert_eq!(db.kind(), DoorbellKind::LowLatency);
        }
        // Next QPs stripe across the 12 medium doorbells.
        let mut indices = Vec::new();
        for _ in 0..24 {
            indices.push(t.assign(DoorbellBinding::DriverDefault).index());
        }
        assert_eq!(&indices[..12], &(4..16).collect::<Vec<_>>()[..]);
        assert_eq!(&indices[12..], &(4..16).collect::<Vec<_>>()[..]);
        // Medium doorbells are now shared by 2 QPs each.
        assert_eq!(t.get(5).bound_qps(), 2);
    }

    #[test]
    fn explicit_binding_targets_requested_doorbell() {
        let (_sim, t) = table(96);
        let db = t.assign(DoorbellBinding::Explicit(40));
        assert_eq!(db.index(), 40);
        assert_eq!(db.bound_qps(), 1);
    }

    #[test]
    fn ring_counts_and_contends() {
        let (mut sim, t) = table(12);
        let db = t.get(4);
        let db2 = Rc::clone(&db);
        let db3 = Rc::clone(&db);
        sim.spawn(async move { db2.ring(1).await });
        sim.spawn(async move { db3.ring(2).await });
        sim.run();
        assert_eq!(db.rings(), 2);
        // Second ring waited behind the first and paid a handoff penalty.
        assert!(db.contention_time() > Duration::ZERO);
    }

    #[test]
    fn with_96_qps_medium_doorbells_host_8_each() {
        let (_sim, t) = table(12);
        for _ in 0..96 {
            t.assign(DoorbellBinding::DriverDefault);
        }
        let shares: Vec<u32> = (4..16).map(|i| t.get(i).bound_qps()).collect();
        // 92 QPs over 12 medium doorbells: 8 doorbells with 8 QPs, 4 with 7.
        assert_eq!(shares.iter().sum::<u32>(), 92);
        assert!(shares.iter().all(|&s| s == 7 || s == 8));
    }
}
