//! Hierarchical timer wheel: the executor's timer queue.
//!
//! A hashed hierarchical wheel (the classic Varghese–Lauck design, as
//! used by tokio's timer) with a wide first level. Level 0 has 4096
//! one-nanosecond slots, so a timer due inside the cursor's 4096-ns block
//! (in practice: anything less than ≈4 µs ahead) is indexed straight
//! into its own instant and never cascaded. Four upper levels of 64
//! slots follow, a level-`k` slot being `4096 · 64^(k-1)` ns wide.
//! Registration is O(1) — index into a slot, push onto an intrusive LIFO
//! list — and finding the next occupied instant costs a few
//! `trailing_zeros`: level 0 through a two-level bitmap (a summary word
//! over 64 occupancy words), each upper level through one word.
//!
//! # Exact order preservation
//!
//! The executor's schedule is semantically load-bearing: every golden
//! trace in the repo encodes the total order `(at, tie_key, seq)`. The
//! wheel preserves it exactly:
//!
//! - A level-0 bucket holds the timers of exactly one instant. Draining
//!   it moves its entries into `due`, a ring kept sorted by
//!   `(at, key, seq)`, so ties are broken exactly as a global heap breaks
//!   them, for both [`SchedulePolicy`](crate::SchedulePolicy) variants.
//!   Buckets are LIFO, so under `Fifo` every drained entry sorts before
//!   the one drained before it (a push-front), and a timer registered
//!   while its instant fires sorts after its drained peers (a push-back).
//!   Only seeded ties and inserts below a cursor that ran ahead pay a
//!   binary insert.
//! - A timer registered at-or-before the wheel's internal `elapsed`
//!   cursor goes straight into `due`, so same-instant timers registered
//!   *while firing* interleave with already-drained peers in exact tie
//!   order, and a PDES envelope injected below a cursor that
//!   `run_events_before` moved past its limit still fires first.
//! - Upper-level slots cascade: when the cursor reaches a level-`k` slot,
//!   its entries re-index into finer levels. A level-`k` entry lives
//!   inside the cursor's level-`k` block but outside its level-`k - 1`
//!   block, so within one block slot indices never wrap and the lowest
//!   nonempty level always holds the global minimum.
//! - Timers `2^36` ns (~69 s of virtual time) or more ahead go to an
//!   `overflow` min-heap and are promoted block-by-block as the cursor
//!   advances; anything still in overflow is provably later than
//!   everything in the wheel.
//!
//! # Cancellation
//!
//! Timers live in a slab and are addressed by generation-checked
//! [`TimerToken`]s. Dropping a [`Sleep`](crate::executor::Sleep) whose
//! deadline never fired (a `with_timeout` the wrapped future won, a
//! select raced by) cancels its entry: the wake is released immediately
//! and the tombstone is purged — without firing, without advancing
//! virtual time — when the cursor next reaches it.

use std::collections::{BinaryHeap, VecDeque};
use std::task::Waker;

use crate::executor::TaskId;

/// Bits of the deadline indexed by level 0.
const L0_BITS: u32 = 12;
/// Level-0 slots: one per nanosecond of the cursor's 4096-ns block.
const L0_SLOTS: usize = 1 << L0_BITS;
/// Slots per upper level (one 6-bit digit of the deadline per level).
const SLOTS: usize = 64;
/// Bits per upper level.
const LEVEL_BITS: u32 = 6;
/// Number of upper levels; deadlines whose highest bit differing from
/// the cursor is at or above [`HORIZON_BITS`] overflow.
const UPPER: usize = 4;
/// Bits of the deadline the wheel indexes.
const HORIZON_BITS: u32 = L0_BITS + LEVEL_BITS * UPPER as u32;
/// The wheel's horizon in nanoseconds: `2^36`.
const SPAN: u64 = 1 << HORIZON_BITS;
/// Intrusive-list terminator.
const NIL: u32 = u32::MAX;

/// Generation-checked handle to a registered timer; see
/// [`TimerWheel::cancel`]. Stale tokens (the timer already fired, or the
/// slab slot was reused) are detected and ignored.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TimerToken {
    idx: u32,
    gen: u32,
}

/// What a timer resumes when it fires.
pub(crate) enum TimerWake {
    /// A task of the wheel's own executor (a [`Sleep`](crate::executor::Sleep)
    /// polled with its task's context): the executor polls it in place.
    Task(TaskId),
    /// Anything else (`wake_at`, a `Sleep` inside a foreign combinator).
    Waker(Waker),
}

/// What a cancelled (or free) node holds instead: no task has this id.
/// A reserved id rather than an `Option` around the enum keeps the node
/// at the 48 bytes it had with a bare `Option<Waker>` (the option would
/// cost a seventh more memory per pending timer).
const TOMBSTONE: TimerWake = TimerWake::Task(TaskId::MAX);

/// One slab entry. `wake` is [`TOMBSTONE`] once cancelled; the node
/// itself is freed when the cursor reaches it. A live node holds a plain
/// task id for the runtime's own sleeps — no reference count to take at
/// registration or give back at the fire — and a `Waker` only for
/// contexts the executor cannot name.
struct TimerNode {
    at: u64,
    key: u64,
    seq: u64,
    wake: TimerWake,
    gen: u32,
    /// Next node in the bucket chain / free list.
    next: u32,
}

impl TimerNode {
    fn is_live(&self) -> bool {
        !matches!(self.wake, TimerWake::Task(TaskId::MAX))
    }
}

/// A queued timer: `(at, key, seq)` is the executor's total order, the
/// slab index rides along to reach the node.
type Entry = (u64, u64, u64, u32);

pub(crate) struct TimerWheel {
    /// Internal cursor: all wheel entries are strictly later than this,
    /// all `due` entries at-or-earlier. Advances independently of the
    /// simulation clock (it may jump to slot boundaries while seeking).
    elapsed: u64,
    /// Level-0 bucket heads, one per nanosecond of the cursor's block.
    /// Allocated at the first level-0 insert: a `Simulation` that never
    /// sleeps (and every set-up) does not pay for the 16 KiB table.
    l0: Vec<u32>,
    /// One occupancy bit per level-0 slot ...
    l0_occupied: [u64; L0_SLOTS / 64],
    /// ... and one bit per nonzero word of `l0_occupied`.
    l0_summary: u64,
    /// Upper-level bucket heads, `upper[level - 1][slot]`.
    upper: [[u32; SLOTS]; UPPER],
    /// One occupancy bit per slot, per upper level.
    upper_occupied: [u64; UPPER],
    slab: Vec<TimerNode>,
    free: Vec<u32>,
    /// Entries with `at <= elapsed`, sorted by `(at, key, seq)`. Whole
    /// 32-byte entries, not bare slab indices: the ring then regrows in
    /// the byte sizes the old `due` heap did, and with 4-byte indices
    /// `pdes_fanout_w1` read 9.6 MB instead of 6.6 MB `host_peak_rss_mb`
    /// in 7 runs of 10 (glibc's bins, not live memory; SKILL.md).
    due: VecDeque<Entry>,
    /// Entries beyond the wheel's horizon.
    overflow: BinaryHeap<std::cmp::Reverse<Entry>>,
    /// Live (scheduled, not cancelled) timers.
    live: usize,
    /// Timers cancelled before firing (tombstoned).
    pub(crate) cancelled: u64,
    /// Tombstones dropped from the queue without firing.
    pub(crate) purged: u64,
}

impl TimerWheel {
    pub(crate) fn new() -> Self {
        TimerWheel {
            elapsed: 0,
            l0: Vec::new(),
            l0_occupied: [0; L0_SLOTS / 64],
            l0_summary: 0,
            upper: [[NIL; SLOTS]; UPPER],
            upper_occupied: [0; UPPER],
            // Slab, free list and `due` amortise to the high-water mark
            // of live timers, not per event.
            slab: Vec::new(),
            free: Vec::new(),
            due: VecDeque::new(),
            overflow: BinaryHeap::new(),
            live: 0,
            cancelled: 0,
            purged: 0,
        }
    }

    /// Registers a timer; O(1) except for an out-of-order `due` insert
    /// or an overflow heap push. Inlined, like the executor's call, so
    /// the wake travels in registers: a 16-byte enum handed over through
    /// memory stalls the reload on store forwarding, every timer.
    #[inline]
    pub(crate) fn insert(&mut self, at: u64, key: u64, seq: u64, wake: TimerWake) -> TimerToken {
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                assert!(self.slab.len() < NIL as usize, "timer slab exhausted");
                self.slab.push(TimerNode {
                    at: 0,
                    key: 0,
                    seq: 0,
                    wake: TOMBSTONE,
                    gen: 0,
                    next: NIL,
                });
                (self.slab.len() - 1) as u32
            }
        };
        let gen = {
            let node = &mut self.slab[idx as usize];
            node.at = at;
            node.key = key;
            node.seq = seq;
            node.wake = wake;
            node.gen
        };
        self.live += 1;
        self.place(idx, at, key, seq);
        TimerToken { idx, gen }
    }

    /// Routes a node to `due`, a wheel slot or the overflow heap
    /// according to its deadline relative to the cursor. Takes scalars,
    /// not an [`Entry`], for the same store-forwarding reason as `insert`.
    fn place(&mut self, idx: u32, at: u64, key: u64, seq: u64) {
        if at <= self.elapsed {
            self.push_due(idx, at, key, seq);
            return;
        }
        let differ = at ^ self.elapsed;
        if differ < L0_SLOTS as u64 {
            if self.l0.is_empty() {
                self.l0 = vec![NIL; L0_SLOTS];
            }
            let slot = at as usize & (L0_SLOTS - 1);
            self.slab[idx as usize].next = self.l0[slot];
            self.l0[slot] = idx;
            self.l0_occupied[slot / 64] |= 1 << (slot % 64);
            self.l0_summary |= 1 << (slot / 64);
            return;
        }
        let level = ((63 - differ.leading_zeros() - L0_BITS) / LEVEL_BITS) as usize;
        if level >= UPPER {
            self.overflow.push(std::cmp::Reverse((at, key, seq, idx)));
            return;
        }
        let slot = (at >> upper_shift(level)) as usize & (SLOTS - 1);
        self.slab[idx as usize].next = self.upper[level][slot];
        self.upper[level][slot] = idx;
        self.upper_occupied[level] |= 1 << slot;
    }

    /// Inserts into the sorted `due` ring: an append or a push-front in
    /// the common cases, a binary insert otherwise. The new entry is
    /// compared as scalars and built at the push: a tuple compared by
    /// reference lives on the stack and is reloaded wider than stored.
    fn push_due(&mut self, idx: u32, at: u64, key: u64, seq: u64) {
        let due = &mut self.due;
        let before_new = |e: &Entry| (e.0, e.1, e.2) < (at, key, seq);
        match (due.front(), due.back()) {
            (_, None) => due.push_back((at, key, seq, idx)),
            (_, Some(back)) if before_new(back) => due.push_back((at, key, seq, idx)),
            (Some(front), _) if !before_new(front) => due.push_front((at, key, seq, idx)),
            _ => {
                let i = due.partition_point(before_new);
                due.insert(i, (at, key, seq, idx));
            }
        }
    }

    /// Cancels the timer behind `token` if it is still pending. Returns
    /// `true` if a live timer was tombstoned. The wake is dropped
    /// immediately; the node is reclaimed when the cursor reaches it.
    pub(crate) fn cancel(&mut self, token: TimerToken) -> bool {
        let Some(node) = self.slab.get_mut(token.idx as usize) else {
            return false;
        };
        if node.gen != token.gen || !node.is_live() {
            return false; // already fired, purged or cancelled
        }
        node.wake = TOMBSTONE;
        self.live -= 1;
        self.cancelled += 1;
        true
    }

    /// Whether the timer behind `token` has neither fired nor been
    /// cancelled.
    pub(crate) fn is_pending(&self, token: TimerToken) -> bool {
        self.slab
            .get(token.idx as usize)
            .is_some_and(|node| node.gen == token.gen && node.is_live())
    }

    /// Deadline of the next timer that will actually fire, purging any
    /// tombstones that have reached the front.
    pub(crate) fn peek_at(&mut self) -> Option<u64> {
        loop {
            if let Some(&(at, _, _, idx)) = self.due.front() {
                if self.slab[idx as usize].is_live() {
                    return Some(at);
                }
                self.due.pop_front();
                self.release(idx, true);
                continue;
            }
            if !self.advance() {
                return None;
            }
        }
    }

    /// Removes and returns the earliest timer in `(at, key, seq)` order
    /// if it is due at or before `last`: the executor's one call per
    /// timer event.
    pub(crate) fn pop_through(&mut self, last: u64) -> Option<(u64, TimerWake)> {
        let at = self.peek_at().filter(|&at| at <= last)?;
        let (_, _, _, idx) = self.due.pop_front().expect("peeked");
        let wake = std::mem::replace(&mut self.slab[idx as usize].wake, TOMBSTONE);
        self.live -= 1;
        self.release(idx, false);
        Some((at, wake))
    }

    /// Frees a slab node, bumping its generation so outstanding tokens
    /// die. `tombstone` distinguishes a purged cancellation from a fire.
    fn release(&mut self, idx: u32, tombstone: bool) {
        if tombstone {
            self.purged += 1;
        }
        let node = &mut self.slab[idx as usize];
        node.wake = TOMBSTONE;
        node.gen = node.gen.wrapping_add(1);
        self.free.push(idx);
    }

    /// Moves the cursor to the next occupied slot, draining level-0
    /// buckets into `due` and cascading upper levels. Called with `due`
    /// empty; returns `false` when no timers remain anywhere.
    fn advance(&mut self) -> bool {
        loop {
            let head = if self.l0_summary != 0 {
                // Entries sit strictly after the cursor inside its block,
                // so the lowest occupied slot is the next instant.
                let word = self.l0_summary.trailing_zeros() as usize;
                let bit = self.l0_occupied[word].trailing_zeros() as usize;
                self.l0_occupied[word] &= !(1 << bit);
                if self.l0_occupied[word] == 0 {
                    self.l0_summary &= !(1 << word);
                }
                let slot = word * 64 + bit;
                let at = (self.elapsed & !(L0_SLOTS as u64 - 1)) | slot as u64;
                debug_assert!(at > self.elapsed, "level-0 slot behind the cursor");
                self.elapsed = at;
                std::mem::replace(&mut self.l0[slot], NIL)
            } else if let Some(level) = (0..UPPER).find(|&l| self.upper_occupied[l] != 0) {
                let slot = next_slot(self.upper_occupied[level], self.elapsed, level);
                let width = 1u64 << upper_shift(level);
                let block = !(width * SLOTS as u64 - 1);
                let slot_start = (self.elapsed & block) | (slot as u64 * width);
                debug_assert!(slot_start >= self.elapsed, "wheel cursor moved backwards");
                self.elapsed = slot_start;
                self.upper_occupied[level] &= !(1 << slot);
                std::mem::replace(&mut self.upper[level][slot], NIL)
            } else {
                return self.promote_overflow();
            };
            // Re-route the detached bucket: a level-0 bucket drains into
            // `due` (every node has `at == elapsed`), an upper one
            // cascades to finer levels. Tombstones are reclaimed here
            // without firing.
            let mut head = head;
            while head != NIL {
                let node = &self.slab[head as usize];
                let (next, at, key, seq) = (node.next, node.at, node.key, node.seq);
                if node.is_live() {
                    self.place(head, at, key, seq);
                } else {
                    self.release(head, true);
                }
                head = next;
            }
            if !self.due.is_empty() {
                return true;
            }
        }
    }

    /// Promotes every overflow entry in the cursor's current horizon
    /// block into the wheel; jumps the cursor forward when the wheel is
    /// otherwise empty. Returns `false` if there is nothing to promote.
    fn promote_overflow(&mut self) -> bool {
        let Some(&std::cmp::Reverse((at, _, _, _))) = self.overflow.peek() else {
            return false;
        };
        // The wheel and `due` are empty, so jumping the cursor to the
        // head's horizon block cannot skip anything.
        self.elapsed = self.elapsed.max(at & !(SPAN - 1));
        let block = self.elapsed >> HORIZON_BITS;
        while let Some(&std::cmp::Reverse((at, key, seq, idx))) = self.overflow.peek() {
            if at >> HORIZON_BITS != block {
                break;
            }
            self.overflow.pop();
            if self.slab[idx as usize].is_live() {
                self.place(idx, at, key, seq);
            } else {
                self.release(idx, true);
            }
        }
        // Everything promoted may have been a tombstone; the caller's
        // loop re-scans the bitmaps (and re-promotes the next block).
        true
    }

    /// Drops every pending timer (simulation teardown).
    pub(crate) fn clear(&mut self) {
        self.l0.clear();
        self.l0_occupied = [0; L0_SLOTS / 64];
        self.l0_summary = 0;
        self.upper = [[NIL; SLOTS]; UPPER];
        self.upper_occupied = [0; UPPER];
        self.slab.clear();
        self.free.clear();
        self.due.clear();
        self.overflow.clear();
        self.live = 0;
    }

    /// Number of live (uncancelled) pending timers.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.live
    }
}

/// Shift of the deadline digit indexed by upper level `level + 1`.
fn upper_shift(level: usize) -> u32 {
    L0_BITS + LEVEL_BITS * level as u32
}

/// Lowest-index occupied slot at upper level `level + 1`. Within one
/// block the cursor's own slot index is a floor: entries never sit at or
/// below it (they would have indexed into a finer level), so no wrap
/// handling is needed.
fn next_slot(occupied: u64, elapsed: u64, level: usize) -> usize {
    debug_assert_ne!(occupied, 0);
    let slot = occupied.trailing_zeros() as usize;
    debug_assert!(
        slot as u64 >= (elapsed >> upper_shift(level)) & (SLOTS as u64 - 1),
        "occupied slot behind the cursor"
    );
    slot
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::SchedulePolicy;
    use std::collections::BTreeSet;

    fn noop_waker() -> TimerWake {
        TimerWake::Waker(Waker::noop().clone())
    }

    impl TimerWheel {
        fn pop(&mut self) -> Option<(u64, TimerWake)> {
            self.pop_through(u64::MAX)
        }
    }

    #[test]
    fn node_stays_at_48_bytes() {
        assert_eq!(std::mem::size_of::<TimerNode>(), 48);
    }

    fn drain(w: &mut TimerWheel) -> Vec<u64> {
        let mut out = Vec::new();
        while let Some((at, _)) = w.pop() {
            out.push(at);
        }
        out
    }

    #[test]
    fn pops_in_deadline_order_across_levels() {
        let mut w = TimerWheel::new();
        // Deadlines spanning level 0 through overflow, inserted shuffled.
        let deadlines = [
            5u64,
            63,
            64,
            100,
            4_095,
            4_096,
            1 << 20,
            (1 << 36) + 17, // overflow
            3,
            1 << 35,
        ];
        for (i, &at) in deadlines.iter().enumerate() {
            w.insert(at, i as u64, i as u64, noop_waker());
        }
        let mut sorted = deadlines.to_vec();
        sorted.sort_unstable();
        assert_eq!(drain(&mut w), sorted);
    }

    #[test]
    fn ties_pop_in_key_then_seq_order() {
        let mut w = TimerWheel::new();
        // Same deadline, keys inserted out of order.
        for (key, seq) in [(3u64, 0u64), (1, 1), (2, 2), (0, 3)] {
            w.insert(77, key, seq, noop_waker());
        }
        let mut keys = Vec::new();
        while let Some(&(_, key, _, _)) = {
            w.peek_at();
            w.due.front()
        } {
            w.pop();
            keys.push(key);
        }
        assert_eq!(keys, vec![0, 1, 2, 3]);
    }

    #[test]
    fn insert_at_or_before_cursor_goes_due_in_tie_order() {
        let mut w = TimerWheel::new();
        w.insert(50, 5, 0, noop_waker());
        assert_eq!(w.peek_at(), Some(50));
        // Cursor is now at 50; a same-instant insert with a smaller key
        // must still fire before the pending one.
        w.insert(50, 1, 1, noop_waker());
        assert_eq!(w.pop().map(|(at, _)| at), Some(50));
        assert_eq!(w.due.len(), 1, "second same-instant timer is due");
        assert_eq!(w.pop().map(|(at, _)| at), Some(50));
        assert_eq!(w.pop().map(|(at, _)| at), None);
    }

    #[test]
    fn cancel_tombstones_then_purges_without_firing() {
        let mut w = TimerWheel::new();
        let keep = w.insert(10, 0, 0, noop_waker());
        let t = w.insert(20, 1, 1, noop_waker());
        assert!(w.cancel(t));
        assert!(!w.cancel(t), "double-cancel is a no-op");
        assert_eq!(w.live(), 1);
        assert_eq!(drain(&mut w), vec![10], "cancelled timer never fires");
        assert_eq!(w.cancelled, 1);
        assert_eq!(w.purged, 1);
        assert!(!w.cancel(keep), "fired timer's token is stale");
    }

    #[test]
    fn token_generation_survives_slot_reuse() {
        let mut w = TimerWheel::new();
        let t1 = w.insert(5, 0, 0, noop_waker());
        assert_eq!(drain(&mut w), vec![5]);
        // The slab slot is reused for a new timer; the old token must not
        // cancel it.
        let _t2 = w.insert(9, 0, 1, noop_waker());
        assert!(!w.cancel(t1));
        assert_eq!(w.live(), 1);
        assert_eq!(drain(&mut w), vec![9]);
    }

    #[test]
    fn overflow_promotes_block_by_block() {
        let mut w = TimerWheel::new();
        let far = [SPAN + 3, SPAN * 3 + 1, SPAN + 3, 2 * SPAN];
        for (i, &at) in far.iter().enumerate() {
            w.insert(at, i as u64, i as u64, noop_waker());
        }
        w.insert(9, 99, 99, noop_waker());
        let mut sorted = far.to_vec();
        sorted.push(9);
        sorted.sort_unstable();
        assert_eq!(drain(&mut w), sorted);
    }

    #[test]
    fn dense_same_slot_and_wide_spread_interleave_correctly() {
        let mut w = TimerWheel::new();
        let mut expect = Vec::new();
        for i in 0..500u64 {
            let at = (i * 7919) % 100_000; // collisions included
            w.insert(at, i, i, noop_waker());
            expect.push(at);
        }
        expect.sort_unstable();
        assert_eq!(drain(&mut w), expect);
    }

    #[test]
    fn peek_matches_pop_and_purges_dead_heads() {
        let mut w = TimerWheel::new();
        let t = w.insert(30, 0, 0, noop_waker());
        w.insert(40, 1, 1, noop_waker());
        w.cancel(t);
        assert_eq!(w.peek_at(), Some(40), "peek skips the tombstone");
        assert_eq!(w.purged, 1, "peek purged it eagerly");
        assert_eq!(w.pop().map(|(at, _)| at), Some(40));
    }

    /// A deadline `now + delta`, with `delta` drawn so that every level
    /// (0, each upper level, overflow) and exact ties with `now` occur.
    fn draw_delta(rng: &mut SimRng) -> u64 {
        match rng.next_u64_below(9) {
            0 => 0,
            1 => rng.next_u64_below(64),
            2 => rng.next_u64_below(L0_SLOTS as u64),
            3 => rng.next_u64_below(1 << 18),
            4 => rng.next_u64_below(1 << 24),
            5 => rng.next_u64_below(1 << 30),
            6 => rng.next_u64_below(SPAN),
            7 => SPAN + rng.next_u64_below(4 * SPAN),
            _ => rng.next_u64_below(200),
        }
    }

    /// Seeded differential run against an ordered-set model of
    /// `(at, key, seq)`: inserts across every level and overflow, forced
    /// same-instant ties, inserts at or below a cursor that ran ahead of
    /// the clock, cancels (live and stale), and `pop_through` with a
    /// random limit, as `run_events_before` drives it.
    #[test]
    fn matches_an_ordered_set_model() {
        let policies = [SchedulePolicy::Fifo, SchedulePolicy::SeededTieBreak(0x5eed)];
        for policy in policies {
            for seed in 0..6 {
                let mut rng = SimRng::new(seed);
                let mut w = TimerWheel::new();
                let mut model = BTreeSet::new();
                // Every token ever issued, with its model entry: fired and
                // cancelled ones stay here as stale tokens.
                let mut tokens: Vec<(TimerToken, (u64, u64, u64))> = Vec::new();
                let (mut now, mut seq) = (0u64, 0u64);
                for _ in 0..3_000 {
                    match rng.next_u64_below(10) {
                        0..=3 => {
                            let at = match model.iter().nth(rng.next_u64_below(4) as usize) {
                                // A forced tie with a pending deadline.
                                Some(&(at, _, _)) if rng.next_u64_below(3) == 0 => at,
                                _ => now + draw_delta(&mut rng),
                            };
                            let key = policy.tie_key(seq);
                            let token = w.insert(at, key, seq, TimerWake::Task(seq));
                            model.insert((at, key, seq));
                            tokens.push((token, (at, key, seq)));
                            seq += 1;
                        }
                        4 if !tokens.is_empty() => {
                            let pick = rng.next_u64_below(tokens.len() as u64) as usize;
                            let (token, entry) = tokens[pick];
                            assert_eq!(w.cancel(token), model.remove(&entry), "cancel {entry:?}");
                        }
                        _ => {
                            let last = match rng.next_u64_below(4) {
                                0 => u64::MAX,
                                _ => now + draw_delta(&mut rng),
                            };
                            let head = model.first().copied();
                            assert_eq!(w.peek_at(), head.map(|(at, _, _)| at));
                            let got = w.pop_through(last).map(|(at, wake)| match wake {
                                TimerWake::Task(seq) => (at, seq),
                                TimerWake::Waker(_) => unreachable!("only task wakes here"),
                            });
                            let want = head.filter(|&(at, _, _)| at <= last);
                            assert_eq!(got, want.map(|(at, _, seq)| (at, seq)));
                            if let Some(entry) = want {
                                model.remove(&entry);
                                now = entry.0;
                            }
                        }
                    }
                    assert_eq!(w.live(), model.len());
                }
                while let Some(entry) = model.pop_first() {
                    let got = w.pop().map(|(at, wake)| match wake {
                        TimerWake::Task(seq) => (at, seq),
                        TimerWake::Waker(_) => unreachable!(),
                    });
                    assert_eq!(got, Some((entry.0, entry.2)), "{policy:?} seed {seed}");
                }
                assert!(w.pop().is_none());
                assert_eq!(w.cancelled, w.purged, "every tombstone purged");
            }
        }
    }
}
