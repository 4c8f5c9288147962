//! Hierarchical timer wheel: the executor's timer queue.
//!
//! The original executor kept every pending timer in one
//! `BinaryHeap<Reverse<TimerEntry>>`, paying an `O(log n)` sift on every
//! registration and every fire. This module replaces it with a hashed
//! hierarchical wheel (the classic Varghese–Lauck design, as used by
//! tokio's timer): six levels of 64 slots, where a level-`k` slot is
//! `64^k` ns wide. Registration is O(1) — index into a slot, push onto an
//! intrusive list — and firing walks an occupancy bitmap per level, so a
//! pop costs a couple of `trailing_zeros` instead of a heap sift.
//!
//! # Exact order preservation
//!
//! The executor's schedule is semantically load-bearing: every golden
//! trace in the repo encodes the total order `(at, tie_key, seq)`. The
//! wheel preserves it exactly:
//!
//! - Level-0 slots are **1 ns wide**, so one level-0 bucket holds timers
//!   for exactly one timestamp. Draining the bucket moves its entries
//!   into a small `due` heap ordered by `(at, key, seq)` — ties are
//!   broken precisely as the old global heap broke them, for both
//!   [`SchedulePolicy`](crate::SchedulePolicy) variants.
//! - A timer registered at-or-before the wheel's internal `elapsed`
//!   cursor goes straight into the `due` heap, so same-instant timers
//!   registered *while firing* interleave with already-drained peers in
//!   exact tie order.
//! - Higher-level slots cascade: when the cursor reaches a level-`k`
//!   slot, its entries re-index into levels `< k`. A level-`k` entry
//!   lives inside the cursor's `64^(k+1)`-aligned block but outside its
//!   `64^k`-block, so within one block slot indices never wrap and the
//!   lowest nonempty level always holds the global minimum.
//! - Timers more than `64^6` ns (~69 s of virtual time) ahead go to an
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
//! virtual time — when the cursor next reaches it. The old heap kept such
//! entries until their deadline and woke the dead task spuriously.

use std::collections::BinaryHeap;
use std::task::Waker;

use crate::executor::TaskId;

/// Slots per level (one 6-bit digit of the deadline per level).
const SLOTS: usize = 64;
/// Bits per level.
const LEVEL_BITS: u32 = 6;
/// Number of wheel levels; deadlines ≥ `64^LEVELS` ns ahead overflow.
const LEVELS: usize = 6;
/// The wheel's horizon in nanoseconds: `64^LEVELS`.
const SPAN: u64 = 1 << (LEVEL_BITS * LEVELS as u32);
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

/// Min-heap entry: `(at, key, seq)` is the executor's total order, the
/// slab index rides along to reach the node.
type HeapEntry = std::cmp::Reverse<(u64, u64, u64, u32)>;

pub(crate) struct TimerWheel {
    /// Internal cursor: all wheel entries are strictly later than this,
    /// all `due` entries at-or-earlier. Advances independently of the
    /// simulation clock (it may jump to slot boundaries while seeking).
    elapsed: u64,
    /// Bucket heads, `levels[level][slot]`.
    levels: [[u32; SLOTS]; LEVELS],
    /// One occupancy bit per slot, per level.
    occupied: [u64; LEVELS],
    slab: Vec<TimerNode>,
    free: Vec<u32>,
    /// Entries with `at <= elapsed`, in exact `(at, key, seq)` order.
    due: BinaryHeap<HeapEntry>,
    /// Entries beyond the wheel's horizon.
    overflow: BinaryHeap<HeapEntry>,
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
            levels: [[NIL; SLOTS]; LEVELS],
            occupied: [0; LEVELS],
            // Slab and free list amortise to the high-water mark of
            // live timers, not per event.
            slab: Vec::new(),
            free: Vec::new(),
            due: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            live: 0,
            cancelled: 0,
            purged: 0,
        }
    }

    /// Registers a timer; O(1) except for due/overflow heap pushes.
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
            node.next = NIL;
            node.gen
        };
        self.live += 1;
        self.place(idx, at, key, seq);
        TimerToken { idx, gen }
    }

    /// Routes a node to the due heap, a wheel slot or the overflow heap
    /// according to its deadline relative to the cursor.
    fn place(&mut self, idx: u32, at: u64, key: u64, seq: u64) {
        if at <= self.elapsed {
            self.due.push(std::cmp::Reverse((at, key, seq, idx)));
            return;
        }
        let level = level_for(self.elapsed, at);
        if level >= LEVELS {
            self.overflow.push(std::cmp::Reverse((at, key, seq, idx)));
            return;
        }
        let slot = (at >> (LEVEL_BITS * level as u32)) as usize & (SLOTS - 1);
        self.slab[idx as usize].next = self.levels[level][slot];
        self.levels[level][slot] = idx;
        self.occupied[level] |= 1 << slot;
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

    /// Deadline of the next timer that will actually fire, purging any
    /// tombstones that have bubbled to the front.
    pub(crate) fn peek_at(&mut self) -> Option<u64> {
        loop {
            if let Some(&std::cmp::Reverse((at, _, _, idx))) = self.due.peek() {
                if self.slab[idx as usize].is_live() {
                    return Some(at);
                }
                self.due.pop();
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
        let std::cmp::Reverse((_, _, _, idx)) = self.due.pop().expect("peeked");
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
        node.next = NIL;
        self.free.push(idx);
    }

    /// Moves the cursor to the next occupied slot, draining level-0
    /// buckets into `due` and cascading higher levels. Returns `false`
    /// when no timers remain anywhere.
    fn advance(&mut self) -> bool {
        loop {
            let Some(level) = (0..LEVELS).find(|&l| self.occupied[l] != 0) else {
                return self.promote_overflow();
            };
            let slot = next_slot(self.occupied[level], self.elapsed, level);
            let width = 1u64 << (LEVEL_BITS * level as u32);
            let block = !(width * SLOTS as u64 - 1);
            let slot_start = (self.elapsed & block) | (slot as u64 * width);
            debug_assert!(slot_start >= self.elapsed, "wheel cursor moved backwards");
            self.elapsed = slot_start;
            // Detach the whole bucket, then re-route each node: level 0
            // drains into `due` (every node has `at == slot_start`),
            // higher levels cascade to finer levels. Tombstones are
            // reclaimed here without firing.
            let mut head = std::mem::replace(&mut self.levels[level][slot], NIL);
            self.occupied[level] &= !(1 << slot);
            while head != NIL {
                let node = &mut self.slab[head as usize];
                let next = std::mem::replace(&mut node.next, NIL);
                let (at, key, seq) = (node.at, node.key, node.seq);
                if !node.is_live() {
                    self.release(head, true);
                } else {
                    debug_assert!(at >= slot_start && at < slot_start + width * SLOTS as u64);
                    self.place(head, at, key, seq);
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
        // The wheel and due heap are empty, so jumping the cursor to the
        // head's horizon block cannot skip anything.
        self.elapsed = self.elapsed.max(at & !(SPAN - 1));
        let block = self.elapsed >> (LEVEL_BITS * LEVELS as u32);
        while let Some(&std::cmp::Reverse((at, key, seq, idx))) = self.overflow.peek() {
            if at >> (LEVEL_BITS * LEVELS as u32) != block {
                break;
            }
            self.overflow.pop();
            if !self.slab[idx as usize].is_live() {
                self.release(idx, true);
            } else {
                self.place(idx, at, key, seq);
            }
        }
        // Everything promoted may have been a tombstone; the caller's
        // loop re-scans the bitmaps (and re-promotes the next block).
        true
    }

    /// Drops every pending timer (simulation teardown).
    pub(crate) fn clear(&mut self) {
        self.levels = [[NIL; SLOTS]; LEVELS];
        self.occupied = [0; LEVELS];
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

/// The level whose slot width matches the highest differing digit of
/// `elapsed` and `when`; `>= LEVELS` means beyond the horizon.
fn level_for(elapsed: u64, when: u64) -> usize {
    // `| 63` keeps the result in level 0 when only the low digit differs
    // (and avoids `leading_zeros(0)` for the `when == elapsed` edge).
    let masked = (elapsed ^ when) | (SLOTS as u64 - 1);
    ((63 - masked.leading_zeros()) / LEVEL_BITS) as usize
}

/// Lowest-index occupied slot at `level`. Within one block the cursor's
/// own slot index is a floor: entries never sit at or below it (they
/// would have indexed into a finer level), so no wrap handling is needed.
fn next_slot(occupied: u64, elapsed: u64, level: usize) -> usize {
    debug_assert_ne!(occupied, 0);
    let slot = occupied.trailing_zeros() as usize;
    debug_assert!(
        slot as u64 >= (elapsed >> (LEVEL_BITS * level as u32)) & (SLOTS as u64 - 1),
        "occupied slot behind the cursor"
    );
    slot
}

#[cfg(test)]
mod tests {
    use super::*;

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
        while let Some(&std::cmp::Reverse((_, key, _, _))) = {
            w.peek_at();
            w.due.peek()
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
}
