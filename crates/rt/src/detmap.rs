//! # DetMap — O(1) point-lookup map for `u64` ids, iteration-free by design
//!
//! The hot paths of the WR lifecycle (`SmartCoro::in_flight`, the
//! completion-hub claim table) only ever *insert*, *probe* and *remove*
//! entries keyed by a dense-ish `u64` id; they never iterate. The seed
//! used `BTreeMap` for those tables, paying `O(log n)` pointer chasing
//! per completion. `DetMap` replaces them with an open-addressed hash
//! table (linear probing, power-of-two capacity, splitmix64-style key
//! mixing) that:
//!
//! * performs all point operations in expected `O(1)`,
//! * exposes **no iteration API at all**, so map order can never leak
//!   into simulation results — the determinism lint's `unordered-iter`
//!   rule has nothing to flag because there is nothing to iterate, and
//! * rebuilds itself on growth with the same deterministic probe
//!   sequence on every host, making behaviour reproducible by
//!   construction (not that order could be observed anyway).
//!
//! Deletion is by backward shift: `remove` re-homes the rest of the probe
//! chain into the hole it leaves, so the table holds live entries only,
//! probe chains never outgrow the live load, and a table whose occupancy
//! stays constant — the WR tables, at one batch per coroutine — never
//! rehashes or allocates again however many fresh ids pass through it.

use crate::rng::mix64;

/// An open-addressed `u64 → V` map with `O(1)` point operations and no
/// iteration surface.
///
/// ```rust
/// use smart_rt::detmap::DetMap;
///
/// let mut m: DetMap<&'static str> = DetMap::new();
/// m.insert(7, "seven");
/// assert_eq!(m.get(&7), Some(&"seven"));
/// assert_eq!(m.remove(&7), Some("seven"));
/// assert!(m.is_empty());
/// ```
pub struct DetMap<V> {
    /// `None` terminates a probe chain; the 7/8 load limit keeps at least
    /// one in the table.
    slots: Vec<Option<(u64, V)>>,
    /// Live entries.
    len: usize,
}

/// Initial capacity on the first insert (power of two).
const INITIAL_CAPACITY: usize = 16;

impl<V> DetMap<V> {
    /// Creates an empty map; no allocation happens until the first insert.
    pub fn new() -> Self {
        DetMap {
            slots: Vec::new(),
            len: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the map holds no live entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Where `key`'s probe chain starts. [`mix64`] spreads sequential
    /// wr_ids across the table instead of clustering them.
    fn home(&self, key: u64) -> usize {
        (mix64(key) as usize) & (self.slots.len() - 1)
    }

    /// Index of the slot holding `key`, or of the first free slot on its
    /// probe chain. The table must have been allocated.
    fn probe(&self, key: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        while self.slots[i].as_ref().is_some_and(|(k, _)| *k != key) {
            i = (i + 1) & mask;
        }
        i
    }

    /// Index of the slot holding `key`, if present.
    fn find(&self, key: u64) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let i = self.probe(key);
        self.slots[i].is_some().then_some(i)
    }

    /// Rebuilds the table at twice the live load, so one more entry fits
    /// within the 7/8 load limit.
    fn grow(&mut self) {
        let cap = ((self.len + 1) * 2)
            .next_power_of_two()
            .max(INITIAL_CAPACITY);
        let old = std::mem::take(&mut self.slots);
        self.slots.resize_with(cap, || None);
        for (k, v) in old.into_iter().flatten() {
            let i = self.probe(k);
            self.slots[i] = Some((k, v));
        }
    }

    /// Inserts `value` under `key`, returning the previous value if the
    /// key was already present.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        let mut i = 0;
        if !self.slots.is_empty() {
            i = self.probe(key);
            if let Some((_, v)) = &mut self.slots[i] {
                return Some(std::mem::replace(v, value));
            }
        }
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow();
            i = self.probe(key);
        }
        self.slots[i] = Some((key, value));
        self.len += 1;
        None
    }

    /// Borrow of the value stored under `key`.
    pub fn get(&self, key: &u64) -> Option<&V> {
        let i = self.find(*key)?;
        self.slots[i].as_ref().map(|(_, v)| v)
    }

    /// Mutable borrow of the value stored under `key`.
    pub fn get_mut(&mut self, key: &u64) -> Option<&mut V> {
        let i = self.find(*key)?;
        self.slots[i].as_mut().map(|(_, v)| v)
    }

    /// True when `key` has a live entry.
    pub fn contains_key(&self, key: &u64) -> bool {
        self.find(*key).is_some()
    }

    /// Removes and returns the value stored under `key`.
    pub fn remove(&mut self, key: &u64) -> Option<V> {
        let mut hole = self.find(*key)?;
        let (_, value) = self.slots[hole].take()?;
        self.len -= 1;
        // Close the hole: walk the rest of the chain and pull back every
        // entry whose own chain passes through the hole, i.e. whose home
        // is at least as far behind it (cyclically) as the hole is.
        let mask = self.slots.len() - 1;
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let Some((k, _)) = &self.slots[i] else {
                return Some(value);
            };
            if i.wrapping_sub(self.home(*k)) & mask >= i.wrapping_sub(hole) & mask {
                self.slots.swap(hole, i);
                hole = i;
            }
        }
    }

    /// Inserts `value` only if `key` is absent, then returns a mutable
    /// borrow of the (old or new) entry — the `entry(..).or_insert(..)`
    /// shape the recovery path needs.
    pub fn get_or_insert_with(&mut self, key: u64, value: impl FnOnce() -> V) -> &mut V {
        if !self.contains_key(&key) {
            self.insert(key, value());
        }
        self.get_mut(&key).expect("entry just ensured")
    }
}

impl<V> Default for DetMap<V> {
    fn default() -> Self {
        DetMap::new()
    }
}

impl<V> std::fmt::Debug for DetMap<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Deliberately summary-only: rendering entries would require
        // iteration, which this type refuses to expose.
        f.debug_struct("DetMap").field("len", &self.len).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m = DetMap::new();
        assert!(m.is_empty());
        for k in 0..100u64 {
            assert_eq!(m.insert(k, k * 3), None);
        }
        assert_eq!(m.len(), 100);
        for k in 0..100u64 {
            assert_eq!(m.get(&k), Some(&(k * 3)));
            assert!(m.contains_key(&k));
        }
        assert_eq!(m.get(&1000), None);
        for k in (0..100u64).step_by(2) {
            assert_eq!(m.remove(&k), Some(k * 3));
        }
        assert_eq!(m.len(), 50);
        for k in 0..100u64 {
            assert_eq!(m.contains_key(&k), k % 2 == 1);
        }
    }

    #[test]
    fn churn_on_fresh_ids_never_grows_the_table() {
        let mut m = DetMap::new();
        for k in 0..8u64 {
            m.insert(k, k);
        }
        let cap = m.slots.len();
        for k in 8..100_000u64 {
            assert_eq!(m.remove(&(k - 8)), Some(k - 8));
            m.insert(k, k);
        }
        assert_eq!(m.slots.len(), cap, "constant occupancy must not rehash");
        assert_eq!(m.len(), 8);
        for k in 99_992..100_000u64 {
            assert_eq!(m.get(&k), Some(&k));
        }
    }

    /// Random operation sequences against `BTreeMap` as the model. The
    /// key space is small, so overwrites, misses and re-inserts are
    /// common; `lo..=hi` bounds the live count.
    fn model_run(seed: u64, steps: usize, keys: u64, lo: usize, hi: usize) -> DetMap<u64> {
        let mut rng = crate::rng::SimRng::new(seed);
        let mut m: DetMap<u64> = DetMap::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for step in 0..steps as u64 {
            let key = rng.next_u64_below(keys).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let present = model.contains_key(&key);
            let op = rng.next_u64_below(4);
            if (op == 0 || model.len() <= lo) && (present || model.len() < hi) {
                assert_eq!(m.insert(key, step), model.insert(key, step));
            } else if op == 1 && (present || model.len() < hi) {
                let got = *m.get_or_insert_with(key, || step);
                assert_eq!(got, *model.entry(key).or_insert(step));
            } else if op == 2 && model.len() > lo {
                assert_eq!(m.remove(&key), model.remove(&key));
            } else if let Some(v) = m.get_mut(&key) {
                *v += 1;
                *model.get_mut(&key).expect("model has every live key") += 1;
            }
            assert_eq!(m.get(&key), model.get(&key));
            assert_eq!(m.contains_key(&key), model.contains_key(&key));
            assert_eq!(m.len(), model.len());
        }
        // Every survivor is still reachable, nothing else is.
        for k in (0..keys).map(|k| k.wrapping_mul(0x9E37_79B9_7F4A_7C15)) {
            assert_eq!(m.get(&k), model.get(&k), "seed {seed} key {k:#x}");
        }
        m
    }

    #[test]
    fn matches_btreemap_on_random_sequences() {
        for seed in 0..32 {
            model_run(seed, 4_000, 200, 0, 200);
        }
    }

    #[test]
    fn matches_btreemap_with_a_16_slot_table_kept_nearly_full() {
        // 13–14 live entries is the most a 16-slot table takes under the
        // 7/8 limit: two or three free slots, so probe chains run the
        // length of the table, wrap its end, and `remove` shifts entries
        // across the wrap.
        for seed in 0..64 {
            let m = model_run(seed, 4_000, 40, 13, 14);
            assert_eq!(m.slots.len(), 16, "seed {seed}");
        }
    }

    #[test]
    fn insert_replaces_and_returns_old() {
        let mut m = DetMap::new();
        assert_eq!(m.insert(9, "a"), None);
        assert_eq!(m.insert(9, "b"), Some("a"));
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(&9), Some(&"b"));
    }

    #[test]
    fn get_or_insert_with_matches_entry_semantics() {
        let mut m: DetMap<u64> = DetMap::new();
        *m.get_or_insert_with(5, || 10) += 1;
        *m.get_or_insert_with(5, || 999) += 1;
        assert_eq!(m.get(&5), Some(&12));
    }

    #[test]
    fn colliding_keys_probe_correctly() {
        // Keys an exact table-capacity apart collide after masking only
        // if the mix fails to spread them; either way probing must keep
        // them distinct.
        let mut m = DetMap::new();
        for k in (0..2048u64).map(|i| i << 32) {
            m.insert(k, k);
        }
        for k in (0..2048u64).map(|i| i << 32) {
            assert_eq!(m.get(&k), Some(&k));
        }
    }

    #[test]
    fn debug_is_summary_only() {
        let mut m = DetMap::new();
        m.insert(1, 1);
        assert_eq!(format!("{m:?}"), "DetMap { len: 1 }");
    }
}
