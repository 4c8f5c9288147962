//! A small O(1) LRU cache used for the MTT/MPT translation cache.
//!
//! Keys are `u64` ids in a [`DetMap`], which has no iteration API, so the
//! table's layout cannot leak into simulation results: eviction order
//! lives in the recency list alone.

use smart_rt::detmap::DetMap;

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Node {
    key: u64,
    prev: usize,
    next: usize,
}

/// Fixed-capacity LRU set: `insert` evicts the least-recently-used key when
/// full, `touch` refreshes recency and reports presence.
///
/// Values are not stored — the simulator only needs presence/absence to
/// decide hit vs. miss.
///
/// ```rust
/// use smart_rnic::lru::LruCache;
///
/// let mut c = LruCache::new(2);
/// c.insert(1);
/// c.insert(2);
/// assert!(c.touch(&1));   // 1 is now most recent
/// c.insert(3);            // evicts 2
/// assert!(!c.touch(&2));
/// assert!(c.touch(&1) && c.touch(&3));
/// ```
#[derive(Debug)]
pub struct LruCache {
    map: DetMap<usize>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl LruCache {
    /// Creates a cache holding at most `capacity` keys.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU capacity must be positive");
        LruCache {
            map: DetMap::new(),
            nodes: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Number of cached keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Maximum number of keys.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Refreshes `key`'s recency; returns whether it was present (a hit).
    pub fn touch(&mut self, key: &u64) -> bool {
        match self.map.get(key) {
            Some(&idx) => {
                if self.head != idx {
                    self.unlink(idx);
                    self.push_front(idx);
                }
                true
            }
            None => false,
        }
    }

    /// Inserts `key` as most-recently-used, evicting the LRU key if the
    /// cache is full. Returns the evicted key, if any.
    pub fn insert(&mut self, key: u64) -> Option<u64> {
        if self.touch(&key) {
            return None;
        }
        let mut evicted = None;
        if self.map.len() == self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            self.unlink(victim);
            let old = self.nodes[victim].key;
            self.map.remove(&old);
            self.free.push(victim);
            evicted = Some(old);
        }
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i] = Node {
                    key,
                    prev: NIL,
                    next: NIL,
                };
                i
            }
            None => {
                self.nodes.push(Node {
                    key,
                    prev: NIL,
                    next: NIL,
                });
                self.nodes.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        evicted
    }

    /// Removes `key`; returns whether it was present.
    pub fn remove(&mut self, key: &u64) -> bool {
        match self.map.remove(key) {
            Some(idx) => {
                self.unlink(idx);
                self.free.push(idx);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_touch() {
        let mut c = LruCache::new(3);
        assert!(c.is_empty());
        c.insert(10);
        c.insert(20);
        assert_eq!(c.len(), 2);
        assert!(c.touch(&10));
        assert!(!c.touch(&99));
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert(1);
        c.insert(2);
        assert!(c.touch(&1));
        let evicted = c.insert(3);
        assert_eq!(evicted, Some(2));
        assert!(c.touch(&1));
        assert!(c.touch(&3));
    }

    #[test]
    fn reinsert_refreshes_without_evicting() {
        let mut c = LruCache::new(2);
        c.insert(1);
        c.insert(2);
        assert_eq!(c.insert(1), None); // refresh, not insert
        assert_eq!(c.insert(3), Some(2));
    }

    #[test]
    fn remove_frees_slot() {
        let mut c = LruCache::new(2);
        c.insert(1);
        c.insert(2);
        assert!(c.remove(&1));
        assert!(!c.remove(&1));
        assert_eq!(c.insert(3), None); // no eviction needed
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn single_slot_cache() {
        let mut c = LruCache::new(1);
        c.insert(1);
        assert_eq!(c.insert(2), Some(1));
        assert!(c.touch(&2));
        assert!(!c.touch(&1));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = LruCache::new(0);
    }

    #[test]
    fn heavy_churn_is_consistent() {
        let mut c = LruCache::new(64);
        for i in 0..10_000u64 {
            c.insert(i % 200);
            assert!(c.len() <= 64);
        }
        // The 64 most recently inserted keys must all be present.
        let mut c2 = LruCache::new(64);
        for i in 0..1000u64 {
            c2.insert(i);
        }
        for i in 936..1000u64 {
            assert!(c2.touch(&i), "key {i} should be cached");
        }
        assert!(!c2.touch(&935));
    }
}
