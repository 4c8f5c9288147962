//! The Sherman-style disaggregated B+Tree.
//!
//! Compute blades cache internal nodes (index cache) and fetch leaves
//! with single 1 KB READs — the read-amplified, bandwidth-bound baseline.
//! Writers lock a leaf via [`HoclTable`], modify it and WRITE it back
//! (in-place 16 B entry WRITEs for pure value updates, thanks to the
//! per-cacheline atomicity Sherman+ relies on). Splits use the B-link
//! discipline: the right sibling is published before the parent learns
//! about it, so concurrent readers reach moved keys through sibling
//! pointers.
//!
//! **Speculative lookup** (the SMART-BT addition, §5.2): clients remember
//! `key → (leaf, entry index)` and first try a 16 B entry READ, validated
//! by comparing the fetched key; on mismatch they fall back to the full
//! leaf-read path. This converts lookups from bandwidth-bound (1 KB per
//! lookup) to IOPS-bound (16 B per lookup).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use smart::{FaultError, SmartCoro};
use smart_rnic::{MemoryBlade, RemoteAddr};
use smart_rt::metrics::Counter;

use crate::hocl::HoclTable;
use crate::node::{pack_addr, unpack_addr, Node, INF_KEY, NODE_BYTES, NO_SIBLING};

/// Tree configuration: which Sherman/SMART-BT features are on.
#[derive(Clone, Debug)]
pub struct ShermanConfig {
    /// Hierarchical on-chip locks (Sherman's contribution; off = naive
    /// remote CAS spinning).
    pub hocl: bool,
    /// Local handovers before a forced remote release.
    pub hocl_handover_cap: u32,
    /// Speculative lookup (SMART-BT's fast path).
    pub speculative: bool,
    /// Capacity of the speculative key→address cache ("each compute blade
    /// stores a *small* cache", §5.2). FIFO eviction.
    pub spec_cache_entries: usize,
    /// Bound on traversal restarts before declaring corruption.
    pub max_restarts: u32,
}

impl Default for ShermanConfig {
    fn default() -> Self {
        ShermanConfig {
            hocl: true,
            hocl_handover_cap: 64,
            speculative: false,
            spec_cache_entries: 64 * 1024,
            max_restarts: 64,
        }
    }
}

impl ShermanConfig {
    /// Sherman+ with speculative lookup (the paper's "Sherman+ w/ SL" and
    /// the data-structure half of SMART-BT).
    pub fn with_speculative_lookup() -> Self {
        ShermanConfig {
            speculative: true,
            ..Default::default()
        }
    }
}

/// Tree operation counters.
#[derive(Clone, Debug, Default)]
pub struct ShermanStats {
    /// Lookup operations.
    pub lookups: Counter,
    /// Insert/update operations.
    pub inserts: Counter,
    /// In-place 16 B entry writes (value updates).
    pub inplace_updates: Counter,
    /// Leaf splits.
    pub splits: Counter,
    /// Whole-leaf (1 KB) READs.
    pub leaf_reads: Counter,
    /// Speculative fast-path attempts.
    pub spec_attempts: Counter,
    /// Speculative fast-path hits.
    pub spec_hits: Counter,
    /// Internal-node fetches over RDMA (index-cache misses).
    pub index_fetches: Counter,
}

/// The client handle: index cache + speculative cache + lock table.
/// One per compute node; threads of the node share it.
pub struct ShermanTree {
    cfg: ShermanConfig,
    blades: Vec<Rc<MemoryBlade>>,
    root_ptr: RemoteAddr,
    cached_root: Cell<(u64, u16)>, // (packed addr, level); 0 = unset
    index_cache: RefCell<BTreeMap<u64, Node>>,
    spec: RefCell<BTreeMap<u64, (u64, u16)>>,
    spec_fifo: RefCell<std::collections::VecDeque<u64>>,
    hocl: HoclTable,
    next_blade: Cell<usize>,
    stats: ShermanStats,
}

impl std::fmt::Debug for ShermanTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShermanTree")
            .field("root", &self.cached_root.get())
            .field("cached_internals", &self.index_cache.borrow().len())
            .finish()
    }
}

impl ShermanTree {
    /// Creates an empty tree on the blades (root pointer slot + one empty
    /// root leaf) and returns the first client handle.
    pub fn create(blades: &[Rc<MemoryBlade>], cfg: ShermanConfig) -> Rc<Self> {
        assert!(!blades.is_empty(), "need at least one memory blade");
        let root_ptr = RemoteAddr::new(blades[0].id(), blades[0].alloc(8, 8));
        let tree = Self::attach(blades, cfg, root_ptr);
        let leaf_addr = tree.alloc_node();
        let leaf = Node::new_leaf(0, INF_KEY);
        tree.write_node_direct(leaf_addr, &leaf);
        blades[0].write_u64(root_ptr.offset_bytes, pack_addr(leaf_addr));
        tree.cached_root.set((pack_addr(leaf_addr), 0));
        tree
    }

    /// Attaches another client (e.g. a second compute node) to an
    /// existing tree via its root-pointer address.
    pub fn attach(
        blades: &[Rc<MemoryBlade>],
        cfg: ShermanConfig,
        root_ptr: RemoteAddr,
    ) -> Rc<Self> {
        Rc::new(ShermanTree {
            hocl: HoclTable::new(cfg.hocl, cfg.hocl_handover_cap),
            cfg,
            blades: blades.to_vec(),
            root_ptr,
            cached_root: Cell::new((0, 0)),
            index_cache: RefCell::new(BTreeMap::new()),
            spec: RefCell::new(BTreeMap::new()),
            spec_fifo: RefCell::new(std::collections::VecDeque::new()),
            next_blade: Cell::new(0),
            stats: ShermanStats::default(),
        })
    }

    /// The root-pointer address (share it with [`ShermanTree::attach`]).
    pub fn root_ptr(&self) -> RemoteAddr {
        self.root_ptr
    }

    /// Tree statistics.
    pub fn stats(&self) -> &ShermanStats {
        &self.stats
    }

    fn blade(&self, addr: RemoteAddr) -> &Rc<MemoryBlade> {
        self.blades
            .iter()
            .find(|b| b.id() == addr.blade)
            .expect("address on a known blade")
    }

    fn alloc_node(&self) -> RemoteAddr {
        let i = self.next_blade.get();
        self.next_blade.set((i + 1) % self.blades.len());
        RemoteAddr::new(self.blades[i].id(), self.blades[i].alloc(NODE_BYTES, 8))
    }

    // --- host-side node I/O (load phase) ---------------------------------

    fn read_node_direct(&self, addr: RemoteAddr) -> Node {
        Node::decode(&self.blade(addr).read_bytes(addr.offset_bytes, NODE_BYTES))
    }

    fn write_node_direct(&self, addr: RemoteAddr, node: &Node) {
        self.blade(addr)
            .write_bytes(addr.offset_bytes, &node.encode());
    }

    // --- RDMA node I/O ----------------------------------------------------

    async fn read_node(&self, coro: &SmartCoro, addr: RemoteAddr) -> Node {
        self.try_read_node(coro, addr)
            .await
            .unwrap_or_else(|e| panic!("{e}"))
    }

    async fn try_read_node(&self, coro: &SmartCoro, addr: RemoteAddr) -> Result<Node, FaultError> {
        Ok(Node::decode(
            &coro.try_read_sync(addr, NODE_BYTES as u32).await?,
        ))
    }

    async fn write_node(&self, coro: &SmartCoro, addr: RemoteAddr, node: &Node) {
        coro.write_sync(addr, node.encode()).await;
    }

    async fn write_entry(
        &self,
        coro: &SmartCoro,
        addr: RemoteAddr,
        idx: usize,
        key: u64,
        value: u64,
    ) {
        let mut buf = Vec::with_capacity(16);
        buf.extend_from_slice(&key.to_le_bytes());
        buf.extend_from_slice(&value.to_le_bytes());
        coro.write_sync(addr.offset(Node::entry_offset(idx)), buf)
            .await;
    }

    // --- root & index cache ----------------------------------------------

    async fn root(&self, coro: &SmartCoro) -> (u64, u16) {
        self.try_root(coro).await.unwrap_or_else(|e| panic!("{e}"))
    }

    async fn try_root(&self, coro: &SmartCoro) -> Result<(u64, u16), FaultError> {
        let cached = self.cached_root.get();
        if cached.0 != 0 {
            return Ok(cached);
        }
        self.try_refresh_root(coro).await
    }

    async fn refresh_root(&self, coro: &SmartCoro) -> (u64, u16) {
        self.try_refresh_root(coro)
            .await
            .unwrap_or_else(|e| panic!("{e}"))
    }

    async fn try_refresh_root(&self, coro: &SmartCoro) -> Result<(u64, u16), FaultError> {
        let data = coro.try_read_sync(self.root_ptr, 8).await?;
        let packed = u64::from_le_bytes(data.try_into().expect("8B root pointer"));
        let node = self.try_read_node(coro, unpack_addr(packed)).await?;
        let level = node.level;
        if level > 0 {
            self.index_cache.borrow_mut().insert(packed, node);
        }
        self.cached_root.set((packed, level));
        Ok((packed, level))
    }

    async fn try_internal(&self, coro: &SmartCoro, packed: u64) -> Result<Node, FaultError> {
        if let Some(n) = self.index_cache.borrow().get(&packed) {
            return Ok(n.clone());
        }
        self.stats.index_fetches.incr();
        let node = self.try_read_node(coro, unpack_addr(packed)).await?;
        if node.level > 0 {
            self.index_cache.borrow_mut().insert(packed, node.clone());
        }
        Ok(node)
    }

    fn cache_put(&self, packed: u64, node: &Node) {
        if node.level > 0 {
            self.index_cache.borrow_mut().insert(packed, node.clone());
        }
    }

    fn cache_evict(&self, packed: u64) {
        self.index_cache.borrow_mut().remove(&packed);
    }

    /// Remembers `key → (leaf, index)` in the bounded speculative cache.
    fn spec_insert(&self, key: u64, leaf_packed: u64, idx: u16) {
        let mut spec = self.spec.borrow_mut();
        let mut fifo = self.spec_fifo.borrow_mut();
        if spec.insert(key, (leaf_packed, idx)).is_none() {
            fifo.push_back(key);
            while spec.len() > self.cfg.spec_cache_entries {
                // FIFO victim; stale deque entries (already evicted or
                // re-inserted) just fall through.
                match fifo.pop_front() {
                    Some(victim) => {
                        spec.remove(&victim);
                    }
                    None => break,
                }
            }
        }
    }

    /// Walks the cached index down to `target_level`, returning the
    /// packed address of the covering node at that level.
    async fn find_at_level(&self, coro: &SmartCoro, key: u64, target_level: u16) -> u64 {
        self.try_find_at_level(coro, key, target_level)
            .await
            .unwrap_or_else(|e| panic!("{e}"))
    }

    async fn try_find_at_level(
        &self,
        coro: &SmartCoro,
        key: u64,
        target_level: u16,
    ) -> Result<u64, FaultError> {
        let mut restarts = 0u32;
        'outer: loop {
            let (mut packed, root_level) = self.try_root(coro).await?;
            if root_level == target_level {
                return Ok(packed);
            }
            assert!(
                root_level > target_level,
                "tree of height {root_level} has no level {target_level}"
            );
            loop {
                let mut node = self.try_internal(coro, packed).await?;
                if node.level == target_level {
                    return Ok(packed);
                }
                if !node.covers(key) {
                    // Stale cache: refetch once, then B-link walk, then
                    // restart from a refreshed root.
                    self.cache_evict(packed);
                    node = self.try_internal(coro, packed).await?;
                    if !node.covers(key) {
                        if key >= node.high_fence && node.sibling != NO_SIBLING {
                            packed = node.sibling;
                            continue;
                        }
                        restarts += 1;
                        assert!(
                            restarts <= self.cfg.max_restarts,
                            "traversal live-lock: tree corrupted?"
                        );
                        self.try_refresh_root(coro).await?;
                        continue 'outer;
                    }
                }
                packed = node.route(key);
            }
        }
    }

    async fn traverse_to_leaf(&self, coro: &SmartCoro, key: u64) -> RemoteAddr {
        unpack_addr(self.find_at_level(coro, key, 0).await)
    }

    async fn try_traverse_to_leaf(
        &self,
        coro: &SmartCoro,
        key: u64,
    ) -> Result<RemoteAddr, FaultError> {
        Ok(unpack_addr(self.try_find_at_level(coro, key, 0).await?))
    }

    // --- lookups -----------------------------------------------------------

    /// Looks up `key`.
    pub async fn get(&self, coro: &SmartCoro, key: u64) -> Option<u64> {
        self.try_get(coro, key)
            .await
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible lookup: like [`get`](Self::get), but surfaces an
    /// unrecoverable RDMA fault as [`FaultError`] instead of panicking.
    /// Transient faults are retried transparently by the coroutine's
    /// [`RetryPolicy`](smart::RetryPolicy).
    pub async fn try_get(&self, coro: &SmartCoro, key: u64) -> Result<Option<u64>, FaultError> {
        let _op = coro.op_scope_named("bt_get").await;
        self.stats.lookups.incr();
        if self.cfg.speculative {
            let hint = self.spec.borrow().get(&key).copied();
            if let Some((leaf_packed, idx)) = hint {
                self.stats.spec_attempts.incr();
                let addr = unpack_addr(leaf_packed).offset(Node::entry_offset(idx as usize));
                let data = coro.try_read_sync(addr, 16).await?;
                let k = u64::from_le_bytes(data[0..8].try_into().expect("8B"));
                if k == key {
                    self.stats.spec_hits.incr();
                    return Ok(Some(u64::from_le_bytes(
                        data[8..16].try_into().expect("8B"),
                    )));
                }
                self.spec.borrow_mut().remove(&key);
            }
        }
        let mut restarts = 0u32;
        let mut leaf_addr = self.try_traverse_to_leaf(coro, key).await?;
        loop {
            self.stats.leaf_reads.incr();
            let node = self.try_read_node(coro, leaf_addr).await?;
            if node.covers(key) {
                return Ok(match node.search_leaf(key) {
                    Ok(i) => {
                        if self.cfg.speculative {
                            self.spec_insert(key, pack_addr(leaf_addr), i as u16);
                        }
                        Some(node.entries[i].1)
                    }
                    Err(_) => None,
                });
            }
            if key >= node.high_fence && node.sibling != NO_SIBLING {
                leaf_addr = unpack_addr(node.sibling);
                continue;
            }
            restarts += 1;
            assert!(restarts <= self.cfg.max_restarts, "lookup live-lock");
            self.try_refresh_root(coro).await?;
            leaf_addr = self.try_traverse_to_leaf(coro, key).await?;
        }
    }

    /// Range scan: up to `count` pairs with keys `>= from`, in order.
    ///
    /// ```rust
    /// # use std::rc::Rc;
    /// # use smart::{SmartConfig, SmartContext};
    /// # use smart_rnic::{Cluster, ClusterConfig};
    /// # use smart_rt::Simulation;
    /// # use smart_sherman::{ShermanConfig, ShermanTree};
    /// let mut sim = Simulation::new(1);
    /// let cluster = Cluster::new(sim.handle(), ClusterConfig::new(1, 1));
    /// let tree = ShermanTree::create(cluster.blades(), ShermanConfig::default());
    /// for k in 0..200u64 {
    ///     tree.load(k * 2, k);
    /// }
    /// let ctx = SmartContext::new(cluster.compute(0), cluster.blades(),
    ///                             SmartConfig::smart_full(1));
    /// let coro = ctx.create_thread().coroutine();
    /// let window = sim.block_on(async move { tree.range(&coro, 101, 3).await });
    /// assert_eq!(window.iter().map(|p| p.0).collect::<Vec<_>>(), vec![102, 104, 106]);
    /// ```
    pub async fn range(&self, coro: &SmartCoro, from: u64, count: usize) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(count);
        if count == 0 {
            return out;
        }
        let mut leaf_addr = self.traverse_to_leaf(coro, from).await;
        let mut cursor = from;
        let mut restarts = 0u32;
        loop {
            self.stats.leaf_reads.incr();
            let node = self.read_node(coro, leaf_addr).await;
            if !node.covers(cursor) {
                if cursor >= node.high_fence && node.sibling != NO_SIBLING {
                    leaf_addr = unpack_addr(node.sibling);
                    continue;
                }
                restarts += 1;
                assert!(restarts <= self.cfg.max_restarts, "range live-lock");
                leaf_addr = self.traverse_to_leaf(coro, cursor).await;
                continue;
            }
            for &(k, v) in &node.entries {
                if k >= cursor {
                    out.push((k, v));
                    if out.len() == count {
                        return out;
                    }
                }
            }
            if node.sibling == NO_SIBLING || node.high_fence == INF_KEY {
                return out;
            }
            cursor = node.high_fence;
            leaf_addr = unpack_addr(node.sibling);
        }
    }

    // --- writes -------------------------------------------------------------

    /// Inserts or updates `key`.
    pub async fn insert(&self, coro: &SmartCoro, key: u64, value: u64) {
        let _op = coro.op_scope_named("bt_insert").await;
        self.stats.inserts.incr();
        let mut restarts = 0u32;
        let mut leaf_addr = self.traverse_to_leaf(coro, key).await;
        // Lock-walk to the covering leaf.
        let mut node = loop {
            self.hocl.lock(coro, leaf_addr).await;
            self.stats.leaf_reads.incr();
            let node = self.read_node(coro, leaf_addr).await;
            if node.covers(key) {
                break node;
            }
            let next = if key >= node.high_fence && node.sibling != NO_SIBLING {
                Some(unpack_addr(node.sibling))
            } else {
                None
            };
            self.hocl.unlock(coro, leaf_addr).await;
            match next {
                Some(a) => leaf_addr = a,
                None => {
                    restarts += 1;
                    assert!(restarts <= self.cfg.max_restarts, "insert live-lock");
                    self.refresh_root(coro).await;
                    leaf_addr = self.traverse_to_leaf(coro, key).await;
                }
            }
        };

        // Pure value update: a single in-place 16 B entry WRITE.
        if let Ok(i) = node.search_leaf(key) {
            self.write_entry(coro, leaf_addr, i, key, value).await;
            self.hocl.unlock(coro, leaf_addr).await;
            self.stats.inplace_updates.incr();
            if self.cfg.speculative {
                self.spec_insert(key, pack_addr(leaf_addr), i as u16);
            }
            return;
        }

        if !node.is_full() {
            node.upsert(key, value);
            node.version += 1;
            self.write_node(coro, leaf_addr, &node).await;
            self.hocl.unlock(coro, leaf_addr).await;
            return;
        }

        // Split: publish the right sibling first (B-link), then the
        // shrunk left node, then tell the parent.
        let mut right = node.split();
        if key >= right.low_fence {
            right.upsert(key, value);
        } else {
            node.upsert(key, value);
        }
        let right_addr = self.alloc_node();
        right.sibling = node.sibling;
        node.sibling = pack_addr(right_addr);
        self.write_node(coro, right_addr, &right).await;
        self.write_node(coro, leaf_addr, &node).await;
        self.hocl.unlock(coro, leaf_addr).await;
        self.stats.splits.incr();

        self.insert_separator(
            coro,
            right.low_fence,
            pack_addr(leaf_addr),
            pack_addr(right_addr),
            node.low_fence,
            1,
        )
        .await;
    }

    /// Removes `key`; returns whether it was present.
    ///
    /// Like Sherman, deletion does not merge underfull leaves — the leaf
    /// keeps its fences (and stays reachable) so concurrent readers and
    /// the speculative cache remain valid; space is reclaimed by later
    /// inserts into the same range.
    pub async fn remove(&self, coro: &SmartCoro, key: u64) -> bool {
        let _op = coro.op_scope_named("bt_remove").await;
        let mut restarts = 0u32;
        let mut leaf_addr = self.traverse_to_leaf(coro, key).await;
        let mut node = loop {
            self.hocl.lock(coro, leaf_addr).await;
            self.stats.leaf_reads.incr();
            let node = self.read_node(coro, leaf_addr).await;
            if node.covers(key) {
                break node;
            }
            let next = if key >= node.high_fence && node.sibling != NO_SIBLING {
                Some(unpack_addr(node.sibling))
            } else {
                None
            };
            self.hocl.unlock(coro, leaf_addr).await;
            match next {
                Some(a) => leaf_addr = a,
                None => {
                    restarts += 1;
                    assert!(restarts <= self.cfg.max_restarts, "remove live-lock");
                    self.refresh_root(coro).await;
                    leaf_addr = self.traverse_to_leaf(coro, key).await;
                }
            }
        };
        let present = match node.search_leaf(key) {
            Ok(i) => {
                node.entries.remove(i);
                node.version += 1;
                self.write_node(coro, leaf_addr, &node).await;
                true
            }
            Err(_) => false,
        };
        self.hocl.unlock(coro, leaf_addr).await;
        if present && self.cfg.speculative {
            self.spec.borrow_mut().remove(&key);
        }
        present
    }

    /// Propagates a split upward: insert `(sep → right)` into the parent
    /// at `level`, splitting upward iteratively and growing a new root
    /// when needed.
    async fn insert_separator(
        &self,
        coro: &SmartCoro,
        mut sep: u64,
        mut left: u64,
        mut right: u64,
        mut left_low: u64,
        mut level: u16,
    ) {
        loop {
            let (root_packed, root_level) = self.root(coro).await;
            if root_level < level {
                if root_packed != left {
                    // Our split node is NOT the root even though the tree
                    // looks too short: another client is in the middle of
                    // growing the root (its split happened before ours).
                    // Wait for its CAS by refreshing and retrying.
                    self.refresh_root(coro).await;
                    continue;
                }
                // The split node was the root: grow the tree.
                let mut new_root = Node::new_internal(level, 0, INF_KEY);
                new_root.upsert(left_low, left);
                new_root.upsert(sep, right);
                let addr = self.alloc_node();
                self.write_node(coro, addr, &new_root).await;
                let old = coro
                    .cas_sync(self.root_ptr, root_packed, pack_addr(addr))
                    .await;
                if old == root_packed {
                    self.cache_put(pack_addr(addr), &new_root);
                    self.cached_root.set((pack_addr(addr), level));
                    return;
                }
                // Lost the race: another client grew the root; retry with
                // a fresh view (the parent now exists).
                self.refresh_root(coro).await;
                continue;
            }

            let mut parent_addr = unpack_addr(self.find_at_level(coro, sep, level).await);
            let mut pnode = loop {
                self.hocl.lock(coro, parent_addr).await;
                let n = self.read_node(coro, parent_addr).await;
                if n.covers(sep) {
                    break n;
                }
                let next = if sep >= n.high_fence && n.sibling != NO_SIBLING {
                    Some(unpack_addr(n.sibling))
                } else {
                    None
                };
                self.hocl.unlock(coro, parent_addr).await;
                match next {
                    Some(a) => parent_addr = a,
                    None => {
                        self.refresh_root(coro).await;
                        parent_addr = unpack_addr(self.find_at_level(coro, sep, level).await);
                    }
                }
            };

            if !pnode.is_full() {
                pnode.upsert(sep, right);
                pnode.version += 1;
                self.write_node(coro, parent_addr, &pnode).await;
                self.hocl.unlock(coro, parent_addr).await;
                self.cache_put(pack_addr(parent_addr), &pnode);
                return;
            }

            // Parent split; continue one level up.
            let mut pright = pnode.split();
            if sep >= pright.low_fence {
                pright.upsert(sep, right);
            } else {
                pnode.upsert(sep, right);
            }
            let pright_addr = self.alloc_node();
            pright.sibling = pnode.sibling;
            pnode.sibling = pack_addr(pright_addr);
            self.write_node(coro, pright_addr, &pright).await;
            self.write_node(coro, parent_addr, &pnode).await;
            self.hocl.unlock(coro, parent_addr).await;
            self.cache_put(pack_addr(parent_addr), &pnode);
            self.cache_put(pack_addr(pright_addr), &pright);

            sep = pright.low_fence;
            left = pack_addr(parent_addr);
            right = pack_addr(pright_addr);
            left_low = pnode.low_fence;
            level += 1;
        }
    }

    // --- host-side bulk load ------------------------------------------------

    /// Load-phase insert, bypassing the network (single-threaded setup).
    pub fn load(&self, key: u64, value: u64) {
        let (mut packed, _lvl) = {
            let c = self.cached_root.get();
            assert!(c.0 != 0, "load() requires a created/attached root");
            c
        };
        // Descend recording the path.
        let mut path = Vec::new();
        let mut node = self.read_node_direct(unpack_addr(packed));
        while !node.is_leaf() {
            while !node.covers(key) {
                assert!(node.sibling != NO_SIBLING, "loader routed outside tree");
                packed = node.sibling;
                node = self.read_node_direct(unpack_addr(packed));
            }
            path.push(packed);
            packed = node.route(key);
            node = self.read_node_direct(unpack_addr(packed));
        }
        while !node.covers(key) {
            packed = node.sibling;
            node = self.read_node_direct(unpack_addr(packed));
        }
        if node.search_leaf(key).is_ok() || !node.is_full() {
            node.upsert(key, value);
            self.write_node_direct(unpack_addr(packed), &node);
            return;
        }
        // Split host-side, then propagate up the recorded path.
        let mut right = node.split();
        if key >= right.low_fence {
            right.upsert(key, value);
        } else {
            node.upsert(key, value);
        }
        let right_addr = self.alloc_node();
        right.sibling = node.sibling;
        node.sibling = pack_addr(right_addr);
        self.write_node_direct(right_addr, &right);
        self.write_node_direct(unpack_addr(packed), &node);

        let mut sep = right.low_fence;
        let mut left = packed;
        let mut rgt = pack_addr(right_addr);
        let mut left_low = node.low_fence;
        let mut level = node.level + 1;
        loop {
            match path.pop() {
                None => {
                    let mut new_root = Node::new_internal(level, 0, INF_KEY);
                    new_root.upsert(left_low, left);
                    new_root.upsert(sep, rgt);
                    let addr = self.alloc_node();
                    self.write_node_direct(addr, &new_root);
                    self.blade(self.root_ptr)
                        .write_u64(self.root_ptr.offset_bytes, pack_addr(addr));
                    self.cache_put(pack_addr(addr), &new_root);
                    self.cached_root.set((pack_addr(addr), level));
                    return;
                }
                Some(ppacked) => {
                    let mut pnode = self.read_node_direct(unpack_addr(ppacked));
                    if !pnode.is_full() {
                        pnode.upsert(sep, rgt);
                        self.write_node_direct(unpack_addr(ppacked), &pnode);
                        self.cache_put(ppacked, &pnode);
                        return;
                    }
                    let mut pright = pnode.split();
                    if sep >= pright.low_fence {
                        pright.upsert(sep, rgt);
                    } else {
                        pnode.upsert(sep, rgt);
                    }
                    let pright_addr = self.alloc_node();
                    pright.sibling = pnode.sibling;
                    pnode.sibling = pack_addr(pright_addr);
                    self.write_node_direct(pright_addr, &pright);
                    self.write_node_direct(unpack_addr(ppacked), &pnode);
                    self.cache_put(ppacked, &pnode);
                    self.cache_put(pack_addr(pright_addr), &pright);
                    sep = pright.low_fence;
                    left = ppacked;
                    rgt = pack_addr(pright_addr);
                    left_low = pnode.low_fence;
                    level = pnode.level + 1;
                }
            }
        }
    }

    /// Host-side consistency check: walks the leaf chain and returns all
    /// pairs in key order, verifying fences and ordering.
    ///
    /// # Panics
    ///
    /// Panics if the structure is inconsistent.
    pub fn check_consistency(&self) -> Vec<(u64, u64)> {
        // Find the leftmost leaf from the on-blade root.
        let packed_root = self
            .blade(self.root_ptr)
            .read_u64(self.root_ptr.offset_bytes);
        let mut node = self.read_node_direct(unpack_addr(packed_root));
        while !node.is_leaf() {
            let child = node.entries.first().expect("internal nonempty").1;
            node = self.read_node_direct(unpack_addr(child));
        }
        let mut out = Vec::new();
        let mut prev: Option<u64> = None;
        loop {
            assert!(node.entries.len() <= crate::node::FANOUT);
            for &(k, v) in &node.entries {
                assert!(node.covers(k), "entry {k} outside fences");
                if let Some(p) = prev {
                    assert!(k > p, "keys out of order: {p} !< {k}");
                }
                prev = Some(k);
                out.push((k, v));
            }
            if node.sibling == NO_SIBLING {
                break;
            }
            let next = self.read_node_direct(unpack_addr(node.sibling));
            assert_eq!(next.low_fence, node.high_fence, "fence chain broken");
            node = next;
        }
        out
    }

    /// `smart-check` invariant wrapper around [`Self::check_consistency`]:
    /// the leaf chain must be structurally sound and hold exactly
    /// `expected` (sorted by key). Structural panics are converted into
    /// findings so schedule exploration can report them instead of
    /// aborting.
    pub fn consistency_violations(&self, expected: &[(u64, u64)]) -> Vec<String> {
        let got = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.check_consistency()
        })) {
            Ok(got) => got,
            Err(e) => {
                let msg = e
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "structure check panicked".to_string());
                return vec![format!("tree inconsistent: {msg}")];
            }
        };
        if got.as_slice() == expected {
            return Vec::new();
        }
        let first_diff = got
            .iter()
            .zip(expected)
            .position(|(a, b)| a != b)
            .unwrap_or(got.len().min(expected.len()));
        vec![format!(
            "leaf chain holds {} pairs, expected {} (first divergence at index {first_diff})",
            got.len(),
            expected.len()
        )]
    }
}
