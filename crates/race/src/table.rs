//! The RACE-style lock-free disaggregated hash table.
//!
//! Extendible hashing over memory blades, driven entirely by one-sided
//! verbs (READ/WRITE/CAS) issued through [`smart::SmartCoro`]:
//!
//! * **lookup** — READ two candidate buckets (one batch), then READ the
//!   matching key/value block: the paper's "three RDMA READs per lookup";
//! * **insert** — find a free slot, WRITE the block, CAS the slot from
//!   empty; a failed CAS retries with *three more RDMA requests*
//!   (re-read the bucket, re-write the block, CAS again — §3.3);
//! * **update** — WRITE a fresh block and CAS the slot from the old
//!   encoding to the new one; same 3-op retry loop;
//! * **remove** — CAS the slot to zero.
//!
//! The CAS goes through [`SmartCoro::backoff_cas_sync`], so the baseline
//! (conflict avoidance off) behaves like RACE and the SMART-HT refactor
//! is just a configuration change — mirroring the paper's 44-line diff.
//!
//! Simplifications vs. the RACE paper, preserved behaviours noted:
//! the client directory cache is shared (never stale), and subtable
//! splits run atomically host-side during inserts (they are rare and not
//! part of any measured experiment; the per-op RDMA cost model, which is
//! what the SMART paper studies, is unaffected).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use smart::SmartCoro;
use smart_rnic::{CqeError, MemoryBlade, RemoteAddr};
use smart_rt::trace::SyncOp;

use crate::layout::{
    block_len, decode_block, decode_bucket, encode_block, encode_block_into, hash_key, KeyHash,
    Slot, BUCKET_BYTES, SLOTS_PER_BUCKET,
};
use crate::stats::RaceStats;

/// Hash-table geometry and limits.
#[derive(Clone, Debug)]
pub struct RaceConfig {
    /// Buckets per subtable (power of two).
    pub buckets_per_subtable: usize,
    /// Initial directory depth: the table starts with `2^depth` subtables.
    pub initial_depth: u8,
    /// Size of each key/value allocation chunk carved from a blade.
    pub kv_chunk_bytes: u64,
    /// Retry cap before an operation reports contention failure.
    pub max_retries: u32,
}

impl Default for RaceConfig {
    fn default() -> Self {
        RaceConfig {
            buckets_per_subtable: 1 << 12,
            initial_depth: 2,
            kv_chunk_bytes: 1 << 20,
            max_retries: 4096,
        }
    }
}

/// Errors reported by table operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RaceError {
    /// The key was not present.
    NotFound,
    /// The operation lost the CAS race more than `max_retries` times.
    Contention,
    /// The table cannot grow further (blade memory exhausted).
    Full,
    /// An RDMA fault could not be recovered (permanent error or
    /// exhausted retry budget); carries the final completion error.
    Fault(CqeError),
}

impl std::fmt::Display for RaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RaceError::NotFound => write!(f, "key not found"),
            RaceError::Contention => write!(f, "operation exceeded retry limit"),
            RaceError::Full => write!(f, "hash table is full"),
            RaceError::Fault(e) => write!(f, "unrecoverable RDMA fault: {e}"),
        }
    }
}

impl std::error::Error for RaceError {}

struct Subtable {
    blade_idx: usize,
    base: u64,
    local_depth: Cell<u8>,
}

/// The table descriptor shared by all client threads (the client-side
/// directory cache).
pub struct RaceHashTable {
    cfg: RaceConfig,
    blades: Vec<Rc<MemoryBlade>>,
    dir: RefCell<Vec<Rc<Subtable>>>,
    global_depth: Cell<u8>,
    chunks: RefCell<Vec<(u64, u64)>>,
    stats: RaceStats,
}

impl std::fmt::Debug for RaceHashTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RaceHashTable")
            .field("global_depth", &self.global_depth.get())
            .field("subtables", &self.dir.borrow().len())
            .finish()
    }
}

impl RaceHashTable {
    /// Creates the table structures on the given blades (the load-phase
    /// setup a real deployment would do through the blade allocator).
    ///
    /// # Panics
    ///
    /// Panics if `blades` is empty or the geometry is not a power of two.
    pub fn create(blades: &[Rc<MemoryBlade>], cfg: RaceConfig) -> Rc<Self> {
        assert!(!blades.is_empty(), "need at least one memory blade");
        assert!(
            cfg.buckets_per_subtable.is_power_of_two(),
            "buckets_per_subtable must be a power of two"
        );
        let table = RaceHashTable {
            cfg,
            blades: blades.to_vec(),
            dir: RefCell::new(Vec::new()),
            global_depth: Cell::new(0),
            chunks: RefCell::new(vec![(0, 0); blades.len()]),
            stats: RaceStats::new(),
        };
        let depth = table.cfg.initial_depth;
        let mut dir = Vec::with_capacity(1 << depth);
        for i in 0..(1usize << depth) {
            dir.push(table.new_subtable(i % table.blades.len(), depth));
        }
        *table.dir.borrow_mut() = dir;
        table.global_depth.set(depth);
        Rc::new(table)
    }

    fn new_subtable(&self, blade_idx: usize, local_depth: u8) -> Rc<Subtable> {
        let bytes = self.cfg.buckets_per_subtable as u64 * BUCKET_BYTES;
        let base = self.blades[blade_idx].alloc(bytes, 8);
        Rc::new(Subtable {
            blade_idx,
            base,
            local_depth: Cell::new(local_depth),
        })
    }

    /// Operation statistics.
    pub fn stats(&self) -> &RaceStats {
        &self.stats
    }

    /// Current number of subtables.
    pub fn subtable_count(&self) -> usize {
        let dir = self.dir.borrow();
        // Count-only dedup: pointers are never ordered across runs, only
        // counted, so the result is seed-stable. lint:allow(rc-identity)
        let mut seen: Vec<*const Subtable> = dir.iter().map(Rc::as_ptr).collect();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }

    fn locate(&self, kh: &KeyHash) -> (Rc<Subtable>, usize, usize) {
        let mask = (1u64 << self.global_depth.get()) - 1;
        let st = Rc::clone(&self.dir.borrow()[(kh.h1 & mask) as usize]);
        let (b1, b2) = self.bucket_pair(kh);
        (st, b1, b2)
    }

    /// The two candidate buckets of `kh` within any subtable.
    fn bucket_pair(&self, kh: &KeyHash) -> (usize, usize) {
        // `buckets_per_subtable` is a power of two: the mask is the modulo.
        let mask = self.cfg.buckets_per_subtable - 1;
        let b1 = (kh.h1 >> 16) as usize & mask;
        let mut b2 = (kh.h2 >> 16) as usize & mask;
        if b2 == b1 {
            b2 = (b2 + 1) & mask;
        }
        (b1, b2)
    }

    fn bucket_addr(&self, st: &Subtable, bucket: usize) -> RemoteAddr {
        RemoteAddr::new(
            self.blades[st.blade_idx].id(),
            st.base + bucket as u64 * BUCKET_BYTES,
        )
    }

    fn slot_addr(&self, st: &Subtable, bucket: usize, slot: usize) -> RemoteAddr {
        self.bucket_addr(st, bucket).offset(slot as u64 * 8)
    }

    fn block_addr(&self, st: &Subtable, slot: Slot) -> RemoteAddr {
        RemoteAddr::new(self.blades[st.blade_idx].id(), slot.offset())
    }

    fn alloc_block(&self, blade_idx: usize, len: u64) -> u64 {
        let mut chunks = self.chunks.borrow_mut();
        let (cur, end) = chunks[blade_idx];
        if cur + len <= end {
            chunks[blade_idx] = (cur + len, end);
            return cur;
        }
        let chunk = self.cfg.kv_chunk_bytes.max(len);
        let base = self.blades[blade_idx].alloc(chunk, 8);
        chunks[blade_idx] = (base + len, base + chunk);
        base
    }

    // --- host-side (load phase / splits) --------------------------------
    //
    // These borrow blade memory in place: a bucket is read as one array of
    // eight slots, a block is encoded into and compared in blade memory,
    // and each key is hashed once. They write exactly the bytes the RDMA
    // path would.

    /// Inserts during the load phase, bypassing the network (the paper
    /// loads 100 M items before each run; replaying that through the
    /// simulated fabric would add nothing).
    pub fn load(&self, key: &[u8], value: &[u8]) {
        let kh = hash_key(key);
        if !self.try_load(&kh, key, value) {
            self.split(&kh);
            assert!(
                self.try_load(&kh, key, value),
                "insert failed even after split"
            );
        }
    }

    fn try_load(&self, kh: &KeyHash, key: &[u8], value: &[u8]) -> bool {
        let (st, buckets) = self.read_buckets_direct(kh);
        let blade = &self.blades[st.blade_idx];
        // Overwrite an existing mapping if present, else claim the first
        // empty slot.
        let target = find_direct(blade, &buckets, kh.fp, key)
            .or_else(|| probe_slots(&buckets).find(|(_, slot)| slot.is_empty()));
        let Some((addr, _)) = target else {
            return false;
        };
        let new = self.write_block_direct(st.blade_idx, kh.fp, key, value);
        blade.write_u64(addr, new.0);
        true
    }

    /// Locates `kh` and reads both candidate buckets host-side: each as its
    /// blade offset and its eight slot words.
    fn read_buckets_direct(&self, kh: &KeyHash) -> (Rc<Subtable>, [DirectBucket; 2]) {
        let (st, b1, b2) = self.locate(kh);
        let blade = &self.blades[st.blade_idx];
        let (o1, o2) = (
            self.bucket_addr(&st, b1).offset_bytes,
            self.bucket_addr(&st, b2).offset_bytes,
        );
        let buckets = [(o1, blade.read_words(o1)), (o2, blade.read_words(o2))];
        (st, buckets)
    }

    /// Host-side lookup against the table's blade memory — used by tests
    /// and by RPC handlers that run *on* the memory blade (the blade CPU
    /// reads its own memory locally).
    pub fn get_direct(&self, key: &[u8]) -> Option<Vec<u8>> {
        let kh = hash_key(key);
        let (st, buckets) = self.read_buckets_direct(&kh);
        let blade = &self.blades[st.blade_idx];
        let (_, slot) = find_direct(blade, &buckets, kh.fp, key)?;
        blade.with_bytes(slot.offset(), slot.block_bytes() as u64, |block| {
            decode_block(block).map(|(_, v)| v.to_vec())
        })
    }

    /// Linearizability-lite witness check for `smart-check` schedule
    /// exploration: after a run quiesces, each key's final value must be
    /// one the workload actually wrote for it (its witness candidates).
    /// Returns human-readable violations, empty when the history is
    /// explainable.
    pub fn check_witnesses(&self, witnesses: &[(Vec<u8>, Vec<Vec<u8>>)]) -> Vec<String> {
        let mut violations = Vec::new();
        for (key, candidates) in witnesses {
            match self.get_direct(key) {
                Some(v) if candidates.contains(&v) => {}
                Some(v) => violations.push(format!(
                    "key {:?}: final value {v:?} was never written by any client",
                    String::from_utf8_lossy(key)
                )),
                None => violations.push(format!(
                    "key {:?}: missing after all operations completed",
                    String::from_utf8_lossy(key)
                )),
            }
        }
        violations
    }

    /// Encodes (`key`, `value`) straight into a fresh block on the blade
    /// and returns its slot encoding.
    fn write_block_direct(&self, blade_idx: usize, fp: u8, key: &[u8], value: &[u8]) -> Slot {
        let len = block_len(key.len(), value.len());
        let off = self.alloc_block(blade_idx, len as u64);
        self.blades[blade_idx].with_bytes_mut(off, len as u64, |buf| {
            encode_block_into(buf, key, value);
        });
        Slot::encode(fp, len, off)
    }

    /// Splits the subtable owning `kh`. Runs atomically host-side (no
    /// awaits), so concurrent simulated clients never observe a torn
    /// directory.
    fn split(&self, kh: &KeyHash) {
        let old = {
            let mask = (1u64 << self.global_depth.get()) - 1;
            Rc::clone(&self.dir.borrow()[(kh.h1 & mask) as usize])
        };
        let old_mask_bit = 1u64 << old.local_depth.get();
        if old.local_depth.get() >= 48 {
            panic!("{}", RaceError::Full);
        }
        // Double the directory if the split subtable is at global depth.
        if old.local_depth.get() == self.global_depth.get() {
            self.dir.borrow_mut().extend_from_within(..);
            self.global_depth.set(self.global_depth.get() + 1);
        }
        // New sibling on the same blade (keeps block offsets valid).
        let new = self.new_subtable(old.blade_idx, old.local_depth.get() + 1);
        old.local_depth.set(old.local_depth.get() + 1);
        // Repoint directory entries whose split bit is set.
        for (i, entry) in self.dir.borrow_mut().iter_mut().enumerate() {
            // Pure equality against one pinned Rc — no ordering or
            // hashing on the address. lint:allow(rc-identity)
            if Rc::ptr_eq(entry, &old) && (i as u64) & old_mask_bit != 0 {
                *entry = Rc::clone(&new);
            }
        }
        // Rehash: move slots whose key now lands in the sibling.
        let blade = &self.blades[old.blade_idx];
        for b in 0..self.cfg.buckets_per_subtable {
            let base = self.bucket_addr(&old, b).offset_bytes;
            let words = blade.read_words::<SLOTS_PER_BUCKET>(base);
            for (s, kh) in block_hashes(blade, &words).iter().enumerate() {
                let Some(kh) = kh.filter(|kh| kh.h1 & old_mask_bit != 0) else {
                    continue;
                };
                blade.write_u64(base + s as u64 * 8, 0);
                // Same blade, same bucket indices: place into sibling.
                let placed = self.place_slot(&new, &kh, Slot(words[s]));
                assert!(placed, "sibling subtable overflow during split");
            }
        }
    }

    fn place_slot(&self, st: &Subtable, kh: &KeyHash, slot: Slot) -> bool {
        let blade = &self.blades[st.blade_idx];
        let (b1, b2) = self.bucket_pair(kh);
        for b in [b1, b2] {
            let base = self.bucket_addr(st, b).offset_bytes;
            let words = blade.read_words::<SLOTS_PER_BUCKET>(base);
            if let Some(s) = words.iter().position(|&w| Slot(w).is_empty()) {
                blade.write_u64(base + s as u64 * 8, slot.0);
                return true;
            }
        }
        false
    }

    // --- one-sided RDMA operations --------------------------------------

    async fn read_buckets(
        &self,
        coro: &SmartCoro,
        st: &Subtable,
        b1: usize,
        b2: usize,
    ) -> ([Slot; SLOTS_PER_BUCKET], [Slot; SLOTS_PER_BUCKET]) {
        self.try_read_buckets(coro, st, b1, b2)
            .await
            .unwrap_or_else(|e| panic!("{e}"))
    }

    async fn try_read_buckets(
        &self,
        coro: &SmartCoro,
        st: &Subtable,
        b1: usize,
        b2: usize,
    ) -> Result<([Slot; SLOTS_PER_BUCKET], [Slot; SLOTS_PER_BUCKET]), RaceError> {
        let id1 = coro.read(self.bucket_addr(st, b1), BUCKET_BYTES as u32);
        let id2 = coro.read(self.bucket_addr(st, b2), BUCKET_BYTES as u32);
        coro.post_send().await;
        let cqes = coro
            .try_sync()
            .await
            .map_err(|e| RaceError::Fault(e.error))?;
        let mut s1 = [Slot::EMPTY; SLOTS_PER_BUCKET];
        let mut s2 = [Slot::EMPTY; SLOTS_PER_BUCKET];
        for cqe in cqes {
            if cqe.wr_id == id1 {
                s1 = decode_bucket(cqe.read_data());
            } else if cqe.wr_id == id2 {
                s2 = decode_bucket(cqe.read_data());
            }
        }
        Ok((s1, s2))
    }

    /// Finds `key`'s slot among the candidate buckets, verifying the key
    /// by reading the block (extra READs only on fingerprint hits).
    async fn find_slot(
        &self,
        coro: &SmartCoro,
        st: &Subtable,
        kh: &KeyHash,
        key: &[u8],
        b1: usize,
        b2: usize,
    ) -> Option<(usize, usize, Slot, Vec<u8>)> {
        self.try_find_slot(coro, st, kh, key, b1, b2)
            .await
            .unwrap_or_else(|e| panic!("{e}"))
    }

    async fn try_find_slot(
        &self,
        coro: &SmartCoro,
        st: &Subtable,
        kh: &KeyHash,
        key: &[u8],
        b1: usize,
        b2: usize,
    ) -> Result<Option<(usize, usize, Slot, Vec<u8>)>, RaceError> {
        let (s1, s2) = self.try_read_buckets(coro, st, b1, b2).await?;
        for (b, slots) in [(b1, s1), (b2, s2)] {
            for (i, slot) in slots.iter().enumerate() {
                if !slot.is_empty() && slot.fp() == kh.fp {
                    let data = coro
                        .try_read_sync(self.block_addr(st, *slot), slot.block_bytes() as u32)
                        .await
                        .map_err(|e| RaceError::Fault(e.error))?;
                    if let Some((k, v)) = decode_block(&data) {
                        if k == key {
                            // The caller will CAS against this observed
                            // slot value: record the read that opens the
                            // read-modify-write for `smart-check`.
                            coro.probe_cell(self.slot_addr(st, b, i), "race_slot", SyncOp::Read);
                            return Ok(Some((b, i, *slot, v.to_vec())));
                        }
                    }
                }
            }
        }
        Ok(None)
    }

    /// Looks up `key` (the paper's three-READ path).
    ///
    /// ```rust
    /// # use std::rc::Rc;
    /// # use smart::{SmartConfig, SmartContext};
    /// # use smart_race::{RaceConfig, RaceHashTable};
    /// # use smart_rnic::{Cluster, ClusterConfig};
    /// # use smart_rt::Simulation;
    /// let mut sim = Simulation::new(1);
    /// let cluster = Cluster::new(sim.handle(), ClusterConfig::new(1, 2));
    /// let table = RaceHashTable::create(cluster.blades(), RaceConfig::default());
    /// table.load(b"k", b"v");
    /// let ctx = SmartContext::new(cluster.compute(0), cluster.blades(),
    ///                             SmartConfig::smart_full(1));
    /// let coro = ctx.create_thread().coroutine();
    /// let got = sim.block_on(async move { table.get(&coro, b"k").await });
    /// assert_eq!(got.as_deref(), Some(b"v".as_slice()));
    /// ```
    pub async fn get(&self, coro: &SmartCoro, key: &[u8]) -> Option<Vec<u8>> {
        self.try_get(coro, key)
            .await
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible lookup: like [`get`](Self::get), but surfaces an
    /// unrecoverable RDMA fault as [`RaceError::Fault`] instead of
    /// panicking. Transient faults are retried transparently by the
    /// coroutine's [`RetryPolicy`](smart::RetryPolicy).
    pub async fn try_get(
        &self,
        coro: &SmartCoro,
        key: &[u8],
    ) -> Result<Option<Vec<u8>>, RaceError> {
        let _op = coro.op_scope_named("ht_get").await;
        let kh = hash_key(key);
        let (st, b1, b2) = self.locate(&kh);
        let found = self.try_find_slot(coro, &st, &kh, key, b1, b2).await?;
        self.stats.lookups.incr();
        Ok(found.map(|(_, _, _, v)| v))
    }

    /// Writes a fresh block for (`key`, `value`) over RDMA and returns
    /// its slot encoding.
    async fn publish_block(
        &self,
        coro: &SmartCoro,
        st: &Subtable,
        key: &[u8],
        value: &[u8],
    ) -> Slot {
        let block = encode_block(key, value);
        let off = self.alloc_block(st.blade_idx, block.len() as u64);
        let len = block.len();
        coro.write_sync(RemoteAddr::new(self.blades[st.blade_idx].id(), off), block)
            .await;
        Slot::encode(hash_key(key).fp, len, off)
    }

    /// Inserts or overwrites `key` via one-sided verbs. Returns the
    /// number of unsuccessful CAS retries.
    pub async fn insert(
        &self,
        coro: &SmartCoro,
        key: &[u8],
        value: &[u8],
    ) -> Result<u32, RaceError> {
        let _op = coro.op_scope_named("ht_insert").await;
        let kh = hash_key(key);
        let mut retries = 0u32;
        'restart: loop {
            let (st, b1, b2) = self.locate(&kh);
            // Existing key: switch to the update path.
            if let Some((b, i, old, _)) = self.find_slot(coro, &st, &kh, key, b1, b2).await {
                return self
                    .cas_update_loop(coro, &st, b, i, old, key, value, retries)
                    .await;
            }
            // Fresh key: claim an empty slot.
            loop {
                if retries > self.cfg.max_retries {
                    self.stats.record_update_retries(retries);
                    return Err(RaceError::Contention);
                }
                let (s1, s2) = self.read_buckets(coro, &st, b1, b2).await;
                let mut target = None;
                for (b, slots) in [(b1, &s1), (b2, &s2)] {
                    for (i, slot) in slots.iter().enumerate() {
                        if slot.is_empty() {
                            target = Some((b, i));
                            break;
                        }
                    }
                    if target.is_some() {
                        break;
                    }
                }
                let Some((b, i)) = target else {
                    // Both buckets full: grow the table and restart.
                    self.split(&kh);
                    continue 'restart;
                };
                // The empty-slot observation opens the claim RMW that the
                // CAS below closes.
                coro.probe_cell(self.slot_addr(&st, b, i), "race_slot", SyncOp::Read);
                let new = self.publish_block(coro, &st, key, value).await;
                let addr = self.slot_addr(&st, b, i);
                let old = coro.backoff_cas_sync(addr, 0, new.0).await;
                if old == 0 {
                    self.stats.inserts.incr();
                    self.stats.record_update_retries(retries);
                    return Ok(retries);
                }
                retries += 1;
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    async fn cas_update_loop(
        &self,
        coro: &SmartCoro,
        st: &Subtable,
        bucket: usize,
        slot_idx: usize,
        mut old: Slot,
        key: &[u8],
        value: &[u8],
        mut retries: u32,
    ) -> Result<u32, RaceError> {
        loop {
            if retries > self.cfg.max_retries {
                self.stats.record_update_retries(retries);
                return Err(RaceError::Contention);
            }
            // The paper's 3-op retry: (re)write the block, CAS, and on
            // failure re-read the bucket to learn the new slot value.
            let new = self.publish_block(coro, st, key, value).await;
            let addr = self.slot_addr(st, bucket, slot_idx);
            let seen = coro.backoff_cas_sync(addr, old.0, new.0).await;
            if seen == old.0 {
                self.stats.updates.incr();
                self.stats.record_update_retries(retries);
                return Ok(retries);
            }
            retries += 1;
            // The paper's retry re-reads the bucket *after* the backoff
            // (backoff_cas_sync sleeps before returning on failure).
            // Reusing the CAS-returned value instead would leave `expect`
            // stale by the whole backoff duration — under contention the
            // slot has certainly moved on by then, guaranteeing another
            // failure and starving backed-off operations.
            let data = coro
                .read_sync(self.bucket_addr(st, bucket), BUCKET_BYTES as u32)
                .await;
            let current = decode_bucket(&data)[slot_idx];
            if current.is_empty() || current.fp() != hash_key(key).fp {
                // The slot changed identity (concurrent remove/steal):
                // the caller must re-locate the key from scratch.
                return Err(RaceError::NotFound);
            }
            old = current;
        }
    }

    /// Updates an existing key. Returns the number of unsuccessful CAS
    /// retries.
    ///
    /// # Errors
    ///
    /// [`RaceError::NotFound`] if the key is absent;
    /// [`RaceError::Contention`] past the retry cap.
    pub async fn update(
        &self,
        coro: &SmartCoro,
        key: &[u8],
        value: &[u8],
    ) -> Result<u32, RaceError> {
        let _op = coro.op_scope_named("ht_update").await;
        let kh = hash_key(key);
        let (st, b1, b2) = self.locate(&kh);
        let Some((b, i, old, _)) = self.find_slot(coro, &st, &kh, key, b1, b2).await else {
            return Err(RaceError::NotFound);
        };
        self.cas_update_loop(coro, &st, b, i, old, key, value, 0)
            .await
    }

    /// Removes `key`. Returns whether it was present.
    pub async fn remove(&self, coro: &SmartCoro, key: &[u8]) -> Result<bool, RaceError> {
        let _op = coro.op_scope_named("ht_remove").await;
        let kh = hash_key(key);
        let mut retries = 0u32;
        loop {
            if retries > self.cfg.max_retries {
                return Err(RaceError::Contention);
            }
            let (st, b1, b2) = self.locate(&kh);
            let Some((b, i, old, _)) = self.find_slot(coro, &st, &kh, key, b1, b2).await else {
                self.stats.removes.incr();
                return Ok(false);
            };
            let addr = self.slot_addr(&st, b, i);
            let seen = coro.backoff_cas_sync(addr, old.0, 0).await;
            if seen == old.0 {
                self.stats.removes.incr();
                return Ok(true);
            }
            retries += 1;
        }
    }
}

/// A bucket read host-side: its blade offset and its eight slot words.
type DirectBucket = (u64, [u64; SLOTS_PER_BUCKET]);

/// The slots of a key's two buckets in probe order, each with its blade
/// offset.
fn probe_slots(buckets: &[DirectBucket; 2]) -> impl Iterator<Item = (u64, Slot)> + '_ {
    buckets
        .iter()
        .flat_map(|(base, words)| (0..).zip(words).map(move |(s, &w)| (base + s * 8, Slot(w))))
}

/// The first slot of `buckets` whose block holds `key`, with its blade
/// offset. Blocks are compared in blade memory.
fn find_direct(
    blade: &MemoryBlade,
    buckets: &[DirectBucket; 2],
    fp: u8,
    key: &[u8],
) -> Option<(u64, Slot)> {
    probe_slots(buckets).find(|(_, slot)| {
        !slot.is_empty()
            && slot.fp() == fp
            && blade.with_bytes(slot.offset(), slot.block_bytes() as u64, |block| {
                decode_block(block).is_some_and(|(k, _)| k == key)
            })
    })
}

/// The placement hashes of the keys behind a bucket's occupied slots.
/// Every block is read under one borrow of the region, and every key is
/// decoded before any is hashed, so the blocks' cache misses overlap
/// instead of queueing behind each other's hashing.
fn block_hashes(
    blade: &MemoryBlade,
    words: &[u64; SLOTS_PER_BUCKET],
) -> [Option<KeyHash>; SLOTS_PER_BUCKET] {
    blade.with_bytes(0, blade.region_bytes(), |mem| {
        let keys = words.map(|w| {
            let slot = Slot(w);
            if slot.is_empty() {
                return None;
            }
            let start = slot.offset() as usize;
            decode_block(&mem[start..start + slot.block_bytes()]).map(|(k, _)| k)
        });
        keys.map(|k| k.map(hash_key))
    })
}
