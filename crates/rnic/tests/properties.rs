//! Randomized (seeded, deterministic) tests for the RNIC model's data
//! structures and memory semantics; the offline replacement for the
//! earlier proptest suite.

use std::collections::HashSet;
use std::collections::VecDeque;

use smart_rnic::lru::LruCache;
use smart_rnic::{BladeConfig, BladeId, FabricConfig, MemoryBlade};
use smart_rt::rng::SimRng;
use smart_rt::Simulation;

fn blade(bytes: u64) -> (Simulation, std::rc::Rc<MemoryBlade>) {
    let sim = Simulation::new(0);
    let b = MemoryBlade::new(
        sim.handle(),
        BladeId(0),
        &BladeConfig {
            region_bytes: bytes,
            ..Default::default()
        },
        &FabricConfig::default(),
    );
    (sim, b)
}

/// A trivially correct reference LRU.
struct ModelLru {
    cap: usize,
    order: VecDeque<u64>, // front = LRU, back = MRU
}

impl ModelLru {
    fn touch(&mut self, k: u64) -> bool {
        if let Some(pos) = self.order.iter().position(|&x| x == k) {
            self.order.remove(pos);
            self.order.push_back(k);
            true
        } else {
            false
        }
    }
    fn insert(&mut self, k: u64) {
        if self.touch(k) {
            return;
        }
        if self.order.len() == self.cap {
            self.order.pop_front();
        }
        self.order.push_back(k);
    }
    fn remove(&mut self, k: u64) -> bool {
        match self.order.iter().position(|&x| x == k) {
            Some(pos) => {
                self.order.remove(pos);
                true
            }
            None => false,
        }
    }
}

/// The O(1) LRU behaves exactly like the naive reference model under
/// arbitrary operation sequences.
#[test]
fn lru_matches_reference_model() {
    let mut rng = SimRng::new(0x14B);
    for _ in 0..32 {
        let cap = rng.gen_range(1, 16) as usize;
        let n_ops = rng.gen_range(1, 200);
        let mut lru = LruCache::new(cap);
        let mut model = ModelLru {
            cap,
            order: VecDeque::new(),
        };
        for _ in 0..n_ops {
            let op = rng.next_u64_below(3) as u8;
            let key = rng.next_u64_below(32);
            match op {
                0 => {
                    lru.insert(key);
                    model.insert(key);
                }
                1 => assert_eq!(lru.touch(&key), model.touch(key)),
                _ => assert_eq!(lru.remove(&key), model.remove(key)),
            }
            assert_eq!(lru.len(), model.order.len());
            assert!(lru.len() <= cap);
        }
        // Final membership agrees.
        let members: HashSet<u64> = model.order.iter().copied().collect();
        for k in 0u64..32 {
            assert_eq!(lru.touch(&k), members.contains(&k), "key {k}");
        }
    }
}

/// Blade memory: arbitrary writes then reads round-trip, and writes
/// to disjoint ranges never interfere.
#[test]
fn blade_memory_roundtrip() {
    let mut rng = SimRng::new(0xB1AD);
    for _ in 0..24 {
        let (_sim, b) = blade(1 << 16);
        // Non-overlapping 32-byte slots.
        let mut model: Vec<Option<Vec<u8>>> = vec![None; 64];
        let n_writes = rng.gen_range(1, 20);
        for _ in 0..n_writes {
            let slot = rng.next_u64_below(64);
            let len = rng.gen_range(1, 32) as usize;
            let mut data = vec![0u8; len];
            rng.fill_bytes(&mut data);
            let off = 64 + slot * 32;
            b.write_bytes(off, &data);
            // Overwrite keeps the tail of the previous write beyond len.
            let prev = model[slot as usize].take().unwrap_or_else(|| vec![0; 32]);
            let mut merged = prev;
            merged[..data.len()].copy_from_slice(&data);
            model[slot as usize] = Some(merged);
        }
        for (slot, expect) in model.iter().enumerate() {
            if let Some(expect) = expect {
                let got = b.read_bytes(64 + slot as u64 * 32, 32);
                assert_eq!(&got, expect, "slot {slot}");
            }
        }
    }
}

/// CAS follows compare-and-swap semantics against a model cell.
#[test]
fn blade_cas_matches_model() {
    let mut rng = SimRng::new(0xCA5);
    for _ in 0..24 {
        let (_sim, b) = blade(4096);
        let off = b.alloc(8, 8);
        let mut model = 0u64;
        b.write_u64(off, model);
        let n_ops = rng.gen_range(1, 50);
        for _ in 0..n_ops {
            // Half the time CAS against the current value so swaps happen.
            let expect = if rng.gen_bool(0.5) {
                model
            } else {
                rng.next_u64()
            };
            let swap = rng.next_u64();
            let old = b.cas_u64(off, expect, swap);
            assert_eq!(old, model);
            if model == expect {
                model = swap;
            }
            assert_eq!(b.read_u64(off), model);
        }
    }
}

/// FAA is a wrapping fetch-add.
#[test]
fn blade_faa_matches_model() {
    let mut rng = SimRng::new(0xFAA);
    for _ in 0..24 {
        let (_sim, b) = blade(4096);
        let off = b.alloc(8, 8);
        let mut model = 0u64;
        let n_ops = rng.gen_range(1, 50);
        for _ in 0..n_ops {
            let add = rng.next_u64();
            let old = b.faa_u64(off, add);
            assert_eq!(old, model);
            model = model.wrapping_add(add);
        }
        assert_eq!(b.read_u64(off), model);
    }
}

/// The bump allocator returns non-overlapping, properly aligned ranges.
#[test]
fn blade_alloc_disjoint_and_aligned() {
    let mut rng = SimRng::new(0xA110C);
    for _ in 0..24 {
        let (_sim, b) = blade(1 << 20);
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        let n_reqs = rng.gen_range(1, 40);
        for _ in 0..n_reqs {
            let len = rng.gen_range(1, 512);
            let align = 8u64 << rng.next_u64_below(4);
            let off = b.alloc(len, align);
            assert_eq!(off % align, 0);
            for &(o, l) in &ranges {
                assert!(off >= o + l || off + len <= o, "overlap");
            }
            ranges.push((off, len));
        }
    }
}
