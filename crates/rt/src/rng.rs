//! Deterministic, fast PRNG for the simulation.
//!
//! The executor, the workload generators and the backoff randomization all
//! draw from [`SimRng`] (xoshiro256\*\*, seeded via SplitMix64), so a whole
//! experiment is reproducible from a single `u64` seed.

/// xoshiro256\*\* PRNG with SplitMix64 seeding.
///
/// ```rust
/// use smart_rt::rng::SimRng;
///
/// let mut a = SimRng::new(7);
/// let mut b = SimRng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

const GOLDEN_GAMMA: u64 = 0x9E3779B97F4A7C15;

/// The SplitMix64 output function: a bijective, full-avalanche
/// `u64 → u64` mix. The one copy behind [`SimRng`] seeding, timer tie
/// keys, per-domain PDES seeds and the id-keyed hash tables.
///
/// ```rust
/// assert_eq!(smart_rt::rng::mix64(0), 0xE220A8397B1DCDAF);
/// ```
#[inline]
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn splitmix64(state: &mut u64) -> u64 {
    let out = mix64(*state);
    *state = state.wrapping_add(GOLDEN_GAMMA);
    out
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `u64` in `[0, bound)` (Lemire's multiply-shift method with
    /// rejection, unbiased).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn next_u64_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn gen_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.next_u64_below(hi - lo)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fills `dest` with random bytes.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }

    /// Derives an independent child generator (for per-task streams).
    pub fn fork(&mut self) -> SimRng {
        SimRng::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SimRng::new(123);
        let mut b = SimRng::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SimRng::new(42);
        for bound in [1u64, 2, 3, 7, 100, 1 << 40] {
            for _ in 0..200 {
                assert!(r.next_u64_below(bound) < bound);
            }
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = SimRng::new(7);
        let mut buckets = [0u32; 10];
        let n = 100_000;
        for _ in 0..n {
            buckets[r.next_u64_below(10) as usize] += 1;
        }
        for &b in &buckets {
            let expected = n as f64 / 10.0;
            assert!((b as f64 - expected).abs() < expected * 0.05, "bucket {b}");
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(5);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_bounds() {
        let mut r = SimRng::new(9);
        for _ in 0..1000 {
            let v = r.gen_range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn fill_bytes_covers_all_lengths() {
        let mut r = SimRng::new(11);
        for len in 0..33 {
            let mut buf = vec![0u8; len];
            r.fill_bytes(&mut buf);
            if len >= 8 {
                assert!(buf.iter().any(|&b| b != 0), "len {len}");
            }
        }
    }

    #[test]
    fn fork_produces_independent_stream() {
        let mut a = SimRng::new(3);
        let mut child = a.fork();
        assert_ne!(a.next_u64(), child.next_u64());
    }
}
