//! Deterministic randomness tied to the runtime seed.
//!
//! Every random decision in the simulation (workload payloads, arrival
//! jitter) draws from the runtime's seeded RNG so that an experiment is fully
//! described by `(code, seed)`.
//!
//! The generator is an in-tree xoshiro256++ (public domain algorithm by
//! Blackman & Vigna), seeded through splitmix64 — no external dependency, so
//! the simulation builds fully offline.

use crate::executor::with_current;

/// A small, fast, deterministic PRNG (xoshiro256++).
///
/// Usable standalone (`SimRng::seed_from_u64`) for seeded-loop generative
/// tests, or ambiently through the runtime via the free functions of this
/// module.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator whose entire stream is determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> SimRng {
        // splitmix64 expansion of the seed into the 256-bit state.
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut s = [next(), next(), next(), next()];
        if s == [0; 4] {
            s = [0xDEAD_BEEF, 1, 2, 3]; // all-zero state is a fixed point
        }
        SimRng { s }
    }

    /// Next uniformly distributed `u64`.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Next uniformly distributed `u32`.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform draw from `[0, bound)` using Lemire's multiply-shift with a
    /// rejection pass (unbiased). `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        if bound.is_power_of_two() {
            return self.next_u64() & (bound - 1);
        }
        // Classic rejection sampling on the top range.
        let zone = u64::MAX - (u64::MAX % bound) - 1;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % bound;
            }
        }
    }

    /// Uniform sample from a range (`a..b` or `a..=b`) of `u64`/`u32`/`usize`
    /// values.
    pub fn random_range<T, R>(&mut self, range: R) -> T
    where
        T: SampleValue,
        R: SampleRange<T>,
    {
        range.sample(self)
    }

    /// Fills `buf` with pseudo-random bytes.
    pub fn fill(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for c in &mut chunks {
            c.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            let w = self.next_u64().to_le_bytes();
            rest.copy_from_slice(&w[..rest.len()]);
        }
    }

    /// A uniformly random `u64` (alias kept close to the old `rand` surface).
    pub fn random(&mut self) -> u64 {
        self.next_u64()
    }

    /// A random boolean that is `true` with probability `p`.
    pub fn random_bool(&mut self, p: f64) -> bool {
        (self.next_u64() as f64 / u64::MAX as f64) < p
    }
}

/// Integer types the RNG can sample uniformly.
pub trait SampleValue: Copy {
    fn from_u64(v: u64) -> Self;
    fn to_u64(self) -> u64;
}

macro_rules! impl_sample_value {
    ($($t:ty),*) => {$(
        impl SampleValue for $t {
            fn from_u64(v: u64) -> Self {
                v as $t
            }
            fn to_u64(self) -> u64 {
                self as u64
            }
        }
    )*};
}
impl_sample_value!(u8, u16, u32, u64, usize);

/// Ranges the RNG can sample from (half-open and inclusive).
pub trait SampleRange<T: SampleValue> {
    fn sample(self, rng: &mut SimRng) -> T;
}

impl<T: SampleValue> SampleRange<T> for std::ops::Range<T> {
    fn sample(self, rng: &mut SimRng) -> T {
        let (lo, hi) = (self.start.to_u64(), self.end.to_u64());
        assert!(lo < hi, "empty sample range");
        T::from_u64(lo + rng.below(hi - lo))
    }
}

impl<T: SampleValue> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn sample(self, rng: &mut SimRng) -> T {
        let (lo, hi) = (self.start().to_u64(), self.end().to_u64());
        assert!(lo <= hi, "empty sample range");
        let span = hi - lo;
        if span == u64::MAX {
            return T::from_u64(rng.next_u64());
        }
        T::from_u64(lo + rng.below(span + 1))
    }
}

/// Runs `f` with mutable access to the runtime RNG.
pub fn with<T>(f: impl FnOnce(&mut SimRng) -> T) -> T {
    with_current(|inner| f(&mut inner.rng.borrow_mut()))
}

/// Uniform sample from a range.
pub fn range_u64<R>(range: R) -> u64
where
    R: SampleRange<u64>,
{
    with(|r| r.random_range(range))
}

/// Uniform sample from a range of any uniform-sampleable integer type.
pub fn range<T, R>(range: R) -> T
where
    T: SampleValue,
    R: SampleRange<T>,
{
    with(|r| r.random_range(range))
}

/// Fills a byte slice with deterministic pseudo-random data.
pub fn fill_bytes(buf: &mut [u8]) {
    with(|r| r.fill(buf));
}

/// Derives an independent RNG stream from the runtime RNG; useful for
/// workloads that must not perturb each other's sequences.
pub fn fork() -> SimRng {
    with(|r| SimRng::seed_from_u64(r.next_u64()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Runtime;

    #[test]
    fn deterministic_per_seed() {
        let draw = |seed| {
            let rt = Runtime::with_seed(seed);
            rt.block_on(async { (0..5).map(|_| range_u64(0..1000)).collect::<Vec<_>>() })
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn fork_streams_diverge() {
        let rt = Runtime::new();
        rt.block_on(async {
            let mut a = fork();
            let mut b = fork();
            let va: Vec<u64> = (0..4).map(|_| a.random()).collect();
            let vb: Vec<u64> = (0..4).map(|_| b.random()).collect();
            assert_ne!(va, vb);
        });
    }

    #[test]
    fn fill_bytes_fills() {
        let rt = Runtime::new();
        rt.block_on(async {
            let mut buf = [0u8; 64];
            fill_bytes(&mut buf);
            assert!(buf.iter().any(|&b| b != 0));
        });
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = SimRng::seed_from_u64(99);
        for _ in 0..10_000 {
            let v = r.random_range(10u64..20);
            assert!((10..20).contains(&v));
            let w: u32 = r.random_range(0u32..=3);
            assert!(w <= 3);
            let p: usize = r.random_range(1usize..1500);
            assert!((1..1500).contains(&p));
        }
    }

    #[test]
    fn full_u64_inclusive_range_does_not_panic() {
        let mut r = SimRng::seed_from_u64(3);
        let _: u64 = r.random_range(0u64..=u64::MAX);
        let _: u64 = r.random_range(1u64..u64::MAX);
    }

    #[test]
    fn uniformity_rough() {
        // Coarse sanity: 8 buckets over 80k draws are each within 20% of
        // expectation — catches catastrophic bias, not subtle defects.
        let mut r = SimRng::seed_from_u64(1234);
        let mut buckets = [0u64; 8];
        for _ in 0..80_000 {
            buckets[r.below(8) as usize] += 1;
        }
        for b in buckets {
            assert!((8_000..12_000).contains(&b), "bucket count {b}");
        }
    }
}
