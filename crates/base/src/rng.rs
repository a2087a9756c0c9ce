//! Seedable, dependency-free pseudo-random numbers.
//!
//! A SplitMix64-seeded xoshiro256++ generator plus the small set of
//! distribution helpers the workload generators and experiments
//! actually use: uniform integer ranges, Bernoulli draws, Fisher-Yates
//! shuffle and exponential inter-arrival gaps. This replaces the
//! external `rand` crate so the workspace builds hermetically.
//!
//! Determinism is part of the contract: a given seed produces the same
//! stream on every platform and in every run, which is what makes
//! simnet traces and experiment schedules reproducible.

/// xoshiro256++ pseudo-random generator, seeded via SplitMix64.
///
/// Not cryptographically secure — it exists to drive deterministic
/// simulation workloads.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

/// Advance a SplitMix64 state and return the next output.
///
/// Also used on its own to derive independent child seeds (e.g. one
/// seed per property-test case) from a base seed.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Build a generator from a 64-bit seed (SplitMix64-expanded into
    /// the full 256-bit xoshiro state, as the xoshiro authors
    /// recommend).
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `u64` in `[0, bound)` via Lemire-style rejection
    /// (unbiased). `bound` must be non-zero.
    fn bounded(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // rejection zone: discard draws that would wrap unevenly
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let r = self.next_u64();
            let (hi, lo) = {
                let wide = (r as u128) * (bound as u128);
                ((wide >> 64) as u64, wide as u64)
            };
            if lo >= threshold {
                return hi;
            }
        }
    }

    /// Uniform draw from an integer range (`a..b` or `a..=b`).
    ///
    /// Panics on an empty range, matching `rand::Rng::gen_range`.
    pub fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: UniformInt,
        R: SampleRange<T>,
    {
        range.sample(self)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0,1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            return true;
        }
        if p <= 0.0 {
            return false;
        }
        self.next_f64() < p
    }

    /// Fisher-Yates shuffle, in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.bounded(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        assert!(!slice.is_empty(), "choose from empty slice");
        &slice[self.bounded(slice.len() as u64) as usize]
    }

    /// Exponentially distributed inter-arrival gap with the given mean
    /// (Poisson-process waiting time). Returns a non-negative value.
    pub fn exp(&mut self, mean: f64) -> f64 {
        // 1 - u is in (0, 1], so ln never sees zero
        -mean * (1.0 - self.next_f64()).ln()
    }
}

/// Integer types [`Rng::gen_range`] can draw uniformly.
pub trait UniformInt: Copy + PartialOrd {
    /// Widen to the `u64` sampling domain, offset so ordering is
    /// preserved for signed types.
    fn to_u64_offset(self) -> u64;
    /// Inverse of [`UniformInt::to_u64_offset`].
    fn from_u64_offset(v: u64) -> Self;
}

macro_rules! impl_uniform_unsigned {
    ($($t:ty),*) => {$(
        impl UniformInt for $t {
            fn to_u64_offset(self) -> u64 { self as u64 }
            fn from_u64_offset(v: u64) -> $t { v as $t }
        }
    )*};
}
impl_uniform_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_uniform_signed {
    ($($t:ty => $u:ty),*) => {$(
        impl UniformInt for $t {
            fn to_u64_offset(self) -> u64 {
                (self as $u ^ <$t>::MIN as $u) as u64
            }
            fn from_u64_offset(v: u64) -> $t {
                (v as $u ^ <$t>::MIN as $u) as $t
            }
        }
    )*};
}
impl_uniform_signed!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

/// Ranges that can be sampled by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draw a uniform value from the range.
    fn sample(self, rng: &mut Rng) -> T;
}

impl<T: UniformInt> SampleRange<T> for core::ops::Range<T> {
    fn sample(self, rng: &mut Rng) -> T {
        let lo = self.start.to_u64_offset();
        let hi = self.end.to_u64_offset();
        assert!(lo < hi, "gen_range called with empty range");
        T::from_u64_offset(lo + rng.bounded(hi - lo))
    }
}

impl<T: UniformInt> SampleRange<T> for core::ops::RangeInclusive<T> {
    fn sample(self, rng: &mut Rng) -> T {
        let lo = self.start().to_u64_offset();
        let hi = self.end().to_u64_offset();
        assert!(lo <= hi, "gen_range called with empty range");
        let span = hi - lo;
        if span == u64::MAX {
            return T::from_u64_offset(rng.next_u64());
        }
        T::from_u64_offset(lo + rng.bounded(span + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_splitmix_vector() {
        // reference values for seed 1234567 (Vigna's splitmix64.c)
        let mut s = 1234567u64;
        assert_eq!(splitmix64(&mut s), 6457827717110365317);
        assert_eq!(splitmix64(&mut s), 3203168211198807973);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seeds_produce_distinct_streams() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v: u64 = rng.gen_range(10..20);
            assert!((10..20).contains(&v));
            let w: i32 = rng.gen_range(-5..=5);
            assert!((-5..=5).contains(&w));
            let z: usize = rng.gen_range(0..1);
            assert_eq!(z, 0);
        }
    }

    #[test]
    fn range_covers_all_values() {
        let mut rng = Rng::seed_from_u64(9);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            seen[rng.gen_range(0usize..10)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn full_u64_inclusive_range() {
        let mut rng = Rng::seed_from_u64(3);
        // must not overflow or hang
        let _: u64 = rng.gen_range(0..=u64::MAX);
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = Rng::seed_from_u64(11);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.3).abs() < 0.01, "got {frac}");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        assert_ne!(v, (0..100).collect::<Vec<_>>());
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn exp_has_requested_mean() {
        let mut rng = Rng::seed_from_u64(13);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.exp(4.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "got {mean}");
    }
}
