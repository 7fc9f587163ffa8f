//! Offline stand-in for the `rand` crate.
//!
//! The build container has no access to a crates.io registry, so the
//! workspace vendors the exact API subset it consumes: [`rngs::StdRng`],
//! [`SeedableRng::seed_from_u64`], the [`Rng`] extension methods
//! (`gen`, `gen_range`, `gen_bool`) and the
//! [`distributions::Distribution`] trait.
//!
//! The generator is xoshiro256++ seeded through SplitMix64 — small, fast
//! and statistically solid for simulation workloads. It is **not** the
//! upstream `StdRng` (ChaCha12), so absolute random streams differ from
//! builds against crates.io `rand`; every test in this repository asserts
//! distributional or qualitative properties rather than golden values, and
//! the repository's own determinism contract (same seed ⇒ same stream) is
//! preserved exactly.

use std::ops::{Range, RangeInclusive};

/// A source of random 64-bit words.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Deterministic construction from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Creates a generator whose stream is a pure function of `state`.
    fn seed_from_u64(state: u64) -> Self;
}

/// Extension methods over any [`RngCore`], mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Samples a value from the standard distribution of `T`
    /// (`f64` in `[0, 1)`, uniform integers, fair `bool`).
    fn gen<T>(&mut self) -> T
    where
        distributions::Standard: distributions::Distribution<T>,
    {
        use distributions::Distribution;
        distributions::Standard.sample(self)
    }

    /// Samples uniformly from `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool p out of range: {p}");
        unit_f64(self.next_u64()) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Maps 64 random bits onto `[0, 1)` with 53-bit precision.
#[inline]
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A range from which a uniform sample can be drawn (`rand`'s
/// `SampleRange`).
pub trait SampleRange<T> {
    /// Draws one uniform sample.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty gen_range");
                let span = (self.end as u128).wrapping_sub(self.start as u128);
                let draw = (rng.next_u64() as u128 * span) >> 64;
                self.start + draw as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty gen_range");
                let span = (hi as u128) - (lo as u128) + 1;
                let draw = (rng.next_u64() as u128 * span) >> 64;
                lo + draw as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty gen_range");
                let u = unit_f64(rng.next_u64()) as $t;
                let v = self.start + u * (self.end - self.start);
                // Guard the open upper bound against rounding.
                if v < self.end { v } else { self.start }
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty gen_range");
                let u = unit_f64(rng.next_u64()) as $t;
                lo + u * (hi - lo)
            }
        }
    )*};
}

impl_float_range!(f32, f64);

/// Distributions, mirroring `rand::distributions`.
pub mod distributions {
    use super::{unit_f64, Rng};

    /// A distribution over values of type `T`.
    pub trait Distribution<T> {
        /// Draws one sample using `rng`.
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// The standard distribution: `[0, 1)` floats, uniform integers, fair
    /// booleans.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Standard;

    impl Distribution<f64> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
            unit_f64(rng.next_u64())
        }
    }

    impl Distribution<f32> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
            unit_f64(rng.next_u64()) as f32
        }
    }

    impl Distribution<bool> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! impl_standard_int {
        ($($t:ty),*) => {$(
            impl Distribution<$t> for Standard {
                fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);
}

/// Concrete generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256++ seeded via
    /// SplitMix64.
    ///
    /// Deterministic: the stream is a pure function of the seed, with no
    /// global or thread-local state — the property the parallel experiment
    /// engine's determinism contract rests on.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            // SplitMix64 expansion, as recommended by the xoshiro authors.
            let mut sm = state;
            let mut next = || {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
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
    }
}

#[cfg(test)]
mod tests {
    use super::distributions::{Distribution, Standard};
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..64 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn unit_floats_stay_in_range_and_cover() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut sum = 0.0;
        let n = 10_000;
        for _ in 0..n {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean = {mean}");
    }

    #[test]
    fn int_ranges_are_uniform_and_bounded() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0usize; 5];
        for _ in 0..50_000 {
            let v = rng.gen_range(0usize..5);
            counts[v] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "skewed counts: {counts:?}");
        }
        for _ in 0..1_000 {
            let v = rng.gen_range(3u8..=7);
            assert!((3..=7).contains(&v));
        }
    }

    #[test]
    fn float_ranges_are_bounded() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let v = rng.gen_range(-1.0f64..1.0);
            assert!((-1.0..1.0).contains(&v));
            let w = rng.gen_range(0.25f64..=0.75);
            assert!((0.25..=0.75).contains(&w));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(11);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate = {rate}");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn standard_distribution_samples_through_trait() {
        let mut rng = StdRng::seed_from_u64(5);
        let x: f64 = Standard.sample(&mut rng);
        assert!((0.0..1.0).contains(&x));
        let _: bool = Standard.sample(&mut rng);
    }
}
