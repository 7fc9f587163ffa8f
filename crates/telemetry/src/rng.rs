//! The workspace's one random-number generator.
//!
//! Two seeded streams drive every number the simulator reports: the
//! process-variation draw of each VC's initial `Vth` (with sensor read
//! noise and faulty-sensor corruption beside it), and the traffic. Both
//! are pure functions of their seeds, with no global or thread-local state,
//! which the parallel engine's determinism contract rests on.
//!
//! * [`Xoshiro256pp`] draws process variation, sensor noise, faulty
//!   sensors and the synthetic and application traffic, through its
//!   inherent draws ([`Xoshiro256pp::unit`], [`Xoshiro256pp::below`],
//!   [`Xoshiro256pp::range`], [`Xoshiro256pp::chance`]).
//! * [`SplitMix64`] seeds it, and on its own draws the NBTITRC mixes and
//!   the service client's backoff jitter.
//!
//! Changing a draw redraws every reported number, so this module's stream
//! test and the stream goldens in `crates/core/tests/topology_regression.rs`
//! pin each one bit for bit.

/// Weyl increment of SplitMix64: 2⁶⁴ divided by the golden ratio.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Maps 64 random bits onto `[0, 1)` with 53-bit precision.
#[inline]
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// SplitMix64 (Steele, Lea & Flood): one 64-bit state, one Weyl step and
/// one finalizer per draw.
///
/// Its users keep their own arithmetic on purpose. The NBTITRC mixes draw
/// `next_u64() % n` and an unasserted `unit() < p`, not the multiply-high
/// [`Xoshiro256pp::below`] and asserted [`Xoshiro256pp::chance`]; the
/// replay goldens pin those schedules, so the two are not unified.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN_GAMMA);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }
}

/// xoshiro256++ (Blackman & Vigna), seeded through [`SplitMix64`] as its
/// authors recommend.
#[derive(Debug, Clone)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// A generator whose state is four [`SplitMix64`] draws from `seed`.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Xoshiro256pp {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// The next 64 random bits.
    #[inline]
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

    /// A uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// A uniform index in `0..n`: the high word of `next_u64() · n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) has no values");
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// A uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let v = lo + self.unit() * (hi - lo);
        // Guard the open upper bound against rounding.
        if v < hi {
            v
        } else {
            lo
        }
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "chance p out of range: {p}");
        self.unit() < p
    }
}

#[cfg(test)]
mod tests {
    use super::Xoshiro256pp;

    /// The first eight words at three seeds, then the first draws of each
    /// kind the workspace makes (unit `f64`, `0..5`, `-1.0..1.0`, `p = 0.3`)
    /// from seed 2013. Captured from the `rand` stand-in this module
    /// replaced.
    #[test]
    fn stream_matches_golden() {
        let mut words = Vec::new();
        for seed in [0, 1, 2013] {
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            words.extend((0..8).map(|_| rng.next_u64()));
        }
        let mut rng = Xoshiro256pp::seed_from_u64(2013);
        let units: Vec<u64> = (0..4).map(|_| rng.unit().to_bits()).collect();
        let belows: Vec<usize> = (0..8).map(|_| rng.below(5)).collect();
        let ranges: Vec<u64> = (0..4).map(|_| rng.range(-1.0, 1.0).to_bits()).collect();
        let chances: Vec<bool> = (0..8).map(|_| rng.chance(0.3)).collect();
        let got = (words, units, belows, ranges, chances);
        let want = (
            vec![
                0x5317_5d61_490b_23df,
                0x61da_6f3d_c380_d507,
                0x5c0f_df91_ec9a_7bfc,
                0x02ee_bf8c_3bbe_5e1a,
                0x7eca_04eb_af4a_5eea,
                0x0543_c377_57f0_8d9a,
                0xdb74_90c7_5ab5_026e,
                0xd873_43e6_464b_c959, // seed 0
                0xcfc5_d07f_6f03_c29b,
                0xbf42_4132_963f_e08d,
                0x19a3_7d57_57aa_f520,
                0xbf08_119f_05cd_56d6,
                0x2f47_184b_8618_6fa4,
                0x9729_9fca_e720_2345,
                0xfca3_c795_08f4_1507,
                0x85fe_a5c9_0363_f221, // seed 1
                0x426f_599b_1132_ebb4,
                0x18dc_067b_93ab_9503,
                0xc6c4_95b5_f254_2d6a,
                0xaacb_b8b7_98a4_0ed4,
                0x5309_9091_01ae_6807,
                0x6828_0401_9fb6_1b4a,
                0x6d14_6d63_df0c_94f1,
                0xb1e1_fa27_feac_adb5, // seed 2013
            ],
            vec![
                0x3fd0_9bd6_66c4_4cba,
                0x3fb8_dc06_7b93_ab90,
                0x3fe8_d892_b6be_4a85,
                0x3fe5_5977_16f3_1481,
            ],
            vec![1, 2, 2, 3, 1, 3, 1, 4],
            vec![
                0x3fc5_829b_a652_fe40,
                0x3fe1_61e8_738a_fab6,
                0xbfed_f201_4cb9_3eb4,
                0x3fee_2048_0710_1068,
            ],
            vec![false, false, false, false, false, false, false, true],
        );
        assert_eq!(got, want);
    }

    #[test]
    fn draws_stay_in_range() {
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let mut counts = [0usize; 5];
        for _ in 0..50_000 {
            assert!((0.0..1.0).contains(&rng.unit()));
            assert!((-1.0..1.0).contains(&rng.range(-1.0, 1.0)));
            counts[rng.below(5)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "skewed counts: {counts:?}");
        }
        let hits = (0..100_000).filter(|_| rng.chance(0.3)).count();
        assert!(
            (hits as f64 / 100_000.0 - 0.3).abs() < 0.01,
            "hits = {hits}"
        );
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    #[should_panic(expected = "chance p out of range")]
    fn chance_rejects_a_non_probability() {
        let _ = Xoshiro256pp::seed_from_u64(0).chance(1.5);
    }
}
