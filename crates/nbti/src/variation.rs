//! Within-die process-variation sampling of initial threshold voltages.
//!
//! The paper (Section IV-A) models process variation by associating one PMOS
//! transistor to each virtual-channel buffer; each transistor's initial `Vth`
//! is drawn from a Gaussian distribution with mean 0.180 V (45 nm) and
//! standard deviation 0.005 V (Agarwal & Nassif, DAC'07). Die-to-die
//! variation is assumed constant within one chip, so only within-die samples
//! are drawn.
//!
//! The sampler is deterministic given a seed: the paper samples one `Vth` set
//! per *{architecture, injection rate}* pair and reuses it across the three
//! policies "for consistency purposes" — the experiment runner does the same
//! by reusing seeds.

use crate::gauss::normal;
use crate::units::Volt;
use noc_telemetry::rng::Xoshiro256pp;

/// Deterministic Gaussian sampler of initial per-buffer threshold voltages.
///
/// ```
/// use nbti_model::{ProcessVariation, Volt};
///
/// let mut pv = ProcessVariation::paper_45nm(42);
/// let vths = pv.sample_port(4); // one PMOS per VC buffer
/// assert_eq!(vths.len(), 4);
/// for v in &vths {
///     assert!(v.as_volts() > 0.14 && v.as_volts() < 0.22);
/// }
/// // Same seed ⇒ same samples (paper: one Vth set per scenario).
/// let mut pv2 = ProcessVariation::paper_45nm(42);
/// assert_eq!(vths, pv2.sample_port(4));
/// ```
#[derive(Debug, Clone)]
pub struct ProcessVariation {
    mean: f64,
    sigma: f64,
    rng: Xoshiro256pp,
    clamp_sigmas: f64,
}

impl ProcessVariation {
    /// Creates a sampler with the given mean and standard deviation (volts).
    ///
    /// Samples are clamped to ±4σ around the mean, matching the bounded
    /// within-die spread assumption of characterisation studies (and keeping
    /// extreme tail samples from dominating a 16-sample port draw).
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative.
    pub fn new(mean: Volt, sigma: Volt, seed: u64) -> Self {
        assert!(sigma.as_volts() >= 0.0, "sigma must be non-negative");
        ProcessVariation {
            mean: mean.as_volts(),
            sigma: sigma.as_volts(),
            rng: Xoshiro256pp::seed_from_u64(seed),
            clamp_sigmas: 4.0,
        }
    }

    /// The paper's 45 nm setup: `Vth ~ N(0.180 V, 0.005 V)`.
    pub fn paper_45nm(seed: u64) -> Self {
        Self::new(Volt::from_volts(0.180), Volt::from_volts(0.005), seed)
    }

    /// The paper's 32 nm setup: `Vth ~ N(0.160 V, 0.005 V)`.
    pub fn paper_32nm(seed: u64) -> Self {
        Self::new(Volt::from_volts(0.160), Volt::from_volts(0.005), seed)
    }

    /// Mean of the distribution.
    pub fn mean(&self) -> Volt {
        Volt::from_volts(self.mean)
    }

    /// Standard deviation of the distribution.
    pub fn sigma(&self) -> Volt {
        Volt::from_volts(self.sigma)
    }

    /// Draws one initial threshold voltage.
    pub fn sample(&mut self) -> Volt {
        let lo = self.mean - self.clamp_sigmas * self.sigma;
        let hi = self.mean + self.clamp_sigmas * self.sigma;
        let v = normal(&mut self.rng, self.mean, self.sigma).clamp(lo, hi);
        Volt::from_volts(v)
    }

    /// Draws one threshold voltage per VC buffer of an input port.
    pub fn sample_port(&mut self, num_vcs: usize) -> Vec<Volt> {
        (0..num_vcs).map(|_| self.sample()).collect()
    }

    /// Index of the *most degraded* buffer in a sampled set — the one with
    /// the highest initial `Vth` (the paper's `MD VC` column).
    ///
    /// Returns `None` for an empty slice.
    pub fn most_degraded(vths: &[Volt]) -> Option<usize> {
        vths.iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.as_volts().total_cmp(&b.as_volts()))
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = ProcessVariation::paper_45nm(7);
        let mut b = ProcessVariation::paper_45nm(7);
        for _ in 0..100 {
            assert_eq!(a.sample(), b.sample());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = ProcessVariation::paper_45nm(1);
        let mut b = ProcessVariation::paper_45nm(2);
        let sa: Vec<_> = (0..8).map(|_| a.sample()).collect();
        let sb: Vec<_> = (0..8).map(|_| b.sample()).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn sample_statistics_match_distribution() {
        let mut pv = ProcessVariation::paper_45nm(123);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| pv.sample().as_volts()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 0.180).abs() < 5e-4, "mean = {mean}");
        assert!((var.sqrt() - 0.005).abs() < 5e-4, "std = {}", var.sqrt());
    }

    #[test]
    fn samples_are_clamped_to_four_sigma() {
        let mut pv = ProcessVariation::paper_45nm(99);
        for _ in 0..50_000 {
            let v = pv.sample().as_volts();
            assert!(v >= 0.180 - 4.0 * 0.005 - 1e-12);
            assert!(v <= 0.180 + 4.0 * 0.005 + 1e-12);
        }
    }

    #[test]
    fn zero_sigma_returns_mean() {
        let mut pv = ProcessVariation::new(Volt::from_volts(0.2), Volt::ZERO, 5);
        for _ in 0..10 {
            assert_eq!(pv.sample(), Volt::from_volts(0.2));
        }
    }

    #[test]
    fn most_degraded_picks_highest_vth() {
        let vths = vec![
            Volt::from_volts(0.179),
            Volt::from_volts(0.186),
            Volt::from_volts(0.181),
        ];
        assert_eq!(ProcessVariation::most_degraded(&vths), Some(1));
        assert_eq!(ProcessVariation::most_degraded(&[]), None);
    }

    #[test]
    fn sample_port_draws_requested_count() {
        let mut pv = ProcessVariation::paper_32nm(3);
        assert_eq!(pv.sample_port(2).len(), 2);
        assert_eq!(pv.sample_port(4).len(), 4);
        assert!(pv.sample_port(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "sigma must be non-negative")]
    fn negative_sigma_panics() {
        let _ = ProcessVariation::new(Volt::from_volts(0.18), Volt::from_volts(-0.01), 0);
    }
}
