//! Crate-internal Gaussian sampler.
//!
//! A Marsaglia-polar normal sampler built on the uniform RNG so the crate
//! does not need an extra dependency for Gaussian sampling.

use noc_telemetry::rng::Xoshiro256pp;

/// Draws one sample of `N(mean, sigma²)`.
pub(crate) fn normal(rng: &mut Xoshiro256pp, mean: f64, sigma: f64) -> f64 {
    if sigma == 0.0 {
        return mean;
    }
    // Marsaglia polar method: numerically stable, no trig.
    loop {
        let u = rng.range(-1.0, 1.0);
        let v = rng.range(-1.0, 1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            let factor = (-2.0 * s.ln() / s).sqrt();
            return mean + sigma * u * factor;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_sigma_is_constant() {
        let mut rng = Xoshiro256pp::seed_from_u64(0);
        for _ in 0..5 {
            assert_eq!(normal(&mut rng, 3.5, 0.0), 3.5);
        }
    }

    #[test]
    fn moments_are_approximately_right() {
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let count = 40_000;
        let xs: Vec<f64> = (0..count).map(|_| normal(&mut rng, -2.0, 3.0)).collect();
        let mean = xs.iter().sum::<f64>() / count as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / count as f64;
        assert!((mean + 2.0).abs() < 0.05, "mean = {mean}");
        assert!((var.sqrt() - 3.0).abs() < 0.05, "std = {}", var.sqrt());
    }
}
