//! NBTI sensor models.
//!
//! The paper instruments every VC buffer of a downstream router with one
//! NBTI sensor (Singh et al., *Dynamic NBTI management using a 45 nm
//! multi-degradation sensor*, TCAS-I 2011) and sends the identifier of the
//! most degraded VC to the upstream router on the `Down_Up` link.
//!
//! Two models are provided:
//!
//! * [`IdealSensor`] — returns the true threshold voltage. This is what the
//!   paper's simulation library effectively does.
//! * [`QuantizedSensor`] — adds the three dominant non-idealities of a real
//!   embedded sensor: finite measurement resolution (LSB), Gaussian read
//!   noise, and a sampling period (readings are held between samples).
//!   Used by the sensor-fidelity ablation benches.

use crate::gauss::normal;
use crate::units::Volt;
use noc_telemetry::rng::Xoshiro256pp;
use std::borrow::Borrow;

/// A sensor that observes the (true) threshold voltage of one monitored
/// buffer and produces a reading.
///
/// Implementations may be stateful (sampling period, noise RNG), hence
/// `&mut self`.
pub trait NbtiSensor {
    /// `true` when every reading is exactly the true threshold voltage,
    /// drawn from no RNG and held in no state, so an election may skip
    /// sampling whenever it can tell the outcome without the readings
    /// ([`PortAgeTracker::most_degraded`](crate::PortAgeTracker::most_degraded)).
    const READS_TRUE_VTH: bool = false;

    /// Produces a reading of `true_vth` at simulation cycle `cycle`.
    fn sample(&mut self, true_vth: Volt, cycle: u64) -> Volt;
}

/// A perfect sensor: the reading equals the true threshold voltage. It
/// keeps no state, so skipping a sample changes nothing.
///
/// ```
/// use nbti_model::{IdealSensor, NbtiSensor, Volt};
/// let mut s = IdealSensor::new();
/// let v = Volt::from_volts(0.1834);
/// assert_eq!(s.sample(v, 10), v);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IdealSensor;

impl IdealSensor {
    /// Creates an ideal sensor.
    pub const fn new() -> Self {
        IdealSensor
    }
}

impl NbtiSensor for IdealSensor {
    const READS_TRUE_VTH: bool = true;

    fn sample(&mut self, true_vth: Volt, _cycle: u64) -> Volt {
        true_vth
    }
}

/// A sensor with finite resolution, Gaussian read noise and a sampling
/// period.
///
/// Between sampling instants the previous reading is held (real sensors are
/// duty-cycled to save power; the Singh sensor is triggered periodically by
/// a management unit).
///
/// ```
/// use nbti_model::{NbtiSensor, QuantizedSensor, Volt};
///
/// // 1 mV LSB, no noise, sample every 100 cycles.
/// let mut s = QuantizedSensor::new(Volt::from_millivolts(1.0), Volt::ZERO, 100, 7);
/// let r = s.sample(Volt::from_volts(0.18162), 0);
/// // Quantized to the nearest millivolt:
/// assert!((r.as_volts() - 0.182).abs() < 1e-9);
/// // Held until the next sampling instant:
/// let r2 = s.sample(Volt::from_volts(0.30), 50);
/// assert_eq!(r2, r);
/// let r3 = s.sample(Volt::from_volts(0.30), 100);
/// assert!((r3.as_volts() - 0.30).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct QuantizedSensor {
    lsb: Volt,
    noise_sigma: f64,
    period: u64,
    rng: Xoshiro256pp,
    last: Option<Volt>,
    last_cycle: Option<u64>,
}

impl QuantizedSensor {
    /// Creates a sensor.
    ///
    /// * `lsb` — measurement resolution; readings are rounded to the nearest
    ///   multiple. Use [`Volt::ZERO`] for no quantization.
    /// * `noise_sigma` — standard deviation of additive Gaussian read noise.
    /// * `period` — sampling period in cycles; a new measurement is taken
    ///   only when at least `period` cycles elapsed since the previous one
    ///   (and always on the very first call). Use 1 for every-cycle sampling.
    /// * `seed` — noise RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero or `lsb`/`noise_sigma` is negative.
    pub fn new(lsb: Volt, noise_sigma: Volt, period: u64, seed: u64) -> Self {
        assert!(period > 0, "sampling period must be at least one cycle");
        assert!(lsb.as_volts() >= 0.0, "lsb must be non-negative");
        assert!(
            noise_sigma.as_volts() >= 0.0,
            "noise sigma must be non-negative"
        );
        QuantizedSensor {
            lsb,
            noise_sigma: noise_sigma.as_volts(),
            period,
            rng: Xoshiro256pp::seed_from_u64(seed),
            last: None,
            last_cycle: None,
        }
    }

    /// A model of the Singh et al. 45 nm multi-degradation sensor:
    /// ≈ 0.5 mV resolution, 0.25 mV read noise, periodic sampling.
    pub fn singh_45nm(period: u64, seed: u64) -> Self {
        Self::new(
            Volt::from_millivolts(0.5),
            Volt::from_millivolts(0.25),
            period,
            seed,
        )
    }

    /// The sensor's resolution (LSB).
    pub fn lsb(&self) -> Volt {
        self.lsb
    }

    /// The sampling period in cycles.
    pub fn period(&self) -> u64 {
        self.period
    }

    fn quantize(&self, v: f64) -> f64 {
        let lsb = self.lsb.as_volts();
        if lsb == 0.0 {
            v
        } else {
            (v / lsb).round() * lsb
        }
    }
}

impl NbtiSensor for QuantizedSensor {
    fn sample(&mut self, true_vth: Volt, cycle: u64) -> Volt {
        let due = match self.last_cycle {
            None => true,
            Some(prev) => cycle >= prev.saturating_add(self.period),
        };
        if due {
            let noisy = true_vth.as_volts() + normal(&mut self.rng, 0.0, self.noise_sigma);
            let reading = Volt::from_volts(self.quantize(noisy));
            self.last = Some(reading);
            self.last_cycle = Some(cycle);
            return reading;
        }
        // The first call is always due, so a cached reading exists here;
        // the fallback is unreachable but keeps the hot path panic-free.
        self.last.unwrap_or(true_vth)
    }
}

/// Failure-injection wrapper around a sensor (extension).
///
/// Embedded sensors fail in characteristic ways; the two that matter for
/// the most-degraded election are modelled here:
///
/// * **stuck** — the sensor repeats its first reading forever (a latched
///   output or a dead reference), hiding all subsequent degradation;
/// * **erratic** — with some probability per sample the reading is
///   replaced by a uniformly random value in a plausible band, which can
///   steal or surrender the most-degraded election.
///
/// Used by robustness tests: a sensor-wise policy fed by faulty sensors
/// must degrade gracefully towards the sensor-less policies, never below
/// the baseline.
#[derive(Debug, Clone)]
pub struct FaultySensor<S> {
    inner: S,
    mode: FaultMode,
    rng: Xoshiro256pp,
    stuck_at: Option<Volt>,
}

/// The failure mode of a [`FaultySensor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultMode {
    /// Repeat the first reading forever.
    Stuck,
    /// With probability `p` per sample, return a uniform random reading in
    /// `[lo, hi]` instead of the true one.
    Erratic {
        /// Per-sample corruption probability.
        p: f64,
        /// Lower bound of corrupted readings.
        lo: Volt,
        /// Upper bound of corrupted readings.
        hi: Volt,
    },
}

impl<S: NbtiSensor> FaultySensor<S> {
    /// Wraps `inner` with the given failure mode.
    ///
    /// # Panics
    ///
    /// Panics if an erratic probability is outside `[0, 1]` or the band is
    /// inverted.
    pub fn new(inner: S, mode: FaultMode, seed: u64) -> Self {
        if let FaultMode::Erratic { p, lo, hi } = mode {
            assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
            assert!(lo <= hi, "erratic band is inverted");
        }
        FaultySensor {
            inner,
            mode,
            rng: Xoshiro256pp::seed_from_u64(seed),
            stuck_at: None,
        }
    }
}

impl<S: NbtiSensor> NbtiSensor for FaultySensor<S> {
    fn sample(&mut self, true_vth: Volt, cycle: u64) -> Volt {
        match self.mode {
            FaultMode::Stuck => {
                let first = *self.stuck_at.get_or_insert(true_vth);
                let _ = self.inner.sample(first, cycle);
                first
            }
            FaultMode::Erratic { p, lo, hi } => {
                let clean = self.inner.sample(true_vth, cycle);
                if p > 0.0 && self.rng.chance(p) {
                    let span = (hi - lo).as_volts();
                    Volt::from_volts(lo.as_volts() + self.rng.unit() * span)
                } else {
                    clean
                }
            }
        }
    }
}

/// Selects the most degraded buffer index from per-buffer sensor readings,
/// streamed in buffer order (highest reading wins; ties resolve to the
/// lowest index, making the hardware one-hot encoding deterministic).
///
/// Returns `None` when there are no readings.
pub fn most_degraded_by_reading(
    readings: impl IntoIterator<Item = impl Borrow<Volt>>,
) -> Option<usize> {
    let mut best: Option<(usize, Volt)> = None;
    for (i, r) in readings.into_iter().enumerate() {
        let r = *r.borrow();
        match best {
            None => best = Some((i, r)),
            Some((_, b)) if r > b => best = Some((i, r)),
            _ => {}
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_sensor_is_transparent() {
        let mut s = IdealSensor::new();
        for i in 0..5 {
            let v = Volt::from_volts(0.18 + i as f64 * 1e-3);
            assert_eq!(s.sample(v, i), v);
        }
        assert!(IdealSensor::READS_TRUE_VTH);
        assert!(!QuantizedSensor::READS_TRUE_VTH);
        assert!(!FaultySensor::<IdealSensor>::READS_TRUE_VTH);
    }

    #[test]
    fn quantization_rounds_to_lsb() {
        let mut s = QuantizedSensor::new(Volt::from_millivolts(2.0), Volt::ZERO, 1, 0);
        let r = s.sample(Volt::from_millivolts(180.9), 0);
        assert!((r.as_millivolts() - 180.0).abs() < 1e-9);
        let r = s.sample(Volt::from_millivolts(181.1), 1);
        assert!((r.as_millivolts() - 182.0).abs() < 1e-9);
    }

    #[test]
    fn holds_reading_between_samples() {
        let mut s = QuantizedSensor::new(Volt::ZERO, Volt::ZERO, 1000, 0);
        let first = s.sample(Volt::from_volts(0.18), 0);
        for c in 1..1000 {
            assert_eq!(s.sample(Volt::from_volts(0.25), c), first);
        }
        let next = s.sample(Volt::from_volts(0.25), 1000);
        assert!((next.as_volts() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn noise_is_zero_mean() {
        let mut s = QuantizedSensor::new(Volt::ZERO, Volt::from_millivolts(1.0), 1, 9);
        let truth = Volt::from_volts(0.180);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|c| s.sample(truth, c).as_volts() - truth.as_volts())
            .sum::<f64>()
            / n as f64;
        assert!(mean.abs() < 5e-5, "noise mean = {mean}");
    }

    #[test]
    fn noiseless_full_resolution_sensor_is_ideal() {
        let mut q = QuantizedSensor::new(Volt::ZERO, Volt::ZERO, 1, 4);
        let mut i = IdealSensor::new();
        for c in 0..10 {
            let v = Volt::from_volts(0.17 + c as f64 * 2e-3);
            assert_eq!(q.sample(v, c), i.sample(v, c));
        }
    }

    #[test]
    fn most_degraded_by_reading_picks_max_lowest_index_on_tie() {
        let readings = [
            Volt::from_volts(0.181),
            Volt::from_volts(0.185),
            Volt::from_volts(0.185),
            Volt::from_volts(0.180),
        ];
        assert_eq!(most_degraded_by_reading(readings), Some(1));
        assert_eq!(most_degraded_by_reading(readings.into_iter()), Some(1));
        assert_eq!(most_degraded_by_reading(Vec::<Volt>::new()), None);
    }

    #[test]
    fn singh_sensor_has_expected_parameters() {
        let s = QuantizedSensor::singh_45nm(10_000, 0);
        assert!((s.lsb().as_millivolts() - 0.5).abs() < 1e-12);
        assert_eq!(s.period(), 10_000);
    }

    #[test]
    #[should_panic(expected = "sampling period must be at least one cycle")]
    fn zero_period_panics() {
        let _ = QuantizedSensor::new(Volt::ZERO, Volt::ZERO, 0, 0);
    }

    #[test]
    fn stuck_sensor_repeats_first_reading() {
        let mut s = FaultySensor::new(IdealSensor::new(), FaultMode::Stuck, 1);
        let first = s.sample(Volt::from_volts(0.180), 0);
        assert_eq!(first, Volt::from_volts(0.180));
        for c in 1..10 {
            let v = Volt::from_volts(0.180 + c as f64 * 1e-3);
            assert_eq!(s.sample(v, c), first, "stuck sensor must not move");
        }
    }

    #[test]
    fn erratic_sensor_corrupts_at_the_configured_rate() {
        let mode = FaultMode::Erratic {
            p: 0.25,
            lo: Volt::from_volts(0.10),
            hi: Volt::from_volts(0.30),
        };
        let mut s = FaultySensor::new(IdealSensor::new(), mode, 3);
        let truth = Volt::from_volts(0.180);
        let n = 20_000u64;
        let corrupted = (0..n).filter(|&c| s.sample(truth, c) != truth).count();
        let rate = corrupted as f64 / n as f64;
        // A corrupted sample can coincide with the truth only with
        // probability ~0, so the observed rate tracks p.
        assert!((rate - 0.25).abs() < 0.02, "corruption rate = {rate}");
    }

    #[test]
    fn erratic_with_zero_probability_is_transparent() {
        let mode = FaultMode::Erratic {
            p: 0.0,
            lo: Volt::ZERO,
            hi: Volt::from_volts(1.0),
        };
        let mut s = FaultySensor::new(IdealSensor::new(), mode, 0);
        for c in 0..50 {
            let v = Volt::from_volts(0.17 + c as f64 * 1e-4);
            assert_eq!(s.sample(v, c), v);
        }
    }

    #[test]
    #[should_panic(expected = "erratic band is inverted")]
    fn inverted_band_panics() {
        let _ = FaultySensor::new(
            IdealSensor::new(),
            FaultMode::Erratic {
                p: 0.1,
                lo: Volt::from_volts(0.3),
                hi: Volt::from_volts(0.1),
            },
            0,
        );
    }
}
