//! Per-buffer and per-port NBTI degradation tracking.
//!
//! A [`BufferAgeTracker`] follows one VC buffer: its process-variation
//! initial `Vth`, its stress/recovery history (duty cycle), and its current
//! *true* aged threshold voltage under the long-term model. A
//! [`PortAgeTracker`] groups the trackers of one input port together with
//! one NBTI sensor per buffer and answers the question the `Down_Up` link
//! carries: *which VC is the most degraded right now?*
//!
//! # Time scaling
//!
//! A 30·10⁶-cycle simulation covers 30 ms of real time — far too short for
//! NBTI to move `Vth` measurably, which is why the paper's most-degraded VC
//! is decided by process variation and stays constant within a scenario.
//! The tracker supports an optional `age_acceleration` factor that maps each
//! simulated cycle to `factor × Tclk` seconds of aging, so sensor-driven
//! dynamics (MD changes over time) can be studied as an extension. The
//! default factor of 1.0 reproduces the paper's regime.

use crate::duty::{DutyCycleCounter, StressState};
use crate::model::LongTermModel;
use crate::sensor::{most_degraded_by_reading, NbtiSensor};
use crate::units::Volt;

/// Tracks the NBTI degradation of a single VC buffer.
///
/// ```
/// use nbti_model::{BufferAgeTracker, LongTermModel, StressState, Volt};
///
/// let model = LongTermModel::calibrated_45nm();
/// let mut t = BufferAgeTracker::new(Volt::from_volts(0.181), model);
/// for _ in 0..60 { t.record(StressState::Stressed); }
/// for _ in 0..40 { t.record(StressState::Recovering); }
/// assert!((t.duty().duty_cycle_percent() - 60.0).abs() < 1e-9);
/// assert!(t.true_vth() >= Volt::from_volts(0.181));
/// ```
#[derive(Debug, Clone)]
pub struct BufferAgeTracker {
    initial_vth: Volt,
    duty: DutyCycleCounter,
    model: LongTermModel,
    age_acceleration: f64,
    elapsed_cycles: u64,
}

impl BufferAgeTracker {
    /// Creates a tracker for a buffer with the given initial `Vth`.
    pub fn new(initial_vth: Volt, model: LongTermModel) -> Self {
        BufferAgeTracker {
            initial_vth,
            duty: DutyCycleCounter::new(),
            model,
            age_acceleration: 1.0,
            elapsed_cycles: 0,
        }
    }

    /// Sets the aging time-acceleration factor (see module docs).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive.
    pub fn with_age_acceleration(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "acceleration factor must be positive");
        self.age_acceleration = factor;
        self
    }

    /// Records one cycle in the given stress state.
    pub fn record(&mut self, state: StressState) {
        self.record_many(state, 1);
    }

    /// Records `n` consecutive cycles in the given stress state.
    pub fn record_many(&mut self, state: StressState, n: u64) {
        self.duty.record_many(state, n);
        self.elapsed_cycles += n;
    }

    /// The initial (process-variation) threshold voltage.
    pub fn initial_vth(&self) -> Volt {
        self.initial_vth
    }

    /// The stress/recovery accounting so far.
    pub fn duty(&self) -> &DutyCycleCounter {
        &self.duty
    }

    /// Cycles observed so far.
    pub fn elapsed_cycles(&self) -> u64 {
        self.elapsed_cycles
    }

    /// Equivalent aged seconds observed so far (cycles × Tclk ×
    /// acceleration).
    pub fn elapsed_seconds(&self) -> f64 {
        self.elapsed_cycles as f64 * self.model.params().tclk_s * self.age_acceleration
    }

    /// The current *true* threshold voltage: initial `Vth` plus the model's
    /// tracked ΔVth at the observed duty cycle and elapsed (accelerated)
    /// time. Uses [`LongTermModel::delta_vth_tracked`], which vanishes at
    /// `t = 0` — over a typical simulation horizon the shift is
    /// sub-millivolt, so the most-degraded ordering stays dominated by
    /// process variation, matching the paper's static `MD VC` columns.
    pub fn true_vth(&self) -> Volt {
        if self.elapsed_cycles == 0 {
            return self.initial_vth;
        }
        self.model
            .aged_vth_tracked(self.initial_vth, self.duty.alpha(), self.elapsed_seconds())
    }

    /// Projects the true threshold voltage to `horizon_s` seconds assuming
    /// the duty cycle observed so far continues.
    pub fn projected_vth(&self, horizon_s: f64) -> Volt {
        self.model
            .aged_vth(self.initial_vth, self.duty.alpha(), horizon_s)
    }

    /// Resets the stress/recovery accounting (e.g. after warm-up) but keeps
    /// the initial `Vth`.
    pub fn reset_duty(&mut self) {
        self.duty.reset();
        self.elapsed_cycles = 0;
    }
}

/// Tracks every VC buffer of one router input port, with one sensor per
/// buffer, and elects the most degraded VC.
///
/// The generic parameter selects the sensor model; the default is whatever
/// the caller constructs — use [`crate::IdealSensor`] for the paper's setup.
#[derive(Debug, Clone)]
pub struct PortAgeTracker<S> {
    buffers: Vec<BufferAgeTracker>,
    sensors: Vec<S>,
    cycle: u64,
}

impl<S: NbtiSensor> PortAgeTracker<S> {
    /// Creates a port tracker from per-VC initial threshold voltages and
    /// per-VC sensors.
    ///
    /// # Panics
    ///
    /// Panics if the two slices have different lengths, are empty or name
    /// more VCs than a stress mask has bits (32).
    pub fn new(initial_vths: &[Volt], sensors: Vec<S>, model: LongTermModel) -> Self {
        assert_eq!(
            initial_vths.len(),
            sensors.len(),
            "one sensor per VC buffer required"
        );
        assert!(!initial_vths.is_empty(), "a port has at least one VC");
        assert!(
            initial_vths.len() <= u32::BITS as usize,
            "a port has at most 32 VCs"
        );
        PortAgeTracker {
            buffers: initial_vths
                .iter()
                .map(|&v| BufferAgeTracker::new(v, model))
                .collect(),
            sensors,
            cycle: 0,
        }
    }

    /// Number of tracked VC buffers.
    pub fn num_vcs(&self) -> usize {
        self.buffers.len()
    }

    /// Records one cycle: the `v`-th state is the stress state of VC `v`.
    /// Taking an iterator lets callers map their own per-VC status into
    /// stress states without collecting them first. This is
    /// [`record_cycles`](Self::record_cycles) with `n = 1`.
    ///
    /// # Panics
    ///
    /// Panics if `states.len() != num_vcs()`.
    pub fn record_cycle(&mut self, states: impl ExactSizeIterator<Item = StressState>) {
        assert_eq!(states.len(), self.buffers.len());
        let stressed = states
            .enumerate()
            .filter(|&(_, st)| st == StressState::Stressed)
            .fold(0u32, |mask, (v, _)| mask | 1 << v);
        self.record_cycles(stressed, 1);
    }

    /// Records `n` consecutive cycles of one stress mask: VC `v` is
    /// stressed in all of them when bit `v` of `stressed` is set and
    /// recovering otherwise. Duty and elapsed time are integer counts, so
    /// one call for a run of `n` equal cycles leaves the tracker exactly
    /// where `n` single-cycle records would.
    ///
    /// # Panics
    ///
    /// Panics if `stressed` has bits beyond `num_vcs()`.
    pub fn record_cycles(&mut self, stressed: u32, n: u64) {
        assert!(
            stressed.checked_shr(self.buffers.len() as u32).unwrap_or(0) == 0,
            "stress mask {stressed:#b} names VCs beyond {}",
            self.buffers.len()
        );
        for (v, buf) in self.buffers.iter_mut().enumerate() {
            let state = if stressed & 1 << v != 0 {
                StressState::Stressed
            } else {
                StressState::Recovering
            };
            buf.record_many(state, n);
        }
        self.cycle += n;
    }

    /// Per-buffer tracker access.
    pub fn buffer(&self, vc: usize) -> &BufferAgeTracker {
        &self.buffers[vc]
    }

    /// Iterates over the per-buffer trackers.
    pub fn buffers(&self) -> impl Iterator<Item = &BufferAgeTracker> {
        self.buffers.iter()
    }

    /// Samples every sensor and returns the index of the most degraded VC —
    /// the value the `Down_Up` link would carry this cycle.
    pub fn most_degraded(&mut self) -> usize {
        let cycle = self.cycle;
        let readings = self
            .buffers
            .iter()
            .zip(self.sensors.iter_mut())
            .map(|(buf, sensor)| sensor.sample(buf.true_vth(), cycle));
        // lint:allow(no-unwrap) the constructor asserts at least one VC per port
        most_degraded_by_reading(readings).expect("port has at least one VC")
    }

    /// The most degraded VC according to *initial* `Vth` only (the paper's
    /// `MD VC` table column, fixed per scenario by process variation).
    pub fn most_degraded_initial(&self) -> usize {
        most_degraded_by_reading(self.buffers.iter().map(BufferAgeTracker::initial_vth))
            // lint:allow(no-unwrap) the constructor asserts at least one VC per port
            .expect("port has at least one VC")
    }

    /// Per-VC NBTI-duty-cycle percentages.
    pub fn duty_cycles_percent(&self) -> Vec<f64> {
        self.buffers
            .iter()
            .map(|b| b.duty().duty_cycle_percent())
            .collect()
    }

    /// Resets all duty accounting (e.g. after warm-up).
    pub fn reset_duty(&mut self) {
        for b in &mut self.buffers {
            b.reset_duty();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensor::IdealSensor;

    fn model() -> LongTermModel {
        LongTermModel::calibrated_45nm()
    }

    #[test]
    fn fresh_tracker_reports_initial_vth() {
        let t = BufferAgeTracker::new(Volt::from_volts(0.1834), model());
        assert_eq!(t.true_vth(), Volt::from_volts(0.1834));
        assert_eq!(t.elapsed_cycles(), 0);
    }

    #[test]
    fn stress_raises_true_vth() {
        let mut t =
            BufferAgeTracker::new(Volt::from_volts(0.18), model()).with_age_acceleration(1e12);
        for _ in 0..1000 {
            t.record(StressState::Stressed);
        }
        assert!(t.true_vth() > t.initial_vth());
    }

    #[test]
    fn lower_duty_cycle_ages_less() {
        let mk = |stress: u64, recover: u64| {
            let mut t =
                BufferAgeTracker::new(Volt::from_volts(0.18), model()).with_age_acceleration(1e12);
            for _ in 0..stress {
                t.record(StressState::Stressed);
            }
            for _ in 0..recover {
                t.record(StressState::Recovering);
            }
            t.true_vth()
        };
        assert!(mk(900, 100) > mk(100, 900));
    }

    #[test]
    fn projection_uses_observed_alpha() {
        let mut t = BufferAgeTracker::new(Volt::from_volts(0.18), model());
        for _ in 0..30 {
            t.record(StressState::Stressed);
        }
        for _ in 0..70 {
            t.record(StressState::Recovering);
        }
        let m = model();
        let expect = m.aged_vth(Volt::from_volts(0.18), 0.3, 1e8);
        assert_eq!(t.projected_vth(1e8), expect);
    }

    #[test]
    fn reset_duty_keeps_initial_vth() {
        let mut t = BufferAgeTracker::new(Volt::from_volts(0.19), model());
        t.record(StressState::Stressed);
        t.reset_duty();
        assert_eq!(t.elapsed_cycles(), 0);
        assert_eq!(t.true_vth(), Volt::from_volts(0.19));
    }

    fn port(vths: &[f64]) -> PortAgeTracker<IdealSensor> {
        let vths: Vec<Volt> = vths.iter().map(|&v| Volt::from_volts(v)).collect();
        let sensors = vec![IdealSensor::new(); vths.len()];
        PortAgeTracker::new(&vths, sensors, model())
    }

    #[test]
    fn most_degraded_initial_is_highest_vth() {
        let p = port(&[0.179, 0.1835, 0.181, 0.180]);
        assert_eq!(p.most_degraded_initial(), 1);
    }

    #[test]
    fn ideal_sensor_md_matches_initial_when_unaged() {
        let mut p = port(&[0.179, 0.1835, 0.181, 0.180]);
        assert_eq!(p.most_degraded(), 1);
    }

    #[test]
    fn record_cycle_updates_all_buffers() {
        let mut p = port(&[0.18, 0.18]);
        p.record_cycle([StressState::Stressed, StressState::Recovering].into_iter());
        p.record_cycle([StressState::Stressed, StressState::Recovering].into_iter());
        let d = p.duty_cycles_percent();
        assert_eq!(d, vec![100.0, 0.0]);
    }

    #[test]
    fn a_run_of_n_cycles_equals_n_single_records() {
        let mut batched = port(&[0.18, 0.181, 0.182]);
        let mut single = port(&[0.18, 0.181, 0.182]);
        batched.record_cycles(0b101, 7);
        batched.record_cycles(0b010, 3);
        for _ in 0..7 {
            single.record_cycle(
                [
                    StressState::Stressed,
                    StressState::Recovering,
                    StressState::Stressed,
                ]
                .into_iter(),
            );
        }
        for _ in 0..3 {
            single.record_cycle(
                [
                    StressState::Recovering,
                    StressState::Stressed,
                    StressState::Recovering,
                ]
                .into_iter(),
            );
        }
        for (b, s) in batched.buffers().zip(single.buffers()) {
            assert_eq!(b.duty(), s.duty());
            assert_eq!(b.elapsed_cycles(), s.elapsed_cycles());
        }
        assert_eq!(batched.cycle, single.cycle);
        assert_eq!(batched.duty_cycles_percent(), vec![70.0, 30.0, 70.0]);
    }

    #[test]
    #[should_panic(expected = "names VCs beyond")]
    fn stress_mask_beyond_the_vcs_panics() {
        port(&[0.18, 0.18]).record_cycles(0b100, 1);
    }

    #[test]
    #[should_panic(expected = "one sensor per VC buffer required")]
    fn mismatched_sensor_count_panics() {
        let _ = PortAgeTracker::new(
            &[Volt::from_volts(0.18)],
            vec![IdealSensor::new(), IdealSensor::new()],
            model(),
        );
    }

    #[test]
    #[should_panic]
    fn record_cycle_wrong_arity_panics() {
        let mut p = port(&[0.18, 0.18]);
        p.record_cycle([StressState::Stressed].into_iter());
    }

    #[test]
    fn heavy_stress_can_flip_most_degraded_under_acceleration() {
        // VC0 starts slightly less degraded but is stressed 100% of the time
        // while VC1 fully recovers; with enough accelerated aging VC0 must
        // overtake VC1.
        let vths = [Volt::from_volts(0.1800), Volt::from_volts(0.1808)];
        let sensors = vec![IdealSensor::new(); 2];
        let mut p = PortAgeTracker::new(&vths, sensors, model());
        for b in &mut p.buffers {
            b.age_acceleration = 1e13;
        }
        assert_eq!(p.most_degraded(), 1);
        for _ in 0..10_000 {
            p.record_cycle([StressState::Stressed, StressState::Recovering].into_iter());
        }
        assert_eq!(p.most_degraded(), 0, "aging should overtake PV offset");
    }
}
