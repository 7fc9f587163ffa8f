//! Incremental reaction–diffusion aging walker.
//!
//! The closed form of [`LongTermModel`] (paper Eq. 1) gives the *envelope*
//! of ΔVth after many stress/recovery cycles at a fixed duty cycle. For
//! studies that need the transient — sensor readings between bursts,
//! duty cycles that drift over time, annealing during long idle phases —
//! this module provides an explicit walker that integrates stress and
//! recovery epoch by epoch:
//!
//! * **stress** follows the diffusion power law `ΔVth = A·t_eq^n` via the
//!   equivalent-stress-time method: the walker converts its current shift
//!   back to an equivalent stress age, adds the epoch, and re-evaluates
//!   (`A` is anchored so that 100 % stress reproduces
//!   [`LongTermModel::delta_vth_tracked`]);
//! * **recovery** applies Alam's universal relaxation form
//!   `ΔVth(ts + tr) = ΔVth(ts) / (1 + sqrt(η · tr / ts))` (Alam &
//!   Mahapatra, *Microelectronics Reliability* 2005), with `η ≈ 0.35`,
//!   and then re-derives the equivalent stress age so subsequent stress
//!   resumes on the power law.
//!
//! The walker and the closed form agree on orderings and long-run trends
//! (tested below); the walker additionally produces a ΔVth(t) *waveform*.

use crate::model::LongTermModel;
use crate::units::Volt;

/// Default recovery universality constant η (Alam's fast-relaxation fit).
pub const DEFAULT_ETA: f64 = 0.35;

/// An explicit stress/recovery integrator for one PMOS device.
///
/// ```
/// use nbti_model::{rd::RdCycleModel, LongTermModel};
///
/// let model = LongTermModel::calibrated_45nm();
/// let mut rd = RdCycleModel::new(model);
/// rd.stress(1.0);           // one second of stress
/// let peak = rd.delta_vth();
/// rd.recover(1.0);          // one second of recovery
/// assert!(rd.delta_vth() < peak);
/// assert!(rd.delta_vth().as_volts() > 0.0, "recovery is partial");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RdCycleModel {
    model: LongTermModel,
    /// Power-law amplitude: ΔVth(α=1, t) = amplitude · t^n.
    amplitude: f64,
    /// Time exponent n.
    n: f64,
    /// Recovery universality constant η.
    eta: f64,
    /// Current threshold shift in volts.
    delta_vth: f64,
    /// Equivalent cumulative stress age in seconds.
    stress_age_s: f64,
    /// Total wall-clock age in seconds.
    total_age_s: f64,
}

impl RdCycleModel {
    /// Creates a walker anchored to the given long-term model.
    pub fn new(model: LongTermModel) -> Self {
        Self::with_eta(model, DEFAULT_ETA)
    }

    /// Creates a walker with an explicit recovery constant η.
    ///
    /// # Panics
    ///
    /// Panics if `eta` is not strictly positive.
    pub fn with_eta(model: LongTermModel, eta: f64) -> Self {
        assert!(eta > 0.0, "eta must be positive");
        let n = model.params().n;
        // Anchor the power law at one year of full stress.
        let anchor_t = crate::model::NbtiParams::ONE_YEAR_S;
        let amplitude = model.delta_vth_tracked(1.0, anchor_t).as_volts() / anchor_t.powf(n);
        RdCycleModel {
            model,
            amplitude,
            n,
            eta,
            delta_vth: 0.0,
            stress_age_s: 0.0,
            total_age_s: 0.0,
        }
    }

    /// The underlying long-term model.
    pub fn model(&self) -> &LongTermModel {
        &self.model
    }

    /// The current threshold-voltage shift.
    pub fn delta_vth(&self) -> Volt {
        Volt::from_volts(self.delta_vth)
    }

    /// Total integrated time (stress + recovery) in seconds.
    pub fn total_age_s(&self) -> f64 {
        self.total_age_s
    }

    /// Equivalent cumulative stress age in seconds.
    pub fn stress_age_s(&self) -> f64 {
        self.stress_age_s
    }

    /// Integrates `dt_s` seconds of stress.
    ///
    /// # Panics
    ///
    /// Panics if `dt_s` is negative.
    pub fn stress(&mut self, dt_s: f64) {
        assert!(dt_s >= 0.0, "negative stress epoch");
        if dt_s == 0.0 {
            return;
        }
        self.stress_age_s += dt_s;
        self.total_age_s += dt_s;
        self.delta_vth = self.amplitude * self.stress_age_s.powf(self.n);
    }

    /// Integrates `dt_s` seconds of recovery (power-gated).
    ///
    /// # Panics
    ///
    /// Panics if `dt_s` is negative.
    pub fn recover(&mut self, dt_s: f64) {
        assert!(dt_s >= 0.0, "negative recovery epoch");
        if dt_s == 0.0 || self.delta_vth == 0.0 {
            self.total_age_s += dt_s;
            return;
        }
        self.total_age_s += dt_s;
        // Alam's universal relaxation, with the equivalent stress age as
        // the stress time.
        let ts = self.stress_age_s.max(1e-30);
        let factor = 1.0 / (1.0 + (self.eta * dt_s / ts).sqrt());
        self.delta_vth *= factor;
        // Re-derive the equivalent stress age so further stress continues
        // from the recovered level on the same power law.
        self.stress_age_s = (self.delta_vth / self.amplitude).powf(1.0 / self.n);
    }

    /// Integrates one clock cycle at the model's clock period.
    pub fn record_cycle(&mut self, stressed: bool) {
        let tclk = self.model.params().tclk_s;
        if stressed {
            self.stress(tclk);
        } else {
            self.recover(tclk);
        }
    }

    /// Resets the walker to a fresh device.
    pub fn reset(&mut self) {
        self.delta_vth = 0.0;
        self.stress_age_s = 0.0;
        self.total_age_s = 0.0;
    }

    /// The walker's complete mutable state, for checkpointing. Everything
    /// else (`amplitude`, `n`, `eta`) is derived from the model at
    /// construction, so `state` + the model reproduce the walker exactly.
    pub fn state(&self) -> RdState {
        RdState {
            delta_vth_v: self.delta_vth,
            stress_age_s: self.stress_age_s,
            total_age_s: self.total_age_s,
        }
    }

    /// Restores state previously read with [`state`](Self::state),
    /// bit-exactly (no re-derivation through the power law, which would
    /// not round-trip in floating point).
    ///
    /// # Panics
    ///
    /// Panics if any component is negative or non-finite.
    pub fn restore_state(&mut self, state: RdState) {
        assert!(
            state.delta_vth_v.is_finite()
                && state.stress_age_s.is_finite()
                && state.total_age_s.is_finite()
                && state.delta_vth_v >= 0.0
                && state.stress_age_s >= 0.0
                && state.total_age_s >= 0.0,
            "invalid walker state {state:?}"
        );
        self.delta_vth = state.delta_vth_v;
        self.stress_age_s = state.stress_age_s;
        self.total_age_s = state.total_age_s;
    }
}

/// The serializable mutable state of an [`RdCycleModel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RdState {
    /// Current threshold shift in volts.
    pub delta_vth_v: f64,
    /// Equivalent cumulative stress age in seconds.
    pub stress_age_s: f64,
    /// Total integrated time in seconds.
    pub total_age_s: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NbtiParams;

    fn walker() -> RdCycleModel {
        RdCycleModel::new(LongTermModel::calibrated_45nm())
    }

    #[test]
    fn full_stress_matches_tracked_power_law() {
        let model = LongTermModel::calibrated_45nm();
        let mut rd = RdCycleModel::new(model);
        let t = NbtiParams::ONE_YEAR_S;
        rd.stress(t);
        let closed = model.delta_vth_tracked(1.0, t);
        let diff = (rd.delta_vth() - closed).abs();
        assert!(
            diff.as_millivolts() < 0.01,
            "walker {:?} vs closed {closed:?}",
            rd.delta_vth()
        );
    }

    #[test]
    fn stress_is_additive_regardless_of_chunking() {
        let mut a = walker();
        a.stress(100.0);
        a.stress(900.0);
        let mut b = walker();
        b.stress(1000.0);
        assert!((a.delta_vth() - b.delta_vth()).abs().as_volts() < 1e-15);
    }

    #[test]
    fn recovery_reduces_but_never_erases() {
        let mut rd = walker();
        rd.stress(1e6);
        let before = rd.delta_vth();
        rd.recover(1e6);
        let after = rd.delta_vth();
        assert!(after < before);
        assert!(after.as_volts() > 0.0);
        // Universal form at tr == ts: factor = 1/(1 + sqrt(eta)).
        let expect = before.as_volts() / (1.0 + DEFAULT_ETA.sqrt());
        assert!((after.as_volts() - expect).abs() < 1e-12);
    }

    #[test]
    fn longer_recovery_recovers_more() {
        let shifts: Vec<f64> = [1e3, 1e5, 1e7]
            .iter()
            .map(|&tr| {
                let mut rd = walker();
                rd.stress(1e6);
                rd.recover(tr);
                rd.delta_vth().as_volts()
            })
            .collect();
        assert!(shifts[0] > shifts[1]);
        assert!(shifts[1] > shifts[2]);
    }

    #[test]
    fn alternating_duty_orders_by_alpha() {
        // Integrate one simulated hour at different duty cycles using
        // 1-second epochs; higher duty must age more.
        let run = |alpha: f64| {
            let mut rd = walker();
            let epochs = 3_600;
            let on = (alpha * 10.0).round() as usize;
            for e in 0..epochs {
                if e % 10 < on {
                    rd.stress(1.0);
                } else {
                    rd.recover(1.0);
                }
            }
            rd.delta_vth().as_volts()
        };
        let low = run(0.2);
        let mid = run(0.5);
        let high = run(1.0);
        assert!(low < mid && mid < high, "{low} {mid} {high}");
    }

    #[test]
    fn walker_stays_below_full_stress_envelope() {
        let model = LongTermModel::calibrated_45nm();
        let mut rd = RdCycleModel::new(model);
        for e in 0..10_000 {
            if e % 4 == 0 {
                rd.stress(10.0);
            } else {
                rd.recover(10.0);
            }
        }
        let envelope = model.delta_vth_tracked(1.0, rd.total_age_s());
        assert!(rd.delta_vth() < envelope);
    }

    #[test]
    fn per_cycle_recording_works() {
        let mut rd = walker();
        for c in 0..10_000u64 {
            rd.record_cycle(c % 2 == 0);
        }
        assert!(rd.delta_vth().as_volts() > 0.0);
        assert!((rd.total_age_s() - 10_000.0 * 1e-9).abs() < 1e-12);
    }

    #[test]
    fn reset_restores_fresh_device() {
        let mut rd = walker();
        rd.stress(100.0);
        rd.reset();
        assert_eq!(rd.delta_vth(), Volt::ZERO);
        assert_eq!(rd.total_age_s(), 0.0);
    }

    #[test]
    fn custom_eta_changes_recovery_strength() {
        let model = LongTermModel::calibrated_45nm();
        let mut weak = RdCycleModel::with_eta(model, 0.05);
        let mut strong = RdCycleModel::with_eta(model, 1.5);
        for rd in [&mut weak, &mut strong] {
            rd.stress(1e5);
            rd.recover(1e5);
        }
        assert!(strong.delta_vth() < weak.delta_vth());
    }

    #[test]
    #[should_panic(expected = "eta must be positive")]
    fn zero_eta_panics() {
        let _ = RdCycleModel::with_eta(LongTermModel::calibrated_45nm(), 0.0);
    }

    #[test]
    fn state_round_trips_bit_exactly_and_resumes_identically() {
        let mut a = walker();
        for e in 0..1_000 {
            if e % 3 == 0 {
                a.stress(7.0);
            } else {
                a.recover(2.0);
            }
        }
        let mut b = walker();
        b.restore_state(a.state());
        assert_eq!(a, b);
        a.stress(123.0);
        a.recover(45.0);
        b.stress(123.0);
        b.recover(45.0);
        assert_eq!(
            a.delta_vth().as_volts().to_bits(),
            b.delta_vth().as_volts().to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "invalid walker state")]
    fn negative_state_is_rejected() {
        let mut rd = walker();
        rd.restore_state(RdState {
            delta_vth_v: -1.0,
            stress_age_s: 0.0,
            total_age_s: 0.0,
        });
    }
}
