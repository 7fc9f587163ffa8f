//! Threshold-voltage shift → gate-delay degradation.
//!
//! The paper motivates NBTI with the downstream effect: the raised `|Vth|`
//! weakens the PMOS drive current and slows logic — "circuit performance
//! degradation may reach 20 % in 10 years" (paper §I, after Nassif et
//! al.). The standard translation is the alpha-power law
//! (Sakurai & Newton, JSSC 1990):
//!
//! ```text
//! delay ∝ Vdd / (Vdd − Vth)^α
//! ```
//!
//! with the velocity-saturation exponent `α ≈ 1.3` for deep-submicron
//! CMOS. This module converts the ΔVth numbers produced by the aging
//! models into relative delay (and maximum-frequency) degradation, closing
//! the loop from duty cycle to performance.

use crate::units::Volt;

/// The alpha-power-law delay model.
///
/// ```
/// use nbti_model::delay::AlphaPowerModel;
/// use nbti_model::Volt;
///
/// let m = AlphaPowerModel::paper_45nm();
/// // 50 mV of NBTI shift costs a few percent of speed.
/// let slow = m.delay_degradation_percent(
///     Volt::from_volts(0.180),
///     Volt::from_millivolts(50.0),
/// );
/// assert!(slow > 3.0 && slow < 12.0, "degradation = {slow}");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlphaPowerModel {
    /// Supply voltage.
    pub vdd: Volt,
    /// Velocity-saturation exponent (≈ 1.3 at 45 nm; 2.0 is the classic
    /// long-channel square law).
    pub alpha: f64,
}

impl AlphaPowerModel {
    /// The paper's 45 nm operating point (`Vdd = 1.2 V`, α = 1.3).
    pub fn paper_45nm() -> Self {
        AlphaPowerModel {
            vdd: Volt::from_volts(1.2),
            alpha: 1.3,
        }
    }

    /// Relative gate delay at threshold `vth`, normalized so the result is
    /// comparable between two `vth` values (absolute prefactors cancel).
    ///
    /// # Panics
    ///
    /// Panics if `vth` reaches or exceeds `Vdd` (no drive left).
    pub fn relative_delay(&self, vth: Volt) -> f64 {
        let overdrive = (self.vdd - vth).as_volts();
        assert!(
            overdrive > 0.0,
            "threshold {vth:?} leaves no overdrive at Vdd {:?}",
            self.vdd
        );
        self.vdd.as_volts() / overdrive.powf(self.alpha)
    }

    /// Percent delay increase when an initial threshold `vth0` degrades by
    /// `delta_vth`.
    pub fn delay_degradation_percent(&self, vth0: Volt, delta_vth: Volt) -> f64 {
        let before = self.relative_delay(vth0);
        let after = self.relative_delay(vth0 + delta_vth);
        (after / before - 1.0) * 100.0
    }

    /// Percent maximum-frequency loss for the same shift (the reciprocal
    /// view of [`delay_degradation_percent`](Self::delay_degradation_percent)).
    pub fn fmax_loss_percent(&self, vth0: Volt, delta_vth: Volt) -> f64 {
        let d = self.delay_degradation_percent(vth0, delta_vth);
        d / (1.0 + d / 100.0)
    }

    /// The ΔVth that produces a given percent delay degradation —
    /// the inverse map, useful for setting guard-bands.
    ///
    /// # Panics
    ///
    /// Panics if `percent` is negative.
    pub fn delta_vth_for_degradation(&self, vth0: Volt, percent: f64) -> Volt {
        assert!(percent >= 0.0, "degradation must be non-negative");
        // delay ratio r = ((vdd - vth0)/(vdd - vth0 - dv))^alpha  = 1 + p/100
        let r = 1.0 + percent / 100.0;
        let od0 = (self.vdd - vth0).as_volts();
        let od1 = od0 / r.powf(1.0 / self.alpha);
        Volt::from_volts(od0 - od1)
    }
}

impl Default for AlphaPowerModel {
    fn default() -> Self {
        Self::paper_45nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LongTermModel, NbtiParams};

    fn model() -> AlphaPowerModel {
        AlphaPowerModel::paper_45nm()
    }

    #[test]
    fn zero_shift_means_zero_degradation() {
        let d = model().delay_degradation_percent(Volt::from_volts(0.18), Volt::ZERO);
        assert!(d.abs() < 1e-12);
    }

    #[test]
    fn degradation_is_monotone_in_shift() {
        let m = model();
        let v0 = Volt::from_volts(0.18);
        let mut last = 0.0;
        for mv in [5.0, 10.0, 25.0, 50.0, 100.0] {
            let d = m.delay_degradation_percent(v0, Volt::from_millivolts(mv));
            assert!(d > last, "degradation must grow with ΔVth");
            last = d;
        }
    }

    #[test]
    fn paper_magnitude_anchor() {
        // The paper's §I cites ≈ 20 % performance loss over 10 years for
        // worst-case aging; our calibrated 50 mV at α = 1 over 10 years
        // gives single-digit percent at nominal Vdd — the right order, and
        // consistent with 20 % for low-Vdd corners (higher Vth/Vdd ratio).
        let m = model();
        let d10 = m.delay_degradation_percent(Volt::from_volts(0.18), Volt::from_millivolts(50.0));
        assert!(d10 > 3.0 && d10 < 15.0, "d10 = {d10}");
        // Same shift at a near-threshold supply hurts far more.
        let low_vdd = AlphaPowerModel {
            vdd: Volt::from_volts(0.7),
            alpha: 1.3,
        };
        let d_low =
            low_vdd.delay_degradation_percent(Volt::from_volts(0.18), Volt::from_millivolts(50.0));
        assert!(d_low > 2.0 * d10, "low-Vdd degradation = {d_low}");
    }

    #[test]
    fn fmax_loss_is_below_delay_gain() {
        let m = model();
        let v0 = Volt::from_volts(0.18);
        let dv = Volt::from_millivolts(50.0);
        let d = m.delay_degradation_percent(v0, dv);
        let f = m.fmax_loss_percent(v0, dv);
        assert!(f < d && f > 0.0);
    }

    #[test]
    fn inverse_map_round_trips() {
        let m = model();
        let v0 = Volt::from_volts(0.18);
        for percent in [1.0, 5.0, 10.0] {
            let dv = m.delta_vth_for_degradation(v0, percent);
            let back = m.delay_degradation_percent(v0, dv);
            assert!((back - percent).abs() < 1e-9, "{percent} -> {back}");
        }
        assert_eq!(m.delta_vth_for_degradation(v0, 0.0), Volt::ZERO);
    }

    #[test]
    fn composes_with_the_aging_model() {
        // End-to-end: duty cycle -> 10-year ΔVth -> delay degradation.
        let aging = LongTermModel::calibrated_45nm();
        let delay = model();
        let v0 = Volt::from_volts(0.18);
        let d_base =
            delay.delay_degradation_percent(v0, aging.delta_vth(1.0, NbtiParams::TEN_YEARS_S));
        let d_gated =
            delay.delay_degradation_percent(v0, aging.delta_vth(0.1, NbtiParams::TEN_YEARS_S));
        assert!(d_gated < d_base, "gating must preserve speed");
    }

    #[test]
    #[should_panic(expected = "no overdrive")]
    fn threshold_at_vdd_panics() {
        let _ = model().relative_delay(Volt::from_volts(1.2));
    }
}
