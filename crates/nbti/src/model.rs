//! Long-term reaction–diffusion NBTI threshold-voltage shift model.
//!
//! Implements Eq. 1 of the paper (the closed-form long-term upper bound of
//! the predictive reaction–diffusion NBTI model by Bhardwaj et al., CICC'06 /
//! Wang et al.):
//!
//! ```text
//! |ΔVth| ≈ ( sqrt(Kv² · Tclk · α) / (1 − βt^(1/2n)) )^(2n)
//! ```
//!
//! where
//!
//! * `Kv` depends on supply voltage and operating temperature,
//! * `Tclk` is the clock period,
//! * `α` is the PMOS stress probability — the paper's *NBTI-duty-cycle*
//!   expressed as a fraction,
//! * `βt` is the per-cycle recovery fraction, itself a function of elapsed
//!   aging time `t`, temperature and `α`,
//! * `n` is the diffusion time exponent, 1/6 for H₂ diffusion
//!   (Krishnan et al., IEDM'05).
//!
//! The auxiliary expressions follow the predictive model:
//!
//! ```text
//! βt    = 1 − (2·ξ1·te + sqrt(ξ2 · C · (1−α) · Tclk)) / (2·tox + sqrt(C·t))
//! C(T)  = C0 · exp(−Ea / (k·T))                       [nm²/s]
//! Kv    = A_kv · (Vdd − Vth0) · sqrt(C(T)) · exp(Eox / E0)
//! Eox   = (Vdd − Vth0) / tox                           [V/nm]
//! ```
//!
//! # Calibration
//!
//! The structural form (all trends in `α`, `t`, `T`, `Vdd`) is taken from the
//! literature; the absolute prefactors (`C0`, `A_kv`) are *calibrated*, not
//! measured: [`LongTermModel::calibrated_45nm`] fixes `A_kv` such that a
//! device under constant stress (`α = 1`) at nominal conditions accumulates
//! the ≈ 50 mV ΔVth over ten years that the paper quotes for sub-1.2 V
//! devices. This matches how the paper itself consumes the model — through a
//! third-party library — and preserves every relative comparison the
//! evaluation relies on.

use crate::units::Volt;

/// Boltzmann constant in eV/K.
const BOLTZMANN_EV_PER_K: f64 = 8.617_333e-5;

/// Physical and technology parameters of the long-term NBTI model.
///
/// All fields are public: this is a passive parameter record. Use
/// [`NbtiParams::node_45nm`] / [`NbtiParams::node_32nm`] for the paper's two
/// technology points and tweak fields as needed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NbtiParams {
    /// Supply voltage `Vdd` in volts (paper: 1.2 V).
    pub vdd: Volt,
    /// Nominal (pre-aging, pre-variation) threshold voltage in volts
    /// (paper: 0.180 V at 45 nm, 0.160 V at 32 nm).
    pub vth0: Volt,
    /// Operating temperature in kelvin.
    pub temperature_k: f64,
    /// Clock period in seconds (paper: 1 GHz ⇒ 1 ns).
    pub tclk_s: f64,
    /// Oxide thickness `tox` in nanometres.
    pub tox_nm: f64,
    /// Effective oxide thickness `te` for recovery, in nanometres
    /// (≈ `tox` for thin oxides).
    pub te_nm: f64,
    /// Back-diffusion constant ξ1 (dimensionless, ≈ 0.9).
    pub xi1: f64,
    /// Fast-recovery constant ξ2 (dimensionless, ≈ 0.5).
    pub xi2: f64,
    /// Diffusion activation energy `Ea` in eV (≈ 0.49 eV for H₂).
    pub ea_ev: f64,
    /// Diffusion prefactor `C0` in nm²/s (calibrated).
    pub c0_nm2_per_s: f64,
    /// Field-acceleration constant `E0` in V/nm.
    pub e0_v_per_nm: f64,
    /// Time exponent `n` (1/6 for H₂ diffusion).
    pub n: f64,
    /// Voltage/temperature prefactor `A_kv` (calibrated;
    /// see [`LongTermModel::calibrated`]).
    pub a_kv: f64,
}

impl NbtiParams {
    /// Ten years in seconds — the customary NBTI qualification horizon.
    pub const TEN_YEARS_S: f64 = 10.0 * 365.25 * 24.0 * 3600.0;

    /// One year in seconds.
    pub const ONE_YEAR_S: f64 = 365.25 * 24.0 * 3600.0;

    /// Parameters for the paper's 45 nm technology point
    /// (`Vth = 0.180 V`, `Vdd = 1.2 V`, 1 GHz, 350 K).
    pub fn node_45nm() -> Self {
        NbtiParams {
            vdd: Volt::from_volts(1.2),
            vth0: Volt::from_volts(0.180),
            temperature_k: 350.0,
            tclk_s: 1e-9,
            tox_nm: 1.2,
            te_nm: 1.2,
            xi1: 0.9,
            xi2: 0.5,
            ea_ev: 0.49,
            c0_nm2_per_s: 12.0,
            e0_v_per_nm: 2.0,
            n: 1.0 / 6.0,
            a_kv: 1.0,
        }
    }

    /// Parameters for the paper's 32 nm technology point
    /// (`Vth = 0.160 V`, thinner oxide).
    pub fn node_32nm() -> Self {
        NbtiParams {
            vth0: Volt::from_volts(0.160),
            tox_nm: 1.0,
            te_nm: 1.0,
            ..Self::node_45nm()
        }
    }

    /// The oxide electric field `Eox = (Vdd − Vth0)/tox` in V/nm.
    pub fn eox_v_per_nm(&self) -> f64 {
        (self.vdd - self.vth0).as_volts() / self.tox_nm
    }

    /// The temperature-activated diffusion coefficient `C(T)` in nm²/s.
    pub fn diffusion_c(&self) -> f64 {
        self.c0_nm2_per_s * (-self.ea_ev / (BOLTZMANN_EV_PER_K * self.temperature_k)).exp()
    }
}

impl Default for NbtiParams {
    /// Defaults to the paper's 45 nm technology point.
    fn default() -> Self {
        Self::node_45nm()
    }
}

/// The closed-form long-term NBTI ΔVth model (paper Eq. 1).
///
/// ```
/// use nbti_model::{LongTermModel, NbtiParams};
///
/// let model = LongTermModel::calibrated_45nm();
/// // The calibration anchor: ~50 mV after 10 years at full stress.
/// let dv = model.delta_vth(1.0, NbtiParams::TEN_YEARS_S);
/// assert!((dv.as_millivolts() - 50.0).abs() < 0.5);
/// // Halving the duty cycle reduces the shift.
/// let dv_half = model.delta_vth(0.5, NbtiParams::TEN_YEARS_S);
/// assert!(dv_half < dv);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LongTermModel {
    params: NbtiParams,
    /// `Kv` and `C(T)`, which depend on the parameters alone, computed
    /// once at construction.
    kv: f64,
    diffusion_c: f64,
}

impl LongTermModel {
    /// Builds a model from explicit parameters, without calibration.
    pub fn new(params: NbtiParams) -> Self {
        let diffusion_c = params.diffusion_c();
        let kv = params.a_kv
            * (params.vdd - params.vth0).as_volts()
            * diffusion_c.sqrt()
            * (params.eox_v_per_nm() / params.e0_v_per_nm).exp();
        LongTermModel {
            params,
            kv,
            diffusion_c,
        }
    }

    /// Builds a model whose `A_kv` is calibrated so that
    /// `delta_vth(1.0, horizon_s) == target` at the given parameters.
    ///
    /// Because `ΔVth ∝ Kv^(2n)` at fixed `α`, `t`, the calibration is exact
    /// and closed-form.
    ///
    /// # Panics
    ///
    /// Panics if `target` is not strictly positive or `horizon_s` is not
    /// strictly positive.
    pub fn calibrated(mut params: NbtiParams, target: Volt, horizon_s: f64) -> Self {
        assert!(
            target.as_volts() > 0.0,
            "calibration target must be positive"
        );
        assert!(horizon_s > 0.0, "calibration horizon must be positive");
        params.a_kv = 1.0;
        let raw = Self::new(params).delta_vth(1.0, horizon_s).as_volts();
        debug_assert!(raw > 0.0);
        // ΔVth ∝ A_kv^(2n)  ⇒  A_kv = (target/raw)^(1/2n)
        params.a_kv = (target.as_volts() / raw).powf(1.0 / (2.0 * params.n));
        Self::new(params)
    }

    /// The paper's 45 nm model, calibrated to 50 mV ΔVth after ten years of
    /// constant stress at nominal voltage and 350 K.
    pub fn calibrated_45nm() -> Self {
        Self::calibrated(
            NbtiParams::node_45nm(),
            Volt::from_millivolts(50.0),
            NbtiParams::TEN_YEARS_S,
        )
    }

    /// The paper's 32 nm model, calibrated to 55 mV ΔVth after ten years
    /// (scaling slightly worse than 45 nm).
    pub fn calibrated_32nm() -> Self {
        Self::calibrated(
            NbtiParams::node_32nm(),
            Volt::from_millivolts(55.0),
            NbtiParams::TEN_YEARS_S,
        )
    }

    /// The model parameters.
    pub fn params(&self) -> &NbtiParams {
        &self.params
    }

    /// The voltage/temperature factor `Kv`.
    pub fn kv(&self) -> f64 {
        self.kv
    }

    /// The per-cycle recovery fraction `βt` after `t_s` seconds of aging at
    /// stress probability `alpha`.
    ///
    /// Clamped to `[0, 1)` so the closed form stays numerically safe at
    /// extreme parameters.
    pub fn beta_t(&self, alpha: f64, t_s: f64) -> f64 {
        let (p, c) = (&self.params, self.diffusion_c);
        let numer = 2.0 * p.xi1 * p.te_nm + (p.xi2 * c * (1.0 - alpha) * p.tclk_s).sqrt();
        let denom = 2.0 * p.tox_nm + (c * t_s).sqrt();
        (1.0 - numer / denom).clamp(0.0, 1.0 - 1e-12)
    }

    /// The long-term threshold-voltage shift `|ΔVth|` after `t_s` seconds at
    /// stress probability `alpha` (paper Eq. 1).
    ///
    /// `alpha` is clamped to `[0, 1]`. Returns zero for `alpha == 0` (a
    /// device that never experiences stress does not age) and for
    /// `t_s <= 0`.
    pub fn delta_vth(&self, alpha: f64, t_s: f64) -> Volt {
        let alpha = alpha.clamp(0.0, 1.0);
        if alpha == 0.0 || t_s <= 0.0 {
            return Volt::ZERO;
        }
        let (p, kv) = (&self.params, self.kv);
        let beta = self.beta_t(alpha, t_s);
        let denom = 1.0 - beta.powf(1.0 / (2.0 * p.n));
        debug_assert!(denom > 0.0);
        let base = (kv * kv * p.tclk_s * alpha).sqrt() / denom;
        Volt::from_volts(base.powf(2.0 * p.n))
    }

    /// The aged threshold voltage of a device that started at `vth_initial`.
    pub fn aged_vth(&self, vth_initial: Volt, alpha: f64, t_s: f64) -> Volt {
        vth_initial + self.delta_vth(alpha, t_s)
    }

    /// ΔVth for *in-simulation* tracking of sensor-visible aging.
    ///
    /// The closed form of [`delta_vth`](Self::delta_vth) is a long-term
    /// envelope: it does not vanish as `t → 0` (it jumps to the
    /// cycle-averaged plateau of the fast initial transient), so using it
    /// directly to compare buffers after microseconds of simulated time
    /// would let aging spuriously dominate process variation. This variant
    /// follows the diffusion power law `ΔVth ∝ t^n` anchored at the
    /// ten-year Eq. 1 value, which reproduces the correct short-time
    /// behaviour (`ΔVth(0) = 0`, sub-millivolt shifts over a 30 ms
    /// simulation) while agreeing with the closed form at and beyond the
    /// anchor.
    pub fn delta_vth_tracked(&self, alpha: f64, t_s: f64) -> Volt {
        const ANCHOR_S: f64 = NbtiParams::TEN_YEARS_S;
        if t_s <= 0.0 {
            return Volt::ZERO;
        }
        if t_s >= ANCHOR_S {
            return self.delta_vth(alpha, t_s);
        }
        let anchor = self.delta_vth(alpha, ANCHOR_S).as_volts();
        Volt::from_volts(anchor * (t_s / ANCHOR_S).powf(self.params.n))
    }

    /// Tracked-aging counterpart of [`aged_vth`](Self::aged_vth).
    pub fn aged_vth_tracked(&self, vth_initial: Volt, alpha: f64, t_s: f64) -> Volt {
        vth_initial + self.delta_vth_tracked(alpha, t_s)
    }

    /// Relative ΔVth saving (in percent) of running at `alpha` instead of
    /// `alpha_baseline`, over the given horizon.
    ///
    /// Positive values mean `alpha` ages less than `alpha_baseline`.
    /// Returns 0.0 when the baseline shift is zero.
    pub fn saving_percent(&self, alpha: f64, alpha_baseline: f64, t_s: f64) -> f64 {
        let base = self.delta_vth(alpha_baseline, t_s).as_volts();
        if base == 0.0 {
            return 0.0;
        }
        (1.0 - self.delta_vth(alpha, t_s).as_volts() / base) * 100.0
    }
}

impl Default for LongTermModel {
    /// Defaults to the calibrated 45 nm model.
    fn default() -> Self {
        Self::calibrated_45nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_anchor_holds() {
        let model = LongTermModel::calibrated_45nm();
        let dv = model.delta_vth(1.0, NbtiParams::TEN_YEARS_S);
        assert!(
            (dv.as_millivolts() - 50.0).abs() < 1e-6,
            "expected 50 mV, got {dv:.6}"
        );
    }

    #[test]
    fn calibration_anchor_holds_32nm() {
        let model = LongTermModel::calibrated_32nm();
        let dv = model.delta_vth(1.0, NbtiParams::TEN_YEARS_S);
        assert!((dv.as_millivolts() - 55.0).abs() < 1e-6);
    }

    #[test]
    fn zero_alpha_means_zero_shift() {
        let model = LongTermModel::calibrated_45nm();
        assert_eq!(model.delta_vth(0.0, NbtiParams::TEN_YEARS_S), Volt::ZERO);
    }

    #[test]
    fn zero_time_means_zero_shift() {
        let model = LongTermModel::calibrated_45nm();
        assert_eq!(model.delta_vth(0.7, 0.0), Volt::ZERO);
    }

    #[test]
    fn shift_is_monotonic_in_alpha() {
        let model = LongTermModel::calibrated_45nm();
        let mut last = Volt::ZERO;
        for i in 1..=20 {
            let alpha = i as f64 / 20.0;
            let dv = model.delta_vth(alpha, NbtiParams::TEN_YEARS_S);
            assert!(dv > last, "ΔVth must grow with α (α={alpha}, dv={dv:?})");
            last = dv;
        }
    }

    #[test]
    fn shift_is_monotonic_in_time() {
        let model = LongTermModel::calibrated_45nm();
        let mut last = Volt::ZERO;
        for years in [0.5, 1.0, 2.0, 5.0, 10.0, 20.0] {
            let dv = model.delta_vth(0.8, years * NbtiParams::ONE_YEAR_S);
            assert!(dv > last, "ΔVth must grow with time");
            last = dv;
        }
    }

    #[test]
    fn shift_grows_with_temperature() {
        let mut hot = NbtiParams::node_45nm();
        hot.temperature_k = 400.0;
        let cold_model = LongTermModel::calibrated_45nm();
        // Same calibrated prefactor, hotter operating point.
        let mut hot_params = hot;
        hot_params.a_kv = cold_model.params().a_kv;
        let hot_model = LongTermModel::new(hot_params);
        let a = cold_model.delta_vth(1.0, NbtiParams::TEN_YEARS_S);
        let b = hot_model.delta_vth(1.0, NbtiParams::TEN_YEARS_S);
        assert!(b > a, "higher temperature must accelerate NBTI");
    }

    #[test]
    fn shift_grows_with_vdd() {
        let base = LongTermModel::calibrated_45nm();
        let mut high = *base.params();
        high.vdd = Volt::from_volts(1.3);
        let high_model = LongTermModel::new(high);
        assert!(
            high_model.delta_vth(1.0, NbtiParams::TEN_YEARS_S)
                > base.delta_vth(1.0, NbtiParams::TEN_YEARS_S)
        );
    }

    #[test]
    fn long_term_follows_sixth_root_of_time_asymptotically() {
        let model = LongTermModel::calibrated_45nm();
        let d10 = model.delta_vth(1.0, 10.0 * NbtiParams::TEN_YEARS_S);
        let d1 = model.delta_vth(1.0, NbtiParams::TEN_YEARS_S);
        let ratio = d10 / d1;
        // Ideal power law gives 10^(1/6) ≈ 1.468; the closed form approaches
        // it from below because of the constant 2·tox term.
        assert!(ratio > 1.15 && ratio < 1.5, "ratio = {ratio}");
    }

    #[test]
    fn beta_t_is_in_unit_interval() {
        let model = LongTermModel::calibrated_45nm();
        for &alpha in &[0.0, 0.01, 0.5, 0.99, 1.0] {
            for &t in &[1.0, 1e3, 1e6, NbtiParams::TEN_YEARS_S] {
                let b = model.beta_t(alpha, t);
                assert!((0.0..1.0).contains(&b), "β={b} for α={alpha}, t={t}");
            }
        }
    }

    #[test]
    fn saving_percent_is_zero_against_self() {
        let model = LongTermModel::calibrated_45nm();
        let s = model.saving_percent(0.4, 0.4, NbtiParams::TEN_YEARS_S);
        assert!(s.abs() < 1e-9);
    }

    #[test]
    fn saving_percent_positive_for_lower_alpha() {
        let model = LongTermModel::calibrated_45nm();
        let s = model.saving_percent(0.05, 1.0, NbtiParams::TEN_YEARS_S);
        assert!(s > 20.0 && s < 100.0, "saving = {s}");
    }

    #[test]
    fn aged_vth_adds_shift() {
        let model = LongTermModel::calibrated_45nm();
        let v0 = Volt::from_volts(0.185);
        let aged = model.aged_vth(v0, 1.0, NbtiParams::TEN_YEARS_S);
        assert!((aged - v0).as_millivolts() > 40.0);
    }

    #[test]
    fn alpha_is_clamped() {
        let model = LongTermModel::calibrated_45nm();
        let over = model.delta_vth(1.5, NbtiParams::TEN_YEARS_S);
        let at_one = model.delta_vth(1.0, NbtiParams::TEN_YEARS_S);
        assert_eq!(over, at_one);
        assert_eq!(model.delta_vth(-0.5, NbtiParams::TEN_YEARS_S), Volt::ZERO);
    }

    #[test]
    #[should_panic(expected = "calibration target must be positive")]
    fn calibration_rejects_nonpositive_target() {
        let _ = LongTermModel::calibrated(NbtiParams::node_45nm(), Volt::ZERO, 1.0);
    }

    #[test]
    fn tracked_shift_vanishes_at_zero_time() {
        let model = LongTermModel::calibrated_45nm();
        assert_eq!(model.delta_vth_tracked(1.0, 0.0), Volt::ZERO);
        // A 30 ms simulation ages the device by well under a millivolt —
        // process variation (σ = 5 mV) must stay dominant.
        let dv = model.delta_vth_tracked(1.0, 0.03);
        assert!(dv.as_millivolts() < 2.0, "30 ms shift = {dv:?}");
        assert!(dv.as_volts() > 0.0);
    }

    #[test]
    fn tracked_shift_matches_closed_form_at_anchor() {
        let model = LongTermModel::calibrated_45nm();
        let t = NbtiParams::TEN_YEARS_S;
        assert_eq!(model.delta_vth_tracked(0.7, t), model.delta_vth(0.7, t));
        let beyond = 2.0 * t;
        assert_eq!(
            model.delta_vth_tracked(0.7, beyond),
            model.delta_vth(0.7, beyond)
        );
    }

    #[test]
    fn tracked_shift_is_monotone_in_time_and_alpha() {
        let model = LongTermModel::calibrated_45nm();
        let mut last = Volt::ZERO;
        for t in [1e-3, 1.0, 1e3, 1e6, NbtiParams::ONE_YEAR_S] {
            let dv = model.delta_vth_tracked(0.5, t);
            assert!(dv > last);
            last = dv;
        }
        assert!(model.delta_vth_tracked(0.9, 1e3) > model.delta_vth_tracked(0.1, 1e3));
    }

    /// Full stress bounds the tracked shift of every duty cycle, as
    /// computed in floating point: the premise of certifying a
    /// most-degraded election from initial `Vth` alone.
    #[test]
    fn full_stress_bounds_every_tracked_shift() {
        for model in [
            LongTermModel::calibrated_45nm(),
            LongTermModel::calibrated_32nm(),
        ] {
            for t in [1e-9, 1e-6, 0.03, 1.0, 1e6, NbtiParams::TEN_YEARS_S, 1e10] {
                let full = model.delta_vth_tracked(1.0, t);
                for i in 0..=10_000 {
                    let alpha = f64::from(i) / 10_000.0;
                    let dv = model.delta_vth_tracked(alpha, t);
                    assert!(dv <= full, "α={alpha}, t={t}: {dv:?} > {full:?}");
                }
            }
        }
    }
}
