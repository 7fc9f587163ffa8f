//! Property-based tests of the NBTI model invariants.

use nbti_model::{
    most_degraded_by_reading, DutyCycleCounter, IdealSensor, LongTermModel, NbtiParams, NbtiSensor,
    PortAgeTracker, ProcessVariation, QuantizedSensor, StressState, Volt,
};
use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1_024))]

    /// A certified most-degraded election is the exact one: on random
    /// ports (1–8 VCs) with random stress runs, elapsed cycles and age
    /// accelerations, a certified winner is the argmax of the true `Vth`s,
    /// and the election returns that argmax either way. Initial voltages
    /// sit a random spread apart, from 0.1 µV to 40 mV, so near-ties
    /// inside the bound and horizons where the bound exceeds the
    /// process-variation gap both occur.
    #[test]
    fn certified_election_is_the_exact_one(
        offsets in proptest::collection::vec(-4i32..5, 1..9),
        spread_exp in -7.0f64..-2.0,
        runs in proptest::collection::vec((any::<u32>(), 1u64..20_000), 0..6),
        accel_exp in 0.0f64..16.0,
    ) {
        let spread = 10f64.powf(spread_exp);
        let vths: Vec<Volt> = offsets
            .iter()
            .map(|&o| Volt::from_volts(0.18 + f64::from(o) * spread))
            .collect();
        let sensors = vec![IdealSensor::new(); vths.len()];
        let mut port = PortAgeTracker::new(&vths, sensors, LongTermModel::calibrated_45nm())
            .with_age_acceleration(10f64.powf(accel_exp));
        let all = u32::MAX >> (32 - vths.len());
        for &(stressed, cycles) in &runs {
            port.record_cycles(stressed & all, cycles);
        }
        let exact = most_degraded_by_reading(port.buffers().map(|b| b.true_vth())).unwrap();
        if let Some(vc) = port.certified_most_degraded(port.shift_bound()) {
            prop_assert_eq!(vc, exact);
        }
        prop_assert_eq!(port.most_degraded(), exact);
    }
}

proptest! {
    /// Duty-cycle accounting is exact for any stress/recovery sequence.
    #[test]
    fn duty_counter_matches_sequence(seq in proptest::collection::vec(any::<bool>(), 1..500)) {
        let mut duty = DutyCycleCounter::new();
        for &stressed in &seq {
            duty.record(if stressed { StressState::Stressed } else { StressState::Recovering });
        }
        let stress = seq.iter().filter(|&&s| s).count() as u64;
        prop_assert_eq!(duty.stress_cycles(), stress);
        prop_assert_eq!(duty.total_cycles(), seq.len() as u64);
        let expect = stress as f64 / seq.len() as f64 * 100.0;
        prop_assert!((duty.duty_cycle_percent() - expect).abs() < 1e-9);
    }

    /// ΔVth is monotone in α for arbitrary (α₁, α₂) pairs and any time.
    #[test]
    fn delta_vth_monotone_in_alpha(
        a1 in 0.0f64..=1.0,
        a2 in 0.0f64..=1.0,
        t_years in 0.1f64..30.0,
    ) {
        let model = LongTermModel::calibrated_45nm();
        let t = t_years * NbtiParams::ONE_YEAR_S;
        let (lo, hi) = if a1 <= a2 { (a1, a2) } else { (a2, a1) };
        prop_assert!(model.delta_vth(lo, t) <= model.delta_vth(hi, t));
        prop_assert!(model.delta_vth_tracked(lo, t) <= model.delta_vth_tracked(hi, t));
    }

    /// ΔVth is monotone in time and always finite and non-negative.
    #[test]
    fn delta_vth_monotone_in_time(
        alpha in 0.0f64..=1.0,
        t1 in 1e-3f64..1e9,
        t2 in 1e-3f64..1e9,
    ) {
        let model = LongTermModel::calibrated_45nm();
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        let a = model.delta_vth_tracked(alpha, lo);
        let b = model.delta_vth_tracked(alpha, hi);
        prop_assert!(a.is_finite() && b.is_finite());
        prop_assert!(a.as_volts() >= 0.0);
        prop_assert!(a <= b, "tracked ΔVth not monotone: {a:?} > {b:?}");
    }

    /// Savings are antitone in α and bounded by [0, 100] for α ≤ baseline.
    #[test]
    fn savings_are_bounded_and_ordered(a1 in 0.0f64..=1.0, a2 in 0.0f64..=1.0) {
        let model = LongTermModel::calibrated_45nm();
        let (lo, hi) = if a1 <= a2 { (a1, a2) } else { (a2, a1) };
        let s_lo = model.saving_percent(lo, 1.0, NbtiParams::TEN_YEARS_S);
        let s_hi = model.saving_percent(hi, 1.0, NbtiParams::TEN_YEARS_S);
        prop_assert!((0.0..=100.0).contains(&s_lo), "saving {s_lo}");
        prop_assert!(s_lo >= s_hi - 1e-9);
    }

    /// Process-variation samples are deterministic per seed and stay within
    /// the clamped ±4σ window.
    #[test]
    fn pv_samples_bounded_and_deterministic(seed in any::<u64>(), n in 1usize..64) {
        let mut a = ProcessVariation::paper_45nm(seed);
        let mut b = ProcessVariation::paper_45nm(seed);
        let sa = a.sample_port(n);
        let sb = b.sample_port(n);
        prop_assert_eq!(&sa, &sb);
        for v in &sa {
            prop_assert!(v.as_volts() >= 0.180 - 0.02 - 1e-12);
            prop_assert!(v.as_volts() <= 0.180 + 0.02 + 1e-12);
        }
    }

    /// The ideal sensor's most-degraded election equals the true argmax.
    #[test]
    fn ideal_election_is_true_argmax(vths in proptest::collection::vec(0.15f64..0.21, 1..8)) {
        let mut sensors: Vec<IdealSensor> = vec![IdealSensor::new(); vths.len()];
        let readings: Vec<Volt> = vths
            .iter()
            .zip(&mut sensors)
            .map(|(&v, s)| s.sample(Volt::from_volts(v), 0))
            .collect();
        let md = most_degraded_by_reading(&readings).unwrap();
        let true_max = vths
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        prop_assert!((vths[md] - vths[true_max]).abs() < 1e-12);
    }

    /// A noiseless quantized sensor errs by at most half an LSB.
    #[test]
    fn quantization_error_is_bounded(
        v in 0.1f64..0.3,
        lsb_mv in 0.01f64..5.0,
    ) {
        let mut s = QuantizedSensor::new(
            Volt::from_millivolts(lsb_mv),
            Volt::ZERO,
            1,
            0,
        );
        let r = s.sample(Volt::from_volts(v), 0);
        let err = (r.as_volts() - v).abs();
        prop_assert!(err <= lsb_mv * 1e-3 / 2.0 + 1e-12, "err {err} > lsb/2");
    }
}

#[test]
fn reexport_paths_agree() {
    // `most_degraded_by_reading` is reachable both at the crate root and in
    // its module; make sure the public surface stays consistent.
    let v = [Volt::from_volts(0.18), Volt::from_volts(0.19)];
    assert_eq!(most_degraded_by_reading(v), Some(1));
    assert_eq!(nbti_model::sensor::most_degraded_by_reading(v), Some(1));
}
