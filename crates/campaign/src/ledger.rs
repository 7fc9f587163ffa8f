//! Per-buffer lifetime aging ledger.
//!
//! A campaign's aging feedback loop lives here: after every epoch the
//! engine hands the ledger each VC buffer's aggregate stress/recovery
//! cycle counts (the paper's NBTI-duty-cycle bookkeeping, Sec. III), and
//! the ledger advances one reaction–diffusion walker
//! ([`RdCycleModel`], Eq. 1 of the paper) per buffer. The aged threshold
//! voltages it reports — initial process-variation `Vth` plus the
//! accumulated `ΔVth` — seed the *next* epoch's sensor readings, so a
//! policy's gating decisions feed back into the degradation trajectory it
//! will face later in life.
//!
//! Epoch integration applies the epoch's aggregate stress first, then its
//! aggregate recovery. That canonical order makes integration independent
//! of the (unknowable) intra-epoch interleaving while preserving the
//! model's power-law-stress / universal-relaxation structure; with
//! epoch-level granularity it is also the conservative choice (recovery
//! relaxes the full accumulated shift).

use nbti_model::rd::{RdCycleModel, RdState};
use nbti_model::{AlphaPowerModel, LongTermModel, Volt};
use std::fmt;

/// Why a ledger operation was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum LedgerError {
    /// The age-acceleration factor is not a finite positive number.
    BadAcceleration(f64),
    /// The duty-total (or state) table has a different port count than the
    /// ledger.
    PortMismatch {
        /// Ports the ledger tracks.
        expected: usize,
        /// Ports the caller supplied.
        got: usize,
    },
    /// One port's VC count disagrees with the ledger.
    VcMismatch {
        /// The offending port index.
        port: usize,
        /// VCs the ledger tracks for that port.
        expected: usize,
        /// VCs the caller supplied.
        got: usize,
    },
    /// A restored walker state carried non-finite or negative values.
    InvalidState {
        /// The offending port index.
        port: usize,
        /// The offending VC index.
        vc: usize,
    },
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::BadAcceleration(a) => {
                write!(f, "age acceleration must be finite and positive (got {a})")
            }
            LedgerError::PortMismatch { expected, got } => {
                write!(
                    f,
                    "port count mismatch: ledger has {expected}, caller supplied {got}"
                )
            }
            LedgerError::VcMismatch {
                port,
                expected,
                got,
            } => write!(
                f,
                "VC count mismatch on port {port}: ledger has {expected}, caller supplied {got}"
            ),
            LedgerError::InvalidState { port, vc } => {
                write!(f, "invalid walker state for port {port} VC {vc}")
            }
        }
    }
}

impl std::error::Error for LedgerError {}

/// One VC buffer's lifetime record: its process-variation initial `Vth`
/// and the R-D walker accumulating its `ΔVth`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct VcAge {
    initial_vth: Volt,
    rd: RdCycleModel,
}

/// Per-port, per-VC lifetime aging state carried across campaign epochs.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeLedger {
    tclk_s: f64,
    age_acceleration: f64,
    ports: Vec<Vec<VcAge>>,
}

impl LifetimeLedger {
    /// Seeds a fresh ledger from epoch 0's sampled initial threshold
    /// voltages (one row per monitored port, one entry per VC).
    ///
    /// `age_acceleration` scales simulated cycles into lifetime seconds:
    /// each epoch cycle ages the device `age_acceleration × tclk` seconds,
    /// letting a few thousand simulated cycles stand in for months of
    /// operation (the paper's ten-year horizon would otherwise be
    /// unreachable in simulation).
    pub fn new(
        initial_vths: &[Vec<Volt>],
        model: LongTermModel,
        age_acceleration: f64,
    ) -> Result<LifetimeLedger, LedgerError> {
        if !age_acceleration.is_finite() || age_acceleration <= 0.0 {
            return Err(LedgerError::BadAcceleration(age_acceleration));
        }
        let ports = initial_vths
            .iter()
            .map(|vcs| {
                vcs.iter()
                    .map(|&initial_vth| VcAge {
                        initial_vth,
                        rd: RdCycleModel::new(model),
                    })
                    .collect()
            })
            .collect();
        Ok(LifetimeLedger {
            tclk_s: model.params().tclk_s,
            age_acceleration,
            ports,
        })
    }

    /// Rebuilds a ledger from checkpointed per-VC `(initial Vth, walker
    /// state)` rows, validating every value before restoring (corrupted
    /// snapshots must surface as typed errors, never panics).
    pub fn from_states(
        states: &[Vec<(Volt, RdState)>],
        model: LongTermModel,
        age_acceleration: f64,
    ) -> Result<LifetimeLedger, LedgerError> {
        if !age_acceleration.is_finite() || age_acceleration <= 0.0 {
            return Err(LedgerError::BadAcceleration(age_acceleration));
        }
        let mut ports = Vec::with_capacity(states.len());
        for (p, row) in states.iter().enumerate() {
            let mut vcs = Vec::with_capacity(row.len());
            for (v, &(initial_vth, state)) in row.iter().enumerate() {
                let ok = initial_vth.is_finite()
                    && state.delta_vth_v.is_finite()
                    && state.stress_age_s.is_finite()
                    && state.total_age_s.is_finite()
                    && state.delta_vth_v >= 0.0
                    && state.stress_age_s >= 0.0
                    && state.total_age_s >= 0.0;
                if !ok {
                    return Err(LedgerError::InvalidState { port: p, vc: v });
                }
                let mut rd = RdCycleModel::new(model);
                rd.restore_state(state);
                vcs.push(VcAge { initial_vth, rd });
            }
            ports.push(vcs);
        }
        Ok(LifetimeLedger {
            tclk_s: model.params().tclk_s,
            age_acceleration,
            ports,
        })
    }

    /// Integrates one finished epoch: `duty_totals[port][vc]` is that
    /// buffer's `(stress_cycles, recovery_cycles)` aggregate, exactly as
    /// reported by the experiment engine's duty closure.
    pub fn integrate_epoch(&mut self, duty_totals: &[Vec<(u64, u64)>]) -> Result<(), LedgerError> {
        if duty_totals.len() != self.ports.len() {
            return Err(LedgerError::PortMismatch {
                expected: self.ports.len(),
                got: duty_totals.len(),
            });
        }
        for (p, (vcs, totals)) in self.ports.iter_mut().zip(duty_totals).enumerate() {
            if totals.len() != vcs.len() {
                return Err(LedgerError::VcMismatch {
                    port: p,
                    expected: vcs.len(),
                    got: totals.len(),
                });
            }
            for (age, &(stress, recovery)) in vcs.iter_mut().zip(totals) {
                let scale = self.tclk_s * self.age_acceleration;
                age.rd.stress(stress as f64 * scale);
                age.rd.recover(recovery as f64 * scale);
            }
        }
        Ok(())
    }

    /// The aged threshold voltages — initial `Vth` plus accumulated
    /// `ΔVth` — that seed the next epoch's ideal sensors.
    pub fn aged_vths(&self) -> Vec<Vec<Volt>> {
        self.ports
            .iter()
            .map(|vcs| {
                vcs.iter()
                    .map(|age| age.initial_vth + age.rd.delta_vth())
                    .collect()
            })
            .collect()
    }

    /// Accumulated per-buffer `ΔVth` rows (same shape as [`aged_vths`]).
    ///
    /// [`aged_vths`]: LifetimeLedger::aged_vths
    pub fn delta_vths(&self) -> Vec<Vec<Volt>> {
        self.ports
            .iter()
            .map(|vcs| vcs.iter().map(|age| age.rd.delta_vth()).collect())
            .collect()
    }

    /// The worst accumulated shift across every tracked buffer, in mV.
    pub fn max_delta_vth_mv(&self) -> f64 {
        self.ports
            .iter()
            .flatten()
            .map(|age| age.rd.delta_vth().as_millivolts())
            .fold(0.0, f64::max)
    }

    /// The worst per-buffer critical-path delay degradation (percent)
    /// under the alpha-power delay model — the metric the paper's Table II
    /// ultimately protects.
    pub fn worst_delay_degradation_percent(&self, delay: &AlphaPowerModel) -> f64 {
        self.ports
            .iter()
            .flatten()
            .map(|age| delay.delay_degradation_percent(age.initial_vth, age.rd.delta_vth()))
            .fold(0.0, f64::max)
    }

    /// Number of monitored ports.
    pub fn num_ports(&self) -> usize {
        self.ports.len()
    }

    /// Checkpoint rows: per-VC `(initial Vth, walker state)`, consumed by
    /// the campaign snapshot codec.
    pub fn vc_states(&self) -> Vec<Vec<(Volt, RdState)>> {
        self.ports
            .iter()
            .map(|vcs| {
                vcs.iter()
                    .map(|age| (age.initial_vth, age.rd.state()))
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_port_ledger(accel: f64) -> LifetimeLedger {
        let vth = |mv: f64| Volt::from_millivolts(mv);
        let initial = vec![vec![vth(180.0), vth(185.0)], vec![vth(178.0), vth(190.0)]];
        LifetimeLedger::new(&initial, LongTermModel::calibrated_45nm(), accel).unwrap()
    }

    #[test]
    fn rejects_bad_acceleration_and_shape_mismatches() {
        let initial = vec![vec![Volt::from_millivolts(180.0)]];
        let model = LongTermModel::calibrated_45nm();
        assert_eq!(
            LifetimeLedger::new(&initial, model, 0.0).unwrap_err(),
            LedgerError::BadAcceleration(0.0)
        );
        assert!(matches!(
            LifetimeLedger::new(&initial, model, f64::NAN).unwrap_err(),
            LedgerError::BadAcceleration(_)
        ));

        let mut ledger = two_port_ledger(1.0e6);
        assert_eq!(
            ledger.integrate_epoch(&[vec![(1, 1), (1, 1)]]).unwrap_err(),
            LedgerError::PortMismatch {
                expected: 2,
                got: 1
            }
        );
        assert_eq!(
            ledger
                .integrate_epoch(&[vec![(1, 1)], vec![(1, 1), (1, 1)]])
                .unwrap_err(),
            LedgerError::VcMismatch {
                port: 0,
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn stressed_buffers_age_and_gated_buffers_age_less() {
        let mut ledger = two_port_ledger(1.0e9);
        // Port 0 VC 0 is stressed the whole epoch; VC 1 mostly recovers.
        let totals = vec![
            vec![(4_000, 0), (400, 3_600)],
            vec![(2_000, 2_000), (2_000, 2_000)],
        ];
        for _ in 0..4 {
            ledger.integrate_epoch(&totals).unwrap();
        }
        let dv = ledger.delta_vths();
        assert!(dv[0][0].as_volts() > 0.0);
        assert!(
            dv[0][0] > dv[0][1],
            "always-stressed VC must age more than the mostly-gated one: {:?} vs {:?}",
            dv[0][0],
            dv[0][1]
        );
        assert!(ledger.max_delta_vth_mv() >= dv[0][0].as_millivolts() - 1e-12);
        // Aged Vths are initial + delta.
        let aged = ledger.aged_vths();
        assert!((aged[0][0] - dv[0][0]).as_millivolts() - 180.0 < 1e-9);
        // Delay degradation is positive once anything aged.
        let delay = AlphaPowerModel::paper_45nm();
        assert!(ledger.worst_delay_degradation_percent(&delay) > 0.0);
    }

    #[test]
    fn aging_is_monotone_over_epochs() {
        let mut ledger = two_port_ledger(1.0e9);
        let totals = vec![
            vec![(3_000, 1_000), (1_000, 3_000)],
            vec![(2_000, 2_000), (2_000, 2_000)],
        ];
        let mut last = 0.0;
        for _ in 0..6 {
            ledger.integrate_epoch(&totals).unwrap();
            let now = ledger.max_delta_vth_mv();
            assert!(
                now >= last,
                "net-stressed buffer's Vth shift went backwards: {now} < {last}"
            );
            last = now;
        }
        assert!(last > 0.0);
    }

    #[test]
    fn state_round_trip_is_bit_exact() {
        let mut ledger = two_port_ledger(1.0e8);
        ledger
            .integrate_epoch(&[
                vec![(3_000, 1_000), (1_000, 3_000)],
                vec![(2_000, 2_000), (100, 3_900)],
            ])
            .unwrap();
        let states = ledger.vc_states();
        let restored =
            LifetimeLedger::from_states(&states, LongTermModel::calibrated_45nm(), 1.0e8).unwrap();
        assert_eq!(ledger, restored);
        // And the restored ledger continues identically.
        let mut a = ledger.clone();
        let mut b = restored;
        let totals = vec![
            vec![(500, 3_500), (3_500, 500)],
            vec![(1, 3_999), (0, 4_000)],
        ];
        a.integrate_epoch(&totals).unwrap();
        b.integrate_epoch(&totals).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn from_states_rejects_corrupt_values() {
        let model = LongTermModel::calibrated_45nm();
        let good = RdState {
            delta_vth_v: 0.01,
            stress_age_s: 1.0,
            total_age_s: 2.0,
        };
        let bad = RdState {
            delta_vth_v: -0.01,
            ..good
        };
        let states = vec![vec![
            (Volt::from_millivolts(180.0), good),
            (Volt::from_millivolts(180.0), bad),
        ]];
        assert_eq!(
            LifetimeLedger::from_states(&states, model, 1.0).unwrap_err(),
            LedgerError::InvalidState { port: 0, vc: 1 }
        );
        let nan_vth = vec![vec![(Volt::from_volts(f64::NAN), good)]];
        assert!(matches!(
            LifetimeLedger::from_states(&nan_vth, model, 1.0).unwrap_err(),
            LedgerError::InvalidState { port: 0, vc: 0 }
        ));
    }
}
