//! NBTI (Negative Bias Temperature Instability) modelling library.
//!
//! This crate implements the aging substrate used by the DATE 2013 paper
//! *"Sensor-wise methodology to face NBTI stress of NoC buffers"*
//! (Zoni & Fornaciari):
//!
//! * [`duty`] — NBTI stress/recovery cycle accounting and the paper's
//!   *NBTI-duty-cycle* metric,
//! * [`model`] — the long-term reaction–diffusion closed-form threshold-voltage
//!   shift model (Eq. 1 of the paper, after Bhardwaj et al. / Wang et al.),
//! * [`variation`] — within-die process-variation sampling of initial
//!   threshold voltages (one PMOS sample per VC buffer),
//! * [`sensor`] — NBTI sensor models (ideal and quantized/noisy, after the
//!   Singh et al. 45 nm multi-degradation sensor),
//! * [`tracker`] — per-buffer degradation trackers combining all of the above,
//! * [`projection`] — long-horizon ΔVth projection and policy-vs-baseline
//!   saving computation.
//!
//! The crate is self-contained (it knows nothing about networks-on-chip); the
//! `sensorwise` crate glues it to the cycle-accurate NoC simulator.
//!
//! # Quick example
//!
//! ```
//! use nbti_model::{LongTermModel, NbtiParams, duty::DutyCycleCounter};
//!
//! // A buffer stressed 30% of the time, projected ten years out.
//! let model = LongTermModel::calibrated_45nm();
//! let mut duty = DutyCycleCounter::new();
//! for cycle in 0..100u64 {
//!     if cycle % 10 < 3 { duty.record_stress() } else { duty.record_recovery() }
//! }
//! assert!((duty.duty_cycle_percent() - 30.0).abs() < 1e-9);
//! let dv = model.delta_vth(duty.alpha(), NbtiParams::TEN_YEARS_S);
//! assert!(dv.as_volts() > 0.0 && dv.as_volts() < 0.2);
//! ```

#![deny(missing_debug_implementations)]
#![warn(
    clippy::semicolon_if_nothing_returned,
    clippy::explicit_iter_loop,
    clippy::redundant_closure_for_method_calls,
    clippy::manual_let_else
)]

pub mod delay;
pub mod duty;
mod gauss;
pub mod model;
pub mod projection;
pub mod rd;
pub mod sensor;
pub mod thermal;
pub mod tracker;
pub mod units;
pub mod variation;

pub use delay::AlphaPowerModel;
pub use duty::{DutyCycleCounter, StressState};
pub use model::{LongTermModel, NbtiParams};
pub use projection::{vth_saving_percent, ProjectionPoint, VthProjection};
pub use rd::{RdCycleModel, RdState};
pub use sensor::{
    most_degraded_by_reading, FaultMode, FaultySensor, IdealSensor, NbtiSensor, QuantizedSensor,
};
pub use thermal::{ThermalNode, ThermalParams};
pub use tracker::{BufferAgeTracker, PortAgeTracker, ShiftBound};
pub use units::Volt;
pub use variation::ProcessVariation;
