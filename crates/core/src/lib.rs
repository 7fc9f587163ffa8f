//! # sensorwise — the DATE 2013 sensor-wise NBTI mitigation methodology
//!
//! This crate implements the paper's contribution on top of the `noc-sim`
//! substrate and the `nbti-model` physics:
//!
//! * [`policy`] — the pre-VA gating policies: the NBTI-unaware baseline,
//!   Algorithm 1 (*rr-no-sensor*), and Algorithm 2 (*sensor-wise*, with and
//!   without traffic information),
//! * [`monitor`] — per-port NBTI bookkeeping: process-variation `Vth`
//!   sampling, per-VC age trackers, and the sensor election carried by the
//!   `Down_Up` link,
//! * [`experiment`] — the cycle loop tying traffic, network, policies and
//!   monitors together, plus the paper's synthetic scenarios,
//! * [`tables`] — builders that regenerate the paper's Tables II, III and
//!   IV and render them as text,
//! * [`analysis`] — the headline extractions: activity-factor gaps, the
//!   ten-year `Vth` saving versus the baseline (E5), and the cooperative
//!   gain of traffic information (E6),
//! * [`sweep`] — gap-versus-load sweeps and saturation-point analysis,
//! * [`codec`] — the wire codec: one JSON schema for experiment specs and
//!   results shared by the CLI and the `noc-service` HTTP API,
//! * [`cache`] — content-addressed result memoization: canonical spec JSON
//!   is the address, identical spec means byte-identical cached result;
//!   backs the sweep memoization and the service's cache-hit fast path,
//! * [`parallel`] — the deterministic parallel experiment engine every
//!   swept artifact fans out through: bounded worker pool, results in
//!   input order, bit-identical for any worker count.
//!
//! # Example
//!
//! ```
//! use sensorwise::experiment::SyntheticScenario;
//! use sensorwise::policy::PolicyKind;
//!
//! let scenario = SyntheticScenario { cores: 4, vcs: 2, injection_rate: 0.1 };
//! let rr = scenario.run(PolicyKind::RrNoSensor, 500, 3_000);
//! let sw = scenario.run(PolicyKind::SensorWise, 500, 3_000);
//! let port = rr.east_input(noc_sim::types::NodeId(0));
//! let md = port.md_vc;
//! // The sensor-wise policy reduces the most degraded VC's duty cycle.
//! assert!(sw.east_input(noc_sim::types::NodeId(0)).duty_percent[md]
//!     <= port.duty_percent[md]);
//! ```

#![deny(missing_debug_implementations)]
#![warn(
    clippy::semicolon_if_nothing_returned,
    clippy::explicit_iter_loop,
    clippy::redundant_closure_for_method_calls,
    clippy::manual_let_else
)]

pub mod analysis;
pub mod cache;
pub mod codec;
pub mod epoch_wire;
pub mod experiment;
pub mod modelcheck;
pub mod monitor;
pub mod parallel;
pub mod policy;
pub mod sweep;
pub mod tables;

pub use cache::{run_batch_cached, spec_key, CachedBatch, MemoryCache, ResultCache};
pub use codec::{
    result_to_json, spec_from_json, spec_to_json, CodecError, JsonValue, WirePort, WireResult,
};
pub use epoch_wire::{WireEpochOutcome, WireEpochRequest};
pub use experiment::{
    run_epoch, run_epoch_cancellable, run_experiment, run_experiment_cancellable,
    run_experiment_profiled, EpochError, EpochOutcome, ExperimentConfig, ExperimentResult,
    PortResult, SensorModel, SyntheticScenario, LOAD_CALIBRATION,
};
pub use modelcheck::{
    checked_policies, controller_for, explore_config_for, model_check, model_check_default,
    model_check_with_fault, CheckCase, CheckOutcome, ModelCheckReport,
};
pub use monitor::NbtiMonitor;
pub use noc_telemetry::{TelemetryReport, TelemetrySpec, WorkCounters};
pub use parallel::{
    default_jobs, parallel_map, run_batch, validate_jobs, ExperimentJob, TrafficSpec,
};
pub use policy::{BaselinePolicy, GatingPolicy, PolicyKind, RrNoSensorPolicy, SensorWisePolicy};
