//! # nbti-noc — sensor-wise NBTI mitigation for NoC virtual-channel buffers
//!
//! A from-scratch reproduction of D. Zoni and W. Fornaciari, *"Sensor-wise
//! methodology to face NBTI stress of NoC buffers"*, DATE 2013.
//!
//! This facade crate re-exports the workspace members so that applications
//! and examples can depend on a single crate:
//!
//! * [`sim`] ([`noc_sim`]) — cycle-accurate 2D-mesh NoC simulator with
//!   3-stage virtual-channel routers and per-VC power gating,
//! * [`telemetry`] ([`noc_telemetry`]) — zero-cost-when-off event tracing,
//!   periodic metrics sampling and the deterministic event-stream digest,
//! * [`nbti`] ([`nbti_model`]) — NBTI physics: duty cycles, the long-term
//!   reaction–diffusion ΔVth model, process variation and sensor models,
//! * [`traffic`] ([`noc_traffic`]) — synthetic patterns and benchmark-profile
//!   application traffic,
//! * [`workload`] ([`noc_workload`]) — the `NBTITRC` binary trace format,
//!   deterministic application-mix generators and the trace/mix injection
//!   adapters,
//! * [`policy`] ([`sensorwise`]) — the paper's mitigation policies
//!   (`baseline`, `rr-no-sensor`, `sensor-wise-no-traffic`, `sensor-wise`),
//!   the cooperative control links, and the experiment runner,
//! * [`area`] ([`noc_area`]) — ORION-style router area model and the
//!   sensor/link overhead analysis,
//! * [`service`] ([`noc_service`]) — the HTTP job API serving deterministic
//!   experiments: bounded queue with backpressure, fixed worker pool,
//!   per-job timeouts and graceful drain.
//!
//! See the `examples/` directory for runnable entry points, starting with
//! `quickstart.rs`.

#![deny(missing_debug_implementations)]
#![warn(
    clippy::semicolon_if_nothing_returned,
    clippy::explicit_iter_loop,
    clippy::redundant_closure_for_method_calls,
    clippy::manual_let_else
)]

pub use nbti_model as nbti;
pub use noc_area as area;
pub use noc_service as service;
pub use noc_sim as sim;
pub use noc_telemetry as telemetry;
pub use noc_traffic as traffic;
pub use noc_workload as workload;
pub use sensorwise as policy;

/// One-stop imports for applications and examples.
pub mod prelude {
    pub use nbti_model::{
        vth_saving_percent, DutyCycleCounter, LongTermModel, NbtiParams, ProcessVariation, Volt,
    };
    pub use noc_area::{analyze as analyze_area, AreaParams};
    pub use noc_sim::prelude::*;
    pub use noc_telemetry::{
        read_jsonl, read_spans_jsonl, EventDigest, EventKind, Histogram, MetricsSeries,
        ProfileReport, Span, SpanKind, StageProfiler, TelemetryReport, TelemetrySpec, WorkCounters,
        NO_PARENT,
    };
    pub use noc_traffic::prelude::*;
    pub use sensorwise::{
        default_jobs, parallel_map, run_batch, run_experiment, run_experiment_profiled,
        validate_jobs, ExperimentConfig, ExperimentJob, ExperimentResult, NbtiMonitor, PolicyKind,
        SyntheticScenario, TrafficSpec,
    };
}
