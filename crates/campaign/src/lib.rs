//! # noc-campaign — multi-epoch lifetime campaigns
//!
//! The DATE 2013 paper evaluates its sensor-wise gating policies over a
//! device *lifetime*: NBTI threshold-voltage drift accumulates over
//! months while the NoC keeps switching every nanosecond. This crate
//! bridges those timescales by chaining cycle-accurate experiment
//! *epochs* into one campaign:
//!
//! * [`ledger`] — per-VC-buffer aging state carried between epochs: each
//!   buffer's reaction–diffusion walker integrates the epoch's
//!   stress/recovery duty totals (scaled by an age-acceleration factor),
//!   and its aged `Vth` feeds the *next* epoch's sensor readings — the
//!   paper's feedback loop, extended across a lifetime,
//! * [`engine`] — the campaign driver: per-epoch traffic seeding, drained
//!   network hand-off, the chained epoch-boundary digest that witnesses
//!   determinism, and epoch reports carrying `ΔVth` and delay-degradation
//!   projections,
//! * [`snapshot`] — versioned, checksummed binary checkpoints
//!   (`NBTICAMP` v2): resume at any epoch boundary is bit-identical to
//!   the uninterrupted run, and any corruption surfaces as a typed error,
//! * [`store`] — a content-addressed filesystem result store (canonical
//!   spec JSON → persisted wire result) implementing the engine-side
//!   [`sensorwise::ResultCache`] contract, with deterministic
//!   sequence-number GC,
//! * [`remote`] — the distributed execution plane: a [`WorkerPool`] of
//!   `noc-service` workers, a [`RemoteExecutor`] implementing the same
//!   [`EpochExecutor`] contract as in-process execution (so remote
//!   campaigns are bit-identical by construction), retry with
//!   reassignment on worker death, and backpressure-aware scheduling.
//!
//! # Example
//!
//! ```
//! use noc_campaign::{Campaign, CampaignSpec};
//! use sensorwise::policy::PolicyKind;
//! use sensorwise::{ExperimentConfig, ExperimentJob, TrafficSpec};
//!
//! let spec = CampaignSpec {
//!     base: ExperimentJob {
//!         cfg: ExperimentConfig::new(
//!             noc_sim::config::NocConfig::paper_synthetic(4, 2),
//!             PolicyKind::SensorWise,
//!         )
//!         .with_cycles(200, 1_000),
//!         traffic: TrafficSpec::Uniform { rate: 0.1, seed: 42 },
//!     },
//!     epochs: 2,
//!     age_acceleration: 1.0e9, // one cycle ≈ one second of lifetime
//!     drain_limit: 5_000,
//! };
//! let mut campaign = Campaign::new(spec).unwrap();
//! let first = campaign.run_next_epoch(None).unwrap();
//! let second = campaign.run_next_epoch(None).unwrap();
//! assert_eq!((first.index, second.index), (0, 1));
//! assert!(second.end_cycle > first.end_cycle);
//! assert!(second.max_delta_vth_mv > 0.0);
//! assert!(campaign.is_finished());
//! ```

#![deny(missing_debug_implementations)]
#![warn(
    clippy::semicolon_if_nothing_returned,
    clippy::explicit_iter_loop,
    clippy::redundant_closure_for_method_calls,
    clippy::manual_let_else
)]

pub mod engine;
pub mod ledger;
pub mod remote;
pub mod snapshot;
pub mod store;

pub use engine::{
    Campaign, CampaignError, CampaignSpec, DispatchEntry, EpochExecutor, EpochReport,
    LocalExecutor, EPOCH_SEED_STRIDE,
};
pub use ledger::{LedgerError, LifetimeLedger};
pub use remote::{recover_from_store, RemoteExecutor, WorkerPool};
pub use snapshot::{SnapshotError, FORMAT_VERSION, MAGIC, MIN_READ_VERSION};
pub use store::{FsResultStore, GcReport, StoreError, StoreStats};
