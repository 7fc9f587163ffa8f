//! Distributed campaign execution.
//!
//! A remote campaign runs its epochs as served jobs against a pool of
//! `noc-service` workers instead of the calling thread. Three pieces:
//!
//! * [`pool`] — the [`WorkerPool`]: the worker addresses, their liveness,
//!   and the deterministic epoch→worker assignment (round-robin over the
//!   workers still alive, rotated by attempt number so reassignment after
//!   a death is itself deterministic),
//! * [`dispatch`] — the [`RemoteExecutor`]: implements the engine's
//!   [`EpochExecutor`](crate::EpochExecutor) contract by shipping the
//!   epoch's [`sensorwise::WireEpochRequest`] to a worker and decoding the
//!   [`sensorwise::WireEpochOutcome`] it serves back, with retry and
//!   reassignment on worker death and backpressure-aware (`429` +
//!   `Retry-After`, deterministic backoff) scheduling,
//! * [`recovery`] — resuming after a kill: the shared
//!   [`FsResultStore`](crate::FsResultStore) is the result plane every
//!   worker writes into, so an epoch whose worker died *after* filing its
//!   outcome is recovered from the store without re-simulation
//!   ([`recovery::recover_from_store`]), and a corrupt entry simply reads
//!   as a miss and is recomputed.
//!
//! # Determinism
//!
//! The executor never touches the epoch's inputs or outputs: the engine
//! builds the identical [`sensorwise::WireEpochRequest`] it would run
//! locally, and the worker runs the identical
//! [`sensorwise::run_epoch_cancellable`] the local executor calls. Every
//! `f64` crosses the wire as its IEEE-754 bit pattern. The chained
//! epoch-boundary digest of a remote campaign — through any interleaving
//! of worker deaths, retries and resumes — is therefore bit-identical to
//! the single-process run, and the CI smoke asserts exactly that.

pub mod dispatch;
pub mod pool;
pub mod recovery;

pub use dispatch::RemoteExecutor;
pub use pool::WorkerPool;
pub use recovery::recover_from_store;
