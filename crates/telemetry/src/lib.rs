//! # noc-telemetry — deterministic observability for the NBTI/NoC stack
//!
//! The simulator's determinism contract (bit-identical results for any
//! `--jobs`, PR 1) extends to observability: everything this crate records
//! is a pure function of the simulated state, never of wall-clock time or
//! scheduling. Three layers:
//!
//! * [`event`] — typed trace events (gating transitions, `Up_Down` /
//!   `Down_Up` control-link payloads, VA grants, flit inject/eject, packet
//!   completions, invariant violations) with a compact JSONL encoding,
//! * [`sink`] — the trait-object-free [`TraceSink`] the simulator emits
//!   into: [`NullSink`] (compiles to nothing — the default), [`RecordSink`]
//!   (in-memory ring buffer + rolling digest) and [`JsonlSink`] (streaming
//!   file export),
//! * [`series`] — a columnar [`MetricsSeries`] for periodic samples
//!   (per-port duty %, VC occupancy, gating churn, powered-VC count,
//!   projected ΔVth) with CSV/JSONL export,
//!
//! plus [`digest`] (an FNV-1a rolling hash over the canonical event byte
//! encoding, for digest-only bit-identity assertions) and [`counters`]
//! (deterministic per-phase work counters for hot-path accounting without
//! wall-clock reads).
//!
//! The *performance*-observability layer lives beside those and is the one
//! deliberate exception to the no-wall-clock rule: [`profile`] (a log2
//! [`Histogram`] per stage in a [`StageProfiler`] behind a const-`ENABLED`
//! generic, same compile-out contract as [`TraceSink::ACTIVE`]), [`spans`]
//! (request→job→experiment→epoch spans with derived ids, plus a bounded
//! [`FlightRecorder`] ring), and [`clock`], the workspace's single
//! sanctioned wall-clock boundary both read from. Timings are observations
//! of a run, never inputs to it — profiled runs stay bit-identical.
//!
//! [`hist`] is the one log2 histogram the profiler, `/metrics` and the
//! simulator's latency buckets share, plus the one [`percentile`].
//!
//! [`rng`] is the one random-number generator: the seeded xoshiro256++ and
//! SplitMix64 streams behind process variation, sensor noise, traffic,
//! NBTITRC mixes and backoff jitter.
//!
//! This crate is dependency-free and knows nothing about the simulator; the
//! simulator depends on it and maps its own identifiers into [`PortCode`].
//!
//! # Zero overhead when off
//!
//! [`TraceSink::ACTIVE`] is an associated `const`. Every emission site in
//! the simulator is guarded by `if T::ACTIVE { ... }`, so with the default
//! [`NullSink`] the branch — and the event construction behind it — is
//! removed at monomorphization time. A run with telemetry off is the same
//! machine code as before this crate existed.

#![deny(missing_debug_implementations)]
#![warn(
    clippy::semicolon_if_nothing_returned,
    clippy::explicit_iter_loop,
    clippy::redundant_closure_for_method_calls,
    clippy::manual_let_else
)]

pub mod clock;
pub mod counters;
pub mod digest;
pub mod event;
pub mod hist;
pub mod profile;
pub mod rng;
pub mod series;
pub mod sink;
pub mod spans;
pub mod spec;

pub use counters::WorkCounters;
pub use digest::EventDigest;
pub use event::{read_jsonl, EventKind, ParseError, PortCode, TraceEvent};
pub use hist::{percentile, AtomicHistogram, Histogram};
pub use profile::{NullProfiler, ProfileReport, Profiler, Stage, StageProfiler};
pub use series::{MetricsSeries, Sample};
pub use sink::{EventLog, JsonlSink, NullSink, RecordSink, TraceSink};
pub use spans::{derive_id, read_spans_jsonl, FlightRecorder, Span, SpanKind, SpanLog, NO_PARENT};
pub use spec::{TelemetryReport, TelemetrySpec};
