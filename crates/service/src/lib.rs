//! # noc-service — serving deterministic experiments over HTTP
//!
//! A dependency-free subsystem (only `std::net`) that turns the
//! `sensorwise` engine into a job service:
//!
//! * [`server`] — the HTTP/1.1 API: submit specs (`POST /jobs`), poll
//!   (`GET /jobs/{id}`), fetch results (`GET /jobs/{id}/result`, or block
//!   until the job ends with `?wait_ms=N`), cancel
//!   (`DELETE /jobs/{id}`), observe (`GET /stats` as JSON, `GET /metrics`
//!   as Prometheus text exposition), and shut down (`POST /shutdown`),
//! * [`metrics`] — the lock-light [`MetricsRegistry`] both observation
//!   endpoints render from: atomic counters, per-endpoint request-latency
//!   histograms, worker busy time,
//! * [`jobs`] — the job table: the bounded queue, admission and the
//!   lifecycle state machine under one lock, with a counter per state; a
//!   full queue is surfaced to clients as `429` + `Retry-After`, never a
//!   blocked handler, and every accepted job ends in exactly one terminal
//!   state the shutdown report accounts for,
//! * [`http`] — minimal HTTP framing (`Content-Length`, one request per
//!   connection, one deadline and a size cap per exchange) shared by
//!   server and client,
//! * [`client`] — a blocking client with per-request latency accounting.
//!
//! Every real-time read (timeouts, latencies) goes through
//! `noc_telemetry::clock`, the workspace's single wall-clock boundary.
//!
//! ## The determinism contract over the wire
//!
//! The server adds *scheduling* (queueing, worker assignment, timeouts)
//! but no *behaviour*: a job's result — including its event-stream
//! `trace_digest` — is bit-identical to running the same spec in-process
//! or through `nbti-noc run`, for any `--workers` and any interleaving of
//! submissions. Wall-clock time can only ever discard a run (timeout or
//! cancellation), never alter one.

#![deny(missing_debug_implementations)]
#![warn(
    clippy::semicolon_if_nothing_returned,
    clippy::explicit_iter_loop,
    clippy::redundant_closure_for_method_calls,
    clippy::manual_let_else
)]

pub mod client;
pub mod http;
pub mod jobs;
pub mod metrics;
pub mod server;

pub use client::{deterministic_backoff_ms, JobStatus, ServiceClient, Submitted, WaitError};
pub use jobs::{JobCounts, JobId, JobState};
pub use metrics::{Endpoint, GaugeView, MetricsRegistry};
pub use server::{Server, ServiceConfig, ShutdownReport};
