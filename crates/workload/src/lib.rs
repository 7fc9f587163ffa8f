//! Binary trace workloads for the NoC simulator.
//!
//! Three pieces, layered:
//!
//! * [`format`] — the `NBTITRC` compact binary trace format: a versioned
//!   magic-tagged header, chunked records with per-chunk FNV-1a-64
//!   checksums, an atomic tmp+rename writer and a streaming reader whose
//!   corruption taxonomy (truncation / bitflip / bad magic / bad version)
//!   is typed, never a panic — mirroring the `NBTICAMP` campaign
//!   snapshot format.
//! * [`gen`] — deterministic application-mix generators (hotspot-server,
//!   all-to-all-shuffle, nearest-neighbour-stencil, bursty-client) that
//!   stand in for SPLASH2-style trace suites. One SplitMix64 stream per
//!   spec: the same spec always yields the same schedule.
//! * [`source`] — [`TraceSource`]/[`MixSource`] adapters implementing
//!   `noc_traffic::TrafficSource`, so the experiment engine injects a
//!   recorded trace (or live mix) exactly where synthetic traffic would
//!   go. A replayed trace reproduces the generator-driven run's telemetry
//!   digest bit for bit. [`record_source`] records any
//!   `TrafficSource` into a trace.
//!
//! The crate is dependency-free beyond the simulator's own types: no
//! serde, no external binary-format machinery.

pub mod format;
pub mod gen;
pub mod source;

pub use format::{
    decode_trace, encode_trace, verify_file, TraceError, TraceHeader, TraceReader, TraceRecord,
    TraceSummary, TraceWriter, CHUNK_RECORDS, FORMAT_VERSION, MAGIC, RECORD_LEN,
};
pub use gen::{MixGenerator, MixKind, MixSpec, SplitMix64};
pub use source::{record_source, MixSource, TraceSource};
