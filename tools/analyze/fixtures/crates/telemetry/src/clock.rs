//! Analyzer fixture: a raw wall-clock read inside a sanctioned clock
//! boundary. The path `crates/telemetry/src/clock.rs` is allowlisted
//! by `outside_sanctioned_clock_boundary`, so `no-wall-clock` must NOT
//! fire here even without a `lint:allow` marker.
//!
//! Must produce zero findings.

pub fn now() -> std::time::Instant {
    std::time::Instant::now()
}

pub fn ns_since(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
