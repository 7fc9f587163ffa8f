//! The workspace's single sanctioned wall-clock boundary.
//!
//! The determinism contract bans wall-clock reads (`no-wall-clock` in
//! `tools/analyze`) everywhere except this file. Every real-time read
//! goes through here: the stage profiler's and the span layer's
//! timestamps, the service's job timeouts and request latencies, and the
//! bench binaries' wall times. The analyzer allowlists one file instead
//! of scattering suppressions over the hot loop.
//!
//! The contract that keeps this safe: nothing read here may ever feed
//! back into simulated behaviour. Stage timings and span durations are
//! *observations* of a run, never inputs to it — a profiled run produces
//! bit-identical results (and trace digests) to an unprofiled one — and
//! a service timeout can only ever discard a run.

use std::time::Instant;

/// A wall-clock sample.
#[must_use]
pub fn now() -> Instant {
    Instant::now()
}

/// Whole nanoseconds elapsed since `start`, saturating at `u64::MAX`
/// (584 years of nanoseconds — the saturation exists for the type system,
/// not for any plausible run).
#[must_use]
pub fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Whole microseconds elapsed since `start` — the resolution the
/// request-latency histograms and spans record at.
#[must_use]
pub fn us_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Whole milliseconds elapsed since `start`.
#[must_use]
pub fn ms_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX)
}

/// Fractional milliseconds elapsed since `start`, for throughput math.
#[must_use]
pub fn ms_since_f64(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotone_and_units_agree() {
        let t0 = now();
        let ns = ns_since(t0);
        let us = us_since(t0);
        assert!(us_since(t0) >= us, "monotone");
        // The later µs read must not lag the earlier ns read.
        assert!(us_since(t0) * 1_000 + 1_000 > ns);
        assert!(ms_since_f64(t0) >= 0.0);
        let ms = ms_since(t0);
        assert!(ms < 1_000, "fresh instant elapsed {ms} ms");
    }
}
