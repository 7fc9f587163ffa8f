//! Network-level performance statistics.

use noc_telemetry::hist;

/// Number of logarithmic latency buckets ([`NetStats::latency_histogram`]).
pub const LATENCY_BUCKETS: usize = 20;

/// Counters accumulated over a simulation.
///
/// This is a passive record with public fields; it is updated by
/// [`crate::network::Network`] and read by experiment harnesses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Packets pushed into NIC injection queues.
    pub packets_injected: u64,
    /// Packets fully ejected at their destination NIC.
    pub packets_ejected: u64,
    /// Flits sent from NICs into the network.
    pub flits_sent: u64,
    /// Flits drained at destination NICs.
    pub flits_ejected: u64,
    /// Sum of end-to-end packet latencies (queuing included), in cycles.
    pub latency_sum: u64,
    /// Maximum observed packet latency in cycles.
    pub latency_max: u64,
    /// Logarithmic latency histogram on the shared [`hist`] buckets:
    /// bucket `i` counts packets with latency in `[2^i, 2^(i+1))` cycles
    /// (bucket 0 covers 0 and 1); the last bucket also holds every latency
    /// past its bound.
    pub latency_histogram: [u64; LATENCY_BUCKETS],
    /// End-of-cycle invariant check passes performed (see
    /// [`crate::invariants::InvariantLevel`]).
    pub invariant_checks: u64,
    /// Total invariant violations detected. Unlike the detailed records
    /// kept by [`crate::network::Network::violations`], this counter is
    /// never capped.
    pub invariant_violations: u64,
}

impl NetStats {
    /// Average end-to-end packet latency in cycles, or `None` before any
    /// packet was delivered.
    pub fn avg_latency(&self) -> Option<f64> {
        (self.packets_ejected > 0).then(|| self.latency_sum as f64 / self.packets_ejected as f64)
    }

    /// Packets injected but not yet delivered. Saturates at zero when the
    /// counters were reset mid-flight (warm-up handling).
    pub fn packets_in_flight(&self) -> u64 {
        self.packets_injected.saturating_sub(self.packets_ejected)
    }

    /// Delivered-flit throughput over `cycles` in flits/cycle.
    pub fn throughput(&self, cycles: u64) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            self.flits_ejected as f64 / cycles as f64
        }
    }

    /// Records one delivered packet's latency into the aggregate counters.
    pub(crate) fn record_latency(&mut self, latency: u64) {
        self.latency_sum += latency;
        self.latency_max = self.latency_max.max(latency);
        hist::record_clamped(&mut self.latency_histogram, latency);
    }

    /// An upper bound on the latency at or below which `quantile` of the
    /// delivered packets completed (bucket resolution), or `None` before
    /// any delivery. The last bucket is open-ended, so its bound is the
    /// largest latency seen once a latency was clamped into it.
    ///
    /// # Panics
    ///
    /// Panics if `quantile` is outside `(0, 1]`.
    pub fn latency_quantile_upper(&self, quantile: f64) -> Option<u64> {
        assert!(quantile > 0.0 && quantile <= 1.0, "quantile in (0, 1]");
        let total = self.latency_histogram.iter().sum();
        let upper = hist::quantile_upper(self.latency_histogram, total, quantile)?;
        if upper == hist::bucket_upper(LATENCY_BUCKETS - 1) {
            return Some(upper.max(self.latency_max));
        }
        Some(upper)
    }

    /// The `(p50, p95, p99, max)` latency upper bounds, or `None` before
    /// any delivery.
    pub fn latency_summary(&self) -> Option<(u64, u64, u64, u64)> {
        let q = |quantile| self.latency_quantile_upper(quantile);
        Some((q(0.5)?, q(0.95)?, q(0.99)?, q(1.0)?))
    }

    /// Resets every counter (used after warm-up).
    pub fn reset(&mut self) {
        *self = NetStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avg_latency_none_when_empty() {
        assert_eq!(NetStats::default().avg_latency(), None);
    }

    #[test]
    fn derived_metrics() {
        let s = NetStats {
            packets_injected: 10,
            packets_ejected: 4,
            flits_sent: 50,
            flits_ejected: 20,
            latency_sum: 100,
            latency_max: 40,
            ..NetStats::default()
        };
        assert_eq!(s.avg_latency(), Some(25.0));
        assert_eq!(s.packets_in_flight(), 6);
        assert_eq!(s.throughput(10), 2.0);
        assert_eq!(s.throughput(0), 0.0);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let mut s = NetStats::default();
        for lat in [0u64, 1, 2, 3, 4, 7, 8, 1_000_000] {
            s.record_latency(lat);
        }
        assert_eq!(s.latency_histogram[0], 2); // 0 and 1
        assert_eq!(s.latency_histogram[1], 2); // 2 and 3
        assert_eq!(s.latency_histogram[2], 2); // 4 and 7
        assert_eq!(s.latency_histogram[3], 1); // 8
        assert_eq!(s.latency_histogram[19], 1); // overflow bucket
        assert_eq!(s.latency_max, 1_000_000);
    }

    #[test]
    fn quantile_upper_bound_is_consistent() {
        let mut s = NetStats::default();
        for lat in [2u64, 3, 5, 9, 17] {
            s.record_latency(lat);
        }
        // Median falls in the 4..8 bucket -> upper bound 7.
        assert_eq!(s.latency_quantile_upper(0.5), Some(7));
        assert_eq!(s.latency_quantile_upper(1.0), Some(31));
        assert_eq!(NetStats::default().latency_quantile_upper(0.5), None);
    }

    #[test]
    fn quantiles_past_the_last_bucket_report_the_max() {
        let mut s = NetStats::default();
        s.record_latency(1_000);
        s.record_latency(1_000_000);
        assert_eq!(s.latency_quantile_upper(1.0), Some((1 << 20) - 1));
        s.record_latency(2_000_000);
        assert!(s.latency_quantile_upper(1.0) >= Some(2_000_000));
        assert_eq!(s.latency_quantile_upper(0.5), Some(2_000_000));
        assert_eq!(s.latency_quantile_upper(0.3), Some(1_023));
    }

    #[test]
    #[should_panic(expected = "quantile in (0, 1]")]
    fn bad_quantile_panics() {
        let _ = NetStats::default().latency_quantile_upper(0.0);
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut s = NetStats {
            packets_injected: 1,
            ..NetStats::default()
        };
        s.reset();
        assert_eq!(s, NetStats::default());
    }
}
