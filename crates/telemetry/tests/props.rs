//! The shared log2 histogram's record paths agree: the plain path, the
//! atomic path and the clamped path `NetStats` uses put every value in the
//! same bucket below each path's cap, the plain and atomic bucket walks
//! report the same quantiles, and [`percentile`] is a plain nearest rank.

use noc_telemetry::hist::{bucket, bucket_upper, record_clamped};
use noc_telemetry::{percentile, AtomicHistogram, Histogram};
use proptest::prelude::*;

/// Finite buckets of the atomic path under test (the `/metrics` count).
const ATOMIC: usize = 28;
/// Buckets of the clamped path under test (the `NetStats` count).
const CLAMPED: usize = 20;

/// Nearest rank by counting: the smallest sample with at least `q · n`
/// samples at or below it.
fn naive_percentile(sorted: &[u64], q: f64) -> Option<u64> {
    let n = sorted.len() as f64;
    sorted
        .iter()
        .copied()
        .find(|&x| sorted.iter().filter(|&&y| y <= x).count() as f64 >= q * n)
}

proptest! {
    #[test]
    fn record_paths_share_buckets_and_quantiles(
        // A random shift spreads values over every magnitude; raw u64s
        // would almost all land in bucket 63.
        raw in proptest::collection::vec((any::<u64>(), 0u32..64), 1..200),
        random_qs in proptest::collection::vec(0.0f64..1.0, 1..8),
    ) {
        let values: Vec<u64> = raw.iter().map(|&(v, s)| v >> s).collect();
        let qs: Vec<f64> = [0.0, 1.0].into_iter().chain(random_qs).collect();
        let mut plain = Histogram::new();
        let atomic = AtomicHistogram::<ATOMIC>::default();
        let mut clamped = [0u64; CLAMPED];
        for &v in &values {
            let b = bucket(v);
            let lower = if b == 0 { 0 } else { 1u64 << b };
            prop_assert!(lower <= v && v <= bucket_upper(b), "{} in bucket {}", v, b);
            let before_plain = plain.bucket_counts()[b];
            let before_atomic: Vec<u64> = atomic.bucket_counts().collect();
            let into = b.min(CLAMPED - 1);
            let before_clamped = clamped[into];
            plain.record(v);
            atomic.record(v);
            record_clamped(&mut clamped, v);
            prop_assert_eq!(plain.bucket_counts()[b], before_plain + 1);
            let mut expected_atomic = before_atomic;
            if b < ATOMIC {
                expected_atomic[b] += 1;
            }
            prop_assert_eq!(atomic.bucket_counts().collect::<Vec<_>>(), expected_atomic);
            prop_assert_eq!(clamped[into], before_clamped + 1);
        }
        prop_assert_eq!(atomic.count(), plain.count());
        prop_assert_eq!(clamped.iter().sum::<u64>(), plain.count());

        for &q in &qs {
            let p = plain.quantile_upper(q);
            // Both walks see the same counts below the atomic cap; a rank
            // past it lies in the atomic path's `+Inf` overflow.
            let expected = if p <= Some(bucket_upper(ATOMIC - 1)) { p } else { Some(u64::MAX) };
            prop_assert_eq!(atomic.quantile_upper(q), expected, "q = {}", q);
        }

        let mut sorted = values;
        sorted.sort_unstable();
        for &q in &qs {
            let exact = percentile(&sorted, q);
            prop_assert_eq!(exact, naive_percentile(&sorted, q), "q = {}", q);
            // The bucket walk lands in the exact nearest rank's bucket.
            prop_assert_eq!(plain.quantile_upper(q), exact.map(|e| bucket_upper(bucket(e))));
        }
        prop_assert_eq!(percentile(&[], qs[2]), None);
    }
}
