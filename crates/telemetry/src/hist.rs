//! The workspace's one log2-bucket histogram and one nearest-rank
//! [`percentile`].
//!
//! Bucket `i` holds `[2^i, 2^(i+1))` (bucket 0 also holds 0). One bucket
//! function ([`bucket`]) and one nearest-rank walk ([`quantile_upper`])
//! serve two record paths: the plain [`record_clamped`], which clamps past
//! the last bucket (the profiler's 64-bucket [`Histogram`] and the
//! simulator's 20 `NetStats` buckets), and the lock-free
//! [`AtomicHistogram`], which counts values past its last finite bucket
//! only in its total (the `+Inf` bucket of `/metrics`).

use std::sync::atomic::{AtomicU64, Ordering};

/// The log2 bucket holding `value`: `floor(log2(max(value, 1)))`.
#[inline]
#[must_use]
pub const fn bucket(value: u64) -> usize {
    // `value | 1` maps 0 into bucket 0 without a branch.
    (63 - (value | 1).leading_zeros()) as usize
}

/// The largest value bucket `index` holds, `2^(index + 1) − 1`
/// (`u64::MAX` for bucket 63).
#[inline]
#[must_use]
pub const fn bucket_upper(index: usize) -> u64 {
    if index >= 63 {
        u64::MAX
    } else {
        (1u64 << (index + 1)) - 1
    }
}

/// The 1-based nearest rank of the `q`-quantile among `n > 0` ordered
/// observations: `ceil(q · n)`, kept within `[1, n]`.
fn nearest_rank(q: f64, n: u64) -> u64 {
    ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n)
}

/// Records `value` into `buckets`, clamping values past the last bucket
/// into it.
///
/// # Panics
///
/// Panics if `buckets` is empty.
#[inline]
pub fn record_clamped(buckets: &mut [u64], value: u64) {
    let last = buckets.len() - 1;
    buckets[bucket(value).min(last)] += 1;
}

/// Upper bound of the bucket holding the nearest-rank `q`-quantile of
/// `count` observations whose per-bucket counts are `buckets`, in bucket
/// order. `q` is clamped to `[0, 1]`. `None` when `count` is 0.
///
/// Observations counted in `count` but in none of `buckets` lie past the
/// last bucket; a rank among them reports `u64::MAX`.
pub fn quantile_upper(buckets: impl IntoIterator<Item = u64>, count: u64, q: f64) -> Option<u64> {
    if count == 0 {
        return None;
    }
    let target = nearest_rank(q, count);
    let mut seen = 0u64;
    for (i, n) in buckets.into_iter().enumerate() {
        seen += n;
        if seen >= target {
            return Some(bucket_upper(i));
        }
    }
    Some(u64::MAX)
}

/// The nearest-rank `q`-quantile of an ascending slice: the element at
/// rank `ceil(q · len)`, kept within `[1, len]`. `None` when `sorted` is
/// empty.
#[must_use]
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = nearest_rank(q, sorted.len() as u64) as usize;
    Some(sorted[rank - 1])
}

/// Number of [`Histogram`] buckets: one per bit position of a `u64`.
const BUCKETS: usize = 64;

/// A fixed-bucket log2 histogram on the plain record path: O(1) recording,
/// no allocation, saturating sum.
#[derive(Debug, Clone, Copy)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub const fn new() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        record_clamped(&mut self.buckets, value);
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Observations recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean, or 0 when empty.
    #[must_use]
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// See [`quantile_upper`].
    #[must_use]
    pub fn quantile_upper(&self, q: f64) -> Option<u64> {
        quantile_upper(self.buckets, self.count, q)
    }

    /// The raw per-bucket counts, index `i` covering `[2^i, 2^(i+1))`.
    #[must_use]
    pub fn bucket_counts(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }
}

/// A log2 histogram with `N` finite buckets on the atomic record path:
/// every field is an [`AtomicU64`] updated with relaxed adds, so recording
/// and reading are both lock-free. Values past bucket `N − 1` are counted
/// only in [`AtomicHistogram::count`].
#[derive(Debug)]
pub struct AtomicHistogram<const N: usize> {
    buckets: [AtomicU64; N],
    count: AtomicU64,
    sum: AtomicU64,
}

impl<const N: usize> Default for AtomicHistogram<N> {
    fn default() -> Self {
        AtomicHistogram {
            buckets: [const { AtomicU64::new(0) }; N],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl<const N: usize> AtomicHistogram<N> {
    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(b) = self.buckets.get(bucket(value)) {
            b.fetch_add(1, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Observations recorded so far, past-the-last-bucket ones included.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values (wrapping).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The finite buckets' counts, index `i` covering `[2^i, 2^(i+1))`.
    pub fn bucket_counts(&self) -> impl Iterator<Item = u64> + '_ {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed))
    }

    /// See [`quantile_upper`]; a rank past the finite buckets reports
    /// `u64::MAX`.
    pub fn quantile_upper(&self, q: f64) -> Option<u64> {
        quantile_upper(self.bucket_counts(), self.count(), q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 7, 8, 1023, 1024] {
            h.record(v);
        }
        let b = h.bucket_counts();
        assert_eq!(b[0], 2, "0 and 1");
        assert_eq!(b[1], 2, "2 and 3");
        assert_eq!(b[2], 2, "4 and 7");
        assert_eq!(b[3], 1, "8");
        assert_eq!(b[9], 1, "1023");
        assert_eq!(b[10], 1, "1024");
        assert_eq!(h.count(), 9);
        assert_eq!(h.sum(), 2072);
    }

    #[test]
    fn quantiles_return_bucket_upper_bounds() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile_upper(0.5), None, "empty");
        for _ in 0..99 {
            h.record(100); // bucket [64, 128)
        }
        h.record(100_000); // bucket [65536, 131072)
        assert_eq!(h.quantile_upper(0.5), Some(127));
        assert_eq!(h.quantile_upper(0.99), Some(127));
        assert_eq!(h.quantile_upper(1.0), Some(131_071));
        assert_eq!(h.mean(), (99 * 100 + 100_000) / 100);
    }

    #[test]
    fn extreme_values_stay_in_range() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile_upper(1.0), Some(u64::MAX));
        assert_eq!(h.sum(), u64::MAX, "sum saturates");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), None);
        let v = [10, 20, 30, 40];
        assert_eq!(percentile(&v, 0.0), Some(10));
        assert_eq!(percentile(&v, 0.5), Some(20));
        assert_eq!(percentile(&v, 0.51), Some(30));
        assert_eq!(percentile(&v, 0.99), Some(40));
        assert_eq!(percentile(&v, 1.0), Some(40));
    }
}
