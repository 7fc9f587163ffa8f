//! Estimators, seed derivation and `/metrics` parsing shared by every
//! workload.

use std::collections::BTreeMap;
use std::time::Instant;

/// SplitMix64 finalizer: derives independent 64-bit values from
/// `(seed, tag)`, so every input of a run is a pure function of the
/// benchmark seed.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from `mix(seed, tag)`.
pub fn unit(seed: u64, tag: u64) -> f64 {
    (mix(seed, tag) >> 11) as f64 / (1u64 << 53) as f64
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Linear-interpolated quantile (`q` in `[0, 1]`) of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = (sorted.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// The mean of the `k` smallest values (of all of them when there are
/// fewer). Fixed, deterministic work only ever gets slower under host
/// contention, so its fastest repetitions estimate its cost.
pub fn mean_of_fastest(values: &[f64], k: usize) -> f64 {
    let fastest = sorted(values);
    let n = k.min(fastest.len()).max(1);
    fastest.iter().take(n).sum::<f64>() / n as f64
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency: the highest percentile that still has
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// The percentile it represents, `100 · (n − beyond) / n`.
    pub percentile: f64,
    /// Samples strictly beyond it.
    pub beyond: usize,
    /// Samples in the distribution.
    pub samples: usize,
}

/// The tail of an ascending slice, or `None` with too few samples to
/// leave [`TAIL_BEYOND`] beyond any rank.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let rank = n - 1 - TAIL_BEYOND;
    Some(Tail {
        value: sorted[rank],
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        beyond: TAIL_BEYOND,
        samples: n,
    })
}

/// Parses Prometheus text exposition into `series → value`, keyed by the
/// full series text including labels (`name{label="v"}`). Comment lines
/// and unparsable values are skipped.
pub fn parse_prometheus(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((series, value)) = line.rsplit_once(' ') {
            if let Ok(v) = value.parse::<f64>() {
                out.insert(series.to_string(), v);
            }
        }
    }
    out
}

/// Growth of one series between two scrapes (a series absent from a
/// scrape counts as 0).
pub fn delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, series: &str) -> f64 {
    after.get(series).copied().unwrap_or(0.0) - before.get(series).copied().unwrap_or(0.0)
}

/// Process high-water resident set size in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v).expect("enough samples");
        assert_eq!(t.value, 990.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
        assert!((t.percentile - 99.0).abs() < 1e-12);

        let small: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&small).expect("eleven samples leave ten beyond the first");
        assert_eq!(t.value, 1.0);
        assert!(
            tail(&small[..10]).is_none(),
            "ten samples cannot leave ten beyond"
        );
    }

    #[test]
    fn quantile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.5) - 2.5).abs() < 1e-12);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn mean_of_fastest_takes_the_smallest_values() {
        let times = [9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0];
        assert_eq!(mean_of_fastest(&times, 5), 3.0);
        assert_eq!(mean_of_fastest(&[4.0, 2.0], 5), 3.0);
    }

    #[test]
    fn prometheus_deltas_follow_labelled_series() {
        let before = parse_prometheus(
            "# HELP noc_worker_busy_us_total busy\n\
             # TYPE noc_worker_busy_us_total counter\n\
             noc_worker_busy_us_total 1500\n\
             noc_request_duration_us_count{endpoint=\"status\"} 7\n\
             noc_request_duration_us_bucket{endpoint=\"status\",le=\"+Inf\"} 7\n",
        );
        let after = parse_prometheus(
            "noc_worker_busy_us_total 4000\n\
             noc_request_duration_us_count{endpoint=\"status\"} 19\n\
             noc_cache_hits_total 3\n",
        );
        assert_eq!(delta(&before, &after, "noc_worker_busy_us_total"), 2500.0);
        assert_eq!(
            delta(
                &before,
                &after,
                "noc_request_duration_us_count{endpoint=\"status\"}"
            ),
            12.0
        );
        assert_eq!(delta(&before, &after, "noc_cache_hits_total"), 3.0);
        assert_eq!(delta(&before, &after, "noc_missing_total"), 0.0);
    }

    #[test]
    fn seed_derivation_is_deterministic_and_spread() {
        assert_eq!(mix(7, 1), mix(7, 1));
        assert_ne!(mix(7, 1), mix(7, 2));
        assert_ne!(mix(7, 1), mix(8, 1));
        for tag in 0..1000 {
            let u = unit(42, tag);
            assert!((0.0..1.0).contains(&u));
        }
    }
}
