//! Load sweeps and saturation analysis.
//!
//! The paper's central trend — the sensor-wise gap grows with load while
//! the network has gating headroom and collapses once it congests — is a
//! function of *where the network saturates*. This module provides the
//! programmatic sweep behind the `gap_sweep` binary plus a saturation-point
//! finder, so the trend can be asserted in tests and recomputed for any
//! configuration.
//!
//! Both sweeps fan out through the [`crate::parallel`] engine: every
//! `_jobs` variant returns **bit-identical** results for any worker count,
//! because each probe derives its RNG streams solely from its own seeds.
//! The unsuffixed entry points are [`default_jobs`]-wide wrappers.

use crate::cache::{run_batch_cached, ResultCache};
use crate::codec::{CodecError, WireResult};
use crate::experiment::ExperimentConfig;
use crate::parallel::{default_jobs, parallel_map, run_batch, ExperimentJob, TrafficSpec};
use crate::policy::PolicyKind;
use noc_sim::config::NocConfig;
use noc_sim::types::{Direction, NodeId};
use noc_sim::view::PortId;

/// One point of a gap-versus-load sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Raw injection rate in flits/cycle/node (no calibration applied).
    pub rate: f64,
    /// rr-no-sensor duty cycle on the most degraded VC (percent).
    pub rr_md_duty: f64,
    /// sensor-wise duty cycle on the most degraded VC (percent).
    pub sw_md_duty: f64,
    /// `rr − sensor-wise` gap (percentage points).
    pub gap: f64,
    /// Average packet latency under sensor-wise, in cycles.
    pub sw_latency: f64,
    /// Delivered throughput under sensor-wise, in flits/cycle.
    pub sw_throughput: f64,
}

/// Sweeps raw injection rates on a square mesh, sampling router 0's east
/// input port (the paper's sampling point). Uses every available core; see
/// [`gap_sweep_jobs`] for explicit worker control.
///
/// # Panics
///
/// Panics if `rates` is empty or the configuration is invalid.
pub fn gap_sweep(
    cores: usize,
    vcs: usize,
    rates: &[f64],
    warmup: u64,
    measure: u64,
    seed: u64,
) -> Vec<SweepPoint> {
    gap_sweep_jobs(cores, vcs, rates, warmup, measure, seed, default_jobs())
}

/// The policies compared at every sweep point, in result order.
const SWEEP_POLICIES: [PolicyKind; 2] = [PolicyKind::RrNoSensor, PolicyKind::SensorWise];

/// [`gap_sweep`] with an explicit worker count: all `2 × rates.len()`
/// experiments (rr-no-sensor and sensor-wise per rate) fan out through
/// [`run_batch`].
///
/// Determinism contract: bit-identical output for every `jobs ≥ 1` — both
/// policies of a rate share the process-variation seed (as in the paper)
/// and every run derives its RNG streams only from its own seeds.
///
/// # Panics
///
/// Panics if `rates` is empty, `jobs` is zero, or the configuration is
/// invalid.
pub fn gap_sweep_jobs(
    cores: usize,
    vcs: usize,
    rates: &[f64],
    warmup: u64,
    measure: u64,
    seed: u64,
    jobs: usize,
) -> Vec<SweepPoint> {
    assert!(!rates.is_empty(), "at least one rate required");
    let batch = sweep_batch(cores, vcs, rates, warmup, measure, seed);
    let results = run_batch(&batch, jobs);
    rates
        .iter()
        .zip(results.chunks_exact(SWEEP_POLICIES.len()))
        .map(|(&rate, pair)| {
            let (rr, sw) = (&pair[0], &pair[1]);
            let rr_md_duty = rr.east_input(NodeId(0)).md_duty();
            let sw_md_duty = sw.east_input(NodeId(0)).md_duty();
            SweepPoint {
                rate,
                rr_md_duty,
                sw_md_duty,
                gap: rr_md_duty - sw_md_duty,
                sw_latency: sw.net.avg_latency().unwrap_or(f64::NAN),
                sw_throughput: sw.net.throughput(sw.measured_cycles),
            }
        })
        .collect()
}

/// The `2 × rates.len()` jobs behind one gap sweep, in result order.
fn sweep_batch(
    cores: usize,
    vcs: usize,
    rates: &[f64],
    warmup: u64,
    measure: u64,
    seed: u64,
) -> Vec<ExperimentJob> {
    rates
        .iter()
        .flat_map(|&rate| {
            SWEEP_POLICIES.into_iter().map(move |policy| ExperimentJob {
                cfg: ExperimentConfig::new(NocConfig::paper_synthetic(cores, vcs), policy)
                    .with_cycles(warmup, measure)
                    .with_pv_seed(seed ^ (vcs as u64) << 8),
                traffic: TrafficSpec::Uniform {
                    rate,
                    seed: seed ^ 0xABCD,
                },
            })
        })
        .collect()
}

/// Outcome of a memoized gap sweep.
#[derive(Debug, Clone)]
pub struct CachedSweep {
    /// One point per rate, exactly as [`gap_sweep_jobs`] would produce.
    pub points: Vec<SweepPoint>,
    /// Probes served from the cache.
    pub hits: usize,
    /// Probes computed (and stored) this call.
    pub misses: usize,
}

/// [`gap_sweep_jobs`] through a [`ResultCache`]: already-computed probes
/// (same mesh, VCs, rate, cycles and seed) are skipped, only the missing
/// ones run, and every computed probe is persisted for the next sweep.
/// Re-sweeping a superset of rates therefore only pays for the new rates.
///
/// The points are reconstructed from the cached [`WireResult`]s; since the
/// wire codec round-trips every field the sweep reads (duty cycles,
/// latency, flit counts) exactly, a fully-cached sweep is bit-identical to
/// a fresh one.
///
/// # Errors
///
/// Returns an error when the wire schema cannot express a probe or a
/// cached row lacks the sampled port.
///
/// # Panics
///
/// Panics if `rates` is empty, `jobs` is zero, or the configuration is
/// invalid.
#[allow(clippy::too_many_arguments)] // mirrors gap_sweep_jobs + the cache handle
pub fn gap_sweep_cached(
    cores: usize,
    vcs: usize,
    rates: &[f64],
    warmup: u64,
    measure: u64,
    seed: u64,
    jobs: usize,
    cache: &(dyn ResultCache + Sync),
) -> Result<CachedSweep, CodecError> {
    assert!(!rates.is_empty(), "at least one rate required");
    let batch = sweep_batch(cores, vcs, rates, warmup, measure, seed);
    let outcome = run_batch_cached(&batch, jobs, cache)?;
    let sampled = PortId::router_input(NodeId(0), Direction::East).to_string();
    let md_duty = |r: &WireResult| -> Result<f64, CodecError> {
        let row = r
            .ports
            .iter()
            .find(|p| p.port == sampled)
            .ok_or_else(|| CodecError::new(format!("cached result lacks port {sampled}")))?;
        row.duty_percent.get(row.md_vc).copied().ok_or_else(|| {
            CodecError::new(format!("cached result has no duty for VC {}", row.md_vc))
        })
    };
    let points = rates
        .iter()
        .zip(outcome.results.chunks_exact(SWEEP_POLICIES.len()))
        .map(|(&rate, pair)| {
            let (rr, sw) = (&pair[0], &pair[1]);
            let rr_md_duty = md_duty(rr)?;
            let sw_md_duty = md_duty(sw)?;
            Ok(SweepPoint {
                rate,
                rr_md_duty,
                sw_md_duty,
                gap: rr_md_duty - sw_md_duty,
                sw_latency: sw.avg_latency.unwrap_or(f64::NAN),
                sw_throughput: if sw.measured_cycles == 0 {
                    0.0
                } else {
                    sw.flits_ejected as f64 / sw.measured_cycles as f64
                },
            })
        })
        .collect::<Result<Vec<_>, CodecError>>()?;
    Ok(CachedSweep {
        points,
        hits: outcome.hits,
        misses: outcome.misses,
    })
}

/// The rate at which the sweep's gap peaks.
pub fn gap_peak(points: &[SweepPoint]) -> Option<SweepPoint> {
    points
        .iter()
        .copied()
        .max_by(|a, b| a.gap.partial_cmp(&b.gap).expect("finite gaps"))
}

/// Estimates the saturation rate of a configuration by bisection: the
/// lowest injection rate at which the delivered throughput falls short of
/// the offered load by more than 10 % (fractional), meaning queues grow
/// without bound. Uses every available core; see [`saturation_rate_jobs`].
///
/// Returns a rate within `tol` of the saturation onset.
///
/// # Panics
///
/// Panics if bounds or tolerances are not positive and ordered.
pub fn saturation_rate(
    cores: usize,
    vcs: usize,
    lo: f64,
    hi: f64,
    tol: f64,
    cycles: u64,
    seed: u64,
) -> f64 {
    saturation_rate_jobs(cores, vcs, lo, hi, tol, cycles, seed, default_jobs())
}

/// [`saturation_rate`] with an explicit worker count, parallelized by
/// **speculative bisection**: each round pre-probes the complete midpoint
/// tree of the next `d` bisection levels (`2^d − 1` rates, with
/// `2^d − 1 ≤ jobs`, capped) concurrently, then walks `d` classic
/// bisection steps against the cached outcomes.
///
/// Because the walk visits exactly the midpoints a serial bisection would
/// visit — each tree point is produced by the same `(lo + hi) / 2`
/// recursion — the returned rate is **bit-identical for every
/// `jobs ≥ 1`**; extra workers only buy wall-clock (≈`d×` fewer
/// sequential probe rounds) at the cost of speculative probes on the
/// untaken branch.
///
/// # Panics
///
/// Panics if bounds or tolerances are not positive and ordered, or if
/// `jobs` is zero.
#[allow(clippy::too_many_arguments)]
pub fn saturation_rate_jobs(
    cores: usize,
    vcs: usize,
    lo: f64,
    hi: f64,
    tol: f64,
    cycles: u64,
    seed: u64,
    jobs: usize,
) -> f64 {
    assert!(lo > 0.0 && hi > lo && tol > 0.0, "bad bisection bounds");
    assert!(jobs > 0, "jobs must be at least 1 (got 0)");
    let saturated = |rate: f64| -> bool {
        let noc = NocConfig::paper_synthetic(cores, vcs);
        let job = ExperimentJob {
            cfg: ExperimentConfig::new(noc, PolicyKind::Baseline).with_cycles(cycles / 5, cycles),
            traffic: TrafficSpec::Uniform {
                rate,
                seed: seed ^ 0x5A7,
            },
        };
        let r = job.run();
        let offered = rate * cores as f64;
        let delivered = r.net.throughput(r.measured_cycles);
        delivered < offered * (1.0 - 0.1)
    };
    // Both endpoint probes are independent — run them as one mini-batch.
    let ends = parallel_map(&[lo, hi], jobs, |_, &rate| saturated(rate));
    if ends[0] {
        return lo;
    }
    if !ends[1] {
        return hi;
    }
    // Speculation depth: the largest complete midpoint tree that fits the
    // worker budget, capped so speculative waste stays bounded.
    let mut depth = 1u32;
    while depth < 4 && (1usize << (depth + 1)) - 1 <= jobs {
        depth += 1;
    }
    let (mut lo, mut hi) = (lo, hi);
    while hi - lo > tol {
        let mut points = Vec::with_capacity((1 << depth) - 1);
        collect_midpoint_tree(lo, hi, depth, &mut points);
        let outcomes = parallel_map(&points, jobs, |_, &rate| saturated(rate));
        let cached: std::collections::BTreeMap<u64, bool> =
            points.iter().map(|p| p.to_bits()).zip(outcomes).collect();
        for _ in 0..depth {
            if hi - lo <= tol {
                break;
            }
            let mid = (lo + hi) / 2.0;
            if cached[&mid.to_bits()] {
                hi = mid;
            } else {
                lo = mid;
            }
        }
    }
    (lo + hi) / 2.0
}

/// Collects the midpoints a serial bisection could visit in the next
/// `depth` steps from `[lo, hi]`, via the same `(lo + hi) / 2` float
/// arithmetic, so cached lookups match the walk exactly.
fn collect_midpoint_tree(lo: f64, hi: f64, depth: u32, out: &mut Vec<f64>) {
    if depth == 0 {
        return;
    }
    let mid = (lo + hi) / 2.0;
    out.push(mid);
    collect_midpoint_tree(lo, mid, depth - 1, out);
    collect_midpoint_tree(mid, hi, depth - 1, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_one_point_per_rate() {
        let points = gap_sweep(4, 2, &[0.1, 0.4], 500, 4_000, 3);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.gap.is_finite());
            assert!(p.sw_throughput > 0.0);
            assert!((0.0..=100.0).contains(&p.rr_md_duty));
        }
        // Higher load, higher duty.
        assert!(points[1].rr_md_duty > points[0].rr_md_duty);
    }

    #[test]
    fn gap_collapses_past_saturation() {
        // The paper's Table III trend, reproduced at raw rates: the gap at
        // a moderate load beats the gap deep into saturation.
        let points = gap_sweep(4, 2, &[0.45, 1.0], 1_000, 12_000, 7);
        assert!(
            points[0].gap > points[1].gap,
            "gap must collapse at saturation: {points:?}"
        );
    }

    #[test]
    fn gap_peak_finds_the_maximum() {
        let points = gap_sweep(4, 2, &[0.1, 0.45], 500, 5_000, 1);
        let peak = gap_peak(&points).unwrap();
        assert!(points.iter().all(|p| p.gap <= peak.gap));
        assert_eq!(gap_peak(&[]), None);
    }

    #[test]
    fn saturation_sits_between_light_and_overload() {
        let sat = saturation_rate(4, 2, 0.1, 1.2, 0.1, 6_000, 5);
        assert!(sat > 0.3 && sat < 1.2, "implausible saturation rate {sat}");
    }

    #[test]
    fn saturation_is_identical_across_worker_counts() {
        let serial = saturation_rate_jobs(4, 2, 0.2, 1.1, 0.05, 2_500, 9, 1);
        for jobs in [2, 4, 8] {
            let pooled = saturation_rate_jobs(4, 2, 0.2, 1.1, 0.05, 2_500, 9, jobs);
            assert_eq!(
                serial.to_bits(),
                pooled.to_bits(),
                "speculative bisection diverged at jobs={jobs}: {serial} vs {pooled}"
            );
        }
    }

    #[test]
    fn midpoint_tree_matches_serial_bisection_arithmetic() {
        let mut points = Vec::new();
        collect_midpoint_tree(0.25, 1.0, 2, &mut points);
        let mid: f64 = (0.25 + 1.0) / 2.0;
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].to_bits(), mid.to_bits());
        assert_eq!(points[1].to_bits(), ((0.25 + mid) / 2.0).to_bits());
        assert_eq!(points[2].to_bits(), ((mid + 1.0) / 2.0).to_bits());
    }

    #[test]
    #[should_panic(expected = "at least one rate")]
    fn empty_sweep_panics() {
        let _ = gap_sweep(4, 2, &[], 10, 10, 0);
    }

    #[test]
    fn cached_sweep_matches_uncached_and_skips_computed_rates() {
        use crate::cache::MemoryCache;
        let cache = MemoryCache::new();
        let direct = gap_sweep_jobs(4, 2, &[0.1, 0.3], 300, 2_000, 3, 2);
        let first = gap_sweep_cached(4, 2, &[0.1, 0.3], 300, 2_000, 3, 2, &cache).unwrap();
        assert_eq!((first.hits, first.misses), (0, 4));
        // A superset sweep only pays for the new rate.
        let wider = gap_sweep_cached(4, 2, &[0.1, 0.3, 0.5], 300, 2_000, 3, 2, &cache).unwrap();
        assert_eq!((wider.hits, wider.misses), (4, 2));
        for (d, c) in direct.iter().zip(&wider.points) {
            assert_eq!(d.rate, c.rate);
            assert_eq!(d.rr_md_duty.to_bits(), c.rr_md_duty.to_bits());
            assert_eq!(d.sw_md_duty.to_bits(), c.sw_md_duty.to_bits());
            assert_eq!(d.sw_latency.to_bits(), c.sw_latency.to_bits());
            assert_eq!(d.sw_throughput.to_bits(), c.sw_throughput.to_bits());
        }
        // Changing the seed misses everything.
        let other = gap_sweep_cached(4, 2, &[0.1], 300, 2_000, 4, 1, &cache).unwrap();
        assert_eq!((other.hits, other.misses), (0, 2));
    }
}
