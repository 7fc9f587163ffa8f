//! Per-cycle stage profiling: a zero-alloc log2-latency [`Histogram`] and
//! the [`StageProfiler`] that feeds it.
//!
//! The simulator's cycle methods take a `&mut impl Profiler` the same way
//! its emission sites take a [`TraceSink`](crate::sink::TraceSink):
//! [`Profiler::ENABLED`] is an associated `const`, every timing site is
//! guarded by `if P::ENABLED { ... }`, and the default [`NullProfiler`]
//! monomorphizes all of it away. A run with profiling off is the same
//! machine code — and therefore the same trace digest — as before the
//! profiler existed; a run with profiling *on* is also bit-identical in
//! results, because timings are observations that never feed back into
//! simulated state.
//!
//! Wall-clock reads for profiling go through
//! [`clock`](crate::clock), the sanctioned boundary the
//! `no-wall-clock` analyze rule knows about.

use std::fmt;

/// Number of log2 buckets: one per possible bit position of a `u64`.
const BUCKETS: usize = 64;

/// A fixed-bucket log2-latency histogram.
///
/// Bucket `i` counts values `v` with `floor(log2(max(v, 1))) == i`, i.e.
/// `[2^i, 2^(i+1))` (bucket 0 also holds 0). Recording is O(1), the type
/// never allocates, and quantile queries return the *upper bound* of the
/// bucket holding the requested observation — the same nearest-rank,
/// upper-bound convention the simulator's packet-latency histogram uses.
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

    /// The bucket index for `value`.
    #[inline]
    fn index(value: u64) -> usize {
        // `value | 1` maps 0 into bucket 0 without a branch.
        (63 - (value | 1).leading_zeros()) as usize
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Histogram::index(value)] += 1;
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

    /// Upper bound of the bucket holding the `q`-quantile observation
    /// (nearest rank), or `None` when empty. `q` is clamped to `[0, 1]`.
    #[must_use]
    pub fn quantile_upper(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Some(if i >= 63 { u64::MAX } else { (1u64 << (i + 1)) - 1 });
            }
        }
        // count > 0 guarantees the walk returns inside the loop.
        None
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// The raw per-bucket counts, index `i` covering `[2^i, 2^(i+1))`.
    #[must_use]
    pub fn bucket_counts(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }
}

/// The per-cycle pipeline stages the profiler distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// The whole first half-cycle: credit absorption + buffer write + RC.
    BeginCycle,
    /// Route computation alone (a subset of `BeginCycle` time).
    Routing,
    /// VC allocation + switch allocation.
    Allocation,
    /// Switch and link traversal of SA winners.
    Traversal,
    /// The mid-cycle gating-controller slot (`port_view` + `decide` +
    /// `apply_gate`), timed by the experiment loop.
    Controller,
    /// The whole second half-cycle: VA/SA/traversal + NIC inject/eject.
    FinishCycle,
    /// The end-of-cycle NBTI monitor update (`vc_statuses_into` +
    /// `record_cycle` per port), timed by the experiment loop.
    Monitor,
}

impl Stage {
    /// Number of stages.
    pub const COUNT: usize = 7;

    /// Every stage, in pipeline order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::BeginCycle,
        Stage::Routing,
        Stage::Allocation,
        Stage::Traversal,
        Stage::Controller,
        Stage::FinishCycle,
        Stage::Monitor,
    ];

    /// The stage's fixed display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::BeginCycle => "begin_cycle",
            Stage::Routing => "routing",
            Stage::Allocation => "allocation",
            Stage::Traversal => "traversal",
            Stage::Controller => "controller",
            Stage::FinishCycle => "finish_cycle",
            Stage::Monitor => "monitor",
        }
    }
}

/// Receives per-cycle stage timings from the simulator.
///
/// Mirrors [`TraceSink`](crate::sink::TraceSink): implementors that
/// actually record keep [`Profiler::ENABLED`] at its default `true`; the
/// simulator skips every clock read when it is `false`.
pub trait Profiler {
    /// Whether timing sites should read the clock at all. `false`
    /// compiles profiling out of the cycle loop.
    const ENABLED: bool = true;

    /// Records one per-cycle duration for `stage`, in nanoseconds.
    fn record(&mut self, stage: Stage, ns: u64);
}

/// The do-nothing profiler: the default, compiled to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullProfiler;

impl Profiler for NullProfiler {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _stage: Stage, _ns: u64) {}
}

/// A profiler keeping one log2 [`Histogram`] of per-cycle nanoseconds per
/// [`Stage`]. Fixed-size, allocation-free, `merge`-able across runs.
#[derive(Debug, Clone)]
pub struct StageProfiler {
    hists: [Histogram; Stage::COUNT],
}

impl Default for StageProfiler {
    fn default() -> Self {
        StageProfiler::new()
    }
}

impl StageProfiler {
    /// An empty profiler.
    #[must_use]
    pub const fn new() -> Self {
        StageProfiler {
            hists: [Histogram::new(); Stage::COUNT],
        }
    }

    /// The histogram for one stage.
    #[must_use]
    pub fn stage(&self, stage: Stage) -> &Histogram {
        &self.hists[stage as usize]
    }

    /// Folds another profiler's histograms into this one.
    pub fn merge(&mut self, other: &StageProfiler) {
        for (a, b) in self.hists.iter_mut().zip(&other.hists) {
            a.merge(b);
        }
    }

    /// The printable per-stage summary.
    #[must_use]
    pub fn report(&self) -> ProfileReport {
        ProfileReport {
            stages: Stage::ALL
                .iter()
                .map(|&s| {
                    let h = self.stage(s);
                    StageSummary {
                        stage: s,
                        count: h.count(),
                        p50_ns: h.quantile_upper(0.5).unwrap_or(0),
                        p95_ns: h.quantile_upper(0.95).unwrap_or(0),
                        p99_ns: h.quantile_upper(0.99).unwrap_or(0),
                        mean_ns: h.mean(),
                        total_ns: h.sum(),
                    }
                })
                .collect(),
        }
    }
}

impl Profiler for StageProfiler {
    #[inline]
    fn record(&mut self, stage: Stage, ns: u64) {
        self.hists[stage as usize].record(ns);
    }
}

/// One stage's latency summary, in nanoseconds per cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSummary {
    /// The stage.
    pub stage: Stage,
    /// Cycles timed.
    pub count: u64,
    /// Nearest-rank p50 upper bound, ns.
    pub p50_ns: u64,
    /// Nearest-rank p95 upper bound, ns.
    pub p95_ns: u64,
    /// Nearest-rank p99 upper bound, ns.
    pub p99_ns: u64,
    /// Arithmetic mean, ns.
    pub mean_ns: u64,
    /// Total time in the stage, ns.
    pub total_ns: u64,
}

/// A per-stage latency report; `Display` renders the fixed-width table
/// `nbti-noc run --profile` and the `sim_throughput` bench print.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileReport {
    /// One row per [`Stage`], in pipeline order.
    pub stages: Vec<StageSummary>,
}

impl fmt::Display for ProfileReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<13} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10}",
            "stage", "cycles", "p50(ns)", "p95(ns)", "p99(ns)", "mean(ns)", "total(ms)"
        )?;
        for s in &self.stages {
            writeln!(
                f,
                "{:<13} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10.2}",
                s.stage.name(),
                s.count,
                s.p50_ns,
                s.p95_ns,
                s.p99_ns,
                s.mean_ns,
                s.total_ns as f64 / 1e6
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `P` reads the clock, observed through the generic the
    /// simulator actually branches on.
    fn enabled<P: Profiler>() -> bool {
        P::ENABLED
    }

    #[test]
    fn null_profiler_is_disabled() {
        assert!(!enabled::<NullProfiler>());
        assert!(enabled::<StageProfiler>());
        let mut p = NullProfiler;
        p.record(Stage::Routing, 123);
    }

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
    fn merge_accumulates() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.sum(), 1010);
    }

    #[test]
    fn stage_profiler_report_covers_every_stage_in_order() {
        let mut p = StageProfiler::new();
        for (i, &s) in Stage::ALL.iter().enumerate() {
            p.record(s, (i as u64 + 1) * 100);
        }
        let report = p.report();
        assert_eq!(report.stages.len(), Stage::COUNT);
        for (row, &s) in report.stages.iter().zip(Stage::ALL.iter()) {
            assert_eq!(row.stage, s);
            assert_eq!(row.count, 1);
            assert!(row.p50_ns > 0);
        }
        let table = report.to_string();
        for s in Stage::ALL {
            assert!(table.contains(s.name()), "{table}");
        }
        assert!(table.contains("p99(ns)"), "{table}");
    }
}
