//! Per-cycle stage profiling: the [`StageProfiler`] and the log2
//! [`Histogram`] per stage it feeds.
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

use crate::clock;
use crate::hist::Histogram;
use std::fmt;
use std::time::Instant;

/// The per-cycle pipeline stages the profiler distinguishes. They are
/// disjoint and follow each other in this order, so their sum is the
/// cycle loop's wall time minus what runs between cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Traffic injection before the cycle, timed by the experiment loop:
    /// the traffic source's packets for this cycle queued at their NICs.
    Inject,
    /// The first half-cycle up to routing: the credits and flits due this
    /// cycle absorbed and written into their buffers (BW).
    BeginCycle,
    /// Route computation (RC) of the head flits written this cycle.
    Routing,
    /// The mid-cycle gating-controller slot, timed by the experiment
    /// loop: `port_view` + `decide` + `apply_gate` (and the duty flush of
    /// a changed power mask) for the marked ports whose last decision
    /// cannot be reused.
    Controller,
    /// VC allocation + switch allocation of every router holding a flit.
    Allocation,
    /// Switch and link traversal of this cycle's SA winners.
    Traversal,
    /// The rest of the second half-cycle: NIC injection and ejection, the
    /// cycle advance and the invariant checks.
    FinishCycle,
    /// The end-of-cycle NBTI duty bookkeeping, timed by the experiment
    /// loop: flushing every port's stress run before a series sample or
    /// the warm-up reset reads duty, and nothing on other cycles.
    Monitor,
}

impl Stage {
    /// Number of stages.
    pub const COUNT: usize = 8;

    /// Every stage, in pipeline order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Inject,
        Stage::BeginCycle,
        Stage::Routing,
        Stage::Controller,
        Stage::Allocation,
        Stage::Traversal,
        Stage::FinishCycle,
        Stage::Monitor,
    ];

    /// The stage's fixed display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Inject => "inject",
            Stage::BeginCycle => "begin_cycle",
            Stage::Routing => "routing",
            Stage::Controller => "controller",
            Stage::Allocation => "allocation",
            Stage::Traversal => "traversal",
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
///
/// The cycle loop times its stages as laps: [`start_lap`](Self::start_lap)
/// at the top of a cycle, then one [`lap`](Self::lap) at the end of each
/// stage. Each stage boundary is one clock read, and consecutive stages
/// share it.
pub trait Profiler {
    /// Whether timing sites should read the clock at all. `false`
    /// compiles profiling out of the cycle loop.
    const ENABLED: bool = true;

    /// Records one per-cycle duration for `stage`, in nanoseconds.
    fn record(&mut self, stage: Stage, ns: u64);

    /// Starts a chain of laps: one clock read, nothing recorded.
    fn start_lap(&mut self) {}

    /// Ends `stage` now: records the time since the previous lap (or the
    /// chain's start) under it. A lap with no chain started records
    /// nothing and starts one.
    fn lap(&mut self, _stage: Stage) {}
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
/// [`Stage`]. Fixed-size and allocation-free.
#[derive(Debug, Clone)]
pub struct StageProfiler {
    hists: [Histogram; Stage::COUNT],
    /// The clock read ending the previous lap.
    last: Option<Instant>,
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
            last: None,
        }
    }

    /// The histogram for one stage.
    #[must_use]
    pub fn stage(&self, stage: Stage) -> &Histogram {
        &self.hists[stage as usize]
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

    #[inline]
    fn start_lap(&mut self) {
        self.last = Some(clock::now());
    }

    #[inline]
    fn lap(&mut self, stage: Stage) {
        let now = clock::now();
        if let Some(last) = self.last.replace(now) {
            let ns = u64::try_from(now.duration_since(last).as_nanos()).unwrap_or(u64::MAX);
            self.record(stage, ns);
        }
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
    fn laps_record_one_duration_per_stage_after_a_start() {
        let mut p = StageProfiler::new();
        // No chain yet: the first lap only starts one.
        p.lap(Stage::Inject);
        assert_eq!(p.stage(Stage::Inject).count(), 0);
        p.lap(Stage::BeginCycle);
        p.start_lap();
        p.lap(Stage::Routing);
        p.lap(Stage::Controller);
        for (s, n) in [
            (Stage::BeginCycle, 1),
            (Stage::Routing, 1),
            (Stage::Controller, 1),
            (Stage::Allocation, 0),
        ] {
            assert_eq!(p.stage(s).count(), n, "{}", s.name());
        }
        let mut null = NullProfiler;
        null.start_lap();
        null.lap(Stage::Monitor);
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
