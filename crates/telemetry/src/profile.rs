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

use crate::hist::Histogram;
use std::fmt;

/// The per-cycle pipeline stages the profiler distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Traffic injection before the cycle, timed by the experiment loop:
    /// the traffic source's packets for this cycle queued at their NICs.
    Inject,
    /// The whole first half-cycle: credit absorption + buffer write + RC.
    BeginCycle,
    /// Route computation alone (a subset of `BeginCycle` time).
    Routing,
    /// VC allocation + switch allocation.
    Allocation,
    /// Switch and link traversal of SA winners.
    Traversal,
    /// The mid-cycle gating-controller slot, timed by the experiment
    /// loop: a key read per port, plus `port_view` + `decide` +
    /// `apply_gate` (and the duty flush of a changed power mask) for the
    /// ports whose last decision cannot be reused.
    Controller,
    /// The whole second half-cycle: VA/SA/traversal + NIC inject/eject.
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
            Stage::Inject => "inject",
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
/// [`Stage`]. Fixed-size and allocation-free.
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
