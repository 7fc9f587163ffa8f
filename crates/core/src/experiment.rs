//! The experiment runner: a network, a traffic source, one policy that
//! every port pair runs, and NBTI bookkeeping — the reproduction of the
//! paper's simulation flow (HANDS + Garnet + the NBTI sensor library).
//!
//! Per cycle, the runner:
//!
//! 1. pulls this cycle's packets from the traffic source into the NIC
//!    queues,
//! 2. runs `Network::begin_cycle` (credit/flit delivery, BW + RC),
//! 3. for every port pair, builds the [`PortView`], obtains the
//!    most-degraded VC from the port's sensors (`Down_Up` link), asks the
//!    policy for its decision and applies it (`Up_Down` link),
//! 4. runs `Network::finish_cycle` (VA, SA, ST + LT, NIC processing),
//! 5. records each VC's stress/recovery state into the NBTI monitor.
//!
//! Steps 3 and 5 cost per change, not per port and cycle. The controller
//! visits only the ports the network marked (their [`PortKey`] may have
//! changed), the ports whose MD VC changed and, on the cycle the policy
//! reports its decision can change, every port. A visited port whose key
//! and MD VC are unchanged since a gate command that changed nothing keeps
//! that command without a new view, decision or application (the network
//! still counts it). Any other visited port takes its decision from a
//! table of the policy's answers keyed on key and MD VC, and asks the
//! policy only on a miss. A VC is stressed exactly when powered (busy ⇒
//! powered), so each port's duty is recorded once per run of an unchanged
//! power mask: when the mask changes, and before anything reads duty
//! (sensor elections, series samples, the warm-up reset, the end of the
//! measured window).
//!
//! After `warmup_cycles`, duty-cycle accounting and network statistics are
//! reset, matching the paper's steady-state sampling.
//!
//! [`PortView`]: noc_sim::view::PortView
//! [`PortKey`]: noc_sim::view::PortKey

use crate::monitor::NbtiMonitor;
use crate::policy::{DecisionTable, GatingPolicy, PolicyKind};
use nbti_model::{IdealSensor, LongTermModel, NbtiParams, NbtiSensor, ProcessVariation, Volt};
use noc_sim::config::NocConfig;
use noc_sim::invariants::{InvariantKind, InvariantLevel, InvariantViolation};
use noc_sim::network::Network;
use noc_sim::snapshot::{NetworkSnapshot, SnapshotStateError};
use noc_sim::stats::NetStats;
use noc_sim::types::{Direction, NodeId};
use noc_sim::view::{GateAction, PortId, PortKey, PortView};
use noc_telemetry::{
    EventKind, MetricsSeries, NullProfiler, Profiler, RecordSink, Sample, Stage, StageProfiler,
    TelemetryReport, TelemetrySpec, TraceEvent, TraceSink, WorkCounters,
};
use noc_traffic::source::{inject_from_with, PacketSpec, TrafficSource};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};

/// How often (in cycles) a cancellable run polls its abort flag. Power of
/// two so the check compiles to a mask; coarse enough to be invisible in
/// profiles, fine enough that a 2×2 mesh aborts within a millisecond.
pub const CANCEL_CHECK_PERIOD: u64 = 1024;

/// Configuration of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Network configuration.
    pub noc: NocConfig,
    /// The gating policy under test.
    pub policy: PolicyKind,
    /// Cycles simulated before measurement starts (duty counters and
    /// network statistics reset at the boundary).
    pub warmup_cycles: u64,
    /// Measured cycles.
    pub measure_cycles: u64,
    /// Seed of the process-variation `Vth` sampling. The paper draws one
    /// sample set per *{architecture, injection rate}* scenario and shares
    /// it across policies — do the same by reusing this seed.
    pub pv_seed: u64,
    /// Rotation period of the rr-no-sensor candidate pointer.
    pub rr_rotation_period: u64,
    /// NBTI model used by trackers and sensors.
    pub model: LongTermModel,
    /// How often (in cycles) the most-degraded election is refreshed from
    /// the sensors. Real embedded NBTI sensors are duty-cycled and sampled
    /// periodically (Singh et al.); degradation moves on millisecond
    /// scales, so the cached `Down_Up` value is exact in between.
    pub md_refresh_period: u64,
    /// The sensor model electing the most degraded VC.
    pub sensor: SensorModel,
    /// How much runtime invariant checking the run performs (protocol
    /// properties per cycle plus the policy's idle-on designation budget
    /// and end-of-run duty closure). `Off` for production sweeps.
    pub invariants: InvariantLevel,
    /// What telemetry the run collects (event trace, periodic metrics).
    /// The default collects nothing and keeps the simulator on the
    /// zero-cost [`noc_telemetry::NullSink`] path.
    pub telemetry: TelemetrySpec,
}

/// Which NBTI sensor model the monitor uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SensorModel {
    /// Perfect readings (the paper's simulation library).
    Ideal,
    /// Finite resolution, Gaussian read noise and a sampling period —
    /// modelling the Singh et al. 45 nm sensor (used by the
    /// sensor-fidelity ablation).
    Quantized {
        /// Measurement resolution.
        lsb: Volt,
        /// Read-noise standard deviation.
        noise_sigma: Volt,
        /// Sampling period in cycles.
        period: u64,
    },
}

impl ExperimentConfig {
    /// A config with the paper's defaults for the given scenario.
    pub fn new(noc: NocConfig, policy: PolicyKind) -> Self {
        ExperimentConfig {
            noc,
            policy,
            warmup_cycles: 20_000,
            measure_cycles: 200_000,
            pv_seed: 0xDA7E_2013,
            rr_rotation_period: 1,
            model: LongTermModel::calibrated_45nm(),
            md_refresh_period: 64,
            sensor: SensorModel::Ideal,
            invariants: InvariantLevel::Off,
            telemetry: TelemetrySpec::default(),
        }
    }

    /// Overrides the cycle budget.
    pub fn with_cycles(mut self, warmup: u64, measure: u64) -> Self {
        self.warmup_cycles = warmup;
        self.measure_cycles = measure;
        self
    }

    /// Overrides the process-variation seed.
    pub fn with_pv_seed(mut self, seed: u64) -> Self {
        self.pv_seed = seed;
        self
    }

    /// Overrides the invariant-checking level.
    pub fn with_invariants(mut self, level: InvariantLevel) -> Self {
        self.invariants = level;
        self
    }

    /// Overrides the telemetry collection spec.
    pub fn with_telemetry(mut self, spec: TelemetrySpec) -> Self {
        self.telemetry = spec;
        self
    }
}

/// Measured outcome for one buffer port.
#[derive(Debug, Clone, PartialEq)]
pub struct PortResult {
    /// The port.
    pub port: PortId,
    /// Per-VC NBTI-duty-cycle over the measured window, in percent.
    pub duty_percent: Vec<f64>,
    /// The most degraded VC by initial `Vth` (the paper's `MD VC` column).
    pub md_vc: usize,
    /// Per-VC initial threshold voltages (process variation).
    pub initial_vths: Vec<Volt>,
    /// Flits written into this port's buffers during the measured window.
    pub flits_received: u64,
}

impl PortResult {
    /// The duty cycle of the most degraded VC.
    pub fn md_duty(&self) -> f64 {
        self.duty_percent[self.md_vc]
    }
}

/// Outcome of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// The policy that ran.
    pub policy: PolicyKind,
    /// Measured cycles (after warm-up).
    pub measured_cycles: u64,
    /// Per-port results, in `Network::port_ids` order.
    pub ports: Vec<PortResult>,
    /// Network statistics over the measured window.
    pub net: NetStats,
    /// Total invariant violations detected over the whole run (protocol
    /// checks, idle-on budget and duty closure). Always zero when the run's
    /// [`ExperimentConfig::invariants`] level is `Off`.
    pub invariant_violations: u64,
    /// Detailed violation records, capped at
    /// [`noc_sim::invariants::MAX_RECORDED_VIOLATIONS`].
    pub violations: Vec<InvariantViolation>,
    /// Deterministic work counters accumulated over the whole run
    /// (simulator pipeline stages plus policy evaluations and sensor
    /// reads). Always populated — counting is unconditional and cheap.
    pub work: WorkCounters,
    /// Harvested telemetry, when [`ExperimentConfig::telemetry`] requested
    /// any.
    pub telemetry: Option<TelemetryReport>,
}

impl ExperimentResult {
    /// The rolling FNV-1a digest of the run's event stream, when the event
    /// trace was recorded. Bit-identical for identical configs regardless
    /// of worker count or record/replay.
    pub fn trace_digest(&self) -> Option<u64> {
        self.telemetry
            .as_ref()
            .and_then(|t| t.trace.as_ref())
            .map(|log| log.digest)
    }
    /// The result for one port.
    pub fn port(&self, port: PortId) -> Option<&PortResult> {
        self.ports.iter().find(|p| p.port == port)
    }

    /// Convenience: the east input port of a router — the port the paper
    /// samples in its synthetic tables.
    ///
    /// # Panics
    ///
    /// Panics if that port does not exist in the mesh.
    pub fn east_input(&self, node: NodeId) -> &PortResult {
        self.port(PortId::router_input(node, Direction::East))
            .expect("router has an east input port")
    }

    /// Convenience: the west input port of a router.
    ///
    /// # Panics
    ///
    /// Panics if that port does not exist in the mesh.
    pub fn west_input(&self, node: NodeId) -> &PortResult {
        self.port(PortId::router_input(node, Direction::West))
            .expect("router has a west input port")
    }
}

/// Runs one experiment: `cfg.policy` on `cfg.noc` fed by `traffic`.
///
/// # Panics
///
/// Panics if the network configuration is invalid.
pub fn run_experiment(cfg: &ExperimentConfig, traffic: &mut dyn TrafficSource) -> ExperimentResult {
    static NEVER: AtomicBool = AtomicBool::new(false);
    match run_experiment_cancellable(cfg, traffic, &NEVER) {
        Some(result) => result,
        // The flag is never set, so the run always completes.
        None => unreachable!("uncancellable run reported cancellation"),
    }
}

/// Runs one experiment like [`run_experiment`], polling `cancel` every
/// [`CANCEL_CHECK_PERIOD`] cycles. Returns `None` when the flag was
/// observed set — the partial run is discarded, so cancellation can never
/// leak scheduling into results. This is the hook the serving layer uses
/// for job cancellation and wall-clock timeouts: the clock lives with the
/// caller, the engine only ever sees a flag.
///
/// # Panics
///
/// Panics if the network configuration is invalid.
pub fn run_experiment_cancellable(
    cfg: &ExperimentConfig,
    traffic: &mut dyn TrafficSource,
    cancel: &AtomicBool,
) -> Option<ExperimentResult> {
    // Dispatch on the sink type here so the common no-trace path
    // monomorphizes with `NullSink` and keeps zero tracing overhead.
    if cfg.telemetry.trace {
        let sink = RecordSink::with_capacity(cfg.telemetry.trace_capacity);
        let net = Network::with_sink(cfg.noc.clone(), sink).expect("valid NoC configuration");
        dispatch_sensor(cfg, traffic, net, cancel, &mut NullProfiler)
    } else {
        let net = Network::new(cfg.noc.clone()).expect("valid NoC configuration");
        dispatch_sensor(cfg, traffic, net, cancel, &mut NullProfiler)
    }
}

/// Runs one experiment like [`run_experiment`], with per-cycle stage
/// timing recorded into a [`StageProfiler`]. The profiler observes the
/// run without influencing it: results (and trace digests) are
/// bit-identical to an unprofiled run of the same config and traffic.
///
/// # Panics
///
/// Panics if the network configuration is invalid.
pub fn run_experiment_profiled(
    cfg: &ExperimentConfig,
    traffic: &mut dyn TrafficSource,
) -> (ExperimentResult, StageProfiler) {
    static NEVER: AtomicBool = AtomicBool::new(false);
    let mut prof = StageProfiler::new();
    let run = if cfg.telemetry.trace {
        let sink = RecordSink::with_capacity(cfg.telemetry.trace_capacity);
        let net = Network::with_sink(cfg.noc.clone(), sink).expect("valid NoC configuration");
        dispatch_sensor(cfg, traffic, net, &NEVER, &mut prof)
    } else {
        let net = Network::new(cfg.noc.clone()).expect("valid NoC configuration");
        dispatch_sensor(cfg, traffic, net, &NEVER, &mut prof)
    };
    match run {
        Some(result) => (result, prof),
        // The flag is never set, so the run always completes.
        None => unreachable!("uncancellable run reported cancellation"),
    }
}

/// Builds the monitor for the configured sensor model and enters the loop.
fn dispatch_sensor<T: TraceSink, P: Profiler>(
    cfg: &ExperimentConfig,
    traffic: &mut dyn TrafficSource,
    net: Network<T>,
    cancel: &AtomicBool,
    prof: &mut P,
) -> Option<ExperimentResult> {
    let port_ids: Vec<PortId> = net.port_ids().to_vec();
    let mut pv = ProcessVariation::paper_45nm(cfg.pv_seed);
    match cfg.sensor {
        SensorModel::Ideal => {
            let monitor = NbtiMonitor::<IdealSensor>::with_ideal_sensors(
                &port_ids,
                cfg.noc.vcs_per_port,
                &mut pv,
                cfg.model,
            );
            run_loop(cfg, traffic, net, port_ids, monitor, cancel, prof)
        }
        SensorModel::Quantized {
            lsb,
            noise_sigma,
            period,
        } => {
            let monitor = NbtiMonitor::with_quantized_sensors(
                &port_ids,
                cfg.noc.vcs_per_port,
                &mut pv,
                cfg.model,
                lsb,
                noise_sigma,
                period,
                cfg.pv_seed ^ 0x5E45_0B5E,
            );
            run_loop(cfg, traffic, net, port_ids, monitor, cancel, prof)
        }
    }
}

/// Outcome of one campaign epoch: the usual experiment result plus the
/// drained-boundary snapshot and the raw duty totals the campaign ledger
/// integrates into accumulated ΔVth.
#[derive(Debug, Clone)]
pub struct EpochOutcome {
    /// The epoch's measurement, identical in shape to a standalone run.
    pub result: ExperimentResult,
    /// The network state at the epoch boundary, after draining; restore it
    /// into a fresh network to run the next epoch bit-identically.
    pub snapshot: NetworkSnapshot,
    /// Per-port, per-VC `(stress, recovery)` cycle totals over the
    /// measured window, in `port_ids` order — the ledger's ΔVth input.
    pub duty_totals: Vec<Vec<(u64, u64)>>,
    /// Cycles spent draining and settling after the measured window.
    pub drain_cycles: u64,
}

/// Why an epoch run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EpochError {
    /// The cancel flag was observed set; the partial epoch is discarded.
    Cancelled,
    /// Campaign epochs require [`SensorModel::Ideal`]: quantized sensors
    /// carry mid-stream RNG state that a drained-boundary snapshot cannot
    /// capture, so resuming them would not be bit-identical.
    UnsupportedSensor,
    /// The network did not drain within the cycle limit (e.g. a policy
    /// kept buffers gated and traffic wedged).
    DrainTimeout {
        /// The drain cycle budget that was exhausted.
        limit: u64,
        /// Flits still inside the network when the budget ran out.
        in_network: usize,
        /// Packets still pending injection when the budget ran out.
        pending_injection: usize,
    },
    /// The resume snapshot could not be applied to a fresh network.
    Restore(SnapshotStateError),
    /// The end-of-epoch snapshot could not be captured.
    Snapshot(SnapshotStateError),
}

impl fmt::Display for EpochError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EpochError::Cancelled => write!(f, "epoch cancelled"),
            EpochError::UnsupportedSensor => write!(
                f,
                "campaign epochs require the ideal sensor model \
                 (quantized sensor RNG state cannot be snapshotted)"
            ),
            EpochError::DrainTimeout {
                limit,
                in_network,
                pending_injection,
            } => write!(
                f,
                "network failed to drain within {limit} cycles \
                 ({in_network} flit(s) in network, {pending_injection} packet(s) pending)"
            ),
            EpochError::Restore(e) => write!(f, "resume snapshot rejected: {e}"),
            EpochError::Snapshot(e) => write!(f, "epoch snapshot failed: {e}"),
        }
    }
}

impl std::error::Error for EpochError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EpochError::Restore(e) | EpochError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

/// What `run_loop_inner` hands back to its two callers.
struct LoopOutcome {
    result: ExperimentResult,
    snapshot: Option<NetworkSnapshot>,
    duty_totals: Vec<Vec<(u64, u64)>>,
    drain_cycles: u64,
}

/// Runs one *campaign epoch*: like [`run_experiment`], but the network can
/// start from a drained-boundary [`NetworkSnapshot`] (`resume`), the
/// monitor's per-VC threshold voltages can be injected (`vths`, the aged
/// values carried by the campaign ledger), and after the measured window
/// the network is drained — no further injection, policies still deciding —
/// until quiescent plus a credit-settle margin, then snapshotted.
///
/// Determinism contract: running epochs `0..n` through this entry point,
/// with each epoch resumed from its predecessor's snapshot, is bit-identical
/// to the same epochs run in one process — including the event-trace digest
/// — because the *only* state carried between epochs is the snapshot itself.
///
/// `drain_limit` bounds the post-measurement drain; a network that cannot
/// drain (wedged traffic) yields [`EpochError::DrainTimeout`] instead of
/// spinning forever.
///
/// # Panics
///
/// Panics if the network configuration is invalid or `vths` does not match
/// the port list.
pub fn run_epoch(
    cfg: &ExperimentConfig,
    traffic: &mut dyn TrafficSource,
    resume: Option<&NetworkSnapshot>,
    vths: Option<&[Vec<Volt>]>,
    drain_limit: u64,
) -> Result<EpochOutcome, EpochError> {
    static NEVER: AtomicBool = AtomicBool::new(false);
    run_epoch_cancellable(cfg, traffic, resume, vths, drain_limit, &NEVER)
}

/// [`run_epoch`] with a cooperative cancellation flag, for serving layers
/// that must be able to abandon an epoch without altering any result it
/// would otherwise produce. Cancellation yields [`EpochError::Cancelled`];
/// a run that completes is bit-identical to an uncancellable one.
///
/// # Panics
///
/// Panics if the network configuration is invalid or `vths` does not match
/// the port list.
pub fn run_epoch_cancellable(
    cfg: &ExperimentConfig,
    traffic: &mut dyn TrafficSource,
    resume: Option<&NetworkSnapshot>,
    vths: Option<&[Vec<Volt>]>,
    drain_limit: u64,
    cancel: &AtomicBool,
) -> Result<EpochOutcome, EpochError> {
    if !matches!(cfg.sensor, SensorModel::Ideal) {
        return Err(EpochError::UnsupportedSensor);
    }
    if cfg.telemetry.trace {
        let sink = RecordSink::with_capacity(cfg.telemetry.trace_capacity);
        let net = Network::with_sink(cfg.noc.clone(), sink).expect("valid NoC configuration");
        run_epoch_sink(cfg, traffic, net, resume, vths, drain_limit, cancel)
    } else {
        let net = Network::new(cfg.noc.clone()).expect("valid NoC configuration");
        run_epoch_sink(cfg, traffic, net, resume, vths, drain_limit, cancel)
    }
}

fn run_epoch_sink<T: TraceSink>(
    cfg: &ExperimentConfig,
    traffic: &mut dyn TrafficSource,
    mut net: Network<T>,
    resume: Option<&NetworkSnapshot>,
    vths: Option<&[Vec<Volt>]>,
    drain_limit: u64,
    cancel: &AtomicBool,
) -> Result<EpochOutcome, EpochError> {
    if let Some(snap) = resume {
        net.restore(snap).map_err(EpochError::Restore)?;
        if cfg.warmup_cycles == 0 {
            // No warm-up boundary will reset the measurement window, so
            // shed the restored cumulative stats here: the epoch's result
            // must cover the epoch, not the whole campaign so far.
            net.reset_stats();
        }
    }
    let port_ids: Vec<PortId> = net.port_ids().to_vec();
    let monitor = match vths {
        Some(vths) => {
            NbtiMonitor::<IdealSensor>::with_ideal_sensors_from_vths(&port_ids, vths, cfg.model)
        }
        None => {
            let mut pv = ProcessVariation::paper_45nm(cfg.pv_seed);
            NbtiMonitor::<IdealSensor>::with_ideal_sensors(
                &port_ids,
                cfg.noc.vcs_per_port,
                &mut pv,
                cfg.model,
            )
        }
    };
    let out = run_loop_inner(
        cfg,
        traffic,
        net,
        port_ids,
        monitor,
        cancel,
        Some(drain_limit),
        &mut NullProfiler,
    )?;
    let snapshot = out
        .snapshot
        .expect("drain was requested, so a snapshot is present");
    Ok(EpochOutcome {
        result: out.result,
        snapshot,
        duty_totals: out.duty_totals,
        drain_cycles: out.drain_cycles,
    })
}

/// The per-cycle loop, generic over the sensor model, the trace sink and
/// the stage profiler.
fn run_loop<S: NbtiSensor, T: TraceSink, P: Profiler>(
    cfg: &ExperimentConfig,
    traffic: &mut dyn TrafficSource,
    net: Network<T>,
    port_ids: Vec<PortId>,
    monitor: NbtiMonitor<S>,
    cancel: &AtomicBool,
    prof: &mut P,
) -> Option<ExperimentResult> {
    match run_loop_inner(cfg, traffic, net, port_ids, monitor, cancel, None, prof) {
        Ok(out) => Some(out.result),
        Err(EpochError::Cancelled) => None,
        // Drain/snapshot errors require `drain = Some(..)`.
        Err(e) => unreachable!("non-epoch run cannot fail: {e}"),
    }
}

/// A port's controller memory: its last decision and what the decision
/// was made from, plus the stress run the port is in.
#[derive(Debug, Clone, Copy)]
struct PortCtl {
    /// The port key read right after the last `apply_gate`.
    key: PortKey,
    /// The `Down_Up` MD VC the last decision saw.
    md: usize,
    /// The last decision.
    action: GateAction,
    /// The last `apply_gate` left the key as it found it. Only then is
    /// applying the same action to the same key again a no-op.
    fixed: bool,
    /// The port's power mask. Busy ⇒ powered (a full-level invariant),
    /// so this is also its NBTI stress mask.
    stress: u32,
    /// The first monitored cycle of the current stress run not yet
    /// recorded into the monitor.
    run_start: u64,
}

/// Everything the per-cycle step reads and writes. One [`Engine::advance`]
/// serves the measured window and the epoch drain, so decision reuse and
/// duty flushing exist once.
struct Engine<'a, S, T: TraceSink, P> {
    cfg: &'a ExperimentConfig,
    net: Network<T>,
    monitor: NbtiMonitor<S>,
    port_ids: Vec<PortId>,
    /// The one policy every port runs (all built-in policies are
    /// stateless).
    policy: Box<dyn GatingPolicy>,
    /// The policy's answers since `next_change` last passed, shared by
    /// every port.
    decisions: DecisionTable,
    ctl: Vec<PortCtl>,
    md_cache: Vec<usize>,
    /// The cycle on which the policy's decisions may next change with the
    /// cycle alone (`GatingPolicy::next_change`).
    next_change: u64,
    /// Ports whose last action is a gate command (not `NoChange`): the
    /// `gate_commands` every cycle counts, applied or reused.
    commanding: u64,
    /// Engine-level work counters (the network counts its own pipeline
    /// stages and every gate command); summed into the result at the end.
    engine_work: WorkCounters,
    series: Option<MetricsSeries>,
    churn_at_sample: Vec<u64>,
    /// Per port, `flits_received` at the start of the measured window.
    flits_at_warmup: Vec<u64>,
    warmup_violations: u64,
    /// Scratch reused every cycle so the loop never allocates once
    /// capacities settle.
    view: PortView,
    packets: Vec<PacketSpec>,
    /// The port slots the controller visits this cycle.
    visit: Vec<u32>,
    prof: &'a mut P,
}

impl<'a, S: NbtiSensor, T: TraceSink, P: Profiler> Engine<'a, S, T, P> {
    fn new(
        cfg: &'a ExperimentConfig,
        mut net: Network<T>,
        port_ids: Vec<PortId>,
        monitor: NbtiMonitor<S>,
        prof: &'a mut P,
    ) -> Self {
        net.set_invariant_level(cfg.invariants);
        // The controller has seen no port yet.
        net.mark_all_ports();
        // With no warm-up the boundary never fires; pin the per-port flit
        // baseline at the start instead (zero for fresh networks, the
        // restored lifetime counters for resumed epochs).
        let flits_at_warmup = port_ids
            .iter()
            .map(|&pid| match cfg.warmup_cycles {
                0 => net.flits_received(pid),
                _ => 0,
            })
            .collect();
        // The controller addresses ports by slot: `port_ids[i]` is slot `i`.
        debug_assert_eq!(port_ids, net.port_ids(), "ports in slot order");
        let ctl = (0..port_ids.len())
            .map(|slot| PortCtl {
                key: PortKey::default(),
                md: 0,
                action: GateAction::NoChange,
                fixed: false,
                stress: net.port_key_at(slot).powered,
                run_start: 0,
            })
            .collect();
        let sample_period = cfg.telemetry.sample_period;
        let policy = cfg.policy.build(cfg.rr_rotation_period);
        let next_change = policy.next_change(net.cycle(), cfg.noc.vcs_per_port);
        Engine {
            cfg,
            policy,
            decisions: DecisionTable::new(),
            ctl,
            md_cache: vec![0; port_ids.len()],
            next_change,
            commanding: 0,
            engine_work: WorkCounters::default(),
            series: (sample_period > 0).then(|| {
                MetricsSeries::new(
                    sample_period,
                    port_ids.iter().map(ToString::to_string).collect(),
                )
            }),
            churn_at_sample: vec![0; port_ids.len()],
            flits_at_warmup,
            warmup_violations: 0,
            view: PortView {
                port: PortId::nic_eject(NodeId(0)),
                vc_status: Vec::new(),
                new_traffic: false,
            },
            packets: Vec::new(),
            visit: Vec::new(),
            net,
            monitor,
            port_ids,
            prof,
        }
    }

    /// Records every port's pending stress run up to monitored cycle
    /// `upto`. Called before anything reads duty: sensor elections, series
    /// samples, the warm-up reset and the end of the measured window.
    fn flush_duty(&mut self, upto: u64) {
        for (c, &pid) in self.ctl.iter_mut().zip(&self.port_ids) {
            flush_run(&mut self.monitor, pid, c, upto);
        }
    }

    /// One cycle. With `traffic`, this is measured-window step `step`:
    /// packets are injected and duty is recorded. Without, it is a drain
    /// step: nothing is injected or recorded, policies keep deciding.
    fn advance(&mut self, step: u64, traffic: Option<&mut dyn TrafficSource>) {
        let recording = traffic.is_some();
        let now = self.net.cycle();
        let md_period = self.cfg.md_refresh_period.max(1);
        if self.cfg.policy.uses_sensors() && step.is_multiple_of(md_period) {
            if recording {
                self.flush_duty(step);
            }
            let vcs_per_port = self.cfg.noc.vcs_per_port as u64;
            for (i, &pid) in self.port_ids.iter().enumerate() {
                let md = self.monitor.most_degraded(pid);
                // One sensor sample per VC per election (the `Down_Up`
                // link reads the whole port).
                self.engine_work.sensor_reads += vcs_per_port;
                if T::ACTIVE && ((recording && step == 0) || md != self.md_cache[i]) {
                    self.net.trace_mut().emit(TraceEvent {
                        cycle: now,
                        kind: EventKind::DownUp {
                            port: pid.into(),
                            md_vc: md as u8,
                        },
                    });
                }
                if md != self.md_cache[i] {
                    self.net.mark_port_at(i);
                }
                self.md_cache[i] = md;
            }
        }
        self.prof.start_lap();
        if let Some(traffic) = traffic {
            inject_from_with(traffic, &mut self.net, &mut self.packets);
            self.prof.lap(Stage::Inject);
        }
        self.net.begin_cycle_with(self.prof);
        self.decide_ports(now, recording.then_some(step));
        self.prof.lap(Stage::Controller);
        self.net.finish_cycle_with(self.prof);
        if recording {
            self.end_recorded_cycle(step + 1);
        }
    }

    /// The controller slot: every port's `Up_Down` decision. Only the
    /// marked ports are visited, in slot order; every other port's key and
    /// MD VC are unchanged, so its last action stands. A visited port's
    /// last action is reused too, without building its view, deciding or
    /// applying, when its last application was a fixed point and the key
    /// and the MD VC are unchanged, unless the policy's decision changed
    /// with the cycle. Otherwise the action comes from the decision table
    /// when some port already presented the same key and MD VC since the
    /// decisions last changed with the cycle, and from the policy (on a
    /// view) when none did. `monitored` is the cycle's monitored index
    /// while duty is being recorded.
    fn decide_ports(&mut self, now: u64, monitored: Option<u64>) {
        let vcs = self.cfg.noc.vcs_per_port;
        let rotated = now >= self.next_change;
        if rotated {
            self.net.mark_all_ports();
            self.next_change = self.policy.next_change(now, vcs);
            self.decisions.invalidate_all();
        }
        self.net.take_marked_ports(&mut self.visit);
        let mut applied = 0u64;
        for &slot in &self.visit {
            let i = slot as usize;
            let c = &mut self.ctl[i];
            let md = self.md_cache[i];
            // The slot is the port, so no key read, view fill or gate
            // command looks it up.
            let key = self.net.port_key_at(i);
            if !rotated && c.fixed && key == c.key && md == c.md {
                continue;
            }
            let action = match self.decisions.recall(key, md) {
                Some(action) => action,
                None => {
                    self.net.fill_port_view_at(i, &mut self.view);
                    let action = self.policy.decide(now, &self.view, md);
                    self.decisions.remember(key, md, action);
                    action
                }
            };
            self.net.apply_gate_at(i, action);
            let commands = u64::from(action != GateAction::NoChange);
            applied += commands;
            self.commanding =
                self.commanding + commands - u64::from(c.action != GateAction::NoChange);
            let after = self.net.port_key_at(i);
            c.key = after;
            c.md = md;
            c.action = action;
            c.fixed = after == key;
            if after.powered != c.stress {
                if let Some(upto) = monitored {
                    flush_run(&mut self.monitor, self.port_ids[i], c, upto);
                }
                c.stress = after.powered;
            }
        }
        // Every port evaluates its policy and issues its command every
        // cycle; the ports not decided anew reuse theirs.
        self.engine_work.policy_evaluations += self.port_ids.len() as u64;
        let reused = self.commanding - applied;
        if reused > 0 {
            self.net.count_reused_gate_commands(reused);
        }
        if !self.cfg.invariants.is_enabled() {
            return;
        }
        if let Some(budget) = self.cfg.policy.idle_on_budget() {
            // The designation property holds exactly at this point: after
            // every gate decision is applied, before allocation runs.
            for &pid in &self.port_ids {
                self.net.check_idle_on_budget(pid, budget);
            }
        }
        // A port left unmarked must still have the key this controller
        // last read (a no-op below the full level).
        for (i, c) in self.ctl.iter().enumerate() {
            self.net.check_cached_port_key(i, c.key);
        }
    }

    /// End-of-cycle bookkeeping of the measured window, once `monitored`
    /// cycles have been recorded: series samples and the warm-up reset.
    fn end_recorded_cycle(&mut self, monitored: u64) {
        let sample = self
            .series
            .as_ref()
            .is_some_and(|s| monitored.is_multiple_of(s.period()));
        let warmed_up = monitored == self.cfg.warmup_cycles;
        if sample || warmed_up {
            self.flush_duty(monitored);
        }
        self.prof.lap(Stage::Monitor);
        if let Some(series) = self.series.as_mut().filter(|_| sample) {
            for (i, &pid) in self.port_ids.iter().enumerate() {
                let duty = self.monitor.duty_cycles_percent(pid);
                let churn_total = self.net.gate_transitions(pid);
                series.push(Sample {
                    cycle: self.net.cycle(),
                    port: i as u32,
                    duty_percent: duty.iter().sum::<f64>() / duty.len() as f64,
                    occupancy: self.net.port_occupancy(pid) as u32,
                    churn: churn_total - self.churn_at_sample[i],
                    powered_vcs: self.net.powered_vc_count(pid) as u32,
                    delta_vth_mv: self
                        .monitor
                        .projected_delta_vth_mv(pid, NbtiParams::TEN_YEARS_S),
                });
                self.churn_at_sample[i] = churn_total;
            }
        }
        if warmed_up {
            self.monitor.reset_duty();
            // Stats reset zeroes the violation counter; fold the warm-up era
            // into the whole-run total reported on the result.
            self.warmup_violations = self.net.stats().invariant_violations;
            self.net.reset_stats();
            for (base, &pid) in self.flits_at_warmup.iter_mut().zip(&self.port_ids) {
                *base = self.net.flits_received(pid);
            }
        }
    }
}

/// Records port `pid`'s stress run from its start up to monitored cycle
/// `upto` as one `record_cycles` call, and starts a new run there.
fn flush_run<S: NbtiSensor>(monitor: &mut NbtiMonitor<S>, pid: PortId, c: &mut PortCtl, upto: u64) {
    let n = upto - c.run_start;
    if n > 0 {
        monitor.record_cycles(pid, c.stress, n);
    }
    c.run_start = upto;
}

/// The loop shared by standalone runs and campaign epochs. The `step`
/// counter is *run-local* (controls warm-up, sampling, refresh and cancel
/// cadence); the network's own cycle counter — which continues across
/// resumed epochs — timestamps trace events and drives policy rotation.
/// For a fresh network the two coincide, so standalone runs are
/// bit-identical to what this loop produced before epochs existed.
///
/// When `drain` is `Some(limit)`, the measured window is followed by a
/// drain phase: injection and NBTI recording stop, policies keep deciding,
/// and the loop steps until the network is quiescent plus a credit-settle
/// margin (bounded by `limit`), then captures a snapshot.
#[allow(clippy::too_many_arguments)]
fn run_loop_inner<S: NbtiSensor, T: TraceSink, P: Profiler>(
    cfg: &ExperimentConfig,
    traffic: &mut dyn TrafficSource,
    net: Network<T>,
    port_ids: Vec<PortId>,
    monitor: NbtiMonitor<S>,
    cancel: &AtomicBool,
    drain: Option<u64>,
    prof: &mut P,
) -> Result<LoopOutcome, EpochError> {
    let mut eng = Engine::new(cfg, net, port_ids, monitor, prof);
    let total = cfg.warmup_cycles + cfg.measure_cycles;
    for step in 0..total {
        if step % CANCEL_CHECK_PERIOD == 0 && cancel.load(Ordering::Relaxed) {
            return Err(EpochError::Cancelled);
        }
        eng.advance(step, Some(&mut *traffic));
    }
    eng.flush_duty(total);

    // Drain phase (epochs only): stop injecting and recording, keep the
    // policies deciding — gating state keeps evolving deterministically and
    // its events stay in the digest-covered trace — until the network is
    // quiescent and the credit loops have had time to close.
    let mut drain_cycles = 0u64;
    if let Some(limit) = drain {
        let settle = cfg.noc.credit_latency + cfg.noc.link_latency + 2;
        let mut settled = 0u64;
        loop {
            if eng.net.is_quiescent() {
                if settled == settle {
                    break;
                }
                settled += 1;
            } else {
                settled = 0;
            }
            if drain_cycles == limit {
                return Err(EpochError::DrainTimeout {
                    limit,
                    in_network: eng.net.flits_in_network(),
                    pending_injection: eng.net.flits_pending_injection(),
                });
            }
            eng.advance(total + drain_cycles, None);
            drain_cycles += 1;
        }
    }
    let Engine {
        mut net,
        monitor,
        port_ids,
        engine_work,
        series,
        flits_at_warmup,
        warmup_violations,
        ..
    } = eng;

    // Duty closure (paper §III-A): every monitored cycle is either stress
    // or recovery, so per VC the two must sum to the measured window. The
    // drain phase records nothing, so the closure holds for epochs too.
    let mut violations = net.take_violations();
    let mut duty_violations = 0u64;
    if cfg.invariants.is_enabled() {
        for &pid in &port_ids {
            for (vc, (stress, recovery)) in monitor.duty_totals(pid).iter().enumerate() {
                if stress + recovery != cfg.measure_cycles {
                    duty_violations += 1;
                    violations.push(InvariantViolation {
                        cycle: total,
                        kind: InvariantKind::DutyClosure,
                        detail: format!(
                            "port {pid} vc{vc}: {stress} stress + {recovery} recovery cycles \
                             != {} measured",
                            cfg.measure_cycles
                        ),
                    });
                }
            }
        }
    }
    let invariant_violations =
        warmup_violations + net.stats().invariant_violations + duty_violations;

    // Capture the boundary snapshot after violations are drained (capture
    // refuses while any are pending) and before telemetry harvest.
    let snapshot = if drain.is_some() {
        Some(net.snapshot().map_err(EpochError::Snapshot)?)
    } else {
        None
    };
    let duty_totals = if drain.is_some() {
        port_ids
            .iter()
            .map(|&pid| monitor.duty_totals(pid))
            .collect()
    } else {
        Vec::new()
    };

    let ports = port_ids
        .iter()
        .zip(&flits_at_warmup)
        .map(|(&pid, &base)| PortResult {
            port: pid,
            duty_percent: monitor.duty_cycles_percent(pid),
            md_vc: monitor.most_degraded_initial(pid),
            initial_vths: monitor.initial_vths(pid),
            flits_received: net.flits_received(pid) - base,
        })
        .collect();
    let telemetry = cfg.telemetry.enabled().then(|| TelemetryReport {
        trace: net.trace_mut().harvest(),
        series,
    });
    let result = ExperimentResult {
        policy: cfg.policy,
        measured_cycles: cfg.measure_cycles,
        ports,
        net: *net.stats(),
        invariant_violations,
        violations,
        work: net.work_counters() + engine_work,
        telemetry,
    };
    Ok(LoopOutcome {
        result,
        snapshot,
        duty_totals,
        drain_cycles,
    })
}

/// Load calibration between the paper's Garnet/GEM5 setup and this
/// simulator.
///
/// Our router sustains close to the theoretical one-flit-per-cycle link
/// throughput (the credit loop exactly matches the 4-flit buffer depth),
/// while the paper's full-system Garnet configuration saturates at a much
/// lower nominal injection rate — its reported NBTI-duty-cycles (e.g. 56 %
/// on a 4-core mesh at 0.3 flits/cycle/port with 2 VCs) correspond to
/// heavy VC contention. To compare the policies at the *same congestion
/// levels* as the paper rather than at the same raw rates,
/// [`SyntheticScenario::effective_rate`] multiplies the nominal rate by
/// this factor before injection; drive `run_experiment` with your own
/// [`noc_traffic::synthetic::SyntheticTraffic`] for uncalibrated rates.
/// The factor is derived in EXPERIMENTS.md from the gap-versus-load sweep
/// (`gap_sweep` binary).
pub const LOAD_CALIBRATION: f64 = 2.5;

/// One of the paper's synthetic scenarios: a square mesh under uniform
/// traffic at a fixed injection rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticScenario {
    /// Core count (4 or 16 in the paper).
    pub cores: usize,
    /// VCs per input port (2 or 4 in the paper).
    pub vcs: usize,
    /// Nominal injection rate in flits/cycle/port (0.1, 0.2, 0.3 in the
    /// paper).
    pub injection_rate: f64,
}

impl SyntheticScenario {
    /// The congestion-calibrated rate actually injected
    /// (`injection_rate × LOAD_CALIBRATION`).
    pub fn effective_rate(&self) -> f64 {
        self.injection_rate * LOAD_CALIBRATION
    }
    /// The scenario name in the paper's format, e.g. `4core-inj0.10`.
    pub fn name(&self) -> String {
        format!("{}core-inj{:.2}", self.cores, self.injection_rate)
    }

    /// A deterministic per-scenario seed: identical across policies, as in
    /// the paper ("a single set of PMOS Vth values for each pair
    /// {simulated architecture, traffic injection}").
    pub fn seed(&self) -> u64 {
        let rate_milli = (self.injection_rate * 1000.0).round() as u64;
        (self.cores as u64) << 32 | (self.vcs as u64) << 16 | rate_milli
    }

    /// The scenario as a self-contained [`ExperimentJob`], ready for the
    /// parallel engine: the process-variation seed is the scenario seed
    /// (shared across policies, as in the paper) and the traffic stream is
    /// seeded independently of it.
    ///
    /// [`ExperimentJob`]: crate::parallel::ExperimentJob
    pub fn job(
        &self,
        policy: PolicyKind,
        warmup: u64,
        measure: u64,
    ) -> crate::parallel::ExperimentJob {
        crate::parallel::ExperimentJob {
            cfg: ExperimentConfig::new(NocConfig::paper_synthetic(self.cores, self.vcs), policy)
                .with_cycles(warmup, measure)
                .with_pv_seed(self.seed()),
            traffic: crate::parallel::TrafficSpec::Uniform {
                rate: self.effective_rate(),
                seed: self.seed() ^ 0x7261_6666,
            },
        }
    }

    /// Runs the scenario under `policy`.
    pub fn run(&self, policy: PolicyKind, warmup: u64, measure: u64) -> ExperimentResult {
        self.job(policy, warmup, measure).run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::view::PortKind;
    use noc_traffic::synthetic::SyntheticTraffic;

    fn quick(policy: PolicyKind, rate: f64) -> ExperimentResult {
        SyntheticScenario {
            cores: 4,
            vcs: 2,
            injection_rate: rate,
        }
        .run(policy, 2_000, 10_000)
    }

    #[test]
    fn baseline_duty_is_100_percent_everywhere() {
        let r = quick(PolicyKind::Baseline, 0.1);
        for port in &r.ports {
            for &d in &port.duty_percent {
                assert!((d - 100.0).abs() < 1e-9, "baseline duty {d}");
            }
        }
    }

    #[test]
    fn gating_policies_deliver_traffic() {
        for policy in PolicyKind::ALL {
            let r = quick(policy, 0.1);
            assert!(
                r.net.packets_ejected > 50,
                "{policy} delivered only {} packets",
                r.net.packets_ejected
            );
        }
    }

    #[test]
    fn rr_duty_is_roughly_uniform_across_vcs() {
        let r = quick(PolicyKind::RrNoSensor, 0.2);
        let east0 = r.east_input(NodeId(0));
        let d = &east0.duty_percent;
        assert!(
            (d[0] - d[1]).abs() < 6.0,
            "rr should equalize VCs, got {d:?}"
        );
        assert!(d[0] > 1.0 && d[0] < 100.0, "rr duty {d:?}");
    }

    #[test]
    fn sensor_wise_protects_the_most_degraded_vc() {
        let rr = quick(PolicyKind::RrNoSensor, 0.1);
        let sw = quick(PolicyKind::SensorWise, 0.1);
        let port = PortId::router_input(NodeId(0), Direction::East);
        let rrp = rr.port(port).unwrap();
        let swp = sw.port(port).unwrap();
        assert_eq!(rrp.md_vc, swp.md_vc, "same PV seed, same MD VC");
        assert!(
            swp.md_duty() < rrp.md_duty(),
            "sensor-wise MD duty {} must beat rr {}",
            swp.md_duty(),
            rrp.md_duty()
        );
    }

    #[test]
    fn no_traffic_variant_pins_one_vc_near_100_percent() {
        let r = quick(PolicyKind::SensorWiseNoTraffic, 0.1);
        let east0 = r.east_input(NodeId(0));
        let max = east0.duty_percent.iter().cloned().fold(f64::MIN, f64::max);
        assert!(
            max > 95.0,
            "expected a pinned VC, duty = {:?}",
            east0.duty_percent
        );
    }

    #[test]
    fn same_scenario_same_md_across_policies() {
        let a = quick(PolicyKind::RrNoSensor, 0.3);
        let b = quick(PolicyKind::SensorWiseNoTraffic, 0.3);
        let c = quick(PolicyKind::SensorWise, 0.3);
        for ((pa, pb), pc) in a.ports.iter().zip(&b.ports).zip(&c.ports) {
            assert_eq!(pa.md_vc, pb.md_vc);
            assert_eq!(pa.md_vc, pc.md_vc);
            assert_eq!(pa.initial_vths, pc.initial_vths);
        }
    }

    #[test]
    fn duty_grows_with_injection_rate_under_rr() {
        let low = quick(PolicyKind::RrNoSensor, 0.1);
        let high = quick(PolicyKind::RrNoSensor, 0.3);
        let l = low.east_input(NodeId(0)).duty_percent[0];
        let h = high.east_input(NodeId(0)).duty_percent[0];
        assert!(h > l, "rr duty must rise with load: {l} vs {h}");
    }

    #[test]
    fn run_experiment_accepts_external_traffic() {
        let noc = NocConfig::paper_synthetic(4, 2);
        let mesh = noc_sim::topology::Mesh2D::new(2, 2);
        let mut traffic = SyntheticTraffic::uniform(mesh, 0.05, 5, 1);
        let cfg = ExperimentConfig::new(noc, PolicyKind::SensorWise).with_cycles(500, 2_000);
        let r = run_experiment(&cfg, &mut traffic);
        assert_eq!(r.measured_cycles, 2_000);
        assert_eq!(r.ports.len(), 16);
    }

    #[test]
    fn quantized_sensors_run_through_the_loop() {
        let noc = NocConfig::paper_synthetic(4, 2);
        let mesh = noc_sim::topology::Mesh2D::new(2, 2);
        let mut traffic = SyntheticTraffic::uniform(mesh, 0.2, 5, 9);
        let cfg = ExperimentConfig {
            sensor: SensorModel::Quantized {
                lsb: Volt::from_millivolts(0.5),
                noise_sigma: Volt::from_millivolts(0.25),
                period: 1_000,
            },
            ..ExperimentConfig::new(noc, PolicyKind::SensorWise).with_cycles(500, 5_000)
        };
        let r = run_experiment(&cfg, &mut traffic);
        assert!(r.net.packets_ejected > 0);
        // A near-ideal sensor still shields the MD VC.
        let port = r.east_input(NodeId(0));
        let min = port.duty_percent.iter().cloned().fold(f64::MAX, f64::min);
        assert!((port.md_duty() - min).abs() < 10.0);
    }

    #[test]
    fn sensor_wise_k_runs_and_orders_by_k() {
        let run_k = |k: u8| {
            SyntheticScenario {
                cores: 4,
                vcs: 4,
                injection_rate: 0.2,
            }
            .run(PolicyKind::SensorWiseK(k), 1_000, 10_000)
        };
        let k1 = run_k(1);
        let k3 = run_k(3);
        let sum =
            |r: &ExperimentResult| -> f64 { r.east_input(NodeId(0)).duty_percent.iter().sum() };
        assert!(
            sum(&k1) < sum(&k3),
            "more designated VCs must mean more total stress: {} vs {}",
            sum(&k1),
            sum(&k3)
        );
        assert!(k1.net.packets_ejected > 100);
        assert!(k3.net.packets_ejected > 100);
    }

    #[test]
    fn telemetry_collects_trace_and_series() {
        let noc = NocConfig::paper_synthetic(4, 2);
        let mesh = noc_sim::topology::Mesh2D::new(2, 2);
        let mut traffic = SyntheticTraffic::uniform(mesh, 0.1, 5, 3);
        let cfg = ExperimentConfig::new(noc, PolicyKind::SensorWise)
            .with_cycles(200, 1_000)
            .with_telemetry(TelemetrySpec {
                trace: true,
                trace_capacity: 0,
                sample_period: 200,
            });
        let r = run_experiment(&cfg, &mut traffic);
        let t = r.telemetry.as_ref().expect("telemetry requested");
        let log = t.trace.as_ref().expect("trace recorded");
        assert!(log.total > 0, "a gating run emits events");
        assert_eq!(r.trace_digest(), Some(log.digest));
        let series = t.series.as_ref().expect("series recorded");
        // (200 + 1000) / 200 sampling points, one row per port.
        assert_eq!(series.len(), 6 * 16);
        assert_eq!(r.work.policy_evaluations, 1_200 * 16);
        assert!(r.work.sensor_reads > 0);
    }

    #[test]
    fn telemetry_off_is_bit_identical_and_digest_is_stable() {
        let run = |spec: TelemetrySpec| {
            let noc = NocConfig::paper_synthetic(4, 2);
            let mesh = noc_sim::topology::Mesh2D::new(2, 2);
            let mut traffic = SyntheticTraffic::uniform(mesh, 0.15, 5, 7);
            let cfg = ExperimentConfig::new(noc, PolicyKind::SensorWise)
                .with_cycles(200, 2_000)
                .with_telemetry(spec);
            run_experiment(&cfg, &mut traffic)
        };
        let plain = run(TelemetrySpec::default());
        let traced = run(TelemetrySpec {
            trace: true,
            trace_capacity: 64,
            sample_period: 0,
        });
        let again = run(TelemetrySpec {
            trace: true,
            trace_capacity: 0,
            sample_period: 500,
        });
        assert!(plain.telemetry.is_none());
        assert_eq!(plain.net, traced.net, "tracing must not perturb the run");
        assert_eq!(plain.ports, traced.ports);
        assert_eq!(plain.work, traced.work);
        // Whole-stream digest is independent of ring capacity and sampler.
        assert_eq!(traced.trace_digest(), again.trace_digest());
        assert!(traced.trace_digest().is_some());
    }

    #[test]
    fn profiled_run_is_bit_identical_and_covers_every_stage() {
        let cfg = || {
            let noc = NocConfig::paper_synthetic(4, 2);
            ExperimentConfig::new(noc, PolicyKind::SensorWise)
                .with_cycles(200, 2_000)
                .with_telemetry(TelemetrySpec {
                    trace: true,
                    trace_capacity: 64,
                    sample_period: 0,
                })
        };
        let traffic = || {
            let mesh = noc_sim::topology::Mesh2D::new(2, 2);
            SyntheticTraffic::uniform(mesh, 0.15, 5, 7)
        };
        let plain = run_experiment(&cfg(), &mut traffic());
        let (profiled, prof) = run_experiment_profiled(&cfg(), &mut traffic());
        // Timing is an observation, never an input.
        assert_eq!(
            plain.net, profiled.net,
            "profiling must not perturb the run"
        );
        assert_eq!(plain.ports, profiled.ports);
        assert_eq!(plain.work, profiled.work);
        assert_eq!(plain.trace_digest(), profiled.trace_digest());
        for s in Stage::ALL {
            assert_eq!(prof.stage(s).count(), 2_200, "{} once per cycle", s.name());
        }
        let report = prof.report();
        assert!(report.to_string().contains("begin_cycle"));
    }

    #[test]
    fn cancellable_run_completes_when_never_cancelled_and_aborts_when_set() {
        let noc = NocConfig::paper_synthetic(4, 2);
        let mesh = noc_sim::topology::Mesh2D::new(2, 2);
        let mut traffic = SyntheticTraffic::uniform(mesh, 0.1, 5, 3);
        let cfg = ExperimentConfig::new(noc, PolicyKind::SensorWise).with_cycles(200, 2_000);
        let never = AtomicBool::new(false);
        let full = run_experiment_cancellable(&cfg, &mut traffic, &never)
            .expect("unset flag never cancels");
        // Same config through the plain entry point: byte-identical.
        let mesh = noc_sim::topology::Mesh2D::new(2, 2);
        let mut traffic = SyntheticTraffic::uniform(mesh, 0.1, 5, 3);
        let plain = run_experiment(&cfg, &mut traffic);
        assert_eq!(full.net, plain.net);
        assert_eq!(full.ports, plain.ports);

        let mesh = noc_sim::topology::Mesh2D::new(2, 2);
        let mut traffic = SyntheticTraffic::uniform(mesh, 0.1, 5, 3);
        let already = AtomicBool::new(true);
        assert!(run_experiment_cancellable(&cfg, &mut traffic, &already).is_none());
    }

    fn epoch_cfg(policy: PolicyKind) -> ExperimentConfig {
        ExperimentConfig::new(NocConfig::paper_synthetic(4, 2), policy)
            .with_cycles(500, 4_000)
            .with_invariants(InvariantLevel::Full)
            .with_telemetry(TelemetrySpec {
                trace: true,
                trace_capacity: 64,
                sample_period: 0,
            })
    }

    fn epoch_traffic(seed: u64) -> SyntheticTraffic {
        let mesh = noc_sim::topology::Mesh2D::new(2, 2);
        SyntheticTraffic::uniform(mesh, 0.15, 5, seed)
    }

    #[test]
    fn epochs_chain_and_are_deterministic() {
        let cfg = epoch_cfg(PolicyKind::SensorWise);
        let run_two = || {
            let e0 =
                run_epoch(&cfg, &mut epoch_traffic(11), None, None, 100_000).expect("epoch 0 runs");
            let vths: Vec<Vec<Volt>> = e0
                .result
                .ports
                .iter()
                .map(|p| p.initial_vths.clone())
                .collect();
            let e1 = run_epoch(
                &cfg,
                &mut epoch_traffic(12),
                Some(&e0.snapshot),
                Some(&vths),
                100_000,
            )
            .expect("epoch 1 resumes");
            (e0, e1)
        };
        let (a0, a1) = run_two();
        let (b0, b1) = run_two();
        // Bit-identical across repetitions, including the event digests.
        assert_eq!(a0.result.trace_digest(), b0.result.trace_digest());
        assert_eq!(a1.result.trace_digest(), b1.result.trace_digest());
        assert_eq!(a0.snapshot, b0.snapshot);
        assert_eq!(a1.snapshot, b1.snapshot);
        assert_eq!(a1.result.net, b1.result.net);
        // The boundary really is past the measured window and drained.
        assert!(a0.snapshot.cycle >= 4_500);
        assert!(a1.snapshot.cycle > a0.snapshot.cycle);
        assert_eq!(a0.result.invariant_violations, 0);
        assert_eq!(a1.result.invariant_violations, 0);
        // Duty closure holds per epoch: drain cycles are not recorded.
        for port in &a1.duty_totals {
            for &(stress, recovery) in port {
                assert_eq!(stress + recovery, 4_000);
            }
        }
        assert!(a0.drain_cycles > 0);
    }

    #[test]
    fn epoch_zero_matches_standalone_measurement() {
        // Epoch 0 (fresh network, PV-drawn Vths) must measure exactly what
        // run_experiment measures — the drain happens after the window.
        let cfg = epoch_cfg(PolicyKind::RrNoSensor);
        let standalone = run_experiment(&cfg, &mut epoch_traffic(21));
        let epoch =
            run_epoch(&cfg, &mut epoch_traffic(21), None, None, 100_000).expect("epoch runs");
        // The drain delivers in-flight flits (so flits_received can grow)
        // but records no duty and injects nothing.
        for (s, e) in standalone.ports.iter().zip(&epoch.result.ports) {
            assert_eq!(s.port, e.port);
            assert_eq!(s.duty_percent, e.duty_percent);
            assert_eq!(s.md_vc, e.md_vc);
            assert_eq!(s.initial_vths, e.initial_vths);
            assert!(e.flits_received >= s.flits_received);
        }
        assert_eq!(
            standalone.net.packets_injected,
            epoch.result.net.packets_injected
        );
    }

    #[test]
    fn epoch_rejects_quantized_sensors() {
        let cfg = ExperimentConfig {
            sensor: SensorModel::Quantized {
                lsb: Volt::from_millivolts(0.5),
                noise_sigma: Volt::from_millivolts(0.25),
                period: 1_000,
            },
            ..epoch_cfg(PolicyKind::SensorWise)
        };
        let err = run_epoch(&cfg, &mut epoch_traffic(3), None, None, 1_000)
            .expect_err("quantized sensors cannot be snapshotted");
        assert_eq!(err, EpochError::UnsupportedSensor);
    }

    #[test]
    fn epoch_rejects_wrong_shape_resume() {
        let cfg = epoch_cfg(PolicyKind::SensorWise);
        let e0 = run_epoch(&cfg, &mut epoch_traffic(5), None, None, 100_000).unwrap();
        let bigger =
            ExperimentConfig::new(NocConfig::paper_synthetic(16, 2), PolicyKind::SensorWise)
                .with_cycles(100, 500);
        let mesh = noc_sim::topology::Mesh2D::new(4, 4);
        let mut traffic = SyntheticTraffic::uniform(mesh, 0.1, 5, 1);
        let err = run_epoch(&bigger, &mut traffic, Some(&e0.snapshot), None, 1_000)
            .expect_err("shape mismatch must be rejected");
        assert!(matches!(err, EpochError::Restore(_)), "{err}");
    }

    /// An engine over `cfg` on a fresh network with ideal sensors.
    fn engine<'a>(
        cfg: &'a ExperimentConfig,
        prof: &'a mut NullProfiler,
    ) -> Engine<'a, IdealSensor, noc_telemetry::NullSink, NullProfiler> {
        let net = Network::new(cfg.noc.clone()).expect("valid config");
        let port_ids = net.port_ids().to_vec();
        let mut pv = ProcessVariation::paper_45nm(cfg.pv_seed);
        let monitor =
            NbtiMonitor::with_ideal_sensors(&port_ids, cfg.noc.vcs_per_port, &mut pv, cfg.model);
        Engine::new(cfg, net, port_ids, monitor, prof)
    }

    /// Idle costs nothing in the controller: with no traffic, once every
    /// port's first decision has reached its fixed point, a cycle visits
    /// no port. (`rr-no-sensor` at rotation period 1 re-decides every port
    /// every cycle by design, since its designation moves each cycle.)
    #[test]
    fn an_idle_network_visits_no_port() {
        for policy in [
            PolicyKind::Baseline,
            PolicyKind::SensorWiseNoTraffic,
            PolicyKind::SensorWise,
            PolicyKind::SensorWiseK(2),
        ] {
            let cfg = ExperimentConfig::new(NocConfig::paper_synthetic(16, 2), policy);
            let mut prof = NullProfiler;
            let mut eng = engine(&cfg, &mut prof);
            let ports = eng.port_ids.len();
            eng.advance(0, None);
            assert_eq!(eng.visit.len(), ports, "{policy}: every port decides first");
            eng.advance(1, None);
            for step in 2..40 {
                eng.advance(step, None);
                assert!(
                    eng.visit.is_empty(),
                    "{policy} step {step}: {:?}",
                    eng.visit
                );
            }
            // Policy evaluations and gate commands keep their per-port,
            // per-cycle count.
            let work = eng.net.work_counters() + eng.engine_work;
            assert_eq!(work.policy_evaluations, 40 * ports as u64, "{policy}");
            assert_eq!(work.gate_commands, 40 * ports as u64, "{policy}");
        }
    }

    /// The check that no writer forgets to mark a port: drop the mark a VA
    /// grant left on its port, and the next controller slot reports that
    /// the port's key moved under the controller.
    #[test]
    fn a_dropped_va_mark_is_a_vc_state_violation_at_full_level() {
        let cfg = ExperimentConfig::new(NocConfig::paper_synthetic(4, 2), PolicyKind::SensorWise)
            .with_cycles(0, 400)
            .with_invariants(InvariantLevel::Full);
        let mesh = noc_sim::topology::Mesh2D::new(2, 2);
        let mut traffic = SyntheticTraffic::uniform(mesh, 0.2, 5, 3);
        let mut prof = NullProfiler;
        let mut eng = engine(&cfg, &mut prof);
        let mut step = 0;
        let dropped = loop {
            assert!(step < 400, "no VA grant on a router output");
            let grants = eng.net.work_counters().va_grants;
            eng.advance(step, Some(&mut traffic));
            step += 1;
            if eng.net.work_counters().va_grants == grants {
                continue;
            }
            // The ports fed by a router output whose `active` mask the VA
            // grant just changed (a NIC's VC allocation feeds the local
            // input and is left alone).
            let granted = (0..eng.port_ids.len()).find(|&i| {
                eng.port_ids[i].kind != PortKind::RouterInput(Direction::Local)
                    && eng.net.port_key_at(i).active != eng.ctl[i].key.active
            });
            if let Some(i) = granted {
                assert!(eng.net.fault_unmark_port(i), "the VA grant marked its port");
                break eng.port_ids[i];
            }
        };
        assert_eq!(
            eng.net.stats().invariant_violations,
            0,
            "clean until the fault"
        );
        eng.advance(step, Some(&mut traffic));
        let v = eng
            .net
            .violations()
            .iter()
            .find(|v| v.kind == InvariantKind::VcStateConsistency)
            .expect("the dropped mark is reported");
        assert!(
            v.detail.contains(&format!("port {dropped}")),
            "{}",
            v.detail
        );
        assert!(v.detail.contains("without a mark"), "{}", v.detail);
    }

    /// The check that the credit writers keep SA's ready word: drop the
    /// `credited` bit a refill would have set on an active VC whose output
    /// VC holds a credit, and the end of the next cycle reports it.
    #[test]
    fn a_dropped_refill_is_a_vc_state_violation_at_full_level() {
        let cfg = ExperimentConfig::new(NocConfig::paper_synthetic(4, 2), PolicyKind::SensorWise)
            .with_cycles(0, 400)
            .with_invariants(InvariantLevel::Full);
        let mesh = noc_sim::topology::Mesh2D::new(2, 2);
        let mut traffic = SyntheticTraffic::uniform(mesh, 0.2, 5, 3);
        let mut prof = NullProfiler;
        let mut eng = engine(&cfg, &mut prof);
        let mut step = 0;
        let (node, port, _vc) = loop {
            assert!(step < 400, "no router input VC was ever credited");
            eng.advance(step, Some(&mut traffic));
            step += 1;
            if let Some(at) = eng.net.fault_drop_refill() {
                break at;
            }
        };
        assert_eq!(
            eng.net.stats().invariant_violations,
            0,
            "clean until the fault"
        );
        eng.advance(step, Some(&mut traffic));
        let input = PortId::router_input(node, Direction::from_index(port));
        let v = eng
            .net
            .violations()
            .iter()
            .find(|v| v.kind == InvariantKind::VcStateConsistency)
            .expect("the dropped refill is reported");
        assert!(
            v.detail.contains(&format!("port {input}: credited mask")),
            "{}",
            v.detail
        );
    }

    #[test]
    fn scenario_names_match_paper_format() {
        let s = SyntheticScenario {
            cores: 16,
            vcs: 4,
            injection_rate: 0.1,
        };
        assert_eq!(s.name(), "16core-inj0.10");
        assert_ne!(
            s.seed(),
            SyntheticScenario {
                cores: 16,
                vcs: 4,
                injection_rate: 0.2
            }
            .seed()
        );
    }
}
