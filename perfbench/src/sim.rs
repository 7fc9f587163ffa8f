//! The two cycle-loop workloads: `sim-4x4` (synthetic uniform traffic on
//! the canonical scenario) and `replay-8x8-sparse` (an NBTITRC trace of a
//! low-rate hotspot-server mix replayed on an 8×8 mesh).
//!
//! Untraced ops call the library's own entry points (`ExperimentJob::run`,
//! `run_experiment`). The traced run also drives a *replica* of the
//! engine's per-cycle loop through the same public calls, timing each
//! layer; the replica must reproduce the engine's per-port duty, packet
//! counts and work counters exactly, or its split would describe a
//! different program.

use crate::report::{rounded, EndToEnd, Report};
use crate::stats::{mean_of_fastest, mix, ms_since, peak_rss_mib, quantile, sorted};
use nbti_model::ProcessVariation;
use noc_sim::config::NocConfig;
use noc_sim::network::Network;
use noc_sim::stats::NetStats;
use noc_sim::types::NodeId;
use noc_sim::view::{PortId, PortView, VcStatus};
use noc_telemetry::{EventKind, NullSink, RecordSink, TraceEvent, TraceSink, WorkCounters};
use noc_traffic::source::{inject_from, TrafficSource};
use noc_workload::{decode_trace, MixGenerator, MixKind, MixSpec, TraceSource};
use sensorwise::{
    run_experiment, ExperimentConfig, ExperimentJob, ExperimentResult, GatingPolicy, NbtiMonitor,
    PolicyKind, PortResult, SyntheticScenario, TelemetrySpec,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Distinct traffic seeds a `sim-4x4` run cycles through.
const SIM_SEEDS: u64 = 4;
/// Warm-up and measured cycles of one `sim-4x4` op (2.2k cycles).
const SIM_CYCLES: (u64, u64) = (200, 2_000);
/// Warm-up and measured cycles of one `replay-8x8-sparse` op.
const REPLAY_CYCLES: (u64, u64) = (100, 1_100);
/// Mean injection probability per node per cycle of the replayed mix.
const REPLAY_RATE: f64 = 0.01;
/// Latency limit of one op: ops slower than this miss the objective.
const SIM_LIMIT_MS: f64 = 250.0;
const REPLAY_LIMIT_MS: f64 = 400.0;
/// The simulator's own op time is the mean of this many fastest ops of a
/// run. An op is fixed, deterministic work, so it only ever gets slower
/// under host contention: on a 2-vCPU KVM guest (Xeon, Sapphire Rapids)
/// the fastest `sim-4x4` ops of each 20 s window stayed within 52-55 ms
/// while the window medians ranged from 58 to 78 ms, and a pure-ALU
/// kernel timed alongside stayed flat.
pub const FAST_OPS: usize = 5;

/// Which cycle-loop workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    /// Dense uniform traffic on the 4×4 canonical scenario.
    Dense4x4,
    /// Sparse trace replay on an 8×8 mesh.
    Replay8x8,
}

/// One input of a run: an experiment config and how to build its traffic.
struct Input {
    cfg: ExperimentConfig,
    traffic: Traffic,
}

enum Traffic {
    Synthetic(Box<ExperimentJob>),
    Trace(TraceSource),
}

impl Input {
    fn source(&self) -> Box<dyn TrafficSource> {
        match &self.traffic {
            Traffic::Synthetic(job) => job.traffic.build(&job.cfg.noc),
            Traffic::Trace(trace) => Box::new(trace.clone()),
        }
    }

    /// One op through the library's entry point.
    fn run(&self) -> ExperimentResult {
        match &self.traffic {
            Traffic::Synthetic(job) => job.run(),
            Traffic::Trace(trace) => run_experiment(&self.cfg, &mut trace.clone()),
        }
    }

    fn cycles(&self) -> u64 {
        self.cfg.warmup_cycles + self.cfg.measure_cycles
    }
}

/// What set-up leaves behind for the measured ops.
struct Setup {
    inputs: Vec<Input>,
    /// The warm-up op's result per input: the reference every later op of
    /// that input must reproduce.
    expected: Vec<ExperimentResult>,
    /// Trace bytes decoded in set-up (replay only) and how long it took.
    decode: Option<(usize, Duration)>,
    /// Seconds spent building the inputs.
    build_s: f64,
    /// Milliseconds of each input's warm-up op.
    warm_ms: Vec<f64>,
}

fn canonical_job(seed: u64, k: u64) -> ExperimentJob {
    let scenario = SyntheticScenario {
        cores: 16,
        vcs: 2,
        injection_rate: 0.2,
    };
    let mut job = scenario.job(PolicyKind::SensorWise, SIM_CYCLES.0, SIM_CYCLES.1);
    job.traffic = job.traffic.with_seed(mix(seed, 0x51_0000 + k));
    job
}

fn replay_cfg() -> ExperimentConfig {
    // Process variation is tied to the architecture alone, as for
    // `nbti-noc run --trace-in`.
    let pv_seed = SyntheticScenario {
        cores: 64,
        vcs: 2,
        injection_rate: 0.0,
    }
    .seed();
    ExperimentConfig::new(NocConfig::paper_synthetic(64, 2), PolicyKind::SensorWise)
        .with_cycles(REPLAY_CYCLES.0, REPLAY_CYCLES.1)
        .with_pv_seed(pv_seed)
}

/// Builds the inputs and runs the warm-up ops: everything a user pays
/// before the first measured op.
fn setup(kind: SimKind, seed: u64) -> Result<Setup, String> {
    let start = Instant::now();
    let (inputs, decode) = match kind {
        SimKind::Dense4x4 => {
            let inputs = (0..SIM_SEEDS)
                .map(|k| {
                    let job = canonical_job(seed, k);
                    Input {
                        cfg: job.cfg.clone(),
                        traffic: Traffic::Synthetic(Box::new(job)),
                    }
                })
                .collect();
            (inputs, None)
        }
        SimKind::Replay8x8 => {
            let cfg = replay_cfg();
            let spec = MixSpec {
                kind: MixKind::HotspotServer,
                nodes: 64,
                rate: REPLAY_RATE,
                packet_len: cfg.noc.flits_per_packet as u16,
                seed: mix(seed, 0x8888),
            };
            let bytes = MixGenerator::new(spec)
                .write_trace(cfg.warmup_cycles + cfg.measure_cycles)
                .map_err(|e| format!("trace generation failed: {e}"))?
                .finish();
            let t = Instant::now();
            let (header, records) =
                decode_trace(&bytes).map_err(|e| format!("trace decode failed: {e}"))?;
            let took = t.elapsed();
            if usize::from(header.num_nodes) != cfg.noc.num_nodes() {
                return Err("trace node count does not match the fabric".to_string());
            }
            let n = records.len();
            let input = Input {
                cfg,
                traffic: Traffic::Trace(TraceSource::from_records(records, "hotspot-server")),
            };
            (vec![input], Some((n, took)))
        }
    };
    let build_s = start.elapsed().as_secs_f64();
    let mut warm_ms = Vec::new();
    let expected = inputs
        .iter()
        .map(|input| {
            let t = Instant::now();
            let result = input.run();
            warm_ms.push(ms_since(t));
            result
        })
        .collect();
    Ok(Setup {
        inputs,
        expected,
        decode,
        build_s,
        warm_ms,
    })
}

/// `true` when two runs of one input simulated the same thing.
fn same_run(
    a: &ExperimentResult,
    ports: &[PortResult],
    net: &NetStats,
    work: &WorkCounters,
) -> bool {
    a.ports == ports && a.net == *net && a.work == *work
}

/// Per-layer wall time accumulated by the replica loop, plus the counts
/// its ratios are built from.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub inject: Duration,
    pub begin: Duration,
    pub controller: Duration,
    pub finish: Duration,
    pub monitor: Duration,
    pub sensor: Duration,
    /// Time the benchmark spends counting busy ports (not the program's).
    pub probe: Duration,
    pub cycles: u64,
    pub port_cycles: u64,
    pub busy_port_cycles: u64,
    pub elections: u64,
    pub md_changes: u64,
}

impl Layers {
    fn program_total(&self) -> Duration {
        self.inject + self.begin + self.controller + self.finish + self.monitor + self.sensor
    }
}

/// What one replica op simulated.
struct Replica {
    ports: Vec<PortResult>,
    net: NetStats,
    work: WorkCounters,
    digest: Option<u64>,
}

/// The engine's per-cycle loop for a fresh network, ideal sensors and no
/// invariant checking or sampling, rebuilt from public calls in the
/// order `run_loop_inner` makes them, with each layer timed.
fn replica<T: TraceSink>(
    cfg: &ExperimentConfig,
    traffic: &mut dyn TrafficSource,
    mut net: Network<T>,
    layers: &mut Layers,
) -> Replica {
    let port_ids: Vec<PortId> = net.port_ids().to_vec();
    let mut pv = ProcessVariation::paper_45nm(cfg.pv_seed);
    let mut monitor =
        NbtiMonitor::with_ideal_sensors(&port_ids, cfg.noc.vcs_per_port, &mut pv, cfg.model);
    let mut policies: Vec<Box<dyn GatingPolicy>> = port_ids
        .iter()
        .map(|_| cfg.policy.build(cfg.rr_rotation_period))
        .collect();
    let uses_sensors = cfg.policy.uses_sensors();
    net.set_invariant_level(cfg.invariants);
    let total = cfg.warmup_cycles + cfg.measure_cycles;
    let mut flits_at_warmup = vec![0u64; port_ids.len()];
    let md_period = cfg.md_refresh_period.max(1);
    let mut md_cache = vec![0usize; port_ids.len()];
    let mut engine_work = WorkCounters::default();
    let vcs_per_port = cfg.noc.vcs_per_port as u64;
    let mut view = PortView {
        port: PortId::nic_eject(NodeId(0)),
        vc_status: Vec::new(),
        new_traffic: false,
    };
    let mut statuses: Vec<VcStatus> = Vec::new();
    let mut t;
    for step in 0..total {
        let now = net.cycle();
        if uses_sensors && step % md_period == 0 {
            t = Instant::now();
            for (i, &pid) in port_ids.iter().enumerate() {
                let md = monitor.most_degraded(pid);
                engine_work.sensor_reads += vcs_per_port;
                if T::ACTIVE && (step == 0 || md != md_cache[i]) {
                    net.trace_mut().emit(TraceEvent {
                        cycle: now,
                        kind: EventKind::DownUp {
                            port: pid.into(),
                            md_vc: md as u8,
                        },
                    });
                }
                if step > 0 {
                    layers.elections += 1;
                    layers.md_changes += u64::from(md != md_cache[i]);
                }
                md_cache[i] = md;
            }
            lap(&mut layers.sensor, &mut t);
        } else {
            t = Instant::now();
        }
        inject_from(traffic, &mut net);
        lap(&mut layers.inject, &mut t);
        net.begin_cycle();
        lap(&mut layers.begin, &mut t);
        for (i, &pid) in port_ids.iter().enumerate() {
            net.fill_port_view(pid, &mut view);
            let action = policies[i].decide(now, &view, md_cache[i]);
            engine_work.policy_evaluations += 1;
            net.apply_gate(pid, action);
        }
        lap(&mut layers.controller, &mut t);
        net.finish_cycle();
        lap(&mut layers.finish, &mut t);
        for &pid in &port_ids {
            net.vc_statuses_into(pid, &mut statuses);
            monitor.record_cycle(pid, &statuses);
        }
        lap(&mut layers.monitor, &mut t);
        for &pid in &port_ids {
            layers.busy_port_cycles += u64::from(net.port_occupancy(pid) > 0);
        }
        layers.port_cycles += port_ids.len() as u64;
        lap(&mut layers.probe, &mut t);
        if step + 1 == cfg.warmup_cycles {
            monitor.reset_duty();
            net.reset_stats();
            for (slot, &pid) in flits_at_warmup.iter_mut().zip(&port_ids) {
                *slot = net.flits_received(pid);
            }
        }
    }
    layers.cycles += total;
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
    let digest = net.trace_mut().harvest().map(|log| log.digest);
    Replica {
        ports,
        net: *net.stats(),
        work: net.work_counters() + engine_work,
        digest,
    }
}

/// Adds the time since `t` to `bucket` and restarts `t`.
fn lap(bucket: &mut Duration, t: &mut Instant) {
    let now = Instant::now();
    *bucket += now - *t;
    *t = now;
}

/// Runs the workload untraced for `seconds` and reports the end-to-end
/// metrics. The first of the `setups` set-ups runs before the window, the
/// others at even intervals inside it; every one must build inputs that
/// simulate the same.
///
/// Set-up is building the inputs plus one op per input, all fixed work
/// that only gets slower under contention, so `setup_s` costs each part at
/// its fastest repetition: the fastest build, plus each input's fastest
/// op. A warm-up op is the same call on a freshly built input as a
/// measured op, so every op of that input in the run is a repetition.
pub fn run(kind: SimKind, seed: u64, seconds: f64, setups: usize) -> Result<Report, String> {
    let t = Instant::now();
    let state = setup(kind, seed)?;
    let mut totals = vec![t.elapsed().as_secs_f64()];
    let mut builds = vec![state.build_s];
    let mut fastest = state.warm_ms.clone();
    let mut report = Report::default();
    check_references(&state, &mut report);

    let every = seconds / setups as f64;
    let mut times = Vec::new();
    let mut ok_ms = Vec::new();
    let mut cycles = 0u64;
    let window = Instant::now();
    let mut i = 0usize;
    while window.elapsed().as_secs_f64() < seconds {
        if totals.len() < setups && window.elapsed().as_secs_f64() >= every * totals.len() as f64 {
            let t = Instant::now();
            let again = setup(kind, seed)?;
            totals.push(t.elapsed().as_secs_f64());
            builds.push(again.build_s);
            for (f, &w) in fastest.iter_mut().zip(&again.warm_ms) {
                *f = f.min(w);
            }
            let same = again
                .expected
                .iter()
                .zip(&state.expected)
                .all(|(a, b)| same_run(a, &b.ports, &b.net, &b.work));
            if !same {
                report.fail(format!("set-up {} built different inputs", totals.len()));
            }
            continue;
        }
        let k = i % state.inputs.len();
        let input = &state.inputs[k];
        let t = Instant::now();
        let result = black_box(input.run());
        let ms = ms_since(t);
        times.push(ms);
        fastest[k] = fastest[k].min(ms);
        cycles += input.cycles();
        report.attempted += 1;
        let exp = &state.expected[k];
        if same_run(exp, &result.ports, &result.net, &result.work) {
            ok_ms.push(ms);
        } else {
            report.fail(format!("op {i}: input {k} diverged from its warm-up run"));
        }
        i += 1;
    }
    let fast_ms = mean_of_fastest(&times, FAST_OPS);
    let per_op_cycles = cycles as f64 / times.len() as f64;
    let limit = match kind {
        SimKind::Dense4x4 => SIM_LIMIT_MS,
        SimKind::Replay8x8 => REPLAY_LIMIT_MS,
    };
    report.end_to_end(EndToEnd {
        peak_rss_mb: peak_rss_mib(),
        sim_kcycles_per_s: per_op_cycles / fast_ms,
        ops_per_s: 1e3 / fast_ms,
        op_p50_ms: fast_ms,
        op_ms: &ok_ms,
        limit_ms: limit,
        attempted: report.attempted,
    });
    let build = builds.iter().copied().fold(f64::INFINITY, f64::min);
    report.setup(
        build + fastest.iter().sum::<f64>() / 1e3,
        format!(
            "fastest build of {} ({:.3} ms) + each input's fastest op ({}); set-up totals {}",
            builds.len(),
            build * 1e3,
            rounded(&fastest, 1.0),
            rounded(&totals, 1e3),
        ),
    );
    report.note(format!(
        "op time {fast_ms:.3} ms = mean of the {FAST_OPS} fastest of {} ops of {per_op_cycles:.0} cycles; \
         median op {:.3} ms, {:.2} ops/s over the window",
        times.len(),
        quantile(&sorted(&times), 0.5),
        times.len() as f64 / window.elapsed().as_secs_f64(),
    ));
    report.sim_stats = Some(sim_stats(&state));
    Ok(report)
}

/// Traced references: each input run once with the event trace on. The
/// traced run must simulate exactly what the untraced warm-up run did.
fn check_references(state: &Setup, report: &mut Report) {
    for (k, (input, exp)) in state.inputs.iter().zip(&state.expected).enumerate() {
        let traced = traced_reference(input);
        if !same_run(exp, &traced.ports, &traced.net, &traced.work) {
            report.fail(format!(
                "input {k}: traced reference diverged from the untraced run"
            ));
        }
    }
}

fn traced_reference(input: &Input) -> ExperimentResult {
    let mut cfg = input.cfg.clone();
    cfg.telemetry = TelemetrySpec {
        trace: true,
        trace_capacity: 1,
        sample_period: 0,
    };
    run_experiment(&cfg, input.source().as_mut())
}

/// Exact simulated statistics of every input, for speed-only changes to
/// compare against.
fn sim_stats(state: &Setup) -> String {
    let rows: Vec<String> = state
        .inputs
        .iter()
        .zip(&state.expected)
        .map(|(input, r)| {
            let digest = traced_reference(input).trace_digest().unwrap_or(0);
            let md: Vec<f64> = r.ports.iter().map(PortResult::md_duty).collect();
            let md_mean = md.iter().sum::<f64>() / md.len() as f64;
            let w = r.work;
            format!(
                "{{\"md_vc_duty_percent_mean\":{md_mean:.6},\"packets_delivered\":{},\
                 \"mean_packet_latency_cycles\":{:.6},\"trace_digest\":\"{digest:016x}\",\
                 \"work\":{{\"bw_writes\":{},\"rc_computes\":{},\"va_grants\":{},\"sa_grants\":{},\
                 \"gate_commands\":{},\"policy_evaluations\":{},\"sensor_reads\":{}}}}}",
                r.net.packets_ejected,
                r.net.avg_latency().unwrap_or(0.0),
                w.bw_writes,
                w.rc_computes,
                w.va_grants,
                w.sa_grants,
                w.gate_commands,
                w.policy_evaluations,
                w.sensor_reads,
            )
        })
        .collect();
    format!("[{}]", rows.join(","))
}

/// The traced run: untraced library ops alternate with timed replica ops
/// of the same input, and every replica op must match its input's
/// reference.
pub fn run_traced(kind: SimKind, seed: u64, seconds: f64) -> Result<Report, String> {
    let state = setup(kind, seed)?;
    let mut report = Report::default();
    check_references(&state, &mut report);
    let mut layers = Layers::default();
    let mut plain_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let window = Instant::now();
    let mut i = 0usize;
    while window.elapsed().as_secs_f64() < seconds {
        let k = (i / 2) % state.inputs.len();
        let input = &state.inputs[k];
        let exp = &state.expected[k];
        report.attempted += 1;
        if i.is_multiple_of(2) {
            let t = Instant::now();
            let r = black_box(input.run());
            plain_ms.push(ms_since(t));
            if !same_run(exp, &r.ports, &r.net, &r.work) {
                report.fail(format!("op {i}: input {k} diverged from its warm-up run"));
            }
        } else {
            let before = layers.clone();
            let t = Instant::now();
            let mut source = input.source();
            let net = Network::new(input.cfg.noc.clone()).map_err(|e| e.to_string())?;
            let r = replica::<NullSink>(&input.cfg, source.as_mut(), net, &mut layers);
            let op = t.elapsed();
            traced_ms.push(op.as_secs_f64() * 1e3);
            let cycles = layers.cycles - before.cycles;
            report.op_spans(
                "op",
                i as u64,
                op,
                &[
                    ("traffic.inject_from", layers.inject - before.inject, cycles),
                    ("noc_sim.begin_cycle", layers.begin - before.begin, cycles),
                    (
                        "core.controller",
                        layers.controller - before.controller,
                        cycles,
                    ),
                    (
                        "noc_sim.finish_cycle",
                        layers.finish - before.finish,
                        cycles,
                    ),
                    ("core.monitor", layers.monitor - before.monitor, cycles),
                    ("core.sensor", layers.sensor - before.sensor, cycles),
                    ("bench.probe", layers.probe - before.probe, cycles),
                ],
            );
            if !same_run(exp, &r.ports, &r.net, &r.work) {
                report.fail(format!(
                    "op {i}: replica of input {k} diverged from run_experiment"
                ));
            }
        }
        i += 1;
    }
    // The replica under a recording sink must also reproduce the traced
    // reference's event-stream digest.
    for (k, input) in state.inputs.iter().enumerate() {
        let reference = traced_reference(input);
        let net = Network::with_sink(input.cfg.noc.clone(), RecordSink::with_capacity(1))
            .map_err(|e| e.to_string())?;
        let mut scratch = Layers::default();
        let r = replica(&input.cfg, input.source().as_mut(), net, &mut scratch);
        if r.digest != reference.trace_digest() || !same_run(&reference, &r.ports, &r.net, &r.work)
        {
            report.fail(format!(
                "input {k}: traced replica digest differs from run_experiment"
            ));
        }
    }
    let replica_ops = traced_ms.len() as f64;
    let op_total: f64 = traced_ms.iter().sum::<f64>() * 1e6;
    let per_cycle = |d: Duration| d.as_nanos() as f64 / layers.cycles as f64;
    let program = layers.program_total().as_nanos() as f64;
    let probe = layers.probe.as_nanos() as f64;
    let residual = (op_total - program - probe) / layers.cycles as f64;
    let work = {
        // Work counters are exact, so one reference per input suffices.
        let mut w = WorkCounters::default();
        for r in &state.expected {
            w += r.work;
        }
        w
    };
    let cycles_per_round: u64 = state.inputs.iter().map(Input::cycles).sum();
    report.layer(
        "traffic.inject_ns_per_cycle",
        per_cycle(layers.inject),
        "ns",
    );
    report.layer(
        "noc_sim.begin_cycle_ns_per_cycle",
        per_cycle(layers.begin),
        "ns",
    );
    report.layer(
        "noc_sim.finish_cycle_ns_per_cycle",
        per_cycle(layers.finish),
        "ns",
    );
    report.layer(
        "core.controller_ns_per_cycle",
        per_cycle(layers.controller),
        "ns",
    );
    report.layer("core.monitor_ns_per_cycle", per_cycle(layers.monitor), "ns");
    report.layer("core.sensor_ns_per_cycle", per_cycle(layers.sensor), "ns");
    report.layer("sim.residual_ns_per_cycle", residual, "ns");
    report.layer(
        "noc_sim.busy_port_ratio",
        layers.busy_port_cycles as f64 / layers.port_cycles as f64,
        "ratio",
    );
    report.layer(
        "noc_sim.flits_per_cycle",
        work.bw_writes as f64 / cycles_per_round as f64,
        "flits",
    );
    report.layer(
        "core.gate_command_ratio",
        work.gate_commands as f64 / work.policy_evaluations as f64,
        "ratio",
    );
    report.layer(
        "core.md_change_ratio",
        layers.md_changes as f64 / layers.elections.max(1) as f64,
        "ratio",
    );
    if let Some((records, took)) = state.decode {
        report.layer(
            "workload.decode_mrecords_per_s",
            records as f64 / took.as_secs_f64() / 1e6,
            "Mrecords/s",
        );
    }
    report.overhead(&plain_ms, &traced_ms);
    report.note(format!(
        "reconcile: {replica_ops:.0} replica ops, {:.1} ns/cycle = layers {:.1} + bench probe {:.1} + residual {residual:.1}",
        op_total / layers.cycles as f64,
        program / layers.cycles as f64,
        probe / layers.cycles as f64,
    ));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_job(policy: PolicyKind, seed: u64) -> ExperimentJob {
        let scenario = SyntheticScenario {
            cores: 4,
            vcs: 2,
            injection_rate: 0.2,
        };
        let mut job = scenario.job(policy, 100, 600);
        job.traffic = job.traffic.with_seed(seed);
        job.cfg.telemetry = TelemetrySpec {
            trace: true,
            trace_capacity: 1,
            sample_period: 0,
        };
        job
    }

    fn replicate(job: &ExperimentJob) -> Replica {
        let net = Network::with_sink(job.cfg.noc.clone(), RecordSink::with_capacity(1))
            .expect("valid config");
        let mut source = job.traffic.build(&job.cfg.noc);
        replica(&job.cfg, source.as_mut(), net, &mut Layers::default())
    }

    #[test]
    fn replica_loop_reproduces_run_experiment() {
        for policy in [
            PolicyKind::SensorWise,
            PolicyKind::RrNoSensor,
            PolicyKind::Baseline,
        ] {
            let job = small_job(policy, 9);
            let reference = job.run();
            let r = replicate(&job);
            assert!(same_run(&reference, &r.ports, &r.net, &r.work), "{policy}");
            assert_eq!(r.digest, reference.trace_digest(), "{policy}");
            assert!(r.digest.is_some());
        }
    }

    #[test]
    fn replica_of_the_trace_input_matches_and_the_check_sees_divergence() {
        let state = setup(SimKind::Replay8x8, 3).expect("replay set-up");
        let input = &state.inputs[0];
        let net = Network::new(input.cfg.noc.clone()).expect("valid config");
        let r = replica(
            &input.cfg,
            input.source().as_mut(),
            net,
            &mut Layers::default(),
        );
        assert!(same_run(&state.expected[0], &r.ports, &r.net, &r.work));

        let other = replicate(&small_job(PolicyKind::SensorWise, 10));
        let reference = small_job(PolicyKind::SensorWise, 9).run();
        assert!(!same_run(&reference, &other.ports, &other.net, &other.work));
    }
}
