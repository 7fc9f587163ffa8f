//! The experiment engine against a naive reference loop.
//!
//! The engine reuses a port's last gate decision while nothing it depends
//! on has changed, and records NBTI duty once per run of an unchanged
//! power mask. The reference below does neither: every port, every cycle,
//! it builds the view, decides, applies the gate, reads the statuses and
//! records one cycle of duty. Both must produce the same results field
//! for field — standalone runs, a drained epoch and its resume — across
//! policies, rotation periods, VC counts, wake-up latencies, warm-up,
//! sampling, invariant levels, tracing, sensor models and mesh shapes.

use nbti_model::{IdealSensor, NbtiParams, NbtiSensor, ProcessVariation, Volt};
use noc_sim::config::NocConfig;
use noc_sim::invariants::{InvariantKind, InvariantLevel, InvariantViolation};
use noc_sim::network::Network;
use noc_sim::snapshot::NetworkSnapshot;
use noc_sim::view::{PortId, PortView, VcStatus};
use noc_telemetry::{
    EventKind, MetricsSeries, RecordSink, Sample, TelemetryReport, TelemetrySpec, TraceEvent,
    TraceSink, WorkCounters,
};
use noc_traffic::source::{inject_from, TrafficSource};
use proptest::prelude::*;
use sensorwise::experiment::{EpochError, SensorModel};
use sensorwise::policy::{GatingPolicy, PolicyKind};
use sensorwise::{run_epoch, run_experiment, ExperimentConfig, NbtiMonitor, TrafficSpec};

/// Everything a run reports, in one comparable value.
#[derive(Debug, PartialEq)]
struct Outcome {
    ports: Vec<sensorwise::experiment::PortResult>,
    net: noc_sim::stats::NetStats,
    work: WorkCounters,
    invariant_violations: u64,
    violations: Vec<InvariantViolation>,
    telemetry: Option<TelemetryReport>,
    duty_totals: Vec<Vec<(u64, u64)>>,
    snapshot: Option<NetworkSnapshot>,
    drain_cycles: u64,
}

/// The every-port, every-cycle loop: what the engine did before it reused
/// decisions and batched duty, written against the public per-port calls.
#[allow(clippy::too_many_lines)]
fn reference_loop<S: NbtiSensor, T: TraceSink>(
    cfg: &ExperimentConfig,
    traffic: &mut dyn TrafficSource,
    mut net: Network<T>,
    mut monitor: NbtiMonitor<S>,
    drain: Option<u64>,
) -> Result<Outcome, EpochError> {
    let port_ids: Vec<PortId> = net.port_ids().to_vec();
    let mut policies: Vec<Box<dyn GatingPolicy>> = port_ids
        .iter()
        .map(|_| cfg.policy.build(cfg.rr_rotation_period))
        .collect();
    net.set_invariant_level(cfg.invariants);
    let budget = if cfg.invariants.is_enabled() {
        cfg.policy.idle_on_budget()
    } else {
        None
    };
    let mut warmup_violations = 0;
    let total = cfg.warmup_cycles + cfg.measure_cycles;
    let mut flits_at_warmup: Vec<u64> = if cfg.warmup_cycles == 0 {
        port_ids.iter().map(|&p| net.flits_received(p)).collect()
    } else {
        vec![0; port_ids.len()]
    };
    let md_period = cfg.md_refresh_period.max(1);
    let mut md_cache = vec![0usize; port_ids.len()];
    let mut engine_work = WorkCounters::default();
    let vcs_per_port = cfg.noc.vcs_per_port as u64;
    let sample_period = cfg.telemetry.sample_period;
    let mut series = (sample_period > 0).then(|| {
        MetricsSeries::new(
            sample_period,
            port_ids.iter().map(ToString::to_string).collect(),
        )
    });
    let mut churn_at_sample = vec![0u64; port_ids.len()];
    let mut view = PortView {
        port: port_ids[0],
        vc_status: Vec::new(),
        new_traffic: false,
    };
    let mut statuses: Vec<VcStatus> = Vec::new();
    let mut drain_cycles = 0u64;
    let settle = cfg.noc.credit_latency + cfg.noc.link_latency + 2;
    let mut settled = 0u64;
    let mut step = 0u64;
    loop {
        let draining = step >= total;
        if draining {
            let Some(limit) = drain else { break };
            if net.is_quiescent() {
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
                    in_network: net.flits_in_network(),
                    pending_injection: net.flits_pending_injection(),
                });
            }
        }
        let now = net.cycle();
        if cfg.policy.uses_sensors() && step.is_multiple_of(md_period) {
            for (i, &pid) in port_ids.iter().enumerate() {
                let md = monitor.most_degraded(pid);
                engine_work.sensor_reads += vcs_per_port;
                if T::ACTIVE && ((!draining && step == 0) || md != md_cache[i]) {
                    net.trace_mut().emit(TraceEvent {
                        cycle: now,
                        kind: EventKind::DownUp {
                            port: pid.into(),
                            md_vc: md as u8,
                        },
                    });
                }
                md_cache[i] = md;
            }
        }
        if !draining {
            inject_from(traffic, &mut net);
        }
        net.begin_cycle();
        for (i, &pid) in port_ids.iter().enumerate() {
            net.fill_port_view(pid, &mut view);
            let action = policies[i].decide(now, &view, md_cache[i]);
            engine_work.policy_evaluations += 1;
            net.apply_gate(pid, action);
        }
        if let Some(budget) = budget {
            for &pid in &port_ids {
                net.check_idle_on_budget(pid, budget);
            }
        }
        net.finish_cycle();
        step += 1;
        if draining {
            drain_cycles += 1;
            continue;
        }
        for &pid in &port_ids {
            net.vc_statuses_into(pid, &mut statuses);
            monitor.record_cycle(pid, &statuses);
        }
        if let Some(series) = series.as_mut() {
            if step.is_multiple_of(sample_period) {
                for (i, &pid) in port_ids.iter().enumerate() {
                    let duty = monitor.duty_cycles_percent(pid);
                    let churn_total = net.gate_transitions(pid);
                    series.push(Sample {
                        cycle: net.cycle(),
                        port: i as u32,
                        duty_percent: duty.iter().sum::<f64>() / duty.len() as f64,
                        occupancy: net.port_occupancy(pid) as u32,
                        churn: churn_total - churn_at_sample[i],
                        powered_vcs: net.powered_vc_count(pid) as u32,
                        delta_vth_mv: monitor.projected_delta_vth_mv(pid, NbtiParams::TEN_YEARS_S),
                    });
                    churn_at_sample[i] = churn_total;
                }
            }
        }
        if step == cfg.warmup_cycles {
            monitor.reset_duty();
            warmup_violations = net.stats().invariant_violations;
            net.reset_stats();
            for (base, &pid) in flits_at_warmup.iter_mut().zip(&port_ids) {
                *base = net.flits_received(pid);
            }
        }
    }

    let mut violations = net.take_violations();
    let mut duty_violations = 0;
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
    let snapshot = match drain {
        Some(_) => Some(net.snapshot().map_err(EpochError::Snapshot)?),
        None => None,
    };
    let duty_totals = match drain {
        Some(_) => port_ids.iter().map(|&p| monitor.duty_totals(p)).collect(),
        None => Vec::new(),
    };
    let ports = port_ids
        .iter()
        .zip(&flits_at_warmup)
        .map(|(&pid, &base)| sensorwise::experiment::PortResult {
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
    Ok(Outcome {
        ports,
        net: *net.stats(),
        work: net.work_counters() + engine_work,
        invariant_violations,
        violations,
        telemetry,
        duty_totals,
        snapshot,
        drain_cycles,
    })
}

/// The reference counterpart of `run_experiment` (ideal or quantized
/// sensors) and `run_epoch` (ideal sensors, optional resume and `Vth`s).
fn reference<T: TraceSink>(
    cfg: &ExperimentConfig,
    traffic: &mut dyn TrafficSource,
    mut net: Network<T>,
    resume: Option<&NetworkSnapshot>,
    vths: Option<&[Vec<Volt>]>,
    drain: Option<u64>,
) -> Result<Outcome, EpochError> {
    if let Some(snap) = resume {
        net.restore(snap).map_err(EpochError::Restore)?;
        if cfg.warmup_cycles == 0 {
            net.reset_stats();
        }
    }
    let port_ids = net.port_ids().to_vec();
    let vcs = cfg.noc.vcs_per_port;
    let mut pv = ProcessVariation::paper_45nm(cfg.pv_seed);
    match (cfg.sensor, vths) {
        (_, Some(vths)) => {
            let monitor = NbtiMonitor::<IdealSensor>::with_ideal_sensors_from_vths(
                &port_ids, vths, cfg.model,
            );
            reference_loop(cfg, traffic, net, monitor, drain)
        }
        (SensorModel::Ideal, None) => {
            let monitor = NbtiMonitor::with_ideal_sensors(&port_ids, vcs, &mut pv, cfg.model);
            reference_loop(cfg, traffic, net, monitor, drain)
        }
        (
            SensorModel::Quantized {
                lsb,
                noise_sigma,
                period,
            },
            None,
        ) => {
            let monitor = NbtiMonitor::with_quantized_sensors(
                &port_ids,
                vcs,
                &mut pv,
                cfg.model,
                lsb,
                noise_sigma,
                period,
                cfg.pv_seed ^ 0x5E45_0B5E,
            );
            reference_loop(cfg, traffic, net, monitor, drain)
        }
    }
}

fn reference_run(
    cfg: &ExperimentConfig,
    traffic: &mut dyn TrafficSource,
    resume: Option<&NetworkSnapshot>,
    vths: Option<&[Vec<Volt>]>,
    drain: Option<u64>,
) -> Result<Outcome, EpochError> {
    if cfg.telemetry.trace {
        let sink = RecordSink::with_capacity(cfg.telemetry.trace_capacity);
        let net = Network::with_sink(cfg.noc.clone(), sink).expect("valid config");
        reference(cfg, traffic, net, resume, vths, drain)
    } else {
        let net = Network::new(cfg.noc.clone()).expect("valid config");
        reference(cfg, traffic, net, resume, vths, drain)
    }
}

fn outcome(
    r: sensorwise::ExperimentResult,
    duty_totals: Vec<Vec<(u64, u64)>>,
    snapshot: Option<NetworkSnapshot>,
    drain_cycles: u64,
) -> Outcome {
    Outcome {
        ports: r.ports,
        net: r.net,
        work: r.work,
        invariant_violations: r.invariant_violations,
        violations: r.violations,
        telemetry: r.telemetry,
        duty_totals,
        snapshot,
        drain_cycles,
    }
}

fn engine_epoch(
    cfg: &ExperimentConfig,
    traffic: &mut dyn TrafficSource,
    resume: Option<&NetworkSnapshot>,
    vths: Option<&[Vec<Volt>]>,
) -> Result<Outcome, EpochError> {
    run_epoch(cfg, traffic, resume, vths, DRAIN_LIMIT)
        .map(|e| outcome(e.result, e.duty_totals, Some(e.snapshot), e.drain_cycles))
}

const DRAIN_LIMIT: u64 = 20_000;

const POLICIES: [PolicyKind; 5] = [
    PolicyKind::Baseline,
    PolicyKind::RrNoSensor,
    PolicyKind::SensorWiseNoTraffic,
    PolicyKind::SensorWise,
    PolicyKind::SensorWiseK(2),
];

/// One small mesh shape per arm, as `(cols, rows)`.
fn fabric(which: u8) -> (usize, usize) {
    match which % 3 {
        0 => (2, 2),
        1 => (3, 2),
        _ => (4, 1),
    }
}

/// The knobs one case turns, each drawn from a small set so every
/// combination class is hit within a few hundred cases.
#[derive(Debug, Clone)]
struct Case {
    policy: PolicyKind,
    rotation: u64,
    vcs: usize,
    wakeup: u64,
    warmup: u64,
    measure: u64,
    sample_period: u64,
    md_period: u64,
    full_invariants: bool,
    traced: bool,
    quantized: bool,
    fabric: u8,
    rate: f64,
    seed: u64,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        (0usize..5, any::<bool>(), 0usize..3, any::<bool>()),
        (any::<bool>(), 100u64..400, 0u64..3, any::<bool>()),
        (any::<bool>(), any::<bool>(), any::<bool>(), 0u8..3),
        (0.02f64..0.45, any::<u64>()),
    )
        .prop_map(
            |(
                (policy, rotation, vcs, wakeup),
                (warm, measure, sample, fine_md),
                (full_invariants, traced, quantized, fabric),
                (rate, seed),
            )| Case {
                policy: POLICIES[policy],
                rotation: if rotation { 7 } else { 1 },
                vcs: [1, 2, 4][vcs],
                wakeup: if wakeup { 3 } else { 0 },
                warmup: if warm { 20 + measure / 4 } else { 0 },
                measure,
                sample_period: [0, 1, 37][sample as usize],
                md_period: if fine_md { 1 } else { 16 },
                full_invariants,
                traced,
                quantized,
                fabric,
                rate,
                seed,
            },
        )
}

impl Case {
    fn config(&self) -> ExperimentConfig {
        let (cols, rows) = fabric(self.fabric);
        let noc = NocConfig {
            cols,
            rows,
            vcs_per_port: self.vcs,
            wakeup_latency: self.wakeup,
            ..NocConfig::default()
        };
        let mut cfg = ExperimentConfig::new(noc, self.policy)
            .with_cycles(self.warmup, self.measure)
            .with_pv_seed(self.seed ^ 0x5eed)
            .with_invariants(if self.full_invariants {
                InvariantLevel::Full
            } else {
                InvariantLevel::Off
            })
            .with_telemetry(TelemetrySpec {
                trace: self.traced,
                trace_capacity: 16,
                sample_period: self.sample_period,
            });
        cfg.rr_rotation_period = self.rotation;
        cfg.md_refresh_period = self.md_period;
        cfg
    }

    fn traffic(&self, cfg: &ExperimentConfig, salt: u64) -> Box<dyn TrafficSource> {
        TrafficSpec::Uniform {
            rate: self.rate,
            seed: self.seed ^ salt,
        }
        .build(&cfg.noc)
    }
}

/// Equal per-VC `Vth`s on every port: ties broken by aging alone, so the
/// sensors' most-degraded VC follows the recorded duty and moves often —
/// the election reads duty that only a timely flush makes current.
fn flat_vths(ports: &[sensorwise::experiment::PortResult]) -> Vec<Vec<Volt>> {
    ports
        .iter()
        .map(|p| vec![p.initial_vths[0]; p.initial_vths.len()])
        .collect()
}

proptest! {
    #[test]
    fn engine_matches_the_every_port_every_cycle_reference(case in case_strategy()) {
        let mut cfg = case.config();
        if case.quantized {
            cfg.sensor = SensorModel::Quantized {
                lsb: Volt::from_millivolts(0.01),
                noise_sigma: Volt::from_millivolts(0.02),
                period: 1 + case.seed % 40,
            };
        }
        let engine = run_experiment(&cfg, case.traffic(&cfg, 1).as_mut());
        let want = reference_run(&cfg, case.traffic(&cfg, 1).as_mut(), None, None, None)
            .expect("standalone runs cannot fail");
        prop_assert_eq!(outcome(engine, Vec::new(), None, 0), want);
    }

    #[test]
    fn engine_epochs_and_resumes_match_the_reference(case in case_strategy()) {
        let cfg = case.config();
        let e0 = engine_epoch(&cfg, case.traffic(&cfg, 2).as_mut(), None, None);
        let r0 = reference_run(&cfg, case.traffic(&cfg, 2).as_mut(), None, None, Some(DRAIN_LIMIT));
        prop_assert_eq!(&e0, &r0);
        let Ok(e0) = e0 else { return Ok(()) };
        let snap = e0.snapshot.as_ref().expect("epochs snapshot");
        let vths = flat_vths(&e0.ports);
        let e1 = engine_epoch(&cfg, case.traffic(&cfg, 3).as_mut(), Some(snap), Some(&vths));
        let r1 = reference_run(
            &cfg,
            case.traffic(&cfg, 3).as_mut(),
            Some(snap),
            Some(&vths),
            Some(DRAIN_LIMIT),
        );
        prop_assert_eq!(e1, r1);
    }
}

/// The sampled cases above must reach every class the property claims to
/// cover; this pins a few corners outright so no seed can skip them.
#[test]
fn corner_cases_match_the_reference() {
    for (policy, vcs, warmup, fabric) in [
        (PolicyKind::RrNoSensor, 1, 0, 0),
        (PolicyKind::SensorWise, 4, 30, 1),
        (PolicyKind::SensorWiseK(2), 2, 0, 2),
        (PolicyKind::SensorWiseNoTraffic, 2, 30, 0),
        (PolicyKind::Baseline, 2, 30, 1),
    ] {
        let case = Case {
            policy,
            rotation: 7,
            vcs,
            wakeup: 3,
            warmup,
            measure: 300,
            sample_period: 37,
            md_period: 1,
            full_invariants: true,
            traced: true,
            quantized: false,
            fabric,
            rate: 0.3,
            seed: 17,
        };
        let cfg = case.config();
        let engine = run_experiment(&cfg, case.traffic(&cfg, 1).as_mut());
        let want = reference_run(&cfg, case.traffic(&cfg, 1).as_mut(), None, None, None).unwrap();
        assert_eq!(
            engine.invariant_violations, 0,
            "{case:?}: {:?}",
            engine.violations
        );
        assert_eq!(outcome(engine, Vec::new(), None, 0), want, "{case:?}");
        let e0 = engine_epoch(&cfg, case.traffic(&cfg, 2).as_mut(), None, None).unwrap();
        let vths = flat_vths(&e0.ports);
        let snap = e0.snapshot.clone();
        let e1 = engine_epoch(
            &cfg,
            case.traffic(&cfg, 3).as_mut(),
            snap.as_ref(),
            Some(&vths),
        );
        let r1 = reference_run(
            &cfg,
            case.traffic(&cfg, 3).as_mut(),
            snap.as_ref(),
            Some(&vths),
            Some(DRAIN_LIMIT),
        );
        assert_eq!(e1, r1, "{case:?}");
    }
}
