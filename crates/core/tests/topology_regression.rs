//! Mesh regression oracle.
//!
//! Golden trace digests and work counters of mesh runs, captured before
//! the engine changes they guard (the fabric trait and its removal, the
//! due schedule, the VC arena, parked NICs), for every policy. A change
//! that is meant to be speed-only must leave every one of them
//! bit-identical.

use noc_sim::config::NocConfig;
use noc_telemetry::TelemetrySpec;
use sensorwise::policy::PolicyKind;
use sensorwise::{run_experiment, ExperimentConfig, TrafficSpec};

const POLICIES: [PolicyKind; 5] = [
    PolicyKind::Baseline,
    PolicyKind::RrNoSensor,
    PolicyKind::SensorWiseNoTraffic,
    PolicyKind::SensorWise,
    PolicyKind::SensorWiseK(2),
];

fn digest_for(policy: PolicyKind, cores: usize) -> u64 {
    digest_with_routing(policy, cores, noc_sim::routing::RoutingAlgorithm::XY)
}

fn digest_with_routing(
    policy: PolicyKind,
    cores: usize,
    routing: noc_sim::routing::RoutingAlgorithm,
) -> u64 {
    let mut noc = NocConfig::paper_synthetic(cores, 2);
    noc.routing = routing;
    let cfg = ExperimentConfig::new(noc.clone(), policy)
        .with_cycles(300, 3_000)
        .with_pv_seed(0x70_70_01)
        .with_telemetry(TelemetrySpec {
            trace: true,
            trace_capacity: 0,
            sample_period: 0,
        });
    let spec = TrafficSpec::Uniform {
        rate: 0.12,
        seed: 0xDEAD_0001,
    };
    let mut traffic = spec.build(&noc);
    let result = run_experiment(&cfg, traffic.as_mut());
    result.trace_digest().expect("trace was requested")
}

/// Golden digests captured on the network before the fabric trait (4×4 mesh,
/// 2 VCs, XY, uniform 0.12, 300+3000 cycles, pv seed 0x707001, traffic
/// seed 0xDEAD0001), one per policy.
const GOLDEN_BY_POLICY: [u64; 5] = [
    0x9e31_5169_1c9d_0d3b, // Baseline
    0xa23b_26fe_2887_8df5, // RrNoSensor
    0x9f7b_0bdd_39ca_78d0, // SensorWiseNoTraffic
    0xc60f_c45d_2b9e_391b, // SensorWise
    0x1f1d_2cec_b57e_4e72, // SensorWiseK(2)
];

#[test]
fn mesh_digests_match_pre_refactor_goldens() {
    for (policy, golden) in POLICIES.into_iter().zip(GOLDEN_BY_POLICY) {
        let digest = digest_for(policy, 16);
        assert_eq!(
            digest, golden,
            "{policy:?}: digest {digest:#018x} != pre-refactor golden {golden:#018x}"
        );
    }
}

/// The seven work counters (bw, rc, va, sa, gate, policy, sensor).
fn work_array(w: noc_telemetry::WorkCounters) -> [u64; 7] {
    [
        w.bw_writes,
        w.rc_computes,
        w.va_grants,
        w.sa_grants,
        w.gate_commands,
        w.policy_evaluations,
        w.sensor_reads,
    ]
}

/// Multi-cycle links and credit returns: a 4×4 mesh with `link_latency`
/// 3, `credit_latency` 2 and `wakeup_latency` 2 (2 VCs, uniform 0.12,
/// 300+3000 cycles). The rr-no-sensor candidate rotates every 7 cycles:
/// rotating every cycle would move the designation faster than a gated
/// VC wakes, and nothing would flow. The trace digest and the seven work
/// counters.
fn multi_cycle_run(policy: PolicyKind) -> (u64, [u64; 7]) {
    let noc = NocConfig {
        link_latency: 3,
        credit_latency: 2,
        wakeup_latency: 2,
        ..NocConfig::paper_synthetic(16, 2)
    };
    let mut cfg = ExperimentConfig::new(noc.clone(), policy)
        .with_cycles(300, 3_000)
        .with_pv_seed(0x70_70_01)
        .with_telemetry(TelemetrySpec {
            trace: true,
            trace_capacity: 0,
            sample_period: 0,
        });
    cfg.rr_rotation_period = 7;
    let spec = TrafficSpec::Uniform {
        rate: 0.12,
        seed: 0xDEAD_0001,
    };
    let mut traffic = spec.build(&noc);
    let result = run_experiment(&cfg, traffic.as_mut());
    let digest = result.trace_digest().expect("trace was requested");
    (digest, work_array(result.work))
}

#[test]
fn multi_cycle_links_match_goldens() {
    let golden: [(PolicyKind, (u64, [u64; 7])); 2] = [
        (
            PolicyKind::RrNoSensor,
            (
                0xbfe0_0e62_26ea_fa50,
                [30_531, 4_799, 4_799, 23_965, 264_000, 264_000, 0],
            ),
        ),
        (
            PolicyKind::SensorWise,
            (
                0x03e7_c178_5ef6_b105,
                [30_537, 4_801, 4_799, 23_983, 264_000, 264_000, 8_320],
            ),
        ),
    ];
    for (policy, want) in golden {
        assert_eq!(
            multi_cycle_run(policy),
            want,
            "{policy:?}: digest/work moved"
        );
    }
}

/// The sparse replay: an 8×8 mesh (2 VCs, sensor-wise, 100+1100 cycles)
/// replaying a `hotspot-server` NBTITRC trace at 0.01 packets per node per
/// cycle, encoded and decoded through the wire format. Most routers are
/// idle on most cycles.
fn sparse_replay_run() -> (u64, [u64; 7]) {
    use noc_workload::{decode_trace, MixGenerator, MixKind, MixSpec, TraceSource};

    let noc = NocConfig::paper_synthetic(64, 2);
    let pv_seed = sensorwise::SyntheticScenario {
        cores: 64,
        vcs: 2,
        injection_rate: 0.0,
    }
    .seed();
    let cfg = ExperimentConfig::new(noc.clone(), PolicyKind::SensorWise)
        .with_cycles(100, 1_100)
        .with_pv_seed(pv_seed)
        .with_telemetry(TelemetrySpec {
            trace: true,
            trace_capacity: 0,
            sample_period: 0,
        });
    let spec = MixSpec {
        kind: MixKind::HotspotServer,
        nodes: 64,
        rate: 0.01,
        packet_len: noc.flits_per_packet as u16,
        seed: 0x8888_0007,
    };
    let bytes = MixGenerator::new(spec)
        .write_trace(1_200)
        .expect("trace generation")
        .finish();
    let (_, records) = decode_trace(&bytes).expect("trace decodes");
    let mut traffic = TraceSource::from_records(records, "hotspot-server");
    let result = run_experiment(&cfg, &mut traffic);
    let digest = result.trace_digest().expect("trace was requested");
    (digest, work_array(result.work))
}

#[test]
fn sparse_8x8_replay_matches_golden() {
    assert_eq!(
        sparse_replay_run(),
        (
            0xea21_a109_9a19_15af,
            [11_908, 2_107, 1_999, 9_909, 422_400, 422_400, 13_376]
        )
    );
}

/// The same oracle across routing algorithms, pinning the adaptive
/// (West-First) credit-tie-break path through the trait as well.
#[test]
fn mesh_routing_variants_match_pre_refactor_goldens() {
    use noc_sim::routing::RoutingAlgorithm;
    let golden = [
        (RoutingAlgorithm::XY, 0xc60f_c45d_2b9e_391b_u64),
        (RoutingAlgorithm::YX, 0xf68e_9284_f20a_cf17),
        (RoutingAlgorithm::WestFirst, 0x3d6f_2618_f281_5a16),
    ];
    for (routing, want) in golden {
        let digest = digest_with_routing(PolicyKind::SensorWise, 16, routing);
        assert_eq!(
            digest, want,
            "{routing:?}: digest {digest:#018x} != pre-refactor golden {want:#018x}"
        );
    }
}

/// What the trace digests do not cover: the seven work counters and the
/// per-port, per-VC `(stress, recovery)` duty totals of a drained epoch.
/// An engine that skips or batches per-port work must leave all of them
/// exactly as the plain every-port-every-cycle loop produced them.
fn work_and_duty(policy: PolicyKind) -> ([u64; 7], u64, u64) {
    let noc = NocConfig::paper_synthetic(16, 2);
    let cfg = ExperimentConfig::new(noc.clone(), policy)
        .with_cycles(300, 3_000)
        .with_pv_seed(0x70_70_01);
    let spec = TrafficSpec::Uniform {
        rate: 0.12,
        seed: 0xDEAD_0001,
    };
    let mut traffic = spec.build(&noc);
    let epoch =
        sensorwise::run_epoch(&cfg, traffic.as_mut(), None, None, 100_000).expect("epoch drains");
    let w = epoch.result.work;
    let work = [
        w.bw_writes,
        w.rc_computes,
        w.va_grants,
        w.sa_grants,
        w.gate_commands,
        w.policy_evaluations,
        w.sensor_reads,
    ];
    let mut digest = noc_telemetry::digest::fnv1a_64(&[]);
    let mut stress_total = 0;
    for port in &epoch.duty_totals {
        for &(stress, recovery) in port {
            assert_eq!(stress + recovery, 3_000, "{policy:?}: duty closure");
            stress_total += stress;
            digest = noc_telemetry::digest::fnv1a_64_fold(digest, &stress.to_le_bytes());
            digest = noc_telemetry::digest::fnv1a_64_fold(digest, &recovery.to_le_bytes());
        }
    }
    (work, stress_total, digest)
}

/// `work_and_duty` per policy, captured on the every-port-every-cycle
/// engine: work counters (bw, rc, va, sa, gate, policy, sensor), the
/// summed stress cycles and an FNV-1a digest of every `(stress,
/// recovery)` pair in port order.
const GOLDEN_WORK_AND_DUTY: [([u64; 7], u64, u64); 5] = [
    (
        [30_735, 4_827, 4_827, 24_135, 266_080, 266_080, 0],
        480_000,
        0xabce_7126_b88b_cd25,
    ), // Baseline
    (
        [30_735, 4_827, 4_827, 24_135, 266_080, 266_080, 0],
        52_091,
        0xb13b_5aff_9374_fb75,
    ), // RrNoSensor
    (
        [30_735, 4_827, 4_827, 24_135, 266_080, 266_080, 8_320],
        278_778,
        0x16fc_279f_2f6a_a824,
    ), // SensorWiseNoTraffic
    (
        [30_735, 4_827, 4_827, 24_135, 266_080, 266_080, 8_320],
        52_122,
        0x31e9_d202_54de_2062,
    ), // SensorWise
    (
        [30_735, 4_827, 4_827, 24_135, 266_080, 266_080, 8_320],
        60_348,
        0x74a6_10ef_0101_6df1,
    ), // SensorWiseK(2)
];

#[test]
fn work_counters_and_duty_totals_match_goldens() {
    for (policy, golden) in POLICIES.into_iter().zip(GOLDEN_WORK_AND_DUTY) {
        assert_eq!(work_and_duty(policy), golden, "{policy:?}: work/duty moved");
    }
}

/// The sparse replay with waking VCs: the 8×8 `hotspot-server` replay of
/// `sparse_replay_run` with `wakeup_latency` 2, so a NIC whose queue head
/// finds only a freshly powered VC waits for it to wake. The rr-no-sensor
/// candidate rotates every 7 cycles, slower than a VC wakes. The trace
/// digest, the seven work counters, and an FNV-1a digest of every port's
/// final MD VC in port order (the last one its sensors elected, or its
/// initial one when the policy has no sensors) with the count of ports
/// whose MD VC is VC 1. Captured before blocked NICs left the active set
/// and before elections were certified from process variation.
fn waking_replay_run(policy: PolicyKind) -> (u64, [u64; 7], u64, usize) {
    use noc_telemetry::{EventKind, PortCode};
    use noc_workload::{decode_trace, MixGenerator, MixKind, MixSpec, TraceSource};
    use std::collections::BTreeMap;

    let noc = NocConfig {
        wakeup_latency: 2,
        ..NocConfig::paper_synthetic(64, 2)
    };
    let pv_seed = sensorwise::SyntheticScenario {
        cores: 64,
        vcs: 2,
        injection_rate: 0.0,
    }
    .seed();
    let mut cfg = ExperimentConfig::new(noc.clone(), policy)
        .with_cycles(100, 1_100)
        .with_pv_seed(pv_seed)
        .with_telemetry(TelemetrySpec {
            trace: true,
            trace_capacity: 0,
            sample_period: 0,
        });
    cfg.rr_rotation_period = 7;
    let spec = MixSpec {
        kind: MixKind::HotspotServer,
        nodes: 64,
        rate: 0.01,
        packet_len: noc.flits_per_packet as u16,
        seed: 0x8888_0007,
    };
    let bytes = MixGenerator::new(spec)
        .write_trace(1_200)
        .expect("trace generation")
        .finish();
    let (_, records) = decode_trace(&bytes).expect("trace decodes");
    let mut traffic = TraceSource::from_records(records, "hotspot-server");
    let result = run_experiment(&cfg, &mut traffic);
    let log = result
        .telemetry
        .as_ref()
        .and_then(|t| t.trace.as_ref())
        .expect("trace was requested");
    let mut elected: BTreeMap<PortCode, usize> = BTreeMap::new();
    for event in &log.events {
        if let EventKind::DownUp { port, md_vc } = event.kind {
            elected.insert(port, usize::from(md_vc));
        }
    }
    let mut md_digest = noc_telemetry::digest::fnv1a_64(&[]);
    let mut on_vc1 = 0;
    for p in &result.ports {
        let code: PortCode = p.port.into();
        let md = elected.get(&code).copied().unwrap_or(p.md_vc);
        md_digest = noc_telemetry::digest::fnv1a_64_fold(md_digest, &[md as u8]);
        on_vc1 += usize::from(md == 1);
    }
    (log.digest, work_array(result.work), md_digest, on_vc1)
}

#[test]
fn waking_8x8_replay_matches_goldens() {
    let golden: [(PolicyKind, (u64, [u64; 7], u64, usize)); 2] = [
        (
            PolicyKind::RrNoSensor,
            (
                0x8da0_e078_497b_81a7,
                [12_693, 2_248, 2_140, 10_605, 422_400, 422_400, 0],
                0x320d_543c_a316_8cd6,
                189,
            ),
        ),
        (
            PolicyKind::SensorWise,
            (
                0x1343_d690_e07b_d0f8,
                [13_068, 2_313, 2_202, 10_924, 422_400, 422_400, 13_376],
                0xeb61_c5e9_e13c_d0e3,
                188,
            ),
        ),
    ];
    for (policy, want) in golden {
        let got = waking_replay_run(policy);
        assert_eq!(got, want, "{policy:?}: digest/work/MD moved: {got:#x?}");
    }
}

/// The random streams that no run above touches: quantized sensors (read
/// noise through the Gaussian sampler), application traffic (Markov on-off
/// injection and locality draws) and the non-uniform synthetic patterns.
/// A 4×4 mesh, 2 VCs, sensor-wise, 300+3000 cycles, pv seed 0x707001; the
/// trace digest and the seven work counters. Captured before the RNG moved
/// into `noc_telemetry::rng`.
fn stream_run(sensor: sensorwise::SensorModel, spec: TrafficSpec) -> (u64, [u64; 7]) {
    let noc = NocConfig::paper_synthetic(16, 2);
    let cfg = ExperimentConfig {
        sensor,
        ..ExperimentConfig::new(noc.clone(), PolicyKind::SensorWise)
    }
    .with_cycles(300, 3_000)
    .with_pv_seed(0x70_70_01)
    .with_telemetry(TelemetrySpec {
        trace: true,
        trace_capacity: 0,
        sample_period: 0,
    });
    let mut traffic = spec.build(&noc);
    let result = run_experiment(&cfg, traffic.as_mut());
    let digest = result.trace_digest().expect("trace was requested");
    (digest, work_array(result.work))
}

#[test]
fn quantized_sensor_run_matches_golden() {
    use nbti_model::Volt;
    let sensor = sensorwise::SensorModel::Quantized {
        lsb: Volt::from_millivolts(0.5),
        noise_sigma: Volt::from_millivolts(0.25),
        period: 100,
    };
    let spec = TrafficSpec::Uniform {
        rate: 0.12,
        seed: 0xDEAD_0001,
    };
    let got = stream_run(sensor, spec);
    let want = (
        0x1335_9a7a_871b_1119,
        [30_613, 4_812, 4_810, 24_035, 264_000, 264_000, 8_320],
    );
    assert_eq!(got, want, "quantized: {got:?}");
}

#[test]
fn app_traffic_run_matches_golden() {
    let spec = TrafficSpec::Mix {
        mix: noc_traffic::app::BenchmarkMix::random(16, 0x7AB1_E004),
        seed: 0xDEAD_0004,
    };
    let got = stream_run(sensorwise::SensorModel::Ideal, spec);
    let want = (
        0x00d2_6ffe_90c4_c54b,
        [33_031, 5_795, 5_794, 26_133, 264_000, 264_000, 8_320],
    );
    assert_eq!(got, want, "app traffic: {got:?}");
}

#[test]
fn hotspot_and_transpose_runs_match_goldens() {
    use noc_sim::types::NodeId;
    use noc_traffic::pattern::DestinationPattern;
    let hotspot = DestinationPattern::HotSpot {
        targets: vec![NodeId(0), NodeId(5), NodeId(15)],
        fraction: 0.3,
    };
    let golden: [(DestinationPattern, (u64, [u64; 7])); 2] = [
        (
            hotspot,
            (
                0xa148_f10d_3de6_47b8,
                [29_703, 4_706, 4_704, 23_487, 264_000, 264_000, 8_320],
            ),
        ),
        (
            DestinationPattern::Transpose,
            (
                0x3894_ad72_1134_6a6f,
                [24_812, 4_032, 4_031, 20_150, 264_000, 264_000, 8_320],
            ),
        ),
    ];
    for (pattern, want) in golden {
        let name = pattern.name();
        let spec = TrafficSpec::Pattern {
            pattern,
            rate: 0.12,
            seed: 0xDEAD_0002,
        };
        let got = stream_run(sensorwise::SensorModel::Ideal, spec);
        assert_eq!(got, want, "{name}: {got:?}");
    }
}

/// An erratic sensor (the Bernoulli corruption draw and the uniform
/// reading in the band) over a ramp of true readings: an FNV-1a digest of
/// every reading's bits and the number of corrupted readings.
#[test]
fn erratic_sensor_stream_matches_golden() {
    use nbti_model::{FaultMode, FaultySensor, IdealSensor, NbtiSensor, Volt};
    let mode = FaultMode::Erratic {
        p: 0.3,
        lo: Volt::from_volts(0.15),
        hi: Volt::from_volts(0.25),
    };
    let mut sensor = FaultySensor::new(IdealSensor::new(), mode, 0x5E45_0B5E);
    let mut digest = noc_telemetry::digest::fnv1a_64(&[]);
    let mut corrupted = 0;
    for cycle in 0..1_000u64 {
        let truth = Volt::from_volts(0.18 + cycle as f64 * 1e-6);
        let reading = sensor.sample(truth, cycle);
        corrupted += usize::from(reading != truth);
        digest = noc_telemetry::digest::fnv1a_64_fold(digest, &reading.as_volts().to_le_bytes());
    }
    assert_eq!(
        (digest, corrupted),
        (0xc4be_6dea_3d01_b438, 307),
        "erratic: {digest:#x}"
    );
}

/// The initial Vth draw of the 45 nm process variation: the bits of the
/// first eight samples at three seeds.
#[test]
fn process_variation_samples_match_golden() {
    let mut digest = noc_telemetry::digest::fnv1a_64(&[]);
    for seed in [0, 1, 0xDA7E_2013] {
        let mut pv = nbti_model::ProcessVariation::paper_45nm(seed);
        for v in pv.sample_port(8) {
            digest = noc_telemetry::digest::fnv1a_64_fold(digest, &v.as_volts().to_le_bytes());
        }
    }
    assert_eq!(
        digest, 0x9b7b_7500_76f5_fd49,
        "process variation: {digest:#x}"
    );
}

/// The NBTITRC bytes of every application mix (16 nodes, rate 0.1, 2000
/// cycles): an FNV-1a digest of the encoded trace and its length.
#[test]
fn mix_trace_bytes_match_goldens() {
    use noc_workload::{MixGenerator, MixKind, MixSpec};
    let golden: [(MixKind, (u64, usize)); 4] = [
        (MixKind::HotspotServer, (0x07b3_0c67_5be9_4ac6, 44_512)),
        (MixKind::AllToAllShuffle, (0x9f91_6cbe_a38c_ecc3, 44_666)),
        (
            MixKind::NearestNeighborStencil,
            (0x3be8_0545_66d6_4c15, 44_540),
        ),
        (MixKind::BurstyClient, (0x330e_dfc8_6422_f595, 40_916)),
    ];
    for (kind, want) in golden {
        let spec = MixSpec {
            kind,
            nodes: 16,
            rate: 0.1,
            packet_len: 5,
            seed: 0x8888_0011,
        };
        let bytes = MixGenerator::new(spec)
            .write_trace(2_000)
            .expect("trace generation")
            .finish();
        let got = (noc_telemetry::digest::fnv1a_64(&bytes), bytes.len());
        assert_eq!(got, want, "{}: {got:#x?}", kind.name());
    }
}
