//! Topology regression oracle.
//!
//! The mesh routed through the `Topology` trait must be *bit-identical*
//! to the pre-refactor direct-`Mesh2D` network: the golden digests below
//! were captured on the commit before the trait was introduced, for every
//! policy, and pin the refactor down to the event stream.

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

/// Golden digests captured on the pre-`Topology`-trait network (4×4 mesh,
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
fn mesh_through_topology_trait_matches_pre_refactor_goldens() {
    for (policy, golden) in POLICIES.into_iter().zip(GOLDEN_BY_POLICY) {
        let digest = digest_for(policy, 16);
        assert_eq!(
            digest, golden,
            "{policy:?}: digest {digest:#018x} != pre-refactor golden {golden:#018x}"
        );
    }
}

/// Torus and ring fabrics under the full invariant checker: every flit
/// and credit must be conserved, every packet must arrive, and the run
/// must report zero violations — the wrap/idle links change the port set
/// but not the protocol.
#[test]
fn torus_and_ring_conserve_flits_and_credits_at_full_invariants() {
    use noc_sim::config::TopologyKind;
    use noc_sim::invariants::InvariantLevel;

    for (kind, cols, rows) in [
        (TopologyKind::Torus, 4, 4),
        (TopologyKind::Torus, 2, 3),
        (TopologyKind::Ring, 8, 1),
    ] {
        let noc = NocConfig {
            cols,
            rows,
            vcs_per_port: 2,
            topology: kind.clone(),
            ..NocConfig::default()
        };
        let cfg = ExperimentConfig::new(noc.clone(), PolicyKind::SensorWise)
            .with_cycles(200, 2_000)
            .with_invariants(InvariantLevel::Full);
        let spec = TrafficSpec::Uniform {
            rate: 0.10,
            seed: 0xBEEF_0002,
        };
        let mut traffic = spec.build(&noc);
        let result = run_experiment(&cfg, traffic.as_mut());
        assert_eq!(
            result.invariant_violations,
            0,
            "{}: {:?}",
            kind.name(),
            result.violations.first()
        );
        assert!(
            result.net.packets_ejected > 0,
            "{}: no traffic flowed",
            kind.name()
        );
    }
}

/// Determinism across fabrics: the digest of a torus/ring run is a pure
/// function of the configuration, like the mesh digests above.
#[test]
fn non_mesh_digests_are_reproducible() {
    use noc_sim::config::TopologyKind;

    for kind in [TopologyKind::Torus, TopologyKind::Ring] {
        let digest = |_: u32| {
            let noc = NocConfig {
                cols: 4,
                rows: 4,
                vcs_per_port: 2,
                topology: kind.clone(),
                ..NocConfig::default()
            };
            let cfg = ExperimentConfig::new(noc.clone(), PolicyKind::SensorWise)
                .with_cycles(100, 1_000)
                .with_telemetry(TelemetrySpec {
                    trace: true,
                    trace_capacity: 0,
                    sample_period: 0,
                });
            let spec = TrafficSpec::Uniform {
                rate: 0.10,
                seed: 7,
            };
            let mut traffic = spec.build(&noc);
            run_experiment(&cfg, traffic.as_mut())
                .trace_digest()
                .expect("trace was requested")
        };
        assert_eq!(digest(0), digest(1), "{} digest not stable", kind.name());
    }
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
