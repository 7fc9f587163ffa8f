//! Property-based tests on whole-system invariants.
//!
//! The simulator itself carries hard assertions (no packet mixing, no
//! buffer overflow, no flit into a gated VC, credit conservation); these
//! properties drive randomized traffic and randomized gating decisions
//! through it and check the externally observable invariants.

use noc_modelcheck::{replay_path, CycleAction, ExploreConfig};
use noc_sim::explore::{encode, encode_canonical};
use noc_sim::prelude::*;
use proptest::prelude::*;
use sensorwise::PolicyKind;

/// A compact description of a random workload.
#[derive(Debug, Clone)]
struct Workload {
    cols: usize,
    rows: usize,
    vcs: usize,
    packets: Vec<(usize, usize, usize)>, // (src, dst, len)
}

fn workload_strategy() -> impl Strategy<Value = Workload> {
    (2usize..=3, 2usize..=3, 1usize..=4).prop_flat_map(|(cols, rows, vcs)| {
        let n = cols * rows;
        let packet = (0..n, 0..n, 1usize..=8);
        proptest::collection::vec(packet, 0..40).prop_map(move |packets| Workload {
            cols,
            rows,
            vcs,
            packets,
        })
    })
}

/// One fabric of each kind, as `(topology, cols, rows)`: the node count is
/// `cols * rows`.
fn fabric(which: u8) -> (TopologyKind, usize, usize) {
    match which {
        0 => (TopologyKind::Mesh, 3, 2),
        1 => (TopologyKind::Torus, 3, 3),
        2 => (TopologyKind::Ring, 5, 1),
        _ => (
            TopologyKind::Irregular {
                edges: vec![(0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (1, 4)],
            },
            5,
            1,
        ),
    }
}

/// Every policy the experiment engine can run.
const POLICIES: [PolicyKind; 5] = [
    PolicyKind::Baseline,
    PolicyKind::RrNoSensor,
    PolicyKind::SensorWiseNoTraffic,
    PolicyKind::SensorWise,
    PolicyKind::SensorWiseK(2),
];

fn build(w: &Workload) -> Network {
    let cfg = NocConfig {
        cols: w.cols,
        rows: w.rows,
        vcs_per_port: w.vcs,
        ..NocConfig::default()
    };
    Network::new(cfg).expect("valid config")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every injected packet is eventually delivered, with all its flits,
    /// under the baseline (no gating).
    #[test]
    fn all_packets_delivered_without_gating(w in workload_strategy()) {
        let mut net = build(&w);
        let mut expect_flits = 0u64;
        for &(s, d, len) in &w.packets {
            net.inject_packet_with_len(NodeId(s), NodeId(d), len);
            expect_flits += len as u64;
        }
        for _ in 0..8_000 {
            net.step();
            if net.is_quiescent() {
                break;
            }
        }
        prop_assert!(net.is_quiescent(), "network failed to drain");
        prop_assert_eq!(net.stats().packets_ejected, w.packets.len() as u64);
        prop_assert_eq!(net.stats().flits_ejected, expect_flits);
    }

    /// Flit conservation holds at every cycle, even under adversarial
    /// (random) gating decisions, and traffic still drains once a sane
    /// designation is restored.
    #[test]
    fn conservation_under_random_gating(
        w in workload_strategy(),
        seed_actions in proptest::collection::vec(0u8..4, 64),
    ) {
        let mut net = build(&w);
        for &(s, d, len) in &w.packets {
            net.inject_packet_with_len(NodeId(s), NodeId(d), len);
        }
        // Phase 1: random gating for a while.
        for (i, &a) in seed_actions.iter().enumerate() {
            net.begin_cycle();
            for pid in net.port_ids().to_vec() {
                let action = match a {
                    0 => GateAction::AllOn,
                    1 => GateAction::AllIdleOff,
                    2 => GateAction::KeepOneIdle { vc: i % w.vcs },
                    _ => GateAction::NoChange,
                };
                net.apply_gate(pid, action);
            }
            net.finish_cycle();
            let sent = net.stats().flits_sent as usize;
            let ejected = net.stats().flits_ejected as usize;
            prop_assert_eq!(sent - ejected, net.flits_in_network());
        }
        // Phase 2: all-on; everything must drain.
        for _ in 0..8_000 {
            net.begin_cycle();
            for pid in net.port_ids().to_vec() {
                net.apply_gate(pid, GateAction::AllOn);
            }
            net.finish_cycle();
            if net.is_quiescent() {
                break;
            }
        }
        prop_assert!(net.is_quiescent(), "network failed to drain after gating");
        prop_assert_eq!(net.stats().packets_ejected, w.packets.len() as u64);
    }

    /// Per-VC statuses always partition consistently: busy and idle-on VCs
    /// are stressed, off VCs are not, and a port never reports more VCs
    /// than configured.
    #[test]
    fn statuses_stay_consistent(w in workload_strategy()) {
        let mut net = build(&w);
        for &(s, d, len) in &w.packets {
            net.inject_packet_with_len(NodeId(s), NodeId(d), len);
        }
        for cycle in 0..200u64 {
            net.begin_cycle();
            for pid in net.port_ids().to_vec() {
                let view = net.port_view(pid);
                prop_assert_eq!(view.vc_status.len(), w.vcs);
                // Alternate designations to exercise transitions.
                let vc = (cycle as usize) % w.vcs;
                net.apply_gate(pid, GateAction::KeepOneIdle { vc });
                let after = net.vc_statuses(pid);
                for (v, st) in after.iter().enumerate() {
                    if *st == VcStatus::Off {
                        prop_assert!(v != vc || view.vc_status[v] == VcStatus::Busy);
                    }
                }
            }
            net.finish_cycle();
        }
    }

    /// XY, YX and West-First routing all deliver every packet (deadlock
    /// freedom on the mesh).
    #[test]
    fn all_routings_drain(w in workload_strategy(), which in 0u8..3) {
        let routing = match which {
            0 => RoutingAlgorithm::XY,
            1 => RoutingAlgorithm::YX,
            _ => RoutingAlgorithm::WestFirst,
        };
        let cfg = NocConfig {
            cols: w.cols,
            rows: w.rows,
            vcs_per_port: w.vcs,
            routing,
            ..NocConfig::default()
        };
        let mut net = Network::new(cfg).expect("valid config");
        for &(s, d, len) in &w.packets {
            net.inject_packet_with_len(NodeId(s), NodeId(d), len);
        }
        for _ in 0..8_000 {
            net.step();
            if net.is_quiescent() {
                break;
            }
        }
        prop_assert!(net.is_quiescent());
    }

    /// The simulator's per-cycle VC state — each router's per-outport
    /// `waiting` masks, each input unit's `active`/`occupied`/`fresh`
    /// masks and the cached buffered-flit count — agrees with the buffers
    /// and with itself (waiting and active disjoint, every waiting VC
    /// buffering its routed head), and no unit's mask has bits beyond its
    /// VCs, after every `begin_cycle` and every `finish_cycle`, on every
    /// fabric kind under every policy. The `Full` invariant level performs
    /// the check.
    #[test]
    fn cached_vc_state_matches_a_recount(
        which in 0u8..4,
        policy in 0usize..5,
        vcs in 1usize..=4,
        packets in proptest::collection::vec((0usize..9, 0usize..9, 1usize..=6, 0u64..40), 0..30),
    ) {
        let (topology, cols, rows) = fabric(which);
        let n = cols * rows;
        let cfg = NocConfig {
            cols,
            rows,
            vcs_per_port: vcs,
            topology,
            ..NocConfig::default()
        };
        let mut net = Network::new(cfg).expect("valid config");
        net.set_invariant_level(InvariantLevel::Full);
        let kind = POLICIES[policy];
        let ports = net.port_ids().to_vec();
        let mut controllers: Vec<_> = ports.iter().map(|_| kind.build(1)).collect();
        let mut view = net.port_view(ports[0]);
        for cycle in 0..300u64 {
            for &(s, d, len, at) in &packets {
                if at == cycle {
                    net.inject_packet_with_len(NodeId(s % n), NodeId(d % n), len);
                }
            }
            net.begin_cycle();
            net.check_invariants_now();
            prop_assert!(net.violations().is_empty(), "after begin_cycle {}: {:?}", cycle, net.violations());
            for (i, (&pid, ctrl)) in ports.iter().zip(&mut controllers).enumerate() {
                net.fill_port_view(pid, &mut view);
                // A most-degraded VC that moves between ports and over time.
                let md = (i + (cycle / 16) as usize) % vcs;
                let action = ctrl.decide(cycle, &view, md);
                net.apply_gate(pid, action);
            }
            net.finish_cycle();
            prop_assert!(net.violations().is_empty(), "after finish_cycle {}: {:?}", cycle, net.violations());
        }
        prop_assert!(net.stats().invariant_checks >= 600);
    }

    /// Explorer/simulator agreement: for any short interleaving of
    /// injections, controller firings and control-epoch gaps, the state
    /// the explorer's path replay reaches is byte-identical (canonical
    /// encoding included) to a network hand-driven through the public
    /// `begin_cycle`/`apply_gate`/`finish_cycle` API. Guards the
    /// `noc-modelcheck` transition semantics against simulator drift.
    #[test]
    fn explorer_replay_matches_hand_driven_network(
        steps in proptest::collection::vec((0u8..3, 0u8..3), 0..14),
    ) {
        let cfg = ExploreConfig::small();
        // 0 encodes "no action this cycle", 1..=2 the two concrete choices
        // (the vendored proptest subset has no Option strategy).
        let decode = |v: u8| v.checked_sub(1);
        let path: Vec<CycleAction> = steps
            .iter()
            .map(|&(inject, controller)| CycleAction {
                inject: decode(inject),
                controller: decode(controller),
            })
            .collect();

        // The policy under test: sensor-wise, adversarial aux as both the
        // cycle counter and the most-degraded VC id.
        let adapter = || sensorwise::controller_for(PolicyKind::SensorWise);

        let mut ctrl = adapter();
        let explored = replay_path(&cfg, &mut ctrl, &path);

        // The same interleaving, driven by hand through the public API.
        let mut hand = Network::new(cfg.noc.clone()).expect("valid config");
        hand.set_invariant_level(InvariantLevel::Full);
        let mut policy = adapter();
        for action in &path {
            if let Some(i) = action.inject {
                let (src, dst) = cfg.injections[i as usize];
                hand.inject_packet_with_len(src, dst, cfg.packet_len);
            }
            hand.begin_cycle();
            if let Some(aux) = action.controller {
                for pid in hand.port_ids().to_vec() {
                    let view = hand.port_view(pid);
                    let gate = policy(aux as usize, &view);
                    hand.apply_gate(pid, gate);
                }
            }
            hand.finish_cycle();
            prop_assert!(hand.take_violations().is_empty());
        }

        prop_assert_eq!(encode(&explored), encode(&hand));
        prop_assert_eq!(encode_canonical(&explored), encode_canonical(&hand));
    }
}

/// Resolving ports through the slot table keeps the documented contract: a
/// mesh-boundary port has no upstream link and cannot be viewed.
#[test]
#[should_panic(expected = "no upstream link")]
fn boundary_port_view_panics() {
    let net = build(&Workload {
        cols: 2,
        rows: 2,
        vcs: 2,
        packets: Vec::new(),
    });
    let _ = net.port_view(PortId::router_input(NodeId(0), Direction::North));
}
