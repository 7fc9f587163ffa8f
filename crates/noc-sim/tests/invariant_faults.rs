//! Fault-injection tests for the runtime invariant checker.
//!
//! Each test deliberately corrupts one protocol property through the
//! `#[doc(hidden)]` fault hooks on `Network` and asserts that the checker
//! reports the corruption with the right [`InvariantKind`] diagnostic —
//! and that an uncorrupted run stays violation-free at `Full` level.

use noc_sim::invariants::{InvariantKind, InvariantLevel};
use noc_sim::prelude::*;

/// A 2×2 mesh with 2 VCs and all-to-all traffic, invariants at `Full`.
fn loaded_network() -> Network {
    let mut net = Network::new(NocConfig::paper_synthetic(4, 2)).expect("valid config");
    net.set_invariant_level(InvariantLevel::Full);
    for src in 0..4 {
        for dst in 0..4 {
            if src != dst {
                net.inject_packet(NodeId(src), NodeId(dst));
            }
        }
    }
    net
}

/// Steps `net` until `fault` succeeds (the fault hooks mutate nothing when
/// they return `None`, so probing every cycle is safe).
fn step_until_fault<T>(net: &mut Network, mut fault: impl FnMut(&mut Network) -> Option<T>) -> T {
    for _ in 0..200 {
        net.step();
        if let Some(loc) = fault(net) {
            return loc;
        }
    }
    panic!("traffic never buffered a flit to corrupt");
}

fn kinds(net: &Network) -> Vec<InvariantKind> {
    net.violations().iter().map(|v| v.kind).collect()
}

#[test]
fn clean_run_has_zero_violations_at_full_level() {
    let mut net = Network::new(NocConfig::paper_synthetic(9, 2)).expect("valid config");
    net.set_invariant_level(InvariantLevel::Full);
    for src in 0..9 {
        net.inject_packet(NodeId(src), NodeId(8 - src));
    }
    net.step_cycles(300);
    assert!(net.stats().invariant_checks >= 300);
    assert_eq!(
        net.stats().invariant_violations,
        0,
        "clean traffic must not trip the checker: {:?}",
        net.violations()
    );
}

#[test]
fn gating_a_vc_holding_a_flit_is_reported() {
    let mut net = loaded_network();
    let loc = step_until_fault(&mut net, Network::fault_gate_occupied_vc);
    net.check_invariants_now();
    let ks = kinds(&net);
    assert!(
        ks.contains(&InvariantKind::GatingSafety),
        "expected gating-safety among {ks:?} after gating {loc:?}"
    );
    let diag = net
        .violations()
        .iter()
        .find(|v| v.kind == InvariantKind::GatingSafety)
        .expect("checked above");
    assert!(
        diag.detail.contains("power-gated but holds"),
        "diagnostic names the held flits: {diag}"
    );
}

#[test]
fn double_crediting_a_channel_is_reported() {
    let mut net = Network::new(NocConfig::paper_synthetic(4, 2)).expect("valid config");
    net.set_invariant_level(InvariantLevel::Full);
    let port = net.port_ids()[0];
    net.fault_double_credit(port, 1);
    net.check_invariants_now();
    let ks = kinds(&net);
    assert!(
        ks.contains(&InvariantKind::CreditConservation),
        "expected credit-conservation among {ks:?}"
    );
    let diag = net
        .violations()
        .iter()
        .find(|v| v.kind == InvariantKind::CreditConservation)
        .expect("checked above");
    assert!(
        diag.detail.contains("vc1") && diag.detail.contains("!= depth"),
        "diagnostic names the channel and the broken sum: {diag}"
    );
}

#[test]
fn skewing_a_waiting_count_is_reported_at_full_level_only() {
    let mut net = Network::new(NocConfig::paper_synthetic(4, 2)).expect("valid config");
    // A phantom waiting bit on an idle input VC of router 0 makes an idle
    // port look as if traffic waits on it.
    let port = PortId::router_input(NodeId(1), Direction::West);
    assert!(!net.port_view(port).new_traffic);
    net.fault_skew_waiting_count(NodeId(0), Direction::East);
    assert!(net.port_view(port).new_traffic);
    net.set_invariant_level(InvariantLevel::Cheap);
    net.check_invariants_now();
    assert!(
        net.violations().is_empty(),
        "the cheap level does not recount"
    );
    net.set_invariant_level(InvariantLevel::Full);
    net.check_invariants_now();
    assert_eq!(kinds(&net), vec![InvariantKind::VcStateConsistency]);
    let diag = &net.violations()[0];
    assert!(
        diag.detail
            .contains("router r0 in-S vc0 waits for out-E but buffers nothing"),
        "diagnostic names the router, the input VC, the output port and the fault: {diag}"
    );
}

#[test]
fn dropping_a_buffered_flit_is_reported() {
    let mut net = loaded_network();
    step_until_fault(&mut net, Network::fault_drop_buffered_flit);
    net.check_invariants_now();
    let ks = kinds(&net);
    assert!(
        ks.contains(&InvariantKind::FlitConservation),
        "a vanished flit breaks flit conservation: {ks:?}"
    );
    assert!(
        ks.contains(&InvariantKind::CreditConservation),
        "a vanished flit also unbalances its channel: {ks:?}"
    );
}

#[test]
fn exceeding_the_idle_on_budget_is_reported() {
    let mut net = Network::new(NocConfig::paper_synthetic(4, 2)).expect("valid config");
    net.set_invariant_level(InvariantLevel::Cheap);
    // A fresh network has every VC idle and powered: any port with 2 VCs
    // has 2 idle-on VCs, which exceeds a budget of 1.
    let port = net.port_ids()[0];
    net.check_idle_on_budget(port, 1);
    let ks = kinds(&net);
    assert_eq!(ks, vec![InvariantKind::IdleOnBudget]);
    // A budget that covers all VCs passes.
    let mut ok = Network::new(NocConfig::paper_synthetic(4, 2)).expect("valid config");
    ok.set_invariant_level(InvariantLevel::Cheap);
    ok.check_idle_on_budget(port, 2);
    assert!(ok.violations().is_empty());
}

#[test]
fn violations_are_counted_beyond_the_record_cap() {
    let mut net = loaded_network();
    step_until_fault(&mut net, Network::fault_gate_occupied_vc);
    for _ in 0..100 {
        net.check_invariants_now();
    }
    let recorded = net.violations().len();
    assert!(recorded <= 64, "record cap respected, got {recorded}");
    assert!(
        net.stats().invariant_violations > recorded as u64,
        "the stats counter keeps counting past the cap"
    );
    let drained = net.take_violations();
    assert_eq!(drained.len(), recorded);
    assert!(net.violations().is_empty());
}

#[test]
fn off_level_skips_checking_entirely() {
    let mut net = loaded_network();
    step_until_fault(&mut net, Network::fault_gate_occupied_vc);
    net.set_invariant_level(InvariantLevel::Off);
    let checks_before = net.stats().invariant_checks;
    // check_idle_on_budget is a no-op when checking is off.
    let port = net.port_ids()[0];
    net.check_idle_on_budget(port, 0);
    assert_eq!(net.stats().invariant_checks, checks_before);
    assert!(net.violations().is_empty());
}
