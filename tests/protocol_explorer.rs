//! Mutation-style fault harness for the state-space explorer.
//!
//! A model checker that cannot fail proves nothing. These tests arm each
//! of the simulator's test-only protocol faults (gate an occupied VC,
//! grant a spurious credit, drop a buffered flit) behind the explorer and
//! assert that (a) the breadth-first search finds the planted violation
//! within a small depth, (b) the violation carries the invariant kind the
//! fault was designed to break, and (c) the emitted counterexample
//! replays — both through the explorer's own path replay and through the
//! JSONL trace bridge — to the same violation.

use noc_modelcheck::{explore, run_cycle, FaultKind, StandardOracle};
use noc_sim::invariants::InvariantLevel;
use noc_sim::prelude::*;
use noc_telemetry::{read_jsonl, EventDigest, EventKind};
use sensorwise::{controller_for, explore_config_for, PolicyKind};

/// The shallow exploration bound: every planted fault must be found well
/// before the full closure depth.
const FAULT_DEPTH: usize = 6;

fn faulty_exploration(
    kind: FaultKind,
) -> (noc_modelcheck::ExploreConfig, noc_modelcheck::ExploreReport) {
    let mut cfg = explore_config_for(PolicyKind::SensorWise, FAULT_DEPTH, false);
    cfg.fault = Some(kind);
    let mut ctrl = controller_for(PolicyKind::SensorWise);
    let report = explore(&cfg, &mut ctrl, &mut StandardOracle);
    (cfg, report)
}

#[test]
fn every_planted_fault_is_found_within_small_depth() {
    for kind in [
        FaultKind::GateOccupiedVc,
        FaultKind::DoubleCredit,
        FaultKind::DropFlit,
    ] {
        let (_, report) = faulty_exploration(kind);
        let cx = report
            .counterexample
            .unwrap_or_else(|| panic!("explorer must find the planted {} fault", kind.id()));
        assert!(
            cx.path.len() <= FAULT_DEPTH,
            "{}: counterexample longer than the bound: {}",
            kind.id(),
            cx.describe()
        );
        assert!(
            cx.violations
                .iter()
                .any(|v| v.kind == kind.expected_invariant()),
            "{}: expected {:?} among {:?}",
            kind.id(),
            kind.expected_invariant(),
            cx.violations
        );
    }
}

#[test]
fn counterexample_paths_replay_to_the_same_violation() {
    for kind in [
        FaultKind::GateOccupiedVc,
        FaultKind::DoubleCredit,
        FaultKind::DropFlit,
    ] {
        let (cfg, report) = faulty_exploration(kind);
        let cx = report.counterexample.expect("fault found");

        // Independent replay from a pristine network: same path, same
        // violation kinds, at the same cycle.
        let mut net = Network::new(cfg.noc.clone()).expect("valid config");
        net.set_invariant_level(InvariantLevel::Full);
        let mut ctrl = controller_for(PolicyKind::SensorWise);
        let mut fault_fired = false;
        for &action in &cx.path {
            run_cycle(&mut net, action, &mut ctrl, &cfg, &mut fault_fired);
        }
        assert!(fault_fired, "{}: replay must re-fire the fault", kind.id());
        let replayed = net.take_violations();
        assert_eq!(
            replayed
                .iter()
                .map(|v| (v.kind, v.cycle))
                .collect::<Vec<_>>(),
            cx.violations
                .iter()
                .map(|v| (v.kind, v.cycle))
                .collect::<Vec<_>>(),
            "{}: replay diverged from the explorer's finding",
            kind.id()
        );
    }
}

#[test]
fn counterexample_trace_bridge_carries_the_violation() {
    let (cfg, report) = faulty_exploration(FaultKind::GateOccupiedVc);
    let cx = report.counterexample.expect("fault found");
    let mut ctrl = controller_for(PolicyKind::SensorWise);
    let jsonl = cx.to_jsonl(&cfg, &mut ctrl);

    // The bridge's output is the standard trace stream: it parses with
    // the telemetry reader and its digest is reproducible.
    let events = read_jsonl(&jsonl).expect("bridge emits valid JSONL");
    assert!(!events.is_empty());
    let violation_kinds: Vec<&str> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Violation { kind } => Some(kind.as_str()),
            _ => None,
        })
        .collect();
    assert!(
        violation_kinds.contains(&InvariantKind::GatingSafety.id()),
        "trace must carry the gating-safety violation: {violation_kinds:?}"
    );
    let again = cx.to_jsonl(&cfg, &mut ctrl);
    let reparsed = read_jsonl(&again).expect("valid JSONL");
    assert_eq!(
        EventDigest::of(&events),
        EventDigest::of(&reparsed),
        "bridge replays must be bit-identical"
    );
}

#[test]
fn clean_exploration_finds_nothing_to_blame() {
    // The dual of the mutation tests: with no fault armed, the same
    // shallow exploration of the same policy reports zero violations.
    let cfg = explore_config_for(PolicyKind::SensorWise, FAULT_DEPTH, false);
    let mut ctrl = controller_for(PolicyKind::SensorWise);
    let report = explore(&cfg, &mut ctrl, &mut StandardOracle);
    assert!(report.counterexample.is_none());
    assert!(
        report.unique_states > 1_000,
        "exploration must actually move"
    );
}

#[test]
fn symmetry_mode_shrinks_the_space_and_stays_clean() {
    let plain = explore_config_for(PolicyKind::SensorWise, FAULT_DEPTH, false);
    let sym = explore_config_for(PolicyKind::SensorWise, FAULT_DEPTH, true);
    let a = explore(
        &plain,
        &mut controller_for(PolicyKind::SensorWise),
        &mut StandardOracle,
    );
    let b = explore(
        &sym,
        &mut controller_for(PolicyKind::SensorWise),
        &mut StandardOracle,
    );
    assert!(b.counterexample.is_none());
    assert!(
        b.unique_states < a.unique_states,
        "orbit merging must shrink this space ({} vs {})",
        b.unique_states,
        a.unique_states
    );
}
