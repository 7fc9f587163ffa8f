//! # noc-modelcheck — exhaustive exploration of the cooperative gating protocol
//!
//! The paper's Up_Down/Down_Up gating protocol is easy to get subtly wrong:
//! the dangerous behaviours (gating an occupied VC, leaking a credit,
//! exceeding the idle-on budget) live in adversarial *interleavings* of
//! injections, gate commands and control-epoch gaps that sampled whole-run
//! checks never reach. This crate enumerates **every reachable whole-cycle
//! state** of a small mesh by breadth-first search and checks the
//! [`noc_sim::invariants`] oracle at each one.
//!
//! ## The transition system
//!
//! One explored transition is one simulated cycle driven by a
//! [`CycleAction`]: an optional injection (drawn from a fixed set of
//! source→destination pairs, bounded by a packet budget) and an optional
//! controller firing with an adversarial auxiliary input `aux ∈ 0..A`.
//! `aux` is fed to the gating policy both as its cycle counter and as the
//! `Down_Up` most-degraded VC id, so a single branch covers every
//! round-robin rotation phase *and* every sensor election the downstream
//! router could report. `controller: None` models a control-epoch gap (no
//! gate command this cycle). Every policy shipped by `sensorwise` is
//! internally stateless, which is what makes this parameterisation
//! exhaustive.
//!
//! States are deduplicated by the FNV-hashed canonical encoding of
//! [`noc_sim::explore`] (plus the remaining injection budget and the
//! fault-armed flag, which are part of the explorer's state but not the
//! network's). With [`ExploreConfig::symmetry`] the encoding is minimised
//! over mesh reflections and VC permutations first.
//!
//! ## Counterexamples
//!
//! The frontier stores action paths, not network clones; any state is
//! rebuilt by replaying its path from the pristine network. A violating
//! path is therefore directly replayable — [`Counterexample::to_jsonl`]
//! re-runs it under a recording telemetry sink and lowers the run to the
//! standard JSONL trace stream, so `nbti-noc stats --trace` debugs model
//! checker findings with the exact tooling used for simulation traces.

#![deny(missing_debug_implementations)]

use noc_sim::explore::{encode, encode_canonical};
use noc_sim::prelude::*;
use noc_telemetry::digest::fnv1a_64;
use noc_telemetry::{EventLog, NullSink, RecordSink, TraceSink};
use std::collections::{BTreeSet, VecDeque};
use std::fmt;

/// A per-port gating controller as seen by the explorer: maps the
/// adversarial auxiliary input and a port view to an `Up_Down` payload.
///
/// Adapters (e.g. `sensorwise`'s `PolicyKind`) wrap their policy so that
/// `aux` stands in for every nondeterministic input the policy consumes.
pub type Controller<'a> = dyn FnMut(usize, &PortView) -> GateAction + 'a;

/// Which protocol fault the test-only hooks inject along every explored
/// path (at the first cycle where the corruption is possible).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Power-gate the first VC that holds a flit (gating safety).
    GateOccupiedVc,
    /// Grant one spurious credit (credit conservation).
    DoubleCredit,
    /// Silently discard a buffered flit (flit + credit conservation).
    DropFlit,
}

impl FaultKind {
    /// Stable identifier, used by `nbti-noc verify --inject-fault`.
    pub fn id(self) -> &'static str {
        match self {
            FaultKind::GateOccupiedVc => "gate-occupied",
            FaultKind::DoubleCredit => "double-credit",
            FaultKind::DropFlit => "drop-flit",
        }
    }

    /// Parses the identifier form accepted by the CLI.
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted identifiers.
    pub fn parse(name: &str) -> Result<FaultKind, String> {
        match name {
            "gate-occupied" => Ok(FaultKind::GateOccupiedVc),
            "double-credit" => Ok(FaultKind::DoubleCredit),
            "drop-flit" => Ok(FaultKind::DropFlit),
            other => Err(format!(
                "unknown fault `{other}` (try gate-occupied, double-credit, drop-flit)"
            )),
        }
    }

    /// The invariant the fault is designed to break — what the explorer
    /// must report for the harness to count the find.
    pub fn expected_invariant(self) -> InvariantKind {
        match self {
            FaultKind::GateOccupiedVc => InvariantKind::GatingSafety,
            FaultKind::DoubleCredit => InvariantKind::CreditConservation,
            FaultKind::DropFlit => InvariantKind::FlitConservation,
        }
    }
}

/// The explorer's configuration: the mesh under test plus the exploration
/// bounds and the interleaving alphabet.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// The network configuration. Keep it tiny: state counts grow with
    /// every buffer slot and VC.
    pub noc: NocConfig,
    /// Maximum explored path length in cycles. States discovered *at* this
    /// depth are counted and checked but not expanded, and the run is then
    /// reported as not exhausted.
    pub depth: usize,
    /// Deduplicate states up to mesh reflection and VC permutation (see
    /// [`noc_sim::explore::encode_canonical`] for the abstraction this
    /// buys and costs).
    pub symmetry: bool,
    /// The injection alphabet: each explored cycle may inject one packet
    /// from this list (or none).
    pub injections: Vec<(NodeId, NodeId)>,
    /// Length in flits of every injected packet.
    pub packet_len: usize,
    /// Total packets injected along any one path. This is what makes the
    /// reachable state space finite.
    pub max_packets: usize,
    /// Number of adversarial auxiliary inputs branched per controller
    /// firing (cover `0..vcs_per_port` for sensor-driven policies).
    pub aux_choices: usize,
    /// The idle-on budget asserted after every controller firing
    /// ([`Network::check_idle_on_budget`]); `None` for unbudgeted policies.
    pub idle_on_budget: Option<usize>,
    /// Hard cap on the seen-set size; hitting it ends the run as not
    /// exhausted.
    pub max_states: usize,
    /// Optional protocol fault armed along every path (test harness and
    /// CI counterexample smoke).
    pub fault: Option<FaultKind>,
}

impl ExploreConfig {
    /// The reference exhaustive configuration: 2×2 mesh, 2 VCs, depth-2
    /// buffers, two 2-flit packets crossing on the diagonal.
    pub fn small() -> Self {
        ExploreConfig {
            noc: NocConfig {
                cols: 2,
                rows: 2,
                vcs_per_port: 2,
                buffer_depth: 2,
                flits_per_packet: 2,
                link_latency: 1,
                credit_latency: 1,
                wakeup_latency: 1,
                ..NocConfig::default()
            },
            depth: 28,
            symmetry: false,
            injections: vec![(NodeId(0), NodeId(3)), (NodeId(3), NodeId(0))],
            packet_len: 2,
            max_packets: 2,
            aux_choices: 2,
            idle_on_budget: None,
            max_states: 1_000_000,
            fault: None,
        }
    }
}

/// One explored transition: what happens during one simulated cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleAction {
    /// Index into [`ExploreConfig::injections`] of the packet injected at
    /// the start of the cycle, if any.
    pub inject: Option<u8>,
    /// The auxiliary input the controller fires with this cycle, or `None`
    /// for a control-epoch gap (no gate commands).
    pub controller: Option<u8>,
}

impl fmt::Display for CycleAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inject {
            Some(i) => write!(f, "inject[{i}]")?,
            None => write!(f, "-")?,
        }
        match self.controller {
            Some(a) => write!(f, "/gate(aux={a})"),
            None => write!(f, "/-"),
        }
    }
}

/// A pluggable invariant oracle, consulted after every explored cycle.
pub trait InvariantOracle {
    /// Called once before each path replay (paths are rebuilt from the
    /// pristine network, so any path-local oracle state starts over).
    fn reset(&mut self);

    /// Returns the violations detected during the cycle that just
    /// finished. A non-empty result makes the path a counterexample.
    fn after_cycle(&mut self, net: &mut Network<NullSink>) -> Vec<InvariantViolation>;
}

/// The standard oracle: everything `noc_sim::invariants` checks at
/// [`InvariantLevel::Full`] — gating safety, flit conservation, VC state
/// consistency, credit conservation, duty closure — plus the per-policy
/// idle-on budget asserted by the explorer's controller slot.
#[derive(Debug, Default, Clone, Copy)]
pub struct StandardOracle;

impl InvariantOracle for StandardOracle {
    fn reset(&mut self) {}

    fn after_cycle(&mut self, net: &mut Network<NullSink>) -> Vec<InvariantViolation> {
        net.take_violations()
    }
}

/// A violating path and the violations its final cycle produced.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The shortest action sequence (BFS order) reaching the violation.
    pub path: Vec<CycleAction>,
    /// What the oracle reported at the path's final cycle.
    pub violations: Vec<InvariantViolation>,
}

/// What the explorer did and found.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Unique states discovered (after deduplication), root included.
    pub unique_states: usize,
    /// Transitions executed (cycles simulated for expansion, excluding
    /// path-rebuild replays).
    pub transitions: usize,
    /// Transitions whose successor was already in the seen-set.
    pub deduplicated: usize,
    /// Length of the longest discovered path.
    pub depth_reached: usize,
    /// `true` when the reachable state space closed below every bound —
    /// no depth-capped state, no seen-set overflow, no counterexample.
    pub exhausted: bool,
    /// Largest frontier length observed.
    pub peak_frontier: usize,
    /// Final seen-set size (equals [`ExploreReport::unique_states`]).
    pub peak_seen: usize,
    /// The first (shortest) violating path found, if any.
    pub counterexample: Option<Counterexample>,
}

impl ExploreReport {
    /// The one-line summary `nbti-noc verify` prints per policy.
    pub fn summary(&self) -> String {
        let closure = if self.counterexample.is_some() {
            "VIOLATION"
        } else if self.exhausted {
            "exhausted"
        } else {
            "bounded"
        };
        format!(
            "{} unique states, {} transitions, {} deduplicated, depth {}, {}",
            self.unique_states, self.transitions, self.deduplicated, self.depth_reached, closure
        )
    }
}

/// Runs one cycle of the transition system on `net`.
///
/// The order inside the cycle mirrors the experiment harness drive loop:
/// injection enqueues at the NIC, `begin_cycle` absorbs credits and
/// delivers flits, the controller slot applies gate commands mid-cycle
/// (and, when it fired, asserts the idle-on budget — the budget invariant
/// holds exactly after gate decisions are applied), `finish_cycle` runs
/// allocation and traversal. An armed fault fires before `begin_cycle` at
/// the first cycle where its corruption is possible, once per path.
pub fn run_cycle<T: TraceSink>(
    net: &mut Network<T>,
    action: CycleAction,
    ctrl: &mut Controller<'_>,
    cfg: &ExploreConfig,
    fault_fired: &mut bool,
) {
    if let Some(i) = action.inject {
        let (src, dst) = cfg.injections[i as usize];
        net.inject_packet_with_len(src, dst, cfg.packet_len);
    }
    if let Some(kind) = cfg.fault {
        if !*fault_fired {
            *fault_fired = match kind {
                FaultKind::GateOccupiedVc => net.fault_gate_occupied_vc().is_some(),
                FaultKind::DropFlit => net.fault_drop_buffered_flit().is_some(),
                FaultKind::DoubleCredit => {
                    let port = net.port_ids()[0];
                    net.fault_double_credit(port, 0);
                    true
                }
            };
            if *fault_fired {
                // Judge the corruption at its injection point: simulating
                // through it would hit the simulator's hard asserts (e.g.
                // delivering a flit into the gated buffer) instead of the
                // recording invariant checker.
                net.check_invariants_now();
                if !net.violations().is_empty() {
                    return;
                }
            }
        }
    }
    net.begin_cycle();
    if let Some(aux) = action.controller {
        let ports = net.port_ids().to_vec();
        for &pid in &ports {
            let view = net.port_view(pid);
            let gate = ctrl(aux as usize, &view);
            net.apply_gate(pid, gate);
        }
        if let Some(budget) = cfg.idle_on_budget {
            for &pid in &ports {
                net.check_idle_on_budget(pid, budget);
            }
        }
    }
    net.finish_cycle();
}

/// Rebuilds the network a path leads to by replaying it from the pristine
/// configuration. Exposed so tests can cross-check explorer states against
/// networks driven through the public API.
pub fn replay_path(
    cfg: &ExploreConfig,
    ctrl: &mut Controller<'_>,
    path: &[CycleAction],
) -> Network<NullSink> {
    let mut net = fresh(cfg);
    let mut fault_fired = false;
    for &action in path {
        run_cycle(&mut net, action, ctrl, cfg, &mut fault_fired);
        net.take_violations();
    }
    net
}

fn fresh(cfg: &ExploreConfig) -> Network<NullSink> {
    // lint:allow(no-unwrap) config validity is checked once, before the search starts
    let mut net = Network::new(cfg.noc.clone()).expect("explore config must be valid");
    net.set_invariant_level(InvariantLevel::Full);
    net
}

/// The seen-set key: the (canonical) state encoding extended with the
/// explorer-level state the network bytes cannot see — the remaining
/// injection budget and whether the armed fault already fired.
fn state_key<T: TraceSink>(
    net: &Network<T>,
    cfg: &ExploreConfig,
    remaining_budget: usize,
    fault_fired: bool,
) -> u64 {
    let mut bytes = if cfg.symmetry {
        encode_canonical(net)
    } else {
        encode(net)
    };
    bytes.push(remaining_budget.min(255) as u8);
    bytes.push(u8::from(fault_fired));
    fnv1a_64(&bytes)
}

/// The actions available from a state with `remaining_budget` injections
/// left, in deterministic order.
fn enumerate_actions(cfg: &ExploreConfig, remaining_budget: usize) -> Vec<CycleAction> {
    let mut injects: Vec<Option<u8>> = vec![None];
    if remaining_budget > 0 {
        injects.extend((0..cfg.injections.len()).map(|i| Some(i as u8)));
    }
    let mut controllers: Vec<Option<u8>> = vec![None];
    controllers.extend((0..cfg.aux_choices).map(|a| Some(a as u8)));
    let mut out = Vec::with_capacity(injects.len() * controllers.len());
    for &inject in &injects {
        for &controller in &controllers {
            out.push(CycleAction { inject, controller });
        }
    }
    out
}

/// Breadth-first exploration of every state reachable from the pristine
/// network under every interleaving of injections, controller firings and
/// control-epoch gaps. Stops at the first invariant violation (the BFS
/// order makes its path the shortest counterexample), at the depth bound,
/// or at the seen-set cap.
pub fn explore(
    cfg: &ExploreConfig,
    ctrl: &mut Controller<'_>,
    oracle: &mut dyn InvariantOracle,
) -> ExploreReport {
    let root = fresh(cfg);
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    seen.insert(state_key(&root, cfg, cfg.max_packets, false));

    // The frontier stores action paths only; states are rebuilt by replay.
    // Memory stays proportional to path bytes, not network clones.
    let mut frontier: VecDeque<Vec<CycleAction>> = VecDeque::new();
    frontier.push_back(Vec::new());

    let mut report = ExploreReport {
        unique_states: 1,
        transitions: 0,
        deduplicated: 0,
        depth_reached: 0,
        exhausted: true,
        peak_frontier: 1,
        peak_seen: 1,
        counterexample: None,
    };

    while let Some(path) = frontier.pop_front() {
        if path.len() >= cfg.depth {
            // Only possible for the root at depth 0; deeper paths are
            // never enqueued past the horizon.
            report.exhausted = false;
            continue;
        }
        // Rebuild the parent state from its path.
        let mut parent = fresh(cfg);
        let mut fault_fired = false;
        let mut budget = cfg.max_packets;
        oracle.reset();
        for &action in &path {
            if action.inject.is_some() {
                budget -= 1;
            }
            run_cycle(&mut parent, action, ctrl, cfg, &mut fault_fired);
            // Already judged when this prefix was first discovered.
            let _ = oracle.after_cycle(&mut parent);
        }

        for action in enumerate_actions(cfg, budget) {
            let mut child = parent.clone();
            let mut child_fault = fault_fired;
            run_cycle(&mut child, action, ctrl, cfg, &mut child_fault);
            report.transitions += 1;

            let violations = oracle.after_cycle(&mut child);
            if !violations.is_empty() {
                let mut cx_path = path.clone();
                cx_path.push(action);
                report.depth_reached = report.depth_reached.max(cx_path.len());
                report.exhausted = false;
                report.counterexample = Some(Counterexample {
                    path: cx_path,
                    violations,
                });
                return report;
            }

            let child_budget = budget - usize::from(action.inject.is_some());
            let key = state_key(&child, cfg, child_budget, child_fault);
            if !seen.insert(key) {
                report.deduplicated += 1;
                continue;
            }
            report.unique_states += 1;
            report.depth_reached = report.depth_reached.max(path.len() + 1);
            if path.len() + 1 < cfg.depth {
                let mut child_path = path.clone();
                child_path.push(action);
                frontier.push_back(child_path);
            } else {
                // A new state sits at the depth horizon: its successors
                // are unknown, so the space did not provably close.
                report.exhausted = false;
            }
            if report.unique_states >= cfg.max_states {
                report.exhausted = false;
                frontier.clear();
                break;
            }
        }
        report.peak_frontier = report.peak_frontier.max(frontier.len());
    }

    report.peak_seen = seen.len();
    report.exhausted = report.exhausted && report.counterexample.is_none();
    report
}

impl Counterexample {
    /// Replays the counterexample under a recording telemetry sink and
    /// returns the harvested event log. The log ends with the `violation`
    /// events of the final cycle.
    pub fn events(&self, cfg: &ExploreConfig, ctrl: &mut Controller<'_>) -> EventLog {
        let mut net = Network::with_sink(cfg.noc.clone(), RecordSink::unbounded())
            // lint:allow(no-unwrap) the same config already built the explored network
            .expect("explore config must be valid");
        net.set_invariant_level(InvariantLevel::Full);
        let mut fault_fired = false;
        for &action in &self.path {
            run_cycle(&mut net, action, ctrl, cfg, &mut fault_fired);
        }
        net.trace_mut()
            .harvest()
            // lint:allow(no-unwrap) RecordSink::harvest is Some by contract
            .expect("a record sink always harvests")
    }

    /// Lowers the counterexample to the standard JSONL trace stream —
    /// directly consumable by `nbti-noc stats --trace`.
    pub fn to_jsonl(&self, cfg: &ExploreConfig, ctrl: &mut Controller<'_>) -> String {
        let log = self.events(cfg, ctrl);
        let mut out = String::new();
        for event in &log.events {
            event.write_jsonl(&mut out);
        }
        out
    }

    /// A human-readable rendering of the violating interleaving.
    pub fn describe(&self) -> String {
        let steps: Vec<String> = self.path.iter().map(|a| a.to_string()).collect();
        let kinds: Vec<&str> = self.violations.iter().map(|v| v.kind.id()).collect();
        format!(
            "violated {} after {} cycles: [{}]",
            kinds.join("+"),
            self.path.len(),
            steps.join(" ")
        )
    }
}

/// The all-on controller (the baseline policy's behaviour) — handy for
/// tests and as the degenerate adversary.
pub fn all_on_controller() -> impl FnMut(usize, &PortView) -> GateAction {
    |_aux, _view| GateAction::AllOn
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExploreConfig {
        // One packet, shallow depth: a sub-second smoke configuration.
        let mut cfg = ExploreConfig::small();
        cfg.max_packets = 1;
        cfg.depth = 8;
        cfg
    }

    #[test]
    fn exploration_is_deterministic() {
        let cfg = tiny();
        let a = explore(&cfg, &mut all_on_controller(), &mut StandardOracle);
        let b = explore(&cfg, &mut all_on_controller(), &mut StandardOracle);
        assert_eq!(a.unique_states, b.unique_states);
        assert_eq!(a.transitions, b.transitions);
        assert_eq!(a.deduplicated, b.deduplicated);
        assert!(a.counterexample.is_none());
    }

    #[test]
    fn the_root_state_counts() {
        let mut cfg = tiny();
        cfg.depth = 0;
        let report = explore(&cfg, &mut all_on_controller(), &mut StandardOracle);
        assert_eq!(report.unique_states, 1);
        assert_eq!(report.transitions, 0);
        assert!(!report.exhausted, "the root's successors are unknown");
    }

    #[test]
    fn deeper_bounds_discover_at_least_as_many_states() {
        let mut shallow = tiny();
        shallow.depth = 3;
        let mut deep = tiny();
        deep.depth = 5;
        let a = explore(&shallow, &mut all_on_controller(), &mut StandardOracle);
        let b = explore(&deep, &mut all_on_controller(), &mut StandardOracle);
        assert!(b.unique_states >= a.unique_states);
        assert!(!a.exhausted, "depth 3 cannot close a 1-packet space");
    }

    #[test]
    fn symmetry_reduces_or_preserves_the_state_count() {
        let plain = tiny();
        let mut sym = tiny();
        sym.symmetry = true;
        let a = explore(&plain, &mut all_on_controller(), &mut StandardOracle);
        let b = explore(&sym, &mut all_on_controller(), &mut StandardOracle);
        assert!(
            b.unique_states <= a.unique_states,
            "symmetry must never add states ({} > {})",
            b.unique_states,
            a.unique_states
        );
    }

    #[test]
    fn a_double_credit_fault_is_found_immediately() {
        let mut cfg = tiny();
        cfg.fault = Some(FaultKind::DoubleCredit);
        let report = explore(&cfg, &mut all_on_controller(), &mut StandardOracle);
        let cx = report.counterexample.expect("fault must be caught");
        assert_eq!(cx.path.len(), 1, "the very first cycle detects it");
        assert!(cx
            .violations
            .iter()
            .any(|v| v.kind == InvariantKind::CreditConservation));
    }

    #[test]
    fn replaying_a_counterexample_reproduces_the_violation() {
        let mut cfg = tiny();
        cfg.fault = Some(FaultKind::DoubleCredit);
        let report = explore(&cfg, &mut all_on_controller(), &mut StandardOracle);
        let cx = report.counterexample.expect("fault must be caught");
        let mut net = fresh(&cfg);
        let mut fault_fired = false;
        for &action in &cx.path {
            run_cycle(&mut net, action, &mut all_on_controller(), &cfg, &mut fault_fired);
        }
        let replayed = net.take_violations();
        assert_eq!(
            replayed.iter().map(|v| v.kind).collect::<Vec<_>>(),
            cx.violations.iter().map(|v| v.kind).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn fault_ids_round_trip_through_parse() {
        for kind in [
            FaultKind::GateOccupiedVc,
            FaultKind::DoubleCredit,
            FaultKind::DropFlit,
        ] {
            assert_eq!(FaultKind::parse(kind.id()), Ok(kind));
        }
        assert!(FaultKind::parse("nope").is_err());
    }
}
