//! Exhaustive model checking of the sensor-wise protocol.
//!
//! Until the `noc-modelcheck` explorer existed this module *sampled* the
//! protocol: 60 whole-run configurations under random traffic, each with
//! [`InvariantLevel::Full`](noc_sim::invariants::InvariantLevel). It is
//! now a thin policy-aware wrapper over the real thing — breadth-first
//! enumeration of **every** reachable whole-cycle state of the reference
//! small mesh ([`noc_modelcheck::ExploreConfig::small`]) under every
//! interleaving of injections, controller firings and control-epoch gaps.
//!
//! The wrapper's job is the policy adaptation the explorer itself stays
//! agnostic of:
//!
//! * building a per-policy controller closure whose adversarial auxiliary
//!   input stands in for the round-robin rotation phase *and* the
//!   `Down_Up` most-degraded election (every shipped policy is internally
//!   stateless, so one integer covers all of its nondeterminism),
//! * sizing the auxiliary branching (`1` for the oblivious baseline,
//!   `vcs_per_port` for everything else),
//! * wiring [`PolicyKind::idle_on_budget`] into the explorer's
//!   post-decision budget assertion.

use crate::parallel::parallel_map;
use crate::policy::PolicyKind;
use noc_modelcheck::{explore, ExploreConfig, ExploreReport, FaultKind, StandardOracle};
use noc_sim::view::{GateAction, PortView};
use std::fmt;

/// The exploration depth `model_check_default` (and `scripts/ci.sh`) gate
/// on: deep enough for the reference space to close (`exhausted`) for
/// every checked policy, small enough for CI.
pub const DEFAULT_DEPTH: usize = 28;

/// The policies the model checker exercises: every member of
/// [`PolicyKind::ALL`] plus a k-of-n variant, so the idle-on-budget
/// invariant is checked for a budget other than one.
pub fn checked_policies() -> Vec<PolicyKind> {
    let mut policies = PolicyKind::ALL.to_vec();
    policies.push(PolicyKind::SensorWiseK(2));
    policies
}

/// One cell of the model-check matrix.
#[derive(Debug, Clone)]
pub struct CheckCase {
    /// The gating policy under test.
    pub policy: PolicyKind,
    /// Exploration depth bound in cycles.
    pub depth: usize,
    /// Deduplicate states up to mesh reflection and VC permutation.
    pub symmetry: bool,
}

impl fmt::Display for CheckCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} | depth {}{}",
            self.policy,
            self.depth,
            if self.symmetry { " | symmetry" } else { "" }
        )
    }
}

/// The explorer configuration a policy is checked under: the reference
/// small mesh with the policy's idle-on budget and auxiliary branching.
pub fn explore_config_for(policy: PolicyKind, depth: usize, symmetry: bool) -> ExploreConfig {
    let mut cfg = ExploreConfig::small();
    cfg.depth = depth;
    cfg.symmetry = symmetry;
    // The baseline ignores both the cycle counter and the sensor word, so
    // branching its auxiliary input would only re-discover duplicates.
    cfg.aux_choices = if policy == PolicyKind::Baseline {
        1
    } else {
        cfg.noc.vcs_per_port
    };
    cfg.idle_on_budget = policy.idle_on_budget();
    cfg
}

/// Adapts a [`PolicyKind`] to the explorer's controller interface. The
/// auxiliary input is fed to the policy both as its cycle counter (with a
/// rotation period of 1, making the round-robin candidate `aux % vcs`)
/// and as the most-degraded VC id.
pub fn controller_for(policy: PolicyKind) -> impl FnMut(usize, &PortView) -> GateAction {
    let mut built = policy.build(1);
    move |aux, view| built.decide(aux as u64, view, aux)
}

/// The outcome of one model-checked case.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// The case that produced this outcome.
    pub case: CheckCase,
    /// The explorer's report for the case.
    pub report: ExploreReport,
}

impl CheckOutcome {
    /// True when the case explored its space without any violation.
    pub fn ok(&self) -> bool {
        self.report.counterexample.is_none()
    }
}

/// A full model-check report.
#[derive(Debug, Clone)]
pub struct ModelCheckReport {
    /// Per-case outcomes, in matrix order.
    pub outcomes: Vec<CheckOutcome>,
}

impl ModelCheckReport {
    /// True when no case found a counterexample.
    pub fn ok(&self) -> bool {
        self.outcomes.iter().all(CheckOutcome::ok)
    }

    /// Total violations across the whole matrix.
    pub fn total_violations(&self) -> u64 {
        self.outcomes
            .iter()
            .filter_map(|o| o.report.counterexample.as_ref())
            .map(|cx| cx.violations.len() as u64)
            .sum()
    }

    /// The outcomes that found a counterexample.
    pub fn failures(&self) -> impl Iterator<Item = &CheckOutcome> {
        self.outcomes.iter().filter(|o| !o.ok())
    }

    /// Renders a human-readable summary (one line per case, then the
    /// counterexample interleaving for every failure).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for o in &self.outcomes {
            let status = if o.ok() { "ok" } else { "FAIL" };
            out.push_str(&format!(
                "{status:>4}  {}  ({})\n",
                o.case,
                o.report.summary()
            ));
        }
        for o in self.failures() {
            let cx = o.report.counterexample.as_ref().expect("failures have one");
            out.push_str(&format!(
                "\ncounterexample for {}:\n  {}\n",
                o.case,
                cx.describe()
            ));
            for v in &cx.violations {
                out.push_str(&format!("  {v}\n"));
            }
        }
        out
    }
}

/// The default matrix: every checked policy at [`DEFAULT_DEPTH`], exact
/// (symmetry off, arbiter pointers included in the state).
pub fn default_cases() -> Vec<CheckCase> {
    checked_policies()
        .into_iter()
        .map(|policy| CheckCase {
            policy,
            depth: DEFAULT_DEPTH,
            symmetry: false,
        })
        .collect()
}

/// Explores every case exhaustively, fanned out across `jobs` worker
/// threads (cases are independent explorations).
///
/// # Panics
///
/// Panics if `jobs == 0`.
pub fn model_check(cases: &[CheckCase], jobs: usize) -> ModelCheckReport {
    model_check_with_fault(cases, jobs, None)
}

/// [`model_check`] with an optional protocol fault armed along every
/// explored path — the CI counterexample smoke and the mutation-style
/// test harness enter here.
pub fn model_check_with_fault(
    cases: &[CheckCase],
    jobs: usize,
    fault: Option<FaultKind>,
) -> ModelCheckReport {
    let outcomes = parallel_map(cases, jobs, |_, case| {
        let mut cfg = explore_config_for(case.policy, case.depth, case.symmetry);
        cfg.fault = fault;
        let mut ctrl = controller_for(case.policy);
        let report = explore(&cfg, &mut ctrl, &mut StandardOracle);
        CheckOutcome {
            case: case.clone(),
            report,
        }
    });
    ModelCheckReport { outcomes }
}

/// Runs the default matrix.
pub fn model_check_default(jobs: usize) -> ModelCheckReport {
    model_check(&default_cases(), jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_every_checked_policy() {
        let cases = default_cases();
        assert_eq!(cases.len(), 5);
        for policy in checked_policies() {
            assert!(cases.iter().any(|c| c.policy == policy));
        }
    }

    #[test]
    fn shallow_exploration_holds_every_invariant_for_every_policy() {
        // A reduced depth keeps the test fast; CI gates the full closure
        // depth via `nbti-noc verify` and the `model_check` bench binary.
        let cases: Vec<CheckCase> = default_cases()
            .into_iter()
            .map(|mut c| {
                c.depth = 6;
                c
            })
            .collect();
        let report = model_check(&cases, 2);
        assert!(report.ok(), "counterexamples found:\n{}", report.render());
        // The exploration actually moved: well past the root state (the
        // baseline's space is the smallest — 65 states at this depth).
        assert!(report.outcomes.iter().all(|o| o.report.unique_states > 50));
    }

    #[test]
    fn an_armed_fault_defeats_every_policy() {
        let cases: Vec<CheckCase> = default_cases()
            .into_iter()
            .map(|mut c| {
                c.depth = 6;
                c
            })
            .collect();
        let report = model_check_with_fault(&cases, 2, Some(FaultKind::DoubleCredit));
        assert!(!report.ok());
        assert_eq!(report.failures().count(), cases.len());
    }

    #[test]
    fn report_renders_one_line_per_case() {
        let cases: Vec<CheckCase> = default_cases()
            .into_iter()
            .take(2)
            .map(|mut c| {
                c.depth = 3;
                c
            })
            .collect();
        let report = model_check(&cases, 1);
        let text = report.render();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("ok"));
    }

    #[test]
    fn baseline_branches_no_auxiliary_input() {
        assert_eq!(
            explore_config_for(PolicyKind::Baseline, 4, false).aux_choices,
            1
        );
        assert_eq!(
            explore_config_for(PolicyKind::SensorWise, 4, false).aux_choices,
            2
        );
        assert_eq!(
            explore_config_for(PolicyKind::SensorWiseK(2), 4, false).idle_on_budget,
            Some(2)
        );
    }
}
