//! Runtime invariant checking for the sensor-wise gating protocol.
//!
//! The simulator's correctness argument rests on a handful of properties
//! that are true *by construction* — until a refactor, a new policy, or a
//! perf optimisation silently breaks one. This module turns them into
//! machine-checked invariants that [`crate::network::Network`] evaluates at
//! the end of every cycle when a non-[`Off`](InvariantLevel::Off) level is
//! selected:
//!
//! | Invariant | Level | Paper anchor |
//! |---|---|---|
//! | *gating safety* — a power-gated VC holds no flits and no allocation | Cheap | §III: "only idle VCs may be gated" |
//! | *flit conservation* — injected = delivered + in-flight | Cheap | credit-based wormhole substrate |
//! | *VC state consistency* — the VC masks agree with each other and the buffers; an active input VC references an active output VC | Full | Garnet `Router_d` state machine |
//! | *credit conservation* — credits + buffered + in-flight = depth, per channel | Full | credit-based flow control |
//! | *idle-on budget* — at most `k` idle-on VCs per port pair | on request | Algorithm 2's single-designation property |
//! | *duty closure* — stress + recovery = powered-era cycles | harness | §III-A NBTI-duty-cycle definition |
//!
//! The first four are structural and checked inside `noc-sim`; the last two
//! involve policy/monitor knowledge and are driven by the experiment
//! harness through [`crate::network::Network::check_idle_on_budget`] and
//! the `sensorwise` crate's duty accounting.
//!
//! Violations are *recorded*, not panicked on, so fault-injection tests and
//! the model-check harness can observe diagnostics; asserting emptiness is
//! the caller's job.

use std::fmt;
use std::str::FromStr;

/// How much invariant checking the network performs per cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InvariantLevel {
    /// No checking (production sweeps).
    #[default]
    Off,
    /// O(ports × VCs) structural checks every cycle: gating safety and
    /// flit conservation.
    Cheap,
    /// Everything in `Cheap` plus per-channel credit conservation and VC
    /// state-machine consistency every cycle (model checking, CI).
    Full,
}

impl InvariantLevel {
    /// `true` unless the level is [`InvariantLevel::Off`].
    pub fn is_enabled(self) -> bool {
        self != InvariantLevel::Off
    }
}

impl fmt::Display for InvariantLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantLevel::Off => write!(f, "off"),
            InvariantLevel::Cheap => write!(f, "cheap"),
            InvariantLevel::Full => write!(f, "full"),
        }
    }
}

/// Error returned when parsing an [`InvariantLevel`] fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseInvariantLevelError(String);

impl fmt::Display for ParseInvariantLevelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown invariant level `{}` (expected off, cheap or full)",
            self.0
        )
    }
}

impl std::error::Error for ParseInvariantLevelError {}

impl FromStr for InvariantLevel {
    type Err = ParseInvariantLevelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(InvariantLevel::Off),
            "cheap" => Ok(InvariantLevel::Cheap),
            "full" => Ok(InvariantLevel::Full),
            other => Err(ParseInvariantLevelError(other.to_string())),
        }
    }
}

/// Which protocol property a violation breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InvariantKind {
    /// A power-gated VC holds flits, or an allocated VC is unpowered.
    GatingSafety,
    /// Injected flits ≠ delivered flits + flits in the network.
    FlitConservation,
    /// The VC masks disagree with each other or with the buffers (a VC
    /// both waiting and active, a waiting VC without a routed head, an
    /// `occupied` bit without flits, a mask bit beyond the port's VCs), an
    /// active input VC references an output VC that is not active, or a
    /// streaming NIC references an idle inject VC.
    VcStateConsistency,
    /// For one upstream/downstream channel: credits held + credits in
    /// flight + flits buffered + flits in flight ≠ buffer depth.
    CreditConservation,
    /// More idle-on (powered but unallocated) VCs on a port than the
    /// policy's designation budget allows.
    IdleOnBudget,
    /// A VC's stress + recovery cycle counts do not add up to the cycles
    /// it was monitored for.
    DutyClosure,
}

impl InvariantKind {
    /// Stable kebab-case identifier (used in diagnostics and CI output).
    pub fn id(self) -> &'static str {
        match self {
            InvariantKind::GatingSafety => "gating-safety",
            InvariantKind::FlitConservation => "flit-conservation",
            InvariantKind::VcStateConsistency => "vc-state-consistency",
            InvariantKind::CreditConservation => "credit-conservation",
            InvariantKind::IdleOnBudget => "idle-on-budget",
            InvariantKind::DutyClosure => "duty-closure",
        }
    }
}

impl fmt::Display for InvariantKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One detected protocol violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// The cycle whose end-of-cycle check detected the violation.
    pub cycle: u64,
    /// The broken property.
    pub kind: InvariantKind,
    /// Human-readable location and evidence.
    pub detail: String,
}

impl InvariantViolation {
    /// A violation of `kind` detected at `cycle`. The evidence is only
    /// formatted here, so the checks pay nothing for it until one fails.
    pub(crate) fn new(cycle: u64, kind: InvariantKind, detail: fmt::Arguments<'_>) -> Self {
        InvariantViolation {
            cycle,
            kind,
            // lint:allow(alloc-in-hot-path) cold branch: only runs on a violation
            detail: detail.to_string(),
        }
    }
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}: [{}] {}", self.cycle, self.kind, self.detail)
    }
}

/// Cap on the violations a network keeps in memory. Every violation is
/// still *counted* in [`crate::stats::NetStats::invariant_violations`];
/// only the detailed records stop accumulating, so a long broken run
/// cannot exhaust memory.
pub const MAX_RECORDED_VIOLATIONS: usize = 64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parses_round_trip() {
        for level in [
            InvariantLevel::Off,
            InvariantLevel::Cheap,
            InvariantLevel::Full,
        ] {
            assert_eq!(level.to_string().parse::<InvariantLevel>(), Ok(level));
        }
        assert!("FULL".parse::<InvariantLevel>().is_err());
        let err = "x".parse::<InvariantLevel>().unwrap_err();
        assert!(err.to_string().contains("unknown invariant level"));
    }

    #[test]
    fn level_default_is_off_and_enablement_matches() {
        assert_eq!(InvariantLevel::default(), InvariantLevel::Off);
        assert!(!InvariantLevel::Off.is_enabled());
        assert!(InvariantLevel::Cheap.is_enabled());
        assert!(InvariantLevel::Full.is_enabled());
    }

    #[test]
    fn violation_display_carries_kind_and_cycle() {
        let v = InvariantViolation {
            cycle: 42,
            kind: InvariantKind::CreditConservation,
            detail: "r0-E vc1: 3 + 0 + 0 + 0 != 4".to_string(),
        };
        let s = v.to_string();
        assert!(s.contains("cycle 42"), "{s}");
        assert!(s.contains("credit-conservation"), "{s}");
    }

    #[test]
    fn kind_ids_are_unique() {
        let kinds = [
            InvariantKind::GatingSafety,
            InvariantKind::FlitConservation,
            InvariantKind::VcStateConsistency,
            InvariantKind::CreditConservation,
            InvariantKind::IdleOnBudget,
            InvariantKind::DutyClosure,
        ];
        for (i, a) in kinds.iter().enumerate() {
            for b in &kinds[i + 1..] {
                assert_ne!(a.id(), b.id());
            }
        }
    }
}
