//! Deterministic per-phase work counters.
//!
//! Hot-path profiling without wall-clock reads (which the determinism lint
//! forbids): the simulator and experiment engine count how many times each
//! pipeline phase did work. The counts are pure functions of the simulated
//! run, so they are bit-identical across `--jobs` values and double as a
//! cheap cross-check in determinism tests.

use std::ops::{Add, AddAssign};

/// Work performed per pipeline/engine phase over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Flits written into VC buffers (the BW stage, routers + NIC eject).
    pub bw_writes: u64,
    /// Route computations for head flits (the RC stage).
    pub rc_computes: u64,
    /// Output VCs granted to waiting heads (the VA stage).
    pub va_grants: u64,
    /// Crossbar traversals granted (the SA stage).
    pub sa_grants: u64,
    /// Gating commands applied to ports (`Up_Down` payloads, `NoChange`
    /// excluded), counted by the network, including reused commands the
    /// engine proved to be no-ops and did not re-apply.
    pub gate_commands: u64,
    /// Per-port policy decisions by the experiment engine, one per port
    /// per cycle; a reused decision counts like a fresh `decide` call.
    pub policy_evaluations: u64,
    /// Most-degraded-VC sensor elections (`Down_Up` reads).
    pub sensor_reads: u64,
}

impl WorkCounters {
    /// Sum of every counter — a scalar "work units" figure.
    pub fn total(&self) -> u64 {
        self.bw_writes
            + self.rc_computes
            + self.va_grants
            + self.sa_grants
            + self.gate_commands
            + self.policy_evaluations
            + self.sensor_reads
    }
}

impl Add for WorkCounters {
    type Output = WorkCounters;

    fn add(self, rhs: WorkCounters) -> WorkCounters {
        WorkCounters {
            bw_writes: self.bw_writes + rhs.bw_writes,
            rc_computes: self.rc_computes + rhs.rc_computes,
            va_grants: self.va_grants + rhs.va_grants,
            sa_grants: self.sa_grants + rhs.sa_grants,
            gate_commands: self.gate_commands + rhs.gate_commands,
            policy_evaluations: self.policy_evaluations + rhs.policy_evaluations,
            sensor_reads: self.sensor_reads + rhs.sensor_reads,
        }
    }
}

impl AddAssign for WorkCounters {
    fn add_assign(&mut self, rhs: WorkCounters) {
        *self = *self + rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_addition() {
        let a = WorkCounters {
            bw_writes: 1,
            rc_computes: 2,
            va_grants: 3,
            sa_grants: 4,
            gate_commands: 5,
            policy_evaluations: 6,
            sensor_reads: 7,
        };
        assert_eq!(a.total(), 28);
        let mut b = WorkCounters::default();
        b += a;
        b += a;
        assert_eq!(b, a + a);
        assert_eq!(b.total(), 56);
    }
}
