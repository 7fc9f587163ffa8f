//! Drained-boundary network snapshots.
//!
//! A [`NetworkSnapshot`] captures everything a [`Network`](crate::Network)
//! carries across a *drained* boundary: no flits buffered or in flight, no
//! credits outstanding, no packet mid-injection. At such a boundary the
//! dynamic state (buffers, arrival queues, credit loops, allocation state)
//! is structurally empty, so the snapshot only needs the persistent
//! counters, the gating configuration, and the arbiter priority pointers —
//! restoring it onto a freshly built network yields a simulator that is
//! behaviourally bit-identical to the original continuing past the
//! boundary. The lifetime-campaign engine snapshots at every epoch
//! boundary, which is what makes checkpoint/resume digests exact.
//!
//! Capture refuses (with a typed [`SnapshotStateError`]) whenever the
//! network is *not* settled, rather than producing a snapshot that would
//! silently drop in-flight state.

use crate::stats::NetStats;
use crate::view::PortId;
use noc_telemetry::WorkCounters;
use std::error::Error;
use std::fmt;

/// Persistent per-port state carried across a drained boundary.
///
/// Ports appear in [`Network::port_ids`](crate::Network::port_ids) order;
/// masks are bit `v` = VC `v`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortState {
    /// Power state of the downstream input VCs (bit set = powered).
    pub powered_mask: u32,
    /// Allocation eligibility of the upstream output VCs.
    pub allocatable_mask: u32,
    /// Absolute wake-up deadlines (`usable_at`) of the upstream output
    /// VCs, one per VC.
    pub usable_at: Vec<u64>,
    /// Lifetime power-gating transition count of the downstream unit.
    pub gate_transitions: u64,
    /// Lifetime flits written into the downstream unit.
    pub flits_received: u64,
}

/// A complete drained-boundary snapshot of a network.
///
/// Produced by [`Network::snapshot`](crate::Network::snapshot), consumed by
/// [`Network::restore`](crate::Network::restore).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkSnapshot {
    /// The cycle counter at the boundary; the restored network resumes
    /// from this cycle.
    pub cycle: u64,
    /// Next packet id to be allocated by `inject_packet`.
    pub next_packet: u64,
    /// Lifetime flits-sent counter (survives `reset_stats`).
    pub flits_sent_total: u64,
    /// Lifetime flits-ejected counter (survives `reset_stats`).
    pub flits_ejected_total: u64,
    /// The resettable statistics window as of the boundary.
    pub stats: NetStats,
    /// Simulator work counters as of the boundary.
    pub work: WorkCounters,
    /// Per-port persistent state, in `port_ids` order.
    pub ports: Vec<PortState>,
    /// Round-robin priority pointers in canonical order: for every node,
    /// for every router port, the VA, output-SA and input-SA arbiter of
    /// that port.
    pub arbiters: Vec<u32>,
}

/// Why a snapshot could not be captured or applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotStateError {
    /// Flits are still buffered, in flight, or queued for injection.
    NotQuiescent {
        /// Flits inside routers, NIC eject buffers, or on links.
        in_network: usize,
        /// Whole packets still queued or streaming at NICs.
        pending_injection: usize,
    },
    /// The credit loops have not settled: credits are still in flight or
    /// an output VC is missing credits / still marked active.
    CreditsOutstanding {
        /// The port whose upstream output unit is unsettled.
        port: PortId,
    },
    /// Invariant violations were recorded but not yet drained with
    /// `take_violations`; snapshotting would silently discard them.
    PendingViolations {
        /// Number of recorded violations.
        count: usize,
    },
    /// The snapshot does not fit the target network's shape.
    ShapeMismatch {
        /// What differed (ports, VCs, arbiters).
        what: &'static str,
        /// Count found in the snapshot.
        got: usize,
        /// Count the network expects.
        want: usize,
    },
    /// `restore` was called on a network that has already run.
    TargetNotFresh {
        /// The target network's cycle counter.
        cycle: u64,
    },
}

impl fmt::Display for SnapshotStateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotStateError::NotQuiescent {
                in_network,
                pending_injection,
            } => write!(
                f,
                "network not quiescent: {in_network} flit(s) in network, \
                 {pending_injection} packet(s) pending injection"
            ),
            SnapshotStateError::CreditsOutstanding { port } => {
                write!(f, "credit loop not settled at port {port:?}")
            }
            SnapshotStateError::PendingViolations { count } => {
                write!(f, "{count} invariant violation(s) recorded but not drained")
            }
            SnapshotStateError::ShapeMismatch { what, got, want } => {
                write!(
                    f,
                    "snapshot shape mismatch: {got} {what}, network has {want}"
                )
            }
            SnapshotStateError::TargetNotFresh { cycle } => write!(
                f,
                "restore target must be freshly built, but is at cycle {cycle}"
            ),
        }
    }
}

impl Error for SnapshotStateError {}
