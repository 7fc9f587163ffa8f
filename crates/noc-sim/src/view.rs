//! The power-gating control interface between the simulator and the NBTI
//! mitigation policies.
//!
//! Every *buffer port* (a set of VC buffers fed by exactly one upstream
//! agent) is addressable by a [`PortId`]. The upstream agent — a neighbour
//! router's output port, or the tile NIC — owns the corresponding *output
//! VC state*, performs VC allocation for it, and (in the paper's scheme)
//! decides each cycle which VCs the downstream port may power-gate. The
//! [`PortView`] captures exactly the information the paper's Algorithms 1
//! and 2 consume; the [`GateAction`] captures what they produce (the
//! `Up_Down` link payload: an `enable` bit plus a VC identifier).

use crate::types::{Direction, NodeId};
use crate::unit::all_vcs;
use std::fmt;

/// Which buffer port of the network a view/command refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId {
    /// The tile hosting the buffers.
    pub node: NodeId,
    /// Which buffer set on that tile.
    pub kind: PortKind,
}

impl PortId {
    /// A router input port.
    pub const fn router_input(node: NodeId, dir: Direction) -> Self {
        PortId {
            node,
            kind: PortKind::RouterInput(dir),
        }
    }

    /// The NIC ejection buffers of a tile.
    pub const fn nic_eject(node: NodeId) -> Self {
        PortId {
            node,
            kind: PortKind::NicEject,
        }
    }

    /// Buffer-port kinds per tile: the five router inputs and the NIC
    /// ejection buffers.
    pub const KINDS_PER_NODE: usize = 6;

    /// The port's dense key, `node × 6 + kind`: the router input's
    /// direction index (0–4), or 5 for the NIC ejection buffers. A table
    /// indexed by it resolves a port with one array load; keys of distinct
    /// ports are distinct.
    pub const fn dense_key(self) -> usize {
        let kind = match self.kind {
            PortKind::RouterInput(d) => d.index(),
            PortKind::NicEject => Self::KINDS_PER_NODE - 1,
        };
        self.node.index() * Self::KINDS_PER_NODE + kind
    }
}

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            PortKind::RouterInput(d) => write!(f, "{}-{}", self.node, d),
            PortKind::NicEject => write!(f, "{}-eject", self.node),
        }
    }
}

impl From<PortId> for noc_telemetry::PortCode {
    fn from(p: PortId) -> Self {
        let node = p.node.index() as u32;
        match p.kind {
            PortKind::RouterInput(d) => {
                noc_telemetry::PortCode::router_input(node, d.index() as u8)
            }
            PortKind::NicEject => noc_telemetry::PortCode::nic_eject(node),
        }
    }
}

/// The kind of buffer port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PortKind {
    /// An input port of the tile's router. `RouterInput(Local)` is fed by
    /// the tile's own NIC; the mesh directions are fed by the neighbour
    /// router in that direction.
    RouterInput(Direction),
    /// The NIC ejection buffers, fed by the router's local output port.
    NicEject,
}

/// Status of one VC of a buffer port, *as seen by the upstream agent*
/// through its output VC state — the information the paper's algorithms
/// operate on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VcStatus {
    /// The VC is allocated to an in-flight packet (its bit in the
    /// upstream output unit's `active` mask is set). It must stay powered.
    Busy,
    /// The VC is idle from the network's point of view and currently
    /// powered — under NBTI stress.
    IdleOn,
    /// The VC is idle and power-gated — recovering. The paper's
    /// `is_recovery` predicate.
    Off,
}

impl VcStatus {
    /// `true` when the buffer is powered this cycle (NBTI stress).
    pub const fn is_stressed(self) -> bool {
        matches!(self, VcStatus::Busy | VcStatus::IdleOn)
    }

    /// `true` when the VC holds no packet (the paper's
    /// `is_idle(vc) or is_recovery(vc)` disjunction).
    pub const fn is_free(self) -> bool {
        matches!(self, VcStatus::IdleOn | VcStatus::Off)
    }
}

/// Per-cycle snapshot of one buffer port, handed to a gating policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortView {
    /// The port this snapshot describes.
    pub port: PortId,
    /// Status of each VC, indexed by VC id.
    pub vc_status: Vec<VcStatus>,
    /// The paper's `is_new_traffic_outport_x()`: `true` when at least one
    /// packet buffered at the upstream agent wants to traverse this port
    /// and has no VC allocated yet.
    pub new_traffic: bool,
}

impl PortView {
    /// Number of VCs of this port.
    pub fn num_vcs(&self) -> usize {
        self.vc_status.len()
    }

    /// Count of free (idle or recovering) VCs.
    pub fn count_free(&self) -> usize {
        self.vc_status.iter().filter(|s| s.is_free()).count()
    }
}

/// Everything a [`PortView`] is built from, as three words: the upstream
/// `active` mask (bit `v`: VC `v` is [`VcStatus::Busy`]), the downstream
/// `powered` mask and the new-traffic bit. Two equal keys of one port give
/// equal views, so a controller can compare keys instead of views.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct PortKey {
    /// Upstream output VCs holding a packet.
    pub active: u32,
    /// Downstream VC buffers that are powered (stressed).
    pub powered: u32,
    /// [`PortView::new_traffic`].
    pub new_traffic: bool,
}

/// The gating decision for one buffer port — the `Up_Down` link payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateAction {
    /// Power every VC; any idle VC may be allocated (the NBTI-unaware
    /// baseline).
    AllOn,
    /// `enable = 0`: gate every idle VC off; no VC may receive a new
    /// allocation this cycle.
    AllIdleOff,
    /// `enable = 1` with a valid VC-ID: keep exactly this idle VC powered
    /// and allocatable, gate every other idle VC off.
    KeepOneIdle {
        /// The VC that must be left idle-on.
        vc: usize,
    },
    /// Generalized designation (the NBTI/performance trade-off extension):
    /// keep the idle VCs whose mask bit is set powered and allocatable,
    /// gate the other idle VCs off. `KeepOneIdle { vc }` is equivalent to
    /// `KeepIdle { mask: 1 << vc }`.
    KeepIdle {
        /// Bit `v` keeps VC `v` idle-on.
        mask: u32,
    },
    /// Leave power states and allocation eligibility untouched.
    NoChange,
}

impl GateAction {
    /// The set of idle VCs this action leaves powered, as a bit mask
    /// (`None` for [`GateAction::NoChange`], which has no defined set).
    pub fn kept_idle_mask(self, num_vcs: usize) -> Option<u32> {
        match self {
            GateAction::AllOn => Some(all_vcs(num_vcs)),
            GateAction::AllIdleOff => Some(0),
            GateAction::KeepOneIdle { vc } => Some(1 << vc),
            GateAction::KeepIdle { mask } => Some(mask),
            GateAction::NoChange => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Port tables and traces label a port by node and mesh side.
    #[test]
    fn port_labels_keep_mesh_spelling() {
        assert_eq!(
            PortId::router_input(NodeId(2), Direction::West).to_string(),
            "r2-W"
        );
        assert_eq!(PortId::nic_eject(NodeId(1)).to_string(), "r1-eject");
        assert_eq!(
            PortId::router_input(NodeId(0), Direction::Local).to_string(),
            "r0-L"
        );
    }

    #[test]
    fn status_predicates() {
        assert!(VcStatus::Busy.is_stressed());
        assert!(VcStatus::IdleOn.is_stressed());
        assert!(!VcStatus::Off.is_stressed());
        assert!(!VcStatus::Busy.is_free());
        assert!(VcStatus::IdleOn.is_free());
        assert!(VcStatus::Off.is_free());
    }

    #[test]
    fn view_counts_free_vcs() {
        let view = PortView {
            port: PortId::router_input(NodeId(0), Direction::East),
            vc_status: vec![
                VcStatus::Busy,
                VcStatus::IdleOn,
                VcStatus::Off,
                VcStatus::Off,
            ],
            new_traffic: true,
        };
        assert_eq!(view.num_vcs(), 4);
        assert_eq!(view.count_free(), 3);
    }

    #[test]
    fn port_id_display() {
        assert_eq!(
            PortId::router_input(NodeId(2), Direction::West).to_string(),
            "r2-W"
        );
        assert_eq!(PortId::nic_eject(NodeId(1)).to_string(), "r1-eject");
    }

    #[test]
    fn port_code_conversion_preserves_display() {
        for pid in [
            PortId::router_input(NodeId(2), Direction::West),
            PortId::router_input(NodeId(0), Direction::Local),
            PortId::nic_eject(NodeId(1)),
        ] {
            let code: noc_telemetry::PortCode = pid.into();
            assert_eq!(code.to_string(), pid.to_string());
        }
    }

    #[test]
    fn dense_keys_are_distinct_and_packed() {
        let mut keys: Vec<usize> = (0..3)
            .flat_map(|n| {
                Direction::ALL
                    .into_iter()
                    .map(move |d| PortId::router_input(NodeId(n), d))
                    .chain([PortId::nic_eject(NodeId(n))])
            })
            .map(PortId::dense_key)
            .collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..3 * PortId::KINDS_PER_NODE).collect::<Vec<_>>());
    }

    #[test]
    fn port_ids_order_deterministically() {
        let a = PortId::router_input(NodeId(0), Direction::North);
        let b = PortId::router_input(NodeId(0), Direction::South);
        let c = PortId::nic_eject(NodeId(0));
        let mut v = [c, b, a];
        v.sort();
        assert_eq!(v[0], a);
    }
}
