//! Flits and packets.
//!
//! Packets are split into flits (flow-control digits) at the injecting NIC:
//! a `Head` flit carrying the route information, zero or more `Body` flits,
//! and a `Tail` flit that releases the virtual channel. Single-flit packets
//! use `HeadTail`.

use crate::types::NodeId;
use std::fmt;

/// Globally unique packet identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(pub u64);

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Position of a flit inside its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlitKind {
    /// First flit; carries destination and claims a VC downstream.
    Head,
    /// Middle flit.
    Body,
    /// Last flit; releases the VC downstream.
    Tail,
    /// Single-flit packet: head and tail at once.
    HeadTail,
}

impl FlitKind {
    /// `true` for `Head` and `HeadTail`.
    pub const fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }

    /// `true` for `Tail` and `HeadTail`.
    pub const fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }
}

/// One flow-control digit travelling through the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// The packet this flit belongs to.
    pub packet: PacketId,
    /// Head/body/tail marker.
    pub kind: FlitKind,
    /// Injecting node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Zero-based position within the packet.
    pub seq: u32,
    /// The virtual channel the flit occupies on its *current* link; updated
    /// at every switch traversal.
    pub vc: usize,
    /// Cycle at which the packet entered the source NIC queue.
    pub injected_at: u64,
}

impl Flit {
    /// Creates a flit; `seq` and `kind` must be consistent with the packet
    /// length (checked by [`split_packet`]).
    pub fn new(
        packet: PacketId,
        kind: FlitKind,
        src: NodeId,
        dst: NodeId,
        seq: u32,
        injected_at: u64,
    ) -> Self {
        Flit {
            packet,
            kind,
            src,
            dst,
            seq,
            vc: 0,
            injected_at,
        }
    }

    /// `true` if this is the first flit of its packet.
    pub const fn is_head(&self) -> bool {
        self.kind.is_head()
    }

    /// `true` if this is the last flit of its packet.
    pub const fn is_tail(&self) -> bool {
        self.kind.is_tail()
    }
}

/// Splits a packet of `len` flits into its flit sequence.
///
/// # Panics
///
/// Panics if `len == 0`.
///
/// ```
/// use noc_sim::flit::{split_packet, FlitKind, PacketId};
/// use noc_sim::types::NodeId;
///
/// let flits = split_packet(PacketId(1), NodeId(0), NodeId(3), 5, 100);
/// assert_eq!(flits.len(), 5);
/// assert_eq!(flits[0].kind, FlitKind::Head);
/// assert_eq!(flits[4].kind, FlitKind::Tail);
/// assert!(flits[1..4].iter().all(|f| f.kind == FlitKind::Body));
/// ```
pub fn split_packet(
    packet: PacketId,
    src: NodeId,
    dst: NodeId,
    len: usize,
    injected_at: u64,
) -> Vec<Flit> {
    assert!(len > 0, "a packet has at least one flit");
    (0..len)
        .map(|i| {
            let kind = if len == 1 {
                FlitKind::HeadTail
            } else if i == 0 {
                FlitKind::Head
            } else if i == len - 1 {
                FlitKind::Tail
            } else {
                FlitKind::Body
            };
            Flit::new(packet, kind, src, dst, i as u32, injected_at)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_flit_packet_is_headtail() {
        let flits = split_packet(PacketId(0), NodeId(0), NodeId(1), 1, 0);
        assert_eq!(flits.len(), 1);
        assert_eq!(flits[0].kind, FlitKind::HeadTail);
        assert!(flits[0].is_head() && flits[0].is_tail());
    }

    #[test]
    fn two_flit_packet_has_head_and_tail() {
        let flits = split_packet(PacketId(0), NodeId(0), NodeId(1), 2, 0);
        assert_eq!(flits[0].kind, FlitKind::Head);
        assert_eq!(flits[1].kind, FlitKind::Tail);
    }

    #[test]
    fn sequence_numbers_are_consecutive() {
        let flits = split_packet(PacketId(9), NodeId(2), NodeId(7), 6, 33);
        for (i, f) in flits.iter().enumerate() {
            assert_eq!(f.seq, i as u32);
            assert_eq!(f.injected_at, 33);
            assert_eq!(f.packet, PacketId(9));
        }
    }

    #[test]
    fn head_tail_predicates() {
        assert!(FlitKind::Head.is_head());
        assert!(!FlitKind::Head.is_tail());
        assert!(FlitKind::Tail.is_tail());
        assert!(!FlitKind::Body.is_head());
        assert!(FlitKind::HeadTail.is_head() && FlitKind::HeadTail.is_tail());
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_length_packet_panics() {
        let _ = split_packet(PacketId(0), NodeId(0), NodeId(1), 0, 0);
    }
}
