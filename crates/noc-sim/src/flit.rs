//! Flits and packets.
//!
//! Packets are split into flits (flow-control digits) at the injecting NIC:
//! a `Head` flit carrying the route information, zero or more `Body` flits,
//! and a `Tail` flit that releases the virtual channel. Single-flit packets
//! use `HeadTail`.
//!
//! A flit carries only what changes from flit to flit: its packet's index
//! in the network's [`PacketTable`], its position, its kind and its VC.
//! What the flits of a packet share ([`Packet`]: id, destination, length,
//! injection cycle) is kept once, in the table.

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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FlitKind {
    /// First flit; carries destination and claims a VC downstream.
    #[default]
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

    /// The kind of flit `seq` (zero-based) of a `len`-flit packet.
    pub const fn at(seq: usize, len: usize) -> FlitKind {
        if len == 1 {
            FlitKind::HeadTail
        } else if seq == 0 {
            FlitKind::Head
        } else if seq == len - 1 {
            FlitKind::Tail
        } else {
            FlitKind::Body
        }
    }
}

/// One flow-control digit travelling through the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Flit {
    /// The index of the flit's packet in the network's [`PacketTable`].
    pub packet: u32,
    /// Zero-based position within the packet.
    pub seq: u32,
    /// Head/body/tail marker.
    pub kind: FlitKind,
    /// The virtual channel the flit occupies on its *current* link; updated
    /// at every switch traversal.
    pub vc: u8,
}

// The rings of the VC arena hold flits by value: keep them small.
const _: () = assert!(std::mem::size_of::<Flit>() <= 16);

impl Flit {
    /// `true` if this is the first flit of its packet.
    pub const fn is_head(&self) -> bool {
        self.kind.is_head()
    }

    /// `true` if this is the last flit of its packet.
    pub const fn is_tail(&self) -> bool {
        self.kind.is_tail()
    }
}

/// Splits the packet at table index `packet`, of `len` flits, into its flit
/// sequence (all on VC 0).
///
/// # Panics
///
/// Panics if `len == 0`.
///
/// ```
/// use noc_sim::flit::{split_packet, FlitKind};
///
/// let flits = split_packet(1, 5);
/// assert_eq!(flits.len(), 5);
/// assert_eq!(flits[0].kind, FlitKind::Head);
/// assert_eq!(flits[4].kind, FlitKind::Tail);
/// assert!(flits[1..4].iter().all(|f| f.kind == FlitKind::Body));
/// ```
pub fn split_packet(packet: u32, len: usize) -> Vec<Flit> {
    assert!(len > 0, "a packet has at least one flit");
    (0..len)
        .map(|i| Flit {
            packet,
            seq: i as u32,
            kind: FlitKind::at(i, len),
            vc: 0,
        })
        .collect()
}

/// A packet: what its flits share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// The packet's id.
    pub id: PacketId,
    /// Destination node.
    pub dst: NodeId,
    /// Length in flits.
    pub len: usize,
    /// Cycle at which the packet entered the source NIC queue.
    pub injected_at: u64,
}

/// The packets in flight, indexed by [`Flit::packet`]. A packet takes an
/// entry when its head leaves the NIC and frees it when its tail is
/// ejected; freed entries are reused last-freed first, so the indices a
/// run hands out depend only on the run.
#[derive(Debug, Clone, Default)]
pub struct PacketTable {
    entries: Vec<Packet>,
    free: Vec<u32>,
}

impl PacketTable {
    /// Stores `packet` and returns its index.
    pub fn insert(&mut self, packet: Packet) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.entries[i as usize] = packet;
                i
            }
            None => {
                // lint:allow(alloc-in-hot-path) amortized: grows to the peak of packets in flight
                self.entries.push(packet);
                (self.entries.len() - 1) as u32
            }
        }
    }

    /// The packet at `index`.
    #[inline]
    pub fn get(&self, index: u32) -> &Packet {
        &self.entries[index as usize]
    }

    /// Frees `index` and returns what it held.
    pub fn remove(&mut self, index: u32) -> Packet {
        // lint:allow(alloc-in-hot-path) amortized: the free list keeps its capacity
        self.free.push(index);
        self.entries[index as usize]
    }

    /// `true` when no packet is in flight.
    pub fn is_empty(&self) -> bool {
        self.entries.len() == self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packets_split_into_head_bodies_and_tail() {
        let kinds =
            |len| -> Vec<FlitKind> { split_packet(9, len).iter().map(|f| f.kind).collect() };
        assert_eq!(kinds(1), [FlitKind::HeadTail]);
        assert_eq!(kinds(2), [FlitKind::Head, FlitKind::Tail]);
        assert_eq!(kinds(3), [FlitKind::Head, FlitKind::Body, FlitKind::Tail]);
        for (i, f) in split_packet(9, 6).iter().enumerate() {
            assert_eq!((f.seq, f.packet), (i as u32, 9));
        }
        assert!(FlitKind::Head.is_head() && !FlitKind::Head.is_tail());
        assert!(FlitKind::Tail.is_tail() && !FlitKind::Body.is_head());
        assert!(FlitKind::HeadTail.is_head() && FlitKind::HeadTail.is_tail());
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_length_packet_panics() {
        let _ = split_packet(0, 0);
    }

    #[test]
    fn the_packet_table_reuses_the_last_freed_entry() {
        let info = |id| Packet {
            id: PacketId(id),
            dst: NodeId(1),
            len: 1,
            injected_at: id,
        };
        let mut table = PacketTable::default();
        let (a, b) = (table.insert(info(1)), table.insert(info(2)));
        assert_eq!((a, b), (0, 1));
        assert_eq!(table.remove(a).id, PacketId(1));
        assert!(!table.is_empty());
        assert_eq!(table.insert(info(3)), a);
        assert_eq!(table.get(a).id, PacketId(3));
        table.remove(b);
        table.remove(a);
        assert!(table.is_empty());
    }
}
