//! The tile network interface (NIC).
//!
//! The injection side queues whole packets, performs VC allocation on the
//! router's local input port (acting as that port's *upstream agent*: the
//! upstream side of the port's slot in the [`Arena`]), and streams one
//! flit per cycle subject to credits. The ejection side is the downstream
//! side of the router's local output slot; it drains one flit per VC per
//! cycle, returning credits.

use crate::flit::{Flit, FlitKind, Packet, PacketTable};
use crate::invariants::{InvariantKind, InvariantViolation};
use crate::types::NodeId;
use crate::unit::{Arena, Credit};
use noc_telemetry::{EventKind, TraceEvent, TraceSink};
use std::collections::VecDeque;

/// A packet currently being streamed into the router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TxState {
    pub packet: Packet,
    /// The packet's entry in the packet table.
    pub index: u32,
    pub next_seq: usize,
    pub out_vc: usize,
}

/// One tile's network interface.
#[derive(Debug, Clone)]
pub(crate) struct Nic {
    pub node: NodeId,
    /// Packets waiting for injection (none of them has a VC yet — exactly
    /// the paper's *new packet* notion for the local port pair).
    pub queue: VecDeque<Packet>,
    /// The packet currently streaming, if any.
    pub current: Option<TxState>,
    /// The slot of the router's local input port, whose output VCs the
    /// injection side allocates.
    pub inject: usize,
    /// The slot of the router's local output port, whose buffers are the
    /// ejection side.
    pub eject: usize,
}

impl Nic {
    pub fn new(node: NodeId, inject: usize, eject: usize) -> Self {
        Nic {
            node,
            queue: VecDeque::new(),
            current: None,
            inject,
            eject,
        }
    }

    /// `true` when a queued or streaming packet is waiting to enter the
    /// network.
    #[inline]
    pub fn has_packet(&self) -> bool {
        self.current.is_some() || !self.queue.is_empty()
    }

    /// Whether a step could make progress before anything else writes the
    /// NIC's inputs: a flit is in its ejection buffers, the streaming
    /// packet has a credit, or the queue head has an allocatable idle VC
    /// (usable now or once it has woken up). Otherwise a step changes
    /// nothing until a credit, a gate command on the injection slot, a new
    /// packet or a delivery reaches the NIC. Reads only.
    #[inline]
    pub fn could_progress(&self, arena: &Arena) -> bool {
        if arena.masks[self.eject].occupied != 0 {
            return true;
        }
        match self.current {
            Some(tx) => arena.credits[arena.vc_index(self.inject, tx.out_vc)] > 0,
            None => {
                let m = arena.masks[self.inject];
                !self.queue.is_empty() && m.allocatable & !m.out_active != 0
            }
        }
    }

    /// Runs the injection side for one cycle: allocate a VC for the queue
    /// head if possible (entering the packet into `packets`), then stream
    /// one flit if credits allow. Returns the flit to deliver to the
    /// router's local input port (the caller schedules it `link_latency`
    /// cycles ahead).
    #[inline]
    pub fn process_inject(
        &mut self,
        arena: &mut Arena,
        packets: &mut PacketTable,
        now: u64,
    ) -> Option<Flit> {
        if self.current.is_none() {
            if let Some(&head) = self.queue.front() {
                if let Some(ovc) = arena.free_vc(self.inject, now) {
                    self.queue.pop_front();
                    let m = &mut arena.masks[self.inject];
                    m.out_active |= 1 << ovc;
                    m.new_traffic = !self.queue.is_empty();
                    // lint:allow(alloc-in-hot-path) amortized: the table grows to the peak in flight
                    let index = packets.insert(head);
                    self.current = Some(TxState {
                        packet: head,
                        index,
                        next_seq: 0,
                        out_vc: ovc,
                    });
                }
            }
        }
        let tx = self.current.as_mut()?;
        let i = arena.vc_index(self.inject, tx.out_vc);
        let credits = &mut arena.credits[i];
        if *credits == 0 {
            return None;
        }
        *credits -= 1;
        let len = tx.packet.len;
        let flit = Flit {
            packet: tx.index,
            seq: tx.next_seq as u32,
            kind: FlitKind::at(tx.next_seq, len),
            vc: tx.out_vc as u8,
        };
        tx.next_seq += 1;
        if tx.next_seq == len {
            self.current = None;
        }
        Some(flit)
    }

    /// Runs the ejection side for one cycle: drains at most one arrived
    /// flit per VC. Each drained flit sends a credit to the router's local
    /// output port, due at `credit_due`, into `credits`; each drained tail
    /// frees its packet's entry in `packets` and appends the packet to
    /// `done` (cleared first — pass caller-owned scratch so the steady
    /// state never allocates). Returns the drained flit count. Each
    /// drained flit is traced as an [`EventKind::FlitEject`] when the sink
    /// is active.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn drain_eject<T: TraceSink>(
        &mut self,
        arena: &mut Arena,
        packets: &mut PacketTable,
        now: u64,
        trace: &mut T,
        credits: &mut VecDeque<(u64, Credit)>,
        credit_due: u64,
        done: &mut Vec<Packet>,
    ) -> usize {
        done.clear();
        let mut drained = 0usize;
        let (node, slot) = (self.node, self.eject);
        // A VC whose front flit arrived this cycle is not ready.
        let m = arena.masks[slot];
        let mut ready = m.occupied & !m.fresh;
        while ready != 0 {
            let vc_idx = ready.trailing_zeros() as usize;
            ready &= ready - 1;
            let Some(flit) = arena.pop_flit(slot, vc_idx) else {
                continue;
            };
            drained += 1;
            if T::ACTIVE {
                trace.emit(TraceEvent {
                    cycle: now,
                    kind: EventKind::FlitEject {
                        node: node.index() as u32,
                        packet: packets.get(flit.packet).id.0,
                        vc: vc_idx as u8,
                    },
                });
            }
            // lint:allow(alloc-in-hot-path) amortized: the due schedule keeps its capacity
            credits.push_back((
                credit_due,
                Credit {
                    slot: slot as u32,
                    vc: vc_idx as u8,
                    is_free: flit.is_tail(),
                },
            ));
            if flit.is_tail() {
                debug_assert_eq!(
                    arena.masks[slot].occupied & (1 << vc_idx),
                    0,
                    "tail must be the last flit"
                );
                arena.masks[slot].in_active &= !(1 << vc_idx);
                // lint:allow(alloc-in-hot-path) amortized: scratch keeps its capacity
                done.push(packets.remove(flit.packet));
            }
        }
        drained
    }

    /// Appends every invariant violation visible from this NIC's local
    /// state to `out`: gating safety on the ejection buffers always,
    /// injection-side state consistency when `full`.
    pub fn collect_violations(
        &self,
        arena: &Arena,
        cycle: u64,
        full: bool,
        out: &mut Vec<InvariantViolation>,
    ) {
        let node = self.node;
        let eject = format_args!("nic {node} eject");
        arena.collect_gating_violations(self.eject, 0, cycle, &eject, out);
        if !full {
            return;
        }
        arena.collect_in_mask_violations(self.eject, cycle, &eject, out);
        let inject = format_args!("nic {node} inject");
        arena.collect_out_mask_violations(self.inject, cycle, &inject, out);
        if let Some(tx) = self.current {
            if arena.masks[self.inject].out_active & (1 << tx.out_vc) == 0 {
                // lint:allow(alloc-in-hot-path) cold branch: only runs on a violation
                out.push(InvariantViolation::new(
                    cycle,
                    InvariantKind::VcStateConsistency,
                    format_args!(
                        "nic {node} is streaming packet {:?} on inject vc{}, which is idle",
                        tx.packet.id, tx.out_vc
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{split_packet, PacketId};

    /// A NIC injecting into slot 0 and ejecting from slot 1.
    fn nic() -> (Nic, Arena, PacketTable) {
        (
            Nic::new(NodeId(0), 0, 1),
            Arena::new(2, 2, 4),
            PacketTable::default(),
        )
    }

    /// Queues a packet as `Network::inject_packet_with_len` does.
    fn queue_packet(n: &mut Nic, a: &mut Arena, id: u64, len: usize) {
        a.masks[n.inject].new_traffic = true;
        n.queue.push_back(Packet {
            id: PacketId(id),
            dst: NodeId(1),
            len,
            injected_at: 0,
        });
    }

    #[test]
    fn injection_allocates_then_streams() {
        let (mut n, mut a, mut t) = nic();
        queue_packet(&mut n, &mut a, 1, 3);
        assert!(a.masks[0].new_traffic);
        let f0 = n.process_inject(&mut a, &mut t, 0).expect("head sent");
        assert_eq!(f0.kind, FlitKind::Head);
        assert_eq!(t.get(f0.packet).id, PacketId(1));
        assert!(
            !a.masks[0].new_traffic,
            "allocated packet is not new traffic"
        );
        let f1 = n.process_inject(&mut a, &mut t, 1).expect("body sent");
        assert_eq!(f1.kind, FlitKind::Body);
        let f2 = n.process_inject(&mut a, &mut t, 2).expect("tail sent");
        assert_eq!(f2.kind, FlitKind::Tail);
        assert!(n.current.is_none());
        // Out VC stays active until the free credit returns.
        assert_eq!(a.masks[0].out_active, 1);
        assert_eq!(a.credits[0], 1);
    }

    #[test]
    fn injection_blocked_without_allocatable_vc() {
        let (mut n, mut a, mut t) = nic();
        a.masks[0].allocatable = 0;
        queue_packet(&mut n, &mut a, 1, 2);
        assert!(n.process_inject(&mut a, &mut t, 0).is_none());
        assert!(a.masks[0].new_traffic, "still waiting for a VC");
        a.masks[0].allocatable = 0b10;
        let f = n
            .process_inject(&mut a, &mut t, 1)
            .expect("granted on VC 1");
        assert_eq!(f.vc, 1);
    }

    #[test]
    fn injection_respects_credits() {
        let (mut n, mut a, mut t) = nic();
        queue_packet(&mut n, &mut a, 1, 8);
        for c in 0..4 {
            assert!(n.process_inject(&mut a, &mut t, c).is_some());
        }
        // Buffer depth 4: credits exhausted.
        assert!(n.process_inject(&mut a, &mut t, 4).is_none());
        // A returned credit lets the next flit go.
        a.credits[0] += 1;
        assert!(n.process_inject(&mut a, &mut t, 5).is_some());
    }

    #[test]
    fn single_flit_packet_is_headtail() {
        let (mut n, mut a, mut t) = nic();
        queue_packet(&mut n, &mut a, 1, 1);
        let f = n.process_inject(&mut a, &mut t, 0).unwrap();
        assert_eq!(f.kind, FlitKind::HeadTail);
        assert!(n.current.is_none());
    }

    #[test]
    fn progress_needs_a_flit_a_credit_or_an_allocatable_idle_vc() {
        let (mut n, mut a, mut t) = nic();
        assert!(!n.could_progress(&a), "an idle NIC cannot progress");
        queue_packet(&mut n, &mut a, 1, 8);
        assert!(n.could_progress(&a));
        // No allocatable VC: the queue head is blocked.
        a.masks[0].allocatable = 0;
        assert!(!n.could_progress(&a));
        // A VC still waking up is enough: time alone lets it through.
        a.masks[0].allocatable = 0b10;
        a.usable_at[1] = 9;
        assert!(n.could_progress(&a));
        assert!(n.process_inject(&mut a, &mut t, 3).is_none());
        for c in 9..13 {
            assert!(n.process_inject(&mut a, &mut t, c).is_some());
        }
        // Streaming with its credits spent: blocked until one returns.
        assert!(!n.could_progress(&a));
        a.credits[1] += 1;
        assert!(n.could_progress(&a));
        a.credits[1] -= 1;
        // A flit to eject is progress whatever the injection side waits on.
        arrive(&n, &mut a, &mut t, 1, 0);
        assert!(n.could_progress(&a));
    }

    /// Enters a packet into the table and writes its flits into ejection
    /// VC `vc`.
    fn arrive(n: &Nic, a: &mut Arena, t: &mut PacketTable, len: usize, vc: u8) {
        let index = t.insert(Packet {
            id: PacketId(7),
            dst: NodeId(0),
            len,
            injected_at: 5,
        });
        for f in split_packet(index, len) {
            a.write_flit(n.eject, Flit { vc, ..f });
        }
    }

    /// The due credits and completed packets of the drains so far.
    type Drained = (VecDeque<(u64, Credit)>, Vec<Packet>);

    /// One ejection drain at `now`, whose credits are due a cycle later.
    fn drain(
        n: &mut Nic,
        a: &mut Arena,
        t: &mut PacketTable,
        out: &mut Drained,
        now: u64,
    ) -> usize {
        let sink = &mut noc_telemetry::NullSink;
        n.drain_eject(a, t, now, sink, &mut out.0, now + 1, &mut out.1)
    }

    #[test]
    fn eject_drains_one_flit_per_vc_and_completes_packets() {
        let (mut n, mut a, mut t) = nic();
        arrive(&n, &mut a, &mut t, 2, 0);
        // The head's arrival made the VC active; a new cycle began since.
        a.masks[1].in_active = 1;
        a.masks[1].fresh = 0;
        // Head drained first.
        let mut out = Drained::default();
        assert_eq!(drain(&mut n, &mut a, &mut t, &mut out, 11), 1);
        let (credits, done) = &out;
        assert_eq!(credits.len(), 1);
        assert_eq!(credits[0].0, 12);
        assert!(!credits[0].1.is_free);
        assert!(done.is_empty());
        // Tail next: packet completes, VC freed, table entry released. The
        // done scratch is cleared by the call itself.
        drain(&mut n, &mut a, &mut t, &mut out, 12);
        let (credits, done) = &out;
        assert!(credits[1].1.is_free);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, PacketId(7));
        assert_eq!(done[0].injected_at, 5);
        assert_eq!((a.masks[1].in_active, a.masks[1].occupied), (0, 0));
        assert!(t.is_empty());
    }

    #[test]
    fn eject_waits_for_arrival_cycle() {
        let (mut n, mut a, mut t) = nic();
        arrive(&n, &mut a, &mut t, 1, 1);
        let mut out = Drained::default();
        assert_eq!(
            drain(&mut n, &mut a, &mut t, &mut out, 20),
            0,
            "a flit written this cycle is only ready in the next"
        );
        a.masks[1].fresh = 0;
        assert_eq!(drain(&mut n, &mut a, &mut t, &mut out, 21), 1);
        assert_eq!(out.1.len(), 1);
    }
}
