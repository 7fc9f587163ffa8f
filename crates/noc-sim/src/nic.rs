//! The tile network interface (NIC).
//!
//! The injection side queues whole packets, performs VC allocation on the
//! router's local input port (acting as that port's *upstream agent*, with
//! its own output VC state), and streams one flit per cycle subject to
//! credits. The ejection side owns the buffers fed by the router's local
//! output port and drains one flit per VC per cycle, returning credits.

use crate::flit::{Flit, FlitKind, PacketId};
use crate::invariants::{InvariantKind, InvariantViolation};
use crate::types::NodeId;
use crate::unit::{Credit, InputUnit, OutputUnit};
use noc_telemetry::{EventKind, TraceEvent, TraceSink};
use std::collections::VecDeque;

/// A packet queued for injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PendingPacket {
    pub id: PacketId,
    pub dst: NodeId,
    pub len: usize,
    pub queued_at: u64,
}

/// A packet currently being streamed into the router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TxState {
    pub packet: PendingPacket,
    pub next_seq: usize,
    pub out_vc: usize,
}

/// A packet that completed ejection this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EjectedPacket {
    pub id: PacketId,
    pub src: NodeId,
    pub injected_at: u64,
}

/// One tile's network interface.
#[derive(Debug, Clone)]
pub(crate) struct Nic {
    pub node: NodeId,
    /// Packets waiting for injection (none of them has a VC yet — exactly
    /// the paper's *new packet* notion for the local port pair).
    pub queue: VecDeque<PendingPacket>,
    /// The packet currently streaming, if any.
    pub current: Option<TxState>,
    /// Output VC state towards the router's local input port.
    pub inject: OutputUnit,
    /// Ejection buffers, fed by the router's local output port.
    pub eject: InputUnit,
}

impl Nic {
    pub fn new(node: NodeId, num_vcs: usize, depth: usize) -> Self {
        Nic {
            node,
            queue: VecDeque::new(),
            current: None,
            inject: OutputUnit::new(num_vcs, depth, 1, true),
            eject: InputUnit::new(num_vcs, depth, true),
        }
    }

    /// `true` when the NIC has nothing to do in a cycle: no queued or
    /// streaming packet and no flit in its ejection buffers.
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.current.is_none() && self.eject.occupied == 0
    }

    /// `true` when a queued packet has no VC allocated yet.
    #[inline]
    pub fn has_new_traffic(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Runs the injection side for one cycle: allocate a VC for the queue
    /// head if possible, then stream one flit if credits allow. Returns the
    /// flit to deliver to the router's local input port (the caller
    /// schedules it `link_latency` cycles ahead).
    pub fn process_inject(&mut self, now: u64) -> Option<Flit> {
        if self.current.is_none() {
            if let Some(&head) = self.queue.front() {
                if let Some(ovc) = self.inject.free_vc(now) {
                    self.queue.pop_front();
                    self.inject.set_active(ovc);
                    self.current = Some(TxState {
                        packet: head,
                        next_seq: 0,
                        out_vc: ovc,
                    });
                }
            }
        }
        let tx = self.current.as_mut()?;
        let out = &mut self.inject.vcs[tx.out_vc];
        if out.credits == 0 {
            return None;
        }
        out.credits -= 1;
        let len = tx.packet.len;
        let kind = if len == 1 {
            FlitKind::HeadTail
        } else if tx.next_seq == 0 {
            FlitKind::Head
        } else if tx.next_seq == len - 1 {
            FlitKind::Tail
        } else {
            FlitKind::Body
        };
        let mut flit = Flit::new(
            tx.packet.id,
            kind,
            self.node,
            tx.packet.dst,
            tx.next_seq as u32,
            tx.packet.queued_at,
        );
        flit.vc = tx.out_vc;
        tx.next_seq += 1;
        if tx.next_seq == len {
            self.current = None;
        }
        Some(flit)
    }

    /// Runs the ejection side for one cycle: drains at most one arrived
    /// flit per VC. Fills `credits` with the credits to send to the
    /// router's local output port and `done` with the packets completed
    /// this cycle (both are cleared first — pass caller-owned scratch so
    /// the steady state never allocates), and returns the drained flit
    /// count. Each drained flit is traced as an [`EventKind::FlitEject`]
    /// when the sink is active.
    pub fn drain_eject<T: TraceSink>(
        &mut self,
        now: u64,
        trace: &mut T,
        credits: &mut Vec<Credit>,
        done: &mut Vec<EjectedPacket>,
    ) -> usize {
        credits.clear();
        done.clear();
        let mut drained = 0usize;
        let node = self.node;
        // A VC whose front flit arrived this cycle is not ready.
        let mut ready = self.eject.occupied & !self.eject.fresh;
        while ready != 0 {
            let vc_idx = ready.trailing_zeros() as usize;
            ready &= ready - 1;
            let Some(flit) = self.eject.pop_flit(vc_idx) else {
                continue;
            };
            drained += 1;
            if T::ACTIVE {
                trace.emit(TraceEvent {
                    cycle: now,
                    kind: EventKind::FlitEject {
                        node: node.index() as u32,
                        packet: flit.packet.0,
                        vc: vc_idx as u8,
                    },
                });
            }
            // lint:allow(alloc-in-hot-path) amortized: scratch keeps its capacity
            credits.push(Credit {
                vc: vc_idx,
                is_free: flit.is_tail(),
            });
            if flit.is_tail() {
                debug_assert_eq!(
                    self.eject.occupied & (1 << vc_idx),
                    0,
                    "tail must be the last flit"
                );
                self.eject.active &= !(1 << vc_idx);
                // lint:allow(alloc-in-hot-path) amortized: scratch keeps its capacity
                done.push(EjectedPacket {
                    id: flit.packet,
                    src: flit.src,
                    injected_at: flit.injected_at,
                });
            }
        }
        drained
    }

    /// Appends every invariant violation visible from this NIC's local
    /// state to `out`: gating safety on the ejection buffers always,
    /// injection-side state consistency when `full`.
    pub fn collect_violations(&self, cycle: u64, full: bool, out: &mut Vec<InvariantViolation>) {
        let node = self.node;
        self.eject
            // lint:allow(alloc-in-hot-path) diagnostic pass: only runs with invariants enabled
            .collect_gating_violations(0, cycle, &format!("nic {node} eject"), out);
        if !full {
            return;
        }
        self.eject
            .collect_mask_violations(cycle, &format_args!("nic {node} eject"), out);
        self.inject
            .collect_mask_violations(cycle, &format_args!("nic {node} inject"), out);
        if let Some(tx) = self.current {
            if !self.inject.is_active(tx.out_vc) {
                // lint:allow(alloc-in-hot-path) cold branch: only runs on a violation
                out.push(InvariantViolation {
                    cycle,
                    kind: InvariantKind::VcStateConsistency,
                    // lint:allow(alloc-in-hot-path) cold branch: only runs on a violation
                    detail: format!(
                        "nic {node} is streaming packet {:?} on inject vc{}, which is idle",
                        tx.packet.id, tx.out_vc
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nic() -> Nic {
        Nic::new(NodeId(0), 2, 4)
    }

    fn queue_packet(n: &mut Nic, id: u64, len: usize) {
        n.queue.push_back(PendingPacket {
            id: PacketId(id),
            dst: NodeId(1),
            len,
            queued_at: 0,
        });
    }

    #[test]
    fn injection_allocates_then_streams() {
        let mut n = nic();
        queue_packet(&mut n, 1, 3);
        assert!(n.has_new_traffic());
        let f0 = n.process_inject(0).expect("head sent");
        assert_eq!(f0.kind, FlitKind::Head);
        assert!(!n.has_new_traffic(), "allocated packet is not new traffic");
        let f1 = n.process_inject(1).expect("body sent");
        assert_eq!(f1.kind, FlitKind::Body);
        let f2 = n.process_inject(2).expect("tail sent");
        assert_eq!(f2.kind, FlitKind::Tail);
        assert!(n.current.is_none());
        // Out VC stays active until the free credit returns.
        assert!(n.inject.is_active(0));
        assert_eq!(n.inject.vcs[0].credits, 1);
    }

    #[test]
    fn injection_blocked_without_allocatable_vc() {
        let mut n = nic();
        n.inject.allocatable = 0;
        queue_packet(&mut n, 1, 2);
        assert!(n.process_inject(0).is_none());
        assert!(n.has_new_traffic(), "still waiting for a VC");
        n.inject.allocatable = 0b10;
        let f = n.process_inject(1).expect("granted on VC 1");
        assert_eq!(f.vc, 1);
    }

    #[test]
    fn injection_respects_credits() {
        let mut n = nic();
        queue_packet(&mut n, 1, 8);
        for c in 0..4 {
            assert!(n.process_inject(c).is_some());
        }
        // Buffer depth 4: credits exhausted.
        assert!(n.process_inject(4).is_none());
        // A returned credit lets the next flit go.
        n.inject.vcs[0].credits += 1;
        assert!(n.process_inject(5).is_some());
    }

    #[test]
    fn single_flit_packet_is_headtail() {
        let mut n = nic();
        queue_packet(&mut n, 1, 1);
        let f = n.process_inject(0).unwrap();
        assert_eq!(f.kind, FlitKind::HeadTail);
        assert!(n.current.is_none());
    }

    #[test]
    fn eject_drains_one_flit_per_vc_and_completes_packets() {
        let mut n = nic();
        let flits = crate::flit::split_packet(PacketId(7), NodeId(3), NodeId(0), 2, 5);
        for mut f in flits {
            f.vc = 0;
            n.eject.write_flit(f, 4);
        }
        // The head's arrival made the VC active; a new cycle began since.
        n.eject.active = 1;
        n.eject.fresh = 0;
        // Head drained first.
        let mut credits = Vec::new();
        let mut done = Vec::new();
        let drained = n.drain_eject(11, &mut noc_telemetry::NullSink, &mut credits, &mut done);
        assert_eq!(drained, 1);
        assert_eq!(credits.len(), 1);
        assert!(!credits[0].is_free);
        assert!(done.is_empty());
        // Tail next: packet completes, VC freed. The scratch buffers are
        // cleared by the call itself.
        n.drain_eject(12, &mut noc_telemetry::NullSink, &mut credits, &mut done);
        assert!(credits[0].is_free);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, PacketId(7));
        assert_eq!(done[0].injected_at, 5);
        assert_eq!((n.eject.active, n.eject.occupied), (0, 0));
    }

    #[test]
    fn eject_waits_for_arrival_cycle() {
        let mut n = nic();
        let mut f = crate::flit::split_packet(PacketId(7), NodeId(3), NodeId(0), 1, 0)[0];
        f.vc = 1;
        n.eject.write_flit(f, 4);
        let mut credits = Vec::new();
        let mut done = Vec::new();
        let drained = n.drain_eject(20, &mut noc_telemetry::NullSink, &mut credits, &mut done);
        assert_eq!(
            drained, 0,
            "a flit written this cycle is only ready in the next"
        );
        n.eject.fresh = 0;
        let drained = n.drain_eject(21, &mut noc_telemetry::NullSink, &mut credits, &mut done);
        assert_eq!(drained, 1);
        assert_eq!(done.len(), 1);
    }
}
