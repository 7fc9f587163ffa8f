//! Input and output units of routers and NICs (crate-internal).
//!
//! An *input unit* owns the VC buffers of one input port plus the arrival
//! queue of the link feeding it. An *output unit* owns the output VC state —
//! the upstream-side mirror of the downstream input unit's VCs that the
//! paper's algorithms operate on — plus the credit-return queue.

use crate::arbiter::RoundRobinArbiter;
use crate::flit::Flit;
use crate::invariants::{InvariantKind, InvariantViolation};
use crate::types::Direction;
use std::collections::VecDeque;
use std::fmt;

/// A credit returned upstream when a flit leaves a downstream buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Credit {
    /// The downstream VC the credit refers to.
    pub vc: usize,
    /// Set when the departing flit was a tail: the downstream VC is now
    /// idle and the upstream output VC's `active` bit may clear.
    pub is_free: bool,
}

/// The mask with one bit set per VC of a `num_vcs`-VC port. Per-port VC
/// flags are `u32` masks (bit `v` for VC `v`), which is why
/// [`crate::config::NocConfig::validate`] caps ports at 32 VCs.
pub(crate) const fn all_vcs(num_vcs: usize) -> u32 {
    if num_vcs >= 32 {
        u32::MAX
    } else {
        (1 << num_vcs) - 1
    }
}

/// One virtual-channel buffer of an input port. Whether the VC waits for
/// VA, is active, holds flits or was written this cycle lives in the masks
/// of its [`InputUnit`] and router, not here.
#[derive(Debug, Clone)]
pub(crate) struct InputVc {
    pub buffer: VecDeque<Flit>,
    /// The output port RC chose for the buffered packet (meaningful while
    /// the VC waits or is active).
    pub route: Direction,
    /// The downstream VC VA granted (meaningful while the VC is active).
    pub out_vc: usize,
}

impl InputVc {
    fn new(depth: usize) -> Self {
        InputVc {
            buffer: VecDeque::with_capacity(depth),
            route: Direction::Local,
            out_vc: 0,
        }
    }
}

/// The VC buffers of one input port together with the arrival queue of the
/// link feeding them.
///
/// Per-VC state is kept as `u32` masks, bit `v` for VC `v`, each written
/// only by the operations named on it. A VC waiting for VC allocation has
/// its bit in the owning router's per-outport `waiting` masks instead.
#[derive(Debug, Clone)]
pub(crate) struct InputUnit {
    pub vcs: Vec<InputVc>,
    /// Power-gating state: a clear bit means the buffer is switched off
    /// (NBTI recovery). Only idle VCs may be gated.
    pub powered: u32,
    /// The VC holds a packet that won VA, from the grant until its tail
    /// leaves. On a NIC's ejection side, which has no VA, from the head's
    /// arrival until the tail is drained.
    pub active: u32,
    /// The VC's buffer is non-empty. Kept by [`InputUnit::write_flit`] and
    /// [`InputUnit::pop_flit`].
    pub occupied: u32,
    /// The VC was written this cycle while empty, so its front flit
    /// arrived this cycle and may not compete in VA, SA or ejection until
    /// the next. Writes happen only in `begin_cycle`, which first clears
    /// the mask of every unit written in the cycle before, and pops only
    /// after SA, so this is exactly "not ready".
    pub fresh: u32,
    /// Flits in flight on the incoming link: `(arrival_cycle, flit)` in
    /// FIFO order (the link is serial, so arrival cycles are monotone).
    pub arrivals: VecDeque<(u64, Flit)>,
    /// Total flits written into this unit's buffers.
    pub flits_received: u64,
    /// Total power-gating transitions (on→off plus off→on) applied to this
    /// unit's VCs — the gating churn reported by the telemetry sampler.
    pub gate_transitions: u64,
}

impl InputUnit {
    pub fn new(num_vcs: usize, depth: usize, connected: bool) -> Self {
        InputUnit {
            vcs: (0..num_vcs).map(|_| InputVc::new(depth)).collect(),
            // Boundary ports never receive traffic; keep them gated so they
            // do not accumulate fake NBTI stress. They are also excluded
            // from the policy interface.
            powered: if connected { all_vcs(num_vcs) } else { 0 },
            active: 0,
            occupied: 0,
            fresh: 0,
            arrivals: VecDeque::new(),
            flits_received: 0,
            gate_transitions: 0,
        }
    }

    /// Whether VC `v`'s buffer is powered.
    pub fn is_powered(&self, v: usize) -> bool {
        self.powered & (1 << v) != 0
    }

    /// Writes one delivered flit into its VC buffer (the BW stage), without
    /// route computation (the caller handles RC where a route is needed).
    ///
    /// Enforces the structural invariants: the target VC must be powered,
    /// must have space, and must not mix packets. A head must find its VC
    /// empty and inactive; a body or tail must find it holding its packet
    /// (buffered, or active). A VC waiting for VA always buffers its head,
    /// so "buffered or active" is exactly "not idle".
    pub fn write_flit(&mut self, flit: Flit, depth: usize) {
        assert!(
            self.is_powered(flit.vc),
            "flit {:?} delivered to a power-gated VC {}",
            flit.packet,
            flit.vc
        );
        let bit = 1 << flit.vc;
        let vc = &mut self.vcs[flit.vc];
        assert!(
            vc.buffer.len() < depth,
            "buffer overflow on VC {} (credit protocol violated)",
            flit.vc
        );
        if flit.is_head() {
            assert!(
                self.active & bit == 0 && vc.buffer.is_empty(),
                "head flit arrived at a non-idle VC (packet mixing)"
            );
        } else {
            assert!(
                (self.active | self.occupied) & bit != 0,
                "body/tail flit arrived at an idle VC"
            );
            let same_packet = vc
                .buffer
                .back()
                .map(|f| f.packet == flit.packet)
                .unwrap_or(true);
            assert!(same_packet, "packet mixing within a VC buffer");
        }
        if vc.buffer.is_empty() {
            self.fresh |= bit;
            self.occupied |= bit;
        }
        vc.buffer.push_back(flit);
        self.flits_received += 1;
    }

    /// Removes the front flit of VC `v`, if any, keeping `occupied`.
    pub fn pop_flit(&mut self, v: usize) -> Option<Flit> {
        let buffer = &mut self.vcs[v].buffer;
        let flit = buffer.pop_front()?;
        if buffer.is_empty() {
            self.occupied &= !(1 << v);
        }
        Some(flit)
    }

    /// Appends a gating-safety violation to `out` for every power-gated VC
    /// that still holds flits or a packet. `waiting` holds the unit's VCs
    /// that wait for VA (router inputs; 0 for a NIC's ejection side).
    /// `location` names the unit in diagnostics (e.g. `router 3 in-E`).
    /// Unconnected boundary ports are permanently gated *and* permanently
    /// idle, so they never trip this check.
    pub fn collect_gating_violations(
        &self,
        waiting: u32,
        cycle: u64,
        location: &str,
        out: &mut Vec<InvariantViolation>,
    ) {
        for (v, vc) in self.vcs.iter().enumerate() {
            if self.is_powered(v) {
                continue;
            }
            if !vc.buffer.is_empty() {
                // lint:allow(alloc-in-hot-path) cold branch: only runs on a violation
                out.push(InvariantViolation {
                    cycle,
                    kind: InvariantKind::GatingSafety,
                    // lint:allow(alloc-in-hot-path) cold branch: only runs on a violation
                    detail: format!(
                        "{location} vc{v} is power-gated but holds {} flit(s)",
                        vc.buffer.len()
                    ),
                });
            }
            let bit = 1 << v;
            if (self.active | waiting) & bit != 0 {
                let state = if waiting & bit != 0 {
                    "waiting"
                } else {
                    "active"
                };
                // lint:allow(alloc-in-hot-path) cold branch: only runs on a violation
                out.push(InvariantViolation {
                    cycle,
                    kind: InvariantKind::GatingSafety,
                    // lint:allow(alloc-in-hot-path) cold branch: only runs on a violation
                    detail: format!(
                        "{location} vc{v} is power-gated but {state} towards out-{}",
                        vc.route
                    ),
                });
            }
        }
    }

    /// Appends a VC-state-consistency violation to `out` for each mask
    /// with bits set beyond the unit's VCs, and when `occupied` differs
    /// from the set of non-empty buffers. `location` is only formatted
    /// when there is a violation.
    pub fn collect_mask_violations(
        &self,
        cycle: u64,
        location: &dyn fmt::Display,
        out: &mut Vec<InvariantViolation>,
    ) {
        let masks = [
            ("power", self.powered),
            ("active", self.active),
            ("occupied", self.occupied),
            ("fresh", self.fresh),
        ];
        for (name, mask) in masks {
            let stray = mask & !all_vcs(self.vcs.len());
            if stray != 0 {
                // lint:allow(alloc-in-hot-path) cold branch: only runs on a violation
                out.push(InvariantViolation {
                    cycle,
                    kind: InvariantKind::VcStateConsistency,
                    // lint:allow(alloc-in-hot-path) cold branch: only runs on a violation
                    detail: format!("{location} {name} mask has bits {stray:#x} beyond its VCs"),
                });
            }
        }
        let held = self
            .vcs
            .iter()
            .enumerate()
            .filter(|(_, vc)| !vc.buffer.is_empty())
            .fold(0u32, |m, (v, _)| m | 1 << v);
        if held != self.occupied {
            // lint:allow(alloc-in-hot-path) cold branch: only runs on a violation
            out.push(InvariantViolation {
                cycle,
                kind: InvariantKind::VcStateConsistency,
                // lint:allow(alloc-in-hot-path) cold branch: only runs on a violation
                detail: format!(
                    "{location} occupied mask {:#b} != non-empty buffers {held:#b}",
                    self.occupied
                ),
            });
        }
    }

    /// Count of buffered flits across all VCs.
    pub fn buffered_flits(&self) -> usize {
        self.vcs.iter().map(|v| v.buffer.len()).sum()
    }

    /// Count of flits still in flight on the incoming link.
    pub fn in_flight_flits(&self) -> usize {
        self.arrivals.len()
    }
}

/// Output VC entry: the paper's `out_vc_state` record, extended with the
/// wake-up deadline driven by the gating policies. Whether the downstream
/// VC holds a packet is bit `v` of [`OutputUnit::active`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct OutVc {
    /// Free downstream buffer slots.
    pub credits: usize,
    /// Earliest cycle at which the downstream buffer's virtual VDD is
    /// restored after a power-on: the sleep-transistor wake-up penalty.
    /// VC allocation must wait for it.
    pub usable_at: u64,
}

/// The output port of a router (or the injection side of a NIC): output VC
/// entries and masks plus the credit-return queue of the outgoing link.
#[derive(Debug, Clone)]
pub(crate) struct OutputUnit {
    pub vcs: Vec<OutVc>,
    /// Bit `v` is set while downstream VC `v` is allocated to a packet in
    /// flight, from the VA grant until the tail's free credit returns. The
    /// only record of output-VC occupancy; written through
    /// [`OutputUnit::set_active`] and [`OutputUnit::set_idle`].
    pub active: u32,
    /// Bit `v` is set when a *new* packet may be allocated to VC `v` this
    /// cycle. The gating policies keep this in sync with the downstream
    /// power state: a gated VC is never allocatable.
    pub allocatable: u32,
    pub credit_arrivals: VecDeque<(u64, Credit)>,
    /// VC-allocation arbiter over the requesting input VCs: one request
    /// word per input port, one bit per VC (global index
    /// `input_port * num_vcs + vc`).
    pub va_arb: RoundRobinArbiter,
    /// Output-side switch-allocation arbiter over input ports.
    pub sa_arb: RoundRobinArbiter,
    pub connected: bool,
}

impl OutputUnit {
    pub fn new(num_vcs: usize, depth: usize, num_inputs: usize, connected: bool) -> Self {
        OutputUnit {
            vcs: vec![
                OutVc {
                    credits: depth,
                    usable_at: 0,
                };
                num_vcs
            ],
            active: 0,
            allocatable: all_vcs(num_vcs),
            credit_arrivals: VecDeque::new(),
            va_arb: RoundRobinArbiter::with_words(num_inputs, num_vcs),
            sa_arb: RoundRobinArbiter::new(num_inputs),
            connected,
        }
    }

    /// Whether VC `v` is allocated to a packet.
    pub fn is_active(&self, v: usize) -> bool {
        self.active & (1 << v) != 0
    }

    /// Marks VC `v` allocated to a packet.
    pub fn set_active(&mut self, v: usize) {
        self.active |= 1 << v;
    }

    /// Marks VC `v` free again.
    pub fn set_idle(&mut self, v: usize) {
        self.active &= !(1 << v);
    }

    /// The lowest-index VC a new packet may be allocated to at `now`:
    /// idle, allocatable and past its wake-up deadline.
    pub fn free_vc(&self, now: u64) -> Option<usize> {
        let mut candidates = self.allocatable & !self.active;
        while candidates != 0 {
            let v = candidates.trailing_zeros() as usize;
            if self.vcs[v].usable_at <= now {
                return Some(v);
            }
            candidates &= candidates - 1;
        }
        None
    }

    /// Appends a VC-state-consistency violation to `out` for each of the
    /// `active` and allocation masks that has bits set beyond the unit's
    /// VCs. `location` is only formatted when there is a violation.
    pub fn collect_mask_violations(
        &self,
        cycle: u64,
        location: &dyn fmt::Display,
        out: &mut Vec<InvariantViolation>,
    ) {
        for (name, mask) in [("active", self.active), ("allocation", self.allocatable)] {
            let stray = mask & !all_vcs(self.vcs.len());
            if stray != 0 {
                // lint:allow(alloc-in-hot-path) cold branch: only runs on a violation
                out.push(InvariantViolation {
                    cycle,
                    kind: InvariantKind::VcStateConsistency,
                    // lint:allow(alloc-in-hot-path) cold branch: only runs on a violation
                    detail: format!("{location} {name} mask has bits {stray:#x} beyond its VCs"),
                });
            }
        }
    }

    /// Applies all credits that arrived by `now`, and reports what they
    /// changed.
    pub fn absorb_credits(&mut self, now: u64, depth: usize) -> Absorbed {
        let before = self.active;
        let mut refilled = false;
        while let Some(&(when, credit)) = self.credit_arrivals.front() {
            if when > now {
                break;
            }
            self.credit_arrivals.pop_front();
            let vc = &mut self.vcs[credit.vc];
            refilled |= vc.credits == 0;
            vc.credits += 1;
            assert!(
                vc.credits <= depth,
                "credit overflow on out VC {} (more credits than buffer slots)",
                credit.vc
            );
            if credit.is_free {
                assert!(
                    self.is_active(credit.vc),
                    "free signal for an already idle out VC"
                );
                self.set_idle(credit.vc);
            }
        }
        Absorbed {
            freed: self.active != before,
            refilled,
        }
    }
}

/// What [`OutputUnit::absorb_credits`] changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Absorbed {
    /// A free credit idled an output VC: the `active` mask changed.
    pub freed: bool,
    /// An output VC that had no credit left got one back.
    pub refilled: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{split_packet, PacketId};
    use crate::types::NodeId;

    fn flit_of(packet: u64, len: usize, i: usize) -> Flit {
        split_packet(PacketId(packet), NodeId(0), NodeId(1), len, 0)[i]
    }

    #[test]
    fn write_and_pop_keep_the_occupied_and_fresh_masks() {
        let mut unit = InputUnit::new(2, 4, true);
        unit.write_flit(flit_of(1, 3, 0), 4);
        assert_eq!(unit.flits_received, 1);
        assert_eq!(unit.vcs[0].buffer.len(), 1);
        assert_eq!((unit.occupied, unit.fresh), (0b01, 0b01));
        // A new cycle: the head is no longer fresh, and a body written
        // behind it does not make the VC fresh again.
        unit.fresh = 0;
        unit.write_flit(flit_of(1, 3, 1), 4);
        assert_eq!((unit.occupied, unit.fresh), (0b01, 0));
        assert!(unit.pop_flit(0).is_some_and(|f| f.is_head()));
        assert_eq!(unit.occupied, 0b01, "the body is still buffered");
        assert!(unit.pop_flit(0).is_some());
        assert_eq!(unit.occupied, 0);
        assert_eq!(unit.pop_flit(0), None);
        let mut found = Vec::new();
        unit.collect_mask_violations(0, &"here", &mut found);
        assert!(found.is_empty(), "{found:?}");
        unit.occupied = 0b10;
        unit.fresh = 0b100;
        unit.collect_mask_violations(0, &"here", &mut found);
        assert_eq!(found.len(), 2, "{found:?}");
    }

    #[test]
    #[should_panic(expected = "power-gated")]
    fn write_to_gated_vc_panics() {
        let mut unit = InputUnit::new(2, 4, true);
        unit.powered &= !1;
        unit.write_flit(flit_of(1, 3, 0), 4);
    }

    #[test]
    #[should_panic(expected = "buffer overflow")]
    fn overflow_panics() {
        let mut unit = InputUnit::new(1, 2, true);
        unit.write_flit(flit_of(1, 5, 0), 2);
        unit.write_flit(flit_of(1, 5, 1), 2);
        unit.write_flit(flit_of(1, 5, 2), 2);
    }

    #[test]
    #[should_panic(expected = "packet mixing")]
    fn mixing_packets_panics() {
        let mut unit = InputUnit::new(1, 4, true);
        unit.write_flit(flit_of(1, 3, 0), 4);
        // Body flit of a different packet in the same VC.
        unit.write_flit(flit_of(2, 3, 1), 4);
    }

    #[test]
    #[should_panic(expected = "non-idle VC")]
    fn second_head_in_occupied_vc_panics() {
        let mut unit = InputUnit::new(1, 4, true);
        unit.write_flit(flit_of(1, 3, 0), 4);
        unit.write_flit(flit_of(2, 3, 0), 4);
    }

    #[test]
    #[should_panic(expected = "non-idle VC")]
    fn head_in_an_active_emptied_vc_panics() {
        let mut unit = InputUnit::new(1, 4, true);
        unit.active = 1;
        unit.write_flit(flit_of(2, 3, 0), 4);
    }

    #[test]
    #[should_panic(expected = "body/tail flit arrived at an idle VC")]
    fn body_in_an_idle_vc_panics() {
        let mut unit = InputUnit::new(1, 4, true);
        unit.write_flit(flit_of(2, 3, 1), 4);
    }

    #[test]
    fn unconnected_units_start_gated() {
        let unit = InputUnit::new(4, 4, false);
        assert_eq!(unit.powered, 0);
        let connected = InputUnit::new(4, 4, true);
        assert_eq!(connected.powered, 0b1111);
    }

    #[test]
    fn credits_absorb_in_order_and_free() {
        let mut out = OutputUnit::new(2, 4, 5, true);
        out.set_active(1);
        out.vcs[1].credits = 2;
        out.credit_arrivals.push_back((
            5,
            Credit {
                vc: 1,
                is_free: false,
            },
        ));
        out.credit_arrivals.push_back((
            6,
            Credit {
                vc: 1,
                is_free: true,
            },
        ));
        let plain = out.absorb_credits(5, 4);
        assert!(!plain.freed && !plain.refilled, "{plain:?}");
        assert_eq!(out.vcs[1].credits, 3);
        assert!(out.is_active(1));
        assert!(out.absorb_credits(6, 4).freed);
        assert_eq!(out.vcs[1].credits, 4);
        assert_eq!(out.active, 0, "the free credit clears the active bit");
    }

    #[test]
    fn free_vc_skips_busy_gated_and_waking_vcs() {
        let mut out = OutputUnit::new(4, 4, 5, true);
        assert_eq!(out.free_vc(0), Some(0));
        out.set_active(0);
        out.allocatable = 0b1110 & !0b0010;
        out.vcs[2].usable_at = 5;
        assert_eq!(out.free_vc(4), Some(3));
        assert_eq!(out.free_vc(5), Some(2));
        out.allocatable = 0b0001;
        assert_eq!(out.free_vc(9), None, "the only allocatable VC is busy");
    }

    #[test]
    fn mask_check_flags_bits_beyond_the_vcs() {
        let mut out = OutputUnit::new(2, 4, 5, true);
        let mut found = Vec::new();
        out.set_active(1);
        out.collect_mask_violations(0, &"here", &mut found);
        assert!(found.is_empty());
        out.active |= 0b100;
        out.allocatable |= 0b1000;
        out.collect_mask_violations(0, &"here", &mut found);
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found
            .iter()
            .all(|v| v.kind == InvariantKind::VcStateConsistency));
    }

    #[test]
    fn a_credit_to_an_empty_out_vc_is_a_refill() {
        let mut out = OutputUnit::new(2, 4, 5, true);
        out.vcs[0].credits = 0;
        out.credit_arrivals.push_back((
            3,
            Credit {
                vc: 0,
                is_free: false,
            },
        ));
        let absorbed = out.absorb_credits(3, 4);
        assert!(absorbed.refilled && !absorbed.freed, "{absorbed:?}");
    }

    #[test]
    #[should_panic(expected = "credit overflow")]
    fn credit_overflow_panics() {
        let mut out = OutputUnit::new(1, 4, 5, true);
        out.credit_arrivals.push_back((
            0,
            Credit {
                vc: 0,
                is_free: false,
            },
        ));
        out.absorb_credits(0, 4);
    }
}
