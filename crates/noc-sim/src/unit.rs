//! The network-wide VC arena (crate-internal).
//!
//! Every buffer port is a *port slot*: one link seen from both its ends,
//! the upstream agent that allocates the link's VCs (a router output port
//! or a NIC's injection side) and the downstream buffers the link feeds (a
//! router input port or a NIC's ejection side). The [`Arena`] keeps the VC
//! state of every slot in flat arrays: per slot, seven `u32` masks
//! ([`SlotMasks`]); per VC, at index `slot × V + vc`, the input VC's route,
//! output VC and ring position ([`InVc`]) and the output VC's credits,
//! wake-up deadline and owner; and per VC a fixed ring of buffer slots.
//! Routers and NICs hold only the slot numbers of their ports, so
//! allocation, traversal and the policy interface index these arrays
//! directly.
//!
//! A VC's ring holds `2^k ≥ depth` flits, so a position wraps with a mask;
//! [`crate::config::NocConfig::validate`] caps the depth at
//! [`MAX_BUFFER_DEPTH`](crate::config::MAX_BUFFER_DEPTH), which keeps a
//! ring position and length in a byte.

use crate::flit::Flit;
use crate::invariants::{InvariantKind, InvariantViolation};
use crate::types::Direction;
use std::fmt;

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

/// The owner of an output VC that VA never granted.
const NO_OWNER: u32 = u32::MAX;

/// A credit on its way back to the upstream agent of `slot`, sent when a
/// flit leaves the slot's buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Credit {
    pub slot: u32,
    /// The VC the credit refers to.
    pub vc: u8,
    /// Set when the departing flit was a tail: the VC is now idle and the
    /// upstream output VC's `active` bit may clear.
    pub is_free: bool,
}

/// The VC masks of one port slot, bit `v` for VC `v`. Each is written only
/// by the operations named on it. A router input VC waiting for VC
/// allocation has its bit in the router's per-outport `waiting` masks
/// instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SlotMasks {
    /// Downstream power-gating state: a clear bit means the buffer is
    /// switched off (NBTI recovery). Only idle VCs may be gated, and only
    /// `Network::apply_gate` writes it.
    pub powered: u32,
    /// The downstream VC holds a packet that won VA, from the grant until
    /// its tail leaves. On a NIC's ejection side, which has no VA, from the
    /// head's arrival until the tail is drained.
    pub in_active: u32,
    /// The downstream VC's ring is non-empty. Kept by
    /// [`Arena::write_flit`] and [`Arena::pop_flit`].
    pub occupied: u32,
    /// The downstream VC was written this cycle while empty, so its front
    /// flit arrived this cycle and may not compete in VA, SA or ejection
    /// until the next. Writes happen only in `begin_cycle`, which first
    /// clears the mask of every slot written in the cycle before, and pops
    /// only after SA, so this is exactly "not ready".
    pub fresh: u32,
    /// The downstream VC is active and the output VC VA granted it holds a
    /// credit: `in_active` ∧ `credits[out] > 0`, the credit half of SA's
    /// readiness. Set by the VA grant ([`Arena::bind_out_vc`]; an idle
    /// output VC holds all its credits) and by a credit that refills the
    /// output VC ([`Arena::absorb_credit`]); cleared by
    /// [`Arena::spend_credit`] when it spends the last credit or the tail
    /// leaves. Only router inputs, which have VA, set it.
    pub credited: u32,
    /// The upstream output VC is allocated to a packet in flight, from the
    /// VA grant until the tail's free credit returns. The only record of
    /// output-VC occupancy.
    pub out_active: u32,
    /// A *new* packet may be allocated to the upstream output VC this
    /// cycle. The gating policies keep this in sync with the downstream
    /// power state: a gated VC is never allocatable.
    pub allocatable: u32,
    /// The paper's `is_new_traffic_outport_x()`: a packet at the upstream
    /// agent waits for a VC on this port. Set by routing a head to the
    /// port and by a NIC queue push; cleared by the VA grant or NIC
    /// allocation that leaves nothing waiting.
    pub new_traffic: bool,
}

/// One downstream input VC: what RC and VA decided for its packet, and
/// where its flits sit in its ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct InVc {
    /// The output port RC chose, as a direction index (meaningful while the
    /// VC waits or is active; `Local` before the first route and on a NIC's
    /// ejection side).
    pub route: u8,
    /// The output VC VA granted (meaningful while the VC is active).
    pub out_vc: u8,
    /// Ring position of the front flit.
    pub head: u8,
    /// Flits buffered.
    pub len: u8,
    /// The flat index (`slot × V + vc`) of the output VC VA granted, whose
    /// credits the VC's flits spend (meaningful while the VC is active).
    pub out: u32,
}

/// The VC state of every port slot of a network.
#[derive(Debug, Clone)]
pub(crate) struct Arena {
    /// VCs per slot.
    pub vcs: usize,
    /// Flits a VC buffers at most.
    pub depth: usize,
    /// `log2` of a ring's capacity.
    shift: u32,
    /// Per slot.
    pub masks: Vec<SlotMasks>,
    /// Per `slot × V + vc`.
    pub in_vcs: Vec<InVc>,
    /// Free downstream buffer places per output VC (`slot × V + vc`).
    pub credits: Vec<u32>,
    /// Per output VC (`slot × V + vc`): the earliest cycle at which the
    /// downstream buffer's virtual VDD is restored after a power-on, the
    /// sleep-transistor wake-up penalty. VC allocation must wait for it.
    pub usable_at: Vec<u64>,
    /// Per output VC (`slot × V + vc`): the flat index of the input VC the
    /// last VA grant bound to it, or [`NO_OWNER`] if VA never granted it
    /// (a NIC's injection side allocates its own). Packets never mix, so
    /// an output VC has at most one owner at a time; a credit refill sets
    /// that owner's `credited` bit.
    owner: Vec<u32>,
    /// The rings, `2^shift` places per VC.
    ring: Vec<Flit>,
    /// Per slot: flits ever written into its buffers.
    pub flits_received: Vec<u64>,
    /// Per slot: power-gating transitions (on→off plus off→on) applied to
    /// its VCs, the gating churn reported by the telemetry sampler.
    pub gate_transitions: Vec<u64>,
}

impl Arena {
    /// `slots` port slots of `vcs` VCs with `depth`-flit buffers, all
    /// powered, allocatable, idle and empty, with full credits.
    pub fn new(slots: usize, vcs: usize, depth: usize) -> Self {
        let shift = depth.next_power_of_two().trailing_zeros();
        let all = all_vcs(vcs);
        Arena {
            vcs,
            depth,
            shift,
            masks: vec![
                SlotMasks {
                    powered: all,
                    allocatable: all,
                    ..SlotMasks::default()
                };
                slots
            ],
            in_vcs: vec![
                InVc {
                    route: Direction::Local.index() as u8,
                    out_vc: 0,
                    head: 0,
                    len: 0,
                    out: 0,
                };
                slots * vcs
            ],
            credits: vec![depth as u32; slots * vcs],
            usable_at: vec![0; slots * vcs],
            owner: vec![NO_OWNER; slots * vcs],
            ring: vec![Flit::default(); (slots * vcs) << shift],
            flits_received: vec![0; slots],
            gate_transitions: vec![0; slots],
        }
    }

    /// The flat index of VC `v` of `slot`.
    #[inline]
    pub fn vc_index(&self, slot: usize, v: usize) -> usize {
        slot * self.vcs + v
    }

    /// The ring place of the flit `offset` places behind the front of the
    /// VC at flat index `i`.
    #[inline]
    fn place(&self, i: usize, offset: usize) -> usize {
        let mask = (1 << self.shift) - 1;
        (i << self.shift) + ((self.in_vcs[i].head as usize + offset) & mask)
    }

    /// The flits buffered in VC `v` of `slot`, front first.
    pub fn buffer(&self, slot: usize, v: usize) -> impl Iterator<Item = &Flit> + '_ {
        let i = self.vc_index(slot, v);
        (0..self.in_vcs[i].len as usize).map(move |k| &self.ring[self.place(i, k)])
    }

    /// Flits buffered across `slot`'s VCs.
    pub fn buffered(&self, slot: usize) -> usize {
        let i = self.vc_index(slot, 0);
        self.in_vcs[i..i + self.vcs]
            .iter()
            .map(|vc| vc.len as usize)
            .sum()
    }

    /// Writes one delivered flit into its VC of `slot` (the BW stage),
    /// without route computation (the caller handles RC where a route is
    /// needed).
    ///
    /// Enforces the structural invariants: the target VC must be powered,
    /// must have space, and must not mix packets. A head must find its VC
    /// empty and inactive; a body or tail must find it holding its packet
    /// (buffered, or active). A VC waiting for VA always buffers its head,
    /// so "buffered or active" is exactly "not idle".
    #[inline]
    pub fn write_flit(&mut self, slot: usize, flit: Flit) {
        let v = flit.vc as usize;
        let bit = 1 << v;
        let m = self.masks[slot];
        assert!(
            m.powered & bit != 0,
            "flit of packet #{} delivered to a power-gated VC {v}",
            flit.packet
        );
        let i = self.vc_index(slot, v);
        let len = self.in_vcs[i].len as usize;
        assert!(
            len < self.depth,
            "buffer overflow on VC {v} (credit protocol violated)"
        );
        if flit.is_head() {
            assert!(
                m.in_active & bit == 0 && len == 0,
                "head flit arrived at a non-idle VC (packet mixing)"
            );
        } else {
            assert!(
                (m.in_active | m.occupied) & bit != 0,
                "body/tail flit arrived at an idle VC"
            );
            let same_packet = len == 0 || self.ring[self.place(i, len - 1)].packet == flit.packet;
            assert!(same_packet, "packet mixing within a VC buffer");
        }
        if len == 0 {
            let m = &mut self.masks[slot];
            m.fresh |= bit;
            m.occupied |= bit;
        }
        let at = self.place(i, len);
        self.ring[at] = flit;
        self.in_vcs[i].len += 1;
        self.flits_received[slot] += 1;
    }

    /// Removes the front flit of VC `v` of `slot`, if any, keeping
    /// `occupied`.
    #[inline]
    pub fn pop_flit(&mut self, slot: usize, v: usize) -> Option<Flit> {
        let i = self.vc_index(slot, v);
        if self.in_vcs[i].len == 0 {
            return None;
        }
        let flit = self.ring[self.place(i, 0)];
        let vc = &mut self.in_vcs[i];
        vc.head = ((vc.head as usize + 1) & ((1 << self.shift) - 1)) as u8;
        vc.len -= 1;
        if vc.len == 0 {
            self.masks[slot].occupied &= !(1 << v);
        }
        Some(flit)
    }

    /// The lowest-index output VC of `slot` a new packet may be allocated
    /// to at `now`: idle, allocatable and past its wake-up deadline.
    #[inline]
    pub fn free_vc(&self, slot: usize, now: u64) -> Option<usize> {
        let m = self.masks[slot];
        let mut candidates = m.allocatable & !m.out_active;
        while candidates != 0 {
            let v = candidates.trailing_zeros() as usize;
            if self.usable_at[self.vc_index(slot, v)] <= now {
                return Some(v);
            }
            candidates &= candidates - 1;
        }
        None
    }

    /// The VA grant: binds VC `v` of `in_slot` to output VC `ovc` of
    /// `out_slot`, which must be idle. The input VC becomes active and, as
    /// an idle output VC holds all its credits, ready for SA as far as
    /// credits go; the output VC becomes active and owned by it.
    #[inline]
    pub fn bind_out_vc(&mut self, in_slot: usize, v: usize, out_slot: usize, ovc: usize) {
        let (i, out) = (self.vc_index(in_slot, v), self.vc_index(out_slot, ovc));
        debug_assert_eq!(
            self.credits[out] as usize, self.depth,
            "an idle out VC must hold all its credits"
        );
        let bit = 1 << v;
        let m = &mut self.masks[in_slot];
        m.in_active |= bit;
        m.credited |= bit;
        let vc = &mut self.in_vcs[i];
        vc.out_vc = ovc as u8;
        vc.out = out as u32;
        self.owner[out] = i as u32;
        self.masks[out_slot].out_active |= 1 << ovc;
    }

    /// A flit of active VC `v` of `slot` leaves through the switch: it
    /// spends one credit of the VC's output VC, and a tail ends the VC's
    /// activity. Either way, once the output VC holds no credit or the VC
    /// is idle, the VC's `credited` bit clears.
    #[inline]
    pub fn spend_credit(&mut self, slot: usize, v: usize, tail: bool) {
        let out = self.in_vcs[self.vc_index(slot, v)].out as usize;
        debug_assert!(self.credits[out] > 0, "SA granted without credits");
        self.credits[out] -= 1;
        let m = &mut self.masks[slot];
        if tail {
            debug_assert_eq!(m.occupied & (1 << v), 0, "tail is the last flit of its VC");
            m.in_active &= !(1 << v);
        }
        if tail || self.credits[out] == 0 {
            m.credited &= !(1 << v);
        }
    }

    /// Applies one credit that arrived at its upstream agent; a free credit
    /// idles its output VC. Returns whether the output VC had no credit
    /// left before.
    #[inline]
    pub fn absorb_credit(&mut self, credit: Credit) -> bool {
        let (slot, v) = (credit.slot as usize, credit.vc as usize);
        let i = self.vc_index(slot, v);
        let credits = &mut self.credits[i];
        let refilled = *credits == 0;
        *credits += 1;
        assert!(
            *credits as usize <= self.depth,
            "credit overflow on out VC {v} (more credits than buffer slots)"
        );
        if refilled {
            self.refill_owner(i);
        }
        if credit.is_free {
            let m = &mut self.masks[slot];
            assert!(
                m.out_active & (1 << v) != 0,
                "free signal for an already idle out VC"
            );
            m.out_active &= !(1 << v);
        }
        refilled
    }

    /// Output VC `out` just got its first credit back: its owner may
    /// compete in SA again. A body credit can land after the owner's tail
    /// left and VA bound the owner elsewhere, so the bit is set only while
    /// the owner is active on `out`.
    #[inline]
    fn refill_owner(&mut self, out: usize) {
        let owner = self.owner[out];
        if owner == NO_OWNER || self.in_vcs[owner as usize].out as usize != out {
            return;
        }
        let (slot, v) = (owner as usize / self.vcs, owner as usize % self.vcs);
        let m = &mut self.masks[slot];
        m.credited |= m.in_active & (1 << v);
    }

    /// The `credited` mask [`SlotMasks::credited`] describes, recomputed
    /// from `in_active` and the credits of each active VC's output VC.
    pub fn credited_recount(&self, slot: usize) -> u32 {
        let mut active = self.masks[slot].in_active & all_vcs(self.vcs);
        let mut credited = 0;
        while active != 0 {
            let v = active.trailing_zeros() as usize;
            active &= active - 1;
            let out = self.in_vcs[self.vc_index(slot, v)].out as usize;
            if self.credits.get(out).is_some_and(|&c| c > 0) {
                credited |= 1 << v;
            }
        }
        credited
    }

    /// Appends a gating-safety violation to `out` for every power-gated VC
    /// of `slot` that still holds flits or a packet. `waiting` holds the
    /// slot's VCs that wait for VA (router inputs; 0 for a NIC's ejection
    /// side). `location` names the buffers in diagnostics (e.g. `router 3 in-E`).
    pub fn collect_gating_violations(
        &self,
        slot: usize,
        waiting: u32,
        cycle: u64,
        location: &dyn fmt::Display,
        out: &mut Vec<InvariantViolation>,
    ) {
        let m = self.masks[slot];
        let mut gated = all_vcs(self.vcs) & !m.powered;
        while gated != 0 {
            let v = gated.trailing_zeros() as usize;
            gated &= gated - 1;
            let vc = self.in_vcs[self.vc_index(slot, v)];
            if vc.len != 0 {
                // lint:allow(alloc-in-hot-path) cold branch: only runs on a violation
                out.push(InvariantViolation::new(
                    cycle,
                    InvariantKind::GatingSafety,
                    format_args!(
                        "{location} vc{v} is power-gated but holds {} flit(s)",
                        vc.len
                    ),
                ));
            }
            let bit = 1 << v;
            if (m.in_active | waiting) & bit != 0 {
                let state = if waiting & bit != 0 {
                    "waiting"
                } else {
                    "active"
                };
                // lint:allow(alloc-in-hot-path) cold branch: only runs on a violation
                out.push(InvariantViolation::new(
                    cycle,
                    InvariantKind::GatingSafety,
                    format_args!(
                        "{location} vc{v} is power-gated but {state} towards out-{}",
                        Direction::from_index(vc.route as usize)
                    ),
                ));
            }
        }
    }

    /// Appends a VC-state-consistency violation to `out` for each of the
    /// downstream masks of `slot` with bits set beyond its VCs, and when
    /// `occupied` differs from the set of non-empty rings. `location` is
    /// only formatted when there is a violation.
    pub fn collect_in_mask_violations(
        &self,
        slot: usize,
        cycle: u64,
        location: &dyn fmt::Display,
        out: &mut Vec<InvariantViolation>,
    ) {
        let m = self.masks[slot];
        let masks = [
            ("power", m.powered),
            ("active", m.in_active),
            ("occupied", m.occupied),
            ("fresh", m.fresh),
            ("credited", m.credited),
        ];
        self.collect_stray_bits(&masks, cycle, location, out);
        let held = (0..self.vcs)
            .filter(|&v| self.in_vcs[self.vc_index(slot, v)].len != 0)
            .fold(0u32, |m, v| m | 1 << v);
        if held != m.occupied {
            // lint:allow(alloc-in-hot-path) cold branch: only runs on a violation
            out.push(InvariantViolation::new(
                cycle,
                InvariantKind::VcStateConsistency,
                format_args!(
                    "{location} occupied mask {:#b} != non-empty buffers {held:#b}",
                    m.occupied
                ),
            ));
        }
    }

    /// Appends a VC-state-consistency violation to `out` for each of the
    /// upstream `active` and allocation masks of `slot` that has bits set
    /// beyond its VCs. `location` is only formatted when there is a
    /// violation.
    pub fn collect_out_mask_violations(
        &self,
        slot: usize,
        cycle: u64,
        location: &dyn fmt::Display,
        out: &mut Vec<InvariantViolation>,
    ) {
        let m = self.masks[slot];
        let masks = [("active", m.out_active), ("allocation", m.allocatable)];
        self.collect_stray_bits(&masks, cycle, location, out);
    }

    fn collect_stray_bits(
        &self,
        masks: &[(&str, u32)],
        cycle: u64,
        location: &dyn fmt::Display,
        out: &mut Vec<InvariantViolation>,
    ) {
        for &(name, mask) in masks {
            let stray = mask & !all_vcs(self.vcs);
            if stray != 0 {
                // lint:allow(alloc-in-hot-path) cold branch: only runs on a violation
                out.push(InvariantViolation::new(
                    cycle,
                    InvariantKind::VcStateConsistency,
                    format_args!("{location} {name} mask has bits {stray:#x} beyond its VCs"),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::split_packet;

    fn flit_of(packet: u32, len: usize, i: usize) -> Flit {
        split_packet(packet, len)[i]
    }

    fn credit(vc: u8, is_free: bool) -> Credit {
        Credit {
            slot: 0,
            vc,
            is_free,
        }
    }

    #[test]
    fn write_and_pop_keep_the_occupied_and_fresh_masks() {
        let mut arena = Arena::new(1, 2, 4);
        arena.write_flit(0, flit_of(1, 3, 0));
        assert_eq!(arena.flits_received[0], 1);
        assert_eq!(arena.buffered(0), 1);
        let m = arena.masks[0];
        assert_eq!((m.occupied, m.fresh), (0b01, 0b01));
        // A new cycle: the head is no longer fresh, and a body written
        // behind it does not make the VC fresh again.
        arena.masks[0].fresh = 0;
        arena.write_flit(0, flit_of(1, 3, 1));
        let m = arena.masks[0];
        assert_eq!((m.occupied, m.fresh), (0b01, 0));
        assert!(arena.pop_flit(0, 0).is_some_and(|f| f.is_head()));
        assert_eq!(arena.masks[0].occupied, 0b01, "the body is still buffered");
        assert!(arena.pop_flit(0, 0).is_some());
        assert_eq!(arena.masks[0].occupied, 0);
        assert_eq!(arena.pop_flit(0, 0), None);
        let mut found = Vec::new();
        arena.collect_in_mask_violations(0, 0, &"here", &mut found);
        assert!(found.is_empty(), "{found:?}");
        arena.masks[0].occupied = 0b10;
        arena.masks[0].fresh = 0b100;
        arena.collect_in_mask_violations(0, 0, &"here", &mut found);
        assert_eq!(found.len(), 2, "{found:?}");
    }

    /// A ring wraps: flits written and popped past its capacity come out
    /// in order, for a depth that is not a power of two.
    #[test]
    fn rings_wrap_in_order() {
        let mut arena = Arena::new(2, 2, 3);
        let flits = split_packet(4, 12);
        let mut popped = Vec::new();
        for pair in flits.chunks(2) {
            for &f in pair {
                arena.write_flit(1, Flit { vc: 1, ..f });
            }
            arena.masks[1].in_active |= 0b10;
            popped.extend(std::iter::from_fn(|| arena.pop_flit(1, 1)));
        }
        let seqs: Vec<u32> = popped.iter().map(|f| f.seq).collect();
        assert_eq!(seqs, (0..12).collect::<Vec<_>>());
        assert_eq!(arena.buffered(0) + arena.buffered(1), 0);
    }

    #[test]
    #[should_panic(expected = "power-gated")]
    fn write_to_gated_vc_panics() {
        let mut arena = Arena::new(1, 2, 4);
        arena.masks[0].powered &= !1;
        arena.write_flit(0, flit_of(1, 3, 0));
    }

    #[test]
    #[should_panic(expected = "buffer overflow")]
    fn overflow_panics() {
        let mut arena = Arena::new(1, 1, 2);
        arena.write_flit(0, flit_of(1, 5, 0));
        arena.write_flit(0, flit_of(1, 5, 1));
        arena.write_flit(0, flit_of(1, 5, 2));
    }

    #[test]
    #[should_panic(expected = "packet mixing")]
    fn mixing_packets_panics() {
        let mut arena = Arena::new(1, 1, 4);
        arena.write_flit(0, flit_of(1, 3, 0));
        // Body flit of a different packet in the same VC.
        arena.write_flit(0, flit_of(2, 3, 1));
    }

    #[test]
    #[should_panic(expected = "non-idle VC")]
    fn second_head_in_occupied_vc_panics() {
        let mut arena = Arena::new(1, 1, 4);
        arena.write_flit(0, flit_of(1, 3, 0));
        arena.write_flit(0, flit_of(2, 3, 0));
    }

    #[test]
    #[should_panic(expected = "non-idle VC")]
    fn head_in_an_active_emptied_vc_panics() {
        let mut arena = Arena::new(1, 1, 4);
        arena.masks[0].in_active = 1;
        arena.write_flit(0, flit_of(2, 3, 0));
    }

    #[test]
    #[should_panic(expected = "body/tail flit arrived at an idle VC")]
    fn body_in_an_idle_vc_panics() {
        let mut arena = Arena::new(1, 1, 4);
        arena.write_flit(0, flit_of(2, 3, 1));
    }

    #[test]
    fn credits_absorb_and_free() {
        let mut arena = Arena::new(1, 2, 4);
        arena.masks[0].out_active = 0b10;
        arena.credits[1] = 2;
        assert!(!arena.absorb_credit(credit(1, false)), "not a refill");
        assert_eq!((arena.credits[1], arena.masks[0].out_active), (3, 0b10));
        arena.absorb_credit(credit(1, true));
        assert_eq!(arena.credits[1], 4);
        assert_eq!(arena.masks[0].out_active, 0, "the free credit clears it");
        // A credit to an out VC that had none is a refill.
        arena.credits[0] = 0;
        assert!(arena.absorb_credit(credit(0, false)));
    }

    /// `credited` through its writers: set by the grant, cleared by the
    /// last credit's spend, set again by the refill, cleared by the tail;
    /// a late refill reaches no owner that VA bound elsewhere since.
    #[test]
    fn credited_follows_grants_spends_and_refills() {
        // Slot 0 is an input, slots 1 and 2 outputs, two VCs of depth 2.
        let mut arena = Arena::new(3, 2, 2);
        let refill = |arena: &mut Arena, slot: u32, vc: u8| {
            arena.absorb_credit(Credit {
                slot,
                vc,
                is_free: false,
            })
        };
        arena.bind_out_vc(0, 1, 1, 0);
        assert_eq!(arena.masks[0].credited, 0b10);
        arena.spend_credit(0, 1, false);
        assert_eq!(arena.masks[0].credited, 0b10, "one credit left");
        arena.spend_credit(0, 1, false);
        assert_eq!(arena.masks[0].credited, 0, "no credit left");
        assert!(refill(&mut arena, 1, 0));
        assert_eq!(
            arena.masks[0].credited, 0b10,
            "the refill reaches the owner"
        );
        arena.spend_credit(0, 1, true);
        assert_eq!((arena.masks[0].credited, arena.masks[0].in_active), (0, 0));
        // The tail left with the output VC's credits still out; VA binds
        // the idle input VC to slot 2 before they return.
        arena.bind_out_vc(0, 1, 2, 1);
        arena.spend_credit(0, 1, false);
        arena.spend_credit(0, 1, false);
        assert_eq!(arena.masks[0].credited, 0);
        assert!(refill(&mut arena, 1, 0));
        assert_eq!(arena.masks[0].credited, 0, "slot 1's credit is not its own");
        assert!(refill(&mut arena, 2, 1));
        assert_eq!(arena.masks[0].credited, 0b10);
        // Slot 0 never had an owner: its refills set nothing.
        arena.credits[0] = 0;
        assert!(refill(&mut arena, 0, 0));
        assert_eq!(arena.masks.iter().map(|m| m.credited).sum::<u32>(), 0b10);
        assert_eq!(arena.credited_recount(0), 0b10);
    }

    #[test]
    fn free_vc_skips_busy_gated_and_waking_vcs() {
        let mut arena = Arena::new(1, 4, 4);
        assert_eq!(arena.free_vc(0, 0), Some(0));
        arena.masks[0].out_active = 1;
        arena.masks[0].allocatable = 0b1110 & !0b0010;
        arena.usable_at[2] = 5;
        assert_eq!(arena.free_vc(0, 4), Some(3));
        assert_eq!(arena.free_vc(0, 5), Some(2));
        arena.masks[0].allocatable = 0b0001;
        assert_eq!(arena.free_vc(0, 9), None, "the only allocatable VC is busy");
    }

    #[test]
    fn mask_check_flags_bits_beyond_the_vcs() {
        let mut arena = Arena::new(1, 2, 4);
        let mut found = Vec::new();
        arena.masks[0].out_active = 0b10;
        arena.collect_out_mask_violations(0, 0, &"here", &mut found);
        assert!(found.is_empty());
        arena.masks[0].out_active |= 0b100;
        arena.masks[0].allocatable |= 0b1000;
        arena.collect_out_mask_violations(0, 0, &"here", &mut found);
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found
            .iter()
            .all(|v| v.kind == InvariantKind::VcStateConsistency));
    }

    #[test]
    #[should_panic(expected = "credit overflow")]
    fn credit_overflow_panics() {
        let mut arena = Arena::new(1, 1, 4);
        arena.absorb_credit(credit(0, false));
    }
}
