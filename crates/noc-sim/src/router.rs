//! The 3-stage virtual-channel router.
//!
//! Pipeline (mirroring the Garnet `Router_d` the paper builds on):
//!
//! 1. **BW + RC** — an arriving flit is written into its input VC buffer;
//!    head flits are routed (dimension-ordered).
//! 2. **VA + SA** — head flits waiting for VA arbitrate for a free output
//!    VC; active VCs with a ready flit and downstream credits arbitrate for
//!    the crossbar (separable input-first allocator). Both read words their
//!    writers keep — the router's `pending`, `linked` and `waiting` masks
//!    and the [`Arena`]'s VC masks — and grant by rotating a request mask
//!    ([`RoundRobinArbiter::grant`]).
//! 3. **ST + LT** — the winning flits traverse switch and link; they are
//!    written downstream `1 + link_latency` cycles after winning SA.
//!
//! A router owns no VC state: its input VCs are the downstream side of
//! its input ports' slots in the [`Arena`], its output VCs the upstream
//! side of its output ports' slots. It keeps the slot numbers, its
//! arbiters, the `waiting`, `pending` and `linked` masks and its flit
//! count. Stage 1 and the cross-router parts of stage 3 live in
//! [`crate::network::Network`]; this module owns the VA/SA logic.

use crate::arbiter::RoundRobinArbiter;
use crate::flit::Flit;
use crate::invariants::{InvariantKind, InvariantViolation};
use crate::types::{Direction, NodeId};
use crate::unit::{all_vcs, Arena};
use noc_telemetry::{EventKind, TraceEvent, TraceSink, WorkCounters};
use std::array;
use std::fmt;

/// Number of ports (N, S, E, W, Local).
pub(crate) const NUM_PORTS: usize = 5;

/// Slot number of a boundary port, which has no link.
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// A flit selected by the switch allocator this cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SaWinner {
    pub in_port: u8,
    pub vc: u8,
    pub out_port: u8,
    pub out_vc: u8,
}

/// One router of the mesh.
#[derive(Debug, Clone)]
pub(crate) struct Router {
    /// Per input port, its slot, whose upstream agent its credits return
    /// to (for the local port, the NIC's injection side); [`NO_SLOT`] for a
    /// boundary port.
    pub in_slot: [u32; NUM_PORTS],
    /// Per output port, the slot its flits enter (for the local port, the
    /// NIC's ejection side); [`NO_SLOT`] for a boundary port.
    pub out_slot: [u32; NUM_PORTS],
    /// Per output port, the VC-allocation arbiter over the requesting
    /// input VCs: one request word per input port, one bit per VC (global
    /// index `input_port * num_vcs + vc`).
    pub va_arbs: [RoundRobinArbiter; NUM_PORTS],
    /// Per output port, the switch-allocation arbiter over input ports.
    pub sa_out_arbs: [RoundRobinArbiter; NUM_PORTS],
    /// Per input port, the switch-allocation arbiter over its VCs.
    pub sa_in_arbs: [RoundRobinArbiter; NUM_PORTS],
    /// Per output port, the input VCs whose routed head waits for VA
    /// there: bit `v` of `waiting[o][p]` is VC `v` of input `p`, the VA
    /// arbiter's request words. Only [`Router::route_head`] sets a bit and
    /// only the VA grant clears one.
    pub waiting: [[u32; NUM_PORTS]; NUM_PORTS],
    /// Bit `o`: some head waits for VA on output `o` (`waiting[o]` is not
    /// all zero), the outputs VA visits. [`Router::route_head`] sets a bit
    /// and the VA grant that empties `waiting[o]` clears it.
    pub pending: u8,
    /// Bit `p`: input `p` has a slot, the inputs SA visits. Set once, by
    /// [`Router::link_input`].
    pub linked: u8,
    /// Flits buffered in the input VCs. Only [`Router::write_flit`] and
    /// [`Router::pop_flit`] change the buffers, and both keep this count
    /// in step. A router holding none has nothing to allocate: every
    /// waiting VC buffers its head, and SA only nominates buffered flits.
    pub buffered: u32,
}

impl Router {
    /// Creates a router with `num_vcs` VCs per port whose ports have no
    /// slots yet.
    pub fn new(num_vcs: usize) -> Self {
        Router {
            in_slot: [NO_SLOT; NUM_PORTS],
            out_slot: [NO_SLOT; NUM_PORTS],
            va_arbs: array::from_fn(|_| RoundRobinArbiter::with_words(NUM_PORTS, num_vcs)),
            sa_out_arbs: array::from_fn(|_| RoundRobinArbiter::new(NUM_PORTS)),
            sa_in_arbs: array::from_fn(|_| RoundRobinArbiter::new(num_vcs)),
            waiting: [[0; NUM_PORTS]; NUM_PORTS],
            pending: 0,
            linked: 0,
            buffered: 0,
        }
    }

    /// Connects input `p` to `slot`, the port slot whose buffers it is.
    pub fn link_input(&mut self, p: usize, slot: u32) {
        self.in_slot[p] = slot;
        self.linked |= 1 << p;
    }

    /// The BW stage for one flit arriving at input `in_port`.
    #[inline]
    pub fn write_flit(&mut self, arena: &mut Arena, in_port: usize, flit: Flit) {
        arena.write_flit(self.in_slot[in_port] as usize, flit);
        self.buffered += 1;
    }

    /// Removes the front flit of VC `vc` of input `in_port`, if any.
    #[inline]
    pub fn pop_flit(&mut self, arena: &mut Arena, in_port: usize, vc: usize) -> Option<Flit> {
        let flit = arena.pop_flit(self.in_slot[in_port] as usize, vc)?;
        self.buffered -= 1;
        Some(flit)
    }

    /// The RC result of a head flit buffered in VC `vc` of input `in_port`:
    /// the VC now waits for an output VC on `outport`, which therefore sees
    /// new traffic. Returns the output's slot.
    #[inline]
    pub fn route_head(
        &mut self,
        arena: &mut Arena,
        in_port: usize,
        vc: usize,
        outport: usize,
    ) -> usize {
        let i = arena.vc_index(self.in_slot[in_port] as usize, vc);
        arena.in_vcs[i].route = outport as u8;
        self.waiting[outport][in_port] |= 1 << vc;
        self.pending |= 1 << outport;
        let out_slot = self.out_slot[outport] as usize;
        arena.masks[out_slot].new_traffic = true;
        out_slot
    }

    /// The VCs of input `in_port` waiting for VA on any output port.
    pub fn waiting_at(&self, in_port: usize) -> u32 {
        self.waiting.iter().fold(0, |m, words| m | words[in_port])
    }

    /// `true` when at least one buffered head flit routed to output `out`
    /// has no output VC allocated yet — the paper's
    /// `is_new_traffic_outport_x()` predicate, as the output slot's
    /// `new_traffic` flag and bit `out` of `pending` record it. Recounted
    /// from `waiting`.
    pub fn has_new_traffic(&self, out: usize) -> bool {
        self.waiting[out].iter().any(|&w| w != 0)
    }

    /// The `pending` mask recounted from `waiting`.
    pub fn pending_recount(&self) -> u8 {
        (0..NUM_PORTS)
            .filter(|&o| self.has_new_traffic(o))
            .fold(0, |m, o| m | 1 << o)
    }

    /// The VA requests on output `out`: the waiting VCs whose head was not
    /// written this cycle. A waiting VC buffers its head, so its input port
    /// has a slot.
    fn va_requests(&self, arena: &Arena, out: usize) -> [u32; NUM_PORTS] {
        let waiting = &self.waiting[out];
        array::from_fn(|p| match waiting[p] {
            0 => 0,
            w => w & !arena.masks[self.in_slot[p] as usize].fresh,
        })
    }

    /// The VA stage: grants free, allocatable output VCs to waiting head
    /// flits. A head written this cycle (its VC is `fresh`) waits for the
    /// next. Under a gating policy at most one output VC per port is
    /// allocatable, matching the paper's single-new-VC-per-cycle property.
    ///
    /// Counts every grant into `work` and (when the sink is active) emits
    /// one [`EventKind::VaGrant`] per grant. Returns the output ports that
    /// granted, bit `o` for output `o`: their `active` and `waiting` masks
    /// changed.
    #[inline]
    pub fn vc_allocation<T: TraceSink>(
        &mut self,
        arena: &mut Arena,
        now: u64,
        node: NodeId,
        work: &mut WorkCounters,
        trace: &mut T,
    ) -> u8 {
        let num_vcs = arena.vcs;
        let mut granted = 0u8;
        // Only the outputs a head waits for; with no request or no free VC
        // the arbiter would grant nothing, so it is skipped.
        let mut outs = self.pending;
        while outs != 0 {
            let out_idx = outs.trailing_zeros() as usize;
            outs &= outs - 1;
            let Some(out_slot) = self.linked_output(out_idx) else {
                continue;
            };
            let Some(mut ovc) = arena.free_vc(out_slot, now) else {
                continue;
            };
            let mut requests = self.va_requests(arena, out_idx);
            while let Some(g) = self.va_arbs[out_idx].grant(&requests) {
                let (p, v) = (g / num_vcs, g % num_vcs);
                let bit = 1 << v;
                requests[p] &= !bit;
                self.waiting[out_idx][p] &= !bit;
                let in_slot = self.in_slot[p] as usize;
                debug_assert_eq!(
                    arena.in_vcs[arena.vc_index(in_slot, v)].route as usize,
                    out_idx,
                    "VA off the route"
                );
                arena.bind_out_vc(in_slot, v, out_slot, ovc);
                let left = self.has_new_traffic(out_idx);
                if !left {
                    self.pending &= !(1 << out_idx);
                }
                arena.masks[out_slot].new_traffic = left;
                granted |= 1 << out_idx;
                work.va_grants += 1;
                if T::ACTIVE {
                    trace.emit(TraceEvent {
                        cycle: now,
                        kind: EventKind::VaGrant {
                            node: node.index() as u32,
                            in_port: p as u8,
                            vc: v as u8,
                            out_port: out_idx as u8,
                            out_vc: ovc as u8,
                        },
                    });
                }
                match arena.free_vc(out_slot, now) {
                    Some(next) => ovc = next,
                    None => break,
                }
            }
        }
        granted
    }

    /// The slot of output `out`, unless it is a boundary port (only a
    /// fault hook makes a head wait on one).
    #[inline]
    fn linked_output(&self, out: usize) -> Option<usize> {
        match self.out_slot[out] {
            NO_SLOT => None,
            slot => Some(slot as usize),
        }
    }

    /// The slots of the outputs with a VA request.
    fn requesting_outputs<'a>(&'a self, arena: &'a Arena) -> impl Iterator<Item = usize> + 'a {
        (0..NUM_PORTS)
            .filter(|&o| self.pending & (1 << o) != 0)
            .filter_map(move |o| {
                let slot = self.linked_output(o)?;
                self.va_requests(arena, o)
                    .iter()
                    .any(|&w| w != 0)
                    .then_some(slot)
            })
    }

    /// After a VA pass that granted nothing: whether some output has a
    /// request and an idle, allocatable VC that is still waking up, so a
    /// later VA pass may grant with nothing else changing.
    #[inline]
    pub fn waits_for_wakeup(&self, arena: &Arena) -> bool {
        self.requesting_outputs(arena).any(|slot| {
            let m = arena.masks[slot];
            m.allocatable & !m.out_active != 0
        })
    }

    /// Whether a VA and SA pass run now would grant anything: some output
    /// has a request and a free VC, or some input has a switch nominee.
    /// Reads only, so the invariant checker can ask it of a stalled router.
    pub fn could_grant(&self, arena: &Arena, now: u64) -> bool {
        self.requesting_outputs(arena)
            .any(|slot| arena.free_vc(slot, now).is_some())
            || (0..NUM_PORTS).any(|p| self.linked & (1 << p) != 0 && self.sa_ready(arena, p) != 0)
    }

    /// The VCs of linked input `p` that may nominate themselves for the
    /// switch: active, buffered, not fresh, and with a credit on their
    /// output VC (`credited`, which the credit writers keep).
    #[inline]
    fn sa_ready(&self, arena: &Arena, p: usize) -> u32 {
        let m = arena.masks[self.in_slot[p] as usize];
        m.in_active & m.occupied & !m.fresh & m.credited
    }

    /// The SA stage: a separable, input-first allocator. Each input port
    /// nominates one of its active, buffered, not-fresh VCs whose output
    /// VC has a credit; each output port admits one nominee. Appends each
    /// output's winner to `winners` as `(router, winner)`, in output-port
    /// order, and returns whether any input nominated (then at least one
    /// winner was appended).
    #[inline]
    pub fn switch_allocation(
        &mut self,
        arena: &Arena,
        router: u32,
        winners: &mut Vec<(u32, SaWinner)>,
    ) -> bool {
        let mut nominees = [SaWinner::default(); NUM_PORTS];
        // Per output port, the input ports whose nominee targets it, and
        // bit `o` for each output with a nominee.
        let mut requests = [0u32; NUM_PORTS];
        let mut nominated = 0u8;
        let mut inputs = self.linked;
        while inputs != 0 {
            let p = inputs.trailing_zeros() as usize;
            inputs &= inputs - 1;
            let ready = self.sa_ready(arena, p);
            if ready == 0 {
                continue;
            }
            if let Some(v) = self.sa_in_arbs[p].grant(&[ready]) {
                let vc = arena.in_vcs[arena.vc_index(self.in_slot[p] as usize, v)];
                nominees[p] = SaWinner {
                    in_port: p as u8,
                    vc: v as u8,
                    out_port: vc.route,
                    out_vc: vc.out_vc,
                };
                requests[usize::from(vc.route)] |= 1 << p;
                nominated |= 1 << vc.route;
            }
        }
        let any = nominated != 0;
        while nominated != 0 {
            let o = nominated.trailing_zeros() as usize;
            nominated &= nominated - 1;
            if let Some(p) = self.sa_out_arbs[o].grant(&[requests[o]]) {
                // lint:allow(alloc-in-hot-path) amortized: scratch keeps its capacity
                winners.push((router, nominees[p]));
            }
        }
        any
    }

    /// Appends every invariant violation visible from this router's local
    /// state to `out`: gating safety always; when `full`, VC state
    /// consistency: no mask has stray bits, waiting and active VCs are
    /// disjoint, each waiting VC buffers a head routed to the port it
    /// waits for, `occupied` matches the buffers, every active VC's output
    /// VC is active, and the cached flit count matches a recount.
    pub fn collect_violations(
        &self,
        arena: &Arena,
        node: NodeId,
        cycle: u64,
        full: bool,
        out: &mut Vec<InvariantViolation>,
    ) {
        let all = all_vcs(arena.vcs);
        for p in 0..NUM_PORTS {
            let dir = Direction::from_index(p);
            let waiting = self.waiting_at(p);
            let (in_slot, out_slot) = (self.in_slot[p], self.out_slot[p]);
            // A boundary input stays gated, idle and empty.
            if in_slot != NO_SLOT {
                arena.collect_gating_violations(
                    in_slot as usize,
                    waiting,
                    cycle,
                    &format_args!("router {node} in-{dir}"),
                    out,
                );
            }
            if !full {
                continue;
            }
            if in_slot != NO_SLOT {
                arena.collect_in_mask_violations(
                    in_slot as usize,
                    cycle,
                    &format_args!("router {node} in-{dir}"),
                    out,
                );
            }
            if out_slot != NO_SLOT {
                arena.collect_out_mask_violations(
                    out_slot as usize,
                    cycle,
                    &format_args!("router {node} out-{dir}"),
                    out,
                );
            }
            let mut push = |detail: fmt::Arguments<'_>| {
                let kind = InvariantKind::VcStateConsistency;
                // lint:allow(alloc-in-hot-path) cold branch: only runs on a violation
                out.push(InvariantViolation::new(cycle, kind, detail));
            };
            let active = arena.masks.get(in_slot as usize).map_or(0, |m| m.in_active);
            let both = waiting & active;
            if both != 0 {
                push(format_args!(
                    "router {node} in-{dir} VCs {both:#b} are both waiting and active"
                ));
            }
            for (o, words) in self.waiting.iter().enumerate() {
                let outport = Direction::from_index(o);
                let stray = words[p] & !all;
                if stray != 0 {
                    push(format_args!(
                        "router {node} out-{outport} waiting mask has bits {stray:#x} \
                         beyond in-{dir}'s VCs"
                    ));
                }
                let mut bits = words[p] & all;
                while bits != 0 {
                    let v = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let why = match in_slot {
                        NO_SLOT => "buffers nothing",
                        slot => {
                            let route = arena.in_vcs[arena.vc_index(slot as usize, v)].route;
                            match arena.buffer(slot as usize, v).next() {
                                None => "buffers nothing",
                                Some(f) if !f.is_head() => "its front flit is not a head",
                                Some(_) if route as usize != o => "its head is routed elsewhere",
                                Some(_) => continue,
                            }
                        }
                    };
                    push(format_args!(
                        "router {node} in-{dir} vc{v} waits for out-{outport} but {why}"
                    ));
                }
            }
            let mut active = active & all;
            while active != 0 {
                let v = active.trailing_zeros() as usize;
                active &= active - 1;
                let vc = arena.in_vcs[arena.vc_index(in_slot as usize, v)];
                let route = vc.route as usize;
                let target = self.out_slot[route];
                let out_active = target != NO_SLOT
                    && arena.masks[target as usize].out_active & (1 << vc.out_vc) != 0;
                if !out_active {
                    push(format_args!(
                        "router {node} in-{dir} vc{v} is active on out-{} vc{}, which is idle",
                        Direction::from_index(route),
                        vc.out_vc
                    ));
                }
            }
        }
        if !full {
            return;
        }
        let held = self.buffered_flits(arena);
        if held != self.buffered as usize {
            // lint:allow(alloc-in-hot-path) cold branch: only runs on a violation
            out.push(InvariantViolation::new(
                cycle,
                InvariantKind::VcStateConsistency,
                format_args!(
                    "router {node} counts {} buffered flit(s), but its input VCs hold {held}",
                    self.buffered
                ),
            ));
        }
    }

    /// Total flits buffered across all input ports, recounted.
    pub fn buffered_flits(&self, arena: &Arena) -> usize {
        self.in_slot
            .iter()
            .filter(|&&s| s != NO_SLOT)
            .map(|&s| arena.buffered(s as usize))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::split_packet;

    const W: usize = Direction::West.index();
    const N: usize = Direction::North.index();
    const S: usize = Direction::South.index();
    const E: usize = Direction::East.index();

    /// A router whose input port `p` is slot `p` and output port `o` slot
    /// `5 + o`, with its own arena.
    fn router(num_vcs: usize) -> (Router, Arena) {
        let mut r = Router::new(num_vcs);
        for p in 0..NUM_PORTS {
            r.link_input(p, p as u32);
        }
        r.out_slot = array::from_fn(|o| (NUM_PORTS + o) as u32);
        (r, Arena::new(2 * NUM_PORTS, num_vcs, 4))
    }

    fn va(r: &mut Router, arena: &mut Arena, now: u64) {
        let sink = &mut noc_telemetry::NullSink;
        r.vc_allocation(arena, now, NodeId(0), &mut WorkCounters::default(), sink);
    }

    /// One SA pass as router 3, appended behind a winner of another router
    /// the way the network's list holds it: returns router 3's winners.
    fn sa(r: &mut Router, a: &Arena) -> Vec<SaWinner> {
        let earlier = (
            9,
            SaWinner {
                in_port: 1,
                vc: 0,
                out_port: 2,
                out_vc: 0,
            },
        );
        let mut winners = vec![earlier];
        let nominated = r.switch_allocation(a, 3, &mut winners);
        assert_eq!(winners[0], earlier, "earlier winners are kept");
        assert!(winners[1..].iter().all(|&(router, _)| router == 3));
        assert_eq!(nominated, winners.len() > 1, "a nominee always wins");
        winners[1..].iter().map(|&(_, w)| w).collect()
    }

    /// Every arbiter's priority pointer.
    fn priorities(r: &Router) -> Vec<usize> {
        r.va_arbs
            .iter()
            .chain(&r.sa_out_arbs)
            .chain(&r.sa_in_arbs)
            .map(RoundRobinArbiter::priority)
            .collect()
    }

    /// Writes and routes a head into VC `vc` of `in_port`, towards output
    /// `out`. The VC is fresh until [`next_cycle`].
    fn put_waiting_head(r: &mut Router, a: &mut Arena, in_port: usize, vc: usize, out: usize) {
        let head = split_packet(vc as u32 + 100, 3)[0];
        r.write_flit(
            a,
            in_port,
            Flit {
                vc: vc as u8,
                ..head
            },
        );
        r.route_head(a, in_port, vc, out);
    }

    /// What `begin_cycle` does before delivering: nothing buffered so far
    /// was written this cycle.
    fn next_cycle(arena: &mut Arena) {
        for m in &mut arena.masks {
            m.fresh = 0;
        }
    }

    fn waits(r: &Router, in_port: usize, vc: usize) -> bool {
        r.waiting_at(in_port) & (1 << vc) != 0
    }

    /// The output port and VC input VC `vc` of `in_port` is active on, if
    /// any.
    fn active_on(r: &Router, arena: &Arena, in_port: usize, vc: usize) -> Option<(usize, usize)> {
        let slot = r.in_slot[in_port] as usize;
        let in_vc = arena.in_vcs[arena.vc_index(slot, vc)];
        (arena.masks[slot].in_active & (1 << vc) != 0)
            .then_some((in_vc.route as usize, in_vc.out_vc as usize))
    }

    fn out_active(r: &Router, arena: &Arena, out: usize) -> u32 {
        arena.masks[r.out_slot[out] as usize].out_active
    }

    /// Recounts the cached state through the invariant checker.
    fn assert_consistent(r: &Router, arena: &Arena) {
        let mut found = Vec::new();
        r.collect_violations(arena, NodeId(0), 0, true, &mut found);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn new_traffic_predicate_sees_waiting_heads() {
        let (mut r, mut a) = router(2);
        assert!(!r.has_new_traffic(E));
        put_waiting_head(&mut r, &mut a, W, 0, E);
        assert!(r.has_new_traffic(E));
        assert!(!r.has_new_traffic(N));
        assert_consistent(&r, &a);
        // Allocated VCs no longer count as new traffic.
        next_cycle(&mut a);
        va(&mut r, &mut a, 1);
        assert!(!r.has_new_traffic(E));
        assert_consistent(&r, &a);
    }

    #[test]
    fn skewed_waiting_count_is_a_vc_state_violation() {
        let (mut r, mut a) = router(2);
        put_waiting_head(&mut r, &mut a, W, 0, E);
        // A phantom waiting bit on an idle, empty VC, flagged as new
        // traffic the way the network's fault hook does.
        r.waiting[N][S] |= 1;
        a.masks[r.out_slot[N] as usize].new_traffic = true;
        let mut found = Vec::new();
        r.collect_violations(&a, NodeId(0), 0, true, &mut found);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].kind, InvariantKind::VcStateConsistency);
        let detail = &found[0].detail;
        assert!(
            detail.contains("in-S vc0 waits for out-N but buffers nothing"),
            "{detail}"
        );
        // The cheap level does not recount.
        found.clear();
        r.collect_violations(&a, NodeId(0), 0, false, &mut found);
        assert!(found.is_empty());
        // A real head waiting on two ports at once is caught too, and so
        // is a VC both waiting and active.
        r.waiting[N][S] = 0;
        r.waiting[N][W] |= 1;
        a.masks[W].in_active |= 1;
        a.masks[r.out_slot[E] as usize].out_active |= 1;
        r.collect_violations(&a, NodeId(0), 0, true, &mut found);
        let details: Vec<&str> = found.iter().map(|v| v.detail.as_str()).collect();
        assert_eq!(found.len(), 2, "{details:?}");
        assert!(
            details[0].contains("both waiting and active"),
            "{details:?}"
        );
        assert!(details[1].contains("routed elsewhere"), "{details:?}");
    }

    #[test]
    fn skewed_flit_count_is_a_vc_state_violation() {
        let (mut r, mut a) = router(2);
        put_waiting_head(&mut r, &mut a, W, 1, E);
        assert_eq!(r.buffered, 1);
        r.buffered += 1;
        let mut found = Vec::new();
        r.collect_violations(&a, NodeId(0), 0, true, &mut found);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].kind, InvariantKind::VcStateConsistency);
        let detail = &found[0].detail;
        assert!(
            detail.contains("counts 2 buffered flit(s), but its input VCs hold 1"),
            "{detail}"
        );
        found.clear();
        r.collect_violations(&a, NodeId(0), 0, false, &mut found);
        assert!(found.is_empty());
        r.buffered -= 1;
        assert_eq!(r.pop_flit(&mut a, W, 1).map(|f| f.vc), Some(1));
        assert_eq!(r.pop_flit(&mut a, W, 1), None);
        assert_eq!(r.buffered, 0);
        assert_eq!(a.masks[W].occupied, 0);
    }

    /// The premise of skipping empty routers in `finish_cycle`: with no
    /// buffered flit, VA and SA grant nothing and every arbiter keeps its
    /// priority, even with VCs left active mid-packet.
    #[test]
    fn an_empty_router_grants_nothing_and_keeps_its_priorities() {
        let (mut r, mut a) = router(2);
        put_waiting_head(&mut r, &mut a, W, 0, E);
        next_cycle(&mut a);
        va(&mut r, &mut a, 1);
        assert_eq!(sa(&mut r, &a).len(), 1);
        r.pop_flit(&mut a, W, 0);
        assert_eq!(r.buffered, 0);
        let before = priorities(&r);
        next_cycle(&mut a);
        va(&mut r, &mut a, 2);
        assert!(sa(&mut r, &a).is_empty());
        assert!(!r.could_grant(&a, 2));
        assert_eq!(priorities(&r), before);
    }

    #[test]
    fn va_grants_free_allocatable_vc() {
        let (mut r, mut a) = router(2);
        put_waiting_head(&mut r, &mut a, W, 0, E);
        next_cycle(&mut a);
        assert!(r.could_grant(&a, 1));
        va(&mut r, &mut a, 1);
        assert_eq!(active_on(&r, &a, W, 0), Some((E, 0)));
        assert!(!waits(&r, W, 0));
        assert_eq!(out_active(&r, &a, E), 1);
    }

    #[test]
    fn va_waits_a_cycle_for_a_fresh_head() {
        let (mut r, mut a) = router(2);
        put_waiting_head(&mut r, &mut a, W, 0, E);
        // Written this cycle: VA must not grant yet.
        assert!(!r.could_grant(&a, 5));
        va(&mut r, &mut a, 5);
        assert!(waits(&r, W, 0));
        next_cycle(&mut a);
        va(&mut r, &mut a, 6);
        assert!(active_on(&r, &a, W, 0).is_some());
    }

    #[test]
    fn va_respects_allocatable_mask() {
        let (mut r, mut a) = router(2);
        put_waiting_head(&mut r, &mut a, W, 0, E);
        next_cycle(&mut a);
        let east = r.out_slot[E] as usize;
        a.masks[east].allocatable = 0;
        va(&mut r, &mut a, 1);
        assert!(waits(&r, W, 0));
        // Re-enable only VC 1: the head must land there.
        a.masks[east].allocatable = 0b10;
        va(&mut r, &mut a, 2);
        assert_eq!(active_on(&r, &a, W, 0), Some((E, 1)));
    }

    #[test]
    fn va_is_fair_across_requesters() {
        let (mut r, mut a) = router(2);
        // Two waiting heads from different ports racing for East.
        put_waiting_head(&mut r, &mut a, W, 0, E);
        put_waiting_head(&mut r, &mut a, N, 0, E);
        next_cycle(&mut a);
        va(&mut r, &mut a, 1);
        // Both get VCs this cycle (two free out VCs under AllOn), in flat
        // index order: North (port 0) first.
        assert_eq!(active_on(&r, &a, N, 0), Some((E, 0)));
        assert_eq!(active_on(&r, &a, W, 0), Some((E, 1)));
        assert_consistent(&r, &a);
    }

    /// At 32 VCs each input port's VCs fill a whole request word, so VA's
    /// rotation must carry across the word boundary between two input
    /// ports and wrap from the last word to the first.
    #[test]
    fn va_rotation_wraps_across_input_port_words_at_32_vcs() {
        let (mut r, mut a) = router(32);
        put_waiting_head(&mut r, &mut a, S, 31, E);
        put_waiting_head(&mut r, &mut a, W, 0, E);
        put_waiting_head(&mut r, &mut a, W, 5, E);
        next_cycle(&mut a);
        // One allocatable VC per cycle: one grant per VA pass.
        let east = r.out_slot[E] as usize;
        a.masks[east].allocatable = 1 << 7;
        r.va_arbs[E].set_priority(S * 32 + 31);
        let granted = |r: &mut Router, a: &mut Arena, now: u64| {
            va(r, a, now);
            let g = (0..NUM_PORTS)
                .flat_map(|p| (0..32).map(move |v| (p, v)))
                .find(|&(p, v)| a.masks[p].in_active & (1 << v) != 0)
                .expect("one grant");
            // Release the grant so the next pass can reuse VC 7.
            a.masks[g.0].in_active = 0;
            r.pop_flit(a, g.0, g.1);
            a.masks[east].out_active &= !(1 << 7);
            g
        };
        assert_eq!(granted(&mut r, &mut a, 1), (S, 31));
        assert_eq!(
            r.va_arbs[E].priority(),
            (S + 1) * 32,
            "carried into the next input port's word"
        );
        assert_eq!(granted(&mut r, &mut a, 2), (W, 0));
        assert_eq!(granted(&mut r, &mut a, 3), (W, 5));
        // Only South vc31 is left; a new head on North vc3 sits below the
        // pointer, so it wins only after the wrap past the last word.
        put_waiting_head(&mut r, &mut a, N, 3, E);
        put_waiting_head(&mut r, &mut a, S, 31, E);
        next_cycle(&mut a);
        assert_eq!(granted(&mut r, &mut a, 4), (N, 3));
        assert_eq!(granted(&mut r, &mut a, 5), (S, 31));
        assert!(!r.has_new_traffic(E));
    }

    #[test]
    fn sa_moves_at_most_one_flit_per_output() {
        let (mut r, mut a) = router(2);
        put_waiting_head(&mut r, &mut a, W, 0, E);
        put_waiting_head(&mut r, &mut a, N, 0, E);
        next_cycle(&mut a);
        va(&mut r, &mut a, 1);
        let granted = sa(&mut r, &a);
        assert_eq!(granted.len(), 1, "one grant per output port");
        assert_eq!(usize::from(granted[0].out_port), E);
    }

    #[test]
    fn sa_requires_credits() {
        let (mut r, mut a) = router(2);
        put_waiting_head(&mut r, &mut a, W, 0, E);
        next_cycle(&mut a);
        va(&mut r, &mut a, 1);
        // Spend every credit of the granted output VC, as the traversals
        // of the packet's first four flits would.
        for _ in 0..4 {
            a.spend_credit(W, 0, false);
        }
        assert_eq!(a.credits[a.vc_index(r.out_slot[E] as usize, 0)], 0);
        assert!(sa(&mut r, &a).is_empty());
        assert!(!r.could_grant(&a, 2));
    }

    #[test]
    fn sa_respects_flit_readiness() {
        let (mut r, mut a) = router(2);
        put_waiting_head(&mut r, &mut a, W, 0, E);
        next_cycle(&mut a);
        va(&mut r, &mut a, 1);
        // Drain the head, then deliver the body into the emptied VC: it
        // is fresh this cycle and may only win SA in the next.
        assert_eq!(sa(&mut r, &a).len(), 1);
        r.pop_flit(&mut a, W, 0);
        next_cycle(&mut a);
        let body = split_packet(100, 3)[1];
        r.write_flit(&mut a, W, body);
        assert!(sa(&mut r, &a).is_empty());
        next_cycle(&mut a);
        assert_eq!(sa(&mut r, &a).len(), 1);
    }

    #[test]
    fn distinct_outputs_proceed_in_parallel() {
        let (mut r, mut a) = router(2);
        put_waiting_head(&mut r, &mut a, W, 0, E);
        put_waiting_head(&mut r, &mut a, E, 0, W);
        next_cycle(&mut a);
        va(&mut r, &mut a, 1);
        assert_eq!(sa(&mut r, &a).len(), 2);
    }

    /// The traversal order: winners come in output-port order, each output
    /// admits at most one and each input sends at most one.
    #[test]
    fn sa_appends_winners_in_output_order_one_per_output_and_input() {
        let (mut r, mut a) = router(2);
        put_waiting_head(&mut r, &mut a, W, 0, E);
        put_waiting_head(&mut r, &mut a, W, 1, N);
        put_waiting_head(&mut r, &mut a, S, 0, E);
        put_waiting_head(&mut r, &mut a, E, 0, W);
        put_waiting_head(&mut r, &mut a, N, 0, S);
        next_cycle(&mut a);
        va(&mut r, &mut a, 1);
        let granted = sa(&mut r, &a);
        assert!(granted.len() >= 3, "{granted:?}");
        for pair in granted.windows(2) {
            assert!(pair[0].out_port < pair[1].out_port, "{granted:?}");
        }
        let mut inputs = 0u8;
        for w in &granted {
            assert_eq!(inputs & (1 << w.in_port), 0, "{granted:?}");
            inputs |= 1 << w.in_port;
            let vc = a.in_vcs[a.vc_index(
                r.in_slot[usize::from(w.in_port)] as usize,
                usize::from(w.vc),
            )];
            assert_eq!((w.out_port, w.out_vc), (vc.route, vc.out_vc));
        }
    }

    /// A router whose buffered flits nominate nothing (a head still
    /// waiting for VA) appends nothing and moves no arbiter.
    #[test]
    fn a_router_with_no_nominee_appends_nothing_and_keeps_its_priorities() {
        let (mut r, mut a) = router(2);
        put_waiting_head(&mut r, &mut a, W, 0, E);
        next_cycle(&mut a);
        let before = priorities(&r);
        let mut winners = Vec::new();
        assert!(!r.switch_allocation(&a, 0, &mut winners));
        assert!(winners.is_empty());
        assert_eq!(priorities(&r), before);
    }
}
