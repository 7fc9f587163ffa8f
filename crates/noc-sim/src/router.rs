//! The 3-stage virtual-channel router.
//!
//! Pipeline (mirroring the Garnet `Router_d` the paper builds on):
//!
//! 1. **BW + RC** — an arriving flit is written into its input VC buffer;
//!    head flits are routed (dimension-ordered).
//! 2. **VA + SA** — head flits waiting for VA arbitrate for a free output
//!    VC; active VCs with a ready flit and downstream credits arbitrate for
//!    the crossbar (separable input-first allocator). Both read the VC
//!    masks of [`InputUnit`] and [`Router::waiting`] and grant by rotating
//!    a request mask ([`RoundRobinArbiter::grant`]).
//! 3. **ST + LT** — the winning flits traverse switch and link; they are
//!    written downstream `1 + link_latency` cycles after winning SA.
//!
//! Stage 1 and the cross-router parts of stage 3 live in
//! [`crate::network::Network`]; this module owns the router-local state and
//! the VA/SA logic.

use crate::arbiter::RoundRobinArbiter;
use crate::flit::Flit;
use crate::invariants::{InvariantKind, InvariantViolation};
use crate::types::{Direction, NodeId};
use crate::unit::{all_vcs, InputUnit, OutputUnit};
use noc_telemetry::{EventKind, TraceEvent, TraceSink, WorkCounters};
use std::array;

/// Number of ports (N, S, E, W, Local).
pub(crate) const NUM_PORTS: usize = 5;

/// A flit selected by the switch allocator this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SaWinner {
    pub in_port: usize,
    pub vc: usize,
    pub out_port: usize,
    pub out_vc: usize,
}

/// One router of the mesh.
#[derive(Debug, Clone)]
pub(crate) struct Router {
    /// Input units indexed by [`Direction::index`].
    pub inputs: [InputUnit; NUM_PORTS],
    /// Output units indexed by [`Direction::index`].
    pub outputs: [OutputUnit; NUM_PORTS],
    /// Per-input-port switch-allocation arbiters (over VCs).
    pub sa_in_arbs: [RoundRobinArbiter; NUM_PORTS],
    /// Per output port, the input VCs whose routed head waits for VA
    /// there: bit `v` of `waiting[o][p]` is VC `v` of input `p`, the VA
    /// arbiter's request words. Only [`Router::route_head`] sets a bit and
    /// only the VA grant clears one.
    pub waiting: [[u32; NUM_PORTS]; NUM_PORTS],
    /// Flits buffered in the input VCs. Only [`Router::write_flit`] and
    /// [`Router::pop_flit`] change the buffers, and both keep this count
    /// in step. A router holding none has nothing to allocate: every
    /// waiting VC buffers its head, and SA only nominates buffered flits.
    pub buffered: u32,
}

impl Router {
    /// Creates a router. `connected[d]` tells whether the mesh port in
    /// direction `d` has a neighbour; the local port is always connected.
    pub fn new(num_vcs: usize, depth: usize, connected: [bool; NUM_PORTS]) -> Self {
        Router {
            inputs: array::from_fn(|p| InputUnit::new(num_vcs, depth, connected[p])),
            outputs: array::from_fn(|p| OutputUnit::new(num_vcs, depth, NUM_PORTS, connected[p])),
            sa_in_arbs: array::from_fn(|_| RoundRobinArbiter::new(num_vcs)),
            waiting: [[0; NUM_PORTS]; NUM_PORTS],
            buffered: 0,
        }
    }

    /// The BW stage for one flit arriving at input `in_port`.
    pub fn write_flit(&mut self, in_port: usize, flit: Flit, depth: usize) {
        self.inputs[in_port].write_flit(flit, depth);
        self.buffered += 1;
    }

    /// Removes the front flit of VC `vc` of input `in_port`, if any.
    pub fn pop_flit(&mut self, in_port: usize, vc: usize) -> Option<Flit> {
        let flit = self.inputs[in_port].pop_flit(vc)?;
        self.buffered -= 1;
        Some(flit)
    }

    /// Number of VCs per port.
    pub fn num_vcs(&self) -> usize {
        self.inputs[0].vcs.len()
    }

    /// The RC result of a head flit buffered in VC `vc` of input `in_port`:
    /// the VC now waits for an output VC on `outport`.
    pub fn route_head(&mut self, in_port: usize, vc: usize, outport: Direction) {
        self.inputs[in_port].vcs[vc].route = outport;
        self.waiting[outport.index()][in_port] |= 1 << vc;
    }

    /// The VCs of input `in_port` waiting for VA on any output port.
    pub fn waiting_at(&self, in_port: usize) -> u32 {
        self.waiting.iter().fold(0, |m, words| m | words[in_port])
    }

    /// `true` when at least one buffered head flit routed to `out_dir` has
    /// no output VC allocated yet — the paper's
    /// `is_new_traffic_outport_x()` predicate.
    #[inline]
    pub fn has_new_traffic(&self, out_dir: Direction) -> bool {
        self.waiting[out_dir.index()].iter().any(|&w| w != 0)
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
    pub fn vc_allocation<T: TraceSink>(
        &mut self,
        now: u64,
        depth: usize,
        node: NodeId,
        work: &mut WorkCounters,
        trace: &mut T,
    ) -> u8 {
        let num_vcs = self.num_vcs();
        let mut granted = 0u8;
        let inputs = &mut self.inputs;
        for (out_idx, out) in self.outputs.iter_mut().enumerate() {
            if !out.connected {
                continue;
            }
            let waiting = &mut self.waiting[out_idx];
            // With no request the arbiter would grant nothing: skip it.
            if waiting.iter().all(|&w| w == 0) {
                continue;
            }
            let mut requests: [u32; NUM_PORTS] = array::from_fn(|p| waiting[p] & !inputs[p].fresh);
            while requests.iter().any(|&w| w != 0) {
                let Some(ovc) = out.free_vc(now) else { break };
                let Some(g) = out.va_arb.grant(&requests) else {
                    break;
                };
                let (p, v) = (g / num_vcs, g % num_vcs);
                let bit = 1 << v;
                requests[p] &= !bit;
                waiting[p] &= !bit;
                let unit = &mut inputs[p];
                unit.active |= bit;
                unit.vcs[v].out_vc = ovc;
                debug_assert_eq!(unit.vcs[v].route.index(), out_idx, "VA off the route");
                debug_assert_eq!(
                    out.vcs[ovc].credits, depth,
                    "an idle out VC must hold all its credits"
                );
                out.set_active(ovc);
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
            }
        }
        granted
    }

    /// After a VA pass that granted nothing: whether some output has a
    /// request and an idle, allocatable VC that is still waking up, so a
    /// later VA pass may grant with nothing else changing.
    pub fn waits_for_wakeup(&self) -> bool {
        self.outputs.iter().zip(&self.waiting).any(|(out, words)| {
            out.connected
                && out.allocatable & !out.active != 0
                && words
                    .iter()
                    .zip(&self.inputs)
                    .any(|(&w, unit)| w & !unit.fresh != 0)
        })
    }

    /// The SA stage: a separable, input-first allocator. Each input port
    /// nominates one of its active, buffered, not-fresh VCs whose output
    /// VC has a credit; each output port admits one nominee. Returns the
    /// winner (if any) per output port — a fixed array so the per-cycle
    /// SA stage never allocates.
    pub fn switch_allocation(&mut self) -> [Option<SaWinner>; NUM_PORTS] {
        let mut nominees: [Option<SaWinner>; NUM_PORTS] = [None; NUM_PORTS];
        // Per output port, the input ports whose nominee targets it.
        let mut requests = [0u32; NUM_PORTS];
        for (p, (unit, arb)) in self.inputs.iter().zip(&mut self.sa_in_arbs).enumerate() {
            let mut candidates = unit.active & unit.occupied & !unit.fresh;
            if candidates == 0 {
                continue;
            }
            let mut ready = 0u32;
            while candidates != 0 {
                let v = candidates.trailing_zeros() as usize;
                candidates &= candidates - 1;
                let vc = &unit.vcs[v];
                if self.outputs[vc.route.index()].vcs[vc.out_vc].credits > 0 {
                    ready |= 1 << v;
                }
            }
            if let Some(v) = arb.grant(&[ready]) {
                let vc = &unit.vcs[v];
                let out_port = vc.route.index();
                nominees[p] = Some(SaWinner {
                    in_port: p,
                    vc: v,
                    out_port,
                    out_vc: vc.out_vc,
                });
                requests[out_port] |= 1 << p;
            }
        }
        let mut winners: [Option<SaWinner>; NUM_PORTS] = [None; NUM_PORTS];
        for (out, (winner, &req)) in self
            .outputs
            .iter_mut()
            .zip(winners.iter_mut().zip(&requests))
        {
            if req == 0 {
                continue;
            }
            if let Some(p) = out.sa_arb.grant(&[req]) {
                *winner = nominees[p];
            }
        }
        winners
    }

    /// Appends every invariant violation visible from this router's local
    /// state to `out`: gating safety always; when `full`, VC state
    /// consistency: no mask has stray bits, waiting and active VCs are
    /// disjoint, each waiting VC buffers a head routed to the port it
    /// waits for, `occupied` matches the buffers, every active VC's output
    /// VC is active, and the cached flit count matches a recount.
    pub fn collect_violations(
        &self,
        node: NodeId,
        cycle: u64,
        full: bool,
        out: &mut Vec<InvariantViolation>,
    ) {
        let all = all_vcs(self.num_vcs());
        for (p, unit) in self.inputs.iter().enumerate() {
            let dir = Direction::from_index(p);
            let waiting = self.waiting_at(p);
            // lint:allow(alloc-in-hot-path) diagnostic pass: only runs with invariants enabled
            unit.collect_gating_violations(waiting, cycle, &format!("router {node} in-{dir}"), out);
            if !full {
                continue;
            }
            unit.collect_mask_violations(cycle, &format_args!("router {node} in-{dir}"), out);
            self.outputs[p].collect_mask_violations(
                cycle,
                &format_args!("router {node} out-{dir}"),
                out,
            );
            let mut push = |detail: String| {
                // lint:allow(alloc-in-hot-path) cold branch: only runs on a violation
                out.push(InvariantViolation {
                    cycle,
                    kind: InvariantKind::VcStateConsistency,
                    detail,
                });
            };
            let both = waiting & unit.active;
            if both != 0 {
                // lint:allow(alloc-in-hot-path) cold branch: only runs on a violation
                push(format!(
                    "router {node} in-{dir} VCs {both:#b} are both waiting and active"
                ));
            }
            for (o, words) in self.waiting.iter().enumerate() {
                let outport = Direction::from_index(o);
                let stray = words[p] & !all;
                if stray != 0 {
                    // lint:allow(alloc-in-hot-path) cold branch: only runs on a violation
                    push(format!(
                        "router {node} out-{outport} waiting mask has bits {stray:#x} \
                         beyond in-{dir}'s VCs"
                    ));
                }
                let mut bits = words[p] & all;
                while bits != 0 {
                    let v = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let vc = &unit.vcs[v];
                    let why = match vc.buffer.front() {
                        None => "buffers nothing",
                        Some(f) if !f.is_head() => "its front flit is not a head",
                        Some(_) if vc.route != outport => "its head is routed elsewhere",
                        Some(_) => continue,
                    };
                    // lint:allow(alloc-in-hot-path) cold branch: only runs on a violation
                    push(format!(
                        "router {node} in-{dir} vc{v} waits for out-{outport} but {why}"
                    ));
                }
            }
            let mut active = unit.active & all;
            while active != 0 {
                let v = active.trailing_zeros() as usize;
                active &= active - 1;
                let vc = &unit.vcs[v];
                if !self.outputs[vc.route.index()].is_active(vc.out_vc) {
                    // lint:allow(alloc-in-hot-path) cold branch: only runs on a violation
                    push(format!(
                        "router {node} in-{dir} vc{v} is active on out-{} vc{}, which is idle",
                        vc.route, vc.out_vc
                    ));
                }
            }
        }
        if !full {
            return;
        }
        let held = self.buffered_flits();
        if held != self.buffered as usize {
            // lint:allow(alloc-in-hot-path) cold branch: only runs on a violation
            out.push(InvariantViolation {
                cycle,
                kind: InvariantKind::VcStateConsistency,
                // lint:allow(alloc-in-hot-path) cold branch: only runs on a violation
                detail: format!(
                    "router {node} counts {} buffered flit(s), but its input VCs hold {held}",
                    self.buffered
                ),
            });
        }
    }

    /// Total flits buffered across all input units.
    pub fn buffered_flits(&self) -> usize {
        self.inputs
            .iter()
            .map(super::unit::InputUnit::buffered_flits)
            .sum()
    }

    /// Total flits in flight on incoming links.
    pub fn in_flight_flits(&self) -> usize {
        self.inputs
            .iter()
            .map(super::unit::InputUnit::in_flight_flits)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{split_packet, PacketId};
    use crate::types::NodeId;

    fn router(num_vcs: usize) -> Router {
        Router::new(num_vcs, 4, [true; NUM_PORTS])
    }

    fn va(r: &mut Router, now: u64) {
        r.vc_allocation(
            now,
            4,
            NodeId(0),
            &mut WorkCounters::default(),
            &mut noc_telemetry::NullSink,
        );
    }

    /// Writes and routes a head into VC `vc` of `in_port`. The VC is
    /// fresh until [`next_cycle`].
    fn put_waiting_head(r: &mut Router, in_port: usize, vc: usize, outport: Direction) {
        let mut f = split_packet(PacketId(vc as u64 + 100), NodeId(0), NodeId(1), 3, 0)[0];
        f.vc = vc;
        r.write_flit(in_port, f, 4);
        r.route_head(in_port, vc, outport);
    }

    /// What `begin_cycle` does before delivering: nothing buffered so far
    /// was written this cycle.
    fn next_cycle(r: &mut Router) {
        for unit in &mut r.inputs {
            unit.fresh = 0;
        }
    }

    fn waits(r: &Router, in_port: Direction, vc: usize) -> bool {
        r.waiting_at(in_port.index()) & (1 << vc) != 0
    }

    /// The output VC input VC `vc` of `in_port` is active on, if any.
    fn active_on(r: &Router, in_port: Direction, vc: usize) -> Option<(Direction, usize)> {
        let unit = &r.inputs[in_port.index()];
        (unit.active & (1 << vc) != 0).then(|| (unit.vcs[vc].route, unit.vcs[vc].out_vc))
    }

    /// Recounts the cached state through the invariant checker.
    fn assert_consistent(r: &Router) {
        let mut found = Vec::new();
        r.collect_violations(NodeId(0), 0, true, &mut found);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn new_traffic_predicate_sees_waiting_heads() {
        let mut r = router(2);
        assert!(!r.has_new_traffic(Direction::East));
        put_waiting_head(&mut r, Direction::West.index(), 0, Direction::East);
        assert!(r.has_new_traffic(Direction::East));
        assert!(!r.has_new_traffic(Direction::North));
        assert_consistent(&r);
        // Allocated VCs no longer count as new traffic.
        next_cycle(&mut r);
        va(&mut r, 1);
        assert!(!r.has_new_traffic(Direction::East));
        assert_consistent(&r);
    }

    #[test]
    fn skewed_waiting_count_is_a_vc_state_violation() {
        let mut r = router(2);
        put_waiting_head(&mut r, Direction::West.index(), 0, Direction::East);
        // A phantom waiting bit on an idle, empty VC.
        r.waiting[Direction::North.index()][Direction::South.index()] |= 1;
        let mut found = Vec::new();
        r.collect_violations(NodeId(0), 0, true, &mut found);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].kind, InvariantKind::VcStateConsistency);
        assert!(
            found[0]
                .detail
                .contains("in-S vc0 waits for out-N but buffers nothing"),
            "{}",
            found[0].detail
        );
        // The cheap level does not recount.
        found.clear();
        r.collect_violations(NodeId(0), 0, false, &mut found);
        assert!(found.is_empty());
        // A real head waiting on two ports at once is caught too, and so
        // is a VC both waiting and active.
        r.waiting[Direction::North.index()][Direction::South.index()] = 0;
        r.waiting[Direction::North.index()][Direction::West.index()] |= 1;
        r.inputs[Direction::West.index()].active |= 1;
        r.outputs[Direction::East.index()].set_active(0);
        r.collect_violations(NodeId(0), 0, true, &mut found);
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
        let mut r = router(2);
        put_waiting_head(&mut r, Direction::West.index(), 1, Direction::East);
        assert_eq!(r.buffered, 1);
        r.buffered += 1;
        let mut found = Vec::new();
        r.collect_violations(NodeId(0), 0, true, &mut found);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].kind, InvariantKind::VcStateConsistency);
        assert!(
            found[0]
                .detail
                .contains("counts 2 buffered flit(s), but its input VCs hold 1"),
            "{}",
            found[0].detail
        );
        found.clear();
        r.collect_violations(NodeId(0), 0, false, &mut found);
        assert!(found.is_empty());
        r.buffered -= 1;
        assert_eq!(
            r.pop_flit(Direction::West.index(), 1).map(|f| f.vc),
            Some(1)
        );
        assert_eq!(r.pop_flit(Direction::West.index(), 1), None);
        assert_eq!(r.buffered, 0);
        assert_eq!(r.inputs[Direction::West.index()].occupied, 0);
    }

    /// The premise of skipping empty routers in `finish_cycle`: with no
    /// buffered flit, VA and SA grant nothing and every arbiter keeps its
    /// priority, even with VCs left active mid-packet.
    #[test]
    fn an_empty_router_grants_nothing_and_keeps_its_priorities() {
        let mut r = router(2);
        put_waiting_head(&mut r, Direction::West.index(), 0, Direction::East);
        next_cycle(&mut r);
        va(&mut r, 1);
        assert_eq!(r.switch_allocation().iter().flatten().count(), 1);
        r.pop_flit(Direction::West.index(), 0);
        assert_eq!(r.buffered, 0);
        let priorities = |r: &Router| -> Vec<usize> {
            r.outputs
                .iter()
                .flat_map(|o| [o.va_arb.priority(), o.sa_arb.priority()])
                .chain(r.sa_in_arbs.iter().map(RoundRobinArbiter::priority))
                .collect()
        };
        let before = priorities(&r);
        next_cycle(&mut r);
        va(&mut r, 2);
        assert!(r.switch_allocation().iter().all(Option::is_none));
        assert_eq!(priorities(&r), before);
    }

    #[test]
    fn va_grants_free_allocatable_vc() {
        let mut r = router(2);
        put_waiting_head(&mut r, Direction::West.index(), 0, Direction::East);
        next_cycle(&mut r);
        va(&mut r, 1);
        assert_eq!(
            active_on(&r, Direction::West, 0),
            Some((Direction::East, 0))
        );
        assert!(!waits(&r, Direction::West, 0));
        assert!(r.outputs[Direction::East.index()].is_active(0));
    }

    #[test]
    fn va_waits_a_cycle_for_a_fresh_head() {
        let mut r = router(2);
        put_waiting_head(&mut r, Direction::West.index(), 0, Direction::East);
        // Written this cycle: VA must not grant yet.
        va(&mut r, 5);
        assert!(waits(&r, Direction::West, 0));
        next_cycle(&mut r);
        va(&mut r, 6);
        assert!(active_on(&r, Direction::West, 0).is_some());
    }

    #[test]
    fn va_respects_allocatable_mask() {
        let mut r = router(2);
        put_waiting_head(&mut r, Direction::West.index(), 0, Direction::East);
        next_cycle(&mut r);
        r.outputs[Direction::East.index()].allocatable = 0;
        va(&mut r, 1);
        assert!(waits(&r, Direction::West, 0));
        // Re-enable only VC 1: the head must land there.
        r.outputs[Direction::East.index()].allocatable = 0b10;
        va(&mut r, 2);
        assert_eq!(
            active_on(&r, Direction::West, 0),
            Some((Direction::East, 1))
        );
    }

    #[test]
    fn va_is_fair_across_requesters() {
        let mut r = router(2);
        // Two waiting heads from different ports racing for East.
        put_waiting_head(&mut r, Direction::West.index(), 0, Direction::East);
        put_waiting_head(&mut r, Direction::North.index(), 0, Direction::East);
        next_cycle(&mut r);
        va(&mut r, 1);
        // Both get VCs this cycle (two free out VCs under AllOn), in flat
        // index order: North (port 0) first.
        assert_eq!(
            active_on(&r, Direction::North, 0),
            Some((Direction::East, 0))
        );
        assert_eq!(
            active_on(&r, Direction::West, 0),
            Some((Direction::East, 1))
        );
        assert_consistent(&r);
    }

    /// At 32 VCs each input port's VCs fill a whole request word, so VA's
    /// rotation must carry across the word boundary between two input
    /// ports and wrap from the last word to the first.
    #[test]
    fn va_rotation_wraps_across_input_port_words_at_32_vcs() {
        let mut r = router(32);
        let east = Direction::East.index();
        let (south, west) = (Direction::South.index(), Direction::West.index());
        put_waiting_head(&mut r, south, 31, Direction::East);
        put_waiting_head(&mut r, west, 0, Direction::East);
        put_waiting_head(&mut r, west, 5, Direction::East);
        next_cycle(&mut r);
        // One allocatable VC per cycle: one grant per VA pass.
        r.outputs[east].allocatable = 1 << 7;
        r.outputs[east].va_arb.set_priority(south * 32 + 31);
        let granted = |r: &mut Router, now: u64| {
            va(r, now);
            let g = (0..NUM_PORTS)
                .flat_map(|p| (0..32).map(move |v| (p, v)))
                .find(|&(p, v)| r.inputs[p].active & (1 << v) != 0)
                .expect("one grant");
            // Release the grant so the next pass can reuse VC 7.
            r.inputs[g.0].active = 0;
            r.pop_flit(g.0, g.1);
            r.outputs[east].set_idle(7);
            g
        };
        assert_eq!(granted(&mut r, 1), (south, 31));
        assert_eq!(
            r.outputs[east].va_arb.priority(),
            (south + 1) * 32,
            "carried into the next input port's word"
        );
        assert_eq!(granted(&mut r, 2), (west, 0));
        assert_eq!(granted(&mut r, 3), (west, 5));
        // Only South vc31 is left; a new head on North vc3 sits below the
        // pointer, so it wins only after the wrap past the last word.
        put_waiting_head(&mut r, Direction::North.index(), 3, Direction::East);
        put_waiting_head(&mut r, south, 31, Direction::East);
        next_cycle(&mut r);
        assert_eq!(granted(&mut r, 4), (Direction::North.index(), 3));
        assert_eq!(granted(&mut r, 5), (south, 31));
        assert!(!r.has_new_traffic(Direction::East));
    }

    #[test]
    fn sa_moves_at_most_one_flit_per_output() {
        let mut r = router(2);
        put_waiting_head(&mut r, Direction::West.index(), 0, Direction::East);
        put_waiting_head(&mut r, Direction::North.index(), 0, Direction::East);
        next_cycle(&mut r);
        va(&mut r, 1);
        let winners = r.switch_allocation();
        let granted: Vec<SaWinner> = winners.into_iter().flatten().collect();
        assert_eq!(granted.len(), 1, "one grant per output port");
        assert_eq!(granted[0].out_port, Direction::East.index());
    }

    #[test]
    fn sa_requires_credits() {
        let mut r = router(2);
        put_waiting_head(&mut r, Direction::West.index(), 0, Direction::East);
        next_cycle(&mut r);
        va(&mut r, 1);
        r.outputs[Direction::East.index()].vcs[0].credits = 0;
        assert!(r.switch_allocation().iter().all(Option::is_none));
    }

    #[test]
    fn sa_respects_flit_readiness() {
        let mut r = router(2);
        put_waiting_head(&mut r, Direction::West.index(), 0, Direction::East);
        next_cycle(&mut r);
        va(&mut r, 1);
        // Drain the head, then deliver the body into the emptied VC: it
        // is fresh this cycle and may only win SA in the next.
        assert_eq!(r.switch_allocation().iter().flatten().count(), 1);
        r.pop_flit(Direction::West.index(), 0);
        next_cycle(&mut r);
        let mut body = split_packet(PacketId(100), NodeId(0), NodeId(1), 3, 0)[1];
        body.vc = 0;
        r.write_flit(Direction::West.index(), body, 4);
        assert!(r.switch_allocation().iter().all(Option::is_none));
        next_cycle(&mut r);
        assert_eq!(r.switch_allocation().iter().flatten().count(), 1);
    }

    #[test]
    fn distinct_outputs_proceed_in_parallel() {
        let mut r = router(2);
        put_waiting_head(&mut r, Direction::West.index(), 0, Direction::East);
        put_waiting_head(&mut r, Direction::East.index(), 0, Direction::West);
        next_cycle(&mut r);
        va(&mut r, 1);
        let winners = r.switch_allocation();
        assert_eq!(winners.iter().flatten().count(), 2);
    }
}
