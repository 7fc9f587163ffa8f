//! The 3-stage virtual-channel router.
//!
//! Pipeline (mirroring the Garnet `Router_d` the paper builds on):
//!
//! 1. **BW + RC** — an arriving flit is written into its input VC buffer;
//!    head flits are routed (dimension-ordered).
//! 2. **VA + SA** — head flits in `Waiting` VCs arbitrate for a free output
//!    VC; VCs in `Active` state with a ready flit and downstream credits
//!    arbitrate for the crossbar (separable input-first allocator).
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
use crate::unit::{InVcState, InputUnit, OutputUnit};
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
    /// Per output port, the input VCs in `Waiting` state routed to it. Only
    /// [`Router::route_head`] and the VA grant move a VC into or out of
    /// `Waiting`, and both keep this count in step.
    pub waiting: [u32; NUM_PORTS],
    /// Flits buffered in the input VCs. Only [`Router::write_flit`] and
    /// [`Router::pop_flit`] change the buffers, and both keep this count
    /// in step. A router holding none has nothing to allocate: every
    /// `Waiting` VC buffers its head, and SA only nominates buffered flits.
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
            waiting: [0; NUM_PORTS],
            buffered: 0,
        }
    }

    /// The BW stage for one flit arriving at input `in_port`.
    pub fn write_flit(&mut self, in_port: usize, flit: Flit, now: u64, depth: usize) {
        self.inputs[in_port].write_flit(flit, now, depth);
        self.buffered += 1;
    }

    /// Removes the front flit of VC `vc` of input `in_port`, if any.
    pub fn pop_flit(&mut self, in_port: usize, vc: usize) -> Option<Flit> {
        let flit = self.inputs[in_port].vcs[vc].buffer.pop_front()?;
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
        self.inputs[in_port].vcs[vc].state = InVcState::Waiting { outport };
        self.waiting[outport.index()] += 1;
    }

    /// `true` when at least one buffered head flit routed to `out_dir` has
    /// no output VC allocated yet — the paper's
    /// `is_new_traffic_outport_x()` predicate.
    pub fn has_new_traffic(&self, out_dir: Direction) -> bool {
        self.waiting[out_dir.index()] != 0
    }

    /// The VA stage: grants free, allocatable output VCs to waiting head
    /// flits. Under a gating policy at most one output VC per port is
    /// allocatable, matching the paper's single-new-VC-per-cycle property.
    ///
    /// Counts every grant into `work` and (when the sink is active) emits
    /// one [`EventKind::VaGrant`] per grant.
    pub fn vc_allocation<T: TraceSink>(
        &mut self,
        now: u64,
        depth: usize,
        node: NodeId,
        work: &mut WorkCounters,
        trace: &mut T,
    ) {
        let num_vcs = self.num_vcs();
        let inputs = &mut self.inputs;
        let waiting = &mut self.waiting;
        for (out_idx, out) in self.outputs.iter_mut().enumerate() {
            if !out.connected {
                continue;
            }
            let out_dir = Direction::from_index(out_idx);
            // With no waiting head the arbiter could grant nothing: skip it.
            while waiting[out_idx] != 0 {
                let Some(ovc) = out.free_vc(now) else { break };
                let inputs_ref = &*inputs;
                let grant = out.va_arb.grant(|g| {
                    let ivc = &inputs_ref[g / num_vcs].vcs[g % num_vcs];
                    ivc.va_ready_at <= now
                        && matches!(ivc.state, InVcState::Waiting { outport } if outport == out_dir)
                });
                let Some(g) = grant else { break };
                let (p, v) = (g / num_vcs, g % num_vcs);
                let ivc = &mut inputs[p].vcs[v];
                let InVcState::Waiting { outport } = ivc.state else {
                    unreachable!("VA granted a non-waiting VC");
                };
                ivc.state = InVcState::Active {
                    outport,
                    out_vc: ovc,
                };
                waiting[out_idx] -= 1;
                debug_assert_eq!(
                    out.vcs[ovc].credits, depth,
                    "an idle out VC must hold all its credits"
                );
                out.set_active(ovc);
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
    }

    /// The SA stage: a separable, input-first allocator. Returns the
    /// winner (if any) per output port — a fixed array so the per-cycle
    /// SA stage never allocates.
    #[allow(clippy::needless_range_loop)] // `p` indexes three parallel arrays
    pub fn switch_allocation(&mut self, now: u64) -> [Option<SaWinner>; NUM_PORTS] {
        // Input phase: each input port nominates one ready VC.
        let mut nominees: [Option<SaWinner>; NUM_PORTS] = [None; NUM_PORTS];
        for p in 0..NUM_PORTS {
            let unit = &self.inputs[p];
            let outputs = &self.outputs;
            let got = self.sa_in_arbs[p].grant(|v| {
                let ivc = &unit.vcs[v];
                let InVcState::Active { outport, out_vc } = ivc.state else {
                    return false;
                };
                match ivc.buffer.front() {
                    Some(front) => {
                        front.ready_at <= now && outputs[outport.index()].vcs[out_vc].credits > 0
                    }
                    None => false,
                }
            });
            if let Some(v) = got {
                let InVcState::Active { outport, out_vc } = unit.vcs[v].state else {
                    unreachable!();
                };
                nominees[p] = Some(SaWinner {
                    in_port: p,
                    vc: v,
                    out_port: outport.index(),
                    out_vc,
                });
            }
        }
        // Output phase: each output port admits one nominee.
        let mut winners: [Option<SaWinner>; NUM_PORTS] = [None; NUM_PORTS];
        for out_idx in 0..NUM_PORTS {
            let nominees_ref = &nominees;
            let got = self.outputs[out_idx]
                .sa_arb
                .grant(|p| matches!(nominees_ref[p], Some(w) if w.out_port == out_idx));
            if let Some(p) = got {
                // The grant closure only admits ports whose nominee is Some.
                winners[out_idx] = nominees[p];
            }
        }
        winners
    }

    /// Appends every invariant violation visible from this router's local
    /// state to `out`: gating safety always; VC state-machine consistency,
    /// including a recount of the cached `Waiting` counts and stray mask
    /// bits, when `full`.
    pub fn collect_violations(
        &self,
        node: NodeId,
        cycle: u64,
        full: bool,
        out: &mut Vec<InvariantViolation>,
    ) {
        let mut waiting = [0u32; NUM_PORTS];
        for (p, unit) in self.inputs.iter().enumerate() {
            let dir = Direction::from_index(p);
            // lint:allow(alloc-in-hot-path) diagnostic pass: only runs with invariants enabled
            unit.collect_gating_violations(cycle, &format!("router {node} in-{dir}"), out);
            if !full {
                continue;
            }
            unit.collect_mask_violations(cycle, &format_args!("router {node} in-{dir}"), out);
            self.outputs[p].collect_mask_violations(
                cycle,
                &format_args!("router {node} out-{dir}"),
                out,
            );
            for (v, vc) in unit.vcs.iter().enumerate() {
                if let InVcState::Waiting { outport } = vc.state {
                    waiting[outport.index()] += 1;
                }
                if let InVcState::Active { outport, out_vc } = vc.state {
                    if !self.outputs[outport.index()].is_active(out_vc) {
                        // lint:allow(alloc-in-hot-path) cold branch: only runs on a violation
                        out.push(InvariantViolation {
                            cycle,
                            kind: InvariantKind::VcStateConsistency,
                            // lint:allow(alloc-in-hot-path) cold branch: only runs on a violation
                            detail: format!(
                                "router {node} in-{dir} vc{v} is active on out-{outport} \
                                 vc{out_vc}, which is idle"
                            ),
                        });
                    }
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
        for (p, (&cached, &recount)) in self.waiting.iter().zip(&waiting).enumerate() {
            if cached != recount {
                // lint:allow(alloc-in-hot-path) cold branch: only runs on a violation
                out.push(InvariantViolation {
                    cycle,
                    kind: InvariantKind::VcStateConsistency,
                    // lint:allow(alloc-in-hot-path) cold branch: only runs on a violation
                    detail: format!(
                        "router {node} out-{} counts {cached} waiting head(s), \
                         but {recount} input VC(s) wait for it",
                        Direction::from_index(p)
                    ),
                });
            }
        }
    }

    /// Total flits buffered across all input units.
    pub fn buffered_flits(&self) -> usize {
        self.inputs.iter().map(super::unit::InputUnit::buffered_flits).sum()
    }

    /// Total flits in flight on incoming links.
    pub fn in_flight_flits(&self) -> usize {
        self.inputs.iter().map(super::unit::InputUnit::in_flight_flits).sum()
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

    fn put_waiting_head(r: &mut Router, in_port: usize, vc: usize, outport: Direction, now: u64) {
        let mut f = split_packet(PacketId(vc as u64 + 100), NodeId(0), NodeId(1), 3, 0)[0];
        f.vc = vc;
        r.write_flit(in_port, f, now, 4);
        r.route_head(in_port, vc, outport);
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
        put_waiting_head(&mut r, Direction::West.index(), 0, Direction::East, 0);
        assert!(r.has_new_traffic(Direction::East));
        assert!(!r.has_new_traffic(Direction::North));
        assert_consistent(&r);
        // Allocated VCs no longer count as new traffic.
        va(&mut r, 1);
        assert!(!r.has_new_traffic(Direction::East));
        assert_consistent(&r);
    }

    #[test]
    fn skewed_waiting_count_is_a_vc_state_violation() {
        let mut r = router(2);
        put_waiting_head(&mut r, Direction::West.index(), 0, Direction::East, 0);
        r.waiting[Direction::North.index()] += 1;
        let mut found = Vec::new();
        r.collect_violations(NodeId(0), 0, true, &mut found);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].kind, InvariantKind::VcStateConsistency);
        assert!(
            found[0].detail.contains("out-N counts 1 waiting"),
            "{}",
            found[0].detail
        );
        // The cheap level does not recount.
        found.clear();
        r.collect_violations(NodeId(0), 0, false, &mut found);
        assert!(found.is_empty());
    }

    #[test]
    fn skewed_flit_count_is_a_vc_state_violation() {
        let mut r = router(2);
        put_waiting_head(&mut r, Direction::West.index(), 1, Direction::East, 0);
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
    }

    /// The premise of skipping empty routers in `finish_cycle`: with no
    /// buffered flit, VA and SA grant nothing and every arbiter keeps its
    /// priority, even with VCs left `Active` mid-packet.
    #[test]
    fn an_empty_router_grants_nothing_and_keeps_its_priorities() {
        let mut r = router(2);
        put_waiting_head(&mut r, Direction::West.index(), 0, Direction::East, 0);
        va(&mut r, 1);
        assert_eq!(r.switch_allocation(1).iter().flatten().count(), 1);
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
        va(&mut r, 2);
        assert!(r.switch_allocation(2).iter().all(Option::is_none));
        assert_eq!(priorities(&r), before);
    }

    #[test]
    fn va_grants_free_allocatable_vc() {
        let mut r = router(2);
        put_waiting_head(&mut r, Direction::West.index(), 0, Direction::East, 0);
        va(&mut r, 1);
        let st = r.inputs[Direction::West.index()].vcs[0].state;
        assert!(matches!(
            st,
            InVcState::Active {
                outport: Direction::East,
                out_vc: 0
            }
        ));
        assert!(r.outputs[Direction::East.index()].is_active(0));
    }

    #[test]
    fn va_respects_va_ready_cycle() {
        let mut r = router(2);
        put_waiting_head(&mut r, Direction::West.index(), 0, Direction::East, 5);
        // va_ready_at is 6; VA at cycle 5 must not grant.
        va(&mut r, 5);
        assert!(matches!(
            r.inputs[Direction::West.index()].vcs[0].state,
            InVcState::Waiting { .. }
        ));
        va(&mut r, 6);
        assert!(matches!(
            r.inputs[Direction::West.index()].vcs[0].state,
            InVcState::Active { .. }
        ));
    }

    #[test]
    fn va_respects_allocatable_mask() {
        let mut r = router(2);
        put_waiting_head(&mut r, Direction::West.index(), 0, Direction::East, 0);
        r.outputs[Direction::East.index()].allocatable = 0;
        va(&mut r, 1);
        assert!(matches!(
            r.inputs[Direction::West.index()].vcs[0].state,
            InVcState::Waiting { .. }
        ));
        // Re-enable only VC 1: the head must land there.
        r.outputs[Direction::East.index()].allocatable = 0b10;
        va(&mut r, 2);
        assert!(matches!(
            r.inputs[Direction::West.index()].vcs[0].state,
            InVcState::Active { out_vc: 1, .. }
        ));
    }

    #[test]
    fn va_is_fair_across_requesters() {
        let mut r = router(2);
        // Two waiting heads from different ports racing for East.
        put_waiting_head(&mut r, Direction::West.index(), 0, Direction::East, 0);
        put_waiting_head(&mut r, Direction::North.index(), 0, Direction::East, 0);
        va(&mut r, 1);
        // Both get VCs this cycle (two free out VCs under AllOn).
        assert!(matches!(
            r.inputs[Direction::North.index()].vcs[0].state,
            InVcState::Active { .. }
        ));
        assert!(matches!(
            r.inputs[Direction::West.index()].vcs[0].state,
            InVcState::Active { .. }
        ));
        assert_consistent(&r);
    }

    #[test]
    fn sa_moves_at_most_one_flit_per_output() {
        let mut r = router(2);
        put_waiting_head(&mut r, Direction::West.index(), 0, Direction::East, 0);
        put_waiting_head(&mut r, Direction::North.index(), 0, Direction::East, 0);
        va(&mut r, 1);
        let winners = r.switch_allocation(1);
        let granted: Vec<SaWinner> = winners.into_iter().flatten().collect();
        assert_eq!(granted.len(), 1, "one grant per output port");
        assert_eq!(granted[0].out_port, Direction::East.index());
    }

    #[test]
    fn sa_requires_credits() {
        let mut r = router(2);
        put_waiting_head(&mut r, Direction::West.index(), 0, Direction::East, 0);
        va(&mut r, 1);
        r.outputs[Direction::East.index()].vcs[0].credits = 0;
        assert!(r.switch_allocation(1).iter().all(Option::is_none));
    }

    #[test]
    fn sa_respects_flit_readiness() {
        let mut r = router(2);
        put_waiting_head(&mut r, Direction::West.index(), 0, Direction::East, 10);
        va(&mut r, 11);
        // Flit ready_at = 11; SA at 10 would be too early (cannot happen in
        // practice, but the guard must hold).
        assert!(r.switch_allocation(10).iter().all(Option::is_none));
        assert_eq!(r.switch_allocation(11).iter().flatten().count(), 1);
    }

    #[test]
    fn distinct_outputs_proceed_in_parallel() {
        let mut r = router(2);
        put_waiting_head(&mut r, Direction::West.index(), 0, Direction::East, 0);
        put_waiting_head(&mut r, Direction::East.index(), 0, Direction::West, 0);
        va(&mut r, 1);
        let winners = r.switch_allocation(1);
        assert_eq!(winners.iter().flatten().count(), 2);
    }
}
