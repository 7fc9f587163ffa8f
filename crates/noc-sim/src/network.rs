//! The whole-network simulation engine.
//!
//! [`Network`] owns every router and NIC of the mesh and advances them in
//! lock-step cycles. A cycle has two halves so that a gating controller can
//! sit in the middle, exactly where the paper's pre-VA stage sits:
//!
//! 1. [`Network::begin_cycle`] — credits and flits arriving this cycle are
//!    absorbed (the BW + RC stage).
//! 2. *controller slot* — the caller may inspect [`Network::port_view`] for
//!    any port and issue [`Network::apply_gate`] commands (the `Up_Down`
//!    link payloads).
//! 3. [`Network::finish_cycle`] — VC allocation, switch allocation, switch
//!    and link traversal, NIC injection/ejection; the cycle counter then
//!    advances.
//!
//! [`Network::step`] performs both halves with no gating changes (the
//! NBTI-unaware baseline).
//!
//! Every buffer port is a *port slot* (its index in
//! [`Network::port_ids`]): one link, seen from the agent that allocates its
//! VCs and from the buffers it feeds. The VC state of all slots lives in
//! one arena of flat arrays (`unit.rs`); routers and NICs address it by
//! slot.
//!
//! A cycle costs in proportion to the traffic, not to the fabric. Three
//! records, each kept by the code that changes what it tracks, tell the
//! cycle where the work is:
//!
//! - the *due schedule*: the flits and credits in flight, each with the
//!   slot and cycle it is due at, so `begin_cycle` touches only the links
//!   and credit returns with something arriving;
//! - the *busy routers* and *active NICs*: the routers holding a flit and
//!   the NICs whose step could make progress, so `finish_cycle` allocates,
//!   traverses and runs NICs only there. A busy router whose allocation
//!   granted nothing is *stalled* and is skipped until a credit that frees
//!   or refills one of its output VCs, a gate command on one of its
//!   outputs or the end of a flit's first cycle reaches it. A NIC with a
//!   packet but no VC or credit for it, and nothing to eject, is *parked*
//!   the same way until such a credit, a gate command on its injection
//!   slot, a new packet or a delivery to its ejection side reaches it;
//! - the *marked ports*: the port slots whose [`PortKey`] may have changed
//!   since a controller last took the marks
//!   ([`Network::take_marked_ports`]), so a controller re-reads only those.

use crate::config::{InvalidConfigError, NocConfig};
use crate::flit::{Flit, Packet, PacketId, PacketTable};
use crate::invariants::{
    InvariantKind, InvariantLevel, InvariantViolation, MAX_RECORDED_VIOLATIONS,
};
use crate::nic::Nic;
use crate::router::{Router, SaWinner, NO_SLOT, NUM_PORTS};
use crate::snapshot::{NetworkSnapshot, PortState, SnapshotStateError};
use crate::stats::NetStats;
use crate::topology::Mesh2D;
use crate::types::{Direction, NodeId};
use crate::unit::{all_vcs, Arena, Credit};
use crate::view::{GateAction, PortId, PortKey, PortView, VcStatus};
use noc_telemetry::{
    EventKind, NullProfiler, NullSink, Profiler, Stage, TraceEvent, TraceSink, WorkCounters,
};
use std::collections::VecDeque;

/// Where a cycle currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Between cycles: `begin_cycle` is next.
    Idle,
    /// Mid-cycle: views are fresh, gating commands may be applied,
    /// `finish_cycle` is next.
    Mid,
}

/// The port index of a slot end at a NIC: its injection side upstream, its
/// ejection side downstream.
const NIC_SIDE: u8 = NUM_PORTS as u8;

/// The two ends of a port slot, resolved once at construction: the node
/// and router output port (or [`NIC_SIDE`]) whose agent allocates the
/// slot's VCs, and the node and router input port (or [`NIC_SIDE`]) whose
/// buffers it feeds.
#[derive(Debug, Clone, Copy)]
struct SlotEnds {
    up_node: u32,
    up_port: u8,
    down_node: u32,
    down_port: u8,
}

/// The local port, where a router meets its NIC.
const LOCAL: usize = Direction::Local.index();

/// A flit on its link, due at the slot whose buffers it enters.
#[derive(Debug, Clone, Copy)]
struct Hop {
    slot: u32,
    flit: Flit,
}

/// The due schedule: every flit and credit in flight, with the cycle it is
/// due, in the order it was sent. Each queue holds one kind of trip, and
/// every trip of a kind takes the same number of cycles, so each queue is
/// already sorted by due cycle: `begin_cycle` pops its fronts until the
/// next entry lies in the future. A link is serial, so the entries of one
/// slot are that link's FIFO.
#[derive(Debug, Clone, Default)]
pub(crate) struct DueSchedule {
    /// Flits that won SA, due `1 + link_latency` cycles later.
    hops: VecDeque<(u64, Hop)>,
    /// Flits a NIC streamed, due `link_latency` cycles later at its
    /// router's local input slot.
    injections: VecDeque<(u64, Hop)>,
    /// Credits, due `credit_latency` cycles later at the upstream agent of
    /// their slot.
    credits: VecDeque<(u64, Credit)>,
}

impl DueSchedule {
    fn is_empty(&self) -> bool {
        self.hops.is_empty() && self.injections.is_empty() && self.credits.is_empty()
    }

    /// The flits in flight into `slot`, in FIFO order.
    pub(crate) fn flits_into(&self, slot: usize) -> impl Iterator<Item = (u64, Flit)> + '_ {
        self.hops
            .iter()
            .chain(&self.injections)
            .filter(move |(_, hop)| hop.slot as usize == slot)
            .map(|&(when, hop)| (when, hop.flit))
    }

    /// The credits in flight back to the upstream agent of `slot`, in FIFO
    /// order.
    pub(crate) fn credits_to(&self, slot: usize) -> impl Iterator<Item = (u64, Credit)> + '_ {
        self.credits
            .iter()
            .filter(move |(_, c)| c.slot as usize == slot)
            .copied()
    }
}

/// Pops the front of a time-ordered queue if it is due by `now`.
#[inline]
fn pop_due<T: Copy>(queue: &mut VecDeque<(u64, T)>, now: u64) -> Option<T> {
    match queue.front() {
        Some(&(when, item)) if when <= now => {
            queue.pop_front();
            Some(item)
        }
        _ => None,
    }
}

/// Sets bit `i` of a bit set kept as `u64` words.
#[inline]
fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

/// Clears bit `i` of a bit set kept as `u64` words.
#[inline]
fn clear_bit(words: &mut [u64], i: usize) {
    words[i / 64] &= !(1 << (i % 64));
}

/// Whether bit `i` of a bit set kept as `u64` words is set.
#[inline]
fn bit_is_set(words: &[u64], i: usize) -> bool {
    words[i / 64] & (1 << (i % 64)) != 0
}

/// An empty bit set with room for `n` bits.
fn bit_set(n: usize) -> Vec<u64> {
    vec![0; n.div_ceil(64)]
}

/// A head flit written this cycle, waiting for route computation.
#[derive(Debug, Clone, Copy)]
struct PendingRoute {
    router: usize,
    port: usize,
    vc: usize,
    dst: NodeId,
}

/// A simulated mesh NoC.
///
/// ```
/// use noc_sim::prelude::*;
///
/// let mut net = Network::new(NocConfig::paper_synthetic(4, 2))?;
/// net.inject_packet(NodeId(0), NodeId(3));
/// for _ in 0..100 { net.step(); }
/// assert_eq!(net.stats().packets_ejected, 1);
/// # Ok::<(), noc_sim::config::InvalidConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Network<T: TraceSink = NullSink> {
    cfg: NocConfig,
    mesh: Mesh2D,
    pub(crate) routers: Vec<Router>,
    pub(crate) nics: Vec<Nic>,
    /// The VC state of every port slot.
    pub(crate) arena: Arena,
    /// The packets in flight, indexed by [`Flit::packet`].
    pub(crate) packets: PacketTable,
    cycle: u64,
    pub(crate) phase: Phase,
    stats: NetStats,
    next_packet: u64,
    port_ids: Vec<PortId>,
    /// The port slot table: [`PortId::dense_key`] → slot, or [`NO_SLOT`]
    /// for a boundary port.
    slot_of: Vec<u32>,
    /// Per slot, its two ends.
    ends: Vec<SlotEnds>,
    /// Flits and credits in flight, by due cycle.
    pub(crate) due: DueSchedule,
    /// The slots whose links delivered flits in the last `begin_cycle`:
    /// the only slots that may hold a `fresh` bit.
    delivered: Vec<u32>,
    /// Heads written this cycle, routed once every due flit is written.
    heads: Vec<PendingRoute>,
    /// Routers holding at least one buffered flit (bit per router).
    busy_routers: Vec<u64>,
    /// Busy routers whose last VA and SA granted nothing and that nothing
    /// has reached since (bit per router): a new pass would grant nothing
    /// either.
    stalled_routers: Vec<u64>,
    /// This cycle's SA winners, `(router, winner)`, traversed once every
    /// busy router has allocated.
    winners: Vec<(usize, SaWinner)>,
    /// NICs whose step could make progress ([`Nic::could_progress`]), plus
    /// any an input reached since their last step (bit per node). A NIC
    /// with a packet that is in neither is parked.
    active_nics: Vec<u64>,
    /// Port slots whose key may have changed since the marks were last
    /// taken (bit per slot).
    marked: Vec<u64>,
    invariants: InvariantLevel,
    violations: Vec<InvariantViolation>,
    /// Lifetime flit counters for the conservation invariant; unlike the
    /// [`NetStats`] counters these survive [`Network::reset_stats`], so the
    /// conservation equation stays exact across the warm-up boundary.
    flits_sent_total: u64,
    flits_ejected_total: u64,
    /// The telemetry sink. With the default [`NullSink`] every emission
    /// site compiles to nothing (`T::ACTIVE` is a `const`).
    trace: T,
    /// Deterministic per-stage work counters (always maintained; plain
    /// integer increments).
    work: WorkCounters,
    /// Scratch reused by the per-cycle ejection drain so the steady state
    /// never allocates (it keeps its capacity).
    eject_done: Vec<Packet>,
}

impl Network {
    /// Builds a network from a validated configuration, with tracing
    /// compiled out (the [`NullSink`]).
    ///
    /// # Errors
    ///
    /// Returns the configuration's validation error, if any.
    pub fn new(cfg: NocConfig) -> Result<Self, InvalidConfigError> {
        Network::with_sink(cfg, NullSink)
    }
}

impl<T: TraceSink> Network<T> {
    /// Builds a network emitting trace events into `sink`.
    ///
    /// # Errors
    ///
    /// Returns the configuration's validation error, if any.
    pub fn with_sink(cfg: NocConfig, sink: T) -> Result<Self, InvalidConfigError> {
        cfg.validate()?;
        let mesh = Mesh2D::new(cfg.cols, cfg.rows);
        let nodes = mesh.num_nodes();
        let mut routers = vec![Router::new(cfg.vcs_per_port); nodes];
        let (mut port_ids, mut ends) = (Vec::new(), Vec::new());
        let mut slot_of = vec![NO_SLOT; nodes * PortId::KINDS_PER_NODE];
        let mut add = |port: PortId, up: (usize, usize), down: (usize, usize)| {
            let ((up_node, up_port), (down_node, down_port)) = (up, down);
            let slot = port_ids.len() as u32;
            slot_of[port.dense_key()] = slot;
            port_ids.push(port);
            // A NIC side (`NIC_SIDE`, one past the last port) is no router port.
            if let Some(s) = routers[up_node].out_slot.get_mut(up_port) {
                *s = slot;
            }
            if down_port < NUM_PORTS {
                routers[down_node].link_input(down_port, slot);
            }
            ends.push(SlotEnds {
                up_node: up_node as u32,
                up_port: up_port as u8,
                down_node: down_node as u32,
                down_port: down_port as u8,
            });
        };
        let nic = usize::from(NIC_SIDE);
        for node in 0..nodes {
            for d in Direction::MESH {
                // The link into `node`'s `d` input leaves the neighbour on
                // that side through its opposite port.
                if let Some(up) = mesh.neighbor(NodeId(node), d) {
                    let port = PortId::router_input(NodeId(node), d);
                    add(port, (up.index(), d.opposite().index()), (node, d.index()));
                }
            }
            let local = PortId::router_input(NodeId(node), Direction::Local);
            add(local, (node, nic), (node, LOCAL));
            add(PortId::nic_eject(NodeId(node)), (node, LOCAL), (node, nic));
        }
        let nics: Vec<Nic> = routers
            .iter()
            .enumerate()
            .map(|(n, r)| {
                Nic::new(
                    NodeId(n),
                    r.in_slot[LOCAL] as usize,
                    r.out_slot[LOCAL] as usize,
                )
            })
            .collect();
        let num_slots = port_ids.len();
        Ok(Network {
            arena: Arena::new(num_slots, cfg.vcs_per_port, cfg.buffer_depth),
            cfg,
            mesh,
            routers,
            nics,
            packets: PacketTable::default(),
            cycle: 0,
            phase: Phase::Idle,
            stats: NetStats::default(),
            next_packet: 0,
            port_ids,
            slot_of,
            ends,
            due: DueSchedule::default(),
            delivered: Vec::new(),
            heads: Vec::new(),
            busy_routers: bit_set(nodes),
            stalled_routers: bit_set(nodes),
            winners: Vec::new(),
            active_nics: bit_set(nodes),
            marked: bit_set(num_slots),
            invariants: InvariantLevel::Off,
            violations: Vec::new(),
            flits_sent_total: 0,
            flits_ejected_total: 0,
            trace: sink,
            work: WorkCounters::default(),
            eject_done: Vec::new(),
        })
    }

    /// The configuration the network was built from.
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// Mutable access to the trace sink (e.g. to harvest a recorded log
    /// after a run).
    pub fn trace_mut(&mut self) -> &mut T {
        &mut self.trace
    }

    /// The deterministic work counters accumulated so far.
    pub fn work_counters(&self) -> WorkCounters {
        self.work
    }

    /// The mesh the network was built on.
    pub fn topology(&self) -> &Mesh2D {
        &self.mesh
    }

    /// The current cycle number.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// `true` between cycles (the [`Network::begin_cycle`] /
    /// [`Network::finish_cycle`] decomposition is at its outer boundary).
    /// The state-space explorer ([`crate::explore`]) only encodes states at
    /// this boundary, so every explored state is a whole-cycle state.
    pub fn at_cycle_boundary(&self) -> bool {
        self.phase == Phase::Idle
    }

    /// Accumulated performance statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Resets the performance statistics (e.g. after warm-up). In-flight
    /// traffic is unaffected, so conservation counters (`packets_injected`
    /// vs `packets_ejected`) restart from zero together.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Queues a packet of the configured default length for injection.
    pub fn inject_packet(&mut self, src: NodeId, dst: NodeId) -> PacketId {
        self.inject_packet_with_len(src, dst, self.cfg.flits_per_packet)
    }

    /// Queues a packet of `len` flits for injection at `src`.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range or `len` is zero.
    pub fn inject_packet_with_len(&mut self, src: NodeId, dst: NodeId, len: usize) -> PacketId {
        assert!(src.index() < self.nics.len(), "src {src} out of range");
        assert!(dst.index() < self.nics.len(), "dst {dst} out of range");
        assert!(len > 0, "packets have at least one flit");
        let id = PacketId(self.next_packet);
        self.next_packet += 1;
        let nic = &mut self.nics[src.index()];
        nic.queue.push_back(Packet {
            id,
            dst,
            len,
            injected_at: self.cycle,
        });
        // The local port now sees new traffic, and the NIC has work.
        self.arena.masks[nic.inject].new_traffic = true;
        set_bit(&mut self.marked, nic.inject);
        set_bit(&mut self.active_nics, src.index());
        self.stats.packets_injected += 1;
        id
    }

    /// All gateable buffer ports of the network, in deterministic order.
    /// Mesh-boundary router ports with no upstream link are excluded (they
    /// never hold traffic and are kept permanently gated).
    pub fn port_ids(&self) -> &[PortId] {
        &self.port_ids
    }

    /// The slot of `port`: its index into [`port_ids`](Self::port_ids),
    /// which the `*_at` forms of the per-port calls take. A per-cycle loop
    /// over `port_ids()` already holds every slot and never looks one up.
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range or the port has no upstream link.
    fn slot(&self, port: PortId) -> usize {
        assert!(
            port.node.index() < self.routers.len(),
            "port {port} out of range"
        );
        match self.slot_of[port.dense_key()] {
            NO_SLOT => panic!("port {port} has no upstream link"),
            slot => slot as usize,
        }
    }

    /// A snapshot of one buffer port: per-VC status as seen through the
    /// upstream output VC state, plus the new-traffic predicate. This is
    /// exactly the input of the paper's Algorithms 1 and 2.
    ///
    /// # Panics
    ///
    /// Panics if `port` does not exist (e.g. a boundary port).
    pub fn port_view(&self, port: PortId) -> PortView {
        let mut view = PortView {
            port,
            // lint:allow(alloc-in-hot-path) convenience wrapper; per-cycle callers use fill_port_view
            vc_status: Vec::new(),
            new_traffic: false,
        };
        self.fill_port_view(port, &mut view);
        view
    }

    /// Fills `view` in place with the snapshot [`port_view`](Self::port_view)
    /// would return, reusing `view.vc_status`'s capacity. Per-cycle policy
    /// loops call this with a caller-owned scratch view so the steady state
    /// never allocates.
    ///
    /// # Panics
    ///
    /// Panics if `port` does not exist (e.g. a boundary port).
    pub fn fill_port_view(&self, port: PortId, view: &mut PortView) {
        self.fill_port_view_at(self.slot(port), view);
    }

    /// [`fill_port_view`](Self::fill_port_view) for the port at index `slot` of
    /// [`port_ids`](Self::port_ids).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn fill_port_view_at(&self, slot: usize, view: &mut PortView) {
        view.port = self.port_ids[slot];
        view.new_traffic = self.arena.masks[slot].new_traffic;
        self.statuses_of(slot, &mut view.vc_status);
    }

    /// The three words [`fill_port_view`](Self::fill_port_view) builds the
    /// view from. Equal keys give equal views, and only
    /// [`apply_gate`](Self::apply_gate) writes the `powered` mask, so a
    /// controller can tell from two keys whether a gate command changed
    /// anything.
    ///
    /// # Panics
    ///
    /// Panics if `port` does not exist (e.g. a boundary port).
    pub fn port_key(&self, port: PortId) -> PortKey {
        self.port_key_at(self.slot(port))
    }

    /// [`port_key`](Self::port_key) for the port at index `slot` of
    /// [`port_ids`](Self::port_ids).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[inline]
    pub fn port_key_at(&self, slot: usize) -> PortKey {
        let m = self.arena.masks[slot];
        PortKey {
            active: m.out_active,
            powered: m.powered,
            new_traffic: m.new_traffic,
        }
    }

    /// Per-VC statuses of a buffer port, without the new-traffic predicate
    /// of [`port_view`](Self::port_view). Used for per-cycle NBTI stress
    /// accounting: a VC is under stress exactly when its status
    /// [is stressed](VcStatus::is_stressed).
    ///
    /// # Panics
    ///
    /// Panics if `port` does not exist (e.g. a boundary port).
    pub fn vc_statuses(&self, port: PortId) -> Vec<VcStatus> {
        // lint:allow(alloc-in-hot-path) convenience wrapper; per-cycle callers use vc_statuses_into
        let mut out = Vec::new();
        self.vc_statuses_into(port, &mut out);
        out
    }

    /// Fills `out` with the statuses [`vc_statuses`](Self::vc_statuses)
    /// would return (clearing it first), reusing its capacity so per-cycle
    /// stress accounting never allocates.
    ///
    /// # Panics
    ///
    /// Panics if `port` does not exist (e.g. a boundary port).
    pub fn vc_statuses_into(&self, port: PortId, out: &mut Vec<VcStatus>) {
        self.statuses_of(self.slot(port), out);
    }

    /// Fills `out` with the per-VC statuses of the port at `slot`, read off
    /// the upstream `active` mask and the downstream power mask.
    fn statuses_of(&self, slot: usize, out: &mut Vec<VcStatus>) {
        out.clear();
        let m = self.arena.masks[slot];
        for v in 0..self.cfg.vcs_per_port {
            let bit = 1 << v;
            let status = if m.out_active & bit != 0 {
                VcStatus::Busy
            } else if m.powered & bit != 0 {
                VcStatus::IdleOn
            } else {
                VcStatus::Off
            };
            // lint:allow(alloc-in-hot-path) amortized: scratch keeps its capacity
            out.push(status);
        }
    }

    /// Applies a gating decision to one buffer port: downstream power
    /// states and upstream allocation eligibility are updated together.
    ///
    /// Busy VCs are never gated. Must be called mid-cycle (between
    /// [`begin_cycle`](Self::begin_cycle) and
    /// [`finish_cycle`](Self::finish_cycle)) so the decision takes effect
    /// for this cycle's VC allocation.
    ///
    /// # Panics
    ///
    /// Panics if called outside the mid-cycle window, if the port does not
    /// exist, or if a `KeepOneIdle` VC index is out of range.
    pub fn apply_gate(&mut self, port: PortId, action: GateAction) {
        // `NoChange` touches no port, so it never looked one up.
        let slot = match action {
            GateAction::NoChange => 0,
            _ => self.slot(port),
        };
        self.apply_gate_at(slot, action);
    }

    /// [`apply_gate`](Self::apply_gate) for the port at index `slot` of
    /// [`port_ids`](Self::port_ids).
    ///
    /// # Panics
    ///
    /// As [`apply_gate`](Self::apply_gate), or if `slot` is out of range.
    pub fn apply_gate_at(&mut self, slot: usize, action: GateAction) {
        assert_eq!(
            self.phase,
            Phase::Mid,
            "apply_gate must run between begin_cycle and finish_cycle"
        );
        let num_vcs = self.cfg.vcs_per_port;
        let Some(mask) = action.kept_idle_mask(num_vcs) else {
            return; // NoChange
        };
        if let GateAction::KeepOneIdle { vc } = action {
            assert!(vc < num_vcs, "designated VC {vc} out of range");
        }
        assert!(
            mask & !all_vcs(num_vcs) == 0,
            "designation mask {mask:#b} names VCs beyond {num_vcs}"
        );
        let port = self.port_ids[slot];
        self.work.gate_commands += 1;
        let m = &mut self.arena.masks[slot];
        // Upstream allocation eligibility. The previous designation mask is
        // the old eligibility mask, so the `Up_Down` payload is only traced
        // when it actually changes.
        let prev_mask = std::mem::replace(&mut m.allocatable, mask);
        let idle = !m.out_active & all_vcs(num_vcs);
        // Downstream power, derived from the same out VC states the policy
        // saw: only idle VCs are ever gated, busy ones keep their power.
        let was = m.powered;
        let now_on = (was & !idle) | (mask & idle);
        debug_assert_eq!(
            !idle & all_vcs(num_vcs) & !now_on,
            0,
            "busy VC must be powered"
        );
        m.powered = now_on;
        let (turned_on, turned_off) = (now_on & !was, was & !now_on);
        self.arena.gate_transitions[slot] += u64::from((turned_on | turned_off).count_ones());
        if T::ACTIVE && prev_mask != mask {
            self.trace.emit(TraceEvent {
                cycle: self.cycle,
                kind: EventKind::UpDown {
                    port: port.into(),
                    enable: mask != 0,
                    mask,
                },
            });
        }
        // A changed power mask is a changed key: the controller must look
        // at the port again next cycle.
        if turned_on | turned_off != 0 {
            set_bit(&mut self.marked, slot);
        }
        // New allocation eligibility or wake-up deadlines: the upstream
        // router's VA or NIC may now grant.
        if prev_mask != mask || turned_on != 0 {
            self.wake_upstream(slot);
        }
        if T::ACTIVE {
            let mut changed = turned_on | turned_off;
            while changed != 0 {
                let v = changed.trailing_zeros();
                changed &= changed - 1;
                let kind = if turned_on & (1 << v) != 0 {
                    EventKind::GateOn {
                        port: port.into(),
                        vc: v as u8,
                    }
                } else {
                    EventKind::GateOff {
                        port: port.into(),
                        vc: v as u8,
                    }
                };
                self.trace.emit(TraceEvent {
                    cycle: self.cycle,
                    kind,
                });
            }
        }
        // Sleep-transistor wake-up penalty: a freshly powered VC becomes
        // allocatable only after `wakeup_latency` cycles.
        if self.cfg.wakeup_latency > 0 && turned_on != 0 {
            let usable_at = self.cycle + self.cfg.wakeup_latency;
            let mut woken = turned_on;
            while woken != 0 {
                let i = self.arena.vc_index(slot, woken.trailing_zeros() as usize);
                self.arena.usable_at[i] = usable_at;
                woken &= woken - 1;
            }
        }
    }

    /// Counts `n` gate commands that were not re-applied because the
    /// caller knows each would be a no-op: the same action on a port whose
    /// key is unchanged since that action last left it unchanged. Keeps
    /// [`WorkCounters::gate_commands`] equal to a run that re-applies
    /// every command.
    pub fn count_reused_gate_commands(&mut self, n: u64) {
        self.work.gate_commands += n;
    }

    /// Marks the port at index `slot` of [`port_ids`](Self::port_ids) for
    /// a controller's next [`take_marked_ports`](Self::take_marked_ports).
    /// The network marks a port itself whenever it writes the port's
    /// [`PortKey`]: a VA grant or a NIC VC allocation, a free credit,
    /// routing a head to the port, a NIC queue push, and an
    /// [`apply_gate`](Self::apply_gate) that changes the power mask. A
    /// controller marks a port when one of its own inputs changes (a new
    /// most-degraded VC, a policy rotation).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn mark_port_at(&mut self, slot: usize) {
        assert!(slot < self.port_ids.len(), "port slot {slot} out of range");
        set_bit(&mut self.marked, slot);
    }

    /// Marks every port, as a controller that has not seen any port yet
    /// (or whose decision changed everywhere) needs.
    pub fn mark_all_ports(&mut self) {
        self.marked.fill(u64::MAX);
        let tail = self.port_ids.len() % 64;
        if let (Some(last), true) = (self.marked.last_mut(), tail != 0) {
            *last = (1 << tail) - 1;
        }
    }

    /// Fills `out` (cleared first) with the marked port slots in slot
    /// order and clears the marks. A port left unmarked has the key it had
    /// when the marks were last taken.
    pub fn take_marked_ports(&mut self, out: &mut Vec<u32>) {
        out.clear();
        for (w, word) in self.marked.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                // lint:allow(alloc-in-hot-path) amortized: scratch keeps its capacity
                out.push((w * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    }

    /// The controller-side check of the port marks: `cached` is the key a
    /// controller read at its last visit of the port at `slot`, and the
    /// port was not marked since. At [`InvariantLevel::Full`] a different
    /// key is recorded as an [`InvariantKind::VcStateConsistency`]
    /// violation: some writer changed the key without marking the port.
    /// No-op at lower levels.
    pub fn check_cached_port_key(&mut self, slot: usize, cached: PortKey) {
        if self.invariants != InvariantLevel::Full {
            return;
        }
        let key = self.port_key_at(slot);
        if key != cached {
            let (cycle, port) = (self.cycle, self.port_ids[slot]);
            // lint:allow(alloc-in-hot-path) cold branch: only runs on a violation
            self.absorb_violations(vec![InvariantViolation::new(
                cycle,
                InvariantKind::VcStateConsistency,
                format_args!("port {port}: key {key:?} changed from the controller's {cached:?} without a mark"),
            )]);
        }
    }

    /// First half of a cycle: absorb credits and deliver arriving flits
    /// (buffer write + route computation).
    ///
    /// # Panics
    ///
    /// Panics if called twice without an intervening
    /// [`finish_cycle`](Self::finish_cycle).
    pub fn begin_cycle(&mut self) {
        self.begin_cycle_with(&mut NullProfiler);
    }

    /// [`begin_cycle`](Self::begin_cycle) with per-stage timing delivered
    /// to `prof` as laps: [`Stage::BeginCycle`] (credits and buffer
    /// writes), then [`Stage::Routing`] (route computation of the heads
    /// written). The caller starts the lap chain
    /// ([`Profiler::start_lap`]). With [`NullProfiler`] every clock read
    /// is compiled out and this is the plain `begin_cycle`.
    pub fn begin_cycle_with<P: Profiler>(&mut self, prof: &mut P) {
        assert_eq!(self.phase, Phase::Idle, "begin_cycle called twice");
        let now = self.cycle;
        // Credits due this cycle. A free credit idles an output VC, which
        // changes the key of the port it feeds and may let the router's VA
        // grant. A credit to an output VC that had none may let its SA
        // grant; any other credit cannot, since a stalled router's SA
        // nominees all wait on output VCs without credits. The same holds
        // for a parked NIC's queue head and streaming packet.
        while let Some(credit) = pop_due(&mut self.due.credits, now) {
            let refilled = self.arena.absorb_credit(credit);
            let slot = credit.slot as usize;
            if credit.is_free {
                set_bit(&mut self.marked, slot);
            }
            if credit.is_free || refilled {
                self.wake_upstream(slot);
            }
        }
        // A new cycle begins: the slots written last cycle, the only ones
        // with a fresh VC, hold nothing written in this one. Their flits
        // may compete in VA and SA now.
        let mut delivered = std::mem::take(&mut self.delivered);
        for &slot in &delivered {
            let fresh = std::mem::take(&mut self.arena.masks[slot as usize].fresh);
            let e = self.ends[slot as usize];
            if e.down_port != NIC_SIDE && fresh != 0 {
                clear_bit(&mut self.stalled_routers, e.down_node as usize);
            }
        }
        delivered.clear();
        // Flits due this cycle (BW).
        while let Some(hop) = pop_due(&mut self.due.hops, now) {
            self.deliver(hop);
            // lint:allow(alloc-in-hot-path) amortized: scratch keeps its capacity
            delivered.push(hop.slot);
        }
        while let Some(hop) = pop_due(&mut self.due.injections, now) {
            self.deliver(hop);
            // lint:allow(alloc-in-hot-path) amortized: scratch keeps its capacity
            delivered.push(hop.slot);
        }
        self.delivered = delivered;
        prof.lap(Stage::BeginCycle);
        // RC of the heads just written. Routing reads only output credits,
        // which no write changes, so routing after every write equals
        // routing each head as it lands.
        for i in 0..self.heads.len() {
            let head = self.heads[i];
            let outport = self.compute_route(head.router, head.dst).index();
            self.work.rc_computes += 1;
            let router = &mut self.routers[head.router];
            let slot = router.route_head(&mut self.arena, head.port, head.vc, outport);
            set_bit(&mut self.marked, slot);
        }
        self.heads.clear();
        self.phase = Phase::Mid;
        prof.lap(Stage::Routing);
    }

    /// Writes a flit due this cycle into the buffers of its slot (the BW
    /// stage). A head written into a router input waits for RC; a head
    /// reaching a NIC's ejection side, which has no VA, makes its VC
    /// active.
    #[inline]
    fn deliver(&mut self, hop: Hop) {
        let (slot, flit) = (hop.slot as usize, hop.flit);
        let e = self.ends[slot];
        let node = e.down_node as usize;
        self.work.bw_writes += 1;
        if e.down_port == NIC_SIDE {
            self.arena.write_flit(slot, flit);
            if flit.is_head() {
                self.arena.masks[slot].in_active |= 1 << flit.vc;
            }
            set_bit(&mut self.active_nics, node);
            return;
        }
        let port = usize::from(e.down_port);
        self.routers[node].write_flit(&mut self.arena, port, flit);
        if flit.is_head() {
            // lint:allow(alloc-in-hot-path) amortized: scratch keeps its capacity
            self.heads.push(PendingRoute {
                router: node,
                port,
                vc: usize::from(flit.vc),
                dst: self.packets.get(flit.packet).dst,
            });
        }
        // A stalled router stays stalled: a flit landing in an empty VC is
        // fresh, so it cannot be granted before its `fresh` bit clears
        // next cycle (which wakes the router), and one landing behind
        // others changes no request.
        set_bit(&mut self.busy_routers, node);
    }

    /// The RC stage for one head flit: the routing algorithm's decision,
    /// with credit-based adaptive selection when it permits several
    /// productive directions (West-First).
    fn compute_route(&self, r_idx: usize, dst: NodeId) -> Direction {
        let dirs = self.cfg.routing.allowed(&self.mesh, NodeId(r_idx), dst);
        match dirs.as_slice() {
            [] => Direction::Local,
            [only] => *only,
            [first, ..] => dirs
                .as_slice()
                .iter()
                .copied()
                .max_by_key(|d| {
                    // Prefer the output port with the most downstream
                    // credits — the standard local-congestion heuristic.
                    // Routing never leaves the fabric, so the slot exists.
                    let slot = self.routers[r_idx].out_slot[d.index()] as usize;
                    let i = self.arena.vc_index(slot, 0);
                    let credits = &self.arena.credits[i..i + self.cfg.vcs_per_port];
                    credits.iter().map(|&c| c as usize).sum::<usize>()
                })
                .unwrap_or(*first),
        }
    }

    /// Second half of a cycle: VC allocation, switch allocation, switch and
    /// link traversal, NIC injection and ejection. Advances the cycle
    /// counter.
    ///
    /// # Panics
    ///
    /// Panics if called before [`begin_cycle`](Self::begin_cycle).
    pub fn finish_cycle(&mut self) {
        self.finish_cycle_with(&mut NullProfiler);
    }

    /// [`finish_cycle`](Self::finish_cycle) with per-stage timing
    /// delivered to `prof` as laps: [`Stage::Allocation`] (VA + SA of
    /// every busy router), [`Stage::Traversal`] (switch and link traversal
    /// of the SA winners), then [`Stage::FinishCycle`] (NICs, the cycle
    /// advance and the invariant checks). With [`NullProfiler`] every
    /// clock read is compiled out and this is the plain `finish_cycle`.
    pub fn finish_cycle_with<P: Profiler>(&mut self, prof: &mut P) {
        assert_eq!(self.phase, Phase::Mid, "finish_cycle before begin_cycle");
        let now = self.cycle;
        if self.invariants == InvariantLevel::Full {
            self.check_skipped_units();
        }
        // VA + SA of every router holding a flit and not stalled, in index
        // order. A router with no flit has no waiting head and no SA
        // nominee, so its arbiters would grant nothing and keep their
        // priorities; a stalled one sees the same masks, credits and
        // deadlines as in the pass that granted nothing. Traversal only
        // touches the traversing router, its slots and the due schedule,
        // none of which another router's allocation reads, so it runs
        // afterwards.
        for w in 0..self.busy_routers.len() {
            let mut bits = self.busy_routers[w] & !self.stalled_routers[w];
            while bits != 0 {
                let r_idx = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let router = &mut self.routers[r_idx];
                if router.buffered == 0 {
                    // Emptied outside a traversal (a fault hook).
                    clear_bit(&mut self.busy_routers, r_idx);
                    continue;
                }
                let mut granted = router.vc_allocation(
                    &mut self.arena,
                    now,
                    NodeId(r_idx),
                    &mut self.work,
                    &mut self.trace,
                );
                let winners = router.switch_allocation(&self.arena);
                if granted == 0
                    && winners.iter().all(Option::is_none)
                    && !router.waits_for_wakeup(&self.arena)
                {
                    set_bit(&mut self.stalled_routers, r_idx);
                    continue;
                }
                // A VA grant changes the granted port's key.
                while granted != 0 {
                    let o = granted.trailing_zeros() as usize;
                    granted &= granted - 1;
                    set_bit(&mut self.marked, router.out_slot[o] as usize);
                }
                for winner in winners.into_iter().flatten() {
                    // lint:allow(alloc-in-hot-path) amortized: scratch keeps its capacity
                    self.winners.push((r_idx, winner));
                }
            }
        }
        prof.lap(Stage::Allocation);
        for i in 0..self.winners.len() {
            let (r_idx, winner) = self.winners[i];
            self.work.sa_grants += 1;
            self.traverse(r_idx, winner, now);
        }
        self.winners.clear();
        prof.lap(Stage::Traversal);
        // NIC injection and ejection, for the NICs with work, in index
        // order.
        for w in 0..self.active_nics.len() {
            let mut bits = self.active_nics[w];
            while bits != 0 {
                let n_idx = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.step_nic(n_idx, now);
            }
        }
        self.cycle += 1;
        self.phase = Phase::Idle;
        if self.invariants.is_enabled() {
            self.check_invariants_now();
        }
        prof.lap(Stage::FinishCycle);
    }

    /// One cycle of NIC `n_idx`: VC allocation and streaming on the
    /// injection side, draining on the ejection side. The NIC leaves the
    /// active set once its next step could make no progress.
    fn step_nic(&mut self, n_idx: usize, now: u64) {
        let nic = &mut self.nics[n_idx];
        let inject = nic.inject;
        let allocated = self.arena.masks[inject].out_active;
        let sent = nic.process_inject(&mut self.arena, &mut self.packets, now);
        if self.arena.masks[inject].out_active != allocated {
            // The queue head got a VC: the local port's key changed.
            set_bit(&mut self.marked, inject);
        }
        if let Some(flit) = sent {
            self.stats.flits_sent += 1;
            self.flits_sent_total += 1;
            if T::ACTIVE {
                self.trace.emit(TraceEvent {
                    cycle: now,
                    kind: EventKind::FlitInject {
                        node: n_idx as u32,
                        packet: self.packets.get(flit.packet).id.0,
                        vc: flit.vc,
                    },
                });
            }
            let hop = Hop {
                slot: inject as u32,
                flit,
            };
            // lint:allow(alloc-in-hot-path) amortized: the due schedule keeps its capacity
            self.due
                .injections
                .push_back((now + self.cfg.link_latency, hop));
        }
        let drained = nic.drain_eject(
            &mut self.arena,
            &mut self.packets,
            now,
            &mut self.trace,
            &mut self.due.credits,
            now + self.cfg.credit_latency,
            &mut self.eject_done,
        );
        self.stats.flits_ejected += drained as u64;
        self.flits_ejected_total += drained as u64;
        for &pkt in &self.eject_done {
            self.stats.packets_ejected += 1;
            let latency = now - pkt.injected_at;
            self.stats.record_latency(latency);
            if T::ACTIVE {
                self.trace.emit(TraceEvent {
                    cycle: now,
                    kind: EventKind::PacketDone {
                        node: n_idx as u32,
                        packet: pkt.id.0,
                        latency,
                    },
                });
            }
        }
        if !self.nics[n_idx].could_progress(&self.arena) {
            clear_bit(&mut self.active_nics, n_idx);
        }
    }

    /// The upstream agent of `slot` may now allocate a VC or send a flit
    /// on it: a stalled router is woken, and a parked NIC rejoins the
    /// active set.
    #[inline]
    fn wake_upstream(&mut self, slot: usize) {
        let e = self.ends[slot];
        let node = e.up_node as usize;
        if e.up_port != NIC_SIDE {
            clear_bit(&mut self.stalled_routers, node);
        } else if self.nics[node].has_packet() {
            set_bit(&mut self.active_nics, node);
        }
    }

    /// One full cycle with no gating changes (the NBTI-unaware baseline
    /// leaves every buffer powered).
    pub fn step(&mut self) {
        self.begin_cycle();
        self.finish_cycle();
    }

    /// [`step`](Self::step) with per-stage timing delivered to `prof`.
    pub fn step_with<P: Profiler>(&mut self, prof: &mut P) {
        prof.start_lap();
        self.begin_cycle_with(prof);
        self.finish_cycle_with(prof);
    }

    /// Runs `n` full cycles.
    pub fn step_cycles(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Moves one SA-winning flit through switch and link.
    #[inline]
    fn traverse(&mut self, r_idx: usize, w: SaWinner, now: u64) {
        let router = &mut self.routers[r_idx];
        let (in_port, vc) = (usize::from(w.in_port), usize::from(w.vc));
        // Flits only arrive through ports with a link, and routing never
        // leaves the fabric, so both slots exist.
        let (from, to) = (
            router.in_slot[in_port],
            router.out_slot[usize::from(w.out_port)],
        );
        let popped = router.pop_flit(&mut self.arena, in_port, vc);
        // lint:allow(no-unwrap) SA only nominates VCs with a ready buffered flit
        let mut flit = popped.expect("SA winner has a flit");
        if router.buffered == 0 {
            clear_bit(&mut self.busy_routers, r_idx);
        }
        self.arena.spend_credit(from as usize, vc, flit.is_tail());
        // Credit back to this input port's upstream agent.
        let credit = Credit {
            slot: from,
            vc: w.vc,
            is_free: flit.is_tail(),
        };
        // lint:allow(alloc-in-hot-path) amortized: the due schedule keeps its capacity
        self.due
            .credits
            .push_back((now + self.cfg.credit_latency, credit));
        // Forward through switch (1 cycle) and link.
        flit.vc = w.out_vc;
        let hop = Hop { slot: to, flit };
        // lint:allow(alloc-in-hot-path) amortized: the due schedule keeps its capacity
        self.due
            .hops
            .push_back((now + 1 + self.cfg.link_latency, hop));
    }

    /// Total flits currently inside the network: router buffers, link
    /// queues, ejection buffers and their links. NIC injection queues are
    /// *not* included (those packets have not entered the network yet).
    pub fn flits_in_network(&self) -> usize {
        let buffered: usize = self.arena.in_vcs.iter().map(|vc| vc.len as usize).sum();
        buffered + self.due.hops.len() + self.due.injections.len()
    }

    /// Flits of partially transmitted packets still inside source NICs.
    pub fn flits_pending_injection(&self) -> usize {
        self.nics
            .iter()
            .map(|n| {
                let queued: usize = n.queue.iter().map(|p| p.len).sum();
                let current = n.current.map(|tx| tx.packet.len - tx.next_seq).unwrap_or(0);
                queued + current
            })
            .sum()
    }

    /// `true` when no traffic exists anywhere (network drained).
    pub fn is_quiescent(&self) -> bool {
        self.flits_in_network() == 0 && self.flits_pending_injection() == 0
    }

    /// Number of packets waiting in a node's injection queue.
    pub fn nic_queue_len(&self, node: NodeId) -> usize {
        self.nics[node.index()].queue.len()
    }

    /// Flits ever written into the buffers of a port (for
    /// occupancy-related tests and sanity checks).
    pub fn flits_received(&self, port: PortId) -> u64 {
        self.arena.flits_received[self.slot(port)]
    }

    /// Flits currently buffered in a port's VCs (the sampler's occupancy
    /// column).
    pub fn port_occupancy(&self, port: PortId) -> usize {
        self.arena.buffered(self.slot(port))
    }

    /// How many of a port's VC buffers are powered right now.
    pub fn powered_vc_count(&self, port: PortId) -> usize {
        self.arena.masks[self.slot(port)].powered.count_ones() as usize
    }

    /// Lifetime power-gating transitions (on→off plus off→on) applied to a
    /// port's VCs — the sampler differentiates this into per-epoch churn.
    pub fn gate_transitions(&self, port: PortId) -> u64 {
        self.arena.gate_transitions[self.slot(port)]
    }

    /// Selects how much invariant checking runs at the end of every cycle.
    pub fn set_invariant_level(&mut self, level: InvariantLevel) {
        self.invariants = level;
    }

    /// Violations recorded so far (capped at
    /// [`MAX_RECORDED_VIOLATIONS`]; the uncapped count lives in
    /// [`NetStats::invariant_violations`]).
    pub fn violations(&self) -> &[InvariantViolation] {
        &self.violations
    }

    /// Drains the recorded violations, leaving the buffer empty.
    pub fn take_violations(&mut self) -> Vec<InvariantViolation> {
        std::mem::take(&mut self.violations)
    }

    /// Captures a drained-boundary [`NetworkSnapshot`].
    ///
    /// The network must be *settled*: fully quiescent (no flits anywhere,
    /// nothing pending injection), every credit loop closed (all output VCs
    /// idle with full credits, no credits in flight) and no undrained
    /// invariant violations. After [`is_quiescent`](Self::is_quiescent)
    /// turns true, stepping `credit_latency + link_latency` more cycles
    /// guarantees the credit loops have closed.
    ///
    /// # Errors
    ///
    /// A typed [`SnapshotStateError`] naming the unsettled state; nothing
    /// is ever silently dropped.
    pub fn snapshot(&self) -> Result<NetworkSnapshot, SnapshotStateError> {
        let in_network = self.flits_in_network();
        let pending_injection = self.flits_pending_injection();
        if in_network != 0 || pending_injection != 0 {
            return Err(SnapshotStateError::NotQuiescent {
                in_network,
                pending_injection,
            });
        }
        if !self.violations.is_empty() {
            return Err(SnapshotStateError::PendingViolations {
                count: self.violations.len(),
            });
        }
        let (depth, vcs) = (self.cfg.buffer_depth, self.cfg.vcs_per_port);
        let mut ports = Vec::with_capacity(self.port_ids.len());
        for (slot, &pid) in self.port_ids.iter().enumerate() {
            let m = self.arena.masks[slot];
            let i = self.arena.vc_index(slot, 0);
            let settled = self.due.credits_to(slot).next().is_none()
                && m.out_active == 0
                && self.arena.credits[i..i + vcs]
                    .iter()
                    .all(|&c| c as usize == depth);
            if !settled {
                return Err(SnapshotStateError::CreditsOutstanding { port: pid });
            }
            debug_assert!(m.occupied == 0 && m.in_active == 0);
            ports.push(PortState {
                powered_mask: m.powered,
                allocatable_mask: m.allocatable,
                usable_at: self.arena.usable_at[i..i + vcs].to_vec(),
                gate_transitions: self.arena.gate_transitions[slot],
                flits_received: self.arena.flits_received[slot],
            });
        }
        debug_assert!(
            self.due.is_empty(),
            "a due entry outlived its flit or credit"
        );
        let mut arbiters = Vec::with_capacity(self.routers.len() * NUM_PORTS * 3);
        for r in &self.routers {
            for p in 0..NUM_PORTS {
                arbiters.push(r.va_arbs[p].priority() as u32);
                arbiters.push(r.sa_out_arbs[p].priority() as u32);
                arbiters.push(r.sa_in_arbs[p].priority() as u32);
            }
        }
        Ok(NetworkSnapshot {
            cycle: self.cycle,
            next_packet: self.next_packet,
            flits_sent_total: self.flits_sent_total,
            flits_ejected_total: self.flits_ejected_total,
            stats: self.stats,
            work: self.work,
            ports,
            arbiters,
        })
    }

    /// Applies a drained-boundary snapshot onto this freshly built
    /// network, after which its behaviour is bit-identical to the network
    /// the snapshot was captured from continuing past the boundary.
    ///
    /// # Errors
    ///
    /// [`SnapshotStateError::TargetNotFresh`] if this network has already
    /// stepped, [`SnapshotStateError::ShapeMismatch`] if the snapshot was
    /// captured from a network of a different shape.
    pub fn restore(&mut self, snap: &NetworkSnapshot) -> Result<(), SnapshotStateError> {
        if self.cycle != 0 || self.next_packet != 0 {
            return Err(SnapshotStateError::TargetNotFresh { cycle: self.cycle });
        }
        if snap.ports.len() != self.port_ids.len() {
            return Err(SnapshotStateError::ShapeMismatch {
                what: "ports",
                got: snap.ports.len(),
                want: self.port_ids.len(),
            });
        }
        let want_arbs = self.routers.len() * NUM_PORTS * 3;
        if snap.arbiters.len() != want_arbs {
            return Err(SnapshotStateError::ShapeMismatch {
                what: "arbiters",
                got: snap.arbiters.len(),
                want: want_arbs,
            });
        }
        let vcs = self.cfg.vcs_per_port;
        for (slot, ps) in snap.ports.iter().enumerate() {
            if ps.usable_at.len() != vcs {
                return Err(SnapshotStateError::ShapeMismatch {
                    what: "VCs",
                    got: ps.usable_at.len(),
                    want: vcs,
                });
            }
            let m = &mut self.arena.masks[slot];
            m.allocatable = ps.allocatable_mask & all_vcs(vcs);
            m.powered = ps.powered_mask & all_vcs(vcs);
            let i = self.arena.vc_index(slot, 0);
            self.arena.usable_at[i..i + vcs].copy_from_slice(&ps.usable_at);
            self.arena.gate_transitions[slot] = ps.gate_transitions;
            self.arena.flits_received[slot] = ps.flits_received;
        }
        let mut it = snap.arbiters.iter().copied();
        for r in &mut self.routers {
            for p in 0..NUM_PORTS {
                for arb in [
                    &mut r.va_arbs[p],
                    &mut r.sa_out_arbs[p],
                    &mut r.sa_in_arbs[p],
                ] {
                    let next = it.next().map_or(0, |v| v as usize);
                    if next >= arb.len() {
                        return Err(SnapshotStateError::ShapeMismatch {
                            what: "arbiter slots",
                            got: next,
                            want: arb.len(),
                        });
                    }
                    arb.set_priority(next);
                }
            }
        }
        self.cycle = snap.cycle;
        self.next_packet = snap.next_packet;
        self.flits_sent_total = snap.flits_sent_total;
        self.flits_ejected_total = snap.flits_ejected_total;
        self.stats = snap.stats;
        self.work = snap.work;
        // Power and allocation masks changed under every port.
        self.mark_all_ports();
        Ok(())
    }

    /// Runs one invariant check pass at the configured level immediately
    /// (called automatically at the end of every cycle when the level is
    /// not `Off`; exposed so tests can probe a hand-corrupted state).
    pub fn check_invariants_now(&mut self) {
        let cycle = self.cycle;
        let full = self.invariants == InvariantLevel::Full;
        self.stats.invariant_checks += 1;
        // lint:allow(alloc-in-hot-path) diagnostic pass: only runs with invariants enabled
        let mut found = Vec::new();
        let in_network = self.flits_in_network() as u64;
        if self.flits_sent_total != self.flits_ejected_total + in_network {
            // lint:allow(alloc-in-hot-path) cold branch: only runs on a violation
            found.push(InvariantViolation::new(
                cycle,
                InvariantKind::FlitConservation,
                format_args!(
                    "{} flits entered the network but {} delivered + {} in flight",
                    self.flits_sent_total, self.flits_ejected_total, in_network
                ),
            ));
        }
        for (node, router) in self.routers.iter().enumerate() {
            router.collect_violations(&self.arena, NodeId(node), cycle, full, &mut found);
        }
        for nic in &self.nics {
            nic.collect_violations(&self.arena, cycle, full, &mut found);
        }
        if full {
            self.check_credit_conservation(cycle, &mut found);
            self.check_busy_vcs_are_powered(cycle, &mut found);
            self.check_new_traffic_flags(cycle, &mut found);
            self.check_allocation_words(cycle, &mut found);
        }
        self.absorb_violations(found);
    }

    /// The premise of skipping stalled routers and parked NICs: VA and SA
    /// of a busy, stalled router, run now, would grant nothing, and a NIC
    /// outside the active set could not progress. Either is recorded as an
    /// [`InvariantKind::VcStateConsistency`] violation: some write reached
    /// the router or NIC without waking it.
    fn check_skipped_units(&mut self) {
        let now = self.cycle;
        // lint:allow(alloc-in-hot-path) diagnostic pass: only runs with invariants enabled
        let mut found = Vec::new();
        for (r_idx, router) in self.routers.iter().enumerate() {
            let stalled =
                bit_is_set(&self.busy_routers, r_idx) && bit_is_set(&self.stalled_routers, r_idx);
            if stalled && router.could_grant(&self.arena, now) {
                // lint:allow(alloc-in-hot-path) cold branch: only runs on a violation
                found.push(InvariantViolation::new(
                    now,
                    InvariantKind::VcStateConsistency,
                    format_args!("router {r_idx} is stalled, but its VA or SA would grant"),
                ));
            }
        }
        for (n_idx, nic) in self.nics.iter().enumerate() {
            if !bit_is_set(&self.active_nics, n_idx) && nic.could_progress(&self.arena) {
                // lint:allow(alloc-in-hot-path) cold branch: only runs on a violation
                found.push(InvariantViolation::new(
                    now,
                    InvariantKind::VcStateConsistency,
                    format_args!("nic {n_idx} is parked, but could progress"),
                ));
            }
        }
        self.absorb_violations(found);
    }

    /// Busy ⇒ powered: a VC whose upstream output VC holds a packet keeps
    /// its buffer powered. `apply_gate` only gates idle VCs and VA only
    /// allocates designated (powered) ones. The experiment engine's duty
    /// accounting rests on this: it records a port's power mask as its
    /// stress mask.
    fn check_busy_vcs_are_powered(&self, cycle: u64, out: &mut Vec<InvariantViolation>) {
        for (&pid, m) in self.port_ids.iter().zip(&self.arena.masks) {
            let gated = m.out_active & !m.powered;
            if gated != 0 {
                // lint:allow(alloc-in-hot-path) cold branch: only runs on a violation
                out.push(InvariantViolation::new(
                    cycle,
                    InvariantKind::GatingSafety,
                    format_args!("port {pid}: busy VC(s) {gated:#b} are power-gated"),
                ));
            }
        }
    }

    /// Every port's new-traffic flag against what it records: a packet
    /// waiting for a VC at the port's upstream agent.
    fn check_new_traffic_flags(&self, cycle: u64, out: &mut Vec<InvariantViolation>) {
        for (slot, (&pid, e)) in self.port_ids.iter().zip(&self.ends).enumerate() {
            let (node, flag) = (e.up_node as usize, self.arena.masks[slot].new_traffic);
            let waits = match e.up_port {
                NIC_SIDE => !self.nics[node].queue.is_empty(),
                port => self.routers[node].has_new_traffic(usize::from(port)),
            };
            if flag != waits {
                // lint:allow(alloc-in-hot-path) cold branch: only runs on a violation
                out.push(InvariantViolation::new(
                    cycle,
                    InvariantKind::VcStateConsistency,
                    format_args!("port {pid}: new-traffic flag {flag}, but waiting is {waits}"),
                ));
            }
        }
    }

    /// The words allocation reads instead of scanning, against what they
    /// record: every slot's `credited` mask (router inputs: active VCs
    /// whose output VC holds a credit; a NIC's ejection side: none), and
    /// every router's `pending` mask (the outputs with a waiting head).
    fn check_allocation_words(&self, cycle: u64, out: &mut Vec<InvariantViolation>) {
        let mut push = |detail: std::fmt::Arguments<'_>| {
            let kind = InvariantKind::VcStateConsistency;
            // lint:allow(alloc-in-hot-path) cold branch: only runs on a violation
            out.push(InvariantViolation::new(cycle, kind, detail));
        };
        for (slot, (&pid, e)) in self.port_ids.iter().zip(&self.ends).enumerate() {
            let credited = self.arena.masks[slot].credited;
            let want = match e.down_port {
                NIC_SIDE => 0,
                _ => self.arena.credited_recount(slot),
            };
            if credited != want {
                push(format_args!(
                    "port {pid}: credited mask {credited:#b} != active VCs with a credit {want:#b}"
                ));
            }
        }
        for (node, router) in self.routers.iter().enumerate() {
            let want = router.pending_recount();
            if router.pending != want {
                push(format_args!(
                    "router {node}: pending mask {:#b} != outputs with a waiting head {want:#b}",
                    router.pending
                ));
            }
        }
    }

    /// The policy-level designation invariant: at most `budget` idle-on
    /// VCs on `port` (Algorithm 2 keeps exactly one; the `k`-designation
    /// extension keeps `k`). Driven by the experiment harness, which knows
    /// the policy's budget; records an [`InvariantKind::IdleOnBudget`]
    /// violation when exceeded. No-op when checking is off.
    pub fn check_idle_on_budget(&mut self, port: PortId, budget: usize) {
        if !self.invariants.is_enabled() {
            return;
        }
        let m = self.arena.masks[self.slot(port)];
        let idle_on = (m.powered & !m.out_active).count_ones() as usize;
        if idle_on > budget {
            let cycle = self.cycle;
            // lint:allow(alloc-in-hot-path) cold branch: only runs on a violation
            self.absorb_violations(vec![InvariantViolation::new(
                cycle,
                InvariantKind::IdleOnBudget,
                format_args!("port {port}: {idle_on} idle-on VCs exceed the budget of {budget}"),
            )]);
        }
    }

    /// Per-channel credit conservation: for every upstream/downstream VC
    /// pair, credits held upstream + credits in flight + flits buffered
    /// downstream + flits in flight on the link must equal the buffer
    /// depth.
    fn check_credit_conservation(&self, cycle: u64, out: &mut Vec<InvariantViolation>) {
        let depth = self.cfg.buffer_depth;
        let vcs = self.cfg.vcs_per_port;
        // Per `slot × V + vc`: credits and flits in flight.
        // lint:allow(alloc-in-hot-path) diagnostic pass: only runs with invariants enabled
        let mut credits_in_flight = vec![0usize; self.arena.credits.len()];
        // lint:allow(alloc-in-hot-path) diagnostic pass: only runs with invariants enabled
        let mut flits_in_flight = vec![0usize; self.arena.credits.len()];
        for (_, c) in &self.due.credits {
            credits_in_flight[self.arena.vc_index(c.slot as usize, usize::from(c.vc))] += 1;
        }
        for (_, hop) in self.due.hops.iter().chain(&self.due.injections) {
            flits_in_flight[self
                .arena
                .vc_index(hop.slot as usize, usize::from(hop.flit.vc))] += 1;
        }
        for (slot, &pid) in self.port_ids.iter().enumerate() {
            for v in 0..vcs {
                let i = self.arena.vc_index(slot, v);
                let held = self.arena.credits[i] as usize;
                let buffered = self.arena.in_vcs[i].len as usize;
                let (credits, flits) = (credits_in_flight[i], flits_in_flight[i]);
                if held + credits + buffered + flits != depth {
                    // lint:allow(alloc-in-hot-path) cold branch: only runs on a violation
                    out.push(InvariantViolation::new(
                        cycle,
                        InvariantKind::CreditConservation,
                        format_args!("channel {pid} vc{v}: {held} credit(s) held + {credits} in flight + {buffered} buffered + {flits} flit(s) on the link != depth {depth}"),
                    ));
                }
            }
        }
    }

    /// Counts every violation into the stats and keeps detailed records up
    /// to the cap. Every violation is also traced (the trace is uncapped:
    /// the digest must cover the whole stream).
    fn absorb_violations(&mut self, found: Vec<InvariantViolation>) {
        for v in found {
            self.stats.invariant_violations += 1;
            if T::ACTIVE {
                self.trace.emit(TraceEvent {
                    cycle: v.cycle,
                    kind: EventKind::Violation {
                        // lint:allow(alloc-in-hot-path) cold branch: only runs on a violation
                        kind: v.kind.id().to_string(),
                    },
                });
            }
            if self.violations.len() < MAX_RECORDED_VIOLATIONS {
                // lint:allow(alloc-in-hot-path) cold branch: only runs on a violation
                self.violations.push(v);
            }
        }
    }
}

/// Read-only views of the in-flight flits and credits, for the due
/// schedule's property tests: they let a test scan every link the way the
/// cycle loop does not.
#[doc(hidden)]
impl<T: TraceSink> Network<T> {
    /// The flits on the link into the port at `slot`, in FIFO order, as
    /// `(due cycle, flit)`.
    pub fn link_flits(&self, slot: usize) -> Vec<(u64, Flit)> {
        self.due.flits_into(slot).collect()
    }

    /// The credits returning to the upstream agent of the port at `slot`,
    /// in FIFO order, as `(due cycle, vc, is_free)`.
    pub fn link_credits(&self, slot: usize) -> Vec<(u64, usize, bool)> {
        self.due
            .credits_to(slot)
            .map(|(when, c)| (when, usize::from(c.vc), c.is_free))
            .collect()
    }

    /// The port slots whose links delivered flits in the last
    /// `begin_cycle`, in delivery order.
    pub fn delivered_slots(&self) -> &[u32] {
        &self.delivered
    }

    /// The `credited` mask of the port at `slot`: bit `v` set when VC `v`
    /// may spend a credit in SA.
    pub fn credited_vcs(&self, slot: usize) -> u32 {
        self.arena.masks[slot].credited
    }

    /// Per VC of the port at `slot`: the credits held by the output VC it
    /// is active on, or `None` while it is not active.
    pub fn granted_credits(&self, slot: usize) -> Vec<Option<u32>> {
        let m = self.arena.masks[slot];
        (0..self.cfg.vcs_per_port)
            .map(|v| {
                let out = self.arena.in_vcs[self.arena.vc_index(slot, v)].out as usize;
                (m.in_active & (1 << v) != 0).then(|| self.arena.credits[out])
            })
            .collect()
    }
}

/// Fault-injection hooks for invariant-checker tests.
///
/// These deliberately corrupt protocol state so the checker's diagnostics
/// can be exercised; they must never be called outside tests. Each wakes
/// every stalled router and parked NIC, since it writes state their
/// allocation reads.
#[doc(hidden)]
impl<T: TraceSink> Network<T> {
    /// Wakes every stalled router and parked NIC.
    fn wake_all(&mut self) {
        self.stalled_routers.fill(0);
        for (n_idx, nic) in self.nics.iter().enumerate() {
            if nic.has_packet() {
                set_bit(&mut self.active_nics, n_idx);
            }
        }
    }

    /// The first router input VC (in node, port, then VC order) holding a
    /// flit, and powered unless `any_power`, as `(node, input port index,
    /// vc, slot)`.
    fn first_occupied_vc(&self, any_power: bool) -> Option<(usize, usize, usize, usize)> {
        self.routers.iter().enumerate().find_map(|(node, router)| {
            router.in_slot.iter().enumerate().find_map(|(p, &slot)| {
                let m = self.arena.masks.get(slot as usize)?;
                let held = m.occupied & (m.powered | if any_power { u32::MAX } else { 0 });
                (held != 0).then(|| (node, p, held.trailing_zeros() as usize, slot as usize))
            })
        })
    }

    /// Power-gates the first router input VC (in deterministic scan order)
    /// that holds at least one flit, violating gating safety. Returns the
    /// corrupted location as `(node, input port index, vc)`, or `None` when
    /// no VC holds a flit.
    pub fn fault_gate_occupied_vc(&mut self) -> Option<(NodeId, usize, usize)> {
        self.wake_all();
        let (node, p, v, slot) = self.first_occupied_vc(false)?;
        self.arena.masks[slot].powered &= !(1 << v);
        Some((NodeId(node), p, v))
    }

    /// Grants one spurious credit to the upstream agent of `port` for
    /// `vc`, violating per-channel credit conservation.
    pub fn fault_double_credit(&mut self, port: PortId, vc: usize) {
        self.wake_all();
        let i = self.arena.vc_index(self.slot(port), vc);
        self.arena.credits[i] += 1;
    }

    /// Marks the first idle, powered input VC of router `node` (in port,
    /// then VC order) as waiting for VA on `outport`, though it buffers no
    /// head, so the waiting mask disagrees with the buffers (and
    /// `port_view` reports new traffic nobody sent). Does nothing when no
    /// VC is idle.
    pub fn fault_skew_waiting_count(&mut self, node: NodeId, outport: Direction) {
        self.wake_all();
        let router = &mut self.routers[node.index()];
        for p in 0..NUM_PORTS {
            let slot = router.in_slot[p];
            if slot == NO_SLOT {
                continue;
            }
            let m = self.arena.masks[slot as usize];
            let busy = router.waiting_at(p) | m.in_active | m.occupied;
            let idle = m.powered & !busy;
            if idle != 0 {
                router.waiting[outport.index()][p] |= 1 << idle.trailing_zeros();
                router.pending |= 1 << outport.index();
                let out = router.out_slot[outport.index()];
                if out != NO_SLOT {
                    self.arena.masks[out as usize].new_traffic = true;
                }
                return;
            }
        }
    }

    /// Clears the `credited` bit of the first router input VC (in node,
    /// port, then VC order) that has one, as a credit refill that did not
    /// set its owner's bit would leave it: the VC is active and its output
    /// VC holds a credit, but SA no longer sees it. Returns the corrupted
    /// location as `(node, input port index, vc)`, or `None` when no VC is
    /// credited.
    pub fn fault_drop_refill(&mut self) -> Option<(NodeId, usize, usize)> {
        self.wake_all();
        let (node, p, slot) = self.routers.iter().enumerate().find_map(|(node, router)| {
            router.in_slot.iter().enumerate().find_map(|(p, &slot)| {
                let m = self.arena.masks.get(slot as usize)?;
                (m.credited != 0).then_some((node, p, slot as usize))
            })
        })?;
        let m = &mut self.arena.masks[slot];
        let v = m.credited.trailing_zeros() as usize;
        m.credited &= !(1 << v);
        Some((NodeId(node), p, v))
    }

    /// Drops the pending mark of the port at `slot`, as a writer that
    /// changed the port's key without marking it would. Returns whether
    /// the port was marked.
    pub fn fault_unmark_port(&mut self, slot: usize) -> bool {
        let was = bit_is_set(&self.marked, slot);
        clear_bit(&mut self.marked, slot);
        was
    }

    /// Drops NIC `node` from the active set, as a writer that changed the
    /// NIC's inputs without waking it would. Returns whether it was active.
    pub fn fault_park_nic(&mut self, node: NodeId) -> bool {
        let was = bit_is_set(&self.active_nics, node.index());
        clear_bit(&mut self.active_nics, node.index());
        was
    }

    /// Silently discards the first buffered flit (in deterministic scan
    /// order), violating both flit and credit conservation. Returns the
    /// corrupted location, or `None` when no flit is buffered.
    pub fn fault_drop_buffered_flit(&mut self) -> Option<(NodeId, usize, usize)> {
        self.wake_all();
        let (node, p, v, _) = self.first_occupied_vc(true)?;
        // Through `pop_flit`, so the router's flit count stays true and
        // only conservation is violated.
        self.routers[node].pop_flit(&mut self.arena, p, v);
        Some((NodeId(node), p, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::PortKind;
    use noc_telemetry::StageProfiler;
    use VcStatus::{IdleOn, Off};

    fn net(cores: usize, vcs: usize) -> Network {
        Network::new(NocConfig::paper_synthetic(cores, vcs)).unwrap()
    }

    #[test]
    fn a_power_gated_busy_vc_is_reported_at_full_level_only() {
        let mut n = net(4, 2);
        n.inject_packet(NodeId(0), NodeId(3));
        let pid = PortId::router_input(NodeId(0), Direction::Local);
        while n.port_key(pid).active == 0 {
            n.step();
        }
        let slot = n.slot(pid);
        let m = &mut n.arena.masks[slot];
        m.powered &= !m.out_active;
        n.set_invariant_level(InvariantLevel::Cheap);
        n.check_invariants_now();
        assert!(
            !n.violations().iter().any(|v| v.detail.contains("busy VC")),
            "{:?}",
            n.violations()
        );
        n.set_invariant_level(InvariantLevel::Full);
        n.check_invariants_now();
        let v = n
            .violations()
            .iter()
            .find(|v| v.detail.contains("busy VC"))
            .expect("full level checks busy => powered");
        assert_eq!(v.kind, InvariantKind::GatingSafety);
        assert!(v.detail.contains(&format!("port {pid}")), "{}", v.detail);
    }

    /// Nothing to visit: no flit or credit due, no busy or stalled router,
    /// no active NIC, no marked port and no link delivered last cycle.
    fn has_nothing_to_visit(n: &Network) -> bool {
        n.due.is_empty()
            && n.delivered.is_empty()
            && n.heads.is_empty()
            && n.winners.is_empty()
            && [
                &n.busy_routers,
                &n.stalled_routers,
                &n.active_nics,
                &n.marked,
            ]
            .iter()
            .all(|set| set.iter().all(|&w| w == 0))
    }

    /// Idle costs nothing: an empty network has nothing to visit after its
    /// first cycle, so a cycle delivers, allocates, runs and marks nothing;
    /// and a packet's work all drains away again once it has arrived.
    #[test]
    fn an_empty_network_visits_nothing() {
        let mut n = net(64, 2);
        assert!(has_nothing_to_visit(&n));
        for _ in 0..3 {
            n.step();
            assert!(has_nothing_to_visit(&n));
            assert_eq!(n.work_counters(), WorkCounters::default());
        }
        n.inject_packet(NodeId(0), NodeId(63));
        assert!(!has_nothing_to_visit(&n));
        drain_and_settle(&mut n);
        let mut marked = Vec::new();
        n.take_marked_ports(&mut marked);
        assert!(!marked.is_empty(), "the packet's route marked ports");
        n.step();
        assert!(has_nothing_to_visit(&n));
        assert_eq!(n.stats().packets_ejected, 1);
    }

    #[test]
    fn marks_are_taken_in_slot_order_and_cleared() {
        let mut n = net(16, 2);
        let mut out = vec![7];
        n.take_marked_ports(&mut out);
        assert!(out.is_empty());
        n.mark_port_at(70);
        n.mark_port_at(3);
        n.mark_port_at(3);
        n.take_marked_ports(&mut out);
        assert_eq!(out, [3, 70]);
        n.take_marked_ports(&mut out);
        assert!(out.is_empty());
        n.mark_all_ports();
        n.take_marked_ports(&mut out);
        assert_eq!(out, (0..n.port_ids().len() as u32).collect::<Vec<_>>());
        assert!(!n.fault_unmark_port(5), "taking cleared every mark");
    }

    #[test]
    fn single_packet_is_delivered() {
        let mut n = net(4, 2);
        n.inject_packet(NodeId(0), NodeId(3));
        for _ in 0..100 {
            n.step();
        }
        assert_eq!(n.stats().packets_ejected, 1);
        assert!(n.is_quiescent());
        assert_eq!(n.stats().flits_sent, 5);
        assert_eq!(n.stats().flits_ejected, 5);
    }

    #[test]
    fn self_packet_is_delivered_via_local_turnaround() {
        let mut n = net(4, 2);
        n.inject_packet(NodeId(2), NodeId(2));
        for _ in 0..50 {
            n.step();
        }
        assert_eq!(n.stats().packets_ejected, 1);
    }

    #[test]
    fn all_pairs_deliver() {
        let mut n = net(16, 2);
        for src in 0..16 {
            for dst in 0..16 {
                n.inject_packet(NodeId(src), NodeId(dst));
            }
        }
        for _ in 0..5000 {
            n.step();
            if n.is_quiescent() {
                break;
            }
        }
        assert!(n.is_quiescent(), "network failed to drain");
        assert_eq!(n.stats().packets_ejected, 256);
        assert_eq!(n.stats().flits_ejected, 256 * 5);
    }

    #[test]
    fn latency_grows_with_distance() {
        let lat = |src: usize, dst: usize| {
            let mut n = net(16, 2);
            n.inject_packet(NodeId(src), NodeId(dst));
            for _ in 0..200 {
                n.step();
            }
            assert_eq!(n.stats().packets_ejected, 1);
            n.stats().avg_latency().unwrap()
        };
        let near = lat(0, 1);
        let far = lat(0, 15);
        assert!(far > near, "6-hop path must take longer than 1-hop");
        // Sanity: a 1-hop packet of 5 flits should complete within a few
        // dozen cycles.
        assert!(near < 30.0, "near latency = {near}");
    }

    #[test]
    fn profiled_run_is_bit_identical_and_times_every_stage() {
        let drive = |prof: &mut dyn FnMut(&mut Network)| {
            let mut n = net(16, 2);
            for src in 0..16 {
                n.inject_packet(NodeId(src), NodeId(15 - src));
            }
            for _ in 0..300 {
                prof(&mut n);
            }
            n
        };
        let plain = drive(&mut |n| n.step());
        let mut sp = StageProfiler::new();
        let t0 = noc_telemetry::clock::now();
        let profiled = drive(&mut |n| n.step_with(&mut sp));
        let wall = noc_telemetry::clock::ns_since(t0);
        // Timing is an observation, never an input: identical stats.
        assert_eq!(plain.stats(), profiled.stats());
        assert_eq!(plain.cycle(), profiled.cycle());
        // The inject, controller and monitor stages belong to the
        // experiment loop; the network itself records the other five,
        // once per cycle.
        let own = [
            Stage::BeginCycle,
            Stage::Routing,
            Stage::Allocation,
            Stage::Traversal,
            Stage::FinishCycle,
        ];
        for s in own {
            assert_eq!(sp.stage(s).count(), 300, "{} count", s.name());
        }
        assert_eq!(sp.stage(Stage::Controller).count(), 0);
        // The stages are disjoint laps, so together they fit in the wall
        // time of the loop that ran them.
        let staged: u64 = own.iter().map(|&s| sp.stage(s).sum()).sum();
        assert!(staged <= wall, "{staged} ns staged in {wall} ns");
    }

    #[test]
    fn port_ids_cover_connected_ports_only() {
        let n = net(4, 2);
        let ids = n.port_ids();
        // 2x2 mesh: each router has exactly 2 mesh neighbours, plus the
        // local input and the NIC eject port: 4 * (2 + 1 + 1) = 16.
        assert_eq!(ids.len(), 16);
        assert!(ids.iter().all(
            |p| !matches!(p.kind, PortKind::RouterInput(Direction::North) if p.node == NodeId(0))
        ));
    }

    #[test]
    fn views_report_new_traffic_and_statuses() {
        let mut n = net(4, 2);
        n.inject_packet(NodeId(0), NodeId(1));
        n.begin_cycle();
        // The NIC of node 0 has a queued packet: the local port pair sees
        // new traffic.
        let v = n.port_view(PortId::router_input(NodeId(0), Direction::Local));
        assert!(v.new_traffic);
        assert_eq!(v.vc_status, [IdleOn; 2]);
        // Unrelated port: no traffic.
        let v = n.port_view(PortId::router_input(NodeId(3), Direction::West));
        assert!(!v.new_traffic);
        n.finish_cycle();
    }

    #[test]
    fn gating_blocks_and_designation_unblocks_injection() {
        let mut n = net(4, 2);
        let local0 = PortId::router_input(NodeId(0), Direction::Local);
        n.inject_packet(NodeId(0), NodeId(1));
        // Gate everything on the local pair: injection must stall.
        for _ in 0..10 {
            n.begin_cycle();
            n.apply_gate(local0, GateAction::AllIdleOff);
            n.finish_cycle();
        }
        assert_eq!(n.stats().flits_sent, 0);
        assert_eq!(n.nic_queue_len(NodeId(0)), 1);
        // With no VC to take, the NIC is parked: its steps would change
        // nothing. The full-level check agrees.
        assert!(!bit_is_set(&n.active_nics, 0), "blocked NIC is parked");
        n.set_invariant_level(InvariantLevel::Full);
        // Designate VC 1: the gate command wakes the NIC and the packet
        // flows.
        for _ in 0..60 {
            n.begin_cycle();
            n.apply_gate(local0, GateAction::KeepOneIdle { vc: 1 });
            n.finish_cycle();
        }
        assert_eq!(n.stats().packets_ejected, 1);
        assert!(n.violations().is_empty(), "{:?}", n.violations());
    }

    /// Each gate action leaves exactly its designated idle VCs powered, and
    /// `NoChange` leaves the port as it was.
    #[test]
    fn gate_actions_keep_exactly_their_vcs() {
        let mut n = net(4, 4);
        let port = PortId::router_input(NodeId(0), Direction::East);
        n.begin_cycle();
        let mut gate = |action| {
            n.apply_gate(port, action);
            n.port_view(port).vc_status
        };
        assert_eq!(gate(GateAction::AllIdleOff), [Off; 4]);
        assert_eq!(gate(GateAction::AllOn), [IdleOn; 4]);
        let one = [Off, Off, IdleOn, Off];
        assert_eq!(gate(GateAction::KeepOneIdle { vc: 2 }), one);
        assert_eq!(gate(GateAction::NoChange), one);
        assert_eq!(gate(GateAction::KeepIdle { mask: 1 << 2 }), one);
        let two = [Off, IdleOn, Off, IdleOn];
        assert_eq!(gate(GateAction::KeepIdle { mask: 0b1010 }), two);
        n.finish_cycle();
    }

    #[test]
    fn traffic_flows_through_single_designated_vc() {
        // Stream many packets 0 -> 1 while keeping only VC 0 of every pair
        // powered: everything must still deliver, single-file.
        let mut n = net(4, 4);
        for _ in 0..10 {
            n.inject_packet(NodeId(0), NodeId(1));
        }
        for _ in 0..600 {
            n.begin_cycle();
            for pid in n.port_ids().to_vec() {
                n.apply_gate(pid, GateAction::KeepOneIdle { vc: 0 });
            }
            n.finish_cycle();
        }
        assert_eq!(n.stats().packets_ejected, 10);
        // Only VC 0 of the west input of router 1 ever saw flits.
        let west1 = PortId::router_input(NodeId(1), Direction::West);
        assert_eq!(n.flits_received(west1), 50);
    }

    #[test]
    fn flit_conservation_holds_mid_flight() {
        let mut n = net(16, 4);
        for i in 0..50 {
            n.inject_packet(NodeId(i % 16), NodeId((i * 7 + 3) % 16));
        }
        for _ in 0..40 {
            n.step();
            let sent = n.stats().flits_sent as usize;
            let ejected = n.stats().flits_ejected as usize;
            assert_eq!(sent - ejected, n.flits_in_network());
        }
    }

    #[test]
    #[should_panic(expected = "names VCs beyond")]
    fn oversized_mask_panics() {
        let mut n = net(4, 2);
        n.begin_cycle();
        n.apply_gate(
            PortId::router_input(NodeId(0), Direction::East),
            GateAction::KeepIdle { mask: 0b100 },
        );
    }

    #[test]
    fn eject_ports_are_gateable_too() {
        let mut n = net(4, 2);
        let eject = PortId::nic_eject(NodeId(2));
        n.begin_cycle();
        n.apply_gate(eject, GateAction::AllIdleOff);
        assert_eq!(n.port_view(eject).vc_status, [Off; 2]);
        n.finish_cycle();
        // Designating one VC lets traffic eject again.
        n.inject_packet(NodeId(0), NodeId(2));
        for _ in 0..100 {
            n.begin_cycle();
            n.apply_gate(eject, GateAction::KeepOneIdle { vc: 0 });
            n.finish_cycle();
        }
        assert_eq!(n.stats().packets_ejected, 1);
    }

    #[test]
    fn wakeup_latency_delays_allocation() {
        let flits_sent_by = |wakeup: u64, cycles: u64| {
            let mut cfg = NocConfig::paper_synthetic(4, 2);
            cfg.wakeup_latency = wakeup;
            let mut n = Network::new(cfg).unwrap();
            let local0 = PortId::router_input(NodeId(0), Direction::Local);
            // Start with the pair fully gated, then designate VC 0 forever.
            n.begin_cycle();
            n.apply_gate(local0, GateAction::AllIdleOff);
            n.finish_cycle();
            n.inject_packet(NodeId(0), NodeId(1));
            for _ in 0..cycles {
                n.begin_cycle();
                n.apply_gate(local0, GateAction::KeepOneIdle { vc: 0 });
                n.finish_cycle();
            }
            n.stats().flits_sent
        };
        // With zero wake-up the first flit leaves within a couple of
        // cycles; with an 8-cycle wake-up nothing can leave before it.
        assert!(flits_sent_by(0, 4) > 0);
        assert_eq!(flits_sent_by(8, 6), 0);
        assert!(flits_sent_by(8, 20) > 0, "traffic must flow after wake-up");
    }

    #[test]
    fn wakeup_latency_preserves_delivery() {
        let mut cfg = NocConfig::paper_synthetic(4, 2);
        cfg.wakeup_latency = 4;
        let mut n = Network::new(cfg).unwrap();
        for _ in 0..5 {
            n.inject_packet(NodeId(0), NodeId(3));
        }
        for c in 0..1_000u64 {
            n.begin_cycle();
            for pid in n.port_ids().to_vec() {
                // A stable designation per port (avoids rotating faster
                // than the wake-up, which would starve).
                let _ = c;
                n.apply_gate(pid, GateAction::KeepOneIdle { vc: 1 });
            }
            n.finish_cycle();
            if n.is_quiescent() {
                break;
            }
        }
        assert_eq!(n.stats().packets_ejected, 5);
    }

    #[test]
    fn traced_run_matches_untraced_and_records_events() {
        use noc_telemetry::{EventKind, RecordSink};
        fn drive<T: TraceSink>(net: &mut Network<T>) {
            net.inject_packet(NodeId(0), NodeId(3));
            for _ in 0..100 {
                net.begin_cycle();
                for pid in net.port_ids().to_vec() {
                    net.apply_gate(pid, GateAction::KeepOneIdle { vc: 0 });
                }
                net.finish_cycle();
            }
        }
        let mut plain = net(4, 2);
        drive(&mut plain);
        let mut traced =
            Network::with_sink(NocConfig::paper_synthetic(4, 2), RecordSink::unbounded()).unwrap();
        drive(&mut traced);
        // Tracing must not perturb the simulation.
        assert_eq!(plain.stats(), traced.stats());
        assert_eq!(plain.work_counters(), traced.work_counters());
        let log = traced.trace_mut().harvest().expect("record sink harvests");
        assert_eq!(log.total as usize, log.events.len());
        let count = |tag: &str| log.events.iter().filter(|e| e.kind.tag() == tag).count() as u64;
        assert!(count("gate_off") > 0, "gating produced transitions");
        assert_eq!(count("va"), traced.work_counters().va_grants);
        assert_eq!(count("inject"), traced.stats().flits_sent);
        assert_eq!(count("eject"), traced.stats().flits_ejected);
        assert_eq!(count("done"), traced.stats().packets_ejected);
        // Flit conservation, seen through the trace.
        let _ = EventKind::TAGS; // tag strings above come from this table
    }

    #[test]
    fn up_down_is_traced_on_change_only_and_churn_accumulates() {
        use noc_telemetry::RecordSink;
        let mut n =
            Network::with_sink(NocConfig::paper_synthetic(4, 2), RecordSink::unbounded()).unwrap();
        let port = PortId::router_input(NodeId(0), Direction::East);
        for _ in 0..5 {
            n.begin_cycle();
            n.apply_gate(port, GateAction::AllIdleOff);
            n.finish_cycle();
        }
        assert_eq!(n.gate_transitions(port), 2, "two VCs gated once");
        assert_eq!(n.powered_vc_count(port), 0);
        assert_eq!(n.port_occupancy(port), 0);
        let log = n.trace_mut().harvest().expect("record sink harvests");
        let up_downs = log
            .events
            .iter()
            .filter(|e| e.kind.tag() == "up_down")
            .count();
        assert_eq!(up_downs, 1, "repeating the same mask is not re-traced");
        let gate_offs = log
            .events
            .iter()
            .filter(|e| e.kind.tag() == "gate_off")
            .count();
        assert_eq!(gate_offs, 2);
    }

    #[test]
    fn work_counters_track_flit_movement() {
        let mut n = net(4, 2);
        n.inject_packet(NodeId(0), NodeId(3));
        for _ in 0..100 {
            n.step();
        }
        let w = n.work_counters();
        // The 5-flit packet 0 -> 3 crosses routers 0, 1 and 3: 15 router
        // buffer writes plus 5 ejection-buffer writes at the NIC.
        assert_eq!(w.bw_writes, 20);
        assert_eq!(w.rc_computes, 3, "one RC per router the head visits");
        assert_eq!(w.va_grants, 3, "one VA grant per traversed router");
        assert_eq!(w.sa_grants, 15, "5 flits through 3 crossbars");
        assert_eq!(w.gate_commands, 0);
    }

    #[test]
    #[should_panic(expected = "begin_cycle called twice")]
    fn double_begin_panics() {
        let mut n = net(4, 2);
        n.begin_cycle();
        n.begin_cycle();
    }

    #[test]
    #[should_panic(expected = "apply_gate must run between")]
    fn gate_outside_window_panics() {
        let mut n = net(4, 2);
        n.apply_gate(
            PortId::router_input(NodeId(0), Direction::East),
            GateAction::AllIdleOff,
        );
    }

    #[test]
    #[should_panic(expected = "no upstream link")]
    fn view_of_boundary_port_panics() {
        let n = net(4, 2);
        let _ = n.port_view(PortId::router_input(NodeId(0), Direction::North));
    }

    /// Steps past quiescence until every credit loop has closed.
    fn drain_and_settle(n: &mut Network) {
        for _ in 0..5_000 {
            n.step();
            if n.is_quiescent() {
                break;
            }
        }
        assert!(n.is_quiescent(), "network failed to drain");
        let settle = n.config().credit_latency + n.config().link_latency + 2;
        for _ in 0..settle {
            n.step();
        }
    }

    #[test]
    fn snapshot_refuses_unsettled_state() {
        let mut n = net(4, 2);
        n.inject_packet(NodeId(0), NodeId(3));
        n.step();
        assert!(matches!(
            n.snapshot(),
            Err(SnapshotStateError::NotQuiescent { .. })
        ));
    }

    #[test]
    fn restore_refuses_stepped_target_and_wrong_shape() {
        let mut a = net(4, 2);
        drain_and_settle(&mut a);
        let snap = a.snapshot().expect("settled network snapshots");
        let mut stepped = net(4, 2);
        stepped.step();
        assert!(matches!(
            stepped.restore(&snap),
            Err(SnapshotStateError::TargetNotFresh { .. })
        ));
        let mut other_shape = net(16, 2);
        assert!(matches!(
            other_shape.restore(&snap),
            Err(SnapshotStateError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        // Phase 1 on A only: cross traffic plus gating churn, so arbiter
        // pointers, gating masks and lifetime counters all leave their
        // reset values before the boundary.
        let mut a = net(16, 2);
        let gated = PortId::router_input(NodeId(5), Direction::East);
        for i in 0..16 {
            a.inject_packet(NodeId(i), NodeId(15 - i));
        }
        for _ in 0..40 {
            a.begin_cycle();
            a.apply_gate(gated, GateAction::NoChange);
            a.finish_cycle();
        }
        drain_and_settle(&mut a);
        a.begin_cycle();
        a.apply_gate(gated, GateAction::KeepOneIdle { vc: 1 });
        a.finish_cycle();
        drain_and_settle(&mut a);

        let snap = a.snapshot().expect("settled network snapshots");
        let mut b = net(16, 2);
        b.restore(&snap).expect("same-shape restore");
        assert_eq!(b.cycle(), a.cycle());
        assert_eq!(b.snapshot().expect("still settled"), snap);

        // Phase 2 on both: identical inputs must produce identical
        // behaviour, including the gating state carried over.
        for n in [&mut a, &mut b] {
            for i in 0..16 {
                n.inject_packet(NodeId(i), NodeId((i * 7) % 16));
            }
            for _ in 0..600 {
                n.step();
            }
        }
        assert!(a.is_quiescent() && b.is_quiescent());
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.work_counters(), b.work_counters());
        assert_eq!(
            a.powered_vc_count(gated),
            b.powered_vc_count(gated),
            "gating mask must survive the round-trip"
        );
        assert_eq!(
            a.snapshot().expect("drained"),
            b.snapshot().expect("drained"),
            "post-resume snapshots must be bit-identical"
        );
    }
}
