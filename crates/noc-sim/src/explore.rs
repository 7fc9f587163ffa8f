//! Canonical state encoding for exhaustive protocol exploration.
//!
//! The `noc-modelcheck` crate enumerates every reachable whole-cycle state
//! of a small mesh by breadth-first search. This module provides the piece
//! that must live inside `noc-sim` because it reads router/NIC internals:
//! a **compact canonical byte encoding** of a [`Network`]'s
//! behaviour-relevant state, plus the symmetry relabelings the explorer
//! uses to merge orbit-equivalent states.
//!
//! # The encoding contract
//!
//! [`encode`] packs, per router and NIC, everything that can influence any
//! future cycle:
//!
//! * per input VC: power state, the VA state machine
//!   (idle/waiting/active with routed outport and allocated out-VC, read
//!   off the router's `waiting` and the unit's `active` masks) and the
//!   buffered flits,
//! * the in-flight flit arrival queue of every input unit (relative due
//!   times),
//! * per output VC: allocation state, credit count, allocatability and
//!   wake-up delay; plus the in-flight credit queue,
//! * every round-robin arbiter pointer (VA, SA per-output, SA per-input),
//! * NIC injection queue, streaming state and eject-side buffers.
//!
//! Everything time-like is encoded *relative* to the current cycle
//! (saturating at zero, capped at [`DELTA_CAP`]), so two states reached at
//! different absolute cycles compare equal when their future behaviour is
//! identical. Packet identifiers are renumbered in order of first
//! appearance inside the scan for the same reason. Statistics counters,
//! flit sources and injection timestamps are deliberately excluded: they
//! never feed back into simulation decisions.
//!
//! States may only be encoded at the cycle boundary
//! ([`Network::at_cycle_boundary`]): the mid-cycle controller slot is not a
//! state of the explored transition system, it is *part of the transition*.
//!
//! # Symmetry reduction
//!
//! [`encode_canonical`] returns the lexicographic minimum of the encoding
//! over a symmetry group: the mesh reflections that preserve XY routing
//! (identity, X flip, Y flip and their composition — 90° rotations swap
//! the routing dimensions and are therefore *not* automorphisms) crossed
//! with all virtual-channel permutations. Round-robin arbiter pointers are
//! **excluded** from the relabeled encodings: a pointer is an index into a
//! fixed cyclic order, and a mesh/VC relabeling is not in general a cyclic
//! rotation, so no relabeled pointer value would be faithful. Canonical
//! mode therefore merges states *up to arbitration fairness position* — a
//! documented abstraction (bugs that depend on a specific round-robin
//! phase can hide in a merged orbit), which is why the exhaustive CI gate
//! runs with symmetry off and the `--symmetry` mode is an opt-in
//! state-count reducer.

use crate::flit::{Flit, FlitKind, PacketId};
use crate::network::Network;
use crate::router::{NO_SLOT, NUM_PORTS};
use crate::types::Direction;
use noc_telemetry::TraceSink;
use std::collections::BTreeMap;

/// Relative times saturate at this value in the encoding. Latencies in an
/// explorable configuration are single-digit cycles, so the cap is never
/// reached by a behaviour-relevant delta.
pub const DELTA_CAP: u64 = 255;

/// A relabeling of the mesh: node, direction and VC permutations, stored
/// as inverse maps (`*_inv[new] = old`) for the encoder's scan order plus
/// forward maps (`*_fwd[old] = new`) for values embedded in the state.
#[derive(Debug, Clone)]
struct Relabel {
    node_fwd: Vec<usize>,
    node_inv: Vec<usize>,
    dir_fwd: [usize; NUM_PORTS],
    dir_inv: [usize; NUM_PORTS],
    vc_fwd: Vec<usize>,
    vc_inv: Vec<usize>,
    /// Identity relabelings keep arbiter pointers in the encoding; see the
    /// module docs for why relabeled pointers are dropped.
    identity: bool,
}

impl Relabel {
    fn identity(nodes: usize, vcs: usize) -> Self {
        Relabel {
            node_fwd: (0..nodes).collect(),
            node_inv: (0..nodes).collect(),
            dir_fwd: [0, 1, 2, 3, 4],
            dir_inv: [0, 1, 2, 3, 4],
            vc_fwd: (0..vcs).collect(),
            vc_inv: (0..vcs).collect(),
            identity: true,
        }
    }
}

/// Inverts a permutation.
fn invert(perm: &[usize]) -> Vec<usize> {
    let mut inv = vec![0; perm.len()];
    for (old, &new) in perm.iter().enumerate() {
        inv[new] = old;
    }
    inv
}

/// All permutations of `0..n` in deterministic (lexicographic) order.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    fn rec(prefix: &mut Vec<usize>, rest: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if rest.is_empty() {
            out.push(prefix.clone());
            return;
        }
        for i in 0..rest.len() {
            let v = rest.remove(i);
            prefix.push(v);
            rec(prefix, rest, out);
            prefix.pop();
            rest.insert(i, v);
        }
    }
    let mut out = Vec::new();
    rec(&mut Vec::new(), &mut (0..n).collect(), &mut out);
    out
}

/// The XY-routing-preserving mesh symmetries crossed with VC permutations.
/// VC permutation counts are capped at `4! = 24` (beyond that the orbit
/// sweep would dominate the exploration itself); larger configurations
/// fall back to the spatial group alone.
fn symmetry_group(cols: usize, rows: usize, vcs: usize) -> Vec<Relabel> {
    let nodes = cols * rows;
    let vc_perms = if vcs <= 4 {
        permutations(vcs)
    } else {
        vec![(0..vcs).collect()]
    };
    let mut group = Vec::new();
    for flip_x in [false, true] {
        for flip_y in [false, true] {
            let node_fwd: Vec<usize> = (0..nodes)
                .map(|n| {
                    let (x, y) = (n % cols, n / cols);
                    let x = if flip_x { cols - 1 - x } else { x };
                    let y = if flip_y { rows - 1 - y } else { y };
                    y * cols + x
                })
                .collect();
            let mut dir_fwd = [0usize; NUM_PORTS];
            for d in Direction::ALL {
                let mapped = match d {
                    Direction::East if flip_x => Direction::West,
                    Direction::West if flip_x => Direction::East,
                    Direction::North if flip_y => Direction::South,
                    Direction::South if flip_y => Direction::North,
                    other => other,
                };
                dir_fwd[d.index()] = mapped.index();
            }
            for vc_fwd in &vc_perms {
                let identity =
                    !flip_x && !flip_y && vc_fwd.iter().enumerate().all(|(i, &v)| i == v);
                group.push(Relabel {
                    node_fwd: node_fwd.clone(),
                    node_inv: invert(&node_fwd),
                    dir_fwd,
                    dir_inv: {
                        let inv = invert(&dir_fwd);
                        [inv[0], inv[1], inv[2], inv[3], inv[4]]
                    },
                    vc_fwd: vc_fwd.clone(),
                    vc_inv: invert(vc_fwd),
                    identity,
                });
            }
        }
    }
    group
}

/// Encoder scratch state: the output buffer plus the packet-id renumbering
/// established in scan order.
struct Encoder<'a> {
    out: Vec<u8>,
    ids: BTreeMap<u64, u8>,
    now: u64,
    relabel: &'a Relabel,
}

impl Encoder<'_> {
    fn push(&mut self, b: u8) {
        self.out.push(b);
    }

    fn delta(&mut self, t: u64) {
        self.push(t.saturating_sub(self.now).min(DELTA_CAP) as u8);
    }

    fn packet(&mut self, id: PacketId) {
        let next = self.ids.len() as u8;
        let v = *self.ids.entry(id.0).or_insert(next);
        self.push(v);
    }

    fn flit<T: TraceSink>(&mut self, net: &Network<T>, f: &Flit) {
        let info = net.packets.get(f.packet);
        self.packet(info.id);
        self.push(match f.kind {
            FlitKind::Head => 0,
            FlitKind::Body => 1,
            FlitKind::Tail => 2,
            FlitKind::HeadTail => 3,
        });
        self.push(self.relabel.node_fwd[info.dst.index()] as u8);
        self.push(f.seq.min(255) as u8);
        self.push(self.relabel.vc_fwd[usize::from(f.vc)] as u8);
        self.ready_delta();
    }

    /// A flit's or a head's switch/VA readiness delay. `fresh` only marks
    /// VCs written in the cycle that just ended, so at the cycle boundary
    /// every buffered flit is ready and the delay is 0. The byte stays so
    /// that encodings, and the explorer's state counts, keep their form.
    fn ready_delta(&mut self) {
        self.push(0);
    }

    /// The downstream side of the port at `slot`: its input VCs and the
    /// flits on its link. A boundary port ([`NO_SLOT`]) is gated, idle and
    /// empty forever. `waiting` holds the slot's VCs that wait for VA
    /// (router inputs). A NIC's ejection side (`eject`) has no VA: its
    /// active VCs keep the encoding of a head waiting on the local port.
    fn input_unit<T: TraceSink>(&mut self, net: &Network<T>, slot: u32, waiting: u32, eject: bool) {
        let vcs = self.relabel.vc_inv.len();
        if slot == NO_SLOT {
            // Per VC: unpowered, idle, ready, no flit; no flit in flight.
            self.out.resize(self.out.len() + 6 * vcs + 1, 0);
            return;
        }
        let (arena, slot) = (&net.arena, slot as usize);
        let m = arena.masks[slot];
        for new_v in 0..vcs {
            let old_v = self.relabel.vc_inv[new_v];
            let vc = arena.in_vcs[arena.vc_index(slot, old_v)];
            let route = self.relabel.dir_fwd[usize::from(vc.route)] as u8;
            let bit = 1 << old_v;
            self.push(u8::from(m.powered & bit != 0));
            // An ejection VC's route stays `Local`.
            let state = if waiting & bit != 0 || (eject && m.in_active & bit != 0) {
                [1, route, 0]
            } else if m.in_active & bit != 0 {
                [2, route, self.relabel.vc_fwd[usize::from(vc.out_vc)] as u8]
            } else {
                [0; 3]
            };
            self.out.extend_from_slice(&state);
            self.ready_delta();
            self.push(vc.len);
            for f in arena.buffer(slot, old_v) {
                self.flit(net, f);
            }
        }
        self.push(net.due.flits_into(slot).count() as u8);
        for (due, f) in net.due.flits_into(slot) {
            self.delta(due);
            self.flit(net, &f);
        }
    }

    /// The upstream side of the port at `slot`: its output VCs and the
    /// credits returning to it, then the VA and output-SA arbiter pointers
    /// `arbiters`. A boundary port ([`NO_SLOT`]) keeps idle, allocatable
    /// VCs with full credits forever.
    fn output_unit<T: TraceSink>(&mut self, net: &Network<T>, slot: u32, arbiters: [usize; 2]) {
        let vcs = self.relabel.vc_inv.len();
        if slot == NO_SLOT {
            let depth = net.config().buffer_depth as u8;
            for _ in 0..vcs {
                self.out.extend_from_slice(&[0, depth, 1, 0]);
            }
            self.push(0);
        } else {
            let (arena, slot) = (&net.arena, slot as usize);
            let m = arena.masks[slot];
            for new_v in 0..vcs {
                let old_v = self.relabel.vc_inv[new_v];
                let i = arena.vc_index(slot, old_v);
                self.push(u8::from(m.out_active & (1 << old_v) != 0));
                self.push(arena.credits[i] as u8);
                self.push(u8::from(m.allocatable & (1 << old_v) != 0));
                self.delta(arena.usable_at[i]);
            }
            self.push(net.due.credits_to(slot).count() as u8);
            for (due, credit) in net.due.credits_to(slot) {
                self.delta(due);
                self.push(self.relabel.vc_fwd[usize::from(credit.vc)] as u8);
                self.push(u8::from(credit.is_free));
            }
        }
        if self.relabel.identity {
            self.push(arbiters[0] as u8);
            self.push(arbiters[1] as u8);
        }
    }
}

/// Encodes the network state with the given relabeling.
fn encode_with<T: TraceSink>(net: &Network<T>, relabel: &Relabel) -> Vec<u8> {
    assert!(
        net.at_cycle_boundary(),
        "states are only encoded at the cycle boundary"
    );
    let vcs = net.config().vcs_per_port;
    let mut e = Encoder {
        out: Vec::with_capacity(1024),
        ids: BTreeMap::new(),
        now: net.cycle(),
        relabel,
    };
    let nodes = net.topology().num_nodes();
    for new_n in 0..nodes {
        let old_n = relabel.node_inv[new_n];
        let router = &net.routers[old_n];
        for new_d in 0..NUM_PORTS {
            let old_d = relabel.dir_inv[new_d];
            e.input_unit(net, router.in_slot[old_d], router.waiting_at(old_d), false);
        }
        for new_d in 0..NUM_PORTS {
            let old_d = relabel.dir_inv[new_d];
            let arbiters = [
                router.va_arbs[old_d].priority(),
                router.sa_out_arbs[old_d].priority(),
            ];
            e.output_unit(net, router.out_slot[old_d], arbiters);
        }
        if relabel.identity {
            for new_d in 0..NUM_PORTS {
                let old_d = relabel.dir_inv[new_d];
                e.push(router.sa_in_arbs[old_d].priority() as u8);
            }
        }
        let nic = &net.nics[old_n];
        e.push(nic.queue.len() as u8);
        for p in &nic.queue {
            let (id, dst, len) = (p.id, p.dst, p.len);
            e.packet(id);
            e.push(relabel.node_fwd[dst.index()] as u8);
            e.push(len.min(255) as u8);
        }
        match &nic.current {
            None => e.push(0),
            Some(tx) => {
                let (id, dst, len, seq, out_vc) = (
                    tx.packet.id,
                    tx.packet.dst,
                    tx.packet.len,
                    tx.next_seq,
                    tx.out_vc,
                );
                e.push(1);
                e.packet(id);
                e.push(relabel.node_fwd[dst.index()] as u8);
                e.push(len.min(255) as u8);
                e.push(seq.min(255) as u8);
                e.push(relabel.vc_fwd[out_vc] as u8);
            }
        }
        // A NIC allocates without arbitration: its pointers stay at 0.
        e.output_unit(net, nic.inject as u32, [0, 0]);
        e.input_unit(net, nic.eject as u32, 0, true);
    }
    debug_assert!(vcs <= 255, "encoding uses one byte per VC index");
    e.out
}

/// The exact whole-cycle state encoding (identity relabeling, arbiter
/// pointers included). Two networks with equal encodings behave
/// identically under identical future inputs.
///
/// # Panics
///
/// Panics when called mid-cycle (between [`Network::begin_cycle`] and
/// [`Network::finish_cycle`]).
pub fn encode<T: TraceSink>(net: &Network<T>) -> Vec<u8> {
    encode_with(
        net,
        &Relabel::identity(net.topology().num_nodes(), net.config().vcs_per_port),
    )
}

/// The canonical encoding under the symmetry group (see the module docs
/// for the group and the arbiter-pointer abstraction): the lexicographic
/// minimum over every orbit member.
///
/// # Panics
///
/// Panics when called mid-cycle.
pub fn encode_canonical<T: TraceSink>(net: &Network<T>) -> Vec<u8> {
    let cfg = net.config();
    symmetry_group(cfg.cols, cfg.rows, cfg.vcs_per_port)
        .iter()
        .map(|r| {
            // Canonical mode drops arbiter pointers from *every* orbit
            // member (identity included) so orbit members compare over the
            // same fields.
            let mut r = r.clone();
            r.identity = false;
            encode_with(net, &r)
        })
        .min()
        // The group always contains at least the identity.
        .unwrap_or_default()
}

/// The number of relabelings [`encode_canonical`] sweeps for a
/// configuration (4 spatial × `min(V, 4)!` VC permutations).
pub fn orbit_size(cols: usize, rows: usize, vcs: usize) -> usize {
    symmetry_group(cols, rows, vcs).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NocConfig;
    use crate::types::NodeId;

    fn small() -> NocConfig {
        NocConfig {
            cols: 2,
            rows: 2,
            vcs_per_port: 2,
            buffer_depth: 2,
            flits_per_packet: 2,
            ..NocConfig::default()
        }
    }

    #[test]
    fn identical_histories_encode_identically() {
        let mut a = Network::new(small()).unwrap();
        let mut b = Network::new(small()).unwrap();
        for net in [&mut a, &mut b] {
            net.inject_packet(NodeId(0), NodeId(3));
            for _ in 0..5 {
                net.step();
            }
        }
        assert_eq!(encode(&a), encode(&b));
        assert_eq!(encode_canonical(&a), encode_canonical(&b));
    }

    #[test]
    fn a_step_with_traffic_changes_the_encoding() {
        let mut net = Network::new(small()).unwrap();
        let before = encode(&net);
        net.inject_packet(NodeId(0), NodeId(3));
        net.step();
        assert_ne!(before, encode(&net));
    }

    #[test]
    fn encoding_is_relative_to_the_current_cycle() {
        // An empty network idling forward stays in the same canonical
        // state: absolute time must not leak into the encoding.
        let mut net = Network::new(small()).unwrap();
        let fresh = encode(&net);
        for _ in 0..7 {
            net.step();
        }
        assert_eq!(fresh, encode(&net));
    }

    #[test]
    fn mirrored_scenarios_share_a_canonical_encoding() {
        // Injecting 0→3 and its 180°-rotated twin 3→0 are the same state
        // up to relabeling before any arbitration has happened.
        let mut a = Network::new(small()).unwrap();
        let mut b = Network::new(small()).unwrap();
        a.inject_packet(NodeId(0), NodeId(3));
        b.inject_packet(NodeId(3), NodeId(0));
        assert_ne!(encode(&a), encode(&b));
        assert_eq!(encode_canonical(&a), encode_canonical(&b));
    }

    #[test]
    fn orbit_size_matches_the_group() {
        assert_eq!(orbit_size(2, 2, 2), 4 * 2);
        assert_eq!(orbit_size(2, 2, 3), 4 * 6);
        assert_eq!(orbit_size(3, 3, 5), 4);
    }

    #[test]
    #[should_panic(expected = "cycle boundary")]
    fn encoding_mid_cycle_panics() {
        let mut net = Network::new(small()).unwrap();
        net.begin_cycle();
        let _ = encode(&net);
    }
}
