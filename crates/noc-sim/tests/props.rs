//! Property-based tests of the simulator's building blocks.

use noc_sim::arbiter::RoundRobinArbiter;
use noc_sim::flit::split_packet;
use noc_sim::prelude::*;
use proptest::prelude::*;

/// The probe order the mask arbiter must reproduce: `next..n`, then
/// `0..next`, granting the first requester.
fn probe_order_grant(requesting: &[bool], next: usize) -> Option<usize> {
    (next..requesting.len())
        .chain(0..next)
        .find(|&i| requesting[i])
}

proptest! {
    /// The arbiter only grants actual requesters and is starvation-free:
    /// over `n` consecutive rounds with a fixed request set, every
    /// requester wins at least once.
    #[test]
    fn arbiter_is_fair_and_sound(
        n in 1usize..12,
        mask in proptest::collection::vec(any::<bool>(), 1..12),
    ) {
        let n = n.min(mask.len());
        let mask = &mask[..n];
        let word = mask
            .iter()
            .enumerate()
            .fold(0u32, |w, (i, &r)| w | (u32::from(r) << i));
        let mut arb = RoundRobinArbiter::new(n);
        let requesters: Vec<usize> =
            (0..n).filter(|&i| mask[i]).collect();
        let mut wins = vec![0usize; n];
        for _ in 0..n {
            if let Some(g) = arb.grant(&[word]) {
                prop_assert!(mask[g], "granted a non-requester");
                wins[g] += 1;
            } else {
                prop_assert!(requesters.is_empty());
            }
        }
        for &r in &requesters {
            prop_assert!(wins[r] >= 1, "requester {r} starved: {wins:?}");
        }
    }

    /// Mask rotation is exactly the probe order, for every shape up to
    /// the VC allocator's largest (five words of 32 VCs, n = 160), every
    /// priority pointer and every request set, dense or sparse, over a
    /// few consecutive rounds.
    #[test]
    fn mask_grants_equal_the_probe_order(
        words in 1usize..=5,
        stride in 1usize..=32,
        next in 0usize..160,
        dense in proptest::collection::vec(any::<u32>(), 5..6),
        thin in proptest::collection::vec(any::<u32>(), 5..6),
        sparse in any::<bool>(),
        empty_word in 0usize..8,
    ) {
        let n = words * stride;
        let stride_mask = if stride == 32 { u32::MAX } else { (1u32 << stride) - 1 };
        let requests: Vec<u32> = (0..words)
            .map(|w| {
                let bits = if sparse { dense[w] & thin[w] } else { dense[w] };
                if w == empty_word { 0 } else { bits & stride_mask }
            })
            .collect();
        let requesting: Vec<bool> = (0..n)
            .map(|i| requests[i / stride] & (1 << (i % stride)) != 0)
            .collect();
        let mut arb = RoundRobinArbiter::with_words(words, stride);
        prop_assert_eq!(arb.len(), n);
        let mut expect_next = next % n;
        arb.set_priority(expect_next);
        prop_assert_eq!(arb.priority(), expect_next);
        for _ in 0..3 {
            let want = probe_order_grant(&requesting, expect_next);
            prop_assert_eq!(arb.grant(&requests), want);
            if let Some(g) = want {
                expect_next = (g + 1) % n;
            }
            prop_assert_eq!(arb.priority(), expect_next);
        }
    }

    /// Packet splitting: exactly one head, one tail, contiguous sequence
    /// numbers, and kind flags consistent with position.
    #[test]
    fn split_packet_is_well_formed(len in 1usize..40, packet in 0u32..16) {
        let flits = split_packet(packet, len);
        prop_assert_eq!(flits.len(), len);
        prop_assert_eq!(flits.iter().filter(|f| f.is_head()).count(), 1);
        prop_assert_eq!(flits.iter().filter(|f| f.is_tail()).count(), 1);
        prop_assert!(flits[0].is_head());
        prop_assert!(flits[len - 1].is_tail());
        for (i, f) in flits.iter().enumerate() {
            prop_assert_eq!(f.seq as usize, i);
            prop_assert_eq!(f.packet, packet);
        }
    }

    /// Dimension-ordered routing always takes a minimal step: following the
    /// routed direction reduces the hop distance by exactly one.
    #[test]
    fn routing_is_minimal(
        cols in 1usize..6,
        rows in 1usize..6,
        a in 0usize..36,
        b in 0usize..36,
        yx in any::<bool>(),
    ) {
        let mesh = Mesh2D::new(cols, rows);
        let (a, b) = (a % mesh.num_nodes(), b % mesh.num_nodes());
        let (a, b) = (NodeId(a), NodeId(b));
        let alg = if yx { RoutingAlgorithm::YX } else { RoutingAlgorithm::XY };
        let mut cur = a;
        let mut steps = 0usize;
        while cur != b {
            let dir = alg.route(&mesh, cur, b);
            prop_assert_ne!(dir, Direction::Local);
            let next = mesh.neighbor(cur, dir).expect("stays in mesh");
            prop_assert_eq!(
                mesh.hop_distance(next, b) + 1,
                mesh.hop_distance(cur, b),
                "non-minimal step"
            );
            cur = next;
            steps += 1;
            prop_assert!(steps <= cols + rows, "routing loop");
        }
        prop_assert_eq!(steps, mesh.hop_distance(a, b));
    }

    /// Mesh coordinates and neighbour relations are mutually consistent.
    #[test]
    fn mesh_neighbors_are_consistent(cols in 1usize..8, rows in 1usize..8) {
        let mesh = Mesh2D::new(cols, rows);
        for node in mesh.nodes() {
            let mut degree = 0;
            for d in Direction::MESH {
                if let Some(n) = mesh.neighbor(node, d) {
                    degree += 1;
                    prop_assert_eq!(mesh.hop_distance(node, n), 1);
                    prop_assert_eq!(mesh.neighbor(n, d.opposite()), Some(node));
                }
            }
            let (x, y) = mesh.coords(node);
            let expect = usize::from(x > 0)
                + usize::from(x + 1 < cols)
                + usize::from(y > 0)
                + usize::from(y + 1 < rows);
            prop_assert_eq!(degree, expect);
        }
    }

    /// The network delivers every packet of a random batch and the latency
    /// of each hop count is at least the pipeline lower bound.
    #[test]
    fn batch_delivery_with_sane_latency(
        pairs in proptest::collection::vec((0usize..9, 0usize..9), 1..12),
    ) {
        let mut net = Network::new(NocConfig {
            cols: 3,
            rows: 3,
            vcs_per_port: 2,
            ..NocConfig::default()
        }).unwrap();
        for &(s, d) in &pairs {
            net.inject_packet(NodeId(s), NodeId(d));
        }
        for _ in 0..4_000 {
            net.step();
            if net.is_quiescent() {
                break;
            }
        }
        prop_assert!(net.is_quiescent());
        prop_assert_eq!(net.stats().packets_ejected, pairs.len() as u64);
        // Minimum latency: inject + at least one router traversal + eject.
        if let Some(avg) = net.stats().avg_latency() {
            prop_assert!(avg >= 5.0, "implausibly low latency {avg}");
        }
    }

    /// Permanently keeping a single designated VC still delivers all
    /// traffic (the paper's single-flit-per-cycle argument).
    #[test]
    fn single_designated_vc_suffices(
        pairs in proptest::collection::vec((0usize..4, 0usize..4), 1..10),
        vc in 0usize..2,
    ) {
        let mut net = Network::new(NocConfig::paper_synthetic(4, 2)).unwrap();
        for &(s, d) in &pairs {
            net.inject_packet(NodeId(s), NodeId(d));
        }
        for _ in 0..6_000 {
            net.begin_cycle();
            for pid in net.port_ids().to_vec() {
                net.apply_gate(pid, GateAction::KeepOneIdle { vc });
            }
            net.finish_cycle();
            if net.is_quiescent() {
                break;
            }
        }
        prop_assert!(net.is_quiescent(), "gated network failed to drain");
        prop_assert_eq!(net.stats().packets_ejected, pairs.len() as u64);
    }

    /// The due schedule against a scan of every link FIFO. On random
    /// meshes with link and credit latencies of 1–4 cycles and random
    /// traffic, each `begin_cycle` must take from every link exactly the
    /// flits and credits a scan finds due, in FIFO order, leave every other
    /// entry where it was, and report as delivered exactly the links the
    /// scan found flits due on. Once the traffic has drained nothing is
    /// due anywhere.
    #[test]
    fn due_schedule_delivers_what_a_scan_of_every_link_finds(
        cols in 1usize..=4,
        rows in 1usize..=4,
        vcs in 1usize..=3,
        link_latency in 1u64..=4,
        credit_latency in 1u64..=4,
        packets in proptest::collection::vec((0usize..16, 0usize..16, 0u64..80, 1usize..7), 1..40),
    ) {
        let mut net = Network::new(NocConfig {
            cols,
            rows,
            vcs_per_port: vcs,
            link_latency,
            credit_latency,
            ..NocConfig::default()
        }).unwrap();
        let nodes = cols * rows;
        let ports: Vec<PortId> = net.port_ids().to_vec();
        let mut settled = 0;
        for cycle in 0..6_000u64 {
            for &(s, d, at, len) in &packets {
                if at == cycle {
                    net.inject_packet_with_len(NodeId(s % nodes), NodeId(d % nodes), len);
                }
            }
            let now = net.cycle();
            let flits: Vec<_> = (0..ports.len()).map(|s| net.link_flits(s)).collect();
            let credits: Vec<_> = (0..ports.len()).map(|s| net.link_credits(s)).collect();
            let received: Vec<u64> = ports.iter().map(|&p| net.flits_received(p)).collect();
            net.begin_cycle();
            let mut scanned = Vec::new();
            for (s, &port) in ports.iter().enumerate() {
                let due = flits[s].iter().filter(|&&(t, _)| t <= now).count();
                prop_assert!(flits[s][..due].iter().all(|&(t, _)| t <= now), "{port}: FIFO out of order");
                prop_assert_eq!(&net.link_flits(s)[..], &flits[s][due..], "{}: flits", port);
                prop_assert_eq!(net.flits_received(port) - received[s], due as u64);
                let due_credits = credits[s].iter().filter(|&&(t, ..)| t <= now).count();
                prop_assert!(credits[s][..due_credits].iter().all(|&(t, ..)| t <= now));
                prop_assert_eq!(&net.link_credits(s)[..], &credits[s][due_credits..], "{}: credits", port);
                if due > 0 {
                    scanned.push(s as u32);
                }
            }
            let mut delivered = net.delivered_slots().to_vec();
            delivered.sort_unstable();
            prop_assert_eq!(delivered, scanned);
            net.finish_cycle();
            let last_injection = packets.iter().map(|p| p.2).max().unwrap_or(0);
            if cycle > last_injection && net.is_quiescent() {
                settled += 1;
                if settled > link_latency + credit_latency + 2 {
                    break;
                }
            }
        }
        prop_assert!(net.is_quiescent(), "traffic failed to drain");
        for s in 0..ports.len() {
            prop_assert!(net.link_flits(s).is_empty() && net.link_credits(s).is_empty());
        }
        net.step();
        prop_assert!(net.delivered_slots().is_empty());
        prop_assert_eq!(net.stats().packets_ejected, packets.len() as u64);
    }
}
