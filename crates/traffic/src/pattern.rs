//! Synthetic destination patterns.
//!
//! The paper's synthetic evaluation (Section IV-B) uses *uniform* traffic;
//! the rest of the classic pattern family is provided for the extension
//! sweeps. Permutation patterns follow the standard definitions (Dally &
//! Towles): bit-style patterns assume a power-of-two node count and fall
//! back to a documented equivalent otherwise.

use noc_sim::topology::Mesh2D;
use noc_sim::types::NodeId;
use noc_telemetry::rng::Xoshiro256pp;

/// A destination-selection rule.
#[derive(Debug, Clone, PartialEq)]
pub enum DestinationPattern {
    /// Uniformly random destination, excluding the source (the paper's
    /// pattern).
    UniformRandom,
    /// `(x, y) → (y, x)`. Diagonal nodes have no destination.
    Transpose,
    /// Destination is the bitwise complement of the source index
    /// (`N-1-src`, exact for power-of-two meshes).
    BitComplement,
    /// Destination index is the bit-reversed source index (power-of-two
    /// node counts; otherwise falls back to [`Self::BitComplement`]).
    BitReverse,
    /// Perfect shuffle: rotate the source index bits left by one
    /// (power-of-two node counts; otherwise falls back to
    /// [`Self::BitComplement`]).
    Shuffle,
    /// Tornado: halfway around each dimension
    /// (`x → (x + ⌈cols/2⌉ − ...) `; here `(x + cols/2) mod cols`, same for
    /// rows). Degenerates to self-traffic on 1-wide dimensions.
    Tornado,
    /// Nearest neighbour: one hop east, wrapping at the boundary.
    Neighbor,
    /// With probability `fraction`, send to a uniformly chosen hotspot;
    /// otherwise uniform random.
    HotSpot {
        /// The hotspot nodes (e.g. memory-controller tiles).
        targets: Vec<NodeId>,
        /// Probability of addressing a hotspot.
        fraction: f64,
    },
}

impl DestinationPattern {
    /// Picks a destination for a packet from `src`, or `None` when the
    /// pattern sends this node no traffic (e.g. transpose diagonal,
    /// patterns mapping a node to itself).
    pub fn dest(&self, mesh: &Mesh2D, src: NodeId, rng: &mut Xoshiro256pp) -> Option<NodeId> {
        let n = mesh.num_nodes();
        if n <= 1 {
            return None;
        }
        let dst = match self {
            DestinationPattern::UniformRandom => loop {
                let d = NodeId(rng.below(n));
                if d != src {
                    break d;
                }
            },
            DestinationPattern::Transpose => {
                let (x, y) = mesh.coords(src);
                if x >= mesh.rows() || y >= mesh.cols() {
                    return None;
                }
                mesh.node_at(y, x)
            }
            DestinationPattern::BitComplement => NodeId(n - 1 - src.index()),
            DestinationPattern::BitReverse => match bits_of(n) {
                Some(b) => {
                    let mut v = src.index();
                    let mut r = 0usize;
                    for _ in 0..b {
                        r = (r << 1) | (v & 1);
                        v >>= 1;
                    }
                    NodeId(r)
                }
                None => NodeId(n - 1 - src.index()),
            },
            DestinationPattern::Shuffle => match bits_of(n) {
                Some(b) => {
                    let s = src.index();
                    NodeId(((s << 1) | (s >> (b - 1))) & (n - 1))
                }
                None => NodeId(n - 1 - src.index()),
            },
            DestinationPattern::Tornado => {
                let (x, y) = mesh.coords(src);
                mesh.node_at(
                    (x + mesh.cols() / 2) % mesh.cols(),
                    (y + mesh.rows() / 2) % mesh.rows(),
                )
            }
            DestinationPattern::Neighbor => {
                let (x, y) = mesh.coords(src);
                mesh.node_at((x + 1) % mesh.cols(), y)
            }
            DestinationPattern::HotSpot { targets, fraction } => {
                // Only targets that exist in this mesh and differ from the
                // source are eligible; anything else falls back to uniform.
                let eligible = || {
                    targets
                        .iter()
                        .copied()
                        .filter(|t| t.index() < n && *t != src)
                };
                let count = eligible().count();
                if count > 0 && rng.chance(fraction.clamp(0.0, 1.0)) {
                    eligible().nth(rng.below(count))?
                } else {
                    loop {
                        let d = NodeId(rng.below(n));
                        if d != src {
                            break d;
                        }
                    }
                }
            }
        };
        (dst != src).then_some(dst)
    }

    /// A short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            DestinationPattern::UniformRandom => "uniform",
            DestinationPattern::Transpose => "transpose",
            DestinationPattern::BitComplement => "bit-complement",
            DestinationPattern::BitReverse => "bit-reverse",
            DestinationPattern::Shuffle => "shuffle",
            DestinationPattern::Tornado => "tornado",
            DestinationPattern::Neighbor => "neighbor",
            DestinationPattern::HotSpot { .. } => "hotspot",
        }
    }
}

/// `log2(n)` when `n` is a power of two.
fn bits_of(n: usize) -> Option<usize> {
    n.is_power_of_two().then(|| n.trailing_zeros() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(7)
    }

    #[test]
    fn uniform_never_targets_self_and_covers_everyone() {
        let mesh = Mesh2D::square(4);
        let mut rng = rng();
        let mut seen = [false; 16];
        for _ in 0..2000 {
            let d = DestinationPattern::UniformRandom
                .dest(&mesh, NodeId(5), &mut rng)
                .unwrap();
            assert_ne!(d, NodeId(5));
            seen[d.index()] = true;
        }
        assert_eq!(seen.iter().filter(|&&s| s).count(), 15);
    }

    #[test]
    fn transpose_swaps_coordinates() {
        let mesh = Mesh2D::square(4);
        let mut rng = rng();
        // (1,2) = node 9 → (2,1) = node 6.
        assert_eq!(
            DestinationPattern::Transpose.dest(&mesh, NodeId(9), &mut rng),
            Some(NodeId(6))
        );
        // Diagonal: no traffic.
        assert_eq!(
            DestinationPattern::Transpose.dest(&mesh, NodeId(5), &mut rng),
            None
        );
    }

    #[test]
    fn bit_complement_mirrors_index() {
        let mesh = Mesh2D::square(4);
        let mut rng = rng();
        assert_eq!(
            DestinationPattern::BitComplement.dest(&mesh, NodeId(0), &mut rng),
            Some(NodeId(15))
        );
        assert_eq!(
            DestinationPattern::BitComplement.dest(&mesh, NodeId(6), &mut rng),
            Some(NodeId(9))
        );
    }

    #[test]
    fn bit_reverse_on_16_nodes() {
        let mesh = Mesh2D::square(4);
        let mut rng = rng();
        // 0b0001 -> 0b1000.
        assert_eq!(
            DestinationPattern::BitReverse.dest(&mesh, NodeId(1), &mut rng),
            Some(NodeId(8))
        );
        // Palindromic index (0b0110) maps to itself: no traffic.
        assert_eq!(
            DestinationPattern::BitReverse.dest(&mesh, NodeId(6), &mut rng),
            None
        );
    }

    #[test]
    fn shuffle_rotates_bits() {
        let mesh = Mesh2D::square(4);
        let mut rng = rng();
        // 0b0110 -> 0b1100.
        assert_eq!(
            DestinationPattern::Shuffle.dest(&mesh, NodeId(6), &mut rng),
            Some(NodeId(12))
        );
        // 0b1001 -> 0b0011.
        assert_eq!(
            DestinationPattern::Shuffle.dest(&mesh, NodeId(9), &mut rng),
            Some(NodeId(3))
        );
    }

    #[test]
    fn tornado_moves_half_way() {
        let mesh = Mesh2D::square(4);
        let mut rng = rng();
        // (0,0) -> (2,2) = node 10.
        assert_eq!(
            DestinationPattern::Tornado.dest(&mesh, NodeId(0), &mut rng),
            Some(NodeId(10))
        );
    }

    #[test]
    fn neighbor_wraps_east() {
        let mesh = Mesh2D::square(4);
        let mut rng = rng();
        assert_eq!(
            DestinationPattern::Neighbor.dest(&mesh, NodeId(3), &mut rng),
            Some(NodeId(0))
        );
        assert_eq!(
            DestinationPattern::Neighbor.dest(&mesh, NodeId(4), &mut rng),
            Some(NodeId(5))
        );
    }

    #[test]
    fn hotspot_prefers_targets() {
        let mesh = Mesh2D::square(4);
        let mut rng = rng();
        let pattern = DestinationPattern::HotSpot {
            targets: vec![NodeId(15)],
            fraction: 0.9,
        };
        let mut hot = 0;
        let trials = 2000;
        for _ in 0..trials {
            if pattern.dest(&mesh, NodeId(0), &mut rng) == Some(NodeId(15)) {
                hot += 1;
            }
        }
        // 90% direct hits plus occasional uniform picks of node 15.
        assert!(hot as f64 / trials as f64 > 0.85, "hot fraction = {hot}");
    }

    #[test]
    fn hotspot_ignores_out_of_mesh_and_self_targets() {
        let mesh = Mesh2D::new(1, 2);
        let mut rng = rng();
        let pattern = DestinationPattern::HotSpot {
            targets: vec![NodeId(15), NodeId(0)],
            fraction: 1.0,
        };
        for _ in 0..50 {
            // Node 15 does not exist here; node 0 is the only valid target.
            assert_eq!(pattern.dest(&mesh, NodeId(1), &mut rng), Some(NodeId(0)));
            // From node 0, the only eligible target is itself ⇒ uniform
            // fallback to node 1.
            assert_eq!(pattern.dest(&mesh, NodeId(0), &mut rng), Some(NodeId(1)));
        }
    }

    #[test]
    fn single_node_mesh_generates_nothing() {
        let mesh = Mesh2D::new(1, 1);
        let mut rng = rng();
        assert_eq!(
            DestinationPattern::UniformRandom.dest(&mesh, NodeId(0), &mut rng),
            None
        );
    }

    #[test]
    fn every_pattern_stays_in_range() {
        let mesh = Mesh2D::new(4, 4);
        let mut rng = rng();
        let patterns = [
            DestinationPattern::UniformRandom,
            DestinationPattern::Transpose,
            DestinationPattern::BitComplement,
            DestinationPattern::BitReverse,
            DestinationPattern::Shuffle,
            DestinationPattern::Tornado,
            DestinationPattern::Neighbor,
            DestinationPattern::HotSpot {
                targets: vec![NodeId(0), NodeId(15)],
                fraction: 0.3,
            },
        ];
        for p in &patterns {
            for src in mesh.nodes() {
                for _ in 0..20 {
                    if let Some(d) = p.dest(&mesh, src, &mut rng) {
                        assert!(d.index() < 16, "{} produced {d}", p.name());
                        assert_ne!(d, src, "{} produced self-traffic", p.name());
                    }
                }
            }
        }
    }
}
