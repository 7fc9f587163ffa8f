//! Per-node synthetic traffic: a destination pattern driven by an
//! injection process on every node.

use crate::injection::{BernoulliInjection, InjectionProcess};
use crate::pattern::DestinationPattern;
use crate::source::{PacketSpec, TrafficSource};
use noc_sim::topology::Mesh2D;
use noc_sim::types::NodeId;
use noc_telemetry::rng::Xoshiro256pp;

/// Synthetic traffic: every node runs its own seeded injection process and
/// draws destinations from a shared pattern.
///
/// ```
/// use noc_traffic::prelude::*;
/// use noc_sim::topology::Mesh2D;
///
/// let mesh = Mesh2D::square(2);
/// // The paper's uniform pattern at 0.2 flits/cycle/port, 5-flit packets.
/// let mut src = SyntheticTraffic::uniform(mesh, 0.2, 5, 7);
/// let mut out = Vec::new();
/// for cycle in 0..1000 { src.emit(cycle, &mut out); }
/// // Rate 0.2 flits/cycle/node over 4 nodes and 1000 cycles ≈ 160 packets.
/// assert!(out.len() > 100 && out.len() < 230, "{}", out.len());
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticTraffic {
    mesh: Mesh2D,
    pattern: DestinationPattern,
    processes: Vec<BernoulliInjection>,
    rngs: Vec<Xoshiro256pp>,
    packet_len: usize,
}

impl SyntheticTraffic {
    /// Creates synthetic traffic with a Bernoulli process per node at
    /// `rate_flits` flits/cycle/node and the given pattern.
    ///
    /// # Panics
    ///
    /// Panics if `packet_len` is zero or the rate implies a per-cycle
    /// packet probability above 1.
    pub fn new(
        mesh: Mesh2D,
        pattern: DestinationPattern,
        rate_flits: f64,
        packet_len: usize,
        seed: u64,
    ) -> Self {
        let n = mesh.num_nodes();
        SyntheticTraffic {
            mesh,
            pattern,
            processes: vec![BernoulliInjection::from_flit_rate(rate_flits, packet_len); n],
            rngs: (0..n)
                .map(|i| {
                    Xoshiro256pp::seed_from_u64(
                        seed.wrapping_add(0x9e37_79b9).wrapping_mul(i as u64 + 1),
                    )
                })
                .collect(),
            packet_len,
        }
    }

    /// The paper's synthetic workload: uniform random destinations.
    pub fn uniform(mesh: Mesh2D, rate_flits: f64, packet_len: usize, seed: u64) -> Self {
        Self::new(
            mesh,
            DestinationPattern::UniformRandom,
            rate_flits,
            packet_len,
            seed,
        )
    }

    /// The destination pattern.
    pub fn pattern(&self) -> &DestinationPattern {
        &self.pattern
    }

    /// The configured packet length in flits.
    pub fn packet_len(&self) -> usize {
        self.packet_len
    }

    /// Long-run offered load in flits/cycle/node.
    pub fn offered_flit_rate(&self) -> f64 {
        self.processes
            .first()
            .map(|p| p.mean_packet_rate() * self.packet_len as f64)
            .unwrap_or(0.0)
    }
}

impl TrafficSource for SyntheticTraffic {
    fn emit(&mut self, _cycle: u64, out: &mut Vec<PacketSpec>) {
        for (i, (proc_, rng)) in self.processes.iter_mut().zip(&mut self.rngs).enumerate() {
            if !proc_.fires(rng) {
                continue;
            }
            let src = NodeId(i);
            if let Some(dst) = self.pattern.dest(&self.mesh, src, rng) {
                // lint:allow(alloc-in-hot-path) amortized: the caller's scratch keeps its capacity
                out.push(PacketSpec {
                    src,
                    dst,
                    len: self.packet_len,
                });
            }
        }
    }

    fn name(&self) -> String {
        format!(
            "synthetic-{}-{:.2}",
            self.pattern.name(),
            self.offered_flit_rate()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offered_rate_matches_configuration() {
        let mesh = Mesh2D::square(4);
        let src = SyntheticTraffic::uniform(mesh, 0.3, 5, 1);
        assert!((src.offered_flit_rate() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn emitted_rate_is_close_to_offered() {
        let mesh = Mesh2D::square(4);
        let mut src = SyntheticTraffic::uniform(mesh, 0.1, 5, 11);
        let mut out = Vec::new();
        let cycles = 20_000u64;
        for c in 0..cycles {
            src.emit(c, &mut out);
        }
        let flits = (out.len() * 5) as f64;
        let rate = flits / (cycles as f64 * 16.0);
        assert!((rate - 0.1).abs() < 0.01, "rate = {rate}");
    }

    #[test]
    fn deterministic_across_runs() {
        let mesh = Mesh2D::square(2);
        let collect = || {
            let mut src = SyntheticTraffic::uniform(mesh, 0.2, 5, 99);
            let mut out = Vec::new();
            for c in 0..500 {
                src.emit(c, &mut out);
            }
            out
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn nodes_have_independent_streams() {
        let mesh = Mesh2D::square(2);
        let mut src = SyntheticTraffic::uniform(mesh, 0.5, 2, 5);
        let mut out = Vec::new();
        for c in 0..2000 {
            src.emit(c, &mut out);
        }
        let mut per_node = [0usize; 4];
        for s in &out {
            per_node[s.src.index()] += 1;
        }
        // Every node injects a comparable share.
        for (i, &count) in per_node.iter().enumerate() {
            assert!(count > 300, "node {i} injected only {count}");
        }
    }

    #[test]
    fn transpose_diagonal_nodes_emit_nothing() {
        let mesh = Mesh2D::square(4);
        let mut src = SyntheticTraffic::new(mesh, DestinationPattern::Transpose, 0.5, 2, 3);
        let mut out = Vec::new();
        for c in 0..2000 {
            src.emit(c, &mut out);
        }
        assert!(out
            .iter()
            .all(|s| mesh.coords(s.src).0 != mesh.coords(s.src).1));
    }

    #[test]
    fn name_is_descriptive() {
        let mesh = Mesh2D::square(2);
        let src = SyntheticTraffic::uniform(mesh, 0.25, 5, 0);
        assert_eq!(src.name(), "synthetic-uniform-0.25");
    }
}
