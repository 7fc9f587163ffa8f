//! Benchmark-profile application traffic.
//!
//! The paper's "real traffic" experiments (Table IV) run random mixes of
//! SPLASH2 and WCET benchmarks on GEM5 and observe the resulting NoC
//! traffic. Without the full-system simulator, we substitute each benchmark
//! with a *profile*: a Markov-modulated on/off injection process with a
//! per-benchmark mean rate, burstiness and destination locality. This
//! preserves what Table IV actually exercises — policy behaviour under
//! heterogeneous, bursty, spatially asymmetric traffic (see DESIGN.md §4).
//!
//! Ten profiles are provided, named after the kernels in the paper's two
//! suites. Parameters are chosen to span the qualitative range of those
//! workloads: low-rate control-dominated kernels (WCET) up to
//! communication-heavy scientific phases (SPLASH2).

use crate::injection::{InjectionProcess, MarkovOnOffInjection};
use crate::pattern::DestinationPattern;
use crate::source::{PacketSpec, TrafficSource};
use noc_sim::topology::Mesh2D;
use noc_sim::types::NodeId;
use noc_telemetry::rng::Xoshiro256pp;

/// Destination locality of a benchmark's coherence/memory traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Locality {
    /// All-to-all sharing: uniform destinations.
    Uniform,
    /// Nearest-neighbour dominated (stencil-style): with probability
    /// `neighbor_prob` the destination is a mesh neighbour, else uniform.
    NeighborBiased {
        /// Probability of targeting an adjacent tile.
        neighbor_prob: f64,
    },
    /// Memory-controller dominated: with probability `hot_prob` the
    /// destination is a corner tile (where the paper's setup places the
    /// memory controllers), else uniform.
    MemoryBound {
        /// Probability of targeting a memory-controller corner.
        hot_prob: f64,
    },
}

/// The traffic profile of one benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchmarkProfile {
    /// Kernel name (SPLASH2 or WCET).
    pub name: &'static str,
    /// Per-cycle packet probability during a communication burst.
    pub burst_packet_prob: f64,
    /// Mean burst length in cycles.
    pub mean_on: f64,
    /// Mean compute-phase (silent) length in cycles.
    pub mean_off: f64,
    /// Packet length in flits (data vs control dominated).
    pub packet_len: usize,
    /// Destination locality.
    pub locality: Locality,
}

impl BenchmarkProfile {
    /// The ten built-in profiles (six SPLASH2-like, four WCET-like).
    pub fn all() -> &'static [BenchmarkProfile] {
        &PROFILES
    }

    /// Looks a profile up by name.
    pub fn by_name(name: &str) -> Option<&'static BenchmarkProfile> {
        PROFILES.iter().find(|p| p.name == name)
    }

    /// Long-run offered load in flits/cycle.
    pub fn mean_flit_rate(&self) -> f64 {
        let duty = self.mean_on / (self.mean_on + self.mean_off);
        self.burst_packet_prob * duty * self.packet_len as f64
    }
}

/// SPLASH2-like profiles: longer data packets, heavier communication
/// phases. WCET-like profiles: short control packets, long compute phases.
/// Burst intensities are calibrated to land the per-port duty cycles in
/// the band the paper's GEM5 runs report (see `LOAD_CALIBRATION` in the
/// `sensorwise` crate and EXPERIMENTS.md).
static PROFILES: [BenchmarkProfile; 10] = [
    BenchmarkProfile {
        name: "fft",
        burst_packet_prob: 0.150,
        mean_on: 400.0,
        mean_off: 600.0,
        packet_len: 5,
        locality: Locality::Uniform,
    },
    BenchmarkProfile {
        name: "lu",
        burst_packet_prob: 0.120,
        mean_on: 300.0,
        mean_off: 700.0,
        packet_len: 5,
        locality: Locality::NeighborBiased { neighbor_prob: 0.6 },
    },
    BenchmarkProfile {
        name: "radix",
        burst_packet_prob: 0.180,
        mean_on: 500.0,
        mean_off: 500.0,
        packet_len: 5,
        locality: Locality::Uniform,
    },
    BenchmarkProfile {
        name: "barnes",
        burst_packet_prob: 0.090,
        mean_on: 250.0,
        mean_off: 750.0,
        packet_len: 5,
        locality: Locality::Uniform,
    },
    BenchmarkProfile {
        name: "ocean",
        burst_packet_prob: 0.165,
        mean_on: 600.0,
        mean_off: 400.0,
        packet_len: 5,
        locality: Locality::NeighborBiased { neighbor_prob: 0.7 },
    },
    BenchmarkProfile {
        name: "water",
        burst_packet_prob: 0.075,
        mean_on: 300.0,
        mean_off: 900.0,
        packet_len: 5,
        locality: Locality::Uniform,
    },
    BenchmarkProfile {
        name: "crc",
        burst_packet_prob: 0.045,
        mean_on: 150.0,
        mean_off: 1350.0,
        packet_len: 2,
        locality: Locality::MemoryBound { hot_prob: 0.8 },
    },
    BenchmarkProfile {
        name: "matmult",
        burst_packet_prob: 0.105,
        mean_on: 400.0,
        mean_off: 800.0,
        packet_len: 5,
        locality: Locality::MemoryBound { hot_prob: 0.6 },
    },
    BenchmarkProfile {
        name: "fir",
        burst_packet_prob: 0.060,
        mean_on: 200.0,
        mean_off: 1000.0,
        packet_len: 2,
        locality: Locality::MemoryBound { hot_prob: 0.7 },
    },
    BenchmarkProfile {
        name: "qsort",
        burst_packet_prob: 0.054,
        mean_on: 180.0,
        mean_off: 1100.0,
        packet_len: 2,
        locality: Locality::Uniform,
    },
];

/// A benchmark assignment: one profile per core, as in the paper's
/// randomly picked per-iteration mixes.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkMix {
    assignment: Vec<&'static BenchmarkProfile>,
}

impl BenchmarkMix {
    /// Randomly assigns one of the built-in profiles to each of `num_nodes`
    /// cores (with repetition, like the paper's random picks).
    pub fn random(num_nodes: usize, seed: u64) -> Self {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let all = BenchmarkProfile::all();
        BenchmarkMix {
            assignment: (0..num_nodes).map(|_| &all[rng.below(all.len())]).collect(),
        }
    }

    /// Builds a mix from explicit per-core profile names.
    ///
    /// # Panics
    ///
    /// Panics if a name is unknown.
    pub fn from_names(names: &[&str]) -> Self {
        BenchmarkMix {
            assignment: names
                .iter()
                .map(|n| {
                    BenchmarkProfile::by_name(n)
                        .unwrap_or_else(|| panic!("unknown benchmark profile `{n}`"))
                })
                .collect(),
        }
    }

    /// The per-core profiles.
    pub fn profiles(&self) -> &[&'static BenchmarkProfile] {
        &self.assignment
    }

    /// A compact `name+name+…` label for reports.
    pub fn label(&self) -> String {
        self.assignment
            .iter()
            .map(|p| p.name)
            .collect::<Vec<_>>()
            .join("+")
    }
}

/// Application traffic: each node runs its assigned benchmark profile.
#[derive(Debug, Clone)]
pub struct AppTraffic {
    mesh: Mesh2D,
    profiles: Vec<&'static BenchmarkProfile>,
    processes: Vec<MarkovOnOffInjection>,
    rngs: Vec<Xoshiro256pp>,
    memory_corners: Vec<NodeId>,
}

impl AppTraffic {
    /// Creates application traffic from a mix.
    ///
    /// # Panics
    ///
    /// Panics if the mix size does not match the mesh.
    pub fn new(mesh: Mesh2D, mix: &BenchmarkMix, seed: u64) -> Self {
        assert_eq!(
            mix.profiles().len(),
            mesh.num_nodes(),
            "one benchmark per core required"
        );
        let corners = vec![
            mesh.node_at(0, 0),
            mesh.node_at(mesh.cols() - 1, 0),
            mesh.node_at(0, mesh.rows() - 1),
            mesh.node_at(mesh.cols() - 1, mesh.rows() - 1),
        ];
        AppTraffic {
            mesh,
            profiles: mix.profiles().to_vec(),
            processes: mix
                .profiles()
                .iter()
                .map(|p| MarkovOnOffInjection::new(p.burst_packet_prob, p.mean_on, p.mean_off))
                .collect(),
            rngs: (0..mesh.num_nodes())
                .map(|i| {
                    Xoshiro256pp::seed_from_u64(
                        seed ^ (0xA076_1D64_78BD_642F_u64.wrapping_mul(i as u64 + 1)),
                    )
                })
                .collect(),
            memory_corners: corners,
        }
    }

    fn pick_dest(
        mesh: &Mesh2D,
        locality: Locality,
        corners: &[NodeId],
        src: NodeId,
        rng: &mut Xoshiro256pp,
    ) -> Option<NodeId> {
        let uniform = DestinationPattern::UniformRandom;
        match locality {
            Locality::Uniform => uniform.dest(mesh, src, rng),
            Locality::NeighborBiased { neighbor_prob } => {
                let neighbors = || {
                    noc_sim::types::Direction::MESH
                        .iter()
                        .filter_map(|&d| mesh.neighbor(src, d))
                };
                let count = neighbors().count();
                if count > 0 && rng.chance(neighbor_prob.clamp(0.0, 1.0)) {
                    neighbors().nth(rng.below(count))
                } else {
                    uniform.dest(mesh, src, rng)
                }
            }
            Locality::MemoryBound { hot_prob } => {
                let candidates = || corners.iter().copied().filter(|&c| c != src);
                let count = candidates().count();
                if count > 0 && rng.chance(hot_prob.clamp(0.0, 1.0)) {
                    candidates().nth(rng.below(count))
                } else {
                    uniform.dest(mesh, src, rng)
                }
            }
        }
    }
}

impl TrafficSource for AppTraffic {
    fn emit(&mut self, _cycle: u64, out: &mut Vec<PacketSpec>) {
        for node in 0..self.profiles.len() {
            if !self.processes[node].fires(&mut self.rngs[node]) {
                continue;
            }
            let dst = Self::pick_dest(
                &self.mesh,
                self.profiles[node].locality,
                &self.memory_corners,
                NodeId(node),
                &mut self.rngs[node],
            );
            if let Some(dst) = dst {
                // lint:allow(alloc-in-hot-path) amortized: the caller's scratch keeps its capacity
                out.push(PacketSpec {
                    src: NodeId(node),
                    dst,
                    len: self.profiles[node].packet_len,
                });
            }
        }
    }

    fn name(&self) -> String {
        format!("app-{}", self.profiles.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_distinct_profiles() {
        let all = BenchmarkProfile::all();
        assert_eq!(all.len(), 10);
        let mut names: Vec<_> = all.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 10, "profile names must be unique");
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(BenchmarkProfile::by_name("fft").unwrap().name, "fft");
        assert!(BenchmarkProfile::by_name("doom").is_none());
    }

    #[test]
    fn profile_rates_are_sane() {
        for p in BenchmarkProfile::all() {
            let r = p.mean_flit_rate();
            assert!(r > 0.0 && r < 0.6, "{}: rate {r}", p.name);
        }
    }

    #[test]
    fn random_mixes_are_seeded() {
        let a = BenchmarkMix::random(16, 5);
        let b = BenchmarkMix::random(16, 5);
        let c = BenchmarkMix::random(16, 6);
        assert_eq!(a, b);
        assert_ne!(a.label(), c.label());
        assert_eq!(a.profiles().len(), 16);
    }

    #[test]
    #[should_panic(expected = "unknown benchmark profile")]
    fn from_names_rejects_unknown() {
        let _ = BenchmarkMix::from_names(&["fft", "nope"]);
    }

    #[test]
    fn app_traffic_rate_tracks_profiles() {
        let mesh = Mesh2D::square(2);
        let mix = BenchmarkMix::from_names(&["fft", "fft", "fft", "fft"]);
        let mut app = AppTraffic::new(mesh, &mix, 3);
        let mut out = Vec::new();
        let cycles = 100_000u64;
        for c in 0..cycles {
            app.emit(c, &mut out);
        }
        let measured = out.iter().map(|s| s.len).sum::<usize>() as f64 / (cycles as f64 * 4.0);
        let expected = BenchmarkProfile::by_name("fft").unwrap().mean_flit_rate();
        assert!(
            (measured - expected).abs() / expected < 0.2,
            "measured {measured}, expected {expected}"
        );
    }

    #[test]
    fn memory_bound_profile_hits_corners() {
        let mesh = Mesh2D::square(4);
        let mix = BenchmarkMix::from_names(&["crc"; 16]);
        let mut app = AppTraffic::new(mesh, &mix, 9);
        let mut out = Vec::new();
        for c in 0..200_000 {
            app.emit(c, &mut out);
        }
        assert!(!out.is_empty());
        let corners = [NodeId(0), NodeId(3), NodeId(12), NodeId(15)];
        let hot = out.iter().filter(|s| corners.contains(&s.dst)).count();
        let frac = hot as f64 / out.len() as f64;
        assert!(frac > 0.6, "corner fraction = {frac}");
    }

    #[test]
    fn heterogeneous_mix_gives_heterogeneous_rates() {
        let mesh = Mesh2D::square(2);
        let mix = BenchmarkMix::from_names(&["radix", "radix", "crc", "crc"]);
        let mut app = AppTraffic::new(mesh, &mix, 17);
        let mut out = Vec::new();
        for c in 0..150_000 {
            app.emit(c, &mut out);
        }
        let count = |n: usize| out.iter().filter(|s| s.src == NodeId(n)).count();
        assert!(
            count(0) > 3 * count(2),
            "radix ({}) should out-inject crc ({})",
            count(0),
            count(2)
        );
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mesh = Mesh2D::square(2);
        let mix = BenchmarkMix::random(4, 1);
        let run = || {
            let mut app = AppTraffic::new(mesh, &mix, 42);
            let mut out = Vec::new();
            for c in 0..5000 {
                app.emit(c, &mut out);
            }
            out
        };
        assert_eq!(run(), run());
    }
}
