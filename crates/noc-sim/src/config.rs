//! Simulator configuration.

use crate::routing::RoutingAlgorithm;
use crate::topology::{AnyTopology, IrregularTopology, MeshTopology, RingTopology, TorusTopology};

/// Which fabric graph the NoC is built on.
///
/// `cols`/`rows` keep their meaning per kind: a mesh or torus is
/// `cols × rows`; a ring or irregular fabric has `cols * rows` nodes (use
/// `rows = 1` for the natural spelling). The default is the paper's mesh,
/// so every pre-existing configuration — and its telemetry digest — is
/// unchanged.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TopologyKind {
    /// The paper's 2D mesh, routed by [`NocConfig::routing`].
    #[default]
    Mesh,
    /// A 2D torus: the mesh plus wrap links (idle under the
    /// dateline-avoiding routing, and therefore maximally NBTI-stressed).
    Torus,
    /// A 1-D ring with `cw`/`ccw` ports, routed as a cut linear array.
    Ring,
    /// An arbitrary connected degree-≤4 graph over the node count, routed
    /// up-down along its BFS spanning tree.
    Irregular {
        /// Undirected edges as node-index pairs.
        edges: Vec<(usize, usize)>,
    },
}

impl TopologyKind {
    /// The short kind name used by the CLI and the job codec.
    pub fn name(&self) -> &'static str {
        match self {
            TopologyKind::Mesh => "mesh",
            TopologyKind::Torus => "torus",
            TopologyKind::Ring => "ring",
            TopologyKind::Irregular { .. } => "irregular",
        }
    }
}

/// Static configuration of a simulated NoC.
///
/// The defaults reproduce the paper's router: a 3-stage wormhole-switched
/// virtual-channel router with 4-flit-deep buffers on a 2D mesh, 1-cycle
/// links and credit return.
///
/// ```
/// use noc_sim::config::NocConfig;
///
/// let cfg = NocConfig::paper_synthetic(4, 2); // 4-core mesh, 2 VCs
/// assert_eq!(cfg.num_nodes(), 4);
/// assert_eq!(cfg.vcs_per_port, 2);
/// cfg.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NocConfig {
    /// Mesh columns.
    pub cols: usize,
    /// Mesh rows.
    pub rows: usize,
    /// Virtual channels per input port (paper: 2 or 4).
    pub vcs_per_port: usize,
    /// Buffer depth per VC in flits (paper: 4).
    pub buffer_depth: usize,
    /// Default packet length in flits.
    pub flits_per_packet: usize,
    /// Link traversal latency in cycles (paper: 1).
    pub link_latency: u64,
    /// Credit return latency in cycles.
    pub credit_latency: u64,
    /// Sleep-transistor wake-up penalty in cycles: a power-gated VC buffer
    /// becomes allocatable this many cycles after being switched back on.
    /// The paper's header-PMOS gating is modelled as instantaneous (0);
    /// the `ablation_wakeup` bench sweeps this.
    pub wakeup_latency: u64,
    /// Routing algorithm (used by the mesh topology; the other fabrics
    /// carry their own deadlock-free routing function).
    pub routing: RoutingAlgorithm,
    /// Fabric graph (default: the paper's 2D mesh).
    pub topology: TopologyKind,
}

/// The most VCs a port may have: per-port VC state (power, allocation
/// eligibility, designation) is kept in `u32` bit masks.
pub const MAX_VCS_PER_PORT: usize = 32;

/// Error returned by [`NocConfig::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidConfigError(String);

impl std::fmt::Display for InvalidConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid NoC configuration: {}", self.0)
    }
}

impl std::error::Error for InvalidConfigError {}

impl NocConfig {
    /// The paper's synthetic-traffic setup: a square mesh with `num_cores`
    /// tiles (must be a perfect square) and the given VC count.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is not a perfect square.
    pub fn paper_synthetic(num_cores: usize, vcs: usize) -> Self {
        let k = (num_cores as f64).sqrt().round() as usize;
        assert_eq!(k * k, num_cores, "num_cores must be a perfect square");
        NocConfig {
            cols: k,
            rows: k,
            vcs_per_port: vcs,
            ..NocConfig::default()
        }
    }

    /// Total node count.
    pub fn num_nodes(&self) -> usize {
        self.cols * self.rows
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns an error if any dimension, VC count, buffer depth or packet
    /// length is zero, latencies are zero, or a port has more than
    /// [`MAX_VCS_PER_PORT`] VCs.
    pub fn validate(&self) -> Result<(), InvalidConfigError> {
        let fail = |msg: &str| Err(InvalidConfigError(msg.to_string()));
        if self.cols == 0 || self.rows == 0 {
            return fail("mesh dimensions must be positive");
        }
        if self.vcs_per_port == 0 {
            return fail("at least one virtual channel per port is required");
        }
        if self.vcs_per_port > MAX_VCS_PER_PORT {
            return fail("at most 32 virtual channels per port are supported");
        }
        if self.buffer_depth == 0 {
            return fail("buffer depth must be positive");
        }
        if self.flits_per_packet == 0 {
            return fail("packets must have at least one flit");
        }
        if self.link_latency == 0 || self.credit_latency == 0 {
            return fail("link and credit latencies must be at least one cycle");
        }
        if let Err(e) = self.build_topology() {
            return Err(InvalidConfigError(e.to_string()));
        }
        Ok(())
    }

    /// Builds the concrete fabric this configuration describes.
    ///
    /// # Errors
    ///
    /// Returns an error when an irregular edge list does not describe a
    /// valid fabric over `num_nodes()` nodes.
    pub fn build_topology(&self) -> Result<AnyTopology, InvalidConfigError> {
        Ok(match &self.topology {
            TopologyKind::Mesh => {
                AnyTopology::Mesh(MeshTopology::new(self.cols, self.rows, self.routing))
            }
            TopologyKind::Torus => AnyTopology::Torus(TorusTopology::new(self.cols, self.rows)),
            TopologyKind::Ring => AnyTopology::Ring(RingTopology::new(self.num_nodes())),
            TopologyKind::Irregular { edges } => AnyTopology::Irregular(
                IrregularTopology::new(self.num_nodes(), edges)
                    .map_err(|e| InvalidConfigError(format!("irregular topology: {e}")))?,
            ),
        })
    }
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig {
            cols: 4,
            rows: 4,
            vcs_per_port: 4,
            buffer_depth: 4,
            flits_per_packet: 5,
            link_latency: 1,
            credit_latency: 1,
            wakeup_latency: 0,
            routing: RoutingAlgorithm::XY,
            topology: TopologyKind::Mesh,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        NocConfig::default().validate().unwrap();
    }

    #[test]
    fn paper_presets() {
        let c4 = NocConfig::paper_synthetic(4, 2);
        assert_eq!((c4.cols, c4.rows), (2, 2));
        let c16 = NocConfig::paper_synthetic(16, 4);
        assert_eq!((c16.cols, c16.rows), (4, 4));
        assert_eq!(c16.vcs_per_port, 4);
    }

    #[test]
    #[should_panic(expected = "perfect square")]
    fn non_square_core_count_panics() {
        let _ = NocConfig::paper_synthetic(6, 2);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let base = NocConfig::default();
        let cases: Vec<(NocConfig, &str)> = vec![
            (
                NocConfig {
                    cols: 0,
                    ..base.clone()
                },
                "dimensions",
            ),
            (
                NocConfig {
                    vcs_per_port: 0,
                    ..base.clone()
                },
                "virtual channel",
            ),
            (
                NocConfig {
                    vcs_per_port: MAX_VCS_PER_PORT + 1,
                    ..base.clone()
                },
                "at most 32 virtual channels",
            ),
            (
                NocConfig {
                    buffer_depth: 0,
                    ..base.clone()
                },
                "buffer depth",
            ),
            (
                NocConfig {
                    flits_per_packet: 0,
                    ..base.clone()
                },
                "at least one flit",
            ),
            (
                NocConfig {
                    link_latency: 0,
                    ..base.clone()
                },
                "latencies",
            ),
            (
                NocConfig {
                    credit_latency: 0,
                    ..base
                },
                "latencies",
            ),
        ];
        for (cfg, needle) in cases {
            let err = cfg.validate().unwrap_err();
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn bad_irregular_edges_fail_validation() {
        let cfg = NocConfig {
            cols: 4,
            rows: 1,
            topology: TopologyKind::Irregular {
                edges: vec![(0, 1), (2, 3)],
            },
            ..NocConfig::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("not connected"), "{err}");
    }

    #[test]
    fn every_topology_kind_builds() {
        for kind in [
            TopologyKind::Mesh,
            TopologyKind::Torus,
            TopologyKind::Ring,
            TopologyKind::Irregular {
                edges: vec![(0, 1), (1, 2), (2, 3), (0, 2)],
            },
        ] {
            let cfg = NocConfig {
                cols: 2,
                rows: 2,
                topology: kind.clone(),
                ..NocConfig::default()
            };
            let topo = cfg.build_topology().unwrap();
            assert_eq!(topo.num_nodes(), 4, "{}", kind.name());
        }
    }
}
