//! Simulator configuration.

use crate::routing::RoutingAlgorithm;

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
    /// Routing algorithm.
    pub routing: RoutingAlgorithm,
}

/// The most VCs a port may have: per-port VC state (power, allocation
/// eligibility, designation) is kept in `u32` bit masks.
pub const MAX_VCS_PER_PORT: usize = 32;

/// The deepest VC buffer: the network sizes one ring of the next power of
/// two per VC of every port up front and keeps a ring's position and
/// length in a byte, and the state encoding stores credits and buffer
/// lengths in a byte. Four times the deepest buffer studied (16).
pub const MAX_BUFFER_DEPTH: usize = 64;

/// The longest default packet, far above the 5-flit default.
pub const MAX_FLITS_PER_PACKET: usize = 1024;

/// The most nodes a fabric may have (a 16×16 mesh), four times the largest
/// fabric studied (8×8). With the other caps, this bounds the memory a
/// network takes at build time to tens of MiB.
pub const MAX_NODES: usize = 256;

/// The longest link, credit or wake-up latency, in cycles: 64 times the
/// longest in use (the wake-up ablation's 16). The cycle loop adds a
/// latency to the current cycle, which this keeps from overflowing.
pub const MAX_LATENCY: u64 = 1024;

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
    /// [`MAX_VCS_PER_PORT`] VCs, a buffer is deeper than
    /// [`MAX_BUFFER_DEPTH`], a packet longer than [`MAX_FLITS_PER_PACKET`],
    /// a latency longer than [`MAX_LATENCY`] or the fabric larger than
    /// [`MAX_NODES`].
    pub fn validate(&self) -> Result<(), InvalidConfigError> {
        let fail = |msg: &str| Err(InvalidConfigError(msg.to_string()));
        if self.cols == 0 || self.rows == 0 {
            return fail("mesh dimensions must be positive");
        }
        if self
            .cols
            .checked_mul(self.rows)
            .is_none_or(|n| n > MAX_NODES)
        {
            return Err(InvalidConfigError(format!(
                "{} x {} nodes exceed the supported {MAX_NODES}",
                self.cols, self.rows
            )));
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
        if self.buffer_depth > MAX_BUFFER_DEPTH {
            return Err(InvalidConfigError(format!(
                "buffer depth {} exceeds the supported {MAX_BUFFER_DEPTH} flits",
                self.buffer_depth
            )));
        }
        if self.flits_per_packet == 0 {
            return fail("packets must have at least one flit");
        }
        if self.flits_per_packet > MAX_FLITS_PER_PACKET {
            return Err(InvalidConfigError(format!(
                "{} flits per packet exceed the supported {MAX_FLITS_PER_PACKET}",
                self.flits_per_packet
            )));
        }
        if self.link_latency == 0 || self.credit_latency == 0 {
            return fail("link and credit latencies must be at least one cycle");
        }
        for (name, latency) in [
            ("link_latency", self.link_latency),
            ("credit_latency", self.credit_latency),
            ("wakeup_latency", self.wakeup_latency),
        ] {
            if latency > MAX_LATENCY {
                return Err(InvalidConfigError(format!(
                    "{name} {latency} exceeds the supported {MAX_LATENCY} cycles"
                )));
            }
        }
        Ok(())
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
        let with = |edit: fn(&mut NocConfig)| {
            let mut cfg = NocConfig::default();
            edit(&mut cfg);
            cfg
        };
        let cases: [(NocConfig, &str); 15] = [
            (with(|c| c.cols = 0), "dimensions"),
            (with(|c| c.vcs_per_port = 0), "virtual channel"),
            (
                with(|c| c.vcs_per_port = MAX_VCS_PER_PORT + 1),
                "at most 32 virtual channels",
            ),
            (with(|c| c.buffer_depth = 0), "buffer depth"),
            (with(|c| c.flits_per_packet = 0), "at least one flit"),
            (with(|c| c.link_latency = 0), "latencies"),
            (with(|c| c.credit_latency = 0), "latencies"),
            (
                with(|c| c.buffer_depth = MAX_BUFFER_DEPTH + 1),
                "depth 65 exceeds the supported 64",
            ),
            (
                with(|c| c.buffer_depth = 1_000_000_000_000),
                "exceeds the supported",
            ),
            (
                with(|c| c.flits_per_packet = MAX_FLITS_PER_PACKET + 1),
                "1025 flits per packet",
            ),
            (
                with(|c| (c.cols, c.rows) = (17, 16)),
                "17 x 16 nodes exceed the supported 256",
            ),
            (with(|c| (c.cols, c.rows) = (usize::MAX, 2)), "nodes exceed"),
            (
                with(|c| c.link_latency = u64::MAX),
                "link_latency 18446744073709551615 exceeds the supported 1024 cycles",
            ),
            (
                with(|c| c.credit_latency = MAX_LATENCY + 1),
                "credit_latency 1025 exceeds",
            ),
            (
                with(|c| c.wakeup_latency = MAX_LATENCY + 1),
                "wakeup_latency 1025 exceeds",
            ),
        ];
        for (cfg, needle) in cases {
            let err = cfg.validate().unwrap_err();
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    /// The caps sit above every configuration in use: buffer depths 1–16,
    /// meshes up to 8×8 (and 16×16 at the cap itself), latencies up to 16.
    #[test]
    fn the_caps_admit_every_configuration_in_use() {
        for (cols, rows, depth) in [(8, 8, 16), (16, 16, MAX_BUFFER_DEPTH), (2, 2, 1)] {
            NocConfig {
                cols,
                rows,
                buffer_depth: depth,
                flits_per_packet: MAX_FLITS_PER_PACKET,
                link_latency: MAX_LATENCY,
                credit_latency: MAX_LATENCY,
                wakeup_latency: MAX_LATENCY,
                ..NocConfig::default()
            }
            .validate()
            .unwrap();
        }
    }
}
