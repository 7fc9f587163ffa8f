//! Deterministic application-mix generators.
//!
//! Each mix is a compact stand-in for a class of real application traffic
//! (the SPLASH2-style suites used by trace-driven NoC studies), generated
//! by a pure function of `(spec, cycle)` history — no OS randomness, no
//! wall clock — so the same [`MixSpec`] always produces the same packet
//! schedule, whether it is materialized into an `NBTITRC` trace or
//! injected live. That equivalence (live digest == recorded-and-replayed
//! digest) is pinned by `crates/workload/tests/props.rs`.

use crate::format::{TraceError, TraceRecord, TraceWriter};
use crate::source::{record_source, MixSource};

/// SplitMix64: a tiny, high-quality, dependency-free PRNG. Used only for
/// workload generation (never for simulation state), and fully determined
/// by its seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// A Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }
}

/// The application-mix families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixKind {
    /// Client/server: most requests converge on one hot server node,
    /// which answers — the many-to-one pattern that saturates one
    /// ejection port while the rest of the fabric idles.
    HotspotServer,
    /// Phase-rotating all-to-all: every node sends to `(src + phase)`,
    /// with the phase advancing every few cycles — the permutation sweep
    /// of a shuffle/transpose kernel, exercising every link evenly.
    AllToAllShuffle,
    /// Nearest-neighbour stencil exchange: each node alternates among its
    /// four index-space neighbours — halo exchange of a structured-grid
    /// kernel, short-range traffic only.
    NearestNeighborStencil,
    /// On/off bursty clients: each node is silent for a random gap, then
    /// streams a burst to one random partner — the heavy-tailed pattern
    /// that creates deep transient queues.
    BurstyClient,
}

impl MixKind {
    /// All mixes, in canonical order.
    pub const ALL: [MixKind; 4] = [
        MixKind::HotspotServer,
        MixKind::AllToAllShuffle,
        MixKind::NearestNeighborStencil,
        MixKind::BurstyClient,
    ];

    /// The CLI name of this mix.
    pub fn name(self) -> &'static str {
        match self {
            MixKind::HotspotServer => "hotspot-server",
            MixKind::AllToAllShuffle => "all-to-all-shuffle",
            MixKind::NearestNeighborStencil => "nearest-neighbor-stencil",
            MixKind::BurstyClient => "bursty-client",
        }
    }

    /// Parses a CLI name.
    ///
    /// # Errors
    ///
    /// Returns the unknown name.
    pub fn parse(name: &str) -> Result<MixKind, String> {
        MixKind::ALL
            .into_iter()
            .find(|k| k.name() == name)
            .ok_or_else(|| {
                format!(
                    "unknown mix `{name}` (expected one of: {})",
                    MixKind::ALL.map(|k| k.name()).join(", ")
                )
            })
    }
}

/// A fully-specified workload mix: the deterministic function from cycles
/// to packets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixSpec {
    /// Which mix family.
    pub kind: MixKind,
    /// Fabric node count (trace records stay within `0..nodes`).
    pub nodes: u16,
    /// Mean injection probability per node per cycle.
    pub rate: f64,
    /// Packet length in flits.
    pub packet_len: u16,
    /// PRNG seed; same seed, same schedule.
    pub seed: u64,
}

/// Per-node burst state for [`MixKind::BurstyClient`].
#[derive(Debug, Clone, Copy)]
struct BurstState {
    /// Cycles of burst remaining (0 = in a gap).
    remaining: u32,
    /// Destination of the current burst.
    dst: u16,
}

/// The stateful generator for a [`MixSpec`]. Must be asked for every
/// cycle in order (the trace writer and the live injector both do), which
/// keeps one PRNG stream shared by all paths to the schedule.
#[derive(Debug, Clone)]
pub struct MixGenerator {
    spec: MixSpec,
    rng: SplitMix64,
    bursts: Vec<BurstState>,
    next_cycle: u64,
}

impl MixGenerator {
    /// A generator at cycle 0.
    ///
    /// # Panics
    ///
    /// Panics if the spec has no nodes, a zero packet length, or a rate
    /// outside `[0, 1]`.
    pub fn new(spec: MixSpec) -> Self {
        assert!(spec.nodes > 0, "a mix needs at least one node");
        assert!(spec.packet_len > 0, "packets have at least one flit");
        assert!(
            (0.0..=1.0).contains(&spec.rate),
            "rate must be a probability"
        );
        MixGenerator {
            spec,
            rng: SplitMix64::new(spec.seed ^ 0x4E42_5449_5452_4331), // "NBTITRC1"
            bursts: vec![
                BurstState {
                    remaining: 0,
                    dst: 0
                };
                spec.nodes as usize
            ],
            next_cycle: 0,
        }
    }

    /// The spec this generator realizes.
    pub fn spec(&self) -> &MixSpec {
        &self.spec
    }

    /// Appends the packets injected at `cycle` to `out`.
    ///
    /// # Panics
    ///
    /// Panics when cycles are skipped or revisited: the schedule is one
    /// PRNG stream, so every cycle must be drawn exactly once, in order.
    pub fn next_records(&mut self, cycle: u64, out: &mut Vec<TraceRecord>) {
        assert_eq!(
            cycle, self.next_cycle,
            "mix cycles must be drawn in order, without gaps"
        );
        self.next_cycle += 1;
        let n = self.spec.nodes as u64;
        if n == 1 {
            return; // a single node has no one to talk to
        }
        match self.spec.kind {
            MixKind::HotspotServer => self.hotspot(cycle, out),
            MixKind::AllToAllShuffle => self.shuffle(cycle, out),
            MixKind::NearestNeighborStencil => self.stencil(cycle, out),
            MixKind::BurstyClient => self.bursty(cycle, out),
        }
    }

    fn record(&self, cycle: u64, src: u64, dst: u64) -> TraceRecord {
        TraceRecord {
            cycle,
            src: src as u16,
            dst: dst as u16,
            len: self.spec.packet_len,
        }
    }

    fn hotspot(&mut self, cycle: u64, out: &mut Vec<TraceRecord>) {
        let n = self.spec.nodes as u64;
        let server = 0u64;
        for src in 0..n {
            if !self.rng.chance(self.spec.rate) {
                continue;
            }
            let dst = if src == server {
                // The server answers a random client.
                1 + self.rng.below(n - 1)
            } else if self.rng.chance(0.75) {
                server // three quarters of client traffic hits the server
            } else {
                let d = self.rng.below(n - 1);
                if d >= src {
                    d + 1
                } else {
                    d
                }
            };
            // lint:allow(alloc-in-hot-path) amortized append into caller scratch
            out.push(self.record(cycle, src, dst));
        }
    }

    fn shuffle(&mut self, cycle: u64, out: &mut Vec<TraceRecord>) {
        let n = self.spec.nodes as u64;
        // The permutation phase advances every 16 cycles, sweeping every
        // non-identity rotation: all-to-all over time.
        let phase = 1 + (cycle / 16) % (n - 1);
        for src in 0..n {
            if self.rng.chance(self.spec.rate) {
                // lint:allow(alloc-in-hot-path) amortized append into caller scratch
                out.push(self.record(cycle, src, (src + phase) % n));
            }
        }
    }

    fn stencil(&mut self, cycle: u64, out: &mut Vec<TraceRecord>) {
        let n = self.spec.nodes as u64;
        // Index-space halo exchange: ±1 and ±k with k ≈ √n, the
        // row-stride of a square grid laid out in node order.
        let k = (self.spec.nodes as f64).sqrt().round().max(1.0) as u64;
        let offsets = [1, n - 1, k % n, n - (k % n)];
        for src in 0..n {
            if !self.rng.chance(self.spec.rate) {
                continue;
            }
            let off = offsets[(self.rng.next_u64() % 4) as usize];
            let dst = (src + off) % n;
            if dst != src {
                // lint:allow(alloc-in-hot-path) amortized append into caller scratch
                out.push(self.record(cycle, src, dst));
            }
        }
    }

    fn bursty(&mut self, cycle: u64, out: &mut Vec<TraceRecord>) {
        let n = self.spec.nodes as u64;
        // Burst length 8, so a mean gap of 8/rate - 8 cycles keeps the
        // long-run injection rate at `rate`.
        const BURST_LEN: u32 = 8;
        let start_p = self.spec.rate / BURST_LEN as f64;
        for src in 0..n {
            let st = &mut self.bursts[src as usize];
            if st.remaining == 0 {
                if self.rng.chance(start_p) {
                    st.remaining = BURST_LEN;
                    let d = self.rng.below(n - 1);
                    st.dst = (if d >= src { d + 1 } else { d }) as u16;
                } else {
                    continue;
                }
            }
            st.remaining -= 1;
            let dst = st.dst as u64;
            // lint:allow(alloc-in-hot-path) amortized append into caller scratch
            out.push(self.record(cycle, src, dst));
        }
    }

    /// Materializes the first `cycles` cycles of the schedule into an
    /// `NBTITRC` writer by recording its live [`MixSource`].
    ///
    /// # Errors
    ///
    /// Propagates writer validation errors (impossible by construction —
    /// the generator emits in-range, time-ordered records — but typed
    /// rather than unwrapped).
    pub fn write_trace(self, cycles: u64) -> Result<TraceWriter, TraceError> {
        record_source(&mut MixSource::new(self.spec), self.spec.nodes, cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(kind: MixKind) -> MixSpec {
        MixSpec {
            kind,
            nodes: 16,
            rate: 0.2,
            packet_len: 5,
            seed: 42,
        }
    }

    #[test]
    fn mixes_are_deterministic() {
        for kind in MixKind::ALL {
            let run = || {
                let mut g = MixGenerator::new(spec(kind));
                let mut all = Vec::new();
                for c in 0..500 {
                    g.next_records(c, &mut all);
                }
                all
            };
            assert_eq!(run(), run(), "{}", kind.name());
        }
    }

    #[test]
    fn mixes_emit_valid_records_at_roughly_the_requested_rate() {
        for kind in MixKind::ALL {
            let cycles = 4_000u64;
            let s = spec(kind);
            let writer = MixGenerator::new(s).write_trace(cycles).unwrap();
            let count = writer.len();
            let expected = s.rate * s.nodes as f64 * cycles as f64;
            assert!(
                (count as f64) > expected * 0.7 && (count as f64) < expected * 1.3,
                "{}: {count} records vs expected ~{expected}",
                kind.name()
            );
            let bytes = writer.finish();
            let (header, records) = crate::format::decode_trace(&bytes).unwrap();
            assert_eq!(header.num_nodes, 16);
            for r in &records {
                assert!(r.src < 16 && r.dst < 16 && r.src != r.dst || r.len > 0);
                assert_ne!(r.src, r.dst, "{}: self-traffic", kind.name());
            }
        }
    }

    #[test]
    fn cycle_order_is_enforced() {
        let mut g = MixGenerator::new(spec(MixKind::HotspotServer));
        let mut out = Vec::new();
        g.next_records(0, &mut out);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            g.next_records(5, &mut out);
        }));
        assert!(result.is_err(), "skipping cycles must panic");
    }

    #[test]
    fn mix_names_round_trip() {
        for kind in MixKind::ALL {
            assert_eq!(MixKind::parse(kind.name()), Ok(kind));
        }
        assert!(MixKind::parse("nope").is_err());
    }

    #[test]
    fn single_node_mix_is_silent() {
        let mut g = MixGenerator::new(MixSpec {
            nodes: 1,
            ..spec(MixKind::BurstyClient)
        });
        let mut out = Vec::new();
        for c in 0..100 {
            g.next_records(c, &mut out);
        }
        assert!(out.is_empty());
    }
}
