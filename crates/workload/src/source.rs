//! Injection adapters: trace- and mix-driven [`TrafficSource`]s, and
//! [`record_source`], which captures any source as an `NBTITRC` trace.
//!
//! Both adapters sit exactly where a synthetic [`TrafficSpec`]-built
//! source would, so the experiment engine ages any topology under any
//! recorded workload with no engine changes. Determinism of ingestion:
//! the packets injected at cycle `c` are a pure function of the trace
//! bytes (or mix spec) and `c`, so a replayed trace reproduces the
//! generator-driven digest bit for bit.
//!
//! [`TrafficSpec`]: sensorwise-level synthetic traffic configuration

use crate::format::{TraceError, TraceReader, TraceRecord, TraceWriter};
use crate::gen::{MixGenerator, MixSpec};
use noc_sim::types::NodeId;
use noc_traffic::source::{PacketSpec, TrafficSource};
use std::path::Path;

/// Replays a fully-validated record list as a [`TrafficSource`].
///
/// The whole trace is read (and every checksum verified) up front, so the
/// per-cycle path is a cursor walk: corruption surfaces at load time as a
/// typed [`TraceError`], never mid-experiment.
#[derive(Debug, Clone)]
pub struct TraceSource {
    records: Vec<TraceRecord>,
    cursor: usize,
    label: String,
}

impl TraceSource {
    /// A source over an in-memory record list (must be time-ordered, as
    /// produced by any validated reader).
    pub fn from_records(records: Vec<TraceRecord>, label: impl Into<String>) -> Self {
        TraceSource {
            records,
            cursor: 0,
            label: label.into(),
        }
    }

    /// Loads and fully validates a trace file recorded for a fabric of
    /// `num_nodes` nodes, so every recorded node index is valid there.
    ///
    /// # Errors
    ///
    /// Any [`TraceError`] from opening or reading the file, or
    /// [`TraceError::Malformed`] when the trace was recorded for a
    /// different node count.
    pub fn load(path: &Path, num_nodes: usize) -> Result<Self, TraceError> {
        let reader = TraceReader::open(path)?;
        let recorded = reader.header().num_nodes;
        if usize::from(recorded) != num_nodes {
            return Err(TraceError::Malformed(format!(
                "recorded for {recorded} nodes, but this fabric has {num_nodes}"
            )));
        }
        let records = reader.read_all()?;
        let label = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "trace".to_string());
        Ok(TraceSource::from_records(records, format!("trace:{label}")))
    }

    /// Total records in the trace.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// One past the last record's cycle: the cycles a replay must run to
    /// inject every record (0 for an empty trace).
    pub fn end_cycle(&self) -> u64 {
        self.records.last().map_or(0, |r| r.cycle + 1)
    }

    /// Records not yet emitted.
    pub fn remaining(&self) -> usize {
        self.records.len() - self.cursor
    }

    /// Appends the packets injected at `cycle` to `out`. The per-cycle
    /// hot path: a cursor walk over the pre-validated records.
    pub fn next_records(&mut self, cycle: u64, out: &mut Vec<PacketSpec>) {
        while let Some(rec) = self.records.get(self.cursor) {
            if rec.cycle > cycle {
                break;
            }
            self.cursor += 1;
            if rec.cycle == cycle {
                // lint:allow(alloc-in-hot-path) amortized append into caller scratch
                out.push(PacketSpec {
                    src: NodeId(rec.src as usize),
                    dst: NodeId(rec.dst as usize),
                    len: rec.len as usize,
                });
            }
            // Records with earlier cycles than the first emit call are
            // skipped (the engine owns the cycle counter).
        }
    }
}

impl TrafficSource for TraceSource {
    fn emit(&mut self, cycle: u64, out: &mut Vec<PacketSpec>) {
        self.next_records(cycle, out);
    }

    fn name(&self) -> String {
        self.label.clone()
    }
}

/// Records cycles `0..cycles` of `source` into an `NBTITRC` writer for a
/// fabric of `num_nodes` nodes. Replaying the result through a
/// [`TraceSource`] hands back the same packets at the same cycles.
///
/// # Errors
///
/// [`TraceError::Malformed`] for a packet the format cannot hold: a node
/// index or length that does not fit its `u16` field, or any record
/// [`TraceWriter::push`] rejects.
pub fn record_source<S: TrafficSource + ?Sized>(
    source: &mut S,
    num_nodes: u16,
    cycles: u64,
) -> Result<TraceWriter, TraceError> {
    let field = |v: usize| {
        u16::try_from(v).map_err(|_| TraceError::Malformed(format!("{v} exceeds a u16 field")))
    };
    let mut writer = TraceWriter::new(num_nodes);
    let mut out = Vec::new();
    for cycle in 0..cycles {
        out.clear();
        source.emit(cycle, &mut out);
        for spec in &out {
            writer.push(TraceRecord {
                cycle,
                src: field(spec.src.index())?,
                dst: field(spec.dst.index())?,
                len: field(spec.len)?,
            })?;
        }
    }
    Ok(writer)
}

/// Drives a [`MixGenerator`] live as a [`TrafficSource`] — the same
/// schedule `trace gen` would materialize, without the file.
#[derive(Debug, Clone)]
pub struct MixSource {
    generator: MixGenerator,
    scratch: Vec<TraceRecord>,
}

impl MixSource {
    /// A live source for `spec`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid spec (see [`MixGenerator::new`]).
    pub fn new(spec: MixSpec) -> Self {
        MixSource {
            generator: MixGenerator::new(spec),
            scratch: Vec::new(),
        }
    }

    /// Appends the packets injected at `cycle` to `out`.
    pub fn next_records(&mut self, cycle: u64, out: &mut Vec<PacketSpec>) {
        self.scratch.clear();
        self.generator.next_records(cycle, &mut self.scratch);
        for rec in &self.scratch {
            // lint:allow(alloc-in-hot-path) amortized append into caller scratch
            out.push(PacketSpec {
                src: NodeId(rec.src as usize),
                dst: NodeId(rec.dst as usize),
                len: rec.len as usize,
            });
        }
    }
}

impl TrafficSource for MixSource {
    fn emit(&mut self, cycle: u64, out: &mut Vec<PacketSpec>) {
        self.next_records(cycle, out);
    }

    fn name(&self) -> String {
        format!("mix:{}", self.generator.spec().kind.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::MixKind;

    fn sample_spec() -> MixSpec {
        MixSpec {
            kind: MixKind::AllToAllShuffle,
            nodes: 4,
            rate: 0.3,
            packet_len: 5,
            seed: 11,
        }
    }

    #[test]
    fn trace_source_emits_records_at_their_cycles() {
        let records = vec![
            TraceRecord { cycle: 0, src: 0, dst: 1, len: 5 },
            TraceRecord { cycle: 0, src: 2, dst: 3, len: 5 },
            TraceRecord { cycle: 3, src: 1, dst: 0, len: 2 },
        ];
        let mut src = TraceSource::from_records(records, "test");
        assert_eq!(src.len(), 3);
        let mut out = Vec::new();
        src.emit(0, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].src, NodeId(0));
        out.clear();
        src.emit(1, &mut out);
        src.emit(2, &mut out);
        assert!(out.is_empty());
        src.emit(3, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].len, 2);
        assert_eq!(src.remaining(), 0);
        assert_eq!(src.end_cycle(), 4);
    }

    #[test]
    fn packets_beyond_the_u16_fields_are_typed_errors() {
        struct Huge;
        impl TrafficSource for Huge {
            fn emit(&mut self, _: u64, out: &mut Vec<PacketSpec>) {
                out.push(PacketSpec {
                    src: NodeId(0),
                    dst: NodeId(1),
                    len: 70_000,
                });
            }
        }
        assert!(matches!(
            record_source(&mut Huge, 4, 1),
            Err(TraceError::Malformed(_))
        ));
    }

    #[test]
    fn mix_source_matches_materialized_trace() {
        // The live source and the written trace must describe the same
        // schedule — the record/replay digest equivalence in miniature.
        let cycles = 300u64;
        let bytes = MixGenerator::new(sample_spec())
            .write_trace(cycles)
            .unwrap()
            .finish();
        let (_, records) = crate::format::decode_trace(&bytes).unwrap();
        let mut replay = TraceSource::from_records(records, "replay");
        let mut live = MixSource::new(sample_spec());
        for c in 0..cycles {
            let mut from_live = Vec::new();
            let mut from_trace = Vec::new();
            live.emit(c, &mut from_live);
            replay.emit(c, &mut from_trace);
            assert_eq!(from_live, from_trace, "cycle {c}");
        }
    }

    #[test]
    fn source_names_identify_the_workload() {
        assert_eq!(
            MixSource::new(sample_spec()).name(),
            "mix:all-to-all-shuffle"
        );
        assert_eq!(
            TraceSource::from_records(Vec::new(), "trace:x.nbtitrc").name(),
            "trace:x.nbtitrc"
        );
    }
}
