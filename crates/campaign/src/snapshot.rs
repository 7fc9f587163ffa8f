//! Versioned, checksummed binary campaign checkpoints.
//!
//! # Format (`NBTICAMP` v2)
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"NBTICAMP"
//! 8       2     format version, u16 LE (currently 2; v1 still decodes)
//! 10      8     payload length, u64 LE
//! 18      8     FNV-1a 64 checksum of the payload, u64 LE
//! 26      n     payload
//! ```
//!
//! The payload is a flat little-endian encoding of the full campaign
//! state: the canonical spec JSON (length-prefixed UTF-8), the
//! completed-epoch count, the per-epoch `(end cycle, digest)` boundary
//! records, the drained [`NetworkSnapshot`] and the aging-ledger walker
//! states (`f64` via `to_bits`, so restore is bit-exact). Every integer is
//! fixed-width LE; every sequence is length-prefixed with a `u64`.
//!
//! Version 2 appends the distributed-campaign *dispatch ledger*: the
//! in-flight remote dispatches at checkpoint time, each a
//! `(epoch u32, attempt u32, worker string)` record. The checkpoint is the
//! coordination log of a remote campaign — a front end that dies between
//! dispatch and integration leaves its in-flight entries on disk, and the
//! resume path re-dispatches exactly those epochs (the shared result store
//! absorbs duplicates). A v1 checkpoint decodes as an empty ledger.
//!
//! Decoding is strict and total: any damage — truncation, a flipped
//! payload byte, an unknown version, trailing garbage, inconsistent
//! counts, non-finite walker state — surfaces as a typed
//! [`SnapshotError`]. A corrupted checkpoint can never panic and can
//! never silently resume wrong state.
//!
//! Writes are atomic (temp file + rename in the target directory), so a
//! kill mid-checkpoint leaves the previous checkpoint intact.

use crate::engine::{Campaign, CampaignSpec, DispatchEntry};
use nbti_model::rd::RdState;
use nbti_model::Volt;
use noc_sim::snapshot::{NetworkSnapshot, PortState};
use noc_sim::stats::{NetStats, LATENCY_BUCKETS};
use noc_telemetry::digest::fnv1a_64;
use noc_telemetry::WorkCounters;
use std::fmt;
use std::fs;
use std::path::Path;

/// The checkpoint file magic.
pub const MAGIC: [u8; 8] = *b"NBTICAMP";

/// The checkpoint format version this build writes.
pub const FORMAT_VERSION: u16 = 2;

/// The oldest checkpoint format version this build still reads.
pub const MIN_READ_VERSION: u16 = 1;

const HEADER_LEN: usize = 8 + 2 + 8 + 8;

/// Why a checkpoint could not be written or read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The underlying file operation failed.
    Io(String),
    /// The file ends before the encoded structure does.
    Truncated,
    /// The file does not start with the `NBTICAMP` magic.
    BadMagic,
    /// The file's format version is not supported by this build.
    BadVersion {
        /// The version found in the file.
        found: u16,
        /// The version this build writes and reads.
        supported: u16,
    },
    /// The payload does not hash to the stored checksum.
    ChecksumMismatch {
        /// The checksum stored in the header.
        stored: u64,
        /// The checksum computed over the payload.
        computed: u64,
    },
    /// The payload decoded but its contents are inconsistent.
    Malformed(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(msg) => write!(f, "checkpoint I/O failed: {msg}"),
            SnapshotError::Truncated => write!(f, "checkpoint is truncated"),
            SnapshotError::BadMagic => write!(f, "not a campaign checkpoint (bad magic)"),
            SnapshotError::BadVersion { found, supported } => write!(
                f,
                "unsupported checkpoint version {found} (this build supports {supported})"
            ),
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch: stored {stored:016x}, computed {computed:016x}"
            ),
            SnapshotError::Malformed(msg) => write!(f, "malformed checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

// ---------------------------------------------------------------------------
// Payload writer/reader
// ---------------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_len(out: &mut Vec<u8>, len: usize) {
    put_u64(out, len as u64);
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        let slice = self
            .buf
            .get(self.pos..end)
            .ok_or(SnapshotError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        let mut raw = [0u8; 4];
        raw.copy_from_slice(self.bytes(4)?);
        Ok(u32::from_le_bytes(raw))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(self.bytes(8)?);
        Ok(u64::from_le_bytes(raw))
    }

    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A sequence length, sanity-bounded so a corrupted length cannot
    /// trigger an absurd allocation before the data runs out.
    fn len(&mut self) -> Result<usize, SnapshotError> {
        let n = self.u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if n > remaining {
            return Err(SnapshotError::Truncated);
        }
        Ok(n as usize)
    }

    fn finish(self) -> Result<(), SnapshotError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(SnapshotError::Malformed(format!(
                "{} trailing payload bytes",
                self.buf.len() - self.pos
            )))
        }
    }
}

// ---------------------------------------------------------------------------
// Component encoders/decoders
// ---------------------------------------------------------------------------

fn put_net(out: &mut Vec<u8>, net: &NetworkSnapshot) {
    put_u64(out, net.cycle);
    put_u64(out, net.next_packet);
    put_u64(out, net.flits_sent_total);
    put_u64(out, net.flits_ejected_total);
    let s = &net.stats;
    put_u64(out, s.packets_injected);
    put_u64(out, s.packets_ejected);
    put_u64(out, s.flits_sent);
    put_u64(out, s.flits_ejected);
    put_u64(out, s.latency_sum);
    put_u64(out, s.latency_max);
    for &bucket in &s.latency_histogram {
        put_u64(out, bucket);
    }
    put_u64(out, s.invariant_checks);
    put_u64(out, s.invariant_violations);
    let w = &net.work;
    put_u64(out, w.bw_writes);
    put_u64(out, w.rc_computes);
    put_u64(out, w.va_grants);
    put_u64(out, w.sa_grants);
    put_u64(out, w.gate_commands);
    put_u64(out, w.policy_evaluations);
    put_u64(out, w.sensor_reads);
    put_len(out, net.ports.len());
    for port in &net.ports {
        put_u32(out, port.powered_mask);
        put_u32(out, port.allocatable_mask);
        put_len(out, port.usable_at.len());
        for &cycle in &port.usable_at {
            put_u64(out, cycle);
        }
        put_u64(out, port.gate_transitions);
        put_u64(out, port.flits_received);
    }
    put_len(out, net.arbiters.len());
    for &arb in &net.arbiters {
        put_u32(out, arb);
    }
}

fn read_net(r: &mut Reader<'_>) -> Result<NetworkSnapshot, SnapshotError> {
    let cycle = r.u64()?;
    let next_packet = r.u64()?;
    let flits_sent_total = r.u64()?;
    let flits_ejected_total = r.u64()?;
    let packets_injected = r.u64()?;
    let packets_ejected = r.u64()?;
    let flits_sent = r.u64()?;
    let flits_ejected = r.u64()?;
    let latency_sum = r.u64()?;
    let latency_max = r.u64()?;
    let mut latency_histogram = [0u64; LATENCY_BUCKETS];
    for bucket in &mut latency_histogram {
        *bucket = r.u64()?;
    }
    let invariant_checks = r.u64()?;
    let invariant_violations = r.u64()?;
    let stats = NetStats {
        packets_injected,
        packets_ejected,
        flits_sent,
        flits_ejected,
        latency_sum,
        latency_max,
        latency_histogram,
        invariant_checks,
        invariant_violations,
    };
    let work = WorkCounters {
        bw_writes: r.u64()?,
        rc_computes: r.u64()?,
        va_grants: r.u64()?,
        sa_grants: r.u64()?,
        gate_commands: r.u64()?,
        policy_evaluations: r.u64()?,
        sensor_reads: r.u64()?,
    };
    let num_ports = r.len()?;
    let mut ports = Vec::with_capacity(num_ports);
    for _ in 0..num_ports {
        let powered_mask = r.u32()?;
        let allocatable_mask = r.u32()?;
        let num_vcs = r.len()?;
        let mut usable_at = Vec::with_capacity(num_vcs);
        for _ in 0..num_vcs {
            usable_at.push(r.u64()?);
        }
        ports.push(PortState {
            powered_mask,
            allocatable_mask,
            usable_at,
            gate_transitions: r.u64()?,
            flits_received: r.u64()?,
        });
    }
    let num_arbiters = r.len()?;
    let mut arbiters = Vec::with_capacity(num_arbiters);
    for _ in 0..num_arbiters {
        arbiters.push(r.u32()?);
    }
    Ok(NetworkSnapshot {
        cycle,
        next_packet,
        flits_sent_total,
        flits_ejected_total,
        stats,
        work,
        ports,
        arbiters,
    })
}

fn put_ledger(out: &mut Vec<u8>, rows: &[Vec<(Volt, RdState)>]) {
    put_len(out, rows.len());
    for row in rows {
        put_len(out, row.len());
        for &(initial, state) in row {
            put_f64(out, initial.as_volts());
            put_f64(out, state.delta_vth_v);
            put_f64(out, state.stress_age_s);
            put_f64(out, state.total_age_s);
        }
    }
}

fn read_ledger(r: &mut Reader<'_>) -> Result<Vec<Vec<(Volt, RdState)>>, SnapshotError> {
    let num_ports = r.len()?;
    let mut rows = Vec::with_capacity(num_ports);
    for _ in 0..num_ports {
        let num_vcs = r.len()?;
        let mut row = Vec::with_capacity(num_vcs);
        for _ in 0..num_vcs {
            let initial = Volt::from_volts(r.f64()?);
            let state = RdState {
                delta_vth_v: r.f64()?,
                stress_age_s: r.f64()?,
                total_age_s: r.f64()?,
            };
            row.push((initial, state));
        }
        rows.push(row);
    }
    Ok(rows)
}

fn put_dispatch(out: &mut Vec<u8>, entries: &[DispatchEntry]) {
    put_len(out, entries.len());
    for entry in entries {
        put_u32(out, entry.epoch);
        put_u32(out, entry.attempt);
        put_len(out, entry.worker.len());
        out.extend_from_slice(entry.worker.as_bytes());
    }
}

fn read_dispatch(r: &mut Reader<'_>) -> Result<Vec<DispatchEntry>, SnapshotError> {
    let count = r.len()?;
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let epoch = r.u32()?;
        let attempt = r.u32()?;
        let worker_len = r.len()?;
        let worker = std::str::from_utf8(r.bytes(worker_len)?)
            .map_err(|e| SnapshotError::Malformed(format!("worker address is not UTF-8: {e}")))?
            .to_string();
        entries.push(DispatchEntry {
            epoch,
            worker,
            attempt,
        });
    }
    Ok(entries)
}

// ---------------------------------------------------------------------------
// Campaign encode/decode
// ---------------------------------------------------------------------------

impl Campaign {
    /// Encodes the full campaign state into the `NBTICAMP` v2 byte format.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        put_len(&mut payload, self.spec_json.len());
        payload.extend_from_slice(self.spec_json.as_bytes());
        put_u32(&mut payload, self.completed);
        put_len(&mut payload, self.epoch_ends.len());
        for &(cycle, digest) in &self.epoch_ends {
            put_u64(&mut payload, cycle);
            put_u64(&mut payload, digest);
        }
        match &self.net {
            Some(net) => {
                payload.push(1);
                put_net(&mut payload, net);
            }
            None => payload.push(0),
        }
        match &self.ledger {
            Some(ledger) => {
                payload.push(1);
                put_ledger(&mut payload, &ledger.vc_states());
            }
            None => payload.push(0),
        }
        put_dispatch(&mut payload, &self.dispatch);
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&MAGIC);
        put_u16(&mut out, FORMAT_VERSION);
        put_len(&mut out, payload.len());
        put_u64(&mut out, fnv1a_64(&payload));
        out.extend_from_slice(&payload);
        out
    }

    /// Decodes a checkpoint, verifying magic, version, length and
    /// checksum before touching the payload, and cross-checking the
    /// decoded parts for internal consistency.
    pub fn decode(bytes: &[u8]) -> Result<Campaign, SnapshotError> {
        if bytes.len() < HEADER_LEN {
            return Err(SnapshotError::Truncated);
        }
        if bytes[..8] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let mut hdr = Reader::new(&bytes[8..HEADER_LEN]);
        let mut version_raw = [0u8; 2];
        version_raw.copy_from_slice(hdr.bytes(2)?);
        let version = u16::from_le_bytes(version_raw);
        if !(MIN_READ_VERSION..=FORMAT_VERSION).contains(&version) {
            return Err(SnapshotError::BadVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let payload_len = hdr.u64()?;
        let stored = hdr.u64()?;
        let body = &bytes[HEADER_LEN..];
        if (body.len() as u64) < payload_len {
            return Err(SnapshotError::Truncated);
        }
        if (body.len() as u64) > payload_len {
            return Err(SnapshotError::Malformed(format!(
                "{} trailing bytes after the payload",
                body.len() as u64 - payload_len
            )));
        }
        let computed = fnv1a_64(body);
        if computed != stored {
            return Err(SnapshotError::ChecksumMismatch { stored, computed });
        }
        let mut r = Reader::new(body);
        let spec_len = r.len()?;
        let spec_json = std::str::from_utf8(r.bytes(spec_len)?)
            .map_err(|e| SnapshotError::Malformed(format!("spec JSON is not UTF-8: {e}")))?
            .to_string();
        let spec = CampaignSpec::from_json(&spec_json)
            .map_err(|e| SnapshotError::Malformed(e.to_string()))?;
        let completed = r.u32()?;
        let num_ends = r.len()?;
        let mut epoch_ends = Vec::with_capacity(num_ends);
        for _ in 0..num_ends {
            let cycle = r.u64()?;
            let digest = r.u64()?;
            epoch_ends.push((cycle, digest));
        }
        let net = match r.u8()? {
            0 => None,
            1 => Some(read_net(&mut r)?),
            flag => {
                return Err(SnapshotError::Malformed(format!(
                    "invalid network-presence flag {flag}"
                )))
            }
        };
        let states = match r.u8()? {
            0 => None,
            1 => Some(read_ledger(&mut r)?),
            flag => {
                return Err(SnapshotError::Malformed(format!(
                    "invalid ledger-presence flag {flag}"
                )))
            }
        };
        // v1 checkpoints predate the distributed plane: no dispatch section.
        let dispatch = if version >= 2 {
            read_dispatch(&mut r)?
        } else {
            Vec::new()
        };
        r.finish()?;
        let mut campaign = Campaign::from_parts(spec, completed, epoch_ends, net, states)?;
        for entry in &dispatch {
            if entry.epoch != campaign.completed {
                return Err(SnapshotError::Malformed(format!(
                    "dispatch ledger names epoch {} but the next epoch is {}",
                    entry.epoch, campaign.completed
                )));
            }
        }
        campaign.dispatch = dispatch;
        if campaign.spec_json != spec_json {
            return Err(SnapshotError::Malformed(
                "stored spec JSON is not canonical".to_string(),
            ));
        }
        Ok(campaign)
    }

    /// Atomically writes the checkpoint: encode to a temp file next to
    /// `path`, then rename over it.
    pub fn save(&self, path: &Path) -> Result<(), SnapshotError> {
        let bytes = self.encode();
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, &bytes).map_err(|e| SnapshotError::Io(e.to_string()))?;
        fs::rename(&tmp, path).map_err(|e| SnapshotError::Io(e.to_string()))
    }

    /// Reads and decodes a checkpoint file.
    pub fn load(path: &Path) -> Result<Campaign, SnapshotError> {
        let bytes = fs::read(path).map_err(|e| SnapshotError::Io(e.to_string()))?;
        Campaign::decode(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensorwise::policy::PolicyKind;
    use sensorwise::{ExperimentConfig, ExperimentJob, TrafficSpec};

    fn small_spec(epochs: u32, seed: u64) -> CampaignSpec {
        CampaignSpec {
            base: ExperimentJob {
                cfg: ExperimentConfig::new(
                    noc_sim::config::NocConfig::paper_synthetic(4, 2),
                    PolicyKind::SensorWise,
                )
                .with_cycles(200, 1_500)
                .with_pv_seed(seed),
                traffic: TrafficSpec::Uniform {
                    rate: 0.12,
                    seed: seed ^ 0xABCD,
                },
            },
            epochs,
            age_acceleration: 1.0e9,
            drain_limit: 5_000,
        }
    }

    #[test]
    fn fresh_campaign_round_trips() {
        let campaign = Campaign::new(small_spec(3, 7)).unwrap();
        let bytes = campaign.encode();
        let back = Campaign::decode(&bytes).unwrap();
        assert_eq!(back.spec_json(), campaign.spec_json());
        assert_eq!(back.completed(), 0);
        assert_eq!(back.epoch_ends(), &[] as &[(u64, u64)]);
        assert!(back.ledger().is_none());
        // Re-encode is byte-identical: the format is canonical.
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn mid_campaign_round_trip_is_bit_exact() {
        let mut campaign = Campaign::new(small_spec(3, 11)).unwrap();
        campaign.run_next_epoch(None).unwrap();
        campaign.run_next_epoch(None).unwrap();
        let bytes = campaign.encode();
        let back = Campaign::decode(&bytes).unwrap();
        assert_eq!(back.completed(), 2);
        assert_eq!(back.epoch_ends(), campaign.epoch_ends());
        assert_eq!(back.chained_digest(), campaign.chained_digest());
        assert_eq!(
            back.ledger().unwrap().vc_states(),
            campaign.ledger().unwrap().vc_states()
        );
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn truncation_at_any_point_is_a_typed_error() {
        let mut campaign = Campaign::new(small_spec(2, 3)).unwrap();
        campaign.run_next_epoch(None).unwrap();
        let bytes = campaign.encode();
        for cut in [0, 4, 7, 8, 9, 25, 26, 40, bytes.len() / 2, bytes.len() - 1] {
            let err = Campaign::decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Truncated | SnapshotError::BadMagic),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn flipped_payload_byte_is_a_checksum_mismatch() {
        let campaign = Campaign::new(small_spec(2, 3)).unwrap();
        let mut bytes = campaign.encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert!(matches!(
            Campaign::decode(&bytes).unwrap_err(),
            SnapshotError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn wrong_version_and_magic_are_rejected_up_front() {
        let campaign = Campaign::new(small_spec(2, 3)).unwrap();
        let good = campaign.encode();

        let mut wrong_version = good.clone();
        wrong_version[8] = 0xFE;
        wrong_version[9] = 0xFF;
        assert_eq!(
            Campaign::decode(&wrong_version).unwrap_err(),
            SnapshotError::BadVersion {
                found: u16::from_le_bytes([0xFE, 0xFF]),
                supported: FORMAT_VERSION
            }
        );

        let mut wrong_magic = good.clone();
        wrong_magic[0] = b'X';
        assert_eq!(
            Campaign::decode(&wrong_magic).unwrap_err(),
            SnapshotError::BadMagic
        );

        let mut trailing = good;
        trailing.push(0);
        assert!(matches!(
            Campaign::decode(&trailing).unwrap_err(),
            SnapshotError::Malformed(_)
        ));
    }

    #[test]
    fn dispatch_ledger_round_trips() {
        let mut campaign = Campaign::new(small_spec(3, 13)).unwrap();
        campaign.run_next_epoch(None).unwrap();
        campaign.push_dispatch(DispatchEntry {
            epoch: 1,
            worker: "127.0.0.1:4001".to_string(),
            attempt: 0,
        });
        campaign.push_dispatch(DispatchEntry {
            epoch: 1,
            worker: "127.0.0.1:4002".to_string(),
            attempt: 1,
        });
        let bytes = campaign.encode();
        let back = Campaign::decode(&bytes).unwrap();
        assert_eq!(back.dispatch_ledger(), campaign.dispatch_ledger());
        assert_eq!(back.encode(), bytes);
        // A ledger naming a different epoch than the next one is damage.
        let mut wrong = Campaign::new(small_spec(3, 13)).unwrap();
        wrong.push_dispatch(DispatchEntry {
            epoch: 2,
            worker: "w".to_string(),
            attempt: 0,
        });
        assert!(matches!(
            Campaign::decode(&wrong.encode()).unwrap_err(),
            SnapshotError::Malformed(_)
        ));
    }

    #[test]
    fn v1_checkpoints_still_decode_with_an_empty_dispatch_ledger() {
        let mut campaign = Campaign::new(small_spec(2, 9)).unwrap();
        campaign.run_next_epoch(None).unwrap();
        let v2 = campaign.encode();
        // Rebuild the same checkpoint as v1: drop the trailing empty
        // dispatch section (a lone u64 zero) and rewrite the header.
        let payload = &v2[HEADER_LEN..v2.len() - 8];
        let mut v1 = Vec::with_capacity(HEADER_LEN + payload.len());
        v1.extend_from_slice(&MAGIC);
        put_u16(&mut v1, 1);
        put_len(&mut v1, payload.len());
        put_u64(&mut v1, fnv1a_64(payload));
        v1.extend_from_slice(payload);
        let back = Campaign::decode(&v1).unwrap();
        assert_eq!(back.completed(), campaign.completed());
        assert_eq!(back.epoch_ends(), campaign.epoch_ends());
        assert_eq!(back.chained_digest(), campaign.chained_digest());
        assert!(back.dispatch_ledger().is_empty());
        // Saving it again upgrades to the current version.
        assert_eq!(back.encode(), v2);
    }

    #[test]
    fn save_and_load_round_trip_through_a_file() {
        let dir = std::env::temp_dir().join(format!(
            "nbticamp-test-{}-{:x}",
            std::process::id(),
            fnv1a_64(b"save_and_load")
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.ckpt");
        let mut campaign = Campaign::new(small_spec(2, 5)).unwrap();
        campaign.run_next_epoch(None).unwrap();
        campaign.save(&path).unwrap();
        let back = Campaign::load(&path).unwrap();
        assert_eq!(back.encode(), campaign.encode());
        // Missing file is Io, not a panic.
        assert!(matches!(
            Campaign::load(&dir.join("absent.ckpt")).unwrap_err(),
            SnapshotError::Io(_)
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
