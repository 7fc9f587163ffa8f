//! The rolling event-stream digest.
//!
//! An FNV-1a 64-bit hash folded over a canonical byte encoding of every
//! event, in emission order. Two runs are bit-identical iff their digests
//! match (up to hash collisions), which lets `--jobs 1` vs `--jobs 8`, or
//! record vs replay, be asserted equal by comparing one `u64` instead of
//! two full event streams. The same fold is used by the in-memory sink,
//! the JSONL file sink, and the `stats` reader re-hashing a parsed file,
//! so a digest printed at run time can be re-derived from the trace file.
//!
//! [`fnv1a_64`] and [`fnv1a_64_fold`] are the workspace's one FNV-1a-64:
//! the explorer's seen-set key, span ids, the NBTITRC chunk and NBTICAMP
//! checksums and the result store's spec keys all hash through them.

use crate::event::{EventKind, TraceEvent};

/// FNV-1a-64 offset basis: the hash of the empty input.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into a running FNV-1a-64 state. Folding chunk by chunk
/// equals hashing their concatenation with [`fnv1a_64`].
#[inline]
#[must_use]
pub fn fnv1a_64_fold(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The FNV-1a-64 hash of `bytes`.
#[inline]
#[must_use]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    fnv1a_64_fold(FNV_OFFSET, bytes)
}

/// A rolling FNV-1a 64 hash over trace events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventDigest {
    state: u64,
}

impl Default for EventDigest {
    fn default() -> Self {
        EventDigest::new()
    }
}

impl EventDigest {
    /// The digest of the empty stream.
    pub const fn new() -> Self {
        EventDigest { state: FNV_OFFSET }
    }

    /// The current hash value.
    pub const fn value(self) -> u64 {
        self.state
    }

    fn fold(&mut self, bytes: &[u8]) {
        self.state = fnv1a_64_fold(self.state, bytes);
    }

    fn fold_u64(&mut self, v: u64) {
        self.fold(&v.to_le_bytes());
    }

    /// Folds one event into the digest. The canonical encoding is the
    /// cycle (LE u64), a tag byte (the variant's position in
    /// [`EventKind::TAGS`]), then every field widened to LE u64 in
    /// declaration order; a violation kind is its length then its bytes.
    pub fn update(&mut self, ev: &TraceEvent) {
        self.fold_u64(ev.cycle);
        let tag = EventKind::TAGS
            .iter()
            .position(|&t| t == ev.kind.tag())
            // lint:allow(no-unwrap) TAGS is static and total over EventKind
            .expect("tag table covers every variant") as u8;
        self.fold(&[tag]);
        match &ev.kind {
            EventKind::GateOn { port, vc } | EventKind::GateOff { port, vc } => {
                self.fold_u64(u64::from(port.node));
                self.fold(&[port.kind, *vc]);
            }
            EventKind::UpDown { port, enable, mask } => {
                self.fold_u64(u64::from(port.node));
                self.fold(&[port.kind, u8::from(*enable)]);
                self.fold_u64(u64::from(*mask));
            }
            EventKind::DownUp { port, md_vc } => {
                self.fold_u64(u64::from(port.node));
                self.fold(&[port.kind, *md_vc]);
            }
            EventKind::VaGrant {
                node,
                in_port,
                vc,
                out_port,
                out_vc,
            } => {
                self.fold_u64(u64::from(*node));
                self.fold(&[*in_port, *vc, *out_port, *out_vc]);
            }
            EventKind::FlitInject { node, packet, vc }
            | EventKind::FlitEject { node, packet, vc } => {
                self.fold_u64(u64::from(*node));
                self.fold_u64(*packet);
                self.fold(&[*vc]);
            }
            EventKind::PacketDone {
                node,
                packet,
                latency,
            } => {
                self.fold_u64(u64::from(*node));
                self.fold_u64(*packet);
                self.fold_u64(*latency);
            }
            EventKind::Violation { kind } => {
                self.fold_u64(kind.len() as u64);
                self.fold(kind.as_bytes());
            }
            EventKind::EpochEnd { index, digest } => {
                self.fold_u64(u64::from(*index));
                self.fold_u64(*digest);
            }
        }
    }

    /// The digest of a whole event slice, from scratch.
    pub fn of(events: &[TraceEvent]) -> u64 {
        let mut d = EventDigest::new();
        for ev in events {
            d.update(ev);
        }
        d.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PortCode;

    fn ev(cycle: u64, vc: u8) -> TraceEvent {
        TraceEvent {
            cycle,
            kind: EventKind::GateOn {
                port: PortCode::router_input(0, 2),
                vc,
            },
        }
    }

    #[test]
    fn identical_streams_hash_identically() {
        let a = EventDigest::of(&[ev(1, 0), ev(2, 1)]);
        let b = EventDigest::of(&[ev(1, 0), ev(2, 1)]);
        assert_eq!(a, b);
    }

    #[test]
    fn order_fields_and_variant_all_matter() {
        let base = EventDigest::of(&[ev(1, 0), ev(2, 1)]);
        assert_ne!(base, EventDigest::of(&[ev(2, 1), ev(1, 0)]), "order");
        assert_ne!(base, EventDigest::of(&[ev(1, 0), ev(2, 0)]), "field");
        let gate_off = TraceEvent {
            cycle: 2,
            kind: EventKind::GateOff {
                port: PortCode::router_input(0, 2),
                vc: 1,
            },
        };
        assert_ne!(base, EventDigest::of(&[ev(1, 0), gate_off]), "variant");
    }

    #[test]
    fn empty_stream_digest_is_the_fnv_offset() {
        assert_eq!(EventDigest::new().value(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(EventDigest::of(&[]), EventDigest::new().value());
    }

    #[test]
    fn fnv_matches_reference_vectors_and_folds_in_chunks() {
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a_64_fold(fnv1a_64(b"foo"), b"bar"), fnv1a_64(b"foobar"));
    }

    #[test]
    fn incremental_equals_batch() {
        let events = [ev(1, 0), ev(5, 1), ev(9, 0)];
        let mut d = EventDigest::new();
        for e in &events {
            d.update(e);
        }
        assert_eq!(d.value(), EventDigest::of(&events));
    }
}
