//! Property tests for the `NBTITRC` trace codec, mirroring the
//! `NBTICAMP` checkpoint suite: round-trips are exact across the record
//! space, and *no* corruption — truncation, byte flips, foreign headers,
//! chunk tampering — can panic the reader or slip through as a
//! silently-wrong workload.

use noc_sim::topology::Mesh2D;
use noc_traffic::{SyntheticTraffic, TrafficSource};
use noc_workload::{
    decode_trace, encode_trace, record_source, MixGenerator, MixKind, MixSpec, TraceError,
    TraceRecord, TraceSource, CHUNK_RECORDS,
};
use proptest::prelude::*;

fn records_from(seed: u64, count: usize, nodes: u16) -> Vec<TraceRecord> {
    let mut rng = noc_telemetry::rng::SplitMix64::new(seed);
    let mut cycle = 0u64;
    (0..count)
        .map(|_| {
            cycle += rng.next_u64() % 3;
            TraceRecord {
                cycle,
                src: (rng.next_u64() % u64::from(nodes)) as u16,
                dst: (rng.next_u64() % u64::from(nodes)) as u16,
                len: 1 + (rng.next_u64() % 31) as u16,
            }
        })
        .collect()
}

proptest! {
    /// Recording any synthetic source into an `NBTITRC` trace and replaying
    /// the decoded records yields the identical packet sequence.
    #[test]
    fn record_replay_round_trip(rate_milli in 10u32..300, seed in any::<u64>()) {
        let source = || {
            SyntheticTraffic::uniform(Mesh2D::square(2), f64::from(rate_milli) / 1000.0, 5, seed)
        };
        let bytes = record_source(&mut source(), 4, 3_000)
            .expect("2x2 packets fit the format")
            .finish();
        let (_, records) = decode_trace(&bytes).expect("own encoding must decode");
        let mut replay = TraceSource::from_records(records, "replay");
        let mut live = source();
        let (mut direct, mut replayed) = (Vec::new(), Vec::new());
        for c in 0..3_000 {
            live.emit(c, &mut direct);
            replay.emit(c, &mut replayed);
        }
        prop_assert_eq!(direct, replayed);
        prop_assert_eq!(replay.remaining(), 0);
    }

    /// Any valid record list round-trips exactly, across chunk
    /// boundaries, and re-encodes to identical bytes.
    #[test]
    fn round_trip_is_exact(seed in any::<u64>(), count in 0usize..3000, nodes in 1u16..64) {
        let records = records_from(seed, count, nodes);
        let bytes = encode_trace(nodes, &records).expect("valid by construction");
        let (header, decoded) = decode_trace(&bytes).expect("own encoding must decode");
        prop_assert_eq!(header.num_nodes, nodes);
        prop_assert_eq!(header.records, count as u64);
        prop_assert_eq!(&decoded, &records);
        prop_assert_eq!(encode_trace(nodes, &decoded).expect("still valid"), bytes);
    }

    /// Every strict prefix of a valid trace is a typed error — never a
    /// panic, never an `Ok`.
    #[test]
    fn truncation_never_panics_or_succeeds(cut_permille in 0u32..1000) {
        let records = records_from(99, CHUNK_RECORDS + 100, 16);
        let bytes = encode_trace(16, &records).expect("valid");
        let cut = (bytes.len() * cut_permille as usize) / 1000;
        prop_assume!(cut < bytes.len());
        let err = decode_trace(&bytes[..cut]).expect_err("prefix must not decode");
        prop_assert!(
            matches!(err, TraceError::Truncated | TraceError::BadMagic),
            "unexpected error for cut {}: {:?}", cut, err
        );
    }

    /// Flipping any single byte of a valid trace is always caught:
    /// header flips hit the magic/version checks, payload flips hit the
    /// chunk checksum, count/checksum flips hit structure validation.
    #[test]
    fn single_byte_flips_are_always_detected(pos_seed in any::<u64>(), mask in 1u8..=255) {
        let records = records_from(7, 600, 8);
        let mut bytes = encode_trace(8, &records).expect("valid");
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= mask;
        if let Ok((_, decoded)) = decode_trace(&bytes) {
            prop_assert!(
                false,
                "flip at {} (mask {:#04x}) decoded to {} records",
                pos, mask, decoded.len()
            );
        }
    }

    /// The mix generators only ever produce traces their own format
    /// accepts, for every mix family across the spec space.
    #[test]
    fn generated_mixes_always_encode_and_verify(
        kind_pick in 0usize..4,
        nodes in 2u16..64,
        rate_milli in 1u32..400,
        seed in any::<u64>(),
    ) {
        let spec = MixSpec {
            kind: MixKind::ALL[kind_pick],
            nodes,
            rate: f64::from(rate_milli) / 1000.0,
            packet_len: 5,
            seed,
        };
        let bytes = MixGenerator::new(spec)
            .write_trace(400)
            .expect("generator emits valid records")
            .finish();
        let (header, decoded) = decode_trace(&bytes).expect("generated trace must verify");
        prop_assert_eq!(header.num_nodes, nodes);
        for rec in &decoded {
            prop_assert!(rec.src < nodes && rec.dst < nodes);
            prop_assert!(rec.cycle < 400);
            prop_assert_eq!(rec.len, 5);
        }
    }
}
