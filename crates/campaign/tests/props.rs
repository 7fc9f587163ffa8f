//! Property tests for the `NBTICAMP` checkpoint codec: round-trips are
//! bit-exact across the spec space, and *no* corruption — truncation,
//! byte flips, bad headers — can panic the decoder or slip through as a
//! silently-wrong resume. The canonical spec JSON gets the same
//! never-panic treatment, and so do `FsResultStore` entries: whatever
//! bytes sit at an entry's path, a lookup answers `None` or exactly the
//! stored value, and `stats`/`gc` answer `Ok` or a typed `StoreError`.

use noc_campaign::{Campaign, CampaignSpec, FsResultStore, SnapshotError, StoreError};
use proptest::prelude::*;
use sensorwise::codec::json_string;
use sensorwise::policy::PolicyKind;
use sensorwise::{
    spec_key, spec_to_json, ExperimentConfig, ExperimentJob, ResultCache, TrafficSpec, WireResult,
};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

fn spec(policy_pick: u8, epochs: u32, seed: u64, rate_milli: u32, accel_exp: u32) -> CampaignSpec {
    let policy = match policy_pick % 4 {
        0 => PolicyKind::Baseline,
        1 => PolicyKind::RrNoSensor,
        2 => PolicyKind::SensorWiseNoTraffic,
        _ => PolicyKind::SensorWise,
    };
    CampaignSpec {
        base: ExperimentJob {
            cfg: ExperimentConfig::new(noc_sim::config::NocConfig::paper_synthetic(4, 2), policy)
                .with_cycles(100, 600)
                .with_pv_seed(seed),
            traffic: TrafficSpec::Uniform {
                rate: 0.05 + f64::from(rate_milli % 200) / 1_000.0,
                seed: seed.rotate_left(17) ^ 0xABCD,
            },
        },
        epochs,
        age_acceleration: 10f64.powi(accel_exp as i32 % 10 + 1),
        drain_limit: 10_000,
    }
}

proptest! {
    /// Fresh campaigns round-trip bit-exactly for any spec in the space:
    /// decode(encode(c)) re-encodes to the identical bytes.
    #[test]
    fn fresh_round_trip_is_canonical(
        policy_pick in any::<u8>(),
        epochs in 1u32..6,
        seed in any::<u64>(),
        rate_milli in any::<u32>(),
        accel_exp in any::<u32>(),
    ) {
        let campaign = Campaign::new(spec(policy_pick, epochs, seed, rate_milli, accel_exp))
            .expect("spec is valid by construction");
        let bytes = campaign.encode();
        let back = Campaign::decode(&bytes).expect("own encoding must decode");
        prop_assert_eq!(back.encode(), bytes);
        prop_assert_eq!(back.spec_json(), campaign.spec_json());
    }

    /// Every strict prefix of a valid checkpoint decodes to a typed
    /// error — never a panic, never an `Ok`.
    #[test]
    fn truncation_never_panics_or_succeeds(cut_permille in 0u32..1000) {
        let campaign = Campaign::new(spec(3, 2, 42, 150, 6)).expect("valid spec");
        let bytes = campaign.encode();
        let cut = (bytes.len() * cut_permille as usize) / 1000;
        prop_assume!(cut < bytes.len());
        let err = Campaign::decode(&bytes[..cut]).expect_err("prefix must not decode");
        prop_assert!(matches!(
            err,
            SnapshotError::Truncated | SnapshotError::BadMagic | SnapshotError::Malformed(_)
        ), "unexpected error for cut {}: {:?}", cut, err);
    }

    /// Flipping any single byte of a valid checkpoint is always caught
    /// with a typed error: header flips hit the magic/version/length
    /// checks, payload flips hit the checksum.
    #[test]
    fn single_byte_flips_are_always_detected(pos_seed in any::<u64>(), mask in 1u8..=255) {
        let campaign = Campaign::new(spec(1, 3, 7, 120, 8)).expect("valid spec");
        let mut bytes = campaign.encode();
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= mask;
        let decoded = Campaign::decode(&bytes);
        match decoded {
            Err(_) => {} // any typed error is a correct rejection
            Ok(_) => {
                // The only byte whose flip may legally decode is inside
                // the checksum+payload pair matching by construction —
                // impossible for a single flip (FNV-1a differs in at
                // least one bit), so reaching Ok is a codec failure.
                prop_assert!(false, "flip at {} (mask {:#04x}) decoded successfully", pos, mask);
            }
        }
    }

    /// `CampaignSpec::from_json` answers random bytes, every truncation of
    /// a canonical spec and single-byte flips of it with a value or a typed
    /// error, never a panic; a truncated spec never decodes.
    #[test]
    fn campaign_spec_decoding_never_panics(
        noise in proptest::collection::vec(any::<u8>(), 0..256),
        cut_permille in 0usize..1000,
        offset in 0usize..61,
        mask in 1u8..=255,
    ) {
        let _ = CampaignSpec::from_json(&String::from_utf8_lossy(&noise));
        let text = spec(3, 4, 11, 90, 5).canonical_json().expect("servable");
        prop_assert!(text.is_ascii());
        let cut = text.len() * cut_permille / 1000;
        prop_assert!(CampaignSpec::from_json(&text[..cut]).is_err(), "prefix of {} bytes decoded", cut);
        for pos in (offset..text.len()).step_by(61) {
            let mut bytes = text.clone().into_bytes();
            bytes[pos] ^= mask;
            let _ = CampaignSpec::from_json(&String::from_utf8_lossy(&bytes));
        }
    }
}

/// The job whose result every store property files: small enough that
/// its entry can be truncated and flipped at every byte.
fn store_job() -> ExperimentJob {
    ExperimentJob {
        cfg: ExperimentConfig::new(
            noc_sim::config::NocConfig::paper_synthetic(4, 2),
            PolicyKind::SensorWise,
        )
        .with_cycles(50, 300)
        .with_pv_seed(5),
        traffic: TrafficSpec::Uniform {
            rate: 0.1,
            seed: 0xABCD,
        },
    }
}

/// The job's canonical spec and wire result JSON, computed once.
fn stored() -> &'static (String, String) {
    static STORED: OnceLock<(String, String)> = OnceLock::new();
    STORED.get_or_init(|| {
        let job = store_job();
        let spec = spec_to_json(&job).expect("servable spec");
        (spec, WireResult::from(&job.run()).to_json())
    })
}

/// A store in a fresh directory holding the job's entry, and that entry's
/// path (`<fnv64 of spec>.json`).
fn store_with_entry(tag: &str) -> (FsResultStore, PathBuf) {
    let dir = std::env::temp_dir().join(format!("nbti-store-props-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = FsResultStore::open(&dir).expect("temp dir opens");
    let (spec, result) = stored();
    store.put_json(spec, result);
    let path = dir.join(format!("{:016x}.json", spec_key(spec)));
    assert_eq!(
        store.get_json(spec).as_ref(),
        Some(result),
        "fresh entry hits"
    );
    (store, path)
}

/// Writes `bytes` over the entry, then checks that both lookup planes
/// answer a miss or exactly the stored value and that `stats` and `gc`
/// answer `Ok` or a typed error. Returns whether the lookup hit.
fn lookups_after_writing(store: &FsResultStore, path: &Path, bytes: &[u8]) -> bool {
    std::fs::write(path, bytes).expect("entry path is writable");
    let (spec, result) = stored();
    let raw = store.get_json(spec);
    assert!(raw.is_none() || raw.as_ref() == Some(result), "{raw:?}");
    let typed = store.get(spec).map(|r| r.to_json());
    assert!(
        typed.is_none() || typed.as_ref() == Some(result),
        "{typed:?}"
    );
    assert_eq!(raw.is_some(), typed.is_some(), "both planes verify alike");
    for outcome in [store.stats().map(|_| ()), store.gc(1).map(|_| ())] {
        match outcome {
            Ok(()) | Err(StoreError::Io(_)) => {}
        }
    }
    raw.is_some()
}

/// The entry envelope as `FsResultStore` files it, with every field
/// chosen by the caller.
fn envelope(check: u64, spec: &str, result: &str) -> String {
    format!(
        "{{\"seq\":3,\"check\":\"{check:016x}\",\"spec\":{},\"result\":{}}}",
        json_string(spec),
        json_string(result)
    )
}

/// `field` of the entry envelope with `value` as its JSON text, or left
/// out when `value` is `None`; the other fields as `FsResultStore` files
/// them.
fn envelope_with(field: usize, value: Option<&str>) -> String {
    let (spec, result) = stored();
    let check = format!("\"{:016x}\"", spec_key(result));
    let fields = [
        ("seq", "3".to_string()),
        ("check", check),
        ("spec", json_string(spec)),
        ("result", json_string(result)),
    ];
    let members: Vec<String> = fields
        .iter()
        .enumerate()
        .filter_map(|(i, (name, text))| match (i == field, value) {
            (false, _) => Some(format!("\"{name}\":{text}")),
            (true, Some(v)) => Some(format!("\"{name}\":{v}")),
            (true, None) => None,
        })
        .collect();
    format!("{{{}}}", members.join(","))
}

/// Every strict prefix of a valid entry, and the entry with any one byte
/// flipped, is a miss or the stored value; no prefix hits.
#[test]
fn every_truncation_and_byte_flip_of_an_entry_is_safe() {
    let (store, path) = store_with_entry("damage");
    let entry = std::fs::read(&path).expect("entry written");
    for cut in 0..entry.len() {
        assert!(
            !lookups_after_writing(&store, &path, &entry[..cut]),
            "a {cut}-byte prefix hit"
        );
    }
    for pos in 0..entry.len() {
        for mask in [0x01, 0x20, 0xFF] {
            let mut bytes = entry.clone();
            bytes[pos] ^= mask;
            lookups_after_writing(&store, &path, &bytes);
        }
    }
    assert!(
        lookups_after_writing(&store, &path, &entry),
        "the intact entry hits"
    );
    assert_eq!(store.gc(0).map(|r| r.removed), Ok(1));
    let _ = std::fs::remove_dir_all(store.dir());
}

proptest! {
    /// Random bytes at an entry's path never panic a lookup or a
    /// maintenance pass.
    #[test]
    fn random_bytes_at_an_entry_path_are_safe(
        noise in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let (store, path) = store_with_entry("noise");
        lookups_after_writing(&store, &path, &noise);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// A well-formed envelope filed under the wrong spec, or carrying the
    /// wrong checksum, is a miss.
    #[test]
    fn foreign_spec_and_wrong_check_envelopes_miss(
        foreign in proptest::collection::vec(any::<u8>(), 0..40),
        wrong in any::<u64>(),
    ) {
        let (store, path) = store_with_entry("envelope");
        let (spec, result) = stored();
        let check = spec_key(result);
        let foreign = String::from_utf8_lossy(&foreign).into_owned();
        prop_assume!(foreign != *spec && wrong != check);
        let imposter = envelope(check, &foreign, result);
        prop_assert!(!lookups_after_writing(&store, &path, imposter.as_bytes()));
        let tampered = envelope(wrong, spec, result);
        prop_assert!(!lookups_after_writing(&store, &path, tampered.as_bytes()));
        let genuine = envelope(check, spec, result);
        prop_assert!(lookups_after_writing(&store, &path, genuine.as_bytes()));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// A valid entry with one field dropped or replaced by a hostile
    /// value (a random string, an out-of-range or malformed number, a
    /// nested value, `null`) never panics. Only `seq` is free: lookups
    /// ignore it, so such an entry still hits; any other mutation misses.
    #[test]
    fn field_mutated_entries_miss_unless_only_seq_changed(
        field in 0usize..4,
        how in 0u8..6,
        noise in proptest::collection::vec(any::<u8>(), 0..32),
        n in any::<u64>(),
    ) {
        let (store, path) = store_with_entry("fields");
        let text = String::from_utf8_lossy(&noise).into_owned();
        let value = match how {
            0 => None,
            1 => Some(json_string(&text)),
            2 => Some(format!("-{n}")),
            3 => Some(format!("{n}{n}e999")),
            4 => Some(format!("[{{\"seq\":{n}}},null]")),
            _ => Some("null".to_string()),
        };
        let entry = envelope_with(field, value.as_deref());
        let hit = lookups_after_writing(&store, &path, entry.as_bytes());
        prop_assert_eq!(hit, field == 0, "{}", entry);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// Whatever bytes the `seq` counter file holds, a new entry is still
    /// filed and found, the existing entry keeps hitting, and `stats`/`gc`
    /// answer `Ok` or a typed error.
    #[test]
    fn random_bytes_in_the_seq_file_are_safe(
        noise in proptest::collection::vec(any::<u8>(), 0..64),
        cut in 0usize..64,
    ) {
        let (store, path) = store_with_entry("seq");
        let entry = std::fs::read(&path).expect("entry written");
        let seq_file = store.dir().join("seq");
        let seq = std::fs::read(&seq_file).expect("seq written");
        // Random bytes, or a truncation of the real counter followed by
        // the noise.
        let mut bytes = seq[..cut.min(seq.len())].to_vec();
        bytes.extend_from_slice(&noise);
        std::fs::write(&seq_file, &bytes).expect("seq path is writable");
        let other = "{\"campaign_epoch\":1,\"campaign\":\"fuzz\"}";
        store.put_json(other, "{\"kind\":\"epoch_outcome\"}");
        let found = store.get_json(other);
        prop_assert_eq!(found.as_deref(), Some("{\"kind\":\"epoch_outcome\"}"));
        let stats = store.stats();
        prop_assert!(matches!(stats, Ok(s) if s.entries == 2), "{:?}", stats);
        prop_assert!(lookups_after_writing(&store, &path, &entry));
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
