//! Property tests for the `NBTICAMP` checkpoint codec: round-trips are
//! bit-exact across the spec space, and *no* corruption — truncation,
//! byte flips, bad headers — can panic the decoder or slip through as a
//! silently-wrong resume. The canonical spec JSON gets the same
//! never-panic treatment.

use noc_campaign::{Campaign, CampaignSpec, SnapshotError};
use proptest::prelude::*;
use sensorwise::policy::PolicyKind;
use sensorwise::{ExperimentConfig, ExperimentJob, TrafficSpec};

fn spec(policy_pick: u8, epochs: u32, seed: u64, rate_milli: u32, accel_exp: u32) -> CampaignSpec {
    let policy = match policy_pick % 4 {
        0 => PolicyKind::Baseline,
        1 => PolicyKind::RrNoSensor,
        2 => PolicyKind::SensorWiseNoTraffic,
        _ => PolicyKind::SensorWise,
    };
    CampaignSpec {
        base: ExperimentJob {
            cfg: ExperimentConfig::new(
                noc_sim::config::NocConfig::paper_synthetic(4, 2),
                policy,
            )
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
