//! Never-panic properties for the JSON wire decoders, mirroring the
//! `NBTITRC` suite in `noc-workload`: the HTTP API, the result store and
//! remote workers hand these functions outside bytes, so random bytes,
//! truncations of a valid encoding and single-byte flips must each come
//! back as `Ok` or a typed `CodecError` — never a panic.

use proptest::prelude::*;
use sensorwise::{
    spec_from_json, spec_to_json, JsonValue, PolicyKind, SyntheticScenario, WireEpochOutcome,
    WireEpochRequest, WireResult,
};
use std::sync::atomic::AtomicBool;
use std::sync::OnceLock;

/// Bytes random documents are drawn from: JSON's structural characters,
/// literals and digits reach far deeper into the parser than uniform bytes.
const JSON_ALPHABET: &[u8] = b"{}[]\":,-+.0123456789eEtrufalsn\\ \"abc";

/// The wire forms, in the order [`decode`] indexes them.
const FORMS: usize = 4;

/// One valid encoding of every wire form, built once per test binary.
fn corpus() -> &'static [String; FORMS] {
    static CORPUS: OnceLock<[String; FORMS]> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut job = SyntheticScenario {
            cores: 4,
            vcs: 2,
            injection_rate: 0.1,
        }
        .job(PolicyKind::SensorWise, 100, 800);
        job.cfg.telemetry.trace = true;
        let first = WireEpochRequest {
            base: job.clone(),
            resume: None,
            vths_bits: None,
            drain_limit: 10_000,
        };
        let outcome = WireEpochOutcome::from(
            &first
                .run_cancellable(&AtomicBool::new(false))
                .expect("epoch runs"),
        );
        let resumed = WireEpochRequest {
            base: job.clone(),
            resume: Some(outcome.snapshot.clone()),
            vths_bits: Some(outcome.initial_vths_bits.clone()),
            drain_limit: 10_000,
        };
        [
            spec_to_json(&job).expect("servable spec"),
            resumed.to_json().expect("servable request"),
            outcome.to_json(),
            outcome.result.to_json(),
        ]
    })
}

/// Runs the decoder of wire form `form` over `text`; `true` when it
/// accepted the input.
fn decode(form: usize, text: &str) -> bool {
    match form {
        0 => spec_from_json(text).is_ok(),
        1 => WireEpochRequest::from_json(text).is_ok(),
        2 => WireEpochOutcome::from_json(text).is_ok(),
        _ => WireResult::from_json(text).is_ok(),
    }
}

proptest! {
    /// The corpus itself decodes, so the corruption properties below start
    /// from inputs every decoder accepts. Encodings are ASCII, so any byte
    /// offset is a valid cut.
    #[test]
    fn every_valid_encoding_decodes(form in 0usize..FORMS) {
        prop_assert!(corpus()[form].is_ascii());
        prop_assert!(decode(form, &corpus()[form]));
    }

    /// Uniformly random bytes and random JSON-alphabet documents are
    /// answered by every decoder without a panic.
    #[test]
    fn random_input_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        picks in proptest::collection::vec(0usize..JSON_ALPHABET.len(), 0..512),
    ) {
        let jsonish: Vec<u8> = picks.iter().map(|&i| JSON_ALPHABET[i]).collect();
        for raw in [bytes, jsonish] {
            let text = String::from_utf8_lossy(&raw);
            let _ = JsonValue::parse(&text);
            for form in 0..FORMS {
                let _ = decode(form, &text);
            }
        }
    }

    /// Every strict prefix of a valid encoding is a typed error: a
    /// truncated document never decodes and never panics.
    #[test]
    fn truncation_is_always_an_error(form in 0usize..FORMS, cut_permille in 0usize..1000) {
        let text = &corpus()[form];
        let cut = text.len() * cut_permille / 1000;
        let prefix = &text[..cut];
        prop_assert!(JsonValue::parse(prefix).is_err(), "prefix of {} bytes parsed", cut);
        prop_assert!(!decode(form, prefix), "prefix of {} bytes decoded", cut);
    }

    /// Flipping any single byte of a valid encoding decodes to a value or
    /// a typed error, never a panic. Each case flips every 97th byte from
    /// its own offset, so the cases sweep the whole document.
    #[test]
    fn single_byte_flips_never_panic(form in 0usize..FORMS, offset in 0usize..97, mask in 1u8..=255) {
        let text = &corpus()[form];
        for pos in (offset..text.len()).step_by(97) {
            let mut bytes = text.as_bytes().to_vec();
            bytes[pos] ^= mask;
            let _ = decode(form, &String::from_utf8_lossy(&bytes));
        }
    }
}
