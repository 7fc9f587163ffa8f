//! Never-panic properties for the HTTP request parser and the request
//! target, in the style of the JSON decoder suite in `sensorwise`: every
//! handler feeds `read_request` bytes from an untrusted socket, so random
//! bytes, truncations of a valid request, oversize heads, bad
//! `Content-Length` values and garbage `?wait_ms=` queries must each come
//! back as `Ok` or a typed error — never a panic.

use noc_service::http::{parse_target, read_request};
use proptest::prelude::*;

/// Bytes random heads are drawn from: the request line's and the
/// headers' structural characters reach deeper than uniform bytes.
const HEAD_ALPHABET: &[u8] = b"GETPOS /jobs?wait_ms=0123456789:\r\nContent-Length HTTP/1.\xff";

/// A valid request; the properties cut and flip it.
const VALID: &str = "POST /jobs HTTP/1.1\r\nHost: lab\r\nContent-Length: 11\r\n\r\n{\"jobs\":[]}";

/// Parses `raw` as a whole request and, when that succeeds, its target;
/// `true` when both were accepted.
fn parse(raw: &[u8]) -> bool {
    match read_request(&mut &raw[..]) {
        Ok(req) => parse_target(&req.path).is_ok(),
        Err(_) => false,
    }
}

#[test]
fn the_valid_request_parses() {
    let req = read_request(&mut VALID.as_bytes()).expect("valid request");
    assert_eq!(req.body, "{\"jobs\":[]}");
    let target = parse_target(&req.path).expect("plain target");
    assert_eq!(target.segments, ["jobs"]);
}

#[test]
fn an_oversize_head_is_an_error() {
    let raw = format!(
        "GET /stats HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
        "a".repeat(64 * 1024)
    );
    let err = read_request(&mut raw.as_bytes()).expect_err("oversize head");
    assert!(err.contains("exceeds"), "{err}");
}

proptest! {
    /// Uniform bytes and random head-alphabet documents never panic.
    #[test]
    fn random_input_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..1024),
        picks in proptest::collection::vec(0usize..HEAD_ALPHABET.len(), 0..1024),
    ) {
        let headish: Vec<u8> = picks.iter().map(|&i| HEAD_ALPHABET[i]).collect();
        for raw in [bytes, headish] {
            let _ = parse(&raw);
        }
    }

    /// Every strict prefix of a valid request is a typed error.
    #[test]
    fn truncation_is_always_an_error(cut in 0usize..VALID.len()) {
        prop_assert!(!parse(&VALID.as_bytes()[..cut]), "prefix of {} bytes parsed", cut);
    }

    /// Flipping any byte of a valid request parses or errs, never panics.
    #[test]
    fn single_byte_flips_never_panic(pos in 0usize..VALID.len(), mask in 1u8..=255) {
        let mut raw = VALID.as_bytes().to_vec();
        raw[pos] ^= mask;
        let _ = parse(&raw);
    }

    /// Oversize heads are refused whatever they are padded with.
    #[test]
    fn oversize_heads_are_errors(pad in proptest::collection::vec(any::<u8>(), 9_000..12_000)) {
        let mut raw = b"GET /stats HTTP/1.1\r\nX-Pad: ".to_vec();
        raw.extend(pad.iter().map(|&b| if b == b'\r' || b == b'\n' { b'a' } else { b }));
        raw.extend_from_slice(b"\r\n\r\n");
        prop_assert!(read_request(&mut &raw[..]).is_err());
    }

    /// A garbage `Content-Length` never panics, and one that promises
    /// more bytes than arrive is a typed error.
    #[test]
    fn bad_content_lengths_are_errors(
        picks in proptest::collection::vec(0usize..HEAD_ALPHABET.len(), 1..24),
        extra in 1usize..1_000_000_000,
    ) {
        let value: String = picks.iter().map(|&i| char::from(HEAD_ALPHABET[i])).collect();
        let raw = format!("POST /jobs HTTP/1.1\r\nContent-Length: {value}\r\n\r\n{{}}");
        let _ = parse(raw.as_bytes());
        let short = format!("POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n{{}}", 2 + extra);
        prop_assert!(read_request(&mut short.as_bytes()).is_err());
    }

    /// Garbage `?wait_ms=` values are typed errors; decimal ones parse to
    /// themselves.
    #[test]
    fn wait_ms_queries_parse_or_err(
        picks in proptest::collection::vec(0usize..HEAD_ALPHABET.len(), 0..32),
        n in any::<u64>(),
    ) {
        let garbage: String = picks.iter().map(|&i| char::from(HEAD_ALPHABET[i])).collect();
        if let Ok(t) = parse_target(&format!("/jobs/1/result?wait_ms={garbage}")) {
            prop_assert!(!garbage.is_empty() && garbage.bytes().all(|b| b.is_ascii_digit()));
            prop_assert!(t.wait_ms.is_some());
        }
        let decimal = format!("/jobs/1/result?wait_ms={n}");
        prop_assert_eq!(parse_target(&decimal).expect("decimal u64").wait_ms, Some(n));
    }
}
