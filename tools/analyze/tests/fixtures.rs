//! Golden tests over the fixture tree and the real workspace.
//!
//! The fixture tree under `tools/analyze/fixtures/` is built so that
//! every rule — the five token rules and the four
//! interprocedural passes — trips a known number of times (once per
//! fixture file: `alloc-in-hot-path` has one fixture in the simulator
//! scope and one in the workload scope), and so that forbidden tokens
//! inside string literals, comments, and test-only code stay silent.

use noc_analyze::{analyze_root, Options};
use std::collections::BTreeMap;
use std::path::Path;

fn fixture_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures"))
}

const ALL_RULES: [&str; 9] = [
    "alloc-in-hot-path",
    "blocking-under-lock",
    "lock-order",
    "no-os-random",
    "no-thread-spawn",
    "no-unordered-map",
    "no-unwrap",
    "no-wall-clock",
    "panic-reachability",
];

#[test]
fn every_rule_trips_with_known_multiplicity_on_the_fixture_tree() {
    let a = analyze_root(fixture_root(), &Options::default());
    let mut per_rule: BTreeMap<&str, usize> = BTreeMap::new();
    for f in &a.findings {
        *per_rule.entry(f.rule).or_default() += 1;
    }
    assert_eq!(
        per_rule.keys().copied().collect::<Vec<_>>(),
        ALL_RULES,
        "{:#?}",
        a.findings
    );
    for (rule, &n) in &per_rule {
        // One fixture per scope: the simulator and workload scopes each
        // carry an `alloc-in-hot-path` fixture; every other rule has one.
        let expect = if *rule == "alloc-in-hot-path" { 2 } else { 1 };
        assert_eq!(n, expect, "{rule}: {:#?}", a.findings);
    }
}

#[test]
fn interprocedural_findings_carry_call_path_evidence() {
    let a = analyze_root(fixture_root(), &Options::default());
    for rule in ["alloc-in-hot-path", "panic-reachability"] {
        let f = a
            .findings
            .iter()
            .find(|f| f.rule == rule)
            .unwrap_or_else(|| panic!("missing {rule} fixture finding"));
        assert!(
            !f.path.is_empty(),
            "{rule} must report how the hot entry reaches the site"
        );
        assert!(
            f.path[0].contains(':'),
            "hops carry file:line: {:?}",
            f.path
        );
    }
}

#[test]
fn lock_inversion_reports_both_acquisition_paths() {
    let a = analyze_root(fixture_root(), &Options::default());
    let f = a
        .findings
        .iter()
        .find(|f| f.rule == "lock-order")
        .expect("lock-order fixture finding");
    assert!(f.message.contains("inversion"), "{}", f.message);
    assert!(f.message.contains("acquisition path"), "{}", f.message);
    assert_eq!(
        f.path.len(),
        2,
        "one hop per conflicting path: {:#?}",
        f.path
    );
}

#[test]
fn forbidden_tokens_in_strings_comments_and_tests_stay_silent() {
    let a = analyze_root(fixture_root(), &Options::default());
    let noisy: Vec<_> = a
        .findings
        .iter()
        .filter(|f| f.file.ends_with("string_literal_ok.rs"))
        .collect();
    assert!(noisy.is_empty(), "{noisy:#?}");
}

#[test]
fn sanctioned_clock_boundary_stays_silent() {
    // `crates/telemetry/src/clock.rs` holds a raw `Instant::now()`
    // with no `lint:allow` marker; the path-allowlist alone must keep
    // `no-wall-clock` quiet, while the violation fixture still trips it.
    let a = analyze_root(fixture_root(), &Options::default());
    let noisy: Vec<_> = a
        .findings
        .iter()
        .filter(|f| f.file.ends_with("telemetry/src/clock.rs"))
        .collect();
    assert!(noisy.is_empty(), "{noisy:#?}");
    let wall = a
        .findings
        .iter()
        .find(|f| f.rule == "no-wall-clock")
        .expect("violation fixture still trips");
    assert!(wall.file.ends_with("wall_clock_violation.rs"), "{wall:#?}");
}

#[test]
fn strict_indexing_reports_counted_sites() {
    let default = analyze_root(fixture_root(), &Options::default());
    assert_eq!(
        default.hot_index_sites, 1,
        "the peek_head site is counted even when not reported"
    );
    let strict = analyze_root(
        fixture_root(),
        &Options {
            strict_indexing: true,
        },
    );
    assert_eq!(strict.findings.len(), default.findings.len() + 1);
    let extra = strict
        .findings
        .iter()
        .find(|f| f.message.contains("slice indexing"))
        .expect("strict mode reports the indexing site");
    assert_eq!(extra.rule, "panic-reachability");
    assert!(extra.file.ends_with("panic_reach.rs"));
}

#[test]
fn workspace_has_no_unsuppressed_findings() {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let a = analyze_root(root, &Options::default());
    assert!(a.findings.is_empty(), "{:#?}", a.findings);
}
