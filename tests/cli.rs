//! Integration tests for the `nbti-noc` command-line driver.

use std::process::Command;

fn run(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_nbti-noc"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn help_lists_subcommands() {
    let (stdout, _, ok) = run(&["help"]);
    assert!(ok);
    for cmd in ["run", "sweep", "record", "replay", "verify", "area"] {
        assert!(stdout.contains(cmd), "help missing `{cmd}`:\n{stdout}");
    }
}

#[test]
fn no_arguments_prints_help() {
    let (stdout, _, ok) = run(&[]);
    assert!(ok);
    assert!(stdout.contains("subcommands"));
}

#[test]
fn unknown_subcommand_fails_with_message() {
    let (_, stderr, ok) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown subcommand"), "{stderr}");
}

#[test]
fn unknown_policy_fails_with_message() {
    let (_, stderr, ok) = run(&["run", "--policy", "magic"]);
    assert!(!ok);
    assert!(stderr.contains("unknown policy"), "{stderr}");
}

/// The mesh is the only fabric, so `run` and `replay` have no fabric
/// flags and refuse them by name before simulating anything.
#[test]
fn fabric_flags_are_refused_by_name() {
    for args in [
        &["run", "--topology", "torus"][..],
        &["run", "--cores", "4", "--edges", "0-1,1-2"],
        &["replay", "--trace", "missing.nbtitrc", "--topology", "ring"],
    ] {
        let (stdout, stderr, ok) = run(args);
        assert!(!ok, "{args:?}");
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
        let flag = args[args.len() - 2];
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{args:?}: {stderr}"
        );
    }
}

/// Every subcommand refuses a flag it does not read, naming it, instead of
/// running with defaults: `sweep` has no `--routing` and no `--remote`,
/// `submit` no `--batch`, `serve` no `--bogus`, and an action word is
/// checked before its flags.
#[test]
fn unknown_flags_are_refused_by_every_subcommand() {
    for args in [
        &["sweep", "--routing", "yx"][..],
        &["serve", "--bogus", "1"],
        &["record", "--out", "never.nbtitrc", "--vcs", "2"],
        &[
            "campaign",
            "status",
            "--checkpoint",
            "none.ckpt",
            "--epochs",
            "3",
        ],
        &["spans", "none.jsonl", "--csv"],
        &["sweep", "--remote", "127.0.0.1:1"],
        &["submit", "--batch"],
    ] {
        let (stdout, stderr, ok) = run(args);
        assert!(!ok, "{args:?}");
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
        let flag = args.iter().rev().find(|a| a.starts_with("--")).unwrap();
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{args:?}: {stderr}"
        );
    }
    let (_, stderr, ok) = run(&["cache", "purge", "--dir", "x"]);
    assert!(!ok);
    assert!(
        stderr.contains("unknown cache action `purge` (stats | gc)"),
        "{stderr}"
    );
}

#[test]
fn more_than_32_vcs_per_port_is_a_config_error() {
    let (_, stderr, ok) = run(&[
        "run",
        "--cores",
        "4",
        "--vcs",
        "33",
        "--warmup",
        "10",
        "--measure",
        "10",
    ]);
    assert!(!ok);
    assert!(stderr.contains("invalid NoC configuration"), "{stderr}");
    assert!(stderr.contains("at most 32 virtual channels"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn run_csv_emits_one_row_per_port() {
    let (stdout, _, ok) = run(&[
        "run",
        "--cores",
        "4",
        "--vcs",
        "2",
        "--rate",
        "0.1",
        "--policy",
        "sw",
        "--warmup",
        "200",
        "--measure",
        "2000",
        "--csv",
    ]);
    assert!(ok, "{stdout}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines[0], "port,md_vc,duty_vc0,duty_vc1,flits");
    // 2x2 mesh: 16 gateable ports, plus the latency summary footer.
    assert_eq!(lines.len(), 1 + 16 + 1, "{stdout}");
    for row in &lines[1..17] {
        assert_eq!(row.split(',').count(), 5, "bad row `{row}`");
    }
    assert!(lines[17].starts_with("# latency_cycles p50<="), "{stdout}");
}

#[test]
fn run_reports_latency_percentiles() {
    let (stdout, _, ok) = run(&[
        "run",
        "--cores",
        "4",
        "--vcs",
        "2",
        "--rate",
        "0.1",
        "--policy",
        "rr",
        "--warmup",
        "200",
        "--measure",
        "2000",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("latency percentiles: p50<="), "{stdout}");
    assert!(stdout.contains("p95<=") && stdout.contains("p99<=") && stdout.contains("max<="));
}

#[test]
fn record_then_replay_round_trips() {
    let dir = std::env::temp_dir().join("nbti-noc-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.nbtitrc");
    let trace_str = trace.to_str().unwrap();
    let (stdout, _, ok) = run(&[
        "record", "--out", trace_str, "--cores", "4", "--rate", "0.2", "--cycles", "3000",
        "--seed", "5",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("recorded"));
    let (stdout, _, ok) = run(&[
        "replay", "--trace", trace_str, "--cores", "4", "--vcs", "2", "--policy", "rr",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("delivered"), "{stdout}");
    std::fs::remove_file(trace).ok();
}

#[test]
fn replay_rejects_a_foreign_file_with_a_typed_trace_error() {
    let dir = std::env::temp_dir().join("nbti-noc-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    // The retired plain-text trace format is not an NBTITRC stream.
    let text = dir.join("old-text.trace");
    std::fs::write(&text, "# nbti-noc trace v1\n0 0 1 5\n5 1 2 5\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_nbti-noc"))
        .args(["replay", "--trace", text.to_str().unwrap(), "--cores", "4"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("not an NBTITRC trace (bad magic)"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_file(text).ok();
}

#[test]
fn sweep_accepts_jobs_and_results_do_not_depend_on_it() {
    let base = [
        "sweep",
        "--cores",
        "4",
        "--vcs",
        "2",
        "--warmup",
        "200",
        "--measure",
        "1500",
    ];
    let mut serial = base.to_vec();
    serial.extend(["--jobs", "1"]);
    let mut pooled = base.to_vec();
    pooled.extend(["--jobs", "4"]);
    let (out1, _, ok1) = run(&serial);
    let (out4, _, ok4) = run(&pooled);
    assert!(ok1, "{out1}");
    assert!(ok4, "{out4}");
    assert!(out1.contains("rate"), "{out1}");
    assert_eq!(out1, out4, "sweep output must not depend on --jobs");
}

#[test]
fn sweep_rejects_zero_jobs_with_clear_error() {
    let (_, stderr, ok) = run(&["sweep", "--jobs", "0"]);
    assert!(!ok);
    assert!(stderr.contains("--jobs must be at least 1"), "{stderr}");
}

/// The shared arguments of the telemetry round-trip tests below.
const TELEMETRY_RUN: &[&str] = &[
    "run",
    "--cores",
    "4",
    "--vcs",
    "2",
    "--rate",
    "0.1",
    "--policy",
    "sw",
    "--warmup",
    "200",
    "--measure",
    "2000",
];

#[test]
fn run_writes_trace_and_metrics_and_stats_matches_digest() {
    let dir = std::env::temp_dir().join("nbti-noc-cli-telemetry");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("events.jsonl");
    let metrics = dir.join("metrics.csv");
    let mut args = TELEMETRY_RUN.to_vec();
    args.extend([
        "--trace-out",
        trace.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
        "--sample-period",
        "500",
    ]);
    let (stdout, stderr, ok) = run(&args);
    assert!(ok, "{stdout}\n{stderr}");
    assert!(stderr.contains("wrote"), "{stderr}");

    // The run reports the whole-stream digest; stats re-hashes the file.
    let digest = stderr
        .lines()
        .find_map(|l| l.split("digest ").nth(1))
        .map(|d| d.trim_end_matches(')').to_string())
        .expect("run reports a digest");
    let (stats, _, ok) = run(&["stats", "--trace", trace.to_str().unwrap()]);
    assert!(ok, "{stats}");
    assert!(stats.contains(&format!("digest: {digest}")), "{stats}");
    assert!(stats.contains("event counts:"), "{stats}");
    assert!(stats.contains("gating churn per port"), "{stats}");
    assert!(stats.contains("latency: p50"), "{stats}");

    let csv = std::fs::read_to_string(&metrics).unwrap();
    let mut lines = csv.lines();
    assert_eq!(
        lines.next().unwrap(),
        "cycle,port,duty_percent,occupancy,churn,powered_vcs,delta_vth_mv"
    );
    // (200 + 2000) / 500 sampling points, one row per port.
    assert_eq!(lines.count(), 4 * 16, "{csv}");

    std::fs::remove_file(trace).ok();
    std::fs::remove_file(metrics).ok();
}

#[test]
fn telemetry_does_not_perturb_results_and_digest_is_reproducible() {
    let dir = std::env::temp_dir().join("nbti-noc-cli-telemetry-det");
    std::fs::create_dir_all(&dir).unwrap();
    let (plain, _, ok) = run(TELEMETRY_RUN);
    assert!(ok, "{plain}");
    let mut digests = Vec::new();
    for name in ["a.jsonl", "b.jsonl"] {
        let trace = dir.join(name);
        let mut args = TELEMETRY_RUN.to_vec();
        args.extend(["--trace-out", trace.to_str().unwrap()]);
        let (stdout, stderr, ok) = run(&args);
        assert!(ok, "{stdout}\n{stderr}");
        assert_eq!(plain, stdout, "tracing must not change the port table");
        let (stats, _, ok) = run(&["stats", "--trace", trace.to_str().unwrap()]);
        assert!(ok, "{stats}");
        digests.push(
            stats
                .lines()
                .find_map(|l| l.strip_prefix("digest: "))
                .expect("stats prints a digest")
                .to_string(),
        );
        std::fs::remove_file(trace).ok();
    }
    assert_eq!(digests[0], digests[1], "same config, same event stream");
}

#[test]
fn stats_rejects_a_missing_trace() {
    let (_, stderr, ok) = run(&["stats", "--trace", "/nonexistent/trace.jsonl"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn verify_explores_and_reports_state_counts_for_every_policy() {
    // A shallow bound keeps the debug-build test fast; the full closure
    // depth is gated in scripts/ci.sh with the release binary.
    let (stdout, _, ok) = run(&["verify", "--depth", "4"]);
    assert!(ok, "{stdout}");
    for policy in [
        "baseline",
        "rr-no-sensor",
        "sensor-wise-no-traffic",
        "sensor-wise",
        "sensor-wise-k2",
    ] {
        let line = stdout
            .lines()
            .find(|l| l.starts_with(&format!("{policy}: ")))
            .unwrap_or_else(|| panic!("missing `{policy}` line:\n{stdout}"));
        assert!(line.contains("unique states"), "{line}");
        assert!(line.contains("deduplicated"), "{line}");
    }
}

#[test]
fn verify_rejects_unknown_fault_names() {
    let (_, stderr, ok) = run(&["verify", "--inject-fault", "gremlins"]);
    assert!(!ok);
    assert!(stderr.contains("unknown fault"), "{stderr}");
}

#[test]
fn verify_with_planted_fault_writes_a_replayable_counterexample() {
    let dir = std::env::temp_dir().join("nbti-noc-cli-verify");
    std::fs::create_dir_all(&dir).unwrap();
    let cx = dir.join("cx.jsonl");
    let cx_str = cx.to_str().unwrap();
    let (stdout, stderr, ok) = run(&[
        "verify",
        "--policy",
        "sw",
        "--depth",
        "6",
        "--inject-fault",
        "gate-occupied",
        "--counterexample-out",
        cx_str,
    ]);
    assert!(!ok, "a planted fault must fail the verification:\n{stdout}");
    assert!(stdout.contains("VIOLATION"), "{stdout}");
    assert!(stderr.contains("counterexample"), "{stderr}");

    // The emitted trace is a standard telemetry stream: `stats` accepts
    // it and reports the violation among the event counts.
    let (stats, _, ok) = run(&["stats", "--trace", cx_str]);
    assert!(ok, "{stats}");
    assert!(stats.contains("violation"), "{stats}");
    assert!(stats.contains("digest: "), "{stats}");
    std::fs::remove_file(cx).ok();
}

#[test]
fn area_prints_paper_anchors() {
    let (stdout, _, ok) = run(&["area"]);
    assert!(ok);
    assert!(stdout.contains("3.25%"), "{stdout}");
}

#[test]
fn sensor_wise_k_policy_is_accepted() {
    let (stdout, _, ok) = run(&[
        "run",
        "--cores",
        "4",
        "--vcs",
        "2",
        "--rate",
        "0.1",
        "--policy",
        "sw-k2",
        "--warmup",
        "100",
        "--measure",
        "1000",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("delivered"));
}

#[test]
fn run_json_emits_the_wire_schema_with_a_digest() {
    let args = [
        "run",
        "--cores",
        "4",
        "--vcs",
        "2",
        "--rate",
        "0.1",
        "--warmup",
        "100",
        "--measure",
        "1000",
        "--json",
    ];
    let (stdout, stderr, ok) = run(&args);
    assert!(ok, "{stdout}\n{stderr}");
    let wire = sensorwise::WireResult::from_json(stdout.trim()).expect("valid wire JSON");
    assert_eq!(wire.policy, "sensor-wise");
    assert_eq!(wire.measured_cycles, 1000);
    let digest = wire.trace_digest.expect("--json always carries the digest");
    // Same config, same digest: the CLI's JSON is the service's JSON.
    let (again, _, ok) = run(&args);
    assert!(ok);
    let wire2 = sensorwise::WireResult::from_json(again.trim()).expect("valid wire JSON");
    assert_eq!(wire2.trace_digest, Some(digest));
}
