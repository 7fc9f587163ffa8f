//! Explorer throughput bench: states/second and peak seen-set size of the
//! exhaustive gating-protocol verification, appended to `BENCH_verify.json`.
//!
//! Runs the breadth-first explorer over every checked policy (exact mode
//! and symmetry-reduced mode) at the full closure depth and records the
//! aggregate throughput, so regressions in the state encoder, the
//! seen-set, or the replay-based expansion show up as a drop between
//! consecutive runs.
//!
//! Usage: `cargo run --release -p nbti-noc-bench --bin verify_throughput`
//! `[-- --depth N --symmetry-only]`

use nbti_noc_bench::{append_entry, existing_runs};
use noc_modelcheck::{explore, StandardOracle};
use noc_telemetry::clock;
use sensorwise::modelcheck::{checked_policies, controller_for, explore_config_for, DEFAULT_DEPTH};
use std::path::Path;

struct BenchConfig {
    depth: usize,
    /// Skip the (slower) exact-mode pass and measure only the
    /// symmetry-reduced explorations.
    symmetry_only: bool,
}

fn parse_args() -> BenchConfig {
    let mut cfg = BenchConfig {
        depth: DEFAULT_DEPTH,
        symmetry_only: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--depth" => {
                let value = it.next().expect("--depth needs a value");
                cfg.depth = value.parse().expect("--depth");
            }
            "--symmetry-only" => cfg.symmetry_only = true,
            other => panic!("unknown argument `{other}`"),
        }
    }
    cfg
}

fn main() {
    let bench = parse_args();
    let modes: &[bool] = if bench.symmetry_only {
        &[true]
    } else {
        &[false, true]
    };

    let mut total_states = 0usize;
    let mut total_transitions = 0usize;
    let mut peak_seen = 0usize;
    let mut exact_states = 0usize;
    let mut symmetry_states = 0usize;
    let started = clock::now();
    for &symmetry in modes {
        for policy in checked_policies() {
            let cfg = explore_config_for(policy, bench.depth, symmetry);
            let mut ctrl = controller_for(policy);
            let report = explore(&cfg, &mut ctrl, &mut StandardOracle);
            assert!(
                report.counterexample.is_none(),
                "clean protocol must verify: {policy:?}"
            );
            assert!(
                report.exhausted,
                "depth {} must close the space for {policy:?}",
                bench.depth
            );
            total_states += report.unique_states;
            total_transitions += report.transitions;
            peak_seen = peak_seen.max(report.peak_seen);
            if symmetry {
                symmetry_states += report.unique_states;
            } else {
                exact_states += report.unique_states;
            }
            eprintln!(
                "[verify_throughput] {}{}: {}",
                policy.label(),
                if symmetry { " (symmetry)" } else { "" },
                report.summary()
            );
        }
    }
    let elapsed_ms = clock::ms_since(started).max(1);
    let states_per_sec = total_states as f64 * 1_000.0 / elapsed_ms as f64;

    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_verify.json");
    let run = existing_runs(&out) + 1;
    let entry = format!(
        "{{\"run\":{run},\"depth\":{},\"policies\":{},\"modes\":{},\
         \"unique_states\":{total_states},\"exact_states\":{exact_states},\
         \"symmetry_states\":{symmetry_states},\"transitions\":{total_transitions},\
         \"peak_seen\":{peak_seen},\"elapsed_ms\":{elapsed_ms},\
         \"states_per_sec\":{states_per_sec:.0}}}",
        bench.depth,
        checked_policies().len(),
        modes.len()
    );
    append_entry(&out, &entry);
    println!(
        "verify_throughput: {total_states} states ({total_transitions} transitions) in \
         {elapsed_ms} ms ({states_per_sec:.0} states/s), peak seen-set {peak_seen}",
    );
    println!("appended run {run} to {}", out.display());
}
