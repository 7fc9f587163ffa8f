//! Simulator throughput bench: kcycles/sec of the full experiment loop,
//! untraced and with the per-cycle stage profiler attached, appended to
//! `BENCH_sim.json`.
//!
//! Each invocation runs the standard synthetic scenario twice: once
//! untraced, which gives `kcycles_per_sec_untraced`, the rate a user sees,
//! and once profiled, which must produce the same result. It prints the
//! per-stage p50/p95/p99 latency table of the profiled run (the same one
//! `nbti-noc run --profile` shows), and records wall time, kcycles/sec
//! and the per-stage mean costs. Regressions in the cycle loop — routing,
//! allocation, traversal, or the gating controller — show up both as a
//! throughput drop and as growth in the stage that caused it.
//!
//! Usage: `cargo run --release -p nbti-noc-bench --bin sim_throughput`
//! `[-- --cores N --vcs V --rate R --policy P --warmup N --measure N]`

use nbti_noc_bench::{append_entry, existing_runs};
use noc_telemetry::{clock, Stage};
use sensorwise::{result_to_json, ExperimentJob, PolicyKind, SyntheticScenario};
use std::path::Path;

struct BenchConfig {
    cores: usize,
    vcs: usize,
    rate: f64,
    policy: PolicyKind,
    warmup: u64,
    measure: u64,
}

fn parse_args() -> BenchConfig {
    let mut cfg = BenchConfig {
        cores: 16,
        vcs: 2,
        rate: 0.2,
        policy: PolicyKind::SensorWise,
        warmup: 1_000,
        measure: 20_000,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let value = it.next().map(|v| v.as_str()).unwrap_or("");
        match arg.as_str() {
            "--cores" => cfg.cores = value.parse().expect("--cores"),
            "--vcs" => cfg.vcs = value.parse().expect("--vcs"),
            "--rate" => cfg.rate = value.parse().expect("--rate"),
            "--policy" => cfg.policy = PolicyKind::parse(value).expect("--policy"),
            "--warmup" => cfg.warmup = value.parse().expect("--warmup"),
            "--measure" => cfg.measure = value.parse().expect("--measure"),
            other => panic!("unknown argument `{other}`"),
        }
    }
    cfg
}

fn main() {
    let bench = parse_args();
    let scenario = SyntheticScenario {
        cores: bench.cores,
        vcs: bench.vcs,
        injection_rate: bench.rate,
    };
    let mut job: ExperimentJob = scenario.job(bench.policy, bench.warmup, bench.measure);
    job.traffic = job.traffic.with_seed(1);

    let cycles = bench.warmup + bench.measure;
    let started = clock::now();
    let untraced = job.run();
    // Cycles per millisecond, from nanoseconds.
    let untraced_kcycles_per_sec = cycles as f64 * 1e6 / clock::ns_since(started).max(1) as f64;

    let started = clock::now();
    let (result, prof) = job.run_profiled();
    let elapsed_ms = clock::ms_since(started).max(1);
    assert_eq!(
        result_to_json(&untraced),
        result_to_json(&result),
        "profiling changed the simulation"
    );
    let kcycles_per_sec = cycles as f64 / elapsed_ms as f64;
    let report = prof.report();
    print!("{report}");

    // Per-stage mean ns, in pipeline order, for the trajectory entry.
    let stage_means: Vec<String> = Stage::ALL
        .iter()
        .map(|&s| format!("\"{}\":{}", s.name(), prof.stage(s).mean()))
        .collect();

    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_sim.json");
    let run = existing_runs(&out) + 1;
    let entry = format!(
        "{{\"run\":{run},\"cores\":{},\"vcs\":{},\"rate\":{},\"policy\":\"{}\",\
         \"cycles\":{cycles},\"elapsed_ms\":{elapsed_ms},\
         \"kcycles_per_sec\":{kcycles_per_sec:.1},\"packets_ejected\":{},\
         \"mean_ns\":{{{}}},\"kcycles_per_sec_untraced\":{untraced_kcycles_per_sec:.1}}}",
        bench.cores,
        bench.vcs,
        bench.rate,
        bench.policy.label(),
        result.net.packets_ejected,
        stage_means.join(",")
    );
    append_entry(&out, &entry);
    println!(
        "sim_throughput: {cycles} cycles in {elapsed_ms} ms ({kcycles_per_sec:.1} kcycles/s \
         profiled, {untraced_kcycles_per_sec:.1} untraced), {} packets, policy {}",
        result.net.packets_ejected,
        bench.policy.label()
    );
    println!("appended run {run} to {}", out.display());
}
