//! Workload subsystem throughput bench: `NBTITRC` codec speed in
//! trace-records/sec, appended to `BENCH_workload.json`.
//!
//! Each invocation generates one deterministic application-mix trace in
//! memory and times, in microseconds, the generate-and-encode pass and
//! the checksum-verifying decode. Regressions in the chunked codec show
//! up as a records/s drop. Simulation speed is `sim_throughput`'s.
//!
//! Usage: `cargo run --release -p nbti-noc-bench --bin workload_throughput`
//! `[-- --nodes N --rate R --cycles N --seed N]`

use nbti_noc_bench::{append_entry, existing_runs};
use noc_telemetry::clock;
use noc_workload::{decode_trace, MixGenerator, MixKind, MixSpec};
use std::path::Path;

struct BenchConfig {
    nodes: u16,
    rate: f64,
    cycles: u64,
    seed: u64,
}

fn parse_args() -> BenchConfig {
    let mut cfg = BenchConfig {
        nodes: 16,
        rate: 0.15,
        cycles: 20_000,
        seed: 7,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let value = it.next().map(|v| v.as_str()).unwrap_or("");
        match arg.as_str() {
            "--nodes" => cfg.nodes = value.parse().expect("--nodes"),
            "--rate" => cfg.rate = value.parse().expect("--rate"),
            "--cycles" => cfg.cycles = value.parse().expect("--cycles"),
            "--seed" => cfg.seed = value.parse().expect("--seed"),
            other => panic!("unknown argument `{other}`"),
        }
    }
    cfg
}

fn main() {
    let bench = parse_args();
    let spec = MixSpec {
        kind: MixKind::HotspotServer,
        nodes: bench.nodes,
        rate: bench.rate,
        packet_len: 5,
        seed: bench.seed,
    };

    // Codec: generate + encode, then the checksum-verifying decode.
    let started = clock::now();
    let bytes = MixGenerator::new(spec)
        .write_trace(bench.cycles)
        .expect("mix generators emit valid records")
        .finish();
    let encode_us = clock::us_since(started).max(1);
    let started = clock::now();
    let (header, _records) = decode_trace(&bytes).expect("own encoding decodes");
    let decode_us = clock::us_since(started).max(1);
    let n_records = header.records;
    let encode_rps = n_records as f64 * 1e6 / encode_us as f64;
    let decode_rps = n_records as f64 * 1e6 / decode_us as f64;
    println!(
        "codec: {n_records} records, encode {encode_rps:.0} records/s ({encode_us} us), \
         decode {decode_rps:.0} records/s ({decode_us} us), {} bytes",
        bytes.len()
    );

    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_workload.json");
    let run = existing_runs(&out) + 1;
    let entry = format!(
        "{{\"run\":{run},\"nodes\":{},\"rate\":{},\"cycles\":{},\
         \"records\":{n_records},\"gen_records_per_sec\":{encode_rps:.0},\
         \"trace_records_per_sec\":{decode_rps:.0}}}",
        bench.nodes, bench.rate, bench.cycles
    );
    append_entry(&out, &entry);
    println!("appended run {run} to {}", out.display());
}
