//! Workload subsystem throughput bench: `NBTITRC` codec speed in
//! trace-records/sec and replay-driven simulation speed in kcycles/sec
//! per topology, appended to `BENCH_workload.json`.
//!
//! Each invocation generates one deterministic application-mix trace in
//! memory, times the encode and the checksum-verifying decode, then
//! replays the same trace through the full experiment loop on the mesh,
//! the torus and the ring. Regressions in the chunked codec show up as a
//! records/s drop; regressions in the topology-generic fabric show up in
//! the per-topology kcycles/s.
//!
//! Usage: `cargo run --release -p nbti-noc-bench --bin workload_throughput`
//! `[-- --nodes N --vcs V --rate R --cycles N --seed N]`

use nbti_noc_bench::{append_entry, existing_runs};
use noc_sim::config::{NocConfig, TopologyKind};
use noc_telemetry::clock;
use noc_workload::{decode_trace, MixGenerator, MixKind, MixSpec, TraceSource};
use sensorwise::{run_experiment, ExperimentConfig, PolicyKind};
use std::path::Path;

struct BenchConfig {
    nodes: u16,
    vcs: usize,
    rate: f64,
    cycles: u64,
    seed: u64,
}

fn parse_args() -> BenchConfig {
    let mut cfg = BenchConfig {
        nodes: 16,
        vcs: 2,
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
            "--vcs" => cfg.vcs = value.parse().expect("--vcs"),
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
    let encode_ms = clock::ms_since(started).max(1);
    let started = clock::now();
    let (header, records) = decode_trace(&bytes).expect("own encoding decodes");
    let decode_ms = clock::ms_since(started).max(1);
    let n_records = header.records;
    let encode_rps = n_records as f64 * 1_000.0 / encode_ms as f64;
    let decode_rps = n_records as f64 * 1_000.0 / decode_ms as f64;
    println!(
        "codec: {n_records} records, encode {encode_rps:.0} records/s, \
         decode {decode_rps:.0} records/s ({} bytes)",
        bytes.len()
    );

    // Replay the same trace through the experiment loop per topology.
    let mut topo_kcps = Vec::new();
    for topology in [TopologyKind::Mesh, TopologyKind::Torus, TopologyKind::Ring] {
        let mut noc = NocConfig::paper_synthetic(usize::from(bench.nodes), bench.vcs);
        noc.topology = topology.clone();
        let cfg = ExperimentConfig::new(noc, PolicyKind::SensorWise)
            .with_cycles(0, bench.cycles);
        let mut source = TraceSource::from_records(records.clone(), "bench");
        let started = clock::now();
        let result = run_experiment(&cfg, &mut source);
        let elapsed_ms = clock::ms_since(started).max(1);
        let kcps = bench.cycles as f64 / elapsed_ms as f64;
        println!(
            "{}: {} cycles in {elapsed_ms} ms ({kcps:.1} kcycles/s), {} packets",
            topology.name(),
            bench.cycles,
            result.net.packets_ejected
        );
        topo_kcps.push(format!("\"{}\":{kcps:.1}", topology.name()));
    }

    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_workload.json");
    let run = existing_runs(&out) + 1;
    let entry = format!(
        "{{\"run\":{run},\"nodes\":{},\"vcs\":{},\"rate\":{},\"cycles\":{},\
         \"records\":{n_records},\"gen_records_per_sec\":{encode_rps:.0},\
         \"trace_records_per_sec\":{decode_rps:.0},\
         \"topo_kcycles_per_sec\":{{{}}}}}",
        bench.nodes,
        bench.vcs,
        bench.rate,
        bench.cycles,
        topo_kcps.join(",")
    );
    append_entry(&out, &entry);
    println!("appended run {run} to {}", out.display());
}
