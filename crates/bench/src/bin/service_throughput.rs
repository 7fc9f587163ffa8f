//! Service throughput bench: jobs/sec and request-latency percentiles
//! through the full HTTP path, appended to `BENCH_service.json`.
//!
//! An in-process server (real sockets on an ephemeral port) is driven by
//! concurrent submitters; every job runs the standard 4-core scenario.
//! Each invocation appends one entry to the trajectory file, so regressions
//! in the serving layer show up as a drop between consecutive runs.
//!
//! Usage: `cargo run --release -p nbti-noc-bench --bin service_throughput`
//! `[-- --count N --workers N --queue-depth N --concurrency N --measure N]`

use nbti_noc_bench::{append_entry, existing_runs};
use noc_service::{Server, ServiceClient, ServiceConfig};
use noc_telemetry::{clock, percentile};
use sensorwise::{parallel_map, spec_to_json, PolicyKind, SyntheticScenario};
use std::path::Path;

struct BenchConfig {
    count: usize,
    workers: usize,
    queue_depth: usize,
    concurrency: usize,
    measure: u64,
}

fn parse_args() -> BenchConfig {
    let mut cfg = BenchConfig {
        count: 24,
        workers: 4,
        queue_depth: 8,
        concurrency: 8,
        measure: 2_000,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let value = it.next().map(|v| v.as_str()).unwrap_or("");
        match arg.as_str() {
            "--count" => cfg.count = value.parse().expect("--count"),
            "--workers" => cfg.workers = value.parse().expect("--workers"),
            "--queue-depth" => cfg.queue_depth = value.parse().expect("--queue-depth"),
            "--concurrency" => cfg.concurrency = value.parse().expect("--concurrency"),
            "--measure" => cfg.measure = value.parse().expect("--measure"),
            other => panic!("unknown argument `{other}`"),
        }
    }
    cfg
}

fn main() {
    let bench = parse_args();
    let server = Server::start(&ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: bench.workers,
        queue_depth: bench.queue_depth,
        job_timeout_ms: 0,
        spans_out: None,
    })
    .expect("ephemeral bind");
    let client = ServiceClient::new(server.local_addr().to_string());

    let scenario = SyntheticScenario {
        cores: 4,
        vcs: 2,
        injection_rate: 0.15,
    };
    let specs: Vec<String> = (0..bench.count)
        .map(|i| {
            let mut job = scenario.job(PolicyKind::SensorWise, 200, bench.measure);
            job.cfg.telemetry.trace = true;
            job.traffic = job.traffic.with_seed(1 + i as u64);
            spec_to_json(&job).expect("servable spec")
        })
        .collect();

    let started = clock::now();
    let per_job: Vec<Vec<u64>> = parallel_map(&specs, bench.concurrency, |_, spec| {
        let mut latencies = Vec::new();
        let (id, _, submit_lat) = client.submit_with_retry(spec, 10_000).expect("submits");
        latencies.extend(submit_lat);
        loop {
            let probe = clock::now();
            let status = client.status(id).expect("status");
            latencies.push(clock::ms_since(probe));
            if status.is_terminal() {
                assert_eq!(status.status, "done", "bench job must complete");
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let probe = clock::now();
        client
            .result(id)
            .expect("result")
            .expect("done job serves a result");
        latencies.push(clock::ms_since(probe));
        latencies
    });
    let elapsed_ms = clock::ms_since(started).max(1);

    server.request_shutdown(false);
    let report = server.wait();
    assert_eq!(report.completed as usize, bench.count, "{report:?}");
    assert!(report.accounts_for_all(), "{report:?}");

    let mut latencies: Vec<u64> = per_job.into_iter().flatten().collect();
    latencies.sort_unstable();
    let requests = latencies.len();
    let jobs_per_sec = bench.count as f64 * 1_000.0 / elapsed_ms as f64;
    let p50 = percentile(&latencies, 0.5).unwrap_or(0);
    let p99 = percentile(&latencies, 0.99).unwrap_or(0);

    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_service.json");
    let run = existing_runs(&out) + 1;
    let entry = format!(
        "{{\"run\":{run},\"jobs\":{},\"workers\":{},\"queue_depth\":{},\"concurrency\":{},\
         \"measure_cycles\":{},\"elapsed_ms\":{elapsed_ms},\"jobs_per_sec\":{jobs_per_sec:.1},\
         \"requests\":{requests},\"request_p50_ms\":{p50},\"request_p99_ms\":{p99},\
         \"rejected_busy\":{}}}",
        bench.count,
        bench.workers,
        bench.queue_depth,
        bench.concurrency,
        bench.measure,
        report.rejected_busy
    );
    append_entry(&out, &entry);
    println!(
        "service_throughput: {} jobs in {elapsed_ms} ms ({jobs_per_sec:.1} jobs/s), \
         {requests} requests, p50 {p50} ms, p99 {p99} ms, {} busy rejections",
        bench.count, report.rejected_busy
    );
    println!("appended run {run} to {}", out.display());
}
