//! Distributed campaign throughput bench: epochs/sec through the remote
//! dispatch plane — two in-process `noc-service` workers sharing one
//! content-addressed result store, every epoch dispatched over HTTP and
//! integrated from the wire — appended to `BENCH_campaign.json` with
//! `"mode":"remote"`.
//!
//! Each invocation first runs the identical campaign in-process (the
//! digest oracle, recorded as the baseline), then dispatches it through a
//! [`RemoteExecutor`] and records wall time (in microseconds), epochs/sec,
//! and the dispatch span p50/p99 — the per-epoch submit→poll→result
//! round-trip overhead the distributed plane adds on top of simulation.
//! Like `campaign_epochs`, it reports no kcycles/s.
//!
//! Usage: `cargo run --release -p nbti-noc-bench --bin campaign_remote`
//! `[-- --epochs N --measure N --warmup N --rate R]`

use nbti_noc_bench::{append_entry, existing_runs, CampaignBench};
use noc_campaign::{Campaign, FsResultStore, RemoteExecutor, WorkerPool};
use noc_service::{Server, ServiceConfig};
use noc_telemetry::{clock, percentile, SpanKind};
use std::fs;
use std::path::Path;
use std::sync::Arc;

fn start_worker(store_dir: &Path) -> Server {
    let cache = FsResultStore::open(store_dir).expect("worker opens the shared store");
    Server::start_with_cache(
        &ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 16,
            job_timeout_ms: 0,
            spans_out: None,
        },
        Some(Arc::new(cache)),
    )
    .expect("ephemeral bind succeeds")
}

fn main() {
    let bench = CampaignBench::from_env();

    // The in-process baseline doubles as the digest oracle: a remote
    // campaign that diverges from it is a broken bench, not a data point.
    let mut local = Campaign::new(bench.spec()).expect("bench spec is valid");
    while !local.is_finished() {
        local.run_next_epoch(None).expect("local epoch runs");
    }

    let store_dir =
        std::env::temp_dir().join(format!("bench-campaign-remote-{}", std::process::id()));
    let _ = fs::remove_dir_all(&store_dir);
    let store = FsResultStore::open(&store_dir).expect("shared store opens");
    let w1 = start_worker(&store_dir);
    let w2 = start_worker(&store_dir);
    let pool = WorkerPool::new(&[w1.local_addr().to_string(), w2.local_addr().to_string()])
        .expect("two live workers");
    let exec = RemoteExecutor::new(pool, 2);

    let mut campaign = Campaign::new(bench.spec()).expect("bench spec is valid");
    let started = clock::now();
    while !campaign.is_finished() {
        campaign
            .run_next_epoch_with(&exec, Some(&store))
            .expect("remote epoch dispatches");
    }
    let elapsed_us = clock::us_since(started).max(1);

    assert_eq!(
        campaign.chained_digest(),
        local.chained_digest(),
        "remote campaign diverged from the in-process oracle"
    );

    let mut dispatch_us: Vec<u64> = exec
        .drain_spans()
        .iter()
        .filter(|s| s.kind == SpanKind::Dispatch)
        .map(|s| s.dur_us)
        .collect();
    dispatch_us.sort_unstable();
    let p50 = percentile(&dispatch_us, 0.50).unwrap_or(0);
    let p99 = percentile(&dispatch_us, 0.99).unwrap_or(0);

    w1.request_shutdown(false);
    w2.request_shutdown(false);
    let _ = (w1.wait(), w2.wait());
    let _ = fs::remove_dir_all(&store_dir);

    let simulated_cycles = campaign.current_cycle().unwrap_or(0);
    let epochs_per_sec = f64::from(bench.epochs) * 1e6 / elapsed_us as f64;

    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_campaign.json");
    let run = existing_runs(&out) + 1;
    let entry = format!(
        "{{\"run\":{run},\"mode\":\"remote\",\"workers\":2,\"epochs\":{},\
         \"measure_cycles\":{},\"warmup_cycles\":{},\"rate\":{},\
         \"elapsed_us\":{elapsed_us},\"epochs_per_sec\":{epochs_per_sec:.2},\
         \"simulated_cycles\":{simulated_cycles},\
         \"dispatch_p50_us\":{p50},\"dispatch_p99_us\":{p99},\
         \"chained_digest\":\"{:016x}\"}}",
        bench.epochs,
        bench.measure,
        bench.warmup,
        bench.rate,
        campaign.chained_digest()
    );
    append_entry(&out, &entry);
    println!(
        "campaign_remote: {} epochs over 2 workers in {elapsed_us} us \
         ({epochs_per_sec:.2} epochs/s), \
         dispatch p50 {p50} us p99 {p99} us, chained digest {:016x}",
        bench.epochs,
        campaign.chained_digest()
    );
    println!("appended run {run} to {}", out.display());
}
