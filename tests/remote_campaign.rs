//! Integration tests for the distributed campaign subsystem.
//!
//! Real `noc-service` servers on ephemeral ports, a shared
//! content-addressed [`FsResultStore`] as the result plane, and the
//! chained epoch-boundary digest as the oracle. The load-bearing
//! assertions:
//!
//! * a campaign dispatched over two workers is bit-identical to the same
//!   campaign run in-process — chained digest, epoch ends, and ledger,
//! * a pool containing a dead or a silent worker still finishes: dispatch
//!   marks it dead, reassigns to the survivor, and the digest is unchanged,
//! * `run_batch_remote` (the sweep plane) matches local `run_batch` for
//!   every point, and the workers' shared cache absorbs the repeats.

use nbti_noc::prelude::*;
use noc_campaign::{
    recover_from_store, run_batch_remote, Campaign, CampaignSpec, FsResultStore, RemoteExecutor,
    WorkerPool,
};
use noc_service::{Server, ServiceConfig};
use std::fs;
use std::sync::Arc;

fn campaign_spec(epochs: u32) -> CampaignSpec {
    CampaignSpec {
        base: ExperimentJob {
            cfg: ExperimentConfig::new(
                noc_sim::config::NocConfig::paper_synthetic(4, 2),
                PolicyKind::SensorWise,
            )
            .with_cycles(200, 1_500)
            .with_pv_seed(23),
            traffic: TrafficSpec::Uniform {
                rate: 0.14,
                seed: 4242,
            },
        },
        epochs,
        age_acceleration: 1.0e9,
        drain_limit: 5_000,
    }
}

fn temp_store(tag: &str) -> FsResultStore {
    let dir = std::env::temp_dir().join(format!(
        "nbti-remote-campaign-test-{}-{tag}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    FsResultStore::open(dir).expect("temp store opens")
}

/// A worker wired exactly like `nbti-noc serve --cache-dir`: the shared
/// store is both its answer-from-cache plane and its write-back target.
fn start_worker(store_dir: &std::path::Path) -> Server {
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

#[test]
fn remote_campaign_over_two_workers_is_bit_identical_to_local() {
    let mut local = Campaign::new(campaign_spec(3)).expect("spec is valid");
    while !local.is_finished() {
        local.run_next_epoch(None).expect("local epoch runs");
    }

    let store = temp_store("two-workers");
    let w1 = start_worker(store.dir());
    let w2 = start_worker(store.dir());
    let pool = WorkerPool::new(&[
        w1.local_addr().to_string(),
        w2.local_addr().to_string(),
    ])
    .expect("two live workers");
    let exec = RemoteExecutor::new(pool, 2);

    let mut remote = Campaign::new(campaign_spec(3)).expect("spec is valid");
    while !remote.is_finished() {
        remote
            .run_next_epoch_with(&exec, Some(&store))
            .expect("remote epoch dispatches");
    }

    assert_eq!(remote.chained_digest(), local.chained_digest());
    assert_eq!(remote.epoch_ends(), local.epoch_ends());

    // Every epoch left a dispatch span behind: dispatch observability is
    // part of the contract, not best-effort.
    let spans = exec.drain_spans();
    assert!(
        spans.len() >= 3,
        "every epoch records at least one dispatch span, got {}",
        spans.len()
    );

    // The shared plane now holds every epoch outcome: a cold front end
    // recovers the whole campaign without contacting any worker.
    let mut recovered = Campaign::new(campaign_spec(3)).expect("spec is valid");
    let reports = recover_from_store(&mut recovered, &store).expect("recovery succeeds");
    assert_eq!(reports.len(), 3, "all epochs recover from the store");
    assert_eq!(recovered.chained_digest(), local.chained_digest());

    w1.request_shutdown(false);
    w2.request_shutdown(false);
    let _ = (w1.wait(), w2.wait());
    let _ = fs::remove_dir_all(store.dir());
}

#[test]
fn a_dead_worker_in_the_pool_is_reassigned_not_fatal() {
    let mut local = Campaign::new(campaign_spec(2)).expect("spec is valid");
    while !local.is_finished() {
        local.run_next_epoch(None).expect("local epoch runs");
    }

    let store = temp_store("dead-worker");
    let live = start_worker(store.dir());
    // A bound-then-dropped listener: connections to it are refused, which
    // the dispatcher must classify as transport death, not job failure.
    let dead_addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
        l.local_addr().expect("bound").to_string()
    };
    let pool = WorkerPool::new(&[dead_addr, live.local_addr().to_string()])
        .expect("pool of one corpse and one survivor");
    let exec = RemoteExecutor::new(pool, 2);

    let mut remote = Campaign::new(campaign_spec(2)).expect("spec is valid");
    while !remote.is_finished() {
        remote
            .run_next_epoch_with(&exec, Some(&store))
            .expect("reassignment saves the epoch");
    }
    assert_eq!(remote.chained_digest(), local.chained_digest());
    assert_eq!(
        exec.pool().alive_count(),
        1,
        "the corpse was marked dead after its first refused connection"
    );

    live.request_shutdown(false);
    let _ = live.wait();
    let _ = fs::remove_dir_all(store.dir());
}

#[test]
fn a_silent_worker_is_given_up_and_its_epoch_reassigned() {
    let mut local = Campaign::new(campaign_spec(2)).expect("spec is valid");
    while !local.is_finished() {
        local.run_next_epoch(None).expect("local epoch runs");
    }

    let store = temp_store("silent-worker");
    let live = start_worker(store.dir());
    // A worker that takes the connection and never answers — a stopped
    // process, say. Epoch 0 is planned on it first; the client's response
    // deadline must turn the silence into a transport failure.
    let silent = std::net::TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
    let pool = WorkerPool::new(&[
        silent.local_addr().expect("bound").to_string(),
        live.local_addr().to_string(),
    ])
    .expect("pool of a silent worker and a live one");
    let exec = RemoteExecutor::new(pool, 2);

    let digests = parallel_map(&[0usize, 1], 2, |_, &role| {
        if role == 0 {
            let (mut stream, _) = silent.accept().expect("the dispatcher connects");
            let mut sink = Vec::new();
            let _ = std::io::Read::read_to_end(&mut stream, &mut sink);
            return None;
        }
        let mut remote = Campaign::new(campaign_spec(2)).expect("spec is valid");
        while !remote.is_finished() {
            remote
                .run_next_epoch_with(&exec, Some(&store))
                .expect("reassignment saves the epoch");
        }
        Some(remote.chained_digest())
    });
    assert_eq!(digests[1], Some(local.chained_digest()));
    assert_eq!(
        exec.pool().alive_count(),
        1,
        "the silent worker was marked dead once its deadline passed"
    );

    live.request_shutdown(false);
    let _ = live.wait();
    let _ = fs::remove_dir_all(store.dir());
}

#[test]
fn remote_batch_sweep_matches_local_runs_point_for_point() {
    let scenario = SyntheticScenario {
        cores: 4,
        vcs: 2,
        injection_rate: 0.0, // per-point rate set below
    };
    let batch: Vec<ExperimentJob> = [0.08, 0.12, 0.16, 0.20]
        .iter()
        .flat_map(|&rate| {
            PolicyKind::REFERENCE_PAIR.iter().map(move |&policy| {
                let mut job = SyntheticScenario {
                    injection_rate: rate,
                    ..scenario
                }
                .job(policy, 200, 1_200);
                job.cfg.telemetry.trace = true;
                job
            })
        })
        .collect();
    let specs: Vec<String> = batch
        .iter()
        .map(|j| sensorwise::spec_to_json(j).expect("synthetic specs are servable"))
        .collect();
    let local: Vec<u64> = run_batch(&batch, 2)
        .iter()
        .map(|r| r.trace_digest().expect("traced run has a digest"))
        .collect();

    let store = temp_store("batch");
    let w1 = start_worker(store.dir());
    let w2 = start_worker(store.dir());
    let pool = WorkerPool::new(&[
        w1.local_addr().to_string(),
        w2.local_addr().to_string(),
    ])
    .expect("two live workers");

    let served = run_batch_remote(&pool, &specs, 2).expect("batch dispatch completes");
    let served_digests: Vec<u64> = served
        .iter()
        .map(|r| r.trace_digest.expect("served result carries a digest"))
        .collect();
    assert_eq!(served_digests, local, "remote sweep diverged from local");

    // Same batch again: the workers' shared cache answers every point at
    // accept time, and the digests still match.
    let again = run_batch_remote(&pool, &specs, 2).expect("cached batch completes");
    let again_digests: Vec<u64> = again
        .iter()
        .map(|r| r.trace_digest.expect("cached result carries a digest"))
        .collect();
    assert_eq!(again_digests, local, "cache round diverged");

    w1.request_shutdown(false);
    w2.request_shutdown(false);
    let _ = (w1.wait(), w2.wait());
    let _ = fs::remove_dir_all(store.dir());
}
