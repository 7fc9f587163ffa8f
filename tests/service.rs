//! Integration tests for the experiment-serving subsystem.
//!
//! Everything runs against real servers on ephemeral ports
//! (`127.0.0.1:0`), exercising the public HTTP surface exactly as an
//! external client would. The load-bearing assertions:
//!
//! * served results are bit-identical (by `trace_digest`) to in-process
//!   runs of the same specs, for any worker count,
//! * queue overflow surfaces as `429` + `Retry-After` and never hangs a
//!   submission or loses an accepted job,
//! * cancellation, timeouts and both shutdown modes leave every accepted
//!   job in exactly one terminal state the shutdown report accounts for.

use nbti_noc::prelude::*;
use nbti_noc::telemetry::clock;
use noc_service::{Server, ServiceClient, ServiceConfig, Submitted};

/// One traced spec of the standard scenario with a per-replica seed.
fn spec(measure: u64, seed: u64) -> (ExperimentJob, String) {
    let scenario = SyntheticScenario {
        cores: 4,
        vcs: 2,
        injection_rate: 0.15,
    };
    let mut job = scenario.job(PolicyKind::SensorWise, 200, measure);
    job.cfg.telemetry.trace = true;
    job.traffic = job.traffic.with_seed(seed);
    let json = sensorwise::spec_to_json(&job).expect("synthetic specs are servable");
    (job, json)
}

fn start(workers: usize, queue_depth: usize, job_timeout_ms: u64) -> (Server, ServiceClient) {
    let server = Server::start(&ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_depth,
        job_timeout_ms,
        spans_out: None,
    })
    .expect("ephemeral bind succeeds");
    let client = ServiceClient::new(server.local_addr().to_string());
    (server, client)
}

#[test]
fn served_digests_match_in_process_runs_for_any_worker_count() {
    let jobs_and_specs: Vec<(ExperimentJob, String)> =
        (0..6).map(|i| spec(4_000, 100 + i)).collect();
    let local: Vec<u64> = jobs_and_specs
        .iter()
        .map(|(job, _)| job.run().trace_digest().expect("traced run has a digest"))
        .collect();

    // The same six specs through a single-worker and a three-worker
    // server; scheduling must not leak into results.
    for workers in [1usize, 3] {
        let (server, client) = start(workers, 16, 0);
        let served: Vec<u64> = parallel_map(&jobs_and_specs, 3, |_, (_, json)| {
            let (id, _, _) = client
                .submit_with_retry(json, 50)
                .expect("queue depth 16 absorbs 6 jobs");
            let result = client.wait_result(id, 60_000).expect("job completes");
            result.trace_digest.expect("served result carries a digest")
        });
        assert_eq!(
            served, local,
            "served digests diverged at {workers} workers"
        );
        server.request_shutdown(false);
        let report = server.wait();
        assert_eq!(report.completed, 6);
        assert!(report.accounts_for_all(), "{report:?}");
    }
}

#[test]
fn overflow_gets_429_with_retry_after_and_no_accepted_job_is_lost() {
    // One worker, queue depth 1: the first submission lands on the
    // worker, the second parks in the queue slot, and four concurrent
    // submissions after that must overflow. 429 is backpressure, not
    // failure — retries drain through.
    let (server, client) = start(1, 1, 0);
    let jobs_and_specs: Vec<(ExperimentJob, String)> =
        (0..6).map(|i| spec(15_000, 200 + i)).collect();

    // Blasting all six at once races the worker's queue pop: on a slow
    // or loaded machine every submission after the first can see a full
    // queue. Pin the setup instead — wait until the worker has claimed
    // job one (the pop empties the queue) before filling the slot.
    let mut outcomes: Vec<(Submitted, u64)> = Vec::new();
    outcomes.push(
        client
            .submit(&jobs_and_specs[0].1)
            .expect("transport stays up"),
    );
    let first_id = match outcomes[0].0 {
        Submitted::Accepted { id } => id,
        ref other => panic!("an idle server must accept the first job, got {other:?}"),
    };
    for _ in 0..3_000 {
        if client.status(first_id).expect("status stays served").status == "running" {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    outcomes.push(
        client
            .submit(&jobs_and_specs[1].1)
            .expect("transport stays up"),
    );
    outcomes.extend(parallel_map(&jobs_and_specs[2..], 4, |_, (_, json)| {
        client.submit(json).expect("transport stays up")
    }));
    let mut accepted: Vec<u64> = Vec::new();
    let mut busy = 0usize;
    for (outcome, _) in &outcomes {
        match outcome {
            Submitted::Accepted { id } => accepted.push(*id),
            Submitted::Busy { retry_after_secs } => {
                assert!(*retry_after_secs >= 1, "Retry-After must hint a wait");
                busy += 1;
            }
            Submitted::Refused { status, error } => {
                panic!("unexpected refusal {status}: {error}");
            }
        }
    }
    assert_eq!(accepted.len() + busy, 6, "every submission got an answer");
    assert!(
        busy >= 1,
        "depth-1 queue must overflow under 6 rapid submissions"
    );
    assert!(
        accepted.len() >= 2,
        "worker + queue slots accept at least two jobs"
    );

    // The rejected specs go through the retrying path; everything must
    // complete with the right digests.
    let retried: Vec<(ExperimentJob, String)> = jobs_and_specs
        .iter()
        .zip(&outcomes)
        .filter(|(_, (o, _))| matches!(o, Submitted::Busy { .. }))
        .map(|(js, _)| js.clone())
        .collect();
    let retried_ids = parallel_map(&retried, 3, |_, (_, json)| {
        let (id, _, _) = client
            .submit_with_retry(json, 500)
            .expect("retries eventually drain");
        id
    });
    for (id, (job, _)) in accepted
        .iter()
        .copied()
        .zip(
            jobs_and_specs
                .iter()
                .zip(&outcomes)
                .filter_map(|(js, (o, _))| matches!(o, Submitted::Accepted { .. }).then_some(js)),
        )
        .chain(retried_ids.iter().copied().zip(retried.iter()))
    {
        let served = client.wait_result(id, 60_000).expect("job completes");
        let local = job.run().trace_digest().expect("traced");
        assert_eq!(
            served.trace_digest,
            Some(local),
            "digest mismatch for job {id}"
        );
    }

    server.request_shutdown(false);
    let report = server.wait();
    assert_eq!(report.accepted, 6, "accepted + retried = all six specs");
    assert_eq!(report.completed, 6);
    assert_eq!(report.dropped, 0, "graceful path never drops");
    assert!(report.rejected_busy >= 1);
    assert!(report.accounts_for_all(), "{report:?}");
}

#[test]
fn cancellation_hits_both_queued_and_running_jobs() {
    let (server, client) = start(1, 4, 0);
    // A long job occupies the single worker...
    let (_, long_spec) = spec(400_000, 300);
    let (running, _, _) = client.submit_with_retry(&long_spec, 10).expect("submits");
    // ...so this one stays queued behind it.
    let (_, queued_spec) = spec(4_000, 301);
    let (queued, _, _) = client.submit_with_retry(&queued_spec, 10).expect("submits");

    assert_eq!(client.cancel(queued).expect("known id"), "cancelled");
    let status = client.status(queued).expect("known id");
    assert_eq!(status.status, "cancelled");

    // The running job transitions once the engine observes the flag.
    client.cancel(running).expect("known id");
    let mut state = String::new();
    for _ in 0..600 {
        state = client.status(running).expect("known id").status;
        if state == "cancelled" {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_eq!(state, "cancelled", "running job must observe cancellation");
    assert!(
        client.result(running).expect("known id").is_none(),
        "cancelled jobs serve no result"
    );

    server.request_shutdown(false);
    let report = server.wait();
    assert_eq!(report.cancelled, 2);
    assert!(report.accounts_for_all(), "{report:?}");
}

#[test]
fn deadline_supervisor_times_out_overlong_jobs() {
    let (server, client) = start(1, 4, 120);
    let (_, long_spec) = spec(400_000, 400);
    let (id, _, _) = client.submit_with_retry(&long_spec, 10).expect("submits");
    let mut state = String::new();
    for _ in 0..600 {
        state = client.status(id).expect("known id").status;
        if state == "timed_out" {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_eq!(
        state, "timed_out",
        "120 ms budget cannot fit a 400k-cycle run"
    );

    // A short job under the same budget still completes.
    let (job, quick_spec) = spec(2_000, 401);
    let (quick, _, _) = client.submit_with_retry(&quick_spec, 10).expect("submits");
    let served = client.wait_result(quick, 10_000).expect("fits the budget");
    assert_eq!(
        served.trace_digest,
        Some(job.run().trace_digest().expect("traced")),
        "a timeout policy must not perturb surviving results"
    );

    server.request_shutdown(false);
    let report = server.wait();
    assert_eq!((report.timed_out, report.completed), (1, 1));
    assert!(report.accounts_for_all(), "{report:?}");
}

#[test]
fn graceful_shutdown_drains_every_accepted_job() {
    let (server, client) = start(2, 8, 0);
    let specs: Vec<(ExperimentJob, String)> = (0..5).map(|i| spec(6_000, 500 + i)).collect();
    let ids: Vec<u64> = specs
        .iter()
        .map(|(_, json)| client.submit_with_retry(json, 10).expect("submits").0)
        .collect();
    // Shut down immediately: accepted jobs must still all complete.
    client.shutdown(false).expect("shutdown endpoint answers");

    // New submissions are refused while draining.
    let (_, late) = spec(1_000, 599);
    match client.submit(&late).expect("transport stays up").0 {
        Submitted::Refused { status, .. } => assert_eq!(status, 503),
        other => panic!("draining server accepted new work: {other:?}"),
    }

    // Polling keeps working during the drain.
    for &id in &ids {
        let served = client
            .wait_result(id, 60_000)
            .expect("drained to completion");
        assert!(served.trace_digest.is_some());
    }
    let report = server.wait();
    assert_eq!(report.accepted, 5);
    assert_eq!(report.completed, 5);
    assert_eq!(report.dropped, 0, "graceful drain never drops");
    assert!(report.accounts_for_all(), "{report:?}");
}

#[test]
fn force_shutdown_drops_queued_jobs_and_reports_them() {
    let (server, client) = start(1, 8, 0);
    // One long runner plus a backlog that cannot start before the abort.
    let (_, long_spec) = spec(400_000, 600);
    let (_running, _, _) = client.submit_with_retry(&long_spec, 10).expect("submits");
    for i in 0..3 {
        let (_, json) = spec(4_000, 601 + i);
        client.submit_with_retry(&json, 10).expect("submits");
    }
    server.request_shutdown(true);
    let report = server.wait();
    assert_eq!(report.accepted, 4);
    assert!(
        report.dropped >= 1,
        "the backlog must be reported dropped: {report:?}"
    );
    assert!(report.accounts_for_all(), "{report:?}");
}

#[test]
fn protocol_errors_are_typed_not_hangs() {
    let (server, client) = start(1, 2, 0);
    let addr = server.local_addr().to_string();

    // Unknown job.
    assert!(client.status(999).unwrap_err().contains("404"));
    // Bad spec.
    match client
        .submit("{\"noc\":{\"cols\":0}}")
        .expect("transport")
        .0
    {
        Submitted::Refused { status, .. } => assert_eq!(status, 400),
        other => panic!("invalid spec accepted: {other:?}"),
    }
    // Unparseable body.
    match client.submit("not json at all").expect("transport").0 {
        Submitted::Refused { status, .. } => assert_eq!(status, 400),
        other => panic!("garbage accepted: {other:?}"),
    }
    // Wrong method on a known route.
    let r = noc_service::http::http_request(&addr, "PUT", "/jobs", "").expect("transport");
    assert_eq!(r.status, 405);
    // No `POST /jobs/{x}` route exists, so the old batch path is one too.
    let r = noc_service::http::http_request(&addr, "POST", "/jobs/batch", "{\"jobs\":[]}")
        .expect("transport");
    assert_eq!(r.status, 405);
    assert_eq!(r.body, "{\"error\":\"method not allowed\"}");
    // Unknown route.
    let r = noc_service::http::http_request(&addr, "GET", "/nope", "").expect("transport");
    assert_eq!(r.status, 404);
    // Stats endpoint exposes queue and lifecycle counters.
    let stats = client.stats().expect("stats parse");
    assert_eq!(stats.get("queue_depth").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(stats.get("accepting").and_then(|v| v.as_bool()), Some(true));

    server.request_shutdown(false);
    let report = server.wait();
    assert_eq!(report.accepted, 0);
    assert!(report.accounts_for_all(), "{report:?}");
}

#[test]
fn deeply_nested_json_gets_400_and_the_server_keeps_serving() {
    let (server, client) = start(1, 2, 0);
    match client.submit(&"[".repeat(200_000)).expect("transport").0 {
        Submitted::Refused { status, .. } => assert_eq!(status, 400),
        other => panic!("nested garbage accepted: {other:?}"),
    }
    let stats = client.stats().expect("server still answers /stats");
    assert_eq!(stats.get("accepting").and_then(|v| v.as_bool()), Some(true));

    server.request_shutdown(false);
    let report = server.wait();
    assert_eq!(report.accepted, 0);
    assert!(report.accounts_for_all(), "{report:?}");
}

/// A spec whose network would need terabytes of buffers, and one whose
/// link would take `u64::MAX` cycles, are refused with a 400 naming the
/// cap, before anything is allocated, and the server keeps serving.
#[test]
fn an_oversized_network_gets_400_and_the_server_keeps_serving() {
    let (server, client) = start(1, 2, 0);
    let huge = r#"{"policy":"sensor-wise","noc":{"cols":2,"rows":2,"buffer_depth":1000000000000},"traffic":{"rate":0.1}}"#;
    let endless = r#"{"policy":"sensor-wise","noc":{"cols":2,"rows":2,"link_latency":18446744073709551615},"traffic":{"rate":0.1}}"#;
    for (spec, needle) in [(huge, "buffer depth"), (endless, "link_latency")] {
        match client.submit(spec).expect("transport").0 {
            Submitted::Refused { status, error } => {
                assert_eq!(status, 400);
                assert!(error.contains(needle), "{error}");
            }
            other => panic!("oversized network accepted: {other:?}"),
        }
    }
    let (_, small) = spec(500, 1);
    assert!(matches!(
        client.submit(&small).expect("transport").0,
        Submitted::Accepted { .. }
    ));
    let stats = client.stats().expect("server still answers /stats");
    assert_eq!(stats.get("accepting").and_then(|v| v.as_bool()), Some(true));

    server.request_shutdown(true);
    let report = server.wait();
    assert_eq!(report.accepted, 1);
    assert!(report.accounts_for_all(), "{report:?}");
}

/// The mesh is the only fabric: a spec naming a ring is refused with a
/// 400 that says so, and the server keeps serving.
#[test]
fn a_non_mesh_fabric_gets_400_and_the_server_keeps_serving() {
    let (server, client) = start(1, 2, 0);
    let ring = r#"{"policy":"sensor-wise","noc":{"cols":2,"rows":2,"topology":"ring"},"traffic":{"rate":0.1}}"#;
    match client.submit(ring).expect("transport").0 {
        Submitted::Refused { status, error } => {
            assert_eq!(status, 400);
            assert!(error.contains("the 2D mesh is the only fabric"), "{error}");
        }
        other => panic!("ring fabric accepted: {other:?}"),
    }
    let (_, small) = spec(500, 1);
    assert!(matches!(
        client.submit(&small).expect("transport").0,
        Submitted::Accepted { .. }
    ));

    server.request_shutdown(true);
    let report = server.wait();
    assert_eq!(report.accepted, 1);
    assert!(report.accounts_for_all(), "{report:?}");
}

/// Cancelling a queued job frees its queue slot at once: with the single
/// worker busy and both slots cancelled, the queue reads empty and the
/// next submission is accepted.
#[test]
fn cancelled_queued_jobs_free_their_slots() {
    let (server, client) = start(1, 2, 0);
    let (_, long_spec) = spec(400_000, 1_100);
    let (running, _, _) = client.submit_with_retry(&long_spec, 10).expect("submits");
    for _ in 0..3_000 {
        if client.status(running).expect("status stays served").status == "running" {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    for seed in [1_101, 1_102] {
        let (_, json) = spec(4_000, seed);
        let queued = match client.submit(&json).expect("transport stays up").0 {
            Submitted::Accepted { id } => id,
            other => panic!("a free slot must accept the job, got {other:?}"),
        };
        assert_eq!(client.cancel(queued).expect("known id"), "cancelled");
    }

    let stats = client.stats().expect("stats parse");
    let field = |key: &str| stats.get(key).and_then(|v| v.as_u64());
    assert_eq!(field("queue_len"), Some(0), "{stats:?}");
    assert_eq!(field("queued"), Some(0), "{stats:?}");
    let (_, json) = spec(4_000, 1_103);
    match client.submit(&json).expect("transport stays up").0 {
        Submitted::Accepted { .. } => {}
        other => panic!("cancelled jobs still hold their slots: {other:?}"),
    }

    server.request_shutdown(true);
    let report = server.wait();
    assert_eq!(report.accepted, 4);
    assert!(report.cancelled >= 2, "{report:?}");
    assert!(report.accounts_for_all(), "{report:?}");
}

#[test]
fn invariant_counts_travel_over_the_wire() {
    let scenario = SyntheticScenario {
        cores: 4,
        vcs: 2,
        injection_rate: 0.1,
    };
    let mut job = scenario.job(PolicyKind::SensorWise, 200, 3_000);
    job.cfg = job.cfg.with_invariants(InvariantLevel::Full);
    job.cfg.telemetry.trace = true;
    let json = sensorwise::spec_to_json(&job).expect("servable");

    let (server, client) = start(1, 2, 0);
    let (id, _, _) = client.submit_with_retry(&json, 10).expect("submits");
    let served = client.wait_result(id, 20_000).expect("completes");
    assert_eq!(served.invariant_violations, 0);
    assert!(served.latency.is_some(), "latency percentiles served");
    assert_eq!(served.policy, "sensor-wise");

    server.request_shutdown(false);
    server.wait();
}

/// A server backed by a content-addressed result store serves repeat
/// submissions from cache — byte-identical, without a worker, visible in
/// `/stats` — while changed specs and corrupted entries are recomputed.
#[test]
fn cache_hits_serve_byte_identical_results_and_corruption_recomputes() {
    let dir = std::env::temp_dir().join(format!("nbti-svc-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = noc_campaign::FsResultStore::open(&dir).expect("store opens");
    let server = Server::start_with_cache(
        &ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_depth: 4,
            job_timeout_ms: 0,
            spans_out: None,
        },
        Some(std::sync::Arc::new(store.clone())),
    )
    .expect("ephemeral bind succeeds");
    let client = ServiceClient::new(server.local_addr().to_string());
    let (_, json) = spec(2_000, 900);

    // First submission is a miss: computed by the worker, written back.
    let (id, _, _) = client.submit_with_retry(&json, 10).expect("submits");
    let first = client.wait_result(id, 20_000).expect("completes");
    let stats = client.stats().expect("stats parse");
    assert_eq!(stats.get("cache_hits").and_then(|v| v.as_u64()), Some(0));

    // The identical spec again: served from the store, byte for byte.
    let (id2, _, _) = client.submit_with_retry(&json, 10).expect("submits");
    let second = client.wait_result(id2, 20_000).expect("hit resolves");
    assert_eq!(
        second.to_json(),
        first.to_json(),
        "cached serving must be byte-identical"
    );
    let stats = client.stats().expect("stats parse");
    assert_eq!(stats.get("cache_hits").and_then(|v| v.as_u64()), Some(1));

    // A changed traffic seed is a different canonical spec: miss.
    let (_, other) = spec(2_000, 901);
    let (id3, _, _) = client.submit_with_retry(&other, 10).expect("submits");
    let third = client.wait_result(id3, 20_000).expect("completes");
    assert_ne!(
        third.trace_digest, first.trace_digest,
        "seed change must change the run"
    );
    let stats = client.stats().expect("stats parse");
    assert_eq!(stats.get("cache_hits").and_then(|v| v.as_u64()), Some(1));

    // Corrupt every stored entry on disk: the next identical submission
    // must detect it, recompute the right answer and never serve garbage.
    for dirent in std::fs::read_dir(&dir)
        .expect("store dir listable")
        .flatten()
    {
        if dirent.path().extension().is_some_and(|e| e == "json") {
            std::fs::write(dirent.path(), "corrupted beyond parsing {{{").unwrap();
        }
    }
    let (id4, _, _) = client.submit_with_retry(&json, 10).expect("submits");
    let fourth = client.wait_result(id4, 20_000).expect("recomputes");
    assert_eq!(
        fourth.trace_digest, first.trace_digest,
        "recomputed result must match the original run"
    );
    let stats = client.stats().expect("stats parse");
    assert_eq!(
        stats.get("cache_hits").and_then(|v| v.as_u64()),
        Some(1),
        "corrupted entries must not count as hits"
    );

    server.request_shutdown(false);
    let report = server.wait();
    assert_eq!(report.accepted, 4);
    assert_eq!(report.completed, 4, "cache hits are terminal completions");
    assert!(report.accounts_for_all(), "{report:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `GET /metrics` serves the Prometheus text exposition: `# HELP` and
/// `# TYPE` preambles for every series, monotone cumulative histogram
/// buckets whose `+Inf` sample equals `_count`, and counters that agree
/// with `/stats` (both render from the same registry).
#[test]
fn metrics_exposition_is_prometheus_parsable_and_matches_stats() {
    let (server, client) = start(2, 8, 0);
    let addr = server.local_addr().to_string();
    let specs: Vec<(ExperimentJob, String)> = (0..3).map(|i| spec(2_000, 700 + i)).collect();
    let ids = parallel_map(&specs, 3, |_, (_, json)| {
        client.submit_with_retry(json, 50).expect("submits").0
    });
    for id in ids {
        client.wait_result(id, 60_000).expect("completes");
    }

    let r = noc_service::http::http_request(&addr, "GET", "/metrics", "").expect("transport");
    assert_eq!(r.status, 200);
    let body = r.body;

    for name in [
        "noc_accepting",
        "noc_queue_len",
        "noc_queue_capacity",
        "noc_jobs",
        "noc_accepted_total",
        "noc_rejected_busy_total",
        "noc_cache_hits_total",
        "noc_cache_misses_total",
        "noc_worker_busy_us_total",
        "noc_request_duration_us",
    ] {
        assert!(
            body.contains(&format!("# HELP {name} ")),
            "no HELP for {name}"
        );
        assert!(
            body.contains(&format!("# TYPE {name} ")),
            "no TYPE for {name}"
        );
    }

    // Cumulative buckets must be monotone in exposition order, and the
    // `+Inf` sample must equal `_count`, per endpoint label.
    let mut per_endpoint: std::collections::BTreeMap<&str, (u64, Option<u64>)> =
        std::collections::BTreeMap::new();
    for line in body.lines() {
        let Some(rest) = line.strip_prefix("noc_request_duration_us_bucket{endpoint=\"") else {
            continue;
        };
        let (endpoint, rest) = rest.split_once("\",le=\"").expect("le label");
        let (le, value) = rest.split_once("\"} ").expect("sample value");
        let v: u64 = value.parse().expect("integer sample");
        let entry = per_endpoint.entry(endpoint).or_insert((0, None));
        assert!(v >= entry.0, "buckets must be cumulative: {line}");
        entry.0 = v;
        if le == "+Inf" {
            entry.1 = Some(v);
        }
    }
    assert_eq!(per_endpoint.len(), 8, "every endpoint class is exposed");
    for (endpoint, (_, inf)) in &per_endpoint {
        let prefix = format!("noc_request_duration_us_count{{endpoint=\"{endpoint}\"}} ");
        let count: u64 = body
            .lines()
            .find_map(|l| l.strip_prefix(&prefix))
            .expect("histogram has a _count sample")
            .parse()
            .expect("integer count");
        assert_eq!(*inf, Some(count), "+Inf must equal _count for {endpoint}");
    }
    let submit_requests = per_endpoint.get("submit").expect("submit class").0;
    assert!(submit_requests >= 3, "three submissions were observed");

    // The counters agree with `/stats` — same registry, two renderings.
    let sample = |name: &str| -> u64 {
        let prefix = format!("{name} ");
        body.lines()
            .find_map(|l| l.strip_prefix(&prefix))
            .unwrap_or_else(|| panic!("missing sample for {name}"))
            .parse()
            .expect("integer sample")
    };
    let stats = client.stats().expect("stats parse");
    let stat = |key: &str| stats.get(key).and_then(|v| v.as_u64()).expect(key);
    assert_eq!(sample("noc_accepted_total"), stat("accepted"));
    assert_eq!(sample("noc_rejected_busy_total"), stat("rejected_busy"));
    assert_eq!(sample("noc_cache_hits_total"), stat("cache_hits"));
    assert_eq!(sample("noc_accepted_total"), 3);
    assert!(
        sample("noc_worker_busy_us_total") > 0,
        "workers ran three jobs"
    );
    assert!(
        body.contains("noc_jobs{state=\"done\"} 3"),
        "job-state gauge must match the three completed jobs:\n{body}"
    );

    server.request_shutdown(false);
    let report = server.wait();
    assert_eq!(report.completed, 3);
    assert!(report.accounts_for_all(), "{report:?}");
}

/// Scraping is lock-light reads over atomics: a storm of concurrent
/// `/metrics` scrapes must never block submissions or polling, and every
/// scrape stays parsable while counters move underneath it.
#[test]
fn concurrent_scrapes_never_block_submission() {
    let (server, client) = start(2, 8, 0);
    let addr = server.local_addr().to_string();
    // Four submit-and-wait tasks interleaved with eight scrape tasks, all
    // through the deterministic worker pool.
    let tasks: Vec<Option<String>> = (0..4)
        .map(|i| Some(spec(3_000, 800 + i).1))
        .chain((0..8).map(|_| None))
        .collect();
    let outcomes = parallel_map(&tasks, 6, |_, task| match task {
        Some(json) => {
            let (id, _, _) = client
                .submit_with_retry(json, 10_000)
                .expect("submission must not starve behind scrapes");
            let result = client.wait_result(id, 50_000).expect("completes");
            result.trace_digest.is_some()
        }
        None => {
            for _ in 0..25 {
                let r = noc_service::http::http_request(&addr, "GET", "/metrics", "")
                    .expect("scrape transport");
                assert_eq!(r.status, 200);
                assert!(r.body.contains("noc_accepted_total"), "{}", r.body);
            }
            true
        }
    });
    assert!(outcomes.into_iter().all(|ok| ok), "every task finished");

    server.request_shutdown(false);
    let report = server.wait();
    assert_eq!(report.completed, 4);
    assert!(report.accounts_for_all(), "{report:?}");
}

/// A server started with a spans file dumps its flight recorder on
/// shutdown: request, job and experiment spans whose derived ids link
/// experiment → job → submit-request without any handle threading.
#[test]
fn shutdown_dumps_linked_spans_jsonl() {
    let path = std::env::temp_dir().join(format!("nbti-svc-spans-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let server = Server::start(&ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_depth: 4,
        job_timeout_ms: 0,
        spans_out: Some(path.display().to_string()),
    })
    .expect("ephemeral bind succeeds");
    let client = ServiceClient::new(server.local_addr().to_string());
    let (_, json) = spec(2_000, 950);
    let (id, _, _) = client.submit_with_retry(&json, 10).expect("submits");
    client.wait_result(id, 60_000).expect("completes");
    server.request_shutdown(false);
    server.wait();

    let text = std::fs::read_to_string(&path).expect("spans dumped on shutdown");
    let spans = read_spans_jsonl(&text).expect("every dumped line parses");
    let job = spans
        .iter()
        .find(|s| s.kind == SpanKind::Job)
        .expect("job span recorded");
    let exp = spans
        .iter()
        .find(|s| s.kind == SpanKind::Experiment)
        .expect("experiment span recorded");
    assert_eq!(exp.parent, job.id, "experiment links to its job");
    let submit_req = spans
        .iter()
        .find(|s| s.kind == SpanKind::Request && s.name == "submit")
        .expect("submit request span recorded");
    assert_eq!(
        job.parent, submit_req.id,
        "job links to the logical submit-request span"
    );
    assert_eq!(
        job.parent,
        nbti_noc::telemetry::derive_id(SpanKind::Request, "submit", NO_PARENT),
        "the link is re-derivable from logical coordinates alone"
    );
    assert!(job.dur_us >= exp.dur_us, "job envelops its experiment");
    let _ = std::fs::remove_file(&path);
}

/// The value of one `/metrics` sample line, e.g. a histogram `_count`.
fn metric(addr: &str, series: &str) -> u64 {
    let r = noc_service::http::http_request(addr, "GET", "/metrics", "").expect("scrape");
    let prefix = format!("{series} ");
    r.body
        .lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .unwrap_or_else(|| panic!("no sample for {series}"))
        .parse()
        .expect("integer sample")
}

const STATUS_COUNT: &str = "noc_request_duration_us_count{endpoint=\"status\"}";
const RESULT_COUNT: &str = "noc_request_duration_us_count{endpoint=\"result\"}";

/// A waiting client is answered the moment its job ends — not at the end
/// of a poll step or of the wait bound — and sends no status request.
#[test]
fn a_waited_result_returns_when_the_job_ends_without_status_requests() {
    let (server, client) = start(1, 4, 0);
    let addr = server.local_addr().to_string();
    let (job, json) = spec(8_000, 1_000);
    let statuses = metric(&addr, STATUS_COUNT);
    let results = metric(&addr, RESULT_COUNT);

    let t = clock::now();
    let (id, _, _) = client.submit_with_retry(&json, 10).expect("submits");
    let served = client.wait_result(id, 60_000).expect("completes");
    let elapsed_us = clock::us_since(t);
    assert_eq!(
        served.trace_digest,
        Some(job.run().trace_digest().expect("traced"))
    );
    // Submit-to-result exceeds the worker's run only by request overhead,
    // well under the 1 s wait bound a missed wake-up would cost.
    let busy_us = metric(&addr, "noc_worker_busy_us_total");
    assert!(
        elapsed_us < busy_us + 500_000,
        "waited {elapsed_us} us for a job that ran {busy_us} us"
    );
    assert_eq!(
        metric(&addr, STATUS_COUNT),
        statuses,
        "no status request was sent"
    );
    assert!(
        metric(&addr, RESULT_COUNT) > results,
        "the wait went through /result"
    );

    // Waited requests answer with the unwaited bytes: 404 for unknown ids.
    let r = noc_service::http::http_request(&addr, "GET", "/jobs/999/result?wait_ms=50", "")
        .expect("transport");
    assert_eq!(
        (r.status, r.body.as_str()),
        (404, "{\"error\":\"no such job\"}")
    );
    // A malformed query or one on the wrong endpoint is a 400.
    for target in [
        "/jobs/1/result?wait_ms=soon",
        "/jobs/1/result?poll=1",
        "/stats?wait_ms=5",
    ] {
        let r = noc_service::http::http_request(&addr, "GET", target, "").expect("transport");
        assert_eq!(r.status, 400, "{target}: {}", r.body);
    }

    server.request_shutdown(false);
    let report = server.wait();
    assert_eq!(report.completed, 1);
    assert!(report.accounts_for_all(), "{report:?}");
}

/// Waited requests may take every handler but one: with `HANDLERS − 1`
/// parked on a long job, `/stats` still answers and one more wait gets
/// `429`.
#[test]
fn waiters_leave_one_handler_free_and_the_next_wait_gets_429() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let (server, client) = start(1, 4, 0);
    let addr = server.local_addr().to_string();
    // Long enough never to finish before it is cancelled below.
    let (_, long_spec) = spec(4_000_000, 1_100);
    let (id, _, _) = client.submit_with_retry(&long_spec, 10).expect("submits");
    let waited = format!("/jobs/{id}/result?wait_ms=1000");
    let done = AtomicBool::new(false);
    let waiters = noc_service::server::HANDLERS - 1;
    let roles: Vec<usize> = (0..=waiters).collect();
    let probes = parallel_map(&roles, roles.len(), |_, &role| {
        if role < waiters {
            // Stay parked until the checker is done.
            while !done.load(Ordering::SeqCst) {
                let r = noc_service::http::http_request(&addr, "GET", &waited, "")
                    .expect("a waiter is answered");
                assert!(matches!(r.status, 409 | 429), "{}: {}", r.status, r.body);
            }
            return None;
        }
        std::thread::sleep(std::time::Duration::from_millis(300));
        let t = clock::now();
        let stats = client
            .stats()
            .expect("/stats answers with every waiter parked");
        let stats_ms = clock::ms_since(t);
        // A waiter re-parking after its 1 s bound frees a slot for a
        // moment; a few probes are sure to find the slots full.
        let mut busy = None;
        for _ in 0..5 {
            let r = noc_service::http::http_request(&addr, "GET", &waited, "").expect("transport");
            if r.status == 429 {
                busy = Some(r);
                break;
            }
        }
        done.store(true, Ordering::SeqCst);
        client.cancel(id).expect("known id");
        Some((stats, stats_ms, busy))
    });
    let (stats, stats_ms, busy) = probes[waiters].clone().expect("checker result");
    assert_eq!(stats.get("running").and_then(|v| v.as_u64()), Some(1));
    assert!(
        stats_ms < 1_000,
        "/stats took {stats_ms} ms behind parked waiters"
    );
    let busy = busy.expect("a wait beyond the cap is refused");
    assert_eq!(busy.retry_after_secs, Some(1), "429 carries Retry-After");

    server.request_shutdown(false);
    let report = server.wait();
    assert_eq!(report.cancelled, 1);
    assert!(report.accounts_for_all(), "{report:?}");
}

/// More clients wait than there are waiter slots: the ones refused with
/// `429` back off instead of polling, so every job costs a bounded
/// number of result requests however long the others take.
#[test]
fn waiters_beyond_the_cap_back_off_instead_of_polling() {
    let (server, client) = start(1, 16, 0);
    let addr = server.local_addr().to_string();
    let clients = 2 * noc_service::server::HANDLERS;
    let ids: Vec<u64> = (0..clients as u64)
        .map(|i| {
            let (_, json) = spec(30_000, 1_300 + i);
            client.submit_with_retry(&json, 10).expect("submits").0
        })
        .collect();
    let results = metric(&addr, RESULT_COUNT);
    let t = clock::now();
    let served = parallel_map(&ids, ids.len(), |_, &id| {
        client.wait_result(id, 120_000).map(|r| r.trace_digest)
    });
    let elapsed_ms = clock::ms_since(t);
    for (id, served) in ids.iter().zip(&served) {
        assert!(matches!(served, Ok(Some(_))), "job {id}: {served:?}");
    }
    // Per client: one parked request per 1 s wait bound, and after each
    // `429` a backoff of 20, 40, 80, 160 ms, then at least 320 ms — at
    // most 7 + elapsed/240 requests. A fixed 5 ms retry step would send
    // about elapsed/6 for every client beyond the cap.
    let requests = metric(&addr, RESULT_COUNT) - results;
    let bound = clients as u64 * (8 + elapsed_ms / 200);
    assert!(
        requests <= bound,
        "{requests} result requests for {clients} jobs in {elapsed_ms} ms (bound {bound})"
    );

    server.request_shutdown(false);
    let report = server.wait();
    assert_eq!(report.completed, clients as u64);
    assert!(report.accounts_for_all(), "{report:?}");
}

/// Shutdown does not strand parked waiters: they are answered as their
/// jobs drain, and the server still exits and accounts for every job.
#[test]
fn shutdown_with_parked_waiters_answers_them_and_completes() {
    let (server, client) = start(1, 4, 0);
    let specs: Vec<(ExperimentJob, String)> = (0..2).map(|i| spec(30_000, 1_200 + i)).collect();
    let ids: Vec<u64> = specs
        .iter()
        .map(|(_, json)| client.submit_with_retry(json, 10).expect("submits").0)
        .collect();
    let server = std::sync::Mutex::new(Some(server));
    let roles = [0usize, 1, 2];
    let outcomes = parallel_map(&roles, roles.len(), |_, &role| {
        if role < ids.len() {
            let served = client.wait_result(ids[role], 60_000);
            return (Some(served.map(|r| r.trace_digest)), None);
        }
        // Let both waiters park, then drain and tear down under them.
        std::thread::sleep(std::time::Duration::from_millis(100));
        let server = server
            .lock()
            .expect("unpoisoned")
            .take()
            .expect("server present");
        server.request_shutdown(false);
        (None, Some(server.wait()))
    });
    for (role, (job, _)) in specs.iter().enumerate() {
        let served = outcomes[role].0.clone().expect("waiter outcome");
        assert_eq!(
            served,
            Ok(Some(job.run().trace_digest().expect("traced"))),
            "waiter {role} got its drained result"
        );
    }
    let report = outcomes[2].1.expect("the server shut down");
    assert_eq!((report.accepted, report.completed), (2, 2));
    assert!(report.accounts_for_all(), "{report:?}");
}

/// A peer that accepts a connection and never answers (a stopped
/// process, say) is a transport error within the client's deadline, not
/// a hang.
#[test]
fn a_silent_peer_is_a_transport_error_not_a_hang() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
    let client = ServiceClient::new(listener.local_addr().expect("bound").to_string());
    let outcomes = parallel_map(&[0usize, 1], 2, |_, &role| {
        if role == 0 {
            // Take the connection and stay silent until the client leaves.
            let (mut stream, _) = listener.accept().expect("the client connects");
            let mut sink = Vec::new();
            let _ = std::io::Read::read_to_end(&mut stream, &mut sink);
            return None;
        }
        let t = clock::now();
        let err = client.status(1).expect_err("a silent peer never answers");
        Some((err, clock::ms_since(t)))
    });
    let (err, ms) = outcomes[1].clone().expect("client outcome");
    assert!(ms < 10_000, "gave up only after {ms} ms: {err}");
}

/// One client dribbling its request head a byte at a time holds one
/// handler, not the server: `/stats` answers promptly meanwhile, and the
/// whole-request deadline cuts the dribbler off even though every single
/// read succeeds.
#[test]
fn a_dribbling_client_holds_one_handler_until_its_request_deadline() {
    use std::io::{ErrorKind, Read, Write};
    let (server, client) = start(1, 2, 0);
    let addr = server.local_addr().to_string();
    let outcomes = parallel_map(&[0usize, 1], 2, |_, &role| {
        if role == 1 {
            std::thread::sleep(std::time::Duration::from_millis(200));
            let worst = (0..5)
                .map(|_| {
                    let t = clock::now();
                    client.stats().expect("/stats answers beside the dribbler");
                    clock::ms_since(t)
                })
                .max();
            return worst;
        }
        let mut stream = std::net::TcpStream::connect(&addr).expect("connects");
        stream
            .set_read_timeout(Some(std::time::Duration::from_millis(100)))
            .expect("read timeout");
        let t = clock::now();
        let head = b"GET /stats HTTP/1.1\r\nX-Slow: ";
        for i in 0..150 {
            // One byte, then 100 ms listening for the server's verdict.
            let byte = head.get(i).copied().unwrap_or(b'a');
            if stream.write_all(&[byte]).is_err() {
                break;
            }
            let mut buf = [0u8; 256];
            match stream.read(&mut buf) {
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                _ => break,
            }
        }
        Some(clock::ms_since(t))
    });
    let cut_off_ms = outcomes[0].expect("dribbler outcome");
    let stats_ms = outcomes[1].expect("stats outcome");
    assert!(
        stats_ms < 1_000,
        "/stats took {stats_ms} ms beside a dribbler"
    );
    assert!(
        cut_off_ms < 10_000,
        "a dribbler held its handler {cut_off_ms} ms, past the request deadline"
    );

    server.request_shutdown(false);
    let report = server.wait();
    assert!(report.accounts_for_all(), "{report:?}");
}
