//! The experiment server: handler pool, worker pool, timeout supervisor.
//!
//! Thread layout (all fixed at startup — no per-request spawning):
//!
//! * **handlers** (`HANDLERS` of them) — each blocks in `accept` on its
//!   own clone of the listening socket, reads the request under one
//!   whole-request deadline and answers it inline. The kernel's accept
//!   backlog is the connection queue. Most requests are O(parse +
//!   enqueue); a waited result request (`?wait_ms=N`) parks its handler
//!   on the job table's condition variable, and at most `HANDLERS − 1`
//!   may do so at once, so one handler always stays free for submit,
//!   status, `/stats`, `/metrics` and shutdown.
//! * **workers** (`cfg.workers` of them) — block on the queue, claim jobs,
//!   run them through the deterministic engine, record terminal states.
//!   A panicking experiment marks its job `failed`; the worker survives.
//! * **supervisor** — the only thread that watches the wall clock for
//!   jobs: it sweeps deadlines and flips cancellation flags. The engine
//!   itself never sees real time, which is what keeps served results
//!   bit-identical to local runs.
//!
//! Shutdown: `request_shutdown(false)` stops *accepting* (new `POST
//! /jobs` → `503`) and closes the queue, but the handlers keep answering
//! status and result requests while the workers drain every accepted job;
//! `request_shutdown(true)` additionally drops queued jobs and cancels
//! running ones. [`Server::wait`] joins everything and reports what
//! happened to every accepted job.

use crate::http::{
    parse_target, read_request, write_response, Deadline, Request, Target, MAX_WAIT_MS,
};
use crate::jobs::{JobCounts, JobPayload, JobState, JobTable};
use crate::metrics::{Endpoint, GaugeView, MetricsRegistry};
use crate::queue::{BoundedQueue, PushError};
use noc_telemetry::clock;
use noc_telemetry::spans::{derive_id, FlightRecorder, Span, SpanKind, NO_PARENT};
use sensorwise::codec::{json_string, result_to_json, spec_from_json, spec_to_json, JsonValue};
use sensorwise::{is_epoch_request, EpochError, ResultCache, WireEpochOutcome, WireEpochRequest};
use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Connection handlers, each blocking in `accept`.
pub const HANDLERS: usize = 4;
/// Waited result requests allowed at once: one handler always stays free.
const MAX_WAITERS: usize = HANDLERS - 1;
/// The longest a handler spends reading one request, head and body
/// together, however slowly the client sends it.
const REQUEST_DEADLINE: Duration = Duration::from_secs(5);
/// How long a handler backs off after a failed `accept` (descriptor
/// exhaustion and the like) instead of spinning.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);
/// How long `wait` tries to connect when it wakes a handler.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);
/// How often the supervisor sweeps deadlines.
const SUPERVISOR_POLL: Duration = Duration::from_millis(10);
/// The `Retry-After` hint (seconds) sent with `429`.
const RETRY_AFTER_SECS: &str = "1";
/// How many spans the flight recorder keeps (oldest evicted first).
const FLIGHT_RECORDER_CAPACITY: usize = 4096;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Worker-pool size (≥ 1).
    pub workers: usize,
    /// Queue capacity (≥ 1); submissions beyond it get `429`.
    pub queue_depth: usize,
    /// Per-job wall-clock timeout in milliseconds; `0` disables.
    pub job_timeout_ms: u64,
    /// Where the span flight recorder is dumped (JSONL, appended) on
    /// worker failure, job timeout, or shutdown; `None` disables dumps
    /// (spans are still recorded in the in-memory ring).
    pub spans_out: Option<String>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 16,
            job_timeout_ms: 0,
            spans_out: None,
        }
    }
}

/// What happened to every job the server ever accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Jobs accepted with `202`.
    pub accepted: u64,
    /// Jobs that finished with a result.
    pub completed: u64,
    /// Jobs that panicked.
    pub failed: u64,
    /// Jobs cancelled by clients.
    pub cancelled: u64,
    /// Jobs aborted by the timeout supervisor.
    pub timed_out: u64,
    /// Jobs dropped by a force shutdown (always 0 on graceful drains).
    pub dropped: u64,
    /// Submissions refused with `429` (never accepted, never owed).
    pub rejected_busy: u64,
    /// Submissions answered from the result cache (a subset of
    /// `completed`: hits finish terminally at accept time).
    pub cache_hits: u64,
}

impl ShutdownReport {
    /// Whether every accepted job reached a terminal state — the drain
    /// guarantee the integration tests pin down.
    pub fn accounts_for_all(&self) -> bool {
        self.completed + self.failed + self.cancelled + self.timed_out + self.dropped
            == self.accepted
    }
}

/// A shared result cache behind the server: hits answer submissions
/// without occupying a worker, completed runs are written back.
struct CacheHandle(Arc<dyn ResultCache + Send + Sync>);

impl fmt::Debug for CacheHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("CacheHandle(..)")
    }
}

#[derive(Debug)]
struct Shared {
    queue: BoundedQueue<u64>,
    table: JobTable,
    /// Optional content-addressed result cache.
    cache: Option<CacheHandle>,
    /// `false` once shutdown starts: `POST /jobs` answers `503`.
    accepting: AtomicBool,
    /// Set by `POST /shutdown` and `request_shutdown`.
    shutdown: AtomicBool,
    /// Set with `shutdown` on force: queued jobs drop, running ones abort.
    force: AtomicBool,
    /// Terminates the handler and supervisor loops (set by `wait` after
    /// the workers have drained, so polls keep working until the end).
    stop: AtomicBool,
    /// Handlers parked in a waited result request right now.
    waiters: AtomicUsize,
    /// Counters and request-latency histograms behind `/metrics` and
    /// `/stats` (one source of truth for both).
    metrics: MetricsRegistry,
    /// Bounded ring of request/job/experiment spans.
    recorder: FlightRecorder,
    /// Span-dump target (see [`ServiceConfig::spans_out`]).
    spans_out: Option<String>,
    /// Span time origin: every `start_us` is relative to this instant.
    started: Instant,
    timeout_ms: u64,
}

impl Shared {
    /// Microseconds since the server started — the span clock.
    fn span_clock_us(&self) -> u64 {
        clock::us_since(self.started)
    }

    /// Appends the flight recorder's contents to `spans_out`, if set.
    /// Dump errors are swallowed: span loss must never fail serving.
    fn dump_spans(&self) {
        let Some(path) = &self.spans_out else { return };
        if self.recorder.is_empty() {
            return;
        }
        let jsonl = self.recorder.to_jsonl();
        if let Ok(mut f) = std::fs::OpenOptions::new().create(true).append(true).open(path) {
            use std::io::Write;
            let _ = f.write_all(jsonl.as_bytes());
        }
        let _ = self.recorder.drain();
    }
}

/// A running server. Dropping it without calling [`Server::wait`] leaks
/// the threads; `wait` is the supported teardown.
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    handles: Vec<thread::JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the thread pool, and returns once the server is
    /// accepting requests.
    ///
    /// # Errors
    ///
    /// Invalid configuration or a failed bind.
    pub fn start(cfg: &ServiceConfig) -> Result<Server, String> {
        Server::start_with_cache(cfg, None)
    }

    /// Like [`Server::start`], but with a content-addressed result cache:
    /// a submission whose canonical spec is already cached is answered
    /// terminally at accept time — no queue slot, no worker — and every
    /// computed result is written back for the next submitter.
    ///
    /// # Errors
    ///
    /// Invalid configuration or a failed bind.
    pub fn start_with_cache(
        cfg: &ServiceConfig,
        cache: Option<Arc<dyn ResultCache + Send + Sync>>,
    ) -> Result<Server, String> {
        if cfg.workers == 0 {
            return Err("--workers must be at least 1".to_string());
        }
        if cfg.queue_depth == 0 {
            return Err("--queue-depth must be at least 1".to_string());
        }
        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;

        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(cfg.queue_depth),
            table: JobTable::default(),
            cache: cache.map(CacheHandle),
            accepting: AtomicBool::new(true),
            shutdown: AtomicBool::new(false),
            force: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            waiters: AtomicUsize::new(0),
            metrics: MetricsRegistry::default(),
            recorder: FlightRecorder::new(FLIGHT_RECORDER_CAPACITY),
            spans_out: cfg.spans_out.clone(),
            started: clock::now(),
            timeout_ms: cfg.job_timeout_ms,
        });

        let mut handles = Vec::with_capacity(cfg.workers + HANDLERS + 1);
        for worker in 0..cfg.workers {
            let s = Arc::clone(&shared);
            handles.push(
                thread::Builder::new()
                    .name(format!("noc-service-worker-{worker}"))
                    .spawn(move || worker_loop(&s))
                    .map_err(|e| format!("spawn worker: {e}"))?,
            );
        }
        let s = Arc::clone(&shared);
        handles.push(
            thread::Builder::new()
                .name("noc-service-supervisor".to_string())
                .spawn(move || supervisor_loop(&s))
                .map_err(|e| format!("spawn supervisor: {e}"))?,
        );
        // Handler names must not contain "worker": `wait` tells the two
        // groups apart by name.
        for handler in 0..HANDLERS {
            let listener = listener
                .try_clone()
                .map_err(|e| format!("clone listener: {e}"))?;
            let s = Arc::clone(&shared);
            handles.push(
                thread::Builder::new()
                    .name(format!("noc-service-handler-{handler}"))
                    .spawn(move || handler_loop(&listener, &s))
                    .map_err(|e| format!("spawn handler: {e}"))?,
            );
        }
        Ok(Server {
            shared,
            local_addr,
            handles,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Begins shutdown: stop accepting, close the queue. With `force`,
    /// also drop queued jobs and cancel running ones.
    pub fn request_shutdown(&self, force: bool) {
        initiate_shutdown(&self.shared, force);
    }

    /// Blocks until shutdown completes (someone must have requested it,
    /// over HTTP or via [`Server::request_shutdown`]) and every thread has
    /// exited; returns the final accounting.
    pub fn wait(self) -> ShutdownReport {
        // Workers exit once the queue is closed and drained. The handlers
        // and supervisor stay up until then so clients can poll statuses
        // of draining jobs; every job is terminal by the time they stop,
        // so no waited request is left parked.
        let (handlers_and_supervisor, workers): (Vec<_>, Vec<_>) = self
            .handles
            .into_iter()
            .partition(|h| h.thread().name().is_some_and(|n| !n.contains("worker")));
        for h in workers {
            let _ = h.join();
        }
        self.shared.stop.store(true, Ordering::SeqCst);
        // Each handler is blocked in `accept` or finishing a request, and
        // exits on the first connection it accepts after `stop`: one
        // loopback connection per handler wakes them all.
        let mut wake = self.local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(if wake.is_ipv4() {
                Ipv4Addr::LOCALHOST.into()
            } else {
                Ipv6Addr::LOCALHOST.into()
            });
        }
        for _ in 0..HANDLERS {
            let _ = TcpStream::connect_timeout(&wake, WAKE_TIMEOUT);
        }
        for h in handlers_and_supervisor {
            let _ = h.join();
        }
        // The final accounting is also a span-dump point: whatever the
        // flight recorder still holds describes the flight that just ended.
        self.shared.dump_spans();
        let c = self.shared.table.counts();
        report_from(&self.shared, &c)
    }

    /// The live `/stats` snapshot, for in-process callers.
    pub fn counts(&self) -> JobCounts {
        self.shared.table.counts()
    }

    /// Submissions answered straight from the result cache (0 when the
    /// server runs without one).
    pub fn cache_hits(&self) -> u64 {
        self.shared.metrics.cache_hits()
    }
}

fn report_from(shared: &Shared, c: &JobCounts) -> ShutdownReport {
    ShutdownReport {
        accepted: shared.metrics.accepted(),
        completed: c.done,
        failed: c.failed,
        cancelled: c.cancelled,
        timed_out: c.timed_out,
        dropped: c.dropped,
        rejected_busy: shared.metrics.rejected_busy(),
        cache_hits: shared.metrics.cache_hits(),
    }
}

fn initiate_shutdown(shared: &Shared, force: bool) {
    shared.accepting.store(false, Ordering::SeqCst);
    if force {
        shared.force.store(true, Ordering::SeqCst);
        shared.table.abort_all();
    }
    shared.shutdown.store(true, Ordering::SeqCst);
    // Close after the force sweep so a worker cannot claim a job the
    // sweep was about to drop.
    shared.queue.close();
}

/// What a successfully executed payload hands back to the worker loop.
struct JobSuccess {
    /// The result JSON served by `GET /jobs/{id}/result`.
    json: String,
    /// The event-stream digest, when the run was traced.
    digest: Option<u64>,
    /// For experiment payloads, the typed result for the cache write-back;
    /// epoch outcomes are written back as raw JSON instead.
    wire: Option<sensorwise::WireResult>,
}

/// Runs one payload to a `Ok(Some)` success / `Ok(None)` abort /
/// `Err(msg)` typed-failure trichotomy shared by both payload kinds.
fn run_payload(
    payload: &JobPayload,
    cancel: &AtomicBool,
) -> Result<Option<JobSuccess>, String> {
    match payload {
        JobPayload::Experiment(job) => Ok(job.run_cancellable(cancel).map(|result| JobSuccess {
            json: result_to_json(&result),
            digest: result.trace_digest(),
            wire: Some(sensorwise::WireResult::from(&result)),
        })),
        JobPayload::Epoch(req) => match req.run_cancellable(cancel) {
            Ok(outcome) => {
                let wire = WireEpochOutcome::from(&outcome);
                Ok(Some(JobSuccess {
                    json: wire.to_json(),
                    digest: wire.result.trace_digest,
                    wire: None,
                }))
            }
            Err(EpochError::Cancelled) => Ok(None),
            // Drain timeouts, snapshot rejections, unsupported sensors:
            // typed failures of the epoch itself, not worker crashes.
            Err(e) => Err(e.to_string()),
        },
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(id) = shared.queue.pop() {
        // A force shutdown may have raced this pop: claim() refuses
        // anything no longer queued, so dropped/cancelled ids fall through.
        let Some((job, cancel, timed_out)) = shared.table.claim(id, shared.timeout_ms) else {
            continue;
        };
        let submitted_at = shared.table.with(id, |r| r.submitted_at);
        let exp_start_us = shared.span_clock_us();
        let t_run = clock::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| run_payload(&job, &cancel)));
        let busy_us = clock::us_since(t_run);
        shared.metrics.add_worker_busy_us(busy_us);
        record_job_spans(shared, id, submitted_at, exp_start_us, busy_us);
        match outcome {
            Ok(Ok(Some(success))) => {
                if let Some(cache) = &shared.cache {
                    if let Some(spec) = shared.table.with(id, |r| r.spec_json.clone()) {
                        match &success.wire {
                            Some(wire) => cache.0.put(&spec, wire),
                            // Epoch outcomes: the shared result plane
                            // files the raw canonical JSON, which is how
                            // remote campaign front ends pick them up.
                            None => cache.0.put_json(&spec, &success.json),
                        }
                    }
                }
                shared
                    .table
                    .finish(id, JobState::Done, Some(success.json), success.digest, None);
            }
            Ok(Ok(None)) => {
                let state = if timed_out.load(Ordering::Relaxed) {
                    JobState::TimedOut
                } else {
                    JobState::Cancelled
                };
                shared.table.finish(id, state, None, None, None);
                if state == JobState::TimedOut {
                    shared.dump_spans();
                }
            }
            Ok(Err(msg)) => {
                shared
                    .table
                    .finish(id, JobState::Failed, None, None, Some(msg));
                shared.dump_spans();
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "experiment panicked".to_string());
                shared
                    .table
                    .finish(id, JobState::Failed, None, None, Some(msg));
                shared.dump_spans();
            }
        }
    }
}

/// Records the job span (accept → terminal) and the experiment span
/// (worker execution) for one finished job. Ids are derived from logical
/// coordinates, so the chain request → job → experiment reconnects in
/// the summarizer without any handle threading: the job's parent is the
/// submit request span, the experiment's parent is the job span.
fn record_job_spans(
    shared: &Shared,
    id: u64,
    submitted_at: Option<Instant>,
    exp_start_us: u64,
    busy_us: u64,
) {
    let submit_span = derive_id(SpanKind::Request, Endpoint::Submit.label(), NO_PARENT);
    let name = format!("job-{id}");
    let job_start_us = match submitted_at {
        Some(at) => {
            let since_start = at.saturating_duration_since(shared.started);
            u64::try_from(since_start.as_micros()).unwrap_or(u64::MAX)
        }
        None => exp_start_us,
    };
    let job_span = Span::new(
        SpanKind::Job,
        &name,
        submit_span,
        job_start_us,
        shared.span_clock_us().saturating_sub(job_start_us),
    );
    let exp_span = Span::new(SpanKind::Experiment, &name, job_span.id, exp_start_us, busy_us);
    shared.recorder.record(job_span);
    shared.recorder.record(exp_span);
}

fn supervisor_loop(shared: &Shared) {
    while !shared.stop.load(Ordering::SeqCst) {
        shared.table.expire_deadlines(clock::now());
        thread::sleep(SUPERVISOR_POLL);
    }
}

fn handler_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        let accepted = listener.accept();
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((mut stream, _)) => handle_connection(&mut stream, shared),
            Err(_) => thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
    }
}

fn handle_connection(stream: &mut TcpStream, shared: &Shared) {
    let start_us = shared.span_clock_us();
    let t_req = clock::now();
    // A client that stops reading cannot hold the handler either.
    let _ = stream.set_write_timeout(Some(REQUEST_DEADLINE));
    let request = read_request(&mut Deadline::new(stream, REQUEST_DEADLINE));
    let parsed = request
        .as_ref()
        .map_err(String::clone)
        .and_then(|r| parse_target(&r.path).map(|target| (r, target)));
    let (request, target) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => {
            let body = format!("{{\"error\":{}}}", json_string(&e));
            write_response(stream, 400, "application/json", &[], &body);
            finish_request(shared, Endpoint::Other, start_us, t_req);
            return;
        }
    };
    let endpoint = Endpoint::classify(&request.method, &target);
    let (status, content_type, headers, body) = route(request, &target, shared);
    let header_refs: Vec<(&str, &str)> = headers
        .iter()
        .map(|(n, v)| (*n, v.as_str()))
        .collect();
    write_response(stream, status, content_type, &header_refs, &body);
    finish_request(shared, endpoint, start_us, t_req);
}

/// Request bookkeeping after the response went out: one histogram
/// observation and one request span. Neither sits on the reply path.
fn finish_request(shared: &Shared, endpoint: Endpoint, start_us: u64, t_req: Instant) {
    let us = clock::us_since(t_req);
    shared.metrics.observe_request(endpoint, us);
    shared.recorder.record(Span::new(
        SpanKind::Request,
        endpoint.label(),
        NO_PARENT,
        start_us,
        us,
    ));
}

type Routed = (u16, &'static str, Vec<(&'static str, String)>, String);

fn route(req: &Request, target: &Target<'_>, shared: &Shared) -> Routed {
    if let Some(wait_ms) = target.wait_ms {
        return match (req.method.as_str(), target.segments.as_slice()) {
            ("GET", ["jobs", id, "result"]) => with_id(id, |id| waited_result(id, wait_ms, shared)),
            _ => plain(
                400,
                "{\"error\":\"wait_ms applies only to GET /jobs/{id}/result\"}".to_string(),
            ),
        };
    }
    match (req.method.as_str(), target.segments.as_slice()) {
        ("POST", ["jobs"]) => submit(req, shared),
        ("POST", ["jobs", "batch"]) => submit_batch(req, shared),
        ("GET", ["jobs", id]) => with_id(id, |id| status(id, shared)),
        ("GET", ["jobs", id, "result"]) => with_id(id, |id| result(id, shared)),
        ("DELETE", ["jobs", id]) => with_id(id, |id| cancel(id, shared)),
        ("GET", ["stats"]) => stats(shared),
        ("GET", ["metrics"]) => metrics(shared),
        ("POST", ["shutdown"]) => shutdown(req, shared),
        (_, ["jobs"] | ["jobs", ..] | ["stats"] | ["metrics"] | ["shutdown"]) => plain(
            405,
            "{\"error\":\"method not allowed\"}".to_string(),
        ),
        _ => plain(404, "{\"error\":\"no such endpoint\"}".to_string()),
    }
}

fn plain(status: u16, body: String) -> Routed {
    (status, "application/json", Vec::new(), body)
}

fn with_id(raw: &str, f: impl FnOnce(u64) -> Routed) -> Routed {
    match raw.parse::<u64>() {
        Ok(id) => f(id),
        Err(_) => plain(400, format!("{{\"error\":{}}}", json_string("bad job id"))),
    }
}

/// Decodes a submission body into a runnable payload plus its canonical
/// spec JSON. Bodies carrying the `"kind":"epoch"` marker are campaign
/// epochs; everything else is a standalone experiment spec. Re-encoding
/// makes the stored spec canonical regardless of client formatting.
fn parse_submission(body: &str) -> Result<(JobPayload, String), String> {
    if is_epoch_request(body) {
        let req = WireEpochRequest::from_json(body).map_err(|e| e.to_string())?;
        let canonical = req.to_json().map_err(|e| e.to_string())?;
        Ok((JobPayload::Epoch(Box::new(req)), canonical))
    } else {
        let job = spec_from_json(body).map_err(|e| e.to_string())?;
        let canonical = spec_to_json(&job).map_err(|e| e.to_string())?;
        Ok((JobPayload::Experiment(Box::new(job)), canonical))
    }
}

/// Cache fast path: a memoized spec is answered terminally at accept time
/// — the job record exists (status/result polls work as usual) but no
/// queue slot or worker is ever consumed. Returns the job id on a hit, or
/// hands the payload back on a miss. A stored entry that fails to decode
/// for its payload kind is a miss, never a wrong answer.
fn answer_from_cache(
    payload: JobPayload,
    canonical: &str,
    shared: &Shared,
) -> Result<u64, JobPayload> {
    let Some(cache) = &shared.cache else {
        return Err(payload);
    };
    let hit = match &payload {
        JobPayload::Experiment(_) => cache
            .0
            .get(canonical)
            .map(|wire| (wire.trace_digest, wire.to_json())),
        JobPayload::Epoch(_) => cache.0.get_json(canonical).and_then(|json| {
            WireEpochOutcome::from_json(&json)
                .ok()
                .map(|o| (o.result.trace_digest, json))
        }),
    };
    match hit {
        Some((digest, json)) => {
            let id = shared.table.insert(payload, canonical.to_string());
            shared.metrics.inc_accepted();
            shared.metrics.inc_cache_hit();
            shared.table.finish(id, JobState::Done, Some(json), digest, None);
            Ok(id)
        }
        None => {
            shared.metrics.inc_cache_miss();
            Err(payload)
        }
    }
}

/// Outcome of trying to enqueue one parsed, cache-missed submission.
enum Enqueued {
    /// Accepted; the id is queued for a worker.
    Queued(u64),
    /// The queue is full: `429`.
    Busy,
    /// The queue closed under the submission: `503`.
    Closed,
}

fn enqueue_one(payload: JobPayload, canonical: String, shared: &Shared) -> Enqueued {
    let id = shared.table.insert(payload, canonical);
    match shared.queue.try_push(id) {
        Ok(()) => {
            shared.metrics.inc_accepted();
            Enqueued::Queued(id)
        }
        Err(PushError::Full) => {
            shared.table.forget(id);
            shared.metrics.inc_rejected_busy();
            Enqueued::Busy
        }
        Err(PushError::Closed) => {
            shared.table.forget(id);
            Enqueued::Closed
        }
    }
}

fn submit(req: &Request, shared: &Shared) -> Routed {
    if !shared.accepting.load(Ordering::SeqCst) {
        return plain(503, "{\"error\":\"server is shutting down\"}".to_string());
    }
    let (payload, canonical) = match parse_submission(&req.body) {
        Ok(parsed) => parsed,
        Err(e) => return plain(400, format!("{{\"error\":{}}}", json_string(&e))),
    };
    let payload = match answer_from_cache(payload, &canonical, shared) {
        Ok(id) => {
            return plain(
                202,
                format!("{{\"id\":{id},\"status\":\"done\",\"cached\":true}}"),
            )
        }
        Err(payload) => payload,
    };
    match enqueue_one(payload, canonical, shared) {
        Enqueued::Queued(id) => plain(202, format!("{{\"id\":{id},\"status\":\"queued\"}}")),
        Enqueued::Busy => (
            429,
            "application/json",
            vec![("Retry-After", RETRY_AFTER_SECS.to_string())],
            "{\"error\":\"queue full, retry later\"}".to_string(),
        ),
        Enqueued::Closed => plain(503, "{\"error\":\"server is shutting down\"}".to_string()),
    }
}

/// Serializes a parsed [`JsonValue`] back to compact JSON text, preserving
/// number raw text and insertion order (used to hand batch items to the
/// same decode path single submissions take).
fn render_json(v: &JsonValue) -> String {
    match v {
        JsonValue::Null => "null".to_string(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Num(raw) => raw.clone(),
        JsonValue::Str(s) => json_string(s),
        JsonValue::Arr(items) => {
            let mut out = String::from("[");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&render_json(item));
            }
            out.push(']');
            out
        }
        JsonValue::Obj(pairs) => {
            let mut out = String::from("{");
            for (i, (k, val)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&json_string(k));
                out.push(':');
                out.push_str(&render_json(val));
            }
            out.push('}');
            out
        }
    }
}

/// `POST /jobs/batch`: an array of specs accepted in one request. The body
/// is `{"jobs":[...]}` where each item is either a spec object or a string
/// containing spec JSON (epoch requests welcome in both forms). Queue
/// capacity is reserved in **one pass**: the free slots are snapshotted
/// once, cache hits consume none, and items beyond the snapshot are
/// answered busy per-item without racing the queue. The response is `200`
/// with per-item `202`/`429` codes mirroring what individual submissions
/// would have received.
fn submit_batch(req: &Request, shared: &Shared) -> Routed {
    if !shared.accepting.load(Ordering::SeqCst) {
        return plain(503, "{\"error\":\"server is shutting down\"}".to_string());
    }
    let root = match JsonValue::parse(&req.body) {
        Ok(v) => v,
        Err(e) => return plain(400, format!("{{\"error\":{}}}", json_string(&e.to_string()))),
    };
    let Some(items) = root.get("jobs").and_then(JsonValue::as_arr) else {
        return plain(
            400,
            "{\"error\":\"batch body must be {\\\"jobs\\\":[...]}\"}".to_string(),
        );
    };
    // The one reservation pass: snapshot free capacity now; every queued
    // acceptance below spends from this budget.
    let mut slots = shared
        .queue
        .capacity()
        .saturating_sub(shared.queue.len());
    let (mut accepted, mut cached, mut busy, mut errors) = (0u64, 0u64, 0u64, 0u64);
    let mut rows = Vec::with_capacity(items.len());
    for item in items {
        let spec_text = match item {
            JsonValue::Str(s) => s.clone(),
            other => render_json(other),
        };
        let (payload, canonical) = match parse_submission(&spec_text) {
            Ok(parsed) => parsed,
            Err(e) => {
                errors += 1;
                rows.push(format!("{{\"code\":400,\"error\":{}}}", json_string(&e)));
                continue;
            }
        };
        let payload = match answer_from_cache(payload, &canonical, shared) {
            Ok(id) => {
                cached += 1;
                rows.push(format!(
                    "{{\"code\":202,\"id\":{id},\"status\":\"done\",\"cached\":true}}"
                ));
                continue;
            }
            Err(payload) => payload,
        };
        if slots == 0 {
            busy += 1;
            shared.metrics.inc_rejected_busy();
            rows.push("{\"code\":429,\"status\":\"busy\",\"retry_after\":1}".to_string());
            continue;
        }
        match enqueue_one(payload, canonical, shared) {
            Enqueued::Queued(id) => {
                slots -= 1;
                accepted += 1;
                rows.push(format!("{{\"code\":202,\"id\":{id},\"status\":\"queued\"}}"));
            }
            Enqueued::Busy => {
                // The snapshot raced another submitter; same answer a
                // single submission would get.
                slots = 0;
                busy += 1;
                rows.push("{\"code\":429,\"status\":\"busy\",\"retry_after\":1}".to_string());
            }
            Enqueued::Closed => {
                rows.push("{\"code\":503,\"status\":\"shutting_down\"}".to_string());
            }
        }
    }
    let body = format!(
        "{{\"accepted\":{accepted},\"cached\":{cached},\"busy\":{busy},\"errors\":{errors},\
         \"items\":[{}]}}",
        rows.join(",")
    );
    plain(200, body)
}

fn status(id: u64, shared: &Shared) -> Routed {
    match shared.table.status_json(id) {
        Some(body) => plain(200, body),
        None => plain(404, "{\"error\":\"no such job\"}".to_string()),
    }
}

fn result(id: u64, shared: &Shared) -> Routed {
    match shared.table.result_json(id) {
        None => plain(404, "{\"error\":\"no such job\"}".to_string()),
        Some(Ok(body)) => plain(200, body),
        Some(Err(state)) => plain(
            409,
            format!(
                "{{\"error\":\"job has no result\",\"status\":{}}}",
                json_string(state.as_str())
            ),
        ),
    }
}

/// One of the `MAX_WAITERS` slots for a parked waited request, released
/// on drop.
struct WaitSlot<'a>(&'a AtomicUsize);

impl<'a> WaitSlot<'a> {
    fn take(waiters: &'a AtomicUsize) -> Option<WaitSlot<'a>> {
        waiters
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < MAX_WAITERS).then_some(n + 1)
            })
            .ok()
            .map(|_| WaitSlot(waiters))
    }
}

impl Drop for WaitSlot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// `GET /jobs/{id}/result?wait_ms=N`: parks until the job is terminal or
/// `N` (clamped to `MAX_WAIT_MS`) passes, then answers exactly as the
/// unwaited result request does. Only a job that is still queued or
/// running needs a waiter slot; with every slot taken the answer is `429`.
fn waited_result(id: u64, wait_ms: u64, shared: &Shared) -> Routed {
    let pending = shared
        .table
        .with(id, |r| !r.state.is_terminal())
        .unwrap_or(false);
    if pending && wait_ms > 0 {
        let Some(_slot) = WaitSlot::take(&shared.waiters) else {
            return (
                429,
                "application/json",
                vec![("Retry-After", RETRY_AFTER_SECS.to_string())],
                "{\"error\":\"too many waiting requests, retry later\"}".to_string(),
            );
        };
        shared
            .table
            .wait_terminal(id, Duration::from_millis(wait_ms.min(MAX_WAIT_MS)));
    }
    result(id, shared)
}

fn cancel(id: u64, shared: &Shared) -> Routed {
    match shared.table.cancel(id) {
        Some(state) => plain(
            200,
            format!("{{\"id\":{id},\"status\":{}}}", json_string(state.as_str())),
        ),
        None => plain(404, "{\"error\":\"no such job\"}".to_string()),
    }
}

/// Samples the gauges both `/stats` and `/metrics` render from.
fn gauge_view(shared: &Shared) -> GaugeView {
    GaugeView {
        accepting: shared.accepting.load(Ordering::SeqCst),
        queue_len: shared.queue.len(),
        queue_capacity: shared.queue.capacity(),
        jobs: shared.table.counts(),
    }
}

fn stats(shared: &Shared) -> Routed {
    let g = gauge_view(shared);
    let c = g.jobs;
    let body = format!(
        "{{\"accepting\":{},\"queue_len\":{},\"queue_depth\":{},\"accepted\":{},\"rejected_busy\":{},\
         \"cache_hits\":{},\
         \"queued\":{},\"running\":{},\"done\":{},\"failed\":{},\"cancelled\":{},\"timed_out\":{},\"dropped\":{}}}",
        g.accepting,
        g.queue_len,
        g.queue_capacity,
        shared.metrics.accepted(),
        shared.metrics.rejected_busy(),
        shared.metrics.cache_hits(),
        c.queued,
        c.running,
        c.done,
        c.failed,
        c.cancelled,
        c.timed_out,
        c.dropped,
    );
    plain(200, body)
}

fn metrics(shared: &Shared) -> Routed {
    let body = shared.metrics.render(&gauge_view(shared));
    (
        200,
        "text/plain; version=0.0.4; charset=utf-8",
        Vec::new(),
        body,
    )
}

fn shutdown(req: &Request, shared: &Shared) -> Routed {
    let force = !req.body.trim().is_empty()
        && JsonValue::parse(&req.body)
            .ok()
            .as_ref()
            .and_then(|v| v.get("force"))
            .and_then(JsonValue::as_bool)
            .unwrap_or(false);
    initiate_shutdown(shared, force);
    let mode = if force { "aborting" } else { "draining" };
    plain(200, format!("{{\"status\":{}}}", json_string(mode)))
}
