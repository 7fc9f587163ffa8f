//! The remote epoch dispatcher.

use crate::engine::{CampaignError, EpochExecutor};
use crate::remote::pool::WorkerPool;
use noc_service::{deterministic_backoff_ms, ServiceClient, Submitted, WaitError};
use noc_telemetry::{derive_id, Span, SpanKind, SpanLog, NO_PARENT};
use sensorwise::{spec_key, WireEpochOutcome, WireEpochRequest, WireResult};
use std::collections::BTreeMap;
use std::thread;
use std::time::Duration;

/// How long a dispatcher waits for one job's result before it gives the
/// worker up as lost.
const RESULT_BUDGET_MS: u64 = 10 * 60 * 1_000;

/// Why one dispatch attempt against one worker did not yield an outcome.
enum TryError {
    /// The worker is unreachable or stopped answering mid-job: mark it
    /// dead and reassign.
    Transport(String),
    /// The worker's queue is full (`429`): back off deterministically and
    /// rotate to the next worker. Carries the `Retry-After` hint.
    Busy(u64),
    /// The worker ran the job and it failed (typed simulation error).
    /// Deterministic — the same request fails the same way anywhere — so
    /// reassignment is pointless.
    Job(String),
}

/// The campaign-level error for job `id` on `client`, which ended
/// `state` without a result.
fn job_failure(client: &ServiceClient, id: u64, state: &str) -> String {
    format!("worker {} {}", client.addr(), client.failure(id, state))
}

/// Executes campaign epochs on a [`WorkerPool`] of `noc-service` workers.
///
/// Implements the engine's [`EpochExecutor`] contract: the engine hands it
/// the exact [`WireEpochRequest`] a local run would execute, and gets back
/// the exact [`WireEpochOutcome`] the worker's simulator produced —
/// bit-for-bit, every float as its IEEE-754 pattern. The executor owns
/// *placement only*: which worker, how many retries, how long to back off
/// under `429` backpressure.
///
/// Failure handling per attempt:
///
/// * transport failure (connect refused, death mid-job, torn result) —
///   the worker is marked dead and the epoch reassigned to the next live
///   worker, up to `retries` reassignments;
/// * `429 Busy` — deterministic seed-derived backoff (never wall-clock
///   random), then the rotation naturally tries the next worker;
/// * a typed job failure (drain timeout, unsupported sensor, …) — fails
///   the campaign immediately: the request is deterministic, so every
///   worker would fail identically.
///
/// Every attempt is recorded as a `dispatch` span (`dispatch-e{E}-a{A}`)
/// parented under the epoch's derived span id, with one `hop` child per
/// step of the attempt: `encode` (first attempt only), `submit`, `wait`,
/// `fetch-error` (only for a job that failed) and `decode`. Every
/// integration the engine performs on this executor's behalf is an
/// `integrate` span — `drain_spans` hands them all to the caller's
/// sidecar.
#[derive(Debug)]
pub struct RemoteExecutor {
    pool: WorkerPool,
    retries: u32,
    spans: SpanLog,
}

impl RemoteExecutor {
    /// An executor over `pool` tolerating `retries` reassignments per
    /// epoch. Waits up to 10 minutes for each result.
    pub fn new(pool: WorkerPool, retries: u32) -> RemoteExecutor {
        RemoteExecutor {
            pool,
            retries,
            spans: SpanLog::new(),
        }
    }

    /// The worker pool.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// The reassignment budget per epoch.
    pub fn retries(&self) -> u32 {
        self.retries
    }

    /// The worker the scheduler will try for `(epoch, attempt)`, if any
    /// live worker remains (exposed for `campaign status` and tests).
    pub fn planned_worker(&self, epoch: u32, attempt: u32) -> Option<String> {
        self.pool
            .planned_worker(epoch, attempt)
            .map(|i| self.pool.addr(i).to_string())
    }

    /// Takes every recorded dispatch/integrate span, oldest first.
    #[must_use]
    pub fn drain_spans(&self) -> Vec<Span> {
        self.spans.drain()
    }

    /// One attempt on `worker`; its steps are recorded as `hop` spans
    /// under the attempt's span id `attempt_span`.
    fn try_worker(
        &self,
        worker: usize,
        request_json: &str,
        attempt_span: u64,
    ) -> Result<WireEpochOutcome, TryError> {
        let client = self.pool.client(worker);
        let start = self.spans.now_us();
        let submitted = client.submit(request_json);
        self.spans
            .record(SpanKind::Hop, "submit", attempt_span, start);
        let (submitted, _) = submitted.map_err(TryError::Transport)?;
        let id = match submitted {
            Submitted::Accepted { id } => id,
            Submitted::Busy { retry_after_secs } => return Err(TryError::Busy(retry_after_secs)),
            Submitted::Refused { status, error } => {
                return Err(TryError::Job(format!(
                    "worker {} refused the epoch ({status}): {error}",
                    client.addr()
                )))
            }
        };
        let start = self.spans.now_us();
        let waited = client.wait_result_json(id, RESULT_BUDGET_MS);
        self.spans
            .record(SpanKind::Hop, "wait", attempt_span, start);
        let doc = match waited {
            Ok(doc) => doc,
            Err(WaitError::Transport(msg)) => return Err(TryError::Transport(msg)),
            Err(WaitError::Ended(state)) => {
                let start = self.spans.now_us();
                let msg = job_failure(client, id, &state);
                self.spans
                    .record(SpanKind::Hop, "fetch-error", attempt_span, start);
                return Err(TryError::Job(msg));
            }
        };
        // A result that fails to decode is corruption in transit or at
        // rest — a miss, recomputed elsewhere, never a wrong value.
        let start = self.spans.now_us();
        let outcome = WireEpochOutcome::from_json(&doc);
        self.spans
            .record(SpanKind::Hop, "decode", attempt_span, start);
        outcome.map_err(|e| {
            TryError::Transport(format!(
                "worker {} served an undecodable epoch outcome: {e}",
                client.addr()
            ))
        })
    }
}

impl EpochExecutor for RemoteExecutor {
    fn execute(
        &self,
        index: u32,
        request: &WireEpochRequest,
    ) -> Result<WireEpochOutcome, CampaignError> {
        let epoch_span = derive_id(SpanKind::Epoch, &format!("epoch-{index}"), NO_PARENT);
        // The first attempt's span opens before the request is encoded,
        // so the encoding is its first hop.
        let mut start = self.spans.now_us();
        let first_attempt = derive_id(
            SpanKind::Dispatch,
            &format!("dispatch-e{index}-a0"),
            epoch_span,
        );
        let request_json = request
            .to_json()
            .map_err(|e| CampaignError::Spec(e.to_string()))?;
        self.spans
            .record(SpanKind::Hop, "encode", first_attempt, start);
        let seed = spec_key(&request_json);
        let mut last_error = String::new();
        for attempt in 0..=self.retries {
            let Some(worker) = self.pool.planned_worker(index, attempt) else {
                return Err(CampaignError::Dispatch(format!(
                    "epoch {index}: every worker is dead (last error: {last_error})"
                )));
            };
            if attempt > 0 {
                start = self.spans.now_us();
            }
            let name = format!("dispatch-e{index}-a{attempt}");
            let attempt_span = derive_id(SpanKind::Dispatch, &name, epoch_span);
            let outcome = self.try_worker(worker, &request_json, attempt_span);
            self.spans
                .record(SpanKind::Dispatch, &name, epoch_span, start);
            match outcome {
                Ok(wire) => return Ok(wire),
                Err(TryError::Transport(msg)) => {
                    self.pool.mark_dead(worker);
                    last_error = msg;
                }
                Err(TryError::Busy(retry_after)) => {
                    last_error = format!("worker {} is at capacity", self.pool.addr(worker));
                    let wait = deterministic_backoff_ms(seed, attempt, retry_after);
                    thread::sleep(Duration::from_millis(wait));
                }
                Err(TryError::Job(msg)) => {
                    return Err(CampaignError::Dispatch(msg));
                }
            }
        }
        Err(CampaignError::Dispatch(format!(
            "epoch {index} undispatched after {} attempts: {last_error}",
            self.retries + 1
        )))
    }

    fn span_log(&self) -> Option<&SpanLog> {
        Some(&self.spans)
    }
}

/// Runs the per-point jobs of a sweep against the pool via
/// `POST /jobs/batch`: one queue-reservation pass per worker per round,
/// per-item `202`/`429` handling, deterministic backoff between rounds,
/// and reassignment of every point stranded on a dead worker. Returns one
/// [`WireResult`] per spec, in input order.
///
/// # Errors
///
/// [`CampaignError::Dispatch`] when every worker dies, a point is refused
/// outright, a job fails on a worker, or the retry budget runs out with
/// points still pending.
pub fn run_batch_remote(
    pool: &WorkerPool,
    specs: &[String],
    retries: u32,
) -> Result<Vec<WireResult>, CampaignError> {
    let mut results: Vec<Option<WireResult>> = specs.iter().map(|_| None).collect();
    let mut pending: Vec<usize> = (0..specs.len()).collect();
    let mut attempt: u32 = 0;
    while !pending.is_empty() {
        if attempt > retries {
            return Err(CampaignError::Dispatch(format!(
                "{} sweep points still undispatched after {} rounds",
                pending.len(),
                retries + 1
            )));
        }
        // Group this round's points by their deterministic assignment.
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &point in &pending {
            match pool.planned_worker(point as u32, attempt) {
                Some(worker) => groups.entry(worker).or_default().push(point),
                None => {
                    return Err(CampaignError::Dispatch(
                        "every worker is dead with sweep points pending".to_string(),
                    ))
                }
            }
        }
        let mut deferred: Vec<usize> = Vec::new();
        let mut accepted: Vec<(usize, usize, u64)> = Vec::new();
        for (worker, points) in &groups {
            let client = pool.client(*worker);
            let batch: Vec<String> = points.iter().map(|&p| specs[p].clone()).collect();
            match client.submit_batch(&batch) {
                Ok(rows) => {
                    for (slot, &point) in points.iter().enumerate() {
                        match rows.get(slot) {
                            Some(Submitted::Accepted { id }) => {
                                accepted.push((*worker, point, *id));
                            }
                            Some(Submitted::Busy { .. }) | None => deferred.push(point),
                            Some(Submitted::Refused { status, error }) => {
                                return Err(CampaignError::Dispatch(format!(
                                    "sweep point {point} refused by {} ({status}): {error}",
                                    client.addr()
                                )))
                            }
                        }
                    }
                }
                Err(_) => {
                    pool.mark_dead(*worker);
                    deferred.extend(points.iter().copied());
                }
            }
        }
        for (worker, point, id) in accepted {
            let client = pool.client(worker);
            // A transport failure or an undecodable result reassigns the
            // point; a failed job fails the sweep.
            match client.wait_result_json(id, RESULT_BUDGET_MS) {
                Ok(doc) => match WireResult::from_json(&doc) {
                    Ok(result) => results[point] = Some(result),
                    Err(_) => {
                        pool.mark_dead(worker);
                        deferred.push(point);
                    }
                },
                Err(WaitError::Ended(state)) => {
                    return Err(CampaignError::Dispatch(job_failure(client, id, &state)))
                }
                Err(WaitError::Transport(_)) => {
                    pool.mark_dead(worker);
                    deferred.push(point);
                }
            }
        }
        if !deferred.is_empty() {
            deferred.sort_unstable();
            let seed = spec_key(&specs[deferred[0]]);
            let wait = deterministic_backoff_ms(seed, attempt, 1);
            thread::sleep(Duration::from_millis(wait));
        }
        pending = deferred;
        attempt += 1;
    }
    results
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            r.ok_or_else(|| CampaignError::Dispatch(format!("sweep point {i} produced no result")))
        })
        .collect()
}
