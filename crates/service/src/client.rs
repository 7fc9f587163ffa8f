//! A small blocking client for the job API.
//!
//! Used by `nbti-noc submit`, the integration tests, and the throughput
//! bench. Every call opens one connection (the server closes after each
//! response) and reports its wall-clock latency in milliseconds so
//! callers can build request-latency distributions without touching the
//! clock themselves. Waiting for a result never polls: it blocks in
//! waited result requests (`?wait_ms=N`) that the server answers the
//! moment the job ends.

use crate::http::{http_request, MAX_WAIT_MS};
use noc_telemetry::clock;
use noc_telemetry::rng::SplitMix64;
use sensorwise::codec::{JsonValue, WireResult};
use sensorwise::spec_key;
use std::thread;
use std::time::Duration;

/// Deterministic backoff for a `429` retry, in milliseconds.
///
/// Classic randomized exponential backoff decorrelates contending
/// clients by sampling the wall clock or a global RNG — both of which
/// would make a retried submission depend on *when* it ran. Here the
/// jitter is derived from the submission itself: `seed` is the spec's
/// content key, mixed with the attempt number through SplitMix64. Two
/// clients pushing different specs still spread out; the same spec
/// retried in a replayed run waits exactly as long as it did the first
/// time.
///
/// The wait grows `20ms << attempt` (capped at attempt 4) plus up to
/// half that again in jitter, and never exceeds the server's
/// `Retry-After` hint (clamped to 1..=5 s) nor 400 ms — the hint is an
/// upper bound and queues drain in milliseconds.
#[must_use]
pub fn deterministic_backoff_ms(seed: u64, attempt: u32, retry_after_secs: u64) -> u64 {
    let z =
        SplitMix64::new(seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64();
    let base = 20u64 << attempt.min(4);
    let jitter = z % (base / 2 + 1);
    let cap = (retry_after_secs.clamp(1, 5) * 1000).min(400);
    (base + jitter).min(cap)
}

/// Outcome of one submission attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Submitted {
    /// `202`: the job is queued under this id.
    Accepted {
        /// The server-assigned job id.
        id: u64,
    },
    /// `429`: backpressure; retry after the hinted delay.
    Busy {
        /// The server's `Retry-After` hint, seconds.
        retry_after_secs: u64,
    },
    /// Any other status (bad spec, shutting down, ...).
    Refused {
        /// The HTTP status code.
        status: u16,
        /// The server's error body.
        error: String,
    },
}

/// A job's status as reported by `GET /jobs/{id}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatus {
    /// The job id.
    pub id: u64,
    /// The wire state name (`queued`, `running`, `done`, ...).
    pub status: String,
    /// The event-stream digest once the job is done and was traced.
    pub trace_digest: Option<u64>,
    /// Failure detail for failed jobs.
    pub error: Option<String>,
}

impl JobStatus {
    /// Whether the job can make no further progress.
    pub fn is_terminal(&self) -> bool {
        !matches!(self.status.as_str(), "queued" | "running")
    }
}

/// Why [`ServiceClient::wait_result_json`] returned no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WaitError {
    /// The job reached this terminal state without a result (`failed`,
    /// `cancelled`, `timed_out`, `dropped`);
    /// [`ServiceClient::failure`] fetches its error text.
    Ended(String),
    /// A transport failure, an unknown id, an unexpected answer, or a
    /// budget spent before the job ended.
    Transport(String),
}

/// The blocking API client.
#[derive(Debug, Clone)]
pub struct ServiceClient {
    addr: String,
}

impl ServiceClient {
    /// A client for the server at `addr` (`host:port`).
    pub fn new(addr: impl Into<String>) -> ServiceClient {
        ServiceClient { addr: addr.into() }
    }

    /// The server address this client targets.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn timed(
        &self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<(crate::http::ClientResponse, u64), String> {
        let start = clock::now();
        let response = http_request(&self.addr, method, path, body)?;
        Ok((response, clock::ms_since(start)))
    }

    /// Submits one spec. Returns the outcome and the request latency in
    /// milliseconds.
    ///
    /// # Errors
    ///
    /// Transport failures only; HTTP-level refusals are [`Submitted`]
    /// variants.
    pub fn submit(&self, spec_json: &str) -> Result<(Submitted, u64), String> {
        let (response, latency_ms) = self.timed("POST", "/jobs", spec_json)?;
        let outcome = match response.status {
            202 => {
                let id = JsonValue::parse(&response.body)
                    .ok()
                    .as_ref()
                    .and_then(|v| v.get("id"))
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| format!("202 without an id: {}", response.body))?;
                Submitted::Accepted { id }
            }
            429 => Submitted::Busy {
                retry_after_secs: response.retry_after_secs.unwrap_or(1),
            },
            status => Submitted::Refused {
                status,
                error: response.body,
            },
        };
        Ok((outcome, latency_ms))
    }

    /// Submits with bounded backpressure retries. Returns the job id, the
    /// number of `429`s absorbed, and the latencies of every attempt.
    ///
    /// # Errors
    ///
    /// Transport failures, non-busy refusals, or `max_retries` exhausted.
    pub fn submit_with_retry(
        &self,
        spec_json: &str,
        max_retries: u32,
    ) -> Result<(u64, u32, Vec<u64>), String> {
        let mut latencies = Vec::new();
        let mut busy = 0u32;
        let seed = spec_key(spec_json);
        loop {
            let (outcome, latency_ms) = self.submit(spec_json)?;
            latencies.push(latency_ms);
            match outcome {
                Submitted::Accepted { id } => return Ok((id, busy, latencies)),
                Submitted::Busy { retry_after_secs } => {
                    busy += 1;
                    if busy > max_retries {
                        return Err(format!("queue still full after {max_retries} retries"));
                    }
                    let wait = deterministic_backoff_ms(seed, busy - 1, retry_after_secs);
                    thread::sleep(Duration::from_millis(wait));
                }
                Submitted::Refused { status, error } => {
                    return Err(format!("submission refused ({status}): {error}"));
                }
            }
        }
    }

    /// Submits many specs in one request (`POST /jobs/batch`).
    ///
    /// The server admits the items in order, each exactly as a single
    /// submission would be. Returns one [`Submitted`] per input,
    /// in order: `202` rows map to [`Submitted::Accepted`] (cached hits
    /// included — they are already `done`), `429` rows to
    /// [`Submitted::Busy`], anything else to [`Submitted::Refused`].
    ///
    /// # Errors
    ///
    /// Transport failures, a non-`200` envelope, or a malformed body.
    pub fn submit_batch(&self, specs: &[String]) -> Result<Vec<Submitted>, String> {
        let mut body = String::from("{\"jobs\":[");
        for (i, spec) in specs.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(spec);
        }
        body.push_str("]}");
        let (response, _) = self.timed("POST", "/jobs/batch", &body)?;
        if response.status != 200 {
            return Err(format!(
                "batch: HTTP {}: {}",
                response.status, response.body
            ));
        }
        let v = JsonValue::parse(&response.body).map_err(|e| e.to_string())?;
        let items = v
            .get("items")
            .and_then(JsonValue::as_arr)
            .ok_or("batch response without items")?;
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            let code = item
                .get("code")
                .and_then(JsonValue::as_u64)
                .ok_or("batch item without a code")?;
            out.push(match code {
                202 => {
                    let id = item
                        .get("id")
                        .and_then(JsonValue::as_u64)
                        .ok_or("202 batch item without an id")?;
                    Submitted::Accepted { id }
                }
                429 => Submitted::Busy {
                    retry_after_secs: item
                        .get("retry_after")
                        .and_then(JsonValue::as_u64)
                        .unwrap_or(1),
                },
                status => Submitted::Refused {
                    status: u16::try_from(status).unwrap_or(500),
                    error: item
                        .get("error")
                        .and_then(JsonValue::as_str)
                        .unwrap_or("")
                        .to_string(),
                },
            });
        }
        Ok(out)
    }

    /// Fetches a job's status.
    ///
    /// # Errors
    ///
    /// Transport failures, unknown ids, or unparseable bodies.
    pub fn status(&self, id: u64) -> Result<JobStatus, String> {
        let (response, _) = self.timed("GET", &format!("/jobs/{id}"), "")?;
        if response.status != 200 {
            return Err(format!(
                "status {id}: HTTP {}: {}",
                response.status, response.body
            ));
        }
        let v = JsonValue::parse(&response.body).map_err(|e| e.to_string())?;
        let status = v
            .get("status")
            .and_then(JsonValue::as_str)
            .ok_or("status response without a status field")?
            .to_string();
        let trace_digest = match v.get("trace_digest").and_then(JsonValue::as_str) {
            Some(hex) => {
                Some(u64::from_str_radix(hex, 16).map_err(|_| format!("bad digest hex `{hex}`"))?)
            }
            None => None,
        };
        let error = v
            .get("error")
            .and_then(JsonValue::as_str)
            .map(str::to_string);
        Ok(JobStatus {
            id,
            status,
            trace_digest,
            error,
        })
    }

    /// Fetches a finished job's result; `Ok(None)` while it is still
    /// queued or running.
    ///
    /// # Errors
    ///
    /// Transport failures, unknown ids, or undecodable results.
    pub fn result(&self, id: u64) -> Result<Option<WireResult>, String> {
        let (response, _) = self.timed("GET", &format!("/jobs/{id}/result"), "")?;
        match response.status {
            200 => WireResult::from_json(&response.body)
                .map(Some)
                .map_err(|e| e.to_string()),
            409 => Ok(None),
            status => Err(format!("result {id}: HTTP {status}: {}", response.body)),
        }
    }

    /// Fetches a finished job's result body verbatim; `Ok(None)` while
    /// it is still queued or running.
    ///
    /// Epoch jobs serve a `WireEpochOutcome` document rather than a
    /// `WireResult`, so remote campaign callers need the raw text to
    /// decode themselves.
    ///
    /// # Errors
    ///
    /// Transport failures or unknown ids.
    pub fn result_json(&self, id: u64) -> Result<Option<String>, String> {
        let (response, _) = self.timed("GET", &format!("/jobs/{id}/result"), "")?;
        match response.status {
            200 => Ok(Some(response.body)),
            409 => Ok(None),
            status => Err(format!("result {id}: HTTP {status}: {}", response.body)),
        }
    }

    /// Waits until the job reaches a terminal state, then returns its
    /// result. Bounded: gives up after `timeout_ms`.
    ///
    /// # Errors
    ///
    /// Transport failures, non-`done` terminal states (with the job's
    /// error text, fetched by one status request), an exhausted budget, or
    /// an undecodable result.
    pub fn wait_result(&self, id: u64, timeout_ms: u64) -> Result<WireResult, String> {
        match self.wait_result_json(id, timeout_ms) {
            Ok(body) => WireResult::from_json(&body).map_err(|e| e.to_string()),
            Err(WaitError::Ended(state)) => Err(self.failure(id, &state)),
            Err(WaitError::Transport(msg)) => Err(msg),
        }
    }

    /// Waits until the job reaches a terminal state and returns its
    /// result body verbatim (epoch jobs serve a `WireEpochOutcome`, not a
    /// `WireResult`). Each round trip is a waited result request that the
    /// server answers as soon as the job ends, so a job that finishes in
    /// time costs exactly one request and no sleep. A `429` (every waiter
    /// slot taken) is retried after [`deterministic_backoff_ms`], seeded
    /// by the job id. Bounded: gives up after `timeout_ms`.
    ///
    /// # Errors
    ///
    /// [`WaitError::Ended`] for a job that ended without a result,
    /// [`WaitError::Transport`] for everything else.
    pub fn wait_result_json(&self, id: u64, timeout_ms: u64) -> Result<String, WaitError> {
        let start = clock::now();
        let mut busy = 0u32;
        loop {
            let left = timeout_ms.saturating_sub(clock::ms_since(start));
            let path = format!("/jobs/{id}/result?wait_ms={}", left.min(MAX_WAIT_MS));
            let (response, _) = self.timed("GET", &path, "").map_err(WaitError::Transport)?;
            match response.status {
                200 => return Ok(response.body),
                409 => {
                    let state = JsonValue::parse(&response.body)
                        .ok()
                        .as_ref()
                        .and_then(|v| v.get("status"))
                        .and_then(JsonValue::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| {
                            WaitError::Transport(format!("result {id}: 409 without a status"))
                        })?;
                    if !matches!(state.as_str(), "queued" | "running") {
                        return Err(WaitError::Ended(state));
                    }
                }
                // Every waiter slot is taken: back off as a refused
                // submission does, so clients beyond the cap cost the
                // server a few requests per second, not a poll loop.
                429 => {
                    let hint = response.retry_after_secs.unwrap_or(1);
                    let pause = deterministic_backoff_ms(id, busy, hint).min(left);
                    busy += 1;
                    thread::sleep(Duration::from_millis(pause));
                }
                404 if response.body.contains("no such endpoint") => {
                    return Err(WaitError::Transport(format!(
                        "{} does not serve waited results (`?wait_ms=`): the front end \
                         and its workers must run the same build",
                        self.addr
                    )))
                }
                status => {
                    return Err(WaitError::Transport(format!(
                        "result {id}: HTTP {status}: {}",
                        response.body
                    )))
                }
            }
            if left == 0 {
                return Err(WaitError::Transport(format!(
                    "job {id} still not terminal after {timeout_ms} ms"
                )));
            }
        }
    }

    /// The failure text of job `id`, which ended `state` without a
    /// result: one status request fetches the job's error detail.
    pub fn failure(&self, id: u64, state: &str) -> String {
        let detail = self
            .status(id)
            .ok()
            .and_then(|s| s.error)
            .map(|e| format!(": {e}"))
            .unwrap_or_default();
        format!("job {id} ended {state}{detail}")
    }

    /// Requests job cancellation; returns the post-request state.
    ///
    /// # Errors
    ///
    /// Transport failures or unknown ids.
    pub fn cancel(&self, id: u64) -> Result<String, String> {
        let (response, _) = self.timed("DELETE", &format!("/jobs/{id}"), "")?;
        if response.status != 200 {
            return Err(format!(
                "cancel {id}: HTTP {}: {}",
                response.status, response.body
            ));
        }
        JsonValue::parse(&response.body)
            .ok()
            .as_ref()
            .and_then(|v| v.get("status"))
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("cancel response unparseable: {}", response.body))
    }

    /// Fetches the `/stats` snapshot as parsed JSON.
    ///
    /// # Errors
    ///
    /// Transport or parse failures.
    pub fn stats(&self) -> Result<JsonValue, String> {
        let (response, _) = self.timed("GET", "/stats", "")?;
        if response.status != 200 {
            return Err(format!("stats: HTTP {}", response.status));
        }
        JsonValue::parse(&response.body).map_err(|e| e.to_string())
    }

    /// Asks the server to shut down (drain, or abort when `force`).
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected status.
    pub fn shutdown(&self, force: bool) -> Result<(), String> {
        let body = if force { "{\"force\":true}" } else { "" };
        let (response, _) = self.timed("POST", "/shutdown", body)?;
        if response.status != 200 {
            return Err(format!(
                "shutdown: HTTP {}: {}",
                response.status, response.body
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::deterministic_backoff_ms;

    #[test]
    fn backoff_is_a_pure_function_of_its_inputs() {
        for attempt in 0..8 {
            let a = deterministic_backoff_ms(0xDEAD_BEEF, attempt, 1);
            let b = deterministic_backoff_ms(0xDEAD_BEEF, attempt, 1);
            assert_eq!(a, b, "attempt {attempt} must replay identically");
        }
        // Different specs decorrelate: at least one attempt differs.
        let diverged = (0..8).any(|attempt| {
            deterministic_backoff_ms(1, attempt, 5) != deterministic_backoff_ms(2, attempt, 5)
        });
        assert!(diverged, "distinct seeds should yield distinct schedules");
    }

    /// Three waits captured before the jitter moved onto
    /// `noc_telemetry::rng::SplitMix64`.
    #[test]
    fn backoff_values_match_goldens() {
        let got = [
            deterministic_backoff_ms(0xDEAD_BEEF, 0, 5),
            deterministic_backoff_ms(0xDEAD_BEEF, 2, 5),
            deterministic_backoff_ms(42, 3, 5),
        ];
        assert_eq!(got, [26, 119, 216]);
    }

    #[test]
    fn backoff_honors_retry_after_and_the_global_cap() {
        for seed in [0u64, 1, u64::MAX, 0x1234_5678_9ABC_DEF0] {
            for attempt in 0..10 {
                for hint in [0u64, 1, 2, 5, 60] {
                    let wait = deterministic_backoff_ms(seed, attempt, hint);
                    let cap = (hint.clamp(1, 5) * 1000).min(400);
                    assert!(wait <= cap, "wait {wait} exceeds cap {cap}");
                    assert!(wait >= 1, "a busy retry always waits a little");
                }
            }
        }
    }

    #[test]
    fn backoff_grows_with_attempts_until_the_cap() {
        // Base doubles per attempt (before jitter), saturating at 320ms;
        // the floor of the wait therefore rises until the cap bites.
        let floor = |attempt: u32| 20u64 << attempt.min(4);
        for attempt in 0..6 {
            let wait = deterministic_backoff_ms(42, attempt, 5);
            assert!(
                wait >= floor(attempt).min(400),
                "attempt {attempt}: wait {wait} under floor"
            );
        }
    }
}
