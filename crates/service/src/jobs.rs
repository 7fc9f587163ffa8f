//! The job table: every accepted experiment, from submission to terminal
//! state.
//!
//! State machine (terminal states in caps):
//!
//! ```text
//! queued ──▶ running ──▶ DONE
//!   │           ├──────▶ FAILED      (job panicked; worker survives)
//!   │           ├──────▶ TIMED_OUT   (supervisor hit the deadline)
//!   │           └──────▶ CANCELLED   (DELETE while running)
//!   ├──────────────────▶ CANCELLED   (DELETE while queued)
//!   └──────────────────▶ DROPPED     (force shutdown before execution)
//! ```
//!
//! An accepted job (`202`) reaches a terminal state in every code path —
//! graceful shutdown drains `queued`/`running` to completion, and only a
//! *force* shutdown may produce `DROPPED`, which the shutdown report
//! counts explicitly. Every transition into a terminal state notifies
//! one condition variable, which is what lets a waited result request
//! ([`JobTable::wait_terminal`]) block instead of being polled.

use noc_telemetry::clock;
use sensorwise::codec::json_string;
use sensorwise::{ExperimentJob, WireEpochRequest};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// A deadline `timeout_ms` from now; `None` when `timeout_ms` is zero
/// (no timeout).
fn deadline_after(timeout_ms: u64) -> Option<Instant> {
    (timeout_ms > 0).then(|| clock::now() + Duration::from_millis(timeout_ms))
}

/// A job identifier, unique within one server instance.
pub type JobId = u64;

/// Lifecycle state of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted and waiting in the queue.
    Queued,
    /// Claimed by a worker; the experiment is executing.
    Running,
    /// Completed; the result JSON is available.
    Done,
    /// The experiment panicked; `error` holds the message.
    Failed,
    /// Cancelled by `DELETE /jobs/{id}`.
    Cancelled,
    /// Aborted by the per-job wall-clock timeout.
    TimedOut,
    /// Discarded before execution by a force shutdown.
    Dropped,
}

impl JobState {
    /// Whether the state is terminal (no further transitions).
    pub fn is_terminal(self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }

    /// The wire name of the state.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
            JobState::TimedOut => "timed_out",
            JobState::Dropped => "dropped",
        }
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What an accepted job runs: the serving layer executes standalone
/// experiments and — for the distributed campaign plane — single campaign
/// epochs shipped as [`WireEpochRequest`]s. Both are fully described by
/// their canonical spec JSON, so the cache and accounting paths are
/// identical.
#[derive(Debug, Clone)]
pub enum JobPayload {
    /// A standalone experiment spec.
    Experiment(Box<ExperimentJob>),
    /// One campaign epoch (resume snapshot + aged voltages included).
    Epoch(Box<WireEpochRequest>),
}

/// One tracked job.
#[derive(Debug)]
pub struct JobRecord {
    /// The job id.
    pub id: JobId,
    /// The decoded, runnable payload.
    pub job: JobPayload,
    /// Canonical spec JSON (re-encoded from the decoded job).
    pub spec_json: String,
    /// Current state.
    pub state: JobState,
    /// The result JSON, present once `Done`.
    pub result_json: Option<String>,
    /// The event-stream digest, present once `Done` and the spec traced.
    pub trace_digest: Option<u64>,
    /// Failure detail for `Failed`.
    pub error: Option<String>,
    /// Cancellation flag polled by the engine (cancel *and* timeout).
    pub cancel: Arc<AtomicBool>,
    /// Set (before `cancel`) when the abort came from the deadline
    /// supervisor, so the worker can tell `TimedOut` from `Cancelled`.
    pub timed_out: Arc<AtomicBool>,
    /// Wall-clock deadline, set when the job starts running.
    pub deadline: Option<Instant>,
    /// When the submission was accepted — the job span's start.
    pub submitted_at: Instant,
}

/// Aggregate terminal-state counts (the shutdown report's core).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobCounts {
    /// Jobs still waiting in the queue.
    pub queued: u64,
    /// Jobs currently executing.
    pub running: u64,
    /// Jobs completed with a result.
    pub done: u64,
    /// Jobs that panicked.
    pub failed: u64,
    /// Jobs cancelled by the client.
    pub cancelled: u64,
    /// Jobs aborted by the timeout supervisor.
    pub timed_out: u64,
    /// Jobs dropped by a force shutdown.
    pub dropped: u64,
}

/// The concurrent job table.
#[derive(Debug, Default)]
pub struct JobTable {
    jobs: Mutex<BTreeMap<JobId, JobRecord>>,
    /// Notified on every transition into a terminal state.
    terminal: Condvar,
    next_id: AtomicU64,
}

impl JobTable {
    fn lock(&self) -> MutexGuard<'_, BTreeMap<JobId, JobRecord>> {
        self.jobs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers a new queued job and returns its id.
    pub fn insert(&self, job: JobPayload, spec_json: String) -> JobId {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let record = JobRecord {
            id,
            job,
            spec_json,
            state: JobState::Queued,
            result_json: None,
            trace_digest: None,
            error: None,
            cancel: Arc::new(AtomicBool::new(false)),
            timed_out: Arc::new(AtomicBool::new(false)),
            deadline: None,
            submitted_at: clock::now(),
        };
        self.lock().insert(id, record);
        id
    }

    /// Removes a job that never made it into the queue (submission raced
    /// a full queue): the id disappears as if never assigned.
    pub fn forget(&self, id: JobId) {
        self.lock().remove(&id);
    }

    /// Runs `f` on the job record, or `None` for unknown ids.
    pub fn with<R>(&self, id: JobId, f: impl FnOnce(&mut JobRecord) -> R) -> Option<R> {
        self.lock().get_mut(&id).map(f)
    }

    /// Claims a queued job for a worker: transitions to `Running`, arms
    /// the deadline, and hands back what the worker needs. `None` when the
    /// job is no longer `Queued` (cancelled or dropped while waiting).
    pub fn claim(
        &self,
        id: JobId,
        timeout_ms: u64,
    ) -> Option<(JobPayload, Arc<AtomicBool>, Arc<AtomicBool>)> {
        let mut jobs = self.lock();
        let record = jobs.get_mut(&id)?;
        if record.state != JobState::Queued {
            return None;
        }
        record.state = JobState::Running;
        record.deadline = deadline_after(timeout_ms);
        Some((
            record.job.clone(),
            Arc::clone(&record.cancel),
            Arc::clone(&record.timed_out),
        ))
    }

    /// Finishes a running job with its terminal state.
    pub fn finish(
        &self,
        id: JobId,
        state: JobState,
        result_json: Option<String>,
        trace_digest: Option<u64>,
        error: Option<String>,
    ) {
        debug_assert!(state.is_terminal());
        if let Some(record) = self.lock().get_mut(&id) {
            record.state = state;
            record.result_json = result_json;
            record.trace_digest = trace_digest;
            record.error = error;
            record.deadline = None;
        }
        self.terminal.notify_all();
    }

    /// Requests cancellation. Queued jobs transition immediately; running
    /// jobs get their flag set and transition when the engine observes it.
    /// Returns the state after the request, or `None` for unknown ids.
    pub fn cancel(&self, id: JobId) -> Option<JobState> {
        let mut jobs = self.lock();
        let record = jobs.get_mut(&id)?;
        match record.state {
            JobState::Queued => {
                record.state = JobState::Cancelled;
                self.terminal.notify_all();
            }
            JobState::Running => {
                record.cancel.store(true, Ordering::Relaxed);
            }
            _ => {}
        }
        Some(record.state)
    }

    /// Supervisor sweep: aborts every running job whose deadline has
    /// passed. Returns how many were newly timed out.
    pub fn expire_deadlines(&self, now: Instant) -> u64 {
        let mut expired = 0;
        for record in self.lock().values_mut() {
            if record.state == JobState::Running
                && record.deadline.is_some_and(|d| now >= d)
                && !record.timed_out.swap(true, Ordering::Relaxed)
            {
                record.cancel.store(true, Ordering::Relaxed);
                expired += 1;
            }
        }
        expired
    }

    /// Force-shutdown sweep: drops every queued job and aborts every
    /// running one (counted as cancelled, not timed out).
    pub fn abort_all(&self) {
        for record in self.lock().values_mut() {
            match record.state {
                JobState::Queued => record.state = JobState::Dropped,
                JobState::Running => record.cancel.store(true, Ordering::Relaxed),
                _ => {}
            }
        }
        self.terminal.notify_all();
    }

    /// Blocks until job `id` is terminal or `timeout` passes, and returns
    /// its state then; `None` at once for unknown ids. The lock is
    /// released while parked, so waiting holds up no other operation.
    pub fn wait_terminal(&self, id: JobId, timeout: Duration) -> Option<JobState> {
        let deadline = clock::now() + timeout;
        let mut jobs = self.lock();
        loop {
            let state = jobs.get(&id)?.state;
            let left = deadline.saturating_duration_since(clock::now());
            if state.is_terminal() || left.is_zero() {
                return Some(state);
            }
            jobs = self
                .terminal
                .wait_timeout(jobs, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Current per-state counts.
    pub fn counts(&self) -> JobCounts {
        let mut c = JobCounts::default();
        for record in self.lock().values() {
            match record.state {
                JobState::Queued => c.queued += 1,
                JobState::Running => c.running += 1,
                JobState::Done => c.done += 1,
                JobState::Failed => c.failed += 1,
                JobState::Cancelled => c.cancelled += 1,
                JobState::TimedOut => c.timed_out += 1,
                JobState::Dropped => c.dropped += 1,
            }
        }
        c
    }

    /// The status JSON for `GET /jobs/{id}`, or `None` for unknown ids.
    pub fn status_json(&self, id: JobId) -> Option<String> {
        self.lock().get(&id).map(|record| {
            let mut out = format!(
                "{{\"id\":{},\"status\":{}",
                record.id,
                json_string(record.state.as_str())
            );
            match record.trace_digest {
                Some(d) => out.push_str(&format!(",\"trace_digest\":\"{d:016x}\"")),
                None => out.push_str(",\"trace_digest\":null"),
            }
            match &record.error {
                Some(e) => out.push_str(&format!(",\"error\":{}", json_string(e))),
                None => out.push_str(",\"error\":null"),
            }
            out.push('}');
            out
        })
    }

    /// The result JSON of a job once it is `Done`, or else the state it
    /// is in (both read under one lock); `None` for unknown ids.
    pub fn result_json(&self, id: JobId) -> Option<Result<String, JobState>> {
        self.lock()
            .get(&id)
            .map(|record| record.result_json.clone().ok_or(record.state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensorwise::experiment::SyntheticScenario;
    use sensorwise::PolicyKind;

    fn job() -> JobPayload {
        JobPayload::Experiment(Box::new(
            SyntheticScenario {
                cores: 4,
                vcs: 2,
                injection_rate: 0.1,
            }
            .job(PolicyKind::SensorWise, 100, 1_000),
        ))
    }

    #[test]
    fn lifecycle_queued_running_done() {
        let table = JobTable::default();
        let id = table.insert(job(), "{}".to_string());
        assert_eq!(id, 1);
        assert!(table.status_json(id).unwrap().contains("\"queued\""));
        let (j, cancel, _) = table.claim(id, 0).expect("queued job claims");
        assert!(!cancel.load(Ordering::Relaxed));
        match j {
            JobPayload::Experiment(j) => assert_eq!(j.cfg.measure_cycles, 1_000),
            JobPayload::Epoch(_) => panic!("expected an experiment payload"),
        }
        assert!(table.claim(id, 0).is_none(), "cannot claim twice");
        table.finish(id, JobState::Done, Some("{}".to_string()), Some(7), None);
        let status = table.status_json(id).unwrap();
        assert!(status.contains("\"done\""), "{status}");
        assert!(status.contains("0000000000000007"), "{status}");
        assert_eq!(table.result_json(id), Some(Ok("{}".to_string())));
        assert_eq!(table.counts().done, 1);
    }

    #[test]
    fn cancel_queued_is_immediate_and_running_sets_the_flag() {
        let table = JobTable::default();
        let a = table.insert(job(), String::new());
        assert_eq!(table.cancel(a), Some(JobState::Cancelled));
        assert!(table.claim(a, 0).is_none(), "cancelled jobs never run");

        let b = table.insert(job(), String::new());
        let (_, cancel, timed_out) = table.claim(b, 0).unwrap();
        assert_eq!(table.cancel(b), Some(JobState::Running));
        assert!(cancel.load(Ordering::Relaxed));
        assert!(!timed_out.load(Ordering::Relaxed));
        assert_eq!(table.cancel(999), None);
    }

    #[test]
    fn zero_timeout_has_no_deadline() {
        assert!(deadline_after(0).is_none());
        let d = deadline_after(10_000).expect("nonzero timeout has a deadline");
        assert!(d > clock::now());
    }

    #[test]
    fn deadlines_expire_only_running_jobs() {
        let table = JobTable::default();
        let id = table.insert(job(), String::new());
        assert_eq!(table.expire_deadlines(clock::now()), 0, "queued: no deadline");
        let (_, cancel, timed_out) = table.claim(id, 5).unwrap();
        // A deadline 5 ms out has surely passed one second in the future.
        let later = clock::now() + Duration::from_secs(1);
        assert_eq!(table.expire_deadlines(later), 1);
        assert!(cancel.load(Ordering::Relaxed));
        assert!(timed_out.load(Ordering::Relaxed));
        assert_eq!(table.expire_deadlines(later), 0, "expiry reported once");
    }

    /// Runs `wait_terminal(id, timeout)` and `act` on two threads;
    /// returns the waiter's answer.
    fn wait_across(
        table: &JobTable,
        id: JobId,
        timeout: Duration,
        act: impl Fn() + Sync,
    ) -> Option<JobState> {
        let answers = sensorwise::parallel_map(&[0usize, 1], 2, |_, &role| {
            if role == 0 {
                table.wait_terminal(id, timeout)
            } else {
                // Let the waiter park first; a notify before it parks is
                // also fine, it then sees the terminal state at once.
                std::thread::sleep(Duration::from_millis(20));
                act();
                None
            }
        });
        answers[0]
    }

    #[test]
    fn wait_terminal_wakes_on_finish_cancel_and_abort() {
        let long = Duration::from_secs(30);
        let table = JobTable::default();

        let done = table.insert(job(), String::new());
        table.claim(done, 0).unwrap();
        let t = clock::now();
        let state = wait_across(&table, done, long, || {
            table.finish(done, JobState::Done, Some("{}".to_string()), None, None);
        });
        assert_eq!(state, Some(JobState::Done));
        assert!(
            clock::ms_since(t) < 10_000,
            "woken by finish, not the timeout"
        );

        let queued = table.insert(job(), String::new());
        let state = wait_across(&table, queued, long, || {
            table.cancel(queued);
        });
        assert_eq!(state, Some(JobState::Cancelled));

        let dropped = table.insert(job(), String::new());
        let state = wait_across(&table, dropped, long, || table.abort_all());
        assert_eq!(state, Some(JobState::Dropped));
        assert!(
            clock::ms_since(t) < 10_000,
            "every wake beat the 30 s timeout"
        );
    }

    #[test]
    fn wait_terminal_times_out_on_running_jobs_and_skips_unknown_ids() {
        let table = JobTable::default();
        let id = table.insert(job(), String::new());
        table.claim(id, 0).unwrap();
        let t = clock::now();
        assert_eq!(
            table.wait_terminal(id, Duration::from_millis(50)),
            Some(JobState::Running)
        );
        assert!(
            clock::ms_since(t) >= 50,
            "a running job holds the wait to its timeout"
        );

        let t = clock::now();
        assert_eq!(table.wait_terminal(999, Duration::from_secs(30)), None);
        assert!(clock::ms_since(t) < 1_000, "unknown ids answer at once");
    }

    #[test]
    fn abort_all_drops_queued_and_cancels_running() {
        let table = JobTable::default();
        let q = table.insert(job(), String::new());
        let r = table.insert(job(), String::new());
        let (_, cancel, _) = table.claim(r, 0).unwrap();
        table.abort_all();
        assert!(table.status_json(q).unwrap().contains("\"dropped\""));
        assert!(cancel.load(Ordering::Relaxed));
        let c = table.counts();
        assert_eq!((c.dropped, c.running), (1, 1));
    }
}
