//! The job table: the one record of every job's lifecycle, from admission
//! to terminal state, under one mutex.
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
//! The table is also the bounded queue. It holds the FIFO of queued jobs,
//! its capacity, the closed flag and one counter per state, and every
//! operation — admission ([`JobTable::submit`]), a worker's claim of the
//! oldest queued job ([`JobTable::claim`]), cancellation, the deadline
//! sweep and [`JobTable::close`] — is one critical section. So a full
//! queue is a refusal at admission (`429`), never a job that half exists,
//! a cancelled queued job frees its slot at once, and the counters equal
//! a recount of the records after every operation. Records change only
//! through these transition methods.
//!
//! An accepted job (`202`) reaches a terminal state in every code path —
//! a graceful close drains `queued`/`running` to completion, and only a
//! *force* close may produce `DROPPED`, which the shutdown report counts
//! explicitly. Every transition into a terminal state notifies one
//! condition variable, which is what lets a waited result request
//! ([`JobTable::wait_terminal`]) block instead of being polled.

use crate::metrics::GaugeView;
use noc_telemetry::clock;
use sensorwise::codec::json_string;
use sensorwise::{ExperimentJob, WireEpochRequest};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
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

/// Why a submission was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// Every queue slot is taken; retry later (`429`).
    Busy,
    /// The table is closed for shutdown (`503`).
    Closed,
}

/// One tracked job. The payload and spec of a queued job wait in the
/// FIFO and go to the worker that claims it; the record keeps only what
/// status and result requests read.
#[derive(Debug)]
struct JobRecord {
    state: JobState,
    /// The result JSON, present once `Done`.
    result_json: Option<String>,
    /// The event-stream digest, present once `Done` and the spec traced.
    trace_digest: Option<u64>,
    /// Failure detail for `Failed`.
    error: Option<String>,
    /// Cancellation flag polled by the engine (cancel *and* timeout).
    cancel: Arc<AtomicBool>,
    /// Set (before `cancel`) when the abort came from the deadline
    /// supervisor, so the worker can tell `TimedOut` from `Cancelled`.
    timed_out: Arc<AtomicBool>,
    /// Wall-clock deadline, set when the job starts running.
    deadline: Option<Instant>,
    /// When the submission was accepted — the job span's start.
    submitted_at: Instant,
}

/// A queued job: what its worker will need.
#[derive(Debug)]
struct Queued {
    id: JobId,
    job: JobPayload,
    spec_json: String,
}

/// Everything a worker needs to run the job it claimed.
#[derive(Debug)]
pub struct Claimed {
    /// The job id.
    pub id: JobId,
    /// The decoded, runnable payload.
    pub job: JobPayload,
    /// Canonical spec JSON: the result cache's key.
    pub spec_json: String,
    /// Cancellation flag the engine polls (cancel, timeout, force close).
    pub cancel: Arc<AtomicBool>,
    /// Set before `cancel` when the deadline supervisor aborted the job.
    pub timed_out: Arc<AtomicBool>,
    /// When the submission was accepted — the job span's start.
    pub submitted_at: Instant,
}

/// Per-state job counts plus the refused submissions: the `/stats`,
/// `/metrics` and shutdown-report numbers, kept by the table's
/// transitions rather than recounted.
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
    /// Submissions refused with `429` (never accepted, never owed).
    pub rejected_busy: u64,
}

impl JobCounts {
    /// Jobs accepted with `202`: every job the table holds, in any state.
    pub fn accepted(&self) -> u64 {
        self.queued
            + self.running
            + self.done
            + self.failed
            + self.cancelled
            + self.timed_out
            + self.dropped
    }

    fn of(&mut self, state: JobState) -> &mut u64 {
        match state {
            JobState::Queued => &mut self.queued,
            JobState::Running => &mut self.running,
            JobState::Done => &mut self.done,
            JobState::Failed => &mut self.failed,
            JobState::Cancelled => &mut self.cancelled,
            JobState::TimedOut => &mut self.timed_out,
            JobState::Dropped => &mut self.dropped,
        }
    }
}

/// What the mutex guards.
#[derive(Debug, Default)]
struct Table {
    jobs: BTreeMap<JobId, JobRecord>,
    /// Queued jobs, oldest first: exactly the records in `Queued`.
    fifo: VecDeque<Queued>,
    /// Ids of the records in `Running`.
    running: BTreeSet<JobId>,
    counts: JobCounts,
    closed: bool,
    last_id: JobId,
}

impl Table {
    /// Adds a record in `state` under the next id.
    fn insert(&mut self, state: JobState) -> (JobId, &mut JobRecord) {
        self.last_id += 1;
        let id = self.last_id;
        *self.counts.of(state) += 1;
        let record = self.jobs.entry(id).or_insert(JobRecord {
            state,
            result_json: None,
            trace_digest: None,
            error: None,
            cancel: Arc::new(AtomicBool::new(false)),
            timed_out: Arc::new(AtomicBool::new(false)),
            deadline: None,
            submitted_at: clock::now(),
        });
        (id, record)
    }

    /// Moves job `id` to state `to`, keeping the counters in step.
    fn move_to(&mut self, id: JobId, to: JobState) -> Option<&mut JobRecord> {
        let record = self.jobs.get_mut(&id)?;
        *self.counts.of(record.state) -= 1;
        *self.counts.of(to) += 1;
        record.state = to;
        Some(record)
    }
}

/// The concurrent job table and bounded queue.
#[derive(Debug)]
pub struct JobTable {
    table: Mutex<Table>,
    /// Most jobs that may wait in the queue at once.
    capacity: usize,
    /// Notified when a job is queued and when the table closes.
    work: Condvar,
    /// Notified on every transition into a terminal state.
    terminal: Condvar,
}

impl JobTable {
    /// An open table whose queue holds at most `capacity` jobs.
    pub fn new(capacity: usize) -> JobTable {
        JobTable {
            table: Mutex::default(),
            capacity,
            work: Condvar::new(),
            terminal: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Table> {
        // Every transition leaves the table consistent before it can
        // panic, so recover the guard rather than poison the server.
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admits a job to the queue and returns its id.
    ///
    /// # Errors
    ///
    /// [`Refusal::Closed`] after [`JobTable::close`], else
    /// [`Refusal::Busy`] (counted) when the queue is full.
    pub fn submit(&self, job: JobPayload, spec_json: String) -> Result<JobId, Refusal> {
        let mut guard = self.lock();
        let t = &mut *guard;
        if t.closed {
            return Err(Refusal::Closed);
        }
        if t.fifo.len() >= self.capacity {
            t.counts.rejected_busy += 1;
            return Err(Refusal::Busy);
        }
        let (id, _) = t.insert(JobState::Queued);
        t.fifo.push_back(Queued { id, job, spec_json });
        drop(guard);
        self.work.notify_one();
        Ok(id)
    }

    /// Admits a result-cache hit: it enters `Done` with its result and
    /// takes no queue slot.
    ///
    /// # Errors
    ///
    /// [`Refusal::Closed`] after [`JobTable::close`].
    pub fn submit_done(
        &self,
        result_json: String,
        trace_digest: Option<u64>,
    ) -> Result<JobId, Refusal> {
        let mut t = self.lock();
        if t.closed {
            return Err(Refusal::Closed);
        }
        let (id, record) = t.insert(JobState::Done);
        record.result_json = Some(result_json);
        record.trace_digest = trace_digest;
        drop(t);
        self.terminal.notify_all();
        Ok(id)
    }

    /// Blocks until a job is queued, then claims the oldest: moves it to
    /// `Running`, arms its deadline `timeout_ms` out (none for 0) and hands
    /// back what the worker needs. `None` once the table is closed and
    /// nothing is queued — the worker's exit signal.
    pub fn claim(&self, timeout_ms: u64) -> Option<Claimed> {
        let mut guard = self.lock();
        loop {
            let t = &mut *guard;
            if let Some(Queued { id, job, spec_json }) = t.fifo.pop_front() {
                t.running.insert(id);
                let Some(record) = t.move_to(id, JobState::Running) else {
                    continue;
                };
                record.deadline = deadline_after(timeout_ms);
                return Some(Claimed {
                    id,
                    job,
                    spec_json,
                    cancel: Arc::clone(&record.cancel),
                    timed_out: Arc::clone(&record.timed_out),
                    submitted_at: record.submitted_at,
                });
            }
            if t.closed {
                return None;
            }
            guard = self
                .work
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Finishes a running job with its terminal state; a job that is not
    /// running is left alone.
    pub fn finish(
        &self,
        id: JobId,
        state: JobState,
        result_json: Option<String>,
        trace_digest: Option<u64>,
        error: Option<String>,
    ) {
        debug_assert!(state.is_terminal());
        let mut t = self.lock();
        if !t.running.remove(&id) {
            return;
        }
        if let Some(record) = t.move_to(id, state) {
            record.result_json = result_json;
            record.trace_digest = trace_digest;
            record.error = error;
        }
        drop(t);
        self.terminal.notify_all();
    }

    /// Requests cancellation. A queued job leaves the queue (freeing its
    /// slot) and is cancelled at once; a running job gets its flag set and
    /// transitions when the engine observes it. Returns the state after
    /// the request, or `None` for unknown ids.
    pub fn cancel(&self, id: JobId) -> Option<JobState> {
        let mut guard = self.lock();
        let t = &mut *guard;
        let record = t.jobs.get(&id)?;
        match record.state {
            JobState::Queued => {
                t.fifo.retain(|q| q.id != id);
                t.move_to(id, JobState::Cancelled);
                drop(guard);
                self.terminal.notify_all();
                Some(JobState::Cancelled)
            }
            JobState::Running => {
                record.cancel.store(true, Ordering::Relaxed);
                Some(JobState::Running)
            }
            state => Some(state),
        }
    }

    /// Supervisor sweep over the running jobs: aborts every one whose
    /// deadline has passed. Returns how many were newly timed out.
    pub fn expire_deadlines(&self, now: Instant) -> u64 {
        let t = self.lock();
        let mut expired = 0;
        for record in t.running.iter().filter_map(|id| t.jobs.get(id)) {
            if record.deadline.is_some_and(|d| now >= d)
                && !record.timed_out.swap(true, Ordering::Relaxed)
            {
                record.cancel.store(true, Ordering::Relaxed);
                expired += 1;
            }
        }
        expired
    }

    /// Closes the table: submissions are refused from now on, and workers
    /// drain the queue before [`JobTable::claim`] answers `None`. With
    /// `force`, the queued jobs are dropped instead and the running ones
    /// aborted (they end as cancelled, not timed out).
    pub fn close(&self, force: bool) {
        let mut guard = self.lock();
        let t = &mut *guard;
        t.closed = true;
        if force {
            while let Some(queued) = t.fifo.pop_front() {
                t.move_to(queued.id, JobState::Dropped);
            }
            for record in t.running.iter().filter_map(|id| t.jobs.get(id)) {
                record.cancel.store(true, Ordering::Relaxed);
            }
        }
        drop(guard);
        self.work.notify_all();
        self.terminal.notify_all();
    }

    /// Blocks until job `id` is terminal or `timeout` passes, and returns
    /// its state then; `None` at once for unknown ids. The lock is
    /// released while parked, so waiting holds up no other operation.
    pub fn wait_terminal(&self, id: JobId, timeout: Duration) -> Option<JobState> {
        let deadline = clock::now() + timeout;
        let mut t = self.lock();
        loop {
            let state = t.jobs.get(&id)?.state;
            let left = deadline.saturating_duration_since(clock::now());
            if state.is_terminal() || left.is_zero() {
                return Some(state);
            }
            t = self
                .terminal
                .wait_timeout(t, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// The state of job `id`, or `None` for unknown ids.
    pub fn state(&self, id: JobId) -> Option<JobState> {
        self.lock().jobs.get(&id).map(|record| record.state)
    }

    /// Current per-state and refusal counts.
    pub fn counts(&self) -> JobCounts {
        self.lock().counts
    }

    /// The counts, the admission flag and the capacity, read under one
    /// lock: what `/stats` and `/metrics` render.
    pub fn gauges(&self) -> GaugeView {
        let t = self.lock();
        GaugeView {
            accepting: !t.closed,
            queue_capacity: self.capacity,
            jobs: t.counts,
        }
    }

    /// The status JSON for `GET /jobs/{id}`, or `None` for unknown ids.
    pub fn status_json(&self, id: JobId) -> Option<String> {
        self.lock().jobs.get(&id).map(|record| {
            let mut out = format!(
                "{{\"id\":{id},\"status\":{}",
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
            .jobs
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
        let table = JobTable::new(4);
        let id = table.submit(job(), "{}".to_string()).unwrap();
        assert_eq!(id, 1);
        assert!(table.status_json(id).unwrap().contains("\"queued\""));
        let claimed = table.claim(0).expect("a queued job is claimed");
        assert_eq!((claimed.id, claimed.spec_json.as_str()), (id, "{}"));
        assert!(!claimed.cancel.load(Ordering::Relaxed));
        match claimed.job {
            JobPayload::Experiment(j) => assert_eq!(j.cfg.measure_cycles, 1_000),
            JobPayload::Epoch(_) => panic!("expected an experiment payload"),
        }
        table.finish(id, JobState::Done, Some("{}".to_string()), Some(7), None);
        let status = table.status_json(id).unwrap();
        assert!(status.contains("\"done\""), "{status}");
        assert!(status.contains("0000000000000007"), "{status}");
        assert_eq!(table.result_json(id), Some(Ok("{}".to_string())));
        assert_eq!(table.counts().done, 1);
        table.finish(id, JobState::Failed, None, None, None);
        assert_eq!(table.state(id), Some(JobState::Done), "terminal is final");
    }

    #[test]
    fn cancel_queued_frees_its_slot_and_running_sets_the_flag() {
        let table = JobTable::new(1);
        let a = table.submit(job(), String::new()).unwrap();
        assert_eq!(table.submit(job(), String::new()), Err(Refusal::Busy));
        assert_eq!(table.cancel(a), Some(JobState::Cancelled));
        let b = table
            .submit(job(), String::new())
            .expect("the slot is free again");
        let claimed = table.claim(0).unwrap();
        assert_eq!(claimed.id, b, "cancelled jobs never run");
        assert_eq!(table.cancel(b), Some(JobState::Running));
        assert!(claimed.cancel.load(Ordering::Relaxed));
        assert!(!claimed.timed_out.load(Ordering::Relaxed));
        assert_eq!(table.cancel(999), None);
        let c = table.counts();
        assert_eq!((c.cancelled, c.running, c.rejected_busy), (1, 1, 1));
    }

    #[test]
    fn zero_timeout_has_no_deadline() {
        assert!(deadline_after(0).is_none());
        let d = deadline_after(10_000).expect("nonzero timeout has a deadline");
        assert!(d > clock::now());
    }

    #[test]
    fn deadlines_expire_only_running_jobs() {
        let table = JobTable::new(4);
        table.submit(job(), String::new()).unwrap();
        assert_eq!(
            table.expire_deadlines(clock::now()),
            0,
            "queued: no deadline"
        );
        let claimed = table.claim(5).unwrap();
        // A deadline 5 ms out has surely passed one second in the future.
        let later = clock::now() + Duration::from_secs(1);
        assert_eq!(table.expire_deadlines(later), 1);
        assert!(claimed.cancel.load(Ordering::Relaxed));
        assert!(claimed.timed_out.load(Ordering::Relaxed));
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
    fn wait_terminal_wakes_on_finish_cancel_and_force_close() {
        let long = Duration::from_secs(30);
        let table = JobTable::new(4);

        let done = table.submit(job(), String::new()).unwrap();
        table.claim(0).unwrap();
        let t = clock::now();
        let state = wait_across(&table, done, long, || {
            table.finish(done, JobState::Done, Some("{}".to_string()), None, None);
        });
        assert_eq!(state, Some(JobState::Done));
        assert!(
            clock::ms_since(t) < 10_000,
            "woken by finish, not the timeout"
        );

        let queued = table.submit(job(), String::new()).unwrap();
        let state = wait_across(&table, queued, long, || {
            table.cancel(queued);
        });
        assert_eq!(state, Some(JobState::Cancelled));

        let dropped = table.submit(job(), String::new()).unwrap();
        let state = wait_across(&table, dropped, long, || table.close(true));
        assert_eq!(state, Some(JobState::Dropped));
        assert!(
            clock::ms_since(t) < 10_000,
            "every wake beat the 30 s timeout"
        );
    }

    #[test]
    fn wait_terminal_times_out_on_running_jobs_and_skips_unknown_ids() {
        let table = JobTable::new(4);
        let id = table.submit(job(), String::new()).unwrap();
        table.claim(0).unwrap();
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
    fn force_close_drops_queued_and_cancels_running() {
        let table = JobTable::new(4);
        let r = table.submit(job(), String::new()).unwrap();
        let q = table.submit(job(), String::new()).unwrap();
        let claimed = table.claim(0).unwrap();
        assert_eq!(claimed.id, r);
        table.close(true);
        assert_eq!(table.state(q), Some(JobState::Dropped));
        assert!(claimed.cancel.load(Ordering::Relaxed));
        let c = table.counts();
        assert_eq!((c.dropped, c.running, c.accepted()), (1, 1, 2));
        assert!(table.claim(0).is_none(), "closed and empty: workers exit");
        assert!(!table.gauges().accepting);
    }

    #[test]
    fn cache_hits_enter_done_without_a_slot() {
        let table = JobTable::new(1);
        table.submit(job(), String::new()).unwrap();
        let hit = table.submit_done("{}".to_string(), Some(3)).unwrap();
        assert_eq!(table.result_json(hit), Some(Ok("{}".to_string())));
        let g = table.gauges();
        assert_eq!((g.jobs.queued, g.jobs.done, g.queue_capacity), (1, 1, 1));
        table.close(false);
        assert_eq!(
            table.submit_done("{}".to_string(), None),
            Err(Refusal::Closed)
        );
        assert_eq!(table.submit(job(), String::new()), Err(Refusal::Closed));
    }
}
