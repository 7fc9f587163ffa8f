//! The job lifecycle checked by enumeration, not by timing.
//!
//! Every `JobTable` operation is one critical section, so the table's
//! behaviour under any thread interleaving is the behaviour of some
//! sequence of single operations. `every_operation_sequence_keeps_the_table_consistent`
//! drives one table single-threaded through every such sequence for a
//! small instance — three submissions (each plain or a cache hit) against
//! a queue of capacity 2, up to two workers claiming, each claimed job
//! finished as done, failed or (once its flag is set) aborted, cancels of
//! every known id, the deadline sweep, and graceful or force close — in
//! breadth-first order until no new state appears. After every step it
//! checks that the counters equal a recount of the records, the queue
//! holds at most its capacity, claims come in FIFO order and never twice,
//! and a closed table refuses submissions; in every state without a live
//! job the shutdown report accounts for every accepted job.
//!
//! The other tests pin the table's queue contract: FIFO with
//! backpressure, a close that drains before workers exit, and blocked
//! workers woken by submissions.

use noc_service::jobs::{Claimed, JobCounts, JobId, JobPayload, JobState, JobTable, Refusal};
use noc_service::ShutdownReport;
use noc_telemetry::clock;
use sensorwise::experiment::SyntheticScenario;
use sensorwise::PolicyKind;
use std::collections::BTreeSet;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// Submissions per sequence.
const JOBS: usize = 3;
/// Queue capacity.
const CAPACITY: u64 = 2;
/// Workers that may hold a claimed job at once.
const WORKERS: usize = 2;
/// Distinct states of the instance above; a change to any transition
/// moves it.
const STATES: usize = 1_404;

fn payload() -> JobPayload {
    JobPayload::Experiment(Box::new(
        SyntheticScenario {
            cores: 4,
            vcs: 2,
            injection_rate: 0.1,
        }
        .job(PolicyKind::SensorWise, 100, 1_000),
    ))
}

/// How a worker ends the job it holds.
#[derive(Debug, Clone, Copy)]
enum End {
    Done,
    Failed,
    /// The engine saw the cancel flag: timed out or cancelled, as the
    /// server's worker decides from the timed-out flag.
    Aborted,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Submit,
    SubmitCached,
    Claim,
    Finish(usize, End),
    Cancel(JobId),
    Expire,
    Close { force: bool },
}

/// One table plus what the workers and clients around it hold.
struct Model {
    table: JobTable,
    submitted: usize,
    /// Admitted ids in admission order.
    admitted: Vec<JobId>,
    claimed: BTreeSet<JobId>,
    busy: u64,
    cache_hits: u64,
    workers: [Option<Claimed>; WORKERS],
}

impl Model {
    fn new() -> Model {
        Model {
            table: JobTable::new(CAPACITY as usize),
            submitted: 0,
            admitted: Vec::new(),
            claimed: BTreeSet::new(),
            busy: 0,
            cache_hits: 0,
            workers: [None, None],
        }
    }

    /// Replays `path` from a fresh table, checking after every step.
    fn replay(path: &[Op]) -> Model {
        let mut model = Model::new();
        model.check();
        for &op in path {
            model.apply(op);
            model.check();
        }
        model
    }

    fn state(&self, id: JobId) -> JobState {
        self.table.state(id).expect("admitted ids stay known")
    }

    fn closed(&self) -> bool {
        !self.table.gauges().accepting
    }

    fn held(&self) -> impl Iterator<Item = &Claimed> {
        self.workers.iter().flatten()
    }

    fn enabled(&self) -> Vec<Op> {
        let mut ops = Vec::new();
        if self.submitted < JOBS {
            ops.extend([Op::Submit, Op::SubmitCached]);
        }
        // A claim blocks on an open, empty table; it is only a step when
        // it returns at once.
        if self.workers.iter().any(Option::is_none)
            && (self.table.counts().queued > 0 || self.closed())
        {
            ops.push(Op::Claim);
        }
        for (w, slot) in self.workers.iter().enumerate() {
            if let Some(job) = slot {
                ops.extend([Op::Finish(w, End::Done), Op::Finish(w, End::Failed)]);
                if job.cancel.load(Ordering::Relaxed) {
                    ops.push(Op::Finish(w, End::Aborted));
                }
            }
        }
        ops.extend(self.admitted.iter().map(|&id| Op::Cancel(id)));
        ops.extend([
            Op::Expire,
            Op::Close { force: false },
            Op::Close { force: true },
        ]);
        ops
    }

    fn apply(&mut self, op: Op) {
        let before = self.table.counts();
        let closed = self.closed();
        match op {
            Op::Submit => {
                self.submitted += 1;
                let spec = format!("spec-{}", self.submitted);
                match self.table.submit(payload(), spec) {
                    Ok(id) => {
                        assert!(!closed && before.queued < CAPACITY, "admitted {id}");
                        assert_eq!(self.state(id), JobState::Queued);
                        self.admitted.push(id);
                    }
                    Err(Refusal::Busy) => {
                        assert!(!closed && before.queued == CAPACITY, "busy below capacity");
                        self.busy += 1;
                    }
                    Err(Refusal::Closed) => assert!(closed, "an open table refused"),
                }
            }
            Op::SubmitCached => {
                self.submitted += 1;
                match self.table.submit_done("{}".to_string(), Some(7)) {
                    Ok(id) => {
                        assert!(!closed);
                        assert_eq!(self.table.result_json(id), Some(Ok("{}".to_string())));
                        self.admitted.push(id);
                        self.cache_hits += 1;
                    }
                    Err(refusal) => assert_eq!((refusal, closed), (Refusal::Closed, true)),
                }
            }
            Op::Claim => {
                let oldest = self
                    .admitted
                    .iter()
                    .copied()
                    .find(|&id| self.state(id) == JobState::Queued);
                match (self.table.claim(1), oldest) {
                    (Some(job), Some(oldest)) => {
                        assert_eq!(job.id, oldest, "claims follow admission order");
                        assert!(self.claimed.insert(job.id), "job {} claimed twice", job.id);
                        assert_eq!(self.state(job.id), JobState::Running);
                        let slot = self.workers.iter_mut().find(|w| w.is_none());
                        *slot.expect("a free worker claims") = Some(job);
                    }
                    (None, None) => assert!(closed, "claim returned on an open table"),
                    (got, oldest) => panic!("claimed {got:?} with oldest queued {oldest:?}"),
                }
            }
            Op::Finish(w, end) => {
                let job = self.workers[w].take().expect("the worker holds a job");
                let (state, result) = match end {
                    End::Done => (JobState::Done, Some("{}".to_string())),
                    End::Failed => (JobState::Failed, None),
                    End::Aborted if job.timed_out.load(Ordering::Relaxed) => {
                        (JobState::TimedOut, None)
                    }
                    End::Aborted => (JobState::Cancelled, None),
                };
                self.table.finish(job.id, state, result, None, None);
                assert_eq!(self.state(job.id), state);
            }
            Op::Cancel(id) => {
                let was = self.state(id);
                let answer = self.table.cancel(id);
                let expected = if was == JobState::Queued {
                    JobState::Cancelled
                } else {
                    was
                };
                assert_eq!(answer, Some(expected));
                assert_eq!(self.state(id), expected);
                if was == JobState::Running {
                    let job = self.held().find(|j| j.id == id).expect("a worker runs it");
                    assert!(job.cancel.load(Ordering::Relaxed));
                }
            }
            Op::Expire => {
                let fresh = self
                    .held()
                    .filter(|j| !j.timed_out.load(Ordering::Relaxed))
                    .count() as u64;
                let later = clock::now() + Duration::from_secs(3_600);
                assert_eq!(self.table.expire_deadlines(later), fresh);
                for job in self.held() {
                    assert!(job.timed_out.load(Ordering::Relaxed));
                    assert!(job.cancel.load(Ordering::Relaxed));
                }
            }
            Op::Close { force } => {
                let queued: Vec<JobId> = self
                    .admitted
                    .iter()
                    .copied()
                    .filter(|&id| self.state(id) == JobState::Queued)
                    .collect();
                self.table.close(force);
                assert!(self.closed());
                let left = if force {
                    JobState::Dropped
                } else {
                    JobState::Queued
                };
                assert!(queued.iter().all(|&id| self.state(id) == left));
                if force {
                    assert!(self.held().all(|j| j.cancel.load(Ordering::Relaxed)));
                }
            }
        }
    }

    /// The counts by reading every admitted record.
    fn recount(&self) -> JobCounts {
        let mut c = JobCounts {
            rejected_busy: self.busy,
            ..JobCounts::default()
        };
        for &id in &self.admitted {
            *match self.state(id) {
                JobState::Queued => &mut c.queued,
                JobState::Running => &mut c.running,
                JobState::Done => &mut c.done,
                JobState::Failed => &mut c.failed,
                JobState::Cancelled => &mut c.cancelled,
                JobState::TimedOut => &mut c.timed_out,
                JobState::Dropped => &mut c.dropped,
            } += 1;
        }
        c
    }

    /// The invariants that hold after every step.
    fn check(&self) {
        let c = self.table.counts();
        assert_eq!(c, self.recount(), "counters drifted from the records");
        assert_eq!(c.accepted(), self.admitted.len() as u64);
        assert!(c.queued <= CAPACITY, "{c:?}");
        assert_eq!(c.running, self.held().count() as u64);
        let g = self.table.gauges();
        assert_eq!((g.jobs, g.queue_capacity), (c, CAPACITY as usize));
        assert_eq!(
            self.table.cancel(JobId::MAX),
            None,
            "unknown ids stay unknown"
        );
        if self.closed() {
            assert_eq!(
                self.table.submit(payload(), String::new()),
                Err(Refusal::Closed)
            );
            assert_eq!(
                self.table.submit_done(String::new(), None),
                Err(Refusal::Closed)
            );
            if c.queued == 0 {
                assert!(
                    self.table.claim(1).is_none(),
                    "closed and empty: workers exit"
                );
            }
        }
        let report = ShutdownReport::new(&c, self.cache_hits);
        assert_eq!(
            report.accounts_for_all(),
            c.queued + c.running == 0,
            "{report:?}"
        );
    }

    /// Everything that decides the table's future behaviour and the
    /// report; which worker holds a job does not.
    fn fingerprint(&self) -> String {
        let states: Vec<JobState> = self.admitted.iter().map(|&id| self.state(id)).collect();
        let mut held: Vec<(JobId, bool, bool)> = self
            .held()
            .map(|j| {
                (
                    j.id,
                    j.cancel.load(Ordering::Relaxed),
                    j.timed_out.load(Ordering::Relaxed),
                )
            })
            .collect();
        held.sort_unstable();
        format!(
            "{} {states:?} {} {} {} {held:?}",
            self.submitted,
            self.closed(),
            self.busy,
            self.cache_hits
        )
    }
}

#[test]
fn every_operation_sequence_keeps_the_table_consistent() {
    let mut seen = BTreeSet::from([Model::new().fingerprint()]);
    let mut frontier: Vec<Vec<Op>> = vec![Vec::new()];
    let mut depth = 0;
    let mut final_states = 0;
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for path in &frontier {
            let ops = Model::replay(path).enabled();
            for op in ops {
                let mut longer = path.clone();
                longer.push(op);
                let model = Model::replay(&longer);
                if seen.insert(model.fingerprint()) {
                    let c = model.table.counts();
                    if c.queued + c.running == 0 && model.submitted == JOBS {
                        final_states += 1;
                    }
                    next.push(longer);
                }
            }
        }
        frontier = next;
        depth += 1;
    }
    println!(
        "job lifecycle: {} distinct states ({final_states} final), closed at depth {}",
        seen.len(),
        depth - 1
    );
    assert!(final_states > 0);
    assert_eq!(seen.len(), STATES, "the lifecycle state space changed");
}

#[test]
fn fifo_order_and_backpressure() {
    let table = JobTable::new(2);
    let a = table.submit(payload(), "a".to_string()).unwrap();
    let b = table.submit(payload(), "b".to_string()).unwrap();
    assert_eq!(table.submit(payload(), "c".to_string()), Err(Refusal::Busy));
    assert_eq!(table.counts().queued, 2);
    assert_eq!(
        table.claim(0).map(|j| (j.id, j.spec_json)),
        Some((a, "a".to_string()))
    );
    let c = table.submit(payload(), "c".to_string()).unwrap();
    assert_eq!(table.claim(0).map(|j| j.id), Some(b));
    assert_eq!(table.claim(0).map(|j| j.id), Some(c));
    let counts = table.counts();
    assert_eq!(
        (counts.queued, counts.running, counts.rejected_busy),
        (0, 3, 1)
    );
}

#[test]
fn close_drains_then_signals_exit() {
    let table = JobTable::new(4);
    let id = table.submit(payload(), String::new()).unwrap();
    table.close(false);
    assert_eq!(table.submit(payload(), String::new()), Err(Refusal::Closed));
    assert_eq!(table.claim(0).map(|j| j.id), Some(id));
    assert!(table.claim(0).is_none());
    assert!(table.claim(0).is_none());
}

#[test]
fn claim_wakes_blocked_workers() {
    // Two workers block on an empty table; a producer (the third mapped
    // item) feeds and closes it. parallel_map is the sanctioned thread
    // pool for tests.
    let table = JobTable::new(4);
    let roles = [0usize, 0, 1];
    let got = sensorwise::parallel_map(&roles, 3, |_, &role| {
        if role == 0 {
            let mut taken = Vec::new();
            while let Some(job) = table.claim(0) {
                table.finish(job.id, JobState::Done, None, None, None);
                taken.push(job.id);
            }
            taken
        } else {
            for _ in 0..6 {
                while table.submit(payload(), String::new()) == Err(Refusal::Busy) {
                    std::thread::yield_now();
                }
            }
            table.close(false);
            Vec::new()
        }
    });
    let mut all: Vec<JobId> = got.into_iter().flatten().collect();
    all.sort_unstable();
    assert_eq!(all, vec![1, 2, 3, 4, 5, 6]);
    assert_eq!(table.counts().done, 6);
}
