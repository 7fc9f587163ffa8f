//! `serve-open-2x2`: an open loop. One generator thread submits
//! independent 2×2 jobs on a seeded schedule, at a fixed rate below one
//! worker's capacity, to a server backed by a result store. Every
//! [`REPEAT_EVERY`]-th job repeats an earlier spec, which the server
//! answers at accept time from the store (the read path); the rest are
//! fresh and go through the queue, the worker and a store write (the
//! write path). Latency runs from each job's due time until its result is
//! held, so a stall delays every job due behind it.

use crate::report::{EndToEnd, Report};
use crate::rig::{run_with_setups, scrape};
use crate::stats::{delta, mix, peak_rss_mib, quantile, sorted, unit};
use noc_campaign::FsResultStore;
use noc_service::{Server, ServiceClient, ServiceConfig, Submitted};
use sensorwise::{
    spec_from_json, spec_to_json, ExperimentJob, PolicyKind, SyntheticScenario, TelemetrySpec,
    WireResult,
};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered load, jobs per second (fresh and repeated together).
const RATE_PER_S: f64 = 40.0;
/// Every this-many-th job repeats an earlier spec: a 1/4 repeat share.
const REPEAT_EVERY: u64 = 4;
/// A repeat names a fresh spec at least this many fresh jobs back, so its
/// result is stored before the repeat arrives.
const REPEAT_MIN_BACK: u64 = 8;
/// Warm-up and measured cycles of one job.
const JOB_CYCLES: (u64, u64) = (100, 500);
/// How often the generator polls outstanding jobs. Kept off multiples of
/// the server acceptor's 2 ms idle sleep: a poll period near one locks
/// the two phases and makes latency jump between two levels.
const POLL: Duration = Duration::from_millis(3);
/// Latency limit of one job.
const LIMIT_MS: f64 = 50.0;
/// Queue capacity of the server.
const QUEUE_DEPTH: usize = 64;
/// Fresh jobs run in set-up, before one repeat of the first.
const WARMUP_FRESH: u64 = 8;
/// Warm-up and measured cycles of a warm-up job: enough to go through the
/// queue, the worker and a store write, few enough that set-up time is
/// the service path's latency rather than simulation.
const WARMUP_CYCLES: (u64, u64) = (10, 40);
/// How often set-up checks whether the warm-up jobs have finished.
const WARMUP_WAIT: Duration = Duration::from_micros(200);
/// How long the generator waits for stragglers after the last due time.
const DRAIN: Duration = Duration::from_secs(10);

/// What job `n` of the schedule is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slot {
    /// Due time from the start of the window.
    pub due: Duration,
    /// Which fresh spec it submits.
    pub spec: u64,
    /// `true` when `spec` was already submitted earlier.
    pub repeat: bool,
}

/// The seeded open-loop schedule: inter-arrival gaps uniform in
/// `[0.5, 1.5)` of the mean period, every [`REPEAT_EVERY`]-th job a
/// repeat of a fresh spec at a seeded distance back.
pub fn schedule(seed: u64, seconds: f64) -> Vec<Slot> {
    let period = 1.0 / RATE_PER_S;
    let mut slots = Vec::new();
    let mut at = 0.0;
    let mut fresh = 0u64;
    for n in 0u64.. {
        at += period * (0.5 + unit(seed, n));
        if at >= seconds {
            break;
        }
        let due = Duration::from_secs_f64(at);
        if n % REPEAT_EVERY == REPEAT_EVERY - 1 && fresh > REPEAT_MIN_BACK {
            let span = fresh - REPEAT_MIN_BACK;
            let back = (unit(seed, (1 << 40) | n) * span as f64) as u64;
            slots.push(Slot {
                due,
                spec: span - 1 - back.min(span - 1),
                repeat: true,
            });
        } else {
            slots.push(Slot {
                due,
                spec: fresh,
                repeat: false,
            });
            fresh += 1;
        }
    }
    slots
}

fn job(seed: u64, spec: u64, cycles: (u64, u64)) -> ExperimentJob {
    let scenario = SyntheticScenario {
        cores: 4,
        vcs: 2,
        injection_rate: 0.15,
    };
    let mut job = scenario.job(PolicyKind::SensorWise, cycles.0, cycles.1);
    job.traffic = job
        .traffic
        .with_seed(mix(seed, 0x5E_0000_u64.wrapping_add(spec)));
    job.cfg.telemetry = TelemetrySpec {
        trace: true,
        trace_capacity: 0,
        sample_period: 0,
    };
    job
}

struct Rig {
    server: Server,
    client: ServiceClient,
}

impl Rig {
    fn start(dir: &Path) -> Result<Rig, String> {
        let store = FsResultStore::open(dir.join("store")).map_err(|e| e.to_string())?;
        let server = Server::start_with_cache(
            &ServiceConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 1,
                queue_depth: QUEUE_DEPTH,
                job_timeout_ms: 0,
                spans_out: None,
            },
            Some(Arc::new(store)),
        )?;
        let client = ServiceClient::new(server.local_addr().to_string());
        Ok(Rig { server, client })
    }

    fn stop(self) {
        self.server.request_shutdown(false);
        let _ = self.server.wait();
    }
}

/// Warm-up: fresh specs of their own, one at a time, then a repeat of
/// the first, which the store must answer. The server's own job table
/// tells when each job has finished, so no client poll period quantises
/// the set-up time.
fn setup(seed: u64, dir: &Path) -> Result<Rig, String> {
    let rig = Rig::start(dir)?;
    let specs = (0..WARMUP_FRESH)
        .map(|k| spec_to_json(&job(seed, u64::MAX - k, WARMUP_CYCLES)).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    for (k, spec) in (1..).zip(&specs) {
        let (submitted, _) = rig.client.submit(spec)?;
        if !matches!(submitted, Submitted::Accepted { .. }) {
            return Err(format!("warm-up job refused: {submitted:?}"));
        }
        let counts = loop {
            let c = rig.server.counts();
            if c.queued + c.running == 0 {
                break c;
            }
            std::thread::sleep(WARMUP_WAIT);
        };
        if counts.done != k {
            return Err(format!("warm-up job {k} did not finish: {counts:?}"));
        }
    }
    let (repeat, _) = rig.client.submit(&specs[0])?;
    if !matches!(repeat, Submitted::Accepted { .. }) || rig.server.cache_hits() != 1 {
        return Err(format!("warm-up repeat was not a store hit: {repeat:?}"));
    }
    Ok(rig)
}

pub fn run(
    seed: u64,
    seconds: f64,
    trace: bool,
    setups: (usize, usize),
    dir: &Path,
) -> Result<Report, String> {
    run_with_setups(
        setups,
        |i| setup(seed, &dir.join(format!("setup-{i}"))),
        Rig::stop,
        |rig| measure(rig, seed, seconds, trace),
    )
}

/// One submitted job awaiting its result.
struct Pending {
    n: usize,
    id: u64,
}

/// What happened to job `n` of the schedule.
#[derive(Default, Clone)]
struct Done {
    latency_ms: Option<f64>,
    lateness_ms: f64,
    submit_ms: f64,
    encode_us: f64,
    body: Option<String>,
}

fn measure(rig: &Rig, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let slots = schedule(seed, seconds);
    let mut report = Report::default();
    let mut done = vec![Done::default(); slots.len()];
    let mut outstanding: VecDeque<Pending> = VecDeque::new();
    // Fresh specs whose result the generator holds: a repeat of one of
    // them must be a store hit. A repeat of a spec not yet held may hit
    // or miss, depending on whether the worker had stored it.
    let mut held = vec![false; slots.iter().filter(|s| !s.repeat).count()];
    let (mut repeats, mut min_hits) = (0u64, 0u64);
    let before = scrape(rig.client.addr())?;
    let start = Instant::now();
    let mut next = 0usize;
    let mut next_poll = start;
    loop {
        let now = Instant::now();
        if next < slots.len() && now >= start + slots[next].due {
            let slot = slots[next];
            let t = Instant::now();
            let json =
                spec_to_json(&job(seed, slot.spec, JOB_CYCLES)).map_err(|e| e.to_string())?;
            let encoded = Instant::now();
            let submitted = rig.client.submit(&json);
            let d = &mut done[next];
            d.lateness_ms = (t - (start + slot.due)).as_secs_f64() * 1e3;
            d.encode_us = (encoded - t).as_secs_f64() * 1e6;
            d.submit_ms = encoded.elapsed().as_secs_f64() * 1e3;
            report.attempted += 1;
            match submitted {
                Ok((Submitted::Accepted { id }, _)) => {
                    if slot.repeat {
                        repeats += 1;
                        min_hits += u64::from(held[slot.spec as usize]);
                    }
                    outstanding.push_back(Pending { n: next, id });
                    next_poll = Instant::now();
                }
                Ok((other, _)) => report.fail(format!("job {next} refused: {other:?}")),
                Err(e) => report.fail(format!("job {next}: {e}")),
            }
            next += 1;
            continue;
        }
        if !outstanding.is_empty() && now >= next_poll {
            let mut still = VecDeque::new();
            while let Some(p) = outstanding.pop_front() {
                match poll(&rig.client, p.id) {
                    Ok(Some(body)) => {
                        let slot = slots[p.n];
                        done[p.n].latency_ms =
                            Some((Instant::now() - (start + slot.due)).as_secs_f64() * 1e3);
                        done[p.n].body = Some(body);
                        if !slot.repeat {
                            held[slot.spec as usize] = true;
                        }
                    }
                    Ok(None) => still.push_back(p),
                    Err(e) => report.fail(format!("job {}: {e}", p.n)),
                }
            }
            outstanding = still;
            next_poll = Instant::now() + POLL;
            continue;
        }
        if next >= slots.len() && outstanding.is_empty() {
            break;
        }
        if now > start + Duration::from_secs_f64(seconds) + DRAIN {
            for p in outstanding.drain(..) {
                report.fail(format!("job {} still pending after the drain limit", p.n));
            }
            break;
        }
        let wake = match (next < slots.len(), outstanding.is_empty()) {
            (true, true) => start + slots[next].due,
            (true, false) => (start + slots[next].due).min(next_poll),
            (false, _) => next_poll,
        };
        std::thread::sleep(wake.saturating_duration_since(Instant::now()));
    }
    let window_s = start.elapsed().as_secs_f64();
    let after = scrape(rig.client.addr())?;
    let mismatched = verify(seed, &slots, &done, &mut report)?;

    let hits = delta(&before, &after, "noc_cache_hits_total");
    if !(min_hits..=repeats).contains(&(hits as u64)) {
        report.fail(format!(
            "{hits} store hits, expected {min_hits} (repeats of held specs) to {repeats} (all repeats)"
        ));
    }
    let latencies: Vec<f64> = done.iter().filter_map(|d| d.latency_ms).collect();
    let fresh_done = slots
        .iter()
        .zip(&done)
        .filter(|(s, d)| !s.repeat && d.latency_ms.is_some())
        .count() as f64;
    let cycles = (JOB_CYCLES.0 + JOB_CYCLES.1) as f64;
    if trace {
        // Whole repeat groups alternate, so both halves hold the same
        // mix of fresh jobs and store hits.
        let is_traced = |n: usize| (n / REPEAT_EVERY as usize) % 2 == 1;
        let traced: Vec<(usize, &Done)> = done
            .iter()
            .enumerate()
            .filter(|(n, _)| is_traced(*n))
            .collect();
        let plain: Vec<f64> = done
            .iter()
            .enumerate()
            .filter(|(n, _)| !is_traced(*n))
            .filter_map(|(_, d)| d.latency_ms)
            .collect();
        let traced_ms: Vec<f64> = traced.iter().filter_map(|(_, d)| d.latency_ms).collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let busy_us = delta(&before, &after, "noc_worker_busy_us_total");
        let accepted = delta(&before, &after, "noc_accepted_total");
        let fresh_latency: Vec<f64> = slots
            .iter()
            .zip(&done)
            .filter(|(s, _)| !s.repeat)
            .filter_map(|(_, d)| d.latency_ms)
            .collect();
        let busy_per_fresh = busy_us / 1e3 / fresh_done.max(1.0);
        let lateness = sorted(&done.iter().map(|d| d.lateness_ms).collect::<Vec<_>>());
        let submit: Vec<f64> = traced.iter().map(|(_, d)| d.submit_ms).collect();
        let encode: Vec<f64> = traced.iter().map(|(_, d)| d.encode_us).collect();
        let statuses = delta(
            &before,
            &after,
            "noc_request_duration_us_count{endpoint=\"status\"}",
        );
        report.layer("service.submit_ms", mean(&submit), "ms");
        report.layer("service.worker_busy_ms_per_op", busy_per_fresh, "ms");
        report.layer(
            "service.queue_wait_ms",
            mean(&fresh_latency) - busy_per_fresh,
            "ms",
        );
        report.layer(
            "service.worker_busy_ratio",
            busy_us / 1e6 / window_s,
            "ratio",
        );
        report.layer("service.cache_hit_ratio", hits / accepted.max(1.0), "ratio");
        report.layer(
            "service.rejected_ratio",
            delta(&before, &after, "noc_rejected_busy_total") / report.attempted.max(1) as f64,
            "ratio",
        );
        report.layer(
            "service.status_requests_per_op",
            statuses / latencies.len().max(1) as f64,
            "count",
        );
        report.layer("codec.spec_encode_us", mean(&encode), "us");
        report.layer("gen.lateness_p50_ms", quantile(&lateness, 0.5), "ms");
        report.layer("gen.lateness_max_ms", quantile(&lateness, 1.0), "ms");
        report.overhead(&plain, &traced_ms);
        for &(n, d) in &traced {
            if let Some(lat) = d.latency_ms {
                report.op_spans(
                    "job",
                    n as u64,
                    Duration::from_secs_f64(lat / 1e3),
                    &[
                        (
                            "codec.spec_to_json",
                            Duration::from_secs_f64(d.encode_us / 1e6),
                            1,
                        ),
                        (
                            "service.submit",
                            Duration::from_secs_f64(d.submit_ms / 1e3),
                            1,
                        ),
                    ],
                );
            }
        }
    } else {
        let ok_ms: Vec<f64> = done
            .iter()
            .enumerate()
            .filter(|(n, _)| !mismatched.contains(n))
            .filter_map(|(_, d)| d.latency_ms)
            .collect();
        report.end_to_end(EndToEnd {
            peak_rss_mb: peak_rss_mib(),
            sim_kcycles_per_s: fresh_done * cycles / window_s / 1e3,
            ops_per_s: latencies.len() as f64 / window_s,
            op_p50_ms: crate::stats::median(&latencies),
            op_ms: &ok_ms,
            limit_ms: LIMIT_MS,
            attempted: report.attempted,
        });
    }
    report.note(format!(
        "{} jobs offered at {RATE_PER_S}/s, {} fresh, {hits} store hits",
        slots.len(),
        held.len()
    ));
    Ok(report)
}

/// One poll of a job, as `ServiceClient::wait_result` polls: the result
/// body once the job is done, `None` while it is queued or running.
fn poll(client: &ServiceClient, id: u64) -> Result<Option<String>, String> {
    let status = client.status(id)?;
    if !status.is_terminal() {
        return Ok(None);
    }
    if status.status != "done" {
        return Err(format!("ended {}: {:?}", status.status, status.error));
    }
    client
        .result_json(id)?
        .ok_or_else(|| "done but no result served".to_string())
        .map(Some)
}

/// Every served result, fresh or from the store, must equal an in-process
/// run of its spec (decoded from the same JSON the server received).
/// Runs after the measured window; returns the jobs whose result differed.
fn verify(
    seed: u64,
    slots: &[Slot],
    done: &[Done],
    report: &mut Report,
) -> Result<BTreeSet<usize>, String> {
    let mut mismatched = BTreeSet::new();
    let mut local: BTreeMap<u64, String> = BTreeMap::new();
    let mut first = None;
    for (n, (slot, d)) in slots.iter().zip(done).enumerate() {
        let Some(body) = &d.body else { continue };
        let expected = match local.entry(slot.spec) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let json =
                    spec_to_json(&job(seed, slot.spec, JOB_CYCLES)).map_err(|e| e.to_string())?;
                let result = spec_from_json(&json).map_err(|e| e.to_string())?.run();
                let wire = WireResult::from(&result).to_json();
                first.get_or_insert(result);
                e.insert(wire)
            }
        };
        if expected != body {
            mismatched.insert(n);
            report.fail(format!(
                "job {n}: served result differs from the in-process run"
            ));
        }
    }
    if let Some(r) = first {
        let md: Vec<f64> = r.ports.iter().map(|p| p.md_duty()).collect();
        let w = r.work;
        report.sim_stats = Some(format!(
            "{{\"first_fresh_job\":{{\"md_vc_duty_percent_mean\":{:.6},\"packets_delivered\":{},\
             \"mean_packet_latency_cycles\":{:.6},\"trace_digest\":\"{:016x}\",\"work_total\":{}}}}}",
            md.iter().sum::<f64>() / md.len() as f64,
            r.net.packets_ejected,
            r.net.avg_latency().unwrap_or(0.0),
            r.trace_digest().unwrap_or(0),
            w.total(),
        ));
    }
    Ok(mismatched)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = schedule(11, 5.0);
        assert_eq!(a, schedule(11, 5.0));
        assert_ne!(a, schedule(12, 5.0));
        // A shorter window is a prefix of a longer one.
        let b = schedule(11, 2.0);
        assert_eq!(&a[..b.len()], &b[..]);
    }

    #[test]
    fn schedule_keeps_its_rate_and_repeat_share() {
        let s = schedule(3, 20.0);
        let expect = 20.0 * RATE_PER_S;
        assert!(
            (s.len() as f64 - expect).abs() < 0.05 * expect,
            "{} jobs",
            s.len()
        );
        assert!(s.windows(2).all(|w| w[0].due < w[1].due));
        let repeats: Vec<&Slot> = s.iter().filter(|x| x.repeat).collect();
        let share = repeats.len() as f64 / s.len() as f64;
        assert!(
            (share - 1.0 / REPEAT_EVERY as f64).abs() < 0.01,
            "share {share}"
        );
        // Every repeat names a fresh spec submitted at least
        // REPEAT_MIN_BACK fresh jobs earlier.
        let mut fresh_so_far = 0u64;
        for slot in &s {
            if slot.repeat {
                assert!(slot.spec + REPEAT_MIN_BACK < fresh_so_far);
            } else {
                assert_eq!(slot.spec, fresh_so_far);
                fresh_so_far += 1;
            }
        }
    }
}
