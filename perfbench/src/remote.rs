//! `campaign-remote-2x2`: a chain of 2×2 sensor-wise campaign epochs
//! dispatched through `RemoteExecutor` to one in-process `noc-service`
//! worker on loopback that shares an `FsResultStore` with the front end,
//! checkpointing around every epoch as `nbti-noc campaign run --remote`
//! does. A closed loop with one epoch outstanding.

use crate::report::{EndToEnd, Report};
use crate::rig::{run_with_setups, scrape};
use crate::stats::{delta, mix, ms_since, peak_rss_mib};
use noc_campaign::{
    Campaign, CampaignError, CampaignSpec, DispatchEntry, EpochExecutor, FsResultStore,
    RemoteExecutor, WorkerPool,
};
use noc_service::{Server, ServiceConfig};
use noc_telemetry::SpanLog;
use sensorwise::{PolicyKind, SyntheticScenario, WireEpochOutcome, WireEpochRequest};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Warm-up and measured cycles of one epoch. Small on purpose: the
/// simulation share of a remote epoch stays well under the dispatcher's
/// poll step, so dispatch, polling, codec, store and checkpoint dominate.
const EPOCH_CYCLES: (u64, u64) = (150, 800);
/// Epochs per campaign; a run chains as many campaigns as fit.
const EPOCHS: u32 = 16;
/// Epochs run in set-up before timing starts.
const WARMUP_EPOCHS: u32 = 3;
/// Reassignment budget per epoch (the CLI's default).
const RETRIES: u32 = 2;
/// Latency limit of one epoch.
const LIMIT_MS: f64 = 100.0;
/// `peak_rss_mb` is read when this many epochs have been dispatched. The
/// worker keeps every job it ran for as long as it serves, so memory read
/// at the end of the window would grow with throughput.
const RSS_AT_EPOCHS: u64 = 400;

fn spec(seed: u64, campaign: u64) -> CampaignSpec {
    let scenario = SyntheticScenario {
        cores: 4,
        vcs: 2,
        injection_rate: 0.15,
    };
    let mut base = scenario.job(PolicyKind::SensorWise, EPOCH_CYCLES.0, EPOCH_CYCLES.1);
    base.traffic = base
        .traffic
        .with_seed(mix(seed, 0xCA_0000_u64.wrapping_add(campaign)));
    CampaignSpec {
        base,
        epochs: EPOCHS,
        age_acceleration: 1.0e9,
        drain_limit: 10_000,
    }
}

/// A worker, the shared store and the dispatcher.
struct Rig {
    server: Server,
    store: FsResultStore,
    exec: RemoteExecutor,
    addr: String,
    checkpoint: PathBuf,
}

impl Rig {
    fn start(dir: &Path) -> Result<Rig, String> {
        let store_dir = dir.join("store");
        let worker_store = FsResultStore::open(&store_dir).map_err(|e| e.to_string())?;
        let server = Server::start_with_cache(
            &ServiceConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 1,
                queue_depth: 16,
                job_timeout_ms: 0,
                spans_out: None,
            },
            Some(Arc::new(worker_store)),
        )?;
        let addr = server.local_addr().to_string();
        let store = FsResultStore::open(&store_dir).map_err(|e| e.to_string())?;
        let pool = WorkerPool::new(std::slice::from_ref(&addr)).map_err(|e| e.to_string())?;
        Ok(Rig {
            server,
            store,
            exec: RemoteExecutor::new(pool, RETRIES),
            addr,
            checkpoint: dir.join("campaign.ckpt"),
        })
    }

    fn stop(self) {
        self.server.request_shutdown(false);
        let _ = self.server.wait();
    }

    /// One epoch as `campaign run --remote` runs it: the in-flight
    /// dispatch is checkpointed before the job leaves and cleared after.
    fn epoch(&self, campaign: &mut Campaign, exec: &dyn EpochExecutor) -> Result<Epoch, String> {
        let index = campaign.completed();
        let worker = self.exec.planned_worker(index, 0).unwrap_or_default();
        campaign.push_dispatch(DispatchEntry {
            epoch: index,
            worker,
            attempt: 0,
        });
        let t = Instant::now();
        campaign.save(&self.checkpoint).map_err(|e| e.to_string())?;
        let mut saves = t.elapsed();
        let start_cycle = campaign.current_cycle().unwrap_or(0);
        let t = Instant::now();
        let report = campaign
            .run_next_epoch_with(exec, Some(&self.store))
            .map_err(|e| e.to_string())?;
        let run = t.elapsed();
        campaign.clear_dispatch();
        let t = Instant::now();
        campaign.save(&self.checkpoint).map_err(|e| e.to_string())?;
        saves += t.elapsed();
        drop(self.exec.drain_spans());
        Ok(Epoch {
            cycles: report.end_cycle - start_cycle,
            run,
            saves,
        })
    }
}

/// What one epoch simulated and where its time went.
struct Epoch {
    cycles: u64,
    /// `Campaign::run_next_epoch_with`.
    run: Duration,
    /// Both `Campaign::save` calls.
    saves: Duration,
}

/// Times `execute` of the wrapped executor.
struct Timed<'a> {
    inner: &'a RemoteExecutor,
    last: Cell<Duration>,
}

impl EpochExecutor for Timed<'_> {
    fn execute(
        &self,
        index: u32,
        request: &WireEpochRequest,
    ) -> Result<WireEpochOutcome, CampaignError> {
        let t = Instant::now();
        let out = self.inner.execute(index, request);
        self.last.set(t.elapsed());
        out
    }

    fn span_log(&self) -> Option<&SpanLog> {
        self.inner.span_log()
    }
}

/// The campaigns a run went through. Finished ones are kept as
/// `(campaign index, epochs, chained digest)` only, so memory does not
/// grow with the number of epochs a run completes.
struct Chain {
    seed: u64,
    next: u64,
    done: Vec<(u64, u32, u64)>,
    current: (u64, Campaign),
}

impl Chain {
    fn new(seed: u64, first: u64) -> Result<Chain, String> {
        let current = (
            first,
            Campaign::new(spec(seed, first)).map_err(|e| e.to_string())?,
        );
        Ok(Chain {
            seed,
            next: first + 1,
            done: Vec::new(),
            current,
        })
    }

    /// The campaign to run the next epoch of, starting a fresh one (with
    /// its own traffic seed, so no epoch repeats a stored request) when
    /// the current one has finished.
    fn live(&mut self) -> Result<&mut Campaign, String> {
        if self.current.1.is_finished() {
            let fresh = Campaign::new(spec(self.seed, self.next)).map_err(|e| e.to_string())?;
            let (index, old) = std::mem::replace(&mut self.current, (self.next, fresh));
            self.done
                .push((index, old.completed(), old.chained_digest()));
            self.next += 1;
        }
        Ok(&mut self.current.1)
    }
}

fn setup(seed: u64, dir: &Path) -> Result<Rig, String> {
    let rig = Rig::start(dir)?;
    // Warm-up epochs belong to a campaign the measured chain never reuses.
    let mut warm = Campaign::new(spec(seed, u64::from(u32::MAX))).map_err(|e| e.to_string())?;
    for _ in 0..WARMUP_EPOCHS {
        rig.epoch(&mut warm, &rig.exec)?;
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

#[derive(Default)]
struct Probe {
    build: Vec<f64>,
    encode: Vec<f64>,
    request_bytes: Vec<f64>,
    dispatch: Vec<f64>,
    integrate: Vec<f64>,
    save: Vec<f64>,
}

fn measure(rig: &Rig, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let mut chain = Chain::new(seed, 0)?;
    let mut plain_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut cycles = 0u64;
    let mut probe = Probe::default();
    let timed = Timed {
        inner: &rig.exec,
        last: Cell::new(Duration::ZERO),
    };
    let scrape_before = if trace {
        Some(scrape(&rig.addr)?)
    } else {
        None
    };
    let entries_before = rig.store.stats().map_err(|e| e.to_string())?.entries;
    let mut rss_mb = None;
    let window = Instant::now();
    let mut i = 0u64;
    while window.elapsed().as_secs_f64() < seconds {
        if i == RSS_AT_EPOCHS {
            rss_mb = Some(peak_rss_mib());
        }
        let traced_op = trace && i % 2 == 1;
        let campaign = chain.live()?;
        report.attempted += 1;
        if traced_op {
            let t = Instant::now();
            let request = campaign.epoch_request().map_err(|e| e.to_string())?;
            probe.build.push(ms_since(t));
            let t = Instant::now();
            let json = request.to_json().map_err(|e| e.to_string())?;
            probe.encode.push(ms_since(t));
            probe.request_bytes.push(json.len() as f64);
        }
        let t = Instant::now();
        let exec: &dyn EpochExecutor = if traced_op { &timed } else { &rig.exec };
        let step = rig.epoch(campaign, exec);
        let op = t.elapsed();
        i += 1;
        let epoch = match step {
            Ok(epoch) => epoch,
            Err(e) => {
                report.fail(format!("epoch {i}: {e}"));
                continue;
            }
        };
        cycles += epoch.cycles;
        if traced_op {
            let dispatch = timed.last.get();
            let integrate = epoch.run.saturating_sub(dispatch);
            let saves = epoch.saves;
            traced_ms.push(op.as_secs_f64() * 1e3);
            probe.dispatch.push(dispatch.as_secs_f64() * 1e3);
            probe.integrate.push(integrate.as_secs_f64() * 1e3);
            probe.save.push(saves.as_secs_f64() * 1e3 / 2.0);
            report.op_spans(
                "epoch",
                i,
                op,
                &[
                    ("campaign.dispatch", dispatch, 1),
                    ("campaign.integrate", integrate, 1),
                    ("campaign.checkpoint_save", saves, 2),
                ],
            );
        } else {
            plain_ms.push(op.as_secs_f64() * 1e3);
        }
    }
    let window_s = window.elapsed().as_secs_f64();
    let epochs = (plain_ms.len() + traced_ms.len()) as f64;
    let scrape_after = if trace {
        Some(scrape(&rig.addr)?)
    } else {
        None
    };
    let entries_after = rig.store.stats().map_err(|e| e.to_string())?.entries;
    verify(&chain, &mut report)?;

    if let (Some(before), Some(after)) = (scrape_before, scrape_after) {
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let busy_ms = delta(&before, &after, "noc_worker_busy_us_total") / 1e3 / epochs;
        let statuses = delta(
            &before,
            &after,
            "noc_request_duration_us_count{endpoint=\"status\"}",
        );
        let kb = std::fs::metadata(&rig.checkpoint).map_or(0.0, |m| m.len() as f64 / 1024.0);
        report.layer("campaign.request_build_ms", mean(&probe.build), "ms");
        report.layer("codec.request_encode_ms", mean(&probe.encode), "ms");
        report.layer(
            "codec.request_kb",
            mean(&probe.request_bytes) / 1024.0,
            "KiB",
        );
        report.layer("campaign.dispatch_ms", mean(&probe.dispatch), "ms");
        report.layer("service.worker_busy_ms_per_op", busy_ms, "ms");
        report.layer(
            "campaign.dispatch_overhead_ms",
            mean(&probe.dispatch) - busy_ms,
            "ms",
        );
        report.layer("service.status_requests_per_op", statuses / epochs, "count");
        report.layer("campaign.integrate_ms", mean(&probe.integrate), "ms");
        report.layer("campaign.checkpoint_save_ms", mean(&probe.save), "ms");
        report.layer("campaign.checkpoint_kb", kb, "KiB");
        report.layer(
            "store.entries_per_op",
            (entries_after - entries_before) as f64 / epochs,
            "count",
        );
        report.overhead(&plain_ms, &traced_ms);
        let (op, dispatch, integrate) = (
            mean(&traced_ms),
            mean(&probe.dispatch),
            mean(&probe.integrate),
        );
        let saves = 2.0 * mean(&probe.save);
        report.note(format!(
            "reconcile: traced epoch mean {op:.3} ms = dispatch {dispatch:.3} + integrate {integrate:.3} \
             + 2 saves {saves:.3} + ledger bookkeeping {:.3}",
            op - dispatch - integrate - saves
        ));
    } else {
        if rss_mb.is_none() {
            report.note(format!(
                "peak_rss_mb read at the end: only {epochs} of {RSS_AT_EPOCHS} epochs completed"
            ));
        }
        report.end_to_end(EndToEnd {
            peak_rss_mb: rss_mb.unwrap_or_else(peak_rss_mib),
            sim_kcycles_per_s: cycles as f64 / window_s / 1e3,
            ops_per_s: epochs / window_s,
            op_p50_ms: crate::stats::median(&plain_ms),
            op_ms: &plain_ms,
            limit_ms: LIMIT_MS,
            attempted: report.attempted,
        });
    }
    report.note(format!(
        "{} epochs over {} campaign(s); {} store entries added",
        epochs,
        chain.done.len() + 1,
        entries_after - entries_before
    ));
    Ok(report)
}

/// Every campaign of the chain, rerun in-process through `LocalExecutor`
/// for as many epochs as it completed remotely, must reach the same
/// chained digest. Runs after the measured window.
fn verify(chain: &Chain, report: &mut Report) -> Result<(), String> {
    let mut stats = None;
    let (index, current) = &chain.current;
    let current = (*index, current.completed(), current.chained_digest());
    for &(index, completed, digest) in chain.done.iter().chain(std::iter::once(&current)) {
        let mut local = Campaign::new(spec(chain.seed, index)).map_err(|e| e.to_string())?;
        let mut last = None;
        for _ in 0..completed {
            last = Some(local.run_next_epoch(None).map_err(|e| e.to_string())?);
        }
        if local.chained_digest() != digest {
            report.fail(format!(
                "campaign {index}: remote chained digest {digest:016x} != local {:016x}",
                local.chained_digest()
            ));
        }
        if stats.is_none() && local.is_finished() {
            if let Some(r) = last {
                let md: Vec<f64> = r
                    .result
                    .ports
                    .iter()
                    .map(|p| p.duty_percent[p.md_vc])
                    .collect();
                stats = Some(format!(
                    "{{\"campaign\":{index},\"epochs\":{},\"chained_digest\":\"{:016x}\",\
                     \"max_delta_vth_mv\":{:.6},\"last_epoch\":{{\"md_vc_duty_percent_mean\":{:.6},\
                     \"packets_delivered\":{},\"mean_packet_latency_cycles\":{:.6},\
                     \"trace_digest\":\"{:016x}\",\"work_total\":{}}}}}",
                    local.completed(),
                    local.chained_digest(),
                    r.max_delta_vth_mv,
                    md.iter().sum::<f64>() / md.len() as f64,
                    r.result.packets_ejected,
                    r.result.avg_latency.unwrap_or(0.0),
                    r.digest,
                    r.result.work_total,
                ));
            }
        }
    }
    report.sim_stats = stats;
    Ok(())
}
