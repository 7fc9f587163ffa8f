//! `nbti-noc` — command-line driver for ad-hoc experiments.
//!
//! ```text
//! nbti-noc run    [--cores N] [--vcs V] [--rate R] [--policy P] [--warmup N] [--measure N] [--csv]
//!                 [--mix KIND | --trace-in FILE] [--len L] [--seed N] [--digest]
//!                 [--trace-out FILE] [--metrics-out FILE] [--sample-period N] [--profile]
//! nbti-noc sweep  [--cores N] [--vcs V] [--warmup N] [--measure N] [--store DIR]
//! nbti-noc record --out FILE [--cores N] [--rate R] [--cycles N] [--seed N]
//! nbti-noc replay --trace FILE [--cores N] [--vcs V] [--policy P]
//!                 [--trace-out FILE] [--metrics-out FILE] [--sample-period N]
//! nbti-noc stats  --trace FILE
//! nbti-noc trace gen    --out FILE --mix KIND [--nodes N] [--cycles N] [--rate R] [--len L] [--seed N]
//! nbti-noc trace info   --trace FILE [--json]
//! nbti-noc trace verify --trace FILE
//! nbti-noc verify [--policy P] [--depth N] [--symmetry] [--counterexample-out FILE]
//!                 [--inject-fault gate-occupied|double-credit|drop-flit]
//! nbti-noc area
//! nbti-noc serve  [--addr A] [--workers N] [--queue-depth N] [--timeout-ms N] [--cache-dir DIR]
//!                 [--spans-out FILE]
//! nbti-noc spans  FILE [--json]
//! nbti-noc submit [--addr A] [--count N] [--concurrency N] [--cores N] [--vcs V]
//!                 [--rate R] [--policy P] [--warmup N] [--measure N] [--seed N]
//!                 [--shutdown]
//! nbti-noc campaign run    --checkpoint FILE [--epochs N] [--age-acceleration F] [--drain-limit N]
//!                          [--cores N] [--vcs V] [--rate R] [--policy P] [--warmup N] [--measure N]
//!                          [--seed N] [--pv-seed N] [--store DIR]
//!                          [--remote addr1,addr2 --retries N]
//! nbti-noc campaign resume --checkpoint FILE [--store DIR] [--remote addr1,addr2 --retries N]
//! nbti-noc campaign status --checkpoint FILE
//! nbti-noc cache stats --dir DIR
//! nbti-noc cache gc    --dir DIR --keep N
//! nbti-noc help
//! ```
//!
//! The paper's tables have dedicated regeneration binaries in the
//! `nbti-noc-bench` crate; this driver is for exploring other points of
//! the design space.

use nbti_noc::prelude::*;
use nbti_noc::telemetry::{clock, percentile, Stage};
use nbti_noc::workload;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::process::ExitCode;

/// Minimal flag parser: `--key value` pairs after the subcommand.
struct Args {
    flags: BTreeMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    /// Parses `args`, refusing by name any flag or switch not among the
    /// space-separated `known`.
    fn parse(args: &[String], known: &str) -> Result<Self, String> {
        let mut flags = BTreeMap::new();
        let mut switches = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument `{a}`"));
            };
            if !known.split_whitespace().any(|k| k == key) {
                return Err(format!("unknown flag `--{key}`"));
            }
            match it.peek() {
                Some(v) if !v.starts_with("--") => {
                    flags.insert(key.to_string(), it.next().unwrap().clone());
                }
                _ => switches.push(key.to_string()),
            }
        }
        Ok(Args { flags, switches })
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("bad --{key}: {e}")),
        }
    }

    fn required(&self, key: &str) -> Result<&str, String> {
        self.flags
            .get(key)
            .map(|s| s.as_str())
            .ok_or_else(|| format!("missing required --{key}"))
    }

    fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }
}

/// Parses `--jobs` (default: available parallelism) and rejects zero.
fn parse_jobs(args: &Args) -> Result<usize, String> {
    validate_jobs(args.get("jobs", default_jobs())?)
}

/// Parses `--invariants off|cheap|full` (default: off).
fn parse_invariants(args: &Args) -> Result<InvariantLevel, String> {
    args.get("invariants", InvariantLevel::Off)
}

/// Prints any recorded invariant violations; errors out when there were
/// any, so the process exits nonzero.
fn report_invariants(result: &sensorwise::ExperimentResult) -> Result<(), String> {
    if result.invariant_violations == 0 {
        return Ok(());
    }
    for v in &result.violations {
        eprintln!("invariant violation: {v}");
    }
    Err(format!(
        "{} invariant violation(s) detected",
        result.invariant_violations
    ))
}

fn parse_policy(name: &str) -> Result<PolicyKind, String> {
    PolicyKind::parse(name)
}

/// Prints the per-port duty/flit table, one row per buffer port labelled
/// by node and mesh side (`r3-W`, `r3-eject`).
fn print_port_table(result: &sensorwise::ExperimentResult, csv: bool) {
    if csv {
        let vcs = result.ports.first().map_or(0, |p| p.duty_percent.len());
        print!("port,md_vc");
        for v in 0..vcs {
            print!(",duty_vc{v}");
        }
        println!(",flits");
        for p in &result.ports {
            print!("{},{}", p.port, p.md_vc);
            for d in &p.duty_percent {
                print!(",{d:.3}");
            }
            println!(",{}", p.flits_received);
        }
        if let Some((p50, p95, p99, max)) = result.net.latency_summary() {
            println!("# latency_cycles p50<={p50} p95<={p95} p99<={p99} max<={max}");
        }
        return;
    }
    println!(
        "{:<12} {:>4} {:>10}  per-VC NBTI-duty-cycle",
        "port", "MD", "flits"
    );
    for p in &result.ports {
        let duties: Vec<String> = p.duty_percent.iter().map(|d| format!("{d:5.1}%")).collect();
        println!(
            "{:<12} {:>4} {:>10}  [{}]",
            p.port.to_string(),
            format!("VC{}", p.md_vc),
            p.flits_received,
            duties.join(" ")
        );
    }
    println!(
        "\ndelivered {} packets, avg latency {:.1} cycles",
        result.net.packets_ejected,
        result.net.avg_latency().unwrap_or(f64::NAN)
    );
    if let Some((p50, p95, p99, max)) = result.net.latency_summary() {
        println!("latency percentiles: p50<={p50} p95<={p95} p99<={p99} max<={max} cycles");
    }
}

/// Telemetry requested on the command line: the spec for the experiment
/// config plus the output destinations.
struct TelemetryArgs {
    spec: TelemetrySpec,
    trace_out: Option<String>,
    metrics_out: Option<String>,
}

/// Parses `--trace-out FILE`, `--metrics-out FILE` and `--sample-period N`.
/// Requesting a metrics file without a period uses 1000 cycles.
fn parse_telemetry(args: &Args) -> Result<TelemetryArgs, String> {
    let trace_out = args.flags.get("trace-out").cloned();
    let metrics_out = args.flags.get("metrics-out").cloned();
    let mut sample_period = args.get("sample-period", 0u64)?;
    if metrics_out.is_some() && sample_period == 0 {
        sample_period = 1_000;
    }
    Ok(TelemetryArgs {
        spec: TelemetrySpec {
            trace: trace_out.is_some(),
            trace_capacity: 0,
            sample_period,
        },
        trace_out,
        metrics_out,
    })
}

/// Writes the harvested telemetry to the requested files (JSONL events,
/// CSV metrics) and reports totals and the stream digest on stderr.
fn write_telemetry(result: &sensorwise::ExperimentResult, t: &TelemetryArgs) -> Result<(), String> {
    let Some(report) = result.telemetry.as_ref() else {
        return Ok(());
    };
    if let Some(path) = &t.trace_out {
        let log = report
            .trace
            .as_ref()
            .ok_or_else(|| "trace requested but not harvested".to_string())?;
        let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
        let mut w = BufWriter::new(file);
        let mut line = String::new();
        for ev in &log.events {
            line.clear();
            ev.write_jsonl(&mut line);
            w.write_all(line.as_bytes())
                .map_err(|e| format!("write to {path} failed: {e}"))?;
        }
        w.flush()
            .map_err(|e| format!("write to {path} failed: {e}"))?;
        eprintln!(
            "wrote {} events to {path} (digest {:016x})",
            log.total, log.digest
        );
    }
    if let Some(path) = &t.metrics_out {
        let series = report
            .series
            .as_ref()
            .ok_or_else(|| "metrics requested but not sampled".to_string())?;
        std::fs::write(path, series.to_csv()).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {} metric rows to {path}", series.len());
    }
    Ok(())
}

/// Runs `job` with the stage profiler attached and prints the per-stage
/// latency table plus simulated-throughput summary. With `--json` the
/// table goes to stderr so stdout stays pure result JSON.
fn run_profiled(job: &ExperimentJob, cycles: u64, json: bool) -> sensorwise::ExperimentResult {
    let t0 = clock::now();
    let (result, prof) = job.run_profiled();
    let wall_ms = clock::ms_since_f64(t0).max(1e-3);
    report_profile(&prof, cycles, wall_ms, json);
    result
}

/// Prints the per-stage latency table plus simulated-throughput summary.
/// With `--json` the table goes to stderr so stdout stays pure result JSON.
fn report_profile(prof: &StageProfiler, cycles: u64, wall_ms: f64, json: bool) {
    let report = prof.report();
    // cycles/ms is numerically kcycles/s.
    let kcps = cycles as f64 / wall_ms;
    // The stages are disjoint; the residual is everything outside them.
    let staged_ms = Stage::ALL
        .iter()
        .map(|&s| prof.stage(s).sum() as f64 / 1e6)
        .sum::<f64>();
    let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
    let residual = format!(
        "residual = wall - ({}) = {wall_ms:.2} - {staged_ms:.2} = {:.2} ms",
        names.join(" + "),
        wall_ms - staged_ms
    );
    let summary = format!("profiled {cycles} cycles in {wall_ms:.1} ms ({kcps:.1} kcycles/s)");
    if json {
        eprint!("{report}");
        eprintln!("{residual}");
        eprintln!("{summary}");
    } else {
        print!("{report}");
        println!("{residual}");
        println!("{summary}\n");
    }
}

/// Loads an `NBTITRC` trace for replay on `noc`. The trace's node count
/// must match the fabric's so recorded node indices stay valid.
fn load_trace(path: &str, noc: &NocConfig) -> Result<workload::TraceSource, String> {
    workload::TraceSource::load(std::path::Path::new(path), noc.num_nodes())
        .map_err(|e| format!("{path}: {e}"))
}

/// Builds the optional workload source requested by `--trace-in` (replay
/// an `NBTITRC` file) or `--mix` (drive a generator live).
fn parse_workload_source(
    args: &Args,
    noc: &NocConfig,
) -> Result<Option<Box<dyn TrafficSource>>, String> {
    let trace_in = args.flags.get("trace-in");
    let mix = args.flags.get("mix");
    match (trace_in, mix) {
        (Some(_), Some(_)) => Err("--trace-in and --mix are mutually exclusive".into()),
        (Some(path), None) => Ok(Some(Box::new(load_trace(path, noc)?))),
        (None, Some(kind)) => {
            let spec = workload::MixSpec {
                kind: workload::MixKind::parse(kind)?,
                nodes: noc.num_nodes() as u16,
                rate: args.get("rate", 0.2f64)?,
                packet_len: args.get("len", 5u16)?,
                seed: args.get("seed", 1u64)?,
            };
            Ok(Some(Box::new(workload::MixSource::new(spec))))
        }
        (None, None) => Ok(None),
    }
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let scenario = SyntheticScenario {
        cores: args.get("cores", 16usize)?,
        vcs: args.get("vcs", 4usize)?,
        injection_rate: args.get("rate", 0.2f64)?,
    };
    let policy = parse_policy(args.get("policy", "sensor-wise".to_string())?.as_str())?;
    let warmup = args.get("warmup", 5_000u64)?;
    let measure = args.get("measure", 50_000u64)?;
    let invariants = parse_invariants(args)?;
    let mut telemetry = parse_telemetry(args)?;
    let json = args.has("json");
    let want_digest = args.has("digest");
    if json || want_digest {
        // JSON output (and --digest) always carries the determinism witness.
        telemetry.spec.trace = true;
    }
    let mut job = scenario.job(policy, warmup, measure);
    job.cfg = job
        .cfg
        .with_invariants(invariants)
        .with_telemetry(telemetry.spec);
    job.cfg.noc.validate().map_err(|e| e.to_string())?;
    let mut source = parse_workload_source(args, &job.cfg.noc)?;
    if source.is_some() {
        // Workload runs tie process variation to the architecture alone:
        // an NBTITRC file carries no injection-rate field, so a replayed
        // trace must reproduce the live-mix digest whatever --rate was.
        job.cfg = job.cfg.with_pv_seed(
            SyntheticScenario {
                injection_rate: 0.0,
                ..scenario
            }
            .seed(),
        );
    }
    eprintln!(
        "running {} on mesh under {} ({} + {} cycles, invariants {invariants})...",
        source
            .as_ref()
            .map_or_else(|| scenario.name(), |s| s.name()),
        policy,
        warmup,
        measure
    );
    let result = match source.as_mut() {
        Some(src) => {
            if args.has("profile") {
                let t0 = clock::now();
                let (result, prof) = run_experiment_profiled(&job.cfg, src.as_mut());
                let wall_ms = clock::ms_since_f64(t0).max(1e-3);
                report_profile(&prof, warmup + measure, wall_ms, json);
                result
            } else {
                run_experiment(&job.cfg, src.as_mut())
            }
        }
        None if args.has("profile") => run_profiled(&job, warmup + measure, json),
        None => job.run(),
    };
    if json {
        println!("{}", sensorwise::result_to_json(&result));
    } else {
        print_port_table(&result, args.has("csv"));
    }
    if want_digest {
        match result.trace_digest() {
            Some(d) => println!("digest: {d:016x}"),
            None => return Err("--digest requested but no trace was harvested".into()),
        }
    }
    write_telemetry(&result, &telemetry)?;
    report_invariants(&result)
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let cfg = noc_service::ServiceConfig {
        addr: args.get("addr", "127.0.0.1:7878".to_string())?,
        workers: args.get("workers", 2usize)?,
        queue_depth: args.get("queue-depth", 16usize)?,
        job_timeout_ms: args.get("timeout-ms", 0u64)?,
        spans_out: args.flags.get("spans-out").cloned(),
    };
    let cache: Option<std::sync::Arc<dyn sensorwise::ResultCache + Send + Sync>> =
        match args.flags.get("cache-dir") {
            None => None,
            Some(dir) => Some(std::sync::Arc::new(
                noc_campaign::FsResultStore::open(dir).map_err(|e| e.to_string())?,
            )),
        };
    let server = noc_service::Server::start_with_cache(&cfg, cache)?;
    println!("listening on {}", server.local_addr());
    eprintln!(
        "{} workers, queue depth {}, job timeout {}, cache {}",
        cfg.workers,
        cfg.queue_depth,
        if cfg.job_timeout_ms == 0 {
            "off".to_string()
        } else {
            format!("{} ms", cfg.job_timeout_ms)
        },
        args.flags
            .get("cache-dir")
            .map_or("off".to_string(), |d| d.clone())
    );
    let report = server.wait();
    println!(
        "shutdown: accepted {} | completed {} failed {} cancelled {} timed_out {} dropped {} | rejected_busy {} cache_hits {}",
        report.accepted,
        report.completed,
        report.failed,
        report.cancelled,
        report.timed_out,
        report.dropped,
        report.rejected_busy,
        report.cache_hits
    );
    if report.accounts_for_all() {
        Ok(())
    } else {
        Err("shutdown report does not account for every accepted job".to_string())
    }
}

/// The load-generating client: submits `--count` specs with `--concurrency`
/// parallel submitters, waits for every result, and cross-checks each
/// returned `trace_digest` against a local in-process run of the same spec.
fn cmd_submit(args: &Args) -> Result<(), String> {
    let addr = args.get("addr", "127.0.0.1:7878".to_string())?;
    let count = args.get("count", 8usize)?;
    let concurrency = validate_jobs(args.get("concurrency", 4usize)?)?;
    let scenario = SyntheticScenario {
        cores: args.get("cores", 4usize)?,
        vcs: args.get("vcs", 2usize)?,
        injection_rate: args.get("rate", 0.15f64)?,
    };
    let policy = parse_policy(args.get("policy", "sensor-wise".to_string())?.as_str())?;
    let warmup = args.get("warmup", 500u64)?;
    let measure = args.get("measure", 5_000u64)?;
    let seed = args.get("seed", 1u64)?;
    if count == 0 {
        return Err("--count must be at least 1".to_string());
    }

    // One spec per job: identical scenario, per-job traffic seed, tracing
    // on so every result carries its digest.
    let jobs: Vec<ExperimentJob> = (0..count)
        .map(|i| {
            let mut job = scenario.job(policy, warmup, measure);
            job.cfg.telemetry.trace = true;
            job.traffic = job.traffic.with_seed(seed + i as u64);
            job
        })
        .collect();
    let specs: Vec<String> = jobs
        .iter()
        .map(|j| sensorwise::spec_to_json(j).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;

    let client = noc_service::ServiceClient::new(addr.clone());
    let started = clock::now();
    eprintln!("submitting {count} jobs to {addr} ({concurrency} concurrent submitters)...");
    let outcomes = parallel_map(&specs, concurrency, |_, spec| {
        let c = client.clone();
        let (id, busy, latencies) = c.submit_with_retry(spec, 200)?;
        let result = c.wait_result(id, 60_000)?;
        Ok::<_, String>((busy, latencies, result))
    });
    let elapsed_ms = clock::ms_since(started).max(1);

    let mut latencies: Vec<u64> = Vec::new();
    let mut busy_total = 0u64;
    let mut digests = Vec::with_capacity(count);
    for outcome in outcomes {
        let (busy, lat, result) = outcome?;
        busy_total += u64::from(busy);
        latencies.extend(lat);
        digests.push(
            result
                .trace_digest
                .ok_or("server result carried no trace_digest")?,
        );
    }

    eprintln!("cross-checking digests against local runs...");
    let local = run_batch(&jobs, concurrency);
    let mut mismatches = 0usize;
    for (i, (r, served)) in local.iter().zip(&digests).enumerate() {
        let local_digest = r
            .trace_digest()
            .ok_or("local run carried no trace_digest")?;
        if local_digest != *served {
            eprintln!(
                "digest mismatch for job {i}: served {served:016x}, local {local_digest:016x}"
            );
            mismatches += 1;
        }
    }

    latencies.sort_unstable();
    let jobs_per_sec = count as f64 * 1_000.0 / elapsed_ms as f64;
    println!(
        "{count} jobs in {elapsed_ms} ms ({jobs_per_sec:.1} jobs/s), {} submit requests ({busy_total} retried on 429)",
        latencies.len()
    );
    if let (Some(p50), Some(p99)) = (percentile(&latencies, 0.5), percentile(&latencies, 0.99)) {
        println!("submit latency: p50 {p50} ms p99 {p99} ms");
    }
    if args.has("shutdown") {
        client.shutdown(false)?;
        eprintln!("requested graceful shutdown of {addr}");
    }
    if mismatches == 0 {
        println!("digest check: {count}/{count} served results identical to local runs");
        Ok(())
    } else {
        Err(format!("digest check failed for {mismatches} job(s)"))
    }
}

fn cmd_sweep(args: &Args) -> Result<(), String> {
    let cores = args.get("cores", 4usize)?;
    let vcs = args.get("vcs", 2usize)?;
    let warmup = args.get("warmup", 2_000u64)?;
    let measure = args.get("measure", 30_000u64)?;
    let jobs = parse_jobs(args)?;
    let invariants = parse_invariants(args)?;
    let json = args.has("json");
    let rates = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3];
    let batch: Vec<ExperimentJob> = rates
        .iter()
        .flat_map(|&rate| {
            let scenario = SyntheticScenario {
                cores,
                vcs,
                injection_rate: rate,
            };
            PolicyKind::REFERENCE_PAIR.into_iter().map(move |policy| {
                let mut job = scenario.job(policy, warmup, measure);
                job.cfg = job.cfg.with_invariants(invariants);
                job
            })
        })
        .collect();

    // `(rr_md_duty, sw_md_duty, invariant_violations)` per rate: computed
    // fresh or served from a content-addressed `--store`.
    let sampled = PortId::router_input(NodeId(0), Direction::East).to_string();
    let md_duty = |r: &sensorwise::WireResult| -> Result<f64, String> {
        let row = r
            .ports
            .iter()
            .find(|p| p.port == sampled)
            .ok_or_else(|| format!("stored result lacks port {sampled}"))?;
        row.duty_percent
            .get(row.md_vc)
            .copied()
            .ok_or_else(|| format!("stored result has no duty for VC {}", row.md_vc))
    };
    let rows: Vec<(f64, f64, u64)> = if let Some(dir) = args.flags.get("store") {
        let store = noc_campaign::FsResultStore::open(dir).map_err(|e| e.to_string())?;
        let outcome =
            sensorwise::run_batch_cached(&batch, jobs, &store).map_err(|e| e.to_string())?;
        eprintln!(
            "result store {dir}: {} hits, {} misses",
            outcome.hits, outcome.misses
        );
        outcome
            .results
            .chunks_exact(2)
            .map(|pair| {
                Ok((
                    md_duty(&pair[0])?,
                    md_duty(&pair[1])?,
                    pair[0].invariant_violations + pair[1].invariant_violations,
                ))
            })
            .collect::<Result<_, String>>()?
    } else {
        let results = run_batch(&batch, jobs);
        for r in &results {
            report_invariants(r)?;
        }
        results
            .chunks_exact(2)
            .map(|pair| {
                (
                    pair[0].east_input(NodeId(0)).md_duty(),
                    pair[1].east_input(NodeId(0)).md_duty(),
                    0,
                )
            })
            .collect()
    };

    if json {
        // Same canonical float formatting as the wire codec: Rust's
        // shortest round-trip `Display`.
        let mut out = format!(
            "{{\"cores\":{cores},\"vcs\":{vcs},\"warmup\":{warmup},\"measure\":{measure},\
             \"sampled_port\":{},\"points\":[",
            sensorwise::codec::json_string(&sampled)
        );
        for (i, (&rate, &(rr, sw, _))) in rates.iter().zip(&rows).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"rate\":{rate},\"rr_md_duty\":{rr},\"sw_md_duty\":{sw},\"gap\":{}}}",
                rr - sw
            ));
        }
        out.push_str("]}");
        println!("{out}");
    } else {
        println!(
            "{:>6} {:>10} {:>10} {:>8}   ({}x{} mesh, {} VCs, MD VC of r0 east)",
            "rate", "rr MD", "sw MD", "gap", cores, cores, vcs
        );
        for (&rate, &(a, b, _)) in rates.iter().zip(&rows) {
            println!("{rate:>6.2} {a:>9.1}% {b:>9.1}% {:>7.1}%", a - b);
        }
    }
    let violations: u64 = rows.iter().map(|r| r.2).sum();
    if violations > 0 {
        return Err(format!("{violations} invariant violation(s) detected"));
    }
    Ok(())
}

fn cmd_record(args: &Args) -> Result<(), String> {
    let out = args.required("out")?.to_string();
    let cores = args.get("cores", 16usize)?;
    let rate = args.get("rate", 0.2f64)?;
    let cycles = args.get("cycles", 50_000u64)?;
    let seed = args.get("seed", 1u64)?;
    let k = (cores as f64).sqrt().round() as usize;
    let nodes =
        u16::try_from(k * k).map_err(|_| format!("--cores {cores} is too many to record"))?;
    let mut source = SyntheticTraffic::uniform(Mesh2D::new(k, k), rate, 5, seed);
    let writer = workload::record_source(&mut source, nodes, cycles).map_err(|e| e.to_string())?;
    let packets = writer.len();
    writer
        .save(std::path::Path::new(&out))
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("recorded {packets} packets over {cycles} cycles to {out}");
    Ok(())
}

fn cmd_replay(args: &Args) -> Result<(), String> {
    let path = args.required("trace")?.to_string();
    let cores = args.get("cores", 16usize)?;
    let vcs = args.get("vcs", 4usize)?;
    let policy = parse_policy(args.get("policy", "sensor-wise".to_string())?.as_str())?;
    let noc = NocConfig::paper_synthetic(cores, vcs);
    noc.validate().map_err(|e| e.to_string())?;
    let mut replay = load_trace(&path, &noc)?;
    let horizon = replay.end_cycle();
    eprintln!(
        "replaying {} packets ({horizon} cycles) under {policy}...",
        replay.len()
    );
    let telemetry = parse_telemetry(args)?;
    let cfg = ExperimentConfig::new(noc, policy)
        .with_cycles(0, horizon + 2_000)
        .with_invariants(parse_invariants(args)?)
        .with_telemetry(telemetry.spec);
    let result = run_experiment(&cfg, &mut replay);
    print_port_table(&result, args.has("csv"));
    write_telemetry(&result, &telemetry)?;
    report_invariants(&result)
}

fn cmd_stats(args: &Args) -> Result<(), String> {
    let path = args.required("trace")?.to_string();
    let json = args.has("json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let events = read_jsonl(&text).map_err(|e| format!("bad trace {path}: {e}"))?;
    if !json {
        println!("{} events from {path}", events.len());
    }

    let mut counts = vec![0u64; EventKind::TAGS.len()];
    let mut churn: BTreeMap<String, u64> = BTreeMap::new();
    let mut latencies: Vec<u64> = Vec::new();
    for ev in &events {
        // TAGS covers every kind; position() cannot miss.
        if let Some(i) = EventKind::TAGS.iter().position(|&t| t == ev.kind.tag()) {
            counts[i] += 1;
        }
        match &ev.kind {
            EventKind::GateOn { port, .. } | EventKind::GateOff { port, .. } => {
                *churn.entry(port.to_string()).or_insert(0) += 1;
            }
            EventKind::PacketDone { latency, .. } => latencies.push(*latency),
            _ => {}
        }
    }

    latencies.sort_unstable();
    // p50, p95, p99 and max; all `None` without a delivered packet.
    let latency = [0.5, 0.95, 0.99, 1.0].map(|q| percentile(&latencies, q));
    if json {
        // Machine-readable summary, keyed and quoted via the shared
        // wire-codec string escaper; the digest matches `run --json`.
        let mut out = format!("{{\"events\":{},\"counts\":{{", events.len());
        let mut first = true;
        for (tag, n) in EventKind::TAGS.iter().zip(&counts) {
            if *n > 0 {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!("{}:{n}", sensorwise::codec::json_string(tag)));
            }
        }
        out.push_str("},\"gating_churn\":{");
        for (i, (port, n)) in churn.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{n}", sensorwise::codec::json_string(port)));
        }
        out.push_str("},");
        if let [Some(p50), Some(p95), Some(p99), Some(max)] = latency {
            out.push_str(&format!(
                "\"latency\":{{\"p50\":{p50},\"p95\":{p95},\"p99\":{p99},\"max\":{max},\"packets\":{}}},",
                latencies.len()
            ));
        } else {
            out.push_str("\"latency\":null,");
        }
        out.push_str(&format!(
            "\"digest\":\"{:016x}\"}}",
            EventDigest::of(&events)
        ));
        println!("{out}");
        return Ok(());
    }
    println!("event counts:");
    for (tag, n) in EventKind::TAGS.iter().zip(&counts) {
        if *n > 0 {
            println!("  {tag:<10} {n}");
        }
    }
    if !churn.is_empty() {
        println!("gating churn per port (gate_on + gate_off):");
        for (port, n) in &churn {
            println!("  {port:<12} {n}");
        }
    }
    if let [Some(p50), Some(p95), Some(p99), Some(max)] = latency {
        println!(
            "latency: p50 {p50} p95 {p95} p99 {p99} max {max} cycles ({} packets)",
            latencies.len()
        );
    }
    println!("digest: {:016x}", EventDigest::of(&events));
    Ok(())
}

/// Exhaustively model-checks the cooperative gating protocol: breadth-
/// first enumeration of every reachable whole-cycle state of the
/// reference 2×2/2-VC mesh under every interleaving of injections,
/// controller firings and control-epoch gaps, with the full invariant
/// oracle consulted at each state. A found violation exits nonzero and,
/// with `--counterexample-out`, lowers the shortest violating path to a
/// JSONL trace consumable by `stats --trace`.
fn cmd_verify(args: &Args) -> Result<(), String> {
    use noc_modelcheck::{explore, FaultKind, StandardOracle};

    let depth = args.get("depth", sensorwise::modelcheck::DEFAULT_DEPTH)?;
    let symmetry = args.has("symmetry");
    let fault = match args.flags.get("inject-fault") {
        Some(name) => Some(FaultKind::parse(name)?),
        None => None,
    };
    let policies = match args.flags.get("policy") {
        Some(name) => vec![parse_policy(name)?],
        None => sensorwise::checked_policies(),
    };
    let cx_out = args.flags.get("counterexample-out");

    let mut failures = 0usize;
    for policy in policies {
        let mut cfg = sensorwise::explore_config_for(policy, depth, symmetry);
        cfg.fault = fault;
        let mut ctrl = sensorwise::controller_for(policy);
        let report = explore(&cfg, &mut ctrl, &mut StandardOracle);
        println!("{}: {}", policy.label(), report.summary());
        if let Some(cx) = &report.counterexample {
            failures += 1;
            eprintln!("counterexample for {}: {}", policy.label(), cx.describe());
            if let Some(path) = cx_out {
                let jsonl = cx.to_jsonl(&cfg, &mut ctrl);
                std::fs::write(path, jsonl).map_err(|e| format!("cannot write {path}: {e}"))?;
                eprintln!("counterexample trace written to {path}");
            }
        }
    }
    if failures > 0 {
        Err(format!(
            "{failures} exploration(s) violated the protocol invariants"
        ))
    } else {
        Ok(())
    }
}

fn cmd_area() -> Result<(), String> {
    println!("{}", analyze_area(&AreaParams::paper_45nm()));
    Ok(())
}

/// Builds a lifetime-campaign spec from `campaign run` flags.
fn campaign_spec_from_args(args: &Args) -> Result<noc_campaign::CampaignSpec, String> {
    let scenario = SyntheticScenario {
        cores: args.get("cores", 4usize)?,
        vcs: args.get("vcs", 2usize)?,
        injection_rate: args.get("rate", 0.15f64)?,
    };
    let policy = parse_policy(args.get("policy", "sensor-wise".to_string())?.as_str())?;
    let warmup = args.get("warmup", 500u64)?;
    let measure = args.get("measure", 5_000u64)?;
    let mut job = scenario.job(policy, warmup, measure);
    job.traffic = job.traffic.with_seed(args.get("seed", 1u64)?);
    if args.flags.contains_key("pv-seed") {
        job.cfg = job.cfg.with_pv_seed(args.get("pv-seed", 0u64)?);
    }
    Ok(noc_campaign::CampaignSpec {
        base: job,
        epochs: args.get("epochs", 4u32)?,
        age_acceleration: args.get("age-acceleration", 1.0e9f64)?,
        drain_limit: args.get("drain-limit", 10_000u64)?,
    })
}

/// Opens the optional content-addressed result store named by `--store`.
fn open_optional_store(args: &Args) -> Result<Option<noc_campaign::FsResultStore>, String> {
    match args.flags.get("store") {
        None => Ok(None),
        Some(dir) => noc_campaign::FsResultStore::open(dir)
            .map(Some)
            .map_err(|e| e.to_string()),
    }
}

/// Builds the remote executor named by `--remote addr1,addr2,...` (with
/// `--retries N` reassignments per epoch), when the flag is present. The
/// workers must share the `--store` directory as their `--cache-dir`:
/// the store is the result plane the campaign recovers from after kills.
fn open_optional_remote(args: &Args) -> Result<Option<noc_campaign::RemoteExecutor>, String> {
    let Some(list) = args.flags.get("remote") else {
        return Ok(None);
    };
    let addrs: Vec<String> = list
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    let retries = args.get("retries", 2u32)?;
    let pool = noc_campaign::WorkerPool::new(&addrs).map_err(|e| e.to_string())?;
    Ok(Some(noc_campaign::RemoteExecutor::new(pool, retries)))
}

/// The spans sidecar next to a campaign checkpoint: one `epoch` span per
/// completed epoch, appended as each epoch checkpoints so `campaign
/// status` can report wall time and throughput without re-running.
fn campaign_spans_path(checkpoint: &std::path::Path) -> std::path::PathBuf {
    checkpoint.with_extension("spans.jsonl")
}

/// Appends one span to `path`. Sidecar timing is observability, not
/// state: failures are reported but never fail the campaign.
fn append_span(path: &std::path::Path, span: &Span) {
    let mut line = String::new();
    span.write_jsonl(&mut line);
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(line.as_bytes()));
    if let Err(e) = written {
        eprintln!("warning: cannot append span to {}: {e}", path.display());
    }
}

/// Prints one epoch row of the campaign trajectory table.
fn print_epoch_row(report: &noc_campaign::EpochReport) {
    println!(
        "{:>5} {:>10} {:>7} {:>16x} {:>12.4} {:>9.4}",
        report.index,
        report.end_cycle,
        report.drain_cycles,
        report.digest,
        report.max_delta_vth_mv,
        report.worst_delay_degradation_percent
    );
}

/// Runs every remaining epoch, checkpointing after each one, and prints
/// the per-epoch aging trajectory plus the final chained digest — the
/// witness the kill-and-resume smoke test diffs.
///
/// With a `remote` executor the epochs run as served jobs on the worker
/// pool instead of this thread, and the checkpoint doubles as the
/// coordination log: the in-flight dispatch is checkpointed *before* the
/// job leaves, and cleared (with the epoch's outcome folded in) after —
/// so a kill at any moment leaves either a completed epoch or a visible
/// in-flight entry for the resume path to re-dispatch.
fn run_epochs(
    campaign: &mut noc_campaign::Campaign,
    store: Option<&noc_campaign::FsResultStore>,
    checkpoint: &std::path::Path,
    remote: Option<&noc_campaign::RemoteExecutor>,
) -> Result<(), String> {
    println!(
        "{:>5} {:>10} {:>7} {:>16} {:>12} {:>9}",
        "epoch", "end_cycle", "drain", "digest", "max dVth mV", "delay %"
    );
    let spans_path = campaign_spans_path(checkpoint);
    let anchor = clock::now();
    // A remote resume first folds in epochs some worker already filed in
    // the shared result store — no re-simulation, no worker contact.
    if remote.is_some() {
        if let Some(shared) = store {
            let recovered =
                noc_campaign::recover_from_store(campaign, shared).map_err(|e| e.to_string())?;
            if !recovered.is_empty() {
                campaign.clear_dispatch();
                campaign.save(checkpoint).map_err(|e| e.to_string())?;
                eprintln!(
                    "recovered {} epoch(s) from the shared result store",
                    recovered.len()
                );
                for report in &recovered {
                    print_epoch_row(report);
                }
            }
        }
    }
    while !campaign.is_finished() {
        let start_us = clock::us_since(anchor);
        let index = campaign.completed();
        let report = match remote {
            Some(exec) => {
                let worker = exec
                    .planned_worker(index, 0)
                    .unwrap_or_else(|| "-".to_string());
                campaign.push_dispatch(noc_campaign::DispatchEntry {
                    epoch: index,
                    worker,
                    attempt: 0,
                });
                campaign.save(checkpoint).map_err(|e| e.to_string())?;
                let report = campaign
                    .run_next_epoch_with(exec, store.map(|s| s as &dyn sensorwise::ResultCache))
                    .map_err(|e| e.to_string())?;
                campaign.clear_dispatch();
                report
            }
            None => campaign
                .run_next_epoch(store.map(|s| s as &dyn sensorwise::ResultCache))
                .map_err(|e| e.to_string())?,
        };
        let dur_us = clock::us_since(anchor).saturating_sub(start_us);
        campaign.save(checkpoint).map_err(|e| e.to_string())?;
        append_span(
            &spans_path,
            &Span::new(
                SpanKind::Epoch,
                &format!("epoch-{}", report.index),
                NO_PARENT,
                start_us,
                dur_us,
            ),
        );
        if let Some(exec) = remote {
            for span in exec.drain_spans() {
                append_span(&spans_path, &span);
            }
        }
        print_epoch_row(&report);
    }
    println!("chained digest: {:016x}", campaign.chained_digest());
    Ok(())
}

/// A span's stage in the `spans` breakdown: its kind, except for a `hop`
/// (one step of a dispatch attempt), whose name says which step.
fn stage(s: &Span) -> &str {
    if s.kind == SpanKind::Hop {
        &s.name
    } else {
        s.kind.tag()
    }
}

/// Summarizes a span JSONL file (`serve --spans-out`, a worker-failure
/// dump, or a campaign spans sidecar): aggregates durations per
/// kind-chain (`request`, `request/job`, `request/job/experiment`,
/// `epoch`, …) and prints an indented latency breakdown tree.
fn cmd_spans(file: &str, args: &Args) -> Result<(), String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let spans = read_spans_jsonl(&text).map_err(|e| format!("{file}: {e}"))?;
    if spans.is_empty() {
        println!("{file}: no spans");
        return Ok(());
    }
    // Spans link by derived id; resolve each span's ancestry to group by
    // the chain of kinds from its outermost recorded ancestor.
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut groups: BTreeMap<String, Histogram> = BTreeMap::new();
    for s in &spans {
        let mut chain = vec![stage(s)];
        let mut cur = s.parent;
        // Cap the walk so a (malformed) parent cycle cannot hang us.
        for _ in 0..8 {
            if cur == NO_PARENT {
                break;
            }
            let Some(parent) = by_id.get(&cur) else { break };
            chain.push(stage(parent));
            cur = parent.parent;
        }
        chain.reverse();
        groups.entry(chain.join("/")).or_default().record(s.dur_us);
    }
    println!("{}: {} spans", file, spans.len());
    println!(
        "{:<34} {:>8} {:>10} {:>10} {:>10} {:>12}",
        "stage", "count", "p50(us)", "p95(us)", "p99(us)", "total(ms)"
    );
    // BTreeMap orders `request` before `request/job`, so parents print
    // directly above their children; indent by chain depth.
    for (path, h) in &groups {
        let depth = path.matches('/').count();
        let leaf = path.rsplit('/').next().unwrap_or(path);
        let label = format!("{}{}", "  ".repeat(depth), leaf);
        println!(
            "{:<34} {:>8} {:>10} {:>10} {:>10} {:>12.2}",
            label,
            h.count(),
            h.quantile_upper(0.5).unwrap_or(0),
            h.quantile_upper(0.95).unwrap_or(0),
            h.quantile_upper(0.99).unwrap_or(0),
            h.sum() as f64 / 1e3
        );
    }
    if args.has("json") {
        // Machine-readable variant for scripts, keyed by chain path.
        let rows: Vec<String> = groups
            .iter()
            .map(|(path, h)| {
                format!(
                    "{{\"stage\":\"{path}\",\"count\":{},\"p50_us\":{},\"p95_us\":{},\
                     \"p99_us\":{},\"total_us\":{}}}",
                    h.count(),
                    h.quantile_upper(0.5).unwrap_or(0),
                    h.quantile_upper(0.95).unwrap_or(0),
                    h.quantile_upper(0.99).unwrap_or(0),
                    h.sum()
                )
            })
            .collect();
        println!("[{}]", rows.join(","));
    }
    Ok(())
}

fn cmd_campaign_run(args: &Args) -> Result<(), String> {
    let checkpoint = std::path::PathBuf::from(args.required("checkpoint")?);
    let spec = campaign_spec_from_args(args)?;
    let store = open_optional_store(args)?;
    let remote = open_optional_remote(args)?;
    let mut campaign = noc_campaign::Campaign::new(spec).map_err(|e| e.to_string())?;
    eprintln!(
        "campaign: {} epochs, age acceleration {:e}, checkpoint {}{}",
        campaign.spec().epochs,
        campaign.spec().age_acceleration,
        checkpoint.display(),
        remote
            .as_ref()
            .map(|r| format!(", {} remote worker(s)", r.pool().len()))
            .unwrap_or_default()
    );
    run_epochs(&mut campaign, store.as_ref(), &checkpoint, remote.as_ref())
}

fn cmd_campaign_resume(args: &Args) -> Result<(), String> {
    let checkpoint = std::path::PathBuf::from(args.required("checkpoint")?);
    let mut campaign = noc_campaign::Campaign::load(&checkpoint).map_err(|e| e.to_string())?;
    if campaign.is_finished() {
        println!(
            "campaign already finished ({} epochs)",
            campaign.completed()
        );
        println!("chained digest: {:016x}", campaign.chained_digest());
        return Ok(());
    }
    eprintln!(
        "resuming at epoch {}/{}",
        campaign.completed(),
        campaign.spec().epochs
    );
    for entry in campaign.dispatch_ledger() {
        eprintln!(
            "in flight at checkpoint: epoch {} on {} (attempt {}) — re-dispatching",
            entry.epoch, entry.worker, entry.attempt
        );
    }
    let store = open_optional_store(args)?;
    let remote = open_optional_remote(args)?;
    run_epochs(&mut campaign, store.as_ref(), &checkpoint, remote.as_ref())
}

fn cmd_campaign_status(args: &Args) -> Result<(), String> {
    let checkpoint = std::path::PathBuf::from(args.required("checkpoint")?);
    let campaign = noc_campaign::Campaign::load(&checkpoint).map_err(|e| e.to_string())?;
    println!(
        "{}: {}/{} epochs completed",
        checkpoint.display(),
        campaign.completed(),
        campaign.spec().epochs
    );
    if let Some(cycle) = campaign.current_cycle() {
        println!("simulated cycles: {cycle}");
    }
    // Wall-time per epoch from the spans sidecar, when present.
    // Old checkpoints without one degrade to the bare listing.
    let spans = std::fs::read_to_string(campaign_spans_path(&checkpoint))
        .ok()
        .and_then(|text| read_spans_jsonl(&text).ok())
        .unwrap_or_default();
    let epoch_wall_us: BTreeMap<String, u64> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Epoch)
        .map(|s| (s.name.clone(), s.dur_us))
        .collect();
    let mut prev_end = 0u64;
    for (i, (end, digest)) in campaign.epoch_ends().iter().enumerate() {
        let cycles = end.saturating_sub(prev_end);
        prev_end = *end;
        match epoch_wall_us.get(&format!("epoch-{i}")) {
            Some(&us) if us > 0 => {
                // cycles per wall-millisecond is numerically kcycles/s.
                let kcps = cycles as f64 * 1e3 / us as f64;
                println!(
                    "  epoch {i}: end_cycle {end} digest {digest:016x} \
                             wall {:.1} ms ({kcps:.1} kcycles/s)",
                    us as f64 / 1e3
                );
            }
            _ => println!("  epoch {i}: end_cycle {end} digest {digest:016x}"),
        }
    }
    // Per-worker dispatch state from the checkpoint's
    // coordination log: entries here were in flight on a remote
    // pool when the front end last checkpointed (or died).
    for entry in campaign.dispatch_ledger() {
        println!(
            "  in flight: epoch {} on worker {} (attempt {})",
            entry.epoch, entry.worker, entry.attempt
        );
    }
    if let Some(ledger) = campaign.ledger() {
        println!("max dVth: {:.4} mV", ledger.max_delta_vth_mv());
    }
    println!("chained digest: {:016x}", campaign.chained_digest());
    Ok(())
}

/// `trace gen | info | verify` — the `NBTITRC` binary-trace toolbox.
///
/// `gen` materializes a deterministic application mix, `info` summarizes
/// a trace file, `verify` streams it end to end checking every chunk
/// checksum (corruption exits nonzero with the typed reason).
fn cmd_trace_gen(args: &Args) -> Result<(), String> {
    let out = args.required("out")?.to_string();
    let kind = workload::MixKind::parse(args.required("mix")?)?;
    let spec = workload::MixSpec {
        kind,
        nodes: args.get("nodes", 16u16)?,
        rate: args.get("rate", 0.2f64)?,
        packet_len: args.get("len", 5u16)?,
        seed: args.get("seed", 1u64)?,
    };
    let cycles = args.get("cycles", 10_000u64)?;
    let writer = workload::MixGenerator::new(spec)
        .write_trace(cycles)
        .map_err(|e| e.to_string())?;
    let records = writer.len();
    writer
        .save(std::path::Path::new(&out))
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "wrote {records} records ({} nodes, {cycles} cycles, mix {}) to {out}",
        spec.nodes,
        kind.name()
    );
    Ok(())
}

/// `trace info` and `trace verify`: both stream-check the whole file.
fn cmd_trace_check(action: &str, args: &Args) -> Result<(), String> {
    let path = args.required("trace")?.to_string();
    let summary =
        workload::verify_file(std::path::Path::new(&path)).map_err(|e| format!("{path}: {e}"))?;
    if action == "verify" {
        println!(
            "{path}: OK ({} records in {} chunks, every checksum valid)",
            summary.records, summary.chunks
        );
    } else if args.has("json") {
        println!(
            "{{\"nodes\":{},\"records\":{},\"chunks\":{},\"first_cycle\":{},\
                     \"last_cycle\":{},\"flits\":{}}}",
            summary.header.num_nodes,
            summary.records,
            summary.chunks,
            summary.first_cycle,
            summary.last_cycle,
            summary.flits
        );
    } else {
        println!("{path}: NBTITRC v{}", workload::FORMAT_VERSION);
        println!("  nodes   {}", summary.header.num_nodes);
        println!(
            "  records {} (in {} chunks)",
            summary.records, summary.chunks
        );
        println!("  cycles  {}..={}", summary.first_cycle, summary.last_cycle);
        println!("  flits   {}", summary.flits);
    }
    Ok(())
}

/// Opens the result store named by `--dir`.
fn open_store_dir(args: &Args) -> Result<noc_campaign::FsResultStore, String> {
    noc_campaign::FsResultStore::open(args.required("dir")?).map_err(|e| e.to_string())
}

fn cmd_cache_stats(args: &Args) -> Result<(), String> {
    let store = open_store_dir(args)?;
    let stats = store.stats().map_err(|e| e.to_string())?;
    if args.has("json") {
        println!(
            "{{\"entries\":{},\"bytes\":{}}}",
            stats.entries, stats.bytes
        );
    } else {
        println!(
            "{}: {} entries, {} bytes",
            store.dir().display(),
            stats.entries,
            stats.bytes
        );
    }
    Ok(())
}

fn cmd_cache_gc(args: &Args) -> Result<(), String> {
    let store = open_store_dir(args)?;
    let keep: usize = args
        .required("keep")?
        .parse()
        .map_err(|e| format!("bad --keep: {e}"))?;
    let report = store.gc(keep).map_err(|e| e.to_string())?;
    println!("removed {} entries, kept {}", report.removed, report.kept);
    Ok(())
}

const HELP: &str = "nbti-noc — sensor-wise NBTI mitigation for NoC buffers (DATE 2013 reproduction)

subcommands:
  run     one scenario under one policy    [--cores --vcs --rate --policy --warmup --measure --invariants --csv]
                                           [--mix KIND | --trace-in FILE (NBTITRC workload) --len L --seed N]
                                           [--digest (print the telemetry digest) --profile]
                                           [--trace-out FILE --metrics-out FILE --sample-period N]
  sweep   gap vs injection rate            [--cores --vcs --warmup --measure --invariants --jobs]
                                           [--store DIR (memoize probes) --json]
  record  record a synthetic trace         --out FILE [--cores --rate --cycles --seed]
  replay  replay a trace under a policy    --trace FILE [--cores --vcs --policy --invariants --csv]
                                           [--trace-out FILE --metrics-out FILE --sample-period N]
  stats   summarize a telemetry trace      --trace FILE [--json] (event counts, churn, latency, digest)
  trace gen     generate an NBTITRC mix trace    --out FILE --mix KIND [--nodes 16 --cycles 10000
                                                  --rate 0.2 --len 5 --seed 1]
  trace info    summarize an NBTITRC trace       --trace FILE [--json]
  trace verify  stream-check every checksum      --trace FILE (corruption exits nonzero, typed)
  verify  exhaustively model-check the     [--policy P (default: every policy) --depth N --symmetry]
          gating protocol on a 2x2 mesh    [--counterexample-out FILE
                                            --inject-fault gate-occupied|double-credit|drop-flit]
  area    print the §III-D area overhead report
  serve   HTTP job API for experiments     [--addr 127.0.0.1:7878 --workers N --queue-depth N --timeout-ms N]
                                           [--cache-dir DIR (serve repeat specs from the result store)]
                                           [--spans-out FILE (flight-recorder span dump, JSONL)]
  spans   summarize a span JSONL file      FILE [--json] (per-stage latency breakdown tree)
  submit  load-generating client           [--addr --count --concurrency --cores --vcs --rate --policy
                                            --warmup --measure --seed --shutdown]
  campaign run     multi-epoch lifetime campaign   --checkpoint FILE [--epochs 4 --age-acceleration 1e9
                   with aging feedback              --drain-limit N --cores --vcs --rate --policy
                                                    --warmup --measure --seed --pv-seed --store DIR
                                                    --remote addr1,addr2 --retries N]
  campaign resume  continue from a checkpoint      --checkpoint FILE [--store DIR --remote ... --retries N]
  campaign status  inspect a checkpoint            --checkpoint FILE (shows in-flight dispatches)
  cache stats      result-store statistics         --dir DIR [--json]
  cache gc         evict oldest store entries      --dir DIR --keep N
  help    this text

policies: baseline | rr | sw-nt | sw | sw-kN (e.g. sw-k2)
mixes: hotspot-server | all-to-all-shuffle | nearest-neighbor-stencil | bursty-client;
       `run --mix K` drives the generator live, `trace gen` + `run --trace-in F` replays the
       same schedule from disk — both yield bit-identical telemetry digests
invariant levels: off (default) | cheap | full — runtime protocol checks; violations exit nonzero
telemetry: --trace-out writes a JSONL event trace, --metrics-out a per-port CSV series;
           `run --profile` prints per-stage p50/p95/p99 latency (ns) and kcycles/s —
           results and digests stay bit-identical to an unprofiled run
serving: `run --json` prints the same result JSON the service returns (digest included);
         `sweep --json` and `stats --json` emit machine-readable summaries in the same codec;
         `submit` cross-checks every served digest against a local run of the same spec
campaigns: per-buffer NBTI drift carries across epochs and feeds the next epoch's sensors;
           checkpoints (NBTICAMP v2, reads v1) make resume bit-identical to an uninterrupted run;
           `--remote` dispatches epochs to `serve` workers sharing a `--store`/`--cache-dir` result
           plane — digests stay bit-identical to a local run, even across a worker kill + resume
paper tables: see `cargo run -p nbti-noc-bench --bin table2|table3|table4|...`";

/// A subcommand handler: the word after the subcommand (the action, or
/// `spans`' file; empty for the rest) and the parsed flags.
type Handler = fn(&str, &Args) -> Result<(), String>;

/// Every subcommand, with its action word if it takes one, the only flags
/// and switches it reads (space-separated), and its handler. `Args::parse`
/// refuses any other flag by name, so a typo fails instead of running
/// with defaults.
const SUBCOMMANDS: &[(&str, &str, Handler)] = &[
    (
        "run",
        "cores vcs rate policy warmup measure invariants csv json digest mix trace-in len seed \
         trace-out metrics-out sample-period profile",
        |_, a| cmd_run(a),
    ),
    (
        "sweep",
        "cores vcs warmup measure jobs invariants json store",
        |_, a| cmd_sweep(a),
    ),
    ("record", "out cores rate cycles seed", |_, a| cmd_record(a)),
    (
        "replay",
        "trace cores vcs policy invariants csv trace-out metrics-out sample-period",
        |_, a| cmd_replay(a),
    ),
    ("stats", "trace json", |_, a| cmd_stats(a)),
    (
        "verify",
        "policy depth symmetry inject-fault counterexample-out",
        |_, a| cmd_verify(a),
    ),
    ("area", "", |_, _| cmd_area()),
    (
        "serve",
        "addr workers queue-depth timeout-ms cache-dir spans-out",
        |_, a| cmd_serve(a),
    ),
    (
        "submit",
        "addr count concurrency cores vcs rate policy warmup measure seed shutdown",
        |_, a| cmd_submit(a),
    ),
    ("spans", "json", cmd_spans),
    (
        "campaign run",
        "checkpoint epochs age-acceleration drain-limit cores vcs rate policy warmup measure \
         seed pv-seed store remote retries",
        |_, a| cmd_campaign_run(a),
    ),
    (
        "campaign resume",
        "checkpoint store remote retries",
        |_, a| cmd_campaign_resume(a),
    ),
    ("campaign status", "checkpoint", |_, a| {
        cmd_campaign_status(a)
    }),
    ("cache stats", "dir json", |_, a| cmd_cache_stats(a)),
    ("cache gc", "dir keep", |_, a| cmd_cache_gc(a)),
    ("trace gen", "out mix nodes cycles rate len seed", |_, a| {
        cmd_trace_gen(a)
    }),
    ("trace info", "trace json", cmd_trace_check),
    ("trace verify", "trace", cmd_trace_check),
];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        println!("{HELP}");
        return ExitCode::SUCCESS;
    };
    let run = || -> Result<(), String> {
        if matches!(cmd.as_str(), "help" | "--help" | "-h") {
            println!("{HELP}");
            return Ok(());
        }
        // `campaign`, `cache` and `trace` take an action word before the
        // flags, and `spans` a file.
        let actions: Vec<&str> = SUBCOMMANDS
            .iter()
            .filter_map(|(name, ..)| name.strip_prefix(cmd.as_str())?.strip_prefix(' '))
            .collect();
        let (word, flags) = if actions.is_empty() && cmd != "spans" {
            ("", rest)
        } else {
            let Some((word, flags)) = rest.split_first() else {
                return Err(if actions.is_empty() {
                    "spans needs a JSONL file (try `nbti-noc spans spans.jsonl`)".to_string()
                } else {
                    format!("{cmd} needs an action: {}", actions.join(" | "))
                });
            };
            (word.as_str(), flags)
        };
        let name = if actions.is_empty() {
            cmd.clone()
        } else {
            format!("{cmd} {word}")
        };
        let Some((_, known, handler)) = SUBCOMMANDS.iter().find(|(n, ..)| *n == name) else {
            return Err(if actions.is_empty() {
                format!("unknown subcommand `{cmd}` (try help)")
            } else {
                format!("unknown {cmd} action `{word}` ({})", actions.join(" | "))
            });
        };
        handler(word, &Args::parse(flags, known)?)
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
