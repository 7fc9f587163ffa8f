//! The nbti-noc performance benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim-4x4 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Builds the workload's inputs from `--seed`, measures for `--seconds`,
//! checks every op's output, and prints one JSON result line last: the
//! end-to-end metrics with `--trace 0`, the per-layer split with
//! `--trace 1`. See `perfbench/README.md` for the workloads, the metric
//! definitions and the layer map.

mod remote;
mod report;
mod rig;
mod serve;
mod sim;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

/// How many times an untraced run repeats its set-up; `setup_s` is the
/// first quartile of their times. The sims spread their set-ups over the
/// window; the service workloads run half before it and half after.
const SETUPS: usize = 10;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Scratch space for stores and checkpoints, inside the benchmark's own
/// directory and removed when the run ends.
fn work_dir(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("work")
        .join(format!("{workload}-{seed}-{}", std::process::id()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let work = work_dir(&args.workload, args.seed);
    let (s, seed, trace) = (args.seconds, args.seed, args.trace);
    let rigs = if trace {
        (1, 0)
    } else {
        (SETUPS / 2, SETUPS - SETUPS / 2)
    };
    let outcome = match (args.workload.as_str(), trace) {
        ("sim-4x4", false) => sim::run(sim::SimKind::Dense4x4, seed, s, SETUPS),
        ("sim-4x4", true) => sim::run_traced(sim::SimKind::Dense4x4, seed, s),
        ("replay-8x8-sparse", false) => sim::run(sim::SimKind::Replay8x8, seed, s, SETUPS),
        ("replay-8x8-sparse", true) => sim::run_traced(sim::SimKind::Replay8x8, seed, s),
        ("campaign-remote-2x2", _) => remote::run(seed, s, trace, rigs, &work),
        ("serve-open-2x2", _) => serve::run(seed, s, trace, rigs, &work),
        (other, _) => Err(format!(
            "unknown workload {other} (expected sim-4x4, replay-8x8-sparse, \
             campaign-remote-2x2 or serve-open-2x2)"
        )),
    };
    let _ = std::fs::remove_dir_all(&work);
    match outcome {
        Ok(report) => {
            let spans = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("spans-{}-{seed}.jsonl", args.workload));
            report.finish(trace, &spans);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
