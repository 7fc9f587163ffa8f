//! Shared helpers for the table-regeneration binaries.
//!
//! Every binary accepts the same flags:
//!
//! * `--measure <cycles>` — measured cycles per run,
//! * `--warmup <cycles>` — warm-up cycles discarded before measuring,
//! * `--iterations <n>` — benchmark-mix iterations (Table IV only),
//! * `--seed <n>` — base seed,
//! * `--jobs <n>` — worker threads for the parallel experiment engine
//!   (default: available parallelism; results are bit-identical for any
//!   value ≥ 1).
//!
//! Defaults are sized so the full table regenerates in minutes on a laptop;
//! pass the paper's `--measure 30000000` for the full-length runs.
//!
//! The throughput binaries record their runs with [`append_entry`] and
//! number them with [`existing_runs`]; the two campaign benches share
//! [`CampaignBench`].

#![deny(missing_debug_implementations)]
#![warn(
    clippy::semicolon_if_nothing_returned,
    clippy::explicit_iter_loop,
    clippy::redundant_closure_for_method_calls,
    clippy::manual_let_else
)]

use noc_campaign::CampaignSpec;
use sensorwise::{PolicyKind, SyntheticScenario};
use std::fmt;
use std::fs;
use std::path::Path;

/// Parsed command-line options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// Measured cycles per experiment run.
    pub measure: u64,
    /// Warm-up cycles per experiment run.
    pub warmup: u64,
    /// Iterations for averaged experiments.
    pub iterations: usize,
    /// Base seed.
    pub seed: u64,
    /// Worker threads for the parallel experiment engine.
    pub jobs: usize,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            measure: 200_000,
            warmup: 20_000,
            iterations: 10,
            seed: 0xDA7E_2013,
            jobs: sensorwise::default_jobs(),
        }
    }
}

impl fmt::Display for RunOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "warmup={} measure={} iterations={} seed={:#x} jobs={}",
            self.warmup, self.measure, self.iterations, self.seed, self.jobs
        )
    }
}

impl RunOptions {
    /// Parses options from an iterator of arguments (usually
    /// `std::env::args().skip(1)`).
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments, including
    /// `--jobs 0`.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut opts = RunOptions::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut next_u64 = |name: &str| -> u64 {
                it.next()
                    .unwrap_or_else(|| panic!("{name} requires a value"))
                    .parse()
                    .unwrap_or_else(|e| panic!("bad value for {name}: {e}"))
            };
            match flag.as_str() {
                "--measure" => opts.measure = next_u64("--measure"),
                "--warmup" => opts.warmup = next_u64("--warmup"),
                "--iterations" => opts.iterations = next_u64("--iterations") as usize,
                "--seed" => opts.seed = next_u64("--seed"),
                "--jobs" => {
                    opts.jobs = sensorwise::validate_jobs(next_u64("--jobs") as usize)
                        .unwrap_or_else(|e| panic!("{e}"));
                }
                "--help" | "-h" => {
                    println!(
                        "flags: --measure <cycles> --warmup <cycles> --iterations <n> --seed <n> --jobs <n>"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag `{other}` (try --help)"),
            }
        }
        opts
    }

    /// Parses from the process arguments.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// A scaled-down copy for quick runs (used by tests). Serial, so test
    /// timings don't depend on the host's core count.
    pub fn quick() -> Self {
        RunOptions {
            measure: 10_000,
            warmup: 1_000,
            iterations: 2,
            seed: 7,
            jobs: 1,
        }
    }
}

/// The campaign the `campaign_epochs` and `campaign_remote` benches run,
/// from their shared flags `--epochs N --measure N --warmup N --rate R`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignBench {
    /// Epochs per campaign.
    pub epochs: u32,
    /// Measured cycles per epoch.
    pub measure: u64,
    /// Warm-up cycles per epoch.
    pub warmup: u64,
    /// Nominal injection rate.
    pub rate: f64,
}

impl CampaignBench {
    /// Parses the process arguments.
    ///
    /// # Panics
    ///
    /// Panics on an unknown flag or a malformed value.
    pub fn from_env() -> Self {
        let mut cfg = CampaignBench {
            epochs: 8,
            measure: 5_000,
            warmup: 500,
            rate: 0.15,
        };
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let value = it.next().map(|v| v.as_str()).unwrap_or("");
            match arg.as_str() {
                "--epochs" => cfg.epochs = value.parse().expect("--epochs"),
                "--measure" => cfg.measure = value.parse().expect("--measure"),
                "--warmup" => cfg.warmup = value.parse().expect("--warmup"),
                "--rate" => cfg.rate = value.parse().expect("--rate"),
                other => panic!("unknown argument `{other}`"),
            }
        }
        cfg
    }

    /// The standard 4-core sensor-wise campaign at this configuration.
    pub fn spec(&self) -> CampaignSpec {
        let scenario = SyntheticScenario {
            cores: 4,
            vcs: 2,
            injection_rate: self.rate,
        };
        let mut base = scenario.job(PolicyKind::SensorWise, self.warmup, self.measure);
        base.traffic = base.traffic.with_seed(1);
        CampaignSpec {
            base,
            epochs: self.epochs,
            age_acceleration: 1.0e9,
            drain_limit: 10_000,
        }
    }
}

/// Appends `entry` to the JSON array in the `BENCH_*.json` file at
/// `path`, creating the file on first run.
///
/// # Panics
///
/// Panics when the file cannot be written.
pub fn append_entry(path: &Path, entry: &str) {
    let body = match fs::read_to_string(path) {
        Ok(existing) => {
            let trimmed = existing.trim_end().trim_end_matches(']').trim_end();
            let trimmed = trimmed.trim_end_matches(',');
            format!("{trimmed},\n  {entry}\n]\n")
        }
        Err(_) => format!("[\n  {entry}\n]\n"),
    };
    fs::write(path, body).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

/// Entries already recorded in `path`, for the monotone run index.
pub fn existing_runs(path: &Path) -> u64 {
    fs::read_to_string(path)
        .map(|s| s.matches("\"run\":").count() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_entries_append_to_one_json_array() {
        let dir = std::env::temp_dir().join(format!("nbti-bench-lib-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        fs::remove_file(&path).ok();
        assert_eq!(existing_runs(&path), 0);
        append_entry(&path, "{\"run\":1}");
        append_entry(&path, "{\"run\":2}");
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            "[\n  {\"run\":1},\n  {\"run\":2}\n]\n"
        );
        assert_eq!(existing_runs(&path), 2);
        fs::remove_dir_all(&dir).ok();
    }

    fn parse(args: &[&str]) -> RunOptions {
        RunOptions::parse(args.iter().map(std::string::ToString::to_string))
    }

    #[test]
    fn defaults_without_flags() {
        assert_eq!(parse(&[]), RunOptions::default());
        assert!(RunOptions::default().jobs >= 1);
    }

    #[test]
    fn flags_override_defaults() {
        let o = parse(&[
            "--measure",
            "5000",
            "--warmup",
            "100",
            "--iterations",
            "3",
            "--seed",
            "9",
            "--jobs",
            "4",
        ]);
        assert_eq!(o.measure, 5000);
        assert_eq!(o.warmup, 100);
        assert_eq!(o.iterations, 3);
        assert_eq!(o.seed, 9);
        assert_eq!(o.jobs, 4);
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn unknown_flag_panics() {
        let _ = parse(&["--bogus"]);
    }

    #[test]
    #[should_panic(expected = "requires a value")]
    fn missing_value_panics() {
        let _ = parse(&["--measure"]);
    }

    #[test]
    #[should_panic(expected = "--jobs must be at least 1")]
    fn zero_jobs_panics() {
        let _ = parse(&["--jobs", "0"]);
    }
}
