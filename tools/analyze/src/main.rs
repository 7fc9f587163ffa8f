//! `noc-analyze` CLI.
//!
//! Usage: `cargo run -p noc-analyze [-- FLAGS]`
//!
//! - `--json`             machine-readable output
//! - `--root PATH`        scan root (default `.`)
//! - `--strict-indexing`  also report slice-indexing reachable from hot
//!   entry points (off by default; the count is always in the JSON)
//! - `--timings`          print per-pass timings to stderr
//!
//! Exits 0 when no unsuppressed finding survives, 1 otherwise, 2 on
//! usage errors.

#![deny(missing_debug_implementations)]

use std::path::PathBuf;
use std::process::ExitCode;

use noc_analyze::{analyze_root, report, Options};

fn main() -> ExitCode {
    let mut json = false;
    let mut timings = false;
    let mut root = PathBuf::from(".");
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--timings" => timings = true,
            "--strict-indexing" => opts.strict_indexing = true,
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("--root requires a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: noc-analyze [--json] [--root PATH] [--strict-indexing] [--timings]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let analysis = analyze_root(&root, &opts);
    if json {
        print!("{}", report::json(&analysis));
    } else {
        for f in &analysis.findings {
            println!("{}", report::text(f));
        }
        println!(
            "noc-analyze: {} finding(s) across {} file(s) in {}",
            analysis.findings.len(),
            analysis.files,
            root.display()
        );
    }
    if timings {
        for (phase, ms) in &analysis.timings_ms {
            eprintln!("noc-analyze: {phase}: {ms:.2} ms");
        }
    }
    if analysis.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
