//! Analyzer throughput bench: files/second and per-pass timings of a
//! full `noc-analyze` run over the workspace, appended to
//! `BENCH_analyze.json`.
//!
//! Runs the whole pipeline — lexing, item extraction, call-graph
//! construction, and every pass — so regressions in any stage show up as
//! a drop between consecutive runs. The workspace must be clean: a
//! finding here means `scripts/ci.sh` would fail too.
//!
//! Usage: `cargo run --release -p nbti-noc-bench --bin analyze_throughput`
//! `[-- --iters N]`

use nbti_noc_bench::{append_entry, existing_runs};
use noc_analyze::{analyze_root, Options};
use noc_telemetry::clock;
use std::path::Path;

fn parse_iters() -> usize {
    let mut iters = 5usize;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--iters" => {
                let value = it.next().expect("--iters needs a value");
                iters = value.parse().expect("--iters");
            }
            other => panic!("unknown argument `{other}`"),
        }
    }
    iters.max(1)
}

fn main() {
    let iters = parse_iters();
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let opts = Options::default();

    let mut files = 0usize;
    let mut fns = 0usize;
    // Per-pass totals in pipeline order (taken from the first run).
    let mut pass_ms: Vec<(String, f64)> = Vec::new();
    let started = clock::now();
    for _ in 0..iters {
        let analysis = analyze_root(&root, &opts);
        assert!(
            analysis.findings.is_empty(),
            "the workspace must be clean under noc-analyze: {:#?}",
            analysis.findings
        );
        files = analysis.files;
        fns = analysis.fns;
        for (phase, ms) in &analysis.timings_ms {
            match pass_ms.iter_mut().find(|(p, _)| p == phase) {
                Some((_, total)) => *total += ms,
                None => pass_ms.push(((*phase).to_string(), *ms)),
            }
        }
    }
    let elapsed_ms = clock::ms_since(started).max(1);
    let files_per_sec = (files * iters) as f64 * 1_000.0 / elapsed_ms as f64;

    let passes_json: Vec<String> = pass_ms
        .iter()
        .map(|(phase, total)| format!("\"{phase}\":{:.2}", total / iters as f64))
        .collect();
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_analyze.json");
    let run = existing_runs(&out) + 1;
    let entry = format!(
        "{{\"run\":{run},\"iters\":{iters},\"files\":{files},\"fns\":{fns},\
         \"elapsed_ms\":{elapsed_ms},\"files_per_sec\":{files_per_sec:.0},\
         \"pass_ms\":{{{}}}}}",
        passes_json.join(",")
    );
    append_entry(&out, &entry);
    println!(
        "analyze_throughput: {files} files / {fns} fns x{iters} in {elapsed_ms} ms \
         ({files_per_sec:.0} files/s)",
    );
    println!("appended run {run} to {}", out.display());
}
