//! Campaign throughput bench: epochs/sec through the full lifetime loop —
//! epoch simulation, ledger integration, checkpoint encode + fsync-free
//! save — appended to `BENCH_campaign.json`.
//!
//! Each invocation runs one multi-epoch campaign of the standard 4-core
//! scenario, checkpointing after every epoch exactly as `campaign run`
//! does, and records wall time, epochs/sec, checkpoint size and the final
//! chained digest. Regressions in the epoch loop or the snapshot codec
//! show up as a drop between consecutive runs.
//!
//! Usage: `cargo run --release -p nbti-noc-bench --bin campaign_epochs`
//! `[-- --epochs N --measure N --warmup N --rate R]`

use nbti_noc_bench::{append_entry, existing_runs, CampaignBench};
use noc_campaign::Campaign;
use noc_telemetry::clock;
use std::fs;
use std::path::Path;

fn main() {
    let bench = CampaignBench::from_env();
    let ckpt = std::env::temp_dir().join(format!("bench-campaign-{}.ckpt", std::process::id()));
    let mut campaign = Campaign::new(bench.spec()).expect("bench spec is valid");

    let started = clock::now();
    let reports = campaign
        .run_to_completion(None, Some(&ckpt))
        .expect("campaign completes");
    let elapsed_ms = clock::ms_since(started).max(1);

    assert_eq!(reports.len() as u32, bench.epochs);
    let checkpoint_bytes = fs::metadata(&ckpt).map(|m| m.len()).unwrap_or(0);
    let _ = fs::remove_file(&ckpt);

    let simulated_cycles = campaign.current_cycle().unwrap_or(0);
    let epochs_per_sec = f64::from(bench.epochs) * 1_000.0 / elapsed_ms as f64;
    let kcycles_per_sec = simulated_cycles as f64 / elapsed_ms as f64;
    let max_delta = reports
        .iter()
        .map(|r| r.max_delta_vth_mv)
        .fold(0.0f64, f64::max);

    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_campaign.json");
    let run = existing_runs(&out) + 1;
    let entry = format!(
        "{{\"run\":{run},\"mode\":\"local\",\"epochs\":{},\"measure_cycles\":{},\"warmup_cycles\":{},\
         \"rate\":{},\"elapsed_ms\":{elapsed_ms},\"epochs_per_sec\":{epochs_per_sec:.2},\
         \"kcycles_per_sec\":{kcycles_per_sec:.1},\"simulated_cycles\":{simulated_cycles},\
         \"checkpoint_bytes\":{checkpoint_bytes},\"max_delta_vth_mv\":{max_delta:.4},\
         \"chained_digest\":\"{:016x}\"}}",
        bench.epochs,
        bench.measure,
        bench.warmup,
        bench.rate,
        campaign.chained_digest()
    );
    append_entry(&out, &entry);
    println!(
        "campaign_epochs: {} epochs in {elapsed_ms} ms ({epochs_per_sec:.2} epochs/s, \
         {kcycles_per_sec:.1} kcycles/s), checkpoint {checkpoint_bytes} B, \
         max dVth {max_delta:.4} mV, chained digest {:016x}",
        bench.epochs,
        campaign.chained_digest()
    );
    println!("appended run {run} to {}", out.display());
}
