//! NBTI/performance trade-off: the `sensor-wise-k` extension.
//!
//! The paper keeps exactly one idle VC awake per port (enough for
//! correctness, since one flit crosses each link per cycle) but that
//! serializes new-packet VC allocation. Keeping `k` idle VCs awake lets
//! bursty traffic allocate several VCs at once — buying latency at the
//! cost of NBTI stress. This sweep quantifies the trade under bursty
//! application traffic.

use nbti_noc_bench::RunOptions;
use noc_sim::config::NocConfig;
use noc_sim::types::NodeId;
use noc_traffic::app::BenchmarkMix;
use sensorwise::{
    run_batch, ExperimentConfig, ExperimentJob, ExperimentResult, PolicyKind, TrafficSpec,
};

fn job(policy: PolicyKind, opts: &RunOptions) -> ExperimentJob {
    let noc = NocConfig::paper_synthetic(16, 4);
    let mix = BenchmarkMix::from_names(&[
        "radix", "fft", "ocean", "radix", "fft", "lu", "radix", "ocean", "fft", "radix", "lu",
        "ocean", "radix", "fft", "ocean", "radix",
    ]);
    ExperimentJob {
        cfg: ExperimentConfig::new(noc, policy)
            .with_cycles(opts.warmup, opts.measure)
            .with_pv_seed(0xCAFE),
        traffic: TrafficSpec::Mix { mix, seed: 7 },
    }
}

fn summarize(r: &ExperimentResult) -> (f64, f64, f64) {
    let port = r.east_input(NodeId(5));
    let avg_duty = port.duty_percent.iter().sum::<f64>() / port.duty_percent.len() as f64;
    (
        port.md_duty(),
        avg_duty,
        r.net.avg_latency().unwrap_or(f64::NAN),
    )
}

fn main() {
    let opts = RunOptions::parse(std::env::args().skip(1));
    let scaled = RunOptions {
        measure: opts.measure.min(80_000),
        ..opts
    };
    eprintln!("[ablation_tradeoff] {scaled}");
    println!("=== NBTI/performance trade-off: sensor-wise-k (16 cores, 4 VCs, bursty mix) ===\n");
    println!(
        "{:<18} {:>10} {:>10} {:>12}",
        "policy", "MD duty", "avg duty", "avg latency"
    );
    let policies: Vec<(String, PolicyKind)> =
        std::iter::once(("baseline".into(), PolicyKind::Baseline))
            .chain((1u8..=4).map(|k| (format!("sensor-wise-k{k}"), PolicyKind::SensorWiseK(k))))
            .collect();
    let batch: Vec<ExperimentJob> = policies.iter().map(|(_, p)| job(*p, &scaled)).collect();
    let results = run_batch(&batch, scaled.jobs);
    let runs: Vec<(String, (f64, f64, f64))> = policies
        .iter()
        .zip(&results)
        .map(|((name, _), r)| (name.clone(), summarize(r)))
        .collect();
    for (name, (md, avg, lat)) in &runs {
        println!("{name:<18} {md:>9.1}% {avg:>9.1}% {lat:>12.1}");
    }
    println!(
        "\nreading: k slides from the paper's sensor-wise point (k=1, least\n\
         stress) towards the baseline. At these loads the single-designation\n\
         bottleneck is hidden by the router pipeline — latency barely moves\n\
         while MD stress grows with k — which supports the paper's choice of\n\
         keeping exactly one idle VC."
    );
}
