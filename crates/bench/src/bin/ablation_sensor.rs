//! Sensor-fidelity ablation: how much sensor quality does the sensor-wise
//! policy actually need?
//!
//! The paper assumes the Singh et al. 45 nm sensor delivers a clean
//! most-degraded election. Here the sensor resolution (LSB) and read noise
//! are swept from ideal to badly degraded; the metric is the sensor-wise
//! duty cycle on the *true* most degraded VC. With process-variation σ of
//! 5 mV, noise well below 5 mV barely matters; noise comparable to σ makes
//! the election random and the MD protection collapses towards the
//! rr-no-sensor level.

use nbti_model::Volt;
use nbti_noc_bench::RunOptions;
use noc_sim::types::NodeId;
use sensorwise::{
    run_batch, ExperimentConfig, ExperimentJob, PolicyKind, SensorModel, SyntheticScenario,
    TrafficSpec,
};

fn job(sensor: SensorModel, opts: &RunOptions) -> ExperimentJob {
    let scenario = SyntheticScenario {
        cores: 4,
        vcs: 4,
        injection_rate: 0.2,
    };
    let noc = noc_sim::config::NocConfig::paper_synthetic(scenario.cores, scenario.vcs);
    ExperimentJob {
        cfg: ExperimentConfig {
            sensor,
            ..ExperimentConfig::new(noc, PolicyKind::SensorWise)
                .with_cycles(opts.warmup, opts.measure)
                .with_pv_seed(scenario.seed())
        },
        traffic: TrafficSpec::Uniform {
            rate: scenario.effective_rate(),
            seed: scenario.seed() ^ 0x7261_6666,
        },
    }
}

fn main() {
    let opts = RunOptions::parse(std::env::args().skip(1));
    let scaled = RunOptions {
        measure: opts.measure.min(60_000),
        ..opts
    };
    eprintln!("[ablation_sensor] {scaled}");
    println!("=== Sensor fidelity ablation (4core-inj0.20, 4 VCs, sensor-wise) ===");
    println!("PV sigma is 5 mV; the MD election only needs to beat that spread.\n");
    println!("{:<34} {:>18}", "sensor", "MD-VC duty cycle");

    let grid = [
        (0.5, 0.25, 10_000u64), // the Singh sensor ballpark
        (1.0, 0.5, 10_000),
        (2.0, 2.0, 10_000),
        (5.0, 5.0, 10_000),
        (10.0, 10.0, 10_000),
    ];
    let sensors: Vec<SensorModel> = std::iter::once(SensorModel::Ideal)
        .chain(
            grid.iter()
                .map(|&(lsb_mv, noise_mv, period)| SensorModel::Quantized {
                    lsb: Volt::from_millivolts(lsb_mv),
                    noise_sigma: Volt::from_millivolts(noise_mv),
                    period,
                }),
        )
        .collect();
    let batch: Vec<ExperimentJob> = sensors.iter().map(|&s| job(s, &scaled)).collect();
    let results = run_batch(&batch, scaled.jobs);
    println!(
        "{:<34} {:>17.1}%",
        "ideal",
        results[0].east_input(NodeId(0)).md_duty()
    );
    for (&(lsb_mv, noise_mv, _), r) in grid.iter().zip(&results[1..]) {
        println!(
            "{:<34} {:>17.1}%",
            format!("lsb {lsb_mv} mV, noise {noise_mv} mV"),
            r.east_input(NodeId(0)).md_duty()
        );
    }
    println!(
        "\nreading: two failure modes are visible. Gaussian read noise \
         comparable\nto the 5 mV process-variation spread randomizes the \
         election and erodes\nprotection gradually. Quantization has a dead \
         zone: when the margin\nbetween the two most-degraded buffers falls \
         inside one LSB they share a\ncode and the tie breaks by index — \
         possibly persistently wrong, which\nis why a coarse-but-quiet sensor \
         can do worse than a noisier one whose\ndither re-randomizes the tie."
    );
}
