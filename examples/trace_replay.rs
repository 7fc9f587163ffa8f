//! Trace record and replay: capture a stochastic workload once, then feed
//! the *identical* flit arrival sequence to two different policies — the
//! cleanest way to attribute duty-cycle differences to the policy alone.
//!
//! ```sh
//! cargo run --release --example trace_replay
//! ```

use nbti_noc::prelude::*;
use nbti_noc::workload::{decode_trace, record_source, TraceRecord, TraceSource};
use sensorwise::PortResult;

fn run_with(records: Vec<TraceRecord>, policy: PolicyKind) -> (PortResult, u64) {
    let noc = NocConfig::paper_synthetic(4, 2);
    let mut replay = TraceSource::from_records(records, "replay");
    let cfg = ExperimentConfig::new(noc, policy)
        .with_cycles(1_000, 15_000)
        .with_pv_seed(31337);
    let result = run_experiment(&cfg, &mut replay);
    (
        result.east_input(NodeId(0)).clone(),
        result.net.packets_ejected,
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Record a bursty application workload as an NBTITRC trace.
    let mesh = Mesh2D::square(2);
    let mix = BenchmarkMix::from_names(&["fft", "radix", "crc", "ocean"]);
    let writer = record_source(&mut AppTraffic::new(mesh, &mix, 5), 4, 16_000)?;
    println!(
        "recorded {} packets from mix `{}`",
        writer.len(),
        mix.label()
    );

    // 2. Round-trip through the on-disk format (demonstrates persistence).
    let bytes = writer.finish();
    let (_, records) = decode_trace(&bytes)?;
    println!(
        "trace round-trips through the NBTITRC format ({} bytes)",
        bytes.len()
    );

    // 3. Replay the identical arrivals under both policies.
    println!(
        "\n{:<16} {:>8} {:>8} {:>6} {:>10}",
        "policy", "VC0", "VC1", "MD", "delivered"
    );
    for policy in [PolicyKind::RrNoSensor, PolicyKind::SensorWise] {
        let (port, delivered) = run_with(records.clone(), policy);
        println!(
            "{:<16} {:>7.1}% {:>7.1}% {:>6} {:>10}",
            policy.label(),
            port.duty_percent[0],
            port.duty_percent[1],
            format!("VC{}", port.md_vc),
            delivered
        );
    }
    println!("\nsame arrivals, same Vth sample — the duty difference is pure policy.");
    Ok(())
}
