//! End-to-end telemetry tests: the observability layer must describe the
//! run without perturbing it, and its event stream must be bit-stable
//! across traffic delivery mechanisms and serialization round-trips.

use nbti_noc::prelude::*;
use nbti_noc::telemetry::EventDigest;
use nbti_noc::workload::{decode_trace, record_source, TraceSource};

fn spec() -> TelemetrySpec {
    TelemetrySpec {
        trace: true,
        trace_capacity: 0,
        sample_period: 500,
    }
}

fn traced_cfg() -> ExperimentConfig {
    ExperimentConfig::new(
        NocConfig::paper_synthetic(4, 2),
        PolicyKind::SensorWise,
    )
    .with_cycles(200, 2_000)
    .with_telemetry(spec())
}

/// Live synthetic traffic and a recorded-then-replayed trace of the same
/// stream drive bit-identical event streams.
#[test]
fn live_and_replayed_traffic_produce_the_same_digest() {
    let total = 2_200;
    let mut recorded = SyntheticTraffic::uniform(Mesh2D::new(2, 2), 0.25, 5, 42);
    let bytes = record_source(&mut recorded, 4, total).unwrap().finish();
    let (_, records) = decode_trace(&bytes).unwrap();
    let cfg = traced_cfg();
    let mut live = SyntheticTraffic::uniform(Mesh2D::new(2, 2), 0.25, 5, 42);
    let a = run_experiment(&cfg, &mut live);
    let mut replay = TraceSource::from_records(records, "replay");
    let b = run_experiment(&cfg, &mut replay);
    assert!(a.trace_digest().is_some());
    assert_eq!(a.trace_digest(), b.trace_digest());
    assert_eq!(a.net, b.net);
    assert_eq!(a.work, b.work);
    assert_eq!(a.telemetry, b.telemetry, "events and series both match");
}

/// Writing the harvested events as JSONL and parsing them back loses
/// nothing: the events compare equal and re-hashing reproduces the digest.
#[test]
fn jsonl_round_trip_preserves_events_and_digest() {
    let mut traffic = SyntheticTraffic::uniform(Mesh2D::new(2, 2), 0.2, 5, 9);
    let r = run_experiment(&traced_cfg(), &mut traffic);
    let log = r.telemetry.expect("telemetry on").trace.expect("trace on");
    assert!(log.total > 0);
    assert_eq!(log.events.len() as u64, log.total, "unbounded sink keeps all");
    let mut text = String::new();
    for ev in &log.events {
        ev.write_jsonl(&mut text);
    }
    let parsed = read_jsonl(&text).expect("own output parses");
    assert_eq!(parsed, log.events);
    assert_eq!(EventDigest::of(&parsed), log.digest);
}

/// Turning telemetry on must not change what the experiment measures.
#[test]
fn telemetry_is_invisible_to_the_measured_run() {
    let run = |telemetry: TelemetrySpec| {
        let mut traffic = SyntheticTraffic::uniform(Mesh2D::new(2, 2), 0.15, 5, 3);
        let cfg = traced_cfg().with_telemetry(telemetry);
        run_experiment(&cfg, &mut traffic)
    };
    let off = run(TelemetrySpec::default());
    let on = run(spec());
    assert!(off.telemetry.is_none());
    assert_eq!(off.net, on.net);
    assert_eq!(off.ports, on.ports);
    assert_eq!(off.work, on.work, "counters are identical either way");
}
