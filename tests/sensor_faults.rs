//! Failure injection: the sensor-wise methodology with broken sensors.
//!
//! The `Down_Up` link carries whatever the sensors elect. These tests
//! drive the full stack with faulty sensors through a custom monitor and
//! check graceful degradation: a wrong election costs NBTI protection on
//! the true most degraded VC, but never correctness, and never does worse
//! than leaving every buffer powered.

use nbti_model::{FaultMode, FaultySensor, IdealSensor};
use nbti_noc::prelude::*;
use sensorwise::{GatingPolicy, NbtiMonitor, SensorWisePolicy};

/// Runs the sensor-wise policy with a custom monitor; returns the duty
/// cycles of router 0's east input and the delivered packet count.
fn run_with_monitor<S: nbti_model::NbtiSensor>(
    mut monitor: NbtiMonitor<S>,
    cycles: u64,
) -> (Vec<f64>, usize, u64) {
    let noc = NocConfig::paper_synthetic(4, 2);
    let mesh = Mesh2D::new(2, 2);
    let mut traffic = SyntheticTraffic::uniform(mesh, 0.3, noc.flits_per_packet, 5);
    let mut net = Network::new(noc).unwrap();
    let port_ids: Vec<PortId> = net.port_ids().to_vec();
    let mut policies: Vec<SensorWisePolicy> =
        port_ids.iter().map(|_| SensorWisePolicy::new()).collect();
    for cycle in 0..cycles {
        inject_from(&mut traffic, &mut net);
        net.begin_cycle();
        for (i, &pid) in port_ids.iter().enumerate() {
            let view = net.port_view(pid);
            let md = monitor.most_degraded(pid);
            let action = policies[i].decide(cycle, &view, md);
            net.apply_gate(pid, action);
        }
        net.finish_cycle();
        for &pid in &port_ids {
            let statuses = net.vc_statuses(pid);
            monitor.record_cycle(pid, &statuses);
        }
    }
    let east0 = PortId::router_input(NodeId(0), Direction::East);
    (
        monitor.duty_cycles_percent(east0),
        monitor.most_degraded_initial(east0),
        net.stats().packets_ejected,
    )
}

fn monitor_with<S: nbti_model::NbtiSensor>(make: impl FnMut(usize, usize) -> S) -> NbtiMonitor<S> {
    let noc = NocConfig::paper_synthetic(4, 2);
    let net = Network::new(noc).unwrap();
    let mut pv = ProcessVariation::paper_45nm(42);
    NbtiMonitor::build(
        net.port_ids(),
        2,
        &mut pv,
        LongTermModel::calibrated_45nm(),
        make,
    )
}

const CYCLES: u64 = 15_000;

#[test]
fn stuck_sensors_keep_the_network_functional() {
    let monitor = monitor_with(|p, v| {
        FaultySensor::new(IdealSensor::new(), FaultMode::Stuck, (p * 7 + v) as u64)
    });
    let (duty, _md, delivered) = run_with_monitor(monitor, CYCLES);
    assert!(delivered > 500, "stuck sensors must not break the NoC");
    // Gating still happens — duty cycles below the always-on baseline.
    assert!(duty.iter().all(|&d| d < 100.0), "{duty:?}");
}

#[test]
fn stuck_sensors_still_protect_via_initial_ordering() {
    // A stuck sensor repeats its *first* reading, which is the initial
    // (process-variation) Vth — so the election stays correct as long as
    // aging has not reordered the buffers. This is exactly the paper's
    // regime, so protection is preserved.
    let ideal = monitor_with(|_, _| IdealSensor::new());
    let (duty_ideal, md, _) = run_with_monitor(ideal, CYCLES);
    let stuck = monitor_with(|p, v| {
        FaultySensor::new(IdealSensor::new(), FaultMode::Stuck, (p * 31 + v) as u64)
    });
    let (duty_stuck, md2, _) = run_with_monitor(stuck, CYCLES);
    assert_eq!(md, md2);
    assert!((duty_ideal[md] - duty_stuck[md]).abs() < 2.0);
}

#[test]
fn erratic_sensors_degrade_gracefully() {
    let erratic = |p: f64, seed_mul: usize| {
        monitor_with(move |pi, v| {
            FaultySensor::new(
                IdealSensor::new(),
                FaultMode::Erratic {
                    p,
                    lo: Volt::from_volts(0.16),
                    hi: Volt::from_volts(0.20),
                },
                (pi * seed_mul + v) as u64,
            )
        })
    };
    let (duty_clean, md, delivered_clean) = run_with_monitor(erratic(0.0, 13), CYCLES);
    let (duty_noisy, _, delivered_noisy) = run_with_monitor(erratic(0.9, 13), CYCLES);
    // Functionality unaffected.
    assert!(delivered_noisy > delivered_clean / 2);
    // Protection of the true MD VC is weaker with a randomized election...
    assert!(
        duty_noisy[md] >= duty_clean[md] - 1.0,
        "noisy {:.2} vs clean {:.2}",
        duty_noisy[md],
        duty_clean[md]
    );
    // ...but the buffer never does worse than an always-on baseline.
    assert!(duty_noisy[md] < 100.0);
}
