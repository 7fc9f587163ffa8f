//! Campaign acceptance tests: checkpoint/resume determinism across the
//! policy matrix, and the lifetime aging-feedback loop.

use noc_campaign::{Campaign, CampaignSpec};
use sensorwise::policy::PolicyKind;
use sensorwise::{ExperimentConfig, ExperimentJob, TrafficSpec};

const POLICY_MATRIX: [PolicyKind; 4] = [
    PolicyKind::Baseline,
    PolicyKind::RrNoSensor,
    PolicyKind::SensorWiseNoTraffic,
    PolicyKind::SensorWise,
];

fn spec(policy: PolicyKind, epochs: u32) -> CampaignSpec {
    CampaignSpec {
        base: ExperimentJob {
            cfg: ExperimentConfig::new(noc_sim::config::NocConfig::paper_synthetic(4, 2), policy)
                .with_cycles(300, 2_000)
                .with_pv_seed(7),
            traffic: TrafficSpec::Uniform {
                rate: 0.15,
                seed: 0xC0FFEE,
            },
        },
        epochs,
        age_acceleration: 1.0e9,
        drain_limit: 10_000,
    }
}

fn tmp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("nbticamp-{}-{tag}.ckpt", std::process::id()))
}

/// For every policy in the matrix: a campaign killed at an epoch boundary
/// and resumed from its checkpoint finishes with bit-identical epoch
/// digests, chained digest, per-buffer ledger state and network state.
#[test]
fn resume_is_bit_identical_for_every_policy() {
    for policy in POLICY_MATRIX {
        let spec = spec(policy, 4);

        let mut uninterrupted = Campaign::new(spec.clone()).unwrap();
        let straight = uninterrupted.run_to_completion(None, None).unwrap();
        assert_eq!(straight.len(), 4);

        let path = tmp_path(&format!("{policy:?}"));
        let mut first_half = Campaign::new(spec).unwrap();
        first_half.run_next_epoch(None).unwrap();
        first_half.run_next_epoch(None).unwrap();
        first_half.save(&path).unwrap();
        drop(first_half); // the "kill": only the checkpoint survives

        let mut resumed = Campaign::load(&path).unwrap();
        assert_eq!(resumed.completed(), 2);
        let rest = resumed.run_to_completion(None, None).unwrap();
        assert_eq!(rest.len(), 2);

        // Epoch boundaries: cycle + per-epoch digest, in order.
        assert_eq!(
            resumed.epoch_ends(),
            uninterrupted.epoch_ends(),
            "policy {policy:?}: epoch boundaries diverged after resume"
        );
        // The chained determinism witness.
        assert_eq!(
            resumed.chained_digest(),
            uninterrupted.chained_digest(),
            "policy {policy:?}: chained digest diverged after resume"
        );
        // Per-buffer ΔVth walker state, bit for bit.
        assert_eq!(
            resumed.ledger().unwrap().vc_states(),
            uninterrupted.ledger().unwrap().vc_states(),
            "policy {policy:?}: ledger state diverged after resume"
        );
        // And the entire encoded state (network snapshot included).
        assert_eq!(
            resumed.encode(),
            uninterrupted.encode(),
            "policy {policy:?}: encoded campaign state diverged after resume"
        );
        // Resumed epochs reported the same digests the straight run saw.
        assert_eq!(rest[0].digest, straight[2].digest);
        assert_eq!(rest[1].digest, straight[3].digest);
        assert_eq!(rest[1].chained_digest, straight[3].chained_digest);

        let _ = std::fs::remove_file(&path);
    }
}

/// Epochs genuinely chain: simulated time advances monotonically across
/// boundaries, every epoch drains cleanly, and no invariants fire.
#[test]
fn epochs_advance_cleanly() {
    let mut campaign = Campaign::new(spec(PolicyKind::SensorWise, 3)).unwrap();
    let reports = campaign.run_to_completion(None, None).unwrap();
    let mut last_cycle = 0;
    for report in &reports {
        assert!(
            report.end_cycle > last_cycle,
            "epoch {} ended at {} after {}",
            report.index,
            report.end_cycle,
            last_cycle
        );
        last_cycle = report.end_cycle;
        assert_eq!(report.result.invariant_violations, 0);
        assert!(
            report.result.packets_injected > 0,
            "epoch must carry traffic"
        );
    }
    assert_eq!(campaign.current_cycle(), Some(last_cycle));
}

/// The Table II metric over a campaign: mean ΔVth of each port's
/// *initially most-degraded* VC buffer (the buffer the paper's policies
/// exist to protect).
fn mean_md_delta_mv(campaign: &Campaign) -> f64 {
    let ledger = campaign.ledger().expect("campaign ran");
    let deltas = ledger.delta_vths();
    let aged = ledger.aged_vths();
    let mut sum = 0.0;
    for (aged_row, delta_row) in aged.iter().zip(&deltas) {
        // Initial Vth = aged − accumulated shift; the max identifies the
        // buffer that started most degraded (same PV seed ⇒ same buffer
        // under every policy).
        let md = aged_row
            .iter()
            .zip(delta_row)
            .map(|(a, d)| *a - *d)
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite Vth"))
            .map(|(i, _)| i)
            .expect("ports have VCs");
        sum += delta_row[md].as_millivolts();
    }
    sum / aged.len() as f64
}

/// The aging feedback loop is live: the unaware baseline's ΔVth grows
/// monotonically epoch over epoch while gating policies hold every epoch
/// strictly below it, per-buffer trajectories diverge under gating, and
/// the protected (initially most-degraded) buffers order as in the
/// paper's Table II — baseline worst, rr-no-sensor better, sensor-wise
/// best.
#[test]
fn aging_trajectories_diverge_and_order_by_policy() {
    let epochs = 4;
    let mut campaigns = Vec::new();
    let mut report_sets = Vec::new();
    for policy in [
        PolicyKind::Baseline,
        PolicyKind::RrNoSensor,
        PolicyKind::SensorWise,
    ] {
        let mut campaign = Campaign::new(spec(policy, epochs)).unwrap();
        let reports = campaign.run_to_completion(None, None).unwrap();
        assert!(
            reports.last().unwrap().max_delta_vth_mv > 0.0,
            "policy {policy:?}: no aging after {epochs} epochs"
        );

        // Per-buffer divergence: the baseline stresses every powered
        // buffer alike (one shared trajectory); gating policies rotate
        // recovery, so their buffers' trajectories split.
        let deltas: Vec<f64> = campaign
            .ledger()
            .unwrap()
            .delta_vths()
            .iter()
            .flatten()
            .map(|v| v.as_millivolts())
            .collect();
        let min = deltas.iter().copied().fold(f64::INFINITY, f64::min);
        let max = deltas.iter().copied().fold(0.0, f64::max);
        if policy == PolicyKind::Baseline {
            assert!(
                max - min < 1e-9,
                "baseline buffers should age in lockstep ({min}..{max} mV)"
            );
        } else {
            assert!(
                max > min,
                "policy {policy:?}: all buffers aged identically ({max} mV)"
            );
        }
        campaigns.push(campaign);
        report_sets.push(reports);
    }

    // The unprotected baseline only ever accumulates shift: strictly
    // monotone epoch over epoch.
    let baseline_traj: Vec<f64> = report_sets[0].iter().map(|r| r.max_delta_vth_mv).collect();
    for pair in baseline_traj.windows(2) {
        assert!(
            pair[1] > pair[0],
            "baseline ΔVth must grow every epoch: {baseline_traj:?}"
        );
    }
    // Gating policies hold every epoch strictly below the baseline's.
    for (reports, name) in report_sets[1..].iter().zip(["rr", "sensor-wise"]) {
        for (gated, unaware) in reports.iter().zip(&report_sets[0]) {
            assert!(
                gated.max_delta_vth_mv < unaware.max_delta_vth_mv,
                "{name} epoch {} not below baseline: {} vs {}",
                gated.index,
                gated.max_delta_vth_mv,
                unaware.max_delta_vth_mv
            );
        }
    }

    // Table II ordering on the protected buffers, strict at every step.
    let baseline = mean_md_delta_mv(&campaigns[0]);
    let rr = mean_md_delta_mv(&campaigns[1]);
    let sw = mean_md_delta_mv(&campaigns[2]);
    assert!(
        baseline > rr && rr > sw,
        "Table II ordering violated on most-degraded buffers: \
         baseline {baseline} mV, rr {rr} mV, sensor-wise {sw} mV"
    );
}

/// The sensor feedback changes behaviour: with aged Vths, later epochs
/// elect different most-degraded VCs than a no-feedback rerun of epoch 0
/// would, i.e. epoch digests are not all equal.
#[test]
fn epochs_are_distinct_because_state_feeds_forward() {
    let mut campaign = Campaign::new(spec(PolicyKind::SensorWise, 3)).unwrap();
    let reports = campaign.run_to_completion(None, None).unwrap();
    let digests: Vec<u64> = reports.iter().map(|r| r.digest).collect();
    assert_ne!(digests[0], digests[1]);
    assert_ne!(digests[1], digests[2]);
}

/// The campaign counterpart of the topology work/duty goldens: a
/// sensor-wise chain whose chained digest and last-epoch `work_total`
/// were captured on the every-port-every-cycle engine. `work_total` sums
/// the network's own counters (carried across epochs by the snapshot)
/// with the engine's, so a counter booked in the wrong place moves it.
#[test]
fn sensor_wise_chain_matches_its_golden_digest_and_work_total() {
    let mut campaign = Campaign::new(spec(PolicyKind::SensorWise, 3)).unwrap();
    let reports = campaign.run_to_completion(None, None).unwrap();
    let last = reports.last().expect("three epochs ran");
    assert_eq!(campaign.chained_digest(), 0xc2c4_4e31_88a6_4a96);
    assert_eq!(last.result.work_total, 177_710);
}
