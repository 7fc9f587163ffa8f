//! The NBTI mitigation policies (the paper's Section III).
//!
//! Every policy is a per-port controller implementing the pre-VA stage of
//! one upstream/downstream port pair. Each cycle it receives the paper's
//! three information sources — the output VC state, the
//! `is_new_traffic_outport_x()` predicate (both in the [`PortView`]) and
//! the most-degraded VC identifier from the `Down_Up` sensor link — and
//! produces the `Up_Down` payload as a [`GateAction`].
//!
//! | Policy | Sensors | Traffic info | Paper reference |
//! |---|---|---|---|
//! | [`BaselinePolicy`] | – | – | NBTI-unaware Garnet baseline |
//! | [`RrNoSensorPolicy`] | – | yes | Algorithm 1 (*rr-no-sensor*) |
//! | [`SensorWisePolicy`] (no traffic) | yes | forced to 1 | *sensor-wise-no-traffic* |
//! | [`SensorWisePolicy`] | yes | yes | Algorithm 2 (*sensor-wise*) |

use noc_sim::view::{GateAction, PortView};
use std::fmt;

/// A per-port gating controller.
///
/// `most_degraded` is the VC identifier carried by the `Down_Up` link —
/// the downstream router's sensor election. Sensor-less policies ignore it.
pub trait GatingPolicy {
    /// Computes this cycle's `Up_Down` payload for the port.
    ///
    /// The result must be a function of `view` and `most_degraded` alone
    /// between two cycles [`next_change`](Self::next_change) names: the
    /// experiment engine reuses a port's last action while those two are
    /// unchanged (and the action's last application changed nothing), and
    /// decides every port again on the cycle `next_change` reported.
    fn decide(&mut self, cycle: u64, view: &PortView, most_degraded: usize) -> GateAction;

    /// The first cycle after `cycle` on which `decide` may answer the same
    /// view and MD VC differently, or `u64::MAX` for never. The default is
    /// never: the decision ignores the cycle.
    fn next_change(&self, _cycle: u64, _num_vcs: usize) -> u64 {
        u64::MAX
    }

    /// The policy's short name, matching the paper's terminology.
    fn name(&self) -> &'static str;
}

/// Which policy to instantiate; the value used by experiment configs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// NBTI-unaware: all buffers always powered.
    Baseline,
    /// Algorithm 1: round-robin recovery without sensors.
    RrNoSensor,
    /// Algorithm 2 with the traffic predicate forced to 1.
    SensorWiseNoTraffic,
    /// Algorithm 2: the paper's contribution.
    SensorWise,
    /// Extension: Algorithm 2 generalized to keep `k` idle VCs awake — the
    /// NBTI/performance trade-off knob the paper's related-work section
    /// motivates. `SensorWiseK(1)` behaves like [`PolicyKind::SensorWise`].
    SensorWiseK(u8),
}

impl PolicyKind {
    /// All four policies in the paper's presentation order.
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::Baseline,
        PolicyKind::RrNoSensor,
        PolicyKind::SensorWiseNoTraffic,
        PolicyKind::SensorWise,
    ];

    /// The sensor-less reference against the paper's contribution — the
    /// pair every gap sweep and ablation study contrasts.
    pub const REFERENCE_PAIR: [PolicyKind; 2] = [PolicyKind::RrNoSensor, PolicyKind::SensorWise];

    /// The three policies compared in Tables II and III.
    pub const TABLE_POLICIES: [PolicyKind; 3] = [
        PolicyKind::RrNoSensor,
        PolicyKind::SensorWiseNoTraffic,
        PolicyKind::SensorWise,
    ];

    /// Instantiates a fresh per-port controller.
    pub fn build(self, rr_rotation_period: u64) -> Box<dyn GatingPolicy> {
        match self {
            PolicyKind::Baseline => Box::new(BaselinePolicy),
            PolicyKind::RrNoSensor => Box::new(RrNoSensorPolicy::new(rr_rotation_period)),
            PolicyKind::SensorWiseNoTraffic => Box::new(SensorWisePolicy::without_traffic_info()),
            PolicyKind::SensorWise => Box::new(SensorWisePolicy::new()),
            PolicyKind::SensorWiseK(k) => Box::new(SensorWiseKPolicy::new(k as usize)),
        }
    }

    /// Parses a policy name: the paper label (`sensor-wise`), the CLI
    /// shorthand (`sw`, `rr`, `sw-nt`) or the `sw-kN` extension form.
    /// Every front-end (CLI flags, wire specs) funnels through here so the
    /// accepted names stay in sync.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the accepted forms.
    pub fn parse(name: &str) -> Result<PolicyKind, String> {
        match name {
            "baseline" => Ok(PolicyKind::Baseline),
            "rr" | "rr-no-sensor" => Ok(PolicyKind::RrNoSensor),
            "sw-nt" | "sensor-wise-no-traffic" => Ok(PolicyKind::SensorWiseNoTraffic),
            "sw" | "sensor-wise" => Ok(PolicyKind::SensorWise),
            other => {
                let k = other
                    .strip_prefix("sw-k")
                    .or_else(|| other.strip_prefix("sensor-wise-k"));
                if let Some(k) = k {
                    let k: u8 = k.parse().map_err(|e| format!("bad k in `{other}`: {e}"))?;
                    Ok(PolicyKind::SensorWiseK(k))
                } else {
                    Err(format!(
                        "unknown policy `{other}` (try baseline, rr, sw-nt, sw, sw-k2)"
                    ))
                }
            }
        }
    }

    /// The paper's name for the policy.
    pub fn label(self) -> String {
        match self {
            PolicyKind::Baseline => "baseline".to_string(),
            PolicyKind::RrNoSensor => "rr-no-sensor".to_string(),
            PolicyKind::SensorWiseNoTraffic => "sensor-wise-no-traffic".to_string(),
            PolicyKind::SensorWise => "sensor-wise".to_string(),
            PolicyKind::SensorWiseK(k) => format!("sensor-wise-k{k}"),
        }
    }

    /// The designation budget the policy guarantees right after its gate
    /// decision is applied: the maximum number of idle-on (powered but
    /// unallocated) VCs it leaves on a port. `None` for the baseline, which
    /// never gates and so bounds nothing. This is the property the runtime
    /// invariant checker enforces per cycle (Algorithm 2 keeps exactly one
    /// idle VC; the `k`-designation extension keeps `k`).
    pub fn idle_on_budget(self) -> Option<usize> {
        match self {
            PolicyKind::Baseline => None,
            PolicyKind::RrNoSensor | PolicyKind::SensorWiseNoTraffic | PolicyKind::SensorWise => {
                Some(1)
            }
            PolicyKind::SensorWiseK(k) => Some(k as usize),
        }
    }

    /// Whether the policy consumes NBTI sensor readings.
    pub fn uses_sensors(self) -> bool {
        matches!(
            self,
            PolicyKind::SensorWiseNoTraffic | PolicyKind::SensorWise | PolicyKind::SensorWiseK(_)
        )
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// The NBTI-unaware baseline: every buffer stays powered, every idle VC is
/// allocatable. All VCs therefore sit at 100 % NBTI-duty-cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BaselinePolicy;

impl GatingPolicy for BaselinePolicy {
    fn decide(&mut self, _cycle: u64, _view: &PortView, _md: usize) -> GateAction {
        GateAction::AllOn
    }

    fn name(&self) -> &'static str {
        "baseline"
    }
}

/// Algorithm 1: the *rr-no-sensor* pre-VA stage.
///
/// A rotating `active_candidate` VC pointer decides which free VC is kept
/// idle-on when new traffic is waiting; with no new traffic every idle VC
/// is gated off. This is the best recovery policy available without sensor
/// information and serves as the paper's reference model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RrNoSensorPolicy {
    rotation_period: u64,
}

impl RrNoSensorPolicy {
    /// Creates the policy with the given candidate rotation period in
    /// cycles (the paper rotates "on a time basis"; 1 rotates every cycle).
    ///
    /// # Panics
    ///
    /// Panics if `rotation_period` is zero.
    pub fn new(rotation_period: u64) -> Self {
        assert!(rotation_period > 0, "rotation period must be positive");
        RrNoSensorPolicy { rotation_period }
    }

    /// The `get_vc_candidate()` of Algorithm 1.
    fn candidate(&self, cycle: u64, num_vcs: usize) -> usize {
        ((cycle / self.rotation_period) % num_vcs as u64) as usize
    }
}

impl Default for RrNoSensorPolicy {
    fn default() -> Self {
        Self::new(1)
    }
}

impl GatingPolicy for RrNoSensorPolicy {
    fn decide(&mut self, cycle: u64, view: &PortView, _md: usize) -> GateAction {
        // Lines 4-7: no new traffic ⇒ enable = 0, recover all idle VCs.
        if !view.new_traffic {
            return GateAction::AllIdleOff;
        }
        // Lines 8-17: first idle-or-recovering VC from the candidate.
        let num_vcs = view.num_vcs();
        let start = self.candidate(cycle, num_vcs);
        for off in 0..num_vcs {
            let vc = (start + off) % num_vcs;
            if view.vc_status[vc].is_free() {
                return GateAction::KeepOneIdle { vc };
            }
        }
        // Every VC busy: nothing to leave idle.
        GateAction::AllIdleOff
    }

    /// The next rotation of the candidate, the only part of the cycle
    /// `decide` reads. With one VC the candidate never moves.
    fn next_change(&self, cycle: u64, num_vcs: usize) -> u64 {
        if num_vcs < 2 {
            return u64::MAX;
        }
        (cycle / self.rotation_period)
            .saturating_add(1)
            .saturating_mul(self.rotation_period)
    }

    fn name(&self) -> &'static str {
        "rr-no-sensor"
    }
}

/// Algorithm 2: the *sensor-wise* pre-VA stage.
///
/// Recovers the most degraded VC first (sensor information from the
/// `Down_Up` link), then every other free VC, keeping exactly one idle VC
/// powered when new traffic is waiting. With `use_traffic_info == false`
/// the traffic predicate is forced to 1 (the paper's
/// *sensor-wise-no-traffic* variant): one idle VC stays powered even with
/// no traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SensorWisePolicy {
    use_traffic_info: bool,
}

impl SensorWisePolicy {
    /// The full policy (the paper's contribution).
    pub fn new() -> Self {
        SensorWisePolicy {
            use_traffic_info: true,
        }
    }

    /// The *sensor-wise-no-traffic* ablation.
    pub fn without_traffic_info() -> Self {
        SensorWisePolicy {
            use_traffic_info: false,
        }
    }
}

impl Default for SensorWisePolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl GatingPolicy for SensorWisePolicy {
    fn decide(&mut self, _cycle: u64, view: &PortView, most_degraded: usize) -> GateAction {
        let num_vcs = view.num_vcs();
        assert!(
            most_degraded < num_vcs,
            "most degraded VC {most_degraded} out of range"
        );
        let bool_traffic = if self.use_traffic_info {
            view.new_traffic
        } else {
            true
        };
        let needed = usize::from(bool_traffic);
        // Line 5-8 (conceptually): recovered VCs are restored to idle so the
        // recovery choice is recomputed from scratch; we therefore treat
        // every free (idle or recovering) VC alike.
        let mut free = view.count_free();
        if free == 0 {
            // All VCs busy: nothing to designate or recover.
            return GateAction::AllIdleOff;
        }
        if !bool_traffic {
            // Lines 12-18 with boolTraffic = 0: recover everything.
            return GateAction::AllIdleOff;
        }
        // Lines 9-11: recover the most degraded VC first, if possible.
        let mut md_recovered = false;
        if view.vc_status[most_degraded].is_free() && free > needed {
            md_recovered = true;
            free -= 1;
        }
        // Lines 12-16: recover remaining free VCs in index order while more
        // than `needed` remain; the surviving free VC is the designated one.
        let mut designated = None;
        for vc in 0..num_vcs {
            if !view.vc_status[vc].is_free() || (vc == most_degraded && md_recovered) {
                continue;
            }
            if free > needed {
                free -= 1;
            } else {
                designated = Some(vc);
            }
        }
        match designated {
            Some(vc) => GateAction::KeepOneIdle { vc },
            // Only reachable when the single free VC is the most degraded
            // and it was not recovered (free == needed): keep it for the
            // incoming packet.
            None => GateAction::KeepOneIdle { vc: most_degraded },
        }
    }

    fn name(&self) -> &'static str {
        if self.use_traffic_info {
            "sensor-wise"
        } else {
            "sensor-wise-no-traffic"
        }
    }
}

/// Extension: Algorithm 2 generalized to keep `k` idle VCs awake.
///
/// The paper keeps exactly one idle VC (the single-flit-per-cycle argument
/// guarantees that suffices for correctness), which serializes new-packet
/// VC allocation to one per port per cycle. Keeping `k > 1` idle VCs lets
/// bursts of head flits allocate in parallel at the cost of extra NBTI
/// stress — the NBTI/performance trade-off. VCs are kept in the same
/// descending index order Algorithm 2's designation loop induces, and the
/// most degraded VC is still recovered first whenever possible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SensorWiseKPolicy {
    k: usize,
}

impl SensorWiseKPolicy {
    /// Creates the policy keeping `k` idle VCs when traffic is waiting.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero (use the traffic predicate, not `k`, to gate
    /// everything).
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be at least one");
        SensorWiseKPolicy { k }
    }

    /// The configured `k`.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl GatingPolicy for SensorWiseKPolicy {
    fn decide(&mut self, _cycle: u64, view: &PortView, most_degraded: usize) -> GateAction {
        let num_vcs = view.num_vcs();
        assert!(
            most_degraded < num_vcs,
            "most degraded VC {most_degraded} out of range"
        );
        if !view.new_traffic {
            return GateAction::AllIdleOff;
        }
        // Bit `v` set: VC `v` is free (ports have at most 32 VCs).
        let mut free = view
            .vc_status
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_free())
            .fold(0u32, |m, (v, _)| m | 1 << v);
        if free == 0 {
            return GateAction::AllIdleOff;
        }
        let needed = self.k;
        // Recover the most degraded VC first, unless it is needed to meet
        // the designation count.
        if free.count_ones() as usize > needed {
            free &= !(1 << most_degraded);
        }
        // Keep the top-index `needed` free VCs awake (Algorithm 2's
        // designation order).
        let mut mask = 0u32;
        for _ in 0..needed.min(free.count_ones() as usize) {
            let top = 1 << (31 - free.leading_zeros());
            mask |= top;
            free &= !top;
        }
        GateAction::KeepIdle { mask }
    }

    fn name(&self) -> &'static str {
        "sensor-wise-k"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::types::{Direction, NodeId};
    use noc_sim::view::{PortId, VcStatus};

    fn view(status: &[VcStatus], new_traffic: bool) -> PortView {
        PortView {
            port: PortId::router_input(NodeId(0), Direction::East),
            vc_status: status.to_vec(),
            new_traffic,
        }
    }

    use VcStatus::{Busy, IdleOn, Off};

    #[test]
    fn baseline_always_powers_everything() {
        let mut p = BaselinePolicy;
        let v = view(&[Off, Busy, IdleOn, Off], false);
        assert_eq!(p.decide(0, &v, 0), GateAction::AllOn);
        assert_eq!(p.decide(9, &v, 3), GateAction::AllOn);
        assert_eq!(p.name(), "baseline");
    }

    #[test]
    fn rr_recovers_all_when_no_traffic() {
        let mut p = RrNoSensorPolicy::default();
        let v = view(&[IdleOn, IdleOn, IdleOn, IdleOn], false);
        assert_eq!(p.decide(0, &v, 0), GateAction::AllIdleOff);
    }

    #[test]
    fn rr_designates_rotating_candidate() {
        let mut p = RrNoSensorPolicy::new(1);
        let v = view(&[IdleOn, IdleOn, IdleOn, IdleOn], true);
        assert_eq!(p.decide(0, &v, 0), GateAction::KeepOneIdle { vc: 0 });
        assert_eq!(p.decide(1, &v, 0), GateAction::KeepOneIdle { vc: 1 });
        assert_eq!(p.decide(2, &v, 0), GateAction::KeepOneIdle { vc: 2 });
        assert_eq!(p.decide(3, &v, 0), GateAction::KeepOneIdle { vc: 3 });
        assert_eq!(p.decide(4, &v, 0), GateAction::KeepOneIdle { vc: 0 });
    }

    #[test]
    fn only_rr_decisions_change_with_the_cycle() {
        let rr = RrNoSensorPolicy::new(3);
        let next: Vec<u64> = (0..8).map(|c| rr.next_change(c, 2)).collect();
        assert_eq!(next, [3, 3, 3, 6, 6, 6, 9, 9]);
        // The reported cycle is exactly where the candidate moves.
        for c in 0..20 {
            let n = rr.next_change(c, 4);
            assert!((c..n).all(|t| rr.candidate(t, 4) == rr.candidate(c, 4)));
            assert_ne!(rr.candidate(n, 4), rr.candidate(c, 4));
        }
        assert_eq!(rr.next_change(5, 1), u64::MAX, "one VC never rotates");
        let huge = RrNoSensorPolicy::new(1 << 63);
        assert_eq!(huge.next_change(1 << 63, 2), u64::MAX, "saturates");
        for kind in [
            PolicyKind::Baseline,
            PolicyKind::SensorWiseNoTraffic,
            PolicyKind::SensorWise,
            PolicyKind::SensorWiseK(2),
        ] {
            let p = kind.build(3);
            assert!((0..8).all(|c| p.next_change(c, 2) == u64::MAX), "{kind}");
        }
    }

    #[test]
    fn rr_skips_busy_vcs() {
        let mut p = RrNoSensorPolicy::new(1);
        let v = view(&[Busy, Busy, Off, IdleOn], true);
        // Candidate 0 and 1 busy: first free from candidate 0 is VC 2.
        assert_eq!(p.decide(0, &v, 0), GateAction::KeepOneIdle { vc: 2 });
        // Candidate 1: first free is still 2.
        assert_eq!(p.decide(1, &v, 0), GateAction::KeepOneIdle { vc: 2 });
        // Candidate 3: VC 3 itself.
        assert_eq!(p.decide(3, &v, 0), GateAction::KeepOneIdle { vc: 3 });
    }

    #[test]
    fn rr_with_all_busy_asserts_nothing() {
        let mut p = RrNoSensorPolicy::new(1);
        let v = view(&[Busy, Busy], true);
        assert_eq!(p.decide(0, &v, 0), GateAction::AllIdleOff);
    }

    #[test]
    fn rr_rotation_period_slows_candidate() {
        let mut p = RrNoSensorPolicy::new(100);
        let v = view(&[IdleOn, IdleOn], true);
        assert_eq!(p.decide(0, &v, 0), GateAction::KeepOneIdle { vc: 0 });
        assert_eq!(p.decide(99, &v, 0), GateAction::KeepOneIdle { vc: 0 });
        assert_eq!(p.decide(100, &v, 0), GateAction::KeepOneIdle { vc: 1 });
    }

    #[test]
    fn sensor_wise_recovers_everything_without_traffic() {
        let mut p = SensorWisePolicy::new();
        let v = view(&[IdleOn, IdleOn, Off, IdleOn], false);
        assert_eq!(p.decide(0, &v, 1), GateAction::AllIdleOff);
    }

    #[test]
    fn sensor_wise_designates_highest_free_and_spares_md() {
        let mut p = SensorWisePolicy::new();
        // All free, MD = 1: MD recovered first, VC0 and VC2 recovered in
        // order, VC3 survives as the designated idle VC.
        let v = view(&[IdleOn, IdleOn, IdleOn, IdleOn], true);
        assert_eq!(p.decide(0, &v, 1), GateAction::KeepOneIdle { vc: 3 });
    }

    #[test]
    fn sensor_wise_designated_shifts_when_top_vc_busy() {
        let mut p = SensorWisePolicy::new();
        let v = view(&[IdleOn, IdleOn, IdleOn, Busy], true);
        // VC3 busy: the last free non-MD VC is VC2.
        assert_eq!(p.decide(0, &v, 1), GateAction::KeepOneIdle { vc: 2 });
    }

    #[test]
    fn sensor_wise_keeps_md_only_when_it_is_the_last_free_vc() {
        let mut p = SensorWisePolicy::new();
        let v = view(&[Busy, IdleOn, Busy, Busy], true);
        // The only free VC is the MD itself: it must stay on for traffic.
        assert_eq!(p.decide(0, &v, 1), GateAction::KeepOneIdle { vc: 1 });
    }

    #[test]
    fn sensor_wise_md_last_index_designates_next_highest() {
        let mut p = SensorWisePolicy::new();
        let v = view(&[IdleOn, IdleOn, IdleOn, IdleOn], true);
        // MD = 3 is recovered first; VC2 becomes the designated idle VC.
        assert_eq!(p.decide(0, &v, 3), GateAction::KeepOneIdle { vc: 2 });
    }

    #[test]
    fn sensor_wise_all_busy_is_a_noop() {
        let mut p = SensorWisePolicy::new();
        let v = view(&[Busy, Busy], true);
        assert_eq!(p.decide(0, &v, 0), GateAction::AllIdleOff);
    }

    #[test]
    fn no_traffic_variant_always_keeps_one_idle() {
        let mut p = SensorWisePolicy::without_traffic_info();
        // Even with no traffic, one idle VC stays powered — the behaviour
        // the paper criticises in Section IV-B.
        let v = view(&[IdleOn, IdleOn, IdleOn, IdleOn], false);
        assert_eq!(p.decide(0, &v, 1), GateAction::KeepOneIdle { vc: 3 });
        assert_eq!(p.name(), "sensor-wise-no-traffic");
    }

    #[test]
    fn no_traffic_variant_spares_md_even_when_md_is_top() {
        let mut p = SensorWisePolicy::without_traffic_info();
        let v = view(&[IdleOn, IdleOn], false);
        // MD = 1 recovered; VC0 pinned on — matching Table III's 100% VC0
        // rows for MD = VC1 scenarios.
        assert_eq!(p.decide(0, &v, 1), GateAction::KeepOneIdle { vc: 0 });
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sensor_wise_rejects_bad_md() {
        let mut p = SensorWisePolicy::new();
        let v = view(&[IdleOn, IdleOn], true);
        let _ = p.decide(0, &v, 5);
    }

    #[test]
    fn kind_builds_matching_policies() {
        for kind in PolicyKind::ALL {
            let built = kind.build(1);
            assert_eq!(built.name(), kind.label());
        }
        assert!(PolicyKind::SensorWise.uses_sensors());
        assert!(PolicyKind::SensorWiseK(2).uses_sensors());
        assert!(!PolicyKind::RrNoSensor.uses_sensors());
        assert_eq!(PolicyKind::SensorWise.to_string(), "sensor-wise");
        assert_eq!(PolicyKind::SensorWiseK(3).to_string(), "sensor-wise-k3");
        assert_eq!(PolicyKind::SensorWiseK(2).build(1).name(), "sensor-wise-k");
    }

    #[test]
    fn k1_matches_sensor_wise_designation() {
        let mut sw = SensorWisePolicy::new();
        let mut k1 = SensorWiseKPolicy::new(1);
        let cases = [
            (vec![IdleOn, IdleOn, IdleOn, IdleOn], true, 1),
            (vec![IdleOn, IdleOn, IdleOn, Busy], true, 1),
            (vec![Busy, IdleOn, Busy, Busy], true, 1),
            (vec![IdleOn, IdleOn, IdleOn, IdleOn], true, 3),
            (vec![IdleOn, Off, Off, IdleOn], true, 0),
            (vec![IdleOn, IdleOn], false, 0),
            (vec![Busy, Busy], true, 0),
        ];
        for (status, traffic, md) in cases {
            let v = view(&status, traffic);
            let a = sw.decide(0, &v, md);
            let b = k1.decide(0, &v, md);
            let n = status.len();
            assert_eq!(
                a.kept_idle_mask(n),
                b.kept_idle_mask(n),
                "divergence on {status:?} md={md}"
            );
        }
    }

    #[test]
    fn k2_keeps_two_and_still_spares_md() {
        let mut p = SensorWiseKPolicy::new(2);
        let v = view(&[IdleOn, IdleOn, IdleOn, IdleOn], true);
        // MD = 1 recovered; keep the two highest-index free VCs (2, 3).
        assert_eq!(p.decide(0, &v, 1), GateAction::KeepIdle { mask: 0b1100 });
        // MD is kept only when needed to reach k.
        let v = view(&[Busy, IdleOn, IdleOn, Busy], true);
        assert_eq!(p.decide(0, &v, 1), GateAction::KeepIdle { mask: 0b0110 });
    }

    #[test]
    fn k_larger_than_free_keeps_everything_free() {
        let mut p = SensorWiseKPolicy::new(4);
        let v = view(&[IdleOn, Busy, Off, Busy], true);
        assert_eq!(p.decide(0, &v, 0), GateAction::KeepIdle { mask: 0b0101 });
    }

    #[test]
    #[should_panic(expected = "k must be at least one")]
    fn zero_k_panics() {
        let _ = SensorWiseKPolicy::new(0);
    }

    #[test]
    #[should_panic(expected = "rotation period")]
    fn rr_zero_period_panics() {
        let _ = RrNoSensorPolicy::new(0);
    }

    #[test]
    fn parse_accepts_labels_and_shorthands() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(&kind.label()), Ok(kind));
        }
        assert_eq!(PolicyKind::parse("rr"), Ok(PolicyKind::RrNoSensor));
        assert_eq!(PolicyKind::parse("sw"), Ok(PolicyKind::SensorWise));
        assert_eq!(
            PolicyKind::parse("sw-nt"),
            Ok(PolicyKind::SensorWiseNoTraffic)
        );
        assert_eq!(PolicyKind::parse("sw-k3"), Ok(PolicyKind::SensorWiseK(3)));
        assert_eq!(
            PolicyKind::parse("sensor-wise-k2"),
            Ok(PolicyKind::SensorWiseK(2))
        );
        assert!(PolicyKind::parse("magic")
            .unwrap_err()
            .contains("unknown policy"));
        assert!(PolicyKind::parse("sw-kx").unwrap_err().contains("bad k"));
    }
}
