//! NBTI monitoring glue: one sensor-equipped age tracker per buffer port.
//!
//! The monitor owns the per-VC [`BufferAgeTracker`]s of every gateable port
//! in the network, mirrors the paper's process-variation protocol (one
//! Gaussian initial `Vth` per VC buffer, one sample set per scenario seed),
//! and answers the `Down_Up` link's question — *which VC is the most
//! degraded?* — through the configured sensor model.
//!
//! [`BufferAgeTracker`]: nbti_model::BufferAgeTracker

use nbti_model::{
    IdealSensor, LongTermModel, NbtiSensor, PortAgeTracker, ProcessVariation, QuantizedSensor,
    ShiftBound, StressState, Volt,
};
use noc_sim::view::{PortId, VcStatus};

/// `index` entry of a port the monitor does not track.
const UNMONITORED: u32 = u32::MAX;

/// Per-port NBTI bookkeeping for a whole network.
#[derive(Debug, Clone)]
pub struct NbtiMonitor<S> {
    ports: Vec<(PortId, PortAgeTracker<S>)>,
    /// [`PortId::dense_key`] → index into `ports`, or [`UNMONITORED`].
    index: Vec<u32>,
    /// The shift bound of the last election. Every port is built from one
    /// model and recorded up to the same cycle before an election, so one
    /// bound serves all of its ports.
    bound: Option<ShiftBound>,
}

/// The dense-key table of `port_ids`: entry `p.dense_key()` holds `p`'s
/// position in the slice.
fn dense_index(port_ids: &[PortId]) -> Vec<u32> {
    let len = port_ids
        .iter()
        .map(|p| p.dense_key() + 1)
        .max()
        .unwrap_or(0);
    let mut index = vec![UNMONITORED; len];
    for (i, p) in port_ids.iter().enumerate() {
        index[p.dense_key()] = i as u32;
    }
    index
}

impl NbtiMonitor<IdealSensor> {
    /// Builds a monitor with ideal sensors (the paper's setup): one
    /// tracker per port in `port_ids`, each VC's initial `Vth` drawn from
    /// the given process-variation sampler.
    pub fn with_ideal_sensors(
        port_ids: &[PortId],
        num_vcs: usize,
        pv: &mut ProcessVariation,
        model: LongTermModel,
    ) -> Self {
        Self::build(port_ids, num_vcs, pv, model, |_, _| IdealSensor::new())
    }

    /// Builds a monitor with ideal sensors whose per-VC threshold voltages
    /// are given explicitly instead of drawn from a process-variation
    /// sampler — the lifetime-campaign hook: `vths[i][v]` is the *aged*
    /// `Vth` (initial plus accumulated ΔVth) of VC `v` of `port_ids[i]`,
    /// so sensor elections in the next epoch see the degradation earlier
    /// epochs produced.
    ///
    /// # Panics
    ///
    /// Panics if `vths.len() != port_ids.len()` or any port's vector is
    /// empty.
    pub fn with_ideal_sensors_from_vths(
        port_ids: &[PortId],
        vths: &[Vec<Volt>],
        model: LongTermModel,
    ) -> Self {
        assert_eq!(
            port_ids.len(),
            vths.len(),
            "one Vth vector per port required"
        );
        let ports = port_ids
            .iter()
            .zip(vths)
            .map(|(&pid, port_vths)| {
                let sensors = vec![IdealSensor::new(); port_vths.len()];
                (pid, PortAgeTracker::new(port_vths, sensors, model))
            })
            .collect();
        NbtiMonitor {
            ports,
            index: dense_index(port_ids),
            bound: None,
        }
    }
}

impl NbtiMonitor<QuantizedSensor> {
    /// Builds a monitor with quantized/noisy sensors (the sensor-fidelity
    /// ablation). `period` is the sensor sampling period in cycles.
    #[allow(clippy::too_many_arguments)] // mirrors QuantizedSensor::new + PV inputs
    pub fn with_quantized_sensors(
        port_ids: &[PortId],
        num_vcs: usize,
        pv: &mut ProcessVariation,
        model: LongTermModel,
        lsb: Volt,
        noise_sigma: Volt,
        period: u64,
        seed: u64,
    ) -> Self {
        let mut counter = 0u64;
        Self::build(port_ids, num_vcs, pv, model, |_, _| {
            counter += 1;
            QuantizedSensor::new(lsb, noise_sigma, period, seed.wrapping_add(counter))
        })
    }
}

impl<S: NbtiSensor> NbtiMonitor<S> {
    /// Builds a monitor with a custom per-VC sensor factory
    /// (`make_sensor(port_index, vc)`).
    pub fn build<F>(
        port_ids: &[PortId],
        num_vcs: usize,
        pv: &mut ProcessVariation,
        model: LongTermModel,
        mut make_sensor: F,
    ) -> Self
    where
        F: FnMut(usize, usize) -> S,
    {
        assert!(num_vcs > 0, "at least one VC per port");
        let mut ports = Vec::with_capacity(port_ids.len());
        for (i, &pid) in port_ids.iter().enumerate() {
            let vths = pv.sample_port(num_vcs);
            let sensors = (0..num_vcs).map(|v| make_sensor(i, v)).collect();
            ports.push((pid, PortAgeTracker::new(&vths, sensors, model)));
        }
        NbtiMonitor {
            ports,
            index: dense_index(port_ids),
            bound: None,
        }
    }

    /// The position of `port` in `ports`.
    ///
    /// # Panics
    ///
    /// Panics if `port` is not monitored.
    fn slot(&self, port: PortId) -> usize {
        match self.index.get(port.dense_key()) {
            Some(&i) if i != UNMONITORED => i as usize,
            _ => panic!("port {port} is not monitored"),
        }
    }

    fn tracker(&self, port: PortId) -> &PortAgeTracker<S> {
        &self.ports[self.slot(port)].1
    }

    fn tracker_mut(&mut self, port: PortId) -> &mut PortAgeTracker<S> {
        let i = self.slot(port);
        &mut self.ports[i].1
    }

    /// Number of monitored ports.
    pub fn num_ports(&self) -> usize {
        self.ports.len()
    }

    /// The monitored port identifiers, in construction order.
    pub fn port_ids(&self) -> impl Iterator<Item = PortId> + '_ {
        self.ports.iter().map(|(p, _)| *p)
    }

    /// The `Down_Up` payload: the most degraded VC of `port` according to
    /// its sensors. The shift bound a certified election needs is
    /// computed once per elapsed time, not once per port.
    pub fn most_degraded(&mut self, port: PortId) -> usize {
        let i = self.slot(port);
        let tracker = &mut self.ports[i].1;
        let bound = match self.bound {
            Some(b) if b.elapsed_seconds() == tracker.elapsed_seconds() => b,
            _ => {
                let fresh = tracker.shift_bound();
                self.bound = Some(fresh);
                fresh
            }
        };
        tracker.most_degraded_within(bound)
    }

    /// The most degraded VC by *initial* `Vth` (the paper's `MD VC`
    /// column, fixed by process variation).
    pub fn most_degraded_initial(&self, port: PortId) -> usize {
        self.tracker(port).most_degraded_initial()
    }

    /// Records one cycle of stress/recovery for `port`: a VC is stressed
    /// whenever its buffer is powered.
    pub fn record_cycle(&mut self, port: PortId, statuses: &[VcStatus]) {
        self.tracker_mut(port)
            .record_cycle(statuses.iter().map(|s| {
                if s.is_stressed() {
                    StressState::Stressed
                } else {
                    StressState::Recovering
                }
            }));
    }

    /// Records `n` cycles of one stress mask for `port` (bit `v` set: VC
    /// `v` powered, so stressed). The experiment engine records each run
    /// of an unchanged power mask with one call; `record_cycle` is the
    /// one-cycle form over per-VC statuses.
    pub fn record_cycles(&mut self, port: PortId, stressed: u32, n: u64) {
        self.tracker_mut(port).record_cycles(stressed, n);
    }

    /// Per-VC NBTI-duty-cycle percentages for `port`.
    pub fn duty_cycles_percent(&self, port: PortId) -> Vec<f64> {
        self.tracker(port).duty_cycles_percent()
    }

    /// Per-VC initial threshold voltages for `port`.
    pub fn initial_vths(&self, port: PortId) -> Vec<Volt> {
        self.tracker(port)
            .buffers()
            .map(nbti_model::BufferAgeTracker::initial_vth)
            .collect()
    }

    /// Projected NBTI `Vth` shift of `port`'s most degraded VC (by initial
    /// `Vth`), in millivolts, at `horizon_s` seconds of operation assuming
    /// the duty observed so far persists. This is the telemetry sampler's
    /// `delta_vth_mv` column.
    pub fn projected_delta_vth_mv(&self, port: PortId, horizon_s: f64) -> f64 {
        let tracker = self.tracker(port);
        let buf = tracker.buffer(tracker.most_degraded_initial());
        buf.projected_vth(horizon_s).as_millivolts() - buf.initial_vth().as_millivolts()
    }

    /// Per-VC `(stress, recovery)` cycle totals for `port` since the last
    /// duty reset — the inputs of the duty-closure invariant
    /// (stress + recovery must equal the monitored cycle count).
    pub fn duty_totals(&self, port: PortId) -> Vec<(u64, u64)> {
        self.tracker(port)
            .buffers()
            .map(|b| (b.duty().stress_cycles(), b.duty().recovery_cycles()))
            .collect()
    }

    /// Resets the duty accounting of every port (end of warm-up).
    pub fn reset_duty(&mut self) {
        for (_, t) in &mut self.ports {
            t.reset_duty();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::types::{Direction, NodeId};

    fn ports() -> Vec<PortId> {
        vec![
            PortId::router_input(NodeId(0), Direction::East),
            PortId::router_input(NodeId(1), Direction::West),
            PortId::nic_eject(NodeId(0)),
        ]
    }

    fn monitor(seed: u64) -> NbtiMonitor<IdealSensor> {
        let mut pv = ProcessVariation::paper_45nm(seed);
        NbtiMonitor::with_ideal_sensors(&ports(), 4, &mut pv, LongTermModel::calibrated_45nm())
    }

    #[test]
    fn same_seed_same_vths_and_md() {
        let a = monitor(3);
        let b = monitor(3);
        for p in ports() {
            assert_eq!(a.initial_vths(p), b.initial_vths(p));
            assert_eq!(a.most_degraded_initial(p), b.most_degraded_initial(p));
        }
    }

    #[test]
    fn ideal_sensor_md_matches_initial_md_before_aging() {
        let mut m = monitor(11);
        for p in ports() {
            assert_eq!(m.most_degraded(p), m.most_degraded_initial(p));
        }
    }

    #[test]
    fn duty_accounting_follows_statuses() {
        use VcStatus::{Busy, IdleOn, Off};
        let mut m = monitor(5);
        let p = ports()[0];
        for _ in 0..10 {
            m.record_cycle(p, &[Busy, IdleOn, Off, Off]);
        }
        assert_eq!(m.duty_cycles_percent(p), vec![100.0, 100.0, 0.0, 0.0]);
        m.reset_duty();
        m.record_cycle(p, &[Off, Off, Off, IdleOn]);
        assert_eq!(m.duty_cycles_percent(p), vec![0.0, 0.0, 0.0, 100.0]);
    }

    #[test]
    fn a_stress_mask_run_matches_per_cycle_statuses() {
        use VcStatus::{Busy, IdleOn, Off};
        let mut batched = monitor(5);
        let mut single = monitor(5);
        let p = ports()[0];
        batched.record_cycles(p, 0b0011, 6);
        for _ in 0..6 {
            single.record_cycle(p, &[Busy, IdleOn, Off, Off]);
        }
        assert_eq!(batched.duty_totals(p), single.duty_totals(p));
        assert_eq!(batched.duty_totals(p), vec![(6, 0), (6, 0), (0, 6), (0, 6)]);
    }

    #[test]
    fn ports_are_registered_in_order() {
        let m = monitor(1);
        assert_eq!(m.num_ports(), 3);
        assert_eq!(m.port_ids().collect::<Vec<_>>(), ports());
    }

    #[test]
    #[should_panic(expected = "is not monitored")]
    fn unmonitored_port_panics() {
        let mut m = monitor(1);
        m.record_cycle(PortId::nic_eject(NodeId(7)), &[VcStatus::Off; 4]);
    }

    #[test]
    fn distinct_ports_get_distinct_vth_samples() {
        let m = monitor(8);
        let a = m.initial_vths(ports()[0]);
        let b = m.initial_vths(ports()[1]);
        assert_ne!(a, b);
    }

    #[test]
    fn projected_delta_vth_grows_with_stress() {
        let mut idle = monitor(5);
        let mut busy = monitor(5);
        let p = ports()[0];
        let horizon = 10.0 * 365.25 * 24.0 * 3600.0;
        for _ in 0..100 {
            idle.record_cycle(p, &[VcStatus::Off; 4]);
            busy.record_cycle(p, &[VcStatus::Busy; 4]);
        }
        let low = idle.projected_delta_vth_mv(p, horizon);
        let high = busy.projected_delta_vth_mv(p, horizon);
        assert!(
            low.abs() < 1e-9,
            "fully recovered VC projects no shift: {low}"
        );
        assert!(high > 1.0, "10-year full-duty shift in mV: {high}");
    }

    /// Certified elections, with one shift bound per elapsed time, elect
    /// what sampling every sensor elects: the same monitor with sensors
    /// that are transparent but not marked as reading the true `Vth`.
    #[test]
    fn certified_elections_match_sampled_ones() {
        use nbti_model::{FaultMode, FaultySensor};
        let ports: Vec<PortId> = (0..32)
            .flat_map(|n| {
                [
                    PortId::router_input(NodeId(n), Direction::East),
                    PortId::nic_eject(NodeId(n)),
                ]
            })
            .collect();
        let model = LongTermModel::calibrated_45nm();
        let mut ideal =
            NbtiMonitor::with_ideal_sensors(&ports, 4, &mut ProcessVariation::paper_45nm(9), model);
        let transparent = FaultMode::Erratic {
            p: 0.0,
            lo: Volt::ZERO,
            hi: Volt::ZERO,
        };
        let mut pv = ProcessVariation::paper_45nm(9);
        let mut sampled = NbtiMonitor::build(&ports, 4, &mut pv, model, |_, _| {
            FaultySensor::new(IdealSensor::new(), transparent, 0)
        });
        let elect = |ideal: &mut NbtiMonitor<IdealSensor>, sampled: &mut NbtiMonitor<_>| {
            for &p in &ports {
                assert_eq!(ideal.most_degraded(p), sampled.most_degraded(p), "{p}");
            }
        };
        for round in 0..6u32 {
            for (i, &p) in ports.iter().enumerate() {
                let mask = ((i as u32).wrapping_mul(0x9e37) >> round) & 0b1111;
                ideal.record_cycles(p, mask, 50_000);
                sampled.record_cycles(p, mask, 50_000);
            }
            elect(&mut ideal, &mut sampled);
            elect(&mut ideal, &mut sampled);
            if round == 3 {
                ideal.reset_duty();
                sampled.reset_duty();
                elect(&mut ideal, &mut sampled);
            }
        }
    }

    #[test]
    fn quantized_monitor_builds() {
        let mut pv = ProcessVariation::paper_45nm(2);
        let mut m = NbtiMonitor::with_quantized_sensors(
            &ports(),
            2,
            &mut pv,
            LongTermModel::calibrated_45nm(),
            Volt::from_millivolts(0.5),
            Volt::from_millivolts(0.25),
            1000,
            9,
        );
        let p = ports()[0];
        let md = m.most_degraded(p);
        assert!(md < 2);
    }
}
