//! Injection processes: when does a node generate a packet?
//!
//! The paper's synthetic experiments inject at constant rates of 0.1, 0.2
//! and 0.3 flits/cycle/port, which a [`BernoulliInjection`] reproduces. The
//! application-profile traffic (Table IV substitute) modulates a Bernoulli
//! process with a two-state Markov chain ([`MarkovOnOffInjection`]) to model
//! the bursty compute/communicate phases of real benchmarks.

use noc_telemetry::rng::Xoshiro256pp;

/// Decides, cycle by cycle, whether a node generates a new packet.
pub trait InjectionProcess {
    /// Returns `true` when a packet should be generated this cycle.
    fn fires(&mut self, rng: &mut Xoshiro256pp) -> bool;

    /// The long-run average packet rate (packets/cycle), used for reports
    /// and sanity checks.
    fn mean_packet_rate(&self) -> f64;
}

/// Memoryless injection: a packet with fixed probability each cycle.
///
/// The probability is `rate_flits / packet_len`, so that the *flit*
/// injection rate matches the paper's `flits/cycle/port` figure.
///
/// ```
/// use noc_traffic::injection::{BernoulliInjection, InjectionProcess};
/// let p = BernoulliInjection::from_flit_rate(0.3, 5);
/// assert!((p.mean_packet_rate() - 0.06).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BernoulliInjection {
    packet_prob: f64,
}

impl BernoulliInjection {
    /// Creates a process firing with probability `packet_prob` per cycle.
    ///
    /// # Panics
    ///
    /// Panics if the probability is outside `[0, 1]`.
    pub fn new(packet_prob: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&packet_prob),
            "probability must be in [0, 1]"
        );
        BernoulliInjection { packet_prob }
    }

    /// Creates a process matching a flit injection rate (flits/cycle) for
    /// packets of `packet_len` flits.
    ///
    /// # Panics
    ///
    /// Panics if `packet_len` is zero or the implied probability exceeds 1.
    pub fn from_flit_rate(rate_flits: f64, packet_len: usize) -> Self {
        assert!(packet_len > 0, "packet length must be positive");
        Self::new(rate_flits / packet_len as f64)
    }
}

impl InjectionProcess for BernoulliInjection {
    fn fires(&mut self, rng: &mut Xoshiro256pp) -> bool {
        self.packet_prob > 0.0 && rng.chance(self.packet_prob)
    }

    fn mean_packet_rate(&self) -> f64 {
        self.packet_prob
    }
}

/// Markov-modulated on/off injection: bursts of Bernoulli traffic separated
/// by silent phases.
///
/// The process alternates between an *on* state (firing with probability
/// `on_packet_prob` per cycle) and an *off* state (never firing). Phase
/// lengths are geometric with the given means.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarkovOnOffInjection {
    on_packet_prob: f64,
    exit_on_prob: f64,
    exit_off_prob: f64,
    on: bool,
}

impl MarkovOnOffInjection {
    /// Creates a bursty process.
    ///
    /// * `on_packet_prob` — per-cycle packet probability while on,
    /// * `mean_on` / `mean_off` — average phase lengths in cycles.
    ///
    /// # Panics
    ///
    /// Panics if the probability is outside `[0, 1]` or a mean phase length
    /// is below one cycle.
    pub fn new(on_packet_prob: f64, mean_on: f64, mean_off: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&on_packet_prob),
            "probability must be in [0, 1]"
        );
        assert!(
            mean_on >= 1.0 && mean_off >= 1.0,
            "mean phase lengths must be at least one cycle"
        );
        MarkovOnOffInjection {
            on_packet_prob,
            exit_on_prob: 1.0 / mean_on,
            exit_off_prob: 1.0 / mean_off,
            on: true,
        }
    }

    /// The long-run fraction of time spent in the on state.
    pub fn duty(&self) -> f64 {
        let mean_on = 1.0 / self.exit_on_prob;
        let mean_off = 1.0 / self.exit_off_prob;
        mean_on / (mean_on + mean_off)
    }

    /// `true` while in the on phase (for tests and introspection).
    pub fn is_on(&self) -> bool {
        self.on
    }
}

impl InjectionProcess for MarkovOnOffInjection {
    fn fires(&mut self, rng: &mut Xoshiro256pp) -> bool {
        let fires = self.on && self.on_packet_prob > 0.0 && rng.chance(self.on_packet_prob);
        // Phase transition at cycle end.
        let exit_prob = if self.on {
            self.exit_on_prob
        } else {
            self.exit_off_prob
        };
        if rng.chance(exit_prob.clamp(0.0, 1.0)) {
            self.on = !self.on;
        }
        fires
    }

    fn mean_packet_rate(&self) -> f64 {
        self.on_packet_prob * self.duty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bernoulli_rate_matches_empirically() {
        let mut p = BernoulliInjection::from_flit_rate(0.2, 5);
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let n = 200_000;
        let fired = (0..n).filter(|_| p.fires(&mut rng)).count();
        let rate = fired as f64 / n as f64;
        assert!((rate - 0.04).abs() < 0.002, "rate = {rate}");
    }

    #[test]
    fn zero_rate_never_fires() {
        let mut p = BernoulliInjection::new(0.0);
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        assert!((0..1000).all(|_| !p.fires(&mut rng)));
    }

    #[test]
    fn markov_long_run_rate_matches() {
        let mut p = MarkovOnOffInjection::new(0.2, 100.0, 300.0);
        assert!((p.duty() - 0.25).abs() < 1e-12);
        assert!((p.mean_packet_rate() - 0.05).abs() < 1e-12);
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let n = 400_000;
        let fired = (0..n).filter(|_| p.fires(&mut rng)).count();
        let rate = fired as f64 / n as f64;
        assert!((rate - 0.05).abs() < 0.005, "rate = {rate}");
    }

    #[test]
    fn markov_actually_bursts() {
        // With long phases, consecutive cycles should be correlated: count
        // transitions of the fire/no-fire sequence aggregated per window.
        let mut p = MarkovOnOffInjection::new(0.5, 200.0, 200.0);
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let mut window_rates = Vec::new();
        for _ in 0..200 {
            let fired = (0..100).filter(|_| p.fires(&mut rng)).count();
            window_rates.push(fired as f64 / 100.0);
        }
        // Bursty: some windows nearly silent, some nearly half-rate.
        let min = window_rates.iter().cloned().fold(f64::MAX, f64::min);
        let max = window_rates.iter().cloned().fold(f64::MIN, f64::max);
        assert!(min < 0.1, "min window rate = {min}");
        assert!(max > 0.3, "max window rate = {max}");
    }

    #[test]
    #[should_panic(expected = "probability must be in [0, 1]")]
    fn overunity_rate_panics() {
        let _ = BernoulliInjection::from_flit_rate(6.0, 5);
    }

    #[test]
    #[should_panic(expected = "phase lengths")]
    fn subcycle_phase_panics() {
        let _ = MarkovOnOffInjection::new(0.1, 0.5, 10.0);
    }
}
