//! The traffic-source abstraction.
//!
//! A [`TrafficSource`] produces packet descriptions cycle by cycle. Keeping
//! generation separate from the simulator makes sources unit-testable,
//! recordable (`noc_workload::record_source`) and replayable without a
//! network in the loop.

use noc_sim::network::Network;
use noc_sim::types::NodeId;

/// A packet to be injected: source, destination and length in flits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketSpec {
    /// Injecting node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Length in flits.
    pub len: usize,
}

/// A generator of traffic.
///
/// Implementations append zero or more [`PacketSpec`]s for the given cycle.
/// `emit` must be called with strictly increasing cycle numbers; sources may
/// keep internal per-cycle state (burst phases, trace cursors).
pub trait TrafficSource {
    /// Appends this cycle's packets to `out`.
    fn emit(&mut self, cycle: u64, out: &mut Vec<PacketSpec>);

    /// A short human-readable name for reports.
    fn name(&self) -> String {
        "traffic".to_string()
    }
}

impl<T: TrafficSource + ?Sized> TrafficSource for Box<T> {
    fn emit(&mut self, cycle: u64, out: &mut Vec<PacketSpec>) {
        (**self).emit(cycle, out);
    }

    fn name(&self) -> String {
        (**self).name()
    }
}

/// Pulls this cycle's packets from `source` and queues them in `net`'s NIC
/// injection queues. Call once per cycle, before `Network::begin_cycle`.
/// Returns the number of packets injected.
pub fn inject_from<S: TrafficSource + ?Sized, T: noc_sim::telemetry::TraceSink>(
    source: &mut S,
    net: &mut Network<T>,
) -> usize {
    // lint:allow(alloc-in-hot-path) convenience wrapper; per-cycle callers use inject_from_with
    inject_from_with(source, net, &mut Vec::new())
}

/// [`inject_from`] with a caller-owned scratch buffer for the cycle's
/// packet specs, cleared first and reused so the per-cycle loop never
/// allocates once its capacity settles.
pub fn inject_from_with<S: TrafficSource + ?Sized, T: noc_sim::telemetry::TraceSink>(
    source: &mut S,
    net: &mut Network<T>,
    scratch: &mut Vec<PacketSpec>,
) -> usize {
    scratch.clear();
    source.emit(net.cycle(), scratch);
    for spec in scratch.iter() {
        net.inject_packet_with_len(spec.src, spec.dst, spec.len);
    }
    scratch.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::config::NocConfig;

    /// A source that emits one fixed packet every `period` cycles.
    struct Periodic {
        period: u64,
        spec: PacketSpec,
    }

    impl TrafficSource for Periodic {
        fn emit(&mut self, cycle: u64, out: &mut Vec<PacketSpec>) {
            if cycle.is_multiple_of(self.period) {
                out.push(self.spec);
            }
        }
    }

    #[test]
    fn inject_from_queues_packets() {
        let mut src = Periodic {
            period: 2,
            spec: PacketSpec {
                src: NodeId(0),
                dst: NodeId(3),
                len: 5,
            },
        };
        let mut net = Network::new(NocConfig::paper_synthetic(4, 2)).unwrap();
        let mut injected = 0;
        for _ in 0..10 {
            injected += inject_from(&mut src, &mut net);
            net.step();
        }
        assert_eq!(injected, 5);
        assert_eq!(net.stats().packets_injected, 5);
    }

    #[test]
    fn a_reused_scratch_injects_only_the_current_cycle() {
        let mut src = Periodic {
            period: 1,
            spec: PacketSpec {
                src: NodeId(2),
                dst: NodeId(1),
                len: 3,
            },
        };
        let mut net = Network::new(NocConfig::paper_synthetic(4, 2)).unwrap();
        let mut scratch = Vec::new();
        for _ in 0..4 {
            assert_eq!(inject_from_with(&mut src, &mut net, &mut scratch), 1);
            net.step();
        }
        assert_eq!(scratch.len(), 1, "the scratch is cleared each cycle");
        assert_eq!(net.stats().packets_injected, 4);
    }

    #[test]
    fn boxed_sources_delegate() {
        let mut boxed: Box<dyn TrafficSource> = Box::new(Periodic {
            period: 1,
            spec: PacketSpec {
                src: NodeId(1),
                dst: NodeId(2),
                len: 1,
            },
        });
        let mut out = Vec::new();
        boxed.emit(0, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(boxed.name(), "traffic");
    }
}
