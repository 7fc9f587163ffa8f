//! Property-based tests of the traffic generators.

use noc_sim::topology::Mesh2D;
use noc_sim::types::NodeId;
use noc_telemetry::rng::Xoshiro256pp;
use noc_traffic::prelude::*;
use proptest::prelude::*;

fn any_pattern() -> impl Strategy<Value = DestinationPattern> {
    prop_oneof![
        Just(DestinationPattern::UniformRandom),
        Just(DestinationPattern::Transpose),
        Just(DestinationPattern::BitComplement),
        Just(DestinationPattern::BitReverse),
        Just(DestinationPattern::Shuffle),
        Just(DestinationPattern::Tornado),
        Just(DestinationPattern::Neighbor),
        (proptest::collection::vec(0usize..16, 1..4), 0.0f64..=1.0).prop_map(|(t, f)| {
            DestinationPattern::HotSpot {
                targets: t.into_iter().map(NodeId).collect(),
                fraction: f,
            }
        }),
    ]
}

proptest! {
    /// Every pattern produces in-range, non-self destinations on every
    /// mesh shape.
    #[test]
    fn patterns_are_sound(
        pattern in any_pattern(),
        cols in 1usize..6,
        rows in 1usize..6,
        seed in any::<u64>(),
    ) {
        let mesh = Mesh2D::new(cols, rows);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        for src in mesh.nodes() {
            for _ in 0..8 {
                if let Some(d) = pattern.dest(&mesh, src, &mut rng) {
                    prop_assert!(d.index() < mesh.num_nodes());
                    prop_assert_ne!(d, src);
                }
            }
        }
    }

    /// Synthetic traffic hits its offered flit rate within 15 % over a
    /// long window, for any rate and packet length.
    #[test]
    fn synthetic_rate_is_accurate(
        rate_milli in 20u32..400,
        len in 1usize..9,
        seed in any::<u64>(),
    ) {
        let rate = rate_milli as f64 / 1000.0;
        prop_assume!(rate / len as f64 <= 1.0);
        let mesh = Mesh2D::square(3);
        let mut src = SyntheticTraffic::uniform(mesh, rate, len, seed);
        let mut out = Vec::new();
        let cycles = 30_000u64;
        for c in 0..cycles {
            src.emit(c, &mut out);
        }
        let measured = (out.len() * len) as f64 / (cycles as f64 * 9.0);
        prop_assert!(
            (measured - rate).abs() / rate < 0.15,
            "offered {rate}, measured {measured}"
        );
    }

    /// Application traffic only emits packets whose lengths match the
    /// per-core profile, and never self-traffic.
    #[test]
    fn app_traffic_respects_profiles(mix_seed in any::<u64>(), seed in any::<u64>()) {
        let mesh = Mesh2D::square(2);
        let mix = BenchmarkMix::random(4, mix_seed);
        let mut app = AppTraffic::new(mesh, &mix, seed);
        let mut out = Vec::new();
        for c in 0..5_000 {
            app.emit(c, &mut out);
        }
        for s in &out {
            prop_assert_eq!(s.len, mix.profiles()[s.src.index()].packet_len);
            prop_assert_ne!(s.src, s.dst);
            prop_assert!(s.dst.index() < 4);
        }
    }

    /// Markov on/off long-run rate converges to the analytic value.
    #[test]
    fn markov_rate_converges(
        prob_milli in 10u32..300,
        mean_on in 10.0f64..500.0,
        mean_off in 10.0f64..500.0,
    ) {
        let p = prob_milli as f64 / 1000.0;
        let mut inj = MarkovOnOffInjection::new(p, mean_on, mean_off);
        let analytic = inj.mean_packet_rate();
        let mut rng = Xoshiro256pp::seed_from_u64(42);
        let n = 150_000u32;
        let fired = (0..n).filter(|_| inj.fires(&mut rng)).count();
        let measured = fired as f64 / n as f64;
        prop_assert!(
            (measured - analytic).abs() < 0.25 * analytic + 0.003,
            "analytic {analytic}, measured {measured}"
        );
    }
}
