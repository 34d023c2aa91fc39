//! Property tests for traffic patterns and injection.
//!
//! The permutation patterns (bit-reversal, transpose, perfect shuffle, bit
//! complement) must be bijections over the node set; the stochastic patterns
//! (uniform, hot-spot) must respect their distributional contracts: never
//! target the source, cover every other node, and hit the hot node at the
//! configured rate. These properties back the validation layer's routing
//! invariants — a non-bijective permutation would silently skew every
//! deadlock-frequency figure.

use std::collections::HashSet;

use icn_topology::{Coords, KAryNCube, NodeId};
use icn_traffic::{message_rate, BernoulliInjector, MsgLenDist, Pattern};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A selection of power-of-two-node topologies (the permutation patterns
/// require `num_nodes` to be a power of two).
fn pow2_topo(i: usize) -> KAryNCube {
    match i % 5 {
        0 => KAryNCube::torus(4, 2, true),  // 16 nodes
        1 => KAryNCube::torus(4, 3, true),  // 64 nodes
        2 => KAryNCube::torus(16, 2, true), // 256 nodes (the paper's default)
        3 => KAryNCube::hypercube(6),       // 64 nodes
        _ => KAryNCube::torus(8, 2, false), // 64 nodes, unidirectional
    }
}

const PERMUTATIONS: [Pattern; 4] = [
    Pattern::BitReversal,
    Pattern::Transpose,
    Pattern::PerfectShuffle,
    Pattern::BitComplement,
];

/// The pattern as a total map over nodes: fixed points (where `dest`
/// returns `None` because the node would target itself) map to themselves.
fn total_map(pat: &Pattern, topo: &KAryNCube, src: NodeId, rng: &mut StdRng) -> NodeId {
    pat.dest(topo, src, rng).unwrap_or(src)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn permutations_are_bijections(topo_i in 0usize..5, seed in any::<u64>()) {
        let topo = pow2_topo(topo_i);
        let mut rng = StdRng::seed_from_u64(seed);
        for pat in &PERMUTATIONS {
            let mut image = HashSet::new();
            for s in 0..topo.num_nodes() as u32 {
                let d = total_map(pat, &topo, NodeId(s), &mut rng);
                prop_assert!(d.idx() < topo.num_nodes(), "{} out of range", pat.name());
                prop_assert!(image.insert(d), "{} not injective at n{s}", pat.name());
                if let Some(explicit) = pat.dest(&topo, NodeId(s), &mut rng) {
                    prop_assert_ne!(explicit, NodeId(s), "{} returned src", pat.name());
                }
            }
            // Injective over a finite set of the same size => surjective.
            prop_assert_eq!(image.len(), topo.num_nodes());
        }
    }

    #[test]
    fn involutions_return_after_two_hops(topo_i in 0usize..5, src in 0u32..16) {
        // Bit-reversal, transpose, and bit-complement are self-inverse.
        let topo = pow2_topo(topo_i);
        let mut rng = StdRng::seed_from_u64(1);
        let src = NodeId(src % topo.num_nodes() as u32);
        for pat in [Pattern::BitReversal, Pattern::Transpose, Pattern::BitComplement] {
            let there = total_map(&pat, &topo, src, &mut rng);
            let back = total_map(&pat, &topo, there, &mut rng);
            prop_assert_eq!(back, src, "{} not an involution", pat.name());
        }
    }

    #[test]
    fn perfect_shuffle_cycles_after_bits_applications(topo_i in 0usize..5, src in any::<u32>()) {
        // Rotating an id left one bit per application returns to the start
        // after `log2(num_nodes)` applications.
        let topo = pow2_topo(topo_i);
        let bits = topo.num_nodes().trailing_zeros();
        let mut rng = StdRng::seed_from_u64(2);
        let src = NodeId(src % topo.num_nodes() as u32);
        let mut cur = src;
        for _ in 0..bits {
            cur = total_map(&Pattern::PerfectShuffle, &topo, cur, &mut rng);
        }
        prop_assert_eq!(cur, src);
    }

    #[test]
    fn transpose_reverses_coordinates(topo_i in 0usize..5, src in any::<u32>()) {
        let topo = pow2_topo(topo_i);
        let mut rng = StdRng::seed_from_u64(3);
        let src = NodeId(src % topo.num_nodes() as u32);
        let d = total_map(&Pattern::Transpose, &topo, src, &mut rng);
        let c = topo.coords(src);
        let n = c.dims();
        let rev: Vec<u16> = (0..n).map(|i| c.get(n - 1 - i)).collect();
        prop_assert_eq!(d, topo.node_at(&Coords::new(&rev)));
    }

    #[test]
    fn uniform_excludes_self_and_stays_in_range(
        k in 2u16..8,
        n in 1usize..4,
        src in any::<u32>(),
        seed in any::<u64>(),
    ) {
        // Uniform works on any topology, power of two or not.
        let topo = KAryNCube::torus(k, n, true);
        let src = NodeId(src % topo.num_nodes() as u32);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..64 {
            let d = Pattern::Uniform.dest(&topo, src, &mut rng);
            prop_assert!(d.is_some(), "uniform always finds a destination");
            let d = d.unwrap();
            prop_assert_ne!(d, src);
            prop_assert!(d.idx() < topo.num_nodes());
        }
    }
}

proptest! {
    // Statistical properties need many samples per case; fewer cases keep
    // the suite fast while the 4-sigma tolerances keep it deterministic.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn uniform_covers_every_other_node(seed in any::<u64>(), src in 0u32..9) {
        let topo = KAryNCube::torus(3, 2, true); // 9 nodes
        let src = NodeId(src);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seen = HashSet::new();
        for _ in 0..2000 {
            seen.insert(Pattern::Uniform.dest(&topo, src, &mut rng).unwrap());
        }
        // P(miss a specific node in 2000 draws) = (7/8)^2000 ~ 1e-116.
        prop_assert_eq!(seen.len(), topo.num_nodes() - 1);
        prop_assert!(!seen.contains(&src));
    }

    #[test]
    fn hot_spot_rate_matches_fraction(
        seed in any::<u64>(),
        frac_pct in 5u32..96,
        hot in 0u32..16,
    ) {
        let topo = KAryNCube::torus(4, 2, true); // 16 nodes
        let fraction = frac_pct as f64 / 100.0;
        let hot = NodeId(hot);
        let src = NodeId((hot.0 + 1) % 16); // src != hot
        let pat = Pattern::HotSpot { hot, fraction };
        let mut rng = StdRng::seed_from_u64(seed);
        let trials = 4000;
        let mut hits = 0;
        for _ in 0..trials {
            match pat.dest(&topo, src, &mut rng) {
                Some(d) => {
                    prop_assert_ne!(d, src);
                    if d == hot {
                        hits += 1;
                    }
                }
                None => prop_assert!(false, "src != hot never maps to itself"),
            }
        }
        // Directed traffic plus the uniform residue's 1/(n-1) share of hot.
        let expect = fraction + (1.0 - fraction) / 15.0;
        let sigma = (expect * (1.0 - expect) / trials as f64).sqrt();
        let observed = hits as f64 / trials as f64;
        prop_assert!(
            (observed - expect).abs() < 5.0 * sigma + 1e-3,
            "hot rate {observed} vs expected {expect}"
        );
    }

    #[test]
    fn hot_spot_from_hot_node_is_silent_when_fully_directed(hot in 0u32..16) {
        // fraction = 1.0 always picks the hot node; from the hot node itself
        // that is a self-send, which the pattern reports as silence.
        let topo = KAryNCube::torus(4, 2, true);
        let pat = Pattern::HotSpot { hot: NodeId(hot), fraction: 1.0 };
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..32 {
            prop_assert_eq!(pat.dest(&topo, NodeId(hot), &mut rng), None);
        }
    }

    #[test]
    fn bimodal_lengths_only_take_the_two_modes(
        seed in any::<u64>(),
        short in 1usize..16,
        extra in 0usize..48,
        frac_pct in 0u32..101,
    ) {
        let long = short + extra;
        let d = MsgLenDist::Bimodal { short, long, long_frac: frac_pct as f64 / 100.0 };
        d.check().unwrap();
        prop_assert!(d.mean() >= short as f64 && d.mean() <= long as f64);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..256 {
            let l = d.sample(&mut rng);
            prop_assert!(l == short || l == long, "sampled {l}");
        }
    }

    #[test]
    fn message_rate_is_linear_in_load_and_inverse_in_length(
        load_pct in 1u32..200,
        len in 1usize..128,
    ) {
        let topo = KAryNCube::torus(8, 2, true);
        let load = load_pct as f64 / 100.0;
        let r = message_rate(&topo, load, len as f64);
        prop_assert!(r > 0.0);
        // Linear in load.
        let r2 = message_rate(&topo, 2.0 * load, len as f64);
        prop_assert!((r2 - 2.0 * r).abs() < 1e-12 * r2.max(1.0));
        // Inverse in message length.
        let rlen = message_rate(&topo, load, (2 * len) as f64);
        prop_assert!((2.0 * rlen - r).abs() < 1e-12 * r.max(1.0));
        // The injector clamps to a valid probability: it draws exactly as
        // one built at `min(r, 1)`, and a rate of 1 or more fires on every
        // draw.
        let inj = BernoulliInjector::new(r);
        let clamped = BernoulliInjector::new(r.min(1.0));
        let over = BernoulliInjector::new(1.0 + r);
        let mut a = StdRng::seed_from_u64(load_pct as u64 * 131 + len as u64);
        let (mut b, mut c) = (a.clone(), a.clone());
        for _ in 0..256 {
            let fired = inj.fires(&mut a);
            prop_assert_eq!(fired, clamped.fires(&mut b));
            prop_assert!(fired || r < 1.0, "rate {r} missed a draw");
            prop_assert!(over.fires(&mut c), "rate {} missed a draw", 1.0 + r);
        }
    }
}
