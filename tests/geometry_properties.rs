//! Property-based tests over topology geometry and routing relations.

use icn_routing::{Dor, NegativeFirst, RoutingAlgorithm, RoutingCtx, Tfar};
use icn_topology::{KAryNCube, NodeId};
use proptest::prelude::*;

fn topologies() -> impl Strategy<Value = KAryNCube> {
    (2u16..7, 1usize..4, any::<bool>(), any::<bool>()).prop_map(|(k, n, torus, bidir)| {
        if torus {
            KAryNCube::torus(k, n, bidir)
        } else {
            KAryNCube::mesh(k, n)
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Distances satisfy identity, (directional) triangle inequality, and
    /// symmetry on bidirectional networks.
    #[test]
    fn distance_metric_properties(topo in topologies(), seed in any::<u64>()) {
        let n = topo.num_nodes() as u64;
        let a = NodeId((seed % n) as u32);
        let b = NodeId(((seed / n) % n) as u32);
        let c = NodeId(((seed / (n * n)) % n) as u32);
        prop_assert_eq!(topo.distance(a, a), 0);
        if a != b {
            prop_assert!(topo.distance(a, b) >= 1);
        }
        prop_assert!(topo.distance(a, c) <= topo.distance(a, b) + topo.distance(b, c));
        if topo.ports_per_node() == 2 * topo.n() {
            prop_assert_eq!(topo.distance(a, b), topo.distance(b, a));
        }
    }

    /// Every channel connects nodes at distance exactly one, and
    /// neighbour lookups agree with channel tables.
    #[test]
    fn channels_are_unit_hops(topo in topologies()) {
        for id in 0..topo.num_channels() as u32 {
            let info = *topo.channel(icn_topology::ChannelId(id));
            prop_assert_eq!(topo.distance(info.src, info.dst), 1);
            prop_assert_eq!(
                topo.channel_from(info.src, info.dim as usize, info.dir),
                Some(icn_topology::ChannelId(id))
            );
        }
    }

    /// Average distance is consistent with a direct enumeration.
    #[test]
    fn avg_distance_matches_enumeration(k in 2u16..6, n in 1usize..3, bidir in any::<bool>()) {
        let topo = KAryNCube::torus(k, n, bidir);
        let nodes = topo.num_nodes() as u32;
        let mut total = 0u64;
        for a in 0..nodes {
            for b in 0..nodes {
                if a != b {
                    total += topo.distance(NodeId(a), NodeId(b)) as u64;
                }
            }
        }
        let expect = total as f64 / (nodes as f64 * (nodes - 1) as f64);
        prop_assert!((topo.avg_distance() - expect).abs() < 1e-9,
            "computed {} vs enumerated {expect}", topo.avg_distance());
    }

    /// Following any sequence of DOR hops reaches the destination in
    /// exactly `distance` steps (the relation is a function and minimal).
    #[test]
    fn dor_walk_terminates_minimally(topo in topologies(), seed in any::<u64>()) {
        let n = topo.num_nodes() as u64;
        let src = NodeId((seed % n) as u32);
        let dst = NodeId(((seed / n) % n) as u32);
        prop_assume!(src != dst);
        let mut cur = src;
        let mut hops = 0u32;
        let mut out = Vec::new();
        while cur != dst {
            out.clear();
            Dor.candidates(&topo, 1, &RoutingCtx::fresh(src, dst, cur), &mut out);
            prop_assert_eq!(out.len(), 1, "DOR is a function");
            cur = topo.channel(out[0].channel).dst;
            hops += 1;
            prop_assert!(hops <= topo.num_nodes() as u32, "walk must terminate");
        }
        prop_assert_eq!(hops, topo.distance(src, dst));
    }

    /// Any greedy walk over TFAR candidates (always taking the first)
    /// also reaches the destination minimally.
    #[test]
    fn tfar_walk_terminates_minimally(topo in topologies(), seed in any::<u64>()) {
        let n = topo.num_nodes() as u64;
        let src = NodeId((seed % n) as u32);
        let dst = NodeId(((seed / n) % n) as u32);
        prop_assume!(src != dst);
        let mut cur = src;
        let mut last_dim = None;
        let mut hops = 0u32;
        let mut out = Vec::new();
        let pick = (seed >> 32) as usize;
        while cur != dst {
            out.clear();
            let mut ctx = RoutingCtx::fresh(src, dst, cur);
            ctx.last_dim = last_dim;
            Tfar.candidates(&topo, 1, &ctx, &mut out);
            prop_assert!(!out.is_empty());
            let cand = out[(pick + hops as usize) % out.len()];
            let info = topo.channel(cand.channel);
            cur = info.dst;
            last_dim = Some(info.dim);
            hops += 1;
        }
        prop_assert_eq!(hops, topo.distance(src, dst));
    }

    /// Negative-first on meshes: once a positive hop has been taken, no
    /// negative hop is ever offered again (the turn prohibition).
    #[test]
    fn negative_first_never_turns_back_negative(k in 3u16..7, seed in any::<u64>()) {
        let topo = KAryNCube::mesh(k, 2);
        let n = topo.num_nodes() as u64;
        let src = NodeId((seed % n) as u32);
        let dst = NodeId(((seed / n) % n) as u32);
        prop_assume!(src != dst);
        let mut cur = src;
        let mut seen_positive = false;
        let mut out = Vec::new();
        while cur != dst {
            out.clear();
            NegativeFirst.candidates(&topo, 1, &RoutingCtx::fresh(src, dst, cur), &mut out);
            prop_assert!(!out.is_empty());
            for c in &out {
                let dir = topo.channel(c.channel).dir;
                if seen_positive {
                    prop_assert_eq!(dir, icn_topology::Direction::Plus);
                }
            }
            let info = topo.channel(out[0].channel);
            if info.dir == icn_topology::Direction::Plus {
                seen_positive = true;
            }
            cur = info.dst;
        }
    }
}
