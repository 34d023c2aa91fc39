//! Property-based tests over the detector and the engine.

use std::collections::HashSet;

use icn_cwg::{Analysis, CwgSnapshot, WaitGraph};
use icn_routing::{DatelineDor, Dor, DuatoFar, RoutingAlgorithm, Tfar, WestFirst};
use icn_sim::{Network, SimConfig, SnapshotArena};
use icn_topology::{KAryNCube, NodeId};
use proptest::prelude::*;

/// The knot analysis of `net`'s current wait-for state.
fn analyze_now(net: &Network, density_cap: u64) -> Analysis {
    let mut arena = SnapshotArena::new();
    net.wait_snapshot_into(&mut arena);
    CwgSnapshot::from_messages(
        arena.num_vertices(),
        arena.messages().map(|m| (m.id, m.chain, m.requests)),
    )
    .build_graph()
    .analyze(density_cap)
}

/// A randomly generated wait-for snapshot: vertex count, ownership chains,
/// and per-message requests.
#[derive(Clone, Debug)]
struct RandomCwg {
    n: usize,
    chains: Vec<Vec<u32>>,
    requests: Vec<Vec<u32>>, // parallel to chains; empty = not blocked
}

fn random_cwg() -> impl Strategy<Value = RandomCwg> {
    (6usize..40, any::<u64>()).prop_map(|(n, seed)| {
        // Deterministic pseudo-random construction from the seed.
        let mut state = seed | 1;
        let mut next = move |m: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % m.max(1)
        };
        let mut free: Vec<u32> = (0..n as u32).collect();
        let mut chains = Vec::new();
        let mut requests = Vec::new();
        while free.len() > 2 && chains.len() < n / 2 {
            let len = 1 + next(3.min(free.len() - 1));
            let chain: Vec<u32> = (0..len)
                .map(|_| {
                    let i = next(free.len());
                    free.swap_remove(i)
                })
                .collect();
            chains.push(chain);
            requests.push(Vec::new());
        }
        for i in 0..chains.len() {
            if next(4) == 0 {
                continue; // moving message
            }
            let own: HashSet<u32> = chains[i].iter().copied().collect();
            let mut req = Vec::new();
            for _ in 0..(1 + next(3)) {
                let t = next(n) as u32;
                if !own.contains(&t) && !req.contains(&t) {
                    req.push(t);
                }
            }
            requests[i] = req;
        }
        RandomCwg {
            n,
            chains,
            requests,
        }
    })
}

fn build(g: &RandomCwg) -> WaitGraph {
    let mut wg = WaitGraph::new(g.n);
    for (i, chain) in g.chains.iter().enumerate() {
        wg.add_chain(i as u64 + 1, chain);
    }
    for (i, req) in g.requests.iter().enumerate() {
        if !req.is_empty() {
            wg.add_requests(i as u64 + 1, req);
        }
    }
    wg
}

/// Brute-force reachability: adjacency from chains + requests.
fn adjacency(g: &RandomCwg) -> Vec<Vec<u32>> {
    let mut adj = vec![Vec::new(); g.n];
    for (i, chain) in g.chains.iter().enumerate() {
        for w in chain.windows(2) {
            adj[w[0] as usize].push(w[1]);
        }
        if !g.requests[i].is_empty() {
            let head = *chain.last().unwrap();
            for &t in &g.requests[i] {
                adj[head as usize].push(t);
            }
        }
    }
    adj
}

fn reach(adj: &[Vec<u32>], v: u32) -> HashSet<u32> {
    let mut seen = HashSet::new();
    let mut stack: Vec<u32> = adj[v as usize].clone();
    while let Some(w) = stack.pop() {
        if seen.insert(w) {
            stack.extend(adj[w as usize].iter().copied());
        }
    }
    seen
}

/// Brute-force knot membership: v is in a knot iff v can reach itself and
/// every reachable vertex has exactly the same reachable set.
fn brute_force_knot_vertices(adj: &[Vec<u32>]) -> HashSet<u32> {
    let mut out = HashSet::new();
    for v in 0..adj.len() as u32 {
        let r = reach(adj, v);
        if !r.contains(&v) {
            continue;
        }
        if r.iter().all(|&w| reach(adj, w) == r) {
            out.insert(v);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The analyzer's knots agree exactly with the definitional
    /// (reachability-based) knot computation.
    #[test]
    fn knots_match_brute_force(g in random_cwg()) {
        let wg = build(&g);
        let analysis = wg.analyze(100_000);
        let detected: HashSet<u32> = analysis
            .deadlocks
            .iter()
            .flat_map(|d| d.knot.iter().copied())
            .collect();
        let expected = brute_force_knot_vertices(&adjacency(&g));
        prop_assert_eq!(detected, expected);
    }

    /// Deadlock sets contain only blocked messages owning knot vertices,
    /// and resource sets are exactly the union of their chains.
    #[test]
    fn deadlock_sets_are_consistent(g in random_cwg()) {
        let wg = build(&g);
        let analysis = wg.analyze(100_000);
        for d in &analysis.deadlocks {
            prop_assert!(!d.deadlock_set.is_empty());
            prop_assert!(d.cycle_density.value() >= 1);
            let expect_resources: HashSet<u32> = d
                .deadlock_set
                .iter()
                .flat_map(|m| {
                    let (_, chain, _) = wg.records().find(|&(id, _, _)| id == *m).unwrap();
                    chain.iter().copied()
                })
                .collect();
            let got: HashSet<u32> = d.resource_set.iter().copied().collect();
            prop_assert_eq!(got, expect_resources);
            // Every knot vertex is owned by a deadlock-set message.
            for &v in &d.knot {
                let owner = wg.owner(v).expect("knot vertices are owned");
                prop_assert!(d.deadlock_set.contains(&owner));
            }
            // Deadlock-set messages are blocked (they have requests).
            for m in &d.deadlock_set {
                prop_assert!(wg.records().any(|(id, _, reqs)| id == *m && !reqs.is_empty()));
            }
        }
        // Dependent messages are disjoint from every deadlock set.
        let all_deadlocked: HashSet<u64> = analysis
            .deadlocks
            .iter()
            .flat_map(|d| d.deadlock_set.iter().copied())
            .collect();
        for (m, _) in &analysis.dependent {
            prop_assert!(!all_deadlocked.contains(m));
        }
    }

    /// Engine invariants hold for arbitrary configurations and traffic.
    #[test]
    fn engine_invariants_hold(
        k in 3u16..6,
        n in 1usize..3,
        vcs in 1usize..4,
        depth in 1usize..9,
        msg_len in 1usize..12,
        bidir in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let topo = KAryNCube::torus(k, n, bidir);
        let nodes = topo.num_nodes() as u32;
        let mut net = Network::new(
            topo,
            Box::new(Tfar),
            SimConfig { vcs_per_channel: vcs, buffer_depth: depth, msg_len },
        );
        let mut state = seed | 1;
        let mut next = move |m: u32| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as u32) % m
        };
        for cycle in 0..400u32 {
            if next(3) == 0 {
                let s = next(nodes);
                let d = (s + 1 + next(nodes - 1)) % nodes;
                net.enqueue(NodeId(s), NodeId(d));
            }
            net.step();
            if cycle.is_multiple_of(40) {
                net.check_invariants();
            }
        }
        net.check_invariants();
        let (generated, injected, delivered, _) = net.totals();
        prop_assert!(injected <= generated);
        prop_assert!(delivered as usize + net.in_network() + net.source_queued() == generated as usize);
    }

    /// Avoidance-based routing relations never produce a knot, under any
    /// traffic the generator throws at them.
    #[test]
    fn avoidance_algorithms_never_knot(seed in any::<u64>(), algo_pick in 0usize..3) {
        let (topo, algo): (KAryNCube, Box<dyn RoutingAlgorithm>) = match algo_pick {
            0 => (KAryNCube::torus(4, 2, true), Box::new(DatelineDor)),
            1 => (KAryNCube::torus(4, 2, true), Box::new(DuatoFar)),
            _ => (KAryNCube::mesh(4, 2), Box::new(WestFirst)),
        };
        let vcs = algo.min_vcs().max(1);
        let nodes = topo.num_nodes() as u32;
        let mut net = Network::new(
            topo,
            algo,
            SimConfig { vcs_per_channel: vcs, buffer_depth: 2, msg_len: 6 },
        );
        let mut state = seed | 1;
        let mut next = move |m: u32| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as u32) % m
        };
        for cycle in 0..600u32 {
            // heavy traffic: try to wedge it
            let s = next(nodes);
            let d = (s + 1 + next(nodes - 1)) % nodes;
            net.enqueue(NodeId(s), NodeId(d));
            net.step();
            if cycle.is_multiple_of(50) {
                let analysis = analyze_now(&net, 10_000);
                prop_assert!(!analysis.has_deadlock(), "avoidance produced a knot");
            }
        }
    }

    /// Unrestricted routing + detection + recovery always drains the
    /// network once injection stops (recovery-based liveness).
    #[test]
    fn recovery_drains_everything(seed in any::<u64>(), dor in any::<bool>()) {
        let topo = KAryNCube::torus(4, 2, false);
        let algo: Box<dyn RoutingAlgorithm> = if dor { Box::new(Dor) } else { Box::new(Tfar) };
        let nodes = topo.num_nodes() as u32;
        let mut net = Network::new(
            topo,
            algo,
            SimConfig { vcs_per_channel: 1, buffer_depth: 2, msg_len: 8 },
        );
        let mut state = seed | 1;
        let mut next = move |m: u32| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as u32) % m
        };
        // Slam the network, then stop injecting and let detection+recovery
        // drain it.
        for _ in 0..300u32 {
            let s = next(nodes);
            let d = (s + 1 + next(nodes - 1)) % nodes;
            net.enqueue(NodeId(s), NodeId(d));
            net.step();
        }
        let mut cycles = 0u32;
        while (net.in_network() > 0 || net.source_queued() > 0) && cycles < 60_000 {
            net.step();
            cycles += 1;
            if net.cycle().is_multiple_of(50) {
                let analysis = analyze_now(&net, 2_000);
                for d in &analysis.deadlocks {
                    let victim = *d.deadlock_set.iter().min().unwrap();
                    net.start_recovery(victim);
                }
            }
        }
        prop_assert_eq!(net.in_network(), 0, "network failed to drain");
        prop_assert_eq!(net.source_queued(), 0);
        let (generated, _, delivered, _) = net.totals();
        prop_assert_eq!(generated, delivered);
    }
}
