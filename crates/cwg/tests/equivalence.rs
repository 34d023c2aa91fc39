//! Property test: the rebuild-in-place detection path produces an analysis
//! identical to a fresh `WaitGraph` built from the same snapshot.
//!
//! One `WaitGraph` and one `DetectorScratch` are reused across several
//! consecutive random "epochs" per case — exactly the detection loop's
//! usage — so stale state from any previous rebuild would be caught.

mod common;

use std::collections::HashSet;

use icn_cwg::{Adjacency, Analysis, DetectorScratch, WaitGraph};
use proptest::prelude::*;

/// A randomly generated wait-for snapshot: vertex count, ownership chains,
/// and per-message requests (parallel to chains; empty = not blocked).
#[derive(Clone, Debug)]
struct RandomCwg {
    n: usize,
    chains: Vec<Vec<u32>>,
    requests: Vec<Vec<u32>>,
}

fn random_cwg(seed: u64, n: usize) -> RandomCwg {
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
}

/// A random snapshot shaped to stress the branch-vertex contraction of the
/// cycle counter: long chains (long forced paths), several heads
/// requesting the same interior VC (forced paths that merge), heads
/// requesting their own chain (contracted self-loops) or two VCs of one
/// chain (parallel contracted arcs), single-request rings (knots with no
/// branch vertex), and messages that only wait into others' cycles
/// (non-terminal SCCs for the census).
fn contraction_cwg(seed: u64) -> RandomCwg {
    let mut state = seed | 1;
    let mut next = move |m: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as usize) % m.max(1)
    };
    let msgs = 2 + next(11);
    let mut chains: Vec<Vec<u32>> = Vec::new();
    let mut n = 0u32;
    for _ in 0..msgs {
        let len = 1 + next(4) as u32;
        chains.push((n..n + len).collect());
        n += len;
    }
    // A few free VCs: escapes, so that some components are not knots.
    let n = n + next(3) as u32;
    // How strongly this graph leans to doubled ring hops: at 3 most
    // hops double, and the count grows as 2^hops past every cap.
    let lean = next(4);
    let mut requests = Vec::new();
    for i in 0..msgs {
        let mut req: Vec<u32> = Vec::new();
        let ring_next = &chains[(i + 1) % msgs];
        let mode = if next(4) < lean { 2 } else { next(8) };
        match mode {
            // Single request to the next chain's tail: ring-shaped.
            0 | 1 => req.push(ring_next[0]),
            // Two VCs of one chain (a parallel contracted arc), and maybe
            // a chord to a random chain: dense knots, counts past the caps.
            2..=4 => {
                req.push(ring_next[0]);
                req.push(*ring_next.last().unwrap());
                if next(2) == 0 {
                    req.push(chains[next(msgs)][0]);
                }
            }
            // Its own chain: a contracted self-loop.
            5 => {
                req.push(chains[i][next(chains[i].len())]);
                req.push(ring_next[0]);
            }
            // The same interior VC as everyone else in this mode.
            6 => {
                let shared = &chains[next(2)];
                req.push(shared[shared.len() / 2]);
            }
            // Random targets, free VCs included.
            _ => {
                for _ in 0..1 + next(3) {
                    req.push(next(n as usize) as u32);
                }
            }
        }
        // Engine requests never repeat a VC.
        let mut seen = HashSet::new();
        req.retain(|t| seen.insert(*t));
        if next(8) == 0 {
            req.clear(); // moving
        }
        requests.push(req);
    }
    RandomCwg {
        n: n as usize,
        chains,
        requests,
    }
}

fn fill(g: &mut WaitGraph, cwg: &RandomCwg) {
    for (i, chain) in cwg.chains.iter().enumerate() {
        g.add_chain(i as u64 + 1, chain);
    }
    for (i, req) in cwg.requests.iter().enumerate() {
        if !req.is_empty() {
            g.add_requests(i as u64 + 1, req);
        }
    }
}

fn assert_same_analysis(got: &Analysis, expected: &Analysis) {
    assert_eq!(got.num_blocked, expected.num_blocked);
    assert_eq!(got.dependent, expected.dependent);
    assert_eq!(got.deadlocks.len(), expected.deadlocks.len());
    for (g, e) in got.deadlocks.iter().zip(expected.deadlocks.iter()) {
        assert_eq!(g.knot, e.knot);
        assert_eq!(g.deadlock_set, e.deadlock_set);
        assert_eq!(g.resource_set, e.resource_set);
        assert_eq!(g.cycle_density, e.cycle_density);
        assert_eq!(g.kind(), e.kind());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn rebuild_in_place_matches_fresh(seed in any::<u64>()) {
        let mut reused = WaitGraph::new(0);
        let mut scratch = DetectorScratch::new();
        // Several epochs of different sizes through the same storage.
        for epoch in 0..4u64 {
            let n = 6 + ((seed ^ epoch.wrapping_mul(0x9e3779b97f4a7c15)) % 34) as usize;
            let cwg = random_cwg(seed.wrapping_add(epoch), n);

            let mut fresh = WaitGraph::new(cwg.n);
            fill(&mut fresh, &cwg);
            let expected = fresh.analyze(10_000);

            reused.reset(cwg.n);
            fill(&mut reused, &cwg);
            let got = reused.analyze_with(10_000, &mut scratch);

            assert_same_analysis(&got, &expected);
            // Arc for arc against the records, so a range left stale by
            // `reset` (or by a previous epoch's victim removal) fails here.
            let adj = common::adjacency(&fresh);
            prop_assert_eq!(reused.num_vertices(), adj.len());
            for v in 0..cwg.n as u32 {
                prop_assert_eq!(reused.neighbors(v), adj[v as usize].as_slice(), "vertex {}", v);
            }
            // Leave a removed victim behind for the next epoch's reset.
            let first_blocked = reused
                .records()
                .find(|(_, _, reqs)| !reqs.is_empty())
                .map(|(m, _, _)| m);
            if let Some(m) = first_blocked {
                reused.remove_requests(m);
            }
        }
    }

    #[test]
    fn analysis_matches_frozen_previous_implementation(seed in any::<u64>()) {
        // Same knots in the same order, same sets, same `Exact`/`AtLeast`
        // density at every cap (including the caps small enough to bite),
        // same dependents; then the same residual deadlock sets after the
        // recovery loop's in-place victim removal.
        let mut scratch = DetectorScratch::new();
        let mut g = WaitGraph::new(0);
        for epoch in 0..3u64 {
            let n = 6 + ((seed ^ epoch.wrapping_mul(0x9e3779b97f4a7c15)) % 34) as usize;
            let cwg = random_cwg(seed.wrapping_add(epoch), n);
            g.reset(cwg.n);
            fill(&mut g, &cwg);
            for cap in [0, 1, 2, 3, 10_000] {
                let got = g.analyze_with(cap, &mut scratch);
                assert_same_analysis(&got, &common::analyze(&g, cap));
                assert_eq!(g.count_cycles(cap), g.count_cycles_with(cap, &mut scratch));
            }
            assert_eq!(g.knot_deadlock_sets(&mut scratch), common::knot_deadlock_sets(&g));
            let victims: Vec<u64> = g
                .analyze_with(10_000, &mut scratch)
                .deadlocks
                .iter()
                .map(|d| d.deadlock_set[0])
                .collect();
            for v in victims {
                g.remove_requests(v);
            }
            assert_eq!(g.knot_deadlock_sets(&mut scratch), common::knot_deadlock_sets(&g));
            assert_same_analysis(
                &g.analyze_with(10_000, &mut scratch),
                &common::analyze(&g, 10_000),
            );
        }
    }

    #[test]
    fn contraction_counts_match_frozen_johnson(seed in any::<u64>()) {
        // Knot densities and the whole-graph census, on the contraction,
        // against frozen Johnson on the uncontracted graph: uncapped and
        // at every cap up to 24, so the cap law is held too.
        let mut scratch = DetectorScratch::new();
        let mut g = WaitGraph::new(0);
        for epoch in 0..4u64 {
            let cwg = contraction_cwg(seed.wrapping_add(epoch));
            g.reset(cwg.n);
            fill(&mut g, &cwg);
            let adj = common::adjacency(&g);
            for cap in (0..=24).chain([u64::MAX]) {
                let got = g.analyze_with(cap, &mut scratch);
                assert_same_analysis(&got, &common::analyze(&g, cap));
                assert_eq!(
                    g.count_cycles_with(cap, &mut scratch),
                    common::count_cycles(&adj, cap),
                    "census at cap {cap}: {cwg:?}"
                );
            }
        }
    }

    #[test]
    fn in_place_victim_removal_matches_excluding_rebuild(seed in any::<u64>()) {
        let mut scratch = DetectorScratch::new();
        let cwg = random_cwg(seed, 6 + (seed % 30) as usize);

        let mut g = WaitGraph::new(cwg.n);
        fill(&mut g, &cwg);
        let analysis = g.analyze_with(10_000, &mut scratch);
        prop_assume!(analysis.has_deadlock());

        // Remove one victim per knot in place, as the recovery loop does.
        let mut victims: Vec<u64> = Vec::new();
        for d in &analysis.deadlocks {
            let v = d.deadlock_set[0];
            assert!(g.remove_requests(v), "deadlock-set member must be blocked");
            victims.push(v);
        }
        let residual_sets = g.knot_deadlock_sets(&mut scratch);
        // So the runner's recovery is one round.
        assert!(residual_sets.is_empty(), "one victim per knot leaves no knot");

        // Reference: rebuild from scratch with the victims' requests dropped.
        let mut rebuilt = WaitGraph::new(cwg.n);
        for (i, chain) in cwg.chains.iter().enumerate() {
            rebuilt.add_chain(i as u64 + 1, chain);
        }
        for (i, req) in cwg.requests.iter().enumerate() {
            let id = i as u64 + 1;
            if !req.is_empty() && !victims.contains(&id) {
                rebuilt.add_requests(id, req);
            }
        }
        let reference = rebuilt.analyze(10_000);
        let reference_sets: Vec<Vec<u64>> = reference
            .deadlocks
            .iter()
            .map(|d| d.deadlock_set.clone())
            .collect();
        assert_eq!(residual_sets, reference_sets);

        // Arc-for-arc equality, the stronger invariant behind it, against
        // both the rebuilt graph and its records.
        let adj = common::adjacency(&rebuilt);
        for v in 0..cwg.n as u32 {
            assert_eq!(g.neighbors(v), rebuilt.neighbors(v), "vertex {v} arcs diverge");
            assert_eq!(g.neighbors(v), adj[v as usize].as_slice(), "vertex {v} arcs diverge");
            assert_eq!(g.owner(v), rebuilt.owner(v), "vertex {v} owner diverges");
        }
    }
}
