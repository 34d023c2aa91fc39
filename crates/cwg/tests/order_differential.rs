//! Differential test of knot order: the record-graph analysis against the
//! frozen reference (`common`: the whole VC space through its own
//! frame-only Tarjan), field for field and knot for knot in emission
//! order, and against `icn-validate`'s naive oracle set for set; and the
//! blocked-only graph the runner analyses against the full snapshot's.
//!
//! The generator is built to make the two orders differ if anything is
//! off: several knots on ascending vertex blocks, dependents on the
//! lowest vertices that request a *higher* knot first, chains laid out
//! against the vertex order, requests into the middle of chains, heads
//! requesting their own chain (self-loops on records), repeated targets
//! (parallel arcs), knots broken by a free target, by a moving chain or
//! by a request into another knot, and, in half the cases, every vertex
//! renumbered at random.

mod common;

use icn_cwg::{CwgMsg, CwgSnapshot, DetectorScratch, WaitGraph};
use icn_validate::{check_messages, SplitMix64};

/// A random wait-state shaped as the module docs describe.
fn order_snapshot(seed: u64) -> CwgSnapshot {
    let mut rng = SplitMix64::new(seed);
    let mut next = 0u32;
    let mut block = |rng: &mut SplitMix64| {
        let len = 1 + rng.gen_range(3) as u32;
        let mut chain: Vec<u32> = (next..next + len).collect();
        next += len;
        if rng.gen_bool(0.5) {
            chain.reverse();
        }
        chain
    };
    // Dependents first, on the lowest vertices; then the knots; then
    // moving chains.
    let deps: Vec<Vec<u32>> = (0..rng.gen_range(4)).map(|_| block(&mut rng)).collect();
    let knots: Vec<Vec<Vec<u32>>> = (0..2 + rng.gen_range(3))
        .map(|_| (0..1 + rng.gen_range(3)).map(|_| block(&mut rng)).collect())
        .collect();
    let moving: Vec<Vec<u32>> = (0..rng.gen_range(3)).map(|_| block(&mut rng)).collect();
    let n = next + 1 + rng.gen_range(3) as u32;
    let free = |rng: &mut SplitMix64| n - 1 - rng.gen_range((n - next) as usize) as u32;
    let pick = |rng: &mut SplitMix64, chains: &[Vec<u32>]| {
        let c = &chains[rng.gen_range(chains.len())];
        c[rng.gen_range(c.len())]
    };

    let mut messages = Vec::new();
    for (k, members) in knots.iter().enumerate() {
        for (i, chain) in members.iter().enumerate() {
            let ring = &members[(i + 1) % members.len()];
            let mut requests = vec![ring[rng.gen_range(ring.len())]];
            for _ in 0..rng.gen_range(3) {
                requests.push(pick(&mut rng, members)); // self-loops, repeats
            }
            match rng.gen_range(12) {
                0 => requests.push(free(&mut rng)),
                1 if !moving.is_empty() => requests.push(pick(&mut rng, &moving)),
                2 => {
                    let other = rng.gen_range(knots.len());
                    requests.push(pick(&mut rng, &knots[other]));
                }
                _ => {}
            }
            if rng.gen_bool(0.5) {
                requests.reverse();
            }
            messages.push(CwgMsg {
                id: 100 * k as u64 + 10 + i as u64,
                chain: chain.clone(),
                requests,
            });
        }
    }
    for (d, chain) in deps.iter().enumerate() {
        // Higher knots first, each into a random member's chain.
        let mut requests = Vec::new();
        for k in (0..knots.len()).rev() {
            if rng.gen_bool(0.6) {
                requests.push(pick(&mut rng, &knots[k]));
            }
        }
        if rng.gen_bool(0.3) {
            requests.push(free(&mut rng));
        }
        if d > 0 && rng.gen_bool(0.3) {
            requests.insert(0, pick(&mut rng, &deps[..d]));
        }
        messages.push(CwgMsg {
            id: 1000 + d as u64,
            chain: chain.clone(),
            requests,
        });
    }
    for (i, chain) in moving.iter().enumerate() {
        messages.push(CwgMsg {
            id: 2000 + i as u64,
            chain: chain.clone(),
            requests: Vec::new(),
        });
    }

    if rng.gen_bool(0.5) {
        let mut perm: Vec<u32> = (0..n).collect();
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.gen_range(i + 1));
        }
        for m in &mut messages {
            for v in m.chain.iter_mut().chain(m.requests.iter_mut()) {
                *v = perm[*v as usize];
            }
        }
    }
    // Registration order must reach no output.
    for i in (1..messages.len()).rev() {
        messages.swap(i, rng.gen_range(i + 1));
    }
    CwgSnapshot {
        num_vertices: n as usize,
        messages,
    }
}

/// Same analysis and same deadlock sets as the frozen reference, knot
/// order included, and the oracle's verdict set for set.
fn assert_agree(g: &WaitGraph, snap: &CwgSnapshot, scratch: &mut DetectorScratch, seed: u64) {
    for cap in [2, 1_000] {
        let got = g.analyze_with(cap, scratch);
        assert_eq!(
            got,
            common::analyze(g, cap),
            "seed {seed}, cap {cap}: {snap:?}"
        );
        let divergences = check_messages(snap, Some(&got));
        assert!(divergences.is_empty(), "seed {seed}: {divergences:?}");
    }
    assert_eq!(
        g.knot_deadlock_sets(scratch),
        common::knot_deadlock_sets(g),
        "seed {seed}: {snap:?}"
    );
}

#[test]
fn record_graph_knots_match_the_vc_space_in_emission_order() {
    let mut scratch = DetectorScratch::new();
    let (mut multi, mut out_of_order) = (0, 0);
    for seed in 0..4000 {
        let mut snap = order_snapshot(seed);
        let mut g = snap.build_graph();
        assert_agree(&g, &snap, &mut scratch, seed);

        let sets = g.knot_deadlock_sets(&mut scratch);
        let least: Vec<u32> = g
            .analyze_with(2, &mut scratch)
            .deadlocks
            .iter()
            .map(|d| d.knot[0])
            .collect();
        multi += usize::from(sets.len() >= 2);
        out_of_order += usize::from(least.windows(2).any(|w| w[0] > w[1]));

        // The recovery round's residual graph: one victim per knot stops
        // waiting.
        for set in &sets {
            assert!(g.remove_requests(set[0]));
            let m = snap.messages.iter_mut().find(|m| m.id == set[0]).unwrap();
            m.requests.clear();
        }
        assert_agree(&g, &snap, &mut scratch, seed);
    }
    // The generator does what the module docs claim it does.
    assert!(multi > 2000, "{multi} multi-knot cases");
    assert!(out_of_order > 800, "{out_of_order} out of vertex order");
}

#[test]
fn blocked_only_graph_analyzes_like_the_full_snapshot() {
    // The runner analyses a graph of the blocked records alone. A moving
    // record is a sink, as the free node is, so dropping it changes no
    // output: the same analysis, knot order included.
    let mut scratch = DetectorScratch::new();
    let mut into_moving = 0;
    for seed in 0..4000 {
        let full = order_snapshot(seed);
        let (blocked, moving): (Vec<CwgMsg>, Vec<CwgMsg>) = full
            .messages
            .iter()
            .cloned()
            .partition(|m| !m.requests.is_empty());
        let moving: Vec<u32> = moving.into_iter().flat_map(|m| m.chain).collect();
        into_moving += usize::from(
            blocked
                .iter()
                .any(|m| m.requests.iter().any(|t| moving.contains(t))),
        );
        let g = full.build_graph();
        let b = CwgSnapshot {
            num_vertices: full.num_vertices,
            messages: blocked,
        }
        .build_graph();
        for cap in [2, 1_000] {
            assert_eq!(
                b.analyze_with(cap, &mut scratch),
                g.analyze_with(cap, &mut scratch),
                "seed {seed}, cap {cap}: {full:?}"
            );
        }
        assert_eq!(
            b.knot_deadlock_sets(&mut scratch),
            g.knot_deadlock_sets(&mut scratch),
            "seed {seed}: {full:?}"
        );
    }
    // Requests into moving chains are common enough to matter.
    assert!(into_moving > 800, "{into_moving} cases");
}
