//! Partitioned-decide differential: an instance whose transfer phase runs
//! the partitioned decide + canonical apply (`set_shards(n)`, `n > 1`)
//! must be indistinguishable — same [`StepEvents`], counters, invariants,
//! wait-for snapshots and traces, cycle for cycle — from one running the
//! fused serial walk, at every partition count. The argument (partition
//! shape depends only on `(words, n)`, decisions only on start-of-cycle
//! state, buffers applied in partition order) is pinned to the
//! implementation here, above saturation where the scan set is densest.
//!
//! Everything here requires the `parallel` cargo feature (the knob is a
//! no-op without it); the clamp itself is covered on both builds in
//! `tests/engine_sharded.rs`.
#![cfg(feature = "parallel")]

use icn_routing::{Dor, DuatoFar, RoutingAlgorithm, Tfar};
use icn_sim::{Network, SimConfig};
use icn_topology::{KAryNCube, NodeId};
use proptest::prelude::*;

/// SplitMix64, as in the base differential suite.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

struct Golden {
    topo: KAryNCube,
    routing: fn() -> Box<dyn RoutingAlgorithm>,
    cfg: SimConfig,
}

/// The four golden-regime points of the saturation differential, on
/// 16-ary 2-cubes: 512 channels (8 active-set words) unidirectional and
/// 1,024 (16 words) bidirectional, so every count up to 8 is effective.
fn goldens() -> Vec<Golden> {
    vec![
        Golden {
            topo: KAryNCube::torus(16, 2, false),
            routing: || Box::new(Dor),
            cfg: SimConfig {
                vcs_per_channel: 1,
                buffer_depth: 2,
                msg_len: 8,
            },
        },
        Golden {
            topo: KAryNCube::torus(16, 2, true),
            routing: || Box::new(Dor),
            cfg: SimConfig {
                vcs_per_channel: 1,
                buffer_depth: 2,
                msg_len: 8,
            },
        },
        Golden {
            topo: KAryNCube::torus(16, 2, true),
            routing: || Box::new(Tfar),
            cfg: SimConfig {
                vcs_per_channel: 2,
                buffer_depth: 2,
                msg_len: 8,
            },
        },
        Golden {
            topo: KAryNCube::torus(16, 2, true),
            routing: || Box::new(DuatoFar),
            cfg: SimConfig {
                vcs_per_channel: 3,
                buffer_depth: 8,
                msg_len: 8,
            },
        },
    ]
}

/// Drives a serial and a partitioned instance through `cycles` of
/// above-saturation traffic with periodic recovery pulls, comparing
/// events, counters, invariants and snapshot fingerprints cycle for cycle,
/// and the full traces at the end.
fn partitioned_lockstep(g: &Golden, shards: usize, seed: u64, cycles: u64) {
    let mut a = Network::new(g.topo.clone(), (g.routing)(), g.cfg);
    let mut b = Network::new(g.topo.clone(), (g.routing)(), g.cfg);
    assert_eq!(a.set_shards(1), 1);
    let words = g.topo.num_channels().div_ceil(64);
    assert_eq!(b.set_shards(shards), shards.min(words), "effective count");
    a.enable_trace(1 << 16);
    b.enable_trace(1 << 16);
    let nodes = g.topo.num_nodes() as u64;
    let mut arrivals = Rng(seed);
    let mut arena_a = icn_sim::SnapshotArena::new();
    let mut arena_b = icn_sim::SnapshotArena::new();
    for cycle in 0..cycles {
        for n in 0..nodes {
            let mut dst = arrivals.below(nodes);
            if dst == n {
                dst = (dst + 1) % nodes;
            }
            a.enqueue(NodeId(n as u32), NodeId(dst as u32));
            b.enqueue(NodeId(n as u32), NodeId(dst as u32));
        }
        // Recovery pulls keep the drain path hot between the two walks.
        if cycle % 48 == 47 {
            let victim = a
                .active_ids()
                .into_iter()
                .find(|&id| a.message_info(id).is_some_and(|m| m.blocked));
            if let Some(id) = victim {
                assert_eq!(a.message_info(id), b.message_info(id));
                assert_eq!(a.start_recovery(id), b.start_recovery(id));
            }
        }
        let ea = a.step();
        let eb = b.step();
        assert_eq!(
            ea, eb,
            "step events diverged at cycle {cycle} ({shards} partitions, seed {seed})"
        );
        if cycle % 32 == 0 || cycle + 1 == cycles {
            a.check_invariants();
            b.check_invariants();
            assert_eq!(a.blocked_count(), b.blocked_count(), "cycle {cycle}");
            assert_eq!(a.in_network(), b.in_network(), "cycle {cycle}");
            assert_eq!(a.active_ids(), b.active_ids(), "cycle {cycle}");
            a.wait_snapshot_into(&mut arena_a);
            b.wait_snapshot_into(&mut arena_b);
            assert_eq!(
                arena_a.fingerprint(),
                arena_b.fingerprint(),
                "wait-state diverged at cycle {cycle}"
            );
        }
    }
    assert_eq!(
        a.totals(),
        b.totals(),
        "lifetime counters diverged ({shards} partitions, seed {seed})"
    );
    assert_eq!(a.source_queued(), b.source_queued());
    assert_eq!(a.take_trace(), b.take_trace(), "traces diverged");
}

#[test]
fn golden_regimes_agree_at_every_partition_count() {
    for (i, g) in goldens().iter().enumerate() {
        for shards in [2, 3, 5, 8] {
            partitioned_lockstep(g, shards, 0x5aa_0000 + i as u64, 300);
        }
    }
}

/// A request above the word count clamps to it — one-word partitions —
/// and still agrees.
#[test]
fn overpartitioning_clamps_and_agrees() {
    partitioned_lockstep(&goldens()[0], 64, 0xc1a_0b5, 300);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized above-saturation points: any golden regime, any seed,
    /// any partition count 2..=9.
    #[test]
    fn partitioned_differential_holds(seed in any::<u64>()) {
        let gs = goldens();
        let g = &gs[(seed % gs.len() as u64) as usize];
        let shards = 2 + (seed / 7 % 8) as usize;
        partitioned_lockstep(g, shards, seed, 200);
    }
}
