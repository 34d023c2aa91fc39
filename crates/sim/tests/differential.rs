//! Differential test: the activity-driven stepper ([`Network::step`]) must
//! be byte-identical to the dense reference stepper
//! ([`Network::step_reference`]) — same [`StepEvents`] every cycle, same
//! traces, same counters — across randomized topologies, routing
//! relations, loads, and recovery interventions. This is the ordering
//! guarantee the wake lists and ready lists exist to preserve: skipping
//! work is only legal because the skipped attempts would have changed
//! nothing.

use icn_routing::{DatelineDor, Dor, DuatoFar, RoutingAlgorithm, Tfar};
use icn_sim::{MsgPhase, Network, SimConfig};
use icn_topology::{KAryNCube, NodeId};
use proptest::prelude::*;

/// SplitMix64: one seed drives every sampled parameter and arrival.
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

    fn chance(&mut self, permille: u64) -> bool {
        self.below(1000) < permille
    }
}

fn routing_for(pick: u64) -> Box<dyn RoutingAlgorithm> {
    match pick % 4 {
        0 => Box::new(Dor),
        1 => Box::new(Tfar),
        2 => Box::new(DatelineDor),
        _ => Box::new(DuatoFar),
    }
}

/// Builds one network from sampled parameters; called twice per case so
/// both steppers start from identical instances.
fn build(rng_seed: u64) -> Network {
    let mut r = Rng(rng_seed);
    let k = 2 + r.below(3) as u16; // radix 2..4
    let dims = 1 + r.below(2) as usize; // 1-2 dimensions
    let bidir = r.chance(500);
    let routing = routing_for(r.below(4));
    let vcs = routing.min_vcs() + r.below(2) as usize;
    let cfg = SimConfig {
        vcs_per_channel: vcs,
        buffer_depth: 1 + r.below(3) as usize,
        msg_len: 1 + r.below(5) as usize,
    };
    Network::new(KAryNCube::torus(k, dims, bidir), routing, cfg)
}

/// Drives `a` (activity) and `b` (dense reference) through an identical
/// schedule of arrivals and recovery pulls, comparing everything.
fn differential_case(seed: u64, cycles: u64) {
    let mut a = build(seed);
    let mut b = build(seed);
    a.enable_trace(1 << 14);
    b.enable_trace(1 << 14);
    let nodes = a.topology().num_nodes() as u64;
    let mut arrivals = Rng(seed ^ 0xabcd_ef01);
    let permille = 50 + arrivals.below(500); // offered load 5%..55%

    for cycle in 0..cycles {
        for n in 0..nodes {
            if arrivals.chance(permille) {
                let mut dst = arrivals.below(nodes);
                if dst == n {
                    dst = (dst + 1) % nodes;
                }
                a.enqueue(NodeId(n as u32), NodeId(dst as u32));
                b.enqueue(NodeId(n as u32), NodeId(dst as u32));
            }
        }
        // Occasionally pull the oldest blocked message through recovery —
        // in both instances, from the *same* observation.
        if cycle % 64 == 63 {
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
        let eb = b.step_reference();
        assert_eq!(
            ea, eb,
            "step events diverged at cycle {cycle} (seed {seed})"
        );
        if cycle % 32 == 0 || cycle + 1 == cycles {
            a.check_invariants();
            b.check_invariants();
            assert_eq!(a.blocked_count(), b.blocked_count(), "cycle {cycle}");
            assert_eq!(a.in_network(), b.in_network(), "cycle {cycle}");
            assert_eq!(a.active_ids(), b.active_ids(), "cycle {cycle}");
        }
    }
    assert_eq!(
        a.totals(),
        b.totals(),
        "lifetime counters diverged (seed {seed})"
    );
    assert_eq!(a.source_queued(), b.source_queued());
    let (trace_a, dropped_a) = a.take_trace();
    let (trace_b, dropped_b) = b.take_trace();
    assert_eq!(dropped_a, dropped_b);
    assert_eq!(trace_a, trace_b, "traces diverged (seed {seed})");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(72))]

    #[test]
    fn activity_stepper_matches_dense_reference(seed in any::<u64>()) {
        differential_case(seed, 420);
    }
}

/// Saturating a 1-VC unidirectional DOR torus wedges it into true
/// deadlocks; both steppers must agree cycle-for-cycle while mostly
/// blocked, and again while recovery pulls drain the knots. This is the
/// regime the activity engine is built for — and the easiest one to get
/// a missed wake wrong in.
#[test]
fn differential_through_deadlock_and_recovery() {
    let build = || {
        Network::new(
            KAryNCube::torus(4, 2, false),
            Box::new(Dor),
            SimConfig {
                vcs_per_channel: 1,
                buffer_depth: 2,
                msg_len: 4,
            },
        )
    };
    let mut a = build();
    let mut b = build();
    a.enable_trace(1 << 15);
    b.enable_trace(1 << 15);
    let nodes = a.topology().num_nodes() as u64;
    let mut arrivals = Rng(0xdead_beef);
    let mut recovered = 0u64;
    for cycle in 0..1500u64 {
        for n in 0..nodes {
            // Saturating load: every node offers traffic every cycle.
            let mut dst = arrivals.below(nodes);
            if dst == n {
                dst = (dst + 1) % nodes;
            }
            a.enqueue(NodeId(n as u32), NodeId(dst as u32));
            b.enqueue(NodeId(n as u32), NodeId(dst as u32));
        }
        // Once wedged, pull the oldest blocked message — keeps traffic
        // flowing through repeated deadlock / recovery rounds.
        if cycle % 96 == 95 {
            let victim = a
                .active_ids()
                .into_iter()
                .find(|&id| a.message_info(id).is_some_and(|m| m.blocked));
            if let Some(id) = victim {
                assert_eq!(a.start_recovery(id), b.start_recovery(id));
                recovered += 1;
            }
        }
        let ea = a.step();
        let eb = b.step_reference();
        assert_eq!(ea, eb, "step events diverged at cycle {cycle}");
        if cycle % 50 == 0 {
            a.check_invariants();
            b.check_invariants();
            assert_eq!(a.blocked_count(), b.blocked_count());
        }
    }
    assert!(recovered > 0, "saturated uni-DOR torus should have wedged");
    assert_eq!(a.totals(), b.totals());
    let (trace_a, _) = a.take_trace();
    let (trace_b, _) = b.take_trace();
    assert_eq!(trace_a, trace_b);
}

/// The activity release visits a message only when a release can act: its
/// injection completed, its chain front drained with the source empty, or
/// its last flit was delivered. This drives that rule's edges against the
/// dense release scan — one-flit buffers (every move empties its feeder),
/// one- and two-flit messages (the deferred visit of a message that
/// finishes injecting in its injection cycle), 1, 2 and 3 VCs (the
/// transfer walk's general and `V = 2` instantiations), and recovery pulls
/// of messages whose tail is still at the source, whose front is released
/// by the injection-complete trigger or from the drain loop.
#[test]
fn release_triggers_at_their_edges() {
    let mut injecting_pulls = 0u32;
    for vcs in [1usize, 2, 3] {
        for msg_len in [1usize, 2, 4] {
            let build = || {
                Network::new(
                    KAryNCube::torus(4, 2, true),
                    Box::new(Tfar),
                    SimConfig {
                        vcs_per_channel: vcs,
                        buffer_depth: 1,
                        msg_len,
                    },
                )
            };
            let mut a = build();
            let mut b = build();
            a.enable_trace(1 << 16);
            b.enable_trace(1 << 16);
            let nodes = a.topology().num_nodes() as u64;
            let mut arrivals = Rng(0x7e1e_a5e0 ^ (vcs * 16 + msg_len) as u64);
            for cycle in 0..600u64 {
                for n in 0..nodes {
                    if arrivals.chance(300) {
                        let dst = (n + 1 + arrivals.below(nodes - 1)) % nodes;
                        a.enqueue(NodeId(n as u32), NodeId(dst as u32));
                        b.enqueue(NodeId(n as u32), NodeId(dst as u32));
                    }
                }
                // Pull the youngest routing message still injecting.
                if cycle % 5 == 4 {
                    let victim = a.active_ids().into_iter().rev().find(|&id| {
                        a.message_info(id)
                            .is_some_and(|m| m.phase == MsgPhase::Routing && m.uninjected > 0)
                    });
                    if let Some(id) = victim {
                        assert_eq!(a.message_info(id), b.message_info(id));
                        assert!(a.start_recovery(id) && b.start_recovery(id));
                        injecting_pulls += 1;
                    }
                }
                let ea = a.step();
                let eb = b.step_reference();
                assert_eq!(
                    ea, eb,
                    "step events diverged at cycle {cycle} ({vcs} VCs, len {msg_len})"
                );
                if cycle % 25 == 0 {
                    a.check_invariants();
                    b.check_invariants();
                }
            }
            assert_eq!(a.totals(), b.totals(), "{vcs} VCs, len {msg_len}");
            let (trace_a, dropped_a) = a.take_trace();
            let (trace_b, dropped_b) = b.take_trace();
            assert_eq!((dropped_a, dropped_b), (0, 0));
            assert_eq!(
                trace_a, trace_b,
                "traces diverged ({vcs} VCs, len {msg_len})"
            );
        }
    }
    assert!(
        injecting_pulls > 0,
        "no recovery pull caught a message still injecting"
    );
}
