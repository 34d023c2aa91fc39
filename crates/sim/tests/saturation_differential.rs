//! Saturation-focused differential: the activity stepper's hot path (the
//! fused bitset transfer walk, drain-head cache, and frozen candidate
//! reuse) earns its keep above saturation — which is exactly where a
//! missed wake, a stale cached head, or a reordered move would surface.
//! Every case here offers traffic faster than the network can drain it
//! (every node enqueues every cycle) and checks the activity engine
//! against the dense reference cycle-for-cycle: same [`StepEvents`], same
//! invariants, same counters, same traces.
//!
//! The deterministic cases mirror the golden figures' regimes (fig5–fig8
//! of the paper): a 1-VC unidirectional DOR torus (the canonical deadlock
//! machine), its bidirectional twin, adaptive TFAR with 2 VCs, and a
//! deep-buffer virtual cut-through point; plus a faulted case under a
//! `random_plan`-shaped schedule of link outages, a link kill, a router
//! stall, and an injector outage, a stall-heavy case that freezes every
//! router in turn (the fused walk's stall hook), and an outage-heavy case
//! on the adaptive regimes that checks every frozen candidate list after
//! every cycle (link transitions thaw them). The proptest sweeps
//! randomized above-saturation points on top. One case compares the
//! activity engine with itself: an armed but unfired fault plan must
//! change nothing observable.

use icn_routing::{Dor, DuatoFar, RoutingAlgorithm, Tfar};
use icn_sim::{FaultPlan, Network, SimConfig, StepEvents};
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

/// The four golden-regime points, at the bench's 8-ary 2-cube scale.
fn goldens() -> Vec<Golden> {
    vec![
        // fig5 regime: DOR, one VC, unidirectional — wedges hard.
        Golden {
            topo: KAryNCube::torus(8, 2, false),
            routing: || Box::new(Dor),
            cfg: SimConfig {
                vcs_per_channel: 1,
                buffer_depth: 2,
                msg_len: 8,
            },
        },
        // fig5/fig6 regime: the bidirectional twin.
        Golden {
            topo: KAryNCube::torus(8, 2, true),
            routing: || Box::new(Dor),
            cfg: SimConfig {
                vcs_per_channel: 1,
                buffer_depth: 2,
                msg_len: 8,
            },
        },
        // fig6/fig7 regime: unrestricted adaptive routing, two VCs.
        Golden {
            topo: KAryNCube::torus(8, 2, true),
            routing: || Box::new(Tfar),
            cfg: SimConfig {
                vcs_per_channel: 2,
                buffer_depth: 2,
                msg_len: 8,
            },
        },
        // fig8 regime: deep buffers (virtual cut-through).
        Golden {
            topo: KAryNCube::torus(8, 2, true),
            routing: || Box::new(DuatoFar),
            cfg: SimConfig {
                vcs_per_channel: 3,
                buffer_depth: 8,
                msg_len: 8,
            },
        },
    ]
}

/// A fresh instance of `g` with `plan` installed (when non-empty).
fn build(g: &Golden, plan: &FaultPlan) -> Network {
    let mut net = Network::new(g.topo.clone(), (g.routing)(), g.cfg);
    if !plan.is_empty() {
        net.set_fault_plan(plan);
    }
    net
}

/// Drives both steppers through `cycles` of above-saturation traffic
/// under `plan`, invariants checked every `check_every` cycles.
fn saturated_case(g: &Golden, plan: &FaultPlan, seed: u64, cycles: u64, check_every: u64) {
    lockstep(
        (build(g, plan), Network::step),
        (build(g, plan), Network::step_reference),
        seed,
        cycles,
        check_every,
    );
}

/// Drives two instances, each with its own stepper, through `cycles` of
/// above-saturation traffic (every node offers a message every cycle)
/// with periodic recovery pulls, comparing everything.
fn lockstep(
    (mut a, step_a): (Network, fn(&mut Network) -> StepEvents),
    (mut b, step_b): (Network, fn(&mut Network) -> StepEvents),
    seed: u64,
    cycles: u64,
    check_every: u64,
) {
    let nodes = a.topology().num_nodes() as u64;
    a.enable_trace(1 << 15);
    b.enable_trace(1 << 15);
    let mut arrivals = Rng(seed);
    for cycle in 0..cycles {
        for n in 0..nodes {
            // Above saturation: every node offers traffic every cycle.
            let mut dst = arrivals.below(nodes);
            if dst == n {
                dst = (dst + 1) % nodes;
            }
            a.enqueue(NodeId(n as u32), NodeId(dst as u32));
            b.enqueue(NodeId(n as u32), NodeId(dst as u32));
        }
        // Recovery pulls keep the drain path (and its cached heads) hot.
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
        let ea = step_a(&mut a);
        let eb = step_b(&mut b);
        assert_eq!(
            ea, eb,
            "step events diverged at cycle {cycle} (seed {seed})"
        );
        if cycle % check_every == 0 || cycle + 1 == cycles {
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
    assert_eq!(a.fault_totals(), b.fault_totals());
    assert_eq!(a.source_queued(), b.source_queued());
    let (trace_a, dropped_a) = a.take_trace();
    let (trace_b, dropped_b) = b.take_trace();
    assert_eq!(dropped_a, dropped_b);
    assert_eq!(trace_a, trace_b, "traces diverged (seed {seed})");
}

#[test]
fn golden_regimes_agree_above_saturation() {
    for (i, g) in goldens().iter().enumerate() {
        saturated_case(g, &FaultPlan::new(), 0x5a7_0000 + i as u64, 700, 32);
    }
}

/// A `random_plan`-shaped fault schedule (transient link outages, a
/// permanent kill, a router stall, an injector outage) on the canonical
/// wedging golden, above saturation.
#[test]
fn faulted_golden_agrees_above_saturation() {
    let g = &goldens()[0];
    let channels = g.topo.num_channels() as u64;
    let nodes = g.topo.num_nodes() as u64;
    let horizon = 700u64;
    let mut r = Rng(0xfa17_fa17);
    let lo = horizon / 10;
    let at = |r: &mut Rng| lo + r.below(horizon - lo);
    let mut plan = FaultPlan::new();
    for _ in 0..3 {
        let ch = r.below(channels) as u32;
        let down = at(&mut r);
        let dur = 1 + r.below(horizon / 10);
        plan.link_outage(ch, down, down + dur);
    }
    plan.link_kill(at(&mut r), r.below(channels) as u32);
    plan.node_stall(at(&mut r), r.below(nodes) as u32, 1 + r.below(horizon / 20));
    plan.injector_down(at(&mut r), r.below(nodes) as u32, 1 + r.below(horizon / 20));
    plan.validate(channels as usize, nodes as usize);
    saturated_case(g, &plan, 0xfau64 << 8, horizon, 32);
}

/// The fused walk's stall hook, above saturation: every router is frozen
/// in turn (overlapping windows, several routers down at once), so stalls
/// land on mid-transfer senders, on routers whose ejecting or recovering
/// heads are draining, and on headers waiting to allocate — on the
/// wedging golden and on the adaptive one — with every cycle checked.
#[test]
fn rolling_router_stalls_agree_above_saturation() {
    let gs = goldens();
    for (i, g) in [&gs[0], &gs[2]].into_iter().enumerate() {
        let nodes = g.topo.num_nodes() as u64;
        let mut r = Rng(0x57a1_11ed + i as u64);
        let mut plan = FaultPlan::new();
        for n in 0..nodes {
            plan.node_stall(40 + 6 * n, n as u32, 8 + r.below(24));
            // A second, shorter freeze at a scattered time.
            plan.node_stall(60 + r.below(400), n as u32, 1 + r.below(6));
        }
        plan.validate(g.topo.num_channels(), nodes as usize);
        saturated_case(g, &plan, 0x57a1u64 << 8 | i as u64, 520, 1);
    }
}

/// Frozen candidate lists under link faults: on the adaptive goldens,
/// rolling transient outages take links down and bring them back while
/// headers block on the survivors, so a list frozen while a link was down
/// must be thawed when it comes back up. Both steppers share the frozen
/// lists, so lockstep alone cannot see a stale one; `check_invariants`,
/// run every cycle, compares each with a fresh recompute.
#[test]
fn link_transitions_thaw_frozen_candidates_above_saturation() {
    let gs = goldens();
    for (i, g) in [&gs[2], &gs[3]].into_iter().enumerate() {
        let channels = g.topo.num_channels() as u64;
        let mut r = Rng(0x7a4e_0000 + i as u64);
        let mut plan = FaultPlan::new();
        for k in 0..24 {
            let down = 40 + 12 * k + r.below(12);
            plan.link_outage(r.below(channels) as u32, down, down + 1 + r.below(30));
        }
        plan.validate(channels as usize, g.topo.num_nodes());
        saturated_case(g, &plan, 0x7a4eu64 << 8 | i as u64, 400, 1);
    }
}

/// An armed plan whose only event lies beyond the horizon switches the
/// engine to its fault instantiation (stall hook compiled in) and must
/// change nothing observable: the sim-level twin of the digest check
/// behind the benchmark's `sim.armed_plan_ratio`.
#[test]
fn armed_but_unfired_plan_equals_no_plan() {
    let cycles = 500;
    let mut armed = FaultPlan::new();
    armed.link_outage(0, cycles + 10, cycles + 20);
    for (i, g) in goldens().iter().enumerate() {
        lockstep(
            (build(g, &FaultPlan::new()), Network::step),
            (build(g, &armed), Network::step),
            0xa2_0000 + i as u64,
            cycles,
            32,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized above-saturation points: any golden regime, any seed.
    #[test]
    fn saturation_differential_holds(seed in any::<u64>()) {
        let gs = goldens();
        let g = &gs[(seed % gs.len() as u64) as usize];
        saturated_case(g, &FaultPlan::new(), seed, 420, 32);
    }
}
