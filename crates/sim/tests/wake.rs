//! Wake-list invariant tests: no waiter may strand.
//!
//! The activity engine only re-examines a parked message (or injector)
//! when a watched resource changes hands. The dangerous window is a
//! *same-cycle* park/release collision: a waiter parks on a VC during
//! allocation, and the VC frees during that same cycle's release phase.
//! If the wake were recorded before the park (or not at all), the waiter
//! would sleep forever on a free VC — the classic lost-wakeup race. These
//! tests build that exact schedule and pin the cycle every acquisition
//! and delivery must land on.

use icn_routing::{DatelineDor, Dor, Tfar};
use icn_sim::{FaultPlan, Network, SimConfig};
use icn_topology::{Direction, KAryNCube, NodeId};

/// Unidirectional 4-ring (n0→n1→n2→n3→n0), one VC per channel.
fn ring() -> Network {
    Network::new(
        KAryNCube::torus(4, 1, false),
        Box::new(Dor),
        SimConfig {
            vcs_per_channel: 1,
            buffer_depth: 2,
            msg_len: 1,
        },
    )
}

/// The crafted collision, cycle by cycle:
///
/// * cycle 0 — A (n1→n2, len 2) injects and acquires c1, the only VC
///   toward n2.
/// * cycle 1 — A's header ejects at n2; B (n0→n2, len 1, enqueued after
///   cycle 0) injects on c0.
/// * cycle 2 — B's next hop needs c1: owned by A, so B *parks* on it.
///   C (n1→n2, enqueued after cycle 1) finds its injection candidate c1
///   owned too, so the n1 *injector parks* on the same VC. During this
///   same cycle's release phase A drains its last flit and frees c1 —
///   both waiters must wake now.
/// * cycle 3 — both re-attempt. Injections precede next-hops (dense
///   order), so C acquires c1 and B re-parks on it.
/// * cycle 4 — C delivers and frees c1 again; B wakes a second time.
/// * cycle 5 — B finally acquires c1; cycle 6 — B delivers.
///
/// A missed wake at any of these points stalls the schedule, so the
/// delivery cycles pin the wake timing exactly. The dense reference runs
/// the identical schedule as the behavioral oracle.
#[test]
fn same_cycle_park_and_release_wakes_both_waiter_kinds() {
    let mut a = ring();
    let mut b = ring();
    let enqueue = |net: &mut Network, src: u32, dst: u32, len: usize| {
        net.enqueue_with_len(NodeId(src), NodeId(dst), len);
    };

    // Message A: holds c1 through cycle 2.
    enqueue(&mut a, 1, 2, 2);
    enqueue(&mut b, 1, 2, 2);

    let mut delivered: Vec<(u64, u64)> = Vec::new(); // (id, cycle)
    for cycle in 0..10u64 {
        if cycle == 1 {
            // B: one hop behind A, parks on c1 at cycle 2.
            enqueue(&mut a, 0, 2, 1);
            enqueue(&mut b, 0, 2, 1);
        }
        if cycle == 2 {
            // C: the n1 injector parks on c1 at cycle 2 too.
            enqueue(&mut a, 1, 2, 1);
            enqueue(&mut b, 1, 2, 1);
        }
        let ea = a.step();
        let eb = b.step_reference();
        assert_eq!(ea, eb, "engines diverged at cycle {cycle}");
        a.check_invariants();
        b.check_invariants();
        for d in &ea.delivered {
            delivered.push((d.id, cycle));
        }
    }

    // B (id 1) blocked across the collision window, woken twice.
    let info = |net: &Network, id: u64| net.message_info(id);
    assert_eq!(info(&a, 1), info(&b, 1));
    assert_eq!(
        delivered,
        vec![(0, 2), (2, 4), (1, 6)],
        "wake timing shifted: A frees c1 at 2, C at 4, B delivers at 6"
    );
    assert_eq!(a.in_network(), 0, "a waiter stranded");
    assert_eq!(a.source_queued(), 0);
}

/// The fault paths into the same two waiters: a parked header and a
/// parked injector at one node, both offered the channel a `link_outage`
/// takes down. TFAR on a 4-ary 2-cube (node `x + 4y`, one VC per
/// channel), every waiter at n0 heading for n5 = (1,1), so both frozen
/// sets are {n0→n1, n0→n4} and the fault leaves each a part of it:
///
/// * cycle 0 — R1 (n2→n1, len 30) and R2 (n8→n4, len 30) inject; from
///   cycle 1 they hold the reception channels of n1 and n4. B1 (n3→n1)
///   and B2 (n12→n4), one flit each, inject through n0 and from cycle 2
///   sit at their destinations, each owning only n0→n1 / n0→n4.
/// * cycle 2 — H (n3→n5) injects on n3→n0; cycle 3 its header at n0
///   *parks* on both busy channels. C (n0→n5, enqueued after cycle 1)
///   parks the n0 *injector* on the same two.
/// * cycle 6 — n0→n1 goes down: its frozen sets are invalidated and B1 is
///   dropped, which wakes both waiters; each re-parks on n0→n4 alone.
/// * cycle 10 — n0→n1 comes back up: the link-up wakes the header and
///   the injector at its source. C injects on n0→n1 (injections go
///   first) and H re-parks behind it; C delivers at 12, and H, woken when
///   C's flit frees n0→n1, at 14.
///
/// A waiter left on a stale frozen set or watch fails `check_invariants`
/// (run after every step); a missed link-up wake leaves C parked until
/// B2 clears at 31. The dense reference runs the identical schedule.
#[test]
fn link_outage_wakes_a_parked_header_and_injector_at_one_node() {
    let topo = KAryNCube::torus(4, 2, true);
    let down = topo.channel_from(NodeId(0), 0, Direction::Plus).unwrap();
    let mut plan = FaultPlan::new();
    plan.link_outage(down.0, 6, 10);
    let build = || {
        let mut net = Network::new(
            topo.clone(),
            Box::new(Tfar),
            SimConfig {
                vcs_per_channel: 1,
                buffer_depth: 2,
                msg_len: 1,
            },
        );
        net.set_fault_plan(&plan);
        net
    };
    let (mut a, mut b) = (build(), build());
    let enqueue = |a: &mut Network, b: &mut Network, src: u32, dst: u32, len: usize| {
        a.enqueue_with_len(NodeId(src), NodeId(dst), len);
        b.enqueue_with_len(NodeId(src), NodeId(dst), len);
    };

    let mut delivered: Vec<(u64, u64)> = Vec::new(); // (id, cycle)
    for cycle in 0..60u64 {
        match cycle {
            0 => {
                enqueue(&mut a, &mut b, 2, 1, 30); // R1
                enqueue(&mut a, &mut b, 8, 4, 30); // R2
                enqueue(&mut a, &mut b, 3, 1, 1); // B1
                enqueue(&mut a, &mut b, 12, 4, 1); // B2
            }
            1 => enqueue(&mut a, &mut b, 3, 5, 1), // H
            2 => enqueue(&mut a, &mut b, 0, 5, 1), // C
            _ => {}
        }
        let ea = a.step();
        let eb = b.step_reference();
        assert_eq!(ea, eb, "engines diverged at cycle {cycle}");
        a.check_invariants();
        b.check_invariants();
        for d in &ea.delivered {
            delivered.push((d.id, cycle));
        }
    }

    // Ids follow injection order: R1 0, B1 1, R2 2, B2 3, H 4, C 5.
    assert_eq!(
        delivered,
        vec![(5, 12), (4, 14), (0, 30), (2, 30), (3, 31)],
        "wake timing shifted: C injects at the link-up (10), H follows it"
    );
    assert_eq!(a.fault_totals(), (1, 0), "B1 is the one fault loss");
    assert_eq!(a.in_network(), 0, "a waiter stranded");
    assert_eq!(a.source_queued(), 0);
}

/// Churn version of the same race: a deadlock-free config saturated long
/// enough that parks and releases collide constantly, then starved. Every
/// message must drain — any lost wakeup leaves `in_network() > 0` forever
/// (the per-cycle invariant check also cross-audits every wake list
/// against a full recomputation of each parked waiter's candidates).
#[test]
fn saturated_then_starved_ring_drains_completely() {
    let build = || {
        Network::new(
            KAryNCube::torus(4, 1, false),
            Box::new(DatelineDor),
            SimConfig {
                vcs_per_channel: 2,
                buffer_depth: 1,
                msg_len: 3,
            },
        )
    };
    let mut a = build();
    let mut b = build();
    let nodes = 4u32;
    for cycle in 0..1200u64 {
        if cycle < 30 {
            for n in 0..nodes {
                // All-to-farthest keeps every channel contended.
                let dst = (n + 2) % nodes;
                a.enqueue(NodeId(n), NodeId(dst));
                b.enqueue(NodeId(n), NodeId(dst));
            }
        }
        let ea = a.step();
        let eb = b.step_reference();
        assert_eq!(ea, eb, "engines diverged at cycle {cycle}");
        a.check_invariants();
        b.check_invariants();
        if cycle > 30 && a.in_network() == 0 && a.source_queued() == 0 {
            let (_, _, da, _) = a.totals();
            assert_eq!(da, 120, "every offered message must deliver");
            return;
        }
    }
    panic!(
        "network failed to drain: {} in flight, {} queued — stranded waiter",
        a.in_network(),
        a.source_queued()
    );
}
