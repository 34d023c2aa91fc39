//! End-to-end tests of the flit-level engine through its public API.

use icn_cwg::CwgSnapshot;
use icn_routing::{DatelineDor, Dor, Tfar};
use icn_sim::{FaultPlan, MsgPhase, Network, SimConfig, SnapshotArena, StepEvents};
use icn_topology::{ChannelId, Coords, KAryNCube, NodeId};

/// An owned wait-for snapshot of the current state.
fn snapshot(n: &Network) -> CwgSnapshot {
    let mut arena = SnapshotArena::new();
    n.wait_snapshot_into(&mut arena);
    CwgSnapshot::from_messages(
        arena.num_vertices(),
        arena.messages().map(|m| (m.id, m.chain, m.requests)),
    )
}

/// Whether some message in the network holds a VC of `ch`: a moving
/// message's whole chain, a blocked one's settled chain.
fn channel_held(n: &Network, ch: ChannelId) -> bool {
    let mut arena = SnapshotArena::new();
    n.wait_snapshot_into(&mut arena);
    let vcs = n.config().vcs_per_channel;
    let held = arena
        .messages()
        .any(|m| m.chain.iter().any(|&v| v as usize / vcs == ch.idx()));
    held
}

fn net(
    topo: KAryNCube,
    routing: impl icn_routing::RoutingAlgorithm + 'static,
    cfg: SimConfig,
) -> Network {
    Network::new(topo, Box::new(routing), cfg)
}

fn run_until_delivered(
    n: &mut Network,
    expect: u64,
    max_cycles: u64,
) -> Vec<icn_sim::DeliveredMsg> {
    let mut out = Vec::new();
    for _ in 0..max_cycles {
        let ev = n.step();
        out.extend(ev.delivered);
        if out.len() as u64 >= expect {
            return out;
        }
    }
    panic!(
        "only {} of {expect} messages delivered after {max_cycles} cycles",
        out.len()
    );
}

#[test]
fn single_message_single_hop() {
    let topo = KAryNCube::torus(4, 2, true);
    let mut n = net(
        topo,
        Dor,
        SimConfig {
            vcs_per_channel: 1,
            buffer_depth: 2,
            msg_len: 1,
        },
    );
    n.enqueue(NodeId(0), NodeId(1));
    let done = run_until_delivered(&mut n, 1, 20);
    assert_eq!(done[0].hops, 1);
    // inject (c0) + arrive/acquire reception (c1) + eject (c1): latency 2.
    assert_eq!(done[0].latency, 2);
    assert!(!done[0].recovered);
    assert_eq!(n.in_network(), 0);
    n.check_invariants();
}

#[test]
fn latency_is_distance_plus_length_pipeline() {
    let topo = KAryNCube::torus(8, 2, true);
    let d = topo.distance(NodeId(0), topo.node_at(&Coords::new(&[3, 2])));
    assert_eq!(d, 5);
    let mut n = net(
        topo,
        Dor,
        SimConfig {
            vcs_per_channel: 2,
            buffer_depth: 4,
            msg_len: 16,
        },
    );
    let dst = n.topology().node_at(&Coords::new(&[3, 2]));
    n.enqueue(NodeId(0), dst);
    let done = run_until_delivered(&mut n, 1, 200);
    assert_eq!(done[0].hops, d);
    // Header pipelines at 1 hop/cycle; the tail lags msg_len flit cycles.
    assert_eq!(done[0].latency, (d as u64) + 16);
    n.check_invariants();
}

#[test]
fn injection_channel_serializes_same_source() {
    let topo = KAryNCube::torus(8, 2, true);
    let mut n = net(
        topo,
        Dor,
        SimConfig {
            vcs_per_channel: 1,
            buffer_depth: 2,
            msg_len: 8,
        },
    );
    // Two messages from node 0 heading opposite ways: no shared network
    // channel, but they share the injection channel.
    n.enqueue(NodeId(0), NodeId(2));
    n.enqueue(NodeId(0), n.topology().node_at(&Coords::new(&[0, 2])));
    n.step();
    assert_eq!(n.in_network(), 1, "second message waits for injection");
    assert_eq!(n.source_queued(), 1);
    let done = run_until_delivered(&mut n, 2, 100);
    assert_eq!(done.len(), 2);
    n.check_invariants();
}

#[test]
fn reception_channel_serializes_same_destination() {
    let topo = KAryNCube::torus(8, 2, true);
    let mut n = net(
        topo,
        Tfar,
        SimConfig {
            vcs_per_channel: 2,
            buffer_depth: 2,
            msg_len: 8,
        },
    );
    // Two single-hop messages into node (1,0) from opposite neighbours.
    let dst = NodeId(1);
    n.enqueue(NodeId(0), dst);
    n.enqueue(NodeId(2), dst);
    let done = run_until_delivered(&mut n, 2, 100);
    // The second is serialized behind the first's reception ownership.
    assert!(done[1].latency > done[0].latency);
    n.check_invariants();
}

#[test]
fn vc_contention_blocks_then_resolves() {
    let topo = KAryNCube::torus(8, 1, true);
    let mut n = net(
        topo,
        Dor,
        SimConfig {
            vcs_per_channel: 1,
            buffer_depth: 2,
            msg_len: 4,
        },
    );
    // msg A: 0 -> 3 passes through channel 1->2; msg B: 1 -> 3 wants the
    // same channels one cycle later.
    n.enqueue(NodeId(0), NodeId(3));
    n.step();
    n.enqueue(NodeId(1), NodeId(3));
    let mut saw_blocked = false;
    for _ in 0..60 {
        n.step();
        if n.blocked_count() > 0 {
            saw_blocked = true;
        }
        n.check_invariants();
        if n.in_network() == 0 && n.source_queued() == 0 {
            break;
        }
    }
    assert!(saw_blocked, "B should have blocked behind A");
    assert_eq!(n.totals().2, 2, "both delivered");
}

/// Builds the canonical unidirectional-ring deadlock: k messages, each
/// from node i to node i+2, enqueued simultaneously so each grabs its
/// first channel and waits for the neighbour's.
fn deadlocked_uni_ring() -> Network {
    let topo = KAryNCube::torus(4, 1, false);
    let mut n = net(
        topo,
        Dor,
        SimConfig {
            vcs_per_channel: 1,
            buffer_depth: 2,
            msg_len: 8,
        },
    );
    for i in 0..4u32 {
        n.enqueue(NodeId(i), NodeId((i + 2) % 4));
    }
    for _ in 0..30 {
        n.step();
        n.check_invariants();
    }
    n
}

#[test]
fn uni_ring_deadlocks_and_snapshot_shows_knot() {
    let n = deadlocked_uni_ring();
    assert_eq!(n.in_network(), 4);
    assert_eq!(n.blocked_count(), 4, "all four messages wedged");

    let analysis = snapshot(&n).build_graph().analyze(1000);
    assert!(analysis.has_deadlock());
    assert_eq!(analysis.deadlocks.len(), 1);
    let d = &analysis.deadlocks[0];
    assert_eq!(d.deadlock_set.len(), 4);
    assert_eq!(d.knot.len(), 4, "the four channels form the knot");
    assert_eq!(d.cycle_density, icn_cwg::CycleCount::Exact(1));
}

#[test]
fn recovery_resolves_uni_ring_deadlock() {
    let mut n = deadlocked_uni_ring();
    let victim = n.active_ids()[0];
    assert!(n.start_recovery(victim));
    let done = run_until_delivered(&mut n, 4, 500);
    assert_eq!(done.len(), 4);
    let recovered: Vec<_> = done.iter().filter(|d| d.recovered).collect();
    assert_eq!(recovered.len(), 1);
    assert_eq!(recovered[0].id, victim);
    assert_eq!(n.totals().3, 1);
    n.check_invariants();
}

#[test]
fn recovery_rejects_inactive_and_draining_messages() {
    let mut n = deadlocked_uni_ring();
    assert!(!n.start_recovery(999_999), "unknown id");
    let victim = n.active_ids()[0];
    assert!(n.start_recovery(victim));
    assert!(!n.start_recovery(victim), "already recovering");
}

#[test]
fn failed_channel_is_routed_around_by_tfar() {
    let topo = KAryNCube::torus(8, 2, true);
    let mut n = net(
        topo,
        Tfar,
        SimConfig {
            vcs_per_channel: 1,
            buffer_depth: 2,
            msg_len: 4,
        },
    );
    // Kill the +x channel out of node 0; a message to (1,1) can still
    // leave via +y first.
    let bad = n
        .topology()
        .channel_from(NodeId(0), 0, icn_topology::Direction::Plus)
        .unwrap();
    n.set_fault_plan(FaultPlan::new().link_kill(0, bad.0));
    let dst = n.topology().node_at(&Coords::new(&[1, 1]));
    n.enqueue(NodeId(0), dst);
    let done = run_until_delivered(&mut n, 1, 100);
    assert_eq!(done[0].hops, 2);
    assert!(!channel_held(&n, bad));
    n.check_invariants();
}

#[test]
fn failed_channel_rejects_dor_message() {
    let topo = KAryNCube::torus(8, 2, true);
    let mut n = net(
        topo,
        Dor,
        SimConfig {
            vcs_per_channel: 1,
            buffer_depth: 2,
            msg_len: 4,
        },
    );
    let bad = n
        .topology()
        .channel_from(NodeId(0), 0, icn_topology::Direction::Plus)
        .unwrap();
    n.set_fault_plan(FaultPlan::new().link_kill(0, bad.0));
    n.enqueue(NodeId(0), NodeId(2)); // DOR must start +x: no route
    for _ in 0..50 {
        n.step();
    }
    assert_eq!(n.totals().2, 0);
    assert_eq!(n.in_network(), 0, "never injected — no usable candidate");
    assert_eq!(n.fault_totals().1, 1, "rejected at the source, counted");
    assert_eq!(n.source_queued(), 0);
    n.check_invariants();
}

#[test]
fn snapshot_moving_message_has_no_requests() {
    let topo = KAryNCube::torus(8, 2, true);
    let mut n = net(
        topo,
        Dor,
        SimConfig {
            vcs_per_channel: 1,
            buffer_depth: 2,
            msg_len: 16,
        },
    );
    n.enqueue(NodeId(0), NodeId(4));
    for _ in 0..3 {
        n.step();
    }
    let snap = snapshot(&n);
    assert_eq!(snap.messages.len(), 1);
    assert!(snap.messages[0].requests.is_empty());
    assert!(!snap.messages[0].chain.is_empty());
}

#[test]
fn settled_chain_shrinks_with_deep_buffers() {
    // Virtual cut-through: a whole message fits in one buffer, so a blocked
    // message's settled chain is exactly its head VC.
    let topo = KAryNCube::torus(8, 1, true);
    let mut n = net(
        topo,
        Dor,
        SimConfig {
            vcs_per_channel: 1,
            buffer_depth: 8,
            msg_len: 8,
        },
    );
    // A long-haul message B blocks behind A which holds the reception at
    // node 3... simpler: two messages overlap on channel 2->3.
    n.enqueue(NodeId(1), NodeId(3));
    for _ in 0..2 {
        n.step();
    }
    n.enqueue(NodeId(0), NodeId(3));
    let mut blocked_seen = None;
    for _ in 0..20 {
        n.step();
        let snap = snapshot(&n);
        if let Some(m) = snap.messages.iter().find(|m| !m.requests.is_empty()) {
            blocked_seen = Some(m.chain.len());
            break;
        }
    }
    let chain_len = blocked_seen.expect("second message should block");
    assert_eq!(chain_len, 1, "VCT blocked message settles to its head VC");
}

#[test]
fn blocked_message_compacts_and_releases_tail_channels() {
    // The settled-chain premise: even when a header stays blocked
    // forever, the message's flits keep advancing and the tail-side VCs
    // beyond ceil(len/depth) drain and release.
    let topo = KAryNCube::torus(16, 1, true);
    let mut n = net(
        topo,
        Dor,
        SimConfig {
            vcs_per_channel: 1,
            buffer_depth: 4,
            msg_len: 8, // needs ceil(8/4) = 2 settled VCs
        },
    );
    // Blocker: occupies channel 6->7 indefinitely by being stuck behind a
    // reception channel we keep busy... simpler: a long blocker message.
    n.enqueue(NodeId(5), NodeId(7));
    for _ in 0..2 {
        n.step();
    }
    // Victim: from 0 to 7; its header will catch up and block behind the
    // blocker somewhere around node 5-6 with a long acquired chain.
    n.enqueue(NodeId(0), NodeId(7));
    // Let everything settle: blocker starts ejecting (slow 8-flit drain is
    // too fast to observe) — instead verify via snapshot once blocked.
    let mut settled_seen = false;
    for _ in 0..60 {
        n.step();
        n.check_invariants();
        let snap = snapshot(&n);
        if let Some(m) = snap.messages.iter().find(|m| !m.requests.is_empty()) {
            assert!(
                m.chain.len() <= 2,
                "settled chain is at most ceil(8/4)=2 VCs, got {}",
                m.chain.len()
            );
            settled_seen = true;
        }
        // The *actual* owned chain shrinks too as the tail releases:
        // check through message info (chain_len counts owned VCs).
        if n.in_network() == 0 && n.source_queued() == 0 {
            break;
        }
    }
    assert!(settled_seen, "victim should have blocked at least once");
}

#[test]
fn dateline_dor_makes_uni_ring_deadlock_free() {
    let topo = KAryNCube::torus(4, 1, false);
    let mut n = net(
        topo,
        DatelineDor,
        SimConfig {
            vcs_per_channel: 2,
            buffer_depth: 2,
            msg_len: 8,
        },
    );
    for i in 0..4u32 {
        n.enqueue(NodeId(i), NodeId((i + 2) % 4));
    }
    let done = run_until_delivered(&mut n, 4, 500);
    assert_eq!(done.len(), 4);
    assert!(done.iter().all(|d| !d.recovered));
}

#[test]
fn deterministic_replay() {
    let mk = || {
        let topo = KAryNCube::torus(4, 2, true);
        let mut n = net(
            topo,
            Tfar,
            SimConfig {
                vcs_per_channel: 2,
                buffer_depth: 2,
                msg_len: 4,
            },
        );
        let mut log = Vec::new();
        for c in 0..400u32 {
            if c % 3 == 0 {
                n.enqueue(NodeId(c % 16), NodeId((c * 7 + 5) % 16));
            }
            let StepEvents { delivered, .. } = n.step();
            for d in delivered {
                log.push((d.id, d.latency, d.hops));
            }
        }
        log
    };
    assert_eq!(mk(), mk());
}

#[test]
fn invariants_hold_under_sustained_random_traffic() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
    for (vcs, depth) in [(1usize, 2usize), (2, 2), (3, 4), (2, 16)] {
        let topo = KAryNCube::torus(4, 2, true);
        let mut n = net(
            topo,
            Tfar,
            SimConfig {
                vcs_per_channel: vcs,
                buffer_depth: depth,
                msg_len: 8,
            },
        );
        for c in 0..1500u64 {
            if rng.gen_bool(0.2) {
                let s = rng.gen_range(0..16);
                let mut d = rng.gen_range(0..16);
                if d == s {
                    d = (d + 1) % 16;
                }
                n.enqueue(NodeId(s), NodeId(d));
            }
            n.step();
            if c % 50 == 0 {
                n.check_invariants();
            }
        }
        n.check_invariants();
        let (generated, injected, delivered, _) = n.totals();
        assert!(injected <= generated);
        assert!(delivered > 0, "vcs={vcs} depth={depth} delivered nothing");
    }
}

#[test]
fn link_utilization_reported() {
    let topo = KAryNCube::torus(8, 2, true);
    let mut n = net(topo, Dor, SimConfig::default());
    n.enqueue(NodeId(0), NodeId(3));
    let mut flits = 0;
    for _ in 0..60 {
        flits += n.step().link_flits;
    }
    // 32 flits across 3 hops = 96 link traversals.
    assert_eq!(flits, 96);
}

#[test]
fn message_info_reflects_state() {
    let topo = KAryNCube::torus(8, 2, true);
    let mut n = net(topo, Dor, SimConfig::default());
    n.enqueue(NodeId(0), NodeId(2));
    n.step();
    let id = n.active_ids()[0];
    let info = n.message_info(id).unwrap();
    assert_eq!(info.src, NodeId(0));
    assert_eq!(info.dst, NodeId(2));
    assert_eq!(info.phase, MsgPhase::Routing);
    assert_eq!(info.len, 32);
    assert!(info.uninjected < 32, "injection started");
    assert!(n.message_info(12345).is_none());
}

#[test]
fn trace_records_message_lifecycle() {
    use icn_sim::TraceEvent;
    let topo = KAryNCube::torus(8, 2, true);
    let mut n = net(
        topo,
        Dor,
        SimConfig {
            vcs_per_channel: 1,
            buffer_depth: 2,
            msg_len: 4,
        },
    );
    n.enable_trace(1_000);
    n.enqueue(NodeId(0), NodeId(3));
    let _ = run_until_delivered(&mut n, 1, 100);
    let (events, dropped) = n.take_trace();
    assert_eq!(dropped, 0);
    let kinds: Vec<&'static str> = events
        .iter()
        .map(|e| match e {
            TraceEvent::Injected { .. } => "inj",
            TraceEvent::Acquired { .. } => "acq",
            TraceEvent::Blocked { .. } => "blk",
            TraceEvent::EjectStart { .. } => "ej",
            TraceEvent::RecoveryStart { .. } => "rec",
            TraceEvent::Delivered { .. } => "del",
            TraceEvent::FaultLoss { .. } => "flost",
        })
        .collect();
    // 3 hops: injection + first acquire, two more acquires, ejection,
    // delivery; no blocking in an empty network.
    assert_eq!(kinds, vec!["inj", "acq", "acq", "acq", "ej", "del"]);
    // Cycles are non-decreasing and all events belong to message 0.
    assert!(events.windows(2).all(|w| w[0].cycle() <= w[1].cycle()));
    assert!(events.iter().all(|e| e.id() == 0));
}

#[test]
fn trace_records_blocking_and_recovery() {
    use icn_sim::TraceEvent;
    let n = deadlocked_uni_ring();
    // Tracing enabled after the deadlock formed: re-create with trace.
    let topo = KAryNCube::torus(4, 1, false);
    let mut n2 = net(
        topo,
        Dor,
        SimConfig {
            vcs_per_channel: 1,
            buffer_depth: 2,
            msg_len: 8,
        },
    );
    n2.enable_trace(1_000);
    for i in 0..4u32 {
        n2.enqueue(NodeId(i), NodeId((i + 2) % 4));
    }
    for _ in 0..30 {
        n2.step();
    }
    let victim = n2.active_ids()[0];
    n2.start_recovery(victim);
    let _ = run_until_delivered(&mut n2, 4, 500);
    let (events, _) = n2.take_trace();
    let blocked = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Blocked { .. }))
        .count();
    assert!(blocked >= 4, "all four messages blocked at least once");
    assert!(events
        .iter()
        .any(|e| matches!(e, TraceEvent::RecoveryStart { id, .. } if *id == victim)));
    // keep the helper network alive for its own assertions
    n.check_invariants();
}

#[test]
fn blocked_trace_records_failed_candidates() {
    use icn_sim::TraceEvent;
    let topo = KAryNCube::torus(4, 1, false);
    let mut n = net(
        topo,
        Dor,
        SimConfig {
            vcs_per_channel: 1,
            buffer_depth: 2,
            msg_len: 8,
        },
    );
    n.enable_trace(1_000);
    for i in 0..4u32 {
        n.enqueue(NodeId(i), NodeId((i + 2) % 4));
    }
    for _ in 0..30 {
        n.step();
    }
    assert_eq!(n.blocked_count(), 4);
    let (events, _) = n.take_trace();
    let blocks: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Blocked { candidates, .. } => Some(candidates),
            _ => None,
        })
        .collect();
    assert!(blocks.len() >= 4);
    for cands in blocks {
        // A routing block names the channels the header could not get —
        // DOR on a ring offers exactly one — and each is genuinely busy.
        assert_eq!(cands.len(), 1);
        assert!(channel_held(&n, cands[0]));
    }
}

#[test]
fn reception_wait_blocks_with_no_link_candidates() {
    use icn_sim::TraceEvent;
    // Two messages to the same destination: the loser of the reception
    // channel blocks at the destination with an empty candidate set.
    let topo = KAryNCube::torus(8, 1, true);
    let mut n = net(
        topo,
        Dor,
        SimConfig {
            vcs_per_channel: 2,
            buffer_depth: 2,
            msg_len: 16,
        },
    );
    n.enable_trace(1_000);
    n.enqueue(NodeId(1), NodeId(2));
    n.enqueue(NodeId(3), NodeId(2));
    for _ in 0..40 {
        n.step();
    }
    let (events, _) = n.take_trace();
    let reception_waits = events
        .iter()
        .filter(|e| {
            matches!(e, TraceEvent::Blocked { at, candidates, .. }
                if *at == NodeId(2) && candidates.is_empty())
        })
        .count();
    assert!(
        reception_waits >= 1,
        "one message must wait on the busy reception channel"
    );
}

#[test]
fn trace_capacity_bounds_memory() {
    let topo = KAryNCube::torus(8, 2, true);
    let mut n = net(topo, Dor, SimConfig::default());
    n.enable_trace(2);
    n.enqueue(NodeId(0), NodeId(4));
    let _ = run_until_delivered(&mut n, 1, 100);
    let (events, dropped) = n.take_trace();
    assert_eq!(events.len(), 2);
    assert!(dropped > 0);
}

#[test]
fn two_vcs_multiplex_one_physical_link() {
    // Two messages share the same physical channel on different VCs; the
    // link carries one flit per cycle, so together they take about twice
    // as long as one alone — but both make progress (no starvation).
    let topo = KAryNCube::torus(8, 1, true);
    let mk = |two: bool| {
        let mut n = net(
            KAryNCube::torus(8, 1, true),
            Dor,
            SimConfig {
                vcs_per_channel: 2,
                buffer_depth: 4,
                msg_len: 32,
            },
        );
        n.enqueue(NodeId(0), NodeId(3));
        if two {
            n.step();
            n.enqueue(NodeId(1), NodeId(4)); // overlaps on links 1->2, 2->3
        }
        let want = if two { 2 } else { 1 };
        let done = run_until_delivered(&mut n, want, 400);
        done.iter().map(|d| d.latency).max().unwrap()
    };
    let solo = mk(false);
    let shared = mk(true);
    assert!(
        shared > solo + 16,
        "sharing must slow both (solo={solo}, shared={shared})"
    );
    assert!(shared < solo * 3, "but not starve either");
    let _ = topo;
}

#[test]
fn buffer_backpressure_limits_occupancy() {
    // A blocked message compacts into its buffers but never exceeds depth
    // (check_invariants asserts occupancy <= depth on every chain VC).
    let topo = KAryNCube::torus(8, 1, true);
    let mut n = net(
        topo,
        Dor,
        SimConfig {
            vcs_per_channel: 1,
            buffer_depth: 3,
            msg_len: 24,
        },
    );
    n.enqueue(NodeId(0), NodeId(4));
    for _ in 0..2 {
        n.step();
    }
    n.enqueue(NodeId(1), NodeId(5)); // blocks behind the first
    for _ in 0..50 {
        n.step();
        n.check_invariants();
    }
}

#[test]
fn dateline_crossing_recorded_per_dimension() {
    // A message that wraps in dimension 1 only must keep using VC class 0
    // in dimension 0 afterwards (DatelineDor reads the per-dim bits).
    let topo = KAryNCube::torus(4, 2, true);
    let mut n = net(
        topo,
        DatelineDor,
        SimConfig {
            vcs_per_channel: 2,
            buffer_depth: 2,
            msg_len: 2,
        },
    );
    // From (0,3) to (2,1): DOR resolves dim 0 first (0->1->2, no wrap),
    // then dim 1 (3->0->1, wraps through the dateline).
    let src = n.topology().node_at(&Coords::new(&[0, 3]));
    let dst = n.topology().node_at(&Coords::new(&[2, 1]));
    n.enqueue(src, dst);
    let done = run_until_delivered(&mut n, 1, 100);
    assert_eq!(done[0].hops, 4);
    n.check_invariants();
}

#[test]
fn reception_frees_for_next_message() {
    let topo = KAryNCube::torus(8, 2, true);
    let mut n = net(topo, Dor, SimConfig::default());
    n.enqueue(NodeId(0), NodeId(2));
    n.enqueue(NodeId(4), NodeId(2));
    let done = run_until_delivered(&mut n, 2, 300);
    assert_eq!(done.len(), 2);
    // Afterwards a third message to the same node also delivers.
    n.enqueue(NodeId(5), NodeId(2));
    let done = run_until_delivered(&mut n, 1, 200);
    assert_eq!(done.len(), 1);
}

#[test]
fn hybrid_lengths_conserve_flits() {
    let topo = KAryNCube::torus(8, 2, true);
    let mut n = net(
        topo,
        Tfar,
        SimConfig {
            vcs_per_channel: 2,
            buffer_depth: 2,
            msg_len: 32,
        },
    );
    n.enqueue_with_len(NodeId(0), NodeId(3), 4);
    n.enqueue_with_len(NodeId(9), NodeId(12), 64);
    let done = run_until_delivered(&mut n, 2, 300);
    let mut lens: Vec<u32> = done.iter().map(|d| d.len).collect();
    lens.sort_unstable();
    assert_eq!(lens, vec![4, 64]);
    // The short message wins by a wide margin despite equal distance.
    let short = done.iter().find(|d| d.len == 4).unwrap();
    let long = done.iter().find(|d| d.len == 64).unwrap();
    assert!(short.latency + 30 < long.latency);
    n.check_invariants();
}

#[test]
fn misrouting_takes_detours_around_contention() {
    use icn_routing::MisroutingTfar;
    let topo = KAryNCube::torus(8, 1, true);
    let mut n = net(
        topo,
        MisroutingTfar { max_misroutes: 4 },
        SimConfig {
            vcs_per_channel: 1,
            buffer_depth: 2,
            msg_len: 16,
        },
    );
    // A long message hogs channel 2->3; a second message 2 -> 3 can
    // misroute the other way round the ring instead of waiting.
    n.enqueue(NodeId(2), NodeId(5));
    for _ in 0..3 {
        n.step();
    }
    n.enqueue(NodeId(2), NodeId(3));
    let done = run_until_delivered(&mut n, 2, 400);
    let detoured = done.iter().find(|d| d.hops > 1 && d.dst == NodeId(3));
    assert!(detoured.is_some(), "second message should detour: {done:?}");
    n.check_invariants();
}

#[test]
fn misroute_budget_tracked_per_message() {
    use icn_routing::MisroutingTfar;
    let topo = KAryNCube::torus(8, 2, true);
    let mut n = net(
        topo,
        MisroutingTfar { max_misroutes: 2 },
        SimConfig {
            vcs_per_channel: 1,
            buffer_depth: 2,
            msg_len: 4,
        },
    );
    // Unloaded network: the profitable candidates are always free, so a
    // minimal path is taken even though misrouting is allowed.
    n.enqueue(NodeId(0), NodeId(4));
    let done = run_until_delivered(&mut n, 1, 100);
    assert_eq!(done[0].hops, 4, "no gratuitous misrouting when unloaded");
}

#[test]
fn hypercube_traffic_flows() {
    let topo = KAryNCube::hypercube(5);
    let mut n = net(
        topo,
        Tfar,
        SimConfig {
            vcs_per_channel: 1,
            buffer_depth: 2,
            msg_len: 8,
        },
    );
    // e-cube-style worst case: send to bit complements.
    for s in 0..32u32 {
        n.enqueue(NodeId(s), NodeId(!s & 31));
    }
    let done = run_until_delivered(&mut n, 32, 2_000);
    assert!(done.iter().all(|d| d.hops == 5), "complement = 5 hops");
    n.check_invariants();
}

#[test]
#[should_panic(expected = "must leave their source")]
fn self_addressed_message_rejected() {
    let topo = KAryNCube::torus(4, 2, true);
    let mut n = net(topo, Dor, SimConfig::default());
    n.enqueue(NodeId(3), NodeId(3));
}

#[test]
#[should_panic(expected = "requires at least")]
fn routing_min_vcs_enforced() {
    let topo = KAryNCube::torus(4, 2, true);
    let _ = net(
        topo,
        DatelineDor,
        SimConfig {
            vcs_per_channel: 1,
            ..Default::default()
        },
    );
}

/// A pipelined multi-hop flow makes middle VCs both receive a flit and
/// feed their downstream neighbour within one cycle — the case where the
/// dirty-mark generation stamps must coalesce the two occupancy changes
/// into a single mark. `check_invariants` asserts the discipline (no
/// duplicate marks, no missed patches) after every cycle.
#[test]
fn occ_dirty_marks_stay_unique_under_pipelined_flow() {
    let topo = KAryNCube::torus(8, 1, true);
    let mut n = net(
        topo,
        Dor,
        SimConfig {
            vcs_per_channel: 1,
            buffer_depth: 2,
            msg_len: 16,
        },
    );
    // Two long messages chasing each other around the ring keep several
    // intermediate VCs simultaneously receiving and draining.
    n.enqueue(NodeId(0), NodeId(4));
    n.enqueue(NodeId(1), NodeId(5));
    let mut delivered = 0;
    for _ in 0..200 {
        delivered += n.step().delivered.len();
        n.check_invariants();
        if delivered == 2 {
            break;
        }
    }
    assert_eq!(delivered, 2, "both messages must drain");
}
