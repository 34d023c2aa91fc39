//! Proof that the steady-state detection epoch performs zero heap
//! allocations: the runner's drain → commit → verdict, and the snapshot
//! fill, wait-graph rebuild and knot analysis behind a knot epoch, all run
//! in caller-owned storage once capacities have warmed up. A knot-bearing
//! epoch allocates only the vectors of the `Analysis` it returns, however
//! large the vertex space around the knot, multi-cycle knots and the
//! recovery round included. A commit that changes records allocates only
//! each inserted record's chain and request vectors, and the reduction
//! behind the verdict that follows allocates nothing. The per-hop routing
//! call (`RoutingAlgorithm::candidates`) allocates nothing either, and
//! neither does a message's life in the engine, except the delivery record
//! the step that retires it reports.
//!
//! A counting global allocator tallies every alloc/realloc made by the
//! test's own thread. The counter is thread-local so that allocations the
//! libtest harness makes concurrently (channels, timing, output) cannot
//! pollute the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use icn_cwg::{CycleCount, DeadlockKind, DetectorScratch, DynamicWaitGraph, WaitGraph};
use icn_routing::{
    Candidate, DatelineDor, Dor, DuatoFar, MisroutingTfar, NegativeFirst, RoutingAlgorithm,
    RoutingCtx, Tfar, WestFirst,
};
use icn_sim::{Network, SimConfig, SnapshotArena, WaitUpdate};
use icn_topology::{KAryNCube, NodeId};

struct CountingAlloc;

thread_local! {
    // `const` init: no lazy-init allocation, safe inside the allocator.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// The runner's epoch up to the verdict, spelled out over the public API:
/// drain the engine's marks into the wait graph, commit, ask for a knot.
/// Re-enabling tracking re-marks every active message, so the drain
/// re-extracts all of them even on a network that did not move.
fn drain_epoch(net: &mut Network, dwg: &mut DynamicWaitGraph) -> bool {
    net.enable_wait_tracking();
    net.drain_wait_updates(|id, up| match up {
        WaitUpdate::Blocked { chain, requests } => dwg.stage_blocked(id, chain, requests),
        WaitUpdate::Clear => dwg.stage_clear(id),
    });
    dwg.commit();
    dwg.has_knot()
}

/// The frozen oracle's per-epoch rebuild, spelled out over the public API.
fn rebuild(arena: &SnapshotArena, g: &mut WaitGraph) {
    rebuild_in_space(arena, g, arena.num_vertices());
}

/// [`rebuild`] into a graph of `num_vertices` (at least the arena's own).
fn rebuild_in_space(arena: &SnapshotArena, g: &mut WaitGraph, num_vertices: usize) {
    g.reset(num_vertices);
    for m in arena.messages() {
        g.add_chain(m.id, m.chain);
    }
    for m in arena.messages() {
        if !m.requests.is_empty() {
            g.add_requests(m.id, m.requests);
        }
    }
}

#[test]
fn steady_state_detection_epoch_allocates_nothing() {
    // --- Scenario 1: moving traffic only (the runner's blocked==0 skip:
    // just the snapshot fill, no graph, no analysis). ---
    let mut net = Network::new(
        KAryNCube::torus(8, 1, true),
        Box::new(Dor),
        SimConfig {
            vcs_per_channel: 1,
            buffer_depth: 2,
            msg_len: 16,
        },
    );
    // Disjoint single-hop routes: long messages stay in flight without
    // ever contending for a channel.
    for i in [0u32, 2, 4, 6] {
        net.enqueue(NodeId(i), NodeId(i + 1));
    }
    for _ in 0..6 {
        net.step();
    }
    assert!(net.in_network() > 0, "messages must be in flight");
    assert_eq!(net.blocked_count(), 0, "forward traffic must not block");

    let mut arena = SnapshotArena::new();
    // Warm-up: first fills size the arena pools.
    for _ in 0..3 {
        net.wait_snapshot_into(&mut arena);
    }
    let snap_allocs = allocations(|| {
        for _ in 0..100 {
            net.wait_snapshot_into(&mut arena);
        }
    });
    assert_eq!(
        snap_allocs, 0,
        "snapshot fill must not allocate in steady state"
    );

    // --- Scenario 2: blocked messages but no knot (the runner's full path:
    // snapshot, in-place graph rebuild, knot analysis — all clean). ---
    let mut net = Network::new(
        KAryNCube::torus(8, 1, false),
        Box::new(Dor),
        SimConfig {
            vcs_per_channel: 1,
            buffer_depth: 2,
            msg_len: 24,
        },
    );
    // A long leader and trailing messages that block behind it while it
    // still moves: dashed arcs exist, but every wait chain drains.
    net.enqueue(NodeId(0), NodeId(5));
    for _ in 0..4 {
        net.step();
    }
    net.enqueue(NodeId(1), NodeId(6));
    net.enqueue(NodeId(2), NodeId(7));
    let mut steps = 0;
    while net.blocked_count() == 0 && steps < 50 {
        net.step();
        steps += 1;
    }
    assert!(net.blocked_count() > 0, "trailing messages must block");

    let mut graph = WaitGraph::new(0);
    let mut scratch = DetectorScratch::new();
    net.wait_snapshot_into(&mut arena);
    rebuild(&arena, &mut graph);
    let warm = graph.analyze_with(2_000, &mut scratch);
    assert!(
        !warm.has_deadlock(),
        "scenario must be blocked-but-clean, got a knot"
    );
    // Two more warm-up rounds so every pool reaches steady capacity.
    for _ in 0..2 {
        net.wait_snapshot_into(&mut arena);
        rebuild(&arena, &mut graph);
        let _ = graph.analyze_with(2_000, &mut scratch);
    }

    let epoch_allocs = allocations(|| {
        for _ in 0..100 {
            net.wait_snapshot_into(&mut arena);
            rebuild(&arena, &mut graph);
            let a = graph.analyze_with(2_000, &mut scratch);
            assert!(!a.has_deadlock());
        }
    });
    assert_eq!(
        epoch_allocs, 0,
        "clean detection epoch must not allocate in steady state"
    );

    // --- Scenario 2b: the same blocked-but-clean network through the
    // runner's own epoch. Every active message is re-extracted and staged;
    // no record changed, so the commit touches nothing and the verdict is
    // cached. ---
    let mut dwg = DynamicWaitGraph::new(net.wait_vertex_count());
    for _ in 0..3 {
        assert!(!drain_epoch(&mut net, &mut dwg));
    }
    assert_eq!(dwg.num_blocked(), net.blocked_count());
    let drain_allocs = allocations(|| {
        for _ in 0..100 {
            assert!(!drain_epoch(&mut net, &mut dwg));
        }
    });
    assert_eq!(
        drain_allocs, 0,
        "a drain that changes no record must not allocate"
    );
    // Knot-free commits that do change a record: one blocked message
    // flips between its real requests and a free vertex, so every commit
    // stales the verdict and every `has_knot()` runs the reduction. The
    // reduction allocates nothing; the commit only the inserted record's
    // chain and requests.
    net.wait_snapshot_into(&mut arena);
    let (id, chain, requests) = arena
        .messages()
        .find(|m| !m.requests.is_empty())
        .map(|m| (m.id, m.chain.to_vec(), m.requests.to_vec()))
        .unwrap();
    let owned: Vec<u32> = arena.messages().flat_map(|m| m.chain.to_vec()).collect();
    let free = [(0..arena.num_vertices() as u32)
        .find(|v| !owned.contains(v))
        .unwrap()];
    let flip = |dwg: &mut DynamicWaitGraph, to_free: bool| {
        let target: &[u32] = if to_free { &free } else { &requests };
        dwg.stage_blocked(id, &chain, target);
        let commit = allocations(|| assert!(dwg.commit(), "the record changed"));
        let verdict = allocations(|| assert!(!dwg.has_knot()));
        (commit, verdict)
    };
    for _ in 0..3 {
        flip(&mut dwg, true);
        flip(&mut dwg, false);
    }
    for i in 0..100 {
        let (commit, verdict) = flip(&mut dwg, i % 2 == 0);
        assert_eq!(
            commit, 2,
            "a commit allocates the inserted record's two vectors"
        );
        assert_eq!(verdict, 0, "a knot-free reduction must not allocate");
    }

    // --- Scenario 3: a wedged unidirectional ring, a knot every epoch. The
    // only allocations are the vectors the returned values own (a constant
    // per knot), and their number does not depend on the size of the
    // vertex space the knot sits in. ---
    let mut net = Network::new(
        KAryNCube::torus(8, 1, false),
        Box::new(Dor),
        SimConfig {
            vcs_per_channel: 1,
            buffer_depth: 2,
            msg_len: 24,
        },
    );
    for i in 0..8u32 {
        net.enqueue(NodeId(i), NodeId((i + 5) % 8));
    }
    for _ in 0..200 {
        net.step();
    }
    net.wait_snapshot_into(&mut arena);
    let n = arena.num_vertices();
    let mut counts = Vec::new();
    for space in [n, 16 * n] {
        let mut scratch = DetectorScratch::new();
        for _ in 0..3 {
            rebuild_in_space(&arena, &mut graph, space);
            let a = graph.analyze_with(2_000, &mut scratch);
            assert_eq!(a.deadlocks.len(), 1, "the ring must be wedged");
            assert_eq!(graph.knot_deadlock_sets(&mut scratch).len(), 1);
        }
        rebuild_in_space(&arena, &mut graph, space);
        let analyze_allocs = allocations(|| {
            let a = graph.analyze_with(2_000, &mut scratch);
            assert!(a.has_deadlock());
        });
        let sets_allocs = allocations(|| {
            let sets = graph.knot_deadlock_sets(&mut scratch);
            assert_eq!(sets.len(), 1);
        });
        counts.push((analyze_allocs, sets_allocs));
    }
    assert_eq!(
        counts[0], counts[1],
        "allocations must not grow with the vertex space"
    );
    // `deadlocks` plus one knot's three vectors; `sets` plus one set.
    assert!(
        counts[0].0 <= 4 && counts[0].1 <= 2,
        "a knot epoch allocates only what it returns, got {counts:?}"
    );

    // --- Scenario 3b: the runner's knot epoch on the same wedge — drain,
    // verdict, rebuild from the wait graph's own records in id order,
    // analysis. Still only what `Analysis` owns. ---
    let mut dwg = DynamicWaitGraph::new(net.wait_vertex_count());
    let mut scratch = DetectorScratch::new();
    let mut knot_epoch = |net: &mut Network| {
        assert!(drain_epoch(net, &mut dwg), "the ring must be wedged");
        dwg.rebuild_graph(&mut graph);
        let a = graph.analyze_with(2_000, &mut scratch);
        assert_eq!(a.deadlocks.len(), 1);
    };
    for _ in 0..3 {
        knot_epoch(&mut net);
    }
    let knot_allocs = allocations(|| knot_epoch(&mut net));
    assert!(
        knot_allocs <= 4,
        "a knot epoch allocates only what `Analysis` owns, got {knot_allocs}"
    );

    multi_cycle_knot_epoch_allocates_only_what_it_returns();
    routing_candidates_allocate_nothing();
    message_life_allocates_only_its_delivery();
}

/// Scenario 3c: a warm multi-cycle knot epoch — verdict, rebuild, analysis
/// (densities counted on the branch-vertex contraction) and the recovery
/// round's one victim per knot — allocates only what `Analysis` owns, and
/// none of it grows with the vertex space.
fn multi_cycle_knot_epoch_allocates_only_what_it_returns() {
    // Figure 3's shape: four messages around a square, each holding two
    // VCs and waiting for both VCs of the next, 2^4 cycles per knot.
    let square = |dwg: &mut DynamicWaitGraph, base: u32, first: u64| {
        for i in 0..4u32 {
            let next = base + 2 * ((i + 1) % 4);
            let chain = [base + 2 * i, base + 2 * i + 1];
            dwg.stage_blocked(first + u64::from(i), &chain, &[next, next + 1]);
        }
    };
    let mut counts = Vec::new();
    for space in [16, 16 * 256] {
        let mut dwg = DynamicWaitGraph::new(space);
        square(&mut dwg, 0, 10);
        square(&mut dwg, 8, 20);
        dwg.commit();
        let mut graph = WaitGraph::new(0);
        let mut scratch = DetectorScratch::new();
        let mut epoch = || {
            let mut analysis = None;
            let n = allocations(|| {
                assert!(dwg.has_knot());
                dwg.rebuild_graph(&mut graph);
                let a = graph.analyze_with(2_000, &mut scratch);
                for d in &a.deadlocks {
                    assert!(graph.remove_requests(d.deadlock_set[0]));
                }
                analysis = Some(a);
            });
            let analysis = analysis.unwrap();
            assert_eq!(analysis.deadlocks.len(), 2);
            for d in &analysis.deadlocks {
                assert_eq!(d.cycle_density, CycleCount::Exact(16));
                assert_eq!(d.kind(), DeadlockKind::MultiCycle);
            }
            assert!(graph.knot_deadlock_sets(&mut scratch).is_empty());
            n
        };
        for _ in 0..3 {
            epoch();
        }
        counts.push(epoch());
    }
    assert_eq!(
        counts[0], counts[1],
        "allocations must not grow with the vertex space"
    );
    // `deadlocks` plus two knots' three vectors each.
    assert!(
        counts[0] <= 7,
        "a multi-cycle knot epoch allocates only what `Analysis` owns, got {}",
        counts[0]
    );
}

/// Scenario 4: the per-hop routing call. Once a warm-up pass has sized the
/// caller's buffer, `candidates` into it allocates nothing, for every
/// relation on every (current, destination) pair of its topology.
fn routing_candidates_allocate_nothing() {
    let torus = KAryNCube::torus(4, 3, true);
    let mesh = KAryNCube::mesh(4, 2);
    let relations: [(&str, &dyn RoutingAlgorithm, &KAryNCube); 7] = [
        ("DOR", &Dor, &torus),
        ("TFAR", &Tfar, &torus),
        ("DOR-dateline", &DatelineDor, &torus),
        ("Duato", &DuatoFar, &torus),
        ("TFAR-misroute", &MisroutingTfar::default(), &torus),
        ("west-first", &WestFirst, &mesh),
        ("negative-first", &NegativeFirst, &mesh),
    ];
    let vcs = 3;
    for (name, algo, topo) in relations {
        let nodes = topo.num_nodes() as u32;
        let mut out: Vec<Candidate> = Vec::new();
        let mut sweep = || {
            for cur in 0..nodes {
                for dst in (0..nodes).filter(|&d| d != cur) {
                    let mut ctx = RoutingCtx::fresh(NodeId(cur), NodeId(dst), NodeId(cur));
                    ctx.last_dim = Some((dst % topo.n() as u32) as u8);
                    out.clear();
                    algo.candidates(topo, vcs, &ctx, &mut out);
                    assert!(!out.is_empty());
                }
            }
        };
        sweep();
        let allocs = allocations(sweep);
        assert_eq!(
            allocs, 0,
            "{name}: candidates into a reused buffer allocated"
        );
    }
}

/// Scenario 5: a message's whole life in the engine. Once one slot is
/// warm, a long message re-injected into it allocates nothing on any step
/// from injection through its last acquisition and tail release; the step
/// that delivers it allocates once, for its `StepEvents::delivered` entry.
fn message_life_allocates_only_its_delivery() {
    let mut net = Network::new(
        KAryNCube::torus(16, 1, false),
        Box::new(Dor),
        SimConfig {
            vcs_per_channel: 1,
            buffer_depth: 2,
            msg_len: 64,
        },
    );
    // One message 0 → 12, stepped until delivered: each step's allocation
    // count and delivery count.
    let life = |net: &mut Network| {
        net.enqueue(NodeId(0), NodeId(12));
        let mut steps: Vec<(u64, usize)> = Vec::new();
        loop {
            let mut events = None;
            let allocs = allocations(|| events = Some(net.step()));
            let delivered = events.unwrap().delivered;
            steps.push((allocs, delivered.len()));
            if let Some(d) = delivered.first() {
                assert_eq!(d.hops, 12, "the message must cross 12 channels");
                return steps;
            }
        }
    };
    // Warm-up: the first message sizes slot 0's tables.
    life(&mut net);
    for _ in 0..3 {
        let steps = life(&mut net);
        let (&last, rest) = steps.split_last().unwrap();
        assert_eq!(
            last,
            (1, 1),
            "the delivering step allocates only its record"
        );
        assert!(
            rest.iter().all(|&(allocs, _)| allocs == 0),
            "a message's life allocated before its delivery: {steps:?}"
        );
    }
}
