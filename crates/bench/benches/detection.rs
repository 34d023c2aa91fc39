//! Deadlock-detection cost: snapshot extraction, CWG construction, and
//! knot analysis on networks at increasing congestion — the price paid
//! every 50 cycles by a recovery-based router's "watchdog".

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use flexsim::build_wait_graph;
use icn_cwg::{DeadlockKind, DetectorScratch, WaitGraph};
use icn_routing::Tfar;
use icn_sim::{Network, SimConfig, SnapshotArena};
use icn_topology::{KAryNCube, NodeId};
use icn_traffic::{BernoulliInjector, Pattern};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The runner's in-place per-epoch rebuild, over the public API.
fn rebuild_wait_graph(arena: &SnapshotArena, g: &mut WaitGraph) {
    g.reset(arena.num_vertices());
    for m in arena.messages() {
        g.add_chain(m.id, m.chain);
    }
    for m in arena.messages() {
        if !m.requests.is_empty() {
            g.add_requests(m.id, m.requests);
        }
    }
}

/// Drives a TFAR1 torus to the requested load for a while and returns it.
fn congested_network(load: f64) -> Network {
    drive_network(load, |_, cycle| cycle < 3_000)
}

/// A TFAR1 torus past the Fig. 6 knee under the runner's detect-and-recover
/// loop (oldest message of each knot drained every 50 cycles), stopped at
/// the first epoch whose wait graph holds a multi-cycle knot — the larger
/// knots of a recovering network, which a wedged one never grows.
fn knotted_network() -> Network {
    let mut graph = WaitGraph::new(0);
    let mut arena = SnapshotArena::new();
    let mut scratch = DetectorScratch::new();
    drive_network(1.0, |net, cycle| {
        assert!(cycle < 100_000, "TFAR1 at full load must knot eventually");
        if cycle % 50 != 0 {
            return true;
        }
        net.wait_snapshot_into(&mut arena);
        rebuild_wait_graph(&arena, &mut graph);
        let analysis = graph.analyze_with(2_000, &mut scratch);
        if analysis
            .deadlocks
            .iter()
            .any(|d| d.kind() == DeadlockKind::MultiCycle)
        {
            return false;
        }
        for d in &analysis.deadlocks {
            net.start_recovery(d.deadlock_set[0]);
        }
        true
    })
}

/// Steps a TFAR1 torus at `load` while `keep_going(net, cycles_so_far)`.
fn drive_network(load: f64, mut keep_going: impl FnMut(&mut Network, u32) -> bool) -> Network {
    let topo = KAryNCube::torus(8, 2, true);
    let injector = BernoulliInjector::for_load(&topo, load, 32);
    let mut net = Network::new(
        topo.clone(),
        Box::new(Tfar),
        SimConfig {
            vcs_per_channel: 1,
            buffer_depth: 2,
            msg_len: 32,
        },
    );
    let mut rng = StdRng::seed_from_u64(7);
    let mut cycle = 0u32;
    while keep_going(&mut net, cycle) {
        cycle += 1;
        for node in 0..topo.num_nodes() as u32 {
            if injector.fires(&mut rng) {
                if let Some(dst) = Pattern::Uniform.dest(&topo, NodeId(node), &mut rng) {
                    net.enqueue(NodeId(node), dst);
                }
            }
        }
        net.step();
    }
    net
}

fn bench_detection(c: &mut Criterion) {
    let mut g = c.benchmark_group("detection");
    g.sample_size(20);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_secs(2));

    for &load in &[0.1, 0.5, 1.0] {
        let net = congested_network(load);
        g.bench_with_input(
            BenchmarkId::new("snapshot", format!("load{load}")),
            &net,
            |b, net| b.iter(|| net.wait_snapshot()),
        );
        g.bench_with_input(
            BenchmarkId::new("snapshot_into", format!("load{load}")),
            &net,
            |b, net| {
                let mut arena = SnapshotArena::new();
                b.iter(|| {
                    net.wait_snapshot_into(&mut arena);
                    black_box(arena.fingerprint())
                })
            },
        );
        let snap = net.wait_snapshot();
        g.bench_with_input(
            BenchmarkId::new("build_graph", format!("load{load}")),
            &snap,
            |b, snap| b.iter(|| build_wait_graph(snap)),
        );
        let graph = build_wait_graph(&snap);
        g.bench_with_input(
            BenchmarkId::new("analyze_knots", format!("load{load}")),
            &graph,
            |b, graph| b.iter(|| graph.analyze(2_000)),
        );
    }
    g.finish();
}

/// The full steady-state detection epoch (snapshot → graph → knot
/// analysis) on a saturated TFAR1 torus — the cost paid every 50 cycles.
///
/// `fresh_alloc` is the pre-arena path (allocate snapshot, graph, and
/// scratch per epoch); `arena_reuse` is the runner's hot path;
/// `knot_epoch` is that path at the moment a knot has formed; and
/// `fingerprint_skip` is what a steady clean epoch costs once the verdict
/// is carried over (snapshot fill + hash compare only).
fn bench_hot_epoch(c: &mut Criterion) {
    let mut g = c.benchmark_group("hot_epoch");
    g.sample_size(20);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_secs(3));

    let net = congested_network(1.0);

    g.bench_function("fresh_alloc", |b| {
        b.iter(|| {
            let snap = net.wait_snapshot();
            let graph = build_wait_graph(&snap);
            black_box(graph.analyze(2_000))
        })
    });

    g.bench_function("arena_reuse", |b| {
        let mut arena = SnapshotArena::new();
        let mut graph = WaitGraph::new(0);
        let mut scratch = DetectorScratch::new();
        b.iter(|| {
            net.wait_snapshot_into(&mut arena);
            rebuild_wait_graph(&arena, &mut graph);
            black_box(graph.analyze_with(2_000, &mut scratch))
        })
    });

    // The same path on a multi-cycle knot: descriptors, cycle density and
    // the dependent census on top of the decomposition.
    g.bench_function("knot_epoch", |b| {
        let net = knotted_network();
        let mut arena = SnapshotArena::new();
        let mut graph = WaitGraph::new(0);
        let mut scratch = DetectorScratch::new();
        b.iter(|| {
            net.wait_snapshot_into(&mut arena);
            rebuild_wait_graph(&arena, &mut graph);
            let analysis = graph.analyze_with(2_000, &mut scratch);
            assert!(analysis.has_deadlock());
            black_box(analysis)
        })
    });

    g.bench_function("fingerprint_skip", |b| {
        let mut arena = SnapshotArena::new();
        net.wait_snapshot_into(&mut arena);
        let clean = arena.fingerprint();
        b.iter(|| {
            net.wait_snapshot_into(&mut arena);
            black_box(arena.fingerprint() == clean)
        })
    });

    g.finish();
}

criterion_group!(benches, bench_detection, bench_hot_epoch);
criterion_main!(benches);
