//! The detector's dashed arcs against the static channel-dependency graph.
//!
//! A blocked header waits from the VC it occupies for every VC its routing
//! relation offers next: those request arcs are dependencies the relation
//! creates, so each must be an arc of the static graph that
//! `icn_routing::verify::channel_dependency_graph` enumerates for the same
//! relation, topology and VC count. Checked at every detection epoch of
//! fault-free saturating runs of every `RoutingSpec`, from the observer's
//! own capture of the live network (`wait_snapshot_into`). Reception
//! vertices are not channel VCs and are skipped.

use std::ops::ControlFlow;

use flexsim::{run_with, EpochView, RoutingSpec, RunConfig, RunObserver, TopologySpec};
use icn_routing::verify::channel_dependency_graph;
use icn_sim::SnapshotArena;

/// Holds every blocked message's head-to-request arcs to the static graph.
struct StaticAgreement {
    /// The static graph, each vertex's successors sorted.
    cdg: Vec<Vec<u32>>,
    arena: SnapshotArena,
    /// Request arcs checked.
    arcs: u64,
    /// Arcs outside the static graph, as `(cycle, message, head, request)`.
    outside: Vec<(u64, u64, u32, u32)>,
}

impl RunObserver for StaticAgreement {
    fn on_epoch(&mut self, view: &EpochView<'_>) -> ControlFlow<()> {
        view.net.wait_snapshot_into(&mut self.arena);
        let vc_vertices = self.cdg.len() as u32;
        for m in self.arena.messages() {
            let Some(&head) = m.chain.last() else {
                continue;
            };
            if head >= vc_vertices {
                continue;
            }
            for &r in m.requests.iter().filter(|&&r| r < vc_vertices) {
                self.arcs += 1;
                if self.cdg[head as usize].binary_search(&r).is_err() {
                    self.outside.push((view.cycle, m.id, head, r));
                }
            }
        }
        ControlFlow::Continue(())
    }
}

#[test]
fn blocked_request_arcs_are_static_dependencies() {
    let torus = TopologySpec::torus(4, 2, true);
    let mesh = TopologySpec::mesh(4, 2);
    let cases = [
        (RoutingSpec::Dor, torus, 1),
        (RoutingSpec::Dor, TopologySpec::torus(4, 2, false), 2),
        (RoutingSpec::Tfar, torus, 1),
        (RoutingSpec::Tfar, torus, 2),
        (RoutingSpec::DatelineDor, torus, 2),
        (RoutingSpec::Duato, torus, 3),
        (RoutingSpec::WestFirst, mesh, 1),
        (RoutingSpec::NegativeFirst, mesh, 1),
        (RoutingSpec::Misroute { budget: 2 }, torus, 2),
    ];
    for (routing, topology, vcs) in cases {
        let mut cfg = RunConfig::small_default();
        cfg.topology = topology;
        cfg.routing = routing;
        cfg.sim.vcs_per_channel = vcs;
        cfg.load = 1.0;
        cfg.warmup = 0;
        cfg.measure = 1_500;
        cfg.detection_interval = 10;
        let mut obs = StaticAgreement {
            cdg: channel_dependency_graph(&*routing.build(), &topology.build(), vcs),
            arena: SnapshotArena::new(),
            arcs: 0,
            outside: Vec::new(),
        };
        run_with(&cfg, &mut obs);
        let label = cfg.label();
        assert!(obs.arcs > 0, "{label}: no blocked request arc to check");
        assert!(
            obs.outside.is_empty(),
            "{label}: {} of {} request arcs are not static dependencies, \
             first (cycle, message, head, request): {:?}",
            obs.outside.len(),
            obs.arcs,
            &obs.outside[..obs.outside.len().min(5)]
        );
    }
}
