//! Exhaustive small-world explorer.
//!
//! Enumerates **every** injection schedule for a tiny network up to a
//! bounded horizon and audits every cycle of every resulting execution:
//! the production detector and the naive oracle must agree on the live
//! wait-state at all times, a detected deadlock must be permanent (no
//! recovery runs here), and a schedule that never deadlocks must fully
//! drain. Within the horizon this is a proof by enumeration that the
//! detector has no false positives and misses no deadlock on these
//! worlds.
//!
//! A schedule is a base-`N` number with one digit per `(cycle, node)`
//! pair over the first `horizon` cycles: digit `d` at `(c, s)` means
//! node `s` enqueues a message to node `d` at cycle `c`, except `d == s`
//! which means "inject nothing" (self-traffic is not meaningful here, so
//! the self digit is recycled as the idle choice). A 3-node ring at
//! horizon 2 is `3^6 = 729` schedules; a 2-ary 2-cube at horizon 1 is
//! `4^4 = 256`.

use crate::diff::{check_messages, Divergence};
use icn_cwg::CwgSnapshot;
use icn_routing::{Dor, RoutingAlgorithm, Tfar};
use icn_sim::{Network, SimConfig, SnapshotArena};
use icn_topology::{KAryNCube, NodeId};

/// Routing relation used by the explored world.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExploreRouting {
    /// Deterministic dimension-order routing.
    Dor,
    /// True fully adaptive routing.
    Tfar,
}

impl ExploreRouting {
    fn build(self) -> Box<dyn RoutingAlgorithm> {
        match self {
            ExploreRouting::Dor => Box::new(Dor),
            ExploreRouting::Tfar => Box::new(Tfar),
        }
    }
}

/// One small world to enumerate.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Radix of the k-ary n-cube.
    pub k: u16,
    /// Dimensions.
    pub n: usize,
    /// Torus (wraparound) vs. mesh.
    pub torus: bool,
    /// Bidirectional channels.
    pub bidirectional: bool,
    /// Routing relation.
    pub routing: ExploreRouting,
    /// Virtual channels per physical channel.
    pub vcs: usize,
    /// The edge-buffer depth in flits.
    pub buffer_depth: usize,
    /// Message length in flits.
    pub msg_len: usize,
    /// Cycles during which injection choices are enumerated.
    pub horizon: usize,
    /// Total cycles each schedule is run and audited.
    pub run_cycles: usize,
}

impl ExploreConfig {
    /// 3-node unidirectional ring, 1 VC, wormhole: the smallest world
    /// with reachable knots. 729 schedules at horizon 2.
    pub fn uni_ring_3() -> Self {
        Self {
            k: 3,
            n: 1,
            torus: true,
            bidirectional: false,
            routing: ExploreRouting::Dor,
            vcs: 1,
            buffer_depth: 2,
            msg_len: 3,
            horizon: 2,
            run_cycles: 80,
        }
    }

    /// 4-node unidirectional ring at horizon 1 (256 schedules).
    pub fn uni_ring_4() -> Self {
        Self {
            k: 4,
            n: 1,
            torus: true,
            bidirectional: false,
            routing: ExploreRouting::Dor,
            vcs: 1,
            buffer_depth: 2,
            msg_len: 3,
            horizon: 1,
            run_cycles: 100,
        }
    }

    /// 2-ary 2-cube (bidirectional torus) under TFAR at horizon 1
    /// (256 schedules).
    pub fn cube_2x2_tfar() -> Self {
        Self {
            k: 2,
            n: 2,
            torus: true,
            bidirectional: true,
            routing: ExploreRouting::Tfar,
            vcs: 1,
            buffer_depth: 2,
            msg_len: 2,
            horizon: 1,
            run_cycles: 80,
        }
    }

    fn num_nodes(&self) -> usize {
        (self.k as usize).pow(self.n as u32)
    }

    /// Number of schedules this configuration enumerates.
    pub fn num_schedules(&self) -> u64 {
        let nodes = self.num_nodes() as u64;
        nodes.pow((self.num_nodes() * self.horizon) as u32)
    }
}

/// Outcome of one exhaustive enumeration.
#[derive(Clone, Debug, Default)]
pub struct ExploreReport {
    /// Schedules enumerated.
    pub schedules: u64,
    /// Cycle-level audits performed (every cycle of every schedule).
    pub cycles_checked: u64,
    /// Schedules that ended deadlocked.
    pub deadlocked: u64,
    /// Every disagreement or liveness failure, with its schedule index.
    pub divergences: Vec<(u64, Divergence)>,
}

impl ExploreReport {
    /// True when every schedule passed every audit.
    pub fn ok(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// Runs one schedule and audits every cycle. Appends failures to `out`.
fn run_schedule(cfg: &ExploreConfig, schedule: u64, out: &mut ExploreReport) {
    let nodes = cfg.num_nodes();
    let topo = if cfg.torus {
        KAryNCube::torus(cfg.k, cfg.n, cfg.bidirectional)
    } else {
        assert!(cfg.bidirectional, "meshes are always bidirectional");
        KAryNCube::mesh(cfg.k, cfg.n)
    };
    let mut net = Network::new(
        topo,
        cfg.routing.build(),
        SimConfig {
            vcs_per_channel: cfg.vcs,
            buffer_depth: cfg.buffer_depth,
            msg_len: cfg.msg_len,
        },
    );
    let mut arena = SnapshotArena::default();
    let mut digits = schedule;
    let mut seen_deadlock = false;
    let diverge = |out: &mut ExploreReport, context: String, detail: String| {
        out.divergences
            .push((schedule, Divergence { context, detail }));
    };

    for cycle in 0..cfg.run_cycles {
        if cycle < cfg.horizon {
            for src in 0..nodes {
                let d = (digits % nodes as u64) as usize;
                digits /= nodes as u64;
                if d != src {
                    net.enqueue(NodeId(src as u32), NodeId(d as u32));
                }
            }
        }
        net.step();
        net.check_invariants();
        out.cycles_checked += 1;

        net.wait_snapshot_into(&mut arena);
        let snap = CwgSnapshot::from_messages(
            arena.num_vertices(),
            arena.messages().map(|m| (m.id, m.chain, m.requests)),
        );
        for d in check_messages(&snap, None) {
            diverge(out, format!("cycle {cycle}: {}", d.context), d.detail);
        }
        let deadlocked_now = crate::oracle::oracle_analyze(&snap).has_deadlock();
        if seen_deadlock && !deadlocked_now {
            // No recovery runs here, so a knot can never dissolve.
            diverge(
                out,
                format!("cycle {cycle}: deadlock permanence"),
                "a previously detected knot disappeared without recovery".to_string(),
            );
        }
        seen_deadlock |= deadlocked_now;
    }

    if seen_deadlock {
        out.deadlocked += 1;
    } else {
        // Liveness: a schedule the oracle never flags must fully drain.
        let (generated, injected, delivered, _) = net.totals();
        if net.in_network() != 0 || net.source_queued() != 0 {
            diverge(
                out,
                "liveness".to_string(),
                format!(
                    "no deadlock detected but network did not drain in {} cycles \
                     (generated={generated} injected={injected} delivered={delivered} \
                     in_network={} source_queued={})",
                    cfg.run_cycles,
                    net.in_network(),
                    net.source_queued()
                ),
            );
        }
    }
}

/// Enumerates every schedule of `cfg` and audits every cycle.
pub fn explore(cfg: &ExploreConfig) -> ExploreReport {
    let mut report = ExploreReport::default();
    let total = cfg.num_schedules();
    for schedule in 0..total {
        run_schedule(cfg, schedule, &mut report);
        report.schedules += 1;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uni_ring_3_exhaustive() {
        let cfg = ExploreConfig::uni_ring_3();
        assert_eq!(cfg.num_schedules(), 729);
        let report = explore(&cfg);
        assert_eq!(report.schedules, 729);
        assert!(
            report.ok(),
            "divergences: {:?}",
            &report.divergences[..report.divergences.len().min(5)]
        );
        // The all-idle schedule never deadlocks; saturating schedules do.
        assert!(report.deadlocked > 0, "no schedule wedged the uni-ring");
        assert!(report.deadlocked < report.schedules);
    }

    #[test]
    fn cube_2x2_tfar_exhaustive() {
        let cfg = ExploreConfig::cube_2x2_tfar();
        assert_eq!(cfg.num_schedules(), 256);
        let report = explore(&cfg);
        assert!(
            report.ok(),
            "divergences: {:?}",
            &report.divergences[..report.divergences.len().min(5)]
        );
    }
}
