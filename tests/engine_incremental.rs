//! Detector differential: the one production detector — the
//! [`DynamicWaitGraph`] patched from the engine's wait-state marks, drained
//! once per detection epoch — against the detector it replaced.
//!
//! * `mod frozen` is that predecessor, verbatim: capture every message,
//!   rebuild the whole wait graph, analyse it, with the fingerprint skip
//!   and the recovery loop's victim choice. It lives only here, rides along
//!   a production run as a [`RunObserver`], and at **every** epoch demands
//!   the same skip, the same [`Analysis`](icn_cwg::Analysis) field by
//!   field, the same victims and the same cycle census. Everything else
//!   that feeds [`RunResult::digest`] is runner code both detectors share,
//!   so epoch-for-epoch agreement is digest equality — with the epoch that
//!   broke it named.
//! * The lockstep tests drain a bare network's marks every `interval`
//!   cycles and demand that the patched graph is indistinguishable from a
//!   fresh capture — fingerprint, records, knot sets, verdict — on both
//!   steppers, through recovery pulls and `LinkDown`/`LinkUp`.
//!
//! [`RunResult::digest`]: flexsim::RunResult::digest

use flexsim::experiments::{fig5, fig6, fig7, fig8, Scale};
use flexsim::{run_reference_with, run_with, RecoveryPolicy, RunConfig};
use icn_cwg::{CwgSnapshot, DetectorScratch, DynamicWaitGraph, WaitGraph};
use icn_sim::{Network, SimConfig, SnapshotArena, WaitUpdate};
use icn_topology::{KAryNCube, NodeId};

/// The epoch-rebuild detector this repository ran through PR 23, frozen as
/// the reference the event-patched detector is compared against.
mod frozen {
    use std::collections::HashSet;
    use std::ops::ControlFlow;

    use flexsim::{EpochView, RecoveryPolicy, RunConfig, RunObserver};
    use icn_cwg::{Analysis, CwgSnapshot, CycleCount, DetectorScratch, WaitGraph};
    use icn_sim::{MsgPhase, Network, SnapshotArena, StepEvents};

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

    /// Rides along a production run and re-derives every epoch the old way.
    pub struct EpochRebuild {
        cfg: RunConfig,
        arena: SnapshotArena,
        graph: WaitGraph,
        scratch: DetectorScratch,
        clean_fingerprint: Option<u64>,
        /// Victims the old recovery loop picks at the last epoch; checked
        /// against the network on the next cycle.
        pending: Option<Vec<u64>>,
        all_victims: HashSet<u64>,
        pub epochs: u64,
        pub knot_epochs: u64,
        /// Victims picked inside the measurement window.
        pub victims_measured: u64,
        /// `(cycle, count)` of every census epoch.
        pub census: Vec<(u64, f64)>,
        pub census_capped: bool,
        /// The cycle and full pre-recovery capture of every knot epoch
        /// (forensic runs only — what an incident's CWG must equal).
        pub knot_captures: Vec<(u64, CwgSnapshot)>,
    }

    impl EpochRebuild {
        pub fn new(cfg: &RunConfig) -> Self {
            EpochRebuild {
                cfg: cfg.clone(),
                arena: SnapshotArena::new(),
                graph: WaitGraph::new(0),
                scratch: DetectorScratch::new(),
                clean_fingerprint: None,
                pending: None,
                all_victims: HashSet::new(),
                epochs: 0,
                knot_epochs: 0,
                victims_measured: 0,
                census: Vec::new(),
                census_capped: false,
                knot_captures: Vec::new(),
            }
        }

        /// The old recovery loop on the old full graph, minus the engine
        /// calls: which victims, in which order.
        fn pick_victims(&mut self, analysis: &Analysis) -> Vec<u64> {
            let mut picked = Vec::new();
            if self.cfg.recovery == RecoveryPolicy::None || !analysis.has_deadlock() {
                return picked;
            }
            let mut victims: HashSet<u64> = HashSet::new();
            let mut sets: Vec<Vec<u64>> = analysis
                .deadlocks
                .iter()
                .map(|d| d.deadlock_set.clone())
                .collect();
            for _round in 0..64 {
                let mut progressed = false;
                for dset in &sets {
                    let candidates = dset.iter().filter(|m| !victims.contains(m));
                    let victim = match self.cfg.recovery {
                        RecoveryPolicy::RemoveOldest => candidates.min().copied(),
                        RecoveryPolicy::RemoveYoungest => candidates.max().copied(),
                        RecoveryPolicy::None => unreachable!(),
                    };
                    if let Some(v) = victim {
                        victims.insert(v);
                        picked.push(v);
                        self.graph.remove_requests(v);
                        progressed = true;
                    }
                }
                if !progressed {
                    break;
                }
                sets = self.graph.knot_deadlock_sets(&mut self.scratch);
                if sets.is_empty() {
                    break;
                }
            }
            picked
        }
    }

    impl RunObserver for EpochRebuild {
        fn on_cycle(&mut self, net: &Network, ev: &StepEvents) -> ControlFlow<()> {
            let Some(expected) = self.pending.take() else {
                return ControlFlow::Continue(());
            };
            let cycle = net.cycle();
            for v in &expected {
                match net.message_info(*v) {
                    Some(info) => assert_eq!(
                        info.phase,
                        MsgPhase::Recovering,
                        "cycle {cycle}: victim {v} was not pulled"
                    ),
                    None => assert!(
                        ev.delivered.iter().any(|d| d.id == *v && d.recovered),
                        "cycle {cycle}: victim {v} vanished without recovering"
                    ),
                }
            }
            self.all_victims.extend(expected);
            for id in net.active_ids() {
                let recovering =
                    net.message_info(id).map(|i| i.phase) == Some(MsgPhase::Recovering);
                assert!(
                    !recovering || self.all_victims.contains(&id),
                    "cycle {cycle}: {id} recovers but the old detector never picked it"
                );
            }
            ControlFlow::Continue(())
        }

        fn on_epoch(&mut self, view: &EpochView<'_>) -> ControlFlow<()> {
            let cycle = view.cycle;
            let cfg = &self.cfg;
            self.epochs += 1;
            assert_eq!(view.epoch, self.epochs, "cycle {cycle}: epoch ordinal");
            let measuring = cycle > cfg.warmup;
            let census_due = cfg
                .count_cycles_every
                .is_some_and(|every| measuring && view.epoch.is_multiple_of(every));

            // --- The old epoch, verbatim. ---
            view.net.wait_snapshot_into(&mut self.arena);
            let arena = &self.arena;
            let skip =
                arena.num_blocked() == 0 || self.clean_fingerprint == Some(arena.fingerprint());
            let need_graph = !skip || (census_due && arena.num_blocked() != 0);
            if need_graph {
                rebuild_wait_graph(arena, &mut self.graph);
            }
            let analysis = if skip {
                Analysis {
                    deadlocks: Vec::new(),
                    dependent: Vec::new(),
                    num_blocked: arena.num_blocked(),
                }
            } else {
                self.graph.analyze_with(cfg.density_cap, &mut self.scratch)
            };
            self.clean_fingerprint = if analysis.has_deadlock() {
                None
            } else {
                Some(arena.fingerprint())
            };
            let census_count = census_due.then(|| {
                if arena.num_blocked() == 0 {
                    CycleCount::Exact(0)
                } else {
                    self.graph
                        .count_cycles_with(cfg.cycle_cap, &mut self.scratch)
                }
            });

            // --- What the production detector must have said. ---
            assert_eq!(view.skipped, skip, "cycle {cycle}: skip");
            let got = view.analysis;
            assert_eq!(
                got.deadlocks.len(),
                analysis.deadlocks.len(),
                "cycle {cycle}: knot count"
            );
            for (i, (g, w)) in got.deadlocks.iter().zip(&analysis.deadlocks).enumerate() {
                assert_eq!(g.knot, w.knot, "cycle {cycle}: knot {i} vertices");
                assert_eq!(
                    g.deadlock_set, w.deadlock_set,
                    "cycle {cycle}: knot {i} deadlock set"
                );
                assert_eq!(
                    g.resource_set, w.resource_set,
                    "cycle {cycle}: knot {i} resource set"
                );
                assert_eq!(
                    g.cycle_density, w.cycle_density,
                    "cycle {cycle}: knot {i} density"
                );
            }
            assert_eq!(
                got.dependent, analysis.dependent,
                "cycle {cycle}: dependents"
            );
            // The old path counted fault-stranded messages (blocked, no
            // request) on skipped epochs only; the count is now always
            // the waiting messages, which is what the oracle counts.
            let waiting = arena.messages().filter(|m| !m.requests.is_empty()).count();
            assert_eq!(got.num_blocked, waiting, "cycle {cycle}: num_blocked");
            if view.captured {
                assert_eq!(
                    view.arena.fingerprint(),
                    arena.fingerprint(),
                    "cycle {cycle}: the runner's capture"
                );
            }

            if let Some(count) = census_count {
                self.census.push((cycle, count.value() as f64));
                self.census_capped |= count.is_capped();
            }
            if analysis.has_deadlock() {
                self.knot_epochs += 1;
                if cfg.forensics.is_some() {
                    let capture = CwgSnapshot::from_messages(
                        arena.num_vertices(),
                        arena.messages().map(|m| (m.id, m.chain, m.requests)),
                    );
                    self.knot_captures.push((cycle, capture));
                }
            }
            let victims = self.pick_victims(&analysis);
            if measuring {
                self.victims_measured += victims.len() as u64;
            }
            self.pending = Some(victims);
            ControlFlow::Continue(())
        }
    }
}

/// Runs `cfg` on the chosen stepper with the frozen detector riding along
/// (it panics at the first epoch the two disagree on) and checks the
/// run-level tallies only the whole run can show. Returns the number of
/// knot epochs.
fn agree(cfg: &RunConfig, dense: bool) -> u64 {
    let mut old = frozen::EpochRebuild::new(cfg);
    let res = if dense {
        run_reference_with(cfg, &mut old)
    } else {
        run_with(cfg, &mut old)
    };
    let label = cfg.label();
    assert!(old.epochs > 0, "{label}: no epoch ran");
    assert_eq!(
        res.victims_started, old.victims_measured,
        "{label}: victims"
    );
    assert_eq!(res.cwg_cycles.points(), old.census, "{label}: cycle census");
    assert_eq!(res.counting_epochs, old.census.len() as u64, "{label}");
    if old.census_capped {
        assert!(res.cycles_capped, "{label}: census cap");
    }
    for (inc, (cycle, want)) in res.forensic_incidents.iter().zip(&old.knot_captures) {
        assert_eq!(inc.cycle, *cycle, "{label}: incident epoch");
        assert_eq!(inc.cwg, *want, "{label}: incident CWG at cycle {cycle}");
    }
    old.knot_epochs
}

/// The saturated (load ≥ 1.0) points of each golden figure — the only
/// regimes with steady deadlock recovery churn.
fn golden_saturated_points() -> Vec<RunConfig> {
    [fig5, fig6, fig7, fig8]
        .iter()
        .flat_map(|f| f(Scale::Small).configs)
        .filter(|c| c.load >= 1.0)
        .collect()
}

/// A small unidirectional 1-VC torus at capacity: knots nearly every epoch.
fn knotting() -> RunConfig {
    let mut cfg = RunConfig::small_default();
    cfg.topology = flexsim::TopologySpec::torus(4, 2, false);
    cfg.sim.vcs_per_channel = 1;
    cfg.warmup = 100;
    cfg.measure = 900;
    cfg.load = 1.0;
    cfg
}

#[test]
fn incremental_digest_matches_snapshot_on_goldens() {
    let points = golden_saturated_points();
    assert!(
        points.len() >= 4,
        "expected saturated points in every golden"
    );
    let mut knot_epochs = 0;
    for cfg in &points {
        knot_epochs += agree(cfg, false);
    }
    assert!(knot_epochs > 0, "the goldens must knot somewhere");
}

/// An armed plan that never fires and a plan that fires throughout: fault
/// transitions re-mark every record wholesale, and a killed link strands
/// messages with nothing left to request.
#[test]
fn incremental_digest_matches_snapshot_under_faults() {
    let mut cfg = RunConfig::small_default();
    cfg.warmup = 200;
    cfg.measure = 800;
    cfg.load = 1.0;
    cfg.faults = flexsim::faults::random_plan(&cfg.topology, 1_000, 17);
    agree(&cfg, false);
    agree(&cfg, true);

    let mut armed = cfg.clone();
    armed.faults = flexsim::FaultPlan::new();
    armed.faults.link_outage(3, 5_000, 6_000);
    agree(&armed, false);

    let mut firing = knotting();
    firing.topology = flexsim::TopologySpec::torus(4, 2, true);
    firing.routing = flexsim::RoutingSpec::Tfar;
    firing.load = 1.1;
    firing
        .faults
        .link_outage(0, 150, 400)
        .link_kill(300, 7)
        .node_stall(500, 3, 60)
        .link_outage(11, 600, 800);
    agree(&firing, false);
    agree(&firing, true);
}

/// `detection_interval = 1` makes every cycle an epoch (and the drain a
/// per-cycle one); 7 is coprime to every period in the engine; 50 is the
/// paper's. Both steppers, both recovery policies.
#[test]
fn every_cycle_epochs_agree_across_detection_modes() {
    for interval in [1, 7, 50] {
        for recovery in [RecoveryPolicy::RemoveOldest, RecoveryPolicy::RemoveYoungest] {
            let mut cfg = knotting();
            cfg.detection_interval = interval;
            cfg.recovery = recovery;
            if interval == 1 {
                cfg.measure = 400;
            }
            let knots = agree(&cfg, false);
            assert!(knots > 0, "interval {interval}: regime must knot");
            assert_eq!(agree(&cfg, true), knots, "interval {interval}: steppers");
        }
    }
}

/// Census epochs count cycles on the blocked-only graph; the old detector
/// counted them on the full one. With and without knots around.
#[test]
fn cycle_census_agrees_with_the_full_graph() {
    let mut cfg = knotting();
    cfg.routing = flexsim::RoutingSpec::Tfar;
    cfg.count_cycles_every = Some(2);
    assert!(agree(&cfg, false) > 0);
    cfg.recovery = RecoveryPolicy::None;
    cfg.measure = 300;
    agree(&cfg, false);
    // Knot-free but cyclic: 2 VCs at saturation.
    let mut cfg = RunConfig::small_default();
    cfg.routing = flexsim::RoutingSpec::Tfar;
    cfg.sim.vcs_per_channel = 2;
    cfg.load = 1.0;
    cfg.warmup = 200;
    cfg.measure = 800;
    cfg.count_cycles_every = Some(2);
    agree(&cfg, false);
}

/// A forensic run captures the arena on knot epochs only: every incident's
/// CWG must be the full pre-recovery capture the old detector analysed
/// (checked in `agree`), formation cycles must be causal, and detection
/// lag bounded by the epoch interval.
#[test]
fn formation_cycles_are_identical_and_causal() {
    let mut cfg = RunConfig::small_default();
    cfg.topology = flexsim::TopologySpec::torus(8, 2, false);
    cfg.sim.vcs_per_channel = 1;
    cfg.warmup = 200;
    cfg.measure = 1_000;
    cfg.load = 1.0;
    cfg.forensics = Some(flexsim::ForensicsConfig::default());
    assert!(agree(&cfg, false) > 0, "need knots for formation coverage");
    agree(&cfg, true);

    let res = flexsim::run(&cfg);
    assert!(!res.forensic_incidents.is_empty());
    for inc in &res.incidents {
        assert!(inc.formation_cycle <= inc.cycle);
    }
    for inc in &res.forensic_incidents {
        assert!(inc.formation_cycle <= inc.cycle);
    }
    assert!(res.detection_lag.count() > 0);
    assert!(res.detection_lag.max() <= cfg.detection_interval);
    // Forensic capture never touches the digest-bearing fields.
    let mut plain = cfg.clone();
    plain.forensics = None;
    assert_eq!(flexsim::run(&plain).deadlocks, res.deadlocks);
}

/// `(id, chain, requests)` of every blocked record of `g`, sorted.
fn blocked_records(g: &WaitGraph) -> Vec<(u64, &[u32], &[u32])> {
    let mut records: Vec<_> = g
        .records()
        .filter(|(_, _, requests)| !requests.is_empty())
        .collect();
    records.sort_unstable();
    records
}

/// Steps `net` for `cycles`, draining its wait-state marks into a
/// [`DynamicWaitGraph`] every `interval` cycles — the runner's epoch — and
/// asserting at every drain that the patched graph matches a fresh
/// capture: same fingerprint, same records edge-for-edge, same knot
/// deadlock sets, same verdict. Detected knots are broken with the
/// runner's remove-oldest pull, so recovery transitions are part of the
/// stream. Returns the number of drains at which a knot was live.
fn lockstep(net: &mut Network, cycles: u64, interval: u64, dense: bool) -> u64 {
    net.enable_wait_tracking();
    let mut dwg = DynamicWaitGraph::new(net.wait_vertex_count());
    let mut arena = SnapshotArena::new();
    let mut scratch = DetectorScratch::new();
    let mut knot_epochs = 0;
    for _ in 0..cycles {
        if dense {
            net.step_reference();
        } else {
            net.step();
        }
        if !net.cycle().is_multiple_of(interval) {
            continue;
        }
        net.drain_wait_updates(|id, up| match up {
            WaitUpdate::Blocked { chain, requests } => dwg.stage_blocked(id, chain, requests),
            WaitUpdate::Clear => dwg.stage_clear(id),
        });
        assert_eq!(net.wait_dirty_len(), 0, "a drain empties the dirty list");
        dwg.commit();
        dwg.check_invariants();
        let live = dwg.has_knot();

        net.wait_snapshot_into(&mut arena);
        assert_eq!(
            dwg.fingerprint(),
            arena.fingerprint(),
            "fingerprint diverged at cycle {}",
            net.cycle()
        );
        assert_eq!(dwg.num_blocked(), arena.num_blocked());
        let full = CwgSnapshot::from_messages(
            arena.num_vertices(),
            arena.messages().map(|m| (m.id, m.chain, m.requests)),
        )
        .build_graph();
        assert_eq!(dwg.graph().num_blocked(), full.num_blocked());
        // The patched graph holds exactly the fresh build's blocked
        // records, verbatim.
        assert_eq!(
            blocked_records(dwg.graph()),
            blocked_records(&full),
            "blocked records diverged at cycle {}",
            net.cycle()
        );

        let mut want: Vec<Vec<u64>> = full.knot_deadlock_sets(&mut scratch);
        want.sort();
        let mut got: Vec<Vec<u64>> = dwg.graph().knot_deadlock_sets(&mut scratch);
        got.sort();
        assert_eq!(got, want, "knot sets diverged at cycle {}", net.cycle());
        assert_eq!(
            live,
            !got.is_empty(),
            "reduction verdict diverged at cycle {}",
            net.cycle()
        );

        if !got.is_empty() {
            knot_epochs += 1;
            // Break every knot, oldest member first — recovery wake
            // chains are the hardest part of the event stream.
            for set in &got {
                assert!(net.start_recovery(*set.iter().min().unwrap()));
            }
        }
    }
    knot_epochs
}

/// A saturated 4-ary 2-cube under unrestricted DOR: enough all-pairs-ish
/// load to wedge a 1-VC torus, recovered as knots appear.
fn saturated_net(bidirectional: bool) -> Network {
    let mut net = Network::new(
        KAryNCube::torus(4, 2, bidirectional),
        Box::new(icn_routing::Dor),
        SimConfig {
            vcs_per_channel: 1,
            buffer_depth: 2,
            msg_len: 8,
        },
    );
    let n = net.topology().num_nodes() as u32;
    for round in 0..6 {
        for src in 0..n {
            let dst = (src + 1 + (round * 5) % (n - 1)) % n;
            net.enqueue(NodeId(src), NodeId(dst));
        }
    }
    net
}

#[test]
fn lockstep_every_cycle_activity_stepper() {
    let mut net = saturated_net(false);
    let knots = lockstep(&mut net, 600, 1, false);
    assert!(knots > 0, "regime must actually deadlock to prove anything");
}

#[test]
fn lockstep_every_cycle_dense_stepper() {
    let mut net = saturated_net(false);
    let knots = lockstep(&mut net, 600, 1, true);
    assert!(knots > 0, "regime must actually deadlock to prove anything");
}

/// The runner's real cadence: many cycles of marks collapse into one drain
/// (a message can block, move, re-block and leave between two epochs), on
/// both steppers.
#[test]
fn lockstep_at_epoch_drains_through_recovery() {
    for interval in [7, 50] {
        for dense in [false, true] {
            let mut net = saturated_net(false);
            let knots = lockstep(&mut net, 1_500, interval, dense);
            assert!(knots > 0, "interval {interval}: regime must deadlock");
        }
    }
}

/// Fault transitions rewrite candidate sets wholesale (`wait_dirty_all`);
/// the lockstep must survive links going down *and* back up, whether the
/// drain sees each transition alone or several folded into one epoch.
#[test]
fn lockstep_across_fault_transitions() {
    for interval in [1, 7, 50] {
        let mut net = saturated_net(true);
        let mut plan = icn_sim::FaultPlan::new();
        plan.link_outage(3, 60, 180)
            .link_outage(11, 120, 240)
            .node_stall(90, 5, 50);
        net.set_fault_plan(&plan);
        lockstep(&mut net, 400, interval, false);
    }
}

/// The dirty list is drained once per epoch and a stored or POSTed config
/// may set that interval to anything: it must stay bounded by the distinct
/// messages touched, not by the events that touched them.
#[test]
fn dirty_list_stays_bounded_between_rare_epochs() {
    use std::ops::ControlFlow;

    #[derive(Default)]
    struct Peak {
        worst_excess: i64,
        peak: usize,
    }
    impl flexsim::RunObserver for Peak {
        fn on_cycle(&mut self, net: &Network, _: &icn_sim::StepEvents) -> ControlFlow<()> {
            // Only an injected message can be marked, so the injected
            // total bounds the distinct ids touched since the last drain
            // (there is at most one drain in this run).
            let distinct = net.totals().1 as i64;
            let len = net.wait_dirty_len();
            self.peak = self.peak.max(len);
            self.worst_excess = self.worst_excess.max(len as i64 - 2 * distinct.max(64) - 1);
            ControlFlow::Continue(())
        }
    }

    // Dateline DOR is deadlock-free: no knot, no recovery, so the engine's
    // trajectory does not depend on when the detector looks.
    let mut cfg = RunConfig::small_default();
    cfg.routing = flexsim::RoutingSpec::DatelineDor;
    cfg.sim.vcs_per_channel = 2;
    cfg.load = 1.0;
    cfg.warmup = 0;
    cfg.measure = 20_000;
    cfg.detection_interval = 20_000;
    let mut peak = Peak::default();
    let rare = run_with(&cfg, &mut peak);
    assert!(
        peak.worst_excess <= 0,
        "dirty list outgrew 2x the distinct ids by {}",
        peak.worst_excess
    );
    // The bound bites: the run marks several times per message.
    assert!(peak.peak > 1_000, "peak {}", peak.peak);
    assert!(
        peak.peak as u64 <= 2 * rare.injected + 129,
        "peak {} vs {} injected",
        peak.peak,
        rare.injected
    );

    cfg.detection_interval = 50;
    let paper = flexsim::run(&cfg);
    assert_eq!(rare.deadlocks, 0);
    assert_eq!(paper.deadlocks, 0);
    // Everything that is not sampled at epochs agrees by construction.
    assert_eq!(
        (rare.generated, rare.injected, rare.delivered),
        (paper.generated, paper.injected, paper.delivered)
    );
    assert_eq!(rare.delivered_flits, paper.delivered_flits);
    assert_eq!(rare.link_flits, paper.link_flits);
    assert_eq!(rare.latency.mean(), paper.latency.mean());
    assert_eq!(rare.latency.max(), paper.latency.max());
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Randomized configurations (the validation campaign's
        /// generator) get the same epochs from both detectors.
        #[test]
        fn random_configs_are_detection_mode_invariant(seed in any::<u64>()) {
            let mut cfg = flexsim::validate::random_config(seed);
            cfg.warmup = 150;
            cfg.measure = 450;
            agree(&cfg, false);
        }
    }
}
