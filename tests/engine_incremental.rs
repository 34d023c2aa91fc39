//! Incremental every-cycle detection: the event-patched
//! [`DynamicWaitGraph`] kept current from the engine's wait-state stream
//! must be indistinguishable from a fresh snapshot rebuild at **every**
//! cycle — structurally, by fingerprint, and on the knot verdict — on
//! both steppers, through recovery pulls, and across fault transitions.
//! At the run level, [`flexsim::DetectionMode::Incremental`] must produce
//! [`RunResult::digest`]s byte-identical to snapshot mode on every golden
//! regime, under armed fault plans, and at every-cycle epochs.
//!
//! [`RunResult::digest`]: flexsim::RunResult::digest

use flexsim::experiments::{fig5, fig6, fig7, fig8, Scale};
use flexsim::{build_wait_graph, run, DetectionMode, RunConfig};
use icn_cwg::{DetectorScratch, DynamicWaitGraph};
use icn_sim::{Network, SimConfig, SnapshotArena, WaitUpdate};
use icn_topology::{KAryNCube, NodeId};

/// The saturated (load ≥ 1.0) points of each golden figure — the only
/// regimes with steady deadlock recovery churn.
fn golden_saturated_points() -> Vec<RunConfig> {
    [fig5, fig6, fig7, fig8]
        .iter()
        .flat_map(|f| f(Scale::Small).configs)
        .filter(|c| c.load >= 1.0)
        .collect()
}

/// Steps `net` for `cycles`, keeping an incremental CWG in lockstep and
/// asserting, every single cycle, that it matches a fresh snapshot
/// rebuild: same fingerprint, same records edge-for-edge, same knot
/// deadlock sets. Detected knots are broken with the runner's
/// remove-oldest pull, so recovery transitions are part of the stream.
/// Returns the number of cycles on which a knot was live.
fn lockstep(net: &mut Network, cycles: u64, dense: bool) -> u64 {
    net.enable_wait_tracking();
    let mut dwg = DynamicWaitGraph::new(net.wait_vertex_count());
    let mut arena = SnapshotArena::new();
    let mut scratch = DetectorScratch::new();
    let mut knot_cycles = 0;
    for _ in 0..cycles {
        if dense {
            net.step_reference();
        } else {
            net.step();
        }
        net.drain_wait_updates(|id, up| match up {
            WaitUpdate::Blocked { chain, requests } => dwg.stage_blocked(id, chain, requests),
            WaitUpdate::Clear => dwg.stage_clear(id),
        });
        dwg.commit();
        dwg.check_invariants();
        // Reduction verdict first, before anything refreshes the exact
        // sets cache — the two detection paths must agree independently.
        let live = dwg.has_knot();

        net.wait_snapshot_into(&mut arena);
        assert_eq!(
            dwg.fingerprint(),
            arena.fingerprint(),
            "fingerprint diverged at cycle {}",
            net.cycle()
        );
        let full = build_wait_graph(&arena.to_snapshot());
        let diff = dwg.diff_against_snapshot(&full);
        assert!(
            diff.is_empty(),
            "cycle {}: incremental CWG diverged: {diff:?}",
            net.cycle()
        );

        let mut want: Vec<Vec<u64>> = full.knot_deadlock_sets(&mut scratch);
        want.sort();
        let mut got: Vec<Vec<u64>> = dwg.knot_deadlock_sets().to_vec();
        got.sort();
        assert_eq!(got, want, "knot sets diverged at cycle {}", net.cycle());
        assert_eq!(
            live,
            !got.is_empty(),
            "reduction verdict diverged at cycle {}",
            net.cycle()
        );

        if !got.is_empty() {
            knot_cycles += 1;
            // Break one knot per cycle, oldest member first — recovery
            // wake chains are the hardest part of the event stream.
            let victim = *got[0].iter().min().unwrap();
            assert!(net.start_recovery(victim));
        }
    }
    knot_cycles
}

/// A saturated 4-ary 2-cube under unrestricted DOR: random traffic until
/// knots form, recovered as they appear, lockstep-checked every cycle.
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
    // Deterministic all-pairs-ish load: enough to wedge a 1-VC torus.
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
    let knots = lockstep(&mut net, 600, false);
    assert!(knots > 0, "regime must actually deadlock to prove anything");
}

#[test]
fn lockstep_every_cycle_dense_stepper() {
    let mut net = saturated_net(false);
    let knots = lockstep(&mut net, 600, true);
    assert!(knots > 0, "regime must actually deadlock to prove anything");
}

/// Fault transitions rewrite candidate sets wholesale (`wait_dirty_all`);
/// the lockstep must survive link outages going down *and* back up.
#[test]
fn lockstep_across_fault_transitions() {
    let mut net = saturated_net(true);
    let mut plan = icn_sim::FaultPlan::new();
    plan.link_outage(3, 60, 180)
        .link_outage(11, 120, 240)
        .node_stall(90, 5, 50);
    net.set_fault_plan(&plan);
    lockstep(&mut net, 400, false);
}

#[test]
fn incremental_digest_matches_snapshot_on_goldens() {
    let points = golden_saturated_points();
    assert!(
        points.len() >= 4,
        "expected saturated points in every golden"
    );
    for base in points {
        let mut snap = base.clone();
        snap.detection = DetectionMode::Snapshot;
        let want = run(&snap).digest();
        let mut inc = base.clone();
        inc.detection = DetectionMode::Incremental;
        assert_eq!(
            run(&inc).digest(),
            want,
            "incremental digest diverged for {}",
            inc.label()
        );
    }
}

/// Armed fault plans force the serial scheduler and rewrite wait records
/// at link transitions; both modes must still agree byte-for-byte.
#[test]
fn incremental_digest_matches_snapshot_under_faults() {
    let mut cfg = RunConfig::small_default();
    cfg.warmup = 200;
    cfg.measure = 800;
    cfg.load = 1.0;
    cfg.faults = flexsim::faults::random_plan(&cfg.topology, 1_000, 17);
    let want = run(&cfg).digest();
    cfg.detection = DetectionMode::Incremental;
    assert_eq!(run(&cfg).digest(), want);
}

/// `detection_interval = 1` makes every cycle an epoch: incremental mode
/// then cross-checks its fingerprint against a fresh capture each cycle
/// (a debug assertion inside the runner).
#[test]
fn every_cycle_epochs_agree_across_detection_modes() {
    let mut cfg = RunConfig::small_default();
    cfg.topology = flexsim::TopologySpec::torus(4, 2, false);
    cfg.sim.vcs_per_channel = 1;
    cfg.warmup = 100;
    cfg.measure = 400;
    cfg.load = 1.0;
    cfg.detection_interval = 1;
    let want = run(&cfg).digest();
    cfg.detection = DetectionMode::Incremental;
    assert_eq!(run(&cfg).digest(), want);
}

/// Forensic capture rides on the same epochs; formation cycles recorded
/// in incidents must be identical in both modes, and never after the
/// detection cycle.
#[test]
fn formation_cycles_are_identical_and_causal() {
    let mut cfg = RunConfig::small_default();
    cfg.topology = flexsim::TopologySpec::torus(8, 2, false);
    cfg.sim.vcs_per_channel = 1;
    cfg.warmup = 200;
    cfg.measure = 1_000;
    cfg.load = 1.0;
    cfg.forensics = Some(flexsim::ForensicsConfig::default());
    let snap = run(&cfg);
    assert!(snap.deadlocks > 0, "need knots for formation coverage");
    cfg.detection = DetectionMode::Incremental;
    let inc = run(&cfg);
    assert_eq!(inc.digest(), snap.digest());
    for (a, b) in snap.incidents.iter().zip(inc.incidents.iter()) {
        assert_eq!(a.formation_cycle, b.formation_cycle);
        assert!(a.formation_cycle <= a.cycle);
    }
    // Snapshot mode's detection lag is bounded by the epoch interval.
    assert!(snap.detection_lag.count() > 0);
    assert!(snap.detection_lag.max() <= cfg.detection_interval);
    for (a, b) in snap
        .forensic_incidents
        .iter()
        .zip(inc.forensic_incidents.iter())
    {
        assert_eq!(a.formation_cycle, b.formation_cycle);
    }
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Randomized configurations (the validation campaign's
        /// generator) are digest-invariant across detection modes.
        #[test]
        fn random_configs_are_detection_mode_invariant(seed in any::<u64>()) {
            let mut cfg = flexsim::validate::random_config(seed);
            cfg.warmup = 150;
            cfg.measure = 450;
            cfg.detection = DetectionMode::Snapshot;
            let want = run(&cfg).digest();
            cfg.detection = DetectionMode::Incremental;
            prop_assert_eq!(run(&cfg).digest(), want);
        }
    }
}
