//! Workspace-level exercise of the validation layer (`flexsim::validate`).
//!
//! The default tests here are CI-sized slices: a randomized-CWG oracle
//! differential, a small live campaign, one exhaustive small-world
//! enumeration, a forensics re-audit, and a two-regime torture run. The
//! torture harness itself lives here: [`torture`] runs a config on both
//! steppers under a [`v::ValidationObserver`] each and cross-checks their
//! digests, over the operating points of [`torture_regimes`]. The full
//! harness — every regime, both steppers, >= 100k audited cycles — is
//! `#[ignore]`d for time; run it with:
//!
//! ```text
//! cargo test --release --test validation full_torture -- --ignored --nocapture
//! ```
//!
//! A heavier sweep of the same machinery is available from the CLI as
//! `cargo run --release -p icn-bench --bin repro -- validate`.

use std::collections::HashSet;

use flexsim::validate as v;
use flexsim::{
    run_reference_with, run_with, ForensicsConfig, RecoveryPolicy, RoutingSpec, RunConfig,
    TopologySpec,
};
use icn_traffic::MsgLenDist;

/// Every stage asserts with the minimized reproducer in the message, so a
/// failure in CI is directly replayable through `CwgSnapshot::from_json`.
fn assert_no_divergence(snap: &icn_cwg::CwgSnapshot) {
    let diffs = v::check_messages(snap, None);
    assert!(
        diffs.is_empty(),
        "oracle divergence: {:?}\nrepro: {}",
        diffs,
        v::divergence_repro_json(snap)
    );
}

#[test]
fn oracle_matches_production_on_random_cwgs() {
    let shapes = [v::GenParams::default(), v::GenParams::dense()];
    for params in &shapes {
        for seed in 0..200u64 {
            assert_no_divergence(&v::random_snapshot(0x5eed ^ seed, params));
        }
    }
}

#[test]
fn live_campaign_agrees_with_oracle() {
    let outcome = v::campaign(3, 0xc0ffee);
    assert_eq!(outcome.configs, 3);
    assert!(outcome.epochs_checked > 0, "campaign audited no epochs");
    if let Some((label, violations, repro)) = outcome.failures.first() {
        panic!("campaign config `{label}` failed: {violations:?}\nrepro: {repro:?}");
    }
    assert!(outcome.ok());
}

#[test]
fn explorer_exhausts_the_tiny_ring() {
    let report = v::explore(&v::ExploreConfig::uni_ring_3());
    assert_eq!(report.schedules, 729, "3 nodes, 3 choices, 6 slots");
    assert!(
        report.deadlocked > 0,
        "the uni-ring must deadlock somewhere"
    );
    assert!(
        report.ok(),
        "explorer divergences: {:?}",
        report.divergences
    );
}

/// The 4-node unidirectional ring at horizon 1: every schedule, audited
/// against the oracle, as `repro validate`'s explorer stage runs it.
#[test]
fn explorer_exhausts_the_four_node_ring() {
    let report = v::explore(&v::ExploreConfig::uni_ring_4());
    assert_eq!(report.schedules, 256, "4 nodes, 4 choices, 4 slots");
    assert!(
        report.deadlocked > 0,
        "the 4-node ring must deadlock somewhere"
    );
    assert!(
        report.ok(),
        "explorer divergences: {:?}",
        report.divergences
    );
}

#[test]
fn captured_incidents_survive_reaudit() {
    // The paper's canonical deadlock machine, small enough for debug CI:
    // unrestricted DOR on a unidirectional torus at saturation.
    let mut cfg = RunConfig::small_default();
    cfg.topology = TopologySpec::torus(4, 2, false);
    cfg.routing = RoutingSpec::Dor;
    cfg.sim.vcs_per_channel = 1;
    cfg.load = 1.0;
    cfg.warmup = 200;
    cfg.measure = 1_200;
    cfg.detection_interval = 25;
    cfg.forensics = Some(ForensicsConfig::default());
    let res = flexsim::run(&cfg);
    assert!(
        !res.forensic_incidents.is_empty(),
        "saturated uni-torus run captured no incidents"
    );
    for inc in &res.forensic_incidents {
        let problems = v::check_incident(inc);
        assert!(
            problems.is_empty(),
            "incident @ cycle {} failed re-audit: {problems:?}",
            inc.cycle
        );
    }
}

/// Runs `cfg` under full observation on **both** steppers and checks that
/// the two runs' results are byte-identical
/// ([`flexsim::RunResult::digest`]). Returns each stepper's name and
/// observer; a digest mismatch is appended to both violation lists.
fn torture(cfg: &RunConfig) -> [(&'static str, v::ValidationObserver); 2] {
    let mut act = v::ValidationObserver::new(cfg);
    let res_act = run_with(cfg, &mut act);
    let mut dense = v::ValidationObserver::new(cfg);
    let res_dense = run_reference_with(cfg, &mut dense);
    let mut observed = [("activity", act), ("dense", dense)];
    if res_act.digest() != res_dense.digest() {
        for (_, obs) in &mut observed {
            obs.violations
                .push("stepper digest mismatch: activity != dense".to_string());
        }
    }
    observed
}

/// Fails with the violations and the minimized reproducer unless every
/// audit of `cfg`'s run on `stepper` passed.
fn assert_clean(cfg: &RunConfig, stepper: &str, obs: &v::ValidationObserver) {
    assert!(
        obs.ok(),
        "[{} / {stepper}] violations: {:?}\nrepro: {:?}",
        cfg.label(),
        obs.violations,
        obs.divergence_repro
    );
}

/// The torture regimes: ≥ 8 qualitatively different operating points —
/// deep saturation with recovery, oversaturated rings, deadlock-free
/// avoidance baselines, non-minimal misrouting, no-recovery wedging,
/// deep buffers (cut-through), and hybrid message lengths. `measure`
/// scales the horizon; warmup stays short so the audit covers the
/// transient too.
fn torture_regimes(measure: u64) -> Vec<RunConfig> {
    let base = RunConfig {
        topology: TopologySpec::torus(4, 2, true),
        warmup: 200,
        measure,
        detection_interval: 25,
        ..RunConfig::paper_default()
    };
    let mut regimes = Vec::new();

    // 1. Deep saturation on a unidirectional torus: DOR, 1 VC, the
    // paper's canonical deadlock machine.
    let mut r = base.clone();
    r.topology = TopologySpec::torus(4, 2, false);
    r.routing = RoutingSpec::Dor;
    r.sim.vcs_per_channel = 1;
    r.load = 1.0;
    regimes.push(r);

    // 2. TFAR at saturation with 2 VCs (knots form through adaptive
    // request fans).
    let mut r = base.clone();
    r.routing = RoutingSpec::Tfar;
    r.sim.vcs_per_channel = 2;
    r.load = 1.1;
    regimes.push(r);

    // 3. Oversaturated unidirectional ring, youngest-victim recovery.
    let mut r = base.clone();
    r.topology = TopologySpec::torus(8, 1, false);
    r.routing = RoutingSpec::Dor;
    r.sim.vcs_per_channel = 2;
    r.load = 1.2;
    r.recovery = RecoveryPolicy::RemoveYoungest;
    regimes.push(r);

    // 4. Dateline avoidance at capacity: must stay knot-free throughout.
    let mut r = base.clone();
    r.routing = RoutingSpec::DatelineDor;
    r.sim.vcs_per_channel = 2;
    r.load = 1.0;
    regimes.push(r);

    // 5. West-first turn model on a mesh.
    let mut r = base.clone();
    r.topology = TopologySpec::mesh(4, 2);
    r.routing = RoutingSpec::WestFirst;
    r.sim.vcs_per_channel = 1;
    r.load = 0.9;
    regimes.push(r);

    // 6. Duato's protocol at capacity (adaptive + escape VCs).
    let mut r = base.clone();
    r.routing = RoutingSpec::Duato;
    r.sim.vcs_per_channel = 3;
    r.load = 1.0;
    regimes.push(r);

    // 7. Non-minimal misrouting under pressure (hop-minimality audit
    // relaxes to >= distance).
    let mut r = base.clone();
    r.routing = RoutingSpec::Misroute { budget: 2 };
    r.sim.vcs_per_channel = 2;
    r.load = 1.0;
    regimes.push(r);

    // 8. No recovery: the network wedges and stays wedged; detection,
    // conservation, and the oracle keep auditing the frozen state.
    let mut r = base.clone();
    r.topology = TopologySpec::torus(4, 2, false);
    r.routing = RoutingSpec::Tfar;
    r.sim.vcs_per_channel = 1;
    r.load = 1.1;
    r.recovery = RecoveryPolicy::None;
    regimes.push(r);

    // 9. Deep buffers (virtual cut-through) at saturation: settled-chain
    // snapshots shrink to the header neighbourhood.
    let mut r = base.clone();
    r.topology = TopologySpec::torus(4, 2, false);
    r.routing = RoutingSpec::Dor;
    r.sim.vcs_per_channel = 1;
    r.sim.buffer_depth = 32;
    r.load = 1.0;
    regimes.push(r);

    // 10. Hybrid message lengths with every-epoch cycle census.
    let mut r = base.clone();
    r.routing = RoutingSpec::Tfar;
    r.sim.vcs_per_channel = 1;
    r.len_dist = MsgLenDist::Bimodal {
        short: 4,
        long: 32,
        long_frac: 0.3,
    };
    r.load = 1.0;
    r.count_cycles_every = Some(2);
    regimes.push(r);

    // 11. Transient link flaps under saturation: several outage windows
    // land mid-run while TFAR routes around them; conservation must
    // balance modulo counted fault losses, and recovery must stay live
    // on the knots the disruption induces.
    let mut r = base.clone();
    r.routing = RoutingSpec::Tfar;
    r.sim.vcs_per_channel = 2;
    r.load = 1.1;
    let span = 200 + measure;
    r.faults
        .link_outage(0, span / 8, span / 4)
        .link_outage(5, span / 3, span / 2)
        .link_outage(11, span / 2, (span * 3) / 4);
    regimes.push(r);

    // 12. Permanent link kill with TFAR reroute: one channel dies early
    // and stays dead; surviving traffic reroutes adaptively, traffic
    // caught on the channel is dropped as counted fault loss, and a
    // router stall adds a frozen-node episode on top.
    let mut r = base;
    r.routing = RoutingSpec::Tfar;
    r.sim.vcs_per_channel = 2;
    r.load = 1.0;
    r.faults
        .link_kill(250, 7)
        .node_stall(400, 3, 60)
        .injector_down(500, 9, 80);
    regimes.push(r);

    regimes
}

#[test]
fn torture_regimes_cover_the_required_breadth() {
    let regimes = torture_regimes(1_000);
    assert!(regimes.len() >= 8);
    // Deep saturation with recovery is present.
    assert!(regimes
        .iter()
        .any(|r| r.load >= 1.0 && r.recovery != RecoveryPolicy::None));
    // Every label is distinct (genuinely different regimes).
    let labels: HashSet<String> = regimes.iter().map(|r| r.label()).collect();
    assert_eq!(labels.len(), regimes.len());
}

#[test]
fn torture_ci_slice() {
    // Two qualitatively different regimes (deadlock-heavy DOR and adaptive
    // TFAR) at a short horizon; the full set runs under `full_torture`.
    let regimes = torture_regimes(300);
    for cfg in regimes.iter().take(2) {
        for (stepper, obs) in torture(cfg) {
            assert!(obs.epochs > 0, "{}: no epochs audited", cfg.label());
            assert_clean(cfg, stepper, &obs);
        }
    }
}

/// The full torture harness: every regime, both steppers, long horizon.
/// Audits >= 100k simulated cycles across >= 8 qualitatively different
/// operating points; any invariant breach or oracle divergence fails with
/// a minimized reproducer.
#[test]
#[ignore = "minutes-long; run with --ignored --nocapture (see module docs)"]
fn full_torture() {
    let regimes = torture_regimes(6_000);
    assert!(
        regimes.len() >= 8,
        "need >= 8 regimes, got {}",
        regimes.len()
    );
    let mut total_cycles = 0u64;
    let mut total_deadlock_epochs = 0u64;
    for cfg in &regimes {
        for (stepper, obs) in torture(cfg) {
            println!(
                "[{} / {stepper}] {} cycles, {} epochs, {} with knots",
                cfg.label(),
                obs.cycles,
                obs.epochs,
                obs.deadlock_epochs
            );
            total_cycles += obs.cycles;
            total_deadlock_epochs += obs.deadlock_epochs;
            assert_clean(cfg, stepper, &obs);
        }
    }
    println!("total: {total_cycles} cycles audited, {total_deadlock_epochs} knot epochs");
    assert!(
        total_cycles >= 100_000,
        "torture audited only {total_cycles} cycles"
    );
    assert!(
        total_deadlock_epochs > 0,
        "torture regimes never produced a deadlock"
    );
}
