//! Workspace-level exercise of the validation layer (`flexsim::validate`).
//!
//! The default tests here are CI-sized slices: a randomized-CWG oracle
//! differential, a small live campaign, one exhaustive small-world
//! enumeration, a forensics re-audit, and a two-regime torture run. The
//! full torture harness — every regime, both steppers, >= 100k audited
//! cycles — is `#[ignore]`d for time; run it with:
//!
//! ```text
//! cargo test --release --test validation full_torture -- --ignored --nocapture
//! ```
//!
//! A heavier sweep of the same machinery is available from the CLI as
//! `cargo run --release -p icn-bench --bin repro -- validate`.

use flexsim::validate as v;
use flexsim::{ForensicsConfig, RoutingSpec, RunConfig, TopologySpec};

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

#[test]
fn torture_ci_slice() {
    // Two qualitatively different regimes (deadlock-heavy DOR and adaptive
    // TFAR) at a short horizon; the full set runs under `full_torture`.
    let regimes = v::torture_regimes(300);
    for cfg in regimes.iter().take(2) {
        for outcome in v::torture(cfg) {
            assert!(outcome.epochs > 0, "{}: no epochs audited", outcome.label);
            assert!(
                outcome.ok(),
                "[{} / {}] violations: {:?}\nrepro: {:?}",
                outcome.label,
                outcome.stepper,
                outcome.violations,
                outcome.divergence_repro
            );
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
    let regimes = v::torture_regimes(6_000);
    assert!(
        regimes.len() >= 8,
        "need >= 8 regimes, got {}",
        regimes.len()
    );
    let mut total_cycles = 0u64;
    let mut total_deadlock_epochs = 0u64;
    for cfg in &regimes {
        for outcome in v::torture(cfg) {
            println!(
                "[{} / {}] {} cycles, {} epochs, {} with knots",
                outcome.label,
                outcome.stepper,
                outcome.cycles,
                outcome.epochs,
                outcome.deadlock_epochs
            );
            total_cycles += outcome.cycles;
            total_deadlock_epochs += outcome.deadlock_epochs;
            assert!(
                outcome.ok(),
                "[{} / {}] violations: {:?}\nrepro: {:?}",
                outcome.label,
                outcome.stepper,
                outcome.violations,
                outcome.divergence_repro
            );
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
