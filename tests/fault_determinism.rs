//! Fault-injection determinism: a faulted run must be byte-identical
//! across both steppers and across replays, and a fault plan that never
//! fires must leave the simulation byte-identical to a fault-free
//! baseline — the fault machinery's mere presence cannot perturb a run.

use flexsim::experiments::{self, Scale};
use flexsim::faults::random_plan;
use flexsim::{run, run_reference, FaultPlan, RoutingSpec, RunConfig, RunResult, TopologySpec};
use proptest::prelude::*;

/// The digest with the label stripped: everything measured, none of the
/// naming. Lets a faulted config (whose label carries a `faults=N`
/// marker) be compared against an identically-behaving fault-free one.
fn digest_body(r: &RunResult) -> String {
    r.digest()[r.label.len()..].to_string()
}

fn small_faulted(routing_pick: usize, load_pick: usize, seed: u64, plan_seed: u64) -> RunConfig {
    let mut cfg = RunConfig::small_default();
    cfg.topology = TopologySpec::torus(4, 2, true);
    cfg.warmup = 150;
    cfg.measure = 450;
    cfg.detection_interval = 25;
    (cfg.routing, cfg.sim.vcs_per_channel) = match routing_pick % 4 {
        0 => (RoutingSpec::Dor, 1),
        1 => (RoutingSpec::Tfar, 2),
        2 => (RoutingSpec::Duato, 3),
        _ => (RoutingSpec::DatelineDor, 2),
    };
    cfg.load = [0.4, 0.8, 1.1][load_pick % 3];
    cfg.seed = seed;
    let horizon = cfg.warmup + cfg.measure;
    cfg.faults = random_plan(&cfg.topology, horizon, plan_seed);
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same config + plan + seed: the activity and dense steppers agree
    /// byte-for-byte, and a replay reproduces the digest exactly.
    #[test]
    fn faulted_runs_are_stepper_identical(
        routing_pick in 0usize..4,
        load_pick in 0usize..3,
        seed in any::<u64>(),
        plan_seed in any::<u64>(),
    ) {
        let cfg = small_faulted(routing_pick, load_pick, seed, plan_seed);
        let act = run(&cfg);
        let dense = run_reference(&cfg);
        prop_assert_eq!(
            act.digest(),
            dense.digest(),
            "steppers diverged for {}",
            cfg.label()
        );
        let replay = run(&cfg);
        prop_assert_eq!(act.digest(), replay.digest(), "replay diverged");
    }
}

/// The exact release triggers through the `FAULTS` transfer walk: one-flit
/// buffers, one-, two- and four-flit messages, 1, 2 and 3 VCs (the walk's
/// general and `V = 2` instantiations), and link kills that drop messages
/// whose chains run through the dead channel. A dropped message's pending
/// release visit must vanish with it, and every survivor's triggers must
/// still match the dense release scan.
#[test]
fn release_triggers_survive_mid_chain_drops() {
    for vcs in [1usize, 2, 3] {
        for msg_len in [1usize, 2, 4] {
            let mut cfg = RunConfig::small_default();
            cfg.topology = TopologySpec::torus(4, 2, true);
            cfg.routing = RoutingSpec::Tfar;
            cfg.sim.vcs_per_channel = vcs;
            cfg.sim.buffer_depth = 1;
            cfg.sim.msg_len = msg_len;
            cfg.len_dist = icn_traffic::MsgLenDist::Fixed(msg_len);
            cfg.load = 0.8;
            cfg.warmup = 100;
            cfg.measure = 500;
            cfg.detection_interval = 25;
            cfg.faults
                .link_kill(150, 3)
                .link_kill(300, 17)
                .link_kill(450, 40);
            let act = run(&cfg);
            let dense = run_reference(&cfg);
            assert_eq!(
                act.digest(),
                dense.digest(),
                "steppers diverged for {}",
                cfg.label()
            );
            if msg_len > 1 {
                assert!(act.fault_losses > 0, "{}: no message dropped", cfg.label());
            }
        }
    }
}

/// A plan whose every event lands beyond the run horizon arms the whole
/// fault machinery (the engine runs in fault mode throughout) but never
/// fires; each golden-figure configuration must then reproduce its
/// fault-free baseline digest byte-for-byte.
#[test]
fn unfired_plan_matches_fault_free_baseline_on_golden_configs() {
    let golden_heads = [
        experiments::fig5(Scale::Small),
        experiments::fig6(Scale::Small),
        experiments::fig7(Scale::Small),
        experiments::fig8(Scale::Small),
    ];
    for exp in &golden_heads {
        let baseline_cfg = exp.configs[0].clone();
        let total = baseline_cfg.warmup + baseline_cfg.measure;
        let mut armed_cfg = baseline_cfg.clone();
        armed_cfg
            .faults
            .link_kill(total + 1_000, 0)
            .node_stall(total + 2_000, 0, 50);

        let baseline = run(&baseline_cfg);
        let armed = run(&armed_cfg);
        assert_eq!(
            digest_body(&baseline),
            digest_body(&armed),
            "{}: armed-but-unfired plan perturbed the run",
            exp.id
        );
        assert_eq!(armed.fault_losses, 0);
        assert_eq!(armed.fault_rejected, 0);
    }
}

/// An explicitly empty plan is the default: configs compare equal and
/// produce fully identical results, label included.
#[test]
fn empty_plan_is_the_default() {
    let mut cfg = RunConfig::small_default();
    cfg.warmup = 150;
    cfg.measure = 450;
    cfg.routing = RoutingSpec::Tfar;
    cfg.sim.vcs_per_channel = 2;
    cfg.load = 0.5;
    let mut explicit = cfg.clone();
    explicit.faults = FaultPlan::new();
    assert_eq!(cfg, explicit);
    assert_eq!(run(&cfg).digest(), run(&explicit).digest());
}

/// Fault losses and fault rejections actually occur under a plan that
/// severs a dimension for a single-path relation: DOR traffic that needs
/// the dead channel is dropped (in-network) or rejected (at the source),
/// never wedged forever — and the totals agree across steppers.
#[test]
fn severed_dimension_drops_instead_of_wedging() {
    let mut cfg = RunConfig::small_default();
    cfg.topology = TopologySpec::torus(4, 2, true);
    cfg.routing = RoutingSpec::Dor;
    cfg.sim.vcs_per_channel = 1;
    cfg.load = 0.7;
    cfg.warmup = 100;
    cfg.measure = 900;
    cfg.stall_threshold = Some(400);
    cfg.faults.link_kill(200, 2);

    let act = run(&cfg);
    let dense = run_reference(&cfg);
    assert_eq!(act.digest(), dense.digest());
    assert!(
        act.fault_losses + act.fault_rejected > 0,
        "a killed channel under DOR must strand some traffic"
    );
    assert_ne!(
        act.outcome,
        flexsim::RunOutcome::Stalled,
        "dropping unroutable traffic keeps the run live"
    );
}
