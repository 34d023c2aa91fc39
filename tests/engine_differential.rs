//! End-to-end engine differential: a full [`run`] (traffic, detection,
//! recovery, forensics) driven by the activity engine must be
//! byte-identical — [`RunResult::digest`] equality — to [`run_reference`],
//! which drives the identical point with the dense reference stepper.
//! The sim-level differential test compares steppers cycle-by-cycle; this
//! one proves the equivalence survives everything the runner layers on
//! top: detection epochs, skipped epochs, Disha-style recovery
//! victim selection, and forensic capture.

use flexsim::{run, run_reference, ForensicsConfig, RoutingSpec, RunConfig, TopologySpec};

fn points() -> Vec<RunConfig> {
    let mut configs = Vec::new();
    // The last row saturates 2 VCs with 2-flit buffers: most VCs are
    // full, so nearly every visit of the `V = 2` walk decides on both of
    // its loads.
    for (routing, vcs, load, depth) in [
        (RoutingSpec::Dor, 1, 1.0, 2),
        (RoutingSpec::Tfar, 2, 0.8, 2),
        (RoutingSpec::Duato, 3, 0.6, 2),
        (RoutingSpec::Tfar, 2, 1.0, 2),
    ] {
        let mut c = RunConfig::small_default();
        c.routing = routing;
        c.sim.vcs_per_channel = vcs;
        c.sim.buffer_depth = depth;
        c.load = load;
        c.warmup = 200;
        c.measure = 600;
        configs.push(c);
    }
    configs
}

#[test]
fn activity_run_matches_reference_run() {
    for cfg in points() {
        assert_eq!(
            run(&cfg).digest(),
            run_reference(&cfg).digest(),
            "engines diverged for {}",
            cfg.label()
        );
    }
}

#[test]
fn engines_agree_through_deadlock_recovery_cycles() {
    // A saturated unidirectional DOR torus wedges repeatedly; recovery
    // keeps pulling victims. Both engines must agree on every knot,
    // victim, and resolution latency.
    let mut cfg = RunConfig::small_default();
    cfg.topology = TopologySpec::torus(8, 2, false);
    cfg.routing = RoutingSpec::Dor;
    cfg.sim.vcs_per_channel = 1;
    cfg.load = 1.0;
    let a = run(&cfg);
    assert!(a.deadlocks > 0, "expected deadlocks at saturation");
    assert_eq!(a.digest(), run_reference(&cfg).digest());
}

#[test]
fn engines_agree_under_forensic_capture() {
    // Forensics adds tracing and replay capture; the activity engine must
    // produce the identical trace stream for it to index.
    let mut cfg = points().remove(0);
    cfg.forensics = Some(ForensicsConfig::default());
    let a = run(&cfg);
    let b = run_reference(&cfg);
    assert!(!a.forensic_incidents.is_empty(), "expected captures");
    assert_eq!(a.digest(), b.digest());
}
