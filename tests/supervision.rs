//! Supervision runs a configuration once: a panicking run is reported
//! after that one run, and every result that comes back is `run(cfg)` for
//! the `cfg` it was given, never a run of some other seed.
//!
//! The panic hook is process-global, so this file holds one test and
//! nothing else: no other test's panics reach the counter.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use flexsim::{
    run, run_supervised, sweep_supervised, CancelToken, RoutingSpec, RunConfig, SweepError,
    SweepOptions,
};

fn quick_cfg(load: f64) -> RunConfig {
    let mut c = RunConfig::small_default();
    c.warmup = 200;
    c.measure = 800;
    c.load = load;
    c.routing = RoutingSpec::Tfar;
    c.sim.vcs_per_channel = 2;
    c
}

#[test]
fn a_panicking_run_panics_once_and_siblings_are_plain_runs() {
    let panics = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&panics);
    std::panic::set_hook(Box::new(move |_| {
        counter.fetch_add(1, Ordering::SeqCst);
    }));

    let mut poison = quick_cfg(0.2);
    poison.sim.vcs_per_channel = 0;
    let outcome = run_supervised(&poison, &CancelToken::new(), None);
    let after_run = panics.load(Ordering::SeqCst);
    let configs = [quick_cfg(0.2), poison, quick_cfg(0.3)];
    let results = sweep_supervised(&configs, &SweepOptions);
    let after_sweep = panics.load(Ordering::SeqCst);
    // Restore the default hook so a failed assertion below is reported.
    let _ = std::panic::take_hook();

    assert_eq!(after_run, 1, "one run, one panic");
    match outcome {
        Err(SweepError::Panicked { label, message }) => {
            assert_eq!(label, configs[1].label());
            assert!(
                message.contains("vcs_per_channel"),
                "the message names the failed assertion: {message}"
            );
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
    assert_eq!(after_sweep, 2, "the poison panics once more in the sweep");
    assert!(matches!(results[1], Err(SweepError::Panicked { .. })));
    for i in [0, 2] {
        let got = results[i]
            .as_ref()
            .expect("a sibling of the poison completes");
        assert_eq!(got.digest(), run(&configs[i]).digest(), "slot {i}");
    }
}
