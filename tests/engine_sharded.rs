//! Partition-count invariance: with the `parallel` cargo feature,
//! [`icn_sim::Network::set_shards`] (plumbed through
//! [`flexsim::RunConfig::shards`]) splits the engine's pure
//! transfer-decide pass over contiguous word ranges of the active-channel
//! bitset and applies the decided moves serially in ascending channel
//! order — so [`flexsim::RunResult::digest`] must be byte-identical at any
//! count: 1, 2, 4 and 8 partitions, on every golden regime at saturation
//! (where per-cycle decide work, and therefore reordering opportunity,
//! peaks), with recovery pulls, under a fault plan (where every cycle
//! takes the serial walk and the knob is inert), and across a sweep
//! checkpoint/resume.
//!
//! The knob reports what it granted: 1 without the feature, at most one
//! partition per 64 channels with it. The clamp test pins both builds.

use flexsim::{run, RunConfig};

/// The knob must be inert when the feature is off (and digest-neutral
/// when on): requesting shards on a serial build changes nothing.
#[test]
fn shard_knob_is_digest_neutral_on_any_build() {
    let mut cfg = RunConfig::small_default();
    cfg.warmup = 200;
    cfg.measure = 600;
    cfg.load = 1.0;
    let baseline = run(&cfg).digest();
    cfg.shards = 4;
    assert_eq!(run(&cfg).digest(), baseline);
}

/// `set_shards` must *say* what it granted instead of silently clamping:
/// 1 for any request without the feature, and with it at most one
/// partition per word of the active-channel bitset.
#[test]
fn set_shards_reports_the_effective_count() {
    use icn_sim::{Network, SimConfig};
    use icn_topology::KAryNCube;
    let effective = |k: u16, request: usize| {
        Network::new(
            KAryNCube::torus(k, 2, true),
            Box::new(icn_routing::Dor),
            SimConfig::default(),
        )
        .set_shards(request)
    };
    // 4x4 torus: 64 channels are one word, so nothing to partition.
    assert_eq!(effective(4, 8), 1);
    // 16x16 torus: 1,024 channels are 16 words.
    let parallel = cfg!(feature = "parallel");
    assert_eq!(effective(16, 8), if parallel { 8 } else { 1 });
    assert_eq!(effective(16, 64), if parallel { 16 } else { 1 });
    assert_eq!(effective(16, 0), 1);
}

#[cfg(feature = "parallel")]
mod sharded {
    use super::*;
    use flexsim::experiments::{fig5, fig6, fig7, fig8, Scale};
    use flexsim::{sweep, sweep_supervised, SweepOptions};
    use proptest::prelude::*;

    /// The saturated (load ≥ 1.0) points of each golden figure — the
    /// densest transfer traffic and the only regimes with steady deadlock
    /// recovery churn.
    fn golden_saturated_points() -> Vec<RunConfig> {
        [fig5, fig6, fig7, fig8]
            .iter()
            .flat_map(|f| f(Scale::Small).configs)
            .filter(|c| c.load >= 1.0)
            .collect()
    }

    #[test]
    fn sharded_run_is_digest_identical_on_goldens() {
        let points = golden_saturated_points();
        assert!(
            points.len() >= 4,
            "expected saturated points in every golden"
        );
        for base in points {
            let mut serial = base.clone();
            serial.shards = 1;
            let want = run(&serial).digest();
            for shards in [2, 4, 8] {
                let mut cfg = base.clone();
                cfg.shards = shards;
                assert_eq!(
                    run(&cfg).digest(),
                    want,
                    "digest diverged at {shards} shards for {}",
                    cfg.label()
                );
            }
        }
    }

    /// A fault plan forces the serial walk for the whole run, so the knob
    /// is inert: the run must match its flat self exactly.
    #[test]
    fn faulted_runs_with_shards_match_serial() {
        let mut cfg = RunConfig::small_default();
        cfg.warmup = 200;
        cfg.measure = 800;
        cfg.load = 1.0;
        cfg.faults = flexsim::faults::random_plan(&cfg.topology, 1_000, 17);
        let want = run(&cfg).digest();
        cfg.shards = 4;
        assert_eq!(run(&cfg).digest(), want);
    }

    /// Interrupt-and-resume with partitioned configs: a checkpoint written
    /// mid-sweep by a partitioned invocation must resume into the same
    /// bytes the flat engine produces.
    #[test]
    fn sharded_sweep_checkpoint_resume_is_digest_exact() {
        let mut configs = golden_saturated_points();
        configs.truncate(2);
        for c in &mut configs {
            c.warmup = 200;
            c.measure = 600;
            c.shards = 4;
        }
        let dir = std::env::temp_dir().join(format!(
            "icn-shard-ckpt-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.jsonl");
        let _ = std::fs::remove_file(&path);

        let opts = SweepOptions {
            checkpoint: Some(path.clone()),
            ..SweepOptions::default()
        };
        // First pass: only the first config reaches the checkpoint.
        let first = sweep_supervised(&configs[..1], &opts);
        assert!(first[0].is_ok());

        // Resume over the full set, then compare against flat solo runs.
        let resumed = sweep_supervised(&configs, &opts);
        let flat: Vec<_> = configs
            .iter()
            .map(|c| {
                let mut f = c.clone();
                f.shards = 1;
                f
            })
            .collect();
        for (r, f) in resumed.iter().zip(sweep(&flat).iter()) {
            assert_eq!(
                r.as_ref().unwrap().digest(),
                f.digest(),
                "sharded resume diverged from the flat engine"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Randomized configurations (the validation campaign's generator:
        /// varied topology, routing, VCs, buffers, pattern, recovery
        /// policy) stay digest-identical at a random shard count. The
        /// generator's 4-ary 2-D networks are one bitset word, which
        /// cannot be partitioned, so their 8-ary twins (2–4 words) run.
        #[test]
        fn random_configs_are_shard_invariant(seed in any::<u64>()) {
            let mut cfg = flexsim::validate::random_config(seed);
            if cfg.topology.n == 2 {
                cfg.topology.k = 8;
            }
            cfg.warmup = 150;
            cfg.measure = 450;
            let want = run(&cfg).digest();
            cfg.shards = 2 + (seed % 7) as usize;
            prop_assert_eq!(run(&cfg).digest(), want);
        }
    }
}
