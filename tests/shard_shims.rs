//! The contract of the three inert names `benchmark/src/run.rs` still
//! compiles against ([`icn_sim::Network::set_shards`],
//! [`flexsim::RunConfig::shards`], the empty `parallel` features) and of
//! the three config members that outlived their knobs: they select nothing,
//! move no digest and no cache key, and stored configs that carry them
//! still parse. All of this goes with the shims (ROADMAP item 1).

use flexsim::jsonio::parse;
use flexsim::{config_from_json, config_to_json, run, RunConfig};

#[test]
fn set_shards_always_grants_one() {
    let mut net = icn_sim::Network::new(
        icn_topology::KAryNCube::torus(16, 2, true),
        Box::new(icn_routing::Dor),
        icn_sim::SimConfig::default(),
    );
    for request in [0, 1, 8, usize::MAX] {
        assert_eq!(net.set_shards(request), 1, "request {request}");
    }
}

#[test]
fn shards_field_moves_neither_digest_nor_cache_key() {
    let mut cfg = RunConfig::small_default();
    cfg.warmup = 200;
    cfg.measure = 600;
    cfg.load = 1.0;
    let sharded = RunConfig {
        shards: 8,
        ..cfg.clone()
    };
    assert_eq!(run(&sharded).digest(), run(&cfg).digest());
    assert_eq!(
        icn_server::config_key(&sharded),
        icn_server::config_key(&cfg)
    );
}

/// Incidents, checkpoints, job files and cache entries written while the
/// knobs existed hold whatever they were set to.
#[test]
fn stored_configs_with_retired_knob_values_still_parse() {
    let cfg = RunConfig::small_default();
    let mut stored = config_to_json(&cfg).to_string();
    for (constant, then) in [
        (r#""shards":1"#, r#""shards":8"#),
        (r#""fingerprint_skip":true"#, r#""fingerprint_skip":false"#),
        (r#""detection":"snapshot""#, r#""detection":"incremental""#),
    ] {
        assert!(stored.contains(constant), "{constant} is still written");
        stored = stored.replace(constant, then);
    }
    let back = config_from_json(&parse(&stored).unwrap()).unwrap();
    assert_eq!(back, cfg);
}
