//! The canonical JSON form of a [`RunConfig`].
//!
//! One codec serves every consumer that stores or ships a configuration:
//! forensic incidents (replayable from disk, seed included), sweep-grid
//! submissions to the campaign server, and the content-addressed result
//! cache, whose keys hash this exact text — so the bytes written here may
//! not move without an [`ENGINE_VERSION`](crate::ENGINE_VERSION) bump.

use icn_sim::SimConfig;
use icn_topology::NodeId;
use icn_traffic::{MsgLenDist, Pattern};

use super::{RecoveryPolicy, RoutingSpec, TopologySpec};
use crate::jsonio::{bad, get, get_bool, get_f64, get_str, get_u64, narrow, obj, Json, ParseError};
use crate::{ForensicsConfig, RunConfig};

pub(crate) fn recovery_name(p: RecoveryPolicy) -> &'static str {
    match p {
        RecoveryPolicy::None => "none",
        RecoveryPolicy::RemoveOldest => "remove-oldest",
        RecoveryPolicy::RemoveYoungest => "remove-youngest",
    }
}

pub(crate) fn recovery_from_name(s: &str) -> Result<RecoveryPolicy, ParseError> {
    Ok(match s {
        "none" => RecoveryPolicy::None,
        "remove-oldest" => RecoveryPolicy::RemoveOldest,
        "remove-youngest" => RecoveryPolicy::RemoveYoungest,
        other => return Err(bad(&format!("unknown recovery policy `{other}`"))),
    })
}

fn routing_to_json(r: RoutingSpec) -> Json {
    let kind = |s: &str| vec![("kind", Json::Str(s.to_string()))];
    match r {
        RoutingSpec::Dor => obj(kind("dor")),
        RoutingSpec::Tfar => obj(kind("tfar")),
        RoutingSpec::DatelineDor => obj(kind("dateline-dor")),
        RoutingSpec::Duato => obj(kind("duato")),
        RoutingSpec::WestFirst => obj(kind("west-first")),
        RoutingSpec::NegativeFirst => obj(kind("negative-first")),
        RoutingSpec::Misroute { budget } => obj(vec![
            ("kind", Json::Str("misroute".to_string())),
            ("budget", Json::U64(budget as u64)),
        ]),
    }
}

fn routing_from_json(v: &Json) -> Result<RoutingSpec, ParseError> {
    Ok(match get_str(v, "kind")? {
        "dor" => RoutingSpec::Dor,
        "tfar" => RoutingSpec::Tfar,
        "dateline-dor" => RoutingSpec::DatelineDor,
        "duato" => RoutingSpec::Duato,
        "west-first" => RoutingSpec::WestFirst,
        "negative-first" => RoutingSpec::NegativeFirst,
        "misroute" => RoutingSpec::Misroute {
            budget: narrow(get_u64(v, "budget")?, "budget")?,
        },
        other => return Err(bad(&format!("unknown routing `{other}`"))),
    })
}

fn pattern_to_json(p: &Pattern) -> Json {
    let kind = |s: &str| vec![("kind", Json::Str(s.to_string()))];
    match p {
        Pattern::Uniform => obj(kind("uniform")),
        Pattern::BitReversal => obj(kind("bit-reversal")),
        Pattern::Transpose => obj(kind("transpose")),
        Pattern::PerfectShuffle => obj(kind("perfect-shuffle")),
        Pattern::BitComplement => obj(kind("bit-complement")),
        Pattern::HotSpot { hot, fraction } => obj(vec![
            ("kind", Json::Str("hot-spot".to_string())),
            ("hot", Json::U64(hot.0 as u64)),
            ("fraction", Json::F64(*fraction)),
        ]),
    }
}

fn pattern_from_json(v: &Json) -> Result<Pattern, ParseError> {
    Ok(match get_str(v, "kind")? {
        "uniform" => Pattern::Uniform,
        "bit-reversal" => Pattern::BitReversal,
        "transpose" => Pattern::Transpose,
        "perfect-shuffle" => Pattern::PerfectShuffle,
        "bit-complement" => Pattern::BitComplement,
        "hot-spot" => Pattern::HotSpot {
            hot: NodeId(narrow(get_u64(v, "hot")?, "hot")?),
            fraction: get_f64(v, "fraction")?,
        },
        other => return Err(bad(&format!("unknown pattern `{other}`"))),
    })
}

fn len_dist_to_json(d: &MsgLenDist) -> Json {
    match *d {
        MsgLenDist::Fixed(len) => obj(vec![
            ("kind", Json::Str("fixed".to_string())),
            ("len", Json::U64(len as u64)),
        ]),
        MsgLenDist::Bimodal {
            short,
            long,
            long_frac,
        } => obj(vec![
            ("kind", Json::Str("bimodal".to_string())),
            ("short", Json::U64(short as u64)),
            ("long", Json::U64(long as u64)),
            ("long_frac", Json::F64(long_frac)),
        ]),
    }
}

fn len_dist_from_json(v: &Json) -> Result<MsgLenDist, ParseError> {
    Ok(match get_str(v, "kind")? {
        "fixed" => MsgLenDist::Fixed(get_u64(v, "len")? as usize),
        "bimodal" => MsgLenDist::Bimodal {
            short: get_u64(v, "short")? as usize,
            long: get_u64(v, "long")? as usize,
            long_frac: get_f64(v, "long_frac")?,
        },
        other => return Err(bad(&format!("unknown length distribution `{other}`"))),
    })
}

/// Serializes a full [`RunConfig`] — the canonical machine-readable
/// config form, used inside incidents, campaign-server job submissions,
/// and cache keys.
pub fn config_to_json(cfg: &RunConfig) -> Json {
    obj(vec![
        (
            "topology",
            obj(vec![
                ("k", Json::U64(cfg.topology.k as u64)),
                ("n", Json::U64(cfg.topology.n as u64)),
                ("torus", Json::Bool(cfg.topology.torus)),
                ("bidirectional", Json::Bool(cfg.topology.bidirectional)),
            ]),
        ),
        ("routing", routing_to_json(cfg.routing)),
        (
            "sim",
            obj(vec![
                ("vcs_per_channel", Json::U64(cfg.sim.vcs_per_channel as u64)),
                ("buffer_depth", Json::U64(cfg.sim.buffer_depth as u64)),
                ("msg_len", Json::U64(cfg.sim.msg_len as u64)),
            ]),
        ),
        ("pattern", pattern_to_json(&cfg.pattern)),
        ("len_dist", len_dist_to_json(&cfg.len_dist)),
        ("load", Json::F64(cfg.load)),
        ("warmup", Json::U64(cfg.warmup)),
        ("measure", Json::U64(cfg.measure)),
        ("detection_interval", Json::U64(cfg.detection_interval)),
        // Format legacy, like `transfer_threads` below: there is one
        // detector now, and the constant member keeps cache keys put.
        // `config_from_json` does not read it, whatever it holds.
        ("detection", Json::Str("snapshot".to_string())),
        (
            "count_cycles_every",
            match cfg.count_cycles_every {
                Some(n) => Json::U64(n),
                None => Json::Null,
            },
        ),
        ("cycle_cap", Json::U64(cfg.cycle_cap)),
        ("density_cap", Json::U64(cfg.density_cap)),
        // Format legacy, like `transfer_threads` below: the skip is
        // unconditional now, and the constant member keeps cache keys put.
        ("fingerprint_skip", Json::Bool(true)),
        (
            "recovery",
            Json::Str(recovery_name(cfg.recovery).to_string()),
        ),
        ("seed", Json::U64(cfg.seed)),
        (
            "forensics",
            match cfg.forensics {
                Some(f) => obj(vec![
                    ("max_incidents", Json::U64(f.max_incidents as u64)),
                    ("trace_capacity", Json::U64(f.trace_capacity as u64)),
                ]),
                None => Json::Null,
            },
        ),
        ("faults", crate::faults::plan_to_json(&cfg.faults)),
        // Format legacy: the knobs are gone, but the constant members keep
        // the canonical text — and with it every stored cache key —
        // byte-identical. `config_from_json` ignores them.
        ("transfer_threads", Json::U64(1)),
        ("shards", Json::U64(1)),
        (
            "stall_threshold",
            match cfg.stall_threshold {
                Some(t) => Json::U64(t),
                None => Json::Null,
            },
        ),
    ])
}

/// Rebuilds a [`RunConfig`] from [`config_to_json`] output. Every member
/// is range-checked and the whole configuration must pass
/// [`RunConfig::check`]: the text may come from an untrusted submission,
/// and a config the runner would panic on, or whose network could not be
/// allocated, is refused here.
pub fn config_from_json(v: &Json) -> Result<RunConfig, ParseError> {
    let topo = get(v, "topology")?;
    let sim = get(v, "sim")?;
    let density_cap = get_u64(v, "density_cap")?;
    if density_cap < 2 {
        return Err(bad(
            "`density_cap` must be at least 2: a smaller cap stops at the first \
             cycle, so every knot would be classified multi-cycle",
        ));
    }
    let count_cycles_every = match get(v, "count_cycles_every")? {
        Json::Null => None,
        j => Some(
            j.as_u64()
                .ok_or_else(|| bad("`count_cycles_every` must be null or u64"))?,
        ),
    };
    let forensics = match get(v, "forensics")? {
        Json::Null => None,
        j => Some(ForensicsConfig {
            max_incidents: get_u64(j, "max_incidents")? as usize,
            trace_capacity: get_u64(j, "trace_capacity")? as usize,
        }),
    };
    let topology = TopologySpec {
        k: narrow(get_u64(topo, "k")?, "k")?,
        n: get_u64(topo, "n")? as usize,
        torus: get_bool(topo, "torus")?,
        bidirectional: get_bool(topo, "bidirectional")?,
    };
    let sim = SimConfig {
        vcs_per_channel: get_u64(sim, "vcs_per_channel")? as usize,
        buffer_depth: get_u64(sim, "buffer_depth")? as usize,
        msg_len: get_u64(sim, "msg_len")? as usize,
    };
    let cfg = RunConfig {
        topology,
        routing: routing_from_json(get(v, "routing")?)?,
        sim,
        pattern: pattern_from_json(get(v, "pattern")?)?,
        len_dist: len_dist_from_json(get(v, "len_dist")?)?,
        load: get_f64(v, "load")?,
        warmup: get_u64(v, "warmup")?,
        measure: get_u64(v, "measure")?,
        detection_interval: get_u64(v, "detection_interval")?,
        count_cycles_every,
        cycle_cap: get_u64(v, "cycle_cap")?,
        density_cap,
        recovery: recovery_from_name(get_str(v, "recovery")?)?,
        seed: get_u64(v, "seed")?,
        forensics,
        faults: crate::faults::plan_from_json(get(v, "faults")?)?,
        shards: 1,
        stall_threshold: match get(v, "stall_threshold")? {
            Json::Null => None,
            j => Some(
                j.as_u64()
                    .ok_or_else(|| bad("`stall_threshold` must be null or u64"))?,
            ),
        },
    };
    cfg.check().map_err(|e| bad(&e))?;
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonio::parse;
    use icn_topology::MAX_DIMS;

    #[test]
    fn config_round_trips_exactly() {
        let mut cfg = RunConfig::small_default();
        cfg.topology = TopologySpec::torus(8, 2, false);
        cfg.routing = RoutingSpec::Misroute { budget: 3 };
        cfg.pattern = Pattern::HotSpot {
            hot: NodeId(5),
            fraction: 0.15,
        };
        cfg.len_dist = MsgLenDist::Bimodal {
            short: 4,
            long: 32,
            long_frac: 0.33,
        };
        cfg.load = 0.87;
        cfg.count_cycles_every = Some(7);
        cfg.forensics = Some(ForensicsConfig::default());
        cfg.faults.link_outage(2, 50, 90).node_stall(120, 9, 40);
        cfg.stall_threshold = Some(500);
        let text = config_to_json(&cfg).to_string();
        let back = config_from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(cfg, back);
    }

    /// Stored incidents, checkpoints and cache entries outlive the
    /// `transfer_threads` knob: a config written when it existed (PR-6
    /// era: no `detection`, no `shards`) must still parse, whatever the
    /// member holds, and so must one from before it.
    #[test]
    fn stored_configs_with_or_without_transfer_threads_still_parse() {
        let stored = |legacy: &str| {
            format!(
                r#"{{"topology":{{"k":8,"n":2,"torus":true,"bidirectional":true}},"routing":{{"kind":"dor"}},"sim":{{"vcs_per_channel":1,"buffer_depth":2,"msg_len":32}},"pattern":{{"kind":"uniform"}},"len_dist":{{"kind":"fixed","len":32}},"load":0.5,"warmup":1000,"measure":4000,"detection_interval":50,"count_cycles_every":null,"cycle_cap":150000,"density_cap":2000,"fingerprint_skip":true,"recovery":"remove-oldest","seed":1554098974,"forensics":null,"faults":{{"events":[]}},{legacy}"stall_threshold":null}}"#
            )
        };
        for legacy in [
            r#""transfer_threads":4,"#,
            r#""transfer_threads":"auto","#,
            "",
        ] {
            let cfg = config_from_json(&parse(&stored(legacy)).unwrap()).unwrap();
            assert_eq!(cfg, RunConfig::small_default(), "legacy member {legacy:?}");
        }
        // What is written today still carries the constant member, so the
        // canonical text behind every cache key is unchanged.
        let text = config_to_json(&RunConfig::small_default()).to_string();
        assert!(text.contains(r#""transfer_threads":1,"shards":1,"#));
    }

    /// `detection` named one of two detectors; there is one now. Whatever
    /// a stored or POSTed config says there is read past, and what is
    /// written stays the old default so cache keys do not move.
    #[test]
    fn every_spelling_of_the_retired_detection_member_parses() {
        let cfg = RunConfig::small_default();
        let written = config_to_json(&cfg).to_string();
        let constant = r#""detection":"snapshot","#;
        assert!(written.contains(constant), "{written}");
        for spelling in [
            constant,
            r#""detection":"incremental","#,
            r#""detection":"per-cycle","#,
            "",
        ] {
            let stored = written.replace(constant, spelling);
            let back = config_from_json(&parse(&stored).unwrap()).unwrap();
            assert_eq!(back, cfg, "spelling {spelling:?}");
        }
    }

    #[test]
    fn density_cap_below_two_is_rejected() {
        // The field arrives over HTTP; a cap of 0 or 1 cannot distinguish
        // single- from multi-cycle knots, so no such config is ever built.
        let mut cfg = RunConfig::small_default();
        for cap in [0, 1] {
            cfg.density_cap = cap;
            let err = config_from_json(&config_to_json(&cfg)).unwrap_err();
            assert!(err.to_string().contains("density_cap"), "{err}");
        }
        cfg.density_cap = 2;
        assert_eq!(config_from_json(&config_to_json(&cfg)).unwrap(), cfg);
    }

    /// Every member narrower than the `u64` it travels as: a value that
    /// does not fit is refused by name, never wrapped (`"k":65552` used to
    /// simulate — and cache — a 16-ary network).
    #[test]
    fn out_of_range_members_are_rejected_not_truncated() {
        let mut cfg = RunConfig::small_default();
        cfg.routing = RoutingSpec::Misroute { budget: 3 };
        cfg.pattern = Pattern::HotSpot {
            hot: NodeId(5),
            fraction: 0.15,
        };
        cfg.faults.link_outage(2, 50, 90).node_stall(120, 9, 40);
        let text = config_to_json(&cfg).to_string();
        for (valid, wrapping, key) in [
            (r#""k":8"#, r#""k":65544"#, "k"),
            (r#""budget":3"#, r#""budget":259"#, "budget"),
            (r#""hot":5"#, r#""hot":4294967301"#, "hot"),
            (r#""channel":2"#, r#""channel":4294967298"#, "channel"),
            (r#""node":9"#, r#""node":4294967305"#, "node"),
        ] {
            assert!(text.contains(valid), "{valid} in {text}");
            let forged = text.replacen(valid, wrapping, 1);
            let err = config_from_json(&parse(&forged).unwrap()).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains(&format!("`{key}` is out of range")), "{msg}");
        }
        assert_eq!(config_from_json(&parse(&text).unwrap()).unwrap(), cfg);
    }

    /// A network `KAryNCube::build` would assert on, or one too large to
    /// allocate, is refused when the config is read: a 600-byte submission
    /// of a 65535-ary 2-cube used to abort the server on allocation, and
    /// every restart on the same data dir after it. So is every config
    /// the runner would assert on (`RunConfig::check`).
    #[test]
    fn networks_that_cannot_be_built_are_refused() {
        let refused = |edit: &dyn Fn(&mut RunConfig)| {
            let mut cfg = RunConfig::small_default();
            edit(&mut cfg);
            config_from_json(&config_to_json(&cfg))
                .unwrap_err()
                .to_string()
        };
        let msg = refused(&|c| c.topology.k = 65535);
        assert!(msg.contains("more than 1048576 virtual channels"), "{msg}");
        // VCs per channel multiply into the bound: this torus fits at one
        // VC per channel and not at 16.
        let mut wide = RunConfig::small_default();
        wide.topology = TopologySpec::torus(256, 2, true);
        wide.sim.vcs_per_channel = 1;
        assert_eq!(config_from_json(&config_to_json(&wide)).unwrap(), wide);
        let msg = refused(&|c| {
            c.topology = TopologySpec::torus(256, 2, true);
            c.sim.vcs_per_channel = 16;
        });
        assert!(msg.contains("virtual channels"), "{msg}");
        let msg = refused(&|c| c.sim.vcs_per_channel = 1 << 20);
        assert!(msg.contains("vcs_per_channel must be"), "{msg}");
        assert!(refused(&|c| c.topology.k = 1).contains("`k` must be at least 2"));
        for n in [0, MAX_DIMS + 1] {
            assert!(refused(&|c| c.topology.n = n).contains("`n` must be in 1..=8"));
        }
        let msg = refused(&|c| {
            c.topology = TopologySpec {
                bidirectional: false,
                ..TopologySpec::mesh(8, 2)
            }
        });
        assert!(msg.contains("unidirectional mesh"), "{msg}");
        // k^n overflows u64: refused, not wrapped.
        let msg = refused(&|c| c.topology = TopologySpec::torus(65535, MAX_DIMS, true));
        assert!(msg.contains("virtual channels"), "{msg}");
        // Zero VCs would size any network at zero virtual channels: the
        // VC rule is checked first, so this 4.29e9-node torus is refused
        // before anything is sized or built.
        let msg = refused(&|c| {
            c.sim.vcs_per_channel = 0;
            c.topology = TopologySpec::torus(65535, 2, true);
        });
        assert!(msg.contains("vcs_per_channel must be"), "{msg}");

        // Configs the runner would assert on are refused with its message.
        let refuses = |edit: &dyn Fn(&mut RunConfig), want: &str| {
            let msg = refused(edit);
            assert!(msg.contains(want), "{want:?} in {msg}");
        };
        refuses(
            &|c| {
                c.routing = RoutingSpec::DatelineDor;
                c.sim.vcs_per_channel = 1;
            },
            "requires at least 2 VCs",
        );
        refuses(&|c| c.sim.vcs_per_channel = 0, "vcs_per_channel must be");
        refuses(&|c| c.sim.vcs_per_channel = 17, "vcs_per_channel must be");
        refuses(
            &|c| {
                c.topology = TopologySpec::torus(6, 2, true);
                c.pattern = Pattern::BitReversal;
            },
            "requires a power-of-two node count",
        );
        refuses(
            &|c| {
                c.faults.link_kill(10, 1_000_000);
            },
            "fault plan names channel 1000000",
        );
        refuses(&|c| c.load = -0.5, "load must be non-negative");
        refuses(
            &|c| c.sim.buffer_depth = 0,
            "buffers hold at least one flit",
        );

        // The largest network any caller builds is well inside the bound.
        let mut large = RunConfig::small_default();
        large.topology = TopologySpec::torus(16, 3, true);
        large.sim.vcs_per_channel = 2;
        assert_eq!(config_from_json(&config_to_json(&large)).unwrap(), large);
    }

    #[test]
    fn seeds_survive_the_full_u64_range() {
        let mut cfg = RunConfig::small_default();
        cfg.seed = u64::MAX;
        let back = config_from_json(&config_to_json(&cfg)).unwrap();
        assert_eq!(back.seed, u64::MAX);
    }
}
