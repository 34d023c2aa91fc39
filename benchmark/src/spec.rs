//! The benchmark's fixed tables: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` at the repository root lists the
//! same names; `tests::benchmark_json_matches_tables` keeps them equal.

/// How long one measured run lasts when the caller does not say
/// (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 12;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Back-to-back `flexsim::run_with` calls on one configuration.
    Run,
    /// Direct `sweep_supervised` interleaved with a served campaign on a
    /// fresh server and data directory.
    CampaignCold,
    /// One warm server answering resubmissions from its result cache.
    CampaignCached,
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// One line: why the workload exists (also in `BENCHMARK.json`).
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 8] = [
    Workload {
        name: "flow_low",
        kind: Kind::Run,
        why: "16-ary 2-cube TFAR 2 VCs at load 0.2, where most points of every paper sweep sit: sim and traffic do the work, the detector idles",
    },
    Workload {
        name: "flow_sat",
        kind: Kind::Run,
        why: "same network at load 1.0: 70% blocked, VC contention dominates sim and cwg analyses a large knot-free wait graph every epoch",
    },
    Workload {
        name: "knot_storm",
        kind: Kind::Run,
        why: "TFAR with 1 VC past the Fig. 6 knee: 99% blocked, big multi-cycle knots, so cwg analysis and recovery do the work and sim is parked",
    },
    Workload {
        name: "ring_wedge",
        kind: Kind::Run,
        why: "unidirectional 16-ary 2-cube DOR 1 VC (Fig. 5): thousands of tiny single-cycle knots, a victim drained nearly every epoch",
    },
    Workload {
        name: "sat_faulted",
        kind: Kind::Run,
        why: "flow_sat plus a seeded fault plan: the same engine through its two-pass fault walk and fault_mode branches",
    },
    Workload {
        name: "flow_large",
        kind: Kind::Run,
        why: "16-ary 3-cube (4096 nodes) at load 0.5: working set 16x larger, Network::new is visible set-up, the only size where sharding can pay",
    },
    Workload {
        name: "campaign_cold",
        kind: Kind::CampaignCold,
        why: "short 8-ary configs through a fresh campaign server: checkpoint fsync, cache store, leases and HTTP are at least half the wall",
    },
    Workload {
        name: "campaign_cached",
        kind: Kind::CampaignCached,
        why: "the same grid resubmitted to a warm server: zero simulations, only HTTP, grid parse, cache lookup and checkpoint append",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
}

/// Every workload reports every one of these (the driver's contract), so
/// each is defined for run and campaign workloads alike; README.md gives
/// the definitions.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "sim_cycles_per_ref_s",
        unit: "1/ref_s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The prediction written down before any optimisation exists: which
    /// end-to-end metric on which workload this number should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 57] = [
    layer("topology.build_ns", "ns", Lower, "setup_s @ flow_large"),
    layer("routing.candidates_ns", "ns", Lower, "sim_cycles_per_ref_s @ flow_low, flow_sat, flow_large"),
    layer("routing.candidates_per_call", "count", Lower, "work count for routing.candidates_ns"),
    layer("traffic.gen_ns_per_cycle", "ns", Lower, "sim_cycles_per_ref_s @ flow_low, flow_large"),
    layer("traffic.msgs_per_cycle", "count", Higher, "exact; work count for traffic.gen_ns_per_cycle"),
    layer("sim.new_ns", "ns", Lower, "setup_s @ flow_large"),
    layer("sim.step_ns_per_cycle", "ns", Lower, "sim_cycles_per_ref_s @ flow_low, flow_sat, sat_faulted, flow_large; not knot_storm"),
    layer("sim.ns_per_flit_hop", "ns", Lower, "same as sim.step_ns_per_cycle (host time per simulated event)"),
    layer("sim.link_flits_per_cycle", "count", Higher, "exact; any change means semantics changed"),
    layer("sim.blocked_mean", "count", Lower, "exact; any change means semantics changed"),
    layer("sim.in_network_mean", "count", Higher, "exact; any change means semantics changed"),
    layer("sim.snapshot_ns", "ns", Lower, "sim_cycles_per_ref_s @ flow_sat, knot_storm"),
    layer("sim.armed_plan_ratio", "ratio", Higher, "sim_cycles_per_ref_s @ sat_faulted (the price of the fault fork; flow_sat only)"),
    layer("sim.shard_speedup", "ratio", Higher, "nothing today; future sim_cycles_per_ref_s @ flow_large (0 when effective shards is 1)"),
    layer("sim.effective_shards", "count", Higher, "provenance of sim.shard_speedup (flow_large only)"),
    layer("cwg.rebuild_ns", "ns", Lower, "sim_cycles_per_ref_s @ flow_sat, knot_storm, ring_wedge"),
    layer("cwg.analyze_ns", "ns", Lower, "sim_cycles_per_ref_s @ knot_storm (big knots), ring_wedge (many small)"),
    layer("cwg.knots_per_epoch", "count", Lower, "exact"),
    layer("cwg.deadlock_set_mean", "count", Lower, "exact"),
    layer("cwg.dynamic_commit_ns_per_event", "ns", Lower, "future sim_cycles_per_ref_s @ knot_storm, ring_wedge (evidence for one detector)"),
    layer("cwg.dynamic_has_knot_ns", "ns", Lower, "future sim_cycles_per_ref_s @ knot_storm, ring_wedge"),
    layer("cwg.dynamic_events_per_epoch", "count", Lower, "work count for cwg.dynamic_commit_ns_per_event"),
    layer("core.cycle_ns", "ns", Lower, "sim_cycles_per_ref_s @ all run workloads"),
    layer("core.detect_ns_per_epoch", "ns", Lower, "sim_cycles_per_ref_s @ knot_storm, ring_wedge, flow_sat"),
    layer("core.detect_share", "share", Lower, "sim_cycles_per_ref_s @ knot_storm, ring_wedge, flow_sat"),
    layer("core.recover_ns_per_epoch", "ns", Lower, "sim_cycles_per_ref_s @ ring_wedge, knot_storm"),
    layer("core.epochs", "count", Higher, "exact"),
    layer("core.epochs_skipped_share", "share", Higher, "useful-to-attempted ratio of the fingerprint fast path"),
    layer("core.trace_overhead_ratio", "ratio", Lower, "information: traced wall / untraced wall"),
    layer("core.top_span_coverage", "share", Higher, "information: core.cycle + core.detect spans / traced wall, must be >= 0.9"),
    layer("core.sweep_direct_s", "s", Lower, "denominator of server.service_tax_ratio"),
    layer("core.sweep_configs_per_s", "1/s", Higher, "denominator of server.service_tax_ratio"),
    layer("core.result_encode_ns", "ns", Lower, "sim_cycles_per_ref_s @ campaign_cached"),
    layer("core.result_decode_ns", "ns", Lower, "sim_cycles_per_ref_s @ campaign_cached"),
    layer("core.json_parse_ns_per_kb", "ns", Lower, "sim_cycles_per_ref_s @ campaign_cached"),
    layer("core.checkpoint_append_ns", "ns", Lower, "sim_cycles_per_ref_s @ campaign_cold, campaign_cached"),
    layer("core.checkpoint_scan_ns", "ns", Lower, "sim_cycles_per_ref_s @ campaign_cold, campaign_cached (scan_records over a 48-record checkpoint; each config re-reads the job's after winning its lease)"),
    layer("core.write_atomic_ns", "ns", Lower, "sim_cycles_per_ref_s @ campaign_cold"),
    layer("server.bind_ns", "ns", Lower, "setup_s @ campaign_cold, campaign_cached"),
    layer("server.http_roundtrip_ms", "ms", Lower, "server.request_ms_p50, sim_cycles_per_ref_s @ campaign_cached"),
    layer("server.submit_ms", "ms", Lower, "sim_cycles_per_ref_s @ campaign_cold, campaign_cached"),
    layer("server.first_result_ms", "ms", Lower, "sim_cycles_per_ref_s @ campaign_cold, campaign_cached"),
    layer("server.results_fetch_ms", "ms", Lower, "sim_cycles_per_ref_s @ campaign_cold, campaign_cached"),
    layer("server.grid_parse_ns", "ns", Lower, "sim_cycles_per_ref_s @ campaign_cached"),
    layer("server.config_key_ns", "ns", Lower, "sim_cycles_per_ref_s @ campaign_cached"),
    layer("server.cache_lookup_ns", "ns", Lower, "sim_cycles_per_ref_s @ campaign_cached"),
    layer("server.cache_store_ns", "ns", Lower, "sim_cycles_per_ref_s @ campaign_cold"),
    layer("server.lease_cycle_ns", "ns", Lower, "sim_cycles_per_ref_s @ campaign_cold, campaign_cached"),
    layer("server.sims_run", "count", Lower, "exact: configs per cold round, 0 per cached round"),
    layer("server.cache_hits", "count", Higher, "exact: 0 per cold round, configs per cached round"),
    layer("server.submit_to_done_s", "s", Lower, "sim_cycles_per_ref_s @ campaign_cold, campaign_cached (its reciprocal)"),
    layer("server.configs_per_s", "1/s", Higher, "sim_cycles_per_ref_s @ campaign_cold, campaign_cached"),
    layer("server.service_tax_ratio", "ratio", Lower, "sim_cycles_per_ref_s @ campaign_cold (served / direct, same process)"),
    layer("server.request_ms_p50", "ms", Lower, "sim_cycles_per_ref_s @ campaign_cached (every poll is a request)"),
    layer("server.request_ms_p90", "ms", Lower, "sim_cycles_per_ref_s @ campaign_cached"),
    layer("host.ref_kernel_ns", "ns", Lower, "nothing: speed of the host on a fixed reference loop, to read every ns above against"),
    layer("host.wall_cycles_per_s", "1/s", Higher, "sim_cycles_per_ref_s on the same workload (simulated cycles per plain wall second, median, uncalibrated)"),
];

/// `BENCHMARK.json` as the driver's contract wants it, rendered from the
/// tables above (one entry per line, so diffs stay readable).
pub fn benchmark_json() -> String {
    use flexsim::jsonio::Json;
    let q = |s: &str| Json::Str(s.to_string()).to_string();
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", q(w.name), q(w.why)))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                q(m.name),
                q(m.unit),
                q(m.better.name()),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                q(m.name),
                q(m.unit),
                q(m.better.name())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \
         \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsim::jsonio::{parse, Json};

    fn names(v: &Json, key: &str) -> Vec<(String, String, String)> {
        v.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_matches_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            text,
            benchmark_json(),
            "regenerate with `perfbench --describe`"
        );
        let v = parse(&text).expect("BENCHMARK.json parses");

        assert_eq!(
            v.get("run_seconds").and_then(Json::as_u64),
            Some(RUN_SECONDS)
        );
        let workloads: Vec<(String, String)> = v
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (s("name"), s("why"))
            })
            .collect();
        let want: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, want);

        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.name().to_string(),
                )
            })
            .collect();
        assert_eq!(names(&v, "end_to_end"), e2e);
        for (m, j) in END_TO_END
            .iter()
            .zip(v.get("end_to_end").and_then(Json::as_arr).unwrap())
        {
            assert_eq!(
                j.get("bound").and_then(Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }

        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.name().to_string(),
                )
            })
            .collect();
        assert_eq!(names(&v, "per_layer"), layers);
    }

    #[test]
    fn names_are_unique_and_within_contract_limits() {
        let mut all: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        all.extend(END_TO_END.iter().map(|m| m.name));
        all.extend(PER_LAYER.iter().map(|m| m.name));
        let mut seen = std::collections::HashSet::new();
        for n in &all {
            assert!(seen.insert(*n), "duplicate name {n}");
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }
}
