//! End-to-end reproduction smoke tests: run scaled-down versions of every
//! experiment in the paper's evaluation section, assert the robust
//! qualitative claims (the full-strength claims are checked at paper scale
//! by the `repro` binary; see EXPERIMENTS.md), and pin Figures 5–8 to
//! committed golden files.
//!
//! # Golden regeneration
//!
//! The figure goldens live in `tests/goldens/fig{5,6,7,8}.json`: one entry
//! per simulation point with the run's byte-exact digest and its key
//! metrics. Comparisons assert the digest exactly and every key metric
//! within a ±5% band, so any intentional engine/detector change must
//! regenerate them — deliberately, via
//!
//! ```text
//! REPRO_BLESS=1 cargo test --test experiments_small
//! ```
//!
//! and the resulting diff reviewed alongside the change that caused it.

use flexsim::experiments::{self, Experiment, Scale, ShapeCheck};
use flexsim::{config_from_json, config_to_json, sweep, RunConfig, RunResult};

mod golden {
    use flexsim::RunResult;
    use icn_cwg::jsonio::{obj, parse, Json};

    /// Relative tolerance band for key metrics.
    pub const REL_TOL: f64 = 0.05;
    /// Absolute floor so zero-valued goldens accept exact zeros only
    /// modulo rounding noise.
    pub const ABS_FLOOR: f64 = 1e-9;

    /// One simulation point's pinned outcome.
    #[derive(Clone, Debug)]
    pub struct Entry {
        pub label: String,
        pub digest: String,
        pub normalized_deadlocks: f64,
        pub accepted_load: f64,
        pub avg_latency: f64,
        pub deadlocks: u64,
        pub delivered: u64,
    }

    pub fn entry_of(r: &RunResult) -> Entry {
        Entry {
            label: r.label.clone(),
            digest: r.digest(),
            normalized_deadlocks: r.normalized_deadlocks(),
            accepted_load: r.accepted_load(),
            avg_latency: r.avg_latency(),
            deadlocks: r.deadlocks,
            delivered: r.delivered,
        }
    }

    pub fn to_json(id: &str, entries: &[Entry]) -> String {
        let rows: Vec<Json> = entries
            .iter()
            .map(|e| {
                obj(vec![
                    ("label", Json::Str(e.label.clone())),
                    ("digest", Json::Str(e.digest.clone())),
                    ("normalized_deadlocks", Json::F64(e.normalized_deadlocks)),
                    ("accepted_load", Json::F64(e.accepted_load)),
                    ("avg_latency", Json::F64(e.avg_latency)),
                    ("deadlocks", Json::U64(e.deadlocks)),
                    ("delivered", Json::U64(e.delivered)),
                ])
            })
            .collect();
        obj(vec![
            ("experiment", Json::Str(id.to_string())),
            ("entries", Json::Arr(rows)),
        ])
        .to_string()
    }

    pub fn from_json(text: &str) -> Vec<Entry> {
        let v = parse(text).expect("golden file must be valid JSON");
        let arr = v
            .get("entries")
            .and_then(Json::as_arr)
            .expect("golden file lacks `entries`");
        arr.iter()
            .map(|e| {
                let s = |k: &str| {
                    e.get(k)
                        .and_then(Json::as_str)
                        .unwrap_or_else(|| panic!("golden entry lacks `{k}`"))
                        .to_string()
                };
                let f = |k: &str| {
                    e.get(k)
                        .and_then(Json::as_f64)
                        .unwrap_or_else(|| panic!("golden entry lacks `{k}`"))
                };
                let u = |k: &str| {
                    e.get(k)
                        .and_then(Json::as_u64)
                        .unwrap_or_else(|| panic!("golden entry lacks `{k}`"))
                };
                Entry {
                    label: s("label"),
                    digest: s("digest"),
                    normalized_deadlocks: f("normalized_deadlocks"),
                    accepted_load: f("accepted_load"),
                    avg_latency: f("avg_latency"),
                    deadlocks: u("deadlocks"),
                    delivered: u("delivered"),
                }
            })
            .collect()
    }

    fn in_band(golden: f64, measured: f64) -> bool {
        (measured - golden).abs() <= ABS_FLOOR + REL_TOL * golden.abs()
    }

    /// Compares measured results against a golden; returns every failure.
    pub fn compare(golden: &[Entry], results: &[RunResult]) -> Vec<String> {
        let mut out = Vec::new();
        if golden.len() != results.len() {
            out.push(format!(
                "entry count: golden {} vs measured {}",
                golden.len(),
                results.len()
            ));
            return out;
        }
        for (g, r) in golden.iter().zip(results) {
            let m = entry_of(r);
            if g.label != m.label {
                out.push(format!(
                    "label: golden `{}` vs measured `{}`",
                    g.label, m.label
                ));
                continue;
            }
            if g.digest != m.digest {
                out.push(format!("{}: digest drifted", g.label));
            }
            for (name, gv, mv) in [
                (
                    "normalized_deadlocks",
                    g.normalized_deadlocks,
                    m.normalized_deadlocks,
                ),
                ("accepted_load", g.accepted_load, m.accepted_load),
                ("avg_latency", g.avg_latency, m.avg_latency),
                ("deadlocks", g.deadlocks as f64, m.deadlocks as f64),
                ("delivered", g.delivered as f64, m.delivered as f64),
            ] {
                if !in_band(gv, mv) {
                    out.push(format!(
                        "{}: {name} out of band: golden {gv} measured {mv}",
                        g.label
                    ));
                }
            }
        }
        out
    }

    /// Asserts `results` against `tests/goldens/<id>.json`, or rewrites
    /// that file when `REPRO_BLESS` is set.
    pub fn check_or_bless(id: &str, results: &[RunResult]) {
        let path = format!("{}/tests/goldens/{id}.json", env!("CARGO_MANIFEST_DIR"));
        let entries: Vec<Entry> = results.iter().map(entry_of).collect();
        if std::env::var_os("REPRO_BLESS").is_some() {
            std::fs::create_dir_all(format!("{}/tests/goldens", env!("CARGO_MANIFEST_DIR")))
                .expect("create goldens dir");
            std::fs::write(&path, to_json(id, &entries)).expect("write golden");
            eprintln!("blessed {path}");
            return;
        }
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("cannot read golden `{path}` ({e}); run REPRO_BLESS=1 to create it")
        });
        let failures = compare(&from_json(&text), results);
        assert!(
            failures.is_empty(),
            "golden `{id}` mismatch (REPRO_BLESS=1 regenerates after intended changes):\n  {}",
            failures.join("\n  ")
        );
    }
}

/// Shrinks an experiment so the whole suite stays test-suite fast:
/// shorter windows and a subsampled load sweep.
fn shrink(mut exp: Experiment, loads: &[f64]) -> Experiment {
    exp.configs
        .retain(|c| loads.iter().any(|&l| (c.load - l).abs() < 1e-9));
    for c in &mut exp.configs {
        c.warmup = 500;
        c.measure = 2_500;
    }
    exp
}

fn run_exp(exp: &Experiment) -> Vec<RunResult> {
    sweep(&exp.configs)
}

fn assert_checks(exp: &Experiment, results: &[RunResult], claims: &[&str]) {
    let checks: Vec<ShapeCheck> = exp.shape_checks(results);
    for claim in claims {
        let c = checks
            .iter()
            .find(|c| c.claim.contains(claim))
            .unwrap_or_else(|| panic!("no such check: {claim}"));
        assert!(c.pass, "claim failed: {} ({})", c.claim, c.detail);
    }
}

#[test]
fn fig5_directionality() {
    let exp = shrink(experiments::fig5(Scale::Small), &[0.4, 0.8, 1.2]);
    let results = run_exp(&exp);
    assert_checks(
        &exp,
        &results,
        &[
            "uni-torus has more normalized deadlocks",
            "DOR deadlocks are all single-cycle",
        ],
    );
    // Deadlocks actually occur in both networks at these loads.
    assert!(results.iter().all(|r| r.delivered > 0));
    assert!(results.iter().any(|r| r.deadlocks > 0));
    golden::check_or_bless("fig5", &results);
}

#[test]
fn fig6_adaptivity() {
    let exp = shrink(experiments::fig6(Scale::Small), &[0.2, 0.8, 1.2]);
    let results = run_exp(&exp);
    assert_checks(
        &exp,
        &results,
        &[
            "DOR suffers more actual deadlocks than TFAR",
            "TFAR deadlock sets are larger",
            "TFAR resource sets are larger",
        ],
    );
    // TFAR produces multi-cycle deadlocks; DOR cannot.
    let dor_multi: u64 = exp
        .configs
        .iter()
        .zip(&results)
        .filter(|(c, _)| c.routing == flexsim::RoutingSpec::Dor)
        .map(|(_, r)| r.multi_cycle_deadlocks)
        .sum();
    assert_eq!(dor_multi, 0);
    golden::check_or_bless("fig6", &results);
}

#[test]
fn fig7_virtual_channels() {
    let exp = shrink(experiments::fig7(Scale::Small), &[0.4, 1.0]);
    let results = run_exp(&exp);
    assert_checks(
        &exp,
        &results,
        &[
            "3+ VCs make DOR deadlock highly improbable",
            "2+ VCs make TFAR deadlock highly improbable",
            "TFAR1 and DOR1 both deadlock",
        ],
    );
    golden::check_or_bless("fig7", &results);
}

#[test]
fn fig8_buffer_depth() {
    let mut exp = experiments::fig8(Scale::Small);
    exp.configs
        .retain(|c| [2usize, 32].contains(&c.sim.buffer_depth));
    let exp = shrink(exp, &[0.2, 0.4, 1.0]);
    let results = run_exp(&exp);
    assert_checks(
        &exp,
        &results,
        &[
            "deeper buffers raise the saturation",
            "per-in-network-message deadlock rate falls with depth",
        ],
    );
    golden::check_or_bless("fig8", &results);
}

/// The golden comparison itself must catch drift: a digest change or an
/// out-of-band key metric fails, an in-band wiggle passes.
#[test]
fn golden_comparison_detects_tampering() {
    let mut cfg = RunConfig::small_default();
    cfg.warmup = 50;
    cfg.measure = 200;
    cfg.load = 0.3;
    let r = flexsim::run(&cfg);
    let results = vec![r];
    let pristine: Vec<golden::Entry> = results.iter().map(golden::entry_of).collect();
    assert!(golden::compare(&pristine, &results).is_empty());

    // Round trip through the JSON form stays clean.
    let round = golden::from_json(&golden::to_json("tamper", &pristine));
    assert!(golden::compare(&round, &results).is_empty());

    // An out-of-band metric drift fails.
    let mut bad = pristine.clone();
    bad[0].avg_latency *= 1.0 + 2.0 * golden::REL_TOL;
    assert!(golden::compare(&bad, &results)
        .iter()
        .any(|f| f.contains("avg_latency out of band")));

    // An in-band wiggle on one metric passes the band but the digest
    // pin still reports the exact-state change.
    let mut wiggle = pristine.clone();
    wiggle[0].accepted_load *= 1.0 + golden::REL_TOL / 2.0;
    let failures = golden::compare(&wiggle, &results);
    assert!(!failures.iter().any(|f| f.contains("out of band")));

    // A digest change alone is reported.
    let mut tampered = pristine.clone();
    tampered[0].digest.push('x');
    assert!(golden::compare(&tampered, &results)
        .iter()
        .any(|f| f.contains("digest drifted")));

    // Entry-count and label mismatches are structural failures.
    assert!(!golden::compare(&[], &results).is_empty());
    let mut relabeled = pristine;
    relabeled[0].label = "something else".to_string();
    assert!(!golden::compare(&relabeled, &results).is_empty());
}

#[test]
fn node_degree() {
    let exp = shrink(experiments::node_degree(Scale::Small), &[0.4, 0.8, 1.2]);
    let results = run_exp(&exp);
    assert_checks(&exp, &results, &["4-D torus suffers far fewer deadlocks"]);
}

#[test]
fn traffic_patterns_run_and_dor_exception_holds() {
    let mut exp = experiments::traffic_patterns(Scale::Small);
    for c in &mut exp.configs {
        c.warmup = 500;
        c.measure = 2_500;
    }
    exp.configs.retain(|c| c.load > 1.0);
    let results = run_exp(&exp);
    assert_checks(
        &exp,
        &results,
        &["DOR under transpose avoids the circular overlap"],
    );
    assert!(results.iter().all(|r| r.delivered > 0));
}

#[test]
fn repro_binary_configs_are_valid() {
    // Every configuration in every experiment passes the check a run
    // makes at cycle 0 (`RunConfig::check`), so a bad point fails here
    // rather than minutes into `repro all`.
    for scale in [Scale::Paper, Scale::Small] {
        for exp in experiments::all(scale) {
            for c in &exp.configs {
                if let Err(e) = c.check() {
                    panic!("{}: {}: {e}", exp.id, c.label());
                }
                assert!(!c.label().is_empty());
                assert!(c.load > 0.0);
            }
        }
    }
}

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The index at both scales — every id, in order, and every config's
/// canonical JSON (axes, seeds, windows) — hashes to a pinned value, so
/// no refactor of the builders can move a point unnoticed. An intended
/// change to the index updates the pin in the same commit.
#[test]
fn experiment_index_is_pinned() {
    const PIN: u64 = 0x748a_468e_d4b7_3641;
    let mut h = 0xcbf2_9ce4_8422_2325;
    for scale in [Scale::Paper, Scale::Small] {
        let index = experiments::all(scale);
        assert_eq!(index.len(), 11);
        let mut ids: Vec<&str> = index.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), index.len(), "experiment ids are unique");
        for exp in &index {
            h = fnv1a(h, exp.id.as_bytes());
            for c in &exp.configs {
                h = fnv1a(h, b"\n");
                h = fnv1a(h, config_to_json(c).to_string().as_bytes());
            }
            h = fnv1a(h, b"\n\n");
        }
    }
    assert_eq!(h, PIN, "the experiment index moved: {h:#018x}");
}

/// Every configuration the index runs is one the server would accept:
/// `config_from_json` bounds what a submission may ask for, and no bound
/// may refuse a config of the paper's own experiments.
#[test]
fn every_indexed_config_round_trips_through_the_bounded_codec() {
    for scale in [Scale::Paper, Scale::Small] {
        for exp in experiments::all(scale) {
            for c in &exp.configs {
                let back = config_from_json(&config_to_json(c))
                    .unwrap_or_else(|e| panic!("{} {}: {e}", exp.id, c.label()));
                assert_eq!(&back, c, "{} {}", exp.id, c.label());
            }
        }
    }
}

#[test]
fn small_and_paper_scales_share_structure() {
    for (s, p) in experiments::all(Scale::Small)
        .iter()
        .zip(experiments::all(Scale::Paper).iter())
    {
        assert_eq!(s.id, p.id);
        assert!(!s.configs.is_empty() && !p.configs.is_empty());
    }
    let _ = RunConfig::paper_default();
}
