//! Everything that reads or writes result files: the per-run file each
//! workload leaves in `out/`, the all-workload result with provenance,
//! and the `--spread`, `--compare`, `--ledger` and `--pins` tools.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use flexsim::jsonio::{obj, parse, Json};

use crate::host::{out_dir, provenance};
use crate::outcome::Outcome;
use crate::spec::{Better, Kind, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, spread as iqr_share};

type Res<T> = Result<T, String>;

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// A number for a table: whole above a thousand, three decimals above
/// one, five above a thousandth, exponent below (set-up times of the run
/// workloads are tens of microseconds).
fn show(v: f64) -> String {
    match v.abs() {
        0.0 => "0".to_string(),
        a if a >= 1000.0 => format!("{v:.0}"),
        a if a >= 1.0 => format!("{v:.3}"),
        a if a >= 0.001 => format!("{v:.5}"),
        _ => format!("{v:.3e}"),
    }
}

/// Prints every metric of one run by name with its unit.
pub fn print_outcome(name: &str, seed: u64, seconds: u64, traced: bool, out: &Outcome) {
    println!(
        "workload {name} seed {seed} seconds {seconds} trace {}",
        u8::from(traced)
    );
    for (metric, value) in &out.metrics {
        println!("  {metric:<34} {:>14} {}", show(*value), unit_of(metric));
    }
    println!(
        "  attempted {} failed {} fail_share {} digest_stable {}",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64,
        u8::from(out.correct())
    );
    for why in &out.failures {
        println!("  FAILED: {why}");
    }
}

fn run_file(name: &str, traced: bool) -> PathBuf {
    out_dir().join(format!("run_{name}_trace{}.json", u8::from(traced)))
}

/// Writes the run's full record (metrics, sample summaries, failures) to
/// `out/run_<workload>_trace<0|1>.json`.
pub fn write_run_file(
    name: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    out: &Outcome,
) -> std::io::Result<()> {
    let metrics = out
        .metrics
        .iter()
        .map(|(n, v)| {
            (
                *n,
                obj(vec![
                    ("value", Json::F64(*v)),
                    ("unit", Json::Str(unit_of(n).to_string())),
                ]),
            )
        })
        .collect();
    let record = obj(vec![
        ("workload", Json::Str(name.to_string())),
        ("seed", Json::U64(seed)),
        ("seconds", Json::U64(seconds)),
        ("trace", Json::Bool(traced)),
        ("correct", Json::Bool(out.correct())),
        ("attempted", Json::U64(out.attempted)),
        ("failed", Json::U64(out.failed)),
        (
            "failures",
            Json::Arr(out.failures.iter().cloned().map(Json::Str).collect()),
        ),
        ("metrics", obj(metrics)),
        (
            "details",
            obj(out.details.iter().map(|(k, v)| (*k, v.clone())).collect()),
        ),
    ]);
    std::fs::write(run_file(name, traced), record.to_string() + "\n")
}

/// Runs one workload in a child process (a re-exec of this binary, so
/// set-up time and peak memory are the workload's own), passes its output
/// through, and returns its run file.
fn run_child(name: &str, seed: u64, seconds: u64, traced: bool) -> Res<Json> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let _ = std::fs::remove_file(run_file(name, traced));
    let status = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .status()
        .map_err(|e| format!("starting {name}: {e}"))?;
    let text = std::fs::read_to_string(run_file(name, traced))
        .map_err(|e| format!("{name} (exit {status}) left no run file: {e}"))?;
    parse(&text).map_err(|e| format!("{name}: run file: {e}"))
}

fn metric(record: &Json, name: &str) -> Option<f64> {
    record.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn is_correct(record: &Json) -> bool {
    record.get("correct").and_then(Json::as_bool) == Some(true)
}

/// Every workload, untraced then traced, each in its own child process;
/// writes `out/result_seed<seed>.json`. `Ok(false)` if any check failed.
pub fn run_all(seed: u64, seconds: u64) -> Res<bool> {
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for w in &WORKLOADS {
        let untraced = run_child(w.name, seed, seconds, false)?;
        let traced = run_child(w.name, seed, seconds, true)?;
        all_correct &= is_correct(&untraced) && is_correct(&traced);
        workloads.push((
            w.name,
            obj(vec![("end_to_end", untraced), ("per_layer", traced)]),
        ));
    }
    let result = obj(vec![
        ("provenance", provenance(seed, seconds)),
        ("workloads", obj(workloads)),
    ]);
    let path = out_dir().join(format!("result_seed{seed}.json"));
    std::fs::write(&path, result.to_string() + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "\nresult written to {}; every check {}",
        path.display(),
        if all_correct {
            "passed"
        } else {
            "did NOT pass"
        }
    );
    Ok(all_correct)
}

/// The driver's acceptance check, reproducible by hand: `n` untraced runs
/// per workload on seeds `seed..seed+n`, then for each end-to-end metric
/// the inter-quartile distance as a share of the median, against its
/// bound and against a third of it (the margin to aim for).
pub fn spread(n: usize, seed: u64, seconds: u64, only: Option<&str>) -> Res<bool> {
    if n < 2 {
        return Err("--spread needs at least 2 runs".to_string());
    }
    let mut within = true;
    let mut table = String::new();
    for w in WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|o| o == w.name))
    {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for s in seed..seed + n as u64 {
            let record = run_child(w.name, s, seconds, false)?;
            within &= is_correct(&record);
            for (slot, m) in values.iter_mut().zip(&END_TO_END) {
                slot.push(
                    metric(&record, m.name)
                        .ok_or_else(|| format!("{} seed {s}: no {}", w.name, m.name))?,
                );
            }
        }
        for (vals, m) in values.iter().zip(&END_TO_END) {
            let share = iqr_share(vals);
            let verdict = if share <= m.bound / 3.0 {
                "steady"
            } else if share <= m.bound {
                "within bound"
            } else if m.name == "setup_s" {
                "wide (exempt)"
            } else {
                within = false;
                "TOO WIDE"
            };
            let _ = writeln!(
                table,
                "{:<16} {:<22} median {:>12} {:<7} spread {:.4} bound {:.2}  {verdict}",
                w.name,
                m.name,
                show(median(vals)),
                m.unit,
                share,
                m.bound
            );
        }
    }
    println!("\nspread over {n} seeds from {seed}, {seconds} s per run");
    print!("{table}");
    Ok(within)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Same,
    /// One side's own spread is wider than the bound and the two sides'
    /// inter-quartile ranges overlap: the runs cannot tell.
    Unresolved,
}

/// One side of a comparison: the reported value and, where the run took
/// repeated samples, their quartiles and median.
#[derive(Clone, Copy, Debug)]
pub struct Side {
    pub value: f64,
    pub quartiles: Option<(f64, f64, f64)>,
}

impl Side {
    fn spread(&self) -> f64 {
        self.quartiles.map_or(0.0, |(q1, med, q3)| {
            (q3 - q1) / med.abs().max(f64::MIN_POSITIVE)
        })
    }

    fn range(&self) -> (f64, f64) {
        self.quartiles
            .map_or((self.value, self.value), |(q1, _, q3)| (q1, q3))
    }
}

/// Judges `b` against the base `a` for a metric with the given direction
/// and regression bound.
pub fn verdict(better: Better, bound: f64, a: Side, b: Side) -> Verdict {
    let (a_lo, a_hi) = a.range();
    let (b_lo, b_hi) = b.range();
    let overlap = a_lo <= b_hi && b_lo <= a_hi;
    if overlap && (a.spread() > bound || b.spread() > bound) {
        return Verdict::Unresolved;
    }
    let gain = match better {
        Better::Higher => (b.value - a.value) / a.value,
        Better::Lower => (a.value - b.value) / a.value,
    };
    if gain < -bound {
        Verdict::Worse
    } else if gain > bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn load(path: &str) -> Res<Json> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The untraced record of `workload` in an all-workload result file.
fn untraced<'a>(result: &'a Json, workload: &str) -> Option<&'a Json> {
    result.get("workloads")?.get(workload)?.get("end_to_end")
}

fn traced<'a>(result: &'a Json, workload: &str) -> Option<&'a Json> {
    result.get("workloads")?.get(workload)?.get("per_layer")
}

fn side(record: &Json, name: &str) -> Option<Side> {
    let samples = match name {
        "sim_cycles_per_ref_s" => "passes_cycles_per_ref_s",
        "setup_s" => "setup_s_samples",
        _ => "",
    };
    let quartiles = record
        .get("details")
        .and_then(|d| d.get(samples))
        .and_then(|s| {
            Some((
                s.get("q1")?.as_f64()?,
                s.get("median")?.as_f64()?,
                s.get("q3")?.as_f64()?,
            ))
        });
    Some(Side {
        value: metric(record, name)?,
        quartiles,
    })
}

/// `--compare A.json B.json`: one row per (end-to-end metric, workload)
/// with both values, their samples' quartiles, the ratio B/A with its
/// base, and a verdict under the metric's bound. `Ok(false)` if any row is
/// worse.
pub fn compare(path_a: &str, path_b: &str) -> Res<bool> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!("base A = {path_a}\n     B = {path_b}\n");
    println!("| workload | metric | unit | A | A q1..q3 | B | B q1..q3 | B/A | bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let mut none_worse = true;
    let range = |s: &Side| {
        s.quartiles.map_or("-".to_string(), |(q1, _, q3)| {
            format!("{}..{}", show(q1), show(q3))
        })
    };
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let sides = untraced(&a, w.name)
                .and_then(|r| side(r, m.name))
                .zip(untraced(&b, w.name).and_then(|r| side(r, m.name)));
            let Some((sa, sb)) = sides else {
                println!(
                    "| {} | {} | {} | missing | | | | | | |",
                    w.name, m.name, m.unit
                );
                continue;
            };
            let v = verdict(m.better, m.bound, sa, sb);
            none_worse &= v != Verdict::Worse;
            println!(
                "| {} | {} | {} | {} | {} | {} | {} | {:.4} of {} | {:.2} | {} |",
                w.name,
                m.name,
                m.unit,
                show(sa.value),
                range(&sa),
                show(sb.value),
                range(&sb),
                sb.value / sa.value,
                show(sa.value),
                m.bound,
                match v {
                    Verdict::Better => "better",
                    Verdict::Worse => "worse",
                    Verdict::Same => "same",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(none_worse)
}

/// `--pins R.json`: the `expected_digests.json` content for the seed and
/// engine version of result file `R`.
pub fn pins(path: &str) -> Res<bool> {
    let result = load(path)?;
    let prov = result.get("provenance").ok_or("no provenance")?;
    let engine = prov
        .get("engine_version")
        .and_then(Json::as_str)
        .ok_or("no engine_version")?;
    let mut pins = vec![(
        "seed".to_string(),
        prov.get("seed").cloned().unwrap_or(Json::Null),
    )];
    let hash = |record: Option<&Json>| {
        record
            .and_then(|r| r.get("details")?.get("digest_fnv")?.as_str())
            .map(|h| Json::Str(h.to_string()))
    };
    for w in &WORKLOADS {
        pins.extend(hash(untraced(&result, w.name)).map(|h| (w.name.to_string(), h)));
        // A run workload's traced invocation pins its exact counts; a
        // campaign's hashes the same digest set as its untraced one.
        if w.kind == Kind::Run {
            pins.extend(hash(traced(&result, w.name)).map(|h| (format!("{}.trace", w.name), h)));
        }
    }
    let body = pins
        .iter()
        .map(|(k, v)| format!("    {}: {v}", Json::Str(k.clone())))
        .collect::<Vec<_>>()
        .join(",\n");
    println!(
        "{{\n  {}: {{\n{body}\n  }}\n}}",
        Json::Str(engine.to_string())
    );
    Ok(true)
}

fn md_row(out: &mut String, cells: &[String]) {
    let _ = writeln!(out, "| {} |", cells.join(" | "));
}

/// `--ledger R.json`: "where a cycle goes" and "where a campaign goes",
/// rendered from the traced pass of result file `R` as markdown.
pub fn ledger(path: &str) -> Res<bool> {
    let result = load(path)?;
    let mut md = String::new();
    let prov = result.get("provenance").cloned().unwrap_or(Json::Null);
    let text = |k: &str| {
        prov.get(k).map_or("unknown".to_string(), |v| {
            v.as_str().map_or(v.to_string(), str::to_string)
        })
    };
    let _ = writeln!(
        md,
        "# Performance ledger\n\nGenerated by `perfbench --ledger` from `{}`; do not edit by hand.\n\n\
         Commit `{}` (dirty: {}), {}, {} cores, engine `{}`, seed {}, {} s per run, data dir on {}.\n\n\
         Host times are from the traced pass and depend on the machine; `host.ref_kernel_ns` \
         beside each workload says how fast the host ran a fixed reference loop during that run. \
         Counts are exact and repeat bit for bit.\n",
        path.rsplit('/').next().unwrap_or(path),
        text("git_sha"),
        text("git_dirty"),
        text("rustc"),
        text("available_parallelism"),
        text("engine_version"),
        text("seed"),
        text("run_seconds"),
        text("data_dir_fs"),
    );

    let _ = writeln!(
        md,
        "## Where a cycle goes\n\nHost nanoseconds per simulated cycle, by layer, and each layer's share of the total. \
         `sim step` is the engine step plus the runner's per-cycle accounting; `snapshot`, `rebuild` and `analyse` are the \
         detector's three stages re-executed on the live state; `detect other` is what the runner's detection epoch took \
         beyond them (a negative value means the re-execution, running second on warm caches, undercut the runner's own).\n"
    );
    let parts = [
        ("traffic", "traffic"),
        ("sim_step", "sim step"),
        ("recover", "recover"),
        ("snapshot", "snapshot"),
        ("rebuild", "rebuild"),
        ("analyze", "analyse"),
        ("detect_other", "detect other"),
    ];
    let mut header = vec!["workload".to_string(), "ns/cycle".to_string()];
    header.extend(parts.iter().map(|(_, title)| title.to_string()));
    header.extend(
        [
            "detect share",
            "epochs skipped",
            "knots/epoch",
            "ref loop ns",
        ]
        .map(String::from),
    );
    md_row(&mut md, &header);
    md_row(&mut md, &vec!["---".to_string(); header.len()]);
    for w in WORKLOADS.iter().filter(|w| w.kind == Kind::Run) {
        let Some(record) = traced(&result, w.name) else {
            continue;
        };
        let goes = record
            .get("details")
            .and_then(|d| d.get("where_a_cycle_goes_ns"));
        let part = |k: &str| {
            goes.and_then(|g| g.get(k))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        let total = part("total");
        let mut row = vec![w.name.to_string(), format!("{total:.0}")];
        row.extend(
            parts
                .iter()
                .map(|(k, _)| format!("{:.0} ({:.1}%)", part(k), 100.0 * part(k) / total.max(1.0))),
        );
        let m = |name: &str| metric(record, name).unwrap_or(0.0);
        row.push(format!("{:.1}%", 100.0 * m("core.detect_share")));
        row.push(format!("{:.1}%", 100.0 * m("core.epochs_skipped_share")));
        row.push(format!("{:.3}", m("cwg.knots_per_epoch")));
        row.push(format!("{:.0}", m("host.ref_kernel_ns")));
        md_row(&mut md, &row);
    }

    let workers = prov
        .get("available_parallelism")
        .and_then(Json::as_f64)
        .unwrap_or(1.0);
    let _ = writeln!(
        md,
        "\n## Where a campaign goes\n\nMilliseconds per config. Worker-side layers run on {workers} workers in parallel, so a \
         layer costing `c` ms per config adds `c / {workers}` ms of wall per config. Two things are serial and add their \
         full time: the checkpoint append, which every worker does under the job-table lock, and the client's HTTP \
         steps (submit, the last poll, the results fetch, divided by the configs). `lease` is acquire + release (renew \
         is the heartbeat's). `share` is of the wall per config (`submit_to_done / configs`); `other` is what the parts \
         do not explain (queueing, lock waits, poll granularity).\n"
    );
    let header: Vec<String> = [
        "workload",
        "wall ms/config",
        "simulate",
        "checkpoint append",
        "checkpoint scan",
        "cache",
        "lease",
        "HTTP",
        "other",
        "sims/round",
        "hits/round",
        "service tax",
    ]
    .map(String::from)
    .to_vec();
    md_row(&mut md, &header);
    md_row(&mut md, &vec!["---".to_string(); header.len()]);
    for w in WORKLOADS.iter().filter(|w| w.kind != Kind::Run) {
        let Some(record) = traced(&result, w.name) else {
            continue;
        };
        let m = |name: &str| metric(record, name).unwrap_or(0.0);
        let configs = (m("server.configs_per_s") * m("server.submit_to_done_s")).max(1.0);
        let wall = m("server.submit_to_done_s") * 1e3 / configs;
        let cold = w.kind == Kind::CampaignCold;
        let simulate = if cold {
            m("core.sweep_direct_s") * 1e3 * workers / configs
        } else {
            0.0
        };
        let cache = if cold {
            m("server.cache_store_ns")
        } else {
            m("server.cache_lookup_ns")
        } / 1e6;
        let lease = record
            .get("details")
            .and_then(|d| d.get("lease_acquire_release_ns"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            / 1e6;
        let append = m("core.checkpoint_append_ns") / 1e6;
        let http =
            (m("server.submit_ms") + m("server.http_roundtrip_ms") + m("server.results_fetch_ms"))
                / configs;
        // (cost per config, its contribution to the wall per config)
        let columns = [
            (simulate, simulate / workers),
            (append, append),
            (
                m("core.checkpoint_scan_ns") / 1e6,
                m("core.checkpoint_scan_ns") / 1e6 / workers,
            ),
            (cache, cache / workers),
            (lease, lease / workers),
            (http, http),
        ];
        let explained: f64 = columns.iter().map(|c| c.1).sum();
        let cell = |cost: f64, wall_part: f64| {
            format!(
                "{cost:.3} ({:.1}%)",
                100.0 * wall_part / wall.max(f64::MIN_POSITIVE)
            )
        };
        let mut row = vec![w.name.to_string(), format!("{wall:.3}")];
        row.extend(columns.iter().map(|c| cell(c.0, c.1)));
        row.push(cell(wall - explained, wall - explained));
        row.push(format!("{:.0}", m("server.sims_run")));
        row.push(format!("{:.0}", m("server.cache_hits")));
        row.push(if cold {
            format!("{:.3}", m("server.service_tax_ratio"))
        } else {
            "-".to_string()
        });
        md_row(&mut md, &row);
    }

    let _ = writeln!(
        md,
        "\n## Every per-layer metric\n\n`-` marks a metric the workload does not exercise (its result line reports 0). \
         `should move` is the prediction fixed before any optimisation: on every workload not named there, no change.\n"
    );
    let mut header = vec!["metric".to_string(), "unit".to_string()];
    header.extend(WORKLOADS.iter().map(|w| w.name.to_string()));
    header.push("should move".to_string());
    md_row(&mut md, &header);
    md_row(&mut md, &vec!["---".to_string(); header.len()]);
    for layer in &PER_LAYER {
        let mut row = vec![format!("`{}`", layer.name), layer.unit.to_string()];
        row.extend(WORKLOADS.iter().map(|w| {
            traced(&result, w.name)
                .and_then(|r| metric(r, layer.name))
                .map_or("-".to_string(), show)
        }));
        row.push(layer.moves.to_string());
        md_row(&mut md, &row);
    }

    let _ = writeln!(md, "\n## End-to-end metrics of the same invocation\n");
    let mut header = vec!["metric".to_string(), "unit".to_string()];
    header.extend(WORKLOADS.iter().map(|w| w.name.to_string()));
    md_row(&mut md, &header);
    md_row(&mut md, &vec!["---".to_string(); header.len()]);
    for m in &END_TO_END {
        let mut row = vec![format!("`{}`", m.name), m.unit.to_string()];
        row.extend(WORKLOADS.iter().map(|w| {
            untraced(&result, w.name)
                .and_then(|r| metric(r, m.name))
                .map_or("-".to_string(), show)
        }));
        md_row(&mut md, &row);
    }
    print!("{md}");
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::quartiles;

    fn exact(value: f64) -> Side {
        Side {
            value,
            quartiles: None,
        }
    }

    fn sampled(value: f64, q1: f64, q3: f64) -> Side {
        Side {
            value,
            quartiles: Some((q1, (q1 + q3) / 2.0, q3)),
        }
    }

    #[test]
    fn verdict_respects_direction_and_bound() {
        use Better::{Higher, Lower};
        assert_eq!(
            verdict(Higher, 0.1, exact(100.0), exact(95.0)),
            Verdict::Same
        );
        assert_eq!(
            verdict(Higher, 0.1, exact(100.0), exact(89.0)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(Higher, 0.1, exact(100.0), exact(111.0)),
            Verdict::Better
        );
        assert_eq!(
            verdict(Lower, 0.1, exact(100.0), exact(111.0)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(Lower, 0.1, exact(100.0), exact(89.0)),
            Verdict::Better
        );
        assert_eq!(
            verdict(Lower, 0.25, exact(100.0), exact(120.0)),
            Verdict::Same
        );
    }

    #[test]
    fn wide_overlapping_runs_are_unresolved_not_same() {
        let a = sampled(100.0, 80.0, 120.0);
        let b = sampled(85.0, 75.0, 110.0);
        assert_eq!(verdict(Better::Higher, 0.1, a, b), Verdict::Unresolved);
        // Wide but disjoint: every sample of B reads below A's, so it resolves.
        let b = sampled(60.0, 50.0, 70.0);
        assert_eq!(verdict(Better::Higher, 0.1, a, b), Verdict::Worse);
        // Tight and overlapping: resolved as same.
        let a = sampled(100.0, 99.0, 101.0);
        let b = sampled(100.5, 99.5, 101.5);
        assert_eq!(verdict(Better::Higher, 0.1, a, b), Verdict::Same);
    }

    #[test]
    fn quartile_helper_feeds_the_spread() {
        let (q1, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let s = Side {
            value: 3.0,
            quartiles: Some((q1, 3.0, q3)),
        };
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }
}
