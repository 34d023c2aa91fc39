//! `perfbench` — the repository's end-to-end + per-layer performance
//! ledger. See README.md in this directory for the metric definitions.
//!
//! ```text
//! perfbench [--seed N] [--seconds S]                   every workload, untraced then traced
//! perfbench --workload W --seed N --seconds S --trace 0|1   one workload in this process
//! perfbench --spread N [--seed N] [--seconds S] [--workload W]   N seeds per workload, spreads vs bounds
//! perfbench --compare A.json B.json                    two result files, one row per (metric, workload)
//! perfbench --ledger R.json                            "where a cycle / a campaign goes" as markdown
//! perfbench --pins R.json                              expected_digests.json for R's seed
//! perfbench --describe                                 BENCHMARK.json from the tables in spec.rs
//! ```

mod campaign;
mod host;
mod outcome;
mod pins;
mod report;
mod run;
mod spec;
mod stats;
mod trace;

use std::process::ExitCode;

use spec::{Kind, RUN_SECONDS};

/// Command-line options; every flag takes one value except `--compare`,
/// which takes two.
#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: Option<bool>,
    spread: Option<usize>,
    compare: Option<(String, String)>,
    ledger: Option<String>,
    pins: Option<String>,
    describe: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    let value = |flag: &str, it: &mut std::slice::Iter<'_, String>| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str, text: String| {
        text.parse::<u64>()
            .map_err(|_| format!("{flag} takes a whole number, not `{text}`"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(flag, &mut it)?),
            "--seed" => args.seed = Some(number(flag, value(flag, &mut it)?)?),
            "--seconds" => args.seconds = Some(number(flag, value(flag, &mut it)?)?),
            "--trace" => {
                args.trace = Some(match value(flag, &mut it)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--spread" => args.spread = Some(number(flag, value(flag, &mut it)?)? as usize),
            "--compare" => args.compare = Some((value(flag, &mut it)?, value(flag, &mut it)?)),
            "--ledger" => args.ledger = Some(value(flag, &mut it)?),
            "--pins" => args.pins = Some(value(flag, &mut it)?),
            "--describe" => args.describe = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(name) = &args.workload {
        if spec::workload(name).is_none() {
            let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload `{name}`; one of {known:?}"));
        }
    }
    Ok(args)
}

/// Runs one workload in this process and prints its metrics; the last
/// line of standard output is the driver's JSON object.
fn run_one(name: &str, seed: u64, seconds: u64, traced: bool) -> ExitCode {
    let workload = spec::workload(name).expect("validated by parse_args");
    let out = match (workload.kind, traced) {
        (Kind::Run, false) => run::measure(name, seed, seconds),
        (Kind::Run, true) => run::trace(name, seed, seconds),
        (kind, false) => campaign::measure(kind, seed, seconds),
        (kind, true) => campaign::trace(kind, name, seed, seconds),
    };
    report::print_outcome(name, seed, seconds, traced, &out);
    if let Err(e) = report::write_run_file(name, seed, seconds, traced, &out) {
        eprintln!("perfbench: writing the run file: {e}");
        return ExitCode::FAILURE;
    }
    println!("{}", out.result_line(traced));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let seed = args.seed.unwrap_or(1);
    let seconds = args.seconds.unwrap_or(RUN_SECONDS);
    let done = if args.describe {
        print!("{}", spec::benchmark_json());
        Ok(true)
    } else if let Some((a, b)) = &args.compare {
        report::compare(a, b)
    } else if let Some(path) = &args.ledger {
        report::ledger(path)
    } else if let Some(path) = &args.pins {
        report::pins(path)
    } else if let Some(n) = args.spread {
        report::spread(n, seed, seconds, args.workload.as_deref())
    } else if let Some(name) = &args.workload {
        return run_one(name, seed, seconds, args.trace.unwrap_or(false));
    } else {
        report::run_all(seed, seconds)
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
