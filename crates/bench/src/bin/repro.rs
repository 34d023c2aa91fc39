//! Regenerates every table and figure of the paper's evaluation section.
//!
//! The command table ([`COMMANDS`]) is the one statement of what `repro`
//! accepts: each entry declares its flags, a flag a command did not
//! declare exits 2, and the usage text that error prints (try `repro
//! --help`) is generated from the same table.
//!
//! With no experiment named, runs `all`. `--small` switches to the
//! scaled-down configuration (8-ary 2-cube, short windows) used by the
//! integration tests; the default is the paper's setup (16-ary 2-cube,
//! 30,000 measured cycles — expect minutes of wall-clock). `--csv` also
//! emits machine-readable CSV after each table; `--json` writes
//! `repro_<id>.json` next to the working directory, one lossless record
//! per line in the format `GET /jobs/:id/results` streams
//! ([`flexsim::checkpoint_line`]; reload with [`flexsim::decode_result`]).
//!
//! `repro forensics` runs a known-deadlocking micro-configuration (a
//! unidirectional 8-ary 2-cube under DOR, one VC, full load) with
//! incident capture enabled, then — for every captured deadlock — prints
//! the per-member formation timeline, replays the run to verify the
//! identical knot re-forms, minimizes the scenario (knot-induced sub-CWG
//! plus shortest reproducing cycle-prefix), and persists JSON + DOT
//! artifacts to the incident store. Exits non-zero if any incident fails
//! to replay or minimize, which makes it a self-checking smoke command.
//!
//! `repro serve` starts the campaign server (see `icn-server`): an HTTP
//! job API over the supervised sweep engine with per-job checkpoints and a
//! content-addressed result cache (`repro forensics --store` keeps the
//! incident store; a job's incidents travel inside its results).
//! Any number of `repro serve` processes may share one `--data` dir —
//! they form a fleet arbitrated by per-config lease files, so a killed
//! member's work is reclaimed by the survivors. `--port-file` writes the
//! bound address (useful with an ephemeral `--addr ...:0`); `--lease-ms`
//! and `--scan-ms` tune the fleet's failure-detection latency. Ctrl-C
//! and `POST /shutdown` both take the graceful path — in-flight
//! configurations finish and checkpoint, queued ones resume on the next
//! start.
//!
//! `repro chaos` is the crash-tolerance harness: each iteration runs a
//! small grid on a two-process fleet sharing one data dir, SIGKILLs one
//! member mid-sweep (on odd iterations the replacement is started with a
//! rename-time crash injected into its durable cache writes, so it
//! aborts itself mid-sweep too), garbles the quiescent checkpoint tail
//! between lives, and asserts the survivors converge to results
//! digest-identical to a clean in-process `sweep_supervised` of the same
//! grid. Exits non-zero on the first divergence.
//!
//! `repro probe` runs one TFAR single-VC configuration through the
//! runner — the detector and recovery loop the experiments measure — and
//! prints the per-epoch network state (blocked, in-network, knots,
//! delivered): the check that detected knots correspond to genuinely
//! wedged networks.
//!
//! `repro validate` runs the validation layer: the production detector
//! is differentially checked against the independent naive oracle, the
//! brute-force enumerator and the naive cycle counter (cycle census, knot
//! density and their cap law) on randomized CWGs (`--cwgs`, default 512),
//! on every detection epoch of `--configs` (default 16) seeded random
//! live configurations (with full invariant auditing), on freshly
//! captured forensics incidents, on every incident in `--store DIR` (if
//! given), and — unless `--no-explore` — on every schedule of the
//! exhaustive small-world explorer. Any disagreement exits non-zero and
//! writes a minimized reproducer to `validate-divergence.json`.

use flexsim::experiments::{self, Scale};
use flexsim::forensics::{minimize, replay, timeline_table, IncidentStore};
use flexsim::report::Table;
use flexsim::sweep;
use flexsim::{
    run, run_with, EpochView, ForensicsConfig, RecoveryPolicy, RoutingSpec, RunConfig, RunObserver,
};
use icn_bench::{
    crash_storyline, direct_digests, knotting_config, scratch_dir, short_grid, Member,
};
use icn_metrics::Histogram;
use icn_server::{CampaignServer, ServerOptions};
use std::ops::ControlFlow;
use std::path::Path;
use std::str::FromStr;
use std::time::{Duration, Instant};

/// One row of the command table: its usage line and its entry point,
/// which returns the process exit code. The usage line *is* the
/// declaration — `[--name]` declares a switch, `[--name META]` a flag
/// with a value, the word after `repro` (if it is not bracketed) the
/// command's name, and any other bracketed word positional arguments —
/// so what `repro` accepts and what it prints as usage cannot drift.
type Command = (&'static str, fn(&Args) -> i32);

/// The experiment runner comes first: it is what `repro` does when no
/// other command is named.
const COMMANDS: &[Command] = &[
    (
        "repro [EXPERIMENT..|all] [--small] [--csv] [--json]",
        figures_main,
    ),
    (
        "repro forensics [--store DIR] [--seed N] [--max N] [--cycles N] [--no-prefix]",
        forensics_main,
    ),
    (
        "repro validate [--configs N] [--cwgs N] [--seed N] [--store DIR] [--no-explore]",
        validate_main,
    ),
    (
        "repro serve [--addr HOST:PORT] [--data DIR] [--workers N] [--port-file PATH] \
         [--lease-ms N] [--scan-ms N]",
        serve_main,
    ),
    ("repro chaos [--iterations N] [--workers N]", chaos_main),
    (
        "repro probe <depth> <load> <recover:0|1> [cycles]",
        probe_main,
    ),
];

/// The command name a usage line declares, if any.
fn command_name(usage: &str) -> Option<&str> {
    usage
        .split(' ')
        .nth(1)
        .filter(|w| !w.starts_with(['[', '<']))
}

/// The flags a usage line declares, with whether each takes a value.
fn declared_flags(usage: &'static str) -> impl Iterator<Item = (&'static str, bool)> {
    usage.split('[').filter_map(|part| {
        let mut words = part.trim_end().trim_end_matches(']').split(' ');
        let name = words.next().filter(|w| w.starts_with("--"))?;
        Some((name, words.next().is_some()))
    })
}

/// Every command's usage line.
fn usage() -> String {
    let lines: Vec<&str> = COMMANDS.iter().map(|(usage, _)| *usage).collect();
    format!("usage: {}", lines.join("\n       "))
}

/// Parses `v` or exits 2 with the uniform "wants" message.
fn parse_or_exit<T: FromStr>(what: &str, kind: &str, v: &str) -> T {
    v.parse().unwrap_or_else(|_| {
        eprintln!("{what} wants {kind}, got `{v}`");
        std::process::exit(2);
    })
}

/// One command's arguments, checked against its usage line.
struct Args {
    usage: &'static str,
    positional: Vec<String>,
    /// Flags as given, in order, with their value if they take one.
    given: Vec<(&'static str, Option<String>)>,
}

impl Args {
    fn parse(usage: &'static str, raw: &[String]) -> Result<Args, String> {
        let mut args = Args {
            usage,
            positional: Vec::new(),
            given: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                args.positional.push(arg.clone());
                continue;
            }
            let Some((name, takes_value)) = declared_flags(usage).find(|(name, _)| name == arg)
            else {
                return Err(format!("unknown flag `{arg}` for `{usage}`"));
            };
            let value = match takes_value {
                true => Some(it.next().ok_or(format!("{name} wants a value"))?.clone()),
                false => None,
            };
            args.given.push((name, value));
        }
        let takes_positionals = usage
            .split(' ')
            .any(|w| w.starts_with('<') || (w.starts_with('[') && !w.starts_with("[--")));
        match args.positional.first() {
            Some(stray) if !takes_positionals => {
                Err(format!("unexpected argument `{stray}` for `{usage}`"))
            }
            _ => Ok(args),
        }
    }

    fn lookup(&self, name: &str, takes_value: bool) -> Option<&(&'static str, Option<String>)> {
        debug_assert!(
            declared_flags(self.usage).any(|declared| declared == (name, takes_value)),
            "`{name}` is not declared by `{}`",
            self.usage
        );
        self.given.iter().find(|(n, _)| *n == name)
    }

    /// Whether the switch `name` was given.
    fn switch(&self, name: &str) -> bool {
        self.lookup(name, false).is_some()
    }

    /// The raw value of `--name VALUE`, if given.
    fn value(&self, name: &str) -> Option<&str> {
        self.lookup(name, true).and_then(|(_, v)| v.as_deref())
    }

    /// `--name VALUE` parsed as `T`, or `default` when absent. A value
    /// that does not parse exits 2.
    fn flag<T: FromStr>(&self, name: &str, default: T) -> T {
        self.value(name)
            .map_or(default, |v| parse_or_exit(name, "an integer", v))
    }
}

fn hist_row(name: &str, h: &Histogram) -> Vec<String> {
    vec![
        name.to_string(),
        h.count().to_string(),
        format!("{:.1}", h.mean()),
        h.quantile(0.5).to_string(),
        h.quantile(0.95).to_string(),
        h.max().to_string(),
    ]
}

/// The `repro forensics` subcommand. Returns the process exit code.
fn forensics_main(args: &Args) -> i32 {
    let store_dir = args.value("--store").unwrap_or("incidents");
    let with_prefix = !args.switch("--no-prefix");

    let mut cfg = knotting_config(args.flag("--cycles", 1_600));
    cfg.seed = args.flag("--seed", cfg.seed);
    cfg.forensics = Some(ForensicsConfig {
        max_incidents: args.flag("--max", 8),
        ..ForensicsConfig::default()
    });

    println!("== deadlock forensics ==");
    println!("   config: {}", cfg.label());
    let started = Instant::now();
    let res = run(&cfg);
    println!(
        "   {} deadlock epochs, {} incidents captured ({:.1?} elapsed)",
        res.deadlocks,
        res.forensic_incidents.len(),
        started.elapsed()
    );
    if res.forensic_incidents.is_empty() {
        eprintln!("no deadlock captured — nothing to analyze");
        return 1;
    }

    let store = match IncidentStore::open(store_dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot open incident store `{store_dir}`: {e}");
            return 1;
        }
    };

    let mut ok = true;
    for inc in &res.forensic_incidents {
        let sets = inc.deadlock_sets();
        println!(
            "\n-- incident #{} @ cycle {} --  knots={} members={} fingerprint={:#018x}",
            inc.seq,
            inc.cycle,
            sets.len(),
            inc.members().len(),
            inc.fingerprint
        );
        println!(
            "formation timeline (knot closed at cycle {}):",
            inc.closure_cycle()
        );
        println!("{}", timeline_table(inc).render());

        let rep = replay(inc);
        println!(
            "replay: fingerprint {} deadlock sets {}",
            if rep.fingerprint_match() {
                "MATCH"
            } else {
                "MISMATCH"
            },
            if rep.sets_match() {
                "MATCH"
            } else {
                "MISMATCH"
            },
        );
        ok &= rep.reproduced();

        let m = minimize(inc, with_prefix);
        println!(
            "minimize: CWG {} -> {} messages ({})",
            m.original_messages,
            m.kept_messages,
            if m.verified {
                "still knots identically"
            } else {
                "VERIFICATION FAILED"
            },
        );
        ok &= m.verified;
        if with_prefix {
            match m.shortest_prefix {
                Some(p) => println!(
                    "minimize: shortest reproducing prefix = {} cycles \
                     ({} probes, {} cycles shorter than detection)",
                    p.cycle, p.probes, p.saved_cycles
                ),
                None => {
                    println!("minimize: bisection failed to reproduce the knot");
                    ok = false;
                }
            }
        }

        match store.save(inc) {
            Ok((json_path, dot_path)) => {
                println!("wrote {} and {}", json_path.display(), dot_path.display());
            }
            Err(e) => {
                eprintln!("cannot persist incident #{}: {e}", inc.seq);
                ok = false;
            }
        }
    }

    let mut summary = Table::new(vec!["stat", "count", "mean", "p50", "p95", "max"]);
    summary.row(hist_row("formation latency", &res.formation_latency));
    summary.row(hist_row("formation spread", &res.formation_spread));
    println!("\nformation-time statistics (cycles):");
    println!("{}", summary.render());

    if !ok {
        eprintln!("some incidents failed replay or minimization");
        return 1;
    }
    0
}

/// Writes the minimized divergence reproducer and reports it.
fn emit_divergence(repro: &str) {
    const PATH: &str = "validate-divergence.json";
    match std::fs::write(PATH, repro) {
        Ok(()) => eprintln!("minimized reproducer written to {PATH}"),
        Err(e) => eprintln!("cannot write {PATH}: {e}"),
    }
}

/// The `repro validate` subcommand. Returns the process exit code.
fn validate_main(args: &Args) -> i32 {
    use flexsim::validate as v;

    let num_cwgs: u64 = args.flag("--cwgs", 512);
    let num_configs: usize = args.flag("--configs", 16);
    let base_seed: u64 = args.flag("--seed", 0xdeadbeef);
    let explore = !args.switch("--no-explore");
    let started = Instant::now();
    let mut ok = true;

    // Stage 1: randomized CWG snapshots, two shapes (default and dense).
    println!("== validate: randomized CWG differential ==");
    let shapes = [
        ("default", v::GenParams::default()),
        ("dense", v::GenParams::dense()),
    ];
    let mut checked = 0u64;
    let mut with_knots = 0u64;
    let mut cycles_refereed = 0u64;
    'cwgs: for (name, params) in &shapes {
        for i in 0..num_cwgs {
            let snap = v::random_snapshot(base_seed ^ i, params);
            let mut diffs = v::check_messages(&snap, None);
            // Cycle counts and knot densities against the naive counter
            // (skipped only when a snapshot is too cyclic to walk naively).
            if let Some(cycle_diffs) = v::check_cycle_counts(&snap) {
                cycles_refereed += 1;
                diffs.extend(cycle_diffs);
            }
            checked += 1;
            if v::oracle_analyze(&snap).has_deadlock() {
                with_knots += 1;
            }
            if !diffs.is_empty() {
                eprintln!(
                    "divergence on shape `{name}` seed {}: {diffs:?}",
                    base_seed ^ i
                );
                emit_divergence(&v::divergence_repro_json(&snap));
                ok = false;
                break 'cwgs;
            }
        }
    }
    println!(
        "   {checked} snapshots checked, {with_knots} with knots, {cycles_refereed} with cycle \
         counts refereed — all agree"
    );

    // Stage 2: live campaign over seeded random configurations, each run
    // under the full invariant-auditing observer.
    println!("== validate: live campaign over {num_configs} random configs ==");
    let campaign = v::campaign(num_configs, base_seed);
    println!(
        "   {} configs, {} epochs differentially checked, {} with knots",
        campaign.configs, campaign.epochs_checked, campaign.deadlock_epochs
    );
    for (label, violations, repro) in &campaign.failures {
        eprintln!("config `{label}` FAILED:");
        for viol in violations {
            eprintln!("   {viol}");
        }
        if let Some(r) = repro {
            emit_divergence(r);
        }
    }
    ok &= campaign.ok();

    // Stage 3: fresh forensics incidents re-audited by the oracle.
    println!("== validate: fresh forensics incidents ==");
    let mut cfg = knotting_config(800);
    cfg.forensics = Some(ForensicsConfig::default());
    let res = run(&cfg);
    println!("   {} incidents captured", res.forensic_incidents.len());
    if res.forensic_incidents.is_empty() {
        eprintln!("no incident captured from the known-deadlocking config");
        ok = false;
    }
    for inc in &res.forensic_incidents {
        let problems = v::check_incident(inc);
        if !problems.is_empty() {
            ok = false;
            eprintln!("incident #{} @ cycle {} FAILED:", inc.seq, inc.cycle);
            for p in &problems {
                eprintln!("   {p}");
            }
        }
    }

    // Stage 4: stored incidents, when a store directory is given.
    if let Some(dir) = args.value("--store") {
        println!("== validate: incident store `{dir}` ==");
        match v::check_incident_store(dir) {
            Ok(failures) if failures.is_empty() => println!("   all stored incidents agree"),
            Ok(failures) => {
                ok = false;
                for (file, problems) in failures {
                    eprintln!("stored incident `{file}` FAILED: {problems:?}");
                }
            }
            Err(e) => {
                ok = false;
                eprintln!("cannot read incident store `{dir}`: {e}");
            }
        }
    }

    // Stage 5: exhaustive small worlds.
    if explore {
        println!("== validate: exhaustive small-world explorer ==");
        for cfg in [
            v::ExploreConfig::uni_ring_3(),
            v::ExploreConfig::uni_ring_4(),
            v::ExploreConfig::cube_2x2_tfar(),
        ] {
            let report = v::explore(&cfg);
            println!(
                "   {}ary{} {:?}: {} schedules, {} cycle audits, {} deadlocked",
                cfg.k,
                cfg.n,
                cfg.routing,
                report.schedules,
                report.cycles_checked,
                report.deadlocked
            );
            for (schedule, d) in report.divergences.iter().take(5) {
                ok = false;
                eprintln!("   schedule {schedule}: {d}");
            }
        }
    }

    println!(
        "validate: {} ({:.1?} elapsed)",
        if ok { "PASS" } else { "FAIL" },
        started.elapsed()
    );
    i32::from(!ok)
}

/// Spawns a sibling `repro serve` process on `dir` with an ephemeral
/// port and fleet knobs tightened for fast failure detection.
fn spawn_serve(
    dir: &Path,
    tag: &str,
    workers: usize,
    crash_plan: Option<&str>,
) -> Result<Member, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["serve", "--addr", "127.0.0.1:0", "--data"])
        .arg(dir)
        .args(["--workers", &workers.to_string()])
        .args(["--lease-ms", "1500", "--scan-ms", "120", "--port-file"])
        .arg(Member::port_file(dir, tag));
    Member::launch(&mut cmd, dir, tag, crash_plan)
}

/// The `repro chaos` subcommand: [`crash_storyline`] through the shipped
/// binary, alternating how life 1 dies.
fn chaos_main(args: &Args) -> i32 {
    let iterations: usize = args.flag("--iterations", 3);
    let workers: usize = args.flag("--workers", 2);

    // 3 loads × 3 seeds, wide enough that a kill reliably lands mid-sweep.
    let grid = short_grid(vec![31, 32, 33], vec![0.15, 0.2, 0.25]);
    println!(
        "== chaos: direct sweep of {} configs ==",
        grid.expand().len()
    );
    let want = match direct_digests(&grid) {
        Ok(want) => want,
        Err(e) => {
            eprintln!("chaos: {e}");
            return 1;
        }
    };

    let mut failures = 0usize;
    for iter in 0..iterations {
        let dir = scratch_dir(&format!("chaos-{iter}"));
        // Odd iterations die by the injected abort-at-rename, even ones
        // by SIGKILL from outside.
        match crash_storyline(&spawn_serve, &dir, &grid, &want, iter % 2 == 1, workers) {
            Ok(s) => println!(
                "== chaos iteration {iter}: PASS (corrupt_frames={} reclaimed_leases={}) ==",
                s.corrupt_frames, s.reclaimed_leases
            ),
            Err(e) => {
                eprintln!("== chaos iteration {iter}: FAIL — {e} ==");
                failures += 1;
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    if failures == 0 {
        println!("chaos: PASS ({iterations} iterations)");
        0
    } else {
        eprintln!("chaos: FAIL ({failures}/{iterations} iterations)");
        1
    }
}

/// The `repro serve` subcommand. Returns the process exit code.
fn serve_main(args: &Args) -> i32 {
    let workers = args.flag(
        "--workers",
        std::thread::available_parallelism().map_or(2, |n| n.get()),
    );

    let addr = args.value("--addr").unwrap_or("127.0.0.1:8991");
    let data = args.value("--data").unwrap_or("campaign-data");
    let mut opts = ServerOptions::new(data);
    opts.workers = workers;
    opts.handle_sigint = true;
    for (name, slot) in [
        ("--lease-ms", &mut opts.lease_expiry),
        ("--scan-ms", &mut opts.scan_interval),
    ] {
        let ms = args.flag(name, slot.as_millis() as u64);
        if ms == 0 {
            eprintln!("{name} wants a positive integer, got `0`");
            return 2;
        }
        *slot = Duration::from_millis(ms);
    }
    let server = match CampaignServer::bind(addr, &opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind campaign server on {addr}: {e}");
            return 1;
        }
    };
    if let Some(path) = args.value("--port-file") {
        // Atomic write: a parent polling the file never reads a torn
        // address.
        if let Err(e) = flexsim::jsonio::durable::write_atomic(
            Path::new(path),
            server.addr().to_string().as_bytes(),
        ) {
            eprintln!("cannot write --port-file {path}: {e}");
            return 1;
        }
    }
    println!(
        "campaign server on http://{} ({} workers, data in `{data}`)",
        server.addr(),
        workers
    );
    println!("endpoints: POST /jobs  GET /jobs/:id[/results]  POST /jobs/:id/cancel  GET /stats  POST /shutdown");
    match server.serve() {
        Ok(()) => {
            println!("campaign server: clean shutdown");
            0
        }
        Err(e) => {
            eprintln!("campaign server failed: {e}");
            1
        }
    }
}

/// Prints the network state at the first epoch of every 500 cycles and
/// at every knot epoch, before the runner recovers.
struct EpochPrinter;

impl RunObserver for EpochPrinter {
    fn on_epoch(&mut self, view: &EpochView<'_>) -> ControlFlow<()> {
        let deadlocks = &view.analysis.deadlocks;
        let knots = deadlocks.len();
        if (view.cycle - 1) % 500 < 50 || knots > 0 {
            let kmax = deadlocks
                .iter()
                .map(|d| d.deadlock_set.len())
                .max()
                .unwrap_or(0);
            let net = view.net;
            println!(
                "cyc {:>6}  in-net {:>4}  blocked {:>4}  queued {:>6}  delivered {:>6}  knots {knots} (max set {kmax})",
                view.cycle,
                net.in_network(),
                net.blocked_count(),
                net.source_queued(),
                net.totals().2,
            );
        }
        ControlFlow::Continue(())
    }
}

/// The `repro probe` subcommand: one TFAR single-VC configuration through
/// the runner, network state printed per detection epoch.
fn probe_main(args: &Args) -> i32 {
    let pos = |i: usize| args.positional.get(i).map(String::as_str);
    let mut cfg = RunConfig::small_default();
    cfg.routing = RoutingSpec::Tfar;
    cfg.sim.vcs_per_channel = 1;
    cfg.sim.buffer_depth = pos(0).map_or(32, |v| parse_or_exit("<depth>", "an integer", v));
    cfg.load = pos(1).map_or(0.6, |v| parse_or_exit("<load>", "a number", v));
    cfg.recovery = match pos(2) {
        None | Some("0") => RecoveryPolicy::None,
        Some("1") => RecoveryPolicy::RemoveOldest,
        Some(v) => {
            eprintln!("<recover:0|1> wants 0 or 1, got `{v}`");
            return 2;
        }
    };
    cfg.warmup = 0;
    cfg.measure = pos(3).map_or(5000, |v| parse_or_exit("[cycles]", "an integer", v));

    let res = run_with(&cfg, &mut EpochPrinter);
    println!("final delivered={}", res.delivered);
    0
}

/// The experiment runner: regenerates the named figures (all of them
/// when none, or `all`, is named). Returns the process exit code.
fn figures_main(args: &Args) -> i32 {
    let csv = args.switch("--csv");
    let json = args.switch("--json");
    let scale = if args.switch("--small") {
        Scale::Small
    } else {
        Scale::Paper
    };

    let available = experiments::all(scale);
    let ids: Vec<&str> = available.iter().map(|e| e.id).collect();
    let wanted: Vec<&str> =
        if args.positional.is_empty() || args.positional.iter().any(|w| w == "all") {
            ids.clone()
        } else {
            args.positional.iter().map(String::as_str).collect()
        };
    if let Some(id) = wanted.iter().find(|id| !ids.contains(id)) {
        eprintln!("unknown experiment `{id}` (have: {})", ids.join(" "));
        return 2;
    }

    let mut pass_all = true;
    for exp in wanted
        .iter()
        .filter_map(|id| available.iter().find(|e| e.id == *id))
    {
        let started = Instant::now();
        println!("== {} ==", exp.title);
        println!(
            "   {} simulation points, scale={scale:?}",
            exp.configs.len()
        );
        let results = sweep(&exp.configs);
        let table = experiments::results_table(&results);
        println!("{}", table.render());
        if csv {
            println!("{}", table.to_csv());
        }
        if json {
            let path = format!("repro_{}.json", exp.id);
            let lines: String = results
                .iter()
                .enumerate()
                .map(|(i, r)| flexsim::checkpoint_line(i, &r.label, r) + "\n")
                .collect();
            std::fs::write(&path, lines).unwrap_or_else(|e| eprintln!("cannot write {path}: {e}"));
            println!("   wrote {path}");
        }
        println!("{}", experiments::figure_chart(exp, &results).render());
        println!("per-curve saturation / deadlock onset:");
        println!(
            "{}",
            experiments::saturation_summary(exp, &results).render()
        );
        println!("shape checks (paper claims vs measured):");
        for c in exp.shape_checks(&results) {
            println!(
                "  [{}] {} ({})",
                if c.pass { "PASS" } else { "FAIL" },
                c.claim,
                c.detail
            );
            pass_all &= c.pass;
        }
        println!("   ({:.1?} elapsed)\n", started.elapsed());
    }
    if !pass_all {
        eprintln!("some shape checks failed");
        return 1;
    }
    0
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let named = raw.first().and_then(|arg| {
        COMMANDS
            .iter()
            .find(|(line, _)| command_name(line) == Some(arg.as_str()))
    });
    let (&(line, run), rest) = match named {
        Some(cmd) => (cmd, &raw[1..]),
        None => (&COMMANDS[0], &raw[..]),
    };
    match Args::parse(line, rest) {
        Ok(args) => std::process::exit(run(&args)),
        Err(e) => {
            eprintln!("repro: {e}\n{}", usage());
            std::process::exit(2);
        }
    }
}
