//! Regenerates every table and figure of the paper's evaluation section.
//!
//! ```text
//! repro [fig5] [fig6] [fig7] [fig8] [degree] [traffic] [all] [--small] [--csv]
//! repro forensics [--store DIR] [--seed N] [--max N] [--cycles N] [--no-prefix]
//! repro validate [--configs N] [--cwgs N] [--seed N] [--shards N] [--incremental] [--store DIR] [--no-explore]
//! repro faults [--seed N] [--expect-stall]
//! repro serve [--addr HOST:PORT] [--data DIR] [--workers N] [--smoke]
//!             [--port-file PATH] [--lease-ms N] [--scan-ms N]
//! repro chaos [--iterations N] [--workers N]
//! ```
//!
//! With no experiment named, runs `all`. `--small` switches to the
//! scaled-down configuration (8-ary 2-cube, short windows) used by the
//! integration tests; the default is the paper's setup (16-ary 2-cube,
//! 30,000 measured cycles — expect minutes of wall-clock). `--csv` also
//! emits machine-readable CSV after each table; `--json` writes
//! `repro_<id>.json` files next to the working directory.
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
//! `repro faults` is the fault-injection smoke command: it builds a
//! seeded random fault plan (transient link outages, a permanent kill, a
//! router stall, an injector outage), runs it on the activity-driven
//! stepper, the dense reference stepper, and a replay, and exits
//! non-zero unless all three digests agree byte-for-byte and the run was
//! classified [`flexsim::RunOutcome::Faulted`]. With `--expect-stall` it
//! instead runs a deliberately wedged configuration (recovery disabled,
//! saturated single-VC torus) under the progress watchdog and exits 2 —
//! and only 2 — when the run ends as `Stalled` with a coherent stall
//! report, so CI can assert the watchdog actually fires.
//!
//! `repro serve` starts the campaign server (see `icn-server`): an HTTP
//! job API over the supervised sweep engine with per-job checkpoints, a
//! content-addressed result cache, and a read-only incident browser.
//! Any number of `repro serve` processes may share one `--data` dir —
//! they form a fleet arbitrated by per-config lease files, so a killed
//! member's work is reclaimed by the survivors. `--port-file` writes the
//! bound address (useful with an ephemeral `--addr ...:0`); `--lease-ms`
//! and `--scan-ms` tune the fleet's failure-detection latency. Ctrl-C
//! and `POST /shutdown` both take the graceful path — in-flight
//! configurations finish and checkpoint, queued ones resume on the next
//! start. With `--smoke` it instead runs a one-shot self-check against
//! an ephemeral port: submit a small grid, poll it to completion, verify
//! every streamed result digest-matches a direct `sweep_supervised` of
//! the same grid, resubmit and verify the whole job is answered from the
//! cache without a single new simulation, then spawn a *second server
//! process* on the same data dir and verify a third submission is served
//! entirely from the shared cache across the process boundary. Exits
//! non-zero on any divergence, which makes it CI-able without network
//! egress.
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
//! `repro validate` runs the validation layer: the production detector
//! is differentially checked against the independent naive oracle, the
//! brute-force enumerator and the naive cycle counter (cycle census, knot
//! density and their cap law) on randomized CWGs (`--cwgs`, default 512),
//! on every detection epoch of `--configs` (default 16) seeded random
//! live configurations (with full invariant auditing; `--shards N` runs
//! them with N transfer-decide partitions so the oracle audits that path;
//! `--incremental` repeats the campaign with every config forced through
//! the event-patched incremental detector), on freshly
//! captured forensics incidents, on every incident in `--store DIR` (if
//! given), and — unless `--no-explore` — on every schedule of the
//! exhaustive small-world explorer. Any disagreement exits non-zero and
//! writes a minimized reproducer to `validate-divergence.json`.

use flexsim::experiments::{self, Scale};
use flexsim::forensics::{minimize, replay, timeline_table, IncidentStore};
use flexsim::report::Table;
use flexsim::sweep;
use flexsim::{
    run, run_reference, ForensicsConfig, RecoveryPolicy, RoutingSpec, RunConfig, RunOutcome,
    TopologySpec,
};
use icn_metrics::Histogram;
use std::time::Instant;

/// Parses `--flag value` from the argument list.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
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
fn forensics_main(args: &[String]) -> i32 {
    let store_dir = flag_value(args, "--store").unwrap_or("incidents");
    let with_prefix = !args.iter().any(|a| a == "--no-prefix");
    let parse_u64 = |flag: &str, default: u64| {
        flag_value(args, flag).map_or(default, |v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("{flag} wants an integer, got `{v}`");
                std::process::exit(2);
            })
        })
    };

    // The Figure-6 corner point scaled down: reliably knots within a few
    // hundred cycles and keeps every replay/minimization probe cheap.
    let mut cfg = RunConfig::small_default();
    cfg.topology = TopologySpec::torus(8, 2, false);
    cfg.routing = RoutingSpec::Dor;
    cfg.sim.vcs_per_channel = 1;
    cfg.load = 1.0;
    cfg.warmup = 400;
    cfg.measure = parse_u64("--cycles", 1_600);
    cfg.seed = parse_u64("--seed", cfg.seed);
    cfg.forensics = Some(ForensicsConfig {
        max_incidents: parse_u64("--max", 8) as usize,
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
fn validate_main(args: &[String]) -> i32 {
    use flexsim::validate as v;

    let parse_u64 = |flag: &str, default: u64| {
        flag_value(args, flag).map_or(default, |val| {
            val.parse().unwrap_or_else(|_| {
                eprintln!("{flag} wants an integer, got `{val}`");
                std::process::exit(2);
            })
        })
    };
    let num_cwgs = parse_u64("--cwgs", 512);
    let num_configs = parse_u64("--configs", 16) as usize;
    let base_seed = parse_u64("--seed", 0xdeadbeef);
    let shards = parse_u64("--shards", 1) as usize;
    let incremental = args.iter().any(|a| a == "--incremental");
    let explore = !args.iter().any(|a| a == "--no-explore");
    let started = Instant::now();
    let mut ok = true;

    // Stage 1: randomized CWG snapshots, two shapes (default and dense).
    println!("== validate: randomized CWG differential ==");
    let shapes = [
        ("default", v::GenParams::default()),
        (
            "dense",
            v::GenParams {
                num_vertices: 24,
                max_messages: 12,
                max_chain: 2,
                max_requests: 2,
                blocked_prob: 0.95,
                owned_bias: 0.95,
            },
        ),
    ];
    let mut checked = 0u64;
    let mut with_knots = 0u64;
    let mut cycles_refereed = 0u64;
    'cwgs: for (name, params) in &shapes {
        for i in 0..num_cwgs {
            let (n, msgs) = v::random_snapshot(base_seed ^ i, params);
            let mut diffs = v::check_messages(n, &msgs);
            // Cycle counts and knot densities against the naive counter
            // (skipped only when a snapshot is too cyclic to walk naively).
            if let Some(cycle_diffs) = v::check_cycle_counts(n, &msgs) {
                cycles_refereed += 1;
                diffs.extend(cycle_diffs);
            }
            checked += 1;
            if v::oracle_analyze(n, &msgs).has_deadlock() {
                with_knots += 1;
            }
            if !diffs.is_empty() {
                eprintln!(
                    "divergence on shape `{name}` seed {}: {diffs:?}",
                    base_seed ^ i
                );
                emit_divergence(&v::divergence_repro_json(n, &msgs));
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
    if shards > 1 {
        println!(
            "== validate: live campaign over {num_configs} random configs (shards={shards}) =="
        );
    } else {
        println!("== validate: live campaign over {num_configs} random configs ==");
    }
    let campaign = v::campaign_with_shards(num_configs, base_seed, shards);
    println!(
        "   {} configs, {} epochs differentially checked, {} with knots",
        campaign.configs, campaign.epochs_checked, campaign.deadlock_epochs
    );
    for (label, violations, repro) in &campaign.failures {
        ok = false;
        eprintln!("config `{label}` FAILED:");
        for viol in violations {
            eprintln!("   {viol}");
        }
        if let Some(r) = repro {
            emit_divergence(r);
        }
    }

    // Stage 2b: the same campaign forced through the incremental
    // detector, auditing the event-patched CWG's every epoch.
    if incremental {
        println!(
            "== validate: incremental-detection campaign over {num_configs} random configs =="
        );
        let campaign = v::campaign_incremental(num_configs, base_seed);
        println!(
            "   {} configs, {} epochs differentially checked, {} with knots",
            campaign.configs, campaign.epochs_checked, campaign.deadlock_epochs
        );
        for (label, violations, repro) in &campaign.failures {
            ok = false;
            eprintln!("incremental config `{label}` FAILED:");
            for viol in violations {
                eprintln!("   {viol}");
            }
            if let Some(r) = repro {
                emit_divergence(r);
            }
        }
    }

    // Stage 3: fresh forensics incidents re-audited by the oracle.
    println!("== validate: fresh forensics incidents ==");
    let mut cfg = RunConfig::small_default();
    cfg.topology = TopologySpec::torus(8, 2, false);
    cfg.routing = RoutingSpec::Dor;
    cfg.sim.vcs_per_channel = 1;
    cfg.load = 1.0;
    cfg.warmup = 400;
    cfg.measure = 800;
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
    if let Some(dir) = flag_value(args, "--store") {
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
    if ok {
        0
    } else {
        1
    }
}

/// The `repro faults` subcommand. Returns the process exit code:
/// 0 on success, 1 on any determinism or classification failure, and —
/// under `--expect-stall` — exactly 2 when the watchdog fired as
/// expected.
fn faults_main(args: &[String]) -> i32 {
    let seed = flag_value(args, "--seed").map_or(0xfa17_5eed, |v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("--seed wants an integer, got `{v}`");
            std::process::exit(2);
        })
    });

    if args.iter().any(|a| a == "--expect-stall") {
        // A saturated single-VC unidirectional torus under TFAR with
        // recovery disabled wedges permanently once the first knot forms;
        // the watchdog must cut it instead of burning the full horizon.
        let mut cfg = RunConfig::small_default();
        cfg.topology = TopologySpec::torus(4, 2, false);
        cfg.routing = RoutingSpec::Tfar;
        cfg.sim.vcs_per_channel = 1;
        cfg.load = 1.1;
        cfg.recovery = RecoveryPolicy::None;
        cfg.warmup = 500;
        cfg.measure = 100_000;
        cfg.stall_threshold = Some(300);
        cfg.seed = seed;

        println!("== fault smoke: forced stall ==");
        println!("   config: {} (recovery disabled)", cfg.label());
        let started = Instant::now();
        let res = run(&cfg);
        println!(
            "   outcome: {} ({:.1?} elapsed)",
            res.outcome.name(),
            started.elapsed()
        );
        if res.outcome != RunOutcome::Stalled {
            eprintln!(
                "expected the watchdog to fire, run ended {}",
                res.outcome.name()
            );
            return 1;
        }
        let Some(st) = res.stall else {
            eprintln!("Stalled outcome without a stall report");
            return 1;
        };
        println!(
            "   stall report: cut at cycle {} (last progress {}), \
             {} messages in network, {} blocked, {} source-queued",
            st.cycle, st.last_progress_cycle, st.in_network, st.blocked, st.source_queued
        );
        if st.cycle >= cfg.warmup + cfg.measure {
            eprintln!("watchdog fired only at the horizon — it saved nothing");
            return 1;
        }
        return 2;
    }

    // A seeded random fault plan on a small torus: transient outages, a
    // permanent kill, a router stall, an injector outage. The run must be
    // byte-identical on the activity stepper, the dense reference
    // stepper, and a replay, and classify as `Faulted`.
    let mut cfg = RunConfig::small_default();
    cfg.topology = TopologySpec::torus(4, 2, true);
    cfg.routing = RoutingSpec::Tfar;
    cfg.sim.vcs_per_channel = 2;
    cfg.load = 0.8;
    cfg.warmup = 200;
    cfg.measure = 1_800;
    cfg.stall_threshold = Some(1_000);
    cfg.seed = seed;
    cfg.faults = flexsim::faults::random_plan(&cfg.topology, cfg.warmup + cfg.measure, seed);

    println!("== fault smoke: injected run ==");
    println!("   config: {}", cfg.label());
    println!(
        "   routing {} fault-aware (routes_around_faults={})",
        cfg.routing.name(),
        cfg.routing.build().routes_around_faults()
    );
    for e in &cfg.faults.events {
        println!("   fault @ cycle {:>5}: {:?}", e.cycle, e.kind);
    }

    let started = Instant::now();
    let act = run(&cfg);
    let dense = run_reference(&cfg);
    let replayed = run(&cfg);
    println!(
        "   outcome: {}  fault losses: {}  source rejections: {}  ({:.1?} elapsed)",
        act.outcome.name(),
        act.fault_losses,
        act.fault_rejected,
        started.elapsed()
    );

    let mut ok = true;
    if act.digest() != dense.digest() {
        eprintln!("DIGEST MISMATCH between activity and dense steppers");
        eprintln!("   activity: {}", act.digest());
        eprintln!("   dense:    {}", dense.digest());
        ok = false;
    }
    if act.digest() != replayed.digest() {
        eprintln!("DIGEST MISMATCH between run and replay");
        ok = false;
    }
    if ok {
        println!("   digests agree across activity stepper, dense stepper, replay");
    }
    if act.outcome != RunOutcome::Faulted {
        eprintln!(
            "expected a Faulted classification, got {} — the plan never bit",
            act.outcome.name()
        );
        ok = false;
    }
    if ok {
        0
    } else {
        1
    }
}

/// The grid used by `repro serve --smoke`: 2 loads × 2 seeds on the
/// scaled-down torus, small enough to finish in seconds.
fn smoke_grid() -> icn_server::SweepGrid {
    let mut base = RunConfig::small_default();
    base.warmup = 200;
    base.measure = 600;
    icn_server::SweepGrid {
        base,
        seeds: vec![11, 12],
        loads: vec![0.15, 0.25],
        timeout_ms: None,
    }
}

/// Spawns a sibling `repro serve` process on `dir` with an ephemeral
/// port (published through `<dir>/<tag>.port`) and fleet knobs tightened
/// for fast failure detection. Returns the child and its port file.
fn spawn_serve(
    dir: &std::path::Path,
    tag: &str,
    workers: usize,
    crash_plan: Option<&str>,
) -> Result<(std::process::Child, std::path::PathBuf), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let port_file = dir.join(format!("{tag}.port"));
    let _ = std::fs::remove_file(&port_file);
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["serve", "--addr", "127.0.0.1:0", "--data"])
        .arg(dir)
        .args([
            "--workers",
            &workers.to_string(),
            "--lease-ms",
            "1500",
            "--scan-ms",
            "120",
            "--port-file",
        ])
        .arg(&port_file)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null());
    if let Some(plan) = crash_plan {
        cmd.env("ICN_DURABLE_CRASH", plan);
    }
    cmd.spawn()
        .map(|child| (child, port_file))
        .map_err(|e| format!("spawning {tag}: {e}"))
}

/// Polls a sibling's port file until it holds a bindable address.
fn wait_addr(
    child: &mut std::process::Child,
    port_file: &std::path::Path,
    timeout: std::time::Duration,
) -> Result<std::net::SocketAddr, String> {
    let deadline = Instant::now() + timeout;
    loop {
        if let Ok(text) = std::fs::read_to_string(port_file) {
            if let Ok(addr) = text.trim().parse() {
                return Ok(addr);
            }
        }
        if let Ok(Some(status)) = child.try_wait() {
            return Err(format!("sibling server exited before binding: {status}"));
        }
        if Instant::now() > deadline {
            return Err(format!(
                "sibling server never published {}",
                port_file.display()
            ));
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}

/// Waits for a child to exit on its own (e.g. by injected crash).
fn wait_exit(child: &mut std::process::Child, timeout: std::time::Duration) -> Result<(), String> {
    let deadline = Instant::now() + timeout;
    loop {
        match child.try_wait() {
            Ok(Some(_)) => return Ok(()),
            Ok(None) if Instant::now() > deadline => {
                return Err("injected crash never fired".to_string())
            }
            Ok(None) => std::thread::sleep(std::time::Duration::from_millis(20)),
            Err(e) => return Err(format!("waiting for sibling: {e}")),
        }
    }
}

/// Submits `grid` to a server and returns the job id.
fn submit_grid(addr: std::net::SocketAddr, grid: &icn_server::SweepGrid) -> Result<u64, String> {
    let (status, body) =
        icn_server::http_request(addr, "POST", "/jobs", Some(&grid.to_json().to_string()))
            .map_err(|e| format!("submit: {e}"))?;
    if status != 200 {
        return Err(format!("submit returned HTTP {status}: {body}"));
    }
    flexsim::jsonio::parse(&body)
        .ok()
        .and_then(|v| v.get("id").and_then(flexsim::jsonio::Json::as_u64))
        .ok_or_else(|| format!("submit body lacks an id: {body}"))
}

/// Fetches `/jobs/:id/results` and returns the per-slot digests.
fn fetch_digests(addr: std::net::SocketAddr, id: u64, n: usize) -> Result<Vec<String>, String> {
    use flexsim::jsonio::Json;
    let (status, stream) =
        icn_server::http_request(addr, "GET", &format!("/jobs/{id}/results"), None)
            .map_err(|e| format!("results: {e}"))?;
    if status != 200 {
        return Err(format!("results returned HTTP {status}"));
    }
    let mut got = vec![String::new(); n];
    for line in stream.lines().filter(|l| !l.trim().is_empty()) {
        let v = flexsim::jsonio::parse(line).map_err(|e| format!("bad result line: {e}"))?;
        let idx = v
            .get("index")
            .and_then(Json::as_u64)
            .ok_or("result line lacks an index")? as usize;
        let r = v
            .get("result")
            .ok_or("result line lacks a result")
            .and_then(|r| flexsim::decode_result(r).map_err(|_| "undecodable result"))?;
        if idx < n {
            got[idx] = r.digest();
        }
    }
    Ok(got)
}

/// Polls `GET /jobs/:id` until the job settles. Returns the final status
/// JSON, or an error string on timeout or transport failure.
fn poll_job(
    addr: std::net::SocketAddr,
    id: u64,
    timeout: std::time::Duration,
) -> Result<flexsim::jsonio::Json, String> {
    let deadline = Instant::now() + timeout;
    loop {
        let (status, body) = icn_server::http_request(addr, "GET", &format!("/jobs/{id}"), None)
            .map_err(|e| format!("polling job {id}: {e}"))?;
        if status != 200 {
            return Err(format!("job {id} status returned HTTP {status}: {body}"));
        }
        let v = flexsim::jsonio::parse(&body).map_err(|e| format!("bad status JSON: {e}"))?;
        if v.get("state").and_then(flexsim::jsonio::Json::as_str) == Some("done") {
            return Ok(v);
        }
        if Instant::now() > deadline {
            return Err(format!("job {id} did not settle in {timeout:?}: {body}"));
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
}

/// The `--smoke` self-check body. Returns an error description on the
/// first divergence.
fn serve_smoke(data_dir: &std::path::Path, workers: usize) -> Result<(), String> {
    use flexsim::jsonio::Json;

    let grid = smoke_grid();
    let configs = grid.expand();
    println!(
        "== campaign smoke: direct sweep of {} configs ==",
        configs.len()
    );
    let direct = flexsim::sweep_supervised(&configs, &flexsim::SweepOptions::default());
    let want: Vec<String> = direct
        .iter()
        .map(|r| r.as_ref().map(|x| x.digest()).unwrap_or_default())
        .collect();

    let mut opts = icn_server::ServerOptions::new(data_dir);
    opts.workers = workers;
    let server =
        icn_server::CampaignServer::bind("127.0.0.1:0", &opts).map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr();
    println!("== campaign smoke: server on {addr} ==");
    let handle = std::thread::spawn(move || server.serve());

    let submit = |tag: &str| -> Result<u64, String> {
        let (status, body) =
            icn_server::http_request(addr, "POST", "/jobs", Some(&grid.to_json().to_string()))
                .map_err(|e| format!("{tag} submit: {e}"))?;
        if status != 200 {
            return Err(format!("{tag} submit returned HTTP {status}: {body}"));
        }
        flexsim::jsonio::parse(&body)
            .ok()
            .and_then(|v| v.get("id").and_then(Json::as_u64))
            .ok_or_else(|| format!("{tag} submit body lacks an id: {body}"))
    };
    let finish = |r: Result<(), String>| -> Result<(), String> {
        // Always take the graceful path so the worker threads exit.
        let _ = icn_server::http_request(addr, "POST", "/shutdown", None);
        let joined = handle
            .join()
            .map_err(|_| "server thread panicked".to_string());
        r.and_then(|()| joined.and_then(|io| io.map_err(|e| format!("serve: {e}"))))
    };

    let check = (|| -> Result<(), String> {
        // Round 1: fresh submission must simulate everything and match
        // the direct sweep digest-for-digest.
        let id = submit("first")?;
        poll_job(addr, id, std::time::Duration::from_secs(300))?;
        let got = fetch_digests(addr, id, configs.len())?;
        if got != want {
            return Err(format!(
                "digest mismatch vs direct sweep_supervised:\n  server: {got:?}\n  direct: {want:?}"
            ));
        }
        println!(
            "   {} results digest-identical to the direct sweep",
            got.len()
        );

        // Round 2: identical resubmission must be answered entirely from
        // the cache — zero new simulations.
        let sims_before = stats_path(addr, &["sims_run"])?;
        let id2 = submit("second")?;
        let status2 = poll_job(addr, id2, std::time::Duration::from_secs(60))?;
        let cached = status2.get("cached").and_then(Json::as_u64).unwrap_or(0);
        let sims_after = stats_path(addr, &["sims_run"])?;
        if sims_after != sims_before {
            return Err(format!(
                "resubmission ran {} new simulations (want 0)",
                sims_after - sims_before
            ));
        }
        if cached != configs.len() as u64 {
            return Err(format!(
                "resubmission reported {cached} cached slots (want {})",
                configs.len()
            ));
        }
        println!("   resubmission: {cached} cache hits, 0 new simulations");

        // Round 3: a second server *process* joins the same data dir and
        // takes a third identical submission — the content-addressed
        // cache written by this process must answer across the process
        // boundary, still without a single new simulation anywhere in
        // the fleet.
        let (mut sibling, port_file) = spawn_serve(data_dir, "smoke-sibling", 2, None)?;
        let round3 = (|| -> Result<(), String> {
            let addr2 = wait_addr(&mut sibling, &port_file, std::time::Duration::from_secs(30))?;
            let id3 = submit_grid(addr2, &grid)?;
            poll_job(addr2, id3, std::time::Duration::from_secs(60))?;
            let got3 = fetch_digests(addr2, id3, configs.len())?;
            if got3 != want {
                return Err(format!(
                    "second process served divergent digests:\n  fleet: {got3:?}\n  direct: {want:?}"
                ));
            }
            // /stats is per-process; either member may have answered any
            // slot (both scan the shared job), so the invariants are on
            // the fleet-wide sums.
            let sims = stats_path(addr, &["sims_run"])? + stats_path(addr2, &["sims_run"])?;
            if sims != configs.len() as u64 {
                return Err(format!(
                    "fleet ran {sims} total simulations (want {} — the third \
                     submission must be pure cache hits)",
                    configs.len()
                ));
            }
            let hits =
                stats_path(addr, &["cache", "hits"])? + stats_path(addr2, &["cache", "hits"])?;
            if hits < 2 * configs.len() as u64 {
                return Err(format!(
                    "fleet reports {hits} cache hits (want at least {})",
                    2 * configs.len()
                ));
            }
            let (st, _) = icn_server::http_request(addr2, "POST", "/shutdown", None)
                .map_err(|e| format!("sibling shutdown: {e}"))?;
            if st != 200 {
                return Err(format!("sibling shutdown returned HTTP {st}"));
            }
            Ok(())
        })();
        if round3.is_err() {
            let _ = sibling.kill();
        }
        let _ = sibling.wait();
        round3?;
        println!("   second process: cross-process cache hits, 0 new simulations");
        Ok(())
    })();
    finish(check)
}

/// Reads one `u64` leaf out of `GET /stats` by key path.
fn stats_path(addr: std::net::SocketAddr, path: &[&str]) -> Result<u64, String> {
    let (status, body) =
        icn_server::http_request(addr, "GET", "/stats", None).map_err(|e| format!("stats: {e}"))?;
    if status != 200 {
        return Err(format!("stats returned HTTP {status}"));
    }
    let v = flexsim::jsonio::parse(&body).map_err(|e| format!("bad stats JSON: {e}"))?;
    let mut cur = &v;
    for key in path {
        cur = cur
            .get(key)
            .ok_or_else(|| format!("stats body lacks `{}`: {body}", path.join(".")))?;
    }
    cur.as_u64()
        .ok_or_else(|| format!("stats `{}` is not a u64: {body}", path.join(".")))
}

/// The grid used by `repro chaos`: 3 loads × 3 seeds, wide enough that a
/// kill reliably lands mid-sweep.
fn chaos_grid() -> icn_server::SweepGrid {
    let mut base = RunConfig::small_default();
    base.warmup = 200;
    base.measure = 600;
    icn_server::SweepGrid {
        base,
        seeds: vec![31, 32, 33],
        loads: vec![0.15, 0.2, 0.25],
        timeout_ms: None,
    }
}

/// Counts the newline-terminated, non-empty checkpoint lines (the torn
/// tail, if any, is excluded).
fn full_line_count(ckpt: &std::path::Path) -> usize {
    let Ok(text) = std::fs::read_to_string(ckpt) else {
        return 0;
    };
    let Some(end) = text.rfind('\n') else {
        return 0;
    };
    text[..=end]
        .lines()
        .filter(|l| !l.trim().is_empty())
        .count()
}

/// Waits until the checkpoint holds at least `want` full lines.
fn wait_lines(
    ckpt: &std::path::Path,
    want: usize,
    timeout: std::time::Duration,
) -> Result<usize, String> {
    let deadline = Instant::now() + timeout;
    loop {
        let have = full_line_count(ckpt);
        if have >= want {
            return Ok(have);
        }
        if Instant::now() > deadline {
            return Err(format!(
                "checkpoint never reached {want} records (have {have})"
            ));
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}

/// Flips one byte in the middle of the last full checkpoint record —
/// corruption at rest that the CRC framing must detect (quarantine the
/// line, re-run the slot).
fn garble_last_record(ckpt: &std::path::Path) -> Result<(), String> {
    let text = std::fs::read_to_string(ckpt).map_err(|e| format!("reading checkpoint: {e}"))?;
    let end = text
        .rfind('\n')
        .ok_or("checkpoint has no full line to garble")?;
    let start = text[..end].rfind('\n').map(|i| i + 1).unwrap_or(0);
    if end <= start {
        return Err("last checkpoint line is empty".to_string());
    }
    let mut bytes = text.into_bytes();
    bytes[start + (end - start) / 2] ^= 0x01;
    std::fs::write(ckpt, bytes).map_err(|e| format!("garbling checkpoint: {e}"))
}

/// Appends an unterminated framed fragment — the exact signature of a
/// writer killed mid-append. Recovery must detect the torn tail and seal
/// it with a guard newline.
fn append_torn_fragment(ckpt: &std::path::Path) -> Result<(), String> {
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(ckpt)
        .map_err(|e| format!("opening checkpoint: {e}"))?;
    f.write_all(b"~2a:00000000:{\"index\":99,\"resul")
        .map_err(|e| format!("tearing checkpoint tail: {e}"))
}

/// One chaos iteration. Returns a one-line summary on success.
fn chaos_iteration(
    iter: usize,
    dir: &std::path::Path,
    grid: &icn_server::SweepGrid,
    want: &[String],
    workers: usize,
) -> Result<String, String> {
    use flexsim::jsonio::Json;
    use std::time::Duration;

    // Life 1: one fleet member alone, pinned to a single worker so the
    // injected crash point is deterministic — with two workers the
    // second store's abort-at-rename can land before the first worker's
    // checkpoint append, leaving zero durable records. Odd iterations
    // die by a rename-time crash injected into the durable cache writes
    // (the process aborts itself mid-sweep); even iterations are
    // SIGKILLed from outside once the first checkpoint record lands.
    let crash = (iter % 2 == 1).then_some("cache/:2");
    let (mut w1, pf1) = spawn_serve(dir, "w1", 1, crash)?;
    let life1 = (|| -> Result<u64, String> {
        let addr1 = wait_addr(&mut w1, &pf1, Duration::from_secs(30))?;
        let id = submit_grid(addr1, grid)?;
        let ckpt = dir.join("jobs").join(format!("job-{id}.ckpt.jsonl"));
        wait_lines(&ckpt, 1, Duration::from_secs(120))?;
        if crash.is_some() {
            wait_exit(&mut w1, Duration::from_secs(120))?;
        } else {
            let _ = w1.kill();
        }
        Ok(id)
    })();
    let _ = w1.kill();
    let _ = w1.wait();
    let id = life1?;

    // Quiescent tampering: garble the last durable record and tear the
    // tail the way a writer killed mid-append would.
    let ckpt = dir.join("jobs").join(format!("job-{id}.ckpt.jsonl"));
    garble_last_record(&ckpt)?;
    append_torn_fragment(&ckpt)?;
    // Recovery seals the torn fragment into one (garbage) full line, so
    // real progress in life 2 starts past `baseline + 1`.
    let baseline = full_line_count(&ckpt);

    // Life 2: two members race to finish the job; one is SIGKILLed as
    // soon as the fleet makes progress, and the survivor converges.
    let (mut w2, pf2) = spawn_serve(dir, "w2", workers, None)?;
    let (mut w3, pf3) = spawn_serve(dir, "w3", workers, None)?;
    let verdict = (|| -> Result<String, String> {
        wait_addr(&mut w2, &pf2, Duration::from_secs(30))?;
        let addr3 = wait_addr(&mut w3, &pf3, Duration::from_secs(30))?;
        let _ = wait_lines(&ckpt, baseline + 2, Duration::from_secs(120));
        let _ = w2.kill();
        let _ = w2.wait();
        let status = poll_job(addr3, id, Duration::from_secs(300))?;
        let got = fetch_digests(addr3, id, want.len())?;
        if got != want {
            return Err(format!(
                "digest mismatch after chaos:\n  fleet: {got:?}\n  direct: {want:?}"
            ));
        }
        // The loss accounting must be surfaced in the job status, and
        // the garbled record must have been detected.
        let ckrep = status
            .get("checkpoint")
            .ok_or("status lacks checkpoint accounting")?;
        let corrupt = ckrep
            .get("corrupt_frames")
            .and_then(Json::as_u64)
            .ok_or("status lacks checkpoint.corrupt_frames")?;
        if corrupt == 0 {
            return Err("the garbled record went undetected".to_string());
        }
        let reclaimed = status
            .get("reclaimed_leases")
            .and_then(Json::as_u64)
            .ok_or("status lacks reclaimed_leases")?;
        let _ = icn_server::http_request(addr3, "POST", "/shutdown", None);
        Ok(format!(
            "corrupt_frames={corrupt} reclaimed_leases={reclaimed}"
        ))
    })();
    let _ = w2.kill();
    let _ = w2.wait();
    if verdict.is_err() {
        let _ = w3.kill();
    }
    let _ = w3.wait();
    verdict
}

/// The `repro chaos` subcommand. Returns the process exit code.
fn chaos_main(args: &[String]) -> i32 {
    let iterations: usize = flag_value(args, "--iterations").map_or(3, |v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("--iterations wants an integer, got `{v}`");
            std::process::exit(2);
        })
    });
    let workers: usize = flag_value(args, "--workers").map_or(2, |v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("--workers wants an integer, got `{v}`");
            std::process::exit(2);
        })
    });

    let grid = chaos_grid();
    let configs = grid.expand();
    println!("== chaos: direct sweep of {} configs ==", configs.len());
    let direct = flexsim::sweep_supervised(&configs, &flexsim::SweepOptions::default());
    let want: Vec<String> = direct
        .iter()
        .map(|r| r.as_ref().map(|x| x.digest()).unwrap_or_default())
        .collect();

    let root = std::env::temp_dir().join(format!("campaign-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut failures = 0usize;
    for iter in 0..iterations {
        let dir = root.join(format!("iter-{iter}"));
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return 1;
        }
        match chaos_iteration(iter, &dir, &grid, &want, workers) {
            Ok(summary) => println!("== chaos iteration {iter}: PASS ({summary}) =="),
            Err(e) => {
                eprintln!("== chaos iteration {iter}: FAIL — {e} ==");
                failures += 1;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&root);
    if failures == 0 {
        println!("chaos: PASS ({iterations} iterations)");
        0
    } else {
        eprintln!("chaos: FAIL ({failures}/{iterations} iterations)");
        1
    }
}

/// The `repro serve` subcommand. Returns the process exit code.
fn serve_main(args: &[String]) -> i32 {
    let workers = flag_value(args, "--workers").map_or_else(
        || {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
        },
        |v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("--workers wants an integer, got `{v}`");
                std::process::exit(2);
            })
        },
    );

    if args.iter().any(|a| a == "--smoke") {
        let dir = std::env::temp_dir().join(format!("campaign-smoke-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let verdict = serve_smoke(&dir, workers.min(4));
        let _ = std::fs::remove_dir_all(&dir);
        return match verdict {
            Ok(()) => {
                println!("campaign smoke: PASS");
                0
            }
            Err(e) => {
                eprintln!("campaign smoke: FAIL — {e}");
                1
            }
        };
    }

    let addr = flag_value(args, "--addr").unwrap_or("127.0.0.1:8991");
    let data = flag_value(args, "--data").unwrap_or("campaign-data");
    let mut opts = icn_server::ServerOptions::new(data);
    opts.workers = workers;
    opts.handle_sigint = true;
    if let Some(ms) = flag_value(args, "--lease-ms") {
        match ms.parse::<u64>() {
            Ok(ms) if ms > 0 => opts.lease_expiry = std::time::Duration::from_millis(ms),
            _ => {
                eprintln!("--lease-ms wants a positive integer, got `{ms}`");
                return 2;
            }
        }
    }
    if let Some(ms) = flag_value(args, "--scan-ms") {
        match ms.parse::<u64>() {
            Ok(ms) if ms > 0 => opts.scan_interval = std::time::Duration::from_millis(ms),
            _ => {
                eprintln!("--scan-ms wants a positive integer, got `{ms}`");
                return 2;
            }
        }
    }
    let server = match icn_server::CampaignServer::bind(addr, &opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind campaign server on {addr}: {e}");
            return 1;
        }
    };
    if let Some(path) = flag_value(args, "--port-file") {
        // Atomic write: a parent polling the file never reads a torn
        // address.
        if let Err(e) = flexsim::jsonio::durable::write_atomic(
            std::path::Path::new(path),
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
    println!("endpoints: POST /jobs  GET /jobs/:id[/results]  POST /jobs/:id/cancel  GET /stats  GET /incidents  POST /shutdown");
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("forensics") {
        std::process::exit(forensics_main(&args[1..]));
    }
    if args.first().map(String::as_str) == Some("serve") {
        std::process::exit(serve_main(&args[1..]));
    }
    if args.first().map(String::as_str) == Some("chaos") {
        std::process::exit(chaos_main(&args[1..]));
    }
    if args.first().map(String::as_str) == Some("faults") {
        std::process::exit(faults_main(&args[1..]));
    }
    if args.first().map(String::as_str) == Some("validate") {
        std::process::exit(validate_main(&args[1..]));
    }
    let small = args.iter().any(|a| a == "--small");
    let csv = args.iter().any(|a| a == "--csv");
    let json = args.iter().any(|a| a == "--json");
    let scale = if small { Scale::Small } else { Scale::Paper };

    let mut wanted: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .collect();
    if wanted.is_empty() || wanted.iter().any(|w| w == "all") {
        wanted = vec![
            "fig5".into(),
            "fig6".into(),
            "fig7".into(),
            "fig8".into(),
            "degree".into(),
            "traffic".into(),
            "ablate-interval".into(),
            "ablate-victim".into(),
            "ext-hypercube".into(),
            "ext-misroute".into(),
            "ext-hybrid".into(),
        ];
    }

    let mut available = experiments::all(scale);
    available.extend(flexsim::ablations::all(scale));
    available.extend(flexsim::extensions::all(scale));
    let mut pass_all = true;
    for id in &wanted {
        let Some(exp) = available.iter().find(|e| e.id == id) else {
            eprintln!(
                "unknown experiment `{id}` (have: fig5 fig6 fig7 fig8 degree traffic \
                 ablate-interval ablate-victim)"
            );
            std::process::exit(2);
        };
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
            std::fs::write(&path, flexsim::json::sweep_to_json(&results))
                .unwrap_or_else(|e| eprintln!("cannot write {path}: {e}"));
            println!("   wrote {path}");
        }
        println!("{}", experiments::figure_chart(exp, &results).render());
        println!("per-curve saturation / deadlock onset:");
        println!(
            "{}",
            experiments::saturation_summary(exp, &results).render()
        );
        println!("shape checks (paper claims vs measured):");
        let checks = if exp.id.starts_with("ext-") {
            flexsim::extensions::shape_checks(exp, &results)
        } else {
            experiments::shape_checks(exp, &results)
        };
        for c in checks {
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
        std::process::exit(1);
    }
}
