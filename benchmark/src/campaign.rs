//! The two campaign workloads: a `CampaignServer` on a thread of this
//! process, driven over real loopback TCP by one client, one connection
//! at a time (closed loop), against a direct `sweep_supervised` of the
//! same grid.

use std::hint::black_box;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use flexsim::jsonio::{durable, frame_record, parse, scan_records, Json};
use flexsim::{
    checkpoint_line, decode_result, encode_result, sweep_supervised, FaultPlan, RoutingSpec,
    RunConfig, RunResult, SweepOptions, TopologySpec,
};
use icn_server::{
    config_key, http_request, CampaignServer, LeaseDir, ResultCache, ServerOptions, SweepGrid,
};
use icn_sim::SimConfig;

use crate::host::{out_dir, RefKernel};
use crate::outcome::{samples_json, Outcome};
use crate::pins;
use crate::run::derive_seed;
use crate::spec::Kind;
use crate::stats::{median, median_or_zero, percentile, quartiles, tail_percentile};
use crate::trace::Trace;

const LOADS: [f64; 6] = [0.1, 0.3, 0.5, 0.7, 0.9, 1.1];
const SEEDS_PER_LOAD: u64 = 16;
/// Fewest rounds a run measures, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// How often `campaign_cached` sets up (data dir, bind, cache-filling
/// campaign); `setup_s` is the median.
const CACHED_SETUPS: usize = 3;
/// Pause between two polls of `GET /jobs/:id`.
const POLL_PAUSE: Duration = Duration::from_millis(5);
/// Sequential `GET /jobs/:id` requests behind `server.request_ms_*`.
const STATUS_REQUESTS: usize = 120;

/// The campaign grid for `seed`: short 8-ary 2-cube TFAR 1-VC runs, six
/// loads from idle to past saturation, `SEEDS_PER_LOAD` seeds each. Both
/// campaign workloads submit this grid.
pub fn grid(seed: u64) -> SweepGrid {
    let seed = derive_seed(seed, "campaign");
    let base = RunConfig {
        topology: TopologySpec::torus(8, 2, true),
        routing: RoutingSpec::Tfar,
        sim: SimConfig {
            vcs_per_channel: 1,
            ..RunConfig::paper_default().sim
        },
        load: 0.5,
        warmup: 1_000,
        measure: 4_000,
        seed,
        faults: FaultPlan::new(),
        ..RunConfig::paper_default()
    };
    SweepGrid {
        base,
        // Kept below 2^53: the seed axis crosses a JSON document.
        seeds: (0..SEEDS_PER_LOAD).map(|i| (seed >> 12) + i).collect(),
        loads: LOADS.to_vec(),
        timeout_ms: None,
    }
}

/// A campaign data directory under `benchmark/out/`, removed when dropped
/// — on success, failure and unwinding alike.
struct DataDir(PathBuf);

impl DataDir {
    fn new(tag: &str) -> io::Result<DataDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = out_dir().join(format!(
            "data-{}-{tag}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(DataDir(dir))
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A campaign server serving on its own thread until stopped or dropped.
struct Server {
    addr: SocketAddr,
    thread: Option<JoinHandle<io::Result<()>>>,
    asked_to_stop: bool,
    bind_ns: f64,
}

impl Server {
    fn start(dir: &Path) -> io::Result<Server> {
        let start = Instant::now();
        let server = CampaignServer::bind("127.0.0.1:0", &ServerOptions::new(dir))?;
        let bind_ns = start.elapsed().as_nanos() as f64;
        let addr = server.addr();
        let thread = std::thread::Builder::new()
            .name("perfbench-server".into())
            .spawn(move || server.serve())?;
        Ok(Server {
            addr,
            thread: Some(thread),
            asked_to_stop: false,
            bind_ns,
        })
    }

    /// Asks for a graceful shutdown without waiting for it. The server's
    /// heartbeat thread looks at the shutdown latch only every 1.25 s, so
    /// a finished server is asked at once and joined later (see
    /// [`retire`]), while the next round already runs.
    fn ask_stop(&mut self) -> Result<(), String> {
        if std::mem::replace(&mut self.asked_to_stop, true) {
            return Ok(());
        }
        match http_request(self.addr, "POST", "/shutdown", None) {
            Ok((200, _)) => Ok(()),
            other => Err(format!("POST /shutdown: {other:?}")),
        }
    }

    /// Graceful shutdown; waits for the accept loop, the handlers and the
    /// workers to end.
    fn stop(&mut self) -> Result<(), String> {
        let asked = self.ask_stop();
        let Some(thread) = self.thread.take() else {
            return asked;
        };
        match thread.join() {
            Ok(Ok(())) => asked,
            other => Err(format!("serve: {other:?}")),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// The one client. Every request is an operation: a transport error or a
/// status other than 200 fails it.
struct Client<'a> {
    addr: SocketAddr,
    out: &'a mut Outcome,
}

impl Client<'_> {
    fn request(&mut self, method: &str, path: &str, body: Option<&str>) -> Option<String> {
        match http_request(self.addr, method, path, body) {
            Ok((200, body)) => {
                self.out.op(true, String::new);
                Some(body)
            }
            Ok((status, body)) => {
                self.out
                    .op(false, || format!("{method} {path}: {status} {body}"));
                None
            }
            Err(e) => {
                self.out.op(false, || format!("{method} {path}: {e}"));
                None
            }
        }
    }

    fn stats(&mut self) -> Option<(u64, u64)> {
        let v = parse(&self.request("GET", "/stats", None)?).ok()?;
        Some((
            v.get("sims_run")?.as_u64()?,
            v.get("cache")?.get("hits")?.as_u64()?,
        ))
    }
}

/// One served campaign as the client saw it.
struct Served {
    submit_to_done_ns: f64,
    submit_ns: f64,
    first_result_ns: Option<f64>,
    fetch_ns: f64,
    /// The final results body, one checkpoint record per line.
    body: String,
}

/// `POST /jobs`, poll `GET /jobs/:id` until done, `GET /jobs/:id/results`.
/// With a trace, records the client-side spans and also asks for partial
/// results while polling, to see when the first record becomes visible.
fn serve_campaign(
    client: &mut Client<'_>,
    grid_json: &str,
    round: u64,
    mut trace: Option<&mut Trace>,
) -> Option<Served> {
    let start = Instant::now();
    let whole = trace
        .as_mut()
        .map_or(0, |t| t.open("server.submit_to_done", 0, start, round));
    let reply = client.request("POST", "/jobs", Some(grid_json))?;
    let submitted = Instant::now();
    let id = parse(&reply).ok()?.get("id")?.as_u64()?;
    let wait = trace.as_mut().map_or(0, |t| {
        t.push("server.submit", whole, start, submitted, round, false);
        t.open("server.wait", whole, submitted, round)
    });

    let mut first_result = None;
    let deadline = start + Duration::from_secs(150);
    loop {
        let t0 = Instant::now();
        let status = client.request("GET", &format!("/jobs/{id}"), None)?;
        if let Some(t) = trace.as_mut() {
            t.push("server.poll", wait, t0, Instant::now(), round, false);
        }
        if parse(&status).ok()?.get("state")?.as_str()? == "done" {
            break;
        }
        if trace.is_some() && first_result.is_none() {
            let partial = client.request("GET", &format!("/jobs/{id}/results"), None)?;
            if !partial.trim().is_empty() {
                first_result = Some(Instant::now());
            }
        }
        if Instant::now() > deadline {
            client.out.fail(format!("job {id} did not settle in 150 s"));
            return None;
        }
        std::thread::sleep(POLL_PAUSE);
    }
    let polled = Instant::now();
    let body = client.request("GET", &format!("/jobs/{id}/results"), None)?;
    let done = Instant::now();
    if let Some(t) = trace.as_mut() {
        t.close(wait, polled);
        t.push("server.results_fetch", whole, polled, done, round, false);
        t.close(whole, done);
    }
    Some(Served {
        submit_to_done_ns: (done - start).as_nanos() as f64,
        submit_ns: (submitted - start).as_nanos() as f64,
        first_result_ns: Some((first_result.unwrap_or(done) - start).as_nanos() as f64)
            .filter(|_| trace.is_some()),
        fetch_ns: (done - polled).as_nanos() as f64,
        body,
    })
}

/// Decodes a results body into per-slot results (`None` = missing).
fn decode_body(body: &str, n: usize) -> Vec<Option<RunResult>> {
    let mut slots: Vec<Option<RunResult>> = vec![None; n];
    for line in body.lines().filter(|l| !l.trim().is_empty()) {
        let Ok(v) = parse(line) else { continue };
        let index = v.get("index").and_then(Json::as_u64).map(|i| i as usize);
        let result = v.get("result").and_then(|r| decode_result(r).ok());
        if let (Some(i), Some(r)) = (index, result) {
            if i < n {
                slots[i] = Some(r);
            }
        }
    }
    slots
}

/// One operation per config: its served record must exist and carry the
/// digest the direct sweep produced.
fn verify(out: &mut Outcome, body: &str, want: &[String], what: &str) {
    for (i, (got, want)) in decode_body(body, want.len()).iter().zip(want).enumerate() {
        let ok = got.as_ref().is_some_and(|r| r.digest() == *want);
        out.op(ok, || match got {
            Some(_) => format!("{what}: config {i} digest differs from the direct sweep"),
            None => format!("{what}: config {i} has no record"),
        });
    }
}

/// Direct `sweep_supervised` of `configs`; one operation per config.
/// Returns `(wall ns, results)`, or `None` if any config failed.
fn direct_sweep(out: &mut Outcome, configs: &[RunConfig]) -> Option<(f64, Vec<RunResult>)> {
    let start = Instant::now();
    let swept = sweep_supervised(configs, &SweepOptions::default());
    let wall = start.elapsed().as_nanos() as f64;
    let mut results = Vec::with_capacity(swept.len());
    for (i, r) in swept.into_iter().enumerate() {
        match r {
            Ok(r) => {
                out.op(true, String::new);
                results.push(r);
            }
            Err(e) => out.op(false, || format!("direct sweep config {i}: {e}")),
        }
    }
    (results.len() == configs.len()).then_some((wall, results))
}

fn digests(results: &[RunResult]) -> Vec<String> {
    results.iter().map(RunResult::digest).collect()
}

fn simulated_cycles(configs: &[RunConfig]) -> f64 {
    configs.iter().map(|c| (c.warmup + c.measure) as f64).sum()
}

/// What the rounds of one invocation measured.
#[derive(Default)]
struct Rounds {
    direct_ns: Vec<f64>,
    served_ns: Vec<f64>,
    tax: Vec<f64>,
    setup_s: Vec<f64>,
    bind_ns: Vec<f64>,
    submit_ms: Vec<f64>,
    first_result_ms: Vec<f64>,
    fetch_ms: Vec<f64>,
    sims_run: Vec<f64>,
    cache_hits: Vec<f64>,
    /// `RefKernel::loop_ns` over the bursts taken between the rounds.
    ref_loop_ns: f64,
    /// One direct result set and one served body, for the probes.
    results: Vec<RunResult>,
}

/// A serving server and its data directory. Field order is drop order:
/// the server stops before its directory is removed.
struct Live {
    server: Server,
    _dir: DataDir,
}

/// Asks `live` to shut down and parks it in `retired`, to be joined by
/// [`join_retired`] when the rounds are over.
fn retire(out: &mut Outcome, mut live: Live, retired: &mut Vec<Live>) {
    if let Err(e) = live.server.ask_stop() {
        out.fail(e);
    }
    retired.push(live);
}

fn join_retired(out: &mut Outcome, retired: Vec<Live>) {
    for mut live in retired {
        if let Err(e) = live.server.stop() {
            out.fail(e);
        }
    }
}

fn fresh_server(tag: &str) -> Result<Live, String> {
    let dir = DataDir::new(tag).map_err(|e| format!("data dir: {e}"))?;
    let server = Server::start(dir.path()).map_err(|e| format!("bind: {e}"))?;
    Ok(Live { server, _dir: dir })
}

/// `campaign_cold`: each round is one direct sweep, then one served
/// campaign on a fresh server and data directory — interleaved in one
/// process, so their ratio is machine-normalised.
fn cold_rounds(
    out: &mut Outcome,
    seed: u64,
    budget: Duration,
    mut trace: Option<&mut Trace>,
) -> Rounds {
    let grid = grid(seed);
    let configs = grid.expand();
    let grid_json = grid.to_json().to_string();
    let mut rounds = Rounds::default();
    let mut retired = Vec::new();
    let mut kernel = RefKernel::new();
    let started = Instant::now();
    while rounds.served_ns.len() < MIN_ROUNDS || started.elapsed() < budget {
        let round = rounds.served_ns.len() as u64;
        kernel.burst();
        // A round's set-up is everything before its timed `POST /jobs`:
        // the direct sweep that yields the digests the served records are
        // checked against, the data dir, and `bind`. (Data dir + bind alone
        // are half a millisecond of mkdir and thread spawns whose median
        // doubles from one process to the next; `server.bind_ns` reports
        // them on their own.)
        let round_started = Instant::now();
        let Some((direct_ns, results)) = direct_sweep(out, &configs) else {
            break;
        };
        let want = digests(&results);
        if rounds.results.is_empty() {
            pins::check(out, "campaign_cold", seed, &want.concat());
            rounds.results = results;
        }
        let live = match fresh_server("cold") {
            Ok(live) => live,
            Err(e) => {
                out.fail(e);
                break;
            }
        };
        let setup_s = round_started.elapsed().as_secs_f64();
        let mut client = Client {
            addr: live.server.addr,
            out: &mut *out,
        };
        let served = serve_campaign(&mut client, &grid_json, round, trace.as_deref_mut());
        let stats = client.stats();
        let Some(served) = served else { break };
        verify(out, &served.body, &want, "campaign_cold");
        let (sims, hits) = stats.unwrap_or((u64::MAX, u64::MAX));
        if sims != configs.len() as u64 || hits != 0 {
            out.fail(format!(
                "cold round simulated {sims} of {} configs with {hits} cache hits",
                configs.len()
            ));
        }
        rounds.direct_ns.push(direct_ns);
        rounds.served_ns.push(served.submit_to_done_ns);
        rounds.tax.push(served.submit_to_done_ns / direct_ns);
        rounds.setup_s.push(setup_s);
        rounds.bind_ns.push(live.server.bind_ns);
        retire(out, live, &mut retired);
        rounds.submit_ms.push(served.submit_ns / 1e6);
        rounds
            .first_result_ms
            .extend(served.first_result_ns.map(|ns| ns / 1e6));
        rounds.fetch_ms.push(served.fetch_ns / 1e6);
        rounds.sims_run.push(sims as f64);
        rounds.cache_hits.push(hits as f64);
    }
    kernel.burst();
    rounds.ref_loop_ns = kernel.loop_ns();
    join_retired(out, retired);
    rounds
}

/// A warm server for `campaign_cached` and what it took to set up, in
/// seconds: data dir, bind and the untimed cache-filling campaign, which
/// is verified against `want`.
fn warm_server(out: &mut Outcome, grid_json: &str, want: &[String]) -> Option<(Live, f64)> {
    let start = Instant::now();
    let live = match fresh_server("cached") {
        Ok(live) => live,
        Err(e) => {
            out.fail(e);
            return None;
        }
    };
    let mut client = Client {
        addr: live.server.addr,
        out: &mut *out,
    };
    let filled = serve_campaign(&mut client, grid_json, 0, None)?;
    let setup_s = start.elapsed().as_secs_f64();
    verify(out, &filled.body, want, "cache fill");
    Some((live, setup_s))
}

/// `campaign_cached`: the grid is run once untimed on a warm server, then
/// resubmitted round after round — zero simulations, every config a cache
/// hit. With a trace it also times `STATUS_REQUESTS` sequential
/// `GET /jobs/:id` and 50 `GET /stats`.
fn cached_rounds(
    out: &mut Outcome,
    seed: u64,
    budget: Duration,
    mut trace: Option<&mut Trace>,
) -> (Rounds, Vec<f64>, Vec<f64>) {
    let grid = grid(seed);
    let configs = grid.expand();
    let grid_json = grid.to_json().to_string();
    let mut rounds = Rounds::default();
    let (mut status_ms, mut stats_ms) = (Vec::new(), Vec::new());
    let Some((direct_ns, results)) = direct_sweep(out, &configs) else {
        return (rounds, status_ms, stats_ms);
    };
    let want = digests(&results);
    pins::check(out, "campaign_cached", seed, &want.concat());
    rounds.direct_ns.push(direct_ns);
    rounds.results = results;

    // Set up several times; the last warm server is the one measured.
    let setups = if trace.is_some() { 1 } else { CACHED_SETUPS };
    let mut warm: Option<Live> = None;
    let mut retired = Vec::new();
    for _ in 0..setups {
        if let Some(previous) = warm.take() {
            retire(out, previous, &mut retired);
        }
        let Some((live, setup_s)) = warm_server(out, &grid_json, &want) else {
            return (rounds, status_ms, stats_ms);
        };
        rounds.setup_s.push(setup_s);
        rounds.bind_ns.push(live.server.bind_ns);
        warm = Some(live);
    }
    let live = warm.expect("at least one set-up");

    let mut kernel = RefKernel::new();
    let mut client = Client {
        addr: live.server.addr,
        out: &mut *out,
    };
    let started = Instant::now();
    while rounds.served_ns.len() < MIN_ROUNDS || started.elapsed() < budget {
        let round = rounds.served_ns.len() as u64;
        kernel.burst();
        let before = client.stats();
        let served = serve_campaign(&mut client, &grid_json, round, trace.as_deref_mut());
        let after = client.stats();
        let (Some(served), Some(before), Some(after)) = (served, before, after) else {
            break;
        };
        verify(client.out, &served.body, &want, "campaign_cached");
        let (sims, hits) = (after.0 - before.0, after.1 - before.1);
        if sims != 0 || hits != configs.len() as u64 {
            client.out.fail(format!(
                "cached round simulated {sims} configs and hit the cache {hits} of {} times",
                configs.len()
            ));
        }
        rounds.served_ns.push(served.submit_to_done_ns);
        rounds.submit_ms.push(served.submit_ns / 1e6);
        rounds
            .first_result_ms
            .extend(served.first_result_ns.map(|ns| ns / 1e6));
        rounds.fetch_ms.push(served.fetch_ns / 1e6);
        rounds.sims_run.push(sims as f64);
        rounds.cache_hits.push(hits as f64);
    }
    if trace.is_some() {
        for _ in 0..STATUS_REQUESTS {
            let t = Instant::now();
            if client.request("GET", "/jobs/1", None).is_none() {
                break;
            }
            status_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        for _ in 0..50 {
            let t = Instant::now();
            if client.stats().is_none() {
                break;
            }
            stats_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    kernel.burst();
    rounds.ref_loop_ns = kernel.loop_ns();
    retired.push(live);
    join_retired(out, retired);
    (rounds, status_ms, stats_ms)
}

/// Untraced measurement: the end-to-end metrics.
pub fn measure(kind: Kind, seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome::default();
    let budget = Duration::from_secs(seconds);
    let rounds = match kind {
        Kind::CampaignCold => cold_rounds(&mut out, seed, budget, None),
        Kind::CampaignCached => cached_rounds(&mut out, seed, budget, None).0,
        Kind::Run => unreachable!("run workloads live in run.rs"),
    };
    if rounds.served_ns.is_empty() || rounds.setup_s.is_empty() {
        return out;
    }
    // A round is one number, quantised by the server's 25 ms accept-loop
    // sleep, so its fastest instance is a matter of luck: the quiet-host
    // round is the lower quartile, not the minimum a run workload takes
    // slice by slice.
    out.set_end_to_end(
        simulated_cycles(&grid(seed).expand()),
        quartiles(&rounds.served_ns).0,
        &rounds.served_ns,
        rounds.ref_loop_ns,
        &rounds.setup_s,
    );
    out
}

/// Times `f` `n` times and returns the median in nanoseconds.
fn median_ns<T>(n: usize, mut f: impl FnMut(usize) -> T) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|i| {
            let t = Instant::now();
            black_box(f(i));
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median_or_zero(&samples)
}

/// Stand-alone probes of the layers a campaign config passes through, on
/// the workload's own grid and results, in a scratch data directory on
/// the same filesystem (real fsync).
fn layer_probes(out: &mut Outcome, seed: u64, results: &[RunResult]) -> io::Result<()> {
    let grid = grid(seed);
    let configs = grid.expand();
    let grid_json = grid.to_json().to_string();
    let scratch = DataDir::new("probe")?;
    let n = results.len().min(48);

    let lines: Vec<String> = results
        .iter()
        .zip(&configs)
        .enumerate()
        .map(|(i, (r, c))| checkpoint_line(i, &c.label(), r))
        .collect();
    let kb = lines.iter().map(String::len).sum::<usize>() as f64 / 1024.0;
    out.set(
        "core.result_encode_ns",
        median_ns(results.len(), |i| encode_result(&results[i]).to_string()),
    );
    let parse_total: f64 = lines
        .iter()
        .map(|l| {
            let t = Instant::now();
            black_box(parse(l).is_ok());
            t.elapsed().as_nanos() as f64
        })
        .sum();
    out.set("core.json_parse_ns_per_kb", parse_total / kb);
    out.set(
        "core.result_decode_ns",
        median_ns(lines.len(), |i| {
            parse(&lines[i])
                .ok()
                .and_then(|v| v.get("result").map(decode_result))
        }),
    );

    let ckpt = scratch.path().join("probe.ckpt.jsonl");
    let mut failed: Option<io::Error> = None;
    out.set(
        "core.checkpoint_append_ns",
        median_ns(n, |i| {
            if let Err(e) = durable::append_line(&ckpt, &frame_record(&lines[i])) {
                failed = Some(e);
            }
        }),
    );
    let text = std::fs::read_to_string(&ckpt)?;
    out.set(
        "core.checkpoint_scan_ns",
        median_ns(5, |_| scan_records(&text).values.len()),
    );
    let payload = encode_result(&results[0]).to_string();
    out.set(
        "core.write_atomic_ns",
        median_ns(n, |i| {
            let dest = scratch.path().join(format!("atomic-{i}.json"));
            if let Err(e) = durable::write_atomic(&dest, payload.as_bytes()) {
                failed = Some(e);
            }
        }),
    );

    out.set(
        "server.grid_parse_ns",
        median_ns(20, |_| SweepGrid::from_json(&grid_json).map(|g| g.expand())),
    );
    out.set(
        "server.config_key_ns",
        median_ns(configs.len(), |i| config_key(&configs[i])),
    );
    let cache = ResultCache::open(scratch.path().join("cache"))?;
    out.set(
        "server.cache_store_ns",
        median_ns(n, |i| {
            if let Err(e) = cache.store(&configs[i], &results[i]) {
                failed = Some(e);
            }
        }),
    );
    let mut missed = 0usize;
    out.set(
        "server.cache_lookup_ns",
        median_ns(n, |i| {
            let hit = cache.lookup(&configs[i]);
            missed += usize::from(hit.is_none());
            hit
        }),
    );
    out.op(missed == 0, || {
        format!("{missed} of {n} stored results missed the cache")
    });
    let leases = LeaseDir::open(scratch.path().join("leases"), Duration::from_secs(5))?;
    // A config pays acquire + release; renew is the heartbeat's, once per
    // lease and quarter expiry window. The metric is the whole cycle, the
    // ledger's per-config column uses acquire + release only.
    let (mut cycle_ns, mut per_config_ns) = (Vec::new(), Vec::new());
    for i in 0..30 {
        let t0 = Instant::now();
        match leases.try_acquire(1, i) {
            Ok(Some(mut acquired)) => {
                let t1 = Instant::now();
                if let Err(e) = leases.renew(&mut acquired.lease) {
                    failed = Some(e);
                }
                let t2 = Instant::now();
                leases.release(acquired.lease);
                let t3 = Instant::now();
                cycle_ns.push((t3 - t0).as_nanos() as f64);
                per_config_ns.push(((t1 - t0) + (t3 - t2)).as_nanos() as f64);
            }
            Ok(None) => failed = Some(io::Error::other("lease already held")),
            Err(e) => failed = Some(e),
        }
    }
    out.set("server.lease_cycle_ns", median_or_zero(&cycle_ns));
    out.detail(
        "lease_acquire_release_ns",
        Json::F64(median_or_zero(&per_config_ns)),
    );
    failed.map_or(Ok(()), Err)
}

/// Traced measurement: the per-layer metrics.
pub fn trace(kind: Kind, name: &str, seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome::default();
    let mut trace = Trace::new();
    let budget = Duration::from_secs_f64(seconds as f64 / 2.0);
    let (rounds, status_ms, stats_ms) = match kind {
        Kind::CampaignCold => (
            cold_rounds(&mut out, seed, budget, Some(&mut trace)),
            Vec::new(),
            Vec::new(),
        ),
        Kind::CampaignCached => cached_rounds(&mut out, seed, budget, Some(&mut trace)),
        Kind::Run => unreachable!("run workloads live in run.rs"),
    };
    if rounds.served_ns.is_empty() {
        return out;
    }
    let configs = grid(seed).expand();
    let n = configs.len() as f64;
    let served_s = median(&rounds.served_ns) / 1e9;
    out.set("server.submit_to_done_s", served_s);
    out.set("server.configs_per_s", n / served_s);
    out.set("server.bind_ns", median_or_zero(&rounds.bind_ns));
    out.set("server.submit_ms", median_or_zero(&rounds.submit_ms));
    out.set(
        "server.first_result_ms",
        median_or_zero(&rounds.first_result_ms),
    );
    out.set("server.results_fetch_ms", median_or_zero(&rounds.fetch_ms));
    out.set("server.sims_run", median_or_zero(&rounds.sims_run));
    out.set("server.cache_hits", median_or_zero(&rounds.cache_hits));
    out.set("host.ref_kernel_ns", rounds.ref_loop_ns);
    out.set(
        "host.wall_cycles_per_s",
        simulated_cycles(&configs) / served_s,
    );
    if kind == Kind::CampaignCold {
        let direct_s = median(&rounds.direct_ns) / 1e9;
        out.set("core.sweep_direct_s", direct_s);
        out.set("core.sweep_configs_per_s", n / direct_s);
        out.set("server.service_tax_ratio", median(&rounds.tax));
        // The server's HTTP cost shows in every poll of a campaign.
        let polls: Vec<f64> = trace
            .spans
            .iter()
            .filter(|s| s.name == "server.poll")
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect();
        out.set("server.http_roundtrip_ms", median_or_zero(&polls));
    } else {
        out.set("server.http_roundtrip_ms", median_or_zero(&stats_ms));
        out.set("server.request_ms_p50", median_or_zero(&status_ms));
        // p90 is the highest percentile with ten samples beyond it here.
        if tail_percentile(status_ms.len()).is_some_and(|p| p >= 0.9) {
            out.set("server.request_ms_p90", percentile(&status_ms, 0.9));
        }
        out.detail("request_ms_samples", samples_json(&status_ms));
    }
    if let Err(e) = layer_probes(&mut out, seed, &rounds.results) {
        out.fail(format!("layer probes: {e}"));
    }

    // The client's spans must account for submit-to-done.
    let covered = trace.total_ns("server.submit")
        + trace.total_ns("server.wait")
        + trace.total_ns("server.results_fetch");
    let whole = trace.total_ns("server.submit_to_done").max(1);
    out.set("core.top_span_coverage", covered as f64 / whole as f64);
    let path = out_dir().join(format!("trace_{name}.jsonl"));
    if let Err(e) = trace.write_jsonl(&path, name, 0) {
        out.fail(format!("writing {}: {e}", path.display()));
    }
    out.detail("trace_file", Json::Str(format!("out/trace_{name}.jsonl")));
    out.detail("rounds", Json::U64(rounds.served_ns.len() as u64));
    out
}
