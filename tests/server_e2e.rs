//! End-to-end campaign-server tests over a real TCP socket.
//!
//! These are the acceptance criteria of the campaign-server subsystem:
//!
//! 1. A multi-config grid submitted over HTTP polls to completion and
//!    every streamed result is digest-identical to a direct
//!    `sweep_supervised` on the same grid.
//! 2. A server killed mid-job (graceful shutdown before the queue
//!    drains, plus a torn final checkpoint line) resumes from its
//!    checkpoints on restart and converges to the same digests.
//! 3. Resubmitting an identical grid completes with zero simulations —
//!    pure cache hits, verified through `GET /stats`.
//! 4. The checkpoint is read incrementally: settling an N-config job
//!    reads O(file) bytes, not O(N × file).
//! 5. A client that stalls mid-request is answered 408 and pins no
//!    handler.
//! 6. Cache hits settle at submit: a cached config takes no lease and
//!    no worker, its record is in the checkpoint the job is born with,
//!    and a checkpoint no grid names is never read.
//! 7. A slot is `done` only once its record is durable: a failed
//!    checkpoint append fails the slot, and a restart settles it.
//! 8. A cancel applies its marker through the one reconcile step: a
//!    record already in the checkpoint is kept, and only a lease holder
//!    appends — a `cancelled` record for each slot it settles, so a slot
//!    reads the same in every server life.
//! 9. A body nested past the parser's bound, or asking for a network too
//!    large to allocate, is a 400 and the server keeps serving.
//! 10. A grid file that does not parse yet is no job, and is read again
//!     on every scan until it parses.
//!
//! Everything runs on an ephemeral 127.0.0.1 port; no network egress.

use std::path::Path;
use std::time::{Duration, Instant};

use deadlock_characterization::flexsim::jsonio::{
    durable, frame_record, parse, scan_records, Json,
};
use deadlock_characterization::flexsim::{
    checkpoint_line, sweep_supervised, RoutingSpec, RunConfig, SweepOptions,
};
use deadlock_characterization::icn_topology::NodeId;
use deadlock_characterization::icn_traffic::Pattern;
use deadlock_characterization::server::{
    http_request, Client, LeaseDir, ResultCache, ServerOptions, SweepGrid,
};
use icn_bench::{
    checkpoint_path, direct_digests, full_line_count, garble_last_record, same, scratch_dir,
    settles_to, short_grid, wait_lines,
};

mod common;
use common::result_indices;

/// How long any job in this file may take to settle.
const SETTLE: Duration = Duration::from_secs(300);

/// A grid small enough to finish in seconds but wide enough to spread
/// across workers: 2 loads × 2 seeds.
fn test_grid() -> SweepGrid {
    short_grid(vec![21, 22], vec![0.15, 0.25])
}

type Served = std::thread::JoinHandle<std::io::Result<()>>;

fn start_server(data_dir: &Path, workers: usize) -> (Client, Served) {
    let mut opts = ServerOptions::new(data_dir);
    opts.workers = workers;
    Client::serve_local(&opts).expect("bind")
}

fn shutdown(client: Client, handle: Served) {
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("serve");
}

/// Writes `grid` as job `id`'s grid file, so the next server start finds
/// the job on disk instead of having it submitted: no submit-time cache
/// pass, every config goes through a worker.
fn plant_job(data_dir: &Path, id: u64, grid: &SweepGrid) {
    let jobs = data_dir.join("jobs");
    std::fs::create_dir_all(&jobs).unwrap();
    std::fs::write(
        jobs.join(format!("job-{id}.json")),
        grid.to_json().to_string(),
    )
    .unwrap();
}

/// The cache's properties on a fresh server: a first submission of `grid`
/// simulates every config and streams digests identical to `want` (the
/// direct sweep); an identical resubmission settles every slot from the
/// cache with the same digests and not one new simulation.
fn resubmission_storyline(client: Client, grid: &SweepGrid, want: &[String]) -> Result<(), String> {
    let n = want.len() as u64;
    let count = |status: &Json, key: &str| status.get(key).and_then(Json::as_u64);

    let first = settles_to(client, client.submit(grid)?, want)?;
    same(
        "first submission: completed",
        count(&first, "completed"),
        Some(n),
    )?;
    same("first submission: failed", count(&first, "failed"), Some(0))?;
    same("first submission: sims_run", client.stat(&["sims_run"])?, n)?;

    let second = settles_to(client, client.submit(grid)?, want)?;
    same(
        "resubmission: cached slots",
        count(&second, "cached"),
        Some(n),
    )?;
    same("resubmission: sims_run", client.stat(&["sims_run"])?, n)?;
    let hits = client.stat(&["cache", "hits"])?;
    same(
        &format!("resubmission: {hits} cache hits cover {n} slots"),
        hits >= n,
        true,
    )
}

/// Criteria 1 and 3 are [`resubmission_storyline`].
#[test]
fn http_grid_matches_direct_sweep_and_resubmission_hits_cache() {
    let dir = scratch_dir("e2e-grid");
    let grid = test_grid();
    let want = direct_digests(&grid).expect("direct sweep");
    let (client, handle) = start_server(&dir, 3);
    resubmission_storyline(client, &grid, &want).expect("served == direct, resubmission cached");
    shutdown(client, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Shard counts must not fragment the content-addressed cache: the
/// engine is digest-identical at any shard count, so a grid resubmitted
/// at different `shards` settings is answered entirely from cache. This
/// holds on serial builds too — the normalization is config-level, not
/// engine-level.
#[test]
fn resubmission_at_different_shard_counts_hits_cache() {
    let dir = scratch_dir("e2e-shards");
    let grid = test_grid();
    let want = direct_digests(&grid).expect("direct sweep");
    let n = want.len() as u64;
    let (client, handle) = start_server(&dir, 3);

    // The flat engine simulates everything once (and caches it).
    resubmission_storyline(client, &grid, &want).expect("flat engine");

    // Same grid at different shard counts — pure cache hits, zero new
    // simulations, identical results.
    for shards in [2, 4, 8] {
        let mut regrid = grid.clone();
        regrid.base.shards = shards;
        let id = client.submit(&regrid).expect("submit");
        let status = settles_to(client, id, &want).expect("same results");
        assert_eq!(
            status.get("cached").and_then(Json::as_u64),
            Some(n),
            "shards={shards} should be answered from cache: {status:?}"
        );
        assert_eq!(
            client.stat(&["sims_run"]).unwrap(),
            n,
            "shards={shards} must not run new simulations"
        );
    }
    assert!(client.stat(&["cache", "hits"]).unwrap() >= 4 * n);

    shutdown(client, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_server_resumes_from_checkpoints_digest_exact() {
    let dir = scratch_dir("e2e-resume");
    let grid = test_grid();
    let want = direct_digests(&grid).expect("direct sweep");

    // Life 1: a single slow worker; shut down as soon as the first result
    // lands, leaving the rest of the queue abandoned (the in-flight unit
    // finishes and checkpoints — that is the graceful contract).
    let (client, handle) = start_server(&dir, 1);
    let id = client.submit(&grid).expect("submit");
    let ckpt = checkpoint_path(&dir, id);
    wait_lines(&ckpt, 1, SETTLE).expect("a first checkpoint record");
    shutdown(client, handle);

    // Simulate the hard-kill signature on top: tear the final checkpoint
    // line in half (no trailing newline). The torn slot must re-run.
    let text = std::fs::read_to_string(&ckpt).expect("checkpoint exists");
    let full_lines = text.lines().filter(|l| !l.trim().is_empty()).count();
    assert!(full_lines >= 1, "shutdown flushed at least one result");
    // Drop the trailing newline and the last 10 bytes of the final line:
    // an unparseable fragment with no newline, exactly what a writer
    // killed mid-append leaves behind.
    let body = text.trim_end();
    std::fs::write(&ckpt, &body[..body.len() - 10]).unwrap();

    // Life 2: recovery re-expands the grid, restores what survived,
    // reruns the rest, and converges to the same digests.
    let (client2, handle2) = start_server(&dir, 3);
    let status = settles_to(client2, id, &want).expect("converges to the direct sweep");
    assert_eq!(
        status.get("completed").and_then(Json::as_u64),
        Some(want.len() as u64),
        "resumed job completes every slot: {status:?}"
    );
    let ckpt_report = status
        .get("checkpoint")
        .expect("status carries checkpoint accounting");
    assert_eq!(
        ckpt_report.get("torn_tail").and_then(Json::as_bool),
        Some(true),
        "the torn line must be detected and surfaced: {status:?}"
    );
    assert!(
        client2.stat(&["jobs", "resumed"]).unwrap() >= 1,
        "recovery counts the resumed job"
    );
    shutdown(client2, handle2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `GET /jobs/:id/results` is valid *while the job runs*: the stream
/// holds only whole verified records and the `X-Job-Complete` header
/// distinguishes a partial snapshot from the final word. `POST
/// /jobs/:id/cancel` settles every not-yet-finished slot terminally.
#[test]
fn partial_results_stream_whole_lines_and_cancel_settles_job() {
    let dir = scratch_dir("e2e-cancel");
    let mut grid = test_grid();
    // Enough configs that one worker cannot finish them within the two
    // request round-trips below, however fast a config runs.
    grid.seeds = (21..=60).collect();
    let n = grid.expand().len();
    let (client, handle) = start_server(&dir, 1);
    let id = client.submit(&grid).expect("submit");

    // Early fetch: the job is still running, so the header must say the
    // stream is partial — and every line it does carry parses, indexes a
    // slot and decodes (the client refuses anything less).
    let (complete, _) = client
        .result_digests(id, n)
        .expect("a partial stream holds only whole records");
    assert!(!complete, "job cannot be done yet");

    let (status, body) =
        http_request(client.addr, "POST", &format!("/jobs/{id}/cancel"), None).expect("cancel");
    assert_eq!(status, 200, "cancel failed: {body}");
    let v = parse(&body).unwrap();
    assert_eq!(v.get("cancelled").and_then(Json::as_bool), Some(true));

    let status = client.wait_done(id, SETTLE).expect("settles");
    let completed = status.get("completed").and_then(Json::as_u64).unwrap();
    let cancelled = status.get("cancelled").and_then(Json::as_u64).unwrap();
    assert_eq!(
        completed + cancelled,
        n as u64,
        "every slot settles as completed or cancelled: {status:?}"
    );
    assert!(
        cancelled >= 1,
        "something was actually cancelled: {status:?}"
    );
    assert_eq!(status.get("failed").and_then(Json::as_u64), Some(0));

    // The final stream carries exactly the completed slots' records and
    // declares itself complete.
    let (complete, digests) = client.result_digests(id, n).expect("final stream");
    assert!(complete);
    assert_eq!(
        digests.iter().filter(|d| !d.is_empty()).count() as u64,
        completed,
        "one result record per completed slot"
    );

    // The durable cancel marker exists — a restarted or sibling server
    // would see the decision.
    assert!(dir
        .join("jobs")
        .join(format!("job-{id}.ckpt.cancel"))
        .exists());

    shutdown(client, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A grid `timeout_ms` marks overrunning configs `timed_out` — a
/// terminal state that survives a server restart without re-running.
#[test]
fn per_config_timeout_is_terminal_across_restarts() {
    let dir = scratch_dir("e2e-timeout");
    let mut base = RunConfig::small_default();
    base.warmup = 200;
    base.measure = 50_000; // far more cycles than 1 ms allows
    let grid = SweepGrid {
        base,
        seeds: vec![5],
        loads: vec![0.3],
        timeout_ms: Some(1),
    };

    let (client, handle) = start_server(&dir, 1);
    let id = client.submit(&grid).expect("submit");
    let status = client.wait_done(id, SETTLE).expect("settles");
    assert_eq!(
        status.get("cancelled").and_then(Json::as_u64),
        Some(1),
        "the config must time out: {status:?}"
    );
    let slots = status.get("slots").and_then(Json::as_arr).unwrap();
    assert_eq!(slots[0].as_str(), Some("timed_out"));
    shutdown(client, handle);

    // Life 2: the timed-out slot is restored from its status record, not
    // re-run — the job is settled immediately.
    let (client2, handle2) = start_server(&dir, 1);
    let status2 = client2.wait_done(id, SETTLE).expect("settles");
    let slots2 = status2.get("slots").and_then(Json::as_arr).unwrap();
    assert_eq!(
        slots2[0].as_str(),
        Some("timed_out"),
        "terminal: {status2:?}"
    );
    assert_eq!(client2.stat(&["sims_run"]).unwrap(), 0, "nothing re-ran");
    shutdown(client2, handle2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A verdict whose checkpoint append fails is not `done`: the slot fails
/// (memory-only, so the tail stays live) instead of settling a job whose
/// records never reached disk. Once the checkpoint is writable again a
/// restart retries every slot, and the results stored in the cache before
/// the failed appends make each retry a lookup.
#[test]
fn failed_checkpoint_append_fails_the_slot_and_a_restart_settles_it() {
    let dir = scratch_dir("e2e-append-fails");
    let grid = test_grid();
    let want = direct_digests(&grid).expect("direct sweep");
    let n = want.len() as u64;
    let id = 1;
    plant_job(&dir, id, &grid);
    // A directory where the checkpoint belongs: every append fails with
    // EISDIR.
    let ckpt = checkpoint_path(&dir, id);
    std::fs::create_dir(&ckpt).unwrap();

    let (client, handle) = start_server(&dir, 2);
    let status = client.wait_done(id, SETTLE).expect("settles");
    assert_eq!(
        status.get("failed").and_then(Json::as_u64),
        Some(n),
        "{status:?}"
    );
    assert_eq!(
        status.get("completed").and_then(Json::as_u64),
        Some(0),
        "{status:?}"
    );
    let slots = status.get("slots").and_then(Json::as_arr).unwrap();
    assert!(
        slots[0]
            .as_str()
            .is_some_and(|s| s.starts_with("failed: checkpoint append failed")),
        "{status:?}"
    );
    assert_eq!(client.stat(&["sims_run"]).unwrap(), n);
    shutdown(client, handle);

    std::fs::remove_dir(&ckpt).unwrap();
    let (client2, handle2) = start_server(&dir, 2);
    let status = settles_to(client2, id, &want).expect("a restart settles every slot");
    assert_eq!(status.get("completed").and_then(Json::as_u64), Some(n));
    assert_eq!(status.get("cached").and_then(Json::as_u64), Some(n));
    assert_eq!(client2.stat(&["sims_run"]).unwrap(), 0, "nothing re-ran");
    shutdown(client2, handle2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cancel that lands after a sibling's record keeps that record: the
/// slot it settles is `done:restored`, in this life and the next, and the
/// cancel appends nothing itself. Each status line in the checkpoint is
/// written by a lease holder: first for the run the cancel stopped, then
/// for the queued index, which the worker leases and records `cancelled`
/// without running it. The job is found on disk (no submit-time pass),
/// one worker takes the last index first, and the scanner sleeps
/// throughout, so only the cancel endpoint's own reconcile step sees the
/// record.
#[test]
fn cancel_keeps_a_sibling_record_and_appends_only_under_a_lease() {
    let dir = scratch_dir("e2e-cancel-sibling");
    let mut grid = short_grid(vec![1, 2, 3], vec![0.3]);
    // Far longer than the test: the run ends only by being cancelled.
    grid.base.measure = 100_000_000;
    let configs = grid.expand();
    let id = 1;
    plant_job(&dir, id, &grid);
    let mut opts = ServerOptions::new(&dir);
    opts.workers = 1;
    opts.scan_interval = Duration::from_secs(600);

    let (client, handle) = Client::serve_local(&opts).expect("bind");
    let slots = |client: Client| {
        let (code, body) = http_request(client.addr, "GET", &format!("/jobs/{id}"), None).unwrap();
        assert_eq!(code, 200, "{body}");
        let v = parse(&body).unwrap();
        v.get("slots").and_then(Json::as_arr).unwrap().to_vec()
    };
    let deadline = Instant::now() + SETTLE;
    while slots(client)[2].as_str() != Some("running") {
        assert!(Instant::now() < deadline, "index 2 never started");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Index 0's record, as a sibling holding its lease would append it.
    let sibling = sweep_supervised(&short_grid(vec![99], vec![0.3]).expand(), &SweepOptions)
        .remove(0)
        .expect("direct run");
    let ckpt = checkpoint_path(&dir, id);
    let line = checkpoint_line(0, &configs[0].label(), &sibling);
    durable::append_line(&ckpt, &frame_record(&line)).unwrap();

    let (code, body) =
        http_request(client.addr, "POST", &format!("/jobs/{id}/cancel"), None).unwrap();
    assert_eq!(code, 200, "{body}");

    let check_life = |client: Client| {
        let status = client.wait_done(id, SETTLE).expect("settles");
        let slots = status.get("slots").and_then(Json::as_arr).unwrap();
        assert_eq!(slots[0].as_str(), Some("done:restored"), "{status:?}");
        assert_eq!(slots[1].as_str(), Some("cancelled"), "{status:?}");
        let completed = status.get("completed").and_then(Json::as_u64).unwrap();
        let cancelled = status.get("cancelled").and_then(Json::as_u64).unwrap();
        assert_eq!(completed + cancelled, 3, "{status:?}");
        let (complete, digests) = client.result_digests(id, 3).expect("results");
        assert!(complete);
        let streamed: Vec<&String> = digests.iter().filter(|d| !d.is_empty()).collect();
        assert_eq!(streamed.len() as u64, completed, "{digests:?}");
        assert_eq!(digests[0], sibling.digest());
        // The sibling's record, then the status lines of the two indices
        // this process leased, in the order it leased them.
        assert_eq!(record_indices(&ckpt), [0, 2, 1]);
    };
    check_life(client);
    assert_eq!(client.stat(&["leases_acquired"]).unwrap(), 2);
    assert_eq!(client.stat(&["sims_run"]).unwrap(), 1, "index 1 never ran");
    shutdown(client, handle);

    let (client2, handle2) = Client::serve_local(&opts).expect("bind");
    check_life(client2);
    assert_eq!(work_counters(client2), [0, 0, 0], "nothing re-ran");
    shutdown(client2, handle2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A sibling holds index 0's lease when the cancel lands, and appends its
/// result afterwards. The cancel settles no slot by itself, so index 0
/// waits for that record and reads `done:restored` in this life and the
/// next. The test is the
/// sibling: it holds the lease through its own [`LeaseDir`] on the shared
/// data dir, with an expiry far longer than the test. One worker runs
/// index 2 until the cancel stops it, then leases index 1 and records it
/// `cancelled` without running it, then loses index 0's lease race until
/// the sibling releases it.
#[test]
fn a_sibling_record_after_a_cancel_reads_the_same_in_both_lives() {
    let dir = scratch_dir("e2e-late-sibling");
    let mut grid = short_grid(vec![1, 2, 3], vec![0.3]);
    // Far longer than the test: the run ends only by being cancelled.
    grid.base.measure = 100_000_000;
    let configs = grid.expand();
    let id = 1;
    plant_job(&dir, id, &grid);
    let mut opts = ServerOptions::new(&dir);
    opts.workers = 1;
    opts.lease_expiry = Duration::from_secs(600);
    opts.scan_interval = Duration::from_millis(50);
    let sibling = LeaseDir::open(dir.join("leases"), opts.lease_expiry).unwrap();
    let lease = sibling
        .try_acquire(id, 0)
        .unwrap()
        .expect("the sibling leases index 0 first");

    let (client, handle) = Client::serve_local(&opts).expect("bind");
    let slot = |client: Client, i: usize| {
        let (code, body) = http_request(client.addr, "GET", &format!("/jobs/{id}"), None).unwrap();
        assert_eq!(code, 200, "{body}");
        let v = parse(&body).unwrap();
        let slots = v.get("slots").and_then(Json::as_arr).unwrap();
        slots[i].as_str().unwrap().to_string()
    };
    let wait_slot = |client: Client, i: usize, want: &str| {
        let deadline = Instant::now() + SETTLE;
        while slot(client, i) != want {
            assert!(Instant::now() < deadline, "index {i} never read {want}");
            std::thread::sleep(Duration::from_millis(20));
        }
    };
    wait_slot(client, 2, "running");
    // A slot reads `running` from its claim on, before the lease and the
    // run start; a cancel in that window records index 2 without a run.
    // Cancel only once the run has started.
    let deadline = Instant::now() + SETTLE;
    while client.stat(&["sims_run"]).unwrap() != 1 {
        assert!(Instant::now() < deadline, "index 2's run never started");
        std::thread::sleep(Duration::from_millis(20));
    }
    let (code, body) =
        http_request(client.addr, "POST", &format!("/jobs/{id}/cancel"), None).unwrap();
    assert_eq!(code, 200, "{body}");
    wait_slot(client, 1, "cancelled");
    let waiting = slot(client, 0);
    assert!(
        waiting == "pending" || waiting == "running",
        "the cancel settles nothing: index 0 reads {waiting}"
    );

    // The sibling's run ends after the cancel: its record, then the
    // release.
    let result = sweep_supervised(&short_grid(vec![99], vec![0.3]).expand(), &SweepOptions)
        .remove(0)
        .expect("direct run");
    let ckpt = checkpoint_path(&dir, id);
    let line = checkpoint_line(0, &configs[0].label(), &result);
    durable::append_line(&ckpt, &frame_record(&line)).unwrap();
    sibling.release(lease.lease);

    let check_life = |client: Client| {
        let status = client.wait_done(id, SETTLE).expect("settles");
        let slots: Vec<&str> = status
            .get("slots")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|s| s.as_str().unwrap())
            .collect();
        assert_eq!(slots, ["done:restored", "cancelled", "cancelled"]);
        let (complete, digests) = client.result_digests(id, 3).expect("results");
        assert!(complete);
        assert_eq!(digests[0], result.digest());
        assert_eq!(record_indices(&ckpt), [2, 1, 0]);
    };
    check_life(client);
    assert_eq!(
        client.stat(&["sims_run"]).unwrap(),
        1,
        "only index 2's run started"
    );
    shutdown(client, handle);

    let (client2, handle2) = Client::serve_local(&opts).expect("bind");
    check_life(client2);
    assert_eq!(work_counters(client2), [0, 0, 0], "nothing re-ran");
    shutdown(client2, handle2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The slot index of every verified record in the checkpoint — result or
/// status — in file order.
fn record_indices(ckpt: &Path) -> Vec<u64> {
    let text = std::fs::read_to_string(ckpt).unwrap_or_default();
    scan_records(&text)
        .values
        .iter()
        .filter_map(|(_, v)| v.get("index").and_then(Json::as_u64))
        .collect()
}

/// Bodies that once aborted the server are refused at the door: a JSON
/// document nested past the parser's bound (100 000 `[`, far under the
/// body cap), and a configuration whose network would not fit in memory
/// (a 65535-ary 2-cube, 600 bytes of JSON). No job file is written, and
/// the server keeps serving.
#[test]
fn nested_or_oversized_submissions_are_refused_and_the_server_keeps_serving() {
    let dir = scratch_dir("e2e-hostile");
    let (client, handle) = start_server(&dir, 1);
    let jobs_files = || std::fs::read_dir(dir.join("jobs")).map_or(0, |d| d.count());
    let before = jobs_files();

    let nested = "[".repeat(100_000);
    let (status, reply) = http_request(client.addr, "POST", "/jobs", Some(&nested)).unwrap();
    assert_eq!(status, 400, "{reply}");
    assert!(reply.contains("bad grid: "), "{reply}");
    assert!(reply.contains("nest"), "{reply}");

    let mut grid = test_grid();
    grid.base.topology.k = 65535;
    let (status, reply) = http_request(
        client.addr,
        "POST",
        "/jobs",
        Some(&grid.to_json().to_string()),
    )
    .unwrap();
    assert_eq!(status, 400, "{reply}");
    assert!(reply.contains("virtual channels"), "{reply}");

    assert_eq!(jobs_files(), before, "a refused body writes nothing");
    assert_eq!(client.stat(&["jobs", "submitted"]).unwrap(), 0);
    shutdown(client, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every file under `dir`, recursively, with its length.
fn tree(dir: &Path) -> Vec<(std::path::PathBuf, u64)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap().flatten() {
        let path = entry.path();
        if path.is_dir() {
            out.extend(tree(&path));
        } else {
            out.push((path, entry.metadata().unwrap().len()));
        }
    }
    out.sort();
    out
}

/// A grid the runner would panic on in every slot — dateline DOR needs 2
/// VCs, this one has 1 — is refused with the runner's own message, and
/// nothing is written under the data dir.
#[test]
fn unrunnable_configs_are_refused_and_nothing_is_written() {
    let dir = scratch_dir("e2e-unrunnable");
    let (client, handle) = start_server(&dir, 1);
    client.stat(&["requests"]).expect("stats");
    let before = tree(&dir);

    let mut grid = test_grid();
    grid.base.routing = RoutingSpec::DatelineDor;
    grid.base.sim.vcs_per_channel = 1;
    // A hot spot whose first message would panic the runner.
    let mut hot = test_grid();
    hot.base.pattern = Pattern::HotSpot {
        hot: NodeId(5),
        fraction: 1.5,
    };
    // A zero cadence would run every slot without ever detecting a knot.
    let mut blind = test_grid();
    blind.base.detection_interval = 0;
    // A run length past `u64::MAX` would wrap to a few cycles.
    let mut endless = test_grid();
    endless.base.warmup = u64::MAX - 5;
    endless.base.measure = 10;
    for (grid, names) in [
        (grid, "requires at least 2 VCs"),
        (hot, "fraction must be in [0, 1]"),
        (blind, "`detection_interval` must be at least 1"),
        (endless, "`warmup` + `measure` must fit in 64 bits"),
    ] {
        let (status, reply) = http_request(
            client.addr,
            "POST",
            "/jobs",
            Some(&grid.to_json().to_string()),
        )
        .unwrap();
        assert_eq!(status, 400, "{reply}");
        assert!(reply.contains(names), "{reply}");
    }

    assert_eq!(tree(&dir), before, "a refused body writes nothing");
    assert_eq!(client.stat(&["jobs", "submitted"]).unwrap(), 0);
    shutdown(client, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_requests_get_clean_errors() {
    let dir = scratch_dir("e2e-errors");
    let (client, handle) = start_server(&dir, 1);

    let (status, _) = http_request(client.addr, "GET", "/jobs/999", None).unwrap();
    assert_eq!(status, 404);
    let (status, _) = http_request(client.addr, "GET", "/nope", None).unwrap();
    assert_eq!(status, 404);
    // The server keeps no incident browser: those paths are unknown routes.
    for path in ["/incidents", "/incidents/0", "/incidents/0/dot"] {
        let (status, _) = http_request(client.addr, "GET", path, None).unwrap();
        assert_eq!(status, 404, "{path}");
    }
    let (status, body) = http_request(client.addr, "POST", "/jobs", Some("{\"no\":1}")).unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("error"), "errors are JSON: {body}");
    let (status, _) = http_request(client.addr, "GET", "/jobs/abc", None).unwrap();
    assert_eq!(status, 400);
    // A density cap that cannot tell single- from multi-cycle knots is
    // refused at the door: no job is created, nothing reaches the runner.
    let mut grid = test_grid();
    grid.base.density_cap = 1;
    let (status, body) = http_request(
        client.addr,
        "POST",
        "/jobs",
        Some(&grid.to_json().to_string()),
    )
    .unwrap();
    assert_eq!(status, 400);
    assert!(
        body.contains("density_cap"),
        "error names the field: {body}"
    );
    // Nor is a number too wide for its field wrapped into another
    // network: 65544 as u16 is the 8-ary torus this grid really asks for.
    let body = test_grid().to_json().to_string();
    assert!(body.contains("\"k\":8,"));
    let forged = body.replacen("\"k\":8,", "\"k\":65544,", 1);
    let (status, body) = http_request(client.addr, "POST", "/jobs", Some(&forged)).unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("`k` is out of range"), "{body}");
    let (status, _) = http_request(client.addr, "GET", "/jobs/1", None).unwrap();
    assert_eq!(status, 404, "the rejected grids created no job");
    // A request head that never ends is cut off at 64 KiB (request line
    // plus headers) and answered 400, and the server serves the next one.
    {
        use std::io::{Read, Write};
        let mut endless = std::net::TcpStream::connect(client.addr).expect("connect");
        endless
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        endless.write_all(&vec![b'a'; (64 << 10) + 1]).unwrap();
        let mut reply = String::new();
        endless
            .read_to_string(&mut reply)
            .expect("the server answers and closes");
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply:?}");
        assert!(reply.contains("request head too large"), "{reply}");
    }
    let (status, _) = http_request(client.addr, "GET", "/jobs/999", None).unwrap();
    assert_eq!(status, 404, "the server answers the next request");

    shutdown(client, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A grid whose axes multiply past the server's bound is refused at the
/// door, before it is expanded: the same shape at 20 000 × 20 000 is a
/// body of a few hundred kilobytes whose expansion would ask for 96 GB.
/// Nothing is written, and the server keeps serving.
#[test]
fn oversized_grid_is_refused_and_the_server_keeps_serving() {
    let dir = scratch_dir("e2e-oversized");
    let (client, handle) = start_server(&dir, 1);
    let jobs_files = || std::fs::read_dir(dir.join("jobs")).map_or(0, |d| d.count());
    let before = jobs_files();
    let submitted = client.stat(&["jobs", "submitted"]).unwrap();

    let mut grid = test_grid();
    grid.seeds = (1..=300).collect();
    grid.loads = (1..=300).map(|i| f64::from(i) / 1e3).collect();
    let body = grid.to_json().to_string();
    let (status, reply) = http_request(client.addr, "POST", "/jobs", Some(&body)).unwrap();
    assert_eq!(status, 400, "{reply}");
    assert!(reply.contains("bad grid"), "{reply}");

    assert_eq!(jobs_files(), before, "a refused grid writes nothing");
    assert_eq!(
        client.stat(&["jobs", "submitted"]).unwrap(),
        submitted,
        "the server answers /stats and counts no job"
    );
    shutdown(client, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Settling a job reads its checkpoint once, not once per config: every
/// post-acquire check, reconcile tick and results fetch goes through the
/// job's incremental tail, so the bytes all refreshes read together stay
/// within a small multiple of the final file, however many configs the
/// job has. (Re-reading the file after each lease win costs N/2 times
/// its size.) The job is found on disk at start-up rather than submitted
/// — a submission would settle its hits before any worker saw them — so
/// every config is a late hit behind a lease win.
#[test]
fn checkpoint_bytes_read_are_linear_in_job_size() {
    const CONFIGS: u64 = 1_500;
    let dir = scratch_dir("e2e-linear");
    let mut grid = test_grid();
    grid.seeds = (1..=CONFIGS).collect();
    grid.loads = vec![0.2];
    let configs = grid.expand();

    // A warm cache without 1 500 simulations: one real result stored
    // under every config's key (the cache checks the config, not what
    // the result says).
    let result = sweep_supervised(&configs[..1], &SweepOptions)
        .remove(0)
        .expect("direct run succeeds");
    let cache = ResultCache::open(dir.join("cache")).unwrap();
    for cfg in &configs {
        cache.store(cfg, &result).unwrap();
    }

    let id = 1;
    plant_job(&dir, id, &grid);

    let (client, handle) = start_server(&dir, 2);
    let status = client.wait_done(id, SETTLE).expect("settles");
    assert_eq!(
        status.get("cached").and_then(Json::as_u64),
        Some(CONFIGS),
        "every slot is a cache hit: {status:?}"
    );
    assert_eq!(client.stat(&["sims_run"]).unwrap(), 0);
    assert_eq!(client.stat(&["leases_acquired"]).unwrap(), CONFIGS);
    let (code, stream) =
        http_request(client.addr, "GET", &format!("/jobs/{id}/results"), None).expect("results");
    assert_eq!(code, 200);
    assert_eq!(stream.lines().count() as u64, CONFIGS);

    let size = std::fs::metadata(checkpoint_path(&dir, id)).unwrap().len();
    let read = client.stat(&["checkpoint", "bytes_read"]).unwrap();
    assert!(
        read >= size,
        "every record was verified: read {read} of {size} bytes"
    );
    assert!(
        read <= 2 * size,
        "refreshes read {read} bytes of a {size}-byte checkpoint"
    );
    assert!(client.stat(&["checkpoint", "refreshes"]).unwrap() >= CONFIGS);
    assert!(client.stat(&["requests"]).unwrap() >= 3);

    shutdown(client, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A client that connects and then says nothing holds a handler only
/// until its read budget runs out: it is answered 408, requests behind
/// it are served without waiting for it, and the server still shuts
/// down while it is connected.
#[test]
fn stalled_client_gets_408_and_delays_nobody() {
    use std::io::Read;

    let dir = scratch_dir("e2e-stall");
    let (client, handle) = start_server(&dir, 1);
    let mut stalled = std::net::TcpStream::connect(client.addr).expect("connect");
    stalled
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    let start = Instant::now();
    for _ in 0..10 {
        client.stat(&["requests"]).unwrap();
    }
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "ten requests behind a stalled client took {:?}",
        start.elapsed()
    );

    let mut reply = String::new();
    stalled
        .read_to_string(&mut reply)
        .expect("the server answers and closes");
    assert!(
        reply.starts_with("HTTP/1.1 408"),
        "a stalled request is answered 408: {reply:?}"
    );

    shutdown(client, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A client that sends its request one byte a second never stalls a single
/// read for the 5 s socket budget, yet loses its handler once 5 s have
/// passed since accept; requests sent alongside it are served meanwhile.
#[test]
fn trickling_client_gets_408_within_the_budget() {
    use std::io::{Read, Write};
    use std::net::Shutdown;

    let dir = scratch_dir("e2e-trickle");
    let (client, handle) = start_server(&dir, 1);
    let mut trickler = std::net::TcpStream::connect(client.addr).expect("connect");
    let start = Instant::now();
    let mut writer = trickler.try_clone().expect("clone");
    let trickle = std::thread::spawn(move || {
        for &b in b"GET /stats HTTP/1.1\r\nHost: localhost\r\n\r\n" {
            if writer.write_all(&[b]).is_err() {
                break;
            }
            std::thread::sleep(Duration::from_secs(1));
        }
    });

    for _ in 0..6 {
        let served = Instant::now();
        client
            .stat(&["requests"])
            .expect("served alongside the trickle");
        assert!(
            served.elapsed() < Duration::from_secs(1),
            "a request beside the trickle took {:?}",
            served.elapsed()
        );
        std::thread::sleep(Duration::from_millis(500));
    }

    trickler
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // Bytes read before a reset stay in `reply`.
    let mut reply = Vec::new();
    let _ = trickler.read_to_end(&mut reply);
    let waited = start.elapsed();
    let _ = trickler.shutdown(Shutdown::Both);
    trickle.join().unwrap();
    let reply = String::from_utf8_lossy(&reply);
    assert!(
        reply.starts_with("HTTP/1.1 408"),
        "a trickled request is answered 408: {reply:?}"
    );
    assert!(
        waited < Duration::from_secs(6),
        "the 408 came {waited:?} after connect, past the 5 s budget + 1 s"
    );

    shutdown(client, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The three `/stats` counters the settle-at-submit rule is stated in.
fn work_counters(client: Client) -> [u64; 3] {
    [&["sims_run"][..], &["cache", "hits"], &["leases_acquired"]]
        .map(|path| client.stat(path).expect("stats"))
}

fn deltas(before: [u64; 3], after: [u64; 3]) -> [u64; 3] {
    [0, 1, 2].map(|k| after[k] - before[k])
}

/// A fully cached resubmission is settled inside `POST /jobs`: the first
/// status already says `done`, the results stream is complete, no lease
/// was taken and nothing simulated — and the checkpoint the job was born
/// with holds each slot's record exactly once. `jobs.completed` moves by
/// one, once: the scanner finds nothing left to settle.
#[test]
fn fully_cached_resubmission_is_done_at_submit_without_a_lease() {
    let dir = scratch_dir("e2e-born-done");
    let grid = test_grid();
    let want = direct_digests(&grid).expect("direct sweep");
    let n = want.len() as u64;
    let mut opts = ServerOptions::new(&dir);
    opts.workers = 2;
    opts.scan_interval = Duration::from_millis(40);
    let (client, handle) = Client::serve_local(&opts).expect("bind");

    let cold = client.submit(&grid).expect("submit");
    settles_to(client, cold, &want).expect("cold run");
    assert_eq!(
        work_counters(client),
        [n, 0, n],
        "a miss simulates under a lease"
    );
    let completed = client.stat(&["jobs", "completed"]).unwrap();
    let cold_body = results_by_index(client, cold);

    let before = work_counters(client);
    let read_before = client.stat(&["checkpoint", "bytes_read"]).unwrap();
    let id = client.submit(&grid).expect("resubmit");
    let (code, first) = http_request(client.addr, "GET", &format!("/jobs/{id}"), None).unwrap();
    assert_eq!(code, 200);
    let first = parse(&first).unwrap();
    assert_eq!(first.get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(first.get("cached").and_then(Json::as_u64), Some(n));
    let (complete, got) = client.result_digests(id, want.len()).expect("results");
    assert!(complete, "X-Job-Complete: true on the first fetch");
    assert_eq!(got, want, "served from the cache == the direct sweep");
    assert_eq!(deltas(before, work_counters(client)), [0, n, 0]);
    assert_eq!(
        client.stat(&["checkpoint", "bytes_read"]).unwrap(),
        read_before,
        "the job is born past its hits: sealing and serving it re-read nothing"
    );
    let body = results_by_index(client, id);
    assert_eq!(
        body, cold_body,
        "each record is the cold job's, byte for byte"
    );

    let ckpt = checkpoint_path(&dir, id);
    assert_eq!(full_line_count(&ckpt) as u64, n);
    assert_eq!(result_indices(&ckpt), (0..n).collect::<Vec<_>>());

    // Several scanner passes later it is still counted once.
    std::thread::sleep(Duration::from_millis(250));
    assert_eq!(client.stat(&["jobs", "completed"]).unwrap(), completed + 1);
    assert_eq!(full_line_count(&ckpt) as u64, n);
    shutdown(client, handle);

    // A restart reads the whole checkpoint and restores every slot from
    // the records the job was born with.
    let (client, handle) = Client::serve_local(&opts).expect("rebind");
    let status = client.wait_done(id, SETTLE).expect("restored");
    assert_eq!(status.get("restored").and_then(Json::as_u64), Some(n));
    let recovered = status.get("checkpoint").and_then(|c| c.get("restored"));
    assert_eq!(recovered.and_then(Json::as_u64), Some(n));
    assert_eq!(
        results_by_index(client, id),
        body,
        "the same bytes after a restart"
    );

    shutdown(client, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Job `id`'s results body as its lines keyed by index.
fn results_by_index(client: Client, id: u64) -> std::collections::BTreeMap<u64, String> {
    let (code, body) =
        http_request(client.addr, "GET", &format!("/jobs/{id}/results"), None).unwrap();
    assert_eq!(code, 200);
    body.lines()
        .map(|line| {
            let v = parse(line).expect("a served line parses");
            let index = v.get("index").and_then(Json::as_u64).expect("an index");
            (index, line.to_string())
        })
        .collect()
}

/// A half-cached grid: the hits are settled at submit, the misses are
/// simulated by workers under leases, and the checkpoint ends with one
/// record per slot whoever wrote it.
#[test]
fn half_cached_grid_settles_hits_at_submit_and_leases_only_misses() {
    let dir = scratch_dir("e2e-half-cached");
    let grid = test_grid();
    let want = direct_digests(&grid).expect("direct sweep");
    let n = want.len() as u64;
    let mut half = grid.clone();
    half.loads.truncate(1);
    let h = half.expand().len() as u64;
    assert!(0 < h && h < n);
    let (client, handle) = start_server(&dir, 2);

    let warm = client.submit(&half).expect("submit");
    client.wait_done(warm, SETTLE).expect("cache fill");

    let before = work_counters(client);
    let id = client.submit(&grid).expect("submit");
    let status = settles_to(client, id, &want).expect("served == direct");
    assert_eq!(status.get("cached").and_then(Json::as_u64), Some(h));
    assert_eq!(status.get("completed").and_then(Json::as_u64), Some(n));
    assert_eq!(deltas(before, work_counters(client)), [n - h, h, n - h]);

    let ckpt = checkpoint_path(&dir, id);
    assert_eq!(full_line_count(&ckpt) as u64, n);
    let mut indices = result_indices(&ckpt);
    indices.sort_unstable();
    assert_eq!(indices, (0..n).collect::<Vec<_>>());

    shutdown(client, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// What a submitter killed between its two creates leaves behind — a
/// checkpoint of valid records that no grid names — is not a job: it is
/// never listed, never read, and its id is passed over.
#[test]
fn orphan_checkpoint_is_no_job_and_its_id_is_skipped() {
    let dir = scratch_dir("e2e-orphan");
    let grid = test_grid();
    let configs = grid.expand();
    let want = direct_digests(&grid).expect("direct sweep");

    // Records that *would* restore every slot of this very grid, carrying
    // another config's result: read by anyone, they would show.
    let foreign = sweep_supervised(&short_grid(vec![99], vec![0.3]).expand(), &SweepOptions)
        .remove(0)
        .expect("direct run");
    assert!(!want.contains(&foreign.digest()));
    let orphan = checkpoint_path(&dir, 1);
    std::fs::create_dir_all(orphan.parent().unwrap()).unwrap();
    for (index, cfg) in configs.iter().enumerate() {
        let line = checkpoint_line(index, &cfg.label(), &foreign);
        durable::append_line(&orphan, &frame_record(&line)).unwrap();
    }
    let planted = std::fs::read(&orphan).unwrap();

    let (client, handle) = start_server(&dir, 2);
    let (code, _) = http_request(client.addr, "GET", "/jobs/1", None).unwrap();
    assert_eq!(code, 404, "an orphan checkpoint is not a job");
    assert_eq!(client.stat(&["jobs", "resumed"]).unwrap(), 0);

    let id = client.submit(&grid).expect("submit");
    assert_eq!(id, 2, "the orphan's id is taken");
    settles_to(client, id, &want).expect("none of the orphan's records");
    assert_eq!(full_line_count(&checkpoint_path(&dir, id)), want.len());
    let (code, _) = http_request(client.addr, "GET", "/jobs/1", None).unwrap();
    assert_eq!(code, 404);
    assert_eq!(std::fs::read(&orphan).unwrap(), planted, "never written");
    assert!(!orphan.with_extension("quarantine").exists(), "never read");

    shutdown(client, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A sibling creates a grid file through its exclusive handle, so a scan
/// can read it empty or short. Such a file is no job yet, and the scanner
/// reads it again on every pass: once whole, the job loads and settles
/// digest-equal to the direct sweep.
#[test]
fn unparseable_grid_is_retried_until_it_parses() {
    let dir = scratch_dir("e2e-empty-grid");
    let grid = test_grid();
    let want = direct_digests(&grid).expect("direct sweep");
    let id = 1;
    let jobs = dir.join("jobs");
    std::fs::create_dir_all(&jobs).unwrap();
    std::fs::write(jobs.join(format!("job-{id}.json")), "").unwrap();

    let mut opts = ServerOptions::new(&dir);
    opts.workers = 2;
    opts.scan_interval = Duration::from_millis(20);
    let (client, handle) = Client::serve_local(&opts).expect("bind");
    // Recovery and several scans read the empty grid.
    std::thread::sleep(Duration::from_millis(200));
    let (code, _) = http_request(client.addr, "GET", "/jobs/1", None).unwrap();
    assert_eq!(code, 404, "an unparseable grid is no job");
    assert_eq!(client.stat(&["jobs", "resumed"]).unwrap(), 0);

    plant_job(&dir, id, &grid);
    settles_to(client, id, &want).expect("the whole grid loads and settles");
    shutdown(client, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A settled job's tail is sealed, not trusted: a record garbled at rest
/// is dropped from the stream on the next fetch, and a restarted server
/// re-settles exactly that slot — from the cache, under one lease.
#[test]
fn sealed_job_garbled_at_rest_drops_the_line_and_resettles_the_slot() {
    let dir = scratch_dir("e2e-sealed-garble");
    let grid = test_grid();
    let want = direct_digests(&grid).expect("direct sweep");
    let n = want.len();
    let (client, handle) = start_server(&dir, 2);
    let cold = client.submit(&grid).expect("submit");
    settles_to(client, cold, &want).expect("cold run");
    let id = client.submit(&grid).expect("resubmit");
    settles_to(client, id, &want).expect("settled at submit");

    // The batch is in slot order: the last record is slot n - 1.
    let ckpt = checkpoint_path(&dir, id);
    garble_last_record(&ckpt).expect("garble");
    let (complete, got) = client.result_digests(id, n).expect("results");
    assert!(complete);
    assert_eq!(got[..n - 1], want[..n - 1]);
    assert_eq!(got[n - 1], "", "the damaged record is not served");
    shutdown(client, handle);

    let (client2, handle2) = start_server(&dir, 2);
    let status = settles_to(client2, id, &want).expect("re-settled");
    assert_eq!(
        status
            .get("checkpoint")
            .and_then(|c| c.get("corrupt_frames"))
            .and_then(Json::as_u64),
        Some(1),
        "the damage is surfaced: {status:?}"
    );
    assert_eq!(
        status.get("restored").and_then(Json::as_u64),
        Some(n as u64 - 1)
    );
    assert_eq!(
        work_counters(client2),
        [0, 1, 1],
        "one slot, from the cache"
    );
    assert_eq!(full_line_count(&ckpt), n + 1);
    shutdown(client2, handle2);
    let _ = std::fs::remove_dir_all(&dir);
}
