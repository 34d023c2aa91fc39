//! Chaos tests: the campaign fleet under real process crashes.
//!
//! These tests spawn *real server processes* (by re-executing this test
//! binary with `--exact worker_entry` and the `ICN_CHAOS_*` environment
//! set) so a crash is an actual SIGKILL delivered to an actual process —
//! not a simulated flag. The scenarios:
//!
//! 1. Two concurrent servers share one data dir and complete a grid
//!    submitted through one of them with **zero duplicated simulations**
//!    (per-config leases arbitrate ownership; `/stats` sums prove it).
//! 2. A worker is crashed mid-sweep by a rename-time fault injected into
//!    its durable cache writes (`ICN_DURABLE_CRASH`), the quiescent
//!    checkpoint is tampered with (one record garbled, the tail torn the
//!    way a killed writer leaves it), a two-member fleet resumes, one
//!    member is SIGKILLed mid-sweep — and the survivor still converges
//!    to results digest-identical to a clean in-process
//!    `sweep_supervised`, with the corruption detected and surfaced.
//! 3. A cached grid submitted to one member reaches its sibling already
//!    settled: one record per slot, and the sibling takes no lease; the
//!    same grid submitted through the sibling is answered from the first
//!    member's cache.
//!
//! Everything runs on ephemeral 127.0.0.1 ports; no network egress.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

use deadlock_characterization::flexsim::jsonio::{durable, Json};
use deadlock_characterization::server::{CampaignServer, Client, ServerOptions, SweepGrid};
use icn_bench::{
    checkpoint_path, crash_storyline, direct_digests, scratch_dir, settles_to, short_grid, Member,
};

mod common;
use common::result_indices;

/// Re-exec entry point, not a test of its own: the chaos tests spawn
/// this binary again with `--exact worker_entry` and `ICN_CHAOS_DATA`
/// set, and the child becomes a real campaign-server process the parent
/// can SIGKILL. Without the environment it is a no-op.
#[test]
fn worker_entry() {
    let Ok(data) = std::env::var("ICN_CHAOS_DATA") else {
        return;
    };
    let port_file = PathBuf::from(
        std::env::var("ICN_CHAOS_PORT_FILE").expect("worker_entry needs ICN_CHAOS_PORT_FILE"),
    );
    let mut opts = ServerOptions::new(&data);
    opts.workers = std::env::var("ICN_CHAOS_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .expect("worker_entry needs ICN_CHAOS_WORKERS");
    // Tightened for fast failure detection, as `repro chaos` does.
    opts.lease_expiry = Duration::from_millis(1500);
    opts.scan_interval = Duration::from_millis(120);
    let server = CampaignServer::bind("127.0.0.1:0", &opts).expect("bind chaos worker");
    durable::write_atomic(&port_file, server.addr().to_string().as_bytes()).expect("publish port");
    server.serve().expect("serve");
}

/// Starts a fleet member by re-executing this test binary into
/// [`worker_entry`].
fn test_spawner(
    data: &Path,
    tag: &str,
    workers: usize,
    crash_plan: Option<&str>,
) -> Result<Member, String> {
    let mut cmd = Command::new(std::env::current_exe().expect("current_exe"));
    cmd.args(["worker_entry", "--exact", "--test-threads", "1"])
        .env("ICN_CHAOS_DATA", data)
        .env("ICN_CHAOS_PORT_FILE", Member::port_file(data, tag))
        .env("ICN_CHAOS_WORKERS", workers.to_string());
    Member::launch(&mut cmd, data, tag, crash_plan)
}

/// 3 loads × 2 seeds: wide enough that kills land mid-sweep.
fn chaos_grid() -> SweepGrid {
    short_grid(vec![41, 42], vec![0.15, 0.2, 0.25])
}

#[test]
fn concurrent_fleet_completes_shared_grid_without_duplicate_sims() {
    let dir = scratch_dir("chaos-test-shared");
    let grid = chaos_grid();
    let n = grid.expand().len();
    let want = direct_digests(&grid).expect("direct sweep");

    let mut a = test_spawner(&dir, "a", 2, None).expect("spawn a");
    let mut b = test_spawner(&dir, "b", 2, None).expect("spawn b");
    let via_a = Client::new(a.wait_addr(Duration::from_secs(60)).expect("a binds"));
    let via_b = Client::new(b.wait_addr(Duration::from_secs(60)).expect("b binds"));

    // Submit through A; poll through B — the job must cross the process
    // boundary via the shared data dir, not shared memory.
    let id = via_a.submit(&grid).expect("submit");
    let status = settles_to(via_b, id, &want).expect("B settles A's job");
    assert_eq!(
        status.get("completed").and_then(Json::as_u64),
        Some(n as u64),
        "fleet completes every slot: {status:?}"
    );
    // A's in-memory view trails the shared dir by one scanner pass; its
    // own "done" and complete stream follow.
    settles_to(via_a, id, &want).expect("A settles");

    // Zero duplicated simulations: per-config leases make the fleet-wide
    // sum exactly the grid size.
    let sims = via_a.stat(&["sims_run"]).unwrap() + via_b.stat(&["sims_run"]).unwrap();
    assert_eq!(sims, n as u64, "every config simulated exactly once");

    a.shutdown(via_a.addr).expect("a exits cleanly");
    b.shutdown(via_b.addr).expect("b exits cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cached grid crosses the fleet already settled: the submitter wrote
/// every record before it published the job, so the sibling whose scanner
/// finds it has nothing to lease, nothing to simulate and nothing to
/// append.
#[test]
fn cached_grid_reaches_the_sibling_settled_and_nobody_appends() {
    let dir = scratch_dir("chaos-test-cached");
    let grid = chaos_grid();
    let n = grid.expand().len() as u64;
    let want = direct_digests(&grid).expect("direct sweep");

    // A fills the cache alone; B joins with its scanner running.
    let mut a = test_spawner(&dir, "a", 2, None).expect("spawn a");
    let via_a = Client::new(a.wait_addr(Duration::from_secs(60)).expect("a binds"));
    let cold = via_a.submit(&grid).expect("submit");
    settles_to(via_a, cold, &want).expect("cold run");
    let mut b = test_spawner(&dir, "b", 2, None).expect("spawn b");
    let via_b = Client::new(b.wait_addr(Duration::from_secs(60)).expect("b binds"));

    let id = via_a.submit(&grid).expect("resubmit");
    let status = settles_to(via_b, id, &want).expect("B serves A's settled job");
    assert_eq!(
        status.get("restored").and_then(Json::as_u64),
        Some(n),
        "B found every record in the checkpoint: {status:?}"
    );
    settles_to(via_a, id, &want).expect("A serves it too");
    assert_eq!(via_b.stat(&["sims_run"]).unwrap(), 0);
    assert_eq!(via_b.stat(&["leases_acquired"]).unwrap(), 0);
    assert_eq!(via_a.stat(&["sims_run"]).unwrap(), n);
    assert_eq!(via_a.stat(&["leases_acquired"]).unwrap(), n);
    assert_eq!(
        result_indices(&checkpoint_path(&dir, id)),
        (0..n).collect::<Vec<_>>(),
        "exactly one record per slot, all the submitter's"
    );

    // A submission *through* B is answered from the cache A filled: the
    // content-addressed cache crosses the process boundary.
    let via_b_job = via_b.submit(&grid).expect("submit through B");
    settles_to(via_b, via_b_job, &want).expect("B settles from A's cache");
    assert_eq!(via_b.stat(&["sims_run"]).unwrap(), 0);
    assert_eq!(via_b.stat(&["cache", "hits"]).unwrap(), n);

    a.shutdown(via_a.addr).expect("a exits cleanly");
    b.shutdown(via_b.addr).expect("b exits cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Scenario 2 is [`crash_storyline`] — shared with `repro chaos` — with
/// life 1 dying by the injected rename-time crash.
#[test]
fn fleet_survives_crashes_and_tampered_checkpoint_digest_exact() {
    let dir = scratch_dir("chaos-test-crash");
    let grid = chaos_grid();
    let want = direct_digests(&grid).expect("direct sweep");
    crash_storyline(&test_spawner, &dir, &grid, &want, true, 2)
        .expect("the fleet survives the storyline");
    let _ = std::fs::remove_dir_all(&dir);
}
