//! Fleet harness: real campaign-server processes, crashed on purpose.
//!
//! `repro chaos` and the root `tests/server_*.rs` suites exercise the
//! campaign fleet through this module, so the fleet's crash properties —
//! no result lost, damage detected and quarantined, the survivor
//! digest-identical to a clean sweep — are stated once, in
//! [`crash_storyline`]. The only thing a caller brings is how to start a
//! member process: `repro` re-runs itself as `repro serve`, the chaos
//! test re-runs its own test binary. The cache's resubmission storyline
//! and the checkpoint's per-slot record census are test-only and live in
//! `tests/server_e2e.rs` and `tests/common`. See `src/bin/repro.rs` for
//! the experiment harness.

use std::io::Write;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use flexsim::jsonio::Json;
use flexsim::{RoutingSpec, RunConfig, TopologySpec};
use icn_server::{Client, SweepGrid};

/// Calls `probe` every 20 ms until it yields a value; `None` once
/// `timeout` has passed without one.
fn poll<T>(timeout: Duration, mut probe: impl FnMut() -> Option<T>) -> Option<T> {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(v) = probe() {
            return Some(v);
        }
        if Instant::now() > deadline {
            return None;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// One spawned fleet member. Dropping it SIGKILLs and reaps the child, so
/// a failed check never leaks a server process.
pub struct Member {
    child: Child,
    port_file: PathBuf,
}

impl Member {
    /// Spawns `cmd` as the fleet member `tag` of data dir `dir`: output
    /// silenced, `crash_plan` (if any) armed through `ICN_DURABLE_CRASH`.
    /// `cmd` must make the child publish its bound address in
    /// [`Member::port_file`]`(dir, tag)`.
    pub fn launch(
        cmd: &mut Command,
        dir: &Path,
        tag: &str,
        crash_plan: Option<&str>,
    ) -> Result<Member, String> {
        let port_file = Member::port_file(dir, tag);
        let _ = std::fs::remove_file(&port_file);
        cmd.stdout(Stdio::null()).stderr(Stdio::null());
        if let Some(plan) = crash_plan {
            cmd.env("ICN_DURABLE_CRASH", plan);
        }
        let child = cmd.spawn().map_err(|e| format!("spawning {tag}: {e}"))?;
        Ok(Member { child, port_file })
    }

    /// Where member `tag` of `dir` publishes its address.
    pub fn port_file(dir: &Path, tag: &str) -> PathBuf {
        dir.join(format!("{tag}.port"))
    }

    /// Polls the port file until the child has published its address.
    pub fn wait_addr(&mut self, timeout: Duration) -> Result<SocketAddr, String> {
        poll(timeout, || {
            let published = std::fs::read_to_string(&self.port_file)
                .ok()
                .and_then(|text| text.trim().parse().ok());
            match (published, self.child.try_wait()) {
                (Some(addr), _) => Some(Ok(addr)),
                (None, Ok(Some(status))) => {
                    Some(Err(format!("member exited before binding: {status}")))
                }
                _ => None,
            }
        })
        .unwrap_or_else(|| {
            Err(format!(
                "member never published {}",
                self.port_file.display()
            ))
        })
    }

    /// Waits for the child to exit on its own (an injected crash, or a
    /// shutdown already requested).
    pub fn wait_exit(&mut self, timeout: Duration) -> Result<ExitStatus, String> {
        poll(timeout, || {
            self.child
                .try_wait()
                .map_err(|e| format!("waiting for member: {e}"))
                .transpose()
        })
        .unwrap_or_else(|| Err(format!("member still running after {timeout:?}")))
    }

    /// Graceful shutdown through the API; the child must exit cleanly.
    pub fn shutdown(mut self, addr: SocketAddr) -> Result<(), String> {
        Client::new(addr).shutdown()?;
        let status = self.wait_exit(Duration::from_secs(120))?;
        if !status.success() {
            return Err(format!("member exited uncleanly: {status}"));
        }
        Ok(())
    }
}

impl Drop for Member {
    /// SIGKILL — `Child::kill` on Unix — and reap.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// An empty scratch directory unique to `tag` and this process.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("campaign-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The Figure-6 corner point scaled down (unidirectional 8-ary 2-cube,
/// DOR, one VC, full load): reliably knots within a few hundred cycles
/// and keeps every replay/minimization probe cheap.
pub fn knotting_config(measure: u64) -> RunConfig {
    let mut cfg = RunConfig::small_default();
    cfg.topology = TopologySpec::torus(8, 2, false);
    cfg.routing = RoutingSpec::Dor;
    cfg.sim.vcs_per_channel = 1;
    cfg.load = 1.0;
    cfg.warmup = 400;
    cfg.measure = measure;
    cfg
}

/// `loads × seeds` of 200 warm-up + 600 measured cycles on the
/// scaled-down torus: a grid of these finishes in seconds.
pub fn short_grid(seeds: Vec<u64>, loads: Vec<f64>) -> SweepGrid {
    let mut base = RunConfig::small_default();
    base.warmup = 200;
    base.measure = 600;
    SweepGrid {
        base,
        seeds,
        loads,
        timeout_ms: None,
    }
}

/// Per-slot digests of a clean in-process `sweep_supervised` of `grid` —
/// what every served, resumed or crash-recovered job must equal.
pub fn direct_digests(grid: &SweepGrid) -> Result<Vec<String>, String> {
    flexsim::sweep_supervised(&grid.expand(), &flexsim::SweepOptions)
        .iter()
        .map(|r| match r {
            Ok(r) => Ok(r.digest()),
            Err(e) => Err(format!("direct run failed: {e}")),
        })
        .collect()
}

/// `assert_eq!` for a storyline: `Err` naming `what` unless `got == want`.
pub fn same<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    Err(format!("{what}:\n   got: {got:?}\n  want: {want:?}"))
}

/// Waits for job `id` and checks that its results stream is complete and
/// digest-identical to `want`.
pub fn settles_to(client: Client, id: u64, want: &[String]) -> Result<Json, String> {
    let status = client.wait_done(id, Duration::from_secs(300))?;
    let (complete, got) = client.result_digests(id, want.len())?;
    same("a settled job's results stream is complete", complete, true)?;
    same("served digests vs the direct sweep", &got[..], want)?;
    Ok(status)
}

/// Where the server keeps job `id`'s checkpoint under data dir `dir`.
pub fn checkpoint_path(dir: &Path, id: u64) -> PathBuf {
    dir.join("jobs").join(format!("job-{id}.ckpt.jsonl"))
}

/// Counts the newline-terminated, non-empty checkpoint lines (a torn
/// tail is excluded; a missing file holds none).
pub fn full_line_count(ckpt: &Path) -> usize {
    let text = std::fs::read_to_string(ckpt).unwrap_or_default();
    let sealed = text.rfind('\n').map_or("", |end| &text[..end]);
    sealed.lines().filter(|l| !l.trim().is_empty()).count()
}

/// Waits until the checkpoint holds at least `want` full lines.
pub fn wait_lines(ckpt: &Path, want: usize, timeout: Duration) -> Result<usize, String> {
    poll(timeout, || {
        Some(full_line_count(ckpt)).filter(|&have| have >= want)
    })
    .ok_or_else(|| {
        let have = full_line_count(ckpt);
        format!("checkpoint never reached {want} records (have {have})")
    })
}

/// Flips one bit in the middle of the last full checkpoint record —
/// corruption at rest that the CRC framing must detect (quarantine the
/// line, re-run the slot). Returns the line as damaged.
pub fn garble_last_record(ckpt: &Path) -> Result<String, String> {
    let mut bytes = std::fs::read(ckpt).map_err(|e| format!("reading checkpoint: {e}"))?;
    let end = bytes
        .iter()
        .rposition(|&b| b == b'\n')
        .ok_or("checkpoint has no full line to garble")?;
    let start = bytes[..end]
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |i| i + 1);
    if end <= start {
        return Err("last checkpoint line is empty".to_string());
    }
    bytes[start + (end - start) / 2] ^= 0x01;
    std::fs::write(ckpt, &bytes).map_err(|e| format!("garbling checkpoint: {e}"))?;
    Ok(String::from_utf8_lossy(&bytes[start..end]).into_owned())
}

/// Appends an unterminated framed fragment — the exact signature of a
/// writer killed mid-append. Recovery must detect the torn tail and seal
/// it with a guard newline.
pub fn append_torn_fragment(ckpt: &Path) -> Result<(), String> {
    std::fs::OpenOptions::new()
        .append(true)
        .open(ckpt)
        .and_then(|mut f| f.write_all(b"~2a:00000000:{\"index\":99,\"resul"))
        .map_err(|e| format!("tearing checkpoint tail: {e}"))
}

/// Starts fleet member `tag` on data dir `dir` with `workers` simulation
/// workers and an optional `ICN_DURABLE_CRASH` plan.
pub type Spawner<'a> = &'a dyn Fn(&Path, &str, usize, Option<&str>) -> Result<Member, String>;

/// What the survivor of [`crash_storyline`] reported about the damage.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub corrupt_frames: u64,
    pub reclaimed_leases: u64,
}

/// The fleet's crash properties, stated once. On the empty data dir
/// `dir`:
///
/// 1. **Life 1** — one single-worker member takes `grid` and dies
///    mid-sweep: with `injected_crash` it aborts itself at the rename of
///    its second durable cache write, otherwise it is SIGKILLed once the
///    first checkpoint record lands. (One worker pins the crash point:
///    with two, the second store's abort can land before the first
///    worker's checkpoint append and leave zero durable records.)
/// 2. **Quiescent tampering** — the last durable record is garbled and
///    the tail torn the way a writer killed mid-append leaves it.
/// 3. **Life 2** — two members of `workers` workers each resume the job;
///    one is SIGKILLed as soon as the fleet makes progress.
///
/// The survivor must then settle the job with a complete results stream
/// digest-identical to `want` (a clean direct sweep of `grid`), surface
/// the garbled record as `checkpoint.corrupt_frames ≥ 1` and its lease
/// reclaims as `reclaimed_leases`, have quarantined the damaged line
/// rather than dropped it, and still shut down cleanly.
pub fn crash_storyline(
    spawn: Spawner,
    dir: &Path,
    grid: &SweepGrid,
    want: &[String],
    injected_crash: bool,
    workers: usize,
) -> Result<Summary, String> {
    let boot = Duration::from_secs(60);
    let progress = Duration::from_secs(120);

    let mut first = spawn(dir, "life1", 1, injected_crash.then_some("cache/:2"))?;
    let id = Client::new(first.wait_addr(boot)?).submit(grid)?;
    let ckpt = checkpoint_path(dir, id);
    wait_lines(&ckpt, 1, progress)?;
    if injected_crash {
        first
            .wait_exit(progress)
            .map_err(|e| format!("injected crash never fired: {e}"))?;
    }
    drop(first);

    let garbled = garble_last_record(&ckpt)?;
    append_torn_fragment(&ckpt)?;
    // Recovery seals the torn fragment into one garbage full line, so
    // real progress in life 2 starts past `baseline + 1`.
    let baseline = full_line_count(&ckpt);

    let mut doomed = spawn(dir, "life2-doomed", workers, None)?;
    let mut survivor = spawn(dir, "life2-survivor", workers, None)?;
    doomed.wait_addr(boot)?;
    let addr = survivor.wait_addr(boot)?;
    wait_lines(&ckpt, baseline + 2, progress)?;
    drop(doomed);

    // The survivor reclaims the dead member's leases (dead-pid detection,
    // no expiry wait on Linux) and converges.
    let status = settles_to(Client::new(addr), id, want)?;
    let corrupt_frames = status
        .get("checkpoint")
        .and_then(|c| c.get("corrupt_frames"))
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("status lacks checkpoint.corrupt_frames: {status:?}"))?;
    if corrupt_frames == 0 {
        return Err(format!("the garbled record went undetected: {status:?}"));
    }
    let reclaimed_leases = status
        .get("reclaimed_leases")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("status lacks reclaimed_leases: {status:?}"))?;
    // `corrupt_frames` alone would be satisfied by the sealed torn
    // fragment; the garbled record itself must sit in the quarantine.
    let quarantine = std::fs::read_to_string(ckpt.with_extension("quarantine"))
        .map_err(|e| format!("no quarantine file beside the checkpoint: {e}"))?;
    if !quarantine.lines().any(|line| line == garbled) {
        return Err("the garbled record was dropped, not quarantined".to_string());
    }
    survivor.shutdown(addr)?;
    Ok(Summary {
        corrupt_frames,
        reclaimed_leases,
    })
}
