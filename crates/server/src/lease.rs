//! Lease files: cross-process mutual exclusion over per-config work.
//!
//! A lease is a file in `data_dir/leases/` named after its (job, config)
//! pair, holding the owner's pid and a monotonic heartbeat counter. The
//! protocol:
//!
//! * **Acquire** — `O_CREAT|O_EXCL` via [`flexsim::jsonio::durable::create_exclusive`];
//!   of any number of racing processes exactly one wins.
//! * **Renew** — the owner's heartbeat thread rewrites the lease
//!   atomically with the counter incremented, refreshing its mtime.
//! * **Expire** — a lease is stale when its owner pid is no longer alive
//!   (checked via `/proc/<pid>` on Linux — instant reclaim after a
//!   `kill -9`) or its file has not been renewed within the expiry window
//!   (the portable fallback, and the guard against pid reuse).
//! * **Break** — a claimant that finds a stale lease renames it to a
//!   unique tombstone first (the rename is the race arbiter: exactly one
//!   breaker wins), deletes the tombstone, and retries acquisition.
//!
//! A broken lease never implies lost work: the worker that reclaims a
//! config re-reads the job checkpoint *after* acquiring the lease, so a
//! result the dead owner managed to append is adopted, not recomputed.

use std::io::{self, ErrorKind};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use flexsim::jsonio::{durable, get_u64, obj, parse, Json};

/// Unique suffix for break-time tombstones within this process.
static BREAK_SEQ: AtomicU64 = AtomicU64::new(0);

/// A lease directory with its expiry policy.
pub struct LeaseDir {
    dir: PathBuf,
    expiry: Duration,
}

/// A currently held lease; renewing bumps `counter`.
#[derive(Debug)]
pub struct HeldLease {
    path: PathBuf,
    counter: u64,
}

/// Outcome of a successful acquisition.
pub struct Acquired {
    pub lease: HeldLease,
    /// The acquisition broke a stale lease left by a dead or stalled
    /// sibling — surfaced per job as `reclaimed_leases`.
    pub reclaimed: bool,
}

fn lease_body(counter: u64) -> String {
    obj(vec![
        ("pid", Json::U64(std::process::id() as u64)),
        ("counter", Json::U64(counter)),
    ])
    .to_string()
}

/// Whether `pid` is a live process. On Linux, `/proc/<pid>` existence;
/// elsewhere the question is unanswerable from std, so the caller falls
/// back to mtime-based expiry alone.
fn pid_alive(pid: u64) -> Option<bool> {
    if cfg!(target_os = "linux") {
        Some(Path::new(&format!("/proc/{pid}")).exists())
    } else {
        None
    }
}

impl LeaseDir {
    /// Opens (creating if needed) `<data_dir>/leases`.
    pub fn open(dir: impl Into<PathBuf>, expiry: Duration) -> io::Result<LeaseDir> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(LeaseDir { dir, expiry })
    }

    fn path_for(&self, job: u64, index: usize) -> PathBuf {
        self.dir.join(format!("job-{job}-cfg-{index}.lease"))
    }

    /// A lease is stale when its owner is provably dead, or — when
    /// liveness is unknowable or the content torn — when it has not been
    /// renewed within the expiry window.
    fn is_stale(&self, path: &Path) -> bool {
        let owner = std::fs::read_to_string(path)
            .ok()
            .and_then(|text| parse(&text).ok())
            .and_then(|v| get_u64(&v, "pid").ok());
        match owner {
            Some(pid) if pid == std::process::id() as u64 => {
                // Our own pid in a lease we do not hold in memory: a
                // previous incarnation of this pid (restart with pid
                // reuse) or a leaked entry. Age it out like any other.
                self.older_than_expiry(path)
            }
            Some(pid) => match pid_alive(pid) {
                Some(false) => true,
                Some(true) | None => self.older_than_expiry(path),
            },
            // Torn content: the claimant died inside `create_exclusive`.
            None => self.older_than_expiry(path),
        }
    }

    fn older_than_expiry(&self, path: &Path) -> bool {
        std::fs::metadata(path)
            .and_then(|m| m.modified())
            .ok()
            .and_then(|mtime| mtime.elapsed().ok())
            .map(|age| age > self.expiry)
            .unwrap_or(false)
    }

    /// Attempts to claim the lease for (`job`, `index`). `Ok(None)` means
    /// a live sibling holds it — the caller leaves the config to them.
    pub fn try_acquire(&self, job: u64, index: usize) -> io::Result<Option<Acquired>> {
        let path = self.path_for(job, index);
        for attempt in 0..2 {
            match durable::create_exclusive(&path, lease_body(0).as_bytes()) {
                Ok(()) => {
                    return Ok(Some(Acquired {
                        lease: HeldLease { path, counter: 0 },
                        reclaimed: attempt > 0,
                    }))
                }
                Err(e) if e.kind() == ErrorKind::AlreadyExists => {
                    if attempt > 0 || !self.is_stale(&path) {
                        return Ok(None);
                    }
                    // Break the stale lease: rename first so exactly one
                    // breaker wins the reclaim, then clear the tombstone.
                    let tombstone = self.dir.join(format!(
                        ".broken-{}-{}",
                        std::process::id(),
                        BREAK_SEQ.fetch_add(1, Ordering::Relaxed)
                    ));
                    if std::fs::rename(&path, &tombstone).is_err() {
                        // Lost the break race (or the owner revived).
                        return Ok(None);
                    }
                    let _ = std::fs::remove_file(&tombstone);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }

    /// Heartbeat: rewrites the lease with the counter incremented. An
    /// atomic replace, so observers always read a whole lease body.
    pub fn renew(&self, held: &mut HeldLease) -> io::Result<()> {
        held.counter += 1;
        durable::write_atomic(&held.path, lease_body(held.counter).as_bytes())
    }

    /// Releases a held lease. Missing files are fine (a sibling may have
    /// broken the lease if we stalled past expiry).
    pub fn release(&self, held: HeldLease) {
        let _ = std::fs::remove_file(&held.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "icn-lease-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn acquire_is_exclusive_and_release_frees() {
        let leases = LeaseDir::open(dir("excl"), Duration::from_secs(60)).unwrap();
        let a = leases.try_acquire(1, 0).unwrap().expect("first claim wins");
        assert!(!a.reclaimed);
        assert!(
            leases.try_acquire(1, 0).unwrap().is_none(),
            "live lease blocks"
        );
        // A different config is independent.
        assert!(leases.try_acquire(1, 1).unwrap().is_some());
        leases.release(a.lease);
        assert!(
            leases.try_acquire(1, 0).unwrap().is_some(),
            "released lease reopens"
        );
    }

    #[test]
    fn dead_owner_lease_is_reclaimed() {
        let leases = LeaseDir::open(dir("dead"), Duration::from_secs(60)).unwrap();
        // Forge a lease owned by a pid that cannot be alive (pid_max on
        // Linux is < 2^22 by default; 2^31-1 is safely unused, and if
        // liveness is unknowable the expiry fallback keeps this test
        // meaningful only on Linux — gate on it).
        if !cfg!(target_os = "linux") {
            return;
        }
        let path = leases.path_for(7, 3);
        let body = obj(vec![
            ("pid", Json::U64(0x7fff_fff1)),
            ("counter", Json::U64(5)),
        ])
        .to_string();
        std::fs::write(&path, body).unwrap();
        let a = leases
            .try_acquire(7, 3)
            .unwrap()
            .expect("dead owner must be reclaimed");
        assert!(a.reclaimed, "reclaim must be reported");
    }

    #[test]
    fn renew_bumps_counter_and_refreshes() {
        let leases = LeaseDir::open(dir("renew"), Duration::from_millis(50)).unwrap();
        let mut a = leases.try_acquire(2, 0).unwrap().unwrap();
        leases.renew(&mut a.lease).unwrap();
        leases.renew(&mut a.lease).unwrap();
        let text = std::fs::read_to_string(leases.path_for(2, 0)).unwrap();
        let v = parse(&text).unwrap();
        assert_eq!(get_u64(&v, "counter").unwrap(), 2);
        assert_eq!(
            get_u64(&v, "pid").unwrap(),
            std::process::id() as u64,
            "renewal keeps ownership"
        );
    }

    #[test]
    fn expired_lease_is_reclaimed_by_age() {
        let leases = LeaseDir::open(dir("age"), Duration::from_millis(10)).unwrap();
        // A torn lease (unparseable content) from any pid ages out.
        let path = leases.path_for(9, 0);
        std::fs::write(&path, "{\"pi").unwrap();
        std::thread::sleep(Duration::from_millis(30));
        let a = leases
            .try_acquire(9, 0)
            .unwrap()
            .expect("expired torn lease must be reclaimed");
        assert!(a.reclaimed);
    }
}
