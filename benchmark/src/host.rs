//! What the benchmark reads from the machine it runs on: a fixed
//! reference loop to gauge host speed, peak memory, and the provenance
//! stamped into every result file.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use flexsim::jsonio::{obj, Json};

use crate::stats::percentile;

/// A fixed integer loop over a 256 KiB table (xorshift index, dependent
/// load, data-dependent branch, store) — the same instruction diet as the
/// engine's hot paths, small enough to stay in L2. Its time per call,
/// `host.ref_kernel_ns`, says how fast this host was during this run, so
/// a reader can tell a slow machine from a slow program. It depends on
/// nothing under `crates/`.
pub struct RefKernel {
    table: Vec<u32>,
    state: u64,
    samples_ns: Vec<f64>,
}

impl RefKernel {
    const OPS: usize = 40_000;
    /// Samples per burst; a burst is taken between passes or rounds.
    const BURST: usize = 200;

    pub fn new() -> Self {
        RefKernel {
            table: (0..65_536u32).collect(),
            state: 88_172_645_463_325_252,
            samples_ns: Vec::new(),
        }
    }

    /// Runs the loop once and returns its wall time in nanoseconds.
    fn sample_ns(&mut self) -> f64 {
        let start = Instant::now();
        let mut x = self.state;
        let mut acc = 0u32;
        for _ in 0..Self::OPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & 0xffff;
            let v = self.table[i];
            if v & 1 == 0 {
                acc = acc.wrapping_add(v);
            } else {
                acc ^= v;
            }
            self.table[i] = v.wrapping_mul(1_664_525).wrapping_add(acc | 1);
        }
        self.state = x ^ u64::from(acc);
        start.elapsed().as_nanos() as f64
    }

    /// Takes one burst of samples (about 20 ms).
    pub fn burst(&mut self) {
        for _ in 0..Self::BURST {
            let ns = self.sample_ns();
            self.samples_ns.push(ns);
        }
    }

    /// Time of one loop on this host during this run: the 10th percentile
    /// of every sample taken so far.
    pub fn loop_ns(&self) -> f64 {
        percentile(&self.samples_ns, 0.1)
    }
}

/// Reference loops that make one "reference second": on the sandbox the
/// benchmark was sized on a loop takes about 100 µs, so a reference second
/// is about a host second there.
const REF_LOOPS_PER_REF_S: f64 = 10_000.0;

/// Simulated cycles per reference second: `cycles` delivered in `wall_ns`
/// on a host whose reference loop took `ref_loop_ns` during the same run.
/// The host's speed shifts by 10 to 15 % for minutes at a time (frequency,
/// what the sibling hyperthread is doing); the reference loop shifts with
/// it, so this ratio — taken inside one process — stays put where cycles
/// per wall second do not.
pub fn per_ref_second(cycles: f64, wall_ns: f64, ref_loop_ns: f64) -> f64 {
    cycles / (wall_ns / (REF_LOOPS_PER_REF_S * ref_loop_ns))
}

/// Peak resident set of this process in MB (`VmHWM`), or `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The benchmark's own directory in this checkout. Everything the
/// benchmark writes (result files, traces, campaign data directories)
/// goes under `out/` here and nowhere else.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

pub fn out_dir() -> PathBuf {
    let dir = bench_dir().join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

/// Filesystem type holding `path`, from the longest matching mount point
/// in `/proc/self/mountinfo` (tmpfs makes fsync free, so every campaign
/// number must carry this).
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        // "<id> <parent> <maj:min> <root> <mount point> <opts> ... - <fstype> <source> <super opts>"
        let Some((head, tail)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (head.split(' ').nth(4), tail.split(' ').next()) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, t)| t)
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Provenance stamp for result files. `git` facts read "unknown" in a
/// checkout that is not a git repository (the driver's is not).
pub fn provenance(seed: u64, seconds: u64) -> Json {
    let dir = bench_dir();
    let sha = command_line("git", &["rev-parse", "HEAD"], &dir);
    let dirty = command_line("git", &["status", "--porcelain"], &dir).map(|s| !s.is_empty());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    obj(vec![
        (
            "git_sha",
            Json::Str(sha.unwrap_or_else(|| "unknown".into())),
        ),
        ("git_dirty", dirty.map_or(Json::Null, Json::Bool)),
        (
            "rustc",
            Json::Str(command_line("rustc", &["-V"], &dir).unwrap_or_else(|| "unknown".into())),
        ),
        ("available_parallelism", Json::U64(cores as u64)),
        (
            "cargo_features",
            Json::Arr(vec![
                Json::Str("flexsim/parallel".into()),
                Json::Str("icn-sim/parallel".into()),
            ]),
        ),
        ("engine_version", Json::Str(flexsim::ENGINE_VERSION.into())),
        ("seed", Json::U64(seed)),
        ("run_seconds", Json::U64(seconds)),
        ("data_dir_fs", Json::Str(fs_type(&out_dir()))),
        ("os", Json::Str(std::env::consts::OS.into())),
    ])
}
