//! Parallel execution of simulation sweeps, with supervision.
//!
//! [`sweep_supervised`] is the hardened engine: worker panics are caught
//! and retried with perturbed seeds (bounded backoff between attempts),
//! a failing configuration degrades to a per-slot [`SweepError`] instead
//! of aborting its siblings, and long campaigns can checkpoint finished
//! results to disk so an interrupted sweep resumes where it stopped.
//! [`sweep`] is the historical strict wrapper: same execution, but any
//! failed slot panics *after* every sibling has completed.

use crate::checkpoint::encode_result;
use crate::jsonio::{durable, frame_record, obj, Json};
use crate::runner::{run_with, RunObserver};
use crate::tail::CheckpointTail;
use crate::{run, RunConfig, RunResult};
use icn_sim::{Network, StepEvents};
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Why a sweep slot has no result.
#[derive(Clone, Debug)]
pub enum SweepError {
    /// Every attempt at this configuration panicked.
    Panicked {
        /// Label of the failing configuration.
        label: String,
        /// Attempts made (first try plus retries).
        attempts: u32,
        /// Panic payload of the final attempt.
        message: String,
    },
    /// The worker delivering this slot disappeared without reporting —
    /// only possible if a thread died outside the panic guard.
    Missing {
        /// Label of the configuration that went unreported.
        label: String,
    },
    /// The run was stopped by a cancellation token or a wall-clock
    /// deadline before completing. Terminal: a cancelled slot is never
    /// retried, and the decision persists through checkpoints.
    Cancelled {
        /// Label of the cancelled configuration.
        label: String,
        /// `true` when the per-config deadline expired; `false` when an
        /// explicit cancel request stopped the run.
        timed_out: bool,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Panicked {
                label,
                attempts,
                message,
            } => write!(
                f,
                "`{label}` panicked on all {attempts} attempts: {message}"
            ),
            SweepError::Missing { label } => write!(f, "`{label}` was never reported"),
            SweepError::Cancelled { label, timed_out } => {
                if *timed_out {
                    write!(f, "`{label}` exceeded its wall-clock deadline")
                } else {
                    write!(f, "`{label}` was cancelled")
                }
            }
        }
    }
}

/// Cooperative cancellation handle shared between a controller (HTTP
/// cancel endpoint, timeout watchdog) and the runs it governs. Cloning
/// shares the underlying flag; cancellation is one-way and permanent.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Every run holding a clone of this token
    /// stops at its next observer check (once per simulation cycle).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

impl std::error::Error for SweepError {}

/// Supervision knobs for [`sweep_supervised`].
#[derive(Clone, Debug)]
pub struct SweepOptions {
    /// Extra attempts after a panicking first run (each with a perturbed
    /// seed, in case the panic was load-order dependent).
    pub retries: u32,
    /// Sleep before the first retry; doubles per attempt.
    pub backoff: Duration,
    /// Upper bound on the per-attempt backoff.
    pub max_backoff: Duration,
    /// When `Some`, finished results are appended to this file as JSON
    /// lines, and a rerun of the same sweep resumes from it: slots whose
    /// recorded label matches the configuration are restored instead of
    /// re-run. Checkpointed results are byte-exact (digest-identical to a
    /// fresh run).
    pub checkpoint: Option<PathBuf>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            retries: 2,
            backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(1),
            checkpoint: None,
        }
    }
}

/// The backoff slept before retry `attempt` (1-based): `opts.backoff`
/// doubled per attempt, clamped to `opts.max_backoff`.
pub fn backoff_for(attempt: u32, opts: &SweepOptions) -> Duration {
    debug_assert!(attempt >= 1, "attempt 0 is the first try — no backoff");
    let exp = (attempt - 1).min(20);
    opts.backoff.saturating_mul(1 << exp).min(opts.max_backoff)
}

/// One worker attempt cycle over an arbitrary runner: execute under a
/// panic guard, retrying with a perturbed seed and bounded backoff.
/// Returns the result or the final panic message. Generic so the
/// supervision machinery (reseed scheme, attempt accounting, backoff
/// ordering) is testable without a real simulation.
fn run_guarded_with<F>(
    cfg: &RunConfig,
    opts: &SweepOptions,
    runner: F,
) -> Result<RunResult, SweepError>
where
    F: Fn(&RunConfig) -> RunResult,
{
    let attempts = opts.retries + 1;
    let mut last_message = String::new();
    for attempt in 0..attempts {
        let mut c = cfg.clone();
        if attempt > 0 {
            // Same perturbation scheme as `replicate`: a reseed can clear
            // panics tied to a particular traffic realization, while a
            // deterministic bug fails every attempt and surfaces as Err.
            c.seed = cfg
                .seed
                .wrapping_add((attempt as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
            std::thread::sleep(backoff_for(attempt, opts));
        }
        match catch_unwind(AssertUnwindSafe(|| runner(&c))) {
            Ok(r) => return Ok(r),
            Err(payload) => {
                last_message = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "non-string panic payload".to_string()
                };
            }
        }
    }
    Err(SweepError::Panicked {
        label: cfg.label(),
        attempts,
        message: last_message,
    })
}

/// Runs one configuration under the full supervision discipline of
/// [`sweep_supervised`] — panic isolation, retry-and-reseed, bounded
/// backoff — without the sweep scaffolding. This is the execution unit
/// the campaign server's worker pool drains its job queue through, so a
/// served result is byte-identical to the same slot of a direct
/// supervised sweep.
pub fn run_supervised(cfg: &RunConfig, opts: &SweepOptions) -> Result<RunResult, SweepError> {
    run_guarded_with(cfg, opts, run)
}

/// How a cancellable run was interrupted, if it was.
const INTERRUPT_NONE: u8 = 0;
const INTERRUPT_CANCELLED: u8 = 1;
const INTERRUPT_TIMED_OUT: u8 = 2;

/// Observer that stops a run when its token is cancelled (checked every
/// cycle — an atomic load, negligible next to a simulation step) or its
/// deadline passes (checked every 256 cycles — `Instant::now` is a
/// syscall on some platforms, and sub-millisecond deadline precision is
/// meaningless for wall-clock budgets measured in seconds).
struct CancelObserver<'a> {
    token: &'a CancelToken,
    deadline: Option<Instant>,
    cycles: u64,
    interrupt: u8,
}

impl RunObserver for CancelObserver<'_> {
    fn on_cycle(&mut self, _net: &Network, _ev: &StepEvents) -> ControlFlow<()> {
        if self.token.is_cancelled() {
            self.interrupt = INTERRUPT_CANCELLED;
            return ControlFlow::Break(());
        }
        self.cycles = self.cycles.wrapping_add(1);
        if self.cycles & 0xff == 0 {
            if let Some(deadline) = self.deadline {
                if Instant::now() >= deadline {
                    self.interrupt = INTERRUPT_TIMED_OUT;
                    return ControlFlow::Break(());
                }
            }
        }
        ControlFlow::Continue(())
    }
}

/// [`run_supervised`] with cooperative cancellation: the run stops at the
/// next cycle boundary after `token` is cancelled or after `budget`
/// wall-clock time elapses, returning [`SweepError::Cancelled`] instead
/// of a (truncated, digest-meaningless) result. An uninterrupted run is
/// byte-identical to [`run_supervised`] — the observer only loads an
/// atomic, it never perturbs simulation state.
pub fn run_supervised_cancellable(
    cfg: &RunConfig,
    opts: &SweepOptions,
    token: &CancelToken,
    budget: Option<Duration>,
) -> Result<RunResult, SweepError> {
    if token.is_cancelled() {
        return Err(SweepError::Cancelled {
            label: cfg.label(),
            timed_out: false,
        });
    }
    let deadline = budget.map(|b| Instant::now() + b);
    // The retry loop's runner is `Fn`, so the observer's interrupt
    // verdict escapes through an atomic. Only the final attempt's verdict
    // matters: an interrupt ends the attempt without a panic, so no
    // further attempts follow it.
    let interrupted = AtomicU8::new(INTERRUPT_NONE);
    let result = run_guarded_with(cfg, opts, |c| {
        let mut obs = CancelObserver {
            token,
            deadline,
            cycles: 0,
            interrupt: INTERRUPT_NONE,
        };
        let r = run_with(c, &mut obs);
        interrupted.store(obs.interrupt, Ordering::SeqCst);
        r
    });
    match (result, interrupted.load(Ordering::SeqCst)) {
        (Ok(_), INTERRUPT_CANCELLED) => Err(SweepError::Cancelled {
            label: cfg.label(),
            timed_out: false,
        }),
        (Ok(_), INTERRUPT_TIMED_OUT) => Err(SweepError::Cancelled {
            label: cfg.label(),
            timed_out: true,
        }),
        (r, _) => r,
    }
}

/// What a checkpoint restore found on disk.
///
/// The zero value (`restored == 0`, `skipped_lines == 0`,
/// `torn_tail == false`) is indistinguishable from a missing file, which
/// is exactly right: an absent checkpoint is an empty one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckpointRestore {
    /// Slots restored from disk instead of re-run.
    pub restored: usize,
    /// Lines that parsed as JSON but could not be restored (undecodable
    /// result, out-of-range index, or a label that no longer matches the
    /// configuration at that index), plus interior lines that failed to
    /// parse outright. Every such line is silent data loss the caller
    /// should surface; a nonzero count on a file this sweep wrote itself
    /// means corruption.
    pub skipped_lines: usize,
    /// Interior CRC-framed lines whose frame failed verification —
    /// *detected* corruption, counted separately from `skipped_lines`
    /// because the frame proves a record was intended there. These slots
    /// simply re-run; the count is surfaced so operators see the loss.
    pub corrupt_frames: usize,
    /// Slots restored as terminally cancelled/timed-out from persisted
    /// status lines. These are not re-run: the cancellation decision
    /// survives restarts.
    pub cancelled: usize,
    /// The file ends in a partially written line — the signature of a
    /// writer killed mid-append. Tolerated explicitly (the interrupted
    /// slot simply re-runs) and reported so callers can distinguish
    /// "clean resume" from "resume after a hard kill".
    pub torn_tail: bool,
}

/// Restores completed slots from a checkpoint file, reporting exactly
/// what was kept and what was lost. See [`CheckpointRestore`] for the
/// accounting semantics. Accepts both CRC-framed records (the current
/// append format) and legacy bare JSON lines; damaged lines are
/// quarantined to `<path>.quarantine` so the evidence survives the next
/// clean rewrite of the checkpoint. This is one whole-file
/// [`CheckpointTail`] refresh; later records for a slot win.
pub fn restore_checkpoint(
    path: &std::path::Path,
    configs: &[RunConfig],
    slots: &mut [Option<Result<RunResult, SweepError>>],
) -> CheckpointRestore {
    let mut tail = CheckpointTail::new(path, configs.iter().map(RunConfig::label).collect());
    // An unreadable checkpoint restores nothing, like an absent one.
    let _ = tail.refresh_with(|i, r| {
        slots[i] = Some(r.map_err(|timed_out| SweepError::Cancelled {
            label: configs[i].label(),
            timed_out,
        }));
    });
    tail.report()
}

/// Renders one checkpoint line: `{"index":i,"label":...,"result":{...}}`.
/// The campaign server writes its per-job checkpoint/result files in
/// exactly this format so [`restore_checkpoint`] can resume them.
pub fn checkpoint_line(index: usize, label: &str, result: &RunResult) -> String {
    obj(vec![
        ("index", Json::U64(index as u64)),
        ("label", Json::Str(label.to_string())),
        ("result", encode_result(result)),
    ])
    .to_string()
}

/// Renders one checkpoint *status* line persisting a terminal
/// cancellation decision: `{"index":i,"label":...,"status":"cancelled"}`
/// (or `"timed_out"`). [`restore_checkpoint`] restores such slots as
/// [`SweepError::Cancelled`] so they are not re-run after a restart.
pub fn checkpoint_status_line(index: usize, label: &str, timed_out: bool) -> String {
    obj(vec![
        ("index", Json::U64(index as u64)),
        ("label", Json::Str(label.to_string())),
        (
            "status",
            Json::Str(if timed_out { "timed_out" } else { "cancelled" }.to_string()),
        ),
    ])
    .to_string()
}

/// [`sweep_supervised`] output plus the checkpoint-restore accounting.
#[derive(Debug)]
pub struct SweepReport {
    /// Per-slot results in input order.
    pub results: Vec<Result<RunResult, SweepError>>,
    /// What the checkpoint restore found. `None` when
    /// [`SweepOptions::checkpoint`] was `None`.
    pub checkpoint: Option<CheckpointRestore>,
}

/// Runs every configuration across OS threads under supervision and
/// returns per-slot results in input order. A panicking configuration
/// never takes its siblings down: its slot becomes `Err` after the
/// retries are exhausted while every other run completes normally.
pub fn sweep_supervised(
    configs: &[RunConfig],
    opts: &SweepOptions,
) -> Vec<Result<RunResult, SweepError>> {
    sweep_supervised_report(configs, opts).results
}

/// [`sweep_supervised`] with the checkpoint-restore accounting attached:
/// how many slots came from disk, how many checkpoint lines were lost to
/// corruption, and whether the file ended in a torn line.
pub fn sweep_supervised_report(configs: &[RunConfig], opts: &SweepOptions) -> SweepReport {
    let mut slots: Vec<Option<Result<RunResult, SweepError>>> = Vec::new();
    slots.resize_with(configs.len(), || None);
    if configs.is_empty() {
        return SweepReport {
            results: Vec::new(),
            checkpoint: opts
                .checkpoint
                .as_ref()
                .map(|_| CheckpointRestore::default()),
        };
    }

    let checkpoint = opts
        .checkpoint
        .as_ref()
        .map(|path| restore_checkpoint(path, configs, &mut slots));
    // A torn tail means the previous writer died mid-append; one guard
    // newline seals the partial line off so fresh appends start clean.
    if let (Some(path), Some(ck)) = (opts.checkpoint.as_ref(), checkpoint.as_ref()) {
        if ck.torn_tail {
            let _ = durable::append_line(path, "");
        }
    }
    let pending: Vec<usize> = (0..configs.len()).filter(|&i| slots[i].is_none()).collect();

    if !pending.is_empty() {
        let workers = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(pending.len());

        // Finished results append through `durable::append_line` — one
        // CRC-framed line per record, a single O_APPEND write each, so a
        // record from any process lands contiguously or tears detectably.
        let ckpt = opts.checkpoint.as_deref();

        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, Result<RunResult, SweepError>)>();
        std::thread::scope(|scope| {
            let next = &next;
            let pending = &pending;
            for _ in 0..workers {
                let tx = tx.clone();
                scope.spawn(move || loop {
                    let n = next.fetch_add(1, Ordering::Relaxed);
                    if n >= pending.len() {
                        break;
                    }
                    let i = pending[n];
                    // A dropped receiver just means nobody wants the
                    // result any more; finish the remaining work quietly.
                    if tx.send((i, run_supervised(&configs[i], opts))).is_err() {
                        break;
                    }
                });
            }
            // The workers hold the remaining senders; once they all
            // finish, the channel closes and this drain ends.
            drop(tx);
            for (i, r) in rx {
                if let (Some(path), Ok(result)) = (ckpt, &r) {
                    let line = frame_record(&checkpoint_line(i, &configs[i].label(), result));
                    let _ = durable::append_line(path, &line);
                }
                slots[i] = Some(r);
            }
        });
    }

    let results = slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.unwrap_or(Err(SweepError::Missing {
                label: configs[i].label(),
            }))
        })
        .collect();
    SweepReport {
        results,
        checkpoint,
    }
}

/// Runs every configuration, fanning out across OS threads (one run is
/// single-threaded and deterministic, so parallelism across points is
/// safe), and returns results in input order.
///
/// This is the strict interface: a configuration that still fails after
/// the default retries panics here — but only after every sibling has
/// completed, so no finished work is discarded mid-flight. Callers that
/// want per-slot errors instead use [`sweep_supervised`].
pub fn sweep(configs: &[RunConfig]) -> Vec<RunResult> {
    let mut failures: Vec<String> = Vec::new();
    let results: Vec<RunResult> = sweep_supervised(configs, &SweepOptions::default())
        .into_iter()
        .filter_map(|r| match r {
            Ok(r) => Some(r),
            Err(e) => {
                failures.push(e.to_string());
                None
            }
        })
        .collect();
    assert!(
        failures.is_empty(),
        "sweep failed for {} of {} configurations:\n  {}",
        failures.len(),
        configs.len(),
        failures.join("\n  ")
    );
    results
}

/// Runs one configuration under `n` distinct seeds (in parallel) and
/// returns the per-seed results — the raw material for replication
/// statistics on any stochastic metric.
pub fn replicate(cfg: &RunConfig, n: usize) -> Vec<RunResult> {
    let configs: Vec<RunConfig> = (0..n as u64)
        .map(|i| {
            let mut c = cfg.clone();
            c.seed = cfg
                .seed
                .wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
            c
        })
        .collect();
    sweep(&configs)
}

/// Mean ± population standard deviation of the headline metrics across
/// replications of one configuration.
#[derive(Clone, Copy, Debug)]
pub struct ReplicationSummary {
    pub runs: usize,
    pub normalized_deadlocks: (f64, f64),
    pub accepted_load: (f64, f64),
    pub avg_latency: (f64, f64),
    pub deadlock_set_mean: (f64, f64),
}

/// Aggregates [`replicate`] output.
pub fn replication_summary(results: &[RunResult]) -> ReplicationSummary {
    assert!(!results.is_empty(), "need at least one replication");
    let stat = |f: &dyn Fn(&RunResult) -> f64| {
        let mut m = icn_metrics::Mean::new();
        for r in results {
            let v = f(r);
            if v.is_finite() {
                m.record(v);
            }
        }
        (m.mean(), m.std_dev())
    };
    ReplicationSummary {
        runs: results.len(),
        normalized_deadlocks: stat(&|r| r.normalized_deadlocks()),
        accepted_load: stat(&|r| r.accepted_load()),
        avg_latency: stat(&|r| r.avg_latency()),
        deadlock_set_mean: stat(&|r| r.deadlock_set.mean()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::RoutingSpec;

    fn quick_cfg(load: f64) -> RunConfig {
        let mut c = RunConfig::small_default();
        c.warmup = 200;
        c.measure = 800;
        c.load = load;
        c.routing = RoutingSpec::Tfar;
        c.sim.vcs_per_channel = 2;
        c
    }

    #[test]
    fn sweep_preserves_order_and_matches_serial() {
        let configs = vec![quick_cfg(0.2), quick_cfg(0.6)];
        let par = sweep(&configs);
        assert_eq!(par.len(), 2);
        assert!(par[0].offered_load < par[1].offered_load);
        let serial: Vec<_> = configs.iter().map(run).collect();
        for (p, s) in par.iter().zip(serial.iter()) {
            assert_eq!(p.delivered, s.delivered);
            assert_eq!(p.deadlocks, s.deadlocks);
        }
    }

    #[test]
    fn empty_sweep() {
        assert!(sweep(&[]).is_empty());
    }

    /// A deliberately panicking configuration (zero VCs fails
    /// `SimConfig::validate` on every attempt) must degrade to a
    /// per-slot error while its siblings complete normally.
    #[test]
    fn panicking_worker_degrades_to_error() {
        let mut poison = quick_cfg(0.2);
        poison.sim.vcs_per_channel = 0;
        let configs = vec![quick_cfg(0.2), poison, quick_cfg(0.3)];
        let opts = SweepOptions {
            retries: 1,
            backoff: Duration::from_millis(1),
            ..SweepOptions::default()
        };
        let results = sweep_supervised(&configs, &opts);
        assert_eq!(results.len(), 3);
        assert!(results[0].is_ok(), "sibling before the poison must finish");
        assert!(results[2].is_ok(), "sibling after the poison must finish");
        match &results[1] {
            Err(SweepError::Panicked {
                attempts, message, ..
            }) => {
                assert_eq!(*attempts, 2);
                assert!(
                    message.contains("vcs_per_channel"),
                    "panic message should surface: {message}"
                );
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        // The healthy siblings are byte-identical to solo runs.
        assert_eq!(
            results[0].as_ref().unwrap().digest(),
            run(&configs[0]).digest()
        );
    }

    #[test]
    #[should_panic(expected = "sweep failed for 1 of 1")]
    fn strict_sweep_panics_after_completion() {
        let mut poison = quick_cfg(0.2);
        poison.sim.vcs_per_channel = 0;
        let _ = sweep(&[poison]);
    }

    /// Interrupt-and-resume: a checkpoint written by one invocation is
    /// picked up by the next, which re-runs only the missing slots and
    /// reproduces the uninterrupted sweep byte-for-byte.
    #[test]
    fn checkpoint_resume_is_digest_exact() {
        let configs = vec![quick_cfg(0.2), quick_cfg(0.4)];
        let dir = std::env::temp_dir().join(format!(
            "icn-sweep-ckpt-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.jsonl");
        let _ = std::fs::remove_file(&path);

        // First pass: only the first config, checkpointed.
        let opts = SweepOptions {
            checkpoint: Some(path.clone()),
            ..SweepOptions::default()
        };
        let first = sweep_supervised(&configs[..1], &opts);
        assert!(first[0].is_ok());

        // Resumed pass over the full sweep: slot 0 must come from disk.
        let resumed = sweep_supervised(&configs, &opts);
        let fresh = sweep(&configs);
        for (r, f) in resumed.iter().zip(fresh.iter()) {
            assert_eq!(r.as_ref().unwrap().digest(), f.digest());
        }

        // The checkpoint now covers both slots; a third pass restores
        // everything without running anything (workers see no pending
        // slots).
        let restored = sweep_supervised(&configs, &opts);
        for (r, f) in restored.iter().zip(fresh.iter()) {
            assert_eq!(r.as_ref().unwrap().digest(), f.digest());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Retry-and-reseed: a runner that panics on the original seed but
    /// succeeds on any perturbed one must be rescued by the retry loop,
    /// and the rescue must use the documented perturbation scheme.
    #[test]
    fn retry_reseeds_after_injected_panic() {
        let cfg = quick_cfg(0.2);
        let original_seed = cfg.seed;
        let attempts = std::sync::atomic::AtomicU32::new(0);
        let opts = SweepOptions {
            retries: 2,
            backoff: Duration::from_millis(1),
            ..SweepOptions::default()
        };
        let r = run_guarded_with(&cfg, &opts, |c| {
            attempts.fetch_add(1, Ordering::SeqCst);
            assert!(
                c.seed == original_seed
                    || c.seed
                        == original_seed.wrapping_add(1u64.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1),
                "unexpected reseed value {:#x}",
                c.seed
            );
            if c.seed == original_seed {
                panic!("injected load-order-dependent panic");
            }
            run(c)
        });
        assert_eq!(attempts.load(Ordering::SeqCst), 2, "first try + one retry");
        let r = r.expect("perturbed seed should succeed");
        // The rescued result is the perturbed-seed run, byte-exactly.
        let mut reseeded = cfg.clone();
        reseeded.seed = original_seed.wrapping_add(0x9e37_79b9_7f4a_7c15 | 1);
        assert_eq!(r.digest(), run(&reseeded).digest());
    }

    /// A deterministic panic exhausts every attempt and reports the
    /// attempt count and final message.
    #[test]
    fn deterministic_panic_exhausts_all_attempts() {
        let cfg = quick_cfg(0.2);
        let attempts = std::sync::atomic::AtomicU32::new(0);
        let opts = SweepOptions {
            retries: 3,
            backoff: Duration::from_millis(1),
            ..SweepOptions::default()
        };
        let r = run_guarded_with(&cfg, &opts, |_| -> RunResult {
            attempts.fetch_add(1, Ordering::SeqCst);
            panic!("always broken")
        });
        assert_eq!(attempts.load(Ordering::SeqCst), 4);
        match r {
            Err(SweepError::Panicked {
                attempts, message, ..
            }) => {
                assert_eq!(attempts, 4);
                assert!(message.contains("always broken"));
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    /// Backoff ordering: doubles per retry, clamps at the cap, and never
    /// decreases.
    #[test]
    fn backoff_doubles_then_clamps() {
        let opts = SweepOptions {
            backoff: Duration::from_millis(50),
            max_backoff: Duration::from_millis(350),
            ..SweepOptions::default()
        };
        let seq: Vec<Duration> = (1..=5).map(|a| backoff_for(a, &opts)).collect();
        assert_eq!(
            seq,
            vec![
                Duration::from_millis(50),
                Duration::from_millis(100),
                Duration::from_millis(200),
                Duration::from_millis(350),
                Duration::from_millis(350),
            ]
        );
        for w in seq.windows(2) {
            assert!(w[0] <= w[1], "backoff must be monotone");
        }
        // The shift exponent saturates instead of overflowing on absurd
        // attempt counts.
        assert_eq!(backoff_for(64, &opts), Duration::from_millis(350));
    }

    /// Checkpoint-resume from a file whose final line was torn by a hard
    /// kill: the torn slot re-runs, the intact slot restores, accounting
    /// reports the tear, and the resumed sweep is digest-exact against an
    /// uninterrupted run.
    #[test]
    fn truncated_checkpoint_resumes_digest_exact() {
        let configs = vec![quick_cfg(0.2), quick_cfg(0.4)];
        let dir = std::env::temp_dir().join(format!(
            "icn-sweep-torn-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.jsonl");
        let _ = std::fs::remove_file(&path);

        let opts = SweepOptions {
            checkpoint: Some(path.clone()),
            ..SweepOptions::default()
        };
        let full = sweep_supervised_report(&configs, &opts);
        assert!(full.results.iter().all(Result::is_ok));
        let ck = full.checkpoint.expect("checkpoint accounting present");
        assert_eq!(
            ck,
            CheckpointRestore::default(),
            "fresh run restores nothing"
        );

        // Simulate the writer dying mid-append: cut the file mid-way
        // through its final line (no trailing newline).
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let torn = format!("{}\n{}", lines[0], &lines[1][..lines[1].len() / 2]);
        std::fs::write(&path, &torn).unwrap();

        let resumed = sweep_supervised_report(&configs, &opts);
        let ck = resumed.checkpoint.unwrap();
        assert_eq!(ck.restored, 1, "the intact line restores");
        assert!(ck.torn_tail, "the tear must be reported");
        assert_eq!(ck.skipped_lines, 0, "a torn tail is not counted as loss");

        let fresh = sweep(&configs);
        for (r, f) in resumed.results.iter().zip(fresh.iter()) {
            assert_eq!(r.as_ref().unwrap().digest(), f.digest());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Interior garbage (a corrupted line in the middle of the file) is
    /// counted as skipped, not silently dropped.
    #[test]
    fn corrupted_interior_line_is_counted() {
        let configs = vec![quick_cfg(0.2), quick_cfg(0.4)];
        let dir = std::env::temp_dir().join(format!(
            "icn-sweep-corrupt-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.jsonl");
        let _ = std::fs::remove_file(&path);
        let opts = SweepOptions {
            checkpoint: Some(path.clone()),
            ..SweepOptions::default()
        };
        let _ = sweep_supervised(&configs, &opts);

        // Corrupt the first line in place, keep the second intact.
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let corrupted = format!("{}XX\n{}\n", &lines[0][..lines[0].len() - 2], lines[1]);
        std::fs::write(&path, &corrupted).unwrap();

        let resumed = sweep_supervised_report(&configs, &opts);
        let ck = resumed.checkpoint.unwrap();
        assert_eq!(ck.restored, 1);
        assert_eq!(
            ck.corrupt_frames, 1,
            "the garbled frame is detected corruption, not silent skip"
        );
        assert_eq!(ck.skipped_lines, 0);
        assert!(!ck.torn_tail);
        // The damaged line was quarantined for inspection.
        let quarantine = path.with_extension("quarantine");
        assert!(
            std::fs::read_to_string(&quarantine)
                .unwrap()
                .trim()
                .starts_with(crate::jsonio::FRAME_MARK),
            "damaged frame preserved in quarantine"
        );
        // The damaged slot re-ran; results still match a fresh sweep.
        let fresh = sweep(&configs);
        for (r, f) in resumed.results.iter().zip(fresh.iter()) {
            assert_eq!(r.as_ref().unwrap().digest(), f.digest());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Satellite regression: a checkpoint whose final record is cleanly
    /// newline-terminated must restore with zero skipped lines and no
    /// torn tail — the trailing newline must not manufacture a phantom
    /// empty "line" in the loss accounting.
    #[test]
    fn trailing_newline_is_not_counted_as_skipped() {
        let configs = vec![quick_cfg(0.2), quick_cfg(0.4)];
        let dir = std::env::temp_dir().join(format!(
            "icn-sweep-newline-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.jsonl");
        let _ = std::fs::remove_file(&path);
        let opts = SweepOptions {
            checkpoint: Some(path.clone()),
            ..SweepOptions::default()
        };
        let _ = sweep_supervised(&configs, &opts);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.ends_with('\n'), "appends are newline-terminated");

        let mut slots: Vec<Option<Result<RunResult, SweepError>>> = vec![None, None];
        let ck = restore_checkpoint(&path, &configs, &mut slots);
        assert_eq!(ck.restored, 2);
        assert_eq!(
            ck.skipped_lines, 0,
            "no phantom line after the final newline"
        );
        assert_eq!(ck.corrupt_frames, 0);
        assert!(!ck.torn_tail);

        // Same with extra blank lines appended (kill-guard newlines).
        std::fs::write(&path, format!("{text}\n\n")).unwrap();
        let mut slots: Vec<Option<Result<RunResult, SweepError>>> = vec![None, None];
        let ck = restore_checkpoint(&path, &configs, &mut slots);
        assert_eq!(ck.restored, 2);
        assert_eq!(ck.skipped_lines, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A pre-cancelled token short-circuits without running anything; a
    /// token cancelled mid-run stops the run and reports `Cancelled`
    /// rather than returning a truncated result.
    #[test]
    fn cancellation_stops_runs() {
        let cfg = quick_cfg(0.2);
        let opts = SweepOptions::default();

        let token = CancelToken::new();
        token.cancel();
        match run_supervised_cancellable(&cfg, &opts, &token, None) {
            Err(SweepError::Cancelled { label, timed_out }) => {
                assert_eq!(label, cfg.label());
                assert!(!timed_out);
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }

        // An uncancelled token leaves the run byte-identical to the
        // plain supervised path.
        let token = CancelToken::new();
        let r = run_supervised_cancellable(&cfg, &opts, &token, None).unwrap();
        assert_eq!(r.digest(), run(&cfg).digest());
    }

    /// A zero wall-clock budget trips the deadline at the first check and
    /// surfaces as `timed_out: true`.
    #[test]
    fn zero_budget_times_out() {
        let mut cfg = quick_cfg(0.2);
        // Enough cycles that the 256-cycle deadline check must fire.
        cfg.warmup = 200;
        cfg.measure = 2000;
        let token = CancelToken::new();
        match run_supervised_cancellable(
            &cfg,
            &SweepOptions::default(),
            &token,
            Some(Duration::ZERO),
        ) {
            Err(SweepError::Cancelled { timed_out, .. }) => assert!(timed_out),
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    /// Persisted status lines restore as terminal `Cancelled` slots: the
    /// decision survives a restart and the slot is not re-run.
    #[test]
    fn status_lines_restore_as_cancelled() {
        let configs = vec![quick_cfg(0.2), quick_cfg(0.4)];
        let dir = std::env::temp_dir().join(format!(
            "icn-sweep-status-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.jsonl");
        let line =
            crate::jsonio::frame_record(&checkpoint_status_line(1, &configs[1].label(), true));
        std::fs::write(&path, format!("{line}\n")).unwrap();

        let mut slots: Vec<Option<Result<RunResult, SweepError>>> = vec![None, None];
        let ck = restore_checkpoint(&path, &configs, &mut slots);
        assert_eq!(ck.cancelled, 1);
        assert_eq!(ck.restored, 0);
        assert!(slots[0].is_none(), "unrelated slot untouched");
        match &slots[1] {
            Some(Err(SweepError::Cancelled { timed_out, .. })) => assert!(timed_out),
            other => panic!("expected restored Cancelled, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replication_uses_distinct_seeds_and_summarizes() {
        let mut cfg = RunConfig::small_default();
        cfg.warmup = 200;
        cfg.measure = 800;
        cfg.load = 0.9;
        cfg.routing = RoutingSpec::Dor;
        let reps = replicate(&cfg, 3);
        assert_eq!(reps.len(), 3);
        // Different seeds should produce (at least slightly) different
        // traffic volumes.
        let gens: std::collections::HashSet<u64> = reps.iter().map(|r| r.generated).collect();
        assert!(gens.len() > 1, "replications look identical");
        let s = replication_summary(&reps);
        assert_eq!(s.runs, 3);
        assert!(s.accepted_load.0 > 0.0);
        assert!(s.avg_latency.0 > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one replication")]
    fn empty_summary_rejected() {
        let _ = replication_summary(&[]);
    }
}
