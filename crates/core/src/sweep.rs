//! Parallel execution of simulation sweeps, with supervision.
//!
//! [`run_supervised`] is the one supervised run: worker panics are caught
//! and retried with perturbed seeds (bounded backoff between attempts),
//! and a cancellation token or a wall-clock budget stops a run at its next
//! cycle boundary. The campaign server drains its job queue through it,
//! and so do [`sweep_supervised`]'s workers, so a served result is the
//! direct sweep's result by construction.
//!
//! [`sweep_supervised`] fans configurations out across OS threads; a
//! failing configuration degrades to a per-slot [`SweepError`] instead of
//! aborting its siblings. [`sweep`] is the historical strict wrapper: same
//! execution, but any failed slot panics *after* every sibling has
//! completed. A sweep writes nothing to disk: a campaign that must
//! survive a crash is submitted to the campaign server (`icn-server`),
//! whose per-job checkpoint is the one resumable path.

use crate::runner::{run_with, RunObserver};
use crate::{RunConfig, RunResult};
use icn_sim::{Network, StepEvents};
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
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
    /// The run was stopped by a cancellation token or a wall-clock
    /// deadline before completing. Terminal: a cancelled slot is never
    /// retried, and the campaign server persists the decision.
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

/// Inert shim: a sweep has no knobs (supervision is fixed, see
/// [`run_supervised`]). Kept only because `benchmark/src/campaign.rs`
/// passes `&SweepOptions::default()`; dropped with ROADMAP item 1.
#[derive(Clone, Debug, Default)]
pub struct SweepOptions;

/// Extra attempts after a panicking first run (each with a perturbed
/// seed, in case the panic was load-order dependent).
const RETRIES: u32 = 2;
/// Sleep before the first retry; doubles per attempt.
const BACKOFF: Duration = Duration::from_millis(50);
/// Upper bound on the per-attempt backoff.
const MAX_BACKOFF: Duration = Duration::from_secs(1);

/// The backoff slept before retry `attempt` (1-based): [`BACKOFF`]
/// doubled per attempt, clamped to [`MAX_BACKOFF`].
fn backoff_for(attempt: u32) -> Duration {
    debug_assert!(attempt >= 1, "attempt 0 is the first try — no backoff");
    let exp = (attempt - 1).min(20);
    BACKOFF.saturating_mul(1 << exp).min(MAX_BACKOFF)
}

/// One worker attempt cycle over an arbitrary runner: execute under a
/// panic guard, retrying with a perturbed seed and bounded backoff.
/// Returns the result or the final panic message. Generic so the
/// supervision machinery (reseed scheme, attempt accounting, backoff
/// ordering) is testable without a real simulation.
fn run_guarded_with<F>(cfg: &RunConfig, runner: F) -> Result<RunResult, SweepError>
where
    F: Fn(&RunConfig) -> RunResult,
{
    let attempts = RETRIES + 1;
    let mut last_message = String::new();
    for attempt in 0..attempts {
        let mut c = cfg.clone();
        if attempt > 0 {
            // Attempt `a` runs seed + (a·golden-ratio constant | 1): a
            // reseed can clear panics tied to a particular traffic
            // realization, while a deterministic bug fails every attempt
            // and surfaces as Err.
            c.seed = cfg
                .seed
                .wrapping_add((attempt as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
            std::thread::sleep(backoff_for(attempt));
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

/// Runs one configuration under the full supervision discipline — panic
/// isolation, retry-and-reseed, bounded backoff — with cooperative
/// cancellation: the run stops at the next cycle boundary after `token`
/// is cancelled or after `budget` wall-clock time elapses, returning
/// [`SweepError::Cancelled`] instead of a (truncated, digest-meaningless)
/// result. An uninterrupted run is byte-identical to [`crate::run`] — the
/// observer only loads an atomic, it never perturbs simulation state.
pub fn run_supervised(
    cfg: &RunConfig,
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
    let result = run_guarded_with(cfg, |c| {
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

/// Runs every configuration across OS threads under supervision and
/// returns per-slot results in input order. A panicking configuration
/// never takes its siblings down: its slot becomes `Err` after the
/// retries are exhausted while every other run completes normally.
/// `_opts` is the inert [`SweepOptions`] shim.
pub fn sweep_supervised(
    configs: &[RunConfig],
    _opts: &SweepOptions,
) -> Vec<Result<RunResult, SweepError>> {
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(configs.len());
    // Each index is claimed exactly once through the cursor and its
    // worker fills that index's slot. A worker that panics outside the
    // guard propagates through the scope before the slots are read.
    let next = AtomicUsize::new(0);
    let never = CancelToken::new();
    let slots: Vec<OnceLock<Result<RunResult, SweepError>>> =
        configs.iter().map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cfg) = configs.get(i) else {
                    break;
                };
                let _ = slots[i].set(run_supervised(cfg, &never, None));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every index is claimed"))
        .collect()
}

/// Runs every configuration, fanning out across OS threads (one run is
/// single-threaded and deterministic, so parallelism across points is
/// safe), and returns results in input order.
///
/// This is the strict interface: a configuration that still fails after
/// the retries panics here — but only after every sibling has completed,
/// so no finished work is discarded mid-flight. Callers that want
/// per-slot errors instead use [`sweep_supervised`].
pub fn sweep(configs: &[RunConfig]) -> Vec<RunResult> {
    let mut failures: Vec<String> = Vec::new();
    let results: Vec<RunResult> = sweep_supervised(configs, &SweepOptions)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run;
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
        let results = sweep_supervised(&configs, &SweepOptions);
        assert_eq!(results.len(), 3);
        assert!(results[0].is_ok(), "sibling before the poison must finish");
        assert!(results[2].is_ok(), "sibling after the poison must finish");
        match &results[1] {
            Err(SweepError::Panicked {
                attempts, message, ..
            }) => {
                assert_eq!(*attempts, RETRIES + 1);
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

    /// Retry-and-reseed: a runner that panics on the original seed but
    /// succeeds on any perturbed one must be rescued by the retry loop,
    /// and the rescue must use the documented perturbation scheme.
    #[test]
    fn retry_reseeds_after_injected_panic() {
        let cfg = quick_cfg(0.2);
        let original_seed = cfg.seed;
        let attempts = std::sync::atomic::AtomicU32::new(0);
        let r = run_guarded_with(&cfg, |c| {
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
        let r = run_guarded_with(&cfg, |_| -> RunResult {
            attempts.fetch_add(1, Ordering::SeqCst);
            panic!("always broken")
        });
        assert_eq!(attempts.load(Ordering::SeqCst), RETRIES + 1);
        match r {
            Err(SweepError::Panicked {
                attempts, message, ..
            }) => {
                assert_eq!(attempts, RETRIES + 1);
                assert!(message.contains("always broken"));
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    /// Backoff ordering: doubles per retry, clamps at the cap, and never
    /// decreases.
    #[test]
    fn backoff_doubles_then_clamps() {
        let seq: Vec<Duration> = (1..=7).map(backoff_for).collect();
        assert_eq!(
            seq,
            [50, 100, 200, 400, 800, 1000, 1000].map(Duration::from_millis)
        );
        for w in seq.windows(2) {
            assert!(w[0] <= w[1], "backoff must be monotone");
        }
        // The shift exponent saturates instead of overflowing on absurd
        // attempt counts.
        assert_eq!(backoff_for(64), MAX_BACKOFF);
    }

    /// A pre-cancelled token short-circuits without running anything; a
    /// token cancelled mid-run stops the run and reports `Cancelled`
    /// rather than returning a truncated result.
    #[test]
    fn cancellation_stops_runs() {
        let cfg = quick_cfg(0.2);

        let token = CancelToken::new();
        token.cancel();
        match run_supervised(&cfg, &token, None) {
            Err(SweepError::Cancelled { label, timed_out }) => {
                assert_eq!(label, cfg.label());
                assert!(!timed_out);
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }

        // An uncancelled token leaves the run byte-identical to a plain
        // run.
        let token = CancelToken::new();
        let r = run_supervised(&cfg, &token, None).unwrap();
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
        match run_supervised(&cfg, &token, Some(Duration::ZERO)) {
            Err(SweepError::Cancelled { timed_out, .. }) => assert!(timed_out),
            other => panic!("expected timeout, got {other:?}"),
        }
    }
}
