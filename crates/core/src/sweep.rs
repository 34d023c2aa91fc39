//! Parallel execution of simulation sweeps, with supervision.
//!
//! [`run_supervised`] is the one supervised run: a single run of the
//! configuration as given, whose panic is caught and reported as an error,
//! and which a cancellation token or a wall-clock budget stops at its next
//! cycle boundary. There is no retry and no reseed, so every result it
//! returns is `run(cfg)` for the `cfg` it was given. The campaign server
//! drains its job queue through it, and so do [`sweep_supervised`]'s
//! workers, so a served result is the direct sweep's result by
//! construction.
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
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Why a sweep slot has no result.
#[derive(Clone, Debug)]
pub enum SweepError {
    /// The run of this configuration panicked.
    Panicked {
        /// Label of the failing configuration.
        label: String,
        /// Panic payload.
        message: String,
    },
    /// The run was stopped by a cancellation token or a wall-clock
    /// deadline before completing. Terminal: the campaign server persists
    /// the decision and never re-runs a cancelled slot.
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
            SweepError::Panicked { label, message } => write!(f, "`{label}` panicked: {message}"),
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

/// Observer that stops a run when its token is cancelled (checked every
/// cycle — an atomic load, negligible next to a simulation step) or its
/// deadline passes (checked every 256 cycles — `Instant::now` is a
/// syscall on some platforms, and sub-millisecond deadline precision is
/// meaningless for wall-clock budgets measured in seconds).
struct CancelObserver<'a> {
    token: &'a CancelToken,
    deadline: Option<Instant>,
    cycles: u64,
    /// `Some(timed_out)` once the observer has stopped the run.
    interrupted: Option<bool>,
}

impl RunObserver for CancelObserver<'_> {
    fn on_cycle(&mut self, _net: &Network, _ev: &StepEvents) -> ControlFlow<()> {
        if self.token.is_cancelled() {
            self.interrupted = Some(false);
            return ControlFlow::Break(());
        }
        self.cycles = self.cycles.wrapping_add(1);
        if self.cycles & 0xff == 0 {
            if let Some(deadline) = self.deadline {
                if Instant::now() >= deadline {
                    self.interrupted = Some(true);
                    return ControlFlow::Break(());
                }
            }
        }
        ControlFlow::Continue(())
    }
}

/// Runs one configuration once, under a panic guard, with cooperative
/// cancellation. A panic becomes [`SweepError::Panicked`]; the run stops
/// at the next cycle boundary after `token` is cancelled or after
/// `budget` wall-clock time elapses, returning [`SweepError::Cancelled`]
/// instead of a (truncated, digest-meaningless) result. Nothing is
/// retried: an `Ok` is always `crate::run(cfg)`, byte for byte — the
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
    let mut obs = CancelObserver {
        token,
        deadline: budget.map(|b| Instant::now() + b),
        cycles: 0,
        interrupted: None,
    };
    match catch_unwind(AssertUnwindSafe(|| run_with(cfg, &mut obs))) {
        Err(payload) => Err(SweepError::Panicked {
            label: cfg.label(),
            message: if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            },
        }),
        Ok(r) => match obs.interrupted {
            None => Ok(r),
            Some(timed_out) => Err(SweepError::Cancelled {
                label: cfg.label(),
                timed_out,
            }),
        },
    }
}

/// Runs every configuration across OS threads under supervision and
/// returns per-slot results in input order. A panicking configuration
/// never takes its siblings down: its slot becomes `Err` while every
/// other run completes normally.
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
/// This is the strict interface: a configuration that fails panics here
/// — but only after every sibling has completed, so no finished work is
/// discarded mid-flight. Callers that want per-slot errors instead use
/// [`sweep_supervised`].
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
    /// `RunConfig::check`, which `run` asserts) must degrade to a
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
            Err(SweepError::Panicked { message, .. }) => {
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
