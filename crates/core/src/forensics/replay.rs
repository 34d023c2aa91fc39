//! Deterministic incident replay.
//!
//! The simulation is a pure function of its [`RunConfig`] (the only
//! randomness is `StdRng` seeded from `cfg.seed`), so re-running the
//! incident's config halts at the incident epoch with — if the record is
//! faithful — the *same* blocked wait-state. The assertion is two-fold:
//! the order-independent 64-bit wait-state fingerprint must match, and so
//! must the deadlock sets (the message ids of each knot). The replay is
//! not a forensic run, so the runner captures nothing at the epoch; the
//! observer takes the one snapshot the fingerprint comes from.

use std::ops::ControlFlow;

use icn_sim::SnapshotArena;

use crate::runner::{run_with, EpochView, RunObserver};

use super::DeadlockIncident;

/// Outcome of [`replay`].
#[derive(Clone, Debug)]
pub struct ReplayReport {
    /// Epoch cycle the replay halted at.
    pub cycle: u64,
    /// Fingerprint recorded in the incident.
    pub expected_fingerprint: u64,
    /// Fingerprint observed at the replayed epoch (`None` when the run
    /// ended before reaching it — a non-reproduction).
    pub observed_fingerprint: Option<u64>,
    /// Deadlock sets recorded in the incident (sorted).
    pub expected_sets: Vec<Vec<u64>>,
    /// Deadlock sets observed at the replayed epoch (sorted).
    pub observed_sets: Vec<Vec<u64>>,
}

impl ReplayReport {
    /// Whether the wait-state fingerprint re-formed identically.
    pub fn fingerprint_match(&self) -> bool {
        self.observed_fingerprint == Some(self.expected_fingerprint)
    }

    /// Whether the same knots (same message ids per deadlock set)
    /// re-formed.
    pub fn sets_match(&self) -> bool {
        self.expected_sets == self.observed_sets
    }

    /// Full reproduction: fingerprint and deadlock sets both match.
    pub fn reproduced(&self) -> bool {
        self.fingerprint_match() && self.sets_match()
    }
}

struct HaltAtEpoch {
    target: u64,
    fingerprint: Option<u64>,
    sets: Vec<Vec<u64>>,
}

impl RunObserver for HaltAtEpoch {
    fn on_epoch(&mut self, view: &EpochView<'_>) -> ControlFlow<()> {
        if view.cycle == self.target {
            let mut arena = SnapshotArena::new();
            view.net.wait_snapshot_into(&mut arena);
            self.fingerprint = Some(arena.fingerprint());
            self.sets = view
                .analysis
                .deadlocks
                .iter()
                .map(|d| d.deadlock_set.clone())
                .collect();
            return ControlFlow::Break(());
        }
        ControlFlow::Continue(())
    }
}

fn sorted(mut sets: Vec<Vec<u64>>) -> Vec<Vec<u64>> {
    sets.sort();
    sets
}

/// Re-runs the incident's config + seed up to the incident epoch and
/// reports whether the identical knot re-formed.
///
/// Forensic capture is disabled for the re-run — tracing never perturbs
/// the simulation, so the replay is cycle-identical either way; skipping
/// it just makes the replay cheaper.
pub fn replay(incident: &DeadlockIncident) -> ReplayReport {
    let mut cfg = incident.config.clone();
    cfg.forensics = None;
    // Make sure the run actually reaches the incident epoch even if it
    // was captured close to the configured end of the window.
    let total = cfg.warmup + cfg.measure;
    if total < incident.cycle {
        cfg.measure += incident.cycle - total;
    }
    let mut halt = HaltAtEpoch {
        target: incident.cycle,
        fingerprint: None,
        sets: Vec::new(),
    };
    run_with(&cfg, &mut halt);
    ReplayReport {
        cycle: incident.cycle,
        expected_fingerprint: incident.fingerprint,
        observed_fingerprint: halt.fingerprint,
        expected_sets: sorted(incident.deadlock_sets()),
        observed_sets: sorted(halt.sets),
    }
}
