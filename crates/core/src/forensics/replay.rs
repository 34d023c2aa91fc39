//! Deterministic incident replay.
//!
//! Re-running the incident's config reaches the incident cycle with — if
//! the record is faithful — the *same* blocked wait state. The assertion
//! is two-fold: the order-independent 64-bit wait-state fingerprint must
//! match, and so must the deadlock sets (the message ids of each knot).
//! Both come from the shared re-run probe, which captures the wait state
//! after the incident cycle's engine step and finds its knots on a fresh
//! graph build, independently of the detector that recorded the incident.

use super::probe::rerun;
use super::DeadlockIncident;

/// Outcome of [`replay`].
#[derive(Clone, Debug)]
pub struct ReplayReport {
    /// Cycle the replay halted at.
    pub cycle: u64,
    /// Fingerprint recorded in the incident.
    pub expected_fingerprint: u64,
    /// Fingerprint observed at the replayed cycle (`None` when the run
    /// ended before reaching it — a non-reproduction).
    pub observed_fingerprint: Option<u64>,
    /// Deadlock sets recorded in the incident (sorted).
    pub expected_sets: Vec<Vec<u64>>,
    /// Deadlock sets observed at the replayed cycle (sorted).
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

/// Re-runs the incident's config + seed to the incident cycle and reports
/// whether the identical knot re-formed there. The observed sets come
/// from a fresh full capture, so every replay also checks the detector's
/// event-patched store that recorded the incident.
pub fn replay(incident: &DeadlockIncident) -> ReplayReport {
    let seen = rerun(incident, incident.cycle);
    let mut expected_sets = incident.deadlock_sets();
    expected_sets.sort_unstable();
    ReplayReport {
        cycle: incident.cycle,
        expected_fingerprint: incident.fingerprint,
        observed_fingerprint: seen.as_ref().map(|s| s.fingerprint),
        expected_sets,
        observed_sets: seen.map(|s| s.sets).unwrap_or_default(),
    }
}
