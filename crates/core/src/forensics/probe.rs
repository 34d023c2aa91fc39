//! The one forensic re-run probe behind [`replay`](fn@super::replay) and
//! [`shortest_prefix`](super::shortest_prefix). A run is a pure function
//! of its config and seed, so a re-run reaches every cycle in the recorded
//! state; the probe captures it once and reads its knots from a fresh
//! [`CwgSnapshot::build_graph`], independently of the runner's
//! event-patched store that recorded the incident.

use std::ops::ControlFlow;

use icn_cwg::{CwgSnapshot, DetectorScratch};
use icn_sim::{Network, SnapshotArena, StepEvents};

use crate::runner::{run_with, RunObserver};

use super::DeadlockIncident;

/// What the re-run shows at the probed cycle.
pub(super) struct Seen {
    /// Order-independent fingerprint of the blocked wait state.
    pub fingerprint: u64,
    /// The knots' deadlock sets, sorted ([`knot_sets`]).
    pub sets: Vec<Vec<u64>>,
}

/// The deadlock set of every knot of `cwg`, sorted: the one knot read
/// replay, bisection and minimization compare with an incident's sets.
pub(super) fn knot_sets(cwg: &CwgSnapshot) -> Vec<Vec<u64>> {
    let mut sets = cwg
        .build_graph()
        .knot_deadlock_sets(&mut DetectorScratch::new());
    sets.sort_unstable();
    sets
}

/// Halts the re-run after the first engine step whose post-step counter
/// reaches `target`, before any detection work at that cycle.
struct Probe {
    target: u64,
    seen: Option<Seen>,
}

impl RunObserver for Probe {
    fn on_cycle(&mut self, net: &Network, _ev: &StepEvents) -> ControlFlow<()> {
        if net.cycle() < self.target {
            return ControlFlow::Continue(());
        }
        let mut arena = SnapshotArena::new();
        net.wait_snapshot_into(&mut arena);
        self.seen = Some(Seen {
            fingerprint: arena.fingerprint(),
            sets: knot_sets(&CwgSnapshot::from_messages(
                arena.num_vertices(),
                arena.messages().map(|m| (m.id, m.chain, m.requests)),
            )),
        });
        ControlFlow::Break(())
    }
}

/// Re-runs the incident's config for exactly `t` cycles and captures
/// what it shows; `None` when the run stopped earlier (the watchdog cut
/// it). Forensic capture is off for the re-run — tracing never perturbs
/// the simulation, so skipping it only makes the probe cheaper — and the
/// window is stretched so the run reaches `t`.
pub(super) fn rerun(incident: &DeadlockIncident, t: u64) -> Option<Seen> {
    let mut cfg = incident.config.clone();
    cfg.forensics = None;
    cfg.measure = cfg.measure.max(t.saturating_sub(cfg.warmup));
    let mut probe = Probe {
        target: t,
        seen: None,
    };
    run_with(&cfg, &mut probe);
    probe.seen
}
