//! Deadlock forensics: incident capture, deterministic replay, and
//! scenario minimization.
//!
//! The paper characterizes deadlocks statistically; this subsystem turns
//! each detected knot into a *debuggable artifact*. With
//! [`RunConfig::forensics`](crate::RunConfig::forensics) set, the runner
//! captures a self-contained [`DeadlockIncident`] per knot-bearing
//! detection epoch:
//!
//! * the **cycle, config and seed** that produced it — a forensic run is
//!   cycle-identical to a plain run, so the incident alone pins down the
//!   exact deadlock;
//! * the full **CWG snapshot** and its knot [`Analysis`]
//!   (deadlock sets, resource sets, cycle densities, dependents);
//! * a per-member **formation timeline** reconstructed from `icn-sim`
//!   trace events — injection, every VC acquisition, the final blocking
//!   episode with the candidate channels the header failed to acquire —
//!   showing *how* the knot assembled itself;
//! * the **recovery outcome** (policy and victims dispatched).
//!
//! Three consumers operate on incidents:
//!
//! * [`IncidentStore`] persists them as JSON plus a knot-highlighted DOT
//!   rendering, under an `index.json` catalogue.
//! * [`replay`](fn@replay) re-runs config + seed to the incident cycle and asserts
//!   the same blocked-wait-state fingerprint and deadlock sets re-form.
//! * [`minimize`](fn@minimize) shrinks the incident to the knot-induced sub-CWG
//!   (provably still a knot) and bisects the run for the shortest cycle
//!   prefix that reproduces the deadlock.
//!
//! Replay and bisection share one re-run probe, and all three read knots
//! one way: the sorted deadlock sets of a fresh graph build.

mod incident;
mod minimize;
mod probe;
mod replay;
mod store;
mod timeline;

pub use icn_cwg::{CwgMsg, CwgSnapshot};
pub use incident::{DeadlockIncident, MemberTimeline, RecoveryOutcome};
pub use minimize::{minimize, minimize_cwg, shortest_prefix, MinimizedIncident, ShortestPrefix};
pub use replay::{replay, ReplayReport};
pub use store::{IncidentStore, IndexEntry};
pub use timeline::timeline_table;

use icn_cwg::Analysis;
use icn_sim::SnapshotArena;

use crate::result::RunResult;
use crate::RunConfig;
use timeline::TimelineIndex;

/// Incident-capture settings ([`RunConfig::forensics`]).
///
/// [`RunConfig::forensics`]: crate::RunConfig::forensics
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ForensicsConfig {
    /// Full [`DeadlockIncident`] records retained per run (formation
    /// statistics keep accumulating past the cap).
    pub max_incidents: usize,
    /// Engine trace-buffer capacity between per-cycle drains. Events
    /// beyond it are dropped (and counted in
    /// [`DeadlockIncident::trace_dropped`]); the default is far above
    /// anything a single cycle emits.
    pub trace_capacity: usize,
}

impl Default for ForensicsConfig {
    fn default() -> Self {
        ForensicsConfig {
            max_incidents: 8,
            trace_capacity: 1 << 16,
        }
    }
}

/// Runner-side capture state: absorbs trace events each cycle and turns
/// knot-bearing epochs into incidents.
pub(crate) struct ForensicsState {
    cfg: ForensicsConfig,
    timeline: TimelineIndex,
    /// Trace events lost to the capacity bound so far (0 = complete).
    dropped: u64,
    seq: u32,
}

impl ForensicsState {
    pub fn new(cfg: ForensicsConfig) -> Self {
        ForensicsState {
            cfg,
            timeline: TimelineIndex::new(),
            dropped: 0,
            seq: 0,
        }
    }

    /// Folds one cycle's drained trace events into the timeline index.
    pub fn absorb(&mut self, events: Vec<icn_sim::TraceEvent>, dropped: u64) {
        self.dropped += dropped;
        self.timeline.absorb(events);
    }

    /// Whether the next knot epoch becomes a stored [`DeadlockIncident`]
    /// (the run is still under [`ForensicsConfig::max_incidents`]) — the
    /// only epochs whose wait-state capture anything reads.
    pub fn wants_incident(&self, res: &RunResult) -> bool {
        res.forensic_incidents.len() < self.cfg.max_incidents
    }

    /// Records a detection epoch's knots: formation statistics always,
    /// plus a full [`DeadlockIncident`] while under the cap. Called after
    /// the recovery loop so the outcome (victims) is known.
    #[allow(clippy::too_many_arguments)]
    pub fn record_epoch(
        &mut self,
        run_cfg: &RunConfig,
        arena: &SnapshotArena,
        analysis: &Analysis,
        victims: &[u64],
        cycle: u64,
        formation: &[u64],
        res: &mut RunResult,
    ) {
        if analysis.deadlocks.is_empty() {
            return;
        }
        for d in &analysis.deadlocks {
            if let Some(stats) = self.timeline.formation_stats(&d.deadlock_set) {
                for latency in &stats.member_latencies {
                    res.formation_latency.record(*latency);
                }
                res.formation_spread.record(stats.spread);
            }
        }
        if self.wants_incident(res) {
            let inc = DeadlockIncident::capture(
                self.seq,
                cycle,
                formation.iter().copied().max().unwrap_or(cycle),
                run_cfg,
                arena,
                analysis,
                victims,
                &self.timeline,
                self.dropped,
            );
            res.forensic_incidents.push(inc);
        }
        self.seq += 1;
    }
}
