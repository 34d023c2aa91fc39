//! Scenario minimization: the smallest CWG and the shortest run that
//! still exhibit the captured deadlock.
//!
//! Two independent reductions:
//!
//! * **Knot-induced sub-CWG** ([`minimize_cwg`]): keep only the deadlock
//!   sets' messages. Knot terminality makes this sound — from any knot
//!   vertex the ownership chain and every request stay inside the knot,
//!   so all arcs closing the knot belong to deadlock-set messages, and
//!   dropping everything else (moving traffic, dependents) preserves each
//!   knot with its exact deadlock set. The reduction is verified by
//!   re-reading the sub-CWG's knots rather than trusted.
//! * **Shortest cycle prefix** ([`shortest_prefix`]): the least number of
//!   cycles the config must run for the knot to exist. Once a knot
//!   closes, its members cannot move and recovery only targets them at
//!   the (first) detection epoch, so "knot present at cycle `t`" is
//!   monotone in `t` over the window between epochs — binary search
//!   applies, and only `O(log detection_interval)` deterministic probe
//!   runs are needed. Each probe is the re-run [`replay`](super::replay)
//!   uses, halted at `t` instead of at the incident cycle.
//!
//! Both read knots the same way: the sorted deadlock sets of a fresh
//! [`CwgSnapshot::build_graph`].

use icn_cwg::CwgSnapshot;

use super::probe::{knot_sets, rerun};
use super::DeadlockIncident;

/// Outcome of [`minimize`].
#[derive(Clone, Debug)]
pub struct MinimizedIncident {
    /// The knot-induced sub-CWG: only deadlock-set messages.
    pub cwg: CwgSnapshot,
    /// Whether the sub-CWG's knots have exactly the incident's deadlock
    /// sets.
    pub verified: bool,
    /// Messages in the original capture.
    pub original_messages: usize,
    /// Messages kept by the reduction (= deadlock-set members).
    pub kept_messages: usize,
    /// Shortest-prefix bisection result, when requested and reproducible.
    pub shortest_prefix: Option<ShortestPrefix>,
}

/// The shortest cycle-prefix of the run that reproduces the deadlock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShortestPrefix {
    /// Least cycle count after which the knot exists (its closure cycle).
    pub cycle: u64,
    /// Probe runs the bisection spent.
    pub probes: u32,
    /// Cycles shaved off relative to the detection epoch.
    pub saved_cycles: u64,
}

/// Reduces the incident's CWG to its deadlock-set messages and verifies
/// (by re-reading its knots) that every captured knot survives with an
/// identical deadlock set and nothing new appears.
pub fn minimize_cwg(incident: &DeadlockIncident) -> (CwgSnapshot, bool) {
    let members = incident.members();
    let sub = CwgSnapshot {
        num_vertices: incident.cwg.num_vertices,
        messages: incident
            .cwg
            .messages
            .iter()
            .filter(|m| members.binary_search(&m.id).is_ok())
            .cloned()
            .collect(),
    };
    let mut expected = incident.deadlock_sets();
    expected.sort_unstable();
    let verified = knot_sets(&sub) == expected;
    (sub, verified)
}

/// Bisects for the shortest cycle-prefix of the run after which the
/// incident's knots exist. `None` when even the full prefix up to the
/// detection epoch does not reproduce them (a non-reproducible record).
///
/// The search window is one detection interval: had the knot existed at
/// the *previous* epoch it would have been detected (and recovered) there,
/// so its closure lies strictly inside the final interval.
pub fn shortest_prefix(incident: &DeadlockIncident) -> Option<ShortestPrefix> {
    // Whether every recorded knot exists after exactly `t` cycles.
    let sets = incident.deadlock_sets();
    let knot_present_at =
        |t| rerun(incident, t).is_some_and(|seen| sets.iter().all(|s| seen.sets.contains(s)));
    let hi = incident.cycle;
    let lo = hi
        .saturating_sub(incident.config.detection_interval.saturating_sub(1))
        .max(1);
    let mut probes = 1u32;
    if !knot_present_at(hi) {
        return None;
    }
    let (mut lo, mut hi) = (lo, hi);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        probes += 1;
        if knot_present_at(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(ShortestPrefix {
        cycle: hi,
        probes,
        saved_cycles: incident.cycle - hi,
    })
}

/// Runs both reductions. Pass `with_prefix: false` to skip the bisection
/// (it costs `O(log detection_interval)` re-runs of the simulation).
pub fn minimize(incident: &DeadlockIncident, with_prefix: bool) -> MinimizedIncident {
    let (cwg, verified) = minimize_cwg(incident);
    let kept_messages = cwg.messages.len();
    MinimizedIncident {
        cwg,
        verified,
        original_messages: incident.cwg.messages.len(),
        kept_messages,
        shortest_prefix: if with_prefix {
            shortest_prefix(incident)
        } else {
            None
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forensics::{MemberTimeline, RecoveryOutcome};
    use crate::{RecoveryPolicy, RunConfig};
    use icn_cwg::CwgMsg;

    /// An incident assembled by hand: Figure-1's three-message knot plus
    /// a dependent message (6) and a moving message (4) that the
    /// reduction must drop.
    fn hand_incident() -> DeadlockIncident {
        let cwg = CwgSnapshot {
            num_vertices: 10,
            messages: vec![
                CwgMsg {
                    id: 1,
                    chain: vec![1, 2],
                    requests: vec![3],
                },
                CwgMsg {
                    id: 2,
                    chain: vec![3, 4, 5],
                    requests: vec![6],
                },
                CwgMsg {
                    id: 3,
                    chain: vec![6, 7, 0],
                    requests: vec![1],
                },
                CwgMsg {
                    id: 4,
                    chain: vec![8],
                    requests: vec![],
                },
                CwgMsg {
                    id: 6,
                    chain: vec![9],
                    requests: vec![4],
                },
            ],
        };
        let analysis = cwg.build_graph().analyze(1000);
        assert_eq!(analysis.deadlocks.len(), 1);
        DeadlockIncident {
            seq: 0,
            cycle: 50,
            formation_cycle: 47,
            config: RunConfig::small_default(),
            fingerprint: 0,
            cwg,
            analysis,
            timelines: vec![
                MemberTimeline {
                    id: 1,
                    events: vec![],
                },
                MemberTimeline {
                    id: 2,
                    events: vec![],
                },
                MemberTimeline {
                    id: 3,
                    events: vec![],
                },
            ],
            recovery: RecoveryOutcome {
                policy: RecoveryPolicy::RemoveOldest,
                victims: vec![1],
            },
            trace_dropped: 0,
        }
    }

    #[test]
    fn sub_cwg_keeps_only_the_deadlock_set_and_still_knots() {
        let inc = hand_incident();
        let (sub, verified) = minimize_cwg(&inc);
        assert!(verified);
        assert_eq!(sub.messages.len(), 3);
        let ids: Vec<u64> = sub.messages.iter().map(|m| m.id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        // No larger than the original.
        assert!(sub.messages.len() <= inc.cwg.messages.len());
        // And the surviving analysis names the same deadlock set.
        let a = sub.build_graph().analyze(1000);
        assert_eq!(a.deadlocks.len(), 1);
        assert_eq!(a.deadlocks[0].deadlock_set, vec![1, 2, 3]);
    }

    #[test]
    fn minimize_reports_reduction_sizes() {
        let inc = hand_incident();
        let m = minimize(&inc, false);
        assert!(m.verified);
        assert_eq!(m.original_messages, 5);
        assert_eq!(m.kept_messages, 3);
        assert!(m.shortest_prefix.is_none());
    }
}
