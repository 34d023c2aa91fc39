//! The self-contained incident record and its JSON form.

use icn_cwg::jsonio::{obj, parse, u64_arr, Json, ParseError};
use icn_cwg::{Analysis, CwgSnapshot};
use icn_sim::{SnapshotArena, TraceEvent};
use icn_topology::{ChannelId, NodeId};

use crate::jsonio::{bad, get, get_bool, get_str, get_u64, get_u64_vec};
use crate::spec::{
    config_from_json, config_to_json, recovery_from_name, recovery_name, RecoveryPolicy,
};
use crate::RunConfig;

use super::timeline::{injected_cycle, TimelineIndex};

/// The recorded event log of one deadlock-set member.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemberTimeline {
    /// Message id.
    pub id: u64,
    /// Lifecycle events in emission order: injection, VC acquisitions,
    /// blocking episodes (with failed candidates), recovery.
    pub events: Vec<TraceEvent>,
}

impl MemberTimeline {
    /// Cycle the message left its source queue.
    pub fn injected_at(&self) -> Option<u64> {
        injected_cycle(&self.events)
    }

    /// VCs acquired before the final block.
    pub fn hops(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Acquired { .. }))
            .count()
    }

    /// The final blocking episode: `(cycle, node, failed candidates)`.
    /// Empty candidates mean the message waits for a reception channel.
    pub fn final_block(&self) -> Option<(u64, u32, &[ChannelId])> {
        self.events.iter().rev().find_map(|ev| match ev {
            TraceEvent::Blocked {
                cycle,
                at,
                candidates,
                ..
            } => Some((*cycle, at.0, candidates.as_slice())),
            _ => None,
        })
    }
}

/// How the runner resolved the incident's knots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// Victim-selection policy in force.
    pub policy: RecoveryPolicy,
    /// Messages dispatched to the recovery lane at this epoch, in
    /// dispatch order (empty under [`RecoveryPolicy::None`]).
    pub victims: Vec<u64>,
}

/// A self-contained record of one knot-bearing detection epoch: enough to
/// re-render, deterministically replay ([`replay`](fn@super::replay)) and
/// minimize ([`minimize`](fn@super::minimize)) the deadlock with no other
/// state.
#[derive(Clone, Debug, PartialEq)]
pub struct DeadlockIncident {
    /// Capture ordinal within the run (0-based, counts epochs with knots).
    pub seq: u32,
    /// Cycle of the detection epoch that found the knot(s).
    pub cycle: u64,
    /// Exact formation cycle: the latest block stamp across the epoch's
    /// deadlock-set members — when the last participant wedged. At most
    /// [`cycle`](Self::cycle); the gap is the detection lag, bounded by
    /// `detection_interval`.
    pub formation_cycle: u64,
    /// The exact configuration — including the seed — that produced it.
    pub config: RunConfig,
    /// Blocked-wait-state fingerprint of the capture epoch.
    pub fingerprint: u64,
    /// The full pre-recovery CWG, moving messages included.
    pub cwg: CwgSnapshot,
    /// The epoch's knot analysis (deadlock/resource sets, densities,
    /// dependents).
    pub analysis: Analysis,
    /// Formation timelines of every deadlock-set member, sorted by id.
    pub timelines: Vec<MemberTimeline>,
    /// Recovery outcome at this epoch.
    pub recovery: RecoveryOutcome,
    /// Trace events dropped before capture (0 = timelines complete).
    pub trace_dropped: u64,
}

impl DeadlockIncident {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn capture(
        seq: u32,
        cycle: u64,
        formation_cycle: u64,
        cfg: &RunConfig,
        arena: &SnapshotArena,
        analysis: &Analysis,
        victims: &[u64],
        timeline: &TimelineIndex,
        trace_dropped: u64,
    ) -> Self {
        let mut members: Vec<u64> = analysis
            .deadlocks
            .iter()
            .flat_map(|d| d.deadlock_set.iter().copied())
            .collect();
        members.sort_unstable();
        members.dedup();
        let timelines = members
            .iter()
            .map(|&m| MemberTimeline {
                id: m,
                events: timeline.events_of(m).to_vec(),
            })
            .collect();
        DeadlockIncident {
            seq,
            cycle,
            formation_cycle,
            config: cfg.clone(),
            fingerprint: arena.fingerprint(),
            cwg: CwgSnapshot::from_messages(
                arena.num_vertices(),
                arena.messages().map(|m| (m.id, m.chain, m.requests)),
            ),
            analysis: analysis.clone(),
            timelines,
            recovery: RecoveryOutcome {
                policy: cfg.recovery,
                victims: victims.to_vec(),
            },
            trace_dropped,
        }
    }

    /// Every deadlock-set member across the epoch's knots, sorted.
    pub fn members(&self) -> Vec<u64> {
        self.timelines.iter().map(|t| t.id).collect()
    }

    /// The deadlock sets, one per knot.
    pub fn deadlock_sets(&self) -> Vec<Vec<u64>> {
        self.analysis
            .deadlocks
            .iter()
            .map(|d| d.deadlock_set.clone())
            .collect()
    }

    /// Cycle the knot closed — the first cycle boundary at which every
    /// member was blocked, i.e. the shortest run prefix that exhibits the
    /// knot. The engine stamps a block with the in-progress cycle (one
    /// less than the post-step cycle counter [`cycle`](Self::cycle) uses),
    /// so this is one past [`formation_cycle`](Self::formation_cycle),
    /// whatever the trace kept; a record written without a formation
    /// stamp reads its detection cycle.
    pub fn closure_cycle(&self) -> u64 {
        (self.formation_cycle + 1).min(self.cycle)
    }

    /// Knot-highlighted Graphviz rendering, titled with the config label
    /// and capture cycle.
    pub fn to_dot(&self) -> String {
        let g = self.cwg.build_graph();
        let title = format!("{} @ cycle {}", self.config.label(), self.cycle);
        g.to_dot_titled(&title, Some(&self.analysis))
    }

    /// Serializes the incident as a JSON value.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("seq", Json::U64(self.seq as u64)),
            ("cycle", Json::U64(self.cycle)),
            ("formation_cycle", Json::U64(self.formation_cycle)),
            ("fingerprint", Json::U64(self.fingerprint)),
            ("config", config_to_json(&self.config)),
            ("cwg", self.cwg.to_json()),
            ("analysis", self.analysis.to_json()),
            (
                "timelines",
                Json::Arr(
                    self.timelines
                        .iter()
                        .map(|t| {
                            obj(vec![
                                ("id", Json::U64(t.id)),
                                (
                                    "events",
                                    Json::Arr(t.events.iter().map(event_to_json).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "recovery",
                obj(vec![
                    (
                        "policy",
                        Json::Str(recovery_name(self.recovery.policy).to_string()),
                    ),
                    ("victims", u64_arr(self.recovery.victims.iter().copied())),
                ]),
            ),
            ("trace_dropped", Json::U64(self.trace_dropped)),
        ])
    }

    /// Compact JSON text of [`to_json`](Self::to_json).
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }

    /// Rebuilds an incident from its JSON form.
    pub fn from_json(v: &Json) -> Result<Self, ParseError> {
        let mut timelines = Vec::new();
        for t in get(v, "timelines")?
            .as_arr()
            .ok_or_else(|| bad("`timelines` must be an array"))?
        {
            let mut events = Vec::new();
            for e in get(t, "events")?
                .as_arr()
                .ok_or_else(|| bad("`events` must be an array"))?
            {
                events.push(event_from_json(e)?);
            }
            timelines.push(MemberTimeline {
                id: get_u64(t, "id")?,
                events,
            });
        }
        let rec = get(v, "recovery")?;
        let policy = match get(rec, "policy")?.as_str() {
            Some(s) => recovery_from_name(s)?,
            None => return Err(bad("`policy` must be a string")),
        };
        let cycle = get_u64(v, "cycle")?;
        let config = config_from_json(get(v, "config")?)?;
        let cwg = CwgSnapshot::from_json(get(v, "cwg")?)?;
        // The snapshot sizes per-vertex tables when it is rebuilt, so its
        // vertex count must be the one its own network has.
        let expected = wait_vertex_count(&config);
        if cwg.num_vertices != expected {
            return Err(bad(&format!(
                "`cwg.num_vertices` is {}, but the incident's network has {expected} wait vertices",
                cwg.num_vertices
            )));
        }
        // No capture produces the records refused below: timelines are
        // sorted by id (`members()` promises it and `minimize_cwg` binary
        // searches it), a detection epoch falls on the detection interval,
        // and a knot forms no later than the epoch that finds it.
        if timelines.windows(2).any(|w| w[0].id >= w[1].id) {
            return Err(bad("`timelines` must be strictly ascending by id"));
        }
        if !cycle.is_multiple_of(config.detection_interval) {
            return Err(bad(&format!(
                "`cycle` {cycle} is not a multiple of the detection interval {}",
                config.detection_interval
            )));
        }
        // Records from before formation tracking default to the detection
        // cycle (zero measured lag).
        let formation_cycle = get_u64(v, "formation_cycle").unwrap_or(cycle);
        if formation_cycle > cycle {
            return Err(bad(&format!(
                "`formation_cycle` {formation_cycle} is later than `cycle` {cycle}"
            )));
        }
        Ok(DeadlockIncident {
            seq: get_u64(v, "seq")? as u32,
            cycle,
            formation_cycle,
            config,
            fingerprint: get_u64(v, "fingerprint")?,
            cwg,
            analysis: Analysis::from_json(get(v, "analysis")?)?,
            timelines,
            recovery: RecoveryOutcome {
                policy,
                victims: get_u64_vec(rec, "victims")?,
            },
            trace_dropped: get_u64(v, "trace_dropped")?,
        })
    }

    /// Parses an incident from JSON text.
    pub fn from_json_str(text: &str) -> Result<Self, ParseError> {
        Self::from_json(&parse(text)?)
    }
}

/// The CWG vertex count of `cfg`'s network (every VC plus one reception
/// channel per node), computed without building it. `cfg` has passed
/// [`RunConfig::check`], so the sizes are known to be in range.
fn wait_vertex_count(cfg: &RunConfig) -> usize {
    let vcs = cfg.sim.vcs_per_channel;
    let (nodes, channels) = cfg.topology.sizes(vcs).expect("a checked config has sizes");
    channels * vcs + nodes
}

// ---------------------------------------------------------------------
// Trace-event serialization.

fn event_to_json(ev: &TraceEvent) -> Json {
    match ev {
        TraceEvent::Injected {
            cycle,
            id,
            src,
            dst,
            len,
        } => obj(vec![
            ("t", Json::Str("injected".into())),
            ("cycle", Json::U64(*cycle)),
            ("id", Json::U64(*id)),
            ("src", Json::U64(src.0 as u64)),
            ("dst", Json::U64(dst.0 as u64)),
            ("len", Json::U64(*len as u64)),
        ]),
        TraceEvent::Acquired {
            cycle,
            id,
            channel,
            vc,
        } => obj(vec![
            ("t", Json::Str("acquired".into())),
            ("cycle", Json::U64(*cycle)),
            ("id", Json::U64(*id)),
            ("channel", Json::U64(channel.0 as u64)),
            ("vc", Json::U64(*vc as u64)),
        ]),
        TraceEvent::Blocked {
            cycle,
            id,
            at,
            candidates,
        } => obj(vec![
            ("t", Json::Str("blocked".into())),
            ("cycle", Json::U64(*cycle)),
            ("id", Json::U64(*id)),
            ("at", Json::U64(at.0 as u64)),
            ("candidates", u64_arr(candidates.iter().map(|c| c.0 as u64))),
        ]),
        TraceEvent::EjectStart { cycle, id } => obj(vec![
            ("t", Json::Str("eject-start".into())),
            ("cycle", Json::U64(*cycle)),
            ("id", Json::U64(*id)),
        ]),
        TraceEvent::RecoveryStart { cycle, id } => obj(vec![
            ("t", Json::Str("recovery-start".into())),
            ("cycle", Json::U64(*cycle)),
            ("id", Json::U64(*id)),
        ]),
        TraceEvent::Delivered {
            cycle,
            id,
            recovered,
        } => obj(vec![
            ("t", Json::Str("delivered".into())),
            ("cycle", Json::U64(*cycle)),
            ("id", Json::U64(*id)),
            ("recovered", Json::Bool(*recovered)),
        ]),
        TraceEvent::FaultLoss { cycle, id } => obj(vec![
            ("t", Json::Str("fault-loss".into())),
            ("cycle", Json::U64(*cycle)),
            ("id", Json::U64(*id)),
        ]),
    }
}

fn event_from_json(v: &Json) -> Result<TraceEvent, ParseError> {
    let cycle = get_u64(v, "cycle")?;
    let id = get_u64(v, "id")?;
    Ok(match get_str(v, "t")? {
        "injected" => TraceEvent::Injected {
            cycle,
            id,
            src: NodeId(get_u64(v, "src")? as u32),
            dst: NodeId(get_u64(v, "dst")? as u32),
            len: get_u64(v, "len")? as u32,
        },
        "acquired" => TraceEvent::Acquired {
            cycle,
            id,
            channel: ChannelId(get_u64(v, "channel")? as u32),
            vc: get_u64(v, "vc")? as u8,
        },
        "blocked" => TraceEvent::Blocked {
            cycle,
            id,
            at: NodeId(get_u64(v, "at")? as u32),
            candidates: get_u64_vec(v, "candidates")?
                .into_iter()
                .map(|c| ChannelId(c as u32))
                .collect(),
        },
        "eject-start" => TraceEvent::EjectStart { cycle, id },
        "recovery-start" => TraceEvent::RecoveryStart { cycle, id },
        "fault-loss" => TraceEvent::FaultLoss { cycle, id },
        "delivered" => TraceEvent::Delivered {
            cycle,
            id,
            recovered: get_bool(v, "recovered")?,
        },
        other => return Err(bad(&format!("unknown trace event `{other}`"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_events_round_trip() {
        let events = vec![
            TraceEvent::Injected {
                cycle: 3,
                id: 9,
                src: NodeId(1),
                dst: NodeId(6),
                len: 32,
            },
            TraceEvent::Acquired {
                cycle: 4,
                id: 9,
                channel: ChannelId(12),
                vc: 1,
            },
            TraceEvent::Blocked {
                cycle: 5,
                id: 9,
                at: NodeId(2),
                candidates: vec![ChannelId(3), ChannelId(7)],
            },
            TraceEvent::EjectStart { cycle: 8, id: 9 },
            TraceEvent::RecoveryStart { cycle: 9, id: 9 },
            TraceEvent::Delivered {
                cycle: 11,
                id: 9,
                recovered: true,
            },
        ];
        for ev in &events {
            let text = event_to_json(ev).to_string();
            let back = event_from_json(&parse(&text).unwrap()).unwrap();
            assert_eq!(*ev, back);
        }
    }

    #[test]
    fn wait_vertex_count_matches_the_built_network() {
        use crate::spec::{RoutingSpec, TopologySpec};
        for (topology, vcs) in [
            (TopologySpec::torus(8, 2, false), 1),
            (TopologySpec::torus(4, 3, true), 3),
            (TopologySpec::mesh(5, 2), 2),
        ] {
            let mut cfg = RunConfig::small_default();
            cfg.topology = topology;
            cfg.routing = RoutingSpec::Tfar;
            cfg.sim.vcs_per_channel = vcs;
            let net = icn_sim::Network::new(cfg.topology.build(), cfg.routing.build(), cfg.sim);
            assert_eq!(wait_vertex_count(&cfg), net.wait_vertex_count(), "{cfg:?}");
        }
    }

    #[test]
    fn corrupt_incident_json_is_rejected() {
        for text in [
            "{}",
            "not json",
            "{\"seq\":0}",
            "{\"seq\":0,\"cycle\":1,\"fingerprint\":2,\"config\":{},\"cwg\":{},\
             \"analysis\":{},\"timelines\":[],\"recovery\":{},\"trace_dropped\":0}",
        ] {
            assert!(DeadlockIncident::from_json_str(text).is_err());
        }
    }
}
