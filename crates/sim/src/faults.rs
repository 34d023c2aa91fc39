//! Deterministic fault schedules.
//!
//! A [`FaultPlan`] is a list of [`FaultEvent`]s — cycle-stamped outages
//! installed on a [`crate::Network`] before stepping begins. The engine
//! applies every event due at cycle `c` at the *start* of cycle `c`, in a
//! canonical order, in **both** steppers, so a faulted run remains
//! byte-identical between the activity-driven and dense engines and
//! across replays.
//!
//! The fault model:
//!
//! * **Link outages** ([`FaultKind::LinkDown`] / [`FaultKind::LinkUp`]):
//!   a downed physical channel drops every message holding one of its
//!   VCs (a counted *fault loss*), and is excluded from candidate sets
//!   until a matching `LinkUp`. A plan with only `LinkDown` models a
//!   permanent kill; a down/up pair models a transient outage window.
//! * **Router stalls** ([`FaultKind::NodeStall`]): the node freezes for
//!   `cycles` — no injection, VC allocation, link transfer, or
//!   ejection/recovery drain is performed *by* that node. Buffered
//!   traffic is preserved and resumes when the stall ends; overlapping
//!   stalls extend to the latest end.
//! * **Injection-source failures** ([`FaultKind::InjectorDown`]): the
//!   node's injector is offline for `cycles`; generated traffic keeps
//!   queueing at the source and drains when the injector returns.
//!
//! Messages whose fault-filtered candidate set becomes *empty* (e.g. DOR
//! on a severed dimension) are unroutable: the engine drops them with a
//! counted fault loss rather than letting them wedge forever, and
//! rejects queued traffic whose very first hop is unroutable. Adaptive
//! relations (TFAR and friends) simply route around the outage whenever
//! an alternative minimal path survives.

/// One kind of scheduled fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Physical channel `channel` goes down: current traffic on it is
    /// dropped and it is excluded from routing until a `LinkUp`.
    LinkDown { channel: u32 },
    /// Physical channel `channel` comes back up.
    LinkUp { channel: u32 },
    /// Node `node` freezes for `cycles` cycles (router stall).
    NodeStall { node: u32, cycles: u64 },
    /// Node `node`'s injection source is offline for `cycles` cycles.
    InjectorDown { node: u32, cycles: u64 },
}

impl FaultKind {
    /// Canonical same-cycle application order: ups before downs (so a
    /// same-cycle down/up pair on one channel nets to *down*, i.e. a new
    /// outage), then stalls, then injector failures; ties broken by id.
    fn rank(&self) -> (u8, u32) {
        match *self {
            FaultKind::LinkUp { channel } => (0, channel),
            FaultKind::LinkDown { channel } => (1, channel),
            FaultKind::NodeStall { node, .. } => (2, node),
            FaultKind::InjectorDown { node, .. } => (3, node),
        }
    }
}

/// A fault scheduled for the start of `cycle`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Engine cycle at whose start the fault applies.
    pub cycle: u64,
    pub kind: FaultKind,
}

/// A deterministic, serializable schedule of faults. Event order in
/// `events` is irrelevant: the engine applies the canonical
/// [`FaultPlan::normalized`] order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults; engine behavior is byte-identical to a
    /// network without a plan installed).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Schedules a permanent channel kill at `cycle`.
    pub fn link_kill(&mut self, cycle: u64, channel: u32) -> &mut Self {
        self.events.push(FaultEvent {
            cycle,
            kind: FaultKind::LinkDown { channel },
        });
        self
    }

    /// Schedules a transient outage: `channel` is down for cycles
    /// `[down, up)`.
    pub fn link_outage(&mut self, channel: u32, down: u64, up: u64) -> &mut Self {
        assert!(down < up, "outage window must be non-empty");
        self.events.push(FaultEvent {
            cycle: down,
            kind: FaultKind::LinkDown { channel },
        });
        self.events.push(FaultEvent {
            cycle: up,
            kind: FaultKind::LinkUp { channel },
        });
        self
    }

    /// Schedules a router stall: `node` freezes for `cycles` starting at
    /// `cycle`.
    pub fn node_stall(&mut self, cycle: u64, node: u32, cycles: u64) -> &mut Self {
        self.events.push(FaultEvent {
            cycle,
            kind: FaultKind::NodeStall { node, cycles },
        });
        self
    }

    /// Schedules an injection-source outage at `node` for `cycles`
    /// starting at `cycle`.
    pub fn injector_down(&mut self, cycle: u64, node: u32, cycles: u64) -> &mut Self {
        self.events.push(FaultEvent {
            cycle,
            kind: FaultKind::InjectorDown { node, cycles },
        });
        self
    }

    /// The canonical application order: by cycle, ups before downs before
    /// stalls before injector outages, ties broken by channel/node id.
    pub fn normalized(&self) -> Vec<FaultEvent> {
        let mut events = self.events.clone();
        events.sort_by_key(|e| (e.cycle, e.kind.rank()));
        events
    }

    /// Refuses an event that names a channel/node outside the network, or
    /// a zero-length stall/outage duration.
    pub fn check(&self, num_channels: usize, num_nodes: usize) -> Result<(), String> {
        for e in &self.events {
            match e.kind {
                FaultKind::LinkDown { channel } | FaultKind::LinkUp { channel } => {
                    if channel as usize >= num_channels {
                        return Err(format!(
                            "fault plan names channel {channel}, network has {num_channels}"
                        ));
                    }
                }
                FaultKind::NodeStall { node, cycles }
                | FaultKind::InjectorDown { node, cycles } => {
                    if node as usize >= num_nodes {
                        return Err(format!(
                            "fault plan names node {node}, network has {num_nodes}"
                        ));
                    }
                    if cycles == 0 {
                        return Err(format!("zero-length fault at node {node}"));
                    }
                }
            }
        }
        Ok(())
    }

    /// Panics with [`FaultPlan::check`]'s description if the plan does
    /// not fit the network.
    pub fn validate(&self, num_channels: usize, num_nodes: usize) {
        self.check(num_channels, num_nodes)
            .unwrap_or_else(|e| panic!("{e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_orders_ups_before_downs() {
        let mut plan = FaultPlan::new();
        plan.link_kill(10, 3);
        plan.link_outage(3, 4, 10); // LinkUp at 10 must sort before the kill
        plan.node_stall(10, 1, 5);
        let order = plan.normalized();
        assert_eq!(
            order,
            vec![
                FaultEvent {
                    cycle: 4,
                    kind: FaultKind::LinkDown { channel: 3 }
                },
                FaultEvent {
                    cycle: 10,
                    kind: FaultKind::LinkUp { channel: 3 }
                },
                FaultEvent {
                    cycle: 10,
                    kind: FaultKind::LinkDown { channel: 3 }
                },
                FaultEvent {
                    cycle: 10,
                    kind: FaultKind::NodeStall { node: 1, cycles: 5 }
                },
            ]
        );
    }

    #[test]
    #[should_panic(expected = "names channel")]
    fn validate_rejects_out_of_range_channels() {
        let mut plan = FaultPlan::new();
        plan.link_kill(0, 99);
        plan.validate(10, 4);
    }

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::new().is_empty());
        let mut plan = FaultPlan::new();
        plan.injector_down(5, 0, 10);
        assert!(!plan.is_empty());
        plan.validate(1, 1);
    }
}
