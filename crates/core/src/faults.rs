//! Fault-plan helpers at the orchestration layer.
//!
//! The fault model itself lives in [`icn_sim::faults`] (re-exported
//! here); this module adds what campaigns need on top of it: a JSON
//! round-trip so plans travel inside incident records and checkpoints,
//! and a seeded random-plan generator for robustness torture runs.

pub use icn_sim::{FaultEvent, FaultKind, FaultPlan};

use crate::jsonio::{bad, narrow, obj, Json, ParseError};
use crate::spec::TopologySpec;
use crate::validate::SplitMix64;

/// Serializes a plan as `{"events": [...]}`, each event tagged by kind.
pub fn plan_to_json(plan: &FaultPlan) -> Json {
    let events = plan
        .events
        .iter()
        .map(|e| {
            let mut fields = vec![("cycle", Json::U64(e.cycle))];
            match e.kind {
                FaultKind::LinkDown { channel } => {
                    fields.push(("t", Json::Str("link-down".into())));
                    fields.push(("channel", Json::U64(channel as u64)));
                }
                FaultKind::LinkUp { channel } => {
                    fields.push(("t", Json::Str("link-up".into())));
                    fields.push(("channel", Json::U64(channel as u64)));
                }
                FaultKind::NodeStall { node, cycles } => {
                    fields.push(("t", Json::Str("node-stall".into())));
                    fields.push(("node", Json::U64(node as u64)));
                    fields.push(("cycles", Json::U64(cycles)));
                }
                FaultKind::InjectorDown { node, cycles } => {
                    fields.push(("t", Json::Str("injector-down".into())));
                    fields.push(("node", Json::U64(node as u64)));
                    fields.push(("cycles", Json::U64(cycles)));
                }
            }
            obj(fields)
        })
        .collect();
    obj(vec![("events", Json::Arr(events))])
}

fn field_u64(v: &Json, key: &str) -> Result<u64, ParseError> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| bad(&format!("fault event needs u64 `{key}`")))
}

/// Rebuilds a plan from [`plan_to_json`] output. Event order is
/// preserved, so the round trip is exact (`PartialEq`), not merely
/// equivalent under normalization.
pub fn plan_from_json(v: &Json) -> Result<FaultPlan, ParseError> {
    let events = v
        .get("events")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("fault plan needs an `events` array"))?;
    let mut plan = FaultPlan::new();
    for e in events {
        let cycle = field_u64(e, "cycle")?;
        let tag = e
            .get("t")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("fault event needs a `t` tag"))?;
        let kind = match tag {
            "link-down" => FaultKind::LinkDown {
                channel: narrow(field_u64(e, "channel")?, "channel")?,
            },
            "link-up" => FaultKind::LinkUp {
                channel: narrow(field_u64(e, "channel")?, "channel")?,
            },
            "node-stall" => FaultKind::NodeStall {
                node: narrow(field_u64(e, "node")?, "node")?,
                cycles: field_u64(e, "cycles")?,
            },
            "injector-down" => FaultKind::InjectorDown {
                node: narrow(field_u64(e, "node")?, "node")?,
                cycles: field_u64(e, "cycles")?,
            },
            other => return Err(bad(&format!("unknown fault kind `{other}`"))),
        };
        plan.events.push(FaultEvent { cycle, kind });
    }
    Ok(plan)
}

/// A seeded random plan for robustness campaigns: one to three transient
/// link outages, one permanent link kill, one router stall, and one
/// injector outage, all inside `[horizon/10, horizon)` so the network has
/// warmed up before the first fault lands. Equal seeds give equal plans.
pub fn random_plan(topo: &TopologySpec, horizon: u64, seed: u64) -> FaultPlan {
    let built = topo.build();
    let channels = built.num_channels();
    let nodes = built.num_nodes();
    assert!(horizon >= 20, "horizon too short for a meaningful plan");
    let mut rng = SplitMix64::new(seed ^ 0xfa17_fa17_fa17_fa17);
    let lo = horizon / 10;
    let span = horizon - lo;
    let at = |rng: &mut SplitMix64| lo + rng.gen_range(span as usize) as u64;

    let mut plan = FaultPlan::new();
    for _ in 0..(1 + rng.gen_range(3)) {
        let ch = rng.gen_range(channels) as u32;
        let down = at(&mut rng);
        let dur = 1 + rng.gen_range((horizon / 10).max(1) as usize) as u64;
        plan.link_outage(ch, down, down + dur);
    }
    plan.link_kill(at(&mut rng), rng.gen_range(channels) as u32);
    plan.node_stall(
        at(&mut rng),
        rng.gen_range(nodes) as u32,
        1 + rng.gen_range((horizon / 20).max(1) as usize) as u64,
    );
    plan.injector_down(
        at(&mut rng),
        rng.gen_range(nodes) as u32,
        1 + rng.gen_range((horizon / 20).max(1) as usize) as u64,
    );
    plan.validate(channels, nodes);
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_cwg::jsonio::parse;

    #[test]
    fn plan_round_trips_exactly() {
        let mut plan = FaultPlan::new();
        plan.link_outage(7, 100, 250)
            .link_kill(400, 3)
            .node_stall(150, 12, 60)
            .injector_down(200, 5, 80);
        let text = plan_to_json(&plan).to_string();
        let back = plan_from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn empty_plan_round_trips() {
        let text = plan_to_json(&FaultPlan::new()).to_string();
        let back = plan_from_json(&parse(&text).unwrap()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn random_plan_is_seed_deterministic_and_valid() {
        let topo = TopologySpec::torus(4, 2, true);
        let a = random_plan(&topo, 1_000, 42);
        let b = random_plan(&topo, 1_000, 42);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let c = random_plan(&topo, 1_000, 43);
        assert_ne!(a, c, "different seeds should vary the plan");
    }
}
