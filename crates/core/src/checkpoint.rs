//! Lossless [`RunResult`] serialization and the checkpoint record format.
//!
//! Interrupted campaigns must resume with *byte-identical* results — a
//! resumed job's digests are compared against fresh runs in tests — so
//! this codec round-trips every counter, distribution, and float exactly:
//! `f64`s travel as `u64` bit patterns, histograms and Welford
//! accumulators serialize their full internal state, and forensic
//! incidents reuse their own exact JSON form.
//!
//! It is the one result encoder: checkpoints, the result cache, the
//! campaign server's results stream and `repro --json` all write
//! [`encode_result`] objects. A checkpoint line wraps one in
//! [`checkpoint_line`] (or records a terminal cancellation with
//! [`checkpoint_status_line`]); [`crate::CheckpointTail`] reads them back.
//! Derived, human-oriented columns come from
//! [`crate::experiments::results_table`] (`repro --csv`).

use icn_metrics::{Histogram, Mean, TimeSeries};

use crate::forensics::DeadlockIncident;
use crate::jsonio::{
    bad, f64_bits, get, get_f64_bits, get_u64, get_u64_vec, obj, u64_arr, Json, ParseError,
};
use crate::result::{Incident, RunOutcome, RunResult, StallReport};

fn hist_to_json(h: &Histogram) -> Json {
    u64_arr(h.encode())
}

fn hist_from_json(v: &Json, key: &str) -> Result<Histogram, ParseError> {
    Histogram::decode(&get_u64_vec(v, key)?)
        .ok_or_else(|| bad(&format!("`{key}` is not a histogram encoding")))
}

fn mean_to_json(m: &Mean) -> Json {
    u64_arr(m.encode())
}

fn mean_from_json(v: &Json, key: &str) -> Result<Mean, ParseError> {
    let words = get_u64_vec(v, key)?;
    let arr: [u64; 3] = words
        .try_into()
        .map_err(|_| bad(&format!("`{key}` is not a mean encoding")))?;
    Ok(Mean::decode(arr))
}

fn series_to_json(ts: &TimeSeries) -> Json {
    obj(vec![
        ("cycles", u64_arr(ts.points().iter().map(|&(c, _)| c))),
        (
            "values",
            u64_arr(ts.points().iter().map(|&(_, v)| v.to_bits())),
        ),
    ])
}

fn series_from_json(v: &Json, key: &str) -> Result<TimeSeries, ParseError> {
    let s = get(v, key)?;
    let cycles = get_u64_vec(s, "cycles")?;
    let values = get_u64_vec(s, "values")?;
    if cycles.len() != values.len() {
        return Err(bad(&format!("`{key}` cycle/value length mismatch")));
    }
    Ok(TimeSeries::from_points(
        cycles
            .into_iter()
            .zip(values.into_iter().map(f64::from_bits))
            .collect(),
    ))
}

fn outcome_from_name(s: &str) -> Result<RunOutcome, ParseError> {
    Ok(match s {
        "drained" => RunOutcome::Drained,
        "cycles-exhausted" => RunOutcome::CyclesExhausted,
        "stalled" => RunOutcome::Stalled,
        "faulted" => RunOutcome::Faulted,
        other => return Err(bad(&format!("unknown outcome `{other}`"))),
    })
}

/// Serializes a full [`RunResult`], losslessly.
pub fn encode_result(r: &RunResult) -> Json {
    obj(vec![
        ("label", Json::Str(r.label.clone())),
        ("offered_load", f64_bits(r.offered_load)),
        ("cycles", Json::U64(r.cycles)),
        ("nodes", Json::U64(r.nodes as u64)),
        ("capacity", f64_bits(r.capacity)),
        ("msg_len", Json::U64(r.msg_len as u64)),
        ("generated", Json::U64(r.generated)),
        ("injected", Json::U64(r.injected)),
        ("delivered", Json::U64(r.delivered)),
        ("recovered", Json::U64(r.recovered)),
        ("delivered_flits", Json::U64(r.delivered_flits)),
        ("latency", hist_to_json(&r.latency)),
        ("link_flits", Json::U64(r.link_flits)),
        ("deadlocks", Json::U64(r.deadlocks)),
        ("single_cycle", Json::U64(r.single_cycle_deadlocks)),
        ("multi_cycle", Json::U64(r.multi_cycle_deadlocks)),
        ("deadlock_set", hist_to_json(&r.deadlock_set)),
        ("resource_set", hist_to_json(&r.resource_set)),
        ("knot_density", hist_to_json(&r.knot_density)),
        ("dependent_committed", Json::U64(r.dependent_committed)),
        ("dependent_transient", Json::U64(r.dependent_transient)),
        ("blocked", mean_to_json(&r.blocked)),
        ("in_network", mean_to_json(&r.in_network)),
        ("source_queued", mean_to_json(&r.source_queued)),
        ("cwg_cycles", series_to_json(&r.cwg_cycles)),
        ("blocked_frac", series_to_json(&r.blocked_frac)),
        ("cycles_capped", Json::Bool(r.cycles_capped)),
        (
            "cyclic_nondeadlock_epochs",
            Json::U64(r.cyclic_nondeadlock_epochs),
        ),
        ("counting_epochs", Json::U64(r.counting_epochs)),
        ("victims_started", Json::U64(r.victims_started)),
        ("resolution_latency", hist_to_json(&r.resolution_latency)),
        ("detection_lag", hist_to_json(&r.detection_lag)),
        (
            "incidents",
            Json::Arr(
                r.incidents
                    .iter()
                    .map(|i| {
                        u64_arr([
                            i.cycle,
                            i.deadlock_set_size as u64,
                            i.resource_set_size as u64,
                            i.knot_cycle_density,
                            i.dependents as u64,
                            i.formation_cycle,
                        ])
                    })
                    .collect(),
            ),
        ),
        ("formation_latency", hist_to_json(&r.formation_latency)),
        ("formation_spread", hist_to_json(&r.formation_spread)),
        (
            "forensic_incidents",
            Json::Arr(r.forensic_incidents.iter().map(|f| f.to_json()).collect()),
        ),
        ("outcome", Json::Str(r.outcome.name().to_string())),
        ("fault_losses", Json::U64(r.fault_losses)),
        ("fault_rejected", Json::U64(r.fault_rejected)),
        (
            "stall",
            match &r.stall {
                Some(st) => u64_arr([
                    st.cycle,
                    st.last_progress_cycle,
                    st.in_network as u64,
                    st.blocked as u64,
                    st.source_queued as u64,
                ]),
                None => Json::Null,
            },
        ),
    ])
}

/// Renders one checkpoint line: `{"index":i,"label":...,"result":{...}}`.
/// The campaign server writes its per-job checkpoint/result files in
/// exactly this format, and [`crate::CheckpointTail`] restores them.
pub fn checkpoint_line(index: usize, label: &str, result: &RunResult) -> String {
    obj(vec![
        ("index", Json::U64(index as u64)),
        ("label", Json::Str(label.to_string())),
        ("result", encode_result(result)),
    ])
    .to_string()
}

/// Renders one checkpoint *status* line persisting a terminal
/// cancellation decision: `{"index":i,"label":...,"status":"cancelled"}`
/// (or `"timed_out"`). [`crate::CheckpointTail`] reads such a slot as
/// [`crate::Verdict::Cancelled`], so it is not re-run after a restart.
pub fn checkpoint_status_line(index: usize, label: &str, timed_out: bool) -> String {
    obj(vec![
        ("index", Json::U64(index as u64)),
        ("label", Json::Str(label.to_string())),
        (
            "status",
            Json::Str(if timed_out { "timed_out" } else { "cancelled" }.to_string()),
        ),
    ])
    .to_string()
}

/// Rebuilds a [`RunResult`] from [`encode_result`] output. The round trip
/// is digest-exact: `decode_result(&encode_result(&r))?.digest() ==
/// r.digest()`.
pub fn decode_result(v: &Json) -> Result<RunResult, ParseError> {
    let mut r = RunResult::new(
        get(v, "label")?
            .as_str()
            .ok_or_else(|| bad("`label` must be a string"))?
            .to_string(),
        get_f64_bits(v, "offered_load")?,
        get_u64(v, "nodes")? as usize,
        get_f64_bits(v, "capacity")?,
        get_u64(v, "msg_len")? as usize,
    );
    r.cycles = get_u64(v, "cycles")?;
    r.generated = get_u64(v, "generated")?;
    r.injected = get_u64(v, "injected")?;
    r.delivered = get_u64(v, "delivered")?;
    r.recovered = get_u64(v, "recovered")?;
    r.delivered_flits = get_u64(v, "delivered_flits")?;
    r.latency = hist_from_json(v, "latency")?;
    r.link_flits = get_u64(v, "link_flits")?;
    r.deadlocks = get_u64(v, "deadlocks")?;
    r.single_cycle_deadlocks = get_u64(v, "single_cycle")?;
    r.multi_cycle_deadlocks = get_u64(v, "multi_cycle")?;
    r.deadlock_set = hist_from_json(v, "deadlock_set")?;
    r.resource_set = hist_from_json(v, "resource_set")?;
    r.knot_density = hist_from_json(v, "knot_density")?;
    r.dependent_committed = get_u64(v, "dependent_committed")?;
    r.dependent_transient = get_u64(v, "dependent_transient")?;
    r.blocked = mean_from_json(v, "blocked")?;
    r.in_network = mean_from_json(v, "in_network")?;
    r.source_queued = mean_from_json(v, "source_queued")?;
    r.cwg_cycles = series_from_json(v, "cwg_cycles")?;
    r.blocked_frac = series_from_json(v, "blocked_frac")?;
    r.cycles_capped = get(v, "cycles_capped")?
        .as_bool()
        .ok_or_else(|| bad("`cycles_capped` must be a bool"))?;
    r.cyclic_nondeadlock_epochs = get_u64(v, "cyclic_nondeadlock_epochs")?;
    r.counting_epochs = get_u64(v, "counting_epochs")?;
    r.victims_started = get_u64(v, "victims_started")?;
    r.resolution_latency = hist_from_json(v, "resolution_latency")?;
    r.detection_lag = hist_from_json(v, "detection_lag")?;
    for i in get(v, "incidents")?
        .as_arr()
        .ok_or_else(|| bad("`incidents` must be an array"))?
    {
        let words = i
            .as_arr()
            .ok_or_else(|| bad("incident must be an array"))?
            .iter()
            .map(|x| x.as_u64().ok_or_else(|| bad("incident holds non-u64")))
            .collect::<Result<Vec<u64>, _>>()?;
        if words.len() != 6 {
            return Err(bad("incident must have 6 fields"));
        }
        r.incidents.push(Incident {
            cycle: words[0],
            deadlock_set_size: words[1] as usize,
            resource_set_size: words[2] as usize,
            knot_cycle_density: words[3],
            dependents: words[4] as usize,
            formation_cycle: words[5],
        });
    }
    r.formation_latency = hist_from_json(v, "formation_latency")?;
    r.formation_spread = hist_from_json(v, "formation_spread")?;
    for f in get(v, "forensic_incidents")?
        .as_arr()
        .ok_or_else(|| bad("`forensic_incidents` must be an array"))?
    {
        r.forensic_incidents.push(DeadlockIncident::from_json(f)?);
    }
    r.outcome = outcome_from_name(
        get(v, "outcome")?
            .as_str()
            .ok_or_else(|| bad("`outcome` must be a string"))?,
    )?;
    r.fault_losses = get_u64(v, "fault_losses")?;
    r.fault_rejected = get_u64(v, "fault_rejected")?;
    r.stall = match get(v, "stall")? {
        Json::Null => None,
        j => {
            let words = j
                .as_arr()
                .ok_or_else(|| bad("`stall` must be null or an array"))?
                .iter()
                .map(|x| x.as_u64().ok_or_else(|| bad("`stall` holds non-u64")))
                .collect::<Result<Vec<u64>, _>>()?;
            if words.len() != 5 {
                return Err(bad("`stall` must have 5 fields"));
            }
            Some(StallReport {
                cycle: words[0],
                last_progress_cycle: words[1],
                in_network: words[2] as usize,
                blocked: words[3] as usize,
                source_queued: words[4] as usize,
            })
        }
    };
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run, ForensicsConfig, RoutingSpec, RunConfig, TopologySpec};
    use icn_cwg::jsonio::parse;

    #[test]
    fn checkpoint_round_trip_is_digest_exact() {
        // A deadlock-heavy forensic run with a fault plan exercises every
        // field: histograms, time series, incidents, forensic records,
        // fault totals, and outcome.
        let mut cfg = RunConfig::small_default();
        cfg.topology = TopologySpec::torus(8, 2, false);
        cfg.routing = RoutingSpec::Dor;
        cfg.sim.vcs_per_channel = 1;
        cfg.load = 1.0;
        cfg.warmup = 200;
        cfg.measure = 1_000;
        cfg.count_cycles_every = Some(3);
        cfg.forensics = Some(ForensicsConfig::default());
        cfg.faults.link_outage(5, 300, 500);
        let r = run(&cfg);
        assert!(r.deadlocks > 0, "need a knot-heavy run for coverage");

        let text = encode_result(&r).to_string();
        let back = decode_result(&parse(&text).unwrap()).unwrap();
        assert_eq!(back.digest(), r.digest());
    }

    #[test]
    fn stall_report_round_trips() {
        let mut r = RunResult::new("t".into(), 0.5, 16, 0.5, 32);
        r.outcome = RunOutcome::Stalled;
        r.stall = Some(StallReport {
            cycle: 900,
            last_progress_cycle: 400,
            in_network: 12,
            blocked: 12,
            source_queued: 3,
        });
        let back = decode_result(&encode_result(&r)).unwrap();
        assert_eq!(back.digest(), r.digest());
        assert_eq!(back.stall, r.stall);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_result(&parse("{}").unwrap()).is_err());
    }

    /// `decode_result` reads exactly what `encode_result` writes: a record
    /// without `detection_lag`, or with a 5-field incident, is refused.
    #[test]
    fn decode_refuses_records_missing_a_member() {
        let mut r = RunResult::new("t".into(), 0.5, 16, 0.5, 32);
        r.incidents.push(Incident {
            cycle: 100,
            deadlock_set_size: 4,
            resource_set_size: 4,
            knot_cycle_density: 1,
            dependents: 0,
            formation_cycle: 90,
        });
        let Json::Obj(fields) = encode_result(&r) else {
            panic!("a result encodes as an object");
        };
        assert!(decode_result(&Json::Obj(fields.clone())).is_ok());

        let no_lag = fields
            .iter()
            .filter(|(k, _)| k != "detection_lag")
            .cloned()
            .collect();
        let err = decode_result(&Json::Obj(no_lag)).unwrap_err();
        assert!(err.to_string().contains("detection_lag"), "{err}");

        let mut five = fields;
        for (k, v) in &mut five {
            if k == "incidents" {
                *v = Json::Arr(vec![u64_arr([100, 4, 4, 1, 0])]);
            }
        }
        let err = decode_result(&Json::Obj(five)).unwrap_err();
        assert!(err.to_string().contains("6 fields"), "{err}");
    }
}
