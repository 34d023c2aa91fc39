//! JSON serialization of wait graphs and analyses.
//!
//! Incident records store a CWG snapshot as data — who owns what, who
//! waits for what — rather than as adjacency lists: the graph structure is
//! derivable (and re-derived on load through the same [`WaitGraph`]
//! constructors the detector uses), so a parsed incident can never encode
//! a graph the detector could not have built.

use crate::analysis::{Analysis, Deadlock, DependentKind};
use crate::cycles::CycleCount;
use crate::graph::WaitGraph;
use crate::jsonio::{
    bad, get, get_bool, get_u64, get_u64_vec, obj, parse, u64_arr, Json, ParseError,
};

fn get_u32_arr(v: &Json, key: &str) -> Result<Vec<u32>, ParseError> {
    get(v, key)?
        .as_arr()
        .ok_or_else(|| bad(&format!("`{key}` must be an array")))?
        .iter()
        .map(|x| {
            x.as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| bad(&format!("`{key}` holds a non-u32 element")))
        })
        .collect()
}

impl WaitGraph {
    /// Serializes the graph as a JSON value: vertex count plus each
    /// registered message's ownership chain and request set.
    pub fn to_json(&self) -> Json {
        let messages: Vec<Json> = self
            .messages()
            .map(|m| {
                obj(vec![
                    ("id", Json::U64(m)),
                    (
                        "chain",
                        u64_arr(self.chain(m).unwrap_or(&[]).iter().map(|&v| v as u64)),
                    ),
                    (
                        "requests",
                        u64_arr(self.requests_of(m).unwrap_or(&[]).iter().map(|&v| v as u64)),
                    ),
                ])
            })
            .collect();
        obj(vec![
            ("num_vertices", Json::U64(self.num_vertices() as u64)),
            ("messages", Json::Arr(messages)),
        ])
    }

    /// Rebuilds a graph from [`to_json`](Self::to_json) output.
    ///
    /// The graph is reconstructed through [`add_chain`](Self::add_chain) /
    /// [`add_requests`](Self::add_requests), so structural invariants
    /// (unique ownership, chains before requests) are re-validated; any
    /// violation surfaces as a parse error rather than a panic.
    pub fn from_json(v: &Json) -> Result<WaitGraph, ParseError> {
        let n = get_u64(v, "num_vertices")? as usize;
        let mut g = WaitGraph::new(n);
        let messages = get(v, "messages")?
            .as_arr()
            .ok_or_else(|| bad("`messages` must be an array"))?;
        for m in messages {
            let id = get_u64(m, "id")?;
            let chain = get_u32_arr(m, "chain")?;
            let requests = get_u32_arr(m, "requests")?;
            if chain.is_empty() {
                return Err(bad("message chain may not be empty"));
            }
            if chain.iter().chain(&requests).any(|&x| x as usize >= n) {
                return Err(bad("vertex index out of range"));
            }
            if chain.iter().any(|&x| g.owner(x).is_some()) {
                return Err(bad("vertex owned twice"));
            }
            if g.chain(id).is_some() {
                return Err(bad("message registered twice"));
            }
            g.add_chain(id, &chain);
            if !requests.is_empty() {
                g.add_requests(id, &requests);
            }
        }
        Ok(g)
    }

    /// Parses a graph from JSON text.
    pub fn from_json_str(text: &str) -> Result<WaitGraph, ParseError> {
        Self::from_json(&parse(text)?)
    }
}

fn cycle_count_to_json(c: CycleCount) -> Json {
    obj(vec![
        ("value", Json::U64(c.value())),
        ("capped", Json::Bool(c.is_capped())),
    ])
}

fn cycle_count_from_json(v: &Json) -> Result<CycleCount, ParseError> {
    let value = get_u64(v, "value")?;
    let capped = get_bool(v, "capped")?;
    Ok(if capped {
        CycleCount::AtLeast(value)
    } else {
        CycleCount::Exact(value)
    })
}

impl Analysis {
    /// Serializes the analysis: every knot's descriptors plus the
    /// dependent-message census.
    pub fn to_json(&self) -> Json {
        let deadlocks: Vec<Json> = self
            .deadlocks
            .iter()
            .map(|d| {
                obj(vec![
                    ("knot", u64_arr(d.knot.iter().map(|&v| v as u64))),
                    ("deadlock_set", u64_arr(d.deadlock_set.iter().copied())),
                    (
                        "resource_set",
                        u64_arr(d.resource_set.iter().map(|&v| v as u64)),
                    ),
                    ("cycle_density", cycle_count_to_json(d.cycle_density)),
                ])
            })
            .collect();
        let dependent: Vec<Json> = self
            .dependent
            .iter()
            .map(|&(m, kind)| {
                obj(vec![
                    ("id", Json::U64(m)),
                    (
                        "kind",
                        Json::Str(
                            match kind {
                                DependentKind::Committed => "committed",
                                DependentKind::Transient => "transient",
                            }
                            .to_string(),
                        ),
                    ),
                ])
            })
            .collect();
        obj(vec![
            ("num_blocked", Json::U64(self.num_blocked as u64)),
            ("deadlocks", Json::Arr(deadlocks)),
            ("dependent", Json::Arr(dependent)),
        ])
    }

    /// Rebuilds an analysis from [`to_json`](Self::to_json) output.
    pub fn from_json(v: &Json) -> Result<Analysis, ParseError> {
        let num_blocked = get_u64(v, "num_blocked")? as usize;
        let mut deadlocks = Vec::new();
        for d in get(v, "deadlocks")?
            .as_arr()
            .ok_or_else(|| bad("`deadlocks` must be an array"))?
        {
            deadlocks.push(Deadlock {
                knot: get_u32_arr(d, "knot")?,
                deadlock_set: get_u64_vec(d, "deadlock_set")?,
                resource_set: get_u32_arr(d, "resource_set")?,
                cycle_density: cycle_count_from_json(get(d, "cycle_density")?)?,
            });
        }
        let mut dependent = Vec::new();
        for e in get(v, "dependent")?
            .as_arr()
            .ok_or_else(|| bad("`dependent` must be an array"))?
        {
            let id = get_u64(e, "id")?;
            let kind = match get(e, "kind")?.as_str() {
                Some("committed") => DependentKind::Committed,
                Some("transient") => DependentKind::Transient,
                _ => return Err(bad("dependent `kind` must be committed|transient")),
            };
            dependent.push((id, kind));
        }
        Ok(Analysis {
            deadlocks,
            dependent,
            num_blocked,
        })
    }
}

/// Structural equality of two analyses (the derived [`Deadlock`] carries no
/// `PartialEq`; incident round-trip tests compare through this).
pub fn analyses_equal(a: &Analysis, b: &Analysis) -> bool {
    a.num_blocked == b.num_blocked
        && a.dependent == b.dependent
        && a.deadlocks.len() == b.deadlocks.len()
        && a.deadlocks.iter().zip(&b.deadlocks).all(|(x, y)| {
            x.knot == y.knot
                && x.deadlock_set == y.deadlock_set
                && x.resource_set == y.resource_set
                && x.cycle_density == y.cycle_density
        })
}

/// Structural equality of two wait graphs: same vertex count, same
/// messages, same chains and requests (and therefore the same arcs).
pub fn graphs_equal(a: &WaitGraph, b: &WaitGraph) -> bool {
    if a.num_vertices() != b.num_vertices() {
        return false;
    }
    let mut ma: Vec<u64> = a.messages().collect();
    let mut mb: Vec<u64> = b.messages().collect();
    ma.sort_unstable();
    mb.sort_unstable();
    ma == mb
        && ma
            .iter()
            .all(|&m| a.chain(m) == b.chain(m) && a.requests_of(m) == b.requests_of(m))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure1_like() -> WaitGraph {
        let mut g = WaitGraph::new(10);
        g.add_chain(1, &[1, 2]);
        g.add_chain(2, &[3, 4, 5]);
        g.add_chain(3, &[6, 7, 0]);
        g.add_chain(4, &[8]);
        g.add_requests(1, &[3]);
        g.add_requests(2, &[6]);
        g.add_requests(3, &[1]);
        g
    }

    #[test]
    fn graph_round_trips() {
        let g = figure1_like();
        let text = g.to_json().to_string();
        let back = WaitGraph::from_json_str(&text).unwrap();
        assert!(graphs_equal(&g, &back));
        // And the rebuilt graph analyzes identically.
        assert!(analyses_equal(&g.analyze(1000), &back.analyze(1000)));
    }

    #[test]
    fn analysis_round_trips() {
        let a = figure1_like().analyze(1000);
        assert!(a.has_deadlock());
        let text = a.to_json().to_string();
        let back = Analysis::from_json(&parse(&text).unwrap()).unwrap();
        assert!(analyses_equal(&a, &back));
    }

    #[test]
    fn capped_density_round_trips() {
        let mut a = figure1_like().analyze(1000);
        a.deadlocks[0].cycle_density = CycleCount::AtLeast(42);
        let back = Analysis::from_json(&a.to_json()).unwrap();
        assert!(back.deadlocks[0].cycle_density.is_capped());
        assert_eq!(back.deadlocks[0].cycle_density.value(), 42);
    }

    #[test]
    fn dependents_round_trip() {
        let mut g = figure1_like();
        g.add_chain(6, &[9]);
        g.add_requests(6, &[4]);
        let a = g.analyze(1000);
        assert!(!a.dependent.is_empty());
        let back = Analysis::from_json(&a.to_json()).unwrap();
        assert_eq!(back.dependent, a.dependent);
    }

    #[test]
    fn corrupt_graphs_are_rejected_not_panicked() {
        for text in [
            "{}",
            "{\"num_vertices\": 4, \"messages\": 3}",
            // vertex out of range
            "{\"num_vertices\":2,\"messages\":[{\"id\":1,\"chain\":[5],\"requests\":[]}]}",
            // empty chain
            "{\"num_vertices\":2,\"messages\":[{\"id\":1,\"chain\":[],\"requests\":[]}]}",
            // double ownership
            "{\"num_vertices\":3,\"messages\":[{\"id\":1,\"chain\":[0],\"requests\":[]},{\"id\":2,\"chain\":[0],\"requests\":[]}]}",
            // duplicate message id
            "{\"num_vertices\":3,\"messages\":[{\"id\":1,\"chain\":[0],\"requests\":[]},{\"id\":1,\"chain\":[1],\"requests\":[]}]}",
        ] {
            assert!(WaitGraph::from_json_str(text).is_err(), "accepted: {text}");
        }
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = WaitGraph::new(0);
        let back = WaitGraph::from_json_str(&g.to_json().to_string()).unwrap();
        assert!(graphs_equal(&g, &back));
    }
}
