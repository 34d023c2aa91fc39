//! JSON serialization of knot analyses (the wait-for snapshot's own codec
//! lives with [`CwgSnapshot`](crate::CwgSnapshot)).

use crate::analysis::{Analysis, Deadlock, DependentKind};
use crate::cycles::CycleCount;
use crate::jsonio::{bad, get, get_bool, get_u64, get_u64_vec, obj, u64_arr, Json, ParseError};

pub(crate) fn get_u32_arr(v: &Json, key: &str) -> Result<Vec<u32>, ParseError> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::WaitGraph;
    use crate::jsonio::parse;

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
}
