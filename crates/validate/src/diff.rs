//! Differential comparison: oracle vs. production detector.
//!
//! [`check_messages`] runs one CWG snapshot through three independent
//! implementations — the production `icn_cwg::WaitGraph` analysis, the
//! naive [`oracle`](crate::oracle), and (on small snapshots) the
//! brute-force closed-set enumerator — and reports every disagreement.
//! [`minimize_divergence`] greedily shrinks a diverging snapshot to a
//! locally minimal message set, so a failure lands as a handful of chains
//! a human can re-derive on paper.

use crate::oracle::{minimal_deadlock_sets, oracle_analyze, OracleDependent, OracleMsg};
use icn_cwg::{Analysis, DependentKind, DetectorScratch, WaitGraph};

/// Cap for the brute-force enumerator: snapshots with more blocked
/// messages skip that third check (still differential on the other two).
pub const BRUTE_FORCE_CAP: usize = 16;

/// One disagreement between implementations on one snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// Where the disagreement was observed (which pair, which field).
    pub context: String,
    /// Both sides' values, rendered.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.context, self.detail)
    }
}

/// Builds the production graph for a snapshot.
pub(crate) fn production_graph(num_vertices: usize, msgs: &[OracleMsg]) -> WaitGraph {
    let mut g = WaitGraph::new(num_vertices);
    for m in msgs {
        g.add_chain(m.id, &m.chain);
        if !m.requests.is_empty() {
            g.add_requests(m.id, &m.requests);
        }
    }
    g
}

fn sorted_sets<T: Ord + Clone>(sets: &[Vec<T>]) -> Vec<Vec<T>> {
    let mut out: Vec<Vec<T>> = sets
        .iter()
        .map(|s| {
            let mut s = s.clone();
            s.sort();
            s
        })
        .collect();
    out.sort();
    out
}

pub(crate) fn push_if_ne<T: PartialEq + std::fmt::Debug>(
    out: &mut Vec<Divergence>,
    context: &str,
    production: &T,
    oracle: &T,
) {
    if production != oracle {
        out.push(Divergence {
            context: context.to_string(),
            detail: format!("production={production:?} oracle={oracle:?}"),
        });
    }
}

/// Differentially checks one snapshot; returns every divergence found
/// (empty means all implementations agree on everything compared).
pub fn check_messages(num_vertices: usize, msgs: &[OracleMsg]) -> Vec<Divergence> {
    let g = production_graph(num_vertices, msgs);
    let production: Analysis = g.analyze(1_000);
    let oracle = oracle_analyze(num_vertices, msgs);
    let mut out = Vec::new();

    push_if_ne(
        &mut out,
        "has_deadlock",
        &production.has_deadlock(),
        &oracle.has_deadlock(),
    );
    push_if_ne(
        &mut out,
        "num_blocked",
        &production.num_blocked,
        &oracle.num_blocked,
    );

    let prod_knots: Vec<Vec<u32>> = production
        .deadlocks
        .iter()
        .map(|d| d.knot.clone())
        .collect();
    let orc_knots: Vec<Vec<u32>> = oracle.knots.iter().map(|k| k.knot.clone()).collect();
    push_if_ne(
        &mut out,
        "knot vertex sets",
        &sorted_sets(&prod_knots),
        &sorted_sets(&orc_knots),
    );

    let prod_dsets: Vec<Vec<u64>> = production
        .deadlocks
        .iter()
        .map(|d| d.deadlock_set.clone())
        .collect();
    push_if_ne(
        &mut out,
        "deadlock sets",
        &sorted_sets(&prod_dsets),
        &oracle.deadlock_sets(),
    );

    let prod_rsets: Vec<Vec<u32>> = production
        .deadlocks
        .iter()
        .map(|d| d.resource_set.clone())
        .collect();
    let orc_rsets: Vec<Vec<u32>> = oracle
        .knots
        .iter()
        .map(|k| k.resource_set.clone())
        .collect();
    push_if_ne(
        &mut out,
        "resource sets",
        &sorted_sets(&prod_rsets),
        &sorted_sets(&orc_rsets),
    );

    let prod_dep: Vec<(u64, OracleDependent)> = production
        .dependent
        .iter()
        .map(|&(id, k)| {
            (
                id,
                match k {
                    DependentKind::Committed => OracleDependent::Committed,
                    DependentKind::Transient => OracleDependent::Transient,
                },
            )
        })
        .collect();
    push_if_ne(&mut out, "dependent census", &prod_dep, &oracle.dependent);

    // The slim per-epoch path must agree with the full analysis.
    let mut scratch = DetectorScratch::new();
    let slim = g.knot_deadlock_sets(&mut scratch);
    push_if_ne(
        &mut out,
        "knot_deadlock_sets (slim path)",
        &sorted_sets(&slim),
        &oracle.deadlock_sets(),
    );

    // Third implementation: minimal closed sets, when small enough.
    if let Some(brute) = minimal_deadlock_sets(num_vertices, msgs, BRUTE_FORCE_CAP) {
        push_if_ne(
            &mut out,
            "brute-force minimal closed sets",
            &brute,
            &oracle.deadlock_sets(),
        );
    }

    out
}

/// Greedily drops messages from a diverging snapshot while the divergence
/// persists; returns a locally minimal reproducer (no single message can
/// be removed without the implementations starting to agree). Returns
/// `msgs` unchanged if they do not diverge.
pub fn minimize_divergence(num_vertices: usize, msgs: &[OracleMsg]) -> Vec<OracleMsg> {
    let mut cur = msgs.to_vec();
    if check_messages(num_vertices, &cur).is_empty() {
        return cur;
    }
    loop {
        let mut shrunk = false;
        let mut i = 0;
        while i < cur.len() {
            let mut trial = cur.clone();
            trial.remove(i);
            if !check_messages(num_vertices, &trial).is_empty() {
                cur = trial;
                shrunk = true;
            } else {
                i += 1;
            }
        }
        if !shrunk {
            return cur;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(id: u64, chain: &[u32], requests: &[u32]) -> OracleMsg {
        OracleMsg {
            id,
            chain: chain.to_vec(),
            requests: requests.to_vec(),
        }
    }

    #[test]
    fn figure1_agrees() {
        let msgs = vec![
            msg(1, &[1, 2], &[3]),
            msg(2, &[3, 4, 5], &[6]),
            msg(3, &[6, 7, 0], &[1]),
            msg(4, &[8], &[]),
        ];
        assert_eq!(check_messages(10, &msgs), vec![]);
    }

    #[test]
    fn escape_and_dependents_agree() {
        let msgs = vec![
            msg(1, &[0, 1], &[2]),
            msg(2, &[2, 3], &[0]),
            msg(3, &[4, 5], &[6, 2]),
            msg(4, &[6, 7], &[4]),
            msg(5, &[8], &[9]),
        ];
        assert_eq!(check_messages(10, &msgs), vec![]);
    }

    #[test]
    fn empty_agrees() {
        assert_eq!(check_messages(4, &[]), vec![]);
    }

    #[test]
    fn minimizer_is_identity_on_agreement() {
        let msgs = vec![msg(1, &[0, 1], &[2]), msg(2, &[2, 3], &[0])];
        assert_eq!(minimize_divergence(4, &msgs), msgs);
    }
}
