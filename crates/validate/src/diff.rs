//! Differential comparison: oracle vs. production detector.
//!
//! [`check_messages`] runs one CWG snapshot through three independent
//! implementations — the production `icn_cwg::WaitGraph` analysis, the
//! naive [`oracle`](crate::oracle), and (on small snapshots) the
//! brute-force closed-set enumerator — and reports every disagreement.
//! [`minimize_divergence`] greedily shrinks a diverging snapshot to a
//! locally minimal message set, so a failure lands as a handful of chains
//! a human can re-derive on paper.

use crate::oracle::{minimal_deadlock_sets, oracle_analyze, OracleAnalysis, OracleDependent};
use icn_cwg::{Analysis, CwgSnapshot, DependentKind, DetectorScratch};

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

/// Sorts each set and then the list of sets, so set collections compare
/// independently of emission order.
fn sorted_sets<T: Ord>(sets: impl IntoIterator<Item = Vec<T>>) -> Vec<Vec<T>> {
    let mut out: Vec<Vec<T>> = sets
        .into_iter()
        .map(|mut s| {
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

/// Compares one production analysis with the oracle's, field by field:
/// verdict, `num_blocked`, knot vertex sets, deadlock sets, resource sets
/// and the dependent census. `side` prefixes every context.
fn compare_analysis(
    out: &mut Vec<Divergence>,
    side: &str,
    production: &Analysis,
    oracle: &OracleAnalysis,
) {
    push_if_ne(
        out,
        &format!("{side}has_deadlock"),
        &production.has_deadlock(),
        &oracle.has_deadlock(),
    );
    push_if_ne(
        out,
        &format!("{side}num_blocked"),
        &production.num_blocked,
        &oracle.num_blocked,
    );
    push_if_ne(
        out,
        &format!("{side}knot vertex sets"),
        &sorted_sets(production.deadlocks.iter().map(|d| d.knot.clone())),
        &sorted_sets(oracle.knots.iter().map(|k| k.knot.clone())),
    );
    push_if_ne(
        out,
        &format!("{side}deadlock sets"),
        &sorted_sets(production.deadlocks.iter().map(|d| d.deadlock_set.clone())),
        &oracle.deadlock_sets(),
    );
    push_if_ne(
        out,
        &format!("{side}resource sets"),
        &sorted_sets(production.deadlocks.iter().map(|d| d.resource_set.clone())),
        &sorted_sets(oracle.knots.iter().map(|k| k.resource_set.clone())),
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
    push_if_ne(
        out,
        &format!("{side}dependent census"),
        &prod_dep,
        &oracle.dependent,
    );
}

/// Differentially checks one snapshot; returns every divergence found
/// (empty means all implementations agree on everything compared).
///
/// The snapshot's production graph is built and analysed, and that
/// analysis is compared with the oracle's; the slim per-epoch knot path
/// and (on small snapshots) the brute-force enumerator are held to the
/// oracle's deadlock sets. `recorded` is an analysis production already
/// made of this same snapshot — a live epoch's, a stored incident's — and
/// is held to the same oracle verdict, so the oracle and the enumerator
/// run once however many analyses are checked.
pub fn check_messages(snap: &CwgSnapshot, recorded: Option<&Analysis>) -> Vec<Divergence> {
    let g = snap.build_graph();
    let oracle = oracle_analyze(snap);
    let mut out = Vec::new();
    compare_analysis(&mut out, "", &g.analyze(1_000), &oracle);
    if let Some(recorded) = recorded {
        compare_analysis(&mut out, "recorded ", recorded, &oracle);
    }

    // The slim per-epoch path must agree with the full analysis.
    let slim = g.knot_deadlock_sets(&mut DetectorScratch::new());
    push_if_ne(
        &mut out,
        "knot_deadlock_sets (slim path)",
        &sorted_sets(slim),
        &oracle.deadlock_sets(),
    );

    // Third implementation: minimal closed sets, when small enough.
    if let Some(brute) = minimal_deadlock_sets(snap, BRUTE_FORCE_CAP) {
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
/// `snap` unchanged if it does not diverge.
pub fn minimize_divergence(snap: &CwgSnapshot) -> CwgSnapshot {
    let mut cur = snap.clone();
    if check_messages(&cur, None).is_empty() {
        return cur;
    }
    loop {
        let mut shrunk = false;
        let mut i = 0;
        while i < cur.messages.len() {
            let mut trial = cur.clone();
            trial.messages.remove(i);
            if !check_messages(&trial, None).is_empty() {
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

    fn snap(num_vertices: usize, msgs: &[(u64, &[u32], &[u32])]) -> CwgSnapshot {
        CwgSnapshot::from_messages(num_vertices, msgs.iter().copied())
    }

    #[test]
    fn figure1_agrees() {
        let s = snap(
            10,
            &[
                (1, &[1, 2], &[3]),
                (2, &[3, 4, 5], &[6]),
                (3, &[6, 7, 0], &[1]),
                (4, &[8], &[]),
            ],
        );
        assert_eq!(check_messages(&s, None), vec![]);
    }

    #[test]
    fn escape_and_dependents_agree() {
        let s = snap(
            10,
            &[
                (1, &[0, 1], &[2]),
                (2, &[2, 3], &[0]),
                (3, &[4, 5], &[6, 2]),
                (4, &[6, 7], &[4]),
                (5, &[8], &[9]),
            ],
        );
        assert_eq!(check_messages(&s, None), vec![]);
    }

    #[test]
    fn empty_agrees() {
        assert_eq!(check_messages(&snap(4, &[]), None), vec![]);
    }

    #[test]
    fn a_recorded_analysis_is_held_to_the_oracle() {
        let s = snap(4, &[(1, &[0, 1], &[2]), (2, &[2, 3], &[0])]);
        let right = s.build_graph().analyze(1_000);
        assert_eq!(check_messages(&s, Some(&right)), vec![]);
        let wrong = Analysis {
            deadlocks: Vec::new(),
            dependent: Vec::new(),
            num_blocked: 2,
        };
        let contexts: Vec<String> = check_messages(&s, Some(&wrong))
            .into_iter()
            .map(|d| d.context)
            .collect();
        assert!(contexts.contains(&"recorded has_deadlock".to_string()));
        assert!(contexts.iter().all(|c| c.starts_with("recorded ")));
    }

    #[test]
    fn minimizer_is_identity_on_agreement() {
        let s = snap(4, &[(1, &[0, 1], &[2]), (2, &[2, 3], &[0])]);
        assert_eq!(minimize_divergence(&s), s);
    }
}
