//! The independent knot oracle.
//!
//! A deliberately naive re-implementation of the CWG deadlock analysis:
//! dense adjacency matrix, repeated full-scan fixed points, Warshall
//! transitive closure — no SCC decomposition, no CSR, no scratch reuse,
//! nothing shared with `icn-cwg` beyond the problem statement. Slow and
//! allocation-happy on purpose: every line is checkable against the §2
//! definitions by eye, which is what makes it a trustworthy referee for
//! the optimized production detector.
//!
//! **Import rule.** The problem statement is the one thing shared: this
//! module reads the same [`CwgSnapshot`] / [`CwgMsg`] record the detector
//! is built from, and imports nothing else from `icn_cwg` — no graph, no
//! analysis, no algorithm. Independence is a property of the algorithm,
//! and sharing the record it runs on does not weaken it.
//!
//! Semantics under test (matching `icn_cwg::WaitGraph::analyze`):
//!
//! * Vertices are virtual channels (plus reception channels). Each message
//!   contributes *solid* arcs `chain[i] → chain[i+1]` along its ownership
//!   chain and, when blocked, *dashed* arcs `head → r` for every requested
//!   vertex `r`.
//! * A **knot** is a set of vertices whose members reach exactly that set:
//!   every vertex reachable from the knot is in the knot, and the knot is
//!   non-trivial (it contains an arc). Equivalently: `v` is a knot vertex
//!   iff `v` has at least one outgoing arc and every vertex reachable from
//!   `v` can reach `v` back.
//! * The **deadlock set** of a knot is the messages owning its vertices;
//!   the **resource set** is every vertex those messages hold.
//! * Blocked messages outside every deadlock set whose requests lead into
//!   a knot are **dependent**: *committed* when all requests do,
//!   *transient* otherwise.
//!
//! The oracle computes knots in two naive stages:
//!
//! 1. **Escape reduction** — repeatedly remove every vertex that is a sink
//!    or has an arc to a removed vertex. A removed vertex can reach a sink,
//!    so it cannot be in a knot; survivors form a sink-free subgraph closed
//!    under successors.
//! 2. **Warshall closure** over the survivors — a survivor is a knot
//!    vertex iff everything it reaches can reach it back. Stage 1 alone is
//!    *not* sufficient: a cycle that also waits into a knot survives the
//!    reduction without being deadlocked (its members are committed
//!    dependents), which only the closure detects.

use icn_cwg::{CwgMsg, CwgSnapshot};

/// Dependent classification, oracle-side (mirrors
/// `icn_cwg::DependentKind`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OracleDependent {
    /// Every request leads into a knot.
    Committed,
    /// At least one request does not.
    Transient,
}

/// One knot found by the oracle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OracleKnot {
    /// The knot's vertices, sorted.
    pub knot: Vec<u32>,
    /// Messages owning knot vertices, sorted.
    pub deadlock_set: Vec<u64>,
    /// Every vertex held by a deadlock-set message, sorted.
    pub resource_set: Vec<u32>,
}

/// The oracle's verdict on one snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OracleAnalysis {
    /// Every knot, sorted by first knot vertex.
    pub knots: Vec<OracleKnot>,
    /// Dependent messages, sorted by id (empty when there is no knot).
    pub dependent: Vec<(u64, OracleDependent)>,
    /// Messages with a non-empty request set.
    pub num_blocked: usize,
}

impl OracleAnalysis {
    /// True when at least one knot exists.
    pub fn has_deadlock(&self) -> bool {
        !self.knots.is_empty()
    }

    /// The deadlock sets, sorted (outer and inner).
    pub fn deadlock_sets(&self) -> Vec<Vec<u64>> {
        let mut sets: Vec<Vec<u64>> = self.knots.iter().map(|k| k.deadlock_set.clone()).collect();
        sets.sort();
        sets
    }
}

/// Builds the dense adjacency matrix of the snapshot's CWG and the
/// per-vertex owner map (indices into `msgs`).
fn build_matrix(num_vertices: usize, msgs: &[CwgMsg]) -> (Vec<Vec<bool>>, Vec<Option<usize>>) {
    let mut adj = vec![vec![false; num_vertices]; num_vertices];
    let mut owner: Vec<Option<usize>> = vec![None; num_vertices];
    for (mi, m) in msgs.iter().enumerate() {
        assert!(!m.chain.is_empty(), "oracle: message {} has no chain", m.id);
        for &v in &m.chain {
            let v = v as usize;
            assert!(v < num_vertices, "oracle: vertex {v} out of range");
            assert!(
                owner[v].is_none(),
                "oracle: vertex {v} owned by two messages"
            );
            owner[v] = Some(mi);
        }
        for w in m.chain.windows(2) {
            adj[w[0] as usize][w[1] as usize] = true;
        }
        if !m.requests.is_empty() {
            let head = *m.chain.last().unwrap() as usize;
            for &r in &m.requests {
                assert!((r as usize) < num_vertices, "oracle: request out of range");
                adj[head][r as usize] = true;
            }
        }
    }
    (adj, owner)
}

/// Analyzes one snapshot with the naive oracle.
pub fn oracle_analyze(snap: &CwgSnapshot) -> OracleAnalysis {
    let (n, msgs) = (snap.num_vertices, snap.messages.as_slice());
    let (adj, owner) = build_matrix(n, msgs);

    // Stage 1: escape reduction to a fixed point. Remove sinks and any
    // vertex with an arc to a removed vertex; survivors cannot reach a
    // sink and every survivor arc stays among survivors.
    let mut removed = vec![false; n];
    loop {
        let mut changed = false;
        for v in 0..n {
            if removed[v] {
                continue;
            }
            let mut has_arc = false;
            let mut escapes = false;
            for w in 0..n {
                if adj[v][w] {
                    has_arc = true;
                    if removed[w] {
                        escapes = true;
                    }
                }
            }
            if !has_arc || escapes {
                removed[v] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let survivors: Vec<usize> = (0..n).filter(|&v| !removed[v]).collect();
    let num_blocked = msgs.iter().filter(|m| !m.requests.is_empty()).count();

    // Stage 2: Warshall transitive closure over the survivors; a survivor
    // is a knot vertex iff everything it reaches can reach it back.
    let s = survivors.len();
    let mut dense = vec![usize::MAX; n];
    for (i, &v) in survivors.iter().enumerate() {
        dense[v] = i;
    }
    let mut reach = vec![vec![false; s]; s];
    for (i, &v) in survivors.iter().enumerate() {
        for (j, &w) in survivors.iter().enumerate() {
            if adj[v][w] {
                reach[i][j] = true;
            }
        }
    }
    for k in 0..s {
        let row_k = reach[k].clone();
        for row_i in reach.iter_mut() {
            if row_i[k] {
                for (cell, &via_k) in row_i.iter_mut().zip(&row_k) {
                    *cell = *cell || via_k;
                }
            }
        }
    }
    let mut is_knot_vertex = vec![false; n];
    for (i, &v) in survivors.iter().enumerate() {
        let knotty = (0..s).all(|j| !reach[i][j] || reach[j][i]);
        if knotty {
            is_knot_vertex[v] = true;
        }
    }

    // Group knot vertices into knots: members of one knot are mutually
    // reachable, distinct knots are unreachable from each other.
    let mut assigned = vec![false; n];
    let mut knots = Vec::new();
    for v in 0..n {
        if !is_knot_vertex[v] || assigned[v] {
            continue;
        }
        let vi = dense[v];
        let mut knot: Vec<u32> = vec![v as u32];
        assigned[v] = true;
        for &w in &survivors {
            if w != v && is_knot_vertex[w] && !assigned[w] && reach[vi][dense[w]] {
                knot.push(w as u32);
                assigned[w] = true;
            }
        }
        knot.sort_unstable();

        let mut deadlock_set: Vec<u64> = knot
            .iter()
            .filter_map(|&kv| owner[kv as usize].map(|mi| msgs[mi].id))
            .collect();
        deadlock_set.sort_unstable();
        deadlock_set.dedup();

        let mut resource_set: Vec<u32> = msgs
            .iter()
            .filter(|m| deadlock_set.binary_search(&m.id).is_ok())
            .flat_map(|m| m.chain.iter().copied())
            .collect();
        resource_set.sort_unstable();
        resource_set.dedup();

        knots.push(OracleKnot {
            knot,
            deadlock_set,
            resource_set,
        });
    }

    // Dependent census: blocked messages outside every deadlock set whose
    // requests lead into a knot. "Leads into" is reachability on the full
    // graph, computed as yet another naive fixed point.
    let mut dependent = Vec::new();
    if !knots.is_empty() {
        let mut reaches_knot = vec![false; n];
        for k in &knots {
            for &v in &k.knot {
                reaches_knot[v as usize] = true;
            }
        }
        loop {
            let mut changed = false;
            for v in 0..n {
                if reaches_knot[v] {
                    continue;
                }
                if (0..n).any(|w| adj[v][w] && reaches_knot[w]) {
                    reaches_knot[v] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let deadlocked: Vec<u64> = knots
            .iter()
            .flat_map(|k| k.deadlock_set.iter().copied())
            .collect();
        for m in msgs {
            if m.requests.is_empty() || deadlocked.contains(&m.id) {
                continue;
            }
            let hits = m
                .requests
                .iter()
                .filter(|&&r| reaches_knot[r as usize])
                .count();
            if hits == 0 {
                continue;
            }
            let kind = if hits == m.requests.len() {
                OracleDependent::Committed
            } else {
                OracleDependent::Transient
            };
            dependent.push((m.id, kind));
        }
        dependent.sort_unstable_by_key(|&(id, _)| id);
    }

    OracleAnalysis {
        knots,
        dependent,
        num_blocked,
    }
}

/// Brute-force minimal-deadlock-set enumeration for small snapshots.
///
/// A set `S` of blocked messages is **closed** when every member's every
/// request targets a vertex owned by a member of `S`. Every closed set
/// wedges permanently (no member can ever acquire a requested vertex), and
/// the *minimal* closed sets are exactly the knots' deadlock sets — an
/// entirely different characterization from the graph-theoretic one, which
/// makes this a third independent implementation to cross-check.
///
/// Enumerates all `2^B` subsets of the `B` blocked messages; returns
/// `None` when `B > max_blocked` (the caller skips the check rather than
/// waiting on an exponential loop).
pub fn minimal_deadlock_sets(snap: &CwgSnapshot, max_blocked: usize) -> Option<Vec<Vec<u64>>> {
    let msgs = snap.messages.as_slice();
    let (_, owner) = build_matrix(snap.num_vertices, msgs);
    let blocked: Vec<usize> = (0..msgs.len())
        .filter(|&i| !msgs[i].requests.is_empty())
        .collect();
    let b = blocked.len();
    if b > max_blocked {
        return None;
    }
    // Blocked-index of each message index, or MAX for moving messages.
    let mut blocked_idx = vec![usize::MAX; msgs.len()];
    for (bi, &mi) in blocked.iter().enumerate() {
        blocked_idx[mi] = bi;
    }

    let closed = |mask: u64| -> bool {
        for (bi, &mi) in blocked.iter().enumerate() {
            if mask & (1 << bi) == 0 {
                continue;
            }
            for &r in &msgs[mi].requests {
                let Some(owner_mi) = owner[r as usize] else {
                    return false; // a free vertex is an escape
                };
                let obi = blocked_idx[owner_mi];
                if obi == usize::MAX || mask & (1 << obi) == 0 {
                    return false; // owned by a moving or excluded message
                }
            }
        }
        true
    };

    let closed_masks: Vec<u64> = (1..(1u64 << b)).filter(|&m| closed(m)).collect();
    let mut sets: Vec<Vec<u64>> = closed_masks
        .iter()
        .filter(|&&m| {
            // Minimal: no proper non-empty closed subset.
            !closed_masks.iter().any(|&m2| m2 != m && m2 & m == m2)
        })
        .map(|&m| {
            let mut set: Vec<u64> = blocked
                .iter()
                .enumerate()
                .filter(|&(bi, _)| m & (1 << bi) != 0)
                .map(|(_, &mi)| msgs[mi].id)
                .collect();
            set.sort_unstable();
            set
        })
        .collect();
    sets.sort();
    Some(sets)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(id: u64, chain: &[u32], requests: &[u32]) -> CwgMsg {
        CwgMsg {
            id,
            chain: chain.to_vec(),
            requests: requests.to_vec(),
        }
    }

    fn snap(num_vertices: usize, messages: &[CwgMsg]) -> CwgSnapshot {
        CwgSnapshot {
            num_vertices,
            messages: messages.to_vec(),
        }
    }

    /// Figure 1: three messages in a single-cycle knot, two moving.
    fn figure1() -> Vec<CwgMsg> {
        vec![
            msg(1, &[1, 2], &[3]),
            msg(2, &[3, 4, 5], &[6]),
            msg(3, &[6, 7, 0], &[1]),
            msg(4, &[8], &[]),
            msg(5, &[9], &[]),
        ]
    }

    #[test]
    fn figure1_knot() {
        let a = oracle_analyze(&snap(10, &figure1()));
        assert!(a.has_deadlock());
        assert_eq!(a.knots.len(), 1);
        assert_eq!(a.knots[0].knot, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(a.knots[0].deadlock_set, vec![1, 2, 3]);
        assert_eq!(a.knots[0].resource_set, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert!(a.dependent.is_empty());
        assert_eq!(a.num_blocked, 3);
        assert_eq!(
            minimal_deadlock_sets(&snap(10, &figure1()), 16),
            Some(vec![vec![1, 2, 3]])
        );
    }

    #[test]
    fn escape_resource_prevents_deadlock() {
        let msgs = vec![
            msg(1, &[1, 2], &[3]),
            msg(2, &[3, 4, 5], &[6]),
            msg(3, &[6, 7, 0], &[1, 9]), // 9 is free: an escape
        ];
        let a = oracle_analyze(&snap(10, &msgs));
        assert!(!a.has_deadlock());
        assert_eq!(minimal_deadlock_sets(&snap(10, &msgs), 16), Some(vec![]));
    }

    #[test]
    fn waiting_on_moving_message_is_not_deadlock() {
        let msgs = vec![msg(1, &[0, 1], &[]), msg(2, &[2, 3], &[0])];
        let a = oracle_analyze(&snap(4, &msgs));
        assert!(!a.has_deadlock());
        assert_eq!(a.num_blocked, 1);
        assert_eq!(minimal_deadlock_sets(&snap(4, &msgs), 16), Some(vec![]));
    }

    #[test]
    fn committed_dependent() {
        let mut msgs = figure1();
        msgs.truncate(3);
        msgs.push(msg(6, &[10, 11], &[4]));
        let a = oracle_analyze(&snap(12, &msgs));
        assert_eq!(a.knots.len(), 1);
        assert_eq!(a.knots[0].deadlock_set, vec![1, 2, 3]);
        assert_eq!(a.dependent, vec![(6, OracleDependent::Committed)]);
        // The dependent is not in any minimal closed set.
        assert_eq!(
            minimal_deadlock_sets(&snap(12, &msgs), 16),
            Some(vec![vec![1, 2, 3]])
        );
    }

    #[test]
    fn transient_dependent() {
        let mut msgs = figure1();
        msgs.truncate(3);
        msgs.push(msg(6, &[10, 11], &[4, 13]));
        let a = oracle_analyze(&snap(14, &msgs));
        assert_eq!(a.dependent, vec![(6, OracleDependent::Transient)]);
    }

    /// A cycle that waits into a knot survives the escape reduction but is
    /// not deadlocked — the case where stage 1 alone would be wrong.
    #[test]
    fn cycle_waiting_into_knot_is_dependent_not_deadlocked() {
        let msgs = vec![
            msg(1, &[0, 1], &[2]),
            msg(2, &[2, 3], &[0]),
            // m3 <-> m4 form a cycle; m3 also requests into the knot.
            msg(3, &[4, 5], &[6, 2]),
            msg(4, &[6, 7], &[4]),
        ];
        let a = oracle_analyze(&snap(8, &msgs));
        assert_eq!(a.knots.len(), 1);
        assert_eq!(a.knots[0].knot, vec![0, 1, 2, 3]);
        assert_eq!(a.knots[0].deadlock_set, vec![1, 2]);
        assert_eq!(
            a.dependent,
            vec![
                (3, OracleDependent::Committed),
                (4, OracleDependent::Committed)
            ]
        );
        assert_eq!(
            minimal_deadlock_sets(&snap(8, &msgs), 16),
            Some(vec![vec![1, 2]])
        );
    }

    #[test]
    fn multi_cycle_knot() {
        // Figure 3 shape: four messages, each waiting for both VCs of the
        // next channel around a square.
        let mut msgs = Vec::new();
        for i in 0..4u64 {
            let a = (2 * i) as u32;
            let na = (2 * ((i + 1) % 4)) as u32;
            msgs.push(msg(i + 1, &[a, a + 1], &[na, na + 1]));
        }
        let a = oracle_analyze(&snap(8, &msgs));
        assert_eq!(a.knots.len(), 1);
        assert_eq!(a.knots[0].deadlock_set, vec![1, 2, 3, 4]);
        assert_eq!(a.knots[0].resource_set.len(), 8);
        assert_eq!(
            minimal_deadlock_sets(&snap(8, &msgs), 16),
            Some(vec![vec![1, 2, 3, 4]])
        );
    }

    #[test]
    fn two_independent_knots() {
        let msgs = vec![
            msg(1, &[0, 1], &[2]),
            msg(2, &[2, 3], &[0]),
            msg(3, &[4, 5], &[6]),
            msg(4, &[6, 7], &[4]),
        ];
        let a = oracle_analyze(&snap(8, &msgs));
        assert_eq!(a.knots.len(), 2);
        assert_eq!(a.deadlock_sets(), vec![vec![1, 2], vec![3, 4]]);
        assert_eq!(
            minimal_deadlock_sets(&snap(8, &msgs), 16),
            Some(vec![vec![1, 2], vec![3, 4]])
        );
    }

    #[test]
    fn empty_snapshot_is_clean() {
        let a = oracle_analyze(&snap(16, &[]));
        assert!(!a.has_deadlock());
        assert_eq!(a.num_blocked, 0);
        assert!(a.dependent.is_empty());
    }

    #[test]
    fn minimal_two_message_deadlock() {
        let msgs = vec![msg(1, &[0, 1], &[2]), msg(2, &[2, 3], &[0])];
        let a = oracle_analyze(&snap(4, &msgs));
        assert_eq!(a.knots.len(), 1);
        assert_eq!(a.knots[0].deadlock_set, vec![1, 2]);
    }

    #[test]
    fn brute_force_respects_the_cap() {
        let mut msgs = Vec::new();
        for i in 0..17u64 {
            let v = (2 * i) as u32;
            let nv = (2 * ((i + 1) % 17)) as u32;
            msgs.push(msg(i + 1, &[v, v + 1], &[nv]));
        }
        assert_eq!(minimal_deadlock_sets(&snap(34, &msgs), 16), None);
        let sets = minimal_deadlock_sets(&snap(34, &msgs), 17).unwrap();
        assert_eq!(sets.len(), 1);
        assert_eq!(sets[0].len(), 17);
    }
}
