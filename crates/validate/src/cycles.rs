//! The independent cycle-count oracle.
//!
//! Knot cycle density (§2.2) and the cyclic non-deadlock census (§2.2.3)
//! both rest on the production detector's capped Johnson enumeration.
//! This module counts the same elementary cycles the slow, obvious way —
//! walk every simple path out of each start vertex through larger-numbered
//! vertices and count the arcs that close back on the start — over a
//! successor table built straight from the snapshot's messages, sharing
//! no algorithm with `icn-cwg`. [`check_cycle_counts`] then holds the
//! production counts, uncapped and at every small cap, to it.

use crate::diff::{push_if_ne, Divergence};
use icn_cwg::{CwgSnapshot, CycleCount};

/// Arc traversals [`check_cycle_counts`] spends on one enumeration before
/// giving the snapshot up as too cyclic to referee naively.
pub const CYCLE_STEP_BUDGET: u64 = 4_000_000;

/// The largest cap the cap law is swept up to contiguously.
const CAP_SWEEP: u64 = 24;

/// Successor lists of the CWG `snap` describes: solid arcs along each
/// chain, dashed arcs from each blocked head to its requests.
fn successor_lists(snap: &CwgSnapshot) -> Vec<Vec<u32>> {
    let mut succ = vec![Vec::new(); snap.num_vertices];
    for m in &snap.messages {
        for pair in m.chain.windows(2) {
            succ[pair[0] as usize].push(pair[1]);
        }
        let head = *m.chain.last().expect("chains are non-empty");
        succ[head as usize].extend_from_slice(&m.requests);
    }
    succ
}

/// Counts the elementary cycles of `succ` that stay inside the vertices
/// marked in `within`, each once (at its least vertex). Returns `None`
/// when the walk needs more than `budget` arc traversals.
pub fn naive_cycle_count(succ: &[Vec<u32>], within: &[bool], budget: u64) -> Option<u64> {
    fn walk(
        succ: &[Vec<u32>],
        within: &[bool],
        start: u32,
        v: u32,
        on_path: &mut [bool],
        steps: &mut u64,
        cycles: &mut u64,
    ) -> Option<()> {
        for &w in &succ[v as usize] {
            *steps = steps.checked_sub(1)?;
            if w == start {
                *cycles += 1;
            } else if w > start && within[w as usize] && !on_path[w as usize] {
                on_path[w as usize] = true;
                walk(succ, within, start, w, on_path, steps, cycles)?;
                on_path[w as usize] = false;
            }
        }
        Some(())
    }

    let mut steps = budget;
    let mut cycles = 0u64;
    let mut on_path = vec![false; succ.len()];
    for start in (0..succ.len() as u32).filter(|&s| within[s as usize]) {
        on_path.fill(false);
        walk(
            succ,
            within,
            start,
            start,
            &mut on_path,
            &mut steps,
            &mut cycles,
        )?;
    }
    Some(cycles)
}

/// What a capped count must report given the true count: the cap itself,
/// flagged, as soon as the cap is reachable; the exact count otherwise.
fn capped(true_count: u64, cap: u64) -> CycleCount {
    if cap <= true_count {
        CycleCount::AtLeast(cap)
    } else {
        CycleCount::Exact(true_count)
    }
}

/// Caps worth checking against a true count: every cap up to a small bound
/// (where off-by-one mistakes live), plus the two around the count itself.
fn caps_around(true_count: u64) -> Vec<u64> {
    let mut caps: Vec<u64> = (1..=CAP_SWEEP.min(true_count + 1)).collect();
    caps.extend([true_count.max(1), true_count + 1]);
    caps.sort_unstable();
    caps.dedup();
    caps
}

/// Differentially checks the production cycle counts of one snapshot —
/// `WaitGraph::count_cycles` over the whole graph and every knot's
/// `cycle_density` — against [`naive_cycle_count`], uncapped and under the
/// cap law (`AtLeast(cap)` when `cap <= true_count`, else
/// `Exact(true_count)`). Returns `None` when the snapshot is too cyclic for
/// the naive walk's [`CYCLE_STEP_BUDGET`], otherwise every disagreement.
pub fn check_cycle_counts(snap: &CwgSnapshot) -> Option<Vec<Divergence>> {
    let num_vertices = snap.num_vertices;
    let succ = successor_lists(snap);
    let g = snap.build_graph();
    let mut out = Vec::new();

    let everywhere = vec![true; num_vertices];
    let total = naive_cycle_count(&succ, &everywhere, CYCLE_STEP_BUDGET)?;
    push_if_ne(
        &mut out,
        "count_cycles (uncapped)",
        &g.count_cycles(u64::MAX),
        &CycleCount::Exact(total),
    );
    for cap in caps_around(total) {
        push_if_ne(
            &mut out,
            &format!("count_cycles (cap {cap})"),
            &g.count_cycles(cap),
            &capped(total, cap),
        );
    }

    let uncapped = g.analyze(u64::MAX);
    let mut densities = Vec::new();
    for d in &uncapped.deadlocks {
        let mut within = vec![false; num_vertices];
        for &v in &d.knot {
            within[v as usize] = true;
        }
        let density = naive_cycle_count(&succ, &within, CYCLE_STEP_BUDGET)?;
        push_if_ne(
            &mut out,
            &format!("cycle_density of knot {:?} (uncapped)", d.knot),
            &d.cycle_density,
            &CycleCount::Exact(density),
        );
        densities.push(density);
    }
    let Some(&largest) = densities.iter().max() else {
        return Some(out);
    };
    for cap in caps_around(largest) {
        let production: Vec<CycleCount> = g
            .analyze(cap)
            .deadlocks
            .iter()
            .map(|d| d.cycle_density)
            .collect();
        let expected: Vec<CycleCount> = densities.iter().map(|&c| capped(c, cap)).collect();
        push_if_ne(
            &mut out,
            &format!("cycle densities (cap {cap})"),
            &production,
            &expected,
        );
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_cwg::CwgMsg;

    fn msg(id: u64, chain: &[u32], requests: &[u32]) -> CwgMsg {
        CwgMsg {
            id,
            chain: chain.to_vec(),
            requests: requests.to_vec(),
        }
    }

    fn check(num_vertices: usize, messages: Vec<CwgMsg>) -> Option<Vec<Divergence>> {
        check_cycle_counts(&CwgSnapshot {
            num_vertices,
            messages,
        })
    }

    #[test]
    fn counts_small_shapes_by_hand() {
        let all = |n: usize| vec![true; n];
        // A 3-ring, a chain, a self-loop next to a 2-cycle.
        let ring = vec![vec![1], vec![2], vec![0]];
        assert_eq!(naive_cycle_count(&ring, &all(3), 1000), Some(1));
        let chain = vec![vec![1], vec![2], vec![]];
        assert_eq!(naive_cycle_count(&chain, &all(3), 1000), Some(0));
        let mixed = vec![vec![0, 1], vec![0]];
        assert_eq!(naive_cycle_count(&mixed, &all(2), 1000), Some(2));
        // K4: 6 two-cycles + 8 three-cycles + 6 four-cycles.
        let k4: Vec<Vec<u32>> = (0..4u32)
            .map(|v| (0..4u32).filter(|&w| w != v).collect())
            .collect();
        assert_eq!(naive_cycle_count(&k4, &all(4), 10_000), Some(20));
        // Restricted to three of its vertices it is K3: 3 + 2.
        assert_eq!(
            naive_cycle_count(&k4, &[true, true, true, false], 10_000),
            Some(5)
        );
        assert_eq!(naive_cycle_count(&k4, &all(4), 10), None, "over budget");
    }

    #[test]
    fn figure_shapes_agree_with_production() {
        // Figure 1's single-cycle knot plus a moving bystander.
        let fig1 = vec![
            msg(1, &[1, 2], &[3]),
            msg(2, &[3, 4, 5], &[6]),
            msg(3, &[6, 7, 0], &[1]),
            msg(4, &[8], &[]),
        ];
        assert_eq!(check(10, fig1), Some(vec![]));
        // Figure 3's multi-cycle knot: four messages, two VCs per channel.
        let fig3: Vec<CwgMsg> = (0..4u32)
            .map(|i| {
                let next = 2 * ((i + 1) % 4);
                msg(i as u64 + 1, &[2 * i, 2 * i + 1], &[next, next + 1])
            })
            .collect();
        assert_eq!(check(8, fig3), Some(vec![]));
        // A message waiting on its own head: a one-vertex knot.
        assert_eq!(check(2, vec![msg(1, &[0], &[0])]), Some(vec![]));
    }

    #[test]
    fn cap_law_expectations() {
        assert_eq!(capped(3, 1), CycleCount::AtLeast(1));
        assert_eq!(capped(3, 3), CycleCount::AtLeast(3));
        assert_eq!(capped(3, 4), CycleCount::Exact(3));
        assert_eq!(capped(0, 1), CycleCount::Exact(0));
        assert_eq!(caps_around(2), vec![1, 2, 3]);
        assert_eq!(caps_around(0), vec![1]);
        assert_eq!(caps_around(100).len(), CAP_SWEEP as usize + 2);
    }
}
