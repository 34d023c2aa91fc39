//! The VC-level knot analysis as it stood before knots were found on the
//! record graph, frozen here as the oracle for knot emission order.
//!
//! One Tarjan over the whole VC space (roots in vertex order, arcs in
//! stored order); each component's knot and reaches-a-knot marks are
//! settled in emission order; a knot's deadlock set is the sorted,
//! deduplicated owners of its vertices, its resource set their chains,
//! its density Johnson on the knot's induced subgraph; a record whose
//! head lies in a knot is deadlocked, and any other record's request
//! counts toward the census when its target's component reaches a knot.
//! Written against the public API only.

use icn_cwg::{
    count_cycles, Adjacency, Analysis, Deadlock, DependentKind, MessageId, SccScratch, VertexId,
    WaitGraph,
};

/// Per component of `scc` (a decomposition of `g`), in emission order:
/// whether it is a knot (terminal and cyclic), and whether it is one or
/// has an arc into a component that reaches one.
fn marks(g: &WaitGraph, scc: &SccScratch) -> (Vec<bool>, Vec<bool>) {
    let mut knot = Vec::new();
    let mut reaches_knot: Vec<bool> = Vec::new();
    for c in 0..scc.num_components() as u32 {
        let comp = scc.component(c);
        let mut terminal = true;
        let mut reaches = false;
        for &v in comp {
            for &w in g.neighbors(v) {
                let cw = scc.comp_of(w);
                if cw != c {
                    terminal = false;
                    reaches |= reaches_knot[cw as usize];
                }
            }
        }
        let cyclic = comp.len() >= 2 || g.neighbors(comp[0]).contains(&comp[0]);
        knot.push(terminal && cyclic);
        reaches_knot.push(terminal && cyclic || reaches);
    }
    (knot, reaches_knot)
}

fn owners(g: &WaitGraph, comp: &[VertexId]) -> Vec<MessageId> {
    let mut set: Vec<MessageId> = comp.iter().filter_map(|&v| g.owner(v)).collect();
    set.sort_unstable();
    set.dedup();
    set
}

/// The deadlock set of every knot, in emission order.
pub fn knot_deadlock_sets(g: &WaitGraph) -> Vec<Vec<MessageId>> {
    let mut scc = SccScratch::new();
    scc.run(g);
    let (knot, _) = marks(g, &scc);
    (0..knot.len() as u32)
        .filter(|&c| knot[c as usize])
        .map(|c| owners(g, scc.component(c)))
        .collect()
}

/// The full analysis, knots in emission order.
pub fn analyze(g: &WaitGraph, density_cap: u64) -> Analysis {
    let mut scc = SccScratch::new();
    scc.run(g);
    let (knot, reaches_knot) = marks(g, &scc);
    let mut deadlocks = Vec::new();
    for c in (0..knot.len() as u32).filter(|&c| knot[c as usize]) {
        let comp = scc.component(c);
        let deadlock_set = owners(g, comp);
        let mut resource_set: Vec<VertexId> = g
            .records()
            .filter(|(id, _, _)| deadlock_set.contains(id))
            .flat_map(|(_, chain, _)| chain.iter().copied())
            .collect();
        resource_set.sort_unstable();
        resource_set.dedup();
        let mut sub = vec![Vec::new(); g.num_vertices()];
        for &v in comp {
            sub[v as usize] = g.neighbors(v).to_vec();
        }
        let mut knot_vertices = comp.to_vec();
        knot_vertices.sort_unstable();
        deadlocks.push(Deadlock {
            knot: knot_vertices,
            deadlock_set,
            resource_set,
            cycle_density: count_cycles(&sub, density_cap),
        });
    }

    let mut dependent = Vec::new();
    if !deadlocks.is_empty() {
        let reaches = |v: VertexId| reaches_knot[scc.comp_of(v) as usize];
        for (msg, chain, reqs) in g.records() {
            let head = *chain.last().expect("chains are non-empty");
            if knot[scc.comp_of(head) as usize] {
                continue;
            }
            let hits = reqs.iter().filter(|&&t| reaches(t)).count();
            if hits == 0 {
                continue;
            }
            let kind = if hits == reqs.len() {
                DependentKind::Committed
            } else {
                DependentKind::Transient
            };
            dependent.push((msg, kind));
        }
        dependent.sort_unstable_by_key(|&(m, _)| m);
    }

    Analysis {
        deadlocks,
        dependent,
        num_blocked: g.num_blocked(),
    }
}
