//! The knot analysis of the paper's §2.2 computed the plain way, frozen
//! here as the one reference the production detector must match field by
//! field, knots in emission order included.
//!
//! It reads the CWG off the records alone (chains and requests, never the
//! graph's own adjacency), decomposes the whole VC space with the frozen
//! frame-only Tarjan in `tarjan.rs` (roots in vertex order, arcs in stored
//! order), and takes every non-trivial terminal component as a knot, in
//! emission order. A knot's deadlock set is the sorted owners of its
//! vertices, its resource set their chains, its density Johnson's count
//! on the knot's induced subgraph, uncontracted; the census marks every
//! vertex that reaches a knot by a reverse DFS from the knots. It shares
//! no code with `icn-cwg` beyond the `WaitGraph` it reads and the types it
//! returns.

mod tarjan;

use std::collections::{HashMap, HashSet};

use icn_cwg::{Analysis, CycleCount, Deadlock, DependentKind, MessageId, VertexId, WaitGraph};
use tarjan::frozen_tarjan;

/// The CWG read off the records alone (chains and requests), never
/// through the graph's own adjacency: a chain's solid arcs in chain
/// order, then each blocked head's dashed arcs in request order.
pub fn adjacency(g: &WaitGraph) -> Vec<Vec<VertexId>> {
    let mut adj = vec![Vec::new(); g.num_vertices()];
    for (_, chain, reqs) in g.records() {
        for w in chain.windows(2) {
            adj[w[0] as usize].push(w[1]);
        }
        adj[*chain.last().expect("chains are non-empty") as usize].extend_from_slice(reqs);
    }
    adj
}

/// Elementary cycles of `adj`, capped: Johnson inside each cyclic
/// component, sharing one budget of `cap`.
pub fn count_cycles(adj: &[Vec<VertexId>], cap: u64) -> CycleCount {
    let (_, components) = frozen_tarjan(adj, 0);
    let mut total = CycleCount::Exact(0);
    for comp in &components {
        let has_self_loop = comp.len() == 1 && adj[comp[0] as usize].contains(&comp[0]);
        if comp.len() < 2 && !has_self_loop {
            continue;
        }
        let remaining = cap.saturating_sub(total.value());
        if remaining == 0 {
            return CycleCount::AtLeast(total.value());
        }
        total = total.combine(count_in_component(adj, comp, remaining));
    }
    total
}

/// Johnson's algorithm on the component `comp` of `adj`, one start vertex
/// at a time, with a fresh decomposition of the suffix per start.
fn count_in_component(adj: &[Vec<VertexId>], comp: &[VertexId], cap: u64) -> CycleCount {
    let m = comp.len();
    let index_of: HashMap<VertexId, u32> = comp
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, i as u32))
        .collect();
    let local: Vec<Vec<u32>> = comp
        .iter()
        .map(|&v| {
            adj[v as usize]
                .iter()
                .filter_map(|t| index_of.get(t).copied())
                .collect()
        })
        .collect();

    let mut count = 0u64;
    let mut capped = false;
    'starts: for s in 0..m as u32 {
        let (comp_of, components) = frozen_tarjan(&local, s);
        let s_comp = comp_of[s as usize];
        let in_k: Vec<bool> = (0..m as u32)
            .map(|v| v >= s && comp_of[v as usize] == s_comp)
            .collect();
        if components[s_comp as usize].len() < 2 && !local[s as usize].contains(&s) {
            continue;
        }

        let mut blocked = vec![false; m];
        let mut b_sets: Vec<Vec<u32>> = vec![Vec::new(); m];
        let mut frames: Vec<(u32, usize, bool)> = vec![(s, 0, false)];
        blocked[s as usize] = true;
        while let Some(&mut (v, ref mut ei, ref mut found)) = frames.last_mut() {
            let nexts = &local[v as usize];
            let mut descended = false;
            while *ei < nexts.len() {
                let w = nexts[*ei];
                *ei += 1;
                if !in_k[w as usize] {
                    continue;
                }
                if w == s {
                    count += 1;
                    *found = true;
                    if count >= cap {
                        capped = true;
                        break 'starts;
                    }
                } else if !blocked[w as usize] {
                    blocked[w as usize] = true;
                    frames.push((w, 0, false));
                    descended = true;
                    break;
                }
            }
            if descended {
                continue;
            }
            let (v, _, found) = frames.pop().unwrap();
            if found {
                let mut stack = vec![v];
                while let Some(v) = stack.pop() {
                    if blocked[v as usize] {
                        blocked[v as usize] = false;
                        stack.append(&mut b_sets[v as usize]);
                    }
                }
            } else {
                for &w in &local[v as usize] {
                    if in_k[w as usize] && !b_sets[w as usize].contains(&v) {
                        b_sets[w as usize].push(v);
                    }
                }
            }
            if let Some(&mut (_, _, ref mut parent_found)) = frames.last_mut() {
                *parent_found |= found;
            }
        }
    }
    if capped {
        CycleCount::AtLeast(count)
    } else {
        CycleCount::Exact(count)
    }
}

/// Knot components of `adj` (terminal and non-trivial), in Tarjan
/// emission order.
fn knots(adj: &[Vec<VertexId>]) -> Vec<Vec<VertexId>> {
    let (comp_of, components) = frozen_tarjan(adj, 0);
    let mut terminal = vec![true; components.len()];
    for (v, outs) in adj.iter().enumerate() {
        for &w in outs {
            if comp_of[w as usize] != comp_of[v] {
                terminal[comp_of[v] as usize] = false;
            }
        }
    }
    components
        .into_iter()
        .enumerate()
        .filter(|(ci, comp)| {
            terminal[*ci] && (comp.len() >= 2 || adj[comp[0] as usize].contains(&comp[0]))
        })
        .map(|(_, comp)| comp)
        .collect()
}

fn owners(g: &WaitGraph, knot: &[VertexId]) -> Vec<MessageId> {
    let mut dset: Vec<MessageId> = knot.iter().filter_map(|&v| g.owner(v)).collect();
    dset.sort_unstable();
    dset.dedup();
    dset
}

/// The deadlock set of every knot, in emission order.
pub fn knot_deadlock_sets(g: &WaitGraph) -> Vec<Vec<MessageId>> {
    knots(&adjacency(g)).iter().map(|k| owners(g, k)).collect()
}

/// The full analysis, knots in emission order.
pub fn analyze(g: &WaitGraph, density_cap: u64) -> Analysis {
    let adj = adjacency(g);
    let n = adj.len();
    let mut deadlocks = Vec::new();
    let mut deadlocked_msgs: HashSet<MessageId> = HashSet::new();
    let mut knot_vertices: Vec<VertexId> = Vec::new();
    for mut knot in knots(&adj) {
        knot.sort_unstable();
        knot_vertices.extend_from_slice(&knot);
        let dset = owners(g, &knot);
        deadlocked_msgs.extend(dset.iter().copied());
        let mut rset: Vec<VertexId> = dset
            .iter()
            .flat_map(|m| {
                g.records()
                    .find(|&(id, _, _)| id == *m)
                    .map_or(&[][..], |(_, chain, _)| chain)
                    .iter()
                    .copied()
            })
            .collect();
        rset.sort_unstable();
        rset.dedup();

        let knot_set: HashSet<VertexId> = knot.iter().copied().collect();
        let sub: Vec<Vec<VertexId>> = (0..n as u32)
            .map(|v| {
                if knot_set.contains(&v) {
                    adj[v as usize]
                        .iter()
                        .copied()
                        .filter(|t| knot_set.contains(t))
                        .collect()
                } else {
                    Vec::new()
                }
            })
            .collect();
        deadlocks.push(Deadlock {
            knot,
            deadlock_set: dset,
            resource_set: rset,
            cycle_density: count_cycles(&sub, density_cap),
        });
    }

    let mut dependent = Vec::new();
    if !deadlocks.is_empty() {
        let mut radj: Vec<Vec<VertexId>> = vec![Vec::new(); n];
        for (v, outs) in adj.iter().enumerate() {
            for &w in outs {
                radj[w as usize].push(v as u32);
            }
        }
        let mut reaches_knot = vec![false; n];
        for &v in &knot_vertices {
            reaches_knot[v as usize] = true;
        }
        let mut stack = knot_vertices;
        while let Some(v) = stack.pop() {
            for &p in &radj[v as usize] {
                if !reaches_knot[p as usize] {
                    reaches_knot[p as usize] = true;
                    stack.push(p);
                }
            }
        }
        for (msg, _, reqs) in g.records().filter(|(_, _, reqs)| !reqs.is_empty()) {
            if deadlocked_msgs.contains(&msg) {
                continue;
            }
            let hits = reqs.iter().filter(|&&t| reaches_knot[t as usize]).count();
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
