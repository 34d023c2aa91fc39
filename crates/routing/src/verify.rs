//! Static channel-dependency analysis (Dally & Seitz style).
//!
//! The paper's related-work section distinguishes two uses of dependency
//! graphs: *static* graphs describing every connection a routing relation
//! could ever make (avoidance theory), and the *dynamic* channel wait-for
//! graphs its detector analyzes (`icn-cwg`). This module implements the
//! static side: it enumerates every reachable routing state for every
//! (source, destination) pair, records which virtual channel can be held
//! while which is requested next, and checks the resulting dependency
//! graph for cycles.
//!
//! * An **acyclic** graph proves the relation deadlock-free (sufficient
//!   condition) — the dateline and turn-model baselines pass.
//! * DOR and TFAR on tori are **cyclic**, which is precisely why the paper
//!   can study their true deadlocks.
//! * Duato-style relations are cyclic *by design*; their guarantee rests
//!   on an acyclic escape sub-network, checked via [`subgraph`].

use crate::{RoutingAlgorithm, RoutingCtx};
use icn_topology::{KAryNCube, NodeId};
use std::collections::{HashMap, HashSet, VecDeque};

/// Routing state relevant to candidate computation (everything in
/// [`RoutingCtx`] that the relations actually read, minus the position).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct CtxBits {
    last_dim: Option<u8>,
    crossed: u8,
    misroutes: u8,
}

/// Builds the static channel-dependency graph of `algo` on `topo` with
/// `vcs` virtual channels per physical channel. Vertex `c * vcs + v` is
/// VC `v` of channel `c`; an edge `u -> w` means some packet can hold `u`
/// while requesting `w` on its next hop.
pub fn channel_dependency_graph(
    algo: &dyn RoutingAlgorithm,
    topo: &KAryNCube,
    vcs: usize,
) -> Vec<Vec<u32>> {
    let mut adj: Vec<HashSet<u32>> = vec![HashSet::new(); topo.num_channels() * vcs];
    let mut cands = Vec::new();

    for dst in 0..topo.num_nodes() as u32 {
        let dst = NodeId(dst);
        // Reachable states for this destination, with the set of VCs a
        // packet can arrive on ("in VCs"). Edges are emitted lazily as new
        // in-VCs reach a state.
        let mut state_cands: HashMap<(NodeId, CtxBits), Vec<u32>> = HashMap::new();
        let mut state_in: HashMap<(NodeId, CtxBits), HashSet<u32>> = HashMap::new();
        let mut queue: VecDeque<(NodeId, CtxBits, Option<u32>)> = VecDeque::new();

        for src in 0..topo.num_nodes() as u32 {
            let src = NodeId(src);
            if src != dst {
                queue.push_back((
                    src,
                    CtxBits {
                        last_dim: None,
                        crossed: 0,
                        misroutes: 0,
                    },
                    None,
                ));
            }
        }

        while let Some((node, bits, in_vc)) = queue.pop_front() {
            if node == dst {
                continue;
            }
            let key = (node, bits);
            // Expand candidates once per state.
            if let std::collections::hash_map::Entry::Vacant(entry) = state_cands.entry(key) {
                let ctx = RoutingCtx {
                    src: node, // relations here never read src
                    dst,
                    current: node,
                    last_dim: bits.last_dim,
                    crossed_dateline: bits.crossed,
                    misroutes: bits.misroutes,
                };
                cands.clear();
                algo.candidates(topo, vcs, &ctx, &mut cands);
                let mut outs = Vec::new();
                for cand in &cands {
                    let base = cand.channel.idx() * vcs;
                    for v in cand.vcs.iter() {
                        outs.push((base + v) as u32);
                    }
                }
                // Enqueue successor states.
                for cand in &cands {
                    let info = *topo.channel(cand.channel);
                    let mut nbits = bits;
                    nbits.last_dim = Some(info.dim);
                    if topo.is_wraparound(cand.channel) {
                        nbits.crossed |= 1 << info.dim;
                    }
                    if topo.distance(info.dst, dst) >= topo.distance(info.src, dst) {
                        nbits.misroutes = nbits.misroutes.saturating_add(1);
                    }
                    let base = cand.channel.idx() * vcs;
                    for v in cand.vcs.iter() {
                        queue.push_back((info.dst, nbits, Some((base + v) as u32)));
                    }
                }
                entry.insert(outs);
                state_in.insert(key, HashSet::new());
            }
            // Record the incoming VC and emit its dependency edges.
            if let Some(u) = in_vc {
                if state_in.get_mut(&key).unwrap().insert(u) {
                    for &w in &state_cands[&key] {
                        adj[u as usize].insert(w);
                    }
                }
            }
        }
    }

    adj.into_iter()
        .map(|s| {
            let mut v: Vec<u32> = s.into_iter().collect();
            v.sort_unstable();
            v
        })
        .collect()
}

/// Whether the dependency graph contains a cycle (three-colour DFS,
/// iterative).
pub fn has_cycle(adj: &[Vec<u32>]) -> bool {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color = vec![Color::White; adj.len()];
    for start in 0..adj.len() as u32 {
        if color[start as usize] != Color::White {
            continue;
        }
        let mut stack: Vec<(u32, usize)> = vec![(start, 0)];
        color[start as usize] = Color::Gray;
        while let Some(&mut (v, ref mut ei)) = stack.last_mut() {
            if *ei < adj[v as usize].len() {
                let w = adj[v as usize][*ei];
                *ei += 1;
                match color[w as usize] {
                    Color::Gray => return true,
                    Color::White => {
                        color[w as usize] = Color::Gray;
                        stack.push((w, 0));
                    }
                    Color::Black => {}
                }
            } else {
                color[v as usize] = Color::Black;
                stack.pop();
            }
        }
    }
    false
}

/// Restricts a dependency graph to the vertices `keep` accepts (e.g. a
/// Duato escape layer), dropping all other vertices and their edges.
pub fn subgraph(adj: &[Vec<u32>], keep: impl Fn(u32) -> bool) -> Vec<Vec<u32>> {
    adj.iter()
        .enumerate()
        .map(|(v, outs)| {
            if keep(v as u32) {
                outs.iter().copied().filter(|&w| keep(w)).collect()
            } else {
                Vec::new()
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DatelineDor, Dor, DuatoFar, NegativeFirst, Tfar, WestFirst};

    /// The acyclic-dependency sufficient condition for deadlock freedom.
    fn acyclic(algo: &dyn RoutingAlgorithm, topo: &KAryNCube, vcs: usize) -> bool {
        !has_cycle(&channel_dependency_graph(algo, topo, vcs))
    }

    #[test]
    fn dor_on_torus_is_cyclic() {
        let t = KAryNCube::torus(4, 2, true);
        assert!(!acyclic(&Dor, &t, 1));
        let uni = KAryNCube::torus(4, 1, false);
        assert!(!acyclic(&Dor, &uni, 1));
    }

    #[test]
    fn dor_on_mesh_is_acyclic() {
        // The classic result: dimension-order routing is deadlock-free on
        // meshes (no wraparound to close the ring cycles).
        let m = KAryNCube::mesh(4, 2);
        assert!(acyclic(&Dor, &m, 1));
        assert!(acyclic(&Dor, &KAryNCube::mesh(3, 3), 2));
    }

    #[test]
    fn tfar_is_cyclic_everywhere_interesting() {
        assert!(!acyclic(&Tfar, &KAryNCube::torus(4, 2, true), 1));
        assert!(!acyclic(&Tfar, &KAryNCube::torus(4, 2, true), 4));
        // Even on a mesh, unrestricted adaptivity creates turn cycles.
        assert!(!acyclic(&Tfar, &KAryNCube::mesh(4, 2), 1));
    }

    #[test]
    fn dateline_dor_is_acyclic_on_tori() {
        assert!(acyclic(&DatelineDor, &KAryNCube::torus(4, 2, true), 2));
        assert!(acyclic(&DatelineDor, &KAryNCube::torus(5, 2, true), 2));
        assert!(acyclic(&DatelineDor, &KAryNCube::torus(4, 1, false), 2));
        assert!(acyclic(&DatelineDor, &KAryNCube::torus(3, 3, true), 2));
    }

    #[test]
    fn turn_models_are_acyclic_on_meshes() {
        assert!(acyclic(&WestFirst, &KAryNCube::mesh(5, 2), 1));
        assert!(acyclic(&NegativeFirst, &KAryNCube::mesh(5, 2), 1));
        assert!(acyclic(&NegativeFirst, &KAryNCube::mesh(3, 3), 1));
        assert!(acyclic(&NegativeFirst, &KAryNCube::hypercube(4), 1));
    }

    #[test]
    fn duato_full_graph_cyclic_but_escape_layer_acyclic() {
        let t = KAryNCube::torus(4, 2, true);
        let vcs = 3;
        let adj = channel_dependency_graph(&DuatoFar, &t, vcs);
        assert!(has_cycle(&adj), "adaptive layer cycles are the design");
        // Escape layer = VC classes 0 and 1 on every channel.
        let escape = subgraph(&adj, |v| (v as usize % vcs) < 2);
        assert!(!has_cycle(&escape), "the escape layer must be acyclic");
    }

    #[test]
    fn dependency_edges_connect_adjacent_channels() {
        let t = KAryNCube::torus(4, 2, true);
        let adj = channel_dependency_graph(&Dor, &t, 1);
        for (u, outs) in adj.iter().enumerate() {
            let cu = t.channel(icn_topology::ChannelId(u as u32));
            for &w in outs {
                let cw = t.channel(icn_topology::ChannelId(w));
                assert_eq!(cu.dst, cw.src, "dependencies follow the header");
            }
        }
    }

    #[test]
    fn has_cycle_basics() {
        assert!(!has_cycle(&[vec![1], vec![2], vec![]]));
        assert!(has_cycle(&[vec![1], vec![2], vec![0]]));
        assert!(has_cycle(&[vec![0]]));
        assert!(!has_cycle(&[]));
    }

    #[test]
    fn subgraph_drops_vertices() {
        let adj = vec![vec![1], vec![2], vec![0]];
        let sub = subgraph(&adj, |v| v != 1);
        assert_eq!(sub, vec![Vec::<u32>::new(), Vec::new(), vec![0]]);
        assert!(!has_cycle(&sub));
    }
}
