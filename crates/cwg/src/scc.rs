//! Iterative Tarjan strongly-connected components.

use crate::adjacency::Adjacency;
use crate::VertexId;

const UNVISITED: u32 = u32::MAX;

/// Result of an SCC decomposition.
#[derive(Clone, Debug)]
pub struct SccResult {
    /// Component index of each vertex. Components are numbered in **reverse
    /// topological order** (Tarjan emits a component only after everything
    /// it can reach), i.e. if component `a` has an edge into component `b`
    /// then `a > b`.
    pub comp_of: Vec<u32>,
    /// Vertices of each component.
    pub components: Vec<Vec<VertexId>>,
}

impl SccResult {
    /// Number of components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// True when the graph was empty.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }
}

/// Reusable state for repeated SCC runs.
///
/// The detection loop decomposes a similarly-sized CWG every epoch, so all
/// of Tarjan's working arrays — plus the output, stored as a component CSR
/// (`comp_offsets`/`comp_vertices`) instead of a `Vec` per component — live
/// here and are refilled in place: the steady state allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct SccScratch {
    index: Vec<u32>,
    lowlink: Vec<u32>,
    on_stack: Vec<bool>,
    stack: Vec<u32>,
    /// Explicit DFS frames: (vertex, next child edge to explore).
    frames: Vec<(u32, usize)>,
    comp_of: Vec<u32>,
    comp_offsets: Vec<u32>,
    comp_vertices: Vec<VertexId>,
}

impl SccScratch {
    /// Empty scratch; capacities grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decomposes `adj` (vertices `0..n`), replacing any previous result.
    ///
    /// Implemented iteratively: deep chains of waiting messages would
    /// overflow the call stack of the textbook recursive formulation on
    /// large networks.
    pub fn run<A: Adjacency + ?Sized>(&mut self, adj: &A) {
        self.run_from(adj, 0);
    }

    /// Decomposes the subgraph of `adj` induced on vertices `lo..n`, as if
    /// every vertex below `lo` (and every arc touching one) were absent:
    /// components cover `lo..n` only. Johnson's cycle enumeration restarts
    /// on such a suffix for each start vertex, without copying the graph.
    pub(crate) fn run_from<A: Adjacency + ?Sized>(&mut self, adj: &A, lo: VertexId) {
        let n = adj.num_vertices();
        self.index.clear();
        self.index.resize(n, UNVISITED);
        self.lowlink.clear();
        self.lowlink.resize(n, 0);
        self.on_stack.clear();
        self.on_stack.resize(n, false);
        self.stack.clear();
        self.frames.clear();
        self.comp_of.clear();
        self.comp_of.resize(n, 0);
        self.comp_offsets.clear();
        self.comp_offsets.push(0);
        self.comp_vertices.clear();
        let mut next_index = 0u32;

        for start in lo..n as u32 {
            if self.index[start as usize] != UNVISITED {
                continue;
            }
            self.frames.push((start, 0));
            self.index[start as usize] = next_index;
            self.lowlink[start as usize] = next_index;
            next_index += 1;
            self.stack.push(start);
            self.on_stack[start as usize] = true;

            while let Some(&mut (v, ref mut ei)) = self.frames.last_mut() {
                let outs = adj.neighbors(v);
                if *ei < outs.len() {
                    let w = outs[*ei];
                    *ei += 1;
                    if w < lo {
                        continue;
                    }
                    if self.index[w as usize] == UNVISITED {
                        self.index[w as usize] = next_index;
                        self.lowlink[w as usize] = next_index;
                        next_index += 1;
                        self.stack.push(w);
                        self.on_stack[w as usize] = true;
                        self.frames.push((w, 0));
                    } else if self.on_stack[w as usize] {
                        self.lowlink[v as usize] =
                            self.lowlink[v as usize].min(self.index[w as usize]);
                    }
                } else {
                    self.frames.pop();
                    if let Some(&mut (parent, _)) = self.frames.last_mut() {
                        self.lowlink[parent as usize] =
                            self.lowlink[parent as usize].min(self.lowlink[v as usize]);
                    }
                    if self.lowlink[v as usize] == self.index[v as usize] {
                        let comp_id = (self.comp_offsets.len() - 1) as u32;
                        loop {
                            let w = self.stack.pop().expect("tarjan stack underflow");
                            self.on_stack[w as usize] = false;
                            self.comp_of[w as usize] = comp_id;
                            self.comp_vertices.push(w);
                            if w == v {
                                break;
                            }
                        }
                        self.comp_offsets.push(self.comp_vertices.len() as u32);
                    }
                }
            }
        }
    }

    /// Number of components of the last run.
    pub fn num_components(&self) -> usize {
        self.comp_offsets.len().saturating_sub(1)
    }

    /// Component index of `v` (reverse topological numbering).
    #[inline]
    pub fn comp_of(&self, v: VertexId) -> u32 {
        self.comp_of[v as usize]
    }

    /// Vertices of component `c`, in Tarjan pop order.
    #[inline]
    pub fn component(&self, c: u32) -> &[VertexId] {
        let s = self.comp_offsets[c as usize] as usize;
        let e = self.comp_offsets[c as usize + 1] as usize;
        &self.comp_vertices[s..e]
    }

    /// Iterates components in emission (reverse topological) order.
    pub fn components(&self) -> impl Iterator<Item = &[VertexId]> {
        (0..self.num_components() as u32).map(move |c| self.component(c))
    }
}

/// Computes strongly connected components of `adj` (vertices `0..adj.len()`).
///
/// Convenience wrapper over [`SccScratch`] that allocates fresh scratch and
/// copies the result out; repeated callers (the detection loop) hold a
/// scratch instead.
pub fn scc(adj: &[Vec<VertexId>]) -> SccResult {
    let mut scratch = SccScratch::new();
    scratch.run(adj);
    SccResult {
        comp_of: scratch.comp_of.clone(),
        components: scratch.components().map(<[VertexId]>::to_vec).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comp_sets(r: &SccResult) -> Vec<Vec<VertexId>> {
        let mut cs: Vec<Vec<VertexId>> = r
            .components
            .iter()
            .map(|c| {
                let mut c = c.clone();
                c.sort_unstable();
                c
            })
            .collect();
        cs.sort();
        cs
    }

    #[test]
    fn empty_graph() {
        let r = scc(&[]);
        assert!(r.is_empty());
    }

    #[test]
    fn singletons_without_edges() {
        let r = scc(&[vec![], vec![], vec![]]);
        assert_eq!(r.len(), 3);
        assert!(r.components.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn simple_cycle_is_one_component() {
        let adj = vec![vec![1], vec![2], vec![0]];
        let r = scc(&adj);
        assert_eq!(r.len(), 1);
        assert_eq!(comp_sets(&r), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn chain_is_all_singletons() {
        let adj = vec![vec![1], vec![2], vec![]];
        let r = scc(&adj);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn two_cycles_bridged() {
        // 0<->1 -> 2<->3
        let adj = vec![vec![1], vec![0, 2], vec![3], vec![2]];
        let r = scc(&adj);
        assert_eq!(comp_sets(&r), vec![vec![0, 1], vec![2, 3]]);
        // reverse topological numbering: {2,3} emitted before {0,1}
        let c01 = r.comp_of[0];
        let c23 = r.comp_of[2];
        assert!(c01 > c23);
    }

    #[test]
    fn figure_one_knot_shape() {
        // The single 8-cycle of Figure 1b.
        let adj: Vec<Vec<u32>> = (0..8u32).map(|v| vec![(v + 1) % 8]).collect();
        let r = scc(&adj);
        assert_eq!(r.len(), 1);
        assert_eq!(r.components[0].len(), 8);
    }

    #[test]
    fn deep_chain_does_not_overflow() {
        // 100k-vertex path: would blow the stack if recursion were used.
        let n = 100_000;
        let adj: Vec<Vec<u32>> = (0..n as u32)
            .map(|v| {
                if v + 1 < n as u32 {
                    vec![v + 1]
                } else {
                    vec![]
                }
            })
            .collect();
        let r = scc(&adj);
        assert_eq!(r.len(), n);
    }

    #[test]
    fn self_loop_is_its_own_component() {
        let adj = vec![vec![0], vec![]];
        let r = scc(&adj);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        let graphs: Vec<Vec<Vec<u32>>> = vec![
            vec![vec![1], vec![2], vec![0]],
            vec![vec![1], vec![0, 2], vec![3], vec![2]],
            vec![],
            vec![vec![0]],
        ];
        let mut scratch = SccScratch::new();
        for adj in &graphs {
            scratch.run(adj);
            let fresh = scc(adj);
            assert_eq!(scratch.num_components(), fresh.len());
            for (c, comp) in fresh.components.iter().enumerate() {
                assert_eq!(scratch.component(c as u32), comp.as_slice());
            }
            for v in 0..adj.len() as u32 {
                assert_eq!(scratch.comp_of(v), fresh.comp_of[v as usize]);
            }
        }
    }
}
