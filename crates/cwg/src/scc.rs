//! Iterative Tarjan strongly-connected components.

use crate::adjacency::Adjacency;
use crate::VertexId;

const UNVISITED: u32 = u32::MAX;

/// Reusable state for repeated SCC runs.
///
/// The detection loop decomposes a similarly-sized CWG every epoch, so all
/// of Tarjan's working arrays — plus the output, stored as a component CSR
/// (`comp_offsets`/`comp_vertices`) instead of a `Vec` per component — live
/// here and are refilled in place: the steady state allocates nothing.
#[derive(Clone, Debug, Default)]
pub(crate) struct SccScratch {
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
            self.open(adj, start, &mut next_index);

            while let Some(&mut (v, ref mut ei)) = self.frames.last_mut() {
                let outs = adj.neighbors(v);
                if *ei < outs.len() {
                    let w = outs[*ei];
                    *ei += 1;
                    if w < lo {
                        continue;
                    }
                    if self.index[w as usize] == UNVISITED {
                        self.open(adj, w, &mut next_index);
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
                        loop {
                            let w = self.stack.pop().expect("tarjan stack underflow");
                            self.on_stack[w as usize] = false;
                            self.comp_vertices.push(w);
                            if w == v {
                                break;
                            }
                        }
                        self.close();
                    }
                }
            }
        }
    }

    /// Visits `v`. A vertex without out-arcs is emitted at once: its frame
    /// would find no child, move no lowlink and emit it next, so the index
    /// order, the component ids and the emission order are the same.
    #[inline]
    fn open<A: Adjacency + ?Sized>(&mut self, adj: &A, v: VertexId, next_index: &mut u32) {
        self.index[v as usize] = *next_index;
        *next_index += 1;
        if adj.neighbors(v).is_empty() {
            self.comp_vertices.push(v);
            self.close();
        } else {
            self.lowlink[v as usize] = self.index[v as usize];
            self.stack.push(v);
            self.on_stack[v as usize] = true;
            self.frames.push((v, 0));
        }
    }

    /// Ends the component just pushed onto `comp_vertices`.
    #[inline]
    fn close(&mut self) {
        let id = (self.comp_offsets.len() - 1) as u32;
        let s = *self.comp_offsets.last().expect("offsets start at 0") as usize;
        for &w in &self.comp_vertices[s..] {
            self.comp_of[w as usize] = id;
        }
        self.comp_offsets.push(self.comp_vertices.len() as u32);
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

#[cfg(test)]
#[path = "../tests/common/tarjan.rs"]
mod tarjan;

#[cfg(test)]
mod tests {
    use super::tarjan::frozen_tarjan;
    use super::*;

    /// A run's result, copied out: each vertex's component id and each
    /// component's vertices, in emission order.
    struct SccResult {
        comp_of: Vec<u32>,
        components: Vec<Vec<VertexId>>,
    }

    impl SccResult {
        fn len(&self) -> usize {
            self.components.len()
        }
    }

    fn scc(adj: &[Vec<VertexId>]) -> SccResult {
        let mut scratch = SccScratch::default();
        scratch.run(adj);
        SccResult {
            comp_of: scratch.comp_of.clone(),
            components: scratch.components().map(<[VertexId]>::to_vec).collect(),
        }
    }

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
        assert_eq!(r.len(), 0);
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

    /// A random multigraph: about a third of the vertices are sinks, and
    /// arcs are drawn with replacement, so self-loops and parallel arcs
    /// occur.
    fn random_graph(rng: &mut rand::rngs::StdRng) -> Vec<Vec<VertexId>> {
        use rand::Rng;
        let n = rng.gen_range(1usize..40);
        (0..n)
            .map(|_| {
                let deg = if rng.gen_range(0..3) == 0 {
                    0
                } else {
                    rng.gen_range(1usize..4)
                };
                (0..deg).map(|_| rng.gen_range(0..n as u32)).collect()
            })
            .collect()
    }

    #[test]
    fn sink_emission_matches_frozen_frame_only_tarjan() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut scratch = SccScratch::default();
        for _ in 0..3000 {
            let adj = random_graph(&mut rng);
            let n = adj.len() as u32;
            let lo = if rng.gen_range(0..2) == 0 {
                0
            } else {
                rng.gen_range(0..n)
            };
            let (comp_of, comps) = frozen_tarjan(&adj, lo);
            scratch.run_from(&adj, lo);
            assert_eq!(scratch.num_components(), comps.len(), "lo {lo}, {adj:?}");
            for (c, comp) in comps.iter().enumerate() {
                assert_eq!(
                    scratch.component(c as u32),
                    comp.as_slice(),
                    "lo {lo}, {adj:?}"
                );
                // Every arc leaving a component ends in an earlier one.
                for &v in comp {
                    for &w in adj[v as usize].iter().filter(|&&w| w >= lo) {
                        assert!(scratch.comp_of(w) <= c as u32, "arc {v}->{w}");
                    }
                }
            }
            for v in lo..n {
                assert_eq!(scratch.comp_of(v), comp_of[v as usize]);
            }
            // `run` is `run_from(0)`.
            if lo == 0 {
                scratch.run(&adj);
                assert_eq!(scratch.components().collect::<Vec<_>>(), comps);
            }
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        let graphs: Vec<Vec<Vec<u32>>> = vec![
            vec![vec![1], vec![2], vec![0]],
            vec![vec![1], vec![0, 2], vec![3], vec![2]],
            vec![],
            vec![vec![0]],
        ];
        let mut scratch = SccScratch::default();
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
