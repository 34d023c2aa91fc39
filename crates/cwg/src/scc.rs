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
        self.run_with(adj, lo, |_, _, _| {});
    }

    /// [`run_from`](Self::run_from), calling `emit(id, vertices, comp_of)`
    /// as each component is emitted, which is after everything it reaches:
    /// `comp_of` is final at both ends of each arc from `vertices` to `lo..n`.
    pub(crate) fn run_with<A, F>(&mut self, adj: &A, lo: VertexId, mut emit: F)
    where
        A: Adjacency + ?Sized,
        F: FnMut(u32, &[VertexId], &[u32]),
    {
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
            self.open(adj, start, &mut next_index, &mut emit);

            while let Some(&mut (v, ref mut ei)) = self.frames.last_mut() {
                let outs = adj.neighbors(v);
                if *ei < outs.len() {
                    let w = outs[*ei];
                    *ei += 1;
                    if w < lo {
                        continue;
                    }
                    if self.index[w as usize] == UNVISITED {
                        self.open(adj, w, &mut next_index, &mut emit);
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
                        self.close(&mut emit);
                    }
                }
            }
        }
    }

    /// Visits `v`. A vertex without out-arcs is emitted at once: its frame
    /// would find no child, move no lowlink and emit it next, so the index
    /// order, the component ids and the emission order are the same.
    #[inline]
    fn open<A, F>(&mut self, adj: &A, v: VertexId, next_index: &mut u32, emit: &mut F)
    where
        A: Adjacency + ?Sized,
        F: FnMut(u32, &[VertexId], &[u32]),
    {
        self.index[v as usize] = *next_index;
        *next_index += 1;
        if adj.neighbors(v).is_empty() {
            self.comp_vertices.push(v);
            self.close(emit);
        } else {
            self.lowlink[v as usize] = self.index[v as usize];
            self.stack.push(v);
            self.on_stack[v as usize] = true;
            self.frames.push((v, 0));
        }
    }

    /// Ends the component just pushed onto `comp_vertices`; hands it to `emit`.
    #[inline]
    fn close<F: FnMut(u32, &[VertexId], &[u32])>(&mut self, emit: &mut F) {
        let id = (self.comp_offsets.len() - 1) as u32;
        let s = *self.comp_offsets.last().expect("offsets start at 0") as usize;
        let comp = &self.comp_vertices[s..];
        for &w in comp {
            self.comp_of[w as usize] = id;
        }
        self.comp_offsets.push(self.comp_vertices.len() as u32);
        emit(id, comp, &self.comp_of);
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

    /// Frozen frame-only Tarjan over `lo..n` (every vertex gets a DFS
    /// frame, sinks included), as `run_from` was before sinks were emitted
    /// without one: `(comp_of, components in emission order)`.
    fn frozen_tarjan(adj: &[Vec<VertexId>], lo: VertexId) -> (Vec<u32>, Vec<Vec<VertexId>>) {
        let n = adj.len();
        let mut index = vec![UNVISITED; n];
        let mut lowlink = vec![0; n];
        let mut on_stack = vec![false; n];
        let mut stack = Vec::new();
        let mut frames: Vec<(u32, usize)> = Vec::new();
        let mut comp_of = vec![0; n];
        let mut comps: Vec<Vec<VertexId>> = Vec::new();
        let mut next = 0;
        for start in lo..n as u32 {
            if index[start as usize] != UNVISITED {
                continue;
            }
            frames.push((start, 0));
            index[start as usize] = next;
            lowlink[start as usize] = next;
            next += 1;
            stack.push(start);
            on_stack[start as usize] = true;
            while let Some(&mut (v, ref mut ei)) = frames.last_mut() {
                let outs = &adj[v as usize];
                if *ei < outs.len() {
                    let w = outs[*ei];
                    *ei += 1;
                    if w < lo {
                        continue;
                    }
                    if index[w as usize] == UNVISITED {
                        index[w as usize] = next;
                        lowlink[w as usize] = next;
                        next += 1;
                        stack.push(w);
                        on_stack[w as usize] = true;
                        frames.push((w, 0));
                    } else if on_stack[w as usize] {
                        lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                    }
                } else {
                    frames.pop();
                    if let Some(&mut (parent, _)) = frames.last_mut() {
                        lowlink[parent as usize] =
                            lowlink[parent as usize].min(lowlink[v as usize]);
                    }
                    if lowlink[v as usize] == index[v as usize] {
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().unwrap();
                            on_stack[w as usize] = false;
                            comp_of[w as usize] = comps.len() as u32;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        comps.push(comp);
                    }
                }
            }
        }
        (comp_of, comps)
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
        let mut scratch = SccScratch::new();
        for _ in 0..3000 {
            let adj = random_graph(&mut rng);
            let n = adj.len() as u32;
            let lo = if rng.gen_range(0..2) == 0 {
                0
            } else {
                rng.gen_range(0..n)
            };
            let (comp_of, comps) = frozen_tarjan(&adj, lo);
            let mut emitted = Vec::new();
            let mut done = vec![false; n as usize];
            scratch.run_with(&adj, lo, |id, comp, ids| {
                for &v in comp {
                    assert_eq!(ids[v as usize], id);
                    done[v as usize] = true;
                }
                // Every arc leaving the component ends in an earlier one.
                for &v in comp {
                    for &w in adj[v as usize].iter().filter(|&&w| w >= lo) {
                        assert!(done[w as usize] && ids[w as usize] <= id, "arc {v}->{w}");
                    }
                }
                emitted.push(comp.to_vec());
            });
            assert_eq!(emitted, comps, "lo {lo}, {adj:?}");
            assert_eq!(scratch.num_components(), comps.len());
            for (c, comp) in comps.iter().enumerate() {
                assert_eq!(scratch.component(c as u32), comp.as_slice());
            }
            for v in lo..n {
                assert_eq!(scratch.comp_of(v), comp_of[v as usize]);
            }
            // `run_from` and `run` go through the same walk.
            scratch.run_from(&adj, lo);
            assert_eq!(scratch.components().collect::<Vec<_>>(), comps);
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
