//! Capped elementary-cycle counting (Johnson's algorithm).

use crate::adjacency::{Adjacency, Csr};
use crate::scc::SccScratch;
use crate::VertexId;

/// A possibly-capped cycle count.
///
/// Deep in saturation the paper observes "hundreds of thousands" of resource
/// dependency cycles; enumeration is exponential in the worst case, so the
/// counter saturates at a configurable cap and reports that it did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CycleCount {
    /// The exact number of elementary cycles.
    Exact(u64),
    /// At least this many cycles exist (enumeration stopped at the cap).
    AtLeast(u64),
}

impl CycleCount {
    /// The counted value (a lower bound when capped).
    pub fn value(self) -> u64 {
        match self {
            CycleCount::Exact(v) | CycleCount::AtLeast(v) => v,
        }
    }

    /// Whether enumeration hit the cap.
    pub fn is_capped(self) -> bool {
        matches!(self, CycleCount::AtLeast(_))
    }

    /// Saturating combination of counts over disjoint subgraphs.
    pub fn combine(self, other: CycleCount) -> CycleCount {
        let v = self.value() + other.value();
        if self.is_capped() || other.is_capped() {
            CycleCount::AtLeast(v)
        } else {
            CycleCount::Exact(v)
        }
    }
}

impl std::fmt::Display for CycleCount {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CycleCount::Exact(v) => write!(f, "{v}"),
            CycleCount::AtLeast(v) => write!(f, ">={v}"),
        }
    }
}

/// Whether the strongly connected component `comp` of `adj` contains a
/// cycle: more than one vertex, or a single vertex with a self-loop.
pub(crate) fn is_cyclic<A: Adjacency + ?Sized>(adj: &A, comp: &[VertexId]) -> bool {
    comp.len() >= 2 || adj.neighbors(comp[0]).contains(&comp[0])
}

/// Local-id sentinel: the vertex is outside the component being counted.
const OUTSIDE: u32 = u32::MAX;

/// Reusable working storage for Johnson's algorithm on one component at a
/// time. Every buffer is cleared and refilled, never reallocated, so
/// counting allocates nothing once capacities have warmed up.
///
/// Johnson runs on the component's **branch-vertex contraction**, not on
/// the component itself. Inside a strongly connected component, a vertex
/// with one out-arc (a chain interior, a head with one request) forces
/// where every cycle through it goes next. The contraction keeps only the
/// branch vertices (out-degree ≥ 2 within the component) and gives each of
/// their out-arcs one contracted arc, to the branch vertex that the arc's
/// forced path ends at. Elementary cycles of the component and of the
/// contracted multigraph correspond one to one: a cycle is its sequence
/// of branch out-arcs, parallel contracted arcs are distinct cycles, and
/// two forced paths that share a vertex end at the same branch vertex, so
/// an elementary contracted cycle never reuses a vertex when expanded.
#[derive(Clone, Debug, Default)]
pub(crate) struct CycleScratch {
    /// Graph vertex -> local id inside the component being counted;
    /// [`OUTSIDE`] everywhere between calls.
    local_of: Vec<u32>,
    /// The component's induced adjacency over local ids `0..m` (position
    /// in the component).
    induced: Csr,
    /// Local ids of the branch vertices; branch id = position.
    branches: Vec<u32>,
    /// Local id -> branch id its forced path ends at (a branch vertex's
    /// own id); [`OUTSIDE`] while unknown.
    end_of: Vec<u32>,
    /// The forced path being walked, awaiting its end.
    walk: Vec<u32>,
    /// The contracted multigraph over branch ids `0..k`: what Johnson
    /// counts on.
    local: Csr,
    /// Predecessor lists of `local`: `(source, index of the arc in
    /// local.targets)` for every arc into a vertex.
    rev_offsets: Vec<u32>,
    rev: Vec<(u32, u32)>,
    /// Johnson's B sets, one flag per arc of `local`: arc `v -> w` is set
    /// while `v` is in `B(w)`.
    in_b: Vec<bool>,
    blocked: Vec<bool>,
    /// Tarjan over the induced subgraph `{s..k}` of `local`.
    scc: SccScratch,
    /// Explicit-stack CIRCUIT(v): (vertex, next-arc cursor, found a cycle
    /// below).
    frames: Vec<(u32, u32, bool)>,
    unblock_stack: Vec<u32>,
}

impl CycleScratch {
    /// Sums [`count_in_component`](Self::count_in_component) over every
    /// cyclic component of `comps` (a decomposition of `adj`), sharing
    /// one budget of `cap` cycles.
    pub(crate) fn count_components<A: Adjacency + ?Sized>(
        &mut self,
        adj: &A,
        comps: &SccScratch,
        cap: u64,
    ) -> CycleCount {
        let mut total = CycleCount::Exact(0);
        for comp in comps.components() {
            if !is_cyclic(adj, comp) {
                continue;
            }
            let local = self.count_in_component(adj, comp, cap - total.value());
            total = total.combine(local);
            if total.is_capped() {
                break;
            }
        }
        total
    }

    /// Johnson's algorithm on the branch-vertex contraction of `comp`, one
    /// cyclic strongly connected component of `adj`.
    /// Reports `AtLeast(cap)` as soon as `cap` cycles have been found.
    pub(crate) fn count_in_component<A: Adjacency + ?Sized>(
        &mut self,
        adj: &A,
        comp: &[VertexId],
        cap: u64,
    ) -> CycleCount {
        if cap == 0 {
            return CycleCount::AtLeast(0);
        }
        if !self.load_component(adj, comp) {
            // No branch vertex: the component is one cycle.
            return if cap <= 1 {
                CycleCount::AtLeast(1)
            } else {
                CycleCount::Exact(1)
            };
        }
        let m = self.local.num_vertices() as u32;
        let mut count = 0u64;

        // For ascending start vertex s, count the cycles whose least vertex
        // is s: they lie inside the SCC of s within the subgraph induced on
        // {s..m}. Johnson's start selection jumps s straight to the least
        // vertex of any non-trivial SCC of that subgraph and stops when
        // there is none, so every pass finds at least one cycle.
        let mut s = 0u32;
        while s < m {
            self.scc.run_from(&self.local, s);
            let mut start: Option<(u32, u32)> = None;
            for c in 0..self.scc.num_components() as u32 {
                let members = self.scc.component(c);
                if !is_cyclic(&self.local, members) {
                    continue;
                }
                let least = *members.iter().min().expect("components are non-empty");
                if start.is_none_or(|(best, _)| least < best) {
                    start = Some((least, c));
                }
            }
            let Some((least, k)) = start else {
                break;
            };
            s = least;

            self.blocked.fill(false);
            self.in_b.fill(false);
            self.blocked[s as usize] = true;
            self.frames.clear();
            self.frames.push((s, self.local.offsets[s as usize], false));
            while let Some(&mut (v, ref mut ei, ref mut found)) = self.frames.last_mut() {
                let end = self.local.offsets[v as usize + 1];
                let mut descended = false;
                while *ei < end {
                    let w = self.local.targets[*ei as usize];
                    *ei += 1;
                    if w < s || self.scc.comp_of(w) != k {
                        continue;
                    }
                    if w == s {
                        count += 1;
                        *found = true;
                        if count >= cap {
                            return CycleCount::AtLeast(count);
                        }
                    } else if !self.blocked[w as usize] {
                        self.blocked[w as usize] = true;
                        self.frames.push((w, self.local.offsets[w as usize], false));
                        descended = true;
                        break;
                    }
                }
                if descended {
                    continue;
                }
                // Finished v: unwind one frame.
                let (_, _, found) = self.frames.pop().expect("frame just inspected");
                if found {
                    self.unblock(v);
                } else {
                    let arcs = self.local.offsets[v as usize]..self.local.offsets[v as usize + 1];
                    for e in arcs {
                        let w = self.local.targets[e as usize];
                        if w >= s && self.scc.comp_of(w) == k {
                            self.in_b[e as usize] = true;
                        }
                    }
                }
                if let Some(&mut (_, _, ref mut parent_found)) = self.frames.last_mut() {
                    *parent_found |= found;
                }
            }
            s += 1;
        }
        CycleCount::Exact(count)
    }

    /// Fills `induced` with the adjacency `adj` induces on `comp` (local id
    /// = position in `comp`), `local` with its branch-vertex contraction
    /// and `rev` with the contraction's predecessor lists. Returns `false`,
    /// with `local` left unfilled, when `comp` has no branch vertex: a
    /// strongly connected component with one out-arc per vertex is exactly
    /// one cycle.
    fn load_component<A: Adjacency + ?Sized>(&mut self, adj: &A, comp: &[VertexId]) -> bool {
        let m = comp.len();
        self.local_of.resize(adj.num_vertices(), OUTSIDE);
        for (i, &v) in comp.iter().enumerate() {
            self.local_of[v as usize] = i as u32;
        }
        self.induced.reset(m);
        for &v in comp {
            let local_of = &self.local_of;
            self.induced.push_vertex(
                adj.neighbors(v)
                    .iter()
                    .map(|&t| local_of[t as usize])
                    .filter(|&t| t != OUTSIDE),
            );
        }
        for &v in comp {
            self.local_of[v as usize] = OUTSIDE;
        }
        if self.induced.num_edges() == m {
            return false;
        }

        // Branch vertices end their own forced paths.
        let offsets = &self.induced.offsets;
        self.branches.clear();
        self.end_of.clear();
        self.end_of.resize(m, OUTSIDE);
        for i in 0..m {
            if offsets[i + 1] - offsets[i] >= 2 {
                self.end_of[i] = self.branches.len() as u32;
                self.branches.push(i as u32);
            }
        }
        // Every other vertex has exactly one out-arc: follow it until a
        // vertex whose end is known. The walk cannot close on itself — a
        // cycle of single-arc vertices would be a whole component without a
        // branch vertex — so each vertex is walked once.
        for i in 0..m {
            let mut x = i as u32;
            self.walk.clear();
            while self.end_of[x as usize] == OUTSIDE {
                assert!(self.walk.len() < m, "a forced path closed on itself");
                self.walk.push(x);
                x = self.induced.targets[offsets[x as usize] as usize];
            }
            let end = self.end_of[x as usize];
            for &y in &self.walk {
                self.end_of[y as usize] = end;
            }
        }
        self.local.reset(self.branches.len());
        for &b in &self.branches {
            let arcs = offsets[b as usize] as usize..offsets[b as usize + 1] as usize;
            let end_of = &self.end_of;
            self.local.push_vertex(
                self.induced.targets[arcs]
                    .iter()
                    .map(|&w| end_of[w as usize]),
            );
        }
        let m = self.branches.len();

        // Counting sort of the arcs by target.
        let arcs = self.local.targets.len();
        self.rev_offsets.clear();
        self.rev_offsets.resize(m + 1, 0);
        for &w in &self.local.targets {
            self.rev_offsets[w as usize + 1] += 1;
        }
        for w in 0..m {
            self.rev_offsets[w + 1] += self.rev_offsets[w];
        }
        self.rev.clear();
        self.rev.resize(arcs, (0, 0));
        for v in 0..m {
            for e in self.local.offsets[v]..self.local.offsets[v + 1] {
                let w = self.local.targets[e as usize] as usize;
                self.rev[self.rev_offsets[w] as usize] = (v as u32, e);
                self.rev_offsets[w] += 1;
            }
        }
        // Each offset now sits at its list's end; shift back to the starts.
        self.rev_offsets.copy_within(0..m, 1);
        self.rev_offsets[0] = 0;

        self.in_b.clear();
        self.in_b.resize(arcs, false);
        self.blocked.clear();
        self.blocked.resize(m, false);
        true
    }

    /// Johnson's UNBLOCK cascade from `v`, iteratively.
    fn unblock(&mut self, v: u32) {
        self.unblock_stack.clear();
        self.unblock_stack.push(v);
        while let Some(w) = self.unblock_stack.pop() {
            if !self.blocked[w as usize] {
                continue;
            }
            self.blocked[w as usize] = false;
            let preds =
                self.rev_offsets[w as usize] as usize..self.rev_offsets[w as usize + 1] as usize;
            for &(p, e) in &self.rev[preds] {
                if self.in_b[e as usize] {
                    self.in_b[e as usize] = false;
                    self.unblock_stack.push(p);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts elementary cycles of `adj`, stopping once `cap` have been
    /// found: one decomposition, then Johnson in every cyclic component,
    /// on fresh scratch.
    fn count_cycles<A: Adjacency + ?Sized>(adj: &A, cap: u64) -> CycleCount {
        let mut comps = SccScratch::default();
        comps.run(adj);
        CycleScratch::default().count_components(adj, &comps, cap)
    }

    #[test]
    fn empty_and_acyclic() {
        let empty: &[Vec<u32>] = &[];
        assert_eq!(count_cycles(empty, 100), CycleCount::Exact(0));
        let chain = vec![vec![1], vec![2], vec![]];
        assert_eq!(count_cycles(&chain, 100), CycleCount::Exact(0));
    }

    #[test]
    fn single_cycle() {
        let ring: Vec<Vec<u32>> = (0..5u32).map(|v| vec![(v + 1) % 5]).collect();
        assert_eq!(count_cycles(&ring, 100), CycleCount::Exact(1));
    }

    #[test]
    fn self_loop_counts() {
        let adj = vec![vec![0u32]];
        assert_eq!(count_cycles(&adj, 100), CycleCount::Exact(1));
    }

    #[test]
    fn two_disjoint_cycles() {
        let adj = vec![vec![1], vec![0], vec![3], vec![2]];
        assert_eq!(count_cycles(&adj, 100), CycleCount::Exact(2));
    }

    #[test]
    fn complete_digraph_k3() {
        // K3 with all arcs: cycles = three 2-cycles + two 3-cycles = 5.
        let adj = vec![vec![1, 2], vec![0, 2], vec![0, 1]];
        assert_eq!(count_cycles(&adj, 100), CycleCount::Exact(5));
    }

    #[test]
    fn complete_digraph_k4() {
        // K4: 6 two-cycles + 8 three-cycles + 6 four-cycles = 20.
        let adj: Vec<Vec<u32>> = (0..4u32)
            .map(|v| (0..4u32).filter(|&w| w != v).collect())
            .collect();
        assert_eq!(count_cycles(&adj, 1000), CycleCount::Exact(20));
    }

    #[test]
    fn cap_reported() {
        let adj: Vec<Vec<u32>> = (0..4u32)
            .map(|v| (0..4u32).filter(|&w| w != v).collect())
            .collect();
        let c = count_cycles(&adj, 7);
        assert!(c.is_capped());
        assert_eq!(c.value(), 7);
    }

    #[test]
    fn figure_three_knot_density() {
        // Figure 3b's knot: 8 vertices {1,3,5,7,9,11,13,15} remapped to 0..8,
        // each blocked message waits for two VCs owned by neighbours around
        // the square. Construct the same shape: v -> v+1 and v -> v+3 mod 8
        // is a stand-in with multiple overlapping cycles; just verify the
        // counter sees more than one cycle in a multi-cycle knot.
        let adj: Vec<Vec<u32>> = (0..8u32).map(|v| vec![(v + 1) % 8, (v + 3) % 8]).collect();
        let c = count_cycles(&adj, 10_000);
        assert!(!c.is_capped());
        assert!(c.value() > 1);
    }

    #[test]
    fn huge_ring_costs_two_passes_not_one_per_vertex() {
        // One SCC pass finds the ring, the next finds nothing left and
        // stops. A pass per start vertex would be 50,000 passes over 50,000
        // vertices: minutes instead of milliseconds.
        let n = 50_000u32;
        let mut adj: Vec<Vec<u32>> = (0..n).map(|v| vec![(v + 1) % n]).collect();
        assert_eq!(count_cycles(&adj, 2_000), CycleCount::Exact(1));
        // One chord back across half the ring adds exactly one cycle.
        adj[n as usize - 1].push(n / 2);
        assert_eq!(count_cycles(&adj, 2_000), CycleCount::Exact(2));
    }

    #[test]
    fn scratch_reuse_across_components_and_graphs() {
        // A large component first, then smaller ones in a smaller graph:
        // nothing may leak between counts.
        let k4: Vec<Vec<u32>> = (0..4u32)
            .map(|v| (0..4u32).filter(|&w| w != v).collect())
            .collect();
        let small = vec![vec![1], vec![0, 2], vec![2, 0]];
        let mut comps = SccScratch::default();
        let mut scratch = CycleScratch::default();
        for _ in 0..2 {
            comps.run(&k4);
            assert_eq!(
                scratch.count_components(&k4, &comps, 1000),
                CycleCount::Exact(20)
            );
            comps.run(&small);
            // 0<->1, 0->1->2->0 and the self-loop at 2.
            assert_eq!(
                scratch.count_components(&small, &comps, 1000),
                CycleCount::Exact(3)
            );
        }
    }

    #[test]
    fn cap_law() {
        // AtLeast(cap) exactly when cap <= the true count, also when the
        // budget runs out between components.
        let adj = vec![vec![1], vec![0, 2], vec![3], vec![2], vec![4]];
        for cap in 0..=4 {
            let expect = if cap <= 3 {
                CycleCount::AtLeast(cap)
            } else {
                CycleCount::Exact(3)
            };
            assert_eq!(count_cycles(&adj, cap), expect, "cap {cap}");
        }
        let chain = vec![vec![1], vec![]];
        assert_eq!(count_cycles(&chain, 0), CycleCount::Exact(0));
    }

    #[test]
    fn cycles_across_bridge_not_double_counted() {
        // 0<->1 -> 2<->3: exactly two 2-cycles.
        let adj = vec![vec![1], vec![0, 2], vec![3], vec![2]];
        assert_eq!(count_cycles(&adj, 100), CycleCount::Exact(2));
    }

    #[test]
    fn combine_saturates() {
        let a = CycleCount::Exact(3);
        let b = CycleCount::AtLeast(5);
        assert_eq!(a.combine(b), CycleCount::AtLeast(8));
        assert_eq!(format!("{}", a.combine(b)), ">=8");
    }

    /// Brute-force reference: enumerate cycles by DFS over all simple paths.
    fn brute_force(adj: &[Vec<u32>]) -> u64 {
        let n = adj.len();
        let mut count = 0u64;
        fn dfs(adj: &[Vec<u32>], start: u32, v: u32, visited: &mut Vec<bool>, count: &mut u64) {
            for &w in &adj[v as usize] {
                if w == start {
                    *count += 1;
                } else if w > start && !visited[w as usize] {
                    visited[w as usize] = true;
                    dfs(adj, start, w, visited, count);
                    visited[w as usize] = false;
                }
            }
        }
        for s in 0..n as u32 {
            let mut visited = vec![false; n];
            visited[s as usize] = true;
            dfs(adj, s, s, &mut visited, &mut count);
        }
        count
    }

    #[test]
    fn contraction_keeps_parallel_arcs_and_self_loops() {
        // 0 -> {1, 2}, both forced back to 0 through 3: two parallel
        // contracted arcs 0 => 0, i.e. two self-loops, two cycles.
        let merge = vec![vec![1, 2], vec![3], vec![3], vec![0]];
        assert_eq!(count_cycles(&merge, 100), CycleCount::Exact(2));
        // A branch vertex whose forced path returns to itself, plus a
        // parallel pair of original arcs.
        let adj = vec![vec![1, 2, 2], vec![0], vec![3], vec![0]];
        assert_eq!(count_cycles(&adj, 100), CycleCount::Exact(3));
        assert_eq!(count_cycles(&adj, 3), CycleCount::AtLeast(3));
        // A ring without a branch vertex is one cycle, capped at 1 below 2.
        let ring: Vec<Vec<u32>> = (0..6u32).map(|v| vec![(v + 1) % 6]).collect();
        assert_eq!(count_cycles(&ring, 2), CycleCount::Exact(1));
        assert_eq!(count_cycles(&ring, 1), CycleCount::AtLeast(1));
        assert_eq!(count_cycles(&ring, 0), CycleCount::AtLeast(0));
    }

    #[test]
    fn matches_brute_force_on_random_multigraphs() {
        // Parallel arcs and self-loops are distinct cycles, and sparse
        // out-degrees give long forced paths for the contraction.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let n = rng.gen_range(1..12);
            let adj: Vec<Vec<u32>> = (0..n)
                .map(|_| {
                    let degree = [1, 1, 1, 2, 2, 3][rng.gen_range(0..6)];
                    (0..degree).map(|_| rng.gen_range(0..n) as u32).collect()
                })
                .collect();
            let expect = brute_force(&adj);
            assert_eq!(
                count_cycles(&adj, u64::MAX),
                CycleCount::Exact(expect),
                "adj={adj:?}"
            );
            for cap in 0..=expect + 1 {
                let want = if cap <= expect && expect > 0 {
                    CycleCount::AtLeast(cap)
                } else {
                    CycleCount::Exact(expect)
                };
                assert_eq!(count_cycles(&adj, cap), want, "cap {cap} adj={adj:?}");
            }
        }
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..50 {
            let n = rng.gen_range(2..9);
            let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
            for (v, row) in adj.iter_mut().enumerate() {
                for w in 0..n as u32 {
                    if v as u32 != w && rng.gen_bool(0.3) {
                        row.push(w);
                    }
                }
            }
            let expect = brute_force(&adj);
            let got = count_cycles(&adj, u64::MAX);
            assert_eq!(got, CycleCount::Exact(expect), "adj={adj:?}");
        }
    }
}
