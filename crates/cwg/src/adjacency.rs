//! Read-only adjacency abstraction shared by the SCC, knot, and cycle
//! algorithms, plus a reusable CSR (compressed sparse row) materialization.
//!
//! The detection hot path walks the [`WaitGraph`](crate::WaitGraph)
//! itself: its record table answers [`Adjacency::neighbors`] with one range
//! load, so no per-epoch copy of the graph is made. The crate-private
//! [`Csr`] holds only the graphs the cycle counter derives (a component's
//! induced adjacency and its branch-vertex contraction).

use crate::VertexId;

/// Anything the graph algorithms can walk: a vertex count plus per-vertex
/// successor slices.
pub trait Adjacency {
    /// Number of vertices (`0..n`).
    fn num_vertices(&self) -> usize;

    /// Successors of `v`.
    fn neighbors(&self, v: VertexId) -> &[VertexId];
}

#[cfg(test)]
impl Adjacency for [Vec<VertexId>] {
    fn num_vertices(&self) -> usize {
        self.len()
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self[v as usize]
    }
}

#[cfg(test)]
impl Adjacency for Vec<Vec<VertexId>> {
    fn num_vertices(&self) -> usize {
        self.len()
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self[v as usize]
    }
}

/// Reusable flat adjacency: `targets[offsets[v]..offsets[v+1]]` are the
/// successors of `v`. Refilled in place, so the steady state performs no
/// allocation.
#[derive(Clone, Debug, Default)]
pub(crate) struct Csr {
    pub(crate) offsets: Vec<u32>,
    pub(crate) targets: Vec<VertexId>,
}

impl Csr {
    /// Resets to an edgeless graph over `n` vertices, keeping capacity.
    pub(crate) fn reset(&mut self, n: usize) {
        self.offsets.clear();
        self.offsets.reserve(n + 1);
        self.offsets.push(0);
        self.targets.clear();
    }

    /// Appends the successor list of the next vertex (vertices must be
    /// pushed in ascending order, one call per vertex).
    pub(crate) fn push_vertex(&mut self, successors: impl IntoIterator<Item = VertexId>) {
        self.targets.extend(successors);
        self.offsets.push(self.targets.len() as u32);
    }

    /// Total number of arcs.
    pub(crate) fn num_edges(&self) -> usize {
        self.targets.len()
    }
}

impl Adjacency for Csr {
    fn num_vertices(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let s = self.offsets[v as usize] as usize;
        let e = self.offsets[v as usize + 1] as usize;
        &self.targets[s..e]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_round_trip() {
        let lists: Vec<Vec<VertexId>> = vec![vec![1, 2], vec![], vec![0]];
        let mut csr = Csr::default();
        csr.reset(lists.len());
        for l in &lists {
            csr.push_vertex(l.iter().copied());
        }
        assert_eq!(csr.num_vertices(), 3);
        assert_eq!(csr.num_edges(), 3);
        for v in 0..3u32 {
            assert_eq!(csr.neighbors(v), lists.neighbors(v));
        }
    }

    #[test]
    fn reset_reuses_storage() {
        let mut csr = Csr::default();
        csr.reset(2);
        csr.push_vertex([1]);
        csr.push_vertex([0, 1]);
        let cap_t = csr.targets.capacity();
        csr.reset(2);
        csr.push_vertex([]);
        csr.push_vertex([0]);
        assert_eq!(csr.num_vertices(), 2);
        assert_eq!(csr.neighbors(0), &[] as &[VertexId]);
        assert_eq!(csr.neighbors(1), &[0]);
        assert!(csr.targets.capacity() >= cap_t.min(2));
    }
}
