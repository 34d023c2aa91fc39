//! Negative-first turn-model routing for meshes and hypercubes.

use crate::{Candidate, RoutingAlgorithm, RoutingCtx, VcMask};
use icn_topology::{Direction, KAryNCube, RoutingOffset, MAX_DIMS};

/// Negative-first routing (Glass & Ni's turn model \[2\]): all hops in the
/// `Minus` direction (any dimension) are taken first, fully adaptively
/// among themselves; once no negative hop remains, the message routes
/// fully adaptively among the remaining `Plus` hops. Prohibiting the
/// positive-to-negative turns breaks every abstract cycle, so the relation
/// is deadlock-free on meshes (and hypercubes) with a single VC, in any
/// number of dimensions — unlike [`crate::WestFirst`], which is 2-D only.
#[derive(Clone, Copy, Debug, Default)]
pub struct NegativeFirst;

impl RoutingAlgorithm for NegativeFirst {
    fn name(&self) -> &'static str {
        "negative-first"
    }

    fn candidates(&self, topo: &KAryNCube, vcs: usize, ctx: &RoutingCtx, out: &mut Vec<Candidate>) {
        debug_assert!(!topo.is_torus(), "turn model applies to meshes");
        let mask = VcMask::all(vcs);
        // Stack storage: one profitable direction per dimension at most.
        let mut buf = [(0usize, Direction::Plus); MAX_DIMS];
        let mut len = 0;
        for dim in 0..topo.n() {
            if let RoutingOffset::Dir(dir, _) = topo.routing_offset(ctx.current, ctx.dst, dim) {
                buf[len] = (dim, dir);
                len += 1;
            }
        }
        let dirs = &buf[..len];
        let any_negative = dirs.iter().any(|&(_, d)| d == Direction::Minus);
        let start = out.len();
        for &(dim, dir) in dirs {
            if any_negative && dir != Direction::Minus {
                continue;
            }
            let ch = topo
                .channel_from(ctx.current, dim, dir)
                .expect("mesh interior channel");
            out.push(Candidate {
                channel: ch,
                vcs: mask,
            });
        }
        // Only what this call appended: the caller's prefix keeps its order.
        if let Some(last) = ctx.last_dim {
            out[start..].sort_by_key(|c| topo.channel(c.channel).dim != last);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_topology::Coords;

    fn route(topo: &KAryNCube, cur: &[u16], dst: &[u16]) -> Vec<Candidate> {
        let cur = topo.node_at(&Coords::new(cur));
        let dst = topo.node_at(&Coords::new(dst));
        let mut out = Vec::new();
        NegativeFirst.candidates(topo, 1, &RoutingCtx::fresh(cur, dst, cur), &mut out);
        out
    }

    #[test]
    fn negative_hops_first_and_adaptive_among_themselves() {
        let m = KAryNCube::mesh(8, 2);
        // Both components negative: both offered.
        let cands = route(&m, &[5, 6], &[2, 1]);
        assert_eq!(cands.len(), 2);
        for c in &cands {
            assert_eq!(m.channel(c.channel).dir, Direction::Minus);
        }
    }

    #[test]
    fn mixed_offsets_suppress_positive() {
        let m = KAryNCube::mesh(8, 2);
        // dx positive, dy negative: only the negative hop is offered.
        let cands = route(&m, &[2, 6], &[5, 1]);
        assert_eq!(cands.len(), 1);
        let info = m.channel(cands[0].channel);
        assert_eq!((info.dim, info.dir), (1, Direction::Minus));
    }

    #[test]
    fn all_positive_is_fully_adaptive() {
        let m = KAryNCube::mesh(8, 2);
        let cands = route(&m, &[1, 1], &[5, 6]);
        assert_eq!(cands.len(), 2);
    }

    #[test]
    fn works_on_hypercube() {
        let h = KAryNCube::hypercube(4);
        crate::check_minimal_connected(&NegativeFirst, &h, 1).unwrap();
    }

    #[test]
    fn minimal_and_connected_on_meshes() {
        crate::check_minimal_connected(&NegativeFirst, &KAryNCube::mesh(5, 2), 1).unwrap();
        crate::check_minimal_connected(&NegativeFirst, &KAryNCube::mesh(3, 3), 1).unwrap();
    }

    #[test]
    fn appends_without_reordering_the_callers_prefix() {
        let m = KAryNCube::mesh(8, 2);
        let cur = m.node_at(&Coords::new(&[1, 1]));
        let dst = m.node_at(&Coords::new(&[4, 5]));
        let mut ctx = RoutingCtx::fresh(cur, dst, cur);
        ctx.last_dim = Some(1);
        // A prefix in dimension order: the last-dimension preference would
        // invert it if the sort reached it.
        let prefix: Vec<Candidate> = (0..2)
            .map(|dim| Candidate {
                channel: m.channel_from(cur, dim, Direction::Plus).unwrap(),
                vcs: VcMask::all(1),
            })
            .collect();
        let mut out = prefix.clone();
        NegativeFirst.candidates(&m, 1, &ctx, &mut out);
        let mut fresh = Vec::new();
        NegativeFirst.candidates(&m, 1, &ctx, &mut fresh);
        assert_eq!(out[..2], prefix[..], "prefix reordered");
        assert_eq!(out[2..], fresh[..]);
    }
}
