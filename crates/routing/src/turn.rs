//! West-first turn-model routing for 2-D meshes.

use crate::{Candidate, RoutingAlgorithm, RoutingCtx, VcMask};
use icn_topology::{Direction, KAryNCube, RoutingOffset};

/// West-first routing (Glass & Ni's turn model \[2\]) for 2-D meshes: all
/// westward (`Minus` along dimension 0) hops are taken first, with no
/// adaptivity; once no westward hop remains, the message routes fully
/// adaptively among the remaining profitable directions. Prohibiting the
/// two turns *into* west breaks every abstract cycle, so the relation is
/// deadlock-free on a mesh with a single virtual channel.
#[derive(Clone, Copy, Debug, Default)]
pub struct WestFirst;

impl RoutingAlgorithm for WestFirst {
    fn name(&self) -> &'static str {
        "west-first"
    }

    fn candidates(&self, topo: &KAryNCube, vcs: usize, ctx: &RoutingCtx, out: &mut Vec<Candidate>) {
        debug_assert!(!topo.is_torus(), "turn model applies to meshes");
        debug_assert_eq!(topo.n(), 2, "west-first is defined for 2-D meshes");
        let mask = VcMask::all(vcs);
        // Any westward component must be routed first, exclusively.
        if let RoutingOffset::Dir(Direction::Minus, _) =
            topo.routing_offset(ctx.current, ctx.dst, 0)
        {
            let ch = topo
                .channel_from(ctx.current, 0, Direction::Minus)
                .expect("mesh interior channel");
            out.push(Candidate {
                channel: ch,
                vcs: mask,
            });
            return;
        }
        // Otherwise fully adaptive among the profitable non-west directions.
        let start = out.len();
        for dim in 0..2 {
            if let RoutingOffset::Dir(dir, _) = topo.routing_offset(ctx.current, ctx.dst, dim) {
                let ch = topo
                    .channel_from(ctx.current, dim, dir)
                    .expect("mesh interior channel");
                out.push(Candidate {
                    channel: ch,
                    vcs: mask,
                });
            }
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
        WestFirst.candidates(topo, 1, &RoutingCtx::fresh(cur, dst, cur), &mut out);
        out
    }

    #[test]
    fn west_component_routed_first_and_alone() {
        let m = KAryNCube::mesh(8, 2);
        let cands = route(&m, &[5, 2], &[1, 6]);
        assert_eq!(cands.len(), 1);
        let info = m.channel(cands[0].channel);
        assert_eq!((info.dim, info.dir), (0, Direction::Minus));
    }

    #[test]
    fn eastbound_is_adaptive() {
        let m = KAryNCube::mesh(8, 2);
        let cands = route(&m, &[1, 1], &[4, 5]);
        assert_eq!(cands.len(), 2);
    }

    #[test]
    fn pure_vertical_allowed() {
        let m = KAryNCube::mesh(8, 2);
        let cands = route(&m, &[3, 1], &[3, 6]);
        assert_eq!(cands.len(), 1);
        assert_eq!(m.channel(cands[0].channel).dim, 1);
    }

    #[test]
    fn minimal_and_connected() {
        crate::check_minimal_connected(&WestFirst, &KAryNCube::mesh(6, 2), 1).unwrap();
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
        WestFirst.candidates(&m, 1, &ctx, &mut out);
        let mut fresh = Vec::new();
        WestFirst.candidates(&m, 1, &ctx, &mut fresh);
        assert_eq!(out[..2], prefix[..], "prefix reordered");
        assert_eq!(out[2..], fresh[..]);
    }
}
