//! Dateline-based deadlock-free dimension-order routing.

use crate::{Candidate, Dor, RoutingAlgorithm, RoutingCtx, VcMask};
use icn_topology::KAryNCube;

/// DOR made deadlock-free on tori by splitting each ring's virtual channels
/// into two classes at a *dateline* (the wraparound link): messages use VC 0
/// until they cross the dateline of the dimension they are travelling in,
/// and VC 1 afterwards (Dally & Seitz).
///
/// This is the classic avoidance-based baseline the paper contrasts with
/// recovery: it is provably deadlock-free but halves the usable VC pool per
/// position, producing exactly the "inefficient use of network resources"
/// trade-off discussed in §1.
#[derive(Clone, Copy, Debug, Default)]
pub struct DatelineDor;

impl RoutingAlgorithm for DatelineDor {
    fn name(&self) -> &'static str {
        "DOR-dateline"
    }

    fn min_vcs(&self) -> usize {
        2
    }

    fn candidates(&self, topo: &KAryNCube, vcs: usize, ctx: &RoutingCtx, out: &mut Vec<Candidate>) {
        debug_assert!(vcs >= self.min_vcs());
        if let Some((ch, dim)) = Dor::next_hop(topo, ctx) {
            // Meshes have no wraparound, so the class split only matters on
            // tori, but applying it uniformly is still correct.
            let vc = if ctx.crossed(dim) { 1 } else { 0 };
            out.push(Candidate {
                channel: ch,
                vcs: VcMask::only(vc),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_topology::{Coords, NodeId};

    #[test]
    fn uses_class_zero_before_crossing() {
        let t = KAryNCube::torus(8, 2, true);
        let cur = t.node_at(&Coords::new(&[1, 0]));
        let dst = t.node_at(&Coords::new(&[4, 0]));
        let ctx = RoutingCtx::fresh(cur, dst, cur);
        let mut out = Vec::new();
        DatelineDor.candidates(&t, 2, &ctx, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].vcs, VcMask::only(0));
    }

    #[test]
    fn switches_class_after_crossing() {
        let t = KAryNCube::torus(8, 2, true);
        let cur = t.node_at(&Coords::new(&[0, 0]));
        let dst = t.node_at(&Coords::new(&[2, 0]));
        let mut ctx = RoutingCtx::fresh(NodeId(63), dst, cur);
        ctx.crossed_dateline = 0b01; // crossed dim-0 dateline
        let mut out = Vec::new();
        DatelineDor.candidates(&t, 2, &ctx, &mut out);
        assert_eq!(out[0].vcs, VcMask::only(1));
    }

    #[test]
    fn crossing_in_other_dim_does_not_switch() {
        let t = KAryNCube::torus(8, 2, true);
        let cur = t.node_at(&Coords::new(&[1, 0]));
        let dst = t.node_at(&Coords::new(&[4, 0]));
        let mut ctx = RoutingCtx::fresh(cur, dst, cur);
        ctx.crossed_dateline = 0b10; // crossed dim-1 dateline, routing in dim 0
        let mut out = Vec::new();
        DatelineDor.candidates(&t, 2, &ctx, &mut out);
        assert_eq!(out[0].vcs, VcMask::only(0));
    }

    #[test]
    fn minimal_and_connected() {
        for topo in [KAryNCube::torus(6, 2, true), KAryNCube::torus(6, 2, false)] {
            crate::check_minimal_connected(&DatelineDor, &topo, 2).unwrap();
        }
    }
}
