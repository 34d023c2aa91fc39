//! Static dimension-order routing (DOR).

use crate::{Candidate, RoutingAlgorithm, RoutingCtx, VcMask};
use icn_topology::{Direction, KAryNCube, RoutingOffset};

/// Dimension-order routing: fully resolve dimension 0, then 1, and so on.
///
/// The routing relation returns exactly one physical channel (fan-out 1 in
/// CWG terms, modulo the number of VCs), and places **no restriction** on
/// which VC is used, exactly as in the paper's experiments. On a torus this
/// is *not* deadlock-free — the wraparound link closes the cycle that
/// produces the single-cycle deadlocks of Figure 1.
#[derive(Clone, Copy, Debug, Default)]
pub struct Dor;

impl Dor {
    /// The single DOR output for `ctx`, or `None` when already at the
    /// destination. Exposed so avoidance baselines (dateline, Duato escape)
    /// can reuse the same dimension-order next hop.
    pub fn next_hop(topo: &KAryNCube, ctx: &RoutingCtx) -> Option<(icn_topology::ChannelId, u8)> {
        for dim in 0..topo.n() {
            let dir = match topo.routing_offset(ctx.current, ctx.dst, dim) {
                RoutingOffset::Zero => continue,
                RoutingOffset::Dir(dir, _) => dir,
                // Tie between directions: break deterministically towards
                // Plus so the relation stays a (static) function.
                RoutingOffset::Either(_) => Direction::Plus,
            };
            let ch = topo
                .channel_from(ctx.current, dim, dir)
                .expect("minimal direction must have a channel");
            return Some((ch, dim as u8));
        }
        None
    }
}

impl RoutingAlgorithm for Dor {
    fn name(&self) -> &'static str {
        "DOR"
    }

    fn candidates(&self, topo: &KAryNCube, vcs: usize, ctx: &RoutingCtx, out: &mut Vec<Candidate>) {
        if let Some((ch, _)) = Self::next_hop(topo, ctx) {
            out.push(Candidate {
                channel: ch,
                vcs: VcMask::all(vcs),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_topology::{Coords, NodeId};

    fn route(topo: &KAryNCube, cur: NodeId, dst: NodeId) -> Vec<Candidate> {
        let mut out = Vec::new();
        Dor.candidates(topo, 1, &RoutingCtx::fresh(cur, dst, cur), &mut out);
        out
    }

    #[test]
    fn resolves_dimension_zero_first() {
        let t = KAryNCube::torus(8, 2, true);
        let cur = t.node_at(&Coords::new(&[0, 0]));
        let dst = t.node_at(&Coords::new(&[2, 3]));
        let cands = route(&t, cur, dst);
        assert_eq!(cands.len(), 1);
        let info = t.channel(cands[0].channel);
        assert_eq!(info.dim, 0);
        assert_eq!(info.dir, Direction::Plus);
    }

    #[test]
    fn turns_to_next_dimension_when_aligned() {
        let t = KAryNCube::torus(8, 2, true);
        let cur = t.node_at(&Coords::new(&[2, 0]));
        let dst = t.node_at(&Coords::new(&[2, 3]));
        let cands = route(&t, cur, dst);
        let info = t.channel(cands[0].channel);
        assert_eq!(info.dim, 1);
    }

    #[test]
    fn takes_wraparound_shortcut_bidirectional() {
        let t = KAryNCube::torus(8, 2, true);
        let cur = t.node_at(&Coords::new(&[0, 0]));
        let dst = t.node_at(&Coords::new(&[7, 0]));
        let cands = route(&t, cur, dst);
        let info = t.channel(cands[0].channel);
        assert_eq!(info.dir, Direction::Minus);
    }

    #[test]
    fn unidirectional_always_plus() {
        let t = KAryNCube::torus(8, 2, false);
        let cur = t.node_at(&Coords::new(&[3, 0]));
        let dst = t.node_at(&Coords::new(&[1, 5]));
        let cands = route(&t, cur, dst);
        let info = t.channel(cands[0].channel);
        assert_eq!(info.dim, 0);
        assert_eq!(info.dir, Direction::Plus);
    }

    #[test]
    fn no_candidates_at_destination() {
        let t = KAryNCube::torus(8, 2, true);
        let n = NodeId(5);
        assert!(route(&t, n, n).is_empty());
    }

    #[test]
    fn minimal_and_connected_on_all_variants() {
        for topo in [
            KAryNCube::torus(6, 2, true),
            KAryNCube::torus(6, 2, false),
            KAryNCube::torus(3, 3, true),
            KAryNCube::mesh(5, 2),
        ] {
            crate::check_minimal_connected(&Dor, &topo, 2).unwrap();
        }
    }

    #[test]
    fn vc_mask_covers_all_vcs() {
        let t = KAryNCube::torus(8, 2, true);
        let mut out = Vec::new();
        let ctx = RoutingCtx::fresh(NodeId(0), NodeId(9), NodeId(0));
        Dor.candidates(&t, 4, &ctx, &mut out);
        assert_eq!(out[0].vcs, VcMask::all(4));
    }
}
