//! Duato's protocol: fully adaptive routing with an escape layer.

use crate::tfar::{profitable_channels, PROFITABLE_BUF};
use crate::{Candidate, Dor, RoutingAlgorithm, RoutingCtx, VcMask};
use icn_topology::KAryNCube;

/// Fully adaptive routing kept deadlock-free by Duato's protocol \[7\]:
/// virtual channels 2..V are fully adaptive (any profitable channel), while
/// VCs 0 and 1 form a dateline-DOR *escape* subnetwork. A blocked message
/// can always fall back to the escape channel, so cycles among adaptive
/// channels never close into a knot — this is the "escape resource"
/// (channel 7 of Figure 4b) that turns would-be deadlocks into cyclic
/// non-deadlocks.
///
/// Requires at least 3 VCs per physical channel.
#[derive(Clone, Copy, Debug, Default)]
pub struct DuatoFar;

impl RoutingAlgorithm for DuatoFar {
    fn name(&self) -> &'static str {
        "Duato"
    }

    fn min_vcs(&self) -> usize {
        3
    }

    fn candidates(&self, topo: &KAryNCube, vcs: usize, ctx: &RoutingCtx, out: &mut Vec<Candidate>) {
        debug_assert!(vcs >= self.min_vcs());
        // Adaptive layer: every profitable channel, VCs 2..V.
        let mut buf = PROFITABLE_BUF;
        let chans = profitable_channels(topo, ctx, &mut buf);
        out.extend(chans.iter().map(|&(channel, _)| Candidate {
            channel,
            vcs: VcMask::from(2, vcs),
        }));
        // Escape layer: the dimension-order hop on the dateline VC class.
        if let Some((ch, dim)) = Dor::next_hop(topo, ctx) {
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
    fn adaptive_plus_escape_candidates() {
        let t = KAryNCube::torus(8, 2, true);
        let cur = t.node_at(&Coords::new(&[0, 0]));
        let dst = t.node_at(&Coords::new(&[2, 3]));
        let ctx = RoutingCtx::fresh(cur, dst, cur);
        let mut out = Vec::new();
        DuatoFar.candidates(&t, 3, &ctx, &mut out);
        // two adaptive (dims 0 and 1) + one escape
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].vcs, VcMask::only(2));
        assert_eq!(out[1].vcs, VcMask::only(2));
        assert_eq!(out[2].vcs, VcMask::only(0));
    }

    #[test]
    fn escape_tracks_dateline() {
        let t = KAryNCube::torus(8, 2, true);
        let cur = t.node_at(&Coords::new(&[1, 0]));
        let dst = t.node_at(&Coords::new(&[4, 0]));
        let mut ctx = RoutingCtx::fresh(NodeId(0), dst, cur);
        ctx.crossed_dateline = 0b01;
        let mut out = Vec::new();
        DuatoFar.candidates(&t, 4, &ctx, &mut out);
        let escape = out.last().unwrap();
        assert_eq!(escape.vcs, VcMask::only(1));
        // adaptive mask excludes escape VCs
        assert_eq!(out[0].vcs, VcMask::from(2, 4));
    }

    #[test]
    fn adaptive_and_escape_vcs_disjoint() {
        let t = KAryNCube::torus(8, 2, true);
        let ctx = RoutingCtx::fresh(NodeId(0), NodeId(27), NodeId(0));
        let mut out = Vec::new();
        DuatoFar.candidates(&t, 4, &ctx, &mut out);
        let escape = out.last().unwrap().vcs;
        for c in &out[..out.len() - 1] {
            assert_eq!(c.vcs.0 & escape.0, 0);
        }
    }

    #[test]
    fn minimal_and_connected() {
        for topo in [KAryNCube::torus(6, 2, true), KAryNCube::torus(6, 2, false)] {
            crate::check_minimal_connected(&DuatoFar, &topo, 3).unwrap();
        }
    }
}
