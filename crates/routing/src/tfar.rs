//! Minimal true fully adaptive routing (TFAR).

use crate::{Candidate, RoutingAlgorithm, RoutingCtx, VcMask};
use icn_topology::{ChannelId, Direction, KAryNCube, RoutingOffset, MAX_DIMS};

/// Minimal true fully adaptive routing: any profitable physical channel in
/// any unresolved dimension, with unrestricted use of every virtual channel.
///
/// This is the paper's "TFAR". Because no routing restriction is enforced,
/// deadlock is possible; the fan-out of wait-for arcs it produces
/// (#profitable channels × #VCs) is what drives the multi-cycle deadlocks of
/// Figure 3.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tfar;

/// Empty stack storage for [`profitable_channels`]: at most two profitable
/// channels (an `Either` tie) per dimension.
pub(crate) const PROFITABLE_BUF: [(ChannelId, u8); 2 * MAX_DIMS] =
    [(ChannelId(0), 0); 2 * MAX_DIMS];

/// Collects every profitable (strictly distance-reducing) output channel
/// into `buf` and returns them, ordered by the paper's selection policy:
/// the dimension of the previous hop first, then increasing dimension
/// index; `Plus` before `Minus` on a tie. Shared by [`Tfar`], the Duato
/// baseline and misrouting TFAR; the stack buffer keeps it allocation-free.
pub(crate) fn profitable_channels<'a>(
    topo: &KAryNCube,
    ctx: &RoutingCtx,
    buf: &'a mut [(ChannelId, u8); 2 * MAX_DIMS],
) -> &'a [(ChannelId, u8)] {
    let mut len = 0;
    for dim in 0..topo.n() {
        let dirs: &[Direction] = match topo.routing_offset(ctx.current, ctx.dst, dim) {
            RoutingOffset::Zero => continue,
            RoutingOffset::Dir(Direction::Plus, _) => &[Direction::Plus],
            RoutingOffset::Dir(Direction::Minus, _) => &[Direction::Minus],
            RoutingOffset::Either(_) => &[Direction::Plus, Direction::Minus],
        };
        for &dir in dirs {
            let ch = topo
                .channel_from(ctx.current, dim, dir)
                .expect("minimal direction must have a channel");
            buf[len] = (ch, dim as u8);
            len += 1;
        }
    }
    let chans = &mut buf[..len];
    // Selection policy: favour continuing in the current dimension over
    // turning. Stable sort keeps the Plus-before-Minus and low-dimension
    // ordering within each preference class (and, this short, is an
    // in-place insertion sort).
    if let Some(last) = ctx.last_dim {
        chans.sort_by_key(|&(_, dim)| dim != last);
    }
    chans
}

impl RoutingAlgorithm for Tfar {
    fn name(&self) -> &'static str {
        "TFAR"
    }

    fn candidates(&self, topo: &KAryNCube, vcs: usize, ctx: &RoutingCtx, out: &mut Vec<Candidate>) {
        let mut buf = PROFITABLE_BUF;
        let chans = profitable_channels(topo, ctx, &mut buf);
        out.extend(chans.iter().map(|&(channel, _)| Candidate {
            channel,
            vcs: VcMask::all(vcs),
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_topology::{Coords, NodeId};

    fn route(topo: &KAryNCube, ctx: &RoutingCtx) -> Vec<Candidate> {
        let mut out = Vec::new();
        Tfar.candidates(topo, 1, ctx, &mut out);
        out
    }

    #[test]
    fn offers_all_profitable_dimensions() {
        let t = KAryNCube::torus(8, 2, true);
        let cur = t.node_at(&Coords::new(&[0, 0]));
        let dst = t.node_at(&Coords::new(&[2, 3]));
        let cands = route(&t, &RoutingCtx::fresh(cur, dst, cur));
        assert_eq!(cands.len(), 2);
        let dims: Vec<u8> = cands.iter().map(|c| t.channel(c.channel).dim).collect();
        assert_eq!(dims, vec![0, 1]);
    }

    #[test]
    fn adaptivity_exhausts_to_single_channel() {
        let t = KAryNCube::torus(8, 2, true);
        let cur = t.node_at(&Coords::new(&[2, 0]));
        let dst = t.node_at(&Coords::new(&[2, 3]));
        let cands = route(&t, &RoutingCtx::fresh(cur, dst, cur));
        assert_eq!(cands.len(), 1);
        assert_eq!(t.channel(cands[0].channel).dim, 1);
    }

    #[test]
    fn tie_offers_both_directions() {
        let t = KAryNCube::torus(8, 2, true);
        let cur = t.node_at(&Coords::new(&[0, 0]));
        let dst = t.node_at(&Coords::new(&[4, 0]));
        let cands = route(&t, &RoutingCtx::fresh(cur, dst, cur));
        assert_eq!(cands.len(), 2);
        let dirs: Vec<Direction> = cands.iter().map(|c| t.channel(c.channel).dir).collect();
        assert!(dirs.contains(&Direction::Plus) && dirs.contains(&Direction::Minus));
    }

    #[test]
    fn selection_policy_prefers_current_dimension() {
        let t = KAryNCube::torus(8, 2, true);
        let cur = t.node_at(&Coords::new(&[1, 1]));
        let dst = t.node_at(&Coords::new(&[3, 3]));
        let mut ctx = RoutingCtx::fresh(NodeId(0), dst, cur);
        ctx.last_dim = Some(1);
        let cands = route(&t, &ctx);
        assert_eq!(t.channel(cands[0].channel).dim, 1, "keeps going in dim 1");
        assert_eq!(t.channel(cands[1].channel).dim, 0);
    }

    #[test]
    fn no_last_dim_orders_by_dimension() {
        let t = KAryNCube::torus(8, 3, true);
        let cur = NodeId(0);
        let dst = t.node_at(&Coords::new(&[1, 1, 1]));
        let cands = route(&t, &RoutingCtx::fresh(cur, dst, cur));
        let dims: Vec<u8> = cands.iter().map(|c| t.channel(c.channel).dim).collect();
        assert_eq!(dims, vec![0, 1, 2]);
    }

    #[test]
    fn four_d_fanout() {
        let t = KAryNCube::torus(4, 4, true);
        let cur = NodeId(0);
        let dst = t.node_at(&Coords::new(&[1, 1, 1, 1]));
        let cands = route(&t, &RoutingCtx::fresh(cur, dst, cur));
        assert_eq!(cands.len(), 4);
    }

    #[test]
    fn minimal_and_connected_on_all_variants() {
        for topo in [
            KAryNCube::torus(6, 2, true),
            KAryNCube::torus(6, 2, false),
            KAryNCube::torus(3, 3, true),
            KAryNCube::mesh(5, 2),
        ] {
            crate::check_minimal_connected(&Tfar, &topo, 2).unwrap();
        }
    }
}
