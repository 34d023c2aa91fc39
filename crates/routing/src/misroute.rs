//! Non-minimal (misrouting) fully adaptive routing — the paper's §5
//! future-work item on the effect of misrouting on deadlock formation.

use crate::tfar::{profitable_channels, PROFITABLE_BUF};
use crate::{Candidate, RoutingAlgorithm, RoutingCtx, VcMask};
use icn_topology::KAryNCube;

/// TFAR extended with bounded misrouting: profitable channels are offered
/// first (highest preference); while the message has misroute budget left,
/// every *other* outgoing channel is offered as a lower-preference
/// fallback. The simulator counts each non-distance-reducing hop against
/// the budget, so a message degenerates to minimal routing after
/// `max_misroutes` detours — bounding livelock.
///
/// Misrouting widens the wait-for fan-out even further than TFAR, which
/// by the paper's §2 argument should *reduce* deadlock probability (more
/// alternatives per blocked header) while hurting latency at high load.
#[derive(Clone, Copy, Debug)]
pub struct MisroutingTfar {
    /// Maximum misroutes (non-minimal hops) per message.
    pub max_misroutes: u8,
}

impl Default for MisroutingTfar {
    fn default() -> Self {
        MisroutingTfar { max_misroutes: 4 }
    }
}

impl RoutingAlgorithm for MisroutingTfar {
    fn name(&self) -> &'static str {
        "TFAR-misroute"
    }

    fn candidates(&self, topo: &KAryNCube, vcs: usize, ctx: &RoutingCtx, out: &mut Vec<Candidate>) {
        let mask = VcMask::all(vcs);
        let mut buf = PROFITABLE_BUF;
        let profitable = profitable_channels(topo, ctx, &mut buf);
        out.extend(
            profitable
                .iter()
                .map(|&(channel, _)| Candidate { channel, vcs: mask }),
        );
        if ctx.misroutes < self.max_misroutes {
            for &ch in topo.channels_from(ctx.current) {
                if profitable.iter().all(|&(p, _)| p != ch) {
                    out.push(Candidate {
                        channel: ch,
                        vcs: mask,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_topology::{Coords, NodeId};

    fn ctx(topo: &KAryNCube, cur: &[u16], dst: &[u16], misroutes: u8) -> RoutingCtx {
        let cur = topo.node_at(&Coords::new(cur));
        let dst = topo.node_at(&Coords::new(dst));
        let mut c = RoutingCtx::fresh(cur, dst, cur);
        c.misroutes = misroutes;
        c
    }

    #[test]
    fn profitable_channels_come_first() {
        let t = KAryNCube::torus(8, 2, true);
        let mut out = Vec::new();
        MisroutingTfar::default().candidates(&t, 1, &ctx(&t, &[0, 0], &[2, 3], 0), &mut out);
        // 4 outgoing channels total; 2 profitable lead.
        assert_eq!(out.len(), 4);
        let d0 = t.distance(t.channel(out[0].channel).dst, NodeId(8 * 3 + 2));
        let d_last = t.distance(t.channel(out[3].channel).dst, NodeId(8 * 3 + 2));
        assert!(d0 < d_last);
    }

    #[test]
    fn budget_exhaustion_reverts_to_minimal() {
        let t = KAryNCube::torus(8, 2, true);
        let algo = MisroutingTfar { max_misroutes: 2 };
        let mut out = Vec::new();
        algo.candidates(&t, 1, &ctx(&t, &[0, 0], &[2, 3], 2), &mut out);
        assert_eq!(out.len(), 2, "only the profitable channels remain");
    }

    #[test]
    fn zero_budget_equals_tfar() {
        let t = KAryNCube::torus(6, 2, true);
        let algo = MisroutingTfar { max_misroutes: 0 };
        let tfar = crate::Tfar;
        for (cur, dst) in [([0u16, 0], [3u16, 2]), ([1, 1], [1, 4]), ([5, 5], [0, 0])] {
            let c = ctx(&t, &cur, &dst, 0);
            let mut a = Vec::new();
            let mut b = Vec::new();
            algo.candidates(&t, 2, &c, &mut a);
            tfar.candidates(&t, 2, &c, &mut b);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn wider_fanout_than_tfar_with_budget() {
        let t = KAryNCube::torus(8, 2, true);
        let c = ctx(&t, &[2, 0], &[2, 3], 0); // adaptivity exhausted in dim 0
        let mut mis = Vec::new();
        let mut tfar = Vec::new();
        MisroutingTfar::default().candidates(&t, 1, &c, &mut mis);
        crate::Tfar.candidates(&t, 1, &c, &mut tfar);
        assert_eq!(tfar.len(), 1);
        assert_eq!(mis.len(), 4, "misrouting re-opens the other directions");
    }
}
