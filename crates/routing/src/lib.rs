//! Routing relations for the deadlock characterization study.
//!
//! A routing algorithm maps (current node, destination, message state) to an
//! ordered list of **candidate** output channels, each with a mask of the
//! virtual channels the message may acquire on it. The order encodes the
//! paper's selection policy (§3): continuing in the current dimension is
//! preferred over turning. A blocked header's wait-for set is *every* VC in
//! every candidate — that is what determines the fan-out of dashed arcs in
//! the channel wait-for graph.
//!
//! The two algorithms the paper studies put **no restrictions** on VC use
//! (which is what makes deadlock possible):
//!
//! * [`Dor`] — static dimension-order routing.
//! * [`Tfar`] — minimal true fully adaptive routing.
//!
//! Because the paper's central question is *avoidance vs recovery*, the
//! avoidance-based baselines it contrasts against are implemented too:
//!
//! * [`DatelineDor`] — DOR made deadlock-free on tori via dateline VC classes
//!   (Dally & Seitz style).
//! * [`DuatoFar`] — fully adaptive routing with a dateline-DOR escape layer
//!   (Duato's protocol \[7\]).
//! * [`WestFirst`] — turn-model adaptive routing for 2-D meshes \[2\].

mod ctx;
mod dateline;
mod dor;
mod duato;
mod misroute;
mod negative_first;
mod tfar;
mod turn;
pub mod verify;

pub use ctx::{Candidate, RoutingCtx, VcMask, MAX_VCS};
pub use dateline::DatelineDor;
pub use dor::Dor;
pub use duato::DuatoFar;
pub use misroute::MisroutingTfar;
pub use negative_first::NegativeFirst;
pub use tfar::Tfar;
pub use turn::WestFirst;

use icn_topology::KAryNCube;

/// A routing relation: supplies candidate (channel, VC-set) pairs.
pub trait RoutingAlgorithm: Send + Sync {
    /// Short human-readable name ("DOR", "TFAR", ...).
    fn name(&self) -> &'static str;

    /// Minimum number of virtual channels per physical channel required for
    /// the relation to be well defined.
    fn min_vcs(&self) -> usize {
        1
    }

    /// Appends candidates for the message described by `ctx`, in preference
    /// order. An empty result with `ctx.current != ctx.dst` means the
    /// relation is not connected for this pair (a bug for all algorithms
    /// here, and asserted against in tests).
    fn candidates(&self, topo: &KAryNCube, vcs: usize, ctx: &RoutingCtx, out: &mut Vec<Candidate>);
}

/// Validates that an algorithm is *minimal* and *connected* on a topology:
/// every candidate strictly decreases the distance to the destination, and
/// at least one candidate exists whenever current ≠ destination (the
/// relations' own tests).
#[cfg(test)]
pub(crate) fn check_minimal_connected(
    algo: &dyn RoutingAlgorithm,
    topo: &KAryNCube,
    vcs: usize,
) -> Result<(), String> {
    use icn_topology::NodeId;
    let mut out = Vec::new();
    for cur in 0..topo.num_nodes() as u32 {
        for dst in 0..topo.num_nodes() as u32 {
            if cur == dst {
                continue;
            }
            let ctx = RoutingCtx::fresh(NodeId(cur), NodeId(dst), NodeId(cur));
            out.clear();
            algo.candidates(topo, vcs, &ctx, &mut out);
            if out.is_empty() {
                return Err(format!("no candidates from n{cur} to n{dst}"));
            }
            let d = topo.distance(NodeId(cur), NodeId(dst));
            for cand in &out {
                if cand.vcs.is_empty() {
                    return Err(format!("empty VC mask on {:?}", cand.channel));
                }
                let next = topo.channel(cand.channel).dst;
                let nd = topo.distance(next, NodeId(dst));
                if nd + 1 != d {
                    return Err(format!(
                        "non-minimal hop n{cur}->{:?} towards n{dst} (d {d} -> {nd})",
                        cand.channel
                    ));
                }
            }
        }
    }
    Ok(())
}
