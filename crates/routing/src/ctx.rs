//! Per-message routing context and VC masks.
//!
//! Both types are `Copy` and fixed-size, so a routing relation reads its
//! inputs and writes its VC sets without touching the heap; the only
//! storage a `candidates` call grows is the caller's reused output buffer.

use icn_topology::{ChannelId, NodeId};

/// Maximum virtual channels per physical channel supported by [`VcMask`].
pub const MAX_VCS: usize = 16;

/// Bitmask over the virtual channels of one physical channel.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct VcMask(pub u16);

impl VcMask {
    /// Mask allowing the first `vcs` virtual channels.
    #[inline]
    pub fn all(vcs: usize) -> Self {
        debug_assert!((1..=MAX_VCS).contains(&vcs));
        VcMask(if vcs == MAX_VCS {
            u16::MAX
        } else {
            (1u16 << vcs) - 1
        })
    }

    /// Mask allowing only virtual channel `vc`.
    #[inline]
    pub fn only(vc: usize) -> Self {
        debug_assert!(vc < MAX_VCS);
        VcMask(1 << vc)
    }

    /// Mask allowing virtual channels `lo..vcs` (the "adaptive" VCs in
    /// Duato-style protocols, with `0..lo` reserved for escape).
    #[inline]
    pub fn from(lo: usize, vcs: usize) -> Self {
        debug_assert!(lo < vcs && vcs <= MAX_VCS);
        VcMask(Self::all(vcs).0 & !Self::all(lo).0)
    }

    /// Whether the mask allows VC `vc`.
    #[inline]
    pub fn contains(self, vc: usize) -> bool {
        self.0 & (1 << vc) != 0
    }

    /// True when no VC is allowed.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of VCs allowed.
    #[inline]
    pub fn count(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Iterates over the allowed VC indices in increasing order, one step
    /// per set bit (`trailing_zeros`, then clear the lowest bit) rather
    /// than one test per possible VC.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let v = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(v)
        })
    }
}

/// One routing candidate: a physical channel plus the VCs the message may
/// acquire on it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Candidate {
    pub channel: ChannelId,
    pub vcs: VcMask,
}

/// Everything a routing relation may consult about a message.
///
/// The simulator owns this state and keeps it current: `last_dim` implements
/// the paper's selection policy (prefer continuing in the current dimension
/// over turning) and `crossed_dateline` carries the per-dimension VC-class
/// switch used by the avoidance baselines.
#[derive(Clone, Copy, Debug)]
pub struct RoutingCtx {
    /// Node the message was injected at.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Node the header currently sits at.
    pub current: NodeId,
    /// Dimension of the last hop taken, if any.
    pub last_dim: Option<u8>,
    /// Bit `d` set once the message has traversed the wraparound link of
    /// dimension `d` (dateline crossing).
    pub crossed_dateline: u8,
    /// Non-minimal hops taken so far (only meaningful to misrouting
    /// relations; minimal relations ignore it).
    pub misroutes: u8,
}

impl RoutingCtx {
    /// Context for a message that has not yet taken any hop.
    pub fn fresh(src: NodeId, dst: NodeId, current: NodeId) -> Self {
        RoutingCtx {
            src,
            dst,
            current,
            last_dim: None,
            crossed_dateline: 0,
            misroutes: 0,
        }
    }

    /// Whether the dateline of dimension `d` has been crossed.
    #[inline]
    pub fn crossed(&self, d: u8) -> bool {
        self.crossed_dateline & (1 << d) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_all() {
        let m = VcMask::all(3);
        assert!(m.contains(0) && m.contains(1) && m.contains(2));
        assert!(!m.contains(3));
        assert_eq!(m.count(), 3);
    }

    #[test]
    fn mask_all_sixteen() {
        let m = VcMask::all(MAX_VCS);
        assert_eq!(m.count(), MAX_VCS);
    }

    #[test]
    fn mask_only() {
        let m = VcMask::only(2);
        assert_eq!(m.count(), 1);
        assert!(m.contains(2));
        assert!(!m.contains(0));
    }

    #[test]
    fn mask_from() {
        let m = VcMask::from(1, 4);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn mask_iter_order() {
        let m = VcMask(0b1010);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![1, 3]);
        for bits in (0..=u16::MAX).step_by(251).chain([0, 1, 0x8000, u16::MAX]) {
            let m = VcMask(bits);
            let want: Vec<usize> = (0..MAX_VCS).filter(|&v| m.contains(v)).collect();
            assert_eq!(m.iter().collect::<Vec<_>>(), want, "mask {bits:#06x}");
        }
    }

    #[test]
    fn ctx_dateline_bits() {
        let mut ctx = RoutingCtx::fresh(NodeId(0), NodeId(5), NodeId(0));
        assert!(!ctx.crossed(0));
        ctx.crossed_dateline |= 1 << 1;
        assert!(ctx.crossed(1));
        assert!(!ctx.crossed(0));
    }
}
