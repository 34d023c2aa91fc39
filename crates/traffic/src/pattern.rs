//! Destination-selection patterns.

use icn_topology::{Coords, KAryNCube, NodeId};
use rand::Rng;

/// Spatial traffic pattern: which destination a message from `src` targets.
///
/// Permutation patterns may map a node onto itself (e.g. the diagonal under
/// [`Pattern::Transpose`]); such nodes generate no traffic, which is exactly
/// the property the paper leans on in §3.6 when explaining why DOR sees no
/// deadlock under some non-uniform patterns (the "circular overlap" needed
/// for a single-cycle deadlock cannot form).
#[derive(Clone, Debug, PartialEq)]
pub enum Pattern {
    /// Every other node equally likely.
    Uniform,
    /// Destination is the bit-reversal of the source id (node count must be
    /// a power of two).
    BitReversal,
    /// Coordinate transpose: (c0, c1, ..., c_{n-1}) → (c_{n-1}, ..., c1, c0).
    Transpose,
    /// Destination id is the source id rotated left one bit (power of two).
    PerfectShuffle,
    /// Destination id is the bitwise complement of the source id (power of
    /// two). Not in the paper's list but a standard adversarial permutation,
    /// kept for the extension experiments.
    BitComplement,
    /// A `fraction` of messages target the single hot node; the rest are
    /// uniform.
    HotSpot { hot: NodeId, fraction: f64 },
}

impl Pattern {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Pattern::Uniform => "uniform",
            Pattern::BitReversal => "bit-reversal",
            Pattern::Transpose => "transpose",
            Pattern::PerfectShuffle => "perfect-shuffle",
            Pattern::BitComplement => "bit-complement",
            Pattern::HotSpot { .. } => "hot-spot",
        }
    }

    /// Refuses a network of `num_nodes` nodes this pattern cannot map:
    /// the bit permutations need a power-of-two node count, and a hot spot
    /// needs its node inside the network and its fraction in [0, 1].
    pub fn check(&self, num_nodes: usize) -> Result<(), String> {
        match *self {
            Pattern::BitReversal | Pattern::PerfectShuffle | Pattern::BitComplement
                if !num_nodes.is_power_of_two() =>
            {
                Err(format!(
                    "{} requires a power-of-two node count",
                    self.name()
                ))
            }
            Pattern::HotSpot { hot, .. } if hot.idx() >= num_nodes => Err(format!(
                "hot-spot node {} is outside the {num_nodes}-node network",
                hot.0
            )),
            Pattern::HotSpot { fraction, .. } if !(0.0..=1.0).contains(&fraction) => {
                Err("hot-spot fraction must be in [0, 1]".into())
            }
            _ => Ok(()),
        }
    }

    /// Picks the destination for a message injected at `src`, or `None` when
    /// the pattern maps `src` onto itself (the node stays silent).
    pub fn dest<R: Rng + ?Sized>(
        &self,
        topo: &KAryNCube,
        src: NodeId,
        rng: &mut R,
    ) -> Option<NodeId> {
        let n = topo.num_nodes() as u32;
        let dst = match self {
            Pattern::Uniform => {
                // Sample uniformly among the n-1 other nodes.
                let r = rng.gen_range(0..n - 1);
                NodeId(if r >= src.0 { r + 1 } else { r })
            }
            Pattern::BitReversal => {
                let bits = pow2_bits(n);
                NodeId(src.0.reverse_bits() >> (32 - bits))
            }
            Pattern::Transpose => {
                let c = topo.coords(src);
                let mut rev = [0u16; icn_topology::MAX_DIMS];
                for (d, slot) in rev.iter_mut().take(c.dims()).enumerate() {
                    *slot = c.get(c.dims() - 1 - d);
                }
                topo.node_at(&Coords::new(&rev[..c.dims()]))
            }
            Pattern::PerfectShuffle => {
                let bits = pow2_bits(n);
                let hi = (src.0 >> (bits - 1)) & 1;
                NodeId(((src.0 << 1) | hi) & (n - 1))
            }
            Pattern::BitComplement => NodeId(!src.0 & (n - 1)),
            Pattern::HotSpot { hot, fraction } => {
                if rng.gen_bool(*fraction) {
                    *hot
                } else {
                    let r = rng.gen_range(0..n - 1);
                    NodeId(if r >= src.0 { r + 1 } else { r })
                }
            }
        };
        (dst != src).then_some(dst)
    }
}

fn pow2_bits(n: u32) -> u32 {
    assert!(
        n.is_power_of_two(),
        "pattern requires a power-of-two node count"
    );
    n.trailing_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn uniform_never_self() {
        let t = KAryNCube::torus(4, 2, true);
        let mut r = rng();
        for _ in 0..1000 {
            let src = NodeId(r.gen_range(0..16));
            let d = Pattern::Uniform.dest(&t, src, &mut r).unwrap();
            assert_ne!(d, src);
        }
    }

    #[test]
    fn uniform_covers_all_destinations() {
        let t = KAryNCube::torus(4, 2, true);
        let mut r = rng();
        let mut seen = [false; 16];
        for _ in 0..2000 {
            let d = Pattern::Uniform.dest(&t, NodeId(0), &mut r).unwrap();
            seen[d.idx()] = true;
        }
        assert!(seen[1..].iter().all(|&s| s), "all non-self nodes reachable");
        assert!(!seen[0]);
    }

    #[test]
    fn bit_reversal_256() {
        let t = KAryNCube::torus(16, 2, true);
        let mut r = rng();
        // 256 nodes = 8 bits: 0b0000_0001 -> 0b1000_0000.
        let d = Pattern::BitReversal.dest(&t, NodeId(1), &mut r).unwrap();
        assert_eq!(d, NodeId(128));
        // palindromic id maps to itself -> None
        assert_eq!(Pattern::BitReversal.dest(&t, NodeId(0), &mut r), None);
        assert_eq!(
            Pattern::BitReversal.dest(&t, NodeId(0b10000001), &mut r),
            None
        );
    }

    #[test]
    fn bit_reversal_is_involution() {
        let t = KAryNCube::torus(16, 2, true);
        let mut r = rng();
        for s in 0..256u32 {
            if let Some(d) = Pattern::BitReversal.dest(&t, NodeId(s), &mut r) {
                let back = Pattern::BitReversal.dest(&t, d, &mut r).unwrap();
                assert_eq!(back, NodeId(s));
            }
        }
    }

    #[test]
    fn transpose_swaps_coords() {
        let t = KAryNCube::torus(16, 2, true);
        let mut r = rng();
        let src = t.node_at(&Coords::new(&[3, 11]));
        let d = Pattern::Transpose.dest(&t, src, &mut r).unwrap();
        assert_eq!(t.coords(d).as_slice(), &[11, 3]);
        // diagonal is silent
        let diag = t.node_at(&Coords::new(&[5, 5]));
        assert_eq!(Pattern::Transpose.dest(&t, diag, &mut r), None);
    }

    #[test]
    fn perfect_shuffle_rotates() {
        let t = KAryNCube::torus(16, 2, true);
        let mut r = rng();
        // 8 bits: 0b1000_0000 -> 0b0000_0001
        let d = Pattern::PerfectShuffle
            .dest(&t, NodeId(128), &mut r)
            .unwrap();
        assert_eq!(d, NodeId(1));
        let d = Pattern::PerfectShuffle
            .dest(&t, NodeId(0b0100_0001), &mut r)
            .unwrap();
        assert_eq!(d, NodeId(0b1000_0010));
    }

    #[test]
    fn bit_complement_involution() {
        let t = KAryNCube::torus(16, 2, true);
        let mut r = rng();
        let d = Pattern::BitComplement.dest(&t, NodeId(0), &mut r).unwrap();
        assert_eq!(d, NodeId(255));
        assert_eq!(
            Pattern::BitComplement.dest(&t, d, &mut r).unwrap(),
            NodeId(0)
        );
    }

    #[test]
    fn hotspot_biases_towards_hot_node() {
        let t = KAryNCube::torus(4, 2, true);
        let mut r = rng();
        let pat = Pattern::HotSpot {
            hot: NodeId(5),
            fraction: 0.5,
        };
        let mut hot_hits = 0;
        let trials = 4000;
        for _ in 0..trials {
            if pat.dest(&t, NodeId(0), &mut r) == Some(NodeId(5)) {
                hot_hits += 1;
            }
        }
        // 50% directed + uniform residue also occasionally picks node 5.
        let frac = hot_hits as f64 / trials as f64;
        assert!(frac > 0.45 && frac < 0.62, "hot fraction was {frac}");
    }

    #[test]
    fn hotspot_check_refuses_a_node_outside_the_network() {
        let at = |hot| Pattern::HotSpot {
            hot: NodeId(hot),
            fraction: 0.1,
        };
        assert_eq!(at(15).check(16), Ok(()));
        let err = at(16).check(16).unwrap_err();
        assert!(err.contains("outside the 16-node network"), "{err}");
    }

    #[test]
    fn hotspot_check_refuses_a_fraction_outside_the_unit_interval() {
        let with = |fraction| Pattern::HotSpot {
            hot: NodeId(0),
            fraction,
        };
        for ok in [0.0, 0.5, 1.0] {
            assert_eq!(with(ok).check(16), Ok(()), "fraction {ok}");
        }
        for bad in [-0.1, 1.5, f64::NAN] {
            let err = with(bad).check(16).unwrap_err();
            assert!(err.contains("fraction must be in [0, 1]"), "{err}");
        }
    }

    #[test]
    fn permutations_are_bijective_over_non_fixed_points() {
        let t = KAryNCube::torus(16, 2, true);
        let mut r = rng();
        for pat in [
            Pattern::BitReversal,
            Pattern::Transpose,
            Pattern::PerfectShuffle,
            Pattern::BitComplement,
        ] {
            let mut seen = std::collections::HashSet::new();
            for s in 0..256u32 {
                if let Some(d) = pat.dest(&t, NodeId(s), &mut r) {
                    assert!(seen.insert(d), "{} not injective", pat.name());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn bit_reversal_rejects_non_pow2() {
        let t = KAryNCube::torus(6, 2, true);
        let mut r = rng();
        let _ = Pattern::BitReversal.dest(&t, NodeId(1), &mut r);
    }
}
