//! Injection processes and capacity-normalized load.

use std::ops::Range;

use icn_topology::KAryNCube;
use rand::RngCore;

/// Converts a normalized load (fraction of network capacity, 1.0 = links
/// saturated given the average travel distance) into a per-node, per-cycle
/// *message* generation probability for messages of `mean_len` flits on
/// average.
///
/// The paper normalizes load "based on total link bandwidth and average
/// internode distance", which differs between the uni- and bidirectional
/// networks of Figure 5 — this function reproduces that normalization.
/// Dividing by the *mean* length lets hybrid-length workloads compare at
/// equal flit pressure.
pub fn message_rate(topo: &KAryNCube, load: f64, mean_len: f64) -> f64 {
    check_load(load).unwrap_or_else(|e| panic!("{e}"));
    assert!(mean_len > 0.0, "messages need at least one flit");
    let flits_per_node_cycle = load * topo.capacity_flits_per_node_cycle();
    flits_per_node_cycle / mean_len
}

/// Refuses a load [`message_rate`] cannot normalize: a negative one (or NaN).
pub fn check_load(load: f64) -> Result<(), &'static str> {
    if load >= 0.0 {
        Ok(())
    } else {
        Err("load must be non-negative")
    }
}

/// Bernoulli (geometric inter-arrival) injection: each cycle each node
/// independently generates a message with fixed probability.
/// A node fires when its draw's top 53 bits `u` are below `ceil(prob · 2^53)`:
/// `gen_bool(prob)`'s exact test `u · 2^-53 < prob`, in integers.
#[derive(Clone, Copy, Debug)]
pub struct BernoulliInjector {
    prob: f64,
    below: u64,
}

impl BernoulliInjector {
    /// Process generating messages at `rate` messages per node per cycle.
    ///
    /// Rates above 1.0 are clamped: a node can start at most one message per
    /// cycle (the injection channel is a single resource).
    pub fn new(rate: f64) -> Self {
        assert!(rate >= 0.0 && rate.is_finite());
        let prob = rate.min(1.0);
        BernoulliInjector {
            prob,
            below: (prob * (1u64 << 53) as f64).ceil() as u64,
        }
    }

    /// The per-cycle generation probability.
    pub fn prob(&self) -> f64 {
        self.prob
    }

    /// Whether this node generates a message this cycle.
    #[inline]
    pub fn fires<R: RngCore + ?Sized>(&self, rng: &mut R) -> bool {
        self.below > 0 && rng.next_u64() >> 11 < self.below
    }

    /// The first node of `nodes` that generates a message, drawing as
    /// [`fires`](Self::fires) would node by node up to and including it.
    /// The generator's state is copied into registers for the scan and
    /// written back once; inlined, the copy would merge into the caller's
    /// stack slot, and each draw would store and reload it again.
    #[inline(never)]
    pub fn next_firing<R: RngCore + Clone>(
        &self,
        rng: &mut R,
        mut nodes: Range<u32>,
    ) -> Option<u32> {
        if self.below == 0 {
            return None;
        }
        let mut local = rng.clone();
        let hit = nodes.find(|_| local.next_u64() >> 11 < self.below);
        *rng = local;
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn full_load_rate_bidirectional() {
        let t = KAryNCube::torus(16, 2, true);
        // capacity ~0.498 flits/node/cycle; 32-flit messages.
        let r = message_rate(&t, 1.0, 32.0);
        assert!((r - 0.498 / 32.0).abs() < 1e-3, "rate {r}");
    }

    #[test]
    fn uni_capacity_lower_than_bi() {
        let uni = KAryNCube::torus(16, 2, false);
        let bi = KAryNCube::torus(16, 2, true);
        assert!(message_rate(&uni, 1.0, 32.0) < message_rate(&bi, 1.0, 32.0));
    }

    #[test]
    fn rate_scales_linearly_with_load() {
        let t = KAryNCube::torus(8, 2, true);
        let half = message_rate(&t, 0.5, 16.0);
        let full = message_rate(&t, 1.0, 16.0);
        assert!((full - 2.0 * half).abs() < 1e-12);
    }

    #[test]
    fn zero_load_never_fires() {
        let inj = BernoulliInjector::new(0.0);
        let mut rng = StdRng::seed_from_u64(1);
        assert!((0..1000).all(|_| !inj.fires(&mut rng)));
    }

    #[test]
    fn firing_rate_matches_probability() {
        let inj = BernoulliInjector::new(0.25);
        let mut rng = StdRng::seed_from_u64(2);
        let fires = (0..40_000).filter(|_| inj.fires(&mut rng)).count();
        let frac = fires as f64 / 40_000.0;
        assert!((frac - 0.25).abs() < 0.01, "observed {frac}");
    }

    /// A generator whose every draw is one fixed word.
    #[derive(Clone)]
    struct Fixed(u64);

    impl RngCore for Fixed {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    /// `fires` on the 53-bit draw `u` agrees with `gen_bool(p)` on it.
    fn agrees(p: f64, u: u64) -> bool {
        use rand::Rng;
        let inj = BernoulliInjector::new(p);
        inj.fires(&mut Fixed(u << 11)) == Fixed(u << 11).gen_bool(p)
    }

    #[test]
    fn integer_test_equals_gen_bool() {
        let top = (1u64 << 53) - 1;
        let mut rng = StdRng::seed_from_u64(4);
        let fixed = [
            0.0,
            2f64.powi(-60),
            2f64.powi(-53),
            0.0156,
            0.5,
            1.0 - 2f64.powi(-53),
            1.0,
        ];
        let random = (0..1000).map(|i| {
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            // Every other p is scaled down by up to 2^-63, so small
            // probabilities are covered too.
            if i % 2 == 0 {
                u
            } else {
                u * 2f64.powi(-((rng.next_u64() % 64) as i32))
            }
        });
        for p in fixed.into_iter().chain(random.collect::<Vec<_>>()) {
            let below = BernoulliInjector::new(p).below;
            // Both sides of the threshold, the ends, and random draws.
            let edges = [below.saturating_sub(1), below, below + 1, 0, top];
            let draws = (0..20).map(|_| rng.next_u64() >> 11);
            for u in edges.into_iter().filter(|&u| u <= top).chain(draws) {
                assert!(agrees(p, u), "p {p:e}, u {u}");
            }
        }
    }

    #[test]
    fn next_firing_replays_the_fires_loop() {
        let mut pick = StdRng::seed_from_u64(5);
        for _ in 0..2000 {
            let p = [0.0, 0.001, 0.02, 0.3, 1.0][(pick.next_u64() % 5) as usize];
            let inj = BernoulliInjector::new(p);
            let lo = (pick.next_u64() % 200) as u32;
            let hi = lo + (pick.next_u64() % 200) as u32;
            let seed = pick.next_u64();
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = StdRng::seed_from_u64(seed);
            let found = inj.next_firing(&mut a, lo..hi);
            let expect = (lo..hi).find(|_| inj.fires(&mut b));
            assert_eq!(found, expect, "p {p}, {lo}..{hi}");
            // Both generators were left in the same state.
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn next_firing_on_an_empty_range_draws_nothing() {
        let inj = BernoulliInjector::new(1.0);
        let mut a = StdRng::seed_from_u64(6);
        let mut b = StdRng::seed_from_u64(6);
        assert_eq!(inj.next_firing(&mut a, 7..7), None);
        assert_eq!(a.next_u64(), b.next_u64());
        // A zero rate draws nothing either.
        assert_eq!(BernoulliInjector::new(0.0).next_firing(&mut a, 0..50), None);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn over_capacity_clamps() {
        let inj = BernoulliInjector::new(7.5);
        assert_eq!(inj.prob(), 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        assert!(inj.fires(&mut rng));
    }
}
