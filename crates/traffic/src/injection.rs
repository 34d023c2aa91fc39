//! Injection processes and capacity-normalized load.

use icn_topology::KAryNCube;
use rand::Rng;

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
#[derive(Clone, Copy, Debug)]
pub struct BernoulliInjector {
    prob: f64,
}

impl BernoulliInjector {
    /// Process generating messages at `rate` messages per node per cycle.
    ///
    /// Rates above 1.0 are clamped: a node can start at most one message per
    /// cycle (the injection channel is a single resource).
    pub fn new(rate: f64) -> Self {
        assert!(rate >= 0.0 && rate.is_finite());
        BernoulliInjector {
            prob: rate.min(1.0),
        }
    }

    /// The per-cycle generation probability.
    pub fn prob(&self) -> f64 {
        self.prob
    }

    /// Whether this node generates a message this cycle.
    #[inline]
    pub fn fires<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        self.prob > 0.0 && rng.gen_bool(self.prob)
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

    #[test]
    fn over_capacity_clamps() {
        let inj = BernoulliInjector::new(7.5);
        assert_eq!(inj.prob(), 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        assert!(inj.fires(&mut rng));
    }
}
