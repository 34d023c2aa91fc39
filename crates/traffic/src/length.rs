//! Message-length distributions (hybrid-length workloads, paper §5).

use rand::Rng;

/// How long generated messages are, in flits.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MsgLenDist {
    /// Every message has the configured fixed length.
    Fixed(usize),
    /// Bimodal mix: `long_frac` of messages have `long` flits, the rest
    /// `short` — the classic request/reply hybrid traffic shape.
    Bimodal {
        short: usize,
        long: usize,
        long_frac: f64,
    },
}

impl MsgLenDist {
    /// Mean length in flits (used to normalize offered load).
    pub fn mean(&self) -> f64 {
        match *self {
            MsgLenDist::Fixed(l) => l as f64,
            MsgLenDist::Bimodal {
                short,
                long,
                long_frac,
            } => short as f64 * (1.0 - long_frac) + long as f64 * long_frac,
        }
    }

    /// Samples one message length.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        match *self {
            MsgLenDist::Fixed(l) => l,
            MsgLenDist::Bimodal {
                short,
                long,
                long_frac,
            } => {
                if rng.gen_bool(long_frac) {
                    long
                } else {
                    short
                }
            }
        }
    }

    /// Checks the distribution's parameters.
    pub fn check(&self) -> Result<(), &'static str> {
        match *self {
            MsgLenDist::Fixed(0) => Err("messages need a flit"),
            MsgLenDist::Fixed(_) => Ok(()),
            MsgLenDist::Bimodal {
                short,
                long,
                long_frac,
            } => {
                if short < 1 || long < short {
                    Err("need 1 <= short <= long")
                } else if !(0.0..=1.0).contains(&long_frac) {
                    Err("fraction in [0,1]")
                } else {
                    Ok(())
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fixed_is_constant() {
        let d = MsgLenDist::Fixed(32);
        d.check().unwrap();
        assert_eq!(d.mean(), 32.0);
        let mut rng = StdRng::seed_from_u64(1);
        assert!((0..100).all(|_| d.sample(&mut rng) == 32));
    }

    #[test]
    fn bimodal_mean_and_mix() {
        let d = MsgLenDist::Bimodal {
            short: 8,
            long: 64,
            long_frac: 0.25,
        };
        d.check().unwrap();
        assert_eq!(d.mean(), 8.0 * 0.75 + 64.0 * 0.25);
        let mut rng = StdRng::seed_from_u64(2);
        let longs = (0..10_000).filter(|_| d.sample(&mut rng) == 64).count();
        let frac = longs as f64 / 10_000.0;
        assert!((frac - 0.25).abs() < 0.02, "observed {frac}");
    }

    #[test]
    fn bimodal_rejects_inverted() {
        let d = MsgLenDist::Bimodal {
            short: 64,
            long: 8,
            long_frac: 0.5,
        };
        assert!(d.check().unwrap_err().contains("short <= long"));
    }
}
