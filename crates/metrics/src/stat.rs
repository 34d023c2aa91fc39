//! Running mean.

/// Welford's online mean over `f64` samples. Its M2 sum of squared
/// deviations is kept and encoded with the mean, so a decoded accumulator
/// continues exactly.
#[derive(Clone, Copy, Debug, Default)]
pub struct Mean {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Mean {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a sample.
    #[inline]
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// The mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Serializes the accumulator state: `n`, then the running mean and
    /// M2 as `f64` bit patterns. Lossless counterpart of [`Mean::decode`].
    pub fn encode(&self) -> [u64; 3] {
        [self.n, self.mean.to_bits(), self.m2.to_bits()]
    }

    /// Rebuilds an accumulator from [`Mean::encode`] output.
    pub fn decode(words: [u64; 3]) -> Mean {
        Mean {
            n: words[0],
            mean: f64::from_bits(words[1]),
            m2: f64::from_bits(words[2]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Population variance, or 0.0 with fewer than two samples.
    fn variance(m: &Mean) -> f64 {
        if m.n < 2 {
            0.0
        } else {
            m.m2 / m.n as f64
        }
    }

    #[test]
    fn empty_mean_zero() {
        assert_eq!(Mean::new().mean(), 0.0);
        assert_eq!(variance(&Mean::new()), 0.0);
    }

    #[test]
    fn known_values() {
        let mut m = Mean::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            m.record(x);
        }
        assert!((m.mean() - 5.0).abs() < 1e-12);
        assert!((variance(&m) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn single_sample() {
        let mut m = Mean::new();
        m.record(3.5);
        assert_eq!(m.mean(), 3.5);
        assert_eq!(variance(&m), 0.0);
        assert_eq!(m.count(), 1);
    }
}
