//! Streaming log-2 histogram.

/// A histogram over `u64` samples with power-of-two buckets.
///
/// Tracks exact count/sum/min/max and an approximate distribution (each
/// bucket `b` covers `[2^(b-1), 2^b)`), in constant memory — latencies of
/// millions of messages are recorded without allocation.
#[derive(Clone, Debug)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; 65],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; 65],
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        let b = 64 - v.leading_zeros() as usize; // 0 -> bucket 0
        self.buckets[b] += 1;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// containing the q-th sample.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return if b == 0 { 0 } else { (1u64 << b) - 1 };
            }
        }
        self.max
    }

    /// Serializes the full internal state as `count, sum, min, max`
    /// followed by the 65 bucket counts (`min` raw, i.e. `u64::MAX` when
    /// empty) — the lossless counterpart of [`Histogram::decode`], used
    /// by sweep checkpoints.
    pub fn encode(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(4 + self.buckets.len());
        out.push(self.count);
        out.push(self.sum);
        out.push(self.min);
        out.push(self.max);
        out.extend_from_slice(&self.buckets);
        out
    }

    /// Rebuilds a histogram from [`Histogram::encode`] output; `None` on
    /// a wrong-length slice.
    pub fn decode(words: &[u64]) -> Option<Histogram> {
        if words.len() != 4 + 65 {
            return None;
        }
        let mut buckets = [0u64; 65];
        buckets.copy_from_slice(&words[4..]);
        Some(Histogram {
            count: words[0],
            sum: words[1],
            min: words[2],
            max: words[3],
            buckets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn basic_stats() {
        let mut h = Histogram::new();
        for v in [1, 2, 3, 4, 10] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 20);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 10);
        assert_eq!(h.mean(), 4.0);
    }

    #[test]
    fn zero_sample_goes_to_bucket_zero() {
        let mut h = Histogram::new();
        h.record(0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.quantile(1.0), 0);
    }

    #[test]
    fn quantile_monotone() {
        let mut h = Histogram::new();
        for v in 0..1000u64 {
            h.record(v);
        }
        let q10 = h.quantile(0.1);
        let q50 = h.quantile(0.5);
        let q99 = h.quantile(0.99);
        assert!(q10 <= q50 && q50 <= q99);
        assert!((255..=1023).contains(&q50), "median bucket bound {q50}");
    }

    #[test]
    fn huge_values() {
        let mut h = Histogram::new();
        h.record(u64::MAX / 2);
        assert_eq!(h.max(), u64::MAX / 2);
        assert!(h.quantile(1.0) >= u64::MAX / 2);
    }
}
