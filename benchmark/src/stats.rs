//! Order statistics for the ledger: median, quartiles, MAD, and the
//! tail-percentile rule of the metrics guide.

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of `values` (mean of the two middle elements for even counts).
/// Panics on an empty slice: every caller has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// [`median`], or 0 for a sample set that stayed empty (a layer the
/// workload never entered).
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) — the
/// benchmark driver judges spreads with that function, so `--compare` and
/// `--spread` must agree with it to the last digit. Needs two samples;
/// with one, both quartiles are that sample.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    assert!(!v.is_empty(), "quartiles of no samples");
    if v.len() == 1 {
        return (v[0], v[0]);
    }
    let n = v.len();
    let cut = |i: usize| {
        // Python: j = i*(n+1)//4 clamped to [1, n-1]; delta = i*(n+1) - j*4.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median — the driver's
/// "spread".
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// Median absolute deviation from the median.
pub fn mad(values: &[f64]) -> f64 {
    let m = median(values);
    let dev: Vec<f64> = values.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// The `p`-quantile (`0.0..=1.0`) by linear interpolation between
/// closest ranks.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "percentile of no samples");
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The tail percentile a sample of size `n` can support: the highest of
/// p50 / p90 / p99 / p99.9 that still leaves at least ten samples beyond
/// it. `None` below 20 samples, where not even the median qualifies.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|p| (n as f64) * (1.0 - p) >= 10.0 - 1e-9)
}

/// Summary of one sample set as stored in result files.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub mad: f64,
    pub min: f64,
}

/// Summarises `values`; `None` when there are none.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let (q1, q3) = quartiles(values);
    Some(Summary {
        n: values.len(),
        median: median(values),
        q1,
        q3,
        mad: mad(values),
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    /// Reference values from CPython 3.11:
    /// `statistics.quantiles([...], n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 4.5));
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        let odd = [
            105.0, 129.0, 87.0, 86.0, 111.0, 111.0, 89.0, 81.0, 108.0, 92.0, 110.0,
        ];
        assert_eq!(quartiles(&odd), (87.0, 111.0));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[4.0, 4.0, 4.0]), 0.0);
    }

    #[test]
    fn mad_is_robust_to_one_outlier() {
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 1000.0]), 1.0);
        assert_eq!(mad(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 0.5), 30.0);
        assert_eq!(percentile(&v, 1.0), 50.0);
        assert!((percentile(&v, 0.9) - 46.0).abs() < 1e-12);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(0.5));
        assert_eq!(tail_percentile(99), Some(0.5));
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(200), Some(0.9));
        assert_eq!(tail_percentile(999), Some(0.9));
        assert_eq!(tail_percentile(1000), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
    }

    #[test]
    fn summary_carries_count_and_minimum() {
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.n, s.median, s.min), (3, 2.0, 1.0));
        assert!(summarize(&[]).is_none());
    }
}
