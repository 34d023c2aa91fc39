//! Numerical audit of the Welford accumulator in `icn_metrics::Mean`.
//!
//! Two classes of checks: hand-computed fixtures with exact closed-form
//! answers, and precision regressions that would fail for the textbook
//! one-pass formula `E[x^2] - E[x]^2` (catastrophic cancellation when the
//! mean dwarfs the spread — exactly the shape of latency samples late in a
//! long run, where cycle stamps grow while jitter stays small).

use icn_metrics::Mean;
use proptest::prelude::*;

/// Population variance from the encoded state (M2 / n), or 0.0 with fewer
/// than two samples.
fn variance(m: &Mean) -> f64 {
    let [n, _, m2] = m.encode();
    if n < 2 {
        0.0
    } else {
        f64::from_bits(m2) / n as f64
    }
}

fn accumulate(samples: &[f64]) -> Mean {
    let mut m = Mean::new();
    for &x in samples {
        m.record(x);
    }
    m
}

/// Accurate two-pass reference: exact mean, then centered sum of squares.
fn two_pass(samples: &[f64]) -> (f64, f64) {
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    (mean, var)
}

#[test]
fn fixture_integers() {
    // {1..10}: mean 5.5, population variance (n^2-1)/12 = 8.25.
    let m = accumulate(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
    assert_eq!(m.count(), 10);
    assert!((m.mean() - 5.5).abs() < 1e-12);
    assert!((variance(&m) - 8.25).abs() < 1e-12);
}

#[test]
fn fixture_constant_sequence_has_zero_variance() {
    let m = accumulate(&[42.0; 1000]);
    assert_eq!(m.mean(), 42.0);
    assert_eq!(variance(&m), 0.0);
}

#[test]
fn fixture_symmetric_negatives() {
    // {-3, -1, 1, 3}: mean 0, variance (9+1+1+9)/4 = 5.
    let m = accumulate(&[-3.0, -1.0, 1.0, 3.0]);
    assert!(m.mean().abs() < 1e-15);
    assert!((variance(&m) - 5.0).abs() < 1e-12);
}

#[test]
fn fixture_two_samples() {
    // {a, b}: mean (a+b)/2, population variance ((a-b)/2)^2.
    let m = accumulate(&[3.0, 11.0]);
    assert!((m.mean() - 7.0).abs() < 1e-15);
    assert!((variance(&m) - 16.0).abs() < 1e-12);
}

#[test]
fn precision_large_offset_regression() {
    // Spread 22.5 sitting on a 1e9 offset. The naive one-pass formula
    // subtracts ~1e18-magnitude quantities and loses every significant
    // digit of the variance; Welford must stay exact to ~1e-6 relative.
    let base = 1.0e9;
    let samples = [base + 4.0, base + 7.0, base + 13.0, base + 16.0];
    let m = accumulate(&samples);
    assert!((m.mean() - (base + 10.0)).abs() < 1e-6);
    assert!(
        (variance(&m) - 22.5).abs() < 1e-6 * 22.5,
        "variance {} drifted from 22.5",
        variance(&m)
    );

    // Demonstrate the failure mode being guarded against: the cancelling
    // formula is off by orders of magnitude more than Welford here.
    let naive_var = samples.iter().map(|x| x * x).sum::<f64>() / 4.0
        - (samples.iter().sum::<f64>() / 4.0).powi(2);
    let naive_err = (naive_var - 22.5).abs();
    let welford_err = (variance(&m) - 22.5).abs();
    assert!(
        welford_err * 100.0 < naive_err.max(1e-12),
        "welford err {welford_err} vs naive err {naive_err}"
    );
}

#[test]
fn precision_huge_count_of_offset_samples() {
    // A million samples alternating base ± 1: variance exactly 1.
    let base = 1.0e12;
    let mut m = Mean::new();
    for i in 0..1_000_000u64 {
        m.record(base + if i % 2 == 0 { 1.0 } else { -1.0 });
    }
    assert_eq!(m.count(), 1_000_000);
    assert!((m.mean() - base).abs() < 1e-3);
    assert!(
        (variance(&m) - 1.0).abs() < 1e-6,
        "variance {}",
        variance(&m)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn matches_two_pass_reference(seed in any::<u64>(), n in 2usize..200, offset_pow in 0u32..10) {
        // Deterministic pseudo-random samples on a configurable offset so
        // the comparison stresses both centered and far-from-zero data.
        let offset = 10f64.powi(offset_pow as i32);
        let mut state = seed | 1;
        let samples: Vec<f64> = (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                offset + ((state >> 11) as f64 / (1u64 << 53) as f64) * 100.0 - 50.0
            })
            .collect();
        let m = accumulate(&samples);
        let (mean, var) = two_pass(&samples);
        prop_assert_eq!(m.count(), n as u64);
        prop_assert!((m.mean() - mean).abs() <= 1e-9 * mean.abs().max(1.0));
        prop_assert!(
            (variance(&m) - var).abs() <= 1e-6 * var.max(1.0),
            "welford {} vs two-pass {}",
            variance(&m),
            var
        );
        prop_assert!(variance(&m) >= 0.0);
    }

    #[test]
    fn mean_stays_within_sample_bounds(seed in any::<u64>(), n in 1usize..64) {
        let mut state = seed | 1;
        let mut m = Mean::new();
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for _ in 0..n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = ((state >> 11) as f64 / (1u64 << 53) as f64) * 2000.0 - 1000.0;
            lo = lo.min(x);
            hi = hi.max(x);
            m.record(x);
            // The running mean is a convex combination of the samples seen
            // so far, so it can never escape their range.
            prop_assert!(m.mean() >= lo - 1e-9 && m.mean() <= hi + 1e-9);
        }
    }
}
