//! Randomized differential test: production detector vs. naive oracle
//! vs. brute force, over seeded random CWG snapshots.

use icn_validate::{
    check_cycle_counts, check_messages, minimize_divergence, random_snapshot, GenParams, SplitMix64,
};
use proptest::prelude::*;

/// Snapshot shapes for the cycle-count oracle, small enough that the naive
/// walk always finishes: sparse (few blocked heads among long chains),
/// dense (short chains, nearly everything blocked on owned vertices),
/// tangled (many messages with wide fan-out: several non-trivial SCCs per
/// snapshot, hundreds of cycles), and tiny all-blocked worlds whose knots
/// span at most 14 vertices with dozens of cycles each.
fn cycle_shapes() -> [GenParams; 4] {
    [
        GenParams::default(),
        GenParams::dense(),
        GenParams {
            num_vertices: 40,
            max_messages: 20,
            max_chain: 2,
            max_requests: 3,
            blocked_prob: 0.9,
            owned_bias: 0.9,
        },
        GenParams {
            num_vertices: 14,
            max_messages: 9,
            max_chain: 2,
            max_requests: 3,
            blocked_prob: 1.0,
            owned_bias: 1.0,
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every implementation agrees on every randomized snapshot; on a
    /// divergence the minimizer produces a small reproducer for the
    /// failure message.
    #[test]
    fn production_matches_oracle_on_random_cwgs(seed in any::<u64>()) {
        let p = GenParams::default();
        let snap = random_snapshot(seed, &p);
        let divergences = check_messages(&snap, None);
        if !divergences.is_empty() {
            let minimal = minimize_divergence(&snap);
            prop_assert!(
                false,
                "seed {seed}: {divergences:?}\nminimal repro: {minimal:?}"
            );
        }
    }

    /// The same agreement on the [`dense`] shape.
    #[test]
    fn production_matches_oracle_on_dense_cwgs(seed in any::<u64>()) {
        let p = GenParams::dense();
        let snap = random_snapshot(seed, &p);
        let divergences = check_messages(&snap, None);
        if !divergences.is_empty() {
            let minimal = minimize_divergence(&snap);
            prop_assert!(
                false,
                "seed {seed}: {divergences:?}\nminimal repro: {minimal:?}"
            );
        }
    }

    /// Whole-graph cycle counts and every knot's cycle density equal the
    /// naive simple-path count, uncapped and under the cap law, on every
    /// shape — with and without messages waiting on their own head VC
    /// (self-loops, which the generator itself never draws).
    #[test]
    fn cycle_counts_match_naive_oracle(seed in any::<u64>()) {
        for (i, p) in cycle_shapes().iter().enumerate() {
            let mut snap = random_snapshot(seed.wrapping_add(i as u64), p);
            for self_loops in [false, true] {
                if self_loops {
                    let mut rng = SplitMix64::new(seed ^ 0x5e1f);
                    for m in snap.messages.iter_mut().filter(|_| rng.gen_bool(0.3)) {
                        m.requests.push(*m.chain.last().unwrap());
                    }
                }
                let divergences = check_cycle_counts(&snap);
                prop_assert!(
                    divergences.is_some(),
                    "seed {seed} shape {i}: over the naive walk's budget"
                );
                prop_assert!(
                    divergences == Some(vec![]),
                    "seed {seed} shape {i} self_loops {self_loops}: {divergences:?}\n{snap:?}"
                );
            }
        }
    }
}
