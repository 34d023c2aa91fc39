//! Seeded random CWG snapshot generator.
//!
//! Produces structurally valid snapshots (disjoint non-empty chains,
//! in-range requests) with request targeting biased toward *owned*
//! vertices, so cycles and knots actually occur instead of almost every
//! draw being trivially deadlock-free. Uses its own SplitMix64 so the
//! validation layer shares no randomness machinery with the crates under
//! test.

use icn_cwg::{CwgMsg, CwgSnapshot};

/// Minimal deterministic RNG (SplitMix64).
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeded generator; equal seeds give equal streams.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`n > 0`).
    pub fn gen_range(&mut self, n: usize) -> usize {
        assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }

    /// Bernoulli draw with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

/// Shape parameters for [`random_snapshot`].
#[derive(Clone, Debug)]
pub struct GenParams {
    /// Total vertex count.
    pub num_vertices: usize,
    /// Upper bound on message count (fewer if vertices run out).
    pub max_messages: usize,
    /// Chain lengths are drawn from `1..=max_chain`.
    pub max_chain: usize,
    /// Blocked messages get `1..=max_requests` requests.
    pub max_requests: usize,
    /// Probability that a message is blocked at all.
    pub blocked_prob: f64,
    /// Probability that a request targets an *owned* vertex (cycles form
    /// only through owned vertices; the remainder hit arbitrary vertices,
    /// often free ones, which act as escapes).
    pub owned_bias: f64,
}

impl Default for GenParams {
    fn default() -> Self {
        Self {
            num_vertices: 48,
            max_messages: 12,
            max_chain: 4,
            max_requests: 3,
            blocked_prob: 0.85,
            owned_bias: 0.8,
        }
    }
}

impl GenParams {
    /// Denser, knottier shape: short chains, many messages, heavy
    /// owned-vertex bias, so multi-knot and dependent-heavy snapshots are
    /// common.
    pub fn dense() -> Self {
        Self {
            num_vertices: 24,
            max_messages: 12,
            max_chain: 2,
            max_requests: 2,
            blocked_prob: 0.95,
            owned_bias: 0.95,
        }
    }
}

/// Generates one seeded random snapshot.
pub fn random_snapshot(seed: u64, p: &GenParams) -> CwgSnapshot {
    let mut rng = SplitMix64::new(seed);
    let n = p.num_vertices;

    // Fisher-Yates over all vertices; chains are carved off the front so
    // they are disjoint by construction.
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.gen_range(i + 1));
    }

    let mut msgs: Vec<CwgMsg> = Vec::new();
    let mut cursor = 0usize;
    for id in 0..p.max_messages as u64 {
        let len = 1 + rng.gen_range(p.max_chain);
        if cursor + len > n {
            break;
        }
        let chain = perm[cursor..cursor + len].to_vec();
        cursor += len;
        msgs.push(CwgMsg {
            id: id + 1,
            chain,
            requests: Vec::new(),
        });
    }

    // Owned vertices, for biased request targeting.
    let owned: Vec<u32> = msgs.iter().flat_map(|m| m.chain.iter().copied()).collect();

    for msg in &mut msgs {
        if !rng.gen_bool(p.blocked_prob) {
            continue;
        }
        let want = 1 + rng.gen_range(p.max_requests);
        let mut requests: Vec<u32> = Vec::new();
        let mut attempts = 0;
        while requests.len() < want && attempts < 64 {
            attempts += 1;
            let v = if rng.gen_bool(p.owned_bias) {
                owned[rng.gen_range(owned.len())]
            } else {
                rng.gen_range(n) as u32
            };
            if msg.chain.contains(&v) || requests.contains(&v) {
                continue;
            }
            requests.push(v);
        }
        requests.sort_unstable();
        msg.requests = requests;
    }

    CwgSnapshot {
        num_vertices: n,
        messages: msgs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let p = GenParams::default();
        assert_eq!(random_snapshot(42, &p), random_snapshot(42, &p));
        assert_ne!(random_snapshot(42, &p), random_snapshot(43, &p));
    }

    #[test]
    fn structurally_valid() {
        let p = GenParams::default();
        for seed in 0..200 {
            let snap = random_snapshot(seed, &p);
            let n = snap.num_vertices;
            let mut seen = vec![false; n];
            for m in &snap.messages {
                assert!(!m.chain.is_empty());
                for &v in &m.chain {
                    assert!((v as usize) < n);
                    assert!(!seen[v as usize], "chains must be disjoint");
                    seen[v as usize] = true;
                }
                for &r in &m.requests {
                    assert!((r as usize) < n);
                    assert!(!m.chain.contains(&r));
                }
            }
        }
    }

    #[test]
    fn some_seeds_produce_deadlocks_and_some_do_not() {
        let p = GenParams::default();
        let mut with = 0;
        let mut without = 0;
        for seed in 0..200 {
            if crate::oracle::oracle_analyze(&random_snapshot(seed, &p)).has_deadlock() {
                with += 1;
            } else {
                without += 1;
            }
        }
        assert!(with > 10, "generator too tame: {with} deadlocks in 200");
        assert!(without > 10, "generator always deadlocks: {without} clean");
    }
}
