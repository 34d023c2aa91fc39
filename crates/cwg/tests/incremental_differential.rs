//! Lockstep differential: a [`DynamicWaitGraph`] maintained through long
//! random edit histories must agree with a fresh [`WaitGraph`] rebuilt
//! from the ground-truth wait state after **every** commit — as a store
//! (`graph()`'s out-arcs and owner at every vertex), structurally
//! (`diff_against_snapshot`), on the knot verdict (`has_knot`, and the
//! deadlock sets of `graph()` set-for-set), and on the store invariants
//! and cached verdict (`check_invariants`).
//!
//! The generator evolves a population of blocked messages the way the
//! engine does: messages block on owner-disjoint VC chains, re-block with
//! grown or shrunk chains, migrate onto vertices freed by messages cleared
//! in the *same* commit (the two-phase hazard), and clear entirely.
//! Edit order within a cycle is shuffled, so order-insensitivity is part
//! of what the lockstep locks. Knots are broken as the runner breaks them:
//! one member's requests are removed in the live store, and the next
//! commit restages or clears it, as the engine's drain does after
//! `start_recovery`.

use std::collections::{BTreeMap, HashSet};

use icn_cwg::{Adjacency, DetectorScratch, DynamicWaitGraph, WaitGraph};
use proptest::prelude::*;

/// Ground truth: id → (chain, requests). Chains are owner-disjoint across
/// ids, as VC exclusivity guarantees in the engine.
type Truth = BTreeMap<u64, (Vec<u32>, Vec<u32>)>;

struct Lcg(u64);

impl Lcg {
    fn next(&mut self, m: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) as usize) % m.max(1)
    }
}

fn fresh_graph(n: usize, truth: &Truth) -> WaitGraph {
    let mut g = WaitGraph::new(n);
    for (&id, (chain, _)) in truth {
        g.add_chain(id, chain);
    }
    for (&id, (_, req)) in truth {
        if !req.is_empty() {
            g.add_requests(id, req);
        }
    }
    g
}

fn sorted_sets(mut sets: Vec<Vec<u64>>) -> Vec<Vec<u64>> {
    for s in &mut sets {
        s.sort_unstable();
    }
    sets.sort();
    sets
}

/// The exact knot sets of the dynamic state, from its own graph.
fn dynamic_sets(dwg: &DynamicWaitGraph, scratch: &mut DetectorScratch) -> Vec<Vec<u64>> {
    sorted_sets(dwg.graph().knot_deadlock_sets(scratch))
}

/// Pool words a record occupies: its chain and its requests.
fn words(record: &(Vec<u32>, Vec<u32>)) -> usize {
    record.0.len() + record.1.len()
}

/// The store equals a fresh build of `truth`: the same out-arcs, in the
/// same order, and the same owner at every vertex.
fn same_store(dwg: &DynamicWaitGraph, n: usize, truth: &Truth) {
    let fresh = fresh_graph(n, truth);
    for v in 0..n as u32 {
        prop_assert_eq!(
            dwg.graph().neighbors(v),
            fresh.neighbors(v),
            "arcs of {}",
            v
        );
        prop_assert_eq!(dwg.graph().owner(v), fresh.owner(v), "owner of {}", v);
    }
}

/// One evolution step: clear some messages, (re)block others — possibly
/// onto just-freed vertices — stage the edits in shuffled order, commit.
/// Returns the pool words the commit retires: every record it removes.
fn evolve(rng: &mut Lcg, n: usize, truth: &mut Truth, dwg: &mut DynamicWaitGraph) -> usize {
    let mut retired = 0;
    #[derive(Clone)]
    enum Edit {
        Clear(u64),
        Block(u64, Vec<u32>, Vec<u32>),
    }
    let ids: Vec<u64> = truth.keys().copied().collect();
    let mut edits: Vec<Edit> = Vec::new();

    // Vertices owned by messages that keep their records this cycle.
    let mut held: HashSet<u32> = HashSet::new();
    for (_, (chain, _)) in truth.iter() {
        held.extend(chain.iter().copied());
    }

    // Clear a random subset; their vertices become fair game for blocks
    // staged in the same commit (the migration hazard).
    for &id in &ids {
        if rng.next(4) == 0 {
            for v in &truth[&id].0 {
                held.remove(v);
            }
            retired += words(&truth[&id]);
            truth.remove(&id);
            edits.push(Edit::Clear(id));
        }
    }

    // (Re)block a few messages on free vertices. One edit per id per
    // commit: the engine emits at most one resolved update per message
    // per drain, so a duplicate would make the shuffled order ambiguous.
    let blocks = 1 + rng.next(3);
    let mut blocked_now: HashSet<u64> = HashSet::new();
    for _ in 0..blocks {
        let id = 1 + rng.next(n) as u64;
        if !blocked_now.insert(id) {
            continue;
        }
        if let Some(record) = truth.remove(&id) {
            for v in &record.0 {
                held.remove(v);
            }
            retired += words(&record);
            edits.push(Edit::Clear(id)); // defensive re-block path
        }
        let free: Vec<u32> = (0..n as u32).filter(|v| !held.contains(v)).collect();
        if free.is_empty() {
            continue;
        }
        let len = 1 + rng.next(3.min(free.len()));
        let mut chain = Vec::new();
        let mut picked = HashSet::new();
        for _ in 0..len {
            let v = free[rng.next(free.len())];
            if picked.insert(v) {
                chain.push(v);
            }
        }
        held.extend(chain.iter().copied());
        // Requests target anything outside the chain; occasionally empty
        // (a fault-stranded header with no surviving candidates).
        let mut req = Vec::new();
        if rng.next(8) != 0 {
            for _ in 0..(1 + rng.next(3)) {
                let t = rng.next(n) as u32;
                if !chain.contains(&t) && !req.contains(&t) {
                    req.push(t);
                }
            }
        }
        truth.insert(id, (chain.clone(), req.clone()));
        edits.push(Edit::Block(id, chain, req));
    }

    // Shuffle: within a commit, staging order must not matter.
    for i in (1..edits.len()).rev() {
        edits.swap(i, rng.next(i + 1));
    }
    for e in &edits {
        match e {
            Edit::Clear(id) => dwg.stage_clear(*id),
            Edit::Block(id, chain, req) => dwg.stage_blocked(*id, chain, req),
        }
    }
    dwg.commit();
    retired
}

/// Breaks the first knot as the runner does, by removing one member's
/// requests in the live store, then commits what the engine's next drain
/// would send for the victim: its `Clear`, or (when `restage`) its blocked
/// state again. Checks the store after each step; returns the retired
/// words.
fn recover(
    dwg: &mut DynamicWaitGraph,
    n: usize,
    truth: &mut Truth,
    set: &[u64],
    restage: bool,
) -> usize {
    let victim = set[0];
    prop_assert!(dwg.remove_requests(victim), "a knot member waits");
    let (chain, requests) = truth[&victim].clone();
    let mut sink = truth.clone();
    sink.insert(victim, (chain.clone(), Vec::new()));
    dwg.check_invariants();
    same_store(dwg, n, &sink);
    prop_assert_eq!(
        dwg.has_knot(),
        !fresh_graph(n, &sink).analyze(2).deadlocks.is_empty()
    );
    if restage {
        dwg.stage_blocked(victim, &chain, &requests);
    } else {
        dwg.stage_clear(victim);
        truth.remove(&victim);
    }
    prop_assert!(dwg.commit(), "the victim's record changes back");
    dwg.check_invariants();
    same_store(dwg, n, truth);
    requests.len() + chain.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The lock on the store: after every commit of a long random history,
    /// and after every recovery edit, the incremental graph is
    /// indistinguishable from a fresh rebuild.
    ///
    /// Compaction runs in every case, and this is how it is known:
    /// `check_invariants` asserts after every commit and recovery edit that
    /// the store's dead pool words are at most its live ones, and only a
    /// compaction lowers the dead count. Live words never exceed the
    /// largest ground-truth total after a commit (phase 1 only removes,
    /// phase 2 only inserts), so a history that retires more words than
    /// that peak, which the last assertion checks, compacted at least once.
    #[test]
    fn incremental_matches_fresh_rebuild_every_commit(seed in any::<u64>()) {
        let mut rng = Lcg(seed | 1);
        let n = 8 + rng.next(40);
        let mut truth = Truth::new();
        let mut dwg = DynamicWaitGraph::new(n);
        let mut scratch = DetectorScratch::new();
        let (mut retired, mut peak) = (0, 0);
        for _cycle in 0..32 {
            retired += evolve(&mut rng, n, &mut truth, &mut dwg);
            peak = peak.max(truth.values().map(words).sum::<usize>());

            dwg.check_invariants();
            same_store(&dwg, n, &truth);
            let live = dwg.has_knot();
            let full = fresh_graph(n, &truth);
            let diff = dwg.diff_against_snapshot(&full);
            prop_assert!(diff.is_empty(), "structural divergence: {diff:?}");

            let want = sorted_sets(full.knot_deadlock_sets(&mut scratch));
            let got = dynamic_sets(&dwg, &mut scratch);
            prop_assert_eq!(live, !want.is_empty(), "reduction verdict diverged");
            prop_assert_eq!(&got, &want);
            if let Some(set) = want.first() {
                retired += recover(&mut dwg, n, &mut truth, set, rng.next(2) == 0);
            }
        }
        prop_assert!(retired > peak, "retired {retired} words, peak {peak}: no compaction");
    }

    /// Fingerprints are a pure function of the final state: replaying the
    /// surviving records into a fresh dynamic graph — in a different
    /// order, without the intermediate history — lands on the same hash
    /// and the same verdict.
    #[test]
    fn fingerprint_is_history_independent(seed in any::<u64>()) {
        let mut rng = Lcg(seed | 1);
        let n = 8 + rng.next(40);
        let mut truth = Truth::new();
        let mut dwg = DynamicWaitGraph::new(n);
        for _ in 0..16 {
            evolve(&mut rng, n, &mut truth, &mut dwg);
        }
        let mut replay = DynamicWaitGraph::new(n);
        for (&id, (chain, req)) in truth.iter().rev() {
            replay.stage_blocked(id, chain, req);
        }
        replay.commit();
        prop_assert_eq!(replay.fingerprint(), dwg.fingerprint());
        prop_assert_eq!(replay.has_knot(), dwg.has_knot());
        let mut scratch = DetectorScratch::new();
        prop_assert_eq!(
            dynamic_sets(&replay, &mut scratch),
            dynamic_sets(&dwg, &mut scratch)
        );
    }
}
