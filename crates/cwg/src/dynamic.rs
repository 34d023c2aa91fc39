//! Incrementally maintained channel wait-for state.
//!
//! The paper's detector builds a [`WaitGraph`] from scratch at every
//! detection epoch. [`DynamicWaitGraph`] instead *persists* the blocked
//! wait-state across epochs in one [`WaitGraph`], patched in place with the
//! net effect of the engine's own block/acquire/release events, so "is
//! there a knot right now?" costs one reduction over the blocked records
//! when a commit changed one — nothing at all when none changed — and only
//! a `true` answer pays for a full analysis, run on that same graph
//! ([`DynamicWaitGraph::graph`]). The runner drains once per epoch; any
//! cadence down to every cycle is the same protocol.
//!
//! # What is tracked — and why only blocked messages
//!
//! A record exists per **blocked** message: its settled ownership chain and
//! its request targets (possibly empty for fault-stranded messages).
//! Moving messages are deliberately absent. This is lossless for knot
//! detection:
//!
//! * A moving message's chain is a path of solid arcs ending at its head,
//!   which has no dashed out-arcs — a sink path. No vertex of it can lie on
//!   a cycle, so none can belong to a (non-trivial) knot SCC.
//! * A free vertex has no out-arcs at all in either graph.
//! * Blocked-owned vertices have *identical* out-arcs in the full and the
//!   blocked-only graph (solid arcs along the blocked chain, dashed arcs
//!   from its head), so the non-trivial SCCs among them — and their
//!   terminal status — coincide.
//!
//! Hence the blocked-only graph has exactly the full graph's knots. Their
//! order is the same too: on the record graph the analysis walks, a
//! moving record is a sink, exactly like the free node its targets become
//! here, so the walk over the blocked records is unchanged and
//! [`WaitGraph::analyze_with`] returns the same analysis, knot order
//! included (`blocked_only_graph_analyzes_like_the_full_snapshot`).
//!
//! # Maintenance invariants
//!
//! Between [`commit`](DynamicWaitGraph::commit)s the structure maintains:
//!
//! 1. The graph holds one record per blocked message `m`: its settled
//!    chain and requests, verbatim from the engine's snapshot extraction
//!    rules. The one exception is a recovery victim whose requests
//!    [`remove_requests`](DynamicWaitGraph::remove_requests) dropped: it
//!    stays a sink until the next commit, which restages it (the engine
//!    marks every victim it starts recovering).
//! 2. The graph's owner index is the ownership index: `owner(v) = m` iff
//!    `v` is on `m`'s chain (blocked owners only; each vertex has at most
//!    one).
//! 3. No reverse request index is kept: each reduction builds one for
//!    itself, keyed by owner slot.
//! 4. No fingerprint is kept: [`fingerprint`](DynamicWaitGraph::fingerprint)
//!    sums the per-record hashes on demand, with the simulator snapshot
//!    fingerprint's construction (FNV-1a + SplitMix64), so it equals
//!    `SnapshotArena::fingerprint()` for the same wait-state.
//!
//! [`WaitGraph`]'s own store invariants (dense record table, arcs as pool
//! ranges, dead pool words at most the live ones) are checked with these
//! by [`check_invariants`](DynamicWaitGraph::check_invariants).
//!
//! # The verdict
//!
//! [`has_knot`](DynamicWaitGraph::has_knot) is one greatest-fixpoint
//! reduction over the record table — no graph build — cached until a
//! commit changes a record or a victim's requests are removed. A record
//! has an *escape* when it requests nothing or requests a vertex no
//! blocked message owns; reducing a record virtually frees its chain,
//! which gives every record requesting a vertex of it an escape. What
//! survives is closed under "owner of a request target" and every survivor
//! has an out-arc, so a non-empty survivor set holds a non-trivial
//! terminal SCC, and a knot's deadlock set is itself such a set: core
//! non-empty ⟺ knot. The exact deadlock sets come from analysing
//! [`graph`](DynamicWaitGraph::graph): the runner, on a knot epoch, runs
//! [`WaitGraph::analyze_with`] on it, which finds the knots on the same
//! record graph (one Tarjan over the records, none over the VC space), and
//! breaks each knot it finds with one victim, which leaves no knot; the
//! lockstep tests compare its records and
//! [`WaitGraph::knot_deadlock_sets`] with a fresh build's.
//!
//! # Update protocol
//!
//! Edits arrive as staged per-message states and are applied by
//! [`commit`](DynamicWaitGraph::commit) in two phases: all removals of
//! staged messages' old records first, then all insertions of their new
//! states. Within one engine cycle a VC can migrate between two staged
//! messages (released by one, acquired by another); removing every stale
//! record before inserting any new one makes the ownership index
//! transiently consistent regardless of staging order.
//!
//! Each id is staged at most once per commit with a blocked state
//! (`Network::drain_wait_updates` emits each id once); a clear staged
//! beside it is overridden, and a debug build asserts the rule. A staged
//! state identical to the current record is a no-op, so a commit that
//! changes nothing keeps the cached verdict, and the verdict is the only
//! one kept: the runner settles an unchanged epoch from it rather than
//! remembering the previous epoch's answer itself.

use crate::graph::{MessageId, VertexId, WaitGraph};
use crate::idmap::mix;

/// One staged edit: the message's new state as offsets `(start, chain
/// end, end)` into the staging pool (chain, then requests), or `None` for
/// its removal.
type Staged = Option<(u32, u32, u32)>;

/// FNV-1a over a word stream (same constants as the simulator snapshot).
#[inline]
fn fnv1a_words(mut h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    for w in words {
        h ^= w;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The per-record hash of the blocked fingerprint: FNV-1a over
/// `(id, chain, separator, requests)`, SplitMix64-finalized. Must stay
/// bit-compatible with the simulator's `SnapshotArena` hashing — the
/// equality is locked by the cross-crate differential tests.
fn record_hash(id: MessageId, chain: &[VertexId], requests: &[VertexId]) -> u64 {
    let mut h = fnv1a_words(0xcbf2_9ce4_8422_2325, [id]);
    h = fnv1a_words(h, chain.iter().map(|&v| v as u64));
    h = fnv1a_words(h, [u64::MAX]);
    h = fnv1a_words(h, requests.iter().map(|&v| v as u64));
    mix(h)
}

/// Persistent, event-patched blocked wait-state with a cached knot
/// verdict. See the module docs for the maintenance invariants.
#[derive(Clone, Debug, Default)]
pub struct DynamicWaitGraph {
    /// The blocked wait-state: one record per blocked message.
    graph: WaitGraph,
    // Staged edits awaiting commit.
    staged: Vec<(MessageId, Staged)>,
    staged_pool: Vec<VertexId>,
    // The reduction verdict, `None` once a commit changed a record.
    verdict: Option<bool>,
    // Scratch for the reduction behind `has_knot`, per record slot:
    // whether it is reduced, and the slots requesting a vertex of its
    // chain (`rev[rev_start[s]..rev_start[s + 1]]`).
    reduced: Vec<bool>,
    rev_start: Vec<u32>,
    rev: Vec<u32>,
    red_stack: Vec<u32>,
}

impl DynamicWaitGraph {
    /// An empty wait-state over `num_vertices` CWG vertices.
    pub fn new(num_vertices: usize) -> Self {
        DynamicWaitGraph {
            graph: WaitGraph::new(num_vertices),
            ..Default::default()
        }
    }

    /// The blocked-only wait graph. By the module-level argument it has
    /// exactly the full snapshot graph's knots, deadlock and resource sets,
    /// densities and dependents; its
    /// [`num_blocked`](WaitGraph::num_blocked) counts the tracked messages
    /// that wait on at least one vertex.
    pub fn graph(&self) -> &WaitGraph {
        &self.graph
    }

    /// Number of blocked messages currently tracked, fault-stranded ones
    /// (blocked, no surviving candidate, so waiting on nothing) included.
    pub fn num_blocked(&self) -> usize {
        self.graph.records().len()
    }

    /// Order-independent 64-bit hash of the blocked wait-state —
    /// bit-identical to `SnapshotArena::fingerprint()` for the same state.
    /// Computed from the records on demand: O(records).
    pub fn fingerprint(&self) -> u64 {
        let records = self.graph.records();
        let population = records.len() as u64;
        let partial = records.fold(0u64, |fp, (id, chain, requests)| {
            fp.wrapping_add(record_hash(id, chain, requests))
        });
        partial ^ mix(population << 32 ^ self.graph.num_vertices() as u64 ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// Stages the new state of a blocked message (chain must be
    /// non-empty; requests may be empty for fault-stranded messages).
    /// At most once per id per commit; takes effect at
    /// [`commit`](Self::commit).
    pub fn stage_blocked(&mut self, id: MessageId, chain: &[VertexId], requests: &[VertexId]) {
        debug_assert!(!chain.is_empty(), "a blocked message owns its head VC");
        let start = self.staged_pool.len() as u32;
        self.staged_pool.extend_from_slice(chain);
        let chain_end = self.staged_pool.len() as u32;
        self.staged_pool.extend_from_slice(requests);
        let end = self.staged_pool.len() as u32;
        self.staged.push((id, Some((start, chain_end, end))));
    }

    /// Stages the removal of `id` (delivered, recovering, ejecting, or
    /// simply no longer blocked). Unknown ids are fine — the engine marks
    /// conservatively — and a [`stage_blocked`](Self::stage_blocked) of
    /// the same id in the same commit wins. Takes effect at
    /// [`commit`](Self::commit).
    pub fn stage_clear(&mut self, id: MessageId) {
        self.staged.push((id, None));
    }

    /// Applies every staged edit: phase 1 removes the old record of every
    /// staged message whose state changed, phase 2 inserts the new blocked
    /// states. Returns whether any record changed; a change stales the
    /// verdict.
    ///
    /// Contract: at most one [`stage_blocked`](Self::stage_blocked) per id
    /// per commit (the engine's drain emits each id once). A
    /// [`stage_clear`](Self::stage_clear) of the same id may accompany it
    /// and is overridden, since removals apply before insertions; a debug
    /// build asserts that no id is staged with two different blocked
    /// states.
    pub fn commit(&mut self) -> bool {
        let pool = &self.staged_pool;
        let state = |at: Staged| {
            at.map(|(s, c, e)| (&pool[s as usize..c as usize], &pool[c as usize..e as usize]))
        };
        let mut changed = false;
        // An identical re-staging is a no-op: the engine re-resolves
        // conservatively-marked messages (fault transitions mark
        // *everything*), and that must neither churn the store nor stale
        // the verdict.
        for &(id, at) in &self.staged {
            let stale = state(at).is_none_or(|new| self.graph.record(id).is_some_and(|r| r != new));
            changed |= stale && self.graph.remove_record(id);
        }
        for &(id, at) in &self.staged {
            let Some((chain, requests)) = state(at) else {
                continue;
            };
            match self.graph.record(id) {
                None => {
                    self.graph.add_record(id, chain, requests);
                    changed = true;
                }
                Some(r) => debug_assert!(
                    r == (chain, requests),
                    "message {id} staged twice in one commit"
                ),
            }
        }
        if changed {
            self.verdict = None;
        }
        self.staged.clear();
        self.staged_pool.clear();
        changed
    }

    /// Drops `id`'s requests in place, turning its chain into a sink — how
    /// the runner breaks a knot with a recovery victim — and stales the
    /// verdict. The victim's record differs from its engine state from
    /// then on, until a later commit restages or clears it. Returns `false`
    /// when `id` is unknown or waits for nothing.
    pub fn remove_requests(&mut self, id: MessageId) -> bool {
        let removed = self.graph.remove_requests(id);
        if removed {
            self.verdict = None;
        }
        removed
    }

    /// Whether a knot (true deadlock) exists right now.
    ///
    /// O(1) while no commit has changed a record since the last verdict
    /// (every epoch of a frozen wedge, say: deadlocked messages emit no
    /// events); otherwise one greatest-fixpoint reduction over the record
    /// table, no graph build. Core non-empty ⟺ knot (see the module docs).
    pub fn has_knot(&mut self) -> bool {
        let knot = match self.verdict {
            Some(knot) => knot,
            None => self.reduce(),
        };
        self.verdict = Some(knot);
        knot
    }

    /// The greatest-fixpoint reduction behind [`has_knot`](Self::has_knot):
    /// whether any record survives "reduce every record with an escape".
    /// Reducing a record frees its chain, which gives an escape to every
    /// record requesting a vertex of it. O(records + requests): the reverse
    /// index is a counting sort of the requests by owner slot.
    fn reduce(&mut self) -> bool {
        let g = &self.graph;
        let n = g.records().len();
        self.reduced.clear();
        self.reduced.resize(n, false);
        self.rev_start.clear();
        self.rev_start.resize(n + 1, 0);
        self.red_stack.clear();
        // Records with an escape reduce at once; every owned target counts
        // toward its owner's share of the reverse index.
        for (slot, (_, _, requests)) in g.records().enumerate() {
            let mut escape = requests.is_empty();
            for &t in requests {
                match g.slot_of(t) {
                    Some(owner) => self.rev_start[owner as usize] += 1,
                    None => escape = true,
                }
            }
            if escape {
                self.reduced[slot] = true;
                self.red_stack.push(slot as u32);
            }
        }
        let mut alive = n - self.red_stack.len();
        if alive == 0 || self.red_stack.is_empty() {
            return alive > 0;
        }
        for s in 1..=n {
            self.rev_start[s] += self.rev_start[s - 1];
        }
        self.rev.clear();
        self.rev.resize(self.rev_start[n] as usize, 0);
        for (slot, (_, _, requests)) in g.records().enumerate() {
            for &t in requests {
                if let Some(owner) = g.slot_of(t) {
                    let at = &mut self.rev_start[owner as usize];
                    *at -= 1;
                    self.rev[*at as usize] = slot as u32;
                }
            }
        }
        // A reduced record frees its chain: every record requesting a
        // vertex of it reduces in turn.
        while let Some(s) = self.red_stack.pop() {
            let (from, to) = (self.rev_start[s as usize], self.rev_start[s as usize + 1]);
            for &w in &self.rev[from as usize..to as usize] {
                if !std::mem::replace(&mut self.reduced[w as usize], true) {
                    alive -= 1;
                    if alive == 0 {
                        return false;
                    }
                    self.red_stack.push(w);
                }
            }
        }
        true // survivors form a core
    }

    /// Verifies the store's invariants from scratch, and a cached verdict
    /// against a naive reduction (tests; O(state)).
    pub fn check_invariants(&self) {
        self.graph.check_store();
        // Independent greatest-fixpoint core (naive iteration): non-empty
        // iff a knot exists. A cached verdict must agree.
        let mut removed: std::collections::HashSet<MessageId> = std::collections::HashSet::new();
        loop {
            let mut changed = false;
            for (id, _, requests) in self.graph.records() {
                if removed.contains(&id) {
                    continue;
                }
                let escape = requests.is_empty()
                    || requests
                        .iter()
                        .any(|&t| self.graph.owner(t).is_none_or(|m| removed.contains(&m)));
                if escape {
                    removed.insert(id);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let core_live = removed.len() < self.num_blocked();
        if let Some(knot) = self.verdict {
            assert_eq!(knot, core_live, "cached verdict drifted");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::DetectorScratch;

    /// Checks that `d` holds exactly the Figure-1 ring's three blocked
    /// records, which form one knot.
    fn assert_figure1(d: &DynamicWaitGraph) {
        let mut records: Vec<_> = d
            .graph()
            .records()
            .map(|(id, chain, requests)| (id, chain.to_vec(), requests.to_vec()))
            .collect();
        records.sort();
        assert_eq!(
            records,
            [
                (1, vec![1, 2], vec![3]),
                (2, vec![3, 4, 5], vec![6]),
                (3, vec![6, 7, 0], vec![1]),
            ]
        );
        let mut sets = d.graph().knot_deadlock_sets(&mut DetectorScratch::new());
        sets.iter_mut().for_each(|s| s.sort_unstable());
        assert_eq!(sets, [vec![1, 2, 3]]);
    }

    fn stage_figure1(d: &mut DynamicWaitGraph) {
        d.stage_blocked(1, &[1, 2], &[3]);
        d.stage_blocked(2, &[3, 4, 5], &[6]);
        d.stage_blocked(3, &[6, 7, 0], &[1]);
        d.commit();
    }

    #[test]
    fn figure1_knot_detected_incrementally() {
        let mut d = DynamicWaitGraph::new(10);
        stage_figure1(&mut d);
        d.check_invariants();
        assert_eq!(d.num_blocked(), 3);
        assert!(d.has_knot());
        assert_figure1(&d);
    }

    #[test]
    fn a_free_target_is_an_escape() {
        let mut d = DynamicWaitGraph::new(10);
        // m3 may also take the free vertex 9, so it reduces, and with it
        // m2 (waiting on m3's chain) and m1 (waiting on m2's).
        d.stage_blocked(1, &[1, 2], &[3]);
        d.stage_blocked(2, &[3, 4, 5], &[6]);
        d.stage_blocked(3, &[6, 7, 0], &[1, 9]);
        d.commit();
        assert!(!d.has_knot());
        d.check_invariants();
    }

    #[test]
    fn unblock_breaks_the_knot() {
        let mut d = DynamicWaitGraph::new(10);
        stage_figure1(&mut d);
        assert!(d.has_knot());
        // m2 acquires vertex 6 (recovery or a freed VC): it stops being
        // blocked from the detector's point of view for a cycle.
        d.stage_clear(2);
        d.commit();
        d.check_invariants();
        assert!(!d.has_knot());
        assert_eq!(d.num_blocked(), 2);
        // ... and re-blocks one hop further along, now waiting on the
        // free vertex 8: its escape keeps the graph knot-free.
        d.stage_blocked(2, &[3, 4, 5, 9], &[8]);
        d.commit();
        d.check_invariants();
        assert!(!d.has_knot(), "m2 escapes to the free vertex 8");
    }

    #[test]
    fn same_cycle_vc_migration_is_order_insensitive() {
        // Vertex 4 migrates from m1 (released, shorter chain) to m2
        // (acquired) within one commit, staged in both orders.
        for flip in [false, true] {
            let mut d = DynamicWaitGraph::new(8);
            d.stage_blocked(1, &[3, 4], &[5]);
            d.stage_blocked(2, &[5, 6], &[4]);
            d.commit();
            assert!(d.has_knot());
            let stage_a = |d: &mut DynamicWaitGraph| d.stage_blocked(1, &[3], &[5]);
            let stage_b = |d: &mut DynamicWaitGraph| d.stage_blocked(2, &[5, 6, 4], &[7]);
            if flip {
                stage_b(&mut d);
                stage_a(&mut d);
            } else {
                stage_a(&mut d);
                stage_b(&mut d);
            }
            d.commit();
            d.check_invariants();
            assert!(!d.has_knot());
            assert_eq!(d.graph().chain(2), Some(&[5, 6, 4][..]));
        }
    }

    #[test]
    fn fingerprint_matches_identical_rebuild() {
        let mut a = DynamicWaitGraph::new(16);
        let mut b = DynamicWaitGraph::new(16);
        a.stage_blocked(7, &[0, 1], &[4, 5]);
        a.stage_blocked(9, &[4], &[]);
        a.commit();
        // Same state reached along a different history.
        b.stage_blocked(9, &[2], &[3]);
        b.stage_blocked(7, &[0, 1], &[4, 5]);
        b.commit();
        b.stage_blocked(9, &[4], &[]);
        b.commit();
        assert_eq!(a.fingerprint(), b.fingerprint());
        a.check_invariants();
        b.check_invariants();
        // Different population ⇒ different fingerprint.
        b.stage_clear(9);
        b.commit();
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn verdict_cache_is_invalidated_by_edits() {
        let mut d = DynamicWaitGraph::new(6);
        d.stage_blocked(1, &[0, 1], &[2]);
        d.stage_blocked(2, &[2, 3], &[0]);
        assert!(d.commit());
        assert!(d.has_knot());
        d.stage_clear(1);
        assert!(d.commit());
        assert!(!d.has_knot());
        d.stage_blocked(1, &[0, 1], &[2]);
        assert!(d.commit());
        assert!(d.has_knot());
        // A dependent joins and leaves: each commit stales the verdict,
        // and each reduction still finds the knot.
        d.stage_blocked(3, &[4], &[0]);
        assert!(d.commit());
        assert_eq!(d.verdict, None, "a changed record stales the verdict");
        d.check_invariants();
        assert!(d.has_knot());
        d.stage_clear(3);
        assert!(d.commit());
        assert!(d.has_knot());
        // Re-staging identical states and clearing unknown ids change no
        // record: the verdict stays cached.
        d.stage_blocked(1, &[0, 1], &[2]);
        d.stage_clear(9);
        assert!(!d.commit());
        assert_eq!(d.verdict, Some(true));
        d.check_invariants();
    }

    #[test]
    fn a_clear_beside_an_identical_restage_keeps_the_record() {
        // Removals apply before insertions, so the restage wins in either
        // staging order, even when it equals the current record.
        for clear_first in [false, true] {
            let mut d = DynamicWaitGraph::new(10);
            stage_figure1(&mut d);
            if clear_first {
                d.stage_clear(2);
            }
            d.stage_blocked(2, &[3, 4, 5], &[6]);
            if !clear_first {
                d.stage_clear(2);
            }
            d.commit();
            d.check_invariants();
            assert_figure1(&d);
            assert!(d.has_knot());
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "staged twice")]
    fn two_blocked_states_for_one_id_are_refused() {
        let mut d = DynamicWaitGraph::new(10);
        d.stage_blocked(1, &[1, 2], &[3]);
        d.stage_blocked(1, &[1, 2], &[4]);
        d.commit();
    }

    #[test]
    fn a_removed_victim_stales_the_verdict_until_restaged() {
        let mut d = DynamicWaitGraph::new(10);
        stage_figure1(&mut d);
        assert!(d.has_knot());
        assert!(d.remove_requests(2), "a knot member waits");
        assert!(!d.remove_requests(2), "its requests are gone");
        assert_eq!(d.verdict, None, "a removal stales the verdict");
        d.check_invariants();
        assert!(!d.has_knot());
        assert!(d
            .graph()
            .knot_deadlock_sets(&mut DetectorScratch::new())
            .is_empty());
        // The engine's next drain restages the victim's old state: the
        // record differs from the live one, so the commit applies it.
        d.stage_blocked(2, &[3, 4, 5], &[6]);
        assert!(d.commit());
        d.check_invariants();
        assert!(d.has_knot());
        assert_figure1(&d);
    }

    #[test]
    fn empty_requests_count_toward_population_not_knots() {
        let mut d = DynamicWaitGraph::new(8);
        // A fault-stranded blocked message: chain only, a CWG sink.
        d.stage_blocked(3, &[1, 2], &[]);
        d.commit();
        d.check_invariants();
        assert_eq!(d.num_blocked(), 1);
        assert_eq!(d.graph().num_blocked(), 0);
        assert!(!d.has_knot());
    }
}
