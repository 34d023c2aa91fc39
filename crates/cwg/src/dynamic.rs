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
//! Hence the blocked-only graph has exactly the full graph's knots, and the
//! per-knot deadlock sets match [`WaitGraph::knot_deadlock_sets`] on a
//! fresh full snapshot (set-for-set; emission order may differ when
//! several independent knots coexist).
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
//! [`WaitGraph::analyze_with`] on it and breaks each knot it finds with one
//! victim, which leaves no knot;
//! [`diff_against_snapshot`](DynamicWaitGraph::diff_against_snapshot) and
//! the lockstep tests compare [`WaitGraph::knot_deadlock_sets`].
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

use crate::analysis::DetectorScratch;
use crate::graph::{MessageId, VertexId, WaitGraph};
use crate::idmap::mix;

/// One staged edit: the message's new state, or its removal.
#[derive(Clone, Debug)]
enum Staged {
    /// `(chain_len, pool range start)` — chain then requests, contiguous.
    Blocked {
        start: u32,
        chain_len: u32,
        len: u32,
    },
    Clear,
}

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
    // The current commit's staged ids, sorted: an id staged more than
    // once (rare; API-only) appears twice in a row.
    dup_buf: Vec<MessageId>,
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
    /// Takes effect at [`commit`](Self::commit).
    pub fn stage_blocked(&mut self, id: MessageId, chain: &[VertexId], requests: &[VertexId]) {
        debug_assert!(!chain.is_empty(), "a blocked message owns its head VC");
        let start = self.staged_pool.len() as u32;
        self.staged_pool.extend_from_slice(chain);
        self.staged_pool.extend_from_slice(requests);
        self.staged.push((
            id,
            Staged::Blocked {
                start,
                chain_len: chain.len() as u32,
                len: (chain.len() + requests.len()) as u32,
            },
        ));
    }

    /// Stages the removal of `id` (delivered, recovering, ejecting, or
    /// simply no longer blocked). Unknown ids are fine — the engine marks
    /// conservatively. Takes effect at [`commit`](Self::commit).
    pub fn stage_clear(&mut self, id: MessageId) {
        self.staged.push((id, Staged::Clear));
    }

    /// Applies every staged edit: phase 1 removes the old records of all
    /// staged messages, phase 2 inserts the new blocked states. At most
    /// one staged entry per id per commit (the engine's drain dedups).
    /// Returns whether any record changed; a change stales the verdict.
    pub fn commit(&mut self) -> bool {
        if self.staged.is_empty() {
            return false;
        }
        let mut staged = std::mem::take(&mut self.staged);
        let pool = std::mem::take(&mut self.staged_pool);
        // Drop reconciliation no-ops before touching the store: the
        // engine re-resolves conservatively-marked messages (fault
        // transitions mark *everything*), and an identical re-staging
        // must neither churn the store nor stale the verdict.
        //
        // The per-entry no-op test compares against pre-commit state
        // only, so an id staged more than once (a Clear + re-Block pair
        // in one commit — never from the engine's drain, but legal for
        // direct API users) must bypass the filter: dropping the Block
        // as "identical" while keeping its paired Clear would wrongly
        // remove the record.
        self.dup_buf.clear();
        self.dup_buf.extend(staged.iter().map(|(id, _)| *id));
        self.dup_buf.sort_unstable();
        let ids = &self.dup_buf;
        let any_dup = ids.windows(2).any(|w| w[0] == w[1]);
        let dup =
            |id: &MessageId| any_dup && ids.get(ids.partition_point(|x| x < id) + 1) == Some(id);
        let split = |start: u32, chain_len: u32, len: u32| {
            let (s, c) = (start as usize, (start + chain_len) as usize);
            (&pool[s..c], &pool[c..s + len as usize])
        };
        staged.retain(|(id, st)| match *st {
            _ if dup(id) => true,
            Staged::Blocked {
                start,
                chain_len,
                len,
            } => self.graph.record(*id) != Some(split(start, chain_len, len)),
            Staged::Clear => self.graph.record(*id).is_some(),
        });
        let changed = !staged.is_empty();
        if changed {
            self.verdict = None;
        }
        for (id, _) in &staged {
            self.graph.remove_record(*id);
        }
        for (id, st) in &staged {
            if let Staged::Blocked {
                start,
                chain_len,
                len,
            } = *st
            {
                if dup(id) {
                    // A duplicate stage for one id keeps the last state.
                    self.graph.remove_record(*id);
                }
                let (chain, requests) = split(start, chain_len, len);
                self.graph.add_record(*id, chain, requests);
            }
        }
        self.staged_pool = pool;
        self.staged_pool.clear();
        self.staged = staged;
        self.staged.clear();
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

    /// Compares this incrementally maintained state against a freshly
    /// built full-snapshot [`WaitGraph`], returning human-readable
    /// mismatches (empty = lockstep). The full graph also carries moving
    /// messages; agreement is defined on the blocked subset plus the knot
    /// verdict.
    pub fn diff_against_snapshot(&self, full: &WaitGraph) -> Vec<String> {
        let mut out = Vec::new();
        // Every blocked message of the snapshot (non-empty requests) must
        // be tracked verbatim. Blocked messages with empty request sets
        // are indistinguishable from moving ones in the bare graph; the
        // fingerprint equality in the engine-level tests covers those.
        for m in full.blocked_messages() {
            match self.graph.record(m) {
                None => out.push(format!("blocked message {m} missing from dynamic state")),
                Some((chain, requests)) => {
                    if full.chain(m) != Some(chain) {
                        out.push(format!(
                            "message {m} chain: snapshot={:?} dynamic={chain:?}",
                            full.chain(m),
                        ));
                    }
                    if full.requests_of(m) != Some(requests) {
                        out.push(format!(
                            "message {m} requests: snapshot={:?} dynamic={requests:?}",
                            full.requests_of(m),
                        ));
                    }
                }
            }
        }
        for m in self.graph.blocked_messages() {
            if full.requests_of(m).is_none() {
                out.push(format!(
                    "dynamic tracks {m} but the snapshot does not block it"
                ));
            }
        }
        // Verdicts must agree set-for-set (order-independently).
        let mut scratch = DetectorScratch::new();
        let sorted = |sets: Vec<Vec<MessageId>>| {
            let mut sets: Vec<Vec<MessageId>> = sets
                .into_iter()
                .map(|mut s| {
                    s.sort_unstable();
                    s
                })
                .collect();
            sets.sort_unstable();
            sets
        };
        let want = sorted(full.knot_deadlock_sets(&mut scratch));
        let got = sorted(self.graph.knot_deadlock_sets(&mut scratch));
        if want != got {
            out.push(format!(
                "knot deadlock sets: snapshot={want:?} dynamic={got:?}"
            ));
        }
        out
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

    /// Builds the Figure-1 ring both ways and checks lockstep.
    fn figure1_full() -> WaitGraph {
        let mut g = WaitGraph::new(10);
        g.add_chain(1, &[1, 2]);
        g.add_chain(2, &[3, 4, 5]);
        g.add_chain(3, &[6, 7, 0]);
        g.add_chain(4, &[8]); // moving
        g.add_chain(5, &[9]); // moving
        g.add_requests(1, &[3]);
        g.add_requests(2, &[6]);
        g.add_requests(3, &[1]);
        g
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
        assert_eq!(
            d.graph().knot_deadlock_sets(&mut DetectorScratch::new()),
            [vec![1, 2, 3]]
        );
        assert!(d.diff_against_snapshot(&figure1_full()).is_empty());
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
        assert!(d.diff_against_snapshot(&figure1_full()).is_empty());
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
