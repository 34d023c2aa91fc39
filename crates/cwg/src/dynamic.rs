//! Incrementally maintained channel wait-for state.
//!
//! The paper's detector builds a [`WaitGraph`] from scratch at every
//! detection epoch. [`DynamicWaitGraph`] instead *persists* the blocked
//! wait-state across epochs and is patched with the net effect of the
//! engine's own block/acquire/release events, so "is there a knot right
//! now?" costs one reduction over the blocked records when a commit
//! changed one — nothing at all when none changed — and only a `true`
//! answer pays for a graph
//! ([`DynamicWaitGraph::rebuild_graph`]) and its full analysis. The runner
//! drains once per epoch; any cadence down to every cycle is the same
//! protocol.
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
//! 1. `records[m]` = the settled chain + requests of every blocked message
//!    `m`, verbatim from the engine's snapshot extraction rules.
//! 2. `owner[v] = m` iff `v` is on `records[m].chain` (blocked owners
//!    only; each vertex has at most one).
//! 3. `waiters[v]` = the blocked messages whose requests include `v`.
//! 4. `fp_partial` = the commutative sum of per-record hashes, identical
//!    to the simulator snapshot fingerprint's partial sum (same FNV-1a +
//!    SplitMix64 construction), so
//!    [`fingerprint`](DynamicWaitGraph::fingerprint) equals
//!    `SnapshotArena::fingerprint()` for the same wait-state.
//!
//! # The verdict
//!
//! [`has_knot`](DynamicWaitGraph::has_knot) is one greatest-fixpoint
//! reduction over the record table — no graph build — cached until a
//! commit changes a record. A record has an *escape* when it requests
//! nothing or requests a vertex no blocked message owns; reducing a record
//! virtually frees its chain, which gives every waiter on it an escape.
//! What survives is closed under "owner of a request target" and every
//! survivor has an out-arc, so a non-empty survivor set holds a
//! non-trivial terminal SCC, and a knot's deadlock set is itself such a
//! set: core non-empty ⟺ knot. The structure keeps no exact deadlock
//! sets: a caller that needs them rebuilds the small blocked-only graph
//! with [`rebuild_graph`](DynamicWaitGraph::rebuild_graph) and analyses
//! that. The runner, on a knot epoch, runs [`WaitGraph::analyze_with`] on
//! it and breaks each knot it finds with one victim, which leaves no knot;
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
use crate::idmap::{mix, IdMap};

/// Per-blocked-message record.
#[derive(Clone, Debug)]
struct Rec {
    chain: Vec<VertexId>,
    requests: Vec<VertexId>,
    /// Finalized per-record hash (see [`record_hash`]).
    hash: u64,
}

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

/// Owner-index sentinel: the vertex is not held by any blocked message.
const NO_OWNER: MessageId = MessageId::MAX;

/// Persistent, event-patched blocked wait-state with a cached knot
/// verdict. See the module docs for the maintenance invariants.
#[derive(Clone, Debug, Default)]
pub struct DynamicWaitGraph {
    num_vertices: usize,
    records: IdMap<Rec>,
    /// Records with a non-empty request set (see [`Self::num_waiting`]).
    waiting: usize,
    /// Vertex -> owning *blocked* message, dense ([`NO_OWNER`] = free).
    owner: Vec<MessageId>,
    /// Vertex -> blocked messages requesting it (reverse request index).
    waiters: Vec<Vec<MessageId>>,
    /// Commutative per-record hash sum (population fold applied at query).
    fp_partial: u64,
    // Staged edits awaiting commit.
    staged: Vec<(MessageId, Staged)>,
    staged_pool: Vec<VertexId>,
    // The reduction verdict, `None` once a commit changed a record.
    verdict: Option<bool>,
    // Scratch for the reduction behind `has_knot`: `freed[v] == red_epoch`
    // once `v`'s owner is reduced, so no per-pass map is needed.
    red_epoch: u64,
    freed: Vec<u64>,
    red_stack: Vec<VertexId>,
    // Ids staged more than once in the current commit (rare; API-only).
    dup_buf: Vec<MessageId>,
}

impl DynamicWaitGraph {
    /// An empty wait-state over `num_vertices` CWG vertices.
    pub fn new(num_vertices: usize) -> Self {
        DynamicWaitGraph {
            num_vertices,
            owner: vec![NO_OWNER; num_vertices],
            waiters: vec![Vec::new(); num_vertices],
            freed: vec![0; num_vertices],
            ..Default::default()
        }
    }

    /// Total vertex count (folds into the fingerprint).
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of blocked messages currently tracked.
    pub fn num_blocked(&self) -> usize {
        self.records.len()
    }

    /// Tracked messages that wait on at least one vertex — what a
    /// [`WaitGraph`] built from the same state reports as
    /// [`num_blocked`](WaitGraph::num_blocked). A fault-stranded message
    /// (blocked, no surviving candidate) is tracked but waits on nothing.
    pub fn num_waiting(&self) -> usize {
        self.waiting
    }

    /// Order-independent 64-bit hash of the blocked wait-state —
    /// bit-identical to `SnapshotArena::fingerprint()` for the same state.
    pub fn fingerprint(&self) -> u64 {
        self.fp_partial
            ^ mix((self.records.len() as u64) << 32
                ^ self.num_vertices as u64
                ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// The tracked `(settled chain, requests)` of `id`, if blocked.
    pub fn record(&self, id: MessageId) -> Option<(&[VertexId], &[VertexId])> {
        self.records
            .get(&id)
            .map(|r| (r.chain.as_slice(), r.requests.as_slice()))
    }

    /// Rebuilds `g` in place as the blocked-only wait graph of the tracked
    /// records. By the module-level argument it has exactly the full
    /// snapshot graph's knots. Records are registered in record-table
    /// order, with one id lookup each: no analysis output depends on
    /// registration order (knots, sets and dependents are keyed by vertex
    /// or sorted by id; `registration_order_reaches_no_output` pins it).
    /// Allocation-free once `g` has warmed up.
    pub fn rebuild_graph(&self, g: &mut WaitGraph) {
        g.reset(self.num_vertices);
        for (&id, rec) in &self.records {
            g.add_record(id, &rec.chain, &rec.requests);
        }
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
        // Drop reconciliation no-ops before touching any index: the
        // engine re-resolves conservatively-marked messages (fault
        // transitions mark *everything*), and an identical re-staging
        // must neither churn the indices nor stale the verdict.
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
        let mut dups = 0;
        for i in 1..self.dup_buf.len() {
            if self.dup_buf[i] == self.dup_buf[i - 1]
                && (dups == 0 || self.dup_buf[dups - 1] != self.dup_buf[i])
            {
                self.dup_buf[dups] = self.dup_buf[i];
                dups += 1;
            }
        }
        self.dup_buf.truncate(dups);
        staged.retain(|(id, st)| match *st {
            _ if self.dup_buf.binary_search(id).is_ok() => true,
            Staged::Blocked {
                start,
                chain_len,
                len,
            } => {
                let s = start as usize;
                let c = s + chain_len as usize;
                self.records.get(id).is_none_or(|rec| {
                    rec.chain.as_slice() != &pool[s..c]
                        || rec.requests.as_slice() != &pool[c..s + len as usize]
                })
            }
            Staged::Clear => self.records.contains_key(id),
        });
        let changed = !staged.is_empty();
        if changed {
            self.verdict = None;
        }
        for (id, _) in &staged {
            self.remove_record(*id);
        }
        for (id, st) in &staged {
            if let Staged::Blocked {
                start,
                chain_len,
                len,
            } = *st
            {
                let s = start as usize;
                let c = s + chain_len as usize;
                self.insert_record(*id, &pool[s..c], &pool[c..s + len as usize]);
            }
        }
        self.staged_pool = pool;
        self.staged_pool.clear();
        self.staged = staged;
        self.staged.clear();
        changed
    }

    /// Removes `id`'s record and repairs the ownership and waiter
    /// indices. No-op for untracked ids.
    fn remove_record(&mut self, id: MessageId) {
        let Some(rec) = self.records.remove(&id) else {
            return;
        };
        self.fp_partial = self.fp_partial.wrapping_sub(rec.hash);
        self.waiting -= usize::from(!rec.requests.is_empty());
        for &t in &rec.requests {
            self.waiters[t as usize].retain(|&w| w != id);
        }
        for &v in &rec.chain {
            // Only release vertices this record still owns: a same-commit
            // overwrite (or a mid-commit migration) may have reassigned one.
            if self.owner[v as usize] == id {
                self.owner[v as usize] = NO_OWNER;
            }
        }
    }

    /// Inserts a fresh record for `id` and repairs all indices.
    fn insert_record(&mut self, id: MessageId, chain: &[VertexId], requests: &[VertexId]) {
        // Defensive: a duplicate stage for one id keeps the last state.
        self.remove_record(id);
        for &v in chain {
            let prev = std::mem::replace(&mut self.owner[v as usize], id);
            debug_assert!(
                prev == NO_OWNER,
                "vertex {v} owned by two blocked messages ({prev} and {id})"
            );
        }
        for &t in requests {
            self.waiters[t as usize].push(id);
        }
        let rec = Rec {
            chain: chain.to_vec(),
            requests: requests.to_vec(),
            hash: record_hash(id, chain, requests),
        };
        self.fp_partial = self.fp_partial.wrapping_add(rec.hash);
        self.waiting += usize::from(!requests.is_empty());
        self.records.insert(id, rec);
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
    /// Reducing a record frees its chain.
    fn reduce(&mut self) -> bool {
        let gen = self.red_epoch + 1;
        self.red_epoch = gen;
        let freed = &mut self.freed;
        // Records with an escape reduce at once, without a walk; the rest
        // are the candidates.
        let mut alive = 0usize;
        for rec in self.records.values() {
            let escape = rec.requests.is_empty()
                || rec
                    .requests
                    .iter()
                    .any(|&t| self.owner[t as usize] == NO_OWNER);
            if escape {
                for &v in &rec.chain {
                    freed[v as usize] = gen;
                }
            } else {
                alive += 1;
            }
        }
        // A candidate that lost an owner reduces in turn, which frees its
        // chain for the candidates waiting on it; a candidate that loses
        // an owner later is reached by that walk.
        for rec in self.records.values() {
            if alive == 0 {
                return false;
            }
            let lost_owner = rec.requests.iter().any(|&t| freed[t as usize] == gen);
            if !lost_owner || freed[rec.chain[0] as usize] == gen {
                continue; // still a candidate, or already reduced
            }
            alive -= 1;
            for &v in &rec.chain {
                freed[v as usize] = gen;
                self.red_stack.push(v);
            }
            while let Some(v) = self.red_stack.pop() {
                for w in &self.waiters[v as usize] {
                    let wrec = &self.records[w];
                    if freed[wrec.chain[0] as usize] == gen {
                        continue;
                    }
                    alive -= 1;
                    for &u in &wrec.chain {
                        freed[u as usize] = gen;
                        self.red_stack.push(u);
                    }
                }
            }
        }
        alive > 0 // survivors form a core
    }

    /// Compares this incrementally maintained state against a freshly
    /// built full-snapshot [`WaitGraph`], returning human-readable
    /// mismatches (empty = lockstep). The full graph also carries moving
    /// messages; agreement is defined on the blocked subset plus the knot
    /// verdict.
    pub fn diff_against_snapshot(&mut self, full: &WaitGraph) -> Vec<String> {
        let mut out = Vec::new();
        // Every blocked message of the snapshot (non-empty requests) must
        // be tracked verbatim. Blocked messages with empty request sets
        // are indistinguishable from moving ones in the bare graph; the
        // fingerprint equality in the engine-level tests covers those.
        for m in full.blocked_messages() {
            match self.records.get(&m) {
                None => out.push(format!("blocked message {m} missing from dynamic state")),
                Some(rec) => {
                    if full.chain(m) != Some(rec.chain.as_slice()) {
                        out.push(format!(
                            "message {m} chain: snapshot={:?} dynamic={:?}",
                            full.chain(m),
                            rec.chain
                        ));
                    }
                    if full.requests_of(m) != Some(rec.requests.as_slice()) {
                        out.push(format!(
                            "message {m} requests: snapshot={:?} dynamic={:?}",
                            full.requests_of(m),
                            rec.requests
                        ));
                    }
                }
            }
        }
        for (&m, rec) in &self.records {
            if !rec.requests.is_empty() && full.requests_of(m).is_none() {
                out.push(format!(
                    "dynamic tracks {m} but the snapshot does not block it"
                ));
            }
        }
        // Verdicts must agree set-for-set (order-independently), the
        // dynamic side through its own blocked-only rebuild.
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
        let mut blocked_only = WaitGraph::new(0);
        self.rebuild_graph(&mut blocked_only);
        let got = sorted(blocked_only.knot_deadlock_sets(&mut scratch));
        if want != got {
            out.push(format!(
                "knot deadlock sets: snapshot={want:?} dynamic={got:?}"
            ));
        }
        out
    }

    /// Verifies invariants 2–4 against the record table from scratch, and
    /// a cached verdict against a naive reduction (tests; O(state)).
    pub fn check_invariants(&self) {
        let mut fp = 0u64;
        let waiting = self
            .records
            .values()
            .filter(|r| !r.requests.is_empty())
            .count();
        assert_eq!(self.waiting, waiting, "waiting counter drifted");
        for (&id, rec) in &self.records {
            assert!(!rec.chain.is_empty(), "record {id} with an empty chain");
            for &v in &rec.chain {
                assert_eq!(self.owner[v as usize], id, "owner index out of sync");
            }
            for &t in &rec.requests {
                assert!(
                    self.waiters[t as usize].contains(&id),
                    "waiter index missing {id} -> {t}"
                );
            }
            assert_eq!(rec.hash, record_hash(id, &rec.chain, &rec.requests));
            fp = fp.wrapping_add(rec.hash);
        }
        for (v, &m) in self.owner.iter().enumerate() {
            assert!(
                m == NO_OWNER
                    || self
                        .records
                        .get(&m)
                        .is_some_and(|r| r.chain.contains(&(v as VertexId))),
                "owner index holds a stale vertex {v}"
            );
        }
        for (t, ws) in self.waiters.iter().enumerate() {
            for w in ws {
                assert!(
                    self.records
                        .get(w)
                        .is_some_and(|r| r.requests.contains(&(t as VertexId))),
                    "waiter index holds a stale edge {w} -> {t}"
                );
            }
        }
        assert_eq!(self.fp_partial, fp, "fingerprint partial sum drifted");

        // Independent greatest-fixpoint core (naive iteration): non-empty
        // iff a knot exists. A cached verdict must agree.
        let mut removed: std::collections::HashSet<MessageId> = std::collections::HashSet::new();
        loop {
            let mut changed = false;
            for (&id, rec) in &self.records {
                if removed.contains(&id) {
                    continue;
                }
                let escape = rec.requests.is_empty()
                    || rec.requests.iter().any(|&t| {
                        let m = self.owner[t as usize];
                        m == NO_OWNER || removed.contains(&m)
                    });
                if escape {
                    removed.insert(id);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let core_live = removed.len() < self.records.len();
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
        let mut g = WaitGraph::new(0);
        d.rebuild_graph(&mut g);
        assert_eq!(
            g.knot_deadlock_sets(&mut DetectorScratch::new()),
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
            assert_eq!(d.record(2).unwrap().0, &[5, 6, 4]);
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
    fn empty_requests_count_toward_population_not_knots() {
        let mut d = DynamicWaitGraph::new(8);
        // A fault-stranded blocked message: chain only, a CWG sink.
        d.stage_blocked(3, &[1, 2], &[]);
        d.commit();
        d.check_invariants();
        assert_eq!(d.num_blocked(), 1);
        assert_eq!(d.num_waiting(), 0);
        assert!(!d.has_knot());
    }
}
