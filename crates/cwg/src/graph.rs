//! The channel wait-for graph structure.

use std::ops::Range;

use crate::adjacency::Adjacency;
use crate::idmap::IdMap;

/// A virtual-channel vertex in the CWG. The embedding (which VC of which
/// physical channel this is) belongs to the caller.
pub type VertexId = u32;

/// Opaque message identifier.
pub type MessageId = u64;

/// Sentinel slot for "no owning message".
const NO_MSG: u32 = u32::MAX;

/// Per-message flat record: ranges into the vertex pool.
#[derive(Clone, Copy, Debug)]
struct MsgEntry {
    id: MessageId,
    chain_start: u32,
    chain_len: u32,
    req_start: u32,
    req_len: u32,
}

impl MsgEntry {
    fn chain(&self) -> Range<usize> {
        self.chain_start as usize..(self.chain_start + self.chain_len) as usize
    }

    fn requests(&self) -> Range<usize> {
        self.req_start as usize..(self.req_start + self.req_len) as usize
    }
}

/// A snapshot of resource allocations and requests at one instant.
///
/// Built from simulator state at each detection epoch (the paper invokes
/// detection every 50 cycles). Unlike the dependency graphs of avoidance
/// theory, this depicts the *dynamic* state — it is generally disconnected.
///
/// The record table is the graph: one `pool` holds every chain and request
/// list, and each vertex's out-arcs are a range of it. A chain interior's
/// one solid arc is the next pool position (its successor in the chain), a
/// head's dashed arcs are its owner's request range, and a free vertex has
/// none; so [`neighbors`](Adjacency::neighbors) is one range load and no
/// vertex carries both kinds of arc.
///
/// The graph is **patched in place**: removing a record (the event-patched
/// [`DynamicWaitGraph`](crate::DynamicWaitGraph) does, for every changed
/// message) moves the last record into its slot, so the table stays dense,
/// and leaves its words in the pool dead. Once dead words outnumber live
/// ones the live records are copied into a spare pool and their ranges
/// rewritten. [`reset`](WaitGraph::reset) clears it while keeping every
/// buffer's capacity, so neither patching nor rebuilding allocates once
/// capacities have warmed up.
#[derive(Clone, Debug, Default)]
pub struct WaitGraph {
    /// Vertex -> its out-arcs as a `(start, len)` range of `pool`.
    out: Vec<(u32, u32)>,
    /// Vertex -> owning message slot (index into `msgs`), or [`NO_MSG`].
    owner_slot: Vec<u32>,
    msgs: Vec<MsgEntry>,
    /// Message id -> slot; reused across rebuilds (capacity survives
    /// [`reset`](WaitGraph::reset)).
    index: IdMap<u32>,
    /// Every chain and request list; removed ones stay as dead words.
    pool: Vec<VertexId>,
    /// Pool words no record references; at most the live ones.
    dead: usize,
    /// The other pool buffer, which compaction copies the live words into.
    spare: Vec<VertexId>,
    /// Records with requests: [`num_blocked`](Self::num_blocked).
    blocked: usize,
}

impl WaitGraph {
    /// An empty graph over `n` vertices.
    pub fn new(n: usize) -> Self {
        let mut g = WaitGraph::default();
        g.reset(n);
        g
    }

    /// Clears the graph back to `n` free, arcless vertices, retaining
    /// every buffer's capacity. Only vertices owned in the previous build
    /// are visited (arcs only ever originate at owned vertices), so a
    /// reset after a sparse epoch is cheap.
    pub fn reset(&mut self, n: usize) {
        for e in &self.msgs {
            for &v in &self.pool[e.chain()] {
                self.out[v as usize] = (0, 0);
                self.owner_slot[v as usize] = NO_MSG;
            }
        }
        self.out.resize(n, (0, 0));
        self.owner_slot.resize(n, NO_MSG);
        self.msgs.clear();
        self.index.clear();
        self.pool.clear();
        self.dead = 0;
        self.blocked = 0;
    }

    /// Number of vertices (owned or not).
    pub fn num_vertices(&self) -> usize {
        self.out.len()
    }

    /// Records that `msg` owns `chain` (in acquisition order: tail-most
    /// first). Adds the solid arcs `chain[i] → chain[i+1]`.
    ///
    /// # Panics
    /// Panics if the chain is empty, a vertex is out of range or already
    /// owned, or the message already registered a chain.
    pub fn add_chain(&mut self, msg: MessageId, chain: &[VertexId]) {
        assert!(!chain.is_empty(), "ownership chain may not be empty");
        let slot = self.msgs.len() as u32;
        for &v in chain {
            assert!((v as usize) < self.out.len(), "vertex {v} out of range");
            assert!(
                self.owner_slot[v as usize] == NO_MSG,
                "vertex {v} already owned"
            );
            self.owner_slot[v as usize] = slot;
        }
        let prev = self.index.insert(msg, slot);
        assert!(prev.is_none(), "message {msg} registered twice");
        let e = MsgEntry {
            id: msg,
            chain_start: self.pool.len() as u32,
            chain_len: chain.len() as u32,
            req_start: 0,
            req_len: 0,
        };
        self.pool.extend_from_slice(chain);
        self.link(&e);
        self.msgs.push(e);
    }

    /// Points the out-ranges of `e`'s chain at the pool: each interior
    /// vertex at its successor's position, the head at the request range.
    fn link(&mut self, e: &MsgEntry) {
        for (p, &v) in e.chain().zip(&self.pool[e.chain()]) {
            self.out[v as usize] = (p as u32 + 1, 1);
        }
        let head = self.pool[e.chain().end - 1];
        self.out[head as usize] = (e.req_start, e.req_len);
    }

    /// Records that blocked message `msg` (whose chain must already be
    /// registered) is waiting for each vertex of `targets`. Dashed arcs are
    /// added from the head (last) vertex of its chain.
    ///
    /// # Panics
    /// Panics if `msg` has no chain, `targets` is empty, or a target is out
    /// of range.
    pub fn add_requests(&mut self, msg: MessageId, targets: &[VertexId]) {
        let &slot = self
            .index
            .get(&msg)
            .expect("requests require an ownership chain");
        self.add_requests_at(slot, targets);
    }

    /// [`add_chain`](Self::add_chain) followed, when `requests` is
    /// non-empty, by [`add_requests`](Self::add_requests), with one id
    /// lookup instead of two.
    pub(crate) fn add_record(&mut self, msg: MessageId, chain: &[VertexId], requests: &[VertexId]) {
        let slot = self.msgs.len() as u32;
        self.add_chain(msg, chain);
        if !requests.is_empty() {
            self.add_requests_at(slot, requests);
        }
    }

    fn add_requests_at(&mut self, slot: u32, targets: &[VertexId]) {
        assert!(!targets.is_empty(), "a blocked message waits for something");
        let n = self.out.len();
        let e = &mut self.msgs[slot as usize];
        assert!(e.req_len == 0, "message {} requested twice", e.id);
        for &t in targets {
            assert!((t as usize) < n, "vertex {t} out of range");
        }
        e.req_start = self.pool.len() as u32;
        e.req_len = targets.len() as u32;
        let head = self.pool[e.chain().end - 1];
        self.out[head as usize] = (e.req_start, e.req_len);
        self.pool.extend_from_slice(targets);
        self.blocked += 1;
    }

    /// Removes the dashed request arcs of `msg` in place, turning its chain
    /// into a CWG sink — exactly how a recovery victim stops waiting while
    /// still owning its chain. Returns `false` when `msg` is unknown or had
    /// no requests. The head's range and the record's request count are
    /// zeroed, and the request list becomes dead pool words.
    ///
    /// The resulting graph is arc-for-arc identical to one freshly built
    /// from the same snapshot with `msg`'s requests omitted.
    pub fn remove_requests(&mut self, msg: MessageId) -> bool {
        let Some(&slot) = self.index.get(&msg) else {
            return false;
        };
        let e = &mut self.msgs[slot as usize];
        let words = e.req_len;
        if words == 0 {
            return false;
        }
        e.req_len = 0;
        let head = self.pool[e.chain().end - 1];
        self.out[head as usize] = (0, 0);
        self.blocked -= 1;
        self.retire(words);
        true
    }

    /// Removes the record of `msg` in place: its chain's vertices become
    /// free and arcless, the last record moves into its slot, and its words
    /// become dead. Returns `false` when `msg` is unknown.
    pub(crate) fn remove_record(&mut self, msg: MessageId) -> bool {
        let Some(slot) = self.index.remove(&msg) else {
            return false;
        };
        let e = self.msgs.swap_remove(slot as usize);
        for &v in &self.pool[e.chain()] {
            self.out[v as usize] = (0, 0);
            self.owner_slot[v as usize] = NO_MSG;
        }
        if let Some(moved) = self.msgs.get(slot as usize) {
            for &v in &self.pool[moved.chain()] {
                self.owner_slot[v as usize] = slot;
            }
            self.index.insert(moved.id, slot);
        }
        self.blocked -= usize::from(e.req_len > 0);
        self.retire(e.chain_len + e.req_len);
        true
    }

    /// Counts `words` as dead and compacts the pool once dead words
    /// outnumber live ones: every live record is copied, in slot order,
    /// into the spare buffer, which becomes the pool, and its out-ranges
    /// are rewritten. Amortized O(1) per retired word; per-vertex arc
    /// order is unchanged.
    fn retire(&mut self, words: u32) {
        self.dead += words as usize;
        if 2 * self.dead <= self.pool.len() {
            return;
        }
        let mut pool = std::mem::take(&mut self.spare);
        pool.clear();
        for e in &mut self.msgs {
            let (chain, requests) = (e.chain(), e.requests());
            e.chain_start = pool.len() as u32;
            pool.extend_from_slice(&self.pool[chain]);
            e.req_start = pool.len() as u32;
            pool.extend_from_slice(&self.pool[requests]);
        }
        self.spare = std::mem::replace(&mut self.pool, pool);
        self.dead = 0;
        for i in 0..self.msgs.len() {
            let e = self.msgs[i];
            self.link(&e);
        }
    }

    /// The message owning `v`, if any.
    #[inline]
    pub fn owner(&self, v: VertexId) -> Option<MessageId> {
        self.slot_of(v).map(|slot| self.slot_id(slot))
    }

    /// The record slot owning `v`, if any.
    #[inline]
    pub(crate) fn slot_of(&self, v: VertexId) -> Option<u32> {
        match self.owner_slot[v as usize] {
            NO_MSG => None,
            slot => Some(slot),
        }
    }

    /// The message id of record `slot`.
    #[inline]
    pub(crate) fn slot_id(&self, slot: u32) -> MessageId {
        self.msgs[slot as usize].id
    }

    /// The chain of record `slot`.
    pub(crate) fn slot_chain(&self, slot: u32) -> &[VertexId] {
        &self.pool[self.msgs[slot as usize].chain()]
    }

    /// The `(chain, requests)` of `msg`, if registered; the requests are
    /// empty when it waits for nothing.
    pub(crate) fn record(&self, msg: MessageId) -> Option<(&[VertexId], &[VertexId])> {
        let e = &self.msgs[*self.index.get(&msg)? as usize];
        Some((&self.pool[e.chain()], &self.pool[e.requests()]))
    }

    /// The chain owned by `msg` (acquisition order), if registered.
    pub fn chain(&self, msg: MessageId) -> Option<&[VertexId]> {
        self.record(msg).map(|(chain, _)| chain)
    }

    /// Request targets of `msg`, if it is blocked.
    pub fn requests_of(&self, msg: MessageId) -> Option<&[VertexId]> {
        self.record(msg)
            .and_then(|(_, requests)| (!requests.is_empty()).then_some(requests))
    }

    /// Messages with registered requests (the blocked messages).
    pub fn blocked_messages(&self) -> impl Iterator<Item = MessageId> + '_ {
        self.msgs.iter().filter(|e| e.req_len > 0).map(|e| e.id)
    }

    /// `(id, chain, requests)` of every record, in slot order (a record's
    /// slot is its position), straight from the record table.
    pub(crate) fn records(
        &self,
    ) -> impl ExactSizeIterator<Item = (MessageId, &[VertexId], &[VertexId])> + '_ {
        self.msgs
            .iter()
            .map(|e| (e.id, &self.pool[e.chain()], &self.pool[e.requests()]))
    }

    /// Number of blocked messages in the snapshot. O(1).
    pub fn num_blocked(&self) -> usize {
        self.blocked
    }

    /// All registered messages (owners of at least one vertex).
    pub fn messages(&self) -> impl Iterator<Item = MessageId> + '_ {
        self.msgs.iter().map(|e| e.id)
    }

    /// Verifies the store against a fresh build of its own records (tests;
    /// O(vertices + words)): the same arcs and owner at every vertex, an
    /// id index that finds every slot, the blocked count, and no more dead
    /// pool words than live ones.
    pub(crate) fn check_store(&self) {
        let mut fresh = WaitGraph::new(self.num_vertices());
        for (slot, (id, chain, requests)) in self.records().enumerate() {
            assert_eq!(self.index.get(&id), Some(&(slot as u32)), "id index");
            fresh.add_record(id, chain, requests);
        }
        for v in 0..self.num_vertices() as u32 {
            assert_eq!(self.neighbors(v), fresh.neighbors(v), "arcs of {v}");
            assert_eq!(self.owner(v), fresh.owner(v), "owner of {v}");
        }
        assert_eq!(self.index.len(), self.msgs.len(), "id index size");
        assert_eq!(self.blocked, fresh.blocked, "blocked count drifted");
        assert_eq!(self.dead, self.pool.len() - fresh.pool.len(), "dead words");
        assert!(
            2 * self.dead <= self.pool.len(),
            "dead words outnumber live"
        );
    }
}

/// The SCC, knot and cycle algorithms walk the graph itself: a vertex's
/// successors are one range of the pool.
impl Adjacency for WaitGraph {
    fn num_vertices(&self) -> usize {
        self.out.len()
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let (start, len) = self.out[v as usize];
        &self.pool[start as usize..(start + len) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_adds_solid_edges() {
        let mut g = WaitGraph::new(4);
        g.add_chain(1, &[0, 1, 2]);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[2]);
        assert!(g.neighbors(2).is_empty());
        assert!(g.neighbors(3).is_empty());
        assert_eq!(g.owner(0), Some(1));
        assert_eq!(g.owner(3), None);
        assert_eq!(g.chain(1), Some(&[0, 1, 2][..]));
    }

    #[test]
    fn requests_fan_out_from_head() {
        let mut g = WaitGraph::new(5);
        g.add_chain(7, &[0, 1]);
        g.add_requests(7, &[3, 4]);
        assert_eq!(g.neighbors(0), &[1], "the interior keeps its solid arc");
        assert_eq!(g.neighbors(1), &[3, 4]);
        assert_eq!(g.owner(1), Some(7));
        assert_eq!(g.num_blocked(), 1);
        assert_eq!(g.requests_of(7), Some(&[3, 4][..]));
    }

    #[test]
    fn single_vertex_chain_allowed() {
        let mut g = WaitGraph::new(2);
        g.add_chain(9, &[1]);
        g.add_requests(9, &[0]);
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.owner(1), Some(9));
        assert_eq!(g.owner(0), None);
    }

    #[test]
    #[should_panic(expected = "already owned")]
    fn double_ownership_rejected() {
        let mut g = WaitGraph::new(3);
        g.add_chain(1, &[0, 1]);
        g.add_chain(2, &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn double_chain_rejected() {
        let mut g = WaitGraph::new(4);
        g.add_chain(1, &[0]);
        g.add_chain(1, &[1]);
    }

    #[test]
    #[should_panic(expected = "require an ownership chain")]
    fn requests_without_chain_rejected() {
        let mut g = WaitGraph::new(3);
        g.add_requests(1, &[0]);
    }

    #[test]
    #[should_panic(expected = "requested twice")]
    fn double_requests_rejected() {
        let mut g = WaitGraph::new(3);
        g.add_chain(1, &[0]);
        g.add_requests(1, &[1]);
        g.add_requests(1, &[2]);
    }

    #[test]
    fn reset_clears_and_reuses() {
        let mut g = WaitGraph::new(6);
        g.add_chain(1, &[0, 1]);
        g.add_chain(2, &[3]);
        g.add_requests(1, &[3]);
        g.reset(6);
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.num_blocked(), 0);
        for v in 0..6 {
            assert_eq!(g.owner(v), None, "vertex {v} still owned after reset");
            assert!(g.neighbors(v).is_empty(), "vertex {v} kept its arcs");
        }
        assert_eq!(g.chain(1), None);
        // The same ids and vertices can be registered again.
        g.add_chain(1, &[1, 2]);
        g.add_requests(1, &[0]);
        assert_eq!(g.chain(1), Some(&[1, 2][..]));
        assert_eq!(g.requests_of(1), Some(&[0][..]));
    }

    #[test]
    fn reset_can_resize() {
        let mut g = WaitGraph::new(2);
        g.add_chain(5, &[1]);
        g.reset(8);
        assert_eq!(g.num_vertices(), 8);
        g.add_chain(5, &[7]);
        assert_eq!(g.owner(7), Some(5));
        g.reset(3);
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.owner(1), None);
    }

    #[test]
    fn remove_requests_matches_fresh_build() {
        let mut g = WaitGraph::new(6);
        g.add_chain(1, &[0, 1]);
        g.add_chain(2, &[2, 3]);
        g.add_requests(1, &[2]);
        g.add_requests(2, &[0]);
        assert!(g.remove_requests(1));
        assert!(!g.remove_requests(1), "second removal is a no-op");
        assert!(!g.remove_requests(99), "unknown message is a no-op");

        let mut fresh = WaitGraph::new(6);
        fresh.add_chain(1, &[0, 1]);
        fresh.add_chain(2, &[2, 3]);
        fresh.add_requests(2, &[0]);
        for v in 0..6u32 {
            assert_eq!(
                g.neighbors(v),
                fresh.neighbors(v),
                "vertex {v} arcs diverge"
            );
            assert_eq!(g.owner(v), fresh.owner(v), "vertex {v} owner diverges");
        }
        assert_eq!(g.num_blocked(), fresh.num_blocked());
        assert_eq!(g.requests_of(1), None);
        assert_eq!(g.requests_of(2), Some(&[0][..]));
    }

    #[test]
    fn removal_and_compaction_match_fresh_build() {
        // Records 1..=4 on disjoint chains; record `i` requests the head of
        // record `i % 4 + 1`. Removing and re-adding them in turn moves
        // slots and kills pool words until the pool compacts.
        let chain = |i: u32| [3 * i, 3 * i + 1];
        let requests = |i: u32| [3 * (i % 4 + 1) + 1, 2];
        let mut g = WaitGraph::new(16);
        for i in 1..=4 {
            g.add_record(u64::from(i), &chain(i), &requests(i));
        }
        let words = g.pool.len();
        let mut compactions = 0;
        for round in 0..12u32 {
            let i = round % 4 + 1;
            assert!(g.remove_record(u64::from(i)));
            assert!(!g.remove_record(u64::from(i)), "second removal is a no-op");
            g.check_store();
            assert_eq!(g.owner(3 * i), None);
            assert!(g.neighbors(3 * i).is_empty());
            g.add_record(u64::from(i), &chain(i), &requests(i));
            if round == 5 {
                assert!(g.remove_requests(2));
            }
            g.check_store();
            compactions += usize::from(g.dead == 0);
        }
        assert!(compactions > 0 && g.pool.len() < 2 * words + 4);
        assert!(g.remove_requests(2));
        g.check_store();
        let mut fresh = WaitGraph::new(16);
        for i in [1, 3, 4, 2] {
            let reqs: &[u32] = if i == 2 { &[] } else { &requests(i) };
            fresh.add_record(u64::from(i), &chain(i), reqs);
        }
        for v in 0..16 {
            assert_eq!(g.neighbors(v), fresh.neighbors(v), "arcs of {v}");
            assert_eq!(g.owner(v), fresh.owner(v), "owner of {v}");
        }
        assert_eq!(g.num_blocked(), 3);
        g.reset(16);
        g.check_store();
        assert_eq!((g.pool.len(), g.num_blocked()), (0, 0));
    }
}
