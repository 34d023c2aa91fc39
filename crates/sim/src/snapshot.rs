//! Wait-for snapshot extraction for true deadlock detection.
//!
//! The detector (`icn-cwg`, driven by `flexsim`) works on a snapshot of
//! *who owns what* and *who waits for what*. Two subtleties make the
//! snapshot faithful to the knot theory:
//!
//! * **Settled chains.** A blocked wormhole message still *compacts*: its
//!   flits keep advancing into the buffers of its chain suffix, releasing
//!   tail VCs as they empty. A VC that will be released this way is not a
//!   permanently held resource, so it must not appear in the CWG — with
//!   deep buffers (virtual cut-through) a blocked message eventually holds
//!   only the buffers around its header, which is precisely why the paper
//!   finds cut-through networks far less deadlock-prone (§3.4). For each
//!   blocked message we therefore report only the chain suffix that will
//!   still hold flits after compaction finishes.
//! * **Reception vertices.** A header waiting for a busy reception channel
//!   is waiting on a real resource, but one that always drains; reception
//!   channels appear as vertices owned by the ejecting message (a sink in
//!   the CWG), so such waits can never close a knot.
//!
//! Vertex numbering: VC `v` of channel `c` is vertex `c * V + v`; the
//! reception channel of node `n` is vertex `num_channels * V + n`.
//!
//! The detector does not read snapshots: it is patched from
//! [`Network::drain_wait_updates`], which re-extracts — by the very same
//! rules — only the messages the engine marked since the last drain.
//! Full captures serve forensic incidents, auditors and oracles; their
//! one entry point is [`Network::wait_snapshot_into`], which refills a
//! caller-owned [`SnapshotArena`] without allocating. A caller that wants
//! an owned copy feeds [`SnapshotArena::messages`] to
//! `icn_cwg::CwgSnapshot::from_messages` — the workspace's one owned
//! wait-for record, which this crate does not depend on.

use crate::message::MsgPhase;
use crate::network::{compute_candidates, ctx_of, Network};
use crate::MessageId;
use icn_routing::Candidate;
use icn_topology::ChannelId;

/// One drained wait-state change for a message id: its fresh blocked
/// record, or the fact that it is no longer blocked (delivered, moving,
/// recovering, or dropped). Produced by [`Network::drain_wait_updates`].
#[derive(Clone, Copy, Debug)]
pub enum WaitUpdate<'a> {
    /// The message is blocked with this `(settled chain, requests)` record
    /// (requests may be empty for a fault-stranded message).
    Blocked {
        /// Settled chain, acquisition order (tail-most first).
        chain: &'a [u32],
        /// Blocked request targets.
        requests: &'a [u32],
    },
    /// The message is not (or no longer) blocked.
    Clear,
}

/// The engine's dirty list: ids whose blocked wait record may have changed
/// since the last [`Network::drain_wait_updates`]. Over-marking is fine —
/// the drain re-extracts ground truth per id — so marks are a bare push.
/// The detector drains once per detection epoch and a config may set that
/// interval to anything, so the list compacts itself (sort + dedup in
/// place) whenever it doubles past its last compacted length: its length
/// is bounded by twice the *distinct* ids touched since the last drain,
/// not by the event count.
#[derive(Debug, Default)]
pub(crate) struct WaitDirty {
    /// Off until [`Network::enable_wait_tracking`]: a bare engine (tests,
    /// step benchmarks) that never drains records nothing.
    tracking: bool,
    ids: Vec<MessageId>,
    /// `ids.len()` right after the last compaction (0 after a drain).
    compacted: usize,
}

impl WaitDirty {
    /// Below this length compaction is never worth a sort.
    const MIN_COMPACT: usize = 64;

    #[inline]
    pub(crate) fn mark(&mut self, id: MessageId) {
        if !self.tracking {
            return;
        }
        self.ids.push(id);
        if self.ids.len() > 2 * self.compacted.max(Self::MIN_COMPACT) {
            self.compact();
        }
    }

    #[cold]
    fn compact(&mut self) {
        self.ids.sort_unstable();
        self.ids.dedup();
        self.compacted = self.ids.len();
    }
}

/// Per-message record inside a [`SnapshotArena`]: ranges into the shared
/// vertex pool (chain first, then requests, contiguously).
#[derive(Clone, Copy, Debug)]
struct ArenaRecord {
    id: MessageId,
    start: u32,
    chain_len: u32,
    req_len: u32,
}

/// Borrowed view of one message in a [`SnapshotArena`].
#[derive(Clone, Copy, Debug)]
pub struct ArenaMsg<'a> {
    /// Message identifier.
    pub id: MessageId,
    /// Vertices this message will keep holding (acquisition order).
    pub chain: &'a [u32],
    /// Vertices this message is blocked waiting for (empty if moving).
    pub requests: &'a [u32],
}

/// Reusable, flat wait-for snapshot storage.
///
/// An arena is refilled in place by [`Network::wait_snapshot_into`]: a
/// single vertex pool plus per-message range records, so a repeated
/// capture performs no heap allocation once capacities have warmed up.
///
/// During the fill the arena also computes a 64-bit **fingerprint** of the
/// blocked wait-state (an order-independent hash over each blocked
/// message's `(id, settled chain, requests)`). Knots are closed exclusively
/// by blocked messages — moving chains are CWG sinks — so two epochs with
/// equal blocked wait-states have identical knot analyses. The
/// event-patched `icn_cwg::DynamicWaitGraph` computes the same hash from
/// its own records on demand, which is what the lockstep tests compare.
#[derive(Clone, Debug, Default)]
pub struct SnapshotArena {
    num_vertices: usize,
    cycle: u64,
    pool: Vec<u32>,
    records: Vec<ArenaRecord>,
    blocked: usize,
    fingerprint: u64,
    cand_buf: Vec<Candidate>,
    /// Scratch: active slots in id (age) order — the engine's active list
    /// is unordered (swap-remove), and snapshot/graph/analysis output must
    /// stay independent of that internal ordering.
    order_buf: Vec<u32>,
}

/// FNV-1a over a word stream.
#[inline]
fn fnv1a_words(mut h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    for w in words {
        h ^= w;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer: decorrelates per-message hashes before the
/// commutative combine.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SnapshotArena {
    /// An empty arena; capacities grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total vertex count (VCs plus reception channels) of the last fill.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Cycle at which the last fill was taken.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Number of messages captured by the last fill.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the last fill captured no messages.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of blocked messages captured by the last fill.
    pub fn num_blocked(&self) -> usize {
        self.blocked
    }

    /// Order-independent 64-bit hash of the blocked wait-state: equal
    /// fingerprints (collisions aside) mean an identical set of blocked
    /// `(id, settled chain, requests)` triples and therefore an identical
    /// knot analysis.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Iterates the captured messages.
    pub fn messages(&self) -> impl Iterator<Item = ArenaMsg<'_>> {
        self.records.iter().map(move |r| {
            let s = r.start as usize;
            let c = s + r.chain_len as usize;
            ArenaMsg {
                id: r.id,
                chain: &self.pool[s..c],
                requests: &self.pool[c..c + r.req_len as usize],
            }
        })
    }

    fn clear(&mut self, num_vertices: usize, cycle: u64) {
        self.num_vertices = num_vertices;
        self.cycle = cycle;
        self.pool.clear();
        self.records.clear();
        self.blocked = 0;
        self.fingerprint = 0;
    }
}

impl Network {
    /// Vertex id of the reception channel at `node`.
    pub fn reception_vertex(&self, node: icn_topology::NodeId) -> u32 {
        (self.topo.num_channels() * self.vcs_per() + node.idx()) as u32
    }

    /// Total CWG vertex count (VCs plus reception channels).
    pub fn wait_vertex_count(&self) -> usize {
        self.topo.num_channels() * self.vcs_per() + self.topo.num_nodes()
    }

    /// Refills `arena` with a wait-for snapshot of the current state,
    /// reusing its storage (no allocation once capacities have warmed up).
    /// Messages are captured in ascending id order.
    pub fn wait_snapshot_into(&self, arena: &mut SnapshotArena) {
        arena.clear(self.wait_vertex_count(), self.cycle);
        let SnapshotArena {
            pool,
            records,
            cand_buf,
            order_buf,
            ..
        } = arena;
        order_buf.clear();
        order_buf.extend_from_slice(&self.active);
        order_buf.sort_unstable_by_key(|&s| self.slot_id[s as usize]);

        let mut blocked_count = 0usize;
        // Commutative sum of per-blocked-message hashes.
        let mut partial = 0u64;
        for &slot in order_buf.iter() {
            let msg = self.messages[slot as usize].as_ref().expect("active slot");
            let blocked = msg.phase == MsgPhase::Routing && msg.blocked;
            let start = pool.len() as u32;

            // Settled chain: the suffix still holding flits once compaction
            // finishes (blocked messages only; draining messages are CWG
            // sinks either way, so their full chain is fine and cheaper).
            let chain_len = if blocked {
                self.blocked_wait_record(slot, cand_buf, pool)
                    .expect("routing+blocked message has a wait record") as u32
            } else {
                self.extend_chain_suffix(msg, msg.chain_len as usize, pool);
                if msg.phase == MsgPhase::Ejecting {
                    pool.push(self.reception_vertex(msg.dst));
                }
                pool.len() as u32 - start
            };
            let req_len = pool.len() as u32 - start - chain_len;

            records.push(ArenaRecord {
                id: msg.id,
                start,
                chain_len,
                req_len,
            });

            if blocked {
                blocked_count += 1;
                // Per-message FNV-1a over (id, chain, separator, requests),
                // finalized and combined commutatively so the fingerprint
                // is independent of `active` iteration order.
                let s = start as usize;
                let c = s + chain_len as usize;
                let mut h = fnv1a_words(0xcbf2_9ce4_8422_2325, [msg.id]);
                h = fnv1a_words(h, pool[s..c].iter().map(|&v| v as u64));
                h = fnv1a_words(h, [u64::MAX]);
                h = fnv1a_words(h, pool[c..c + req_len as usize].iter().map(|&v| v as u64));
                partial = partial.wrapping_add(mix(h));
            }
        }
        arena.blocked = blocked_count;
        // Fold in the population so e.g. "no blocked messages" epochs at
        // different vertex counts never alias.
        arena.fingerprint = partial
            ^ mix((blocked_count as u64) << 32 ^ arena.num_vertices as u64 ^ 0x9e37_79b9_7f4a_7c15);
    }

    /// Appends the wait record of the (routing, blocked) message in `slot`
    /// to `out` — settled chain first, then request targets — and returns
    /// the chain length, or `None` when the message is not blocked.
    /// Shared by the snapshot fill and the detector's drain, so both
    /// extract byte-identical records by construction.
    fn blocked_wait_record(
        &self,
        slot: u32,
        cand_buf: &mut Vec<Candidate>,
        out: &mut Vec<u32>,
    ) -> Option<usize> {
        let msg = self.messages[slot as usize].as_ref().expect("live slot");
        if msg.phase != MsgPhase::Routing || !msg.blocked {
            return None;
        }
        let vcs_per = self.vcs_per();
        let remaining = (msg.len - msg.delivered) as usize;
        let keep = remaining
            .div_ceil(self.cfg.buffer_depth)
            .min(msg.chain_len as usize);
        self.extend_chain_suffix(msg, keep, out);
        let here = self.topo.channel(ChannelId(msg.head / vcs_per as u32)).dst;
        if here == msg.dst {
            // Waiting on the destination's (busy) reception channel.
            out.push(self.reception_vertex(here));
        } else {
            compute_candidates(
                &self.topo,
                &*self.routing,
                vcs_per,
                &self.failed,
                &ctx_of(msg, here),
                cand_buf,
            );
            for cand in cand_buf.iter() {
                let base = cand.channel.idx() * vcs_per;
                out.extend(cand.vcs.iter().map(|v| (base + v) as u32));
            }
        }
        Some(keep)
    }

    /// Turns on wait-state event tracking: from now on every transition
    /// that can change a blocked message's `(settled chain, requests)`
    /// record marks the message dirty, and
    /// [`drain_wait_updates`](Self::drain_wait_updates) replays the
    /// net effect. Every active message is marked wholesale (also on a
    /// repeated call), so the next drain starts from ground truth.
    pub fn enable_wait_tracking(&mut self) {
        self.wait_dirty.tracking = true;
        self.wait_dirty_all = true;
    }

    /// Current length of the dirty list (marks since the last drain, after
    /// in-place compaction) — what the compaction bound is tested on.
    pub fn wait_dirty_len(&self) -> usize {
        self.wait_dirty.ids.len()
    }

    /// The cycle at which `id` last became blocked, if it is currently
    /// blocked.
    pub fn blocked_since(&self, id: MessageId) -> Option<u64> {
        let slot = self.id_map.get(id)?;
        self.messages[slot as usize]
            .as_ref()
            .expect("live slot")
            .blocked_since
    }

    /// Replays the net effect of every wait-state change since the last
    /// drain — however long ago — in ascending id order, one resolved
    /// record per id: for each possibly-changed message the
    /// sink receives either its current `(settled chain, requests)` record
    /// (same extraction as [`wait_snapshot_into`](Self::wait_snapshot_into))
    /// or [`WaitUpdate::Clear`]. Marking is conservative — a sink must
    /// treat a re-sent unchanged record or a `Clear` for an untracked id
    /// as a no-op (both are, for `icn_cwg::DynamicWaitGraph`'s
    /// stage/commit API).
    pub fn drain_wait_updates(&mut self, mut sink: impl FnMut(MessageId, WaitUpdate<'_>)) {
        debug_assert!(
            self.wait_dirty.tracking,
            "drain without enable_wait_tracking"
        );
        if self.wait_dirty_all {
            self.wait_dirty_all = false;
            // Re-extract every active message; ids that left the network
            // keep their individual dirty marks from `finish_slot`.
            let slot_id = &self.slot_id;
            self.wait_dirty
                .ids
                .extend(self.active.iter().map(|&s| slot_id[s as usize]));
        }
        if self.wait_dirty.ids.is_empty() {
            return;
        }
        self.wait_dirty.compact();
        let mut dirty = std::mem::take(&mut self.wait_dirty.ids);
        let mut cand_buf = std::mem::take(&mut self.wait_cand);
        let mut out = std::mem::take(&mut self.wait_buf);
        for &id in &dirty {
            match self.id_map.get(id) {
                None => sink(id, WaitUpdate::Clear),
                Some(slot) => {
                    out.clear();
                    match self.blocked_wait_record(slot, &mut cand_buf, &mut out) {
                        Some(chain_len) => sink(
                            id,
                            WaitUpdate::Blocked {
                                chain: &out[..chain_len],
                                requests: &out[chain_len..],
                            },
                        ),
                        None => sink(id, WaitUpdate::Clear),
                    }
                }
            }
        }
        dirty.clear();
        self.wait_dirty.ids = dirty;
        self.wait_dirty.compacted = 0;
        self.wait_cand = cand_buf;
        self.wait_buf = out;
    }
}
