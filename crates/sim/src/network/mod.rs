//! The cycle-driven network engine: one [`Network`] of dense tables and
//! one `impl Network` block per phase — `inject`, `allocate`, `transfer`,
//! `release`, `faults`, the activity engine's scheduling (`wake`) and the
//! test-time `invariants`.

use std::collections::VecDeque;

use icn_routing::{Candidate, RoutingAlgorithm, RoutingCtx};
use icn_topology::{KAryNCube, NodeId};

use crate::config::SimConfig;
use crate::events::StepEvents;
use crate::faults::FaultEvent;
use crate::message::{Message, MessageId, MessageInfo};
use crate::snapshot::WaitDirty;

mod allocate;
mod faults;
mod inject;
mod invariants;
mod release;
mod transfer;
mod wake;

use wake::{AllocState, InjState, WakeEntry};

/// Sentinel for "no owning message" in per-resource tables.
pub(crate) const NO_OWNER: u32 = u32::MAX;

/// One entry of [`Network::occ`]: the transfer walk decides and applies a
/// move from this 8-byte record alone, so a VC's occupancy, its snapshot
/// and its feed share one cache line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct VcOcc {
    /// Flits currently buffered.
    now: u16,
    /// Start-of-cycle snapshot of `now`, which every transfer decision
    /// reads (a source entry keeps it live instead; see [`Network::occ`]).
    start: u16,
    /// Index of the entry that supplies this VC's flits: the chain
    /// predecessor, the owner's source entry for the chain front, or the
    /// always-zero free entry when the VC is free.
    feed: u32,
}

impl VcOcc {
    /// A free VC, the free entry itself, or a source with nothing left:
    /// empty and fed by the free entry at index `nv`.
    fn free(nv: usize) -> Self {
        VcOcc {
            now: 0,
            start: 0,
            feed: nv as u32,
        }
    }
}

/// A message waiting in a source queue (not yet holding any resource).
#[derive(Clone, Copy, Debug)]
struct Pending {
    dst: NodeId,
    born: u64,
    len: u32,
}

/// Dense id→slot map. Message ids are allocated monotonically, so the live
/// ids always fall in a window `[base, base + slots.len())` mapped by a
/// deque indexed with `id - base`; retired ids at the front of the window
/// compact away by advancing `base`. Lookup, insert, and removal are O(1)
/// (amortized), with no hashing on the injection hot path.
#[derive(Debug, Default)]
pub(crate) struct IdMap {
    base: MessageId,
    slots: VecDeque<u32>,
}

impl IdMap {
    pub(crate) fn get(&self, id: MessageId) -> Option<u32> {
        let idx = id.checked_sub(self.base)?;
        self.slots
            .get(usize::try_from(idx).ok()?)
            .copied()
            .filter(|&s| s != NO_OWNER)
    }

    /// Registers the next allocated id (ids arrive in order, gap-free).
    fn push(&mut self, id: MessageId, slot: u32) {
        debug_assert_eq!(id, self.base + self.slots.len() as u64);
        debug_assert_ne!(slot, NO_OWNER);
        self.slots.push_back(slot);
    }

    fn remove(&mut self, id: MessageId) {
        if let Some(idx) = id.checked_sub(self.base) {
            if let Some(s) = self.slots.get_mut(idx as usize) {
                *s = NO_OWNER;
            }
        }
        while self.slots.front() == Some(&NO_OWNER) {
            self.slots.pop_front();
            self.base += 1;
        }
    }
}

/// Which stepping engine an instance is committed to. The activity-driven
/// [`step`](Network::step) and the dense reference
/// [`step_reference`](Network::step_reference) visit the same per-message
/// phase bodies in different orders, and only the activity engine parks,
/// queues and wakes, so an instance must use one exclusively; the first
/// step locks the mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StepMode {
    Unset,
    Activity,
    Dense,
}

/// The simulated network: topology + routing relation + all dynamic state.
///
/// Each [`step`](Network::step) simulates one cycle in three phases:
///
/// 1. **Allocation** — headers acquire their next virtual channel (or the
///    reception channel at the destination), oldest message first; blocked
///    headers are flagged.
/// 2. **Transfer** — one flit per physical link moves into a downstream VC
///    buffer (round-robin among the link's VCs), decided entirely from
///    start-of-cycle occupancies so flits advance at most one hop per
///    cycle; ejection and recovery lanes drain one flit per cycle.
/// 3. **Release** — VCs emptied behind the tail are freed; completed
///    messages are retired and reported.
pub struct Network {
    pub(crate) topo: KAryNCube,
    pub(crate) routing: Box<dyn RoutingAlgorithm>,
    pub(crate) cfg: SimConfig,
    pub(crate) cycle: u64,

    /// The occupancy table the transfer walk reads, one [`VcOcc`] per
    /// entry. With `nv` VCs:
    ///
    /// - entry `v < nv` is VC `v` (`channel * vcs_per_channel + vc`);
    /// - entry `nv` is the free entry, always zero: the feed of every free
    ///   VC, so a free VC is never movable;
    /// - entry `nv + 1 + slot` is that message's source entry, whose
    ///   `start` is 1 while `msg_uninjected[slot] > 0`. Injection sets it
    ///   and the move that empties the source clears it; it is the feed of
    ///   the message's chain front.
    ///
    /// So a VC `v` is movable exactly when `occ[v].start < depth` and
    /// `occ[occ[v].feed].start >= 1`, and the walk never loads an owner:
    /// a move from the source belongs to slot `feed - nv - 1`. Feeds
    /// mirror the owner's chain, so the walk reads the message slab only
    /// for `injected_at` when a source empties.
    occ: Vec<VcOcc>,
    /// The per-VC state the walk does not read, at `channel *
    /// vcs_per_channel + vc`.
    ///
    /// Owner slot, or [`NO_OWNER`].
    pub(crate) vc_owner: Vec<u32>,
    /// Acquisition sequence number within the owner's chain.
    vc_seq: Vec<u32>,
    /// Downstream successor (the VC this one feeds), or [`NO_OWNER`].
    vc_next: Vec<u32>,
    /// Flits still waiting at the source, per message slot (its source
    /// entry in [`Self::occ`] says whether any are left).
    msg_uninjected: Vec<u32>,
    /// Message id per slot (valid while the slot is live): sorts and
    /// id-ordered tie-breaks read this dense vector instead of chasing
    /// `messages[slot]`.
    pub(crate) slot_id: Vec<u64>,
    /// Round-robin pointer per physical channel.
    link_rr: Vec<u8>,
    /// Reception-channel owner slot per node (one reception channel per
    /// node, §3).
    pub(crate) reception: Vec<u32>,
    /// Whether the node's one injection channel is held.
    injecting: Vec<bool>,
    /// Per-node source queues.
    source_q: Vec<VecDeque<Pending>>,
    /// Failed physical channels (never offered to headers). Written only
    /// by the fault plan's link transitions.
    pub(crate) failed: Vec<bool>,

    /// Installed fault schedule in canonical order; `fault_cursor` marks
    /// the first not-yet-applied event.
    fault_events: Vec<FaultEvent>,
    fault_cursor: usize,
    /// True when a fault plan is installed: gates every per-cycle fault
    /// check, so fault-free instances pay a single branch.
    fault_mode: bool,
    /// Per-node stall horizon: the first cycle at which the node is no
    /// longer frozen.
    stall_until: Vec<u64>,
    /// Per-node injector-outage horizon (injection only).
    inj_down_until: Vec<u64>,
    /// Messages discovered unroutable (empty fault-filtered candidate set
    /// away from their destination) during allocation; resolved — dropped,
    /// or re-spared after a `LinkUp` — at the start of the next cycle,
    /// identically in both steppers.
    stranded: Vec<(u32, MessageId)>,
    /// Lifetime fault counters: in-network losses and source rejections.
    total_fault_losses: u64,
    total_fault_rejected: u64,

    /// Message slab + free list.
    pub(crate) messages: Vec<Option<Message>>,
    free_slots: Vec<u32>,
    /// Active message slots. Unordered: completion removes by swap-remove
    /// through [`active_idx`](Self::active_idx), so consumers that need
    /// age (id) order sort on demand.
    pub(crate) active: Vec<u32>,
    /// Slot → index in [`active`](Self::active), or [`NO_OWNER`].
    active_idx: Vec<u32>,
    pub(crate) id_map: IdMap,
    next_id: MessageId,
    /// Scratch: active slots sorted by id (age order), rebuilt per step
    /// (dense reference stepper only).
    step_order: Vec<u32>,

    /// Which stepper this instance is committed to (locked on first step).
    mode: StepMode,
    /// Runnable routing-phase slots in id (age) order. New injections
    /// append (ids are monotone), wakes merge in via [`Self::woken`], and
    /// parked / inactive entries compact out during the allocation pass.
    alloc_queue: Vec<u32>,
    /// Merge scratch for [`Self::alloc_queue`].
    alloc_scratch: Vec<u32>,
    /// Slots woken since the last allocation phase (unordered).
    woken: Vec<u32>,
    /// Per-slot allocation scheduling state.
    alloc_state: Vec<AllocState>,
    /// Per-node injection scheduling state.
    inj_state: Vec<InjState>,
    /// Nodes to attempt next allocation phase (unordered; sorted on use).
    inj_ready: Vec<u32>,
    /// Per-resource wake lists: VC `v` at index `v`, the reception channel
    /// of node `n` at `num_vcs + n`.
    wake_lists: Vec<Vec<WakeEntry>>,
    /// Per-slot watch table: `(resource, index in wake_lists[resource])`.
    msg_watches: Vec<Vec<(u32, u32)>>,
    /// Per-node watch table for parked injectors.
    inj_watches: Vec<Vec<(u32, u32)>>,
    /// Active-channel bitset: bit `ch % 64` of word `ch / 64` marks a
    /// channel the transfer phase must examine. Activations during
    /// allocation land in the set scanned the same cycle; the transfer
    /// phase swaps the set into [`Self::chan_scan`] first, so activations
    /// raised while it walks (occupancy triggers) accumulate here for the
    /// next cycle.
    chan_words: Vec<u64>,
    /// Scratch the transfer phase drains: all-zero between cycles.
    chan_scan: Vec<u64>,
    /// Ejecting / recovering slots, each draining one flit per cycle.
    drain_list: Vec<u32>,
    /// Slot → index in [`Self::drain_list`], or [`NO_OWNER`].
    drain_idx: Vec<u32>,
    /// Head VC of `drain_list[k]`, cached at drain start (a draining
    /// message never acquires, so its chain back is fixed): the common
    /// starved-head case is decided without touching the message slab.
    drain_head: Vec<u32>,
    /// Dirty-occupancy bitset: bit `v % 64` of word `v / 64` marks a VC
    /// whose `now` diverged from its `start` since the last sync.
    /// Bit-idempotent, so a VC that changes occupancy several times in one
    /// cycle carries exactly one mark.
    occ_dirty_words: Vec<u64>,
    /// VC index → physical channel index. `vcs_per_channel` is a runtime
    /// value, so `v / vcs_per` outside the `V = 2` transfer walk would
    /// compile to a hardware divide.
    vc_chan: Vec<u32>,
    /// Frozen flattened candidate-VC list per message slot, filled when a
    /// header blocks. Until the message acquires, nothing its routing
    /// relation reads changes except `failed`, which only the fault plan's
    /// `apply_link_down` / `apply_link_up` write — exactly the two places
    /// every frozen list is invalidated — so re-attempts (a wake, or every
    /// cycle in the dense stepper) scan this list instead of re-running
    /// the routing relation. Also invalidated on acquisition and on slot
    /// reuse.
    cand_cache: Vec<Vec<u32>>,
    /// Validity flag per slot for [`Self::cand_cache`].
    cand_cache_valid: Vec<bool>,
    /// Frozen flattened candidate-VC list per injector node (valid while
    /// the source-queue front is unchanged; same rules as
    /// [`Self::cand_cache`]).
    inj_cand_cache: Vec<Vec<u32>>,
    /// Validity flag per node for [`Self::inj_cand_cache`].
    inj_cand_valid: Vec<bool>,
    /// Slots the release phase must visit this cycle (unordered; sorted).
    release_check: Vec<u32>,
    /// Slots whose release visit is deferred to the next cycle: the dense
    /// release phase only scans messages active at the *start* of a cycle,
    /// so a message that finishes injecting within its injection cycle is
    /// not visited (and its injection channel not freed) until the next
    /// one.
    release_deferred: Vec<u32>,
    /// Membership flags for [`Self::release_check`] ∪
    /// [`Self::release_deferred`].
    release_flag: Vec<bool>,
    /// Count of active messages with `blocked` set (both steppers).
    blocked_ctr: usize,

    /// Message ids whose wait-state may have changed since the last
    /// drain: every event that can change a blocked `(settled chain,
    /// requests)` record (block/unblock, chain growth or release while
    /// blocked, recovery, drop, delivery) marks its id here. Drained by
    /// [`Self::drain_wait_updates`](crate::snapshot) for the detector.
    pub(crate) wait_dirty: WaitDirty,
    /// Set when a fault transition changes the failed-channel map: the
    /// routing candidates of *every* blocked message may change, so the
    /// next drain re-extracts all of them.
    pub(crate) wait_dirty_all: bool,
    /// Scratch for [`drain_wait_updates`](Self::drain_wait_updates):
    /// one message's chain+requests.
    pub(crate) wait_buf: Vec<u32>,
    /// Scratch for the drain's candidate recomputation.
    pub(crate) wait_cand: Vec<Candidate>,

    /// Scratch: routing candidates.
    cand_buf: Vec<Candidate>,
    /// Optional event recorder.
    tracer: Option<crate::trace::Tracer>,

    /// Lifetime counters.
    pub(crate) total_generated: u64,
    pub(crate) total_injected: u64,
    pub(crate) total_delivered: u64,
    pub(crate) total_recovered: u64,
}

/// Builds the routing context for a message whose header sits at `current`.
pub(crate) fn ctx_of(msg: &Message, current: NodeId) -> RoutingCtx {
    RoutingCtx {
        src: msg.src,
        dst: msg.dst,
        current,
        last_dim: msg.last_dim,
        crossed_dateline: msg.crossed,
        misroutes: msg.misroutes,
    }
}

/// Fills `buf` with the (fault-filtered) candidates for `ctx`.
pub(crate) fn compute_candidates(
    topo: &KAryNCube,
    routing: &dyn RoutingAlgorithm,
    vcs_per: usize,
    failed: &[bool],
    ctx: &RoutingCtx,
    buf: &mut Vec<Candidate>,
) {
    buf.clear();
    routing.candidates(topo, vcs_per, ctx, buf);
    buf.retain(|c| !failed[c.channel.idx()]);
}

/// Flattens `cands` into VC indices in [`first_free_vc`]'s scan order —
/// the frozen form a blocked waiter keeps.
fn flatten_candidates(cands: &[Candidate], vcs_per: usize, out: &mut Vec<u32>) {
    out.clear();
    for c in cands {
        let base = c.channel.idx() * vcs_per;
        out.extend(c.vcs.iter().map(|v| (base + v) as u32));
    }
}

/// First free VC across the candidate list, respecting candidate order
/// (the routing relation's preference order) and, within a channel,
/// ascending VC index.
fn first_free_vc(vc_owner: &[u32], vcs_per: usize, cands: &[Candidate]) -> Option<u32> {
    for cand in cands {
        let base = cand.channel.idx() * vcs_per;
        for v in cand.vcs.iter() {
            if vc_owner[base + v] == NO_OWNER {
                return Some((base + v) as u32);
            }
        }
    }
    None
}

impl Network {
    /// A new, empty network.
    pub fn new(topo: KAryNCube, routing: Box<dyn RoutingAlgorithm>, cfg: SimConfig) -> Self {
        cfg.check_for(&*routing).unwrap_or_else(|e| panic!("{e}"));
        let n_vcs = topo.num_channels() * cfg.vcs_per_channel;
        let n_nodes = topo.num_nodes();
        // Live slots never outnumber VCs (a live message owns one), so the
        // occupancy table, grown as slots appear, tops out at
        // `2 * n_vcs + 1` entries.
        assert!(
            u32::try_from(2 * n_vcs + 1).is_ok(),
            "occupancy table indices must fit u32"
        );
        Network {
            occ: vec![VcOcc::free(n_vcs); n_vcs + 1],
            vc_owner: vec![NO_OWNER; n_vcs],
            vc_seq: vec![0; n_vcs],
            vc_next: vec![NO_OWNER; n_vcs],
            msg_uninjected: Vec::new(),
            slot_id: Vec::new(),
            link_rr: vec![0; topo.num_channels()],
            reception: vec![NO_OWNER; n_nodes],
            injecting: vec![false; n_nodes],
            source_q: vec![VecDeque::new(); n_nodes],
            failed: vec![false; topo.num_channels()],
            fault_events: Vec::new(),
            fault_cursor: 0,
            fault_mode: false,
            stall_until: vec![0; n_nodes],
            inj_down_until: vec![0; n_nodes],
            stranded: Vec::new(),
            total_fault_losses: 0,
            total_fault_rejected: 0,
            messages: Vec::new(),
            free_slots: Vec::new(),
            active: Vec::new(),
            active_idx: Vec::new(),
            id_map: IdMap::default(),
            next_id: 0,
            step_order: Vec::new(),
            mode: StepMode::Unset,
            alloc_queue: Vec::new(),
            alloc_scratch: Vec::new(),
            woken: Vec::new(),
            alloc_state: Vec::new(),
            inj_state: vec![InjState::Idle; n_nodes],
            inj_ready: Vec::new(),
            wake_lists: vec![Vec::new(); n_vcs + n_nodes],
            msg_watches: Vec::new(),
            inj_watches: vec![Vec::new(); n_nodes],
            chan_words: vec![0; topo.num_channels().div_ceil(64)],
            chan_scan: vec![0; topo.num_channels().div_ceil(64)],
            drain_list: Vec::new(),
            drain_idx: Vec::new(),
            drain_head: Vec::new(),
            occ_dirty_words: vec![0; n_vcs.div_ceil(64)],
            vc_chan: (0..n_vcs)
                .map(|v| (v / cfg.vcs_per_channel) as u32)
                .collect(),
            cand_cache: Vec::new(),
            cand_cache_valid: Vec::new(),
            inj_cand_cache: vec![Vec::new(); n_nodes],
            inj_cand_valid: vec![false; n_nodes],
            release_check: Vec::new(),
            release_deferred: Vec::new(),
            release_flag: vec![],
            blocked_ctr: 0,
            wait_dirty: WaitDirty::default(),
            wait_dirty_all: false,
            wait_buf: Vec::new(),
            wait_cand: Vec::new(),
            cand_buf: Vec::new(),
            tracer: None,
            total_generated: 0,
            total_injected: 0,
            total_delivered: 0,
            total_recovered: 0,
            topo,
            routing,
            cfg,
            cycle: 0,
        }
    }

    /// The network's topology.
    pub fn topology(&self) -> &KAryNCube {
        &self.topo
    }

    /// The routing relation in use.
    pub fn routing(&self) -> &dyn RoutingAlgorithm {
        &*self.routing
    }

    /// The simulator configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Completed cycles.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Virtual channels per physical channel.
    #[inline]
    pub(crate) fn vcs_per(&self) -> usize {
        self.cfg.vcs_per_channel
    }

    /// Total VC count (also the base of the reception wake resources and
    /// the index of the free entry in [`Self::occ`]).
    #[inline]
    fn num_vcs(&self) -> usize {
        self.vc_owner.len()
    }

    /// Index of `slot`'s source entry in [`Self::occ`].
    #[inline]
    fn source_entry(&self, slot: u32) -> usize {
        self.num_vcs() + 1 + slot as usize
    }

    /// Queues a message for injection at `src` with the configured default
    /// length. It holds no resource until its header acquires a first VC
    /// during a later [`step`](Self::step).
    pub fn enqueue(&mut self, src: NodeId, dst: NodeId) {
        self.enqueue_with_len(src, dst, self.cfg.msg_len);
    }

    /// Queues a message with an explicit length in flits — hybrid-length
    /// workloads (the paper's §5 future-work item) mix short and long
    /// messages in one run.
    pub fn enqueue_with_len(&mut self, src: NodeId, dst: NodeId, len: usize) {
        assert_ne!(src, dst, "messages must leave their source");
        assert!(src.idx() < self.topo.num_nodes());
        assert!(dst.idx() < self.topo.num_nodes());
        assert!(len >= 1 && len <= u32::MAX as usize, "bad message length");
        self.source_q[src.idx()].push_back(Pending {
            dst,
            born: self.cycle,
            len: len as u32,
        });
        self.total_generated += 1;
        // Activity engine: an idle node with traffic and a free injection
        // channel belongs on the ready list. (A parked node stays parked:
        // its queue front — the only injectable message — is unchanged.)
        let n = src.idx();
        if self.inj_state[n] == InjState::Idle && !self.injecting[n] {
            self.inj_state[n] = InjState::Ready;
            self.inj_ready.push(n as u32);
        }
    }

    /// Turns on event tracing with a bounded buffer; see
    /// [`TraceEvent`](crate::TraceEvent). Replaces any previous trace.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.tracer = Some(crate::trace::Tracer::new(capacity));
    }

    /// Drains recorded events; the second value counts events dropped at
    /// capacity. Panics if tracing was never enabled.
    pub fn take_trace(&mut self) -> (Vec<crate::TraceEvent>, u64) {
        self.tracer.as_mut().expect("tracing not enabled").take()
    }

    /// Inert shim: the partitioned decide is gone and every run takes the
    /// fused serial walk, so the effective count is always 1. Kept only
    /// because `benchmark/src/run.rs` calls it; dropped with ROADMAP
    /// item 1.
    pub fn set_shards(&mut self, _n: usize) -> usize {
        1
    }

    /// Messages currently holding network resources.
    pub fn in_network(&self) -> usize {
        self.active.len()
    }

    /// Active messages whose header acquisition failed this cycle. O(1):
    /// maintained as a counter on blocked transitions.
    pub fn blocked_count(&self) -> usize {
        self.blocked_ctr
    }

    /// Messages waiting in source queues.
    pub fn source_queued(&self) -> usize {
        self.source_q.iter().map(|q| q.len()).sum()
    }

    /// Lifetime (generated, injected, delivered, recovered) counters.
    pub fn totals(&self) -> (u64, u64, u64, u64) {
        (
            self.total_generated,
            self.total_injected,
            self.total_delivered,
            self.total_recovered,
        )
    }

    /// Ids of active messages, oldest first.
    pub fn active_ids(&self) -> Vec<MessageId> {
        let mut ids: Vec<MessageId> = self
            .active
            .iter()
            .map(|&s| self.messages[s as usize].as_ref().unwrap().id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Read-only view of an active message.
    pub fn message_info(&self, id: MessageId) -> Option<MessageInfo> {
        let slot = self.id_map.get(id)?;
        self.messages[slot as usize]
            .as_ref()
            .map(|m| MessageInfo::of(m, self.msg_uninjected[slot as usize]))
    }

    /// Simulates one cycle with the activity-driven engine: only ready
    /// injectors, runnable messages, active channels, and triggered
    /// releases are visited. Byte-identical to
    /// [`step_reference`](Self::step_reference) — same arbitration order,
    /// events, traces, and counters — which the differential tests enforce.
    pub fn step(&mut self) -> StepEvents {
        assert_ne!(
            self.mode,
            StepMode::Dense,
            "instance already stepped with step_reference; steppers cannot be mixed"
        );
        self.mode = StepMode::Activity;
        let mut events = StepEvents::default();
        self.apply_due_faults(&mut events);
        // Visits deferred from last cycle (injection completed in the
        // injection cycle) come due now; their release flags stay set so
        // this cycle's transfer triggers cannot double-add them.
        debug_assert!(self.release_check.is_empty());
        std::mem::swap(&mut self.release_check, &mut self.release_deferred);
        self.merge_woken();
        self.activity_injections(&mut events);
        self.activity_next_hops();
        self.activity_transfer(&mut events);
        self.activity_release(&mut events);
        self.cycle += 1;
        events
    }

    /// Simulates one cycle with the dense reference stepper: every node,
    /// active message, and channel is visited in age / index order and
    /// handed to the same per-message bodies the activity engine
    /// schedules (`try_inject_one`, `next_hop`, `release_one`); only the
    /// link loop is its own, the chain-reading reference for the
    /// feed-indexed transfer walk. Kept as the baseline the activity engine's
    /// scheduling is differentially tested against. An instance must use
    /// one stepper exclusively.
    pub fn step_reference(&mut self) -> StepEvents {
        assert_ne!(
            self.mode,
            StepMode::Activity,
            "instance already stepped with step; steppers cannot be mixed"
        );
        self.mode = StepMode::Dense;
        let mut events = StepEvents::default();
        self.apply_due_faults(&mut events);
        // Age-order view of the start-of-cycle active set. Messages
        // injected later this cycle are deliberately absent: on their
        // injection cycle they are no-ops in every later phase (header
        // flit not yet buffered, `uninjected > 0`).
        self.step_order.clear();
        self.step_order.extend_from_slice(&self.active);
        let slot_id = &self.slot_id;
        self.step_order
            .sort_unstable_by_key(|&s| slot_id[s as usize]);
        self.reference_injections(&mut events);
        self.reference_next_hops();
        self.reference_transfer(&mut events);
        self.reference_release(&mut events);
        self.cycle += 1;
        events
    }
}
