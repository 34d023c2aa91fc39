//! The cycle-driven network engine.

use std::collections::VecDeque;

use icn_routing::{Candidate, RoutingAlgorithm, RoutingCtx};
use icn_topology::{ChannelId, KAryNCube, NodeId};

use crate::config::SimConfig;
use crate::events::{DeliveredMsg, StepEvents};
use crate::faults::{FaultEvent, FaultKind, FaultPlan};
use crate::message::{Message, MessageId, MessageInfo, MsgPhase};
use crate::snapshot::WaitDirty;

/// Sentinel for "no owning message" in per-resource tables.
pub(crate) const NO_OWNER: u32 = u32::MAX;

/// [`Network::vc_feed`] sentinel: this VC is its owner's chain front, so
/// its flits arrive straight from the source queue (`msg_uninjected`).
const FROM_SOURCE: u32 = u32::MAX - 1;

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
/// [`step_reference`](Network::step_reference) keep different bookkeeping,
/// so an instance must use one exclusively; the first step locks the mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StepMode {
    Unset,
    Activity,
    Dense,
}

/// Allocation-phase scheduling state of an active message (activity engine).
///
/// * `Queued` — runnable: in the allocation queue (or the `woken` buffer)
///   and re-attempted every cycle. Covers moving, filling, and just-woken
///   messages.
/// * `Parked` — blocked with every watched resource busy; skipped until a
///   wake fires. A parked message with an empty watch set has an empty
///   (fault-filtered) candidate set: without a fault plan that set can
///   never grow back, and with one the engine has recorded the message as
///   stranded — it is dropped (a counted fault loss) at the start of the
///   next cycle, or rewoken if a `LinkUp` restores routability first.
/// * `Inactive` — not routing (ejecting or recovering; drains instead).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AllocState {
    Queued,
    Parked,
    Inactive,
}

/// Injection scheduling state of a node (activity engine).
///
/// * `Idle` — empty source queue, or no free injection channel; woken by
///   [`Network::enqueue_with_len`] / an injection-channel release.
/// * `Ready` — on the ready list; attempted next allocation phase.
/// * `Parked` — queue front found every candidate VC busy; watching them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum InjState {
    Idle,
    Ready,
    Parked,
}

/// High bit of a wake-list waiter: set when the waiter is an injector node
/// rather than a message slot.
const INJECTOR: u32 = 1 << 31;

/// One entry on a resource's wake list: `waiter` (message slot, or
/// `INJECTOR | node`) plus the index of this watch in the waiter's own
/// watch table, so either side can unlink the other in O(1).
#[derive(Clone, Copy, Debug)]
struct WakeEntry {
    waiter: u32,
    watch_pos: u32,
}

/// Outcome of one injection attempt at a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum InjectOutcome {
    /// Queue front acquired a first VC and left the queue.
    Injected,
    /// Nothing queued at this node.
    EmptyQueue,
    /// Every candidate VC for the queue front is owned; the candidates are
    /// left in `cand_buf` so the activity engine can park on them.
    NoFreeVc,
    /// The queue front's fault-filtered candidate set is empty — its first
    /// hop is unroutable under the active fault set — so it was popped and
    /// counted as rejected. Only possible with a fault plan installed.
    Rejected,
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

    /// Per-VC dynamic state, struct-of-arrays at `channel *
    /// vcs_per_channel + vc`: the transfer phase walks these vectors
    /// sequentially every cycle, so each field lives in its own dense
    /// array instead of an array-of-structs record.
    ///
    /// Owner slot, or [`NO_OWNER`].
    pub(crate) vc_owner: Vec<u32>,
    /// Flits currently buffered.
    pub(crate) vc_occ: Vec<u16>,
    /// Acquisition sequence number within the owner's chain.
    vc_seq: Vec<u32>,
    /// Upstream feeder: the chain predecessor supplying this VC's flits,
    /// [`FROM_SOURCE`] for the chain front, or [`NO_OWNER`] when free.
    /// Mirrors the owner's chain so the transfer phase never indexes the
    /// message slab.
    vc_feed: Vec<u32>,
    /// Downstream successor (the VC this one feeds), or [`NO_OWNER`].
    vc_next: Vec<u32>,
    /// Flits still waiting at the source, per message slot (hot: read by
    /// every chain-front transfer decision).
    msg_uninjected: Vec<u32>,
    /// Message id per slot (valid while the slot is live): sorts and
    /// id-ordered tie-breaks read this dense vector instead of chasing
    /// `messages[slot]`.
    pub(crate) slot_id: Vec<u64>,
    /// Owned-VC count per physical channel (lets the transfer phase skip
    /// idle links).
    owned_per_channel: Vec<u16>,
    /// Round-robin pointer per physical channel.
    link_rr: Vec<u8>,
    /// Reception channels per node (paper default: 1).
    pub(crate) reception_per_node: usize,
    /// Injection channels per node (paper default: 1).
    injection_per_node: usize,
    /// Reception-channel owner slots: `node * reception_per_node + slot`.
    pub(crate) reception: Vec<u32>,
    /// Active injectors per node (each holds one injection channel).
    injecting_count: Vec<u8>,
    /// Per-node source queues.
    source_q: Vec<VecDeque<Pending>>,
    /// Failed physical channels (never offered to headers).
    pub(crate) failed: Vec<bool>,

    /// Installed fault schedule in canonical order; `fault_cursor` marks
    /// the first not-yet-applied event.
    fault_events: Vec<FaultEvent>,
    fault_cursor: usize,
    /// True when a fault plan is installed: gates every per-cycle fault
    /// check, so fault-free instances pay a single branch.
    fault_mode: bool,
    /// Per-node stall horizon: the node is frozen while
    /// `cycle < stall_until[node]`.
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
    /// Per-resource wake lists: VC `v` at index `v`, the reception group
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
    /// whose occupancy diverged from `occ_start` since the last sync.
    /// Bit-idempotent, so a VC that changes occupancy several times in one
    /// cycle carries exactly one mark.
    occ_dirty_words: Vec<u64>,
    /// VC index → physical channel index. `vcs_per_channel` is a runtime
    /// value, so `v / vcs_per` in the per-move hot loops would compile to
    /// a hardware divide; this table is small enough to stay L1-resident.
    vc_chan: Vec<u32>,
    /// Frozen flattened candidate-VC list per message slot. While a
    /// message is parked nothing its routing relation reads can change
    /// (header position, selection-policy state, and — with fault caching
    /// disabled — the failed set), so the re-attempt after a wake reuses
    /// this list instead of re-running the routing relation. Invalidated
    /// on acquisition and on slot reuse; never valid in fault mode.
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

    /// Scratch: start-of-cycle occupancies.
    occ_start: Vec<u16>,
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

impl Network {
    /// A new, empty network.
    pub fn new(topo: KAryNCube, routing: Box<dyn RoutingAlgorithm>, cfg: SimConfig) -> Self {
        cfg.validate();
        assert!(
            cfg.vcs_per_channel >= routing.min_vcs(),
            "{} requires at least {} VCs",
            routing.name(),
            routing.min_vcs()
        );
        let n_vcs = topo.num_channels() * cfg.vcs_per_channel;
        let n_nodes = topo.num_nodes();
        Network {
            vc_owner: vec![NO_OWNER; n_vcs],
            vc_occ: vec![0; n_vcs],
            vc_seq: vec![0; n_vcs],
            vc_feed: vec![NO_OWNER; n_vcs],
            vc_next: vec![NO_OWNER; n_vcs],
            msg_uninjected: Vec::new(),
            slot_id: Vec::new(),
            owned_per_channel: vec![0; topo.num_channels()],
            link_rr: vec![0; topo.num_channels()],
            reception_per_node: 1,
            injection_per_node: 1,
            reception: vec![NO_OWNER; n_nodes],
            injecting_count: vec![0; n_nodes],
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
            occ_start: vec![0; n_vcs],
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

    /// Total VC count (also the base of the reception wake resources).
    #[inline]
    fn num_vcs(&self) -> usize {
        self.vc_owner.len()
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
        if self.inj_state[n] == InjState::Idle
            && (self.injecting_count[n] as usize) < self.injection_per_node
        {
            self.inj_state[n] = InjState::Ready;
            self.inj_ready.push(n as u32);
        }
    }

    /// Gives every node `injection` injection channels and `reception`
    /// reception channels (the paper's §3 default is one of each).
    /// Must be called before any traffic enters the network.
    pub fn with_endpoint_channels(mut self, injection: usize, reception: usize) -> Self {
        assert!(injection >= 1 && injection <= u8::MAX as usize);
        assert!(reception >= 1);
        assert_eq!(self.cycle, 0, "configure endpoints before stepping");
        assert!(self.active.is_empty() && self.source_queued() == 0);
        self.injection_per_node = injection;
        self.reception_per_node = reception;
        self.reception = vec![NO_OWNER; self.topo.num_nodes() * reception];
        self
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

    /// Marks a physical channel as failed: it is filtered from every
    /// routing candidate set from now on. Panics if the channel currently
    /// carries traffic.
    pub fn fail_channel(&mut self, ch: ChannelId) {
        let base = ch.idx() * self.vcs_per();
        for v in 0..self.vcs_per() {
            assert!(
                self.vc_owner[base + v] == NO_OWNER,
                "cannot fail a channel in use"
            );
        }
        self.failed[ch.idx()] = true;
        // Any blocked header may have held this channel's VCs in its
        // candidate set, so every wait record is suspect.
        self.wait_dirty_all = true;
    }

    /// Inert shim: the partitioned decide is gone and every run takes the
    /// fused serial walk, so the effective count is always 1. Kept only
    /// because `benchmark/src/run.rs` calls it; dropped with ROADMAP
    /// item 1.
    pub fn set_shards(&mut self, _n: usize) -> usize {
        1
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Installs a fault schedule. Must be called before the first step;
    /// the plan is validated against this network's shape and applied in
    /// canonical order as cycles reach its events — identically by both
    /// steppers, so faulted runs stay byte-identical across engines.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        assert_eq!(self.cycle, 0, "install the fault plan before stepping");
        plan.validate(self.topo.num_channels(), self.topo.num_nodes());
        self.fault_events = plan.normalized();
        self.fault_cursor = 0;
        self.fault_mode = !self.fault_events.is_empty();
    }

    /// Lifetime `(fault losses, source rejections)`: in-network messages
    /// dropped by faults, and queued messages rejected as unroutable.
    pub fn fault_totals(&self) -> (u64, u64) {
        (self.total_fault_losses, self.total_fault_rejected)
    }

    /// Applies every fault event due this cycle, then resolves messages
    /// recorded as stranded last cycle. Runs at the very start of a cycle
    /// in both steppers, before any phase, so drops and wakes are visible
    /// to the whole cycle identically.
    fn apply_due_faults(&mut self, events: &mut StepEvents) {
        if !self.fault_mode {
            return;
        }
        while let Some(&e) = self.fault_events.get(self.fault_cursor) {
            if e.cycle > self.cycle {
                break;
            }
            self.fault_cursor += 1;
            match e.kind {
                FaultKind::LinkDown { channel } => self.apply_link_down(channel as usize, events),
                FaultKind::LinkUp { channel } => self.apply_link_up(channel as usize),
                FaultKind::NodeStall { node, cycles } => {
                    let until = self.cycle + cycles;
                    let s = &mut self.stall_until[node as usize];
                    *s = (*s).max(until);
                }
                FaultKind::InjectorDown { node, cycles } => {
                    let until = self.cycle + cycles;
                    let s = &mut self.inj_down_until[node as usize];
                    *s = (*s).max(until);
                }
            }
        }
        self.resolve_stranded(events);
    }

    /// Channel goes down: it leaves every candidate set (the shared
    /// `compute_candidates` filter) and every message holding one of its
    /// VCs is dropped, oldest first.
    fn apply_link_down(&mut self, ch: usize, events: &mut StepEvents) {
        if self.failed[ch] {
            return;
        }
        self.failed[ch] = true;
        // Every blocked message's fault-filtered candidate set may have
        // shrunk: re-extract all of them at the next drain.
        self.wait_dirty_all = true;
        let vcs_per = self.vcs_per();
        let base = ch * vcs_per;
        let mut victims: Vec<u32> = (base..base + vcs_per)
            .filter_map(|v| {
                let o = self.vc_owner[v];
                (o != NO_OWNER).then_some(o)
            })
            .collect();
        victims.sort_unstable_by_key(|&s| self.slot_id[s as usize]);
        victims.dedup();
        for slot in victims {
            self.drop_message(slot, events);
        }
    }

    /// Channel comes back up. Its VCs are already free (their owners were
    /// dropped when it went down, and a failed channel cannot be
    /// acquired), so only the activity engine needs wakes: anything that
    /// may now route over the channel gets one conservative re-attempt (a
    /// spurious wake is harmless — the attempt just re-parks).
    fn apply_link_up(&mut self, ch: usize) {
        if !self.failed[ch] {
            return;
        }
        self.failed[ch] = false;
        // Blocked candidate sets may have grown back.
        self.wait_dirty_all = true;
        if self.mode == StepMode::Dense {
            return;
        }
        let vcs_per = self.vcs_per();
        let src = self.topo.channel(ChannelId(ch as u32)).src;
        // Parked routing messages whose header sits at the channel's
        // source: their frozen candidate set may have grown back.
        let mut woke: Vec<u32> = Vec::new();
        for &slot in &self.active {
            if self.alloc_state[slot as usize] != AllocState::Parked {
                continue;
            }
            let msg = self.messages[slot as usize].as_ref().expect("active slot");
            let &head = msg.chain.back().expect("routing message owns its head VC");
            if self.topo.channel(ChannelId(head / vcs_per as u32)).dst == src {
                woke.push(slot);
            }
        }
        for slot in woke {
            self.unpark(slot);
            self.alloc_state[slot as usize] = AllocState::Queued;
            self.woken.push(slot);
        }
        let n = src.idx();
        if self.inj_state[n] == InjState::Parked {
            self.unpark(INJECTOR | n as u32);
            self.inj_state[n] = InjState::Ready;
            self.inj_ready.push(n as u32);
        }
    }

    /// Resolves last cycle's stranded discoveries: a message whose
    /// fault-filtered candidate set is still empty is dropped (a counted
    /// fault loss); one revived by a `LinkUp` goes back to work.
    fn resolve_stranded(&mut self, events: &mut StepEvents) {
        if self.stranded.is_empty() {
            return;
        }
        let mut stranded = std::mem::take(&mut self.stranded);
        for &(slot, id) in &stranded {
            // The slot may be gone (dropped with its channel) or pulled
            // into recovery; both supersede the stranding.
            let here = match self.messages.get(slot as usize).and_then(|m| m.as_ref()) {
                Some(msg) if msg.id == id && msg.phase == MsgPhase::Routing => {
                    let &head = msg.chain.back().expect("routing message owns its head VC");
                    self.topo
                        .channel(ChannelId(head / self.vcs_per() as u32))
                        .dst
                }
                _ => continue,
            };
            let ctx = {
                let msg = self.messages[slot as usize].as_ref().expect("slot live");
                ctx_of(msg, here)
            };
            let mut cand = std::mem::take(&mut self.cand_buf);
            compute_candidates(
                &self.topo,
                &*self.routing,
                self.vcs_per(),
                &self.failed,
                &ctx,
                &mut cand,
            );
            let routable = !cand.is_empty();
            self.cand_buf = cand;
            if routable {
                if self.mode != StepMode::Dense
                    && self.alloc_state[slot as usize] == AllocState::Parked
                {
                    self.unpark(slot);
                    self.alloc_state[slot as usize] = AllocState::Queued;
                    self.woken.push(slot);
                }
                continue;
            }
            self.drop_message(slot, events);
        }
        stranded.clear();
        self.stranded = stranded;
    }

    /// Removes an active message hit by a fault: every held resource is
    /// freed (with wakes in activity mode), stale scheduler entries are
    /// purged, and the loss is counted and traced. Nothing is delivered.
    fn drop_message(&mut self, slot: u32, events: &mut StepEvents) {
        let s = slot as usize;
        if self.mode != StepMode::Dense {
            self.unpark(slot);
            // The slot may be recycled by an injection later this very
            // cycle: no runnable or release entry may survive pointing at
            // it.
            self.alloc_queue.retain(|&x| x != slot);
            self.woken.retain(|&x| x != slot);
        }
        if self.release_flag[s] {
            self.release_flag[s] = false;
            self.release_check.retain(|&x| x != slot);
            self.release_deferred.retain(|&x| x != slot);
        }
        let (id, src, chain, reception, held_injection, was_blocked) = {
            let msg = self.messages[s].as_mut().expect("dropped slot live");
            let chain: Vec<u32> = msg.chain.iter().copied().collect();
            msg.chain.clear();
            let reception = (msg.phase == MsgPhase::Ejecting)
                .then(|| msg.dst.idx() * self.reception_per_node + msg.reception_slot as usize);
            let held = msg.holds_injection;
            msg.holds_injection = false;
            let blocked = msg.blocked;
            msg.blocked = false;
            msg.blocked_since = None;
            (msg.id, msg.src, chain, reception, held, blocked)
        };
        if was_blocked {
            self.blocked_ctr -= 1;
        }
        self.wait_dirty.mark(id);
        if held_injection {
            let node = src.idx();
            self.injecting_count[node] -= 1;
            if self.mode != StepMode::Dense
                && self.inj_state[node] == InjState::Idle
                && !self.source_q[node].is_empty()
            {
                self.inj_state[node] = InjState::Ready;
                self.inj_ready.push(node as u32);
            }
        }
        for &v in &chain {
            debug_assert_eq!(self.vc_owner[v as usize], slot);
            self.vc_owner[v as usize] = NO_OWNER;
            self.vc_occ[v as usize] = 0;
            self.vc_feed[v as usize] = NO_OWNER;
            self.vc_next[v as usize] = NO_OWNER;
            self.owned_per_channel[self.vc_chan[v as usize] as usize] -= 1;
            if self.mode != StepMode::Dense {
                self.mark_occ_dirty(v);
                self.wake_resource(v);
            }
        }
        let freed_node = reception.map(|r| {
            debug_assert_eq!(self.reception[r], slot);
            self.reception[r] = NO_OWNER;
            r / self.reception_per_node
        });
        if let Some(t) = self.tracer.as_mut() {
            t.push(crate::TraceEvent::FaultLoss {
                cycle: self.cycle,
                id,
            });
        }
        events.fault_losses += 1;
        self.total_fault_losses += 1;
        self.finish_slot(slot);
        if self.mode != StepMode::Dense {
            if let Some(node) = freed_node {
                self.wake_resource((self.num_vcs() + node) as u32);
            }
        }
    }

    /// Switches a blocked message onto the recovery lane (synthesized Disha
    /// recovery): its flits drain one per cycle from wherever the header
    /// sits, releasing VCs as the tail passes, and it counts as delivered
    /// (recovered) when the last flit exits. Returns `false` when the
    /// message is not active or not in the `Routing` phase.
    pub fn start_recovery(&mut self, id: MessageId) -> bool {
        let Some(slot) = self.id_map.get(id) else {
            return false;
        };
        {
            let msg = self.messages[slot as usize].as_mut().expect("slot live");
            if msg.phase != MsgPhase::Routing {
                return false;
            }
            msg.phase = MsgPhase::Recovering;
            if msg.blocked {
                self.blocked_ctr -= 1;
            }
            msg.blocked = false;
            msg.blocked_since = None;
            if let Some(t) = self.tracer.as_mut() {
                t.push(crate::TraceEvent::RecoveryStart {
                    cycle: self.cycle,
                    id,
                });
            }
        }
        self.wait_dirty.mark(id);
        if self.mode != StepMode::Dense {
            // Pull the message out of the allocation machinery and onto the
            // drain list. A `Queued` entry stays in `alloc_queue` / `woken`
            // and is dropped by the state check at the next pass, before
            // the slot can ever be recycled.
            if self.alloc_state[slot as usize] == AllocState::Parked {
                self.unpark(slot);
            }
            self.alloc_state[slot as usize] = AllocState::Inactive;
            self.drain_push(slot);
        }
        true
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

    /// Rebuilds the per-step age-order view of `active` (oldest id first).
    /// Messages injected later this cycle are deliberately absent: on their
    /// injection cycle they are no-ops in every later phase (header flit
    /// not yet buffered, `uninjected > 0`).
    fn rebuild_step_order(&mut self) {
        self.step_order.clear();
        self.step_order.extend_from_slice(&self.active);
        let slot_id = &self.slot_id;
        self.step_order
            .sort_unstable_by_key(|&s| slot_id[s as usize]);
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
    /// active message, and channel is scanned, exactly as the original
    /// engine did. Kept as the semantic baseline the activity engine is
    /// differentially tested (and benchmarked) against. An instance must
    /// use one stepper exclusively.
    pub fn step_reference(&mut self) -> StepEvents {
        assert_ne!(
            self.mode,
            StepMode::Activity,
            "instance already stepped with step; steppers cannot be mixed"
        );
        self.mode = StepMode::Dense;
        let mut events = StepEvents::default();
        self.apply_due_faults(&mut events);
        self.rebuild_step_order();
        self.reference_injections(&mut events);
        self.reference_next_hops();
        self.reference_transfer(&mut events);
        self.reference_release(&mut events);
        self.cycle += 1;
        events
    }

    // ------------------------------------------------------------------
    // Phase 1: allocation (dense reference)
    // ------------------------------------------------------------------

    /// Source-queue heads try to acquire their first VC (which implicitly
    /// claims the node's single injection channel).
    fn reference_injections(&mut self, events: &mut StepEvents) {
        for node in 0..self.topo.num_nodes() {
            if self.fault_mode
                && (self.cycle < self.stall_until[node] || self.cycle < self.inj_down_until[node])
            {
                // Router stall or injector outage: nothing enters here.
                continue;
            }
            // One acquisition attempt per free injection channel per cycle.
            while (self.injecting_count[node] as usize) < self.injection_per_node {
                match self.try_inject_one(node, events) {
                    // A rejected front frees no resource and pops the
                    // queue, so the next front gets its attempt.
                    InjectOutcome::Injected | InjectOutcome::Rejected => {}
                    InjectOutcome::EmptyQueue | InjectOutcome::NoFreeVc => break,
                }
            }
        }
    }

    /// Attempts to start the queue-front message at `node` (shared by both
    /// steppers). On [`InjectOutcome::NoFreeVc`] the message stays queued
    /// holding nothing, and `cand_buf` still lists its candidates.
    fn try_inject_one(&mut self, node: usize, events: &mut StepEvents) -> InjectOutcome {
        let Some(&Pending { dst, born, len }) = self.source_q[node].front() else {
            return InjectOutcome::EmptyQueue;
        };
        let src = NodeId(node as u32);
        let free = if self.inj_cand_valid[node] {
            // Frozen candidates: the queue front (and everything the
            // routing relation reads for a fresh injection) is unchanged
            // since this set was computed, so skip the relation and scan
            // the flattened list. Same nested order as `first_free_vc`
            // over the recomputed set, so the same VC wins.
            self.inj_cand_cache[node]
                .iter()
                .copied()
                .find(|&v| self.vc_owner[v as usize] == NO_OWNER)
        } else {
            compute_candidates(
                &self.topo,
                &*self.routing,
                self.cfg.vcs_per_channel,
                &self.failed,
                &RoutingCtx::fresh(src, dst, src),
                &mut self.cand_buf,
            );
            if self.fault_mode && self.cand_buf.is_empty() {
                // First hop unroutable under the active fault set: reject at
                // the source (counted; the message never enters the network).
                self.source_q[node].pop_front();
                self.total_fault_rejected += 1;
                events.fault_rejected += 1;
                return InjectOutcome::Rejected;
            }
            first_free_vc(&self.vc_owner, self.cfg.vcs_per_channel, &self.cand_buf)
        };
        let Some(vc_idx) = free else {
            if !self.fault_mode && !self.inj_cand_valid[node] {
                // Freeze the flattened set for re-attempts while parked.
                let vcs_per = self.cfg.vcs_per_channel;
                self.inj_cand_cache[node].clear();
                for c in &self.cand_buf {
                    let base = c.channel.idx() * vcs_per;
                    for v in c.vcs.iter() {
                        self.inj_cand_cache[node].push((base + v) as u32);
                    }
                }
                self.inj_cand_valid[node] = true;
            }
            return InjectOutcome::NoFreeVc;
        };
        self.inj_cand_valid[node] = false;

        {
            self.source_q[node].pop_front();
            let id = self.next_id;
            self.next_id += 1;
            let slot = match self.free_slots.pop() {
                Some(s) => s,
                None => {
                    self.messages.push(None);
                    (self.messages.len() - 1) as u32
                }
            };
            let mut msg = Message {
                id,
                src,
                dst,
                len,
                born,
                injected_at: self.cycle,
                chain: VecDeque::new(),
                front_seq: 0,
                next_seq: 0,
                delivered: 0,
                phase: MsgPhase::Routing,
                blocked: false,
                blocked_since: None,
                last_dim: None,
                crossed: 0,
                misroutes: 0,
                holds_injection: true,
                reception_slot: 0,
            };
            acquire_vc(
                VcState {
                    owner: &mut self.vc_owner,
                    seq: &mut self.vc_seq,
                    feed: &mut self.vc_feed,
                    next: &mut self.vc_next,
                    owned_per_channel: &mut self.owned_per_channel,
                },
                &self.topo,
                self.cfg.vcs_per_channel,
                &mut msg,
                vc_idx,
                slot,
            );
            if let Some(t) = self.tracer.as_mut() {
                t.push(crate::TraceEvent::Injected {
                    cycle: self.cycle,
                    id,
                    src,
                    dst,
                    len,
                });
                t.push(crate::TraceEvent::Acquired {
                    cycle: self.cycle,
                    id,
                    channel: ChannelId(vc_idx / self.cfg.vcs_per_channel as u32),
                    vc: (vc_idx as usize % self.cfg.vcs_per_channel) as u8,
                });
            }
            self.messages[slot as usize] = Some(msg);
            self.id_map.push(id, slot);
            self.injecting_count[node] += 1;
            if self.active_idx.len() <= slot as usize {
                let n = slot as usize + 1;
                self.active_idx.resize(n, NO_OWNER);
                self.alloc_state.resize(n, AllocState::Inactive);
                self.drain_idx.resize(n, NO_OWNER);
                self.release_flag.resize(n, false);
                self.msg_watches.resize_with(n, Vec::new);
                self.msg_uninjected.resize(n, 0);
                self.slot_id.resize(n, 0);
                self.cand_cache.resize_with(n, Vec::new);
                self.cand_cache_valid.resize(n, false);
            }
            // A recycled slot may carry a stale frozen candidate set from
            // its previous occupant (e.g. one pulled into recovery while
            // parked); the new message must start uncached.
            self.cand_cache_valid[slot as usize] = false;
            self.msg_uninjected[slot as usize] = len;
            self.slot_id[slot as usize] = id;
            self.active_idx[slot as usize] = self.active.len() as u32;
            self.active.push(slot);
            self.total_injected += 1;
            events.injected += 1;
            // Activity engine: the new message is runnable (a same-cycle
            // no-op: its head VC fills only during this cycle's transfer),
            // and its freshly acquired VC may carry a flit this cycle.
            // Appending keeps the queue id-sorted (ids are monotone).
            if self.mode == StepMode::Activity {
                self.alloc_state[slot as usize] = AllocState::Queued;
                self.alloc_queue.push(slot);
                self.activate_channel(vc_idx as usize / self.cfg.vcs_per_channel);
            }
        }
        InjectOutcome::Injected
    }

    /// In-flight headers try to acquire their next VC, or the reception
    /// channel at the destination. Oldest message first (age priority).
    fn reference_next_hops(&mut self) {
        for i in 0..self.step_order.len() {
            let slot = self.step_order[i];
            let msg = self.messages[slot as usize].as_mut().expect("active slot");
            if msg.phase != MsgPhase::Routing {
                continue;
            }
            let &head_vc = msg.chain.back().expect("routing message owns its head VC");
            if self.vc_occ[head_vc as usize] == 0 {
                // Header flit still in flight towards this buffer.
                debug_assert!(!msg.blocked, "blocked header always has a buffered flit");
                msg.blocked = false;
                continue;
            }
            let here = self
                .topo
                .channel(ChannelId(head_vc / self.cfg.vcs_per_channel as u32))
                .dst;
            if self.fault_mode && self.cycle < self.stall_until[here.idx()] {
                // Frozen router: no allocation is performed at this node.
                continue;
            }

            if here == msg.dst {
                let base = here.idx() * self.reception_per_node;
                let free =
                    (0..self.reception_per_node).find(|&r| self.reception[base + r] == NO_OWNER);
                if let Some(r) = free {
                    self.reception[base + r] = slot;
                    msg.reception_slot = r as u8;
                    msg.phase = MsgPhase::Ejecting;
                    if msg.blocked {
                        self.blocked_ctr -= 1;
                        self.wait_dirty.mark(msg.id);
                    }
                    msg.blocked = false;
                    msg.blocked_since = None;
                    if let Some(t) = self.tracer.as_mut() {
                        t.push(crate::TraceEvent::EjectStart {
                            cycle: self.cycle,
                            id: msg.id,
                        });
                    }
                } else if !msg.blocked {
                    msg.blocked = true;
                    msg.blocked_since = Some(self.cycle);
                    self.blocked_ctr += 1;
                    self.wait_dirty.mark(msg.id);
                    if let Some(t) = self.tracer.as_mut() {
                        // Waiting on the destination's reception channels,
                        // not on any link.
                        t.push(crate::TraceEvent::Blocked {
                            cycle: self.cycle,
                            id: msg.id,
                            at: here,
                            candidates: Vec::new(),
                        });
                    }
                }
                continue;
            }

            compute_candidates(
                &self.topo,
                &*self.routing,
                self.cfg.vcs_per_channel,
                &self.failed,
                &ctx_of(msg, here),
                &mut self.cand_buf,
            );
            match first_free_vc(&self.vc_owner, self.cfg.vcs_per_channel, &self.cand_buf) {
                Some(vc_idx) => {
                    if msg.blocked {
                        self.blocked_ctr -= 1;
                        self.wait_dirty.mark(msg.id);
                    }
                    acquire_vc(
                        VcState {
                            owner: &mut self.vc_owner,
                            seq: &mut self.vc_seq,
                            feed: &mut self.vc_feed,
                            next: &mut self.vc_next,
                            owned_per_channel: &mut self.owned_per_channel,
                        },
                        &self.topo,
                        self.cfg.vcs_per_channel,
                        msg,
                        vc_idx,
                        slot,
                    );
                    if let Some(t) = self.tracer.as_mut() {
                        t.push(crate::TraceEvent::Acquired {
                            cycle: self.cycle,
                            id: msg.id,
                            channel: ChannelId(vc_idx / self.cfg.vcs_per_channel as u32),
                            vc: (vc_idx as usize % self.cfg.vcs_per_channel) as u8,
                        });
                    }
                }
                None => {
                    if !msg.blocked {
                        msg.blocked = true;
                        msg.blocked_since = Some(self.cycle);
                        self.blocked_ctr += 1;
                        self.wait_dirty.mark(msg.id);
                        if let Some(t) = self.tracer.as_mut() {
                            t.push(crate::TraceEvent::Blocked {
                                cycle: self.cycle,
                                id: msg.id,
                                at: here,
                                candidates: self.cand_buf.iter().map(|c| c.channel).collect(),
                            });
                        }
                    }
                    if self.fault_mode && self.cand_buf.is_empty() {
                        // Unroutable under the active fault set: resolved
                        // (dropped, or spared by a LinkUp) at the start of
                        // the next cycle, identically in both steppers.
                        self.stranded.push((slot, msg.id));
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Phase 2: transfer (dense reference)
    // ------------------------------------------------------------------

    fn reference_transfer(&mut self, events: &mut StepEvents) {
        // Snapshot start-of-cycle occupancies: every decision below reads
        // these, so a flit advances at most one hop per cycle and buffer
        // space freed this cycle is only visible next cycle.
        self.occ_start.copy_from_slice(&self.vc_occ);
        let vcs_per = self.cfg.vcs_per_channel;
        let depth = self.cfg.buffer_depth as u16;

        // Link transfers: at most one flit per physical channel per cycle.
        for ch in 0..self.topo.num_channels() {
            if self.owned_per_channel[ch] == 0 {
                continue;
            }
            if self.fault_mode
                && self.cycle < self.stall_until[self.topo.channel(ChannelId(ch as u32)).src.idx()]
            {
                // The sending router is frozen: no flit moves on its links.
                continue;
            }
            let base = ch * vcs_per;
            let start = self.link_rr[ch] as usize;
            for i in 0..vcs_per {
                let off = (start + i) % vcs_per;
                let v = base + off;
                let owner = self.vc_owner[v];
                if owner == NO_OWNER || self.occ_start[v] >= depth {
                    continue;
                }
                let seq = self.vc_seq[v];
                let msg = self.messages[owner as usize].as_ref().expect("owner live");
                let moved = if seq == msg.front_seq {
                    // Tail-most owned VC: flits arrive from the source.
                    if self.msg_uninjected[owner as usize] > 0 {
                        self.msg_uninjected[owner as usize] -= 1;
                        true
                    } else {
                        false
                    }
                } else {
                    let pos = (seq - msg.front_seq) as usize;
                    let prev = msg.chain[pos - 1] as usize;
                    if self.occ_start[prev] >= 1 {
                        self.vc_occ[prev] -= 1;
                        true
                    } else {
                        false
                    }
                };
                if moved {
                    self.vc_occ[v] += 1;
                    events.link_flits += 1;
                    self.link_rr[ch] = ((off + 1) % vcs_per) as u8;
                    break;
                }
            }
        }

        // Ejection and recovery drains: one flit per cycle per message.
        for i in 0..self.step_order.len() {
            let slot = self.step_order[i];
            let msg = self.messages[slot as usize].as_mut().expect("active slot");
            if msg.phase == MsgPhase::Routing {
                continue;
            }
            let &head = msg
                .chain
                .back()
                .expect("draining message still owns its head VC");
            if self.fault_mode {
                let drain_node = self.topo.channel(ChannelId(head / vcs_per as u32)).dst;
                if self.cycle < self.stall_until[drain_node.idx()] {
                    // The draining router is frozen.
                    continue;
                }
            }
            if self.occ_start[head as usize] >= 1 {
                self.vc_occ[head as usize] -= 1;
                msg.delivered += 1;
                events.drained_flits += 1;
            }
        }
    }

    // ------------------------------------------------------------------
    // Phase 3: release & completion
    // ------------------------------------------------------------------

    /// Unlinks `slot` from the active list in O(1) (swap-remove through the
    /// slot → index back-map) and recycles its storage.
    fn finish_slot(&mut self, slot: u32) {
        let msg = self.messages[slot as usize].take().expect("finished slot");
        debug_assert!(!msg.blocked, "draining messages are never blocked");
        // Conservative: the id leaves the network entirely; the drain
        // resolves it to a clear (id_map lookup misses).
        self.wait_dirty.mark(msg.id);
        self.id_map.remove(msg.id);
        let i = self.active_idx[slot as usize] as usize;
        debug_assert_eq!(self.active[i], slot);
        self.active.swap_remove(i);
        if let Some(&moved) = self.active.get(i) {
            self.active_idx[moved as usize] = i as u32;
        }
        self.active_idx[slot as usize] = NO_OWNER;
        // Activity bookkeeping (no-ops for a dense-mode instance).
        self.alloc_state[slot as usize] = AllocState::Inactive;
        debug_assert!(self.msg_watches[slot as usize].is_empty());
        let di = self.drain_idx[slot as usize];
        if di != NO_OWNER {
            self.drain_list.swap_remove(di as usize);
            self.drain_head.swap_remove(di as usize);
            if let Some(&moved) = self.drain_list.get(di as usize) {
                self.drain_idx[moved as usize] = di;
            }
            self.drain_idx[slot as usize] = NO_OWNER;
        }
        self.free_slots.push(slot);
    }

    fn reference_release(&mut self, events: &mut StepEvents) {
        for i in 0..self.step_order.len() {
            let slot = self.step_order[i];
            let msg = self.messages[slot as usize].as_mut().expect("active slot");

            // The injection channel frees once the tail leaves the source.
            if self.msg_uninjected[slot as usize] == 0 && msg.holds_injection {
                msg.holds_injection = false;
                self.injecting_count[msg.src.idx()] -= 1;
            }

            // Tail release: owned VCs drain from the front of the chain.
            while let Some(&front) = msg.chain.front() {
                if self.vc_occ[front as usize] == 0 && self.msg_uninjected[slot as usize] == 0 {
                    self.vc_owner[front as usize] = NO_OWNER;
                    self.vc_feed[front as usize] = NO_OWNER;
                    self.vc_next[front as usize] = NO_OWNER;
                    self.owned_per_channel[front as usize / self.cfg.vcs_per_channel] -= 1;
                    msg.chain.pop_front();
                    msg.front_seq += 1;
                    if msg.blocked {
                        // A blocked message's settled chain shrank.
                        self.wait_dirty.mark(msg.id);
                    }
                    if let Some(&nf) = msg.chain.front() {
                        // The new front is now fed straight from the source
                        // (which is drained: releases need uninjected == 0).
                        self.vc_feed[nf as usize] = FROM_SOURCE;
                    }
                } else {
                    break;
                }
            }

            if msg.delivered == msg.len {
                debug_assert!(msg.chain.is_empty());
                debug_assert_eq!(self.msg_uninjected[slot as usize], 0);
                if msg.phase == MsgPhase::Ejecting {
                    let r = msg.dst.idx() * self.reception_per_node + msg.reception_slot as usize;
                    debug_assert_eq!(self.reception[r], slot);
                    self.reception[r] = NO_OWNER;
                }
                let recovered = msg.phase == MsgPhase::Recovering;
                events.delivered.push(DeliveredMsg {
                    id: msg.id,
                    src: msg.src,
                    dst: msg.dst,
                    latency: self.cycle + 1 - msg.born,
                    network_latency: self.cycle + 1 - msg.injected_at,
                    hops: msg.next_seq,
                    len: msg.len,
                    recovered,
                });
                self.total_delivered += 1;
                if recovered {
                    self.total_recovered += 1;
                }
                if let Some(t) = self.tracer.as_mut() {
                    t.push(crate::TraceEvent::Delivered {
                        cycle: self.cycle,
                        id: msg.id,
                        recovered,
                    });
                }
                self.finish_slot(slot);
            }
        }
    }

    // ------------------------------------------------------------------
    // Activity engine: wake lists, ready lists, active channels
    // ------------------------------------------------------------------
    //
    // The activity stepper exploits three facts about the dense phases:
    //
    // * A blocked message's re-attempt has no side effects, and its
    //   candidate set is frozen while it is parked (routing state only
    //   changes on acquisition; `fail_channel` requires every VC of the
    //   channel free, and all of a parked waiter's candidate VCs are
    //   owned — that is why it parked). It can therefore only become
    //   acquirable when a watched VC or reception slot is freed, which
    //   happens exclusively in the release phase, where the wake fires.
    // * Transfer decisions read only start-of-cycle occupancies, so
    //   per-channel decisions are order-independent and every movability
    //   transition is caused by an acquisition or an occupancy change —
    //   each of which re-activates the affected channel.
    // * The release actions (injection-channel free, tail release,
    //   completion) are all triggered by transfer-phase changes
    //   (`uninjected` hitting zero, an occupancy hitting zero, the last
    //   flit draining), so only those messages need visiting, in id order.

    /// Records that VC `v`'s occupancy diverged from `occ_start`
    /// (idempotent: setting an already-set bit is a no-op, so a VC whose
    /// occupancy changes several times per cycle is patched once).
    ///
    /// Branchless on purpose: this and [`Self::activate_channel`] run
    /// several times per moved flit, and the word arrays are small enough
    /// (`n / 64` entries) that the patch/scan loops walk every word
    /// unconditionally rather than maintaining touched-word lists.
    #[inline]
    fn mark_occ_dirty(&mut self, v: u32) {
        self.occ_dirty_words[(v >> 6) as usize] |= 1 << (v & 63);
    }

    /// Adds `ch` to the active-channel set (idempotent).
    #[inline]
    fn activate_channel(&mut self, ch: usize) {
        self.chan_words[ch >> 6] |= 1 << (ch & 63);
    }

    /// Schedules `slot` for this cycle's release phase (idempotent).
    #[inline]
    fn mark_release(&mut self, slot: u32) {
        if !self.release_flag[slot as usize] {
            self.release_flag[slot as usize] = true;
            self.release_check.push(slot);
        }
    }

    /// Appends `slot` to the drain list (one flit per cycle until done).
    fn drain_push(&mut self, slot: u32) {
        debug_assert_eq!(self.drain_idx[slot as usize], NO_OWNER);
        let &head = self.messages[slot as usize]
            .as_ref()
            .expect("drain slot")
            .chain
            .back()
            .expect("draining message still owns its head VC");
        self.drain_idx[slot as usize] = self.drain_list.len() as u32;
        self.drain_list.push(slot);
        self.drain_head.push(head);
    }

    fn watches_of(&self, waiter: u32) -> &Vec<(u32, u32)> {
        if waiter & INJECTOR != 0 {
            &self.inj_watches[(waiter ^ INJECTOR) as usize]
        } else {
            &self.msg_watches[waiter as usize]
        }
    }

    fn watches_of_mut(&mut self, waiter: u32) -> &mut Vec<(u32, u32)> {
        if waiter & INJECTOR != 0 {
            &mut self.inj_watches[(waiter ^ INJECTOR) as usize]
        } else {
            &mut self.msg_watches[waiter as usize]
        }
    }

    /// Parks `waiter` (message slot, or `INJECTOR | node`) on `resource`.
    fn watch(&mut self, waiter: u32, resource: u32) {
        let Self {
            wake_lists,
            msg_watches,
            inj_watches,
            ..
        } = self;
        let watches = if waiter & INJECTOR != 0 {
            &mut inj_watches[(waiter ^ INJECTOR) as usize]
        } else {
            &mut msg_watches[waiter as usize]
        };
        let list = &mut wake_lists[resource as usize];
        list.push(WakeEntry {
            waiter,
            watch_pos: watches.len() as u32,
        });
        watches.push((resource, (list.len() - 1) as u32));
    }

    /// Removes every watch held by `waiter`: O(1) per watch via swap-remove
    /// on the wake list plus a back-pointer fix-up for the entry that slid
    /// into the hole. Leaves no stale entries behind.
    fn unpark(&mut self, waiter: u32) {
        let n = self.watches_of(waiter).len();
        for k in 0..n {
            let (resource, i) = self.watches_of(waiter)[k];
            let list = &mut self.wake_lists[resource as usize];
            debug_assert_eq!(list[i as usize].waiter, waiter);
            list.swap_remove(i as usize);
            if let Some(&moved) = list.get(i as usize) {
                debug_assert_ne!(moved.waiter, waiter, "one watch per resource");
                self.watches_of_mut(moved.waiter)[moved.watch_pos as usize].1 = i;
            }
        }
        self.watches_of_mut(waiter).clear();
    }

    /// Wakes every waiter parked on `resource`; messages join the `woken`
    /// buffer and injectors the ready list, both re-attempted next cycle.
    fn wake_resource(&mut self, resource: u32) {
        while let Some(&WakeEntry { waiter, .. }) = self.wake_lists[resource as usize].last() {
            // unpark removes (at least) the entry just examined.
            self.unpark(waiter);
            if waiter & INJECTOR != 0 {
                let node = (waiter ^ INJECTOR) as usize;
                debug_assert_eq!(self.inj_state[node], InjState::Parked);
                self.inj_state[node] = InjState::Ready;
                self.inj_ready.push(node as u32);
            } else {
                debug_assert_eq!(self.alloc_state[waiter as usize], AllocState::Parked);
                self.alloc_state[waiter as usize] = AllocState::Queued;
                self.woken.push(waiter);
            }
        }
    }

    /// Parks `waiter` on every VC in the current candidate buffer (all are
    /// owned, or the attempt would have succeeded). An empty buffer parks
    /// with no watches: without transient faults such a waiter can never
    /// become acquirable; with them, stranded messages are resolved at the
    /// next cycle start and `LinkUp` wakes cover everything else.
    fn park_on_candidates(&mut self, waiter: u32) {
        let cand_buf = std::mem::take(&mut self.cand_buf);
        let vcs_per = self.cfg.vcs_per_channel;
        for c in &cand_buf {
            let base = c.channel.idx() * vcs_per;
            for v in c.vcs.iter() {
                debug_assert_ne!(self.vc_owner[base + v], NO_OWNER);
                self.watch(waiter, (base + v) as u32);
            }
        }
        self.cand_buf = cand_buf;
    }

    /// Parks a waiter on every VC of its frozen candidate list — the
    /// cached-path twin of [`Self::park_on_candidates`] (`idx` is a
    /// message slot, or a node when `injector` is set).
    fn park_on_cached(&mut self, idx: u32, injector: bool) {
        let list = if injector {
            std::mem::take(&mut self.inj_cand_cache[idx as usize])
        } else {
            std::mem::take(&mut self.cand_cache[idx as usize])
        };
        let waiter = if injector { INJECTOR | idx } else { idx };
        for &v in &list {
            debug_assert_ne!(self.vc_owner[v as usize], NO_OWNER);
            self.watch(waiter, v);
        }
        if injector {
            self.inj_cand_cache[idx as usize] = list;
        } else {
            self.cand_cache[idx as usize] = list;
        }
    }

    /// Folds messages woken since the last allocation phase back into the
    /// id-sorted allocation queue (two-pointer merge).
    fn merge_woken(&mut self) {
        if self.woken.is_empty() {
            return;
        }
        let Self {
            woken,
            slot_id,
            alloc_queue,
            alloc_scratch,
            ..
        } = self;
        woken.sort_unstable_by_key(|&s| slot_id[s as usize]);
        merge_sorted_by_id(alloc_queue, woken, alloc_scratch, slot_id);
        woken.clear();
    }

    /// Activity allocation, injection half: only ready nodes attempt, in
    /// ascending node order (the dense scan's order).
    fn activity_injections(&mut self, events: &mut StepEvents) {
        if self.inj_ready.is_empty() {
            return;
        }
        let mut ready = std::mem::take(&mut self.inj_ready);
        ready.sort_unstable();
        let mut deferred: Vec<u32> = Vec::new();
        for &node in &ready {
            debug_assert_eq!(self.inj_state[node as usize], InjState::Ready);
            if self.fault_mode
                && (self.cycle < self.stall_until[node as usize]
                    || self.cycle < self.inj_down_until[node as usize])
            {
                // Suppressed (stall / injector outage): stay ready and
                // re-attempt next cycle. Collected locally and appended
                // after the take/restore below — a push straight onto
                // `inj_ready` would be overwritten by the restore.
                deferred.push(node);
                continue;
            }
            self.attempt_injector(node, events);
        }
        ready.clear();
        self.inj_ready = ready;
        self.inj_ready.extend_from_slice(&deferred);
    }

    /// Drains one node's injection opportunities and records why it
    /// stopped (idle, or parked on the queue front's candidate VCs).
    fn attempt_injector(&mut self, node: u32, events: &mut StepEvents) {
        let n = node as usize;
        loop {
            if (self.injecting_count[n] as usize) >= self.injection_per_node {
                self.inj_state[n] = InjState::Idle;
                return;
            }
            match self.try_inject_one(n, events) {
                InjectOutcome::Injected | InjectOutcome::Rejected => {}
                InjectOutcome::EmptyQueue => {
                    self.inj_state[n] = InjState::Idle;
                    return;
                }
                InjectOutcome::NoFreeVc => {
                    self.inj_state[n] = InjState::Parked;
                    if self.inj_cand_valid[n] {
                        self.park_on_cached(node, true);
                    } else {
                        self.park_on_candidates(INJECTOR | node);
                    }
                    return;
                }
            }
        }
    }

    /// Activity allocation, routing half: attempt every runnable message
    /// in id order, compacting parked / inactive entries out of the queue.
    fn activity_next_hops(&mut self) {
        let mut queue = std::mem::take(&mut self.alloc_queue);
        let mut keep = 0;
        for i in 0..queue.len() {
            let slot = queue[i];
            // A recovery pull between steps leaves a stale entry behind;
            // it is dropped here before the slot can ever be recycled.
            if self.alloc_state[slot as usize] != AllocState::Queued {
                continue;
            }
            if self.attempt_next_hop(slot) {
                queue[keep] = slot;
                keep += 1;
            }
        }
        queue.truncate(keep);
        debug_assert!(self.alloc_queue.is_empty());
        self.alloc_queue = queue;
    }

    /// One message's next-hop attempt (the body of the dense scan), plus
    /// parking on failure. Returns whether the message stays runnable.
    ///
    /// Kept out of line: with one caller the compiler folds this 4 KB body
    /// into `step`'s allocation loop, which measured 3.5 % slower at
    /// saturation (`flow_sat`, 9 of 10 paired runs).
    #[inline(never)]
    fn attempt_next_hop(&mut self, slot: u32) -> bool {
        let s = slot as usize;
        let (head_vc, dst) = {
            let msg = self.messages[s].as_ref().expect("queued slot");
            debug_assert_eq!(msg.phase, MsgPhase::Routing);
            (
                *msg.chain.back().expect("routing message owns its head VC"),
                msg.dst,
            )
        };
        if self.vc_occ[head_vc as usize] == 0 {
            // Header flit still in flight towards this buffer; re-attempt
            // next cycle (cheap: this branch).
            let msg = self.messages[s].as_mut().expect("queued slot");
            debug_assert!(!msg.blocked, "blocked header always has a buffered flit");
            msg.blocked = false;
            return true;
        }
        let here = self
            .topo
            .channel(ChannelId(head_vc / self.cfg.vcs_per_channel as u32))
            .dst;
        if self.fault_mode && self.cycle < self.stall_until[here.idx()] {
            // Frozen router: stay runnable and re-attempt every cycle of
            // the stall, exactly as the dense stepper skips this message.
            return true;
        }

        if here == dst {
            let base = here.idx() * self.reception_per_node;
            let free = (0..self.reception_per_node).find(|&r| self.reception[base + r] == NO_OWNER);
            if let Some(r) = free {
                self.reception[base + r] = slot;
                let msg = self.messages[s].as_mut().expect("queued slot");
                msg.reception_slot = r as u8;
                msg.phase = MsgPhase::Ejecting;
                if msg.blocked {
                    self.blocked_ctr -= 1;
                    self.wait_dirty.mark(msg.id);
                }
                msg.blocked = false;
                msg.blocked_since = None;
                let id = msg.id;
                if let Some(t) = self.tracer.as_mut() {
                    t.push(crate::TraceEvent::EjectStart {
                        cycle: self.cycle,
                        id,
                    });
                }
                self.alloc_state[s] = AllocState::Inactive;
                self.drain_push(slot);
            } else {
                {
                    let msg = self.messages[s].as_mut().expect("queued slot");
                    if !msg.blocked {
                        msg.blocked = true;
                        msg.blocked_since = Some(self.cycle);
                        self.blocked_ctr += 1;
                        self.wait_dirty.mark(msg.id);
                        let id = msg.id;
                        if let Some(t) = self.tracer.as_mut() {
                            // Waiting on the destination's reception
                            // channels, not on any link.
                            t.push(crate::TraceEvent::Blocked {
                                cycle: self.cycle,
                                id,
                                at: here,
                                candidates: Vec::new(),
                            });
                        }
                    }
                }
                self.alloc_state[s] = AllocState::Parked;
                let resource = (self.num_vcs() + here.idx()) as u32;
                self.watch(slot, resource);
            }
            return false;
        }

        let cached = self.cand_cache_valid[s];
        let acquired = {
            let msg = self.messages[s].as_mut().expect("queued slot");
            let free = if cached {
                // Frozen candidates: while parked, nothing the routing
                // relation reads changed (header position and policy state
                // are frozen, and fault caching is disabled), so scan the
                // flattened list in the same nested order `first_free_vc`
                // would use over the recomputed set.
                debug_assert!(msg.blocked, "cached candidates imply a parked episode");
                self.cand_cache[s]
                    .iter()
                    .copied()
                    .find(|&v| self.vc_owner[v as usize] == NO_OWNER)
            } else {
                compute_candidates(
                    &self.topo,
                    &*self.routing,
                    self.cfg.vcs_per_channel,
                    &self.failed,
                    &ctx_of(msg, here),
                    &mut self.cand_buf,
                );
                first_free_vc(&self.vc_owner, self.cfg.vcs_per_channel, &self.cand_buf)
            };
            match free {
                Some(vc_idx) => {
                    self.cand_cache_valid[s] = false;
                    if msg.blocked {
                        self.blocked_ctr -= 1;
                        self.wait_dirty.mark(msg.id);
                    }
                    acquire_vc(
                        VcState {
                            owner: &mut self.vc_owner,
                            seq: &mut self.vc_seq,
                            feed: &mut self.vc_feed,
                            next: &mut self.vc_next,
                            owned_per_channel: &mut self.owned_per_channel,
                        },
                        &self.topo,
                        self.cfg.vcs_per_channel,
                        msg,
                        vc_idx,
                        slot,
                    );
                    let id = msg.id;
                    if let Some(t) = self.tracer.as_mut() {
                        t.push(crate::TraceEvent::Acquired {
                            cycle: self.cycle,
                            id,
                            channel: ChannelId(vc_idx / self.cfg.vcs_per_channel as u32),
                            vc: (vc_idx as usize % self.cfg.vcs_per_channel) as u8,
                        });
                    }
                    Some(vc_idx)
                }
                None => {
                    if !msg.blocked {
                        msg.blocked = true;
                        msg.blocked_since = Some(self.cycle);
                        self.blocked_ctr += 1;
                        self.wait_dirty.mark(msg.id);
                        let id = msg.id;
                        if let Some(t) = self.tracer.as_mut() {
                            t.push(crate::TraceEvent::Blocked {
                                cycle: self.cycle,
                                id,
                                at: here,
                                candidates: self.cand_buf.iter().map(|c| c.channel).collect(),
                            });
                        }
                    }
                    None
                }
            }
        };
        match acquired {
            Some(vc_idx) => {
                // The new head may carry a flit this very cycle.
                self.activate_channel(vc_idx as usize / self.cfg.vcs_per_channel);
                true
            }
            None => {
                self.alloc_state[s] = AllocState::Parked;
                if cached {
                    self.park_on_cached(slot, false);
                } else {
                    self.park_on_candidates(slot);
                    if self.fault_mode {
                        if self.cand_buf.is_empty() {
                            // Unroutable under the active fault set (parked
                            // with no watches): resolved at the start of the
                            // next cycle.
                            let id = self.messages[s].as_ref().expect("queued slot").id;
                            self.stranded.push((slot, id));
                        }
                    } else {
                        // Freeze the flattened set for re-attempts.
                        let vcs_per = self.cfg.vcs_per_channel;
                        self.cand_cache[s].clear();
                        for c in &self.cand_buf {
                            let base = c.channel.idx() * vcs_per;
                            for v in c.vcs.iter() {
                                self.cand_cache[s].push((base + v) as u32);
                            }
                        }
                        self.cand_cache_valid[s] = true;
                    }
                }
                false
            }
        }
    }

    /// Activity transfer: only channels in the active bitset are examined,
    /// and `occ_start` is patched from the dirty bitset instead of copied.
    fn activity_transfer(&mut self, events: &mut StepEvents) {
        // Lazy occ_start sync: occupancies change only during a transfer
        // and every change is logged, so patching the dirty words is
        // exactly the dense stepper's full copy. The word array is tiny
        // (one u64 per 64 VCs), so every word is visited unconditionally.
        {
            let Self {
                occ_dirty_words,
                occ_start,
                vc_occ,
                ..
            } = self;
            for (w, slot) in occ_dirty_words.iter_mut().enumerate() {
                let mut word = *slot;
                if word == 0 {
                    continue;
                }
                *slot = 0;
                let base = w << 6;
                while word != 0 {
                    let v = base + word.trailing_zeros() as usize;
                    occ_start[v] = vc_occ[v];
                    word &= word - 1;
                }
            }
        }
        let vcs_per = self.cfg.vcs_per_channel;
        let depth = self.cfg.buffer_depth as u16;

        // Swap the accumulated active set into the scan side: activations
        // made while walking (occupancy triggers) land in the now-empty
        // accumulating set and belong to the next cycle, while the walk
        // consumes exactly this cycle's set. The walk zeroes each word it
        // visits, so the scan side hands back an all-zero set for the next
        // swap.
        std::mem::swap(&mut self.chan_words, &mut self.chan_scan);

        // One walk; `fault_mode` is fixed before the first step.
        if self.fault_mode {
            self.fused_transfer::<true>(events, vcs_per, depth);
        } else {
            self.fused_transfer::<false>(events, vcs_per, depth);
        }

        // Ejection and recovery drains: one flit per cycle per message.
        // `drain_head[k]` caches the head VC of `drain_list[k]` (fixed
        // while draining: Ejecting/Recovering messages never acquire), so
        // the starved-head case skips the message slab entirely.
        for k in 0..self.drain_list.len() {
            let head = self.drain_head[k];
            if self.fault_mode {
                let drain_node = self.topo.channel(ChannelId(head / vcs_per as u32)).dst;
                if self.cycle < self.stall_until[drain_node.idx()] {
                    // The draining router is frozen.
                    continue;
                }
            }
            if self.occ_start[head as usize] < 1 {
                continue;
            }
            let slot = self.drain_list[k];
            let msg = self.messages[slot as usize].as_mut().expect("drain slot");
            debug_assert_ne!(msg.phase, MsgPhase::Routing);
            debug_assert_eq!(msg.chain.back(), Some(&head));
            self.vc_occ[head as usize] -= 1;
            msg.delivered += 1;
            events.drained_flits += 1;
            let done = msg.delivered == msg.len;
            let emptied = self.vc_occ[head as usize] == 0;
            self.mark_occ_dirty(head);
            self.activate_channel(self.vc_chan[head as usize] as usize);
            if emptied || done {
                self.mark_release(slot);
            }
        }
    }

    /// Serial fused decide+apply transfer walk: one ascending pass over the
    /// active-channel words, applying each move as it is decided.
    /// Byte-identical to decide-then-apply because apply mutations never
    /// reach a later decision's inputs: decisions read `occ_start`
    /// (patched next cycle), `link_rr[ch]` (written only by channel `ch`'s
    /// own move, after its decision), `msg_uninjected[owner]` (read only
    /// at the owner's unique chain front) and, with `FAULTS`, `stall_until`
    /// (written only at the start of a cycle), while activations land in
    /// the accumulating bitset, not the scan side.
    ///
    /// `FAULTS` is [`Self::fault_mode`] lifted to a const so the
    /// fault-free instantiation carries no stall test.
    fn fused_transfer<const FAULTS: bool>(
        &mut self,
        events: &mut StepEvents,
        vcs_per: usize,
        depth: u16,
    ) {
        // Destructured field borrows: indexed stores through one slice
        // provably cannot clobber another slice's header, so the pointers
        // stay in registers across the walk (through `&mut self` every
        // heap store would force header reloads).
        let Self {
            chan_scan,
            chan_words,
            owned_per_channel,
            link_rr,
            vc_owner,
            vc_occ,
            occ_start,
            vc_feed,
            vc_next,
            vc_chan,
            occ_dirty_words,
            msg_uninjected,
            messages,
            release_flag,
            release_check,
            release_deferred,
            topo,
            stall_until,
            cycle,
            ..
        } = self;
        let cycle = *cycle;
        for (w, slot) in chan_scan.iter_mut().enumerate() {
            let mut word = *slot;
            if word == 0 {
                continue;
            }
            *slot = 0;
            let wbase = w << 6;
            while word != 0 {
                let ch = wbase + word.trailing_zeros() as usize;
                word &= word - 1;
                if owned_per_channel[ch] == 0 {
                    continue;
                }
                if FAULTS && cycle < stall_until[topo.channel(ChannelId(ch as u32)).src.idx()] {
                    // Frozen sender: nothing moves, but pending movement
                    // must survive the stall — keep the channel active.
                    chan_words[ch >> 6] |= 1 << (ch & 63);
                    continue;
                }
                let base = ch * vcs_per;
                let start = link_rr[ch] as usize;
                for i in 0..vcs_per {
                    // `start + i < 2 * vcs_per`, so one conditional
                    // subtract replaces a hardware divide (`vcs_per` is
                    // not a compile-time constant).
                    let mut off = start + i;
                    if off >= vcs_per {
                        off -= vcs_per;
                    }
                    let v = base + off;
                    let owner = vc_owner[v];
                    if owner == NO_OWNER || occ_start[v] >= depth {
                        continue;
                    }
                    // The feed cache mirrors the owner's chain, so the
                    // movement decision touches only the dense per-VC
                    // vectors — never the message slab.
                    let feed = vc_feed[v];
                    let moved = if feed == FROM_SOURCE {
                        msg_uninjected[owner as usize] > 0
                    } else {
                        occ_start[feed as usize] >= 1
                    };
                    if !moved {
                        continue;
                    }
                    // Apply: the served link stays active (round-robin
                    // fairness), the fed VC may now feed its chain
                    // successor, and the drained upstream VC regained
                    // buffer space.
                    vc_occ[v] += 1;
                    occ_dirty_words[v >> 6] |= 1 << (v & 63);
                    events.link_flits += 1;
                    let next_rr = off + 1;
                    link_rr[ch] = if next_rr == vcs_per { 0 } else { next_rr } as u8;
                    chan_words[ch >> 6] |= 1 << (ch & 63);
                    let succ = vc_next[v];
                    if succ != NO_OWNER {
                        let sc = vc_chan[succ as usize] as usize;
                        chan_words[sc >> 6] |= 1 << (sc & 63);
                    }
                    if feed == FROM_SOURCE {
                        let u = &mut msg_uninjected[owner as usize];
                        *u -= 1;
                        if *u == 0 && !release_flag[owner as usize] {
                            release_flag[owner as usize] = true;
                            // The injection channel frees — but the dense
                            // release phase scans the start-of-cycle
                            // active set, so a message injected *this*
                            // cycle (len 1) is only visited next cycle.
                            let injected_now = messages[owner as usize]
                                .as_ref()
                                .expect("owner live")
                                .injected_at
                                == cycle;
                            if !injected_now {
                                release_check.push(owner);
                            } else {
                                release_deferred.push(owner);
                            }
                        }
                    } else {
                        let p = feed as usize;
                        vc_occ[p] -= 1;
                        occ_dirty_words[p >> 6] |= 1 << (p & 63);
                        let pc = vc_chan[p] as usize;
                        chan_words[pc >> 6] |= 1 << (pc & 63);
                        // Tail release may now be possible.
                        if vc_occ[p] == 0 && !release_flag[owner as usize] {
                            release_flag[owner as usize] = true;
                            release_check.push(owner);
                        }
                    }
                    break;
                }
            }
        }
    }

    /// Activity release: visit only the messages a transfer-phase trigger
    /// marked, oldest first, running the dense per-message release logic
    /// plus the wakes for every freed resource.
    fn activity_release(&mut self, events: &mut StepEvents) {
        if self.release_check.is_empty() {
            return;
        }
        let mut check = std::mem::take(&mut self.release_check);
        let slot_id = &self.slot_id;
        check.sort_unstable_by_key(|&s| slot_id[s as usize]);
        for &slot in &check {
            self.release_flag[slot as usize] = false;
            self.release_one(slot, events);
        }
        check.clear();
        self.release_check = check;
    }

    fn release_one(&mut self, slot: u32, events: &mut StepEvents) {
        let s = slot as usize;
        // The injection channel frees once the tail leaves the source.
        {
            let msg = self.messages[s].as_mut().expect("release slot");
            if self.msg_uninjected[s] == 0 && msg.holds_injection {
                msg.holds_injection = false;
                let node = msg.src.idx();
                self.injecting_count[node] -= 1;
                if self.inj_state[node] == InjState::Idle && !self.source_q[node].is_empty() {
                    self.inj_state[node] = InjState::Ready;
                    self.inj_ready.push(node as u32);
                }
            }
        }
        // Tail release: owned VCs drain from the front of the chain; each
        // freed VC wakes its parked waiters.
        loop {
            let front = {
                let msg = self.messages[s].as_ref().expect("release slot");
                match msg.chain.front() {
                    Some(&f) if self.msg_uninjected[s] == 0 && self.vc_occ[f as usize] == 0 => f,
                    _ => break,
                }
            };
            self.vc_owner[front as usize] = NO_OWNER;
            self.vc_feed[front as usize] = NO_OWNER;
            self.vc_next[front as usize] = NO_OWNER;
            self.owned_per_channel[self.vc_chan[front as usize] as usize] -= 1;
            {
                let msg = self.messages[s].as_mut().expect("release slot");
                msg.chain.pop_front();
                msg.front_seq += 1;
                if msg.blocked {
                    // A blocked message's settled chain shrank.
                    self.wait_dirty.mark(msg.id);
                }
                if let Some(&nf) = msg.chain.front() {
                    // The new front is fed straight from the (drained)
                    // source.
                    self.vc_feed[nf as usize] = FROM_SOURCE;
                }
            }
            self.wake_resource(front);
        }
        let done = {
            let msg = self.messages[s].as_ref().expect("release slot");
            msg.delivered == msg.len
        };
        if !done {
            return;
        }
        let (reception, recovered, id) = {
            let msg = self.messages[s].as_ref().expect("release slot");
            debug_assert!(msg.chain.is_empty());
            debug_assert_eq!(self.msg_uninjected[s], 0);
            let recovered = msg.phase == MsgPhase::Recovering;
            events.delivered.push(DeliveredMsg {
                id: msg.id,
                src: msg.src,
                dst: msg.dst,
                latency: self.cycle + 1 - msg.born,
                network_latency: self.cycle + 1 - msg.injected_at,
                hops: msg.next_seq,
                len: msg.len,
                recovered,
            });
            let reception = (msg.phase == MsgPhase::Ejecting)
                .then(|| msg.dst.idx() * self.reception_per_node + msg.reception_slot as usize);
            (reception, recovered, msg.id)
        };
        self.total_delivered += 1;
        if recovered {
            self.total_recovered += 1;
        }
        if let Some(t) = self.tracer.as_mut() {
            t.push(crate::TraceEvent::Delivered {
                cycle: self.cycle,
                id,
                recovered,
            });
        }
        let freed_node = reception.map(|r| {
            debug_assert_eq!(self.reception[r], slot);
            self.reception[r] = NO_OWNER;
            r / self.reception_per_node
        });
        self.finish_slot(slot);
        if let Some(node) = freed_node {
            self.wake_resource((self.num_vcs() + node) as u32);
        }
    }

    // ------------------------------------------------------------------
    // Invariant checking (tests)
    // ------------------------------------------------------------------

    /// Exhaustive consistency check; called from tests after stepping.
    ///
    /// Verifies flit conservation per message, owner/chain agreement,
    /// occupancy bounds, per-channel owned counts, and injection/reception
    /// bookkeeping.
    pub fn check_invariants(&self) {
        let vcs_per = self.cfg.vcs_per_channel;
        let mut owned_seen = vec![0u16; self.topo.num_channels()];
        for (i, &slot) in self.active.iter().enumerate() {
            assert_eq!(
                self.active_idx[slot as usize], i as u32,
                "active back-map out of sync for slot {slot}"
            );
        }
        for (slot, &i) in self.active_idx.iter().enumerate() {
            if i != NO_OWNER {
                assert_eq!(self.active[i as usize] as usize, slot);
            } else {
                assert!(
                    self.messages.get(slot).is_none_or(|m| m.is_none()),
                    "live slot {slot} missing from the active list"
                );
            }
        }
        for &slot in &self.active {
            let msg = self.messages[slot as usize].as_ref().expect("active slot");
            assert_eq!(self.slot_id[slot as usize], msg.id, "slot_id out of sync");
            let in_chain: u32 = msg
                .chain
                .iter()
                .map(|&v| self.vc_occ[v as usize] as u32)
                .sum();
            assert_eq!(
                in_chain,
                msg.flits_in_network(self.msg_uninjected[slot as usize]),
                "flit conservation violated for message {}",
                msg.id
            );
            for (p, &v) in msg.chain.iter().enumerate() {
                let v = v as usize;
                assert_eq!(self.vc_owner[v], slot, "chain VC not owned by its message");
                assert_eq!(self.vc_seq[v], msg.front_seq + p as u32, "seq mismatch");
                assert!(self.vc_occ[v] as usize <= self.cfg.buffer_depth);
                // The feed/next chain-link caches mirror the chain exactly.
                let feed = if p == 0 {
                    FROM_SOURCE
                } else {
                    msg.chain[p - 1]
                };
                assert_eq!(self.vc_feed[v], feed, "vc_feed diverged from chain");
                let next = msg.chain.get(p + 1).copied().unwrap_or(NO_OWNER);
                assert_eq!(self.vc_next[v], next, "vc_next diverged from chain");
                owned_seen[v / vcs_per] += 1;
            }
            // Chain follows physically adjacent channels.
            for w in msg.chain.make_contiguous_ref().windows(2) {
                let a = self.topo.channel(ChannelId(w[0] / vcs_per as u32));
                let b = self.topo.channel(ChannelId(w[1] / vcs_per as u32));
                assert_eq!(a.dst, b.src, "chain must be a connected path");
            }
            if msg.phase == MsgPhase::Ejecting {
                let r = msg.dst.idx() * self.reception_per_node + msg.reception_slot as usize;
                assert_eq!(self.reception[r], slot);
            }
        }
        for (ch, &count) in owned_seen.iter().enumerate() {
            assert_eq!(
                count, self.owned_per_channel[ch],
                "owned count mismatch on channel {ch}"
            );
        }
        for (v, &owner) in self.vc_owner.iter().enumerate() {
            if owner == NO_OWNER {
                assert_eq!(self.vc_occ[v], 0, "free VC {v} holds flits");
                assert_eq!(self.vc_feed[v], NO_OWNER, "free VC {v} keeps a feed");
                assert_eq!(self.vc_next[v], NO_OWNER, "free VC {v} keeps a next");
            } else {
                assert!(self.messages[owner as usize].is_some());
            }
        }
        let blocked_scan = self
            .active
            .iter()
            .filter(|&&s| self.messages[s as usize].as_ref().unwrap().blocked)
            .count();
        assert_eq!(self.blocked_ctr, blocked_scan, "blocked counter drifted");
        if self.mode == StepMode::Activity {
            self.check_activity_invariants();
        }
    }

    /// Activity-engine consistency, including the no-missed-wake
    /// guarantees: a parked waiter's watched resources are all busy, a
    /// movable VC's channel is on the active list, and an idle injector
    /// has nothing it could inject.
    fn check_activity_invariants(&self) {
        let vcs_per = self.cfg.vcs_per_channel;
        // Wake lists and watch tables are bidirectionally consistent.
        let mut total_watches = 0usize;
        for (w, watches) in self.msg_watches.iter().enumerate() {
            for (k, &(r, i)) in watches.iter().enumerate() {
                let e = self.wake_lists[r as usize][i as usize];
                assert_eq!(e.waiter, w as u32, "watch back-pointer broken");
                assert_eq!(e.watch_pos, k as u32, "watch back-pointer broken");
                total_watches += 1;
            }
        }
        for (node, watches) in self.inj_watches.iter().enumerate() {
            for (k, &(r, i)) in watches.iter().enumerate() {
                let e = self.wake_lists[r as usize][i as usize];
                assert_eq!(
                    e.waiter,
                    INJECTOR | node as u32,
                    "watch back-pointer broken"
                );
                assert_eq!(e.watch_pos, k as u32, "watch back-pointer broken");
                total_watches += 1;
            }
        }
        let total_entries: usize = self.wake_lists.iter().map(|l| l.len()).sum();
        assert_eq!(total_entries, total_watches, "stale wake-list entries");

        // Every queued routing message appears exactly once across the
        // allocation queue and the woken buffer.
        let mut queued_seen = vec![0u32; self.messages.len()];
        for &s in self.alloc_queue.iter().chain(self.woken.iter()) {
            assert!(self.messages[s as usize].is_some(), "dead slot queued");
            if self.alloc_state[s as usize] == AllocState::Queued {
                queued_seen[s as usize] += 1;
            }
        }
        for &s in &self.inj_ready {
            assert_eq!(self.inj_state[s as usize], InjState::Ready);
        }

        let mut cand = Vec::new();
        for &slot in &self.active {
            let msg = self.messages[slot as usize].as_ref().unwrap();
            let s = slot as usize;
            if msg.phase != MsgPhase::Routing {
                assert_eq!(self.alloc_state[s], AllocState::Inactive);
                assert_ne!(
                    self.drain_idx[s], NO_OWNER,
                    "draining message not on drain list"
                );
                assert_eq!(self.drain_list[self.drain_idx[s] as usize], slot);
                continue;
            }
            match self.alloc_state[s] {
                AllocState::Queued => {
                    assert_eq!(
                        queued_seen[s], 1,
                        "queued message {} lost or duplicated",
                        msg.id
                    );
                    assert!(self.msg_watches[s].is_empty());
                }
                AllocState::Parked => {
                    assert!(msg.blocked, "parked message must be blocked");
                    let &head = msg.chain.back().unwrap();
                    assert!(self.vc_occ[head as usize] >= 1);
                    let here = self.topo.channel(ChannelId(head / vcs_per as u32)).dst;
                    if here == msg.dst {
                        // Waiting for a reception channel: all busy, and
                        // exactly the reception group is watched.
                        let base = here.idx() * self.reception_per_node;
                        for r in 0..self.reception_per_node {
                            assert_ne!(
                                self.reception[base + r],
                                NO_OWNER,
                                "parked at destination with a free reception slot: missed wake"
                            );
                        }
                        assert_eq!(self.msg_watches[s].len(), 1);
                        assert_eq!(
                            self.msg_watches[s][0].0,
                            (self.num_vcs() + here.idx()) as u32,
                            "destination wait must watch the reception group"
                        );
                    } else {
                        compute_candidates(
                            &self.topo,
                            &*self.routing,
                            vcs_per,
                            &self.failed,
                            &ctx_of(msg, here),
                            &mut cand,
                        );
                        let mut n_cand_vcs = 0;
                        for c in &cand {
                            let base = c.channel.idx() * vcs_per;
                            for v in c.vcs.iter() {
                                assert_ne!(
                                    self.vc_owner[base + v],
                                    NO_OWNER,
                                    "parked message {} has a free candidate VC: missed wake",
                                    msg.id
                                );
                                n_cand_vcs += 1;
                            }
                        }
                        assert_eq!(
                            self.msg_watches[s].len(),
                            n_cand_vcs,
                            "watch set does not match candidate set"
                        );
                        if !self.fault_mode {
                            assert!(
                                self.cand_cache_valid[s],
                                "parked message without frozen candidates"
                            );
                            let flat: Vec<u32> = cand
                                .iter()
                                .flat_map(|c| {
                                    let base = c.channel.idx() * vcs_per;
                                    c.vcs.iter().map(move |v| (base + v) as u32)
                                })
                                .collect();
                            assert_eq!(
                                self.cand_cache[s], flat,
                                "frozen candidate set diverged from recompute"
                            );
                        }
                    }
                }
                AllocState::Inactive => panic!("routing message {} inactive", msg.id),
            }
        }

        // Injector scheduling: an idle node must have nothing injectable.
        for node in 0..self.topo.num_nodes() {
            let has_free_slot = (self.injecting_count[node] as usize) < self.injection_per_node;
            match self.inj_state[node] {
                InjState::Idle => {
                    assert!(
                        self.source_q[node].is_empty() || !has_free_slot,
                        "idle injector {node} with work and a free channel: missed wake"
                    );
                    assert!(self.inj_watches[node].is_empty());
                }
                InjState::Ready => {
                    assert_eq!(
                        self.inj_ready
                            .iter()
                            .filter(|&&n| n as usize == node)
                            .count(),
                        1
                    );
                }
                InjState::Parked => {
                    let &Pending { dst, .. } = self.source_q[node]
                        .front()
                        .expect("parked injector has work");
                    assert!(has_free_slot, "parked injector without a free channel");
                    let src = NodeId(node as u32);
                    compute_candidates(
                        &self.topo,
                        &*self.routing,
                        vcs_per,
                        &self.failed,
                        &RoutingCtx::fresh(src, dst, src),
                        &mut cand,
                    );
                    let mut n_cand_vcs = 0;
                    for c in &cand {
                        let base = c.channel.idx() * vcs_per;
                        for v in c.vcs.iter() {
                            assert_ne!(
                                self.vc_owner[base + v],
                                NO_OWNER,
                                "parked injector {node} has a free candidate VC: missed wake"
                            );
                            n_cand_vcs += 1;
                        }
                    }
                    assert_eq!(self.inj_watches[node].len(), n_cand_vcs);
                    if !self.fault_mode {
                        assert!(
                            self.inj_cand_valid[node],
                            "parked injector without frozen candidates"
                        );
                        let flat: Vec<u32> = cand
                            .iter()
                            .flat_map(|c| {
                                let base = c.channel.idx() * vcs_per;
                                c.vcs.iter().map(move |v| (base + v) as u32)
                            })
                            .collect();
                        assert_eq!(
                            self.inj_cand_cache[node], flat,
                            "frozen injector candidate set diverged from recompute"
                        );
                    }
                }
            }
        }

        // Channel activity: any VC a flit could move into next cycle sits
        // on an active channel.
        let depth = self.cfg.buffer_depth as u16;
        for (v, &owner) in self.vc_owner.iter().enumerate() {
            if owner == NO_OWNER || self.vc_occ[v] >= depth {
                continue;
            }
            let feed = self.vc_feed[v];
            let fed = if feed == FROM_SOURCE {
                self.msg_uninjected[owner as usize] > 0
            } else {
                self.vc_occ[feed as usize] >= 1
            };
            if fed {
                let ch = v / vcs_per;
                assert!(
                    self.chan_words[ch >> 6] >> (ch & 63) & 1 == 1,
                    "movable VC {v} on a dormant channel: missed transfer"
                );
            }
        }
        // The scan side is idle between steps.
        assert!(self.chan_scan.iter().all(|&w| w == 0));

        // Dirty-mark discipline: every occupancy that diverged from the
        // `occ_start` snapshot carries a mark (no missed patch).
        for (v, &occ) in self.vc_occ.iter().enumerate() {
            if self.occ_dirty_words[v >> 6] >> (v & 63) & 1 == 0 {
                assert_eq!(
                    self.occ_start[v], occ,
                    "VC {v} occupancy diverged from occ_start without a dirty mark"
                );
            }
        }

        // Drain list back-map and cached heads.
        assert_eq!(self.drain_list.len(), self.drain_head.len());
        for (i, &slot) in self.drain_list.iter().enumerate() {
            assert_eq!(self.drain_idx[slot as usize], i as u32);
            let msg = self.messages[slot as usize].as_ref().unwrap();
            assert_ne!(msg.phase, MsgPhase::Routing);
            assert_eq!(
                msg.chain.back(),
                Some(&self.drain_head[i]),
                "stale cached drain head for slot {slot}"
            );
        }

        // Release work queue fully drained between steps; only deferred
        // visits (injection completed within the injection cycle) carry
        // over, and the flags mark exactly those slots.
        assert!(self.release_check.is_empty());
        for (s, &f) in self.release_flag.iter().enumerate() {
            assert_eq!(
                f,
                self.release_deferred.contains(&(s as u32)),
                "release_flag[{s}] inconsistent with release_deferred"
            );
        }
        for &slot in &self.release_deferred {
            let msg = self.messages[slot as usize]
                .as_ref()
                .expect("deferred slot live");
            assert_eq!(self.msg_uninjected[slot as usize], 0);
            assert!(msg.holds_injection);
            assert_eq!(msg.injected_at + 1, self.cycle);
        }
    }
}

/// Merges id-sorted `add` into the id-sorted `queue` (two-pointer merge
/// through `scratch`); `add` is left untouched.
fn merge_sorted_by_id(queue: &mut Vec<u32>, add: &[u32], scratch: &mut Vec<u32>, slot_id: &[u64]) {
    let id_of = |s: u32| slot_id[s as usize];
    scratch.clear();
    let (mut a, mut w) = (0usize, 0usize);
    while a < queue.len() && w < add.len() {
        if id_of(queue[a]) <= id_of(add[w]) {
            scratch.push(queue[a]);
            a += 1;
        } else {
            scratch.push(add[w]);
            w += 1;
        }
    }
    scratch.extend_from_slice(&queue[a..]);
    scratch.extend_from_slice(&add[w..]);
    std::mem::swap(queue, scratch);
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

/// Mutable borrow bundle over the per-VC hot-state vectors, split out of
/// `Network` so `acquire_vc` can run while a message is borrowed from the
/// slab.
struct VcState<'a> {
    owner: &'a mut [u32],
    seq: &'a mut [u32],
    feed: &'a mut [u32],
    next: &'a mut [u32],
    owned_per_channel: &'a mut [u16],
}

/// Grants `vc_idx` to `msg` and updates selection-policy / dateline state,
/// including the feed/next chain-link caches.
fn acquire_vc(
    vc: VcState<'_>,
    topo: &KAryNCube,
    vcs_per: usize,
    msg: &mut Message,
    vc_idx: u32,
    slot: u32,
) {
    let i = vc_idx as usize;
    debug_assert_eq!(vc.owner[i], NO_OWNER);
    vc.owner[i] = slot;
    vc.seq[i] = msg.next_seq;
    // Link the new head into the feed chain: it is fed by the old head,
    // or straight from the source when it starts the chain.
    match msg.chain.back() {
        Some(&h) => {
            vc.feed[i] = h;
            vc.next[h as usize] = vc_idx;
        }
        None => vc.feed[i] = FROM_SOURCE,
    }
    vc.next[i] = NO_OWNER;
    let owned_per_channel = vc.owned_per_channel;
    msg.chain.push_back(vc_idx);
    msg.next_seq += 1;
    let ch = ChannelId(vc_idx / vcs_per as u32);
    owned_per_channel[ch.idx()] += 1;
    let info = topo.channel(ch);
    msg.last_dim = Some(info.dim);
    if topo.is_wraparound(ch) {
        msg.crossed |= 1 << info.dim;
    }
    // A hop that does not reduce the distance to the destination spends
    // misroute budget (non-minimal relations only ever offer such hops
    // while budget remains).
    if topo.distance(info.dst, msg.dst) >= topo.distance(info.src, msg.dst) {
        msg.misroutes = msg.misroutes.saturating_add(1);
    }
    msg.blocked = false;
    msg.blocked_since = None;
}

/// `VecDeque::make_contiguous` needs `&mut`; for the read-only invariant
/// checker we just collect when the deque wraps.
trait MakeContiguousRef {
    fn make_contiguous_ref(&self) -> Vec<u32>;
}

impl MakeContiguousRef for VecDeque<u32> {
    fn make_contiguous_ref(&self) -> Vec<u32> {
        self.iter().copied().collect()
    }
}
