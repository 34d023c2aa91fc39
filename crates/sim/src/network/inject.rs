//! Injection: source-queue fronts acquire their first VC. The front of
//! node `n`'s queue is waiter `n`: it scans (or freezes) its candidates
//! and parks exactly as a blocked header does, and differs only in
//! rejecting, at the source, a front whose first hop is unroutable.

use icn_routing::RoutingCtx;
use icn_topology::NodeId;

use super::wake::{AllocState, InjState};
use super::{Network, Pending, Scan, VcOcc, NO_OWNER};
use crate::events::StepEvents;
use crate::message::{Message, MsgPhase};

/// Outcome of one injection attempt at a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum InjectOutcome {
    /// Queue front acquired a first VC (`vc`) as message slot `slot` and
    /// left the queue.
    Injected { slot: u32, vc: u32 },
    /// Nothing queued at this node.
    EmptyQueue,
    /// Every candidate VC for the queue front is owned; the candidates are
    /// frozen at waiter `node` so the activity engine can park on them.
    NoFreeVc,
    /// The queue front's fault-filtered candidate set is empty — its first
    /// hop is unroutable under the active fault set — so it was popped and
    /// counted as rejected. Only possible with a fault plan installed.
    Rejected,
}

impl Network {
    /// Dense injection: every node, in ascending order. Source-queue heads
    /// try to acquire their first VC (which implicitly claims the node's
    /// injection channel).
    pub(super) fn reference_injections(&mut self, events: &mut StepEvents) {
        for node in 0..self.topo.num_nodes() {
            if self.frozen(node, true) {
                // Router stall or injector outage: nothing enters here.
                continue;
            }
            // Attempt until the injection channel is taken or the queue
            // front cannot move.
            while !self.injecting[node] {
                match self.try_inject_one(node, events) {
                    // A rejected front frees no resource and pops the
                    // queue, so the next front gets its attempt.
                    InjectOutcome::Injected { .. } | InjectOutcome::Rejected => {}
                    InjectOutcome::EmptyQueue | InjectOutcome::NoFreeVc => break,
                }
            }
        }
    }

    /// Attempts to start the queue-front message at `node` (shared by both
    /// steppers). On [`InjectOutcome::NoFreeVc`] the message stays queued
    /// holding nothing, with its candidates frozen.
    fn try_inject_one(&mut self, node: usize, events: &mut StepEvents) -> InjectOutcome {
        let Some(&Pending { dst, born, len }) = self.source_q[node].front() else {
            return InjectOutcome::EmptyQueue;
        };
        let src = NodeId(node as u32);
        let vc_idx = match self.scan_candidates(node, &RoutingCtx::fresh(src, dst, src)) {
            Scan::Free(v) => v,
            Scan::Busy => return InjectOutcome::NoFreeVc,
            Scan::Unroutable => {
                // First hop unroutable under the active fault set: reject at
                // the source (counted; the message never enters the network),
                // and unfreeze, since the next queue front is another message.
                self.cand_cache_valid[node] = false;
                self.source_q[node].pop_front();
                self.total_fault_rejected += 1;
                events.fault_rejected += 1;
                return InjectOutcome::Rejected;
            }
        };
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
        self.messages[slot as usize] = Some(Message {
            id,
            src,
            dst,
            len,
            born,
            injected_at: self.cycle,
            front: NO_OWNER,
            head: NO_OWNER,
            chain_len: 0,
            next_seq: 0,
            delivered: 0,
            phase: MsgPhase::Routing,
            blocked: false,
            blocked_since: None,
            last_dim: None,
            crossed: 0,
            misroutes: 0,
            holds_injection: true,
        });
        if let Some(t) = self.tracer.as_mut() {
            t.push(crate::TraceEvent::Injected {
                cycle: self.cycle,
                id,
                src,
                dst,
                len,
            });
        }
        self.acquire_vc(slot, vc_idx);
        self.id_map.push(id, slot);
        self.injecting[node] = true;
        if self.active_idx.len() <= slot as usize {
            let n = slot as usize + 1;
            self.active_idx.resize(n, NO_OWNER);
            self.alloc_state.resize(n, AllocState::Inactive);
            self.drain_idx.resize(n, NO_OWNER);
            self.release_flag.resize(n, false);
            self.msg_uninjected.resize(n, 0);
            let nv = self.num_vcs();
            self.occ.resize(nv + 1 + n, VcOcc::free(nv));
            self.slot_id.resize(n, 0);
            let waiters = self.topo.num_nodes() + n;
            self.watches.resize_with(waiters, Vec::new);
            self.cand_cache.resize_with(waiters, Vec::new);
            self.cand_cache_valid.resize(waiters, false);
        }
        // A recycled slot may carry a stale frozen candidate set from
        // its previous occupant (e.g. one pulled into recovery while
        // blocked); the new message must start uncached.
        let w = self.slot_waiter(slot) as usize;
        self.cand_cache_valid[w] = false;
        self.msg_uninjected[slot as usize] = len;
        let src = self.source_entry(slot);
        self.occ[src].start = 1;
        self.slot_id[slot as usize] = id;
        self.active_idx[slot as usize] = self.active.len() as u32;
        self.active.push(slot);
        self.total_injected += 1;
        events.injected += 1;
        InjectOutcome::Injected { slot, vc: vc_idx }
    }

    /// Activity allocation, injection half: only ready nodes attempt, in
    /// ascending node order (the dense scan's order).
    pub(super) fn activity_injections(&mut self, events: &mut StepEvents) {
        if self.inj_ready.is_empty() {
            return;
        }
        let mut ready = std::mem::take(&mut self.inj_ready);
        ready.sort_unstable();
        let mut deferred: Vec<u32> = Vec::new();
        for &node in &ready {
            debug_assert_eq!(self.inj_state[node as usize], InjState::Ready);
            if self.frozen(node as usize, true) {
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
            if self.injecting[n] {
                self.inj_state[n] = InjState::Idle;
                return;
            }
            match self.try_inject_one(n, events) {
                InjectOutcome::Injected { slot, vc } => {
                    // The new message is runnable (a same-cycle no-op: its
                    // head VC fills only during this cycle's transfer), and
                    // its freshly acquired VC may carry a flit this cycle.
                    // Appending keeps the queue id-sorted (ids are monotone).
                    self.alloc_state[slot as usize] = AllocState::Queued;
                    self.alloc_queue.push(slot);
                    self.activate_channel(self.vc_chan[vc as usize] as usize);
                }
                InjectOutcome::Rejected => {}
                InjectOutcome::EmptyQueue => {
                    self.inj_state[n] = InjState::Idle;
                    return;
                }
                InjectOutcome::NoFreeVc => {
                    self.inj_state[n] = InjState::Parked;
                    self.park_on_cached(node);
                    return;
                }
            }
        }
    }
}
