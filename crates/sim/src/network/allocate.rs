//! Allocation: in-flight headers acquire their next VC, or a reception
//! channel at the destination, oldest message first (age priority).

use icn_topology::{ChannelId, NodeId};

use super::wake::AllocState;
use super::{ctx_of, Network, Scan, NO_OWNER};
use crate::message::MsgPhase;

/// Outcome of one header's [`Network::next_hop`] attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum HopOutcome {
    /// Header flit still in flight, or the router is stalled: re-attempt
    /// next cycle.
    Wait,
    /// Acquired VC `vc` as the new head.
    Acquired(u32),
    /// Claimed a reception channel and started ejecting.
    Ejecting,
    /// Every reception channel of the destination `here` is owned.
    ReceptionBusy(NodeId),
    /// Every candidate VC is owned; the frozen candidate list is valid.
    Blocked,
}

impl Network {
    /// Dense allocation: every routing message, in age order.
    pub(super) fn reference_next_hops(&mut self) {
        for i in 0..self.step_order.len() {
            let slot = self.step_order[i];
            if self.messages[slot as usize]
                .as_ref()
                .expect("active slot")
                .phase
                == MsgPhase::Routing
            {
                self.next_hop(slot);
            }
        }
    }

    /// Activity allocation, routing half: attempt every runnable message
    /// in id order, compacting parked / inactive entries out of the queue.
    pub(super) fn activity_next_hops(&mut self) {
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

    /// One message's [`next_hop`](Self::next_hop), plus the activity
    /// engine's scheduling of its outcome: channel activation, the drain
    /// list, or parking. Returns whether the message stays runnable.
    ///
    /// Kept out of line: with one caller the compiler folds this 4 KB body
    /// into `step`'s allocation loop, which measured 3.5 % slower at
    /// saturation (`flow_sat`, 9 of 10 paired runs).
    #[inline(never)]
    fn attempt_next_hop(&mut self, slot: u32) -> bool {
        match self.next_hop(slot) {
            HopOutcome::Wait => true,
            HopOutcome::Acquired(vc) => {
                // The new head may carry a flit this very cycle.
                self.activate_channel(self.vc_chan[vc as usize] as usize);
                true
            }
            HopOutcome::Ejecting => {
                self.alloc_state[slot as usize] = AllocState::Inactive;
                self.drain_push(slot);
                false
            }
            HopOutcome::ReceptionBusy(here) => {
                self.alloc_state[slot as usize] = AllocState::Parked;
                self.watch(self.slot_waiter(slot), (self.num_vcs() + here.idx()) as u32);
                false
            }
            HopOutcome::Blocked => {
                self.alloc_state[slot as usize] = AllocState::Parked;
                self.park_on_cached(self.slot_waiter(slot));
                false
            }
        }
    }

    /// One routing message's next-hop attempt, shared by both steppers:
    /// the reception claim or the candidate scan (frozen list, or the
    /// routing relation, freezing its result on failure), block/unblock
    /// accounting, `wait_dirty` marks, traces and stranding. Inlined into
    /// both callers, so the activity path stays the one out-of-line
    /// `attempt_next_hop` body measured above.
    #[inline(always)]
    fn next_hop(&mut self, slot: u32) -> HopOutcome {
        let s = slot as usize;
        let msg = self.messages[s].as_ref().expect("routing slot");
        debug_assert_eq!(msg.phase, MsgPhase::Routing);
        let (head_vc, dst) = (msg.head, msg.dst);
        debug_assert_ne!(head_vc, NO_OWNER, "routing message owns its head VC");
        if self.occ[head_vc as usize].now == 0 {
            // Header flit still in flight towards this buffer.
            debug_assert!(!msg.blocked, "blocked header always has a buffered flit");
            return HopOutcome::Wait;
        }
        let here = self
            .topo
            .channel(ChannelId(self.vc_chan[head_vc as usize]))
            .dst;
        if self.frozen(here.idx(), false) {
            // Frozen router: no allocation is performed at this node.
            return HopOutcome::Wait;
        }

        if here == dst {
            if self.reception[here.idx()] != NO_OWNER {
                // Waiting on the destination's reception channel, not on
                // any link.
                self.mark_blocked(s, here, false);
                return HopOutcome::ReceptionBusy(here);
            }
            self.reception[here.idx()] = slot;
            let msg = self.messages[s].as_mut().expect("routing slot");
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
            return HopOutcome::Ejecting;
        }

        let w = self.slot_waiter(slot) as usize;
        let msg = self.messages[s].as_ref().expect("routing slot");
        // Frozen candidates: since the header blocked, nothing the routing
        // relation reads changed (header position and policy state are
        // frozen, and link transitions invalidate).
        debug_assert!(
            !self.cand_cache_valid[w] || msg.blocked,
            "frozen candidates imply a blocked episode"
        );
        let (id, was_blocked) = (msg.id, msg.blocked);
        let vc_idx = match self.scan_candidates(w, &ctx_of(msg, here)) {
            Scan::Free(v) => v,
            scan => {
                if scan == Scan::Unroutable {
                    // Resolved (dropped, or spared by a LinkUp) at the start
                    // of the next cycle, identically in both steppers.
                    self.stranded.push((slot, id));
                }
                self.mark_blocked(s, here, true);
                return HopOutcome::Blocked;
            }
        };
        if was_blocked {
            self.blocked_ctr -= 1;
            self.wait_dirty.mark(id);
        }
        self.acquire_vc(slot, vc_idx);
        HopOutcome::Acquired(vc_idx)
    }

    /// Flags slot `s`'s header blocked at `here`, once per blocked episode;
    /// the trace names the candidate channels in `cand_buf` when it waits
    /// on links. Inlined: a woken header that fails again is already
    /// blocked, and at saturation that early return is the common case.
    #[inline(always)]
    fn mark_blocked(&mut self, s: usize, here: NodeId, on_links: bool) {
        let msg = self.messages[s].as_mut().expect("routing slot");
        if msg.blocked {
            return;
        }
        msg.blocked = true;
        msg.blocked_since = Some(self.cycle);
        self.blocked_ctr += 1;
        self.wait_dirty.mark(msg.id);
        if let Some(t) = self.tracer.as_mut() {
            let candidates = if on_links {
                self.cand_buf.iter().map(|c| c.channel).collect()
            } else {
                Vec::new()
            };
            t.push(crate::TraceEvent::Blocked {
                cycle: self.cycle,
                id: msg.id,
                at: here,
                candidates,
            });
        }
    }

    /// Grants `vc_idx` to the message in `slot` (both steppers, injection
    /// included): ownership, the chain's feed/next links,
    /// selection-policy / dateline / misroute state, and the `Acquired`
    /// trace. The geometry it consults (wraparound flag, one-dimension
    /// misroute test) is read from the topology's tables.
    pub(super) fn acquire_vc(&mut self, slot: u32, vc_idx: u32) {
        let src = self.source_entry(slot) as u32;
        let msg = self.messages[slot as usize]
            .as_mut()
            .expect("acquiring slot");
        let i = vc_idx as usize;
        debug_assert_eq!(self.vc_owner[i], NO_OWNER);
        self.vc_owner[i] = slot;
        // Link the new head into the chain: it is fed by the old head, or
        // by its source entry when it starts the chain.
        self.occ[i].feed = if msg.head == NO_OWNER {
            msg.front = vc_idx;
            src
        } else {
            self.vc_next[msg.head as usize] = vc_idx;
            msg.head
        };
        self.vc_next[i] = NO_OWNER;
        msg.head = vc_idx;
        msg.chain_len += 1;
        msg.next_seq += 1;
        let ch = ChannelId(self.vc_chan[i]);
        let topo = &self.topo;
        let info = topo.channel(ch);
        msg.last_dim = Some(info.dim);
        if topo.is_wraparound(ch) {
            msg.crossed |= 1 << info.dim;
        }
        // A hop that does not reduce the distance to the destination spends
        // misroute budget (non-minimal relations only ever offer such hops
        // while budget remains). Table reads on the hop's own dimension.
        if topo.is_misroute(ch, msg.dst) {
            msg.misroutes = msg.misroutes.saturating_add(1);
        }
        msg.blocked = false;
        msg.blocked_since = None;
        if let Some(t) = self.tracer.as_mut() {
            t.push(crate::TraceEvent::Acquired {
                cycle: self.cycle,
                id: msg.id,
                channel: ch,
                vc: (i % self.cfg.vcs_per_channel) as u8,
            });
        }
    }
}
