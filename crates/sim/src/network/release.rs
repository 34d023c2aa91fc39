//! Release and completion: injection channels and tail VCs are freed,
//! delivered messages retire; plus the recovery lane's entry point.

use super::wake::AllocState;
use super::{Network, NO_OWNER};
use crate::events::{DeliveredMsg, StepEvents};
use crate::message::{MessageId, MsgPhase};

impl Network {
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
        // Pull the message out of the allocation machinery and onto the
        // drain list. A `Queued` entry stays in `alloc_queue` / `woken`
        // and is dropped by the state check at the next pass, before the
        // slot can ever be recycled.
        if self.alloc_state[slot as usize] == AllocState::Parked {
            self.unpark(self.slot_waiter(slot));
        }
        self.alloc_state[slot as usize] = AllocState::Inactive;
        self.drain_push(slot);
        true
    }

    /// Retires `slot`: unlinks it from the active list in O(1)
    /// (swap-remove through the slot → index back-map), recycles its
    /// storage, and frees its reception channel if it was ejecting, waking
    /// that channel's waiters.
    pub(super) fn finish_slot(&mut self, slot: u32) {
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
        self.alloc_state[slot as usize] = AllocState::Inactive;
        debug_assert!(self.watches[self.slot_waiter(slot) as usize].is_empty());
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
        if msg.phase == MsgPhase::Ejecting {
            debug_assert_eq!(self.reception[msg.dst.idx()], slot);
            self.reception[msg.dst.idx()] = NO_OWNER;
            self.wake_resource((self.num_vcs() + msg.dst.idx()) as u32);
        }
    }

    /// Dense release: every message active at the start of the cycle, in
    /// age order.
    pub(super) fn reference_release(&mut self, events: &mut StepEvents) {
        for i in 0..self.step_order.len() {
            self.release_one(self.step_order[i], events);
        }
    }

    /// Activity release: visit only the messages a transfer-phase trigger
    /// marked, oldest first. The triggers are exact — injection completed
    /// (`uninjected` hit zero), the chain front drained with the source
    /// empty, or the last flit delivered — so every visit acts, which a
    /// debug assertion checks.
    pub(super) fn activity_release(&mut self, events: &mut StepEvents) {
        if self.release_check.is_empty() {
            return;
        }
        let mut check = std::mem::take(&mut self.release_check);
        let slot_id = &self.slot_id;
        check.sort_unstable_by_key(|&s| slot_id[s as usize]);
        for &slot in &check {
            self.release_flag[slot as usize] = false;
            #[cfg(debug_assertions)]
            let before = self.release_footprint(slot);
            self.release_one(slot, events);
            #[cfg(debug_assertions)]
            assert_ne!(
                self.release_footprint(slot),
                before,
                "release visit of slot {slot} freed nothing and did not retire: \
                 a trigger fired that cannot enable a release"
            );
        }
        check.clear();
        self.release_check = check;
    }

    /// What a release action changes: `None` once the slot retired, else
    /// (holds its injection channel, owned VC count).
    #[cfg(debug_assertions)]
    fn release_footprint(&self, slot: u32) -> Option<(bool, u32)> {
        self.messages[slot as usize]
            .as_ref()
            .map(|m| (m.holds_injection, m.chain_len))
    }

    /// One message's release (shared by both steppers): the injection
    /// channel, tail VCs drained behind the tail, and completion — each
    /// freed resource waking its parked waiters. Inlined into both scans,
    /// as it was when the activity release was its only caller: the
    /// out-of-line copy a second caller gets, together with a per-flit
    /// drain lookup since removed, cost `flow_low` 2.3 % (0 of 10 pairs).
    #[inline(always)]
    fn release_one(&mut self, slot: u32, events: &mut StepEvents) {
        let s = slot as usize;
        // The injection channel frees once the tail leaves the source.
        let msg = self.messages[s].as_mut().expect("release slot");
        if self.msg_uninjected[s] == 0 && msg.holds_injection {
            msg.holds_injection = false;
            let node = msg.src.idx();
            self.injecting[node] = false;
            self.ready_injector(node);
        }
        // Tail release: owned VCs drain from the front of the chain; each
        // freed VC wakes its parked waiters.
        let (nv, src) = (self.num_vcs(), self.source_entry(slot));
        loop {
            let msg = self.messages[s].as_mut().expect("release slot");
            let (front, f) = (msg.front, msg.front as usize);
            if front == NO_OWNER || self.msg_uninjected[s] != 0 || self.occ[f].now != 0 {
                break;
            }
            let nf = self.vc_next[f];
            msg.front = nf;
            msg.chain_len -= 1;
            if nf == NO_OWNER {
                msg.head = NO_OWNER;
            } else {
                // The new front is fed by the (drained) source.
                self.occ[nf as usize].feed = src as u32;
            }
            if msg.blocked {
                // A blocked message's settled chain shrank.
                self.wait_dirty.mark(msg.id);
            }
            self.vc_owner[f] = NO_OWNER;
            self.occ[f].feed = nv as u32;
            self.vc_next[f] = NO_OWNER;
            self.wake_resource(front);
        }
        let msg = self.messages[s].as_ref().expect("release slot");
        if msg.delivered != msg.len {
            return;
        }
        debug_assert_eq!(msg.chain_len, 0);
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
