//! Fault plan application: link transitions, stalls, stranding and drops,
//! all at the start of a cycle, identically in both steppers.

use icn_topology::ChannelId;

use super::wake::{AllocState, InjState};
use super::{compute_candidates, ctx_of, Network, NO_OWNER};
use crate::events::StepEvents;
use crate::faults::{FaultKind, FaultPlan};
use crate::message::MsgPhase;

impl Network {
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

    /// Whether `node` is frozen this cycle: its router by a `NodeStall`,
    /// or — for `injection` — its injector by an `InjectorDown` too. The
    /// one stall test of every phase but the const-`FAULTS` transfer walk.
    #[inline]
    pub(super) fn frozen(&self, node: usize, injection: bool) -> bool {
        self.fault_mode
            && (self.cycle < self.stall_until[node]
                || injection && self.cycle < self.inj_down_until[node])
    }

    /// Applies every fault event due this cycle, then resolves messages
    /// recorded as stranded last cycle. Runs at the very start of a cycle
    /// in both steppers, before any phase, so drops and wakes are visible
    /// to the whole cycle identically.
    pub(super) fn apply_due_faults(&mut self, events: &mut StepEvents) {
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

    /// Channel `ch` flips to `down`. Every routing candidate set may have
    /// changed, so every frozen candidate list is invalidated and every
    /// blocked wait record is re-extracted at the next drain. These two
    /// transitions are the only writers of `failed`.
    fn set_failed(&mut self, ch: usize, down: bool) {
        self.failed[ch] = down;
        self.cand_cache_valid.fill(false);
        self.wait_dirty_all = true;
    }

    /// Channel goes down: it leaves every candidate set (the shared
    /// `compute_candidates` filter) and every message holding one of its
    /// VCs is dropped, oldest first.
    fn apply_link_down(&mut self, ch: usize, events: &mut StepEvents) {
        if self.failed[ch] {
            return;
        }
        self.set_failed(ch, true);
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
    /// acquired), so only parked waiters need wakes: anything that may now
    /// route over the channel gets one conservative re-attempt (a spurious
    /// wake is harmless — the attempt just re-parks). A dense instance has
    /// none.
    fn apply_link_up(&mut self, ch: usize) {
        if !self.failed[ch] {
            return;
        }
        self.set_failed(ch, false);
        let src = self.topo.channel(ChannelId(ch as u32)).src;
        // Parked routing messages whose header sits at the channel's
        // source, and a parked injector there: their candidate sets may
        // have grown back.
        let mut woke: Vec<u32> = Vec::new();
        for &slot in &self.active {
            if self.alloc_state[slot as usize] != AllocState::Parked {
                continue;
            }
            let msg = self.messages[slot as usize].as_ref().expect("active slot");
            if self
                .topo
                .channel(ChannelId(self.vc_chan[msg.head as usize]))
                .dst
                == src
            {
                woke.push(self.slot_waiter(slot));
            }
        }
        if self.inj_state[src.idx()] == InjState::Parked {
            woke.push(src.idx() as u32);
        }
        for waiter in woke {
            self.requeue(waiter);
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
            let ctx = match self.messages.get(slot as usize).and_then(|m| m.as_ref()) {
                Some(msg) if msg.id == id && msg.phase == MsgPhase::Routing => ctx_of(
                    msg,
                    self.topo
                        .channel(ChannelId(self.vc_chan[msg.head as usize]))
                        .dst,
                ),
                _ => continue,
            };
            compute_candidates(
                &self.topo,
                &*self.routing,
                self.cfg.vcs_per_channel,
                &self.failed,
                &ctx,
                &mut self.cand_buf,
            );
            if self.cand_buf.is_empty() {
                self.drop_message(slot, events);
            } else if self.alloc_state[slot as usize] == AllocState::Parked {
                self.requeue(self.slot_waiter(slot));
            }
        }
        stranded.clear();
        self.stranded = stranded;
    }

    /// Removes an active message hit by a fault: every held resource is
    /// freed (with wakes), stale scheduler entries are purged, and the
    /// loss is counted and traced. Nothing is delivered.
    fn drop_message(&mut self, slot: u32, events: &mut StepEvents) {
        let s = slot as usize;
        self.unpark(self.slot_waiter(slot));
        // The slot may be recycled by an injection later this very cycle:
        // no runnable or release entry may survive pointing at it.
        self.alloc_queue.retain(|&x| x != slot);
        self.woken.retain(|&x| x != slot);
        if self.release_flag[s] {
            self.release_flag[s] = false;
            self.release_check.retain(|&x| x != slot);
            self.release_deferred.retain(|&x| x != slot);
        }
        let msg = self.messages[s].as_mut().expect("dropped slot live");
        let (id, mut v) = (msg.id, msg.front);
        (msg.front, msg.head, msg.chain_len) = (NO_OWNER, NO_OWNER, 0);
        if std::mem::take(&mut msg.blocked) {
            self.blocked_ctr -= 1;
        }
        msg.blocked_since = None;
        self.wait_dirty.mark(id);
        if std::mem::take(&mut msg.holds_injection) {
            let node = msg.src.idx();
            self.injecting[node] = false;
            self.ready_injector(node);
        }
        // Free the chain front to head, reading each link before clearing it.
        while v != NO_OWNER {
            let i = v as usize;
            debug_assert_eq!(self.vc_owner[i], slot);
            let next = self.vc_next[i];
            self.vc_owner[i] = NO_OWNER;
            self.occ[i].now = 0;
            self.occ[i].feed = self.num_vcs() as u32;
            self.vc_next[i] = NO_OWNER;
            self.mark_occ_dirty(v);
            self.wake_resource(v);
            v = next;
        }
        if let Some(t) = self.tracer.as_mut() {
            t.push(crate::TraceEvent::FaultLoss {
                cycle: self.cycle,
                id,
            });
        }
        events.fault_losses += 1;
        self.total_fault_losses += 1;
        self.finish_slot(slot);
    }
}
