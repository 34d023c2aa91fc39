//! Transfer: one flit per physical link per cycle, plus the ejection and
//! recovery drains.

use icn_topology::ChannelId;

use super::{Network, FROM_SOURCE, NO_OWNER};
use crate::events::StepEvents;
use crate::message::MsgPhase;

impl Network {
    /// Dense transfer. Its link loop reads each owner's chain from the
    /// message slab — the independent reference for the SoA
    /// [`fused_transfer`](Self::fused_transfer) walk, which reads only the
    /// `vc_feed` / `vc_next` mirrors.
    pub(super) fn reference_transfer(&mut self, events: &mut StepEvents) {
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
            if self.frozen(self.topo.channel(ChannelId(ch as u32)).src.idx(), false) {
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
            let msg = self.messages[slot as usize].as_ref().expect("active slot");
            if msg.phase == MsgPhase::Routing {
                continue;
            }
            let &head = msg
                .chain
                .back()
                .expect("draining message still owns its head VC");
            let drain_node = self.topo.channel(ChannelId(head / vcs_per as u32)).dst;
            if self.occ_start[head as usize] < 1 || self.frozen(drain_node.idx(), false) {
                // Starved head, or the draining router is frozen.
                continue;
            }
            self.vc_occ[head as usize] -= 1;
            self.messages[slot as usize].as_mut().unwrap().delivered += 1;
            events.drained_flits += 1;
        }
    }

    /// Activity transfer: only channels in the active bitset are examined,
    /// and `occ_start` is patched from the dirty bitset instead of copied.
    pub(super) fn activity_transfer(&mut self, events: &mut StepEvents) {
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

        // One walk, picked once: a plan is installed before the first step.
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
            if self.occ_start[head as usize] < 1 {
                continue;
            }
            // The draining router is frozen. (Tested under a plan only: the
            // node lookup would cost every drained flit of a fault-free run.)
            if self.fault_mode {
                let drain_node = self.topo.channel(ChannelId(self.vc_chan[head as usize]));
                if self.frozen(drain_node.dst.idx(), false) {
                    continue;
                }
            }
            let slot = self.drain_list[k];
            let msg = self.messages[slot as usize].as_mut().expect("drain slot");
            debug_assert_ne!(msg.phase, MsgPhase::Routing);
            debug_assert_eq!(msg.chain.back(), Some(&head));
            self.vc_occ[head as usize] -= 1;
            msg.delivered += 1;
            events.drained_flits += 1;
            let done = msg.delivered == msg.len;
            self.mark_occ_dirty(head);
            self.activate_channel(self.vc_chan[head as usize] as usize);
            // A drained flit enables only retirement: a head emptying
            // behind other owned VCs releases nothing, and a head that is
            // the chain front, emptied with the source empty, has just
            // delivered the last flit.
            if done {
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
                        // Tail release is possible only once the chain
                        // front drains with the source empty: a mid-chain
                        // VC emptying can release nothing.
                        if vc_occ[p] == 0
                            && vc_feed[p] == FROM_SOURCE
                            && msg_uninjected[owner as usize] == 0
                            && !release_flag[owner as usize]
                        {
                            release_flag[owner as usize] = true;
                            release_check.push(owner);
                        }
                    }
                    break;
                }
            }
        }
    }
}
