//! Transfer: one flit per physical link per cycle, plus the ejection and
//! recovery drains.

use icn_topology::ChannelId;

use super::{Network, VcOcc, NO_OWNER};
use crate::events::StepEvents;
use crate::message::MsgPhase;

/// The `V` of [`Network::fused_transfer`] that reads the VC count from the
/// configuration instead of fixing it at compile time.
const ANY_VCS: usize = 0;

/// Whether VC `v` can take a flit this cycle: room in its start-of-cycle
/// buffer, and a flit in its feed's — the chain predecessor's snapshot,
/// the owner's live source entry, or the always-zero free entry.
///
/// Both loads are made (`feed` is always in range) and joined with `&`:
/// at saturation the answer is near a coin flip, and a mispredicted `&&`
/// costs more than the load it skips.
#[inline(always)]
fn movable(occ: &[VcOcc], v: usize, depth: u16) -> bool {
    let o = occ[v];
    (o.start < depth) & (occ[o.feed as usize].start >= 1)
}

/// The `V = 2` round-robin pick: the offset of the first movable VC from
/// `start`, or `None`. The offset is a select, so the only branch left is
/// the no-move exit.
#[inline(always)]
fn pick2(occ: &[VcOcc], base: usize, start: usize, depth: u16) -> Option<usize> {
    let first = movable(occ, base + start, depth);
    let second = movable(occ, base + (start ^ 1), depth);
    (first | second).then_some(start ^ usize::from(!first))
}

impl Network {
    /// Dense transfer. Its link loop visits every channel in index order
    /// and takes a source move's message from `vc_owner` — the reference
    /// for the [`fused_transfer`](Self::fused_transfer) walk's active set
    /// and source-entry arithmetic. Both read the chain through the feeds,
    /// which [`check_invariants`](Self::check_invariants) audits against
    /// `vc_next`.
    pub(super) fn reference_transfer(&mut self, events: &mut StepEvents) {
        // Snapshot start-of-cycle occupancies: every decision below reads
        // these, so a flit advances at most one hop per cycle and buffer
        // space freed this cycle is only visible next cycle. The free and
        // source entries past the VC range are not snapshots.
        let nv = self.num_vcs();
        for o in &mut self.occ[..nv] {
            o.start = o.now;
        }
        let vcs_per = self.cfg.vcs_per_channel;
        let depth = self.cfg.buffer_depth as u16;

        // Link transfers: at most one flit per physical channel per cycle.
        for ch in 0..self.topo.num_channels() {
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
                if owner == NO_OWNER || self.occ[v].start >= depth {
                    continue;
                }
                let prev = self.occ[v].feed as usize;
                let moved = if prev > nv {
                    // Tail-most owned VC: flits arrive from the source.
                    let u = &mut self.msg_uninjected[owner as usize];
                    if *u > 0 {
                        *u -= 1;
                        if *u == 0 {
                            let src = self.source_entry(owner);
                            self.occ[src].start = 0;
                        }
                        true
                    } else {
                        false
                    }
                } else if self.occ[prev].start >= 1 {
                    self.occ[prev].now -= 1;
                    true
                } else {
                    false
                };
                if moved {
                    self.occ[v].now += 1;
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
            let head = msg.head;
            debug_assert_ne!(head, NO_OWNER, "draining message still owns its head VC");
            let drain_node = self.topo.channel(ChannelId(head / vcs_per as u32)).dst;
            if self.occ[head as usize].start < 1 || self.frozen(drain_node.idx(), false) {
                // Starved head, or the draining router is frozen.
                continue;
            }
            self.occ[head as usize].now -= 1;
            self.messages[slot as usize].as_mut().unwrap().delivered += 1;
            events.drained_flits += 1;
        }
    }

    /// Activity transfer: only channels in the active bitset are examined,
    /// and the occupancy snapshots are patched from the dirty bitset
    /// instead of copied.
    pub(super) fn activity_transfer(&mut self, events: &mut StepEvents) {
        // Lazy snapshot sync: occupancies change only during a transfer
        // and every change is logged, so patching the dirty words is
        // exactly the dense stepper's full copy. The word array is tiny
        // (one u64 per 64 VCs), so every word is visited unconditionally.
        {
            let Self {
                occ_dirty_words,
                occ,
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
                    let o = &mut occ[base + word.trailing_zeros() as usize];
                    o.start = o.now;
                    word &= word - 1;
                }
            }
        }
        let depth = self.cfg.buffer_depth as u16;

        // Swap the accumulated active set into the scan side: activations
        // made while walking (occupancy triggers) land in the now-empty
        // accumulating set and belong to the next cycle, while the walk
        // consumes exactly this cycle's set. The walk zeroes each word it
        // visits, so the scan side hands back an all-zero set for the next
        // swap.
        std::mem::swap(&mut self.chan_words, &mut self.chan_scan);

        // One walk, picked once: a plan is installed before the first
        // step, and the VC count is fixed at construction.
        match (self.fault_mode, self.cfg.vcs_per_channel) {
            (false, 2) => self.fused_transfer::<false, 2>(events, depth),
            (false, _) => self.fused_transfer::<false, ANY_VCS>(events, depth),
            (true, 2) => self.fused_transfer::<true, 2>(events, depth),
            (true, _) => self.fused_transfer::<true, ANY_VCS>(events, depth),
        }

        // Ejection and recovery drains: one flit per cycle per message.
        // `drain_head[k]` caches the head VC of `drain_list[k]` (fixed
        // while draining: Ejecting/Recovering messages never acquire), so
        // the starved-head case skips the message slab entirely.
        for k in 0..self.drain_list.len() {
            let head = self.drain_head[k];
            if self.occ[head as usize].start < 1 {
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
            debug_assert_eq!(msg.head, head);
            self.occ[head as usize].now -= 1;
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
    /// reach a later decision's inputs: decisions read the `start`
    /// snapshots (patched next cycle), `link_rr[ch]` (written only by
    /// channel `ch`'s own move, after its decision), the owner's source
    /// entry (read and cleared only at the owner's unique chain front,
    /// once per cycle, and set by injection before this phase) and, with
    /// `FAULTS`, `stall_until` (written only at the start of a cycle),
    /// while activations land in the accumulating bitset, not the scan
    /// side.
    ///
    /// Deciding and applying a move touch only [`Self::occ`] records (the
    /// VC's, its feed's, and the feed's feed for the release trigger): no
    /// owner, no message slab except `injected_at` when a source empties.
    ///
    /// `FAULTS` is [`Self::fault_mode`] lifted to a const so the
    /// fault-free instantiation carries no stall test; `V` is the VC count
    /// lifted the same way (2, which every `flow_*` workload runs, or
    /// [`ANY_VCS`] to read it from the configuration), so the `V = 2` walk
    /// finds a VC's channel as `v / 2` and decides a move with no branch
    /// on occupancy data but the no-move exit ([`pick2`], and a select for
    /// the successor's activation).
    fn fused_transfer<const FAULTS: bool, const V: usize>(
        &mut self,
        events: &mut StepEvents,
        depth: u16,
    ) {
        let vcs_per = if V == ANY_VCS {
            self.cfg.vcs_per_channel
        } else {
            V
        };
        let nv = self.num_vcs();
        // Destructured field borrows: indexed stores through one slice
        // provably cannot clobber another slice's header, so the pointers
        // stay in registers across the walk (through `&mut self` every
        // heap store would force header reloads).
        let Self {
            chan_scan,
            chan_words,
            link_rr,
            occ,
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
        let chan_of = |v: usize| -> usize {
            if V == ANY_VCS {
                vc_chan[v] as usize
            } else {
                v / V
            }
        };
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
                if FAULTS && cycle < stall_until[topo.channel(ChannelId(ch as u32)).src.idx()] {
                    // Frozen sender: nothing moves, but pending movement
                    // must survive the stall — keep the channel active.
                    chan_words[ch >> 6] |= 1 << (ch & 63);
                    continue;
                }
                let base = ch * vcs_per;
                let start = link_rr[ch] as usize;
                // Round-robin from `start`: the first movable VC wins.
                let pick = if V == 2 {
                    pick2(occ, base, start, depth)
                } else {
                    // `start + i < 2 * vcs_per`, so one conditional
                    // subtract replaces a hardware divide.
                    (0..vcs_per)
                        .map(|i| {
                            let off = start + i;
                            if off >= vcs_per {
                                off - vcs_per
                            } else {
                                off
                            }
                        })
                        .find(|&off| movable(occ, base + off, depth))
                };
                let Some(off) = pick else {
                    continue;
                };
                // Apply: the served link stays active (round-robin
                // fairness), the fed VC may now feed its chain successor,
                // and the drained upstream VC regained buffer space.
                let v = base + off;
                let feed = occ[v].feed as usize;
                occ[v].now += 1;
                occ_dirty_words[v >> 6] |= 1 << (v & 63);
                events.link_flits += 1;
                let next_rr = off + 1;
                link_rr[ch] = if next_rr == vcs_per { 0 } else { next_rr } as u8;
                chan_words[ch >> 6] |= 1 << (ch & 63);
                let succ = vc_next[v];
                if V == ANY_VCS {
                    // The select below measured slower on 1-VC workloads,
                    // and the branch slower on 2 VCs (DESIGN "Saturation
                    // hot path").
                    if succ != NO_OWNER {
                        let sc = chan_of(succ as usize);
                        chan_words[sc >> 6] |= 1 << (sc & 63);
                    }
                } else {
                    // The successor's channel, or `ch` (already set) at the
                    // chain's head.
                    let sc = if succ != NO_OWNER {
                        chan_of(succ as usize)
                    } else {
                        ch
                    };
                    chan_words[sc >> 6] |= 1 << (sc & 63);
                }
                if feed > nv {
                    // From the source: `feed` is the owner's source entry.
                    let owner = feed - nv - 1;
                    let u = &mut msg_uninjected[owner];
                    *u -= 1;
                    if *u == 0 {
                        occ[feed].start = 0;
                        if !release_flag[owner] {
                            release_flag[owner] = true;
                            // The injection channel frees — but the dense
                            // release phase scans the start-of-cycle active
                            // set, so a message injected *this* cycle (len
                            // 1) is only visited next cycle.
                            let injected_now =
                                messages[owner].as_ref().expect("owner live").injected_at == cycle;
                            if !injected_now {
                                release_check.push(owner as u32);
                            } else {
                                release_deferred.push(owner as u32);
                            }
                        }
                    }
                } else {
                    let p = feed;
                    occ[p].now -= 1;
                    occ_dirty_words[p >> 6] |= 1 << (p & 63);
                    let pc = chan_of(p);
                    chan_words[pc >> 6] |= 1 << (pc & 63);
                    // Tail release is possible only once the chain front
                    // drains with the source empty: a mid-chain VC
                    // emptying can release nothing. `p` is the front
                    // exactly when its feed is a source entry.
                    let pf = occ[p].feed as usize;
                    if occ[p].now == 0 && pf > nv && occ[pf].start == 0 {
                        let owner = pf - nv - 1;
                        if !release_flag[owner] {
                            release_flag[owner] = true;
                            release_check.push(owner as u32);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The round-robin rule as the dense transfer states it: the first VC
    /// from `start` with room in its buffer and a flit in its feed.
    fn pick_by_loop(occ: &[VcOcc], base: usize, start: usize, depth: u16) -> Option<usize> {
        for i in 0..2 {
            let off = (start + i) % 2;
            let o = occ[base + off];
            if o.start < depth && occ[o.feed as usize].start >= 1 {
                return Some(off);
            }
        }
        None
    }

    #[test]
    fn pick2_is_the_round_robin_rule() {
        let mut outcomes = [0usize; 3];
        for depth in [1u16, 2, 8] {
            for start in 0..2 {
                for (s0, s1) in (0..=depth).flat_map(|a| (0..=depth).map(move |b| (a, b))) {
                    for (f0, f1) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                        // VCs at 0 and 1, fed by the entries at 2 and 3.
                        let vc = |start, feed| VcOcc {
                            now: start,
                            start,
                            feed,
                        };
                        let occ = [vc(s0, 2), vc(s1, 3), vc(f0, 0), vc(f1, 0)];
                        let got = pick2(&occ, 0, start, depth);
                        assert_eq!(
                            got,
                            pick_by_loop(&occ, 0, start, depth),
                            "depth {depth} start {start} VCs {s0}/{s1} feeds {f0}/{f1}"
                        );
                        outcomes[got.unwrap_or(2)] += 1;
                    }
                }
            }
        }
        // Every outcome, "neither movable" included, was reached.
        assert!(outcomes.iter().all(|&n| n > 0), "{outcomes:?}");
    }
}
