//! Activity engine scheduling: wake lists, ready lists, active channels.
//!
//! The activity stepper exploits three facts about the dense phases:
//!
//! * A waiter — a blocked header, or an injector whose queue front found
//!   no free VC — re-attempts without side effects, and its candidate set
//!   is frozen while it is parked (routing state only changes on
//!   acquisition, and a link transition invalidates every frozen list and
//!   wakes what it may have unblocked; all of a parked waiter's candidate
//!   VCs are owned — that is why it parked). It can therefore only become
//!   acquirable when a watched VC or reception channel is freed, which
//!   happens exclusively in the release phase (or a fault drop), where
//!   the wake fires. Both kinds share one index space — the injector of
//!   node `n` is waiter `n`, the message in slot `s` is waiter
//!   `num_nodes + s` — so one watch table and one frozen list per waiter
//!   serve both, and only [`Network::requeue`] tells them apart.
//! * Transfer decisions read only start-of-cycle occupancies, so
//!   per-channel decisions are order-independent and every movability
//!   transition is caused by an acquisition or an occupancy change —
//!   each of which re-activates the affected channel.
//! * The release actions (injection-channel free, tail release,
//!   completion) are all enabled by transfer-phase changes
//!   (`uninjected` hitting zero, the chain front's occupancy hitting zero
//!   while `uninjected` is zero, the last flit draining), so only those
//!   messages need visiting, in id order — and each such visit acts.
//!
//! A dense instance never parks or queues, so the wakes and activations
//! the shared per-message bodies raise find empty lists there.

use super::{Network, NO_OWNER};

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
pub(super) enum AllocState {
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
pub(super) enum InjState {
    Idle,
    Ready,
    Parked,
}

/// One entry on a resource's wake list: `waiter` (the injector of node
/// `n` is waiter `n`, the message in slot `s` is waiter `num_nodes + s`)
/// plus the index of this watch in the waiter's own watch table, so either
/// side can unlink the other in O(1).
#[derive(Clone, Copy, Debug)]
pub(super) struct WakeEntry {
    pub(super) waiter: u32,
    pub(super) watch_pos: u32,
}

impl Network {
    /// Records that VC `v`'s occupancy diverged from its `start` snapshot
    /// (idempotent: setting an already-set bit is a no-op, so a VC whose
    /// occupancy changes several times per cycle is patched once).
    ///
    /// Branchless on purpose: this and [`Self::activate_channel`] run
    /// several times per moved flit, and the word arrays are small enough
    /// (`n / 64` entries) that the patch/scan loops walk every word
    /// unconditionally rather than maintaining touched-word lists.
    #[inline]
    pub(super) fn mark_occ_dirty(&mut self, v: u32) {
        self.occ_dirty_words[(v >> 6) as usize] |= 1 << (v & 63);
    }

    /// Adds `ch` to the active-channel set (idempotent).
    #[inline]
    pub(super) fn activate_channel(&mut self, ch: usize) {
        self.chan_words[ch >> 6] |= 1 << (ch & 63);
    }

    /// Schedules `slot` for this cycle's release phase (idempotent).
    #[inline]
    pub(super) fn mark_release(&mut self, slot: u32) {
        if !self.release_flag[slot as usize] {
            self.release_flag[slot as usize] = true;
            self.release_check.push(slot);
        }
    }

    /// Appends `slot` to the drain list (one flit per cycle until done).
    pub(super) fn drain_push(&mut self, slot: u32) {
        debug_assert_eq!(self.drain_idx[slot as usize], NO_OWNER);
        let head = self.messages[slot as usize]
            .as_ref()
            .expect("drain slot")
            .head;
        debug_assert_ne!(head, NO_OWNER, "draining message still owns its head VC");
        self.drain_idx[slot as usize] = self.drain_list.len() as u32;
        self.drain_list.push(slot);
        self.drain_head.push(head);
    }

    /// Parks `waiter` on `resource`.
    pub(super) fn watch(&mut self, waiter: u32, resource: u32) {
        let watches = &mut self.watches[waiter as usize];
        let list = &mut self.wake_lists[resource as usize];
        list.push(WakeEntry {
            waiter,
            watch_pos: watches.len() as u32,
        });
        watches.push((resource, (list.len() - 1) as u32));
    }

    /// Removes every watch held by `waiter`: O(1) per watch via swap-remove
    /// on the wake list plus a back-pointer fix-up for the entry that slid
    /// into the hole. Leaves no stale entries behind.
    pub(super) fn unpark(&mut self, waiter: u32) {
        let w = waiter as usize;
        for k in 0..self.watches[w].len() {
            let (resource, i) = self.watches[w][k];
            let list = &mut self.wake_lists[resource as usize];
            debug_assert_eq!(list[i as usize].waiter, waiter);
            list.swap_remove(i as usize);
            if let Some(&moved) = list.get(i as usize) {
                debug_assert_ne!(moved.waiter, waiter, "one watch per resource");
                self.watches[moved.waiter as usize][moved.watch_pos as usize].1 = i;
            }
        }
        self.watches[w].clear();
    }

    /// Wakes every waiter parked on `resource`.
    pub(super) fn wake_resource(&mut self, resource: u32) {
        while let Some(&WakeEntry { waiter, .. }) = self.wake_lists[resource as usize].last() {
            // The unpark removes (at least) the entry just examined.
            self.requeue(waiter);
        }
    }

    /// Unparks `waiter`: a message joins the `woken` buffer and an
    /// injector the ready list, both re-attempted next cycle.
    pub(super) fn requeue(&mut self, waiter: u32) {
        self.unpark(waiter);
        let nodes = self.topo.num_nodes() as u32;
        if waiter < nodes {
            let node = waiter as usize;
            debug_assert_eq!(self.inj_state[node], InjState::Parked);
            self.inj_state[node] = InjState::Ready;
            self.inj_ready.push(waiter);
        } else {
            let slot = waiter - nodes;
            debug_assert_eq!(self.alloc_state[slot as usize], AllocState::Parked);
            self.alloc_state[slot as usize] = AllocState::Queued;
            self.woken.push(slot);
        }
    }

    /// Parks `waiter` on every VC of its frozen candidate list (all are
    /// owned, or the attempt would have succeeded). An empty list parks
    /// with no watches: only a fault plan can produce one, and then the
    /// waiter is stranded (resolved at the next cycle start) or rejected,
    /// and `LinkUp` wakes cover everything else.
    pub(super) fn park_on_cached(&mut self, waiter: u32) {
        let list = std::mem::take(&mut self.cand_cache[waiter as usize]);
        for &v in &list {
            debug_assert_ne!(self.vc_owner[v as usize], NO_OWNER);
            self.watch(waiter, v);
        }
        self.cand_cache[waiter as usize] = list;
    }

    /// An injection channel of `node` was freed: an idle node with queued
    /// traffic goes back on the ready list.
    pub(super) fn ready_injector(&mut self, node: usize) {
        if self.inj_state[node] == InjState::Idle && !self.source_q[node].is_empty() {
            self.inj_state[node] = InjState::Ready;
            self.inj_ready.push(node as u32);
        }
    }

    /// Folds messages woken since the last allocation phase back into the
    /// id-sorted allocation queue (two-pointer merge).
    pub(super) fn merge_woken(&mut self) {
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
