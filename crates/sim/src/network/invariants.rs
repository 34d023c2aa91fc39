//! Invariant checking (tests).

use icn_routing::RoutingCtx;
use icn_topology::{ChannelId, NodeId};

use super::wake::{AllocState, InjState};
use super::{
    compute_candidates, ctx_of, flatten_candidates, Network, Pending, StepMode, VcOcc, NO_OWNER,
};
use crate::message::MsgPhase;

impl Network {
    /// Exhaustive consistency check; called from tests after stepping.
    ///
    /// Verifies flit conservation per message, the chain's two link arrays
    /// against each other and against ownership, occupancy bounds, the
    /// occupancy table's feed encoding,
    /// injection/reception bookkeeping, and that every frozen candidate
    /// list equals a fresh recompute. On an instance the dense stepper
    /// drives, it also checks that the activity bookkeeping the shared
    /// bodies touch stays inert.
    pub fn check_invariants(&self) {
        let vcs_per = self.cfg.vcs_per_channel;
        let nv = self.num_vcs();
        // The occupancy table: `nv` VCs, the free entry, one source entry
        // per slot. The free entry stays zero (and so unable to feed).
        assert_eq!(
            self.occ.len(),
            nv + 1 + self.active_idx.len(),
            "occupancy table out of step with the slots"
        );
        assert_eq!(self.occ[nv], VcOcc::free(nv), "free entry not zero");
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
        let mut chained = 0usize;
        for &slot in &self.active {
            let msg = self.messages[slot as usize].as_ref().expect("active slot");
            assert_eq!(self.slot_id[slot as usize], msg.id, "slot_id out of sync");
            // A live message owns a VC: its chain empties only as it retires.
            assert_ne!(msg.chain_len, 0, "live message {} owns no VC", msg.id);
            // One forward walk from `front` through `vc_next` reaches `head`
            // in exactly `chain_len` owned VCs of physically adjacent
            // channels, each fed by its predecessor (the front by the
            // slot's source entry): the two link arrays audit each other.
            let (mut v, mut prev, mut in_chain) = (msg.front, self.source_entry(slot) as u32, 0);
            for _ in 0..msg.chain_len {
                assert_ne!(v, NO_OWNER, "chain ends before its length");
                let i = v as usize;
                assert_eq!(self.vc_owner[i], slot, "chain VC not owned by its message");
                assert_eq!(self.occ[i].feed, prev, "feed is not the chain predecessor");
                assert!(self.occ[i].now as usize <= self.cfg.buffer_depth);
                in_chain += self.occ[i].now as u32;
                if (prev as usize) < nv {
                    let a = self.topo.channel(ChannelId(prev / vcs_per as u32));
                    let b = self.topo.channel(ChannelId(v / vcs_per as u32));
                    assert_eq!(a.dst, b.src, "chain must be a connected path");
                }
                (prev, v) = (v, self.vc_next[i]);
            }
            assert_eq!(v, NO_OWNER, "chain runs past its length");
            assert_eq!(msg.head, prev, "chain does not end at its head");
            chained += msg.chain_len as usize;
            assert_eq!(
                in_chain,
                msg.flits_in_network(self.msg_uninjected[slot as usize]),
                "flit conservation violated for message {}",
                msg.id
            );
            // A live slot's source entry says whether flits are left.
            assert_eq!(
                self.occ[self.source_entry(slot)].start,
                u16::from(self.msg_uninjected[slot as usize] > 0),
                "source entry of slot {slot} diverged from msg_uninjected"
            );
            if msg.phase == MsgPhase::Ejecting {
                assert_eq!(self.reception[msg.dst.idx()], slot);
            }
        }
        for (v, &owner) in self.vc_owner.iter().enumerate() {
            if owner == NO_OWNER {
                assert_eq!(self.occ[v].now, 0, "free VC {v} holds flits");
                assert_eq!(
                    self.occ[v].feed, nv as u32,
                    "free VC {v} not fed by the free entry"
                );
                assert_eq!(self.vc_next[v], NO_OWNER, "free VC {v} keeps a next");
            } else {
                assert!(self.messages[owner as usize].is_some());
            }
        }
        assert_eq!(
            self.vc_owner.iter().filter(|&&o| o != NO_OWNER).count(),
            chained,
            "owned VC outside its owner's chain"
        );
        let blocked_scan = self
            .active
            .iter()
            .filter(|&&s| self.messages[s as usize].as_ref().unwrap().blocked)
            .count();
        assert_eq!(self.blocked_ctr, blocked_scan, "blocked counter drifted");

        // Frozen ⇒ equals recompute: a frozen candidate list (either
        // stepper, with or without a fault plan, injector or message) is
        // exactly the flattened set the routing relation would produce now.
        let nodes = self.topo.num_nodes();
        for w in (0..self.cand_cache.len()).filter(|&w| self.cand_cache_valid[w]) {
            let (ctx, what) = if w < nodes {
                let &Pending { dst, .. } = self.source_q[w]
                    .front()
                    .expect("frozen injector candidates without a queue front");
                let src = NodeId(w as u32);
                let ctx = RoutingCtx::fresh(src, dst, src);
                (ctx, "frozen injector candidate set diverged from recompute")
            } else {
                match self.messages.get(w - nodes).and_then(Option::as_ref) {
                    Some(msg) if msg.phase == MsgPhase::Routing => {
                        assert!(msg.blocked, "frozen candidates outside a blocked episode");
                        let here = self.topo.channel(ChannelId(msg.head / vcs_per as u32)).dst;
                        (
                            ctx_of(msg, here),
                            "frozen candidate set diverged from recompute",
                        )
                    }
                    _ => continue,
                }
            };
            assert_eq!(self.cand_cache[w], self.recompute_frozen(&ctx), "{what}");
        }

        if self.mode == StepMode::Activity {
            self.check_activity_invariants();
        } else {
            // The dense stepper never parks or queues: the wakes and the
            // scheduling state the shared bodies touch must stay empty,
            // which is what lets those bodies run without a mode test.
            assert!(
                self.wake_lists.iter().all(Vec::is_empty) && self.watches.iter().all(Vec::is_empty),
                "watch on a dense-stepped instance"
            );
            assert!(
                self.alloc_queue.is_empty(),
                "queued slot on a dense-stepped instance"
            );
            assert!(
                self.woken.is_empty(),
                "woken slot on a dense-stepped instance"
            );
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
        for (w, watches) in self.watches.iter().enumerate() {
            for (k, &(r, i)) in watches.iter().enumerate() {
                let e = self.wake_lists[r as usize][i as usize];
                assert_eq!(e.waiter, w as u32, "watch back-pointer broken");
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

        let nodes = self.topo.num_nodes();
        for &slot in &self.active {
            let msg = self.messages[slot as usize].as_ref().unwrap();
            let s = slot as usize;
            let watches = &self.watches[nodes + s];
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
                    assert!(watches.is_empty());
                }
                AllocState::Parked => {
                    assert!(msg.blocked, "parked message must be blocked");
                    assert!(self.occ[msg.head as usize].now >= 1);
                    let here = self.topo.channel(ChannelId(msg.head / vcs_per as u32)).dst;
                    if here == msg.dst {
                        // Waiting for the reception channel: busy, and it
                        // is exactly what is watched.
                        assert_ne!(
                            self.reception[here.idx()],
                            NO_OWNER,
                            "parked at destination with a free reception channel: missed wake"
                        );
                        assert_eq!(watches.len(), 1);
                        assert_eq!(
                            watches[0].0,
                            (self.num_vcs() + here.idx()) as u32,
                            "destination wait must watch the reception channel"
                        );
                    } else {
                        let cand = self.recompute_frozen(&ctx_of(msg, here));
                        assert!(
                            cand.iter().all(|&v| self.vc_owner[v as usize] != NO_OWNER),
                            "parked message {} has a free candidate VC: missed wake",
                            msg.id
                        );
                        assert_eq!(
                            watches.len(),
                            cand.len(),
                            "watch set does not match candidate set"
                        );
                    }
                }
                AllocState::Inactive => panic!("routing message {} inactive", msg.id),
            }
        }

        // Injector scheduling: an idle node must have nothing injectable.
        for node in 0..self.topo.num_nodes() {
            match self.inj_state[node] {
                InjState::Idle => {
                    assert!(
                        self.source_q[node].is_empty() || self.injecting[node],
                        "idle injector {node} with work and a free channel: missed wake"
                    );
                    assert!(self.watches[node].is_empty());
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
                    assert!(
                        !self.injecting[node],
                        "parked injector without a free channel"
                    );
                    let src = NodeId(node as u32);
                    let cand = self.recompute_frozen(&RoutingCtx::fresh(src, dst, src));
                    assert!(
                        cand.iter().all(|&v| self.vc_owner[v as usize] != NO_OWNER),
                        "parked injector {node} has a free candidate VC: missed wake"
                    );
                    assert_eq!(self.watches[node].len(), cand.len());
                }
            }
        }

        // Channel activity: any VC a flit could move into next cycle sits
        // on an active channel.
        let depth = self.cfg.buffer_depth as u16;
        let nv = self.num_vcs();
        for (v, &owner) in self.vc_owner.iter().enumerate() {
            if owner == NO_OWNER || self.occ[v].now >= depth {
                continue;
            }
            let feed = self.occ[v].feed as usize;
            let fed = if feed < nv {
                self.occ[feed].now >= 1
            } else {
                self.msg_uninjected[owner as usize] > 0
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

        // Dirty-mark discipline: every occupancy that diverged from its
        // `start` snapshot carries a mark (no missed patch).
        for (v, o) in self.occ[..nv].iter().enumerate() {
            if self.occ_dirty_words[v >> 6] >> (v & 63) & 1 == 0 {
                assert_eq!(
                    o.start, o.now,
                    "VC {v} occupancy diverged from its snapshot without a dirty mark"
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
                msg.head, self.drain_head[i],
                "stale cached drain head for slot {slot}"
            );
        }

        // Release work queue fully drained between steps; only deferred
        // visits (injection completed in the injection cycle) carry
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

        // Release completeness (both steppers): no release action is left
        // pending after a release phase, except the deferred visit of a
        // message injected last cycle.
        for &slot in &self.active {
            let s = slot as usize;
            let msg = self.messages[s].as_ref().unwrap();
            if self.msg_uninjected[s] != 0 || msg.injected_at + 1 == self.cycle {
                continue;
            }
            assert!(
                !msg.holds_injection,
                "slot {slot}: injection channel not freed"
            );
            if msg.front != NO_OWNER {
                assert_ne!(
                    self.occ[msg.front as usize].now, 0,
                    "slot {slot}: drained front not released"
                );
            }
            assert_ne!(
                msg.delivered, msg.len,
                "slot {slot}: delivered but not retired"
            );
        }
    }
    /// The flattened candidate set the routing relation offers at `ctx`
    /// now — what a frozen list must equal.
    fn recompute_frozen(&self, ctx: &RoutingCtx) -> Vec<u32> {
        let (mut cand, mut flat) = (Vec::new(), Vec::new());
        let vcs_per = self.cfg.vcs_per_channel;
        compute_candidates(
            &self.topo,
            &*self.routing,
            vcs_per,
            &self.failed,
            ctx,
            &mut cand,
        );
        flatten_candidates(&cand, vcs_per, &mut flat);
        flat
    }
}
