//! Knot detection and deadlock classification.

use crate::adjacency::Adjacency;
use crate::cycles::{is_cyclic, CycleCount, CycleScratch};
use crate::graph::{MessageId, VertexId, WaitGraph};
use crate::scc::SccScratch;

/// Deadlock taxonomy of §2.2: a knot containing exactly one elementary
/// cycle is a *single-cycle deadlock*; more are *multi-cycle*.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeadlockKind {
    SingleCycle,
    MultiCycle,
}

/// Classification of blocked-but-not-deadlocked messages waiting on
/// deadlocked resources (§2.2.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DependentKind {
    /// Every requested VC leads into a knot: the message cannot proceed
    /// until recovery resolves the deadlock.
    Committed,
    /// At least one requested VC does not lead into a knot — the message
    /// may proceed through an alternative resource.
    Transient,
}

/// One true deadlock: a knot of the CWG with its derived descriptors.
#[derive(Clone, Debug, PartialEq)]
pub struct Deadlock {
    /// The knot vertices (every vertex reaches exactly this set).
    pub knot: Vec<VertexId>,
    /// Messages owning at least one knot vertex. Removing any one of these
    /// (the recovery victim) breaks the knot; removing a merely *dependent*
    /// message would not.
    pub deadlock_set: Vec<MessageId>,
    /// Every VC owned by a deadlock-set message (the paper's "resource
    /// set", e.g. 8 channels for the 4-message knot of Figure 2).
    pub resource_set: Vec<VertexId>,
    /// Number of elementary cycles inside the knot.
    pub cycle_density: CycleCount,
}

impl Deadlock {
    /// Single- vs multi-cycle classification. A capped density counts as
    /// multi-cycle, which is only sound for a `density_cap` of at least 2:
    /// at cap 1 (or 0) enumeration stops before a second cycle could be
    /// ruled out, and every knot reads as multi-cycle.
    pub fn kind(&self) -> DeadlockKind {
        if self.cycle_density.value() <= 1 && !self.cycle_density.is_capped() {
            DeadlockKind::SingleCycle
        } else {
            DeadlockKind::MultiCycle
        }
    }
}

/// Full analysis of one CWG snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct Analysis {
    /// Every knot in the snapshot (usually zero or one; independent knots
    /// can coexist in disconnected regions).
    pub deadlocks: Vec<Deadlock>,
    /// Blocked messages outside every deadlock set that wait (directly or
    /// transitively) on deadlocked resources.
    pub dependent: Vec<(MessageId, DependentKind)>,
    /// Number of blocked messages in the snapshot.
    pub num_blocked: usize,
}

impl Analysis {
    /// True when at least one knot (true deadlock) exists.
    pub fn has_deadlock(&self) -> bool {
        !self.deadlocks.is_empty()
    }
}

/// Reusable working storage for the per-epoch detection pass.
///
/// Holds Tarjan scratch, the per-component knot and reaches-a-knot
/// marks, and the cycle counter's buffers (its branch-vertex contraction
/// included). No copy of the graph lives here: every pass walks the
/// [`WaitGraph`] itself. Once capacities have warmed up,
/// [`WaitGraph::analyze_with`] allocates nothing on a knot-free epoch and
/// only the vectors of the returned [`Analysis`] on a knot-bearing one.
#[derive(Clone, Debug, Default)]
pub struct DetectorScratch {
    scc: SccScratch,
    /// Per component: is a knot (terminal and cyclic).
    knot: Vec<bool>,
    /// Per component: is a knot, or has an arc path into one.
    reaches_knot: Vec<bool>,
    cycles: CycleScratch,
    /// Staging for a knot's deadlock set (as record slots) and resource
    /// set, copied out at their final size.
    slots: Vec<u32>,
    vertices: Vec<VertexId>,
}

impl DetectorScratch {
    /// Empty scratch; capacities grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decomposes `g` and returns the component count, settling each
    /// component's marks as Tarjan emits it, when every arc leaving it ends
    /// in an earlier component: terminal if none leaves, a knot if also
    /// cyclic, reaching a knot if one or if an arc leads into one that does.
    fn decompose(&mut self, g: &WaitGraph) -> usize {
        self.knot.clear();
        self.reaches_knot.clear();
        self.scc.run_with(g, 0, |id, comp, comp_of| {
            let mut terminal = true;
            let mut reaches = false;
            for &v in comp {
                for &w in g.neighbors(v) {
                    let cw = comp_of[w as usize];
                    if cw != id {
                        terminal = false;
                        reaches |= self.reaches_knot[cw as usize];
                    }
                }
            }
            let is_knot = terminal && is_cyclic(g, comp);
            self.knot.push(is_knot);
            self.reaches_knot.push(is_knot || reaches);
        });
        self.knot.len()
    }

    /// The sorted, deduplicated owners of component `ci`'s vertices, also
    /// left in `slots` as record slots.
    fn deadlock_set(&mut self, g: &WaitGraph, ci: usize) -> Vec<MessageId> {
        self.slots.clear();
        let comp = self.scc.component(ci as u32);
        self.slots.extend(comp.iter().filter_map(|&v| g.slot_of(v)));
        self.slots.sort_unstable_by_key(|&s| g.slot_id(s));
        self.slots.dedup();
        self.slots.iter().map(|&s| g.slot_id(s)).collect()
    }
}

impl WaitGraph {
    /// Detects every knot and classifies the snapshot.
    ///
    /// Convenience wrapper over [`analyze_with`](Self::analyze_with) that
    /// allocates fresh scratch; the detection loop holds a
    /// [`DetectorScratch`] across epochs instead.
    pub fn analyze(&self, density_cap: u64) -> Analysis {
        let mut scratch = DetectorScratch::new();
        self.analyze_with(density_cap, &mut scratch)
    }

    /// Detects every knot and classifies the snapshot, reusing `scratch`.
    ///
    /// A knot is a **non-trivial terminal SCC**: strongly connected (so every
    /// vertex reaches every other), with no arc leaving the component (so
    /// the reachable set of each member is exactly the component). This is
    /// the necessary-and-sufficient deadlock condition of \[6\] given a
    /// connected routing function.
    ///
    /// `density_cap` bounds the per-knot elementary-cycle enumeration; below
    /// 2 it cannot tell a single-cycle knot from a multi-cycle one (see
    /// [`Deadlock::kind`]).
    ///
    /// Knots come out in Tarjan emission order (ascending component id),
    /// the order [`knot_deadlock_sets`](Self::knot_deadlock_sets) uses too.
    pub fn analyze_with(&self, density_cap: u64, scratch: &mut DetectorScratch) -> Analysis {
        let nc = scratch.decompose(self);

        let mut deadlocks = Vec::new();
        for ci in 0..nc {
            if !scratch.knot[ci] {
                continue;
            }
            let deadlock_set = scratch.deadlock_set(self, ci);

            scratch.vertices.clear();
            for &slot in &scratch.slots {
                scratch.vertices.extend_from_slice(self.slot_chain(slot));
            }
            scratch.vertices.sort_unstable();
            scratch.vertices.dedup();
            let resource_set = scratch.vertices.clone();

            // The knot is already one SCC of the graph: count inside it
            // directly.
            let comp = scratch.scc.component(ci as u32);
            let cycle_density = scratch.cycles.count_in_component(self, comp, density_cap);
            let mut knot = comp.to_vec();
            knot.sort_unstable();

            deadlocks.push(Deadlock {
                knot,
                deadlock_set,
                resource_set,
                cycle_density,
            });
        }

        // Dependent census — only meaningful (and only paid for) when a
        // knot exists: which blocked messages outside every deadlock set
        // wait into a deadlock.
        let mut dependent = Vec::new();
        if !deadlocks.is_empty() {
            let reaches = |v: VertexId| scratch.reaches_knot[scratch.scc.comp_of(v) as usize];
            for (msg, chain, reqs) in self.records() {
                // A knot has no leaving arc, so a message owning any knot
                // vertex owns its chain from there to the head: deadlock
                // set membership is decided by the head alone.
                let head = *chain.last().expect("chains are non-empty");
                if scratch.knot[scratch.scc.comp_of(head) as usize] {
                    continue;
                }
                let hits = reqs.iter().filter(|&&t| reaches(t)).count();
                if hits == 0 {
                    continue;
                }
                let kind = if hits == reqs.len() {
                    DependentKind::Committed
                } else {
                    DependentKind::Transient
                };
                dependent.push((msg, kind));
            }
            dependent.sort_unstable_by_key(|&(m, _)| m);
        }

        Analysis {
            deadlocks,
            dependent,
            num_blocked: self.num_blocked(),
        }
    }

    /// The deadlock set of every knot, in component-emission order (the
    /// order [`analyze_with`](Self::analyze_with) lists knots in).
    pub fn knot_deadlock_sets(&self, scratch: &mut DetectorScratch) -> Vec<Vec<MessageId>> {
        let nc = scratch.decompose(self);
        let mut sets = Vec::new();
        for ci in 0..nc {
            if scratch.knot[ci] {
                sets.push(scratch.deadlock_set(self, ci));
            }
        }
        sets
    }

    /// Counts the elementary resource-dependency cycles in the snapshot
    /// (capped at `cap`), reusing `scratch`. The paper uses this as the
    /// congestion precursor metric when no deadlock exists — cyclic
    /// non-deadlocks (§2.2.3).
    pub fn count_cycles_with(&self, cap: u64, scratch: &mut DetectorScratch) -> CycleCount {
        scratch.scc.run(self);
        scratch.cycles.count_components(self, &scratch.scc, cap)
    }

    /// [`count_cycles_with`](Self::count_cycles_with) on fresh scratch.
    pub fn count_cycles(&self, cap: u64) -> CycleCount {
        self.count_cycles_with(cap, &mut DetectorScratch::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three messages in a ring, single VC per hop: the Figure 1 shape.
    fn figure1_like() -> WaitGraph {
        let mut g = WaitGraph::new(10);
        // m1 owns 1,2 and wants 3; m2 owns 3,4,5 and wants 6;
        // m3 owns 6,7,0 and wants 1. m4/m5 own 8,9 and are moving.
        g.add_chain(1, &[1, 2]);
        g.add_chain(2, &[3, 4, 5]);
        g.add_chain(3, &[6, 7, 0]);
        g.add_chain(4, &[8]);
        g.add_chain(5, &[9]);
        g.add_requests(1, &[3]);
        g.add_requests(2, &[6]);
        g.add_requests(3, &[1]);
        g
    }

    #[test]
    fn figure1_single_cycle_deadlock() {
        let a = figure1_like().analyze(1000);
        assert!(a.has_deadlock());
        assert_eq!(a.deadlocks.len(), 1);
        let d = &a.deadlocks[0];
        assert_eq!(d.knot, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(d.deadlock_set, vec![1, 2, 3]);
        assert_eq!(d.resource_set, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(d.cycle_density, CycleCount::Exact(1));
        assert_eq!(d.kind(), DeadlockKind::SingleCycle);
        assert!(a.dependent.is_empty());
        assert_eq!(a.num_blocked, 3);
    }

    #[test]
    fn escape_resource_prevents_deadlock() {
        // Same ring, but m3 additionally waits for free vertex 8's twin 9?
        // No: give m3 an alternative request to an *free* vertex — the
        // knot condition fails (Figure 4's escape channel).
        let mut g = WaitGraph::new(10);
        g.add_chain(1, &[1, 2]);
        g.add_chain(2, &[3, 4, 5]);
        g.add_chain(3, &[6, 7, 0]);
        g.add_requests(1, &[3]);
        g.add_requests(2, &[6]);
        g.add_requests(3, &[1, 9]); // 9 is free: an escape
        let a = g.analyze(1000);
        assert!(!a.has_deadlock());
    }

    #[test]
    fn waiting_on_moving_message_is_not_deadlock() {
        let mut g = WaitGraph::new(4);
        g.add_chain(1, &[0, 1]); // moving: no requests
        g.add_chain(2, &[2, 3]);
        g.add_requests(2, &[0]); // waits on m1's tail VC
        let a = g.analyze(1000);
        assert!(!a.has_deadlock());
        assert_eq!(a.num_blocked, 1);
    }

    #[test]
    fn dependent_message_classified() {
        // Figure 2's m5: blocked behind the knot without owning knot
        // vertices, every request leading into the deadlock => committed.
        let mut g = WaitGraph::new(12);
        g.add_chain(1, &[1, 2]);
        g.add_chain(2, &[3, 4, 5]);
        g.add_chain(3, &[6, 7, 0]);
        g.add_requests(1, &[3]);
        g.add_requests(2, &[6]);
        g.add_requests(3, &[1]);
        g.add_chain(6, &[10, 11]);
        g.add_requests(6, &[4]);
        let a = g.analyze(1000);
        assert_eq!(a.deadlocks.len(), 1);
        assert_eq!(a.deadlocks[0].deadlock_set, vec![1, 2, 3]);
        assert_eq!(a.dependent, vec![(6, DependentKind::Committed)]);
    }

    #[test]
    fn transient_dependent_message() {
        let mut g = WaitGraph::new(14);
        g.add_chain(1, &[1, 2]);
        g.add_chain(2, &[3, 4, 5]);
        g.add_chain(3, &[6, 7, 0]);
        g.add_requests(1, &[3]);
        g.add_requests(2, &[6]);
        g.add_requests(3, &[1]);
        // m6 waits on knot vertex 4 AND free vertex 13 -> transient.
        g.add_chain(6, &[10, 11]);
        g.add_requests(6, &[4, 13]);
        let a = g.analyze(1000);
        assert_eq!(a.dependent, vec![(6, DependentKind::Transient)]);
    }

    #[test]
    fn multi_cycle_deadlock_detected() {
        // Figure 3 shape: 4 blocked messages, 2 VCs per channel; each waits
        // for both VCs of the next channel around a square, all owned.
        // Vertices: channel i has VCs 2i (tail-owned by m_i) and 2i+1... use
        // a direct construction: m_i owns {a_i, b_i}; waits for {a_{i+1}, b_{i+1}}.
        // To be a knot every vertex must be reachable: chain a->b then b
        // requests next a and b.
        let mut g = WaitGraph::new(8);
        for i in 0..4u64 {
            let a = (2 * i) as u32;
            let b = a + 1;
            g.add_chain(i + 1, &[a, b]);
        }
        for i in 0..4u64 {
            let na = (2 * ((i + 1) % 4)) as u32;
            g.add_requests(i + 1, &[na, na + 1]);
        }
        let a = g.analyze(1000);
        assert_eq!(a.deadlocks.len(), 1);
        let d = &a.deadlocks[0];
        assert_eq!(d.deadlock_set.len(), 4);
        assert_eq!(d.resource_set.len(), 8);
        assert!(d.cycle_density.value() > 1);
        assert_eq!(d.kind(), DeadlockKind::MultiCycle);
    }

    #[test]
    fn two_independent_knots() {
        let mut g = WaitGraph::new(8);
        // knot A: m1<->m2
        g.add_chain(1, &[0, 1]);
        g.add_chain(2, &[2, 3]);
        g.add_requests(1, &[2]);
        g.add_requests(2, &[0]);
        // knot B: m3<->m4
        g.add_chain(3, &[4, 5]);
        g.add_chain(4, &[6, 7]);
        g.add_requests(3, &[6]);
        g.add_requests(4, &[4]);
        let a = g.analyze(1000);
        assert_eq!(a.deadlocks.len(), 2);
        let sets: Vec<_> = a.deadlocks.iter().map(|d| d.deadlock_set.clone()).collect();
        assert!(sets.contains(&vec![1, 2]));
        assert!(sets.contains(&vec![3, 4]));
    }

    #[test]
    fn empty_graph_is_clean() {
        let g = WaitGraph::new(16);
        let a = g.analyze(10);
        assert!(!a.has_deadlock());
        assert_eq!(a.num_blocked, 0);
        assert!(a.dependent.is_empty());
    }

    #[test]
    fn minimal_uni_torus_two_message_deadlock() {
        // The paper notes a uni-torus needs only 2 messages for deadlock.
        let mut g = WaitGraph::new(4);
        g.add_chain(1, &[0, 1]);
        g.add_chain(2, &[2, 3]);
        g.add_requests(1, &[2]);
        g.add_requests(2, &[0]);
        let a = g.analyze(10);
        assert_eq!(a.deadlocks.len(), 1);
        assert_eq!(a.deadlocks[0].deadlock_set, vec![1, 2]);
    }

    #[test]
    fn scratch_reuse_across_epochs_matches_fresh() {
        let mut scratch = DetectorScratch::new();
        // Epoch 1: deadlocked graph.
        let g1 = figure1_like();
        let a1 = g1.analyze_with(1000, &mut scratch);
        let f1 = g1.analyze(1000);
        assert_eq!(a1.deadlocks.len(), f1.deadlocks.len());
        assert_eq!(a1.deadlocks[0].deadlock_set, f1.deadlocks[0].deadlock_set);
        assert_eq!(a1.deadlocks[0].knot, f1.deadlocks[0].knot);
        // Epoch 2 reuses the same scratch on a clean, differently-sized graph.
        let mut g2 = WaitGraph::new(4);
        g2.add_chain(1, &[0, 1]);
        let a2 = g2.analyze_with(1000, &mut scratch);
        assert!(!a2.has_deadlock());
        assert!(a2.dependent.is_empty());
    }

    #[test]
    fn in_place_victim_removal_matches_rebuild() {
        // Drop one victim's requests in place; the slim re-analysis must
        // agree with a full fresh analysis of the mutated graph.
        let mut scratch = DetectorScratch::new();
        let mut g = figure1_like();
        let a = g.analyze_with(1000, &mut scratch);
        let victim = a.deadlocks[0].deadlock_set[0];
        assert!(g.remove_requests(victim));
        let sets = g.knot_deadlock_sets(&mut scratch);
        assert!(sets.is_empty(), "one victim breaks the single knot");
        assert!(!g.analyze(1000).has_deadlock());
    }

    #[test]
    fn knot_deadlock_sets_reports_residual_knots() {
        let mut scratch = DetectorScratch::new();
        // Two independent knots; removing a victim from one leaves the other.
        let mut g = WaitGraph::new(8);
        g.add_chain(1, &[0, 1]);
        g.add_chain(2, &[2, 3]);
        g.add_requests(1, &[2]);
        g.add_requests(2, &[0]);
        g.add_chain(3, &[4, 5]);
        g.add_chain(4, &[6, 7]);
        g.add_requests(3, &[6]);
        g.add_requests(4, &[4]);
        g.remove_requests(1);
        let sets = g.knot_deadlock_sets(&mut scratch);
        assert_eq!(sets, vec![vec![3, 4]]);
    }

    /// One two-message knot over vertices `base..base + 4`.
    fn add_pair_knot(g: &mut WaitGraph, first_msg: MessageId, base: VertexId) {
        g.add_chain(first_msg, &[base, base + 1]);
        g.add_chain(first_msg + 1, &[base + 2, base + 3]);
        g.add_requests(first_msg, &[base + 2]);
        g.add_requests(first_msg + 1, &[base]);
    }

    #[test]
    fn knots_come_out_in_tarjan_emission_order() {
        // Victim order feeds `start_recovery`, hence the run digest: both
        // entry points must list knots by ascending component id, which
        // for disconnected knots is ascending least vertex (Tarjan's outer
        // loop starts roots in vertex order). Message ids run against the
        // vertex order so that sorting by id would be caught.
        let mut g = WaitGraph::new(12);
        add_pair_knot(&mut g, 50, 0);
        add_pair_knot(&mut g, 30, 4);
        add_pair_knot(&mut g, 10, 8);
        let mut scratch = DetectorScratch::new();

        let expect = vec![vec![50, 51], vec![30, 31], vec![10, 11]];
        let a = g.analyze_with(1000, &mut scratch);
        let sets: Vec<_> = a.deadlocks.iter().map(|d| d.deadlock_set.clone()).collect();
        assert_eq!(sets, expect);
        let knots: Vec<_> = a.deadlocks.iter().map(|d| d.knot.clone()).collect();
        assert_eq!(
            knots,
            vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7], vec![8, 9, 10, 11]]
        );
        assert_eq!(g.knot_deadlock_sets(&mut scratch), expect);

        // Breaking the middle knot leaves the other two in the same order.
        assert!(g.remove_requests(30));
        let expect = vec![vec![50, 51], vec![10, 11]];
        assert_eq!(g.knot_deadlock_sets(&mut scratch), expect);
        let a = g.analyze_with(1000, &mut scratch);
        let sets: Vec<_> = a.deadlocks.iter().map(|d| d.deadlock_set.clone()).collect();
        assert_eq!(sets, expect);
        // The broken knot's messages now wait on nothing deadlocked.
        assert!(a.dependent.is_empty());
    }

    #[test]
    fn registration_order_reaches_no_output() {
        // `DynamicWaitGraph`'s store reorders records as it patches them
        // (a removal moves the last record into the hole, compaction
        // rewrites the pool): every output must be keyed by vertex or
        // sorted by id, never by slot or pool position.
        // The Figure 1 knot, a transient dependent (6) and a moving
        // message (7): `(id, chain, requests)`.
        let records: [(u64, &[u32], &[u32]); 5] = [
            (1, &[1, 2], &[3]),
            (2, &[3, 4, 5], &[6]),
            (3, &[6, 7, 0], &[1]),
            (6, &[10, 11], &[4, 13]),
            (7, &[12], &[]),
        ];
        let build = |order: &[usize]| {
            let mut g = WaitGraph::new(14);
            for &i in order {
                let (id, chain, requests) = records[i];
                g.add_record(id, chain, requests);
            }
            g
        };
        let g = build(&[0, 1, 2, 3, 4]);
        let h = build(&[4, 3, 2, 1, 0]);
        let mut scratch = DetectorScratch::new();
        assert_eq!(g.analyze(100), h.analyze_with(100, &mut scratch));
        assert_eq!(
            g.knot_deadlock_sets(&mut scratch),
            h.knot_deadlock_sets(&mut scratch)
        );
        assert_eq!(g.count_cycles(100), h.count_cycles_with(100, &mut scratch));
    }

    #[test]
    fn ring_is_single_cycle_from_cap_two_up() {
        let g = figure1_like();
        for cap in [2, 3, 2_000] {
            let d = &g.analyze(cap).deadlocks[0];
            assert_eq!(d.cycle_density, CycleCount::Exact(1), "cap {cap}");
            assert_eq!(d.kind(), DeadlockKind::SingleCycle, "cap {cap}");
        }
        // Why `density_cap >= 2` is required of configs: below it the count
        // is capped before a second cycle could be ruled out.
        assert_eq!(
            g.analyze(1).deadlocks[0].cycle_density,
            CycleCount::AtLeast(1)
        );
        assert_eq!(
            g.analyze(0).deadlocks[0].cycle_density,
            CycleCount::AtLeast(0)
        );
    }

    /// Random wait graphs: free vertices, moving chains, and blocked
    /// messages whose requests are drawn with replacement from every
    /// vertex (their own chain and head included), so self-loops and
    /// parallel arcs occur.
    fn random_wait_graph(rng: &mut rand::rngs::StdRng) -> WaitGraph {
        use rand::Rng;
        let n = rng.gen_range(1u32..32);
        let mut order: Vec<VertexId> = (0..n).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..i + 1));
        }
        let mut g = WaitGraph::new(n as usize);
        let mut rest = &order[..rng.gen_range(0..n as usize + 1)];
        let mut id = 0;
        while !rest.is_empty() {
            let (chain, tail) = rest.split_at(rng.gen_range(1..rest.len().min(4) + 1));
            rest = tail;
            id += 1;
            g.add_chain(id, chain);
            if rng.gen_range(0..4) != 0 {
                let reqs: Vec<_> = (0..rng.gen_range(1..4))
                    .map(|_| rng.gen_range(0..n))
                    .collect();
                g.add_requests(id, &reqs);
            }
        }
        g
    }

    #[test]
    fn emission_marks_match_naive_reachability() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let mut scratch = DetectorScratch::new();
        for _ in 0..3000 {
            let g = random_wait_graph(&mut rng);
            let n = g.num_vertices();
            // reach[v][w]: a path of at least one arc leads from v to w.
            let mut reach = vec![vec![false; n]; n];
            for (v, row) in reach.iter_mut().enumerate() {
                let mut todo: Vec<VertexId> = g.neighbors(v as u32).to_vec();
                while let Some(w) = todo.pop() {
                    if !row[w as usize] {
                        row[w as usize] = true;
                        todo.extend_from_slice(g.neighbors(w));
                    }
                }
            }
            // In a knot: on a cycle, and reached back from all it reaches.
            let in_knot: Vec<bool> = (0..n)
                .map(|v| reach[v][v] && (0..n).all(|w| !reach[v][w] || reach[w][v]))
                .collect();
            scratch.decompose(&g);
            for v in 0..n {
                let c = scratch.scc.comp_of(v as u32) as usize;
                let reaches = in_knot[v] || (0..n).any(|w| reach[v][w] && in_knot[w]);
                assert_eq!(scratch.knot[c], in_knot[v], "knot at {v}: {g:?}");
                assert_eq!(scratch.reaches_knot[c], reaches, "reaches at {v}: {g:?}");
            }
        }
    }

    #[test]
    fn census_through_scratch_matches_fresh() {
        let mut scratch = DetectorScratch::new();
        let g = figure1_like();
        let _ = g.analyze_with(1000, &mut scratch);
        assert_eq!(g.count_cycles_with(100, &mut scratch), g.count_cycles(100));
        assert_eq!(g.count_cycles(100), CycleCount::Exact(1));
        // A differently sized graph through the same scratch.
        let mut g2 = WaitGraph::new(4);
        g2.add_chain(1, &[0, 1]);
        assert_eq!(
            g2.count_cycles_with(100, &mut scratch),
            CycleCount::Exact(0)
        );
    }
}
