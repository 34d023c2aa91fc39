//! The simulation loop: traffic, stepping, detection, recovery.

use std::ops::ControlFlow;

use icn_cwg::{
    Analysis, CycleCount, DeadlockKind, DependentKind, DetectorScratch, DynamicWaitGraph,
};
use icn_sim::{Network, SnapshotArena, StepEvents, WaitUpdate};
use icn_topology::NodeId;
use icn_traffic::{message_rate, BernoulliInjector};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::forensics::ForensicsState;
use crate::result::{RunOutcome, RunResult, StallReport};
use crate::spec::RecoveryPolicy;
use crate::RunConfig;

/// What [`RunObserver::on_epoch`] sees at a detection epoch: the verdict,
/// its analysis, and the network — immediately after knot analysis and
/// before recovery mutates anything.
pub struct EpochView<'a> {
    /// Simulation cycle of this detection epoch.
    pub cycle: u64,
    /// 1-based detection-epoch ordinal.
    pub epoch: u64,
    /// The runner's wait-for snapshot arena — fresh only when `captured`.
    pub arena: &'a SnapshotArena,
    /// The epoch's knot analysis: empty (bar `num_blocked`) whenever the
    /// event-patched wait graph certifies the epoch knot-free.
    pub analysis: &'a Analysis,
    /// Whether the epoch was knot-free and settled by the cached verdict:
    /// nothing is blocked, or this epoch's drain changed no blocked
    /// record.
    pub skipped: bool,
    /// Whether `arena` was refilled at this epoch. The detector works from
    /// the engine's wait-state events, not from captures, so the arena is
    /// refilled only where something reads it (a knot epoch of a forensic
    /// run that still stores incidents, i.e. below
    /// [`ForensicsConfig::max_incidents`](crate::ForensicsConfig::max_incidents));
    /// otherwise it holds a stale earlier capture, or nothing —
    /// auditors needing the wait state must take their own snapshot from
    /// `net` (the analysis and `skipped` are exact either way).
    pub captured: bool,
    /// The network, read-only.
    pub net: &'a Network,
}

/// Hooks into [`run_with`]: the forensic re-run probe behind replay and
/// minimization uses them to halt a deterministic re-run at an exact cycle.
/// Returning `ControlFlow::Break` stops the run; the result reflects the
/// truncated window.
pub trait RunObserver {
    /// Called after every engine step (and trace drain), before any
    /// detection work at this cycle, with the step's events (deliveries,
    /// injections, link activity) — the validation harness audits flit
    /// conservation and routing minimality from these.
    fn on_cycle(&mut self, _net: &Network, _ev: &StepEvents) -> ControlFlow<()> {
        ControlFlow::Continue(())
    }

    /// Called at every detection epoch, after analysis and before
    /// recovery.
    fn on_epoch(&mut self, _view: &EpochView<'_>) -> ControlFlow<()> {
        ControlFlow::Continue(())
    }
}

/// The no-op observer behind plain [`run`].
impl RunObserver for () {}

/// Which simulation-engine stepper drives the run.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Stepper {
    /// The activity-driven engine ([`Network::step`]) — the default.
    Activity,
    /// The dense reference scan ([`Network::step_reference`]).
    Dense,
}

/// Executes one simulation point.
///
/// The loop per cycle: Bernoulli traffic generation at every node and one
/// engine step (which only *marks* the messages whose wait state it
/// touched). At every `detection_interval` boundary the marks are drained
/// into the persistent wait graph, which gives the knot verdict; a knot
/// epoch then runs the full analysis on that graph's records, records
/// statistics (measurement window only) and recovers every detected knot.
/// Detection and recovery also run during warm-up so the network reaches a
/// meaningful steady state.
pub fn run(cfg: &RunConfig) -> RunResult {
    run_impl(cfg, &mut (), Stepper::Activity)
}

/// [`run`], but driven by the dense reference stepper
/// ([`icn_sim::Network::step_reference`]) instead of the activity engine.
/// The two are differentially tested to be byte-identical
/// ([`RunResult::digest`] equality), so this exists as the semantic
/// baseline for those tests and for engine benchmarks — not for normal
/// use.
pub fn run_reference(cfg: &RunConfig) -> RunResult {
    run_impl(cfg, &mut (), Stepper::Dense)
}

/// [`run`] with observer hooks (see [`RunObserver`]). The observer never
/// influences traffic or routing, so an observed run is cycle-identical
/// to a plain one up to the point it breaks.
pub fn run_with(cfg: &RunConfig, obs: &mut dyn RunObserver) -> RunResult {
    run_impl(cfg, obs, Stepper::Activity)
}

/// [`run_reference`] with observer hooks — the torture harness audits
/// both steppers through the same observer.
pub fn run_reference_with(cfg: &RunConfig, obs: &mut dyn RunObserver) -> RunResult {
    run_impl(cfg, obs, Stepper::Dense)
}

fn run_impl(cfg: &RunConfig, obs: &mut dyn RunObserver, stepper: Stepper) -> RunResult {
    cfg.check().unwrap_or_else(|e| panic!("{e}"));
    let topo = cfg.topology.build();
    let mut net = Network::new(topo, cfg.routing.build(), cfg.sim);
    if !cfg.faults.is_empty() {
        net.set_fault_plan(&cfg.faults);
    }
    let num_nodes = net.topology().num_nodes();
    let capacity = net.topology().capacity_flits_per_node_cycle();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let injector =
        BernoulliInjector::new(message_rate(net.topology(), cfg.load, cfg.len_dist.mean()));

    let mut res = RunResult::new(cfg.label(), cfg.load, num_nodes, capacity, cfg.sim.msg_len);
    res.cycles = cfg.measure;

    let total = cfg.warmup + cfg.measure;
    let mut detection_epoch: u64 = 0;
    // Victim id -> cycle it entered the recovery lane.
    let mut victim_starts: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();

    // Detector state, reused across epochs. `dwg` is the blocked wait
    // graph, patched in place at each epoch from the engine's dirty marks;
    // a knot epoch (and the census) analyses that same graph with
    // `scratch`, and recovery edits it; `arena` is refilled only for a
    // forensic incident. A steady-state epoch allocates nothing but the
    // vectors of a knot epoch's `Analysis`.
    net.enable_wait_tracking();
    let mut dwg = DynamicWaitGraph::new(net.wait_vertex_count());
    let mut arena = SnapshotArena::new();
    let mut scratch = DetectorScratch::new();

    // Forensic capture: enable engine tracing and index events per live
    // message, so a detected knot's formation can be reconstructed.
    let mut forensic = cfg.forensics.map(ForensicsState::new);
    if let Some(f) = cfg.forensics {
        net.enable_trace(f.trace_capacity);
    }

    // Progress watchdog state: the last cycle that showed any forward
    // motion, and the stall report if the watchdog fires.
    let mut last_progress: u64 = 0;
    let mut stalled: Option<StallReport> = None;

    'run: for cycle in 0..total {
        let measuring = cycle >= cfg.warmup;

        // Traffic generation, drawing exactly as `fires` node by node would.
        let mut from = 0;
        while let Some(node) = injector.next_firing(&mut rng, from..num_nodes as u32) {
            from = node + 1;
            if let Some(dst) = cfg.pattern.dest(net.topology(), NodeId(node), &mut rng) {
                let len = cfg.len_dist.sample(&mut rng);
                net.enqueue_with_len(NodeId(node), dst, len);
                if measuring {
                    res.generated += 1;
                }
            }
        }

        // One cycle of the engine.
        let ev = match stepper {
            Stepper::Activity => net.step(),
            Stepper::Dense => net.step_reference(),
        };
        if let Some(f) = forensic.as_mut() {
            let (events, dropped) = net.take_trace();
            f.absorb(events, dropped);
        }
        for d in &ev.delivered {
            if d.recovered {
                if let Some(start) = victim_starts.remove(&d.id) {
                    if measuring {
                        res.resolution_latency.record(net.cycle() - start);
                    }
                }
            }
        }
        if measuring {
            res.injected += ev.injected as u64;
            res.link_flits += ev.link_flits as u64;
            for d in &ev.delivered {
                res.delivered += 1;
                res.delivered_flits += d.len as u64;
                if d.recovered {
                    res.recovered += 1;
                }
                res.latency.record(d.latency);
            }
        }

        if obs.on_cycle(&net, &ev).is_break() {
            break 'run;
        }

        // Progress signals from this engine step; recovery starts at a
        // detection epoch below also count.
        let mut progressed = ev.injected > 0
            || ev.link_flits > 0
            || ev.drained_flits > 0
            || ev.fault_losses > 0
            || ev.fault_rejected > 0
            || !ev.delivered.is_empty();

        // Detection epoch.
        if net.cycle().is_multiple_of(cfg.detection_interval) {
            detection_epoch += 1;
            let census_due = cfg
                .count_cycles_every
                .is_some_and(|every| measuring && detection_epoch.is_multiple_of(every));

            // Fold the net effect of every wait-state change since the
            // last epoch into the wait graph: one re-extracted record per
            // touched message, however many events touched it.
            net.drain_wait_updates(|id, up| match up {
                WaitUpdate::Blocked { chain, requests } => dwg.stage_blocked(id, chain, requests),
                WaitUpdate::Clear => dwg.stage_clear(id),
            });
            let changed = dwg.commit();

            // Skipped epochs: with nothing blocked there are no dashed
            // arcs, so neither knots nor resource cycles can exist; and an
            // unchanged wait-state keeps the graph's cached verdict (knots
            // are closed by blocked messages only, so an unchanged record
            // table answers in O(1)). A knot epoch is never skipped.
            let knot = dwg.num_blocked() > 0 && dwg.has_knot();
            let skip = !knot && (dwg.num_blocked() == 0 || !changed);

            // A knot-free verdict ends detection. A knot epoch analyses the
            // wait graph itself: the blocked-only graph has exactly the full
            // graph's knots, deadlock and resource sets, densities and
            // dependents, because a moving chain is a sink path. The census
            // counts cycles on the same graph (cycles, too, run through
            // blocked messages only; the count is not cached, so a census
            // on a skipped epoch still counts).
            let analysis = if knot {
                dwg.graph().analyze_with(cfg.density_cap, &mut scratch)
            } else {
                Analysis {
                    deadlocks: Vec::new(),
                    dependent: Vec::new(),
                    num_blocked: dwg.graph().num_blocked(),
                }
            };
            debug_assert_eq!(knot, analysis.has_deadlock(), "verdict and analysis");

            // The arena is read by one consumer only: a forensic incident
            // stores the full pre-recovery CWG, moving messages included —
            // so it is refilled only while the run still stores incidents.
            let captured = knot && forensic.as_ref().is_some_and(|f| f.wants_incident(&res));
            if captured {
                net.wait_snapshot_into(&mut arena);
                debug_assert_eq!(
                    dwg.fingerprint(),
                    arena.fingerprint(),
                    "event-patched wait state diverged from the snapshot"
                );
            }

            // Formation cycle per knot: a knot exists only once every member
            // is blocked, so it is the latest member block stamp. (The knot
            // can close later still — a foreign message taking the last
            // escape VC — which only `detection_interval = 1` resolves.)
            let formation: Vec<u64> = analysis
                .deadlocks
                .iter()
                .map(|d| {
                    d.deadlock_set
                        .iter()
                        .filter_map(|&m| net.blocked_since(m))
                        .max()
                        .unwrap_or(net.cycle())
                })
                .collect();

            // Cyclic non-deadlock census count, taken before recovery
            // mutates the graph.
            let census_count = census_due.then(|| {
                if dwg.num_blocked() == 0 {
                    CycleCount::Exact(0)
                } else {
                    dwg.graph().count_cycles_with(cfg.cycle_cap, &mut scratch)
                }
            });

            {
                let view = EpochView {
                    cycle: net.cycle(),
                    epoch: detection_epoch,
                    arena: &arena,
                    analysis: &analysis,
                    skipped: skip,
                    captured,
                    net: &net,
                };
                if obs.on_epoch(&view).is_break() {
                    break 'run;
                }
            }

            // Recovery: resolve every knot of this epoch. Pick a victim per
            // knot and drop its requests in place (the victim's chain
            // becomes a CWG sink, exactly how in-progress recovery breaks a
            // knot). One round leaves the snapshot knot-free: every member
            // of a knot reaches its victim's head, now a sink, and every
            // other vertex keeps its out-arcs (DESIGN "What a knot epoch
            // costs"). This synthesizes Disha-Concurrent recovery, where
            // deadlocked packets keep claiming the recovery lane until the
            // deadlock is fully resolved. The edit lands in the live wait
            // graph; `start_recovery` marks the victim, so the next drain
            // stages its `Clear` and the graph matches the engine again.
            let mut epoch_victims: Vec<u64> = Vec::new();
            if cfg.recovery != RecoveryPolicy::None {
                for d in &analysis.deadlocks {
                    // Deadlock sets are sorted by id.
                    let v = match cfg.recovery {
                        RecoveryPolicy::RemoveOldest => d.deadlock_set[0],
                        RecoveryPolicy::RemoveYoungest => d.deadlock_set[d.deadlock_set.len() - 1],
                        RecoveryPolicy::None => unreachable!(),
                    };
                    epoch_victims.push(v);
                    let dropped = dwg.remove_requests(v);
                    debug_assert!(dropped, "a knot member is blocked");
                    let ok = net.start_recovery(v);
                    debug_assert!(ok, "victim must be an active routing message");
                    victim_starts.insert(v, net.cycle());
                    if measuring {
                        res.victims_started += 1;
                    }
                }
                debug_assert!(
                    dwg.graph().knot_deadlock_sets(&mut scratch).is_empty(),
                    "one victim per knot leaves no knot"
                );
            }

            progressed |= !epoch_victims.is_empty();

            // Forensic incident capture — after recovery so the outcome is
            // part of the record; the CWG comes from the arena captured
            // above, so it is the pre-recovery graph.
            if let Some(f) = forensic.as_mut() {
                f.record_epoch(
                    cfg,
                    &arena,
                    &analysis,
                    &epoch_victims,
                    net.cycle(),
                    &formation,
                    &mut res,
                );
            }

            if measuring {
                res.blocked.record(net.blocked_count() as f64);
                res.in_network.record(net.in_network() as f64);
                res.source_queued.record(net.source_queued() as f64);
                for (i, d) in analysis.deadlocks.iter().enumerate() {
                    res.deadlocks += 1;
                    match d.kind() {
                        DeadlockKind::SingleCycle => res.single_cycle_deadlocks += 1,
                        DeadlockKind::MultiCycle => res.multi_cycle_deadlocks += 1,
                    }
                    res.deadlock_set.record(d.deadlock_set.len() as u64);
                    res.resource_set.record(d.resource_set.len() as u64);
                    res.knot_density.record(d.cycle_density.value());
                    res.detection_lag.record(net.cycle() - formation[i]);
                    if d.cycle_density.is_capped() {
                        res.cycles_capped = true;
                    }
                    if res.incidents.len() < RunResult::MAX_INCIDENTS {
                        res.incidents.push(crate::result::Incident {
                            cycle: net.cycle(),
                            formation_cycle: formation[i],
                            deadlock_set_size: d.deadlock_set.len(),
                            resource_set_size: d.resource_set.len(),
                            knot_cycle_density: d.cycle_density.value(),
                            dependents: analysis.dependent.len(),
                        });
                    }
                }
                for &(_, kind) in &analysis.dependent {
                    match kind {
                        DependentKind::Committed => res.dependent_committed += 1,
                        DependentKind::Transient => res.dependent_transient += 1,
                    }
                }
            }

            // Cyclic non-deadlock census.
            if let Some(count) = census_count {
                if count.is_capped() {
                    res.cycles_capped = true;
                }
                res.counting_epochs += 1;
                if count.value() > 0 && analysis.deadlocks.is_empty() {
                    res.cyclic_nondeadlock_epochs += 1;
                }
                res.cwg_cycles.push(net.cycle(), count.value() as f64);
                let inn = net.in_network();
                let frac = if inn == 0 {
                    0.0
                } else {
                    net.blocked_count() as f64 / inn as f64
                };
                res.blocked_frac.push(net.cycle(), frac);
            }
        }

        // Progress watchdog. An idle network (nothing in flight or
        // queued) is never a stall — it is simply waiting for traffic.
        if let Some(threshold) = cfg.stall_threshold {
            if progressed || (net.in_network() == 0 && net.source_queued() == 0) {
                last_progress = net.cycle();
            } else if net.cycle() - last_progress >= threshold {
                stalled = Some(StallReport {
                    cycle: net.cycle(),
                    last_progress_cycle: last_progress,
                    in_network: net.in_network(),
                    blocked: net.blocked_count(),
                    source_queued: net.source_queued(),
                });
                break 'run;
            }
        }
    }

    let (fault_losses, fault_rejected) = net.fault_totals();
    res.fault_losses = fault_losses;
    res.fault_rejected = fault_rejected;
    res.stall = stalled;
    res.outcome = if stalled.is_some() {
        RunOutcome::Stalled
    } else if fault_losses + fault_rejected > 0 {
        RunOutcome::Faulted
    } else if net.in_network() == 0 && net.source_queued() == 0 {
        RunOutcome::Drained
    } else {
        RunOutcome::CyclesExhausted
    };

    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{RoutingSpec, TopologySpec};
    use icn_traffic::Pattern;

    fn quick(cfg: &RunConfig) -> RunResult {
        run(cfg)
    }

    #[test]
    fn low_load_delivers_everything_cleanly() {
        let mut cfg = RunConfig::small_default();
        cfg.load = 0.2;
        cfg.routing = RoutingSpec::Tfar;
        cfg.sim.vcs_per_channel = 2;
        let r = quick(&cfg);
        assert!(r.delivered > 0);
        assert_eq!(r.deadlocks, 0, "TFAR2 at 20% load must be deadlock-free");
        assert!(r.accepted_load() > 0.15, "accepted {}", r.accepted_load());
        assert!(r.avg_latency() > 0.0);
    }

    #[test]
    fn dor1_uni_torus_deadlocks_at_high_load() {
        let mut cfg = RunConfig::small_default();
        cfg.topology = TopologySpec::torus(8, 2, false);
        cfg.routing = RoutingSpec::Dor;
        cfg.sim.vcs_per_channel = 1;
        cfg.load = 1.0;
        let r = quick(&cfg);
        assert!(r.deadlocks > 0, "uni-torus DOR1 at capacity must deadlock");
        assert!(r.recovered > 0, "victims must drain through recovery");
        assert!(r.single_cycle_deadlocks > 0);
        assert!(r.deadlock_set.mean() >= 2.0);
        // Incident reporting and recovery bookkeeping.
        assert!(r.victims_started >= r.deadlocks);
        assert!(!r.incidents.is_empty());
        assert!(r.incidents.len() <= RunResult::MAX_INCIDENTS);
        assert!(r.resolution_latency.count() > 0);
        // A 32-flit victim takes at least 32 cycles to drain.
        assert!(r.resolution_latency.min() >= 32);
        for inc in &r.incidents {
            assert!(inc.deadlock_set_size >= 2);
            assert!(inc.resource_set_size >= inc.deadlock_set_size);
            assert!(inc.knot_cycle_density >= 1);
        }
    }

    #[test]
    fn dateline_avoidance_never_deadlocks() {
        let mut cfg = RunConfig::small_default();
        cfg.topology = TopologySpec::torus(8, 2, false);
        cfg.routing = RoutingSpec::DatelineDor;
        cfg.sim.vcs_per_channel = 2;
        cfg.load = 1.0;
        let r = quick(&cfg);
        assert_eq!(r.deadlocks, 0);
        assert!(r.delivered > 0);
    }

    #[test]
    fn cycle_counting_records_series() {
        let mut cfg = RunConfig::small_default();
        cfg.routing = RoutingSpec::Tfar;
        cfg.sim.vcs_per_channel = 1;
        cfg.load = 1.0;
        cfg.count_cycles_every = Some(2);
        let r = quick(&cfg);
        assert!(!r.cwg_cycles.is_empty());
        assert_eq!(r.cwg_cycles.len(), r.blocked_frac.len());
    }

    #[test]
    fn deterministic_given_seed() {
        let mut cfg = RunConfig::small_default();
        cfg.load = 0.9;
        cfg.routing = RoutingSpec::Dor;
        let a = quick(&cfg);
        let b = quick(&cfg);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.deadlocks, b.deadlocks);
        assert_eq!(a.generated, b.generated);
    }

    /// A construct-a-livelock config: recovery disabled on a wedging
    /// regime, so the network deadlocks and stays deadlocked forever. The
    /// watchdog must cut the run with a coherent stall report instead of
    /// burning the whole cycle budget on a frozen network.
    #[test]
    fn watchdog_cuts_a_wedged_run() {
        let mut cfg = RunConfig::small_default();
        cfg.topology = TopologySpec::torus(4, 2, false);
        cfg.routing = RoutingSpec::Tfar;
        cfg.sim.vcs_per_channel = 1;
        cfg.load = 1.1;
        cfg.recovery = crate::RecoveryPolicy::None;
        cfg.warmup = 500;
        cfg.measure = 100_000; // never reached: the watchdog fires first
        cfg.stall_threshold = Some(300);
        let r = quick(&cfg);
        assert_eq!(r.outcome, crate::RunOutcome::Stalled);
        let st = r.stall.expect("stalled run carries a report");
        assert!(st.cycle >= st.last_progress_cycle + 300);
        assert!(st.cycle < cfg.warmup + cfg.measure, "cut early");
        assert!(st.in_network > 0, "a stall has traffic stuck in flight");
        assert_eq!(st.blocked, st.in_network, "a total wedge blocks everyone");
        // Both steppers agree byte-for-byte on the truncated run.
        assert_eq!(r.digest(), run_reference(&cfg).digest());
    }

    /// The watchdog must NOT fire on a healthy recovering run: recovery
    /// starts and drains count as progress even deep in saturation.
    #[test]
    fn watchdog_spares_a_recovering_run() {
        let mut cfg = RunConfig::small_default();
        cfg.topology = TopologySpec::torus(8, 2, false);
        cfg.routing = RoutingSpec::Dor;
        cfg.sim.vcs_per_channel = 1;
        cfg.load = 1.0;
        cfg.warmup = 200;
        cfg.measure = 2_000;
        cfg.stall_threshold = Some(300);
        let r = quick(&cfg);
        assert!(r.deadlocks > 0, "regime must deadlock for the test to bite");
        assert_ne!(r.outcome, crate::RunOutcome::Stalled);
        assert!(r.stall.is_none());
    }

    /// A fault plan classifies the run as Faulted, counts its losses, and
    /// stays byte-identical across both steppers — for a hand-written
    /// plan and for a seeded `random_plan` on a small torus.
    #[test]
    fn fault_plan_run_is_deterministic_and_classified() {
        let mut cfg = RunConfig::small_default();
        cfg.routing = RoutingSpec::Tfar;
        cfg.sim.vcs_per_channel = 2;
        cfg.load = 0.6;
        cfg.warmup = 300;
        cfg.measure = 1_500;
        cfg.faults.link_outage(3, 400, 700).link_kill(900, 17);
        let a = quick(&cfg);
        let b = run_reference(&cfg);
        assert_eq!(a.digest(), b.digest(), "steppers diverged under faults");
        assert_eq!(a.outcome, crate::RunOutcome::Faulted);
        assert!(
            a.fault_losses + a.fault_rejected > 0,
            "a killed channel at 60% load must catch some traffic"
        );

        // A seeded random plan (transient outages, a kill, a router
        // stall, an injector outage) must actually bite.
        let mut cfg = RunConfig::small_default();
        cfg.topology = TopologySpec::torus(4, 2, true);
        cfg.routing = RoutingSpec::Tfar;
        cfg.sim.vcs_per_channel = 2;
        cfg.load = 0.8;
        cfg.warmup = 200;
        cfg.measure = 1_800;
        cfg.faults = crate::faults::random_plan(&cfg.topology, cfg.warmup + cfg.measure, 0xfa17);
        let a = quick(&cfg);
        assert_eq!(
            a.outcome,
            crate::RunOutcome::Faulted,
            "the random plan never bit"
        );
        assert_eq!(a.digest(), run_reference(&cfg).digest());
    }

    /// A drained run (finite traffic via zero load after warmup is not
    /// expressible, so use a tiny load and a long window) reports Drained
    /// when the network empties.
    #[test]
    fn outcome_reflects_emptiness() {
        let mut cfg = RunConfig::small_default();
        cfg.load = 0.05;
        cfg.routing = RoutingSpec::Tfar;
        cfg.sim.vcs_per_channel = 2;
        cfg.warmup = 100;
        cfg.measure = 500;
        let r = quick(&cfg);
        // At 5% load the network is essentially always near-empty; either
        // ending is legal but it must be fault-free and unstalled.
        assert!(matches!(
            r.outcome,
            crate::RunOutcome::Drained | crate::RunOutcome::CyclesExhausted
        ));
        assert_eq!(r.fault_losses, 0);
        assert_eq!(r.stall, None);
    }

    #[test]
    fn transpose_pattern_runs() {
        let mut cfg = RunConfig::small_default();
        cfg.pattern = Pattern::Transpose;
        cfg.load = 0.3;
        cfg.routing = RoutingSpec::Tfar;
        cfg.sim.vcs_per_channel = 2;
        let r = quick(&cfg);
        assert!(r.delivered > 0);
    }
}
