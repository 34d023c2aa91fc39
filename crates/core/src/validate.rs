//! Run-coupled validation: the invariant-auditing run observer, live
//! differential oracle checks, and forensics-incident auditing.
//!
//! The structure-only validation machinery (naive oracle, brute-force
//! enumerator, random CWG generator, exhaustive small-world explorer)
//! lives in [`icn_validate`] and is re-exported here. This module adds
//! the pieces that need the runner:
//!
//! * [`ValidationObserver`] — a [`RunObserver`] that audits every cycle
//!   and every detection epoch of a live run: flit conservation, monotone
//!   counters, no duplicate deliveries, routing minimality, recovery
//!   liveness, no deadlock-set recurrence under recovery, and a full
//!   differential check of the production verdict and analysis
//!   (skipped and knot-free epochs included) against the
//!   naive oracle and the brute-force enumerator, from the observer's own
//!   capture of the live network. The torture harness in
//!   `tests/validation.rs` attaches it to long-horizon runs on **both**
//!   steppers and cross-checks their digests.
//! * [`random_config`] / [`campaign`] — seeded random [`RunConfig`]s
//!   spanning topologies, routings, recoveries, and detection cadences,
//!   each run under full observation.
//! * [`check_incident`] / [`check_incident_store`] — re-audits stored
//!   forensics incidents: the recorded production analysis must match
//!   what the oracle derives from the recorded CWG.
//!
//! Every production-vs-oracle comparison goes through the one comparator,
//! [`check_messages`], skipped epochs included.
//! Any oracle divergence yields a minimized reproducer
//! ([`divergence_repro_json`]): a [`CwgSnapshot`] in its JSON form, the
//! shape forensics incidents store, so it replays through
//! [`CwgSnapshot::from_json`].

use std::collections::{HashMap, HashSet};
use std::io;
use std::ops::ControlFlow;
use std::path::Path;

pub use icn_validate::{
    check_cycle_counts, check_messages, explore, minimal_deadlock_sets, minimize_divergence,
    oracle_analyze, random_snapshot, Divergence, ExploreConfig, ExploreReport, ExploreRouting,
    GenParams, OracleAnalysis, OracleDependent, OracleKnot, SplitMix64, BRUTE_FORCE_CAP,
};

use icn_cwg::CwgSnapshot;
use icn_sim::{MsgPhase, Network, StepEvents};
use icn_topology::KAryNCube;
use icn_traffic::{MsgLenDist, Pattern};

use crate::forensics::{DeadlockIncident, IncidentStore};
use crate::runner::{run_with, EpochView, RunObserver};
use crate::spec::{RecoveryPolicy, RoutingSpec, TopologySpec};
use crate::RunConfig;

/// Upper bound on retained violation messages (audits keep running, but
/// a broken invariant usually fails every subsequent cycle too).
const MAX_VIOLATIONS: usize = 32;

/// Cycles a recovery victim may spend draining before the liveness audit
/// flags it. Victims drain flit-by-flit and a recovery lane serves one
/// flit per cycle per node, so this is generous for every test topology.
const RECOVERY_DRAIN_BOUND: u64 = 20_000;

/// Renders the production-vs-oracle divergence reproducer: the snapshot is
/// greedily minimized and serialized as CWG JSON (parseable back through
/// [`CwgSnapshot::from_json`]).
pub fn divergence_repro_json(snap: &CwgSnapshot) -> String {
    minimize_divergence(snap).to_json().to_string()
}

/// A [`RunObserver`] auditing a live run against the §2 theory and the
/// engine's own conservation laws. Attach with [`run_with`] (or
/// [`run_reference_with`](crate::run_reference_with)); afterwards inspect
/// [`violations`](Self::violations) — empty means every audited cycle and
/// epoch passed.
pub struct ValidationObserver {
    topo: KAryNCube,
    /// Routing is minimal: delivered hop counts must equal distance.
    minimal_routing: bool,
    /// Recovery is enabled: every knot is broken, so an exact deadlock
    /// set can never recur (victims hold sink chains and never re-block;
    /// message ids are unique per run).
    recurrence_check: bool,
    /// The observer's own capture of the wait state, taken at every epoch
    /// whose `EpochView::captured` is false (nearly all: the detector
    /// works from events and the runner's arena is stale by design).
    audit_arena: icn_sim::SnapshotArena,
    prev_totals: (u64, u64, u64, u64),
    delivered_ids: HashSet<u64>,
    seen_sets: HashSet<Vec<u64>>,
    recovering_since: HashMap<u64, u64>,
    /// Every audit failure, capped at `MAX_VIOLATIONS`.
    pub violations: Vec<String>,
    /// First oracle divergence, minimized, as forensics-shaped JSON.
    pub divergence_repro: Option<String>,
    /// Cycles audited.
    pub cycles: u64,
    /// Detection epochs audited (every one is differentially checked).
    pub epochs: u64,
    /// Epochs at which the production detector reported a knot.
    pub deadlock_epochs: u64,
}

impl ValidationObserver {
    /// Observer for one run of `cfg`.
    pub fn new(cfg: &RunConfig) -> Self {
        ValidationObserver {
            topo: cfg.topology.build(),
            minimal_routing: !matches!(cfg.routing, RoutingSpec::Misroute { .. }),
            recurrence_check: cfg.recovery != RecoveryPolicy::None,
            audit_arena: icn_sim::SnapshotArena::new(),
            prev_totals: (0, 0, 0, 0),
            delivered_ids: HashSet::new(),
            seen_sets: HashSet::new(),
            recovering_since: HashMap::new(),
            violations: Vec::new(),
            divergence_repro: None,
            cycles: 0,
            epochs: 0,
            deadlock_epochs: 0,
        }
    }

    /// True when no audit failed.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    fn violate(&mut self, cycle: u64, msg: String) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(format!("cycle {cycle}: {msg}"));
        }
    }
}

impl RunObserver for ValidationObserver {
    fn on_cycle(&mut self, net: &Network, ev: &StepEvents) -> ControlFlow<()> {
        self.cycles += 1;
        let cycle = net.cycle();

        // Monotone non-negative lifetime counters.
        let t = net.totals();
        let p = self.prev_totals;
        if t.0 < p.0 || t.1 < p.1 || t.2 < p.2 || t.3 < p.3 {
            self.violate(
                cycle,
                format!("lifetime counters regressed: {p:?} -> {t:?}"),
            );
        }
        self.prev_totals = t;

        // Flit/message conservation, modulo counted fault accounting:
        // generated = injected + source-queued + fault-rejected,
        // injected = delivered + in-network + fault-lost, recovered
        // within delivered. With no fault plan both fault terms are zero
        // and the classic laws hold exactly.
        let (generated, injected, delivered, recovered) = t;
        let (fault_losses, fault_rejected) = net.fault_totals();
        if generated != injected + net.source_queued() as u64 + fault_rejected {
            self.violate(
                cycle,
                format!(
                    "conservation: generated={generated} != injected={injected} \
                     + source_queued={} + fault_rejected={fault_rejected}",
                    net.source_queued()
                ),
            );
        }
        if injected != delivered + net.in_network() as u64 + fault_losses {
            self.violate(
                cycle,
                format!(
                    "conservation: injected={injected} != delivered={delivered} \
                     + in_network={} + fault_losses={fault_losses}",
                    net.in_network()
                ),
            );
        }
        if recovered > delivered {
            self.violate(
                cycle,
                format!("recovered={recovered} exceeds delivered={delivered}"),
            );
        }

        for d in &ev.delivered {
            if !self.delivered_ids.insert(d.id) {
                self.violate(cycle, format!("message {} delivered twice", d.id));
            }
            if d.latency < d.network_latency {
                self.violate(
                    cycle,
                    format!(
                        "message {}: latency {} below network latency {}",
                        d.id, d.latency, d.network_latency
                    ),
                );
            }
            if d.recovered {
                self.recovering_since.remove(&d.id);
                continue;
            }
            // Normal deliveries: the header crossed at least distance
            // channels, exactly distance under a minimal relation, and the
            // message spent at least `len` cycles in the network (its
            // flits serialize one per cycle through every resource).
            let dist = self.topo.distance(d.src, d.dst);
            if d.hops < dist {
                self.violate(
                    cycle,
                    format!(
                        "message {}: {} hops below distance {dist} ({:?} -> {:?})",
                        d.id, d.hops, d.src, d.dst
                    ),
                );
            }
            if self.minimal_routing && d.hops != dist {
                self.violate(
                    cycle,
                    format!(
                        "minimality: message {} took {} hops, distance is {dist}",
                        d.id, d.hops
                    ),
                );
            }
            if d.network_latency < d.len as u64 {
                self.violate(
                    cycle,
                    format!(
                        "message {}: network latency {} below length {}",
                        d.id, d.network_latency, d.len
                    ),
                );
            }
        }
        ControlFlow::Continue(())
    }

    fn on_epoch(&mut self, view: &EpochView<'_>) -> ControlFlow<()> {
        self.epochs += 1;
        let cycle = view.cycle;

        // Engine self-consistency (ownership, occupancy, phase coherence).
        view.net.check_invariants();

        // Differential oracle check — including skipped and knot-free
        // epochs, where the production placeholder claims "no knots". The
        // detector never looks at a capture, so the audit takes a fresh
        // one of the live network instead of trusting its claim.
        let arena = if view.captured {
            view.arena
        } else {
            view.net.wait_snapshot_into(&mut self.audit_arena);
            &self.audit_arena
        };
        let snap = CwgSnapshot::from_messages(
            arena.num_vertices(),
            arena.messages().map(|m| (m.id, m.chain, m.requests)),
        );
        // A skipped epoch carries the same knot-free placeholder as any
        // other knot-free epoch, so the one comparator covers it too.
        let diffs: Vec<String> = check_messages(&snap, Some(view.analysis))
            .iter()
            .map(ToString::to_string)
            .collect();
        if !diffs.is_empty() {
            if self.divergence_repro.is_none() {
                self.divergence_repro = Some(divergence_repro_json(&snap));
            }
            for d in diffs {
                self.violate(cycle, format!("oracle divergence: {d}"));
            }
        }

        if view.analysis.has_deadlock() {
            self.deadlock_epochs += 1;
            if self.recurrence_check {
                for d in &view.analysis.deadlocks {
                    let mut set = d.deadlock_set.clone();
                    set.sort_unstable();
                    if !self.seen_sets.insert(set.clone()) {
                        self.violate(
                            cycle,
                            format!("deadlock set {set:?} recurred despite recovery"),
                        );
                    }
                }
            }
        }

        // Recovery liveness: victims drain flit-by-flit and must deliver;
        // a victim stuck in the recovery lane past the drain bound means
        // recovery wedged.
        for id in view.net.active_ids() {
            if let Some(info) = view.net.message_info(id) {
                if info.phase == MsgPhase::Recovering {
                    let since = *self.recovering_since.entry(id).or_insert(cycle);
                    if cycle - since > RECOVERY_DRAIN_BOUND {
                        self.violate(
                            cycle,
                            format!("recovery liveness: victim {id} draining since cycle {since}"),
                        );
                    }
                }
            }
        }
        ControlFlow::Continue(())
    }
}

/// Deterministically draws one randomized [`RunConfig`] from `seed`:
/// topology, routing relation (with a VC count satisfying its minimum),
/// buffers, lengths, load, pattern, detection cadence and recovery policy
/// all vary. Windows are short — the campaign's power
/// is breadth.
pub fn random_config(seed: u64) -> RunConfig {
    let mut rng = SplitMix64::new(seed ^ 0x76a1_1da7_e000_0000);
    let mut cfg = RunConfig::paper_default();

    cfg.topology = match rng.gen_range(4) {
        0 => TopologySpec::torus(4, 2, true),
        1 => TopologySpec::torus(4, 2, false),
        2 => TopologySpec::torus(8, 1, false),
        _ => TopologySpec::mesh(4, 2),
    };
    cfg.routing = match rng.gen_range(6) {
        0 => RoutingSpec::Dor,
        1 => RoutingSpec::Tfar,
        2 => RoutingSpec::DatelineDor,
        3 => RoutingSpec::Duato,
        4 => RoutingSpec::Misroute {
            budget: 1 + rng.gen_range(3) as u8,
        },
        _ => RoutingSpec::WestFirst,
    };
    if cfg.routing == RoutingSpec::WestFirst {
        // Turn models here are 2-D mesh relations.
        cfg.topology = TopologySpec::mesh(4, 2);
    }
    let min_vcs = match cfg.routing {
        RoutingSpec::DatelineDor => 2,
        RoutingSpec::Duato => 3,
        _ => 1,
    };
    cfg.sim.vcs_per_channel = min_vcs + rng.gen_range(2);
    cfg.sim.buffer_depth = [2, 4, 8][rng.gen_range(3)];
    cfg.sim.msg_len = [4, 8][rng.gen_range(2)];
    cfg.len_dist = MsgLenDist::Fixed(cfg.sim.msg_len);
    // Every drawn topology has a power-of-two node count, so permutation
    // patterns are always admissible.
    cfg.pattern = match rng.gen_range(4) {
        0 => Pattern::Transpose,
        1 => Pattern::BitReversal,
        _ => Pattern::Uniform,
    };
    cfg.load = 0.3 + (rng.gen_range(11) as f64) * 0.1;
    cfg.detection_interval = [10, 25, 50][rng.gen_range(3)];
    // Was the `fingerprint_skip` draw; consumed so that a campaign seed
    // still names the same config.
    let _ = rng.gen_range(2);
    cfg.recovery = match rng.gen_range(8) {
        0 => RecoveryPolicy::None,
        1..=2 => RecoveryPolicy::RemoveYoungest,
        _ => RecoveryPolicy::RemoveOldest,
    };
    cfg.count_cycles_every = if rng.gen_range(4) == 0 { Some(3) } else { None };
    cfg.warmup = 200;
    cfg.measure = 800;
    cfg.seed = rng.next_u64();
    cfg
}

/// Outcome of a randomized live campaign ([`campaign`]).
#[derive(Clone, Debug, Default)]
pub struct CampaignOutcome {
    /// Configs run.
    pub configs: usize,
    /// Detection epochs differentially checked against the oracle.
    pub epochs_checked: u64,
    /// Epochs at which the production detector reported a knot.
    pub deadlock_epochs: u64,
    /// Per-config failures: `(label, violations, minimized repro)`.
    pub failures: Vec<(String, Vec<String>, Option<String>)>,
}

impl CampaignOutcome {
    /// True when every config passed every audit.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs `num_configs` seeded random configs (seeds `base_seed..`), each
/// under a fresh [`ValidationObserver`] on the activity stepper.
pub fn campaign(num_configs: usize, base_seed: u64) -> CampaignOutcome {
    let mut out = CampaignOutcome::default();
    for i in 0..num_configs {
        let cfg = random_config(base_seed + i as u64);
        let mut obs = ValidationObserver::new(&cfg);
        run_with(&cfg, &mut obs);
        out.configs += 1;
        out.epochs_checked += obs.epochs;
        out.deadlock_epochs += obs.deadlock_epochs;
        if !obs.ok() {
            out.failures
                .push((cfg.label(), obs.violations, obs.divergence_repro));
        }
    }
    out
}

/// Re-audits one stored forensics incident: the recorded production
/// analysis must match what the oracle derives from the recorded CWG, and
/// so must a fresh rebuild of that CWG, the slim detector path and the
/// brute-force enumerator — one [`check_messages`] pass.
pub fn check_incident(inc: &DeadlockIncident) -> Vec<String> {
    let mut out: Vec<String> = check_messages(&inc.cwg, Some(&inc.analysis))
        .iter()
        .map(ToString::to_string)
        .collect();
    // An incident records a detection: it must actually contain a knot.
    if !inc.analysis.has_deadlock() {
        out.push("incident stores no deadlock".to_string());
    }
    out
}

/// Audits every incident in a forensics store directory. Returns
/// `(file name, problems)` pairs for incidents that failed, or an I/O
/// error if the store is unreadable.
pub fn check_incident_store(dir: impl AsRef<Path>) -> io::Result<Vec<(String, Vec<String>)>> {
    let store = IncidentStore::open(dir)?;
    let mut failures = Vec::new();
    for entry in store.list()? {
        let inc = store.load(&entry.file)?;
        let problems = check_incident(&inc);
        if !problems.is_empty() {
            failures.push((entry.file, problems));
        }
    }
    Ok(failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observer_passes_a_clean_low_load_run() {
        let mut cfg = RunConfig::small_default();
        cfg.load = 0.2;
        cfg.routing = RoutingSpec::Tfar;
        cfg.sim.vcs_per_channel = 2;
        cfg.warmup = 200;
        cfg.measure = 800;
        let mut obs = ValidationObserver::new(&cfg);
        run_with(&cfg, &mut obs);
        assert!(obs.ok(), "violations: {:?}", obs.violations);
        assert!(obs.epochs > 0);
        assert_eq!(obs.cycles, cfg.warmup + cfg.measure);
    }

    #[test]
    fn observer_passes_a_deadlock_heavy_run() {
        let mut cfg = RunConfig::small_default();
        cfg.topology = TopologySpec::torus(4, 2, false);
        cfg.routing = RoutingSpec::Dor;
        cfg.sim.vcs_per_channel = 1;
        cfg.load = 1.0;
        cfg.warmup = 200;
        cfg.measure = 1500;
        cfg.detection_interval = 25;
        let mut obs = ValidationObserver::new(&cfg);
        run_with(&cfg, &mut obs);
        assert!(obs.ok(), "violations: {:?}", obs.violations);
        assert!(obs.deadlock_epochs > 0, "regime must actually deadlock");
    }

    /// Every config drawn here — seeds `0..32` and the 16 that `repro
    /// validate` draws by default — is one the codec admits.
    #[test]
    fn random_configs_are_deterministic_and_valid() {
        for seed in (0..32).chain(0xdeadbeef..0xdeadbeef + 16) {
            let a = random_config(seed);
            let b = random_config(seed);
            assert_eq!(a, b);
            let back = crate::config_from_json(&crate::config_to_json(&a));
            assert_eq!(back.as_ref(), Ok(&a), "seed {seed}");
            if a.routing == RoutingSpec::WestFirst {
                assert!(!a.topology.torus);
            }
        }
    }

    #[test]
    fn divergence_repro_is_parseable_cwg_json() {
        let snap =
            CwgSnapshot::from_messages(4, [(1, &[0, 1][..], &[2][..]), (2, &[2, 3][..], &[0][..])]);
        let json = divergence_repro_json(&snap);
        let parsed = icn_cwg::jsonio::parse(&json).expect("valid json");
        let back = CwgSnapshot::from_json(&parsed).expect("valid cwg snapshot");
        assert_eq!(back, snap, "an agreeing snapshot is its own reproducer");
    }
}
