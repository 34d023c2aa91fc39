//! FlexSim: the orchestrating simulator of the reproduction.
//!
//! The paper's methodology (§3) is: run a flit-level network simulation
//! with **no routing restrictions**, invoke a true deadlock detector every
//! 50 cycles, break each detected knot by removing one deadlock-set
//! message flit-by-flit (synthesized Disha recovery), and record deadlock
//! frequency and structure across parameter sweeps. This crate wires the
//! substrates together:
//!
//! * [`RunConfig`] — one simulation point (topology, routing, VCs, buffer
//!   depth, traffic pattern, normalized load, detection cadence, seeds).
//! * [`run`] — executes one point and produces a [`RunResult`] with the
//!   paper's metrics: normalized deadlocks, deadlock/resource set sizes,
//!   knot cycle densities, cyclic non-deadlock counts, congestion and
//!   throughput.
//! * [`sweep`] — runs many points across OS threads, deterministically,
//!   each through the one supervised run ([`run_supervised`]).
//! * [`experiments`] — the experiment index used by the `repro` binary
//!   and the integration tests: the per-figure sweeps (Figures 5–8, §3.5
//!   node degree, §3.6 traffic patterns), the ablations and the §5
//!   extensions, each with the claims that judge it.
//! * [`report`] — plain-text table rendering of sweep results.
//!
//! # Example
//!
//! ```
//! use flexsim::{run, RunConfig, RoutingSpec, TopologySpec};
//!
//! let mut cfg = RunConfig::small_default();
//! cfg.topology = TopologySpec::torus(4, 2, true);
//! cfg.routing = RoutingSpec::Tfar;
//! cfg.sim.vcs_per_channel = 2;
//! cfg.load = 0.3;
//! cfg.warmup = 100;
//! cfg.measure = 400;
//!
//! let result = run(&cfg);
//! assert!(result.delivered > 0);
//! assert_eq!(result.deadlocks, 0); // TFAR with 2 VCs at low load
//! ```

pub mod chart;
mod checkpoint;
pub mod experiments;
pub mod faults;
pub mod forensics;
pub mod jsonio;
pub mod report;
mod result;
mod runner;
mod spec;
mod sweep;
mod tail;
pub mod validate;

pub use checkpoint::{
    checkpoint_line, checkpoint_status_line, decode_result, encode_result, splice_checkpoint_line,
    EncodedResult, RESULT_CODEC,
};
pub use faults::{FaultEvent, FaultKind, FaultPlan};
pub use forensics::ForensicsConfig;
pub use result::{Incident, RunOutcome, RunResult, StallReport};
pub use runner::{run, run_reference, run_reference_with, run_with, EpochView, RunObserver};
pub use spec::{config_from_json, config_to_json, RecoveryPolicy, RoutingSpec, TopologySpec};
pub use sweep::{run_supervised, sweep, sweep_supervised, CancelToken, SweepError, SweepOptions};
pub use tail::{read_results, CheckpointRestore, CheckpointTail, LineSpan, Verdict};

/// Version tag of the simulation semantics, baked into the campaign
/// server's content-addressed cache keys. Bump it whenever a change can
/// alter any [`RunResult`] digest for an unchanged configuration — a
/// perf refactor that stays byte-identical (the repo's differential
/// suites enforce this) does NOT need a bump, which is what makes cached
/// results durable across such PRs.
pub const ENGINE_VERSION: &str = "flexsim-engine-v2";

use icn_traffic::{MsgLenDist, Pattern};

/// One simulation point.
#[derive(Clone, Debug, PartialEq)]
pub struct RunConfig {
    /// Network shape.
    pub topology: TopologySpec,
    /// Routing relation.
    pub routing: RoutingSpec,
    /// Flit-level parameters (VCs, buffer depth, default message length).
    pub sim: icn_sim::SimConfig,
    /// Spatial traffic pattern.
    pub pattern: Pattern,
    /// Message-length distribution. `Fixed` lengths reproduce the paper;
    /// `Bimodal` exercises its hybrid-length future-work item.
    pub len_dist: MsgLenDist,
    /// Offered load as a fraction of network capacity.
    pub load: f64,
    /// Cycles before measurement starts (reaching steady state).
    pub warmup: u64,
    /// Measured cycles (the paper uses 30,000 beyond steady state).
    pub measure: u64,
    /// Deadlock-detection cadence in cycles (paper: 50): how often the
    /// event-patched wait graph is brought up to date and asked for a knot
    /// verdict. `1` gives every knot's exact first-true cycle; `0` is
    /// refused by [`RunConfig::check`].
    pub detection_interval: u64,
    /// When `Some(n)`, count CWG resource-dependency cycles every `n`-th
    /// detection epoch (the cyclic non-deadlock metric; costs time).
    /// `Some(0)` is refused by [`RunConfig::check`].
    pub count_cycles_every: Option<u64>,
    /// Cap on whole-graph elementary-cycle enumeration.
    pub cycle_cap: u64,
    /// Cap on per-knot cycle-density enumeration. Must be at least 2:
    /// enumeration stops at the cap, so below 2 a single-cycle knot is
    /// indistinguishable from a multi-cycle one and every deadlock would
    /// be classified multi-cycle. [`RunConfig::check`] refuses smaller
    /// values, so neither [`run`] nor [`config_from_json`] accepts them.
    pub density_cap: u64,
    /// How deadlocks are broken.
    pub recovery: RecoveryPolicy,
    /// RNG seed (traffic generation).
    pub seed: u64,
    /// When `Some`, capture full [`forensics::DeadlockIncident`] records
    /// (CWG, formation timelines, recovery outcome) for detected knots.
    /// Tracing never perturbs the simulation, so a forensic run is
    /// cycle-identical to a plain one under the same seed.
    pub forensics: Option<ForensicsConfig>,
    /// Scheduled fault injection (link outages, router stalls, injector
    /// failures). An empty plan is byte-identical to no plan.
    pub faults: FaultPlan,
    /// Inert shim, read by nothing: the partitioned decide it selected is
    /// gone. Kept only because `benchmark/src/run.rs` sets it; dropped
    /// with ROADMAP item 1.
    pub shards: usize,
    /// Progress watchdog: when `Some(t)`, a run that makes no progress
    /// (no injection, link movement, drain, delivery, recovery start, or
    /// fault accounting) for `t` consecutive cycles ends early with
    /// [`RunOutcome::Stalled`] and a [`StallReport`]. `None` disables the
    /// watchdog — required for configs that deliberately wedge forever
    /// (e.g. recovery disabled).
    pub stall_threshold: Option<u64>,
}

impl RunConfig {
    /// The paper's default setup (§3): bidirectional 16-ary 2-cube,
    /// 32-flit messages, 2-flit buffers, uniform traffic, detection every
    /// 50 cycles, victim-removal recovery.
    pub fn paper_default() -> Self {
        RunConfig {
            topology: TopologySpec::torus(16, 2, true),
            routing: RoutingSpec::Dor,
            sim: icn_sim::SimConfig::default(),
            pattern: Pattern::Uniform,
            len_dist: MsgLenDist::Fixed(icn_sim::SimConfig::default().msg_len),
            load: 0.5,
            warmup: 10_000,
            measure: 30_000,
            detection_interval: 50,
            count_cycles_every: None,
            cycle_cap: 150_000,
            density_cap: 2_000,
            recovery: RecoveryPolicy::RemoveOldest,
            seed: 0x5ca1ab1e,
            forensics: None,
            faults: FaultPlan::new(),
            shards: 1,
            stall_threshold: None,
        }
    }

    /// A scaled-down variant for tests: an 8-ary 2-cube and short windows,
    /// exercising the same code paths in milliseconds.
    pub fn small_default() -> Self {
        RunConfig {
            topology: TopologySpec::torus(8, 2, true),
            warmup: 1_000,
            measure: 4_000,
            ..Self::paper_default()
        }
    }

    /// Refuses a configuration [`run`] would panic on, with the message it
    /// would panic with: the runner asserts exactly this before it builds
    /// anything, and [`config_from_json`] calls it so that a submission
    /// the runner cannot run is refused when it is read. The sim rules
    /// come first, so the network is sized with at least one VC per
    /// channel, and it is sized arithmetically ([`TopologySpec::sizes`]),
    /// so a network too large to allocate is refused, not built.
    pub fn check(&self) -> Result<(), String> {
        self.sim.check_for(&*self.routing.build())?;
        let (nodes, channels) = self.topology.sizes(self.sim.vcs_per_channel)?;
        self.pattern.check(nodes)?;
        self.len_dist.check()?;
        self.faults.check(channels, nodes)?;
        icn_traffic::check_load(self.load)?;
        if self.detection_interval == 0 {
            return Err(
                "`detection_interval` must be at least 1: a zero cadence never \
                 reaches an epoch, so detection and recovery would silently stop"
                    .into(),
            );
        }
        if self.count_cycles_every == Some(0) {
            return Err(
                "`count_cycles_every` must be null or at least 1: a zero cadence \
                 never takes the census"
                    .into(),
            );
        }
        if self.warmup.checked_add(self.measure).is_none() {
            return Err(
                "`warmup` + `measure` must fit in 64 bits: the run is that many cycles long".into(),
            );
        }
        if self.density_cap < 2 {
            return Err(
                "`density_cap` must be at least 2: a smaller cap stops at the first \
                 cycle, so every knot would be classified multi-cycle"
                    .into(),
            );
        }
        Ok(())
    }

    /// Human-readable label for reports. Fault-free configs keep the
    /// historical format; a fault plan appends its event count so faulted
    /// regimes are distinguishable in tables and sweeps.
    pub fn label(&self) -> String {
        let mut s = format!(
            "{} {} vc={} buf={} load={:.2} {}",
            self.topology.label(),
            self.routing.name(),
            self.sim.vcs_per_channel,
            self.sim.buffer_depth,
            self.load,
            self.pattern.name(),
        );
        if !self.faults.is_empty() {
            s.push_str(&format!(" faults={}", self.faults.events.len()));
        }
        s
    }
}
