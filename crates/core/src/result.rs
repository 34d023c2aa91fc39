//! Per-run measurement record and derived metrics.

use icn_metrics::{Histogram, Mean, TimeSeries};

/// How a run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// The network was empty (nothing in flight or source-queued) when the
    /// cycle budget ran out.
    Drained,
    /// The cycle budget ran out with traffic still in flight — the normal
    /// ending for a saturated steady-state measurement.
    CyclesExhausted,
    /// The progress watchdog fired: no delivery, injection, link movement,
    /// drain, fault accounting, or recovery start for
    /// [`crate::RunConfig::stall_threshold`] cycles. See
    /// [`RunResult::stall`] for the forensic summary.
    Stalled,
    /// The run completed its budget but fault injection dropped or
    /// rejected traffic along the way.
    Faulted,
}

impl RunOutcome {
    /// Stable lower-case name, used in digests, JSON, and reports.
    pub fn name(self) -> &'static str {
        match self {
            RunOutcome::Drained => "drained",
            RunOutcome::CyclesExhausted => "cycles-exhausted",
            RunOutcome::Stalled => "stalled",
            RunOutcome::Faulted => "faulted",
        }
    }
}

/// Forensic summary attached to a [`RunOutcome::Stalled`] run: where the
/// watchdog fired and what the network looked like at that moment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StallReport {
    /// Cycle at which the watchdog fired.
    pub cycle: u64,
    /// Last cycle that showed any progress signal.
    pub last_progress_cycle: u64,
    /// Messages holding network resources when the run was cut.
    pub in_network: usize,
    /// Of those, how many were blocked.
    pub blocked: usize,
    /// Messages still waiting in source queues.
    pub source_queued: usize,
}

/// Everything measured during one simulation point.
///
/// Raw counters cover the measurement window only (after warm-up);
/// detection and recovery run during warm-up too, but are not recorded.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Label of the configuration that produced this result.
    pub label: String,
    /// Offered load (fraction of capacity).
    pub offered_load: f64,
    /// Measured cycles.
    pub cycles: u64,
    /// Nodes in the network.
    pub nodes: usize,
    /// Network capacity in flits/node/cycle (for normalization).
    pub capacity: f64,
    /// Message length in flits.
    pub msg_len: usize,

    /// Messages generated / injected / delivered / recovered in-window.
    pub generated: u64,
    pub injected: u64,
    pub delivered: u64,
    pub recovered: u64,
    /// Flits delivered in-window (exact, even for hybrid lengths).
    pub delivered_flits: u64,
    /// Message latency, generation → delivery.
    pub latency: Histogram,
    /// Flits that crossed physical links (utilization).
    pub link_flits: u64,

    /// True deadlocks (knots) detected in-window.
    pub deadlocks: u64,
    /// Split by §2.2 classification.
    pub single_cycle_deadlocks: u64,
    pub multi_cycle_deadlocks: u64,
    /// Distribution of deadlock-set sizes (messages per knot).
    pub deadlock_set: Histogram,
    /// Distribution of resource-set sizes (VCs held by deadlock sets).
    pub resource_set: Histogram,
    /// Distribution of knot cycle densities.
    pub knot_density: Histogram,
    /// Dependent messages observed alongside deadlocks (§2.2.1).
    pub dependent_committed: u64,
    pub dependent_transient: u64,

    /// Blocked in-network messages, sampled at detection epochs.
    pub blocked: Mean,
    /// Messages holding network resources, sampled at detection epochs.
    pub in_network: Mean,
    /// Source-queued messages, sampled at detection epochs.
    pub source_queued: Mean,
    /// CWG elementary-cycle counts at counting epochs (cycle, count).
    pub cwg_cycles: TimeSeries,
    /// Blocked fraction at the same counting epochs (cycle, fraction).
    pub blocked_frac: TimeSeries,
    /// Whether any cycle count hit the enumeration cap.
    pub cycles_capped: bool,
    /// Counting epochs where resource-dependency cycles existed but no
    /// knot did — direct sightings of §2.2.3 *cyclic non-deadlocks*.
    pub cyclic_nondeadlock_epochs: u64,
    /// Counting epochs inspected.
    pub counting_epochs: u64,

    /// Recovery victims dispatched (≥ `deadlocks`: large wedges need
    /// several victims to clear).
    pub victims_started: u64,
    /// Cycles from a victim entering the recovery lane to its final flit
    /// draining (recovery resolution latency).
    pub resolution_latency: Histogram,
    /// Detection lag per knot: cycles from the knot's formation (the
    /// latest block stamp across the deadlock set) to the detection epoch
    /// that found it; bounded by `detection_interval`.
    pub detection_lag: Histogram,
    /// The first few deadlocks in full detail, for inspection.
    pub incidents: Vec<Incident>,

    /// Knot formation latency: injection → knot closure, per deadlock-set
    /// member. Populated only when [`RunConfig::forensics`] is set (the
    /// timelines come from the tracer), and over the whole run including
    /// warm-up — forensics diagnoses formation, it is not a §3 metric.
    /// Both stamps are read off the trace, so a member whose injection or
    /// final block the trace buffer dropped adds no sample (see
    /// [`ForensicsConfig::trace_capacity`]).
    ///
    /// [`RunConfig::forensics`]: crate::RunConfig::forensics
    /// [`ForensicsConfig::trace_capacity`]: crate::ForensicsConfig::trace_capacity
    pub formation_latency: Histogram,
    /// Knot formation spread per knot: cycles between the first member
    /// entering its final blocking episode and the knot closing (the last
    /// member blocking). Forensic runs only, whole run; read off the trace
    /// like [`formation_latency`](Self::formation_latency).
    pub formation_spread: Histogram,
    /// Full forensic incident records (capped by
    /// [`ForensicsConfig::max_incidents`]). Forensic runs only, whole run.
    ///
    /// [`ForensicsConfig::max_incidents`]: crate::ForensicsConfig::max_incidents
    pub forensic_incidents: Vec<crate::forensics::DeadlockIncident>,

    /// How the run ended (drained, budget exhausted, watchdog stall,
    /// or completed-with-faults).
    pub outcome: RunOutcome,
    /// In-network messages dropped by fault injection over the *whole*
    /// run, warm-up included — a robustness metric, not a §3 statistic.
    pub fault_losses: u64,
    /// Source-queued messages rejected as unroutable under the active
    /// fault set, whole run.
    pub fault_rejected: u64,
    /// Present only when the progress watchdog cut the run.
    pub stall: Option<StallReport>,
}

/// A single detected deadlock, summarized.
#[derive(Clone, Debug)]
pub struct Incident {
    /// Simulation cycle of the detection epoch.
    pub cycle: u64,
    /// Exact formation cycle: the latest cycle at which a deadlock-set
    /// member entered its final blocking episode. Always ≤ `cycle`.
    pub formation_cycle: u64,
    /// Messages in the knot's deadlock set.
    pub deadlock_set_size: usize,
    /// VCs held by the deadlock set.
    pub resource_set_size: usize,
    /// Elementary cycles inside the knot (capped value).
    pub knot_cycle_density: u64,
    /// Dependent messages observed alongside this snapshot's knots.
    pub dependents: usize,
}

impl RunResult {
    pub(crate) fn new(
        label: String,
        offered_load: f64,
        nodes: usize,
        capacity: f64,
        msg_len: usize,
    ) -> Self {
        RunResult {
            label,
            offered_load,
            cycles: 0,
            nodes,
            capacity,
            msg_len,
            generated: 0,
            injected: 0,
            delivered: 0,
            recovered: 0,
            delivered_flits: 0,
            latency: Histogram::new(),
            link_flits: 0,
            deadlocks: 0,
            single_cycle_deadlocks: 0,
            multi_cycle_deadlocks: 0,
            deadlock_set: Histogram::new(),
            resource_set: Histogram::new(),
            knot_density: Histogram::new(),
            dependent_committed: 0,
            dependent_transient: 0,
            blocked: Mean::new(),
            in_network: Mean::new(),
            source_queued: Mean::new(),
            cwg_cycles: TimeSeries::new(),
            blocked_frac: TimeSeries::new(),
            cycles_capped: false,
            cyclic_nondeadlock_epochs: 0,
            counting_epochs: 0,
            victims_started: 0,
            resolution_latency: Histogram::new(),
            detection_lag: Histogram::new(),
            incidents: Vec::new(),
            formation_latency: Histogram::new(),
            formation_spread: Histogram::new(),
            forensic_incidents: Vec::new(),
            outcome: RunOutcome::CyclesExhausted,
            fault_losses: 0,
            fault_rejected: 0,
            stall: None,
        }
    }

    /// How many detailed [`Incident`] records are retained per run.
    pub const MAX_INCIDENTS: usize = 200;

    /// Deadlocks per message delivered — the paper's headline
    /// "normalized deadlocks" metric.
    pub fn normalized_deadlocks(&self) -> f64 {
        if self.delivered == 0 {
            if self.deadlocks == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.deadlocks as f64 / self.delivered as f64
        }
    }

    /// Deadlocks normalized by the average number of messages in the
    /// network (Figure 8b's y-axis-normalization).
    pub fn deadlocks_per_in_network_msg(&self) -> f64 {
        let avg = self.in_network.mean();
        if avg == 0.0 {
            0.0
        } else {
            self.deadlocks as f64 / avg
        }
    }

    /// Delivered throughput in flits per node per cycle.
    pub fn throughput(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.delivered_flits as f64 / (self.cycles as f64 * self.nodes as f64)
    }

    /// Delivered throughput as a fraction of capacity (accepted load).
    pub fn accepted_load(&self) -> f64 {
        self.throughput() / self.capacity
    }

    /// Fraction of in-network messages that were blocked, averaged over
    /// detection epochs.
    pub fn blocked_fraction(&self) -> f64 {
        let inn = self.in_network.mean();
        if inn == 0.0 {
            0.0
        } else {
            self.blocked.mean() / inn
        }
    }

    /// Mean message latency in cycles.
    pub fn avg_latency(&self) -> f64 {
        self.latency.mean()
    }

    /// Largest instantaneous CWG cycle count observed.
    pub fn max_cwg_cycles(&self) -> f64 {
        self.cwg_cycles.max().unwrap_or(0.0)
    }

    /// A byte-exact rendering of every counter and distribution in this
    /// result. Floating-point values are digested via `to_bits` so that
    /// even last-ulp divergence (e.g. from a different accumulation
    /// order) is caught. Two results with equal digests are equal for
    /// every purpose the paper's tables and figures care about — this is
    /// the equivalence the determinism and engine-differential tests
    /// compare.
    pub fn digest(&self) -> String {
        use std::fmt::Write;
        fn hist_digest(h: &Histogram, out: &mut String) {
            use std::fmt::Write;
            let _ = write!(
                out,
                "[n={} sum={} min={} max={} p50={} p90={}]",
                h.count(),
                h.sum(),
                h.min(),
                h.max(),
                h.quantile(0.5),
                h.quantile(0.9)
            );
        }
        let mut s = String::new();
        let _ = write!(
            s,
            "{} cycles={} gen={} inj={} del={} rec={} flits={} links={} \
             dead={} single={} multi={} depc={} dept={} capped={} cnd={} epochs={} victims={} ",
            self.label,
            self.cycles,
            self.generated,
            self.injected,
            self.delivered,
            self.recovered,
            self.delivered_flits,
            self.link_flits,
            self.deadlocks,
            self.single_cycle_deadlocks,
            self.multi_cycle_deadlocks,
            self.dependent_committed,
            self.dependent_transient,
            self.cycles_capped,
            self.cyclic_nondeadlock_epochs,
            self.counting_epochs,
            self.victims_started,
        );
        for h in [
            &self.latency,
            &self.deadlock_set,
            &self.resource_set,
            &self.knot_density,
            &self.resolution_latency,
            &self.formation_latency,
            &self.formation_spread,
        ] {
            hist_digest(h, &mut s);
        }
        for m in [&self.blocked, &self.in_network, &self.source_queued] {
            let _ = write!(s, "(n={} mean={:016x})", m.count(), m.mean().to_bits());
        }
        for ts in [&self.cwg_cycles, &self.blocked_frac] {
            for (c, v) in ts.points() {
                let _ = write!(s, "@{c}:{:016x}", v.to_bits());
            }
        }
        for i in &self.incidents {
            let _ = write!(
                s,
                "i({},{},{},{},{})",
                i.cycle,
                i.deadlock_set_size,
                i.resource_set_size,
                i.knot_cycle_density,
                i.dependents
            );
        }
        for f in &self.forensic_incidents {
            let _ = write!(s, "f({},{},{:016x})", f.seq, f.cycle, f.fingerprint);
        }
        // Robustness fields are appended last so a fault-free digest is a
        // strict extension of the pre-fault format.
        let _ = write!(
            s,
            " outcome={} flost={} frej={}",
            self.outcome.name(),
            self.fault_losses,
            self.fault_rejected
        );
        if let Some(st) = &self.stall {
            let _ = write!(
                s,
                " stall({},{},{},{},{})",
                st.cycle, st.last_progress_cycle, st.in_network, st.blocked, st.source_queued
            );
        }
        // Formation-time data (engine v2) appends after everything above,
        // keeping the earlier digest a strict prefix of the new one.
        let _ = write!(s, " lag=");
        hist_digest(&self.detection_lag, &mut s);
        for i in &self.incidents {
            let _ = write!(s, "k({},{})", i.cycle, i.formation_cycle);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blank() -> RunResult {
        RunResult::new("t".into(), 0.5, 256, 0.5, 32)
    }

    #[test]
    fn normalized_deadlocks_guards_zero_delivery() {
        let mut r = blank();
        assert_eq!(r.normalized_deadlocks(), 0.0);
        r.deadlocks = 3;
        assert!(r.normalized_deadlocks().is_infinite());
        r.delivered = 300;
        assert!((r.normalized_deadlocks() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn throughput_and_accepted_load() {
        let mut r = blank();
        r.cycles = 1000;
        r.delivered = 1000;
        r.delivered_flits = 32_000; // over 256 nodes x 1000 cycles
        assert!((r.throughput() - 0.125).abs() < 1e-12);
        assert!((r.accepted_load() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn blocked_fraction() {
        let mut r = blank();
        r.in_network.record(10.0);
        r.blocked.record(4.0);
        assert!((r.blocked_fraction() - 0.4).abs() < 1e-12);
    }

    /// Formation-time data must be digest-bearing: tampering with an
    /// incident's formation cycle, or with the detection-lag histogram,
    /// has to change the digest so the goldens pin it.
    #[test]
    fn digest_covers_formation_suffix() {
        let mut r = blank();
        r.incidents.push(Incident {
            cycle: 100,
            formation_cycle: 87,
            deadlock_set_size: 4,
            resource_set_size: 8,
            knot_cycle_density: 1,
            dependents: 0,
        });
        let clean = r.digest();
        assert!(clean.contains(" lag=["), "suffix marker missing: {clean}");
        assert!(
            clean.contains("k(100,87)"),
            "formation pair missing: {clean}"
        );

        r.incidents[0].formation_cycle = 88;
        let tampered = r.digest();
        assert_ne!(clean, tampered, "formation cycle not digest-bearing");

        r.incidents[0].formation_cycle = 87;
        assert_eq!(r.digest(), clean);
        r.detection_lag.record(13);
        assert_ne!(r.digest(), clean, "detection lag not digest-bearing");
    }
}
