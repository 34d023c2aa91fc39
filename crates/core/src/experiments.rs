//! The experiment index: every sweep the `repro` binary regenerates.
//!
//! [`all`] lists the paper's evaluation section (Figures 5–8, §3.5, §3.6),
//! the ablations over the reproduction's own design choices, and the
//! paper's §5 future-work extensions. Each [`Experiment`] is a list of
//! [`RunConfig`] points plus the claims that judge them: [`crate::sweep`]
//! executes the points, [`results_table`] renders the series the paper
//! plots, and [`Experiment::shape_checks`] evaluates the entry's
//! qualitative claims ("who wins, by roughly what factor, where crossovers
//! fall") as pass/fail assertions over the measured results — these are
//! what the integration tests and EXPERIMENTS.md verify.

use crate::report::{fnum, Table};
use crate::spec::{RecoveryPolicy, RoutingSpec, TopologySpec};
use crate::{RunConfig, RunResult};
use icn_topology::NodeId;
use icn_traffic::{MsgLenDist, Pattern};

/// Experiment scale: `Paper` matches the publication's setup (16-ary
/// 2-cube, 30k measured cycles); `Small` shrinks the network and windows
/// so the full suite runs in seconds for tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Paper,
    Small,
}

/// A named set of simulation points reproducing one figure/section, with
/// the claims that judge its results.
#[derive(Clone, Debug)]
pub struct Experiment {
    pub id: &'static str,
    pub title: &'static str,
    pub configs: Vec<RunConfig>,
    /// This entry's claims over index-aligned results; called through
    /// [`Experiment::shape_checks`].
    pub checks: fn(&Experiment, &[RunResult]) -> Vec<ShapeCheck>,
}

impl Experiment {
    /// Evaluates this experiment's claims. `results` must be index-aligned
    /// with `configs` (as produced by [`crate::sweep`]).
    pub fn shape_checks(&self, results: &[RunResult]) -> Vec<ShapeCheck> {
        assert_eq!(self.configs.len(), results.len());
        (self.checks)(self, results)
    }
}

/// All experiments: the evaluation section in paper order, then the
/// ablations, then the extensions.
pub fn all(scale: Scale) -> Vec<Experiment> {
    vec![
        fig5(scale),
        fig6(scale),
        fig7(scale),
        fig8(scale),
        node_degree(scale),
        traffic_patterns(scale),
        detection_interval(scale),
        victim_policy(scale),
        hypercube(scale),
        misroute(scale),
        hybrid_lengths(scale),
    ]
}

fn base(scale: Scale) -> RunConfig {
    match scale {
        Scale::Paper => RunConfig::paper_default(),
        Scale::Small => RunConfig::small_default(),
    }
}

/// The base config routed by `routing` over `vcs` VCs per physical channel.
fn routed(scale: Scale, routing: RoutingSpec, vcs: usize) -> RunConfig {
    let mut c = base(scale);
    c.routing = routing;
    c.sim.vcs_per_channel = vcs;
    c
}

fn loads(scale: Scale) -> Vec<f64> {
    match scale {
        Scale::Paper => vec![0.1, 0.15, 0.2, 0.3, 0.4, 0.6, 0.8, 1.0, 1.2],
        Scale::Small => vec![0.2, 0.4, 0.6, 0.8, 1.0, 1.2],
    }
}

fn with_seed(mut cfg: RunConfig, salt: u64) -> RunConfig {
    cfg.seed = cfg
        .seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    cfg
}

/// One point per curve and load (curves outer, loads inner), each seeded
/// with its own salt counting up from `first_salt`.
fn points(
    curves: impl IntoIterator<Item = RunConfig>,
    loads: &[f64],
    first_salt: u64,
) -> Vec<RunConfig> {
    let mut out = Vec::new();
    for curve in curves {
        for &load in loads {
            let mut c = curve.clone();
            c.load = load;
            let salt = first_salt + out.len() as u64;
            out.push(with_seed(c, salt));
        }
    }
    out
}

/// One qualitative claim from the paper checked against measurements.
#[derive(Clone, Debug)]
pub struct ShapeCheck {
    pub claim: String,
    pub pass: bool,
    pub detail: String,
}

fn check(claim: impl Into<String>, pass: bool, detail: String) -> ShapeCheck {
    ShapeCheck {
        claim: claim.into(),
        pass,
        detail,
    }
}

/// The results whose configs satisfy `pred`, in config order.
fn select<'a>(
    exp: &Experiment,
    results: &'a [RunResult],
    pred: impl Fn(&RunConfig) -> bool,
) -> Vec<&'a RunResult> {
    exp.configs
        .iter()
        .zip(results)
        .filter(|(c, _)| pred(c))
        .map(|(_, r)| r)
        .collect()
}

fn total_deadlocks<'a>(rs: impl IntoIterator<Item = &'a RunResult>) -> u64 {
    rs.into_iter().map(|r| r.deadlocks).sum()
}

/// The largest `metric` over `rs`, or 0.
fn peak<'a>(rs: impl IntoIterator<Item = &'a RunResult>, metric: fn(&RunResult) -> f64) -> f64 {
    rs.into_iter().map(metric).fold(0.0, f64::max)
}

/// Deadlock onset: the lowest load with any deadlock (infinite if none).
fn onset<'a>(rs: impl IntoIterator<Item = &'a RunResult>) -> f64 {
    rs.into_iter()
        .filter(|r| r.deadlocks > 0)
        .map(|r| r.offered_load)
        .fold(f64::INFINITY, f64::min)
}

/// Figure 5: effect of physical-link bidirectionality. DOR, one VC, uni-
/// vs bidirectional 16-ary 2-cube tori under uniform traffic.
pub fn fig5(scale: Scale) -> Experiment {
    let curves = [true, false].map(|bidirectional| {
        let mut c = routed(scale, RoutingSpec::Dor, 1);
        c.topology.bidirectional = bidirectional;
        c
    });
    Experiment {
        id: "fig5",
        title: "Fig 5: deadlocks vs load, uni- vs bidirectional torus (DOR, 1 VC)",
        configs: points(curves, &loads(scale), 0),
        checks: fig5_checks,
    }
}

fn fig5_checks(exp: &Experiment, results: &[RunResult]) -> Vec<ShapeCheck> {
    let bi = select(exp, results, |c| c.topology.bidirectional);
    let uni = select(exp, results, |c| !c.topology.bidirectional);
    let bi_n: f64 = bi.iter().map(|r| r.normalized_deadlocks()).sum();
    let uni_n: f64 = uni.iter().map(|r| r.normalized_deadlocks()).sum();
    let min_set = |rs: &[&RunResult]| {
        rs.iter()
            .filter(|r| r.deadlocks > 0)
            .map(|r| r.deadlock_set.min())
            .min()
            .unwrap_or(0)
    };
    let (bi_min, uni_min) = (min_set(&bi), min_set(&uni));
    let multi: u64 = bi
        .iter()
        .chain(uni.iter())
        .map(|r| r.multi_cycle_deadlocks)
        .sum();
    vec![
        check(
            "uni-torus has more normalized deadlocks than bi-torus",
            uni_n > bi_n,
            format!("uni={uni_n:.4} bi={bi_n:.4}"),
        ),
        check(
            "minimal deadlock set: >=3 messages (bi), >=2 (uni)",
            (bi_min == 0 || bi_min >= 3) && (uni_min == 0 || uni_min >= 2),
            format!("bi.min={bi_min} uni.min={uni_min}"),
        ),
        check(
            "DOR deadlocks are all single-cycle",
            multi == 0,
            format!("multi-cycle={multi}"),
        ),
    ]
}

/// Figure 6: effect of routing adaptivity. DOR vs minimal TFAR, one VC,
/// bidirectional torus; cycle counting enabled (TFAR's cyclic
/// non-deadlocks are part of the story).
pub fn fig6(scale: Scale) -> Experiment {
    let curves = [RoutingSpec::Dor, RoutingSpec::Tfar].map(|routing| RunConfig {
        count_cycles_every: Some(5),
        ..routed(scale, routing, 1)
    });
    Experiment {
        id: "fig6",
        title: "Fig 6: deadlocks and cycles vs load, DOR vs TFAR (1 VC)",
        configs: points(curves, &loads(scale), 100),
        checks: fig6_checks,
    }
}

fn fig6_checks(exp: &Experiment, results: &[RunResult]) -> Vec<ShapeCheck> {
    let dor = select(exp, results, |c| c.routing == RoutingSpec::Dor);
    let tfar = select(exp, results, |c| c.routing == RoutingSpec::Tfar);
    let dor_total = total_deadlocks(dor.iter().copied());
    let tfar_total = total_deadlocks(tfar.iter().copied());
    let dor_set = peak(dor.iter().copied(), |r| r.deadlock_set.mean());
    let tfar_set = peak(tfar.iter().copied(), |r| r.deadlock_set.mean());
    let dor_res = peak(dor.iter().copied(), |r| r.resource_set.mean());
    let tfar_res = peak(tfar.iter().copied(), |r| r.resource_set.mean());
    // Recovery keeps accepted throughput tracking offered load right up to
    // the knee (isolated deadlocks are repaired), so the measurable form of
    // "TFAR suffers no deadlocks below saturation ... 1 per 100 delivered
    // at saturation" is a knee contrast: a negligible normalized rate
    // wherever throughput holds, orders of magnitude more once it
    // collapses.
    let sat = icn_metrics::saturation_point(
        &tfar
            .iter()
            .map(|r| (r.offered_load, r.accepted_load()))
            .collect::<Vec<_>>(),
    )
    .unwrap_or(f64::INFINITY);
    let pre_knee_ndl = peak(
        tfar.iter().copied().filter(|r| r.offered_load < sat),
        RunResult::normalized_deadlocks,
    );
    let post_knee_ndl = peak(
        tfar.iter().copied().filter(|r| r.offered_load >= sat),
        RunResult::normalized_deadlocks,
    );
    let knee_ok = pre_knee_ndl <= 1e-3
        && (post_knee_ndl == 0.0 || post_knee_ndl > 50.0 * pre_knee_ndl.max(1e-6));
    let cyclic_nondl: u64 = tfar.iter().map(|r| r.cyclic_nondeadlock_epochs).sum();
    vec![
        check(
            "DOR suffers more actual deadlocks than TFAR",
            dor_total > tfar_total,
            format!("dor={dor_total} tfar={tfar_total}"),
        ),
        check(
            "TFAR deadlock sets are larger than DOR's",
            tfar_total == 0 || tfar_set > dor_set,
            format!("tfar.max-mean={tfar_set:.1} dor.max-mean={dor_set:.1}"),
        ),
        check(
            "TFAR resource sets are larger than DOR's",
            tfar_total == 0 || tfar_res > dor_res,
            format!("tfar={tfar_res:.1} dor={dor_res:.1}"),
        ),
        check(
            "TFAR deadlocks negligible below the knee, dominant beyond",
            knee_ok,
            format!("knee at {sat}; worst ndl below={pre_knee_ndl:.5} beyond={post_knee_ndl:.3}"),
        ),
        check(
            "TFAR forms cyclic non-deadlocks (cycles without a knot)",
            cyclic_nondl > 0,
            format!("epochs with cycles and no knot: {cyclic_nondl}"),
        ),
    ]
}

/// Figure 7: effect of virtual channels. DOR and TFAR with 1–4 VCs per
/// physical channel, unrestricted VC use.
pub fn fig7(scale: Scale) -> Experiment {
    let curves = [RoutingSpec::Dor, RoutingSpec::Tfar]
        .into_iter()
        .flat_map(|routing| {
            // Counting is the expensive part of this 8-curve sweep; sample
            // it at a coarser cadence than fig6.
            (1..=4).map(move |vcs| RunConfig {
                count_cycles_every: Some(10),
                ..routed(scale, routing, vcs)
            })
        });
    Experiment {
        id: "fig7",
        title: "Fig 7: deadlocks and cycles vs load, DOR/TFAR with 1-4 VCs",
        configs: points(curves, &loads(scale), 200),
        checks: fig7_checks,
    }
}

fn fig7_checks(exp: &Experiment, results: &[RunResult]) -> Vec<ShapeCheck> {
    let by = |routing: RoutingSpec, vcs: usize| {
        select(exp, results, move |c| {
            c.routing == routing && c.sim.vcs_per_channel == vcs
        })
    };
    let dor1 = total_deadlocks(by(RoutingSpec::Dor, 1));
    let dor2 = total_deadlocks(by(RoutingSpec::Dor, 2));
    let tfar1 = total_deadlocks(by(RoutingSpec::Tfar, 1));
    // "Highly improbable": zero deadlocks below the curve's own measured
    // saturation, and a vanishing normalized rate even when overdriven deep
    // past it.
    let improbable = |rs: Vec<&RunResult>, ndl_cap: f64| -> (bool, f64) {
        let curve: Vec<(f64, f64)> = rs
            .iter()
            .map(|r| (r.offered_load, r.accepted_load()))
            .collect();
        let sat = icn_metrics::saturation_point(&curve).unwrap_or(f64::INFINITY);
        let below_sat = total_deadlocks(rs.iter().copied().filter(|r| r.offered_load < sat));
        let worst = peak(rs, RunResult::normalized_deadlocks);
        (below_sat == 0 && worst <= ndl_cap, worst)
    };
    let (dor3_ok, dor3_ndl) = improbable(by(RoutingSpec::Dor, 3), 0.005);
    let (dor4_ok, dor4_ndl) = improbable(by(RoutingSpec::Dor, 4), 0.005);
    let (tfar2_ok, tfar2_ndl) = improbable(by(RoutingSpec::Tfar, 2), 0.001);
    let (tfar3_ok, _) = improbable(by(RoutingSpec::Tfar, 3), 0.001);
    let (tfar4_ok, _) = improbable(by(RoutingSpec::Tfar, 4), 0.001);
    let onset1 = onset(by(RoutingSpec::Dor, 1));
    let onset2 = onset(by(RoutingSpec::Dor, 2));
    let blocked1 = peak(by(RoutingSpec::Tfar, 1), RunResult::blocked_fraction);
    let blocked2 = peak(by(RoutingSpec::Tfar, 2), RunResult::blocked_fraction);
    vec![
        check(
            "a 2nd VC raises DOR's deadlock-onset load",
            dor2 == 0 || onset2 > onset1,
            format!("onset dor1={onset1} dor2={onset2}"),
        ),
        check(
            "3+ VCs make DOR deadlock highly improbable",
            dor3_ok && dor4_ok,
            format!("worst ndl dor3={dor3_ndl:.5} dor4={dor4_ndl:.5}"),
        ),
        check(
            "2+ VCs make TFAR deadlock highly improbable",
            tfar2_ok && tfar3_ok && tfar4_ok,
            format!("worst ndl tfar2={tfar2_ndl:.6}"),
        ),
        check(
            "TFAR1 and DOR1 both deadlock",
            tfar1 > 0 && dor1 > 0,
            format!("tfar1={tfar1} dor1={dor1}"),
        ),
        check(
            "extra VCs reduce peak congestion (TFAR)",
            blocked2 < blocked1,
            format!("blocked tfar1={blocked1:.2} tfar2={blocked2:.2}"),
        ),
    ]
}

/// Figure 8: effect of buffer depth. TFAR, one VC, edge buffers from 2
/// flits (wormhole) to 32 flits (virtual cut-through).
pub fn fig8(scale: Scale) -> Experiment {
    let curves = [2usize, 4, 6, 8, 16, 32].map(|depth| {
        let mut c = routed(scale, RoutingSpec::Tfar, 1);
        c.sim.buffer_depth = depth;
        c
    });
    Experiment {
        id: "fig8",
        title:
            "Fig 8: deadlocks vs load and vs in-network messages, buffer depth 2-32 (TFAR, 1 VC)",
        configs: points(curves, &loads(scale), 300),
        checks: fig8_checks,
    }
}

fn fig8_checks(exp: &Experiment, results: &[RunResult]) -> Vec<ShapeCheck> {
    let by_depth = |d: usize| select(exp, results, move |c| c.sim.buffer_depth == d);
    let peak_accept = |d: usize| peak(by_depth(d), RunResult::accepted_load);
    let per_msg = |d: usize| peak(by_depth(d), RunResult::deadlocks_per_in_network_msg);
    let onset_at = |d: usize| onset(by_depth(d));
    vec![
        check(
            "deeper buffers raise the saturation (accepted) load",
            peak_accept(32) > peak_accept(2),
            format!("accept d2={:.3} d32={:.3}", peak_accept(2), peak_accept(32)),
        ),
        check(
            "per-in-network-message deadlock rate falls with depth",
            per_msg(32) < per_msg(2) || per_msg(2) == 0.0,
            format!("d2={:.4} d32={:.4}", per_msg(2), per_msg(32)),
        ),
        check(
            "deadlock onset load rises with buffer depth (VCT least deadlock-prone)",
            onset_at(32) >= onset_at(2),
            format!("onset d2={} d32={}", onset_at(2), onset_at(32)),
        ),
    ]
}

/// §3.5: effect of node degree. TFAR with one VC on a 16-ary 2-cube vs a
/// 4-ary 4-cube (same 256 nodes, twice the links and dimensions).
pub fn node_degree(scale: Scale) -> Experiment {
    let (k2, k4) = match scale {
        Scale::Paper => (16, 4),
        Scale::Small => (8, 3),
    };
    let topologies = [
        TopologySpec::torus(k2, 2, true),
        TopologySpec::torus(k4, 4, true),
    ];
    let curves = topologies.map(|topology| RunConfig {
        topology,
        ..routed(scale, RoutingSpec::Tfar, 1)
    });
    Experiment {
        id: "degree",
        title: "Sec 3.5: deadlocks vs load, 2-D vs 4-D torus (TFAR, 1 VC)",
        configs: points(curves, &loads(scale), 400),
        checks: degree_checks,
    }
}

fn degree_checks(exp: &Experiment, results: &[RunResult]) -> Vec<ShapeCheck> {
    let d2 = total_deadlocks(select(exp, results, |c| c.topology.n == 2));
    let n4 = select(exp, results, |c| c.topology.n == 4);
    let d4 = total_deadlocks(n4.iter().copied());
    let multi4: u64 = n4.iter().map(|r| r.multi_cycle_deadlocks).sum();
    vec![
        check(
            "4-D torus suffers far fewer deadlocks than 2-D",
            d4 * 2 < d2.max(1),
            format!("2D={d2} 4D={d4}"),
        ),
        check(
            "the few 4-D deadlocks are single-cycle",
            multi4 == 0,
            format!("multi-cycle={multi4}"),
        ),
    ]
}

/// §3.6: non-uniform traffic. DOR and TFAR (one VC) under the four classic
/// non-uniform patterns, compared with uniform at matched loads.
pub fn traffic_patterns(scale: Scale) -> Experiment {
    let probe_loads = match scale {
        Scale::Paper => vec![0.6, 0.9, 1.2],
        Scale::Small => vec![0.8, 1.2],
    };
    let curves = [RoutingSpec::Dor, RoutingSpec::Tfar]
        .into_iter()
        .flat_map(|routing| {
            patterns_for(scale)
                .into_iter()
                .map(move |pattern| RunConfig {
                    pattern,
                    ..routed(scale, routing, 1)
                })
        });
    Experiment {
        id: "traffic",
        title: "Sec 3.6: deadlock frequency under non-uniform traffic patterns (DOR/TFAR, 1 VC)",
        configs: points(curves, &probe_loads, 500),
        checks: traffic_checks,
    }
}

fn patterns_for(scale: Scale) -> Vec<Pattern> {
    let hot = match scale {
        Scale::Paper => NodeId(16 * 8 + 8), // centre of the 16-ary 2-cube
        Scale::Small => NodeId(8 * 4 + 4),
    };
    vec![
        Pattern::Uniform,
        Pattern::BitReversal,
        Pattern::Transpose,
        Pattern::PerfectShuffle,
        Pattern::HotSpot { hot, fraction: 0.1 },
    ]
}

fn traffic_checks(exp: &Experiment, results: &[RunResult]) -> Vec<ShapeCheck> {
    let tfar_uniform = select(exp, results, |c| {
        c.routing == RoutingSpec::Tfar && c.pattern == Pattern::Uniform
    });
    let tfar_other = select(exp, results, |c| {
        c.routing == RoutingSpec::Tfar && c.pattern != Pattern::Uniform
    });
    let u = total_deadlocks(tfar_uniform.iter().copied());
    let o = total_deadlocks(tfar_other.iter().copied()) as f64
        / (tfar_other.len().max(1) as f64 / tfar_uniform.len().max(1) as f64);
    let dor_uniform = total_deadlocks(select(exp, results, |c| {
        c.routing == RoutingSpec::Dor && c.pattern == Pattern::Uniform
    }));
    let dor_transpose = total_deadlocks(select(exp, results, |c| {
        c.routing == RoutingSpec::Dor && c.pattern == Pattern::Transpose
    }));
    vec![
        check(
            "TFAR deadlock frequency is similar across patterns",
            u == 0 || (o > 0.1 * u as f64 && o < 10.0 * u as f64),
            format!("uniform={u} others(avg-normalized)={o:.1}"),
        ),
        check(
            "DOR under transpose avoids the circular overlap (<= uniform)",
            dor_transpose <= dor_uniform,
            format!("uniform={dor_uniform} transpose={dor_transpose}"),
        ),
    ]
}

// Ablations over the reproduction's own design choices. The paper fixes
// two recovery-router parameters without exploring them: the detection
// cadence (50 cycles) and which deadlock-set message the recovery
// removes. Both run TFAR with one VC, where deadlocks are frequent
// enough to measure, and keep their own seed scheme.

/// Sweeps the deadlock-detection interval: how stale detection can get
/// before the network pays for it in latency and re-formed deadlocks.
pub fn detection_interval(scale: Scale) -> Experiment {
    let mut configs = Vec::new();
    for (i, interval) in [25u64, 50, 100, 200, 400].into_iter().enumerate() {
        let mut c = RunConfig {
            detection_interval: interval,
            load: 0.6,
            ..routed(scale, RoutingSpec::Tfar, 1)
        };
        c.seed = c.seed.wrapping_add(i as u64 * 0x9e37_79b9);
        configs.push(c);
    }
    Experiment {
        id: "ablate-interval",
        title: "Ablation: deadlock-detection interval (TFAR, 1 VC, load 0.6)",
        configs,
        checks: no_claims,
    }
}

/// Compares recovery-victim selection policies: removing the oldest vs
/// the youngest deadlock-set message (Disha's token arbitration is
/// age-agnostic).
pub fn victim_policy(scale: Scale) -> Experiment {
    let mut configs = Vec::new();
    for (i, recovery) in [RecoveryPolicy::RemoveOldest, RecoveryPolicy::RemoveYoungest]
        .into_iter()
        .enumerate()
    {
        for (j, load) in [0.4f64, 0.6, 1.0].into_iter().enumerate() {
            let mut c = RunConfig {
                recovery,
                load,
                ..routed(scale, RoutingSpec::Tfar, 1)
            };
            c.seed = c.seed.wrapping_add((i * 8 + j) as u64 * 0x9e37_79b9);
            configs.push(c);
        }
    }
    Experiment {
        id: "ablate-victim",
        title: "Ablation: recovery victim selection (oldest vs youngest)",
        configs,
        checks: no_claims,
    }
}

/// The ablations make no claim yet: they report, they do not judge.
fn no_claims(_: &Experiment, _: &[RunResult]) -> Vec<ShapeCheck> {
    Vec::new()
}

// Extensions: the paper's §5 future-work items, run with TFAR and one VC.

fn ext_loads(scale: Scale) -> Vec<f64> {
    // The lowest load sits safely below TFAR1's saturation knee even when
    // misrouting inflates the effective channel demand.
    match scale {
        Scale::Paper => vec![0.1, 0.4, 0.8, 1.2],
        Scale::Small => vec![0.1, 0.6, 1.2],
    }
}

/// Higher node degree than §3.5's 4-ary 4-cube: a binary hypercube
/// (degree `log2 N`) vs the 2-D torus at matched node count.
pub fn hypercube(scale: Scale) -> Experiment {
    let (cube_dims, torus) = match scale {
        Scale::Paper => (8usize, TopologySpec::torus(16, 2, true)), // 256 nodes each
        Scale::Small => (6usize, TopologySpec::torus(8, 2, true)),  // 64 nodes each
    };
    let curves = [torus, TopologySpec::mesh(2, cube_dims)].map(|topology| RunConfig {
        topology,
        ..routed(scale, RoutingSpec::Tfar, 1)
    });
    Experiment {
        id: "ext-hypercube",
        title: "Extension: binary hypercube vs 2-D torus (TFAR, 1 VC)",
        configs: points(curves, &ext_loads(scale), 700),
        checks: hypercube_checks,
    }
}

fn hypercube_checks(exp: &Experiment, results: &[RunResult]) -> Vec<ShapeCheck> {
    let torus_dl = total_deadlocks(select(exp, results, |c| c.topology.torus));
    let cube_dl = total_deadlocks(select(exp, results, |c| !c.topology.torus));
    vec![check(
        "high node degree (hypercube) suppresses deadlock vs 2-D torus",
        cube_dl * 2 < torus_dl.max(1),
        format!("torus={torus_dl} hypercube={cube_dl}"),
    )]
}

/// The effect of (bounded) misrouting on deadlock formation: minimal TFAR
/// vs misrouting TFAR with small and large detour budgets, whose
/// non-minimal hops widen the wait-for fan-out.
pub fn misroute(scale: Scale) -> Experiment {
    let curves = [
        RoutingSpec::Tfar,
        RoutingSpec::Misroute { budget: 2 },
        RoutingSpec::Misroute { budget: 8 },
    ]
    .map(|routing| routed(scale, routing, 1));
    Experiment {
        id: "ext-misroute",
        title: "Extension: effect of bounded misrouting on deadlock formation",
        configs: points(curves, &ext_loads(scale), 800),
        checks: misroute_checks,
    }
}

fn misroute_checks(exp: &Experiment, results: &[RunResult]) -> Vec<ShapeCheck> {
    let min_load = exp
        .configs
        .iter()
        .map(|c| c.load)
        .fold(f64::INFINITY, f64::min);
    let low_load_ok = select(exp, results, |c| c.load <= min_load)
        .iter()
        .all(|r| r.accepted_load() > 0.5 * r.offered_load);
    let all_deliver = results.iter().all(|r| r.delivered > 0);
    let min_accepted = results
        .iter()
        .map(|r| r.accepted_load())
        .fold(f64::INFINITY, f64::min);
    vec![check(
        "misrouting preserves low-load delivery (no livelock)",
        low_load_ok && all_deliver,
        format!("min accepted = {min_accepted:.3}"),
    )]
}

/// Hybrid message-length traffic: fixed 32-flit messages vs a bimodal
/// 8/64-flit request/reply mix at the same mean flit load.
pub fn hybrid_lengths(scale: Scale) -> Experiment {
    let dists = [
        MsgLenDist::Fixed(32),
        MsgLenDist::Bimodal {
            short: 8,
            long: 64,
            long_frac: 0.3,
        },
    ];
    let curves = dists.map(|len_dist| RunConfig {
        len_dist,
        ..routed(scale, RoutingSpec::Tfar, 1)
    });
    Experiment {
        id: "ext-hybrid",
        title: "Extension: hybrid message lengths (8/64-flit mix vs fixed 32)",
        configs: points(curves, &ext_loads(scale), 900),
        checks: hybrid_checks,
    }
}

fn hybrid_checks(_: &Experiment, results: &[RunResult]) -> Vec<ShapeCheck> {
    let consistent = results
        .iter()
        .all(|r| r.single_cycle_deadlocks + r.multi_cycle_deadlocks == r.deadlocks);
    let all_deliver = results.iter().all(|r| r.delivered > 0);
    vec![check(
        "hybrid-length traffic runs cleanly with sound classification",
        consistent && all_deliver,
        format!("total deadlocks = {}", total_deadlocks(results)),
    )]
}

/// Renders the measured series for an experiment: one row per simulation
/// point with every column the paper's plots need.
pub fn results_table(results: &[RunResult]) -> Table {
    let mut t = Table::new([
        "config",
        "load",
        "accepted",
        "delivered",
        "lat",
        "blk%",
        "ndl",
        "dl/msg-in-net",
        "dls.avg",
        "dls.max",
        "rs.avg",
        "rs.max",
        "kcd.avg",
        "kcd.max",
        "cyc.max",
        "1cyc",
        "mcyc",
        "dep",
    ]);
    for r in results {
        t.row([
            r.label.clone(),
            format!("{:.2}", r.offered_load),
            fnum(r.accepted_load()),
            r.delivered.to_string(),
            fnum(r.avg_latency()),
            fnum(100.0 * r.blocked_fraction()),
            fnum(r.normalized_deadlocks()),
            fnum(r.deadlocks_per_in_network_msg()),
            fnum(r.deadlock_set.mean()),
            r.deadlock_set.max().to_string(),
            fnum(r.resource_set.mean()),
            r.resource_set.max().to_string(),
            fnum(r.knot_density.mean()),
            r.knot_density.max().to_string(),
            fnum(r.max_cwg_cycles()),
            r.single_cycle_deadlocks.to_string(),
            r.multi_cycle_deadlocks.to_string(),
            (r.dependent_committed + r.dependent_transient).to_string(),
        ]);
    }
    t
}

/// Identifies a curve within an experiment: everything except the load.
fn curve_key(c: &RunConfig) -> String {
    format!(
        "{} {} vc={} buf={} {}",
        c.topology.label(),
        c.routing.name(),
        c.sim.vcs_per_channel,
        c.sim.buffer_depth,
        c.pattern.name()
    )
}

/// Distinct curve keys in config order.
fn curve_keys(exp: &Experiment) -> Vec<String> {
    let mut keys: Vec<String> = Vec::new();
    for c in &exp.configs {
        let k = curve_key(c);
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
    keys
}

/// Charts the experiment's headline series — normalized deadlocks vs
/// offered load, one symbol per curve — in the terminal (the paper's
/// "(a)" panels).
pub fn figure_chart(exp: &Experiment, results: &[RunResult]) -> crate::chart::AsciiChart {
    assert_eq!(exp.configs.len(), results.len());
    let mut chart = crate::chart::AsciiChart::new(
        format!("{} — normalized deadlocks vs load", exp.id),
        "offered load (fraction of capacity)",
        "deadlocks per delivered message",
    );
    let symbols = ['o', '+', 'x', '*', '.', '@', '%', '&', '=', '~'];
    for (i, key) in curve_keys(exp).iter().enumerate() {
        let pts: Vec<(f64, f64)> = exp
            .configs
            .iter()
            .zip(results)
            .filter(|(c, _)| curve_key(c) == *key)
            .map(|(c, r)| (c.load, r.normalized_deadlocks()))
            .collect();
        chart.series(symbols[i % symbols.len()], key.clone(), pts);
    }
    chart
}

/// Summarizes each curve of an experiment: the measured saturation load
/// (where accepted throughput stops tracking offered load — the vertical
/// dashed lines in the paper's figures) and the deadlock-onset load.
pub fn saturation_summary(exp: &Experiment, results: &[RunResult]) -> Table {
    assert_eq!(exp.configs.len(), results.len());
    let keys = curve_keys(exp);

    let mut t = Table::new(["curve", "saturation", "deadlock-onset", "total-deadlocks"]);
    for key in keys {
        let mut pts: Vec<(&RunConfig, &RunResult)> = exp
            .configs
            .iter()
            .zip(results)
            .filter(|(c, _)| curve_key(c) == *key)
            .collect();
        pts.sort_by(|a, b| a.0.load.partial_cmp(&b.0.load).unwrap());
        let curve: Vec<(f64, f64)> = pts
            .iter()
            .map(|(c, r)| (c.load, r.accepted_load()))
            .collect();
        let sat = icn_metrics::saturation_point(&curve)
            .map(|s| format!("{s:.2}"))
            .unwrap_or_else(|| "-".into());
        let onset = onset(pts.iter().map(|(_, r)| *r));
        let onset = if onset.is_finite() {
            format!("{onset:.2}")
        } else {
            "-".into()
        };
        let total = total_deadlocks(pts.iter().map(|(_, r)| *r));
        t.row([key, sat, onset, total.to_string()]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep;

    #[test]
    fn experiment_shapes() {
        let f5 = fig5(Scale::Small);
        assert_eq!(f5.configs.len(), 2 * loads(Scale::Small).len());
        let f7 = fig7(Scale::Small);
        assert_eq!(f7.configs.len(), 2 * 4 * loads(Scale::Small).len());
        let f8 = fig8(Scale::Small);
        assert_eq!(f8.configs.len(), 6 * loads(Scale::Small).len());
        assert_eq!(all(Scale::Small).len(), 11);
        assert_eq!(all(Scale::Paper).len(), 11);
    }

    #[test]
    fn seeds_are_distinct() {
        let f5 = fig5(Scale::Small);
        let mut seeds: Vec<u64> = f5.configs.iter().map(|c| c.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), f5.configs.len());
    }

    #[test]
    fn paper_scale_uses_paper_topology() {
        let f5 = fig5(Scale::Paper);
        assert!(f5.configs.iter().all(|c| c.topology.k == 16));
        assert!(f5.configs.iter().all(|c| c.measure == 30_000));
    }

    #[test]
    fn figure_chart_has_one_series_per_curve() {
        let exp = fig5(Scale::Small);
        let results: Vec<crate::RunResult> = exp
            .configs
            .iter()
            .map(|c| crate::RunResult::new(c.label(), c.load, 64, 0.5, c.sim.msg_len))
            .collect();
        let text = figure_chart(&exp, &results).render();
        let keys = curve_keys(&exp);
        assert_eq!(keys.len(), 2);
        assert!(text.ends_with(&format!("legend: o {}  + {}\n", keys[0], keys[1])));
    }

    #[test]
    fn saturation_summary_one_row_per_curve() {
        let exp = fig5(Scale::Small);
        // Fabricate results: bi curve saturates at 0.8, uni never.
        let results: Vec<crate::RunResult> = exp
            .configs
            .iter()
            .map(|c| {
                let mut r = crate::RunResult::new(c.label(), c.load, 64, 0.5, c.sim.msg_len);
                r.cycles = 1000;
                let accepted = if c.topology.bidirectional && c.load >= 0.8 {
                    0.4
                } else {
                    c.load
                };
                r.delivered_flits = (accepted * 0.5 * 64.0 * 1000.0) as u64;
                r.delivered = r.delivered_flits / 32;
                if c.load >= 1.0 {
                    r.deadlocks = 5;
                }
                r
            })
            .collect();
        let t = saturation_summary(&exp, &results);
        assert_eq!(t.len(), 2, "one row per direction curve");
        let rendered = t.render();
        assert!(rendered.contains("bi-8ary2"));
        assert!(rendered.contains("uni-8ary2"));
        assert!(rendered.contains("0.80"), "bi saturation detected");
    }

    #[test]
    fn traffic_experiment_has_all_patterns() {
        let t = traffic_patterns(Scale::Small);
        let names: std::collections::HashSet<_> =
            t.configs.iter().map(|c| c.pattern.name()).collect();
        assert!(names.contains("uniform"));
        assert!(names.contains("bit-reversal"));
        assert!(names.contains("transpose"));
        assert!(names.contains("perfect-shuffle"));
        assert!(names.contains("hot-spot"));
    }

    #[test]
    fn hypercube_experiment_uses_mesh2() {
        let e = hypercube(Scale::Small);
        assert!(e
            .configs
            .iter()
            .any(|c| c.topology.k == 2 && !c.topology.torus));
    }

    #[test]
    fn victim_policy_changes_outcomes_deterministically() {
        let mut exp = victim_policy(Scale::Small);
        for c in &mut exp.configs {
            c.warmup = 500;
            c.measure = 2_000;
        }
        // Same seed + same policy => same result; different policy with
        // the same seed is allowed to differ (and usually does).
        let r1 = sweep(&exp.configs);
        let r2 = sweep(&exp.configs);
        for (a, b) in r1.iter().zip(&r2) {
            assert_eq!(a.delivered, b.delivered);
            assert_eq!(a.deadlocks, b.deadlocks);
        }
    }

    #[test]
    fn interval_ablation_recovers_at_every_cadence() {
        let mut exp = detection_interval(Scale::Small);
        for c in &mut exp.configs {
            c.warmup = 500;
            c.measure = 2_500;
        }
        let results = sweep(&exp.configs);
        for (c, r) in exp.configs.iter().zip(&results) {
            assert!(
                r.delivered > 0,
                "interval {} delivered nothing",
                c.detection_interval
            );
        }
    }
}
