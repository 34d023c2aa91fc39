//! End-to-end forensics: capture → replay → minimize → persist.
//!
//! The known-deadlocking micro-config throughout is the Figure-6 corner
//! point — a unidirectional 8-ary 2-cube under DOR with one VC at full
//! load — which reliably knots within a few hundred cycles.

use std::ops::ControlFlow;

use flexsim::forensics::{minimize, replay, timeline_table, DeadlockIncident, IncidentStore};
use flexsim::{
    run, run_with, EpochView, ForensicsConfig, RoutingSpec, RunConfig, RunObserver, TopologySpec,
};

/// FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn fig6_micro() -> RunConfig {
    let mut cfg = RunConfig::small_default();
    cfg.topology = TopologySpec::torus(8, 2, false);
    cfg.routing = RoutingSpec::Dor;
    cfg.sim.vcs_per_channel = 1;
    cfg.load = 1.0;
    cfg.warmup = 400;
    cfg.measure = 1600;
    cfg.forensics = Some(ForensicsConfig::default());
    cfg
}

fn captured() -> (RunConfig, Vec<DeadlockIncident>) {
    let cfg = fig6_micro();
    let res = run(&cfg);
    assert!(
        !res.forensic_incidents.is_empty(),
        "the fig6 micro-config must deadlock and be captured"
    );
    (cfg, res.forensic_incidents)
}

#[test]
fn capture_records_cwg_timelines_and_formation_stats() {
    let cfg = fig6_micro();
    let res = run(&cfg);
    assert!(res.deadlocks > 0);
    assert!(!res.forensic_incidents.is_empty());
    assert!(res.forensic_incidents.len() <= ForensicsConfig::default().max_incidents);
    assert!(res.formation_latency.count() > 0);
    assert!(res.formation_spread.count() > 0);

    for inc in &res.forensic_incidents {
        assert_eq!(inc.trace_dropped, 0, "default capacity must not drop");
        assert!(inc.cycle.is_multiple_of(cfg.detection_interval));
        assert!(!inc.analysis.deadlocks.is_empty());
        assert_eq!(inc.config, cfg);
        // Timelines cover exactly the deadlock-set members, each with an
        // injection and a final blocking episode inside the run.
        let members = inc.members();
        assert!(!members.is_empty());
        for &m in &members {
            let tl = inc.timeline_of(m).expect("member timeline");
            assert!(tl.injected_at().is_some());
            let (block_cycle, _, _) = tl.final_block().expect("member must have blocked");
            assert!(block_cycle <= inc.cycle);
        }
        // The knot closed in the final detection interval — otherwise the
        // previous epoch would have caught it.
        let closure = inc.closure_cycle();
        assert!(closure <= inc.cycle);
        assert!(closure > inc.cycle - cfg.detection_interval);
        // The recovery outcome names at least one deadlock-set member.
        assert!(inc.recovery.victims.iter().any(|v| members.contains(v)));
        // The timeline table renders one row per member.
        assert_eq!(timeline_table(inc).len(), members.len());
    }
}

#[test]
fn forensic_capture_never_perturbs_the_run() {
    let mut cfg = fig6_micro();
    let with = run(&cfg);
    cfg.forensics = None;
    let without = run(&cfg);
    assert_eq!(with.delivered, without.delivered);
    assert_eq!(with.generated, without.generated);
    assert_eq!(with.deadlocks, without.deadlocks);
    assert_eq!(with.victims_started, without.victims_started);
    assert!(without.forensic_incidents.is_empty());
}

/// A forensic run refills the wait-state arena only at the knot epochs it
/// stores as incidents; past `max_incidents`, `EpochView::captured` stays
/// false and the arena is left alone.
#[test]
fn forensic_run_captures_only_the_epochs_it_stores() {
    #[derive(Default)]
    struct Census {
        knot_epochs: u64,
        captured: u64,
    }
    impl RunObserver for Census {
        fn on_epoch(&mut self, view: &EpochView<'_>) -> ControlFlow<()> {
            self.knot_epochs += view.analysis.has_deadlock() as u64;
            self.captured += view.captured as u64;
            ControlFlow::Continue(())
        }
    }
    let mut cfg = fig6_micro();
    cfg.forensics = Some(ForensicsConfig {
        max_incidents: 1,
        ..ForensicsConfig::default()
    });
    let mut census = Census::default();
    let res = run_with(&cfg, &mut census);
    assert!(
        census.knot_epochs > 1,
        "the micro-config must knot repeatedly"
    );
    assert_eq!(census.captured, 1);
    assert_eq!(res.forensic_incidents.len(), 1);
}

#[test]
fn capture_is_deterministic_golden() {
    let (_, a) = captured();
    let (_, b) = captured();
    assert_eq!(a.len(), b.len());
    assert_eq!(
        a, b,
        "forensic capture must be a pure function of the config"
    );
}

#[test]
fn replay_reproduces_the_identical_knot() {
    let (_, incidents) = captured();
    let inc = &incidents[0];
    let report = replay(inc);
    assert_eq!(
        report.observed_fingerprint,
        Some(inc.fingerprint),
        "replayed wait-state fingerprint must match the capture"
    );
    assert!(
        report.sets_match(),
        "the same deadlock-set message ids must re-form"
    );
    assert!(report.reproduced());
}

#[test]
fn incident_json_round_trips_identically() {
    let (_, incidents) = captured();
    for inc in &incidents {
        let text = inc.to_json_string();
        let back = DeadlockIncident::from_json_str(&text).expect("parse own output");
        assert_eq!(&back, inc);
        // The CWG and analysis survive as structures, not just as bytes.
        assert_eq!(back.cwg, inc.cwg);
        assert_eq!(back.analysis, inc.analysis);
        // And serialization is stable (parse → serialize is a fixpoint).
        assert_eq!(text, back.to_json_string());
    }
}

/// The stored bytes of every `fig6_micro` incident, pinned: length and
/// FNV-1a of the JSON record and of the DOT rendering. Round-trip tests
/// only show that parse → serialize is a fixpoint of the current code;
/// these constants show the format itself has not moved.
#[test]
fn incident_bytes_are_pinned() {
    const PINS: [(usize, u64, usize, u64); 8] = [
        (2849, 0x30fb1c89c71b13d0, 6121, 0x4115d478f1c4ac6e),
        (4730, 0x1d2f435c0f1f8a27, 6146, 0x7702552041cf3851),
        (8708, 0x9db21aed6306d3fd, 7152, 0xe8ed023df7d03def),
        (9466, 0xc0ebd0c2f6d429ed, 6792, 0x5871eaef6de2497c),
        (9189, 0x5aa0740f3fcd2a95, 6742, 0xd23e584bef06a50c),
        (9335, 0xdb07b3cd79e4e0b1, 7108, 0x92684c30e14773c9),
        (9721, 0x0a72dd9046b41a03, 7065, 0x9d8cbfbb20d23b6d),
        (9589, 0xf5d66bacb1f9d672, 6332, 0x37921e5232fc11fe),
    ];
    let (_, incidents) = captured();
    let got: Vec<(usize, u64, usize, u64)> = incidents
        .iter()
        .map(|inc| {
            let json = inc.to_json_string();
            let dot = inc.to_dot();
            (
                json.len(),
                fnv1a(json.as_bytes()),
                dot.len(),
                fnv1a(dot.as_bytes()),
            )
        })
        .collect();
    assert_eq!(got, PINS);
}

#[test]
fn minimization_shrinks_and_still_knots() {
    let (cfg, incidents) = captured();
    let inc = &incidents[0];
    let m = minimize(inc, true);
    assert!(
        m.verified,
        "the knot-induced sub-CWG must still knot identically"
    );
    assert!(m.kept_messages <= m.original_messages);
    assert_eq!(m.kept_messages, inc.members().len());

    let prefix = m.shortest_prefix.expect("bisection must reproduce");
    assert!(prefix.cycle <= inc.cycle);
    assert!(prefix.cycle + cfg.detection_interval > inc.cycle);
    assert_eq!(prefix.saved_cycles, inc.cycle - prefix.cycle);
    // The shortest reproducing prefix is exactly the knot's closure: the
    // first cycle boundary after the last member entered its final
    // blocking episode.
    assert_eq!(prefix.cycle, inc.closure_cycle());
}

#[test]
fn store_persists_and_reloads_incidents() {
    let (_, incidents) = captured();
    let dir = std::env::temp_dir().join(format!("icn-forensics-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = IncidentStore::open(&dir).unwrap();

    let n = incidents.len().min(2);
    for inc in &incidents[..n] {
        let (json_path, dot_path) = store.save(inc).unwrap();
        assert!(json_path.exists() && dot_path.exists());
        let dot = std::fs::read_to_string(&dot_path).unwrap();
        assert!(dot.starts_with("digraph"));
        assert!(
            dot.contains("fillcolor=lightcoral"),
            "knot must be highlighted"
        );
        assert!(dot.contains("@ cycle"), "artifact must be titled");
    }
    let index = store.list().unwrap();
    assert_eq!(index.len(), n);
    assert_eq!(index[0].cycle, incidents[0].cycle);
    assert_eq!(index[0].fingerprint, incidents[0].fingerprint);

    let back = store.load(&index[0].file).unwrap();
    assert_eq!(back, incidents[0]);

    let _ = std::fs::remove_dir_all(&dir);
}
