//! Independent validation layer for the deadlock reproduction.
//!
//! The production detector (`icn-cwg`) is heavily optimized — arena
//! snapshots, in-place rebuilds, Tarjan knot finding over the graph's own
//! arc ranges, a cached knot verdict — which is exactly why it needs an
//! adversarial correctness net that shares none of that machinery. This
//! crate provides these independent lines of defense:
//!
//! * [`oracle`] — a deliberately naive knot finder (dense adjacency
//!   matrix, fixed-point escape reduction, Warshall closure) plus a
//!   brute-force minimal-closed-set enumerator: three implementations of
//!   the paper's §2 definitions that must always agree. It reads the same
//!   `icn_cwg::CwgSnapshot` record as everything else and imports no
//!   other `icn_cwg` code.
//! * [`diff`] — the one production-vs-oracle comparator
//!   ([`check_messages`]), with a greedy minimizer for any divergence.
//! * [`cycles`] — a naive simple-path cycle counter refereeing the
//!   production cycle counts (whole-graph census and knot density) and
//!   their cap semantics.
//! * [`gen`] — a seeded random CWG generator (own SplitMix64, no shared
//!   randomness) biased to actually produce knots.
//! * [`explore`](mod@explore) — exhaustive enumeration of every injection schedule on
//!   tiny networks, auditing every cycle of every execution.
//!
//! The run-coupled pieces (auditing run observer, live campaigns,
//! incident checks) live in `flexsim::validate`, which builds on this
//! crate; the torture harness over live runs is `tests/validation.rs`.

pub mod cycles;
pub mod diff;
pub mod explore;
pub mod gen;
pub mod oracle;

pub use cycles::check_cycle_counts;
pub use diff::{check_messages, minimize_divergence, Divergence, BRUTE_FORCE_CAP};
pub use explore::{explore, ExploreConfig, ExploreReport, ExploreRouting};
pub use gen::{random_snapshot, GenParams, SplitMix64};
pub use oracle::{
    minimal_deadlock_sets, oracle_analyze, OracleAnalysis, OracleDependent, OracleKnot,
};
