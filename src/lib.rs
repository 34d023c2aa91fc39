//! Umbrella crate for the IPPS'97 deadlock-characterization reproduction.
//!
//! This crate re-exports the public surface of the workspace so the
//! examples and integration tests can use a single dependency. The real
//! functionality lives in the member crates:
//!
//! * [`icn_topology`] — k-ary n-cube network geometry
//! * [`icn_routing`] — DOR, TFAR and avoidance-baseline routing relations
//! * [`icn_traffic`] — traffic patterns and load normalization
//! * [`icn_sim`] — the flit-level network engine
//! * [`icn_cwg`] — channel wait-for graphs, knots, and true deadlock detection
//! * [`icn_metrics`] — measurement plumbing
//! * [`flexsim`] — the orchestrating simulator (detection cadence, recovery,
//!   experiment sweeps)
//! * [`server`] (crate `icn-server`) — the campaign server: HTTP
//!   job API, one work queue, content-addressed result cache, and the
//!   one resumable-campaign path

pub use flexsim;
pub use icn_cwg;
pub use icn_metrics;
pub use icn_routing;
pub use icn_server as server;
pub use icn_sim;
pub use icn_topology;
pub use icn_traffic;
