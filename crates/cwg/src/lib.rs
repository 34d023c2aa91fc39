//! Channel wait-for graphs (CWGs) and **true deadlock detection**.
//!
//! The paper's methodological contribution is measuring *actual* deadlocks,
//! not approximations: a deadlock exists iff the channel wait-for graph
//! contains a **knot** — a set of vertices each of which reaches exactly
//! that set \[6, 9\]. This crate implements:
//!
//! * [`WaitGraph`] — the CWG itself. Vertices are virtual channels; a solid
//!   arc `u → v` labelled with message `m` records that `m` acquired `v`
//!   after `u` and still owns both; dashed arcs fan out from a blocked
//!   message's head VC to every VC its routing relation currently supplies.
//!   The graph's record table is its only adjacency: one pool holds every
//!   chain and request list, and each vertex's arcs are a range of it, so
//!   the algorithms below walk the graph through [`Adjacency`] without a
//!   per-epoch copy.
//! * Knot detection: a knot is precisely a **non-trivial terminal SCC**
//!   (no arcs leave the component), because then the reachable set of every
//!   member is the component itself. An iterative Tarjan finds them on the
//!   record graph ([`DetectorScratch`]).
//! * [`WaitGraph::count_cycles_with`] — capped elementary-cycle counting
//!   (Johnson's algorithm, run per SCC on its branch-vertex contraction),
//!   used for the paper's *cyclic non-deadlock* and *knot cycle density*
//!   measurements.
//! * [`Analysis`] — per-knot deadlock descriptors: deadlock set, resource
//!   set, knot cycle density, single- vs multi-cycle classification, plus
//!   the *dependent message* census of §2.2.1.
//! * [`CwgSnapshot`] — the wait-for state as data (per message: the chain
//!   it holds, the vertices it waits for), the one owned record forensics,
//!   validation and tools share; it builds the [`WaitGraph`] it describes
//!   and carries the CWG JSON codec.
//!
//! The crate is deliberately independent of the simulator: vertices are
//! plain `u32` ids and messages plain `u64`s, so the detector can be tested
//! against the paper's Figures 1–4 verbatim (see `tests/figures_1_to_4.rs`
//! at the workspace root) and fuzzed with random graphs.
//!
//! # Example: the paper's Figure 1 deadlock
//!
//! ```
//! use icn_cwg::{WaitGraph, DeadlockKind};
//!
//! let mut g = WaitGraph::new(8);
//! g.add_chain(1, &[1, 2]);      // m1 owns c1, c2 ...
//! g.add_chain(2, &[3, 4, 5]);
//! g.add_chain(3, &[6, 7, 0]);
//! g.add_requests(1, &[3]);      // ... and waits for c3 (owned by m2)
//! g.add_requests(2, &[6]);
//! g.add_requests(3, &[1]);
//!
//! let analysis = g.analyze(1_000);
//! let d = &analysis.deadlocks[0];
//! assert_eq!(d.deadlock_set, vec![1, 2, 3]);
//! assert_eq!(d.resource_set.len(), 8);
//! assert_eq!(d.kind(), DeadlockKind::SingleCycle);
//! ```

mod adjacency;
mod analysis;
mod cycles;
mod dot;
mod dynamic;
mod graph;
mod idmap;
pub mod jsonio;
mod scc;
mod serialize;
mod snapshot;

pub use adjacency::Adjacency;
pub use analysis::{Analysis, Deadlock, DeadlockKind, DependentKind, DetectorScratch};
pub use cycles::CycleCount;
pub use dynamic::DynamicWaitGraph;
pub use graph::{MessageId, VertexId, WaitGraph};
pub use snapshot::{CwgMsg, CwgSnapshot};
