//! Interconnection-network geometry for the deadlock characterization study.
//!
//! The paper evaluates k-ary n-cube networks (tori) with unidirectional or
//! bidirectional physical channels, plus meshes as the non-wrapped variant.
//! This crate owns the *static* structure of a network: node naming,
//! physical-channel naming, adjacency, and distance metrics. Everything that
//! moves (flits, virtual channels, messages) lives in `icn-sim`.
//!
//! Channels are **unidirectional** physical links: a bidirectional torus has
//! two channels per (node, dimension, direction-neighbor) pair, one in each
//! direction. Channel ids are dense (`0..num_channels()`), which lets the
//! simulator index per-channel state with plain vectors.
//!
//! ```
//! use icn_topology::{KAryNCube, NodeId};
//!
//! let torus = KAryNCube::torus(16, 2, true); // the paper's default network
//! assert_eq!(torus.num_nodes(), 256);
//! assert_eq!(torus.num_channels(), 1024);
//! assert_eq!(torus.distance(NodeId(0), NodeId(255)), 2); // wraparound
//! ```

mod coords;
mod ids;
mod karyncube;

pub use coords::Coords;
pub use ids::{ChannelId, Direction, NodeId};
pub use karyncube::{ChannelInfo, KAryNCube, RoutingOffset};

/// Maximum supported number of dimensions.
///
/// Eight dimensions of radix ≥ 2 already exceeds every configuration in the
/// paper (the largest is a 4-ary 4-cube); a fixed bound keeps [`Coords`]
/// allocation-free.
pub const MAX_DIMS: usize = 8;
