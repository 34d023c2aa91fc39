//! Dense integer identifiers for nodes and physical channels.

use core::fmt;

/// Identifies a network node (router + local processor).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Identifies a unidirectional physical channel.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId(pub u32);

impl NodeId {
    /// The id as a `usize`, for indexing per-node tables.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl ChannelId {
    /// The id as a `usize`, for indexing per-channel tables.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Travel direction along a dimension.
///
/// `Plus` moves towards increasing coordinates (wrapping in a torus);
/// `Minus` towards decreasing ones. Unidirectional tori only provide `Plus`
/// channels, which is what forces the "circular overlap" the paper
/// identifies as the major contributor to deadlock frequency in uni-tori.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Direction {
    Plus,
    Minus,
}

impl Direction {
    /// Port offset within a node's channel block (Plus = 0, Minus = 1).
    #[inline]
    pub fn port_offset(self) -> usize {
        match self {
            Direction::Plus => 0,
            Direction::Minus => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_format_compactly() {
        assert_eq!(format!("{:?}", NodeId(3)), "n3");
        assert_eq!(format!("{}", ChannelId(17)), "c17");
    }

    #[test]
    fn port_offsets_are_distinct() {
        assert_ne!(
            Direction::Plus.port_offset(),
            Direction::Minus.port_offset()
        );
    }
}
