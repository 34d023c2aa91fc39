//! k-ary n-cube networks: tori (uni- or bidirectional) and meshes.
//!
//! Geometry is tabulated, not computed: every node's coordinates and every
//! channel's wraparound flag are stored when the network is built, so the
//! routing hot path (`routing_offset`, `distance`, `is_wraparound`) reads
//! memory instead of dividing by `k`. The tables are filled in the same
//! single pass that numbers the channels, with an odometer for the
//! coordinates and `node ± stride` for the neighbours, so building them
//! costs no division either.

use crate::{ChannelId, Coords, Direction, NodeId, MAX_DIMS};

/// Static description of one unidirectional physical channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChannelInfo {
    /// Node the channel leaves from.
    pub src: NodeId,
    /// Node the channel arrives at (where its edge buffers live).
    pub dst: NodeId,
    /// Dimension the channel travels along.
    pub dim: u8,
    /// Direction of travel along that dimension.
    pub dir: Direction,
}

/// How far, and which way, a dimension still needs to be corrected to reach
/// a destination under *minimal* routing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoutingOffset {
    /// Already aligned in this dimension.
    Zero,
    /// Must travel `hops` in the given direction.
    Dir(Direction, u32),
    /// Bidirectional torus with the offset exactly k/2: both directions are
    /// minimal (`hops` each way).
    Either(u32),
}

/// A k-ary n-cube: `k` nodes along each of `n` dimensions.
///
/// * `wrap = true` gives a torus; `false` a mesh.
/// * `bidirectional = false` gives channels only in the `Plus` direction
///   (the classic unidirectional torus); meshes must be bidirectional to
///   stay connected.
///
/// Besides the channel tables it keeps `n` `u16` coordinates per node
/// (24 KB at 4,096 nodes) and a wraparound flag per channel, so no query
/// on the routing path divides.
#[derive(Clone, Debug)]
pub struct KAryNCube {
    k: u16,
    n: usize,
    wrap: bool,
    bidirectional: bool,
    num_nodes: u32,
    /// Per-node coordinates, flattened: dimension `d` of `node` at
    /// `node * n + d`.
    coords: Vec<u16>,
    channels: Vec<ChannelInfo>,
    /// Per-channel torus-wraparound flag, indexed like `channels`.
    wraparound: Vec<bool>,
    /// `node * ports_per_node + port -> channel id` (`u32::MAX` = no channel,
    /// which happens at mesh edges).
    port_table: Vec<u32>,
    /// Outgoing channels per node, flattened; indexed via `out_offsets`.
    out_flat: Vec<ChannelId>,
    out_offsets: Vec<u32>,
    avg_distance: f64,
}

const NO_CHANNEL: u32 = u32::MAX;

impl KAryNCube {
    /// Builds a torus with `k` nodes per dimension and `n` dimensions.
    pub fn torus(k: u16, n: usize, bidirectional: bool) -> Self {
        Self::build(k, n, true, bidirectional)
    }

    /// Builds a bidirectional mesh (no wraparound channels).
    pub fn mesh(k: u16, n: usize) -> Self {
        Self::build(k, n, false, true)
    }

    /// Builds a binary hypercube of dimension `n` (2^n nodes).
    ///
    /// A 2-ary n-mesh *is* the hypercube: each dimension holds two nodes
    /// joined by one channel in each direction (a 2-ary torus would
    /// instead duplicate them as wraparounds). Dimension-order routing on
    /// it is the classic e-cube algorithm.
    pub fn hypercube(n: usize) -> Self {
        Self::mesh(2, n)
    }

    fn build(k: u16, n: usize, wrap: bool, bidirectional: bool) -> Self {
        assert!(k >= 2, "radix must be at least 2");
        assert!(
            (1..=MAX_DIMS).contains(&n),
            "1..={MAX_DIMS} dimensions required"
        );
        assert!(
            wrap || bidirectional,
            "a unidirectional mesh is disconnected"
        );
        let num_nodes = (k as u64).checked_pow(n as u32).expect("k^n overflow");
        assert!(num_nodes <= u32::MAX as u64, "too many nodes");
        let num_nodes = num_nodes as u32;

        let dirs: &[Direction] = if bidirectional {
            &[Direction::Plus, Direction::Minus]
        } else {
            &[Direction::Plus]
        };
        let ports_per_node = n * dirs.len();
        let nodes = num_nodes as usize;
        let max_channels = nodes * ports_per_node;

        let mut stride = [0u32; MAX_DIMS];
        let mut s = 1u32;
        for slot in stride.iter_mut().take(n) {
            *slot = s;
            s *= k as u32;
        }

        // One pass numbers the channels (node-major, then dimension, `Plus`
        // before `Minus`) and fills every table, sized up front.
        let mut coords = Vec::with_capacity(nodes * n);
        let mut channels = Vec::with_capacity(max_channels);
        let mut wraparound = Vec::with_capacity(max_channels);
        let mut port_table = vec![NO_CHANNEL; max_channels];
        let mut out_flat = Vec::with_capacity(max_channels);
        let mut out_offsets = Vec::with_capacity(nodes + 1);
        // Odometer over the coordinates in node-id order (dimension 0
        // fastest), so no coordinate is ever divided out of an id.
        let mut c = [0u16; MAX_DIMS];
        for node in 0..num_nodes {
            coords.extend_from_slice(&c[..n]);
            out_offsets.push(out_flat.len() as u32);
            for (dim, &cur) in c[..n].iter().enumerate() {
                for &dir in dirs {
                    let Some((dst, wraps)) = hop(node, cur, k, stride[dim], wrap, dir) else {
                        continue;
                    };
                    let id = ChannelId(channels.len() as u32);
                    channels.push(ChannelInfo {
                        src: NodeId(node),
                        dst: NodeId(dst),
                        dim: dim as u8,
                        dir,
                    });
                    wraparound.push(wraps);
                    let port = dim * dirs.len() + dir.port_offset();
                    port_table[node as usize * ports_per_node + port] = id.0;
                    out_flat.push(id);
                }
            }
            for digit in c[..n].iter_mut() {
                *digit += 1;
                if *digit < k {
                    break;
                }
                *digit = 0;
            }
        }
        out_offsets.push(out_flat.len() as u32);

        let mut topo = Self {
            k,
            n,
            wrap,
            bidirectional,
            num_nodes,
            coords,
            channels,
            wraparound,
            port_table,
            out_flat,
            out_offsets,
            avg_distance: 0.0,
        };
        topo.avg_distance = topo.compute_avg_distance();
        topo
    }

    /// Radix (nodes per dimension).
    #[inline]
    pub fn k(&self) -> u16 {
        self.k
    }

    /// Number of dimensions.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// True for tori, false for meshes.
    #[inline]
    pub fn is_torus(&self) -> bool {
        self.wrap
    }

    /// Total node count (`k^n`).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes as usize
    }

    /// Total unidirectional physical channel count.
    #[inline]
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// Ports (potential outgoing channels) per node.
    #[inline]
    pub fn ports_per_node(&self) -> usize {
        self.n * if self.bidirectional { 2 } else { 1 }
    }

    /// Static description of a channel.
    #[inline]
    pub fn channel(&self, id: ChannelId) -> &ChannelInfo {
        &self.channels[id.idx()]
    }

    /// All channels, indexable by [`ChannelId::idx`].
    #[inline]
    pub fn channels(&self) -> &[ChannelInfo] {
        &self.channels
    }

    /// Converts a node id to per-dimension coordinates (a table read).
    pub fn coords(&self, node: NodeId) -> Coords {
        debug_assert!(node.0 < self.num_nodes);
        Coords::new(&self.coords[node.idx() * self.n..][..self.n])
    }

    /// Coordinate of `node` along `dim` (a table read).
    #[inline]
    fn coord(&self, node: NodeId, dim: usize) -> u16 {
        self.coords[node.idx() * self.n + dim]
    }

    /// Converts coordinates back to a node id.
    pub fn node_at(&self, coords: &Coords) -> NodeId {
        debug_assert_eq!(coords.dims(), self.n);
        let k = self.k as u64;
        let mut id = 0u64;
        for d in (0..self.n).rev() {
            debug_assert!(coords.get(d) < self.k);
            id = id * k + coords.get(d) as u64;
        }
        NodeId(id as u32)
    }

    /// The outgoing channel at (`node`, `dim`, `dir`), if present.
    pub fn channel_from(&self, node: NodeId, dim: usize, dir: Direction) -> Option<ChannelId> {
        debug_assert!(dim < self.n);
        if !self.bidirectional && dir == Direction::Minus {
            return None;
        }
        let dirs = if self.bidirectional { 2 } else { 1 };
        let port = dim * dirs + dir.port_offset();
        let raw = self.port_table[node.idx() * self.ports_per_node() + port];
        (raw != NO_CHANNEL).then_some(ChannelId(raw))
    }

    /// All outgoing channels of a node.
    pub fn channels_from(&self, node: NodeId) -> &[ChannelId] {
        let lo = self.out_offsets[node.idx()] as usize;
        let hi = self.out_offsets[node.idx() + 1] as usize;
        &self.out_flat[lo..hi]
    }

    /// Per-dimension routing offset from `cur` to `dst` under minimal
    /// routing: two coordinate-table reads and no division (the ring
    /// offset is one conditional `+ k`, the way back `k − fwd`).
    pub fn routing_offset(&self, cur: NodeId, dst: NodeId, dim: usize) -> RoutingOffset {
        let a = self.coord(cur, dim) as u32;
        let b = self.coord(dst, dim) as u32;
        if a == b {
            return RoutingOffset::Zero;
        }
        if !self.wrap {
            return if b > a {
                RoutingOffset::Dir(Direction::Plus, b - a)
            } else {
                RoutingOffset::Dir(Direction::Minus, a - b)
            };
        }
        let k = self.k as u32;
        let fwd = if b > a { b - a } else { b + k - a };
        if !self.bidirectional {
            return RoutingOffset::Dir(Direction::Plus, fwd);
        }
        let bwd = k - fwd;
        match fwd.cmp(&bwd) {
            core::cmp::Ordering::Less => RoutingOffset::Dir(Direction::Plus, fwd),
            core::cmp::Ordering::Greater => RoutingOffset::Dir(Direction::Minus, bwd),
            core::cmp::Ordering::Equal => RoutingOffset::Either(fwd),
        }
    }

    /// Minimal hops from `a` to `b` along dimension `dim` alone.
    #[inline]
    pub fn dim_distance(&self, a: NodeId, b: NodeId, dim: usize) -> u32 {
        match self.routing_offset(a, b, dim) {
            RoutingOffset::Zero => 0,
            RoutingOffset::Dir(_, h) | RoutingOffset::Either(h) => h,
        }
    }

    /// Minimal hop distance from `a` to `b`: distance is separable, so this
    /// is the sum of [`Self::dim_distance`] over every dimension.
    pub fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        (0..self.n).map(|d| self.dim_distance(a, b, d)).sum()
    }

    /// Whether a hop over channel `c` fails to bring its header closer to
    /// `dst` (a non-minimal hop, which spends misroute budget). A channel
    /// changes exactly one coordinate and distance is separable, so only
    /// the channel's own dimension is compared; that equals
    /// `distance(c.dst, dst) >= distance(c.src, dst)` at `1/n` of the cost.
    #[inline]
    pub fn is_misroute(&self, c: ChannelId, dst: NodeId) -> bool {
        let info = self.channel(c);
        let d = info.dim as usize;
        let misroute = self.dim_distance(info.dst, dst, d) >= self.dim_distance(info.src, dst, d);
        debug_assert_eq!(
            misroute,
            self.distance(info.dst, dst) >= self.distance(info.src, dst)
        );
        misroute
    }

    /// Average inter-node distance over all ordered pairs with `src != dst`.
    ///
    /// This is the denominator the paper uses when normalizing offered load
    /// to network capacity.
    #[inline]
    pub fn avg_distance(&self) -> f64 {
        self.avg_distance
    }

    fn compute_avg_distance(&self) -> f64 {
        // Distance is separable across dimensions, so compute the mean
        // per-dimension offset cost over *all* ordered pairs, then rescale to
        // exclude the src == dst pairs (which all have distance zero).
        let k = self.k as u64;
        let mut mean_all = 0.0f64;
        for _dim in 0..self.n {
            let mut total = 0u64;
            if self.wrap {
                for a in 0..k {
                    for b in 0..k {
                        let fwd = (b + k - a) % k;
                        let d = if self.bidirectional {
                            fwd.min(k - fwd).min(fwd)
                        } else {
                            fwd
                        };
                        total += d;
                    }
                }
            } else {
                for a in 0..k {
                    for b in 0..k {
                        total += a.abs_diff(b);
                    }
                }
            }
            mean_all += total as f64 / (k * k) as f64;
        }
        let nn = self.num_nodes as f64;
        mean_all * nn / (nn - 1.0)
    }

    /// True when the channel is a torus wraparound link (crosses the
    /// "dateline" of its dimension). Dateline-based deadlock-avoidance
    /// schemes switch virtual-channel classes on these links. A table read:
    /// the flag is recorded when the channel is built.
    #[inline]
    pub fn is_wraparound(&self, c: ChannelId) -> bool {
        self.wraparound[c.idx()]
    }

    /// Network capacity in flits per node per cycle: every physical channel
    /// carrying one flit per cycle, divided among nodes whose messages each
    /// consume `avg_distance` channel-cycles per flit.
    pub fn capacity_flits_per_node_cycle(&self) -> f64 {
        self.num_channels() as f64 / (self.num_nodes() as f64 * self.avg_distance())
    }
}

/// One hop from `node`, whose coordinate along the hop's dimension is
/// `cur`: the destination id and whether the hop crosses that ring's
/// wraparound link, or `None` off a mesh edge. `stride` is the
/// dimension's id step (`k^dim`), so the far end of the ring is
/// `(k − 1) · stride` away.
#[inline]
fn hop(
    node: u32,
    cur: u16,
    k: u16,
    stride: u32,
    wrap: bool,
    dir: Direction,
) -> Option<(u32, bool)> {
    let span = (k as u32 - 1) * stride;
    match dir {
        Direction::Plus if cur + 1 < k => Some((node + stride, false)),
        Direction::Minus if cur > 0 => Some((node - stride, false)),
        Direction::Plus if wrap => Some((node - span, true)),
        Direction::Minus if wrap => Some((node + span, true)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bi_torus_counts() {
        let t = KAryNCube::torus(16, 2, true);
        assert_eq!(t.num_nodes(), 256);
        assert_eq!(t.num_channels(), 1024); // 4 outgoing per node
        assert_eq!(t.ports_per_node(), 4);
    }

    #[test]
    fn uni_torus_counts() {
        let t = KAryNCube::torus(16, 2, false);
        assert_eq!(t.num_nodes(), 256);
        assert_eq!(t.num_channels(), 512); // 2 outgoing per node
    }

    #[test]
    fn mesh_counts() {
        let m = KAryNCube::mesh(4, 2);
        assert_eq!(m.num_nodes(), 16);
        // per dimension: 2 * k^(n-1) * (k-1) = 2*4*3 = 24; two dims = 48.
        assert_eq!(m.num_channels(), 48);
    }

    #[test]
    fn four_ary_four_cube_counts() {
        let t = KAryNCube::torus(4, 4, true);
        assert_eq!(t.num_nodes(), 256);
        assert_eq!(t.num_channels(), 256 * 8);
    }

    #[test]
    fn coords_roundtrip() {
        let t = KAryNCube::torus(5, 3, true);
        for id in 0..t.num_nodes() as u32 {
            let n = NodeId(id);
            assert_eq!(t.node_at(&t.coords(n)), n);
        }
    }

    #[test]
    fn torus_wraps() {
        let t = KAryNCube::torus(4, 2, true);
        // node (3, 0) in +x wraps to (0, 0)
        let n = t.node_at(&Coords::new(&[3, 0]));
        let step = |node, dim, dir| t.channel_from(node, dim, dir).map(|c| t.channel(c).dst);
        assert_eq!(
            step(n, 0, Direction::Plus),
            Some(t.node_at(&Coords::new(&[0, 0])))
        );
        assert_eq!(
            step(NodeId(0), 1, Direction::Minus),
            Some(t.node_at(&Coords::new(&[0, 3])))
        );
    }

    #[test]
    fn mesh_has_edges() {
        let m = KAryNCube::mesh(4, 2);
        let corner = m.node_at(&Coords::new(&[0, 0]));
        assert_eq!(m.channel_from(corner, 0, Direction::Minus), None);
        assert_eq!(m.channel_from(corner, 1, Direction::Minus), None);
        assert!(m.channel_from(corner, 0, Direction::Plus).is_some());
    }

    #[test]
    fn uni_torus_has_no_minus_channels() {
        let t = KAryNCube::torus(8, 2, false);
        for node in 0..t.num_nodes() as u32 {
            assert_eq!(t.channel_from(NodeId(node), 0, Direction::Minus), None);
            assert_eq!(t.channel_from(NodeId(node), 1, Direction::Minus), None);
        }
    }

    #[test]
    fn channel_lookup_matches_info() {
        let t = KAryNCube::torus(6, 2, true);
        for id in 0..t.num_channels() as u32 {
            let c = ChannelId(id);
            let info = *t.channel(c);
            assert_eq!(
                t.channel_from(info.src, info.dim as usize, info.dir),
                Some(c)
            );
            assert!(t.channels_from(info.src).contains(&c));
        }
    }

    #[test]
    fn distances_bi_torus() {
        let t = KAryNCube::torus(16, 2, true);
        let a = t.node_at(&Coords::new(&[0, 0]));
        let b = t.node_at(&Coords::new(&[15, 0]));
        assert_eq!(t.distance(a, b), 1); // wraps
        let c = t.node_at(&Coords::new(&[8, 8]));
        assert_eq!(t.distance(a, c), 16);
    }

    #[test]
    fn distances_uni_torus() {
        let t = KAryNCube::torus(16, 2, false);
        let a = t.node_at(&Coords::new(&[1, 0]));
        let b = t.node_at(&Coords::new(&[0, 0]));
        // forward-only: must travel 15 hops around the ring
        assert_eq!(t.distance(a, b), 15);
        assert_eq!(t.distance(b, a), 1);
    }

    #[test]
    fn routing_offset_tie_detected() {
        let t = KAryNCube::torus(16, 2, true);
        let a = t.node_at(&Coords::new(&[0, 0]));
        let b = t.node_at(&Coords::new(&[8, 0]));
        assert_eq!(t.routing_offset(a, b, 0), RoutingOffset::Either(8));
        assert_eq!(t.routing_offset(a, b, 1), RoutingOffset::Zero);
    }

    #[test]
    fn avg_distance_known_values() {
        // Bidirectional 16-ary 2-cube: per-dim mean over all pairs is
        // 64/16 = 4.0; two dims = 8.0; rescaled by 256/255.
        let bi = KAryNCube::torus(16, 2, true);
        let expect = 8.0 * 256.0 / 255.0;
        assert!((bi.avg_distance() - expect).abs() < 1e-9);

        // Unidirectional: per-dim mean is (k-1)/2 = 7.5; two dims = 15.
        let uni = KAryNCube::torus(16, 2, false);
        let expect = 15.0 * 256.0 / 255.0;
        assert!((uni.avg_distance() - expect).abs() < 1e-9);
    }

    #[test]
    fn capacity_matches_paper_ballpark() {
        // bi 16-ary 2-cube: 1024 links / (256 nodes * ~8 hops) ≈ 0.5 f/n/c.
        let bi = KAryNCube::torus(16, 2, true);
        assert!((bi.capacity_flits_per_node_cycle() - 0.498).abs() < 0.01);
        let uni = KAryNCube::torus(16, 2, false);
        assert!((uni.capacity_flits_per_node_cycle() - 0.1328).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn uni_mesh_rejected() {
        let _ = KAryNCube::build(4, 2, false, false);
    }

    #[test]
    fn hypercube_structure() {
        let h = KAryNCube::hypercube(4);
        assert_eq!(h.num_nodes(), 16);
        assert_eq!(h.num_channels(), 4 * 16); // n outgoing per node
                                              // Neighbours differ in exactly one coordinate bit.
        for node in 0..16u32 {
            for &ch in h.channels_from(NodeId(node)) {
                let info = h.channel(ch);
                let diff = info.src.0 ^ info.dst.0;
                assert!(diff.is_power_of_two(), "hamming distance 1");
            }
        }
        // Distance = Hamming distance.
        assert_eq!(h.distance(NodeId(0b0000), NodeId(0b1011)), 3);
        // Node ids are the coordinate bit strings.
        assert_eq!(h.node_at(&Coords::new(&[1, 0, 1, 1])), NodeId(0b1101));
    }

    #[test]
    fn wraparound_channels_identified() {
        let t = KAryNCube::torus(4, 2, true);
        let wraps: usize = (0..t.num_channels() as u32)
            .filter(|&c| t.is_wraparound(ChannelId(c)))
            .count();
        // per dim per direction: k^(n-1) wrap links = 4; 2 dims * 2 dirs = 16.
        assert_eq!(wraps, 16);
        let m = KAryNCube::mesh(4, 2);
        assert!((0..m.num_channels() as u32).all(|c| !m.is_wraparound(ChannelId(c))));
    }

    #[test]
    fn channels_from_covers_all_channels() {
        let t = KAryNCube::torus(4, 3, true);
        let total: usize = (0..t.num_nodes() as u32)
            .map(|n| t.channels_from(NodeId(n)).len())
            .sum();
        assert_eq!(total, t.num_channels());
    }
}
