//! The coordinate and wraparound tables against the arithmetic they
//! replaced. `KAryNCube` stores every node's coordinates and every
//! channel's wraparound flag, filled by an odometer in the channel pass;
//! the oracle below is the division-based geometry (`% k`, `/ k`,
//! `rem_euclid`) it used to recompute on every call. Every torus (uni- and
//! bidirectional) and mesh with k ∈ 2..=6 and n ∈ 1..=4, plus hypercubes up
//! to n = 6, must agree on the channel list, coordinates, neighbours and
//! wraparound flags; up to 256 nodes `routing_offset`, `distance` and the
//! one-dimension misroute test are checked exhaustively, above that on a
//! fixed-seed sample.

use icn_topology::{ChannelId, ChannelInfo, Direction, KAryNCube, NodeId, RoutingOffset, MAX_DIMS};

/// Largest node count checked exhaustively pair by pair.
const EXHAUSTIVE_NODES: usize = 256;
/// Sample size per topology above [`EXHAUSTIVE_NODES`].
const SAMPLES: usize = 20_000;

/// Division-based geometry, as computed before the tables existed.
struct Oracle {
    k: u16,
    n: usize,
    wrap: bool,
    bidirectional: bool,
}

impl Oracle {
    fn of(t: &KAryNCube) -> Self {
        Oracle {
            k: t.k(),
            n: t.n(),
            wrap: t.is_torus(),
            bidirectional: t.ports_per_node() == 2 * t.n(),
        }
    }

    fn coords_raw(&self, node: NodeId) -> [u16; MAX_DIMS] {
        let mut c = [0u16; MAX_DIMS];
        let mut rest = node.0;
        let k = self.k as u32;
        for slot in c.iter_mut().take(self.n) {
            *slot = (rest % k) as u16;
            rest /= k;
        }
        c
    }

    fn node_at(&self, c: &[u16]) -> NodeId {
        let k = self.k as u64;
        let mut id = 0u64;
        for d in (0..self.n).rev() {
            id = id * k + c[d] as u64;
        }
        NodeId(id as u32)
    }

    fn neighbor(&self, node: NodeId, dim: usize, dir: Direction) -> Option<NodeId> {
        let mut c = self.coords_raw(node);
        let cur = c[dim];
        c[dim] = match (dir, self.wrap) {
            (Direction::Plus, true) => (cur + 1) % self.k,
            (Direction::Minus, true) => (cur + self.k - 1) % self.k,
            (Direction::Plus, false) if cur + 1 < self.k => cur + 1,
            (Direction::Minus, false) if cur > 0 => cur - 1,
            _ => return None,
        };
        Some(self.node_at(&c[..self.n]))
    }

    /// Node-major, then dimension, `Plus` before `Minus`.
    fn channels(&self, num_nodes: usize) -> Vec<ChannelInfo> {
        let dirs: &[Direction] = if self.bidirectional {
            &[Direction::Plus, Direction::Minus]
        } else {
            &[Direction::Plus]
        };
        let mut out = Vec::new();
        for node in 0..num_nodes as u32 {
            for dim in 0..self.n {
                for &dir in dirs {
                    if let Some(dst) = self.neighbor(NodeId(node), dim, dir) {
                        out.push(ChannelInfo {
                            src: NodeId(node),
                            dst,
                            dim: dim as u8,
                            dir,
                        });
                    }
                }
            }
        }
        out
    }

    fn is_wraparound(&self, info: &ChannelInfo) -> bool {
        if !self.wrap {
            return false;
        }
        let coord = self.coords_raw(info.src)[info.dim as usize];
        match info.dir {
            Direction::Plus => coord == self.k - 1,
            Direction::Minus => coord == 0,
        }
    }

    fn routing_offset(&self, cur: NodeId, dst: NodeId, dim: usize) -> RoutingOffset {
        let a = self.coords_raw(cur)[dim] as i32;
        let b = self.coords_raw(dst)[dim] as i32;
        let k = self.k as i32;
        if a == b {
            return RoutingOffset::Zero;
        }
        if !self.wrap {
            return if b > a {
                RoutingOffset::Dir(Direction::Plus, (b - a) as u32)
            } else {
                RoutingOffset::Dir(Direction::Minus, (a - b) as u32)
            };
        }
        if !self.bidirectional {
            return RoutingOffset::Dir(Direction::Plus, (b - a).rem_euclid(k) as u32);
        }
        let fwd = (b - a).rem_euclid(k) as u32;
        let bwd = (a - b).rem_euclid(k) as u32;
        match fwd.cmp(&bwd) {
            core::cmp::Ordering::Less => RoutingOffset::Dir(Direction::Plus, fwd),
            core::cmp::Ordering::Greater => RoutingOffset::Dir(Direction::Minus, bwd),
            core::cmp::Ordering::Equal => RoutingOffset::Either(fwd),
        }
    }

    fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        (0..self.n)
            .map(|d| match self.routing_offset(a, b, d) {
                RoutingOffset::Zero => 0,
                RoutingOffset::Dir(_, h) | RoutingOffset::Either(h) => h,
            })
            .sum()
    }
}

/// SplitMix64, fixed seed: the sample above 256 nodes is the same every run.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

fn topologies() -> Vec<KAryNCube> {
    let mut v = Vec::new();
    for k in 2..=6u16 {
        for n in 1..=4 {
            v.push(KAryNCube::torus(k, n, true));
            v.push(KAryNCube::torus(k, n, false));
            v.push(KAryNCube::mesh(k, n));
        }
    }
    v.extend((1..=6).map(KAryNCube::hypercube));
    v
}

fn name(t: &KAryNCube) -> String {
    let kind = match (t.is_torus(), t.ports_per_node() == 2 * t.n()) {
        (true, true) => "bi-torus",
        (true, false) => "uni-torus",
        _ => "mesh",
    };
    format!("{}-ary {}-cube {kind}", t.k(), t.n())
}

/// Every `(a, b)` pair up to [`EXHAUSTIVE_NODES`] nodes, else a fixed-seed
/// sample of [`SAMPLES`] pairs.
fn pairs(a_count: usize, b_count: usize, nodes: usize) -> Vec<(usize, usize)> {
    if nodes <= EXHAUSTIVE_NODES {
        (0..a_count)
            .flat_map(|a| (0..b_count).map(move |b| (a, b)))
            .collect()
    } else {
        let mut rng = Rng(0x5eed);
        (0..SAMPLES)
            .map(|_| (rng.below(a_count), rng.below(b_count)))
            .collect()
    }
}

#[test]
fn channels_coords_neighbours_and_wraparound_match_the_arithmetic() {
    for t in topologies() {
        let o = Oracle::of(&t);
        let label = name(&t);
        assert_eq!(
            t.channels(),
            &o.channels(t.num_nodes())[..],
            "{label}: channel list"
        );
        for (id, info) in t.channels().iter().enumerate() {
            let c = ChannelId(id as u32);
            assert_eq!(t.channel(c), info);
            assert_eq!(
                t.is_wraparound(c),
                o.is_wraparound(info),
                "{label}: wrap of {c}"
            );
        }
        for node in (0..t.num_nodes() as u32).map(NodeId) {
            let want = o.coords_raw(node);
            assert_eq!(
                t.coords(node).as_slice(),
                &want[..t.n()],
                "{label}: coords of {node}"
            );
            assert_eq!(t.node_at(&t.coords(node)), node);
            for dim in 0..t.n() {
                for dir in [Direction::Plus, Direction::Minus] {
                    let port = o.bidirectional || dir == Direction::Plus;
                    assert_eq!(
                        t.channel_from(node, dim, dir).map(|c| t.channel(c).dst),
                        o.neighbor(node, dim, dir).filter(|_| port),
                        "{label}: neighbour of {node} dim {dim} {dir:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn routing_offset_and_distance_match_the_arithmetic() {
    for t in topologies() {
        let o = Oracle::of(&t);
        let label = name(&t);
        let nodes = t.num_nodes();
        for (a, b) in pairs(nodes, nodes, nodes) {
            let (a, b) = (NodeId(a as u32), NodeId(b as u32));
            for dim in 0..t.n() {
                assert_eq!(
                    t.routing_offset(a, b, dim),
                    o.routing_offset(a, b, dim),
                    "{label}: offset {a} -> {b} dim {dim}"
                );
            }
            assert_eq!(
                t.distance(a, b),
                o.distance(a, b),
                "{label}: distance {a} -> {b}"
            );
        }
    }
}

#[test]
fn one_dimension_misroute_test_equals_two_distances() {
    for t in topologies() {
        let o = Oracle::of(&t);
        let label = name(&t);
        let nodes = t.num_nodes();
        for (c, dst) in pairs(t.num_channels(), nodes, nodes) {
            let (c, dst) = (ChannelId(c as u32), NodeId(dst as u32));
            let info = t.channel(c);
            assert_eq!(
                t.is_misroute(c, dst),
                o.distance(info.dst, dst) >= o.distance(info.src, dst),
                "{label}: misroute over {c} towards {dst}"
            );
        }
    }
}
