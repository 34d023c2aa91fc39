//! Boundary-case and property coverage for k-ary n-cube geometry.
//!
//! The constructions exercised here sit at the boundaries of the parameter
//! space the experiments sweep: radix-2 tori (where the plus and minus
//! neighbours are the *same* node reached over two parallel channels),
//! single-dimension rings and lines, meshes with their truncated boundary
//! ports, and the maximum dimension count. Identifier round-trips and
//! distance-metric laws are checked property-style on top.

use icn_topology::{ChannelId, Coords, Direction, KAryNCube, NodeId, RoutingOffset, MAX_DIMS};
use proptest::prelude::*;

/// The node one hop from `node` along `dim` in direction `dir`, over the
/// channel there (`None` off a mesh edge and for `Minus` on a
/// unidirectional torus).
fn step(t: &KAryNCube, node: NodeId, dim: usize, dir: Direction) -> Option<NodeId> {
    t.channel_from(node, dim, dir).map(|c| t.channel(c).dst)
}

fn opposite(dir: Direction) -> Direction {
    match dir {
        Direction::Plus => Direction::Minus,
        Direction::Minus => Direction::Plus,
    }
}

/// True when channels exist in both directions along each dimension.
fn bidirectional(t: &KAryNCube) -> bool {
    t.ports_per_node() == 2 * t.n()
}

// ---------------------------------------------------------------------------
// Radix-2 tori: +/- neighbours coincide, channels come in parallel pairs.
// ---------------------------------------------------------------------------

#[test]
fn radix2_torus_plus_and_minus_reach_the_same_node() {
    let t = KAryNCube::torus(2, 3, true);
    for node in 0..t.num_nodes() as u32 {
        for dim in 0..t.n() {
            let plus = step(&t, NodeId(node), dim, Direction::Plus);
            let minus = step(&t, NodeId(node), dim, Direction::Minus);
            assert_eq!(plus, minus, "k=2 wrap: both directions are one hop");
            assert_ne!(plus, Some(NodeId(node)), "never a self-loop");
        }
    }
}

#[test]
fn radix2_torus_has_parallel_channels() {
    // Between each adjacent pair a radix-2 bidirectional torus carries TWO
    // distinct channels per dimension (one Plus, one Minus) — unlike the
    // hypercube (2-ary mesh), which has exactly one.
    let t = KAryNCube::torus(2, 3, true);
    let h = KAryNCube::hypercube(3);
    assert_eq!(t.num_nodes(), h.num_nodes());
    assert_eq!(t.num_channels(), 2 * h.num_channels());
    for node in 0..t.num_nodes() as u32 {
        for dim in 0..3 {
            let p = t.channel_from(NodeId(node), dim, Direction::Plus).unwrap();
            let m = t.channel_from(NodeId(node), dim, Direction::Minus).unwrap();
            assert_ne!(p, m, "parallel channels are distinct resources");
            assert_eq!(t.channel(p).dst, t.channel(m).dst);
        }
    }
}

#[test]
fn radix2_torus_offsets_are_always_ties() {
    // Any misaligned dimension in a radix-2 bidirectional torus has offset
    // exactly k/2 = 1, so minimal routing may go either way.
    let t = KAryNCube::torus(2, 4, true);
    for a in 0..t.num_nodes() as u32 {
        for b in 0..t.num_nodes() as u32 {
            for dim in 0..t.n() {
                match t.routing_offset(NodeId(a), NodeId(b), dim) {
                    RoutingOffset::Zero => {}
                    RoutingOffset::Either(1) => {}
                    other => panic!("unexpected offset {other:?}"),
                }
            }
        }
    }
    // Distance equals Hamming distance on the coordinate bits.
    assert_eq!(t.distance(NodeId(0b0000), NodeId(0b1111)), 4);
}

#[test]
fn radix2_wraparound_split() {
    // With k=2 every dimension's dateline sits between its two nodes: the
    // Plus channel out of coordinate 1 wraps, as does Minus out of 0 —
    // exactly half of all channels.
    let t = KAryNCube::torus(2, 3, true);
    let wraps = (0..t.num_channels() as u32)
        .filter(|&c| t.is_wraparound(ChannelId(c)))
        .count();
    assert_eq!(wraps, t.num_channels() / 2);
}

// ---------------------------------------------------------------------------
// Single-dimension degenerates: rings and lines.
// ---------------------------------------------------------------------------

#[test]
fn unidirectional_ring_distances_are_asymmetric() {
    let r = KAryNCube::torus(5, 1, false);
    assert_eq!(r.num_nodes(), 5);
    assert_eq!(r.num_channels(), 5);
    for a in 0..5u32 {
        for b in 0..5u32 {
            let d = r.distance(NodeId(a), NodeId(b));
            assert_eq!(d, (b + 5 - a) % 5, "forward-only modular distance");
        }
    }
    // Going "back" one node costs k-1 hops.
    assert_eq!(r.distance(NodeId(1), NodeId(0)), 4);
    assert_eq!(r.distance(NodeId(0), NodeId(1)), 1);
}

#[test]
fn bidirectional_ring_takes_the_short_way() {
    let r = KAryNCube::torus(6, 1, true);
    assert_eq!(r.distance(NodeId(0), NodeId(5)), 1);
    assert_eq!(r.distance(NodeId(0), NodeId(3)), 3);
    assert_eq!(
        r.routing_offset(NodeId(0), NodeId(3), 0),
        RoutingOffset::Either(3),
        "antipodal offset on an even ring is a tie"
    );
    assert_eq!(
        r.routing_offset(NodeId(0), NodeId(4), 0),
        RoutingOffset::Dir(Direction::Minus, 2)
    );
}

#[test]
fn line_distances_and_endpoints() {
    let l = KAryNCube::mesh(7, 1);
    assert_eq!(l.num_nodes(), 7);
    assert_eq!(l.num_channels(), 12); // 6 pairs x 2 directions
    for a in 0..7u32 {
        for b in 0..7u32 {
            assert_eq!(l.distance(NodeId(a), NodeId(b)), a.abs_diff(b));
        }
    }
    // Endpoints have exactly one outgoing channel; interior nodes two.
    assert_eq!(l.channels_from(NodeId(0)).len(), 1);
    assert_eq!(l.channels_from(NodeId(6)).len(), 1);
    assert_eq!(l.channels_from(NodeId(3)).len(), 2);
    assert_eq!(l.channel_from(NodeId(0), 0, Direction::Minus), None);
    assert_eq!(l.channel_from(NodeId(6), 0, Direction::Plus), None);
}

#[test]
fn max_dims_roundtrip() {
    let t = KAryNCube::torus(2, MAX_DIMS, true);
    assert_eq!(t.num_nodes(), 1 << MAX_DIMS);
    for id in 0..t.num_nodes() as u32 {
        let n = NodeId(id);
        let c = t.coords(n);
        assert_eq!(c.dims(), MAX_DIMS);
        assert_eq!(t.node_at(&c), n);
    }
    // Opposite corners are MAX_DIMS hops apart.
    assert_eq!(
        t.distance(NodeId(0), NodeId((1 << MAX_DIMS) - 1)),
        MAX_DIMS as u32
    );
}

// ---------------------------------------------------------------------------
// Mesh boundaries.
// ---------------------------------------------------------------------------

#[test]
fn mesh_boundary_port_census() {
    // 4x4 mesh: corners keep 2 of 4 ports, edges 3, interior all 4.
    let m = KAryNCube::mesh(4, 2);
    let mut by_degree = [0usize; 5];
    for node in 0..m.num_nodes() as u32 {
        by_degree[m.channels_from(NodeId(node)).len()] += 1;
    }
    assert_eq!(by_degree, [0, 0, 4, 8, 4]);
    // Every missing port is a genuine boundary: the coordinate is at the
    // edge the port points past.
    for node in 0..m.num_nodes() as u32 {
        let c = m.coords(NodeId(node));
        for dim in 0..m.n() {
            let inner = [c.get(dim) + 1 < m.k(), c.get(dim) > 0];
            for (dir, inside) in [Direction::Plus, Direction::Minus].into_iter().zip(inner) {
                assert_eq!(m.channel_from(NodeId(node), dim, dir).is_some(), inside);
            }
        }
    }
}

#[test]
fn mesh_channels_pair_up() {
    // Bidirectional meshes: every channel has exactly one reverse channel.
    let m = KAryNCube::mesh(5, 2);
    for id in 0..m.num_channels() as u32 {
        let info = *m.channel(ChannelId(id));
        let back: Vec<_> = m
            .channels_from(info.dst)
            .iter()
            .filter(|&&c| m.channel(c).dst == info.src)
            .collect();
        assert_eq!(back.len(), 1, "exactly one reverse channel");
        let binfo = m.channel(*back[0]);
        assert_eq!(binfo.dim, info.dim);
        assert_eq!(binfo.dir, opposite(info.dir));
    }
}

// ---------------------------------------------------------------------------
// Identifier round-trips and metric laws, property-style.
// ---------------------------------------------------------------------------

/// Topology selection shared by the property tests: mixes tori (both
/// directionalities), meshes, rings, lines, and the hypercube.
fn topo(i: usize) -> KAryNCube {
    match i % 8 {
        0 => KAryNCube::torus(4, 2, true),
        1 => KAryNCube::torus(5, 2, false),
        2 => KAryNCube::torus(2, 5, true),
        3 => KAryNCube::mesh(4, 2),
        4 => KAryNCube::mesh(3, 3),
        5 => KAryNCube::torus(9, 1, true),
        6 => KAryNCube::mesh(8, 1),
        _ => KAryNCube::hypercube(5),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn node_id_roundtrip(i in 0usize..8, raw in any::<u32>()) {
        let t = topo(i);
        let n = NodeId(raw % t.num_nodes() as u32);
        let c = t.coords(n);
        prop_assert_eq!(c.dims(), t.n());
        for d in 0..t.n() {
            prop_assert!(c.get(d) < t.k());
        }
        prop_assert_eq!(t.node_at(&c), n);
        // And the reverse trip from arbitrary in-range coordinates.
        let vals: Vec<u16> = (0..t.n()).map(|d| (c.get(d) + 1) % t.k()).collect();
        let shifted = t.node_at(&Coords::new(&vals));
        prop_assert_eq!(t.coords(shifted).as_slice(), &vals[..]);
    }

    #[test]
    fn channel_id_roundtrip(i in 0usize..8, raw in any::<u32>()) {
        let t = topo(i);
        let c = ChannelId(raw % t.num_channels() as u32);
        let info = *t.channel(c);
        prop_assert_eq!(t.channel_from(info.src, info.dim as usize, info.dir), Some(c));
        prop_assert!(t.channels_from(info.src).contains(&c));
        prop_assert_eq!(t.distance(info.src, info.dst), 1);
    }

    #[test]
    fn distance_is_a_metric_on_bidirectional_topologies(
        i in 0usize..8,
        ra in any::<u32>(),
        rb in any::<u32>(),
        rc in any::<u32>(),
    ) {
        let t = topo(i);
        let nn = t.num_nodes() as u32;
        let (a, b, c) = (NodeId(ra % nn), NodeId(rb % nn), NodeId(rc % nn));
        // Identity of indiscernibles holds regardless of directionality.
        prop_assert_eq!(t.distance(a, a), 0);
        prop_assert_eq!(t.distance(a, b) == 0, a == b);
        if bidirectional(&t) {
            prop_assert_eq!(t.distance(a, b), t.distance(b, a), "symmetry");
        }
        // Triangle inequality: walking via b can never beat the minimum.
        prop_assert!(t.distance(a, c) <= t.distance(a, b) + t.distance(b, c));
    }

    #[test]
    fn distance_decomposes_over_dimension_offsets(i in 0usize..8, ra in any::<u32>(), rb in any::<u32>()) {
        let t = topo(i);
        let nn = t.num_nodes() as u32;
        let (a, b) = (NodeId(ra % nn), NodeId(rb % nn));
        let sum: u32 = (0..t.n())
            .map(|d| match t.routing_offset(a, b, d) {
                RoutingOffset::Zero => 0,
                RoutingOffset::Dir(_, h) | RoutingOffset::Either(h) => h,
            })
            .sum();
        prop_assert_eq!(t.distance(a, b), sum);
    }

    #[test]
    fn neighbor_is_undone_by_the_opposite_step(i in 0usize..8, raw in any::<u32>(), dim_raw in any::<usize>()) {
        let t = topo(i);
        prop_assume!(bidirectional(&t));
        let n = NodeId(raw % t.num_nodes() as u32);
        let dim = dim_raw % t.n();
        for dir in [Direction::Plus, Direction::Minus] {
            if let Some(m) = step(&t, n, dim, dir) {
                prop_assert_eq!(step(&t, m, dim, opposite(dir)), Some(n));
            }
        }
    }

    #[test]
    fn avg_distance_is_bounded_by_the_diameter(i in 0usize..8) {
        let t = topo(i);
        let diameter = (0..t.num_nodes() as u32)
            .flat_map(|a| (0..t.num_nodes() as u32).map(move |b| (a, b)))
            .map(|(a, b)| t.distance(NodeId(a), NodeId(b)))
            .max()
            .unwrap();
        prop_assert!(t.avg_distance() > 0.0);
        prop_assert!(t.avg_distance() <= diameter as f64);
        prop_assert!(t.capacity_flits_per_node_cycle() > 0.0);
    }
}
