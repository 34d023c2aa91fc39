//! Anatomy of a deadlock: deterministically construct the paper's
//! Figure-1-style single-cycle deadlock on a unidirectional ring, print
//! the channel wait-for graph, identify the knot, classify the deadlock,
//! and watch Disha-style recovery dissolve it.
//!
//! ```text
//! cargo run --release --example deadlock_anatomy
//! ```

use icn_cwg::CwgSnapshot;
use icn_routing::Dor;
use icn_sim::{Network, SimConfig, SnapshotArena};
use icn_topology::{KAryNCube, NodeId};

fn main() {
    // A 4-node unidirectional ring: the smallest torus where dimension-
    // order routing deadlocks. Four messages, each two hops clockwise,
    // injected simultaneously: every one grabs its first channel and then
    // waits for the channel its neighbour holds.
    let topo = KAryNCube::torus(4, 1, false);
    let mut net = Network::new(
        topo,
        Box::new(Dor),
        SimConfig {
            vcs_per_channel: 1,
            buffer_depth: 2,
            msg_len: 8,
        },
    );
    for i in 0..4u32 {
        net.enqueue(NodeId(i), NodeId((i + 2) % 4));
        println!("message m{i}: n{} -> n{}", i, (i + 2) % 4);
    }

    for _ in 0..30 {
        net.step();
    }
    println!(
        "\nafter 30 cycles: {} in network, {} blocked",
        net.in_network(),
        net.blocked_count()
    );

    // Capture the wait-for state, then build and analyze the channel
    // wait-for graph it describes.
    let mut arena = SnapshotArena::new();
    net.wait_snapshot_into(&mut arena);
    let snap = CwgSnapshot::from_messages(
        arena.num_vertices(),
        arena.messages().map(|m| (m.id, m.chain, m.requests)),
    );
    println!("\nchannel wait-for graph:");
    for m in &snap.messages {
        println!("  m{} owns {:?}, waits for {:?}", m.id, m.chain, m.requests);
    }
    let analysis = snap.build_graph().analyze(1_000);

    assert!(analysis.has_deadlock(), "the ring must be deadlocked");
    let d = &analysis.deadlocks[0];
    println!("\nKNOT found: vertices {:?}", d.knot);
    println!(
        "  deadlock set : {:?} (removing any of these resolves it)",
        d.deadlock_set
    );
    println!("  resource set : {:?}", d.resource_set);
    println!(
        "  cycle density: {} => {:?} deadlock",
        d.cycle_density,
        d.kind()
    );

    // Break it by removing the oldest deadlock-set message, flit by flit.
    let victim = *d.deadlock_set.iter().min().unwrap();
    println!("\nrecovering victim m{victim} through the recovery lane...");
    assert!(net.start_recovery(victim));

    let mut done = 0;
    for cycle in 0..500 {
        let ev = net.step();
        for del in ev.delivered {
            println!(
                "  cycle {:>3}: m{} delivered ({}, latency {})",
                cycle,
                del.id,
                if del.recovered {
                    "recovered"
                } else {
                    "normal route"
                },
                del.latency
            );
            done += 1;
        }
        if done == 4 {
            break;
        }
    }
    assert_eq!(done, 4, "breaking one victim must unblock the rest");
    println!("\nall messages delivered; deadlock resolved by one removal.");
}
