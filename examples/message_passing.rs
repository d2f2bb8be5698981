//! Message passing on the SHRIMP multicomputer (paper §8).
//!
//! Builds a four-node machine, establishes deliberate-update channels, and
//! runs a ring exchange: each node sends a token to its right neighbour,
//! doubling the payload each lap — all communication is user-level UDMA.
//!
//! Run: `cargo run -p shrimp --example message_passing`

use shrimp::{Channel, Multicomputer, ShrimpError};
use shrimp_mem::VirtAddr;
use shrimp_sim::MetricSet;

fn main() -> Result<(), ShrimpError> {
    const NODES: usize = 4;
    let mut mc = Multicomputer::new(NODES as u16, Default::default());

    // One process per node; a channel from each node to its right
    // neighbour.
    let pids: Vec<_> = (0..NODES).map(|i| mc.spawn_process(i)).collect();
    let mut channels: Vec<Channel> = Vec::new();
    for i in 0..NODES {
        let j = (i + 1) % NODES;
        let ch = Channel::establish(
            &mut mc,
            i,
            pids[i],
            j,
            pids[j],
            VirtAddr::new(0x40_0000), // receive buffer on node j
            VirtAddr::new(0x10_0000 + i as u64 * 0x1_0000), // staging on node i
            2,
        )?;
        channels.push(ch);
    }

    // Node 0 injects a token; each receiver appends a byte and forwards.
    let mut token = vec![0u8; 8];
    println!("ring of {NODES} nodes, 3 laps:");
    channels[0].send(&mut mc, &token)?;
    let mut hops = 0;
    let mut at = 1usize; // the token is heading to node 1
    while hops < 3 * NODES - 1 {
        // The channel INTO node `at` is the one from its left neighbour.
        let from = (at + NODES - 1) % NODES;
        let msg = channels[from].try_recv(&mut mc)?.expect("token must have arrived");
        println!(
            "  node{at} got seq={} len={} at t={}",
            msg.seq,
            msg.data.len(),
            mc.node(at).os().machine().now()
        );
        token = msg.data;
        token.push(at as u8);
        channels[at].send(&mut mc, &token)?;
        at = (at + 1) % NODES;
        hops += 1;
    }
    let last = channels[(at + NODES - 1) % NODES].try_recv(&mut mc)?.expect("final token");
    println!("final token ({} bytes): {:?}", last.data.len(), last.data);

    // The payload recorded every hop in order.
    let expected: Vec<u8> = (0..3 * NODES - 1).map(|h| ((h + 1) % NODES) as u8).collect();
    assert_eq!(&last.data[8..], &expected[..], "token recorded each hop");

    let mut metrics = MetricSet::default();
    mc.fabric().counters().harvest(&mut metrics, "fabric", None);
    print!("\nfabric metrics:\n{}", metrics.render_text());
    Ok(())
}
