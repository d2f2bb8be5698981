//! The interconnect fabric: a routing backplane connecting SHRIMP nodes.
//!
//! SHRIMP's interconnect is "an Intel Paragon routing backplane" (§8) — a
//! 2-D mesh of wormhole routers. The model here captures what matters for
//! reproducing the paper's measurements: per-hop routing latency, per-link
//! bandwidth with serialization at the destination link, and in-order
//! delivery between any pair of nodes. Backplane links are much faster than
//! the EISA bus, so end-to-end bandwidth is sender-limited — exactly the
//! regime of Figure 8.
//!
//! # Example
//!
//! ```
//! use shrimp_mem::PhysAddr;
//! use shrimp_net::{Interconnect, LinkParams, NodeId, Packet};
//! use shrimp_sim::SimTime;
//!
//! let mut net = Interconnect::new(4, LinkParams::default());
//! let p = Packet::new(NodeId::new(0), NodeId::new(3), PhysAddr::new(0x1000), vec![1, 2, 3]);
//! let link_ready = net.send(p, SimTime::ZERO);
//! let Some(shrimp_net::Commit::One { link_ready: ready, arrival, packet }) =
//!     net.shard_mut().commit_next(None)
//! else {
//!     panic!("one packet staged");
//! };
//! assert_eq!(ready, link_ready);
//! assert!(arrival > link_ready, "wire time follows routing");
//! assert_eq!(packet.payload, [1, 2, 3]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fabric;
mod packet;

pub use fabric::{
    Commit, FabricCounters, FabricShard, Interconnect, LinkParams, PacketRun, Staged,
};
pub use packet::{NodeId, Packet, PacketClass};
