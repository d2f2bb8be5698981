//! The SHRIMP multicomputer: the paper's §8 instantiation of UDMA.
//!
//! Each node is a simulated Pentium Xpress PC ([`shrimp_machine`]) running
//! the simulated kernel ([`shrimp_os`]), connected to a Paragon-style
//! routing backplane ([`shrimp_net`]) through the custom network interface
//! modelled here:
//!
//! - [`Nipt`] — the Network Interface Page Table: 32K entries, each naming
//!   a remote node and a remote physical page,
//! - [`Nic`] — the network interface board: the UDMA device whose device
//!   proxy pages index the NIPT ("a proxy destination address can be
//!   thought of as a proxy page number and an offset on that page"),
//!   packetizing outgoing DMA data, plus a memory-mapped FIFO window for
//!   the §9 programmed-I/O comparison,
//! - [`ShrimpNode`] — one node (kernel + machine + NIC) with the
//!   export/import helpers that fill NIPT entries,
//! - [`Multicomputer`] — the whole machine: nodes + fabric + the
//!   receive-side EISA DMA logic that deposits packet data directly into
//!   remote physical memory ("deliberate update").
//!
//! # Example — two-node deliberate update
//!
//! ```
//! use shrimp::Multicomputer;
//! use shrimp_mem::VirtAddr;
//!
//! let mut mc = Multicomputer::new(2, Default::default());
//! let sender = mc.spawn_process(0);
//! let receiver = mc.spawn_process(1);
//!
//! // Receiver exports 1 page; sender gets device proxy pages for it.
//! mc.map_user_buffer(1, receiver, 0x40000, 1)?;
//! let dev_page = mc.export(1, receiver, VirtAddr::new(0x40000), 1, 0, sender)?;
//!
//! // Sender writes a message and pushes it with user-level DMA.
//! mc.map_user_buffer(0, sender, 0x10000, 1)?;
//! mc.write_user(0, sender, VirtAddr::new(0x10000), b"deliberate update!!!")?;
//! mc.send(0, sender, VirtAddr::new(0x10000), dev_page, 0, 20)?;
//!
//! let got = mc.read_user(1, receiver, VirtAddr::new(0x40000), 20)?;
//! assert_eq!(got, b"deliberate update!!!");
//! # Ok::<(), shrimp::ShrimpError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod api;
mod engine;
mod multicomputer;
mod nic;
mod nipt;
mod node;
mod parallel;
mod program;
mod tenant;
pub mod trace;

pub use api::{Channel, ChannelMessage};
pub use multicomputer::{Multicomputer, MulticomputerConfig, ShrimpError};
pub use nic::{Nic, NicCounters, OutgoingRun, PioError, NIC_MMIO};
pub use nipt::{Nipt, NiptEntry};
pub use node::ShrimpNode;
pub use parallel::{NodePlan, ParallelReport, PhaseBreakdown, SendOp, MAX_EPOCH_WINDOWS};
pub use program::{
    DeliveryEvent, ProgramPlan, RpcClientProgram, RpcServerProgram, StreamProgram, TrafficProgram,
};
pub use shrimp_net::PacketClass;
pub use tenant::{NiptDirectory, TenantMapping};
pub use trace::{decode_trace_bin, trace_bin_to_json, BinTrace, TRACE_BIN_MAGIC};
