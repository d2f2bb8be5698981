//! The simulated operating system kernel for SHRIMP UDMA nodes.
//!
//! The paper's §6 lists everything the OS must do for UDMA — and it is
//! deliberately little. This crate implements all of it, plus the
//! traditional kernel-mediated DMA path used as the paper's baseline:
//!
//! - **Processes & scheduling** ([`process`], [`Node::context_switch`]):
//!   per-process page tables, round-robin switching, and the single
//!   context-switch STORE that maintains **invariant I1** (atomicity of the
//!   two-instruction initiation sequence).
//! - **Demand paging** ([`Node::handle_fault`]): zero-fill and swap-backed
//!   pages, plus on-demand creation of *memory proxy* mappings with the
//!   three §6 cases, maintaining **invariant I2** (a proxy mapping is valid
//!   only while the corresponding real mapping is).
//! - **Dirty-bit protocol** : writable proxy pages imply dirty real pages
//!   (**invariant I3**), maintained lazily through write-protection faults
//!   on proxy pages and re-protection when the pager cleans.
//! - **Page replacement** ([`pager`]): a second-chance clock that consults
//!   the UDMA hardware's registers/reference counts before evicting
//!   (**invariant I4**) — the cheap replacement for per-transfer pinning.
//! - **Traditional DMA syscalls** ([`syscall`]): the hundreds-of-
//!   instructions baseline — trap, translate, pin (or bounce-buffer copy),
//!   descriptor build, transfer, interrupt, unpin.
//! - **The user-level UDMA library** ([`userapi`]): the retry protocol the
//!   paper requires of applications ("the user process can deduce what
//!   happened and re-try its operation"), page-boundary splitting, and
//!   completion polling via the MATCH flag.
//!
//! # Example
//!
//! ```
//! use shrimp_devices::StreamSink;
//! use shrimp_machine::MachineConfig;
//! use shrimp_os::{Node, NodeConfig};
//!
//! let mut node = Node::new(NodeConfig::default(), StreamSink::new("sink"));
//! let pid = node.spawn();
//! node.mmap(pid, 0x10000, 4, true)?;
//! node.grant_device_proxy(pid, 0, 4, true)?;
//! node.write_user(pid, 0x10000.into(), b"message data")?;
//! let result = node.udma_send(pid, 0x10000.into(), 0, 0, 12)?;
//! assert_eq!(result.transfers, 1);
//! # Ok::<(), shrimp_os::Trap>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod driver;
mod error;
mod node;
pub mod pager;
pub mod process;
pub mod syscall;
pub mod userapi;

pub use driver::{Driver, Progress, Workload};
pub use error::Trap;
pub use node::{KernelCounters, Node, NodeConfig};
pub use process::{PagerAccount, Pid, Process, VPage};
pub use syscall::{DmaStrategy, SyscallDmaResult};
pub use userapi::UdmaXferResult;
