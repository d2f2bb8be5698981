//! The simulated machine: CPU reference path, bus decoding, memory, MMU,
//! the UDMA hardware and one UDMA-capable device, with cycle accounting.
//!
//! A [`Machine`] is the hardware of one SHRIMP node. Software (the
//! `shrimp-os` kernel and the user programs driven by tests/benches) issues
//! memory operations through [`Machine::load`] / [`Machine::store`]; the
//! machine translates them through the MMU, decodes the physical address,
//! and routes it to memory, the UDMA hardware (proxy regions) or the
//! device's MMIO window — advancing the simulated clock by the calibrated
//! cost of each step.
//!
//! # Example
//!
//! ```
//! use shrimp_devices::StreamSink;
//! use shrimp_machine::{Machine, MachineConfig};
//! use shrimp_mmu::Mode;
//!
//! let machine = Machine::new(MachineConfig::default(), StreamSink::new("sink"));
//! assert_eq!(machine.clock().now().as_nanos(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod machine;
mod udma_hw;

pub use machine::{Machine, MachineConfig, MachineCounters};
pub use udma_hw::{UdmaHw, UdmaMode};
