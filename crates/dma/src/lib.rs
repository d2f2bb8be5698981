//! The traditional DMA engine the UDMA hardware extends (paper §2, Fig. 1).
//!
//! A classic controller: SOURCE/DESTINATION/COUNT registers, a control
//! trigger, and a state machine that streams data between main memory and a
//! single device port over the I/O bus. The engine is shared by:
//!
//! - the kernel-initiated **traditional DMA** baseline (`shrimp-os`
//!   syscalls), which is the comparison case throughout the paper, and
//! - the **UDMA controller** (`udma-core`), which loads the same registers
//!   from translated proxy addresses instead of from a kernel descriptor.
//!
//! Timing: a transfer occupies the engine for `start_overhead +
//! bytes/bus_bandwidth`. Data physically moves when the transfer is
//! [retired](DmaEngine::retire); progress is observable beforehand through
//! [`DmaEngine::remaining_bytes`], which is what the UDMA status word's
//! REMAINING-BYTES field reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod port;

pub use engine::{DmaCounters, DmaEngine, DmaError, DmaTiming, Transfer};
pub use port::{DevicePort, LoopbackPort, RunTiming};

/// Transfer direction relative to main memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Memory is the source; the device is the destination.
    MemToDev,
    /// The device is the source; memory is the destination.
    DevToMem,
}
