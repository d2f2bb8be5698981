//! Simulated I/O devices for the UDMA mechanism.
//!
//! The paper stresses that UDMA "can be used with a wide variety of I/O
//! devices including network interfaces, data storage devices such as disks
//! and tape drives, and memory-mapped devices such as graphics
//! frame-buffers" (§1). This crate provides the non-network device models:
//!
//! - [`Disk`] — block storage where a device proxy page names a block (§4:
//!   "if the device is a disk, a device address might name a block"), with
//!   a seek + rotation + media-rate service-time model,
//! - [`FrameBuffer`] — a graphics target where a device proxy address names
//!   a pixel (§4: "a device address might specify a pixel"),
//! - [`Tape`] — a sequential-access drive with a winding-time model (the
//!   "tape drives" of §1),
//! - [`StreamSink`] / [`StreamSource`] — synthetic endpoints for tests and
//!   failure injection.
//!
//! All implement [`shrimp_dma::DevicePort`] plus the [`Device`] trait for
//! registration with the simulated machine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod disk;
mod framebuffer;
mod stream;
mod tape;

pub use disk::{block_of, Disk, DiskCounters, DiskGeometry};
pub use framebuffer::{FrameBuffer, FrameBufferCounters};
pub use stream::{StreamSink, StreamSource};
pub use tape::{Tape, TapeCounters, TapeGeometry};

use shrimp_dma::DevicePort;
use shrimp_sim::MetricSet;

/// A registrable simulated device: a [`DevicePort`] with a name.
pub trait Device: DevicePort {
    /// Human-readable device name ("disk0", "fb0", ...).
    fn name(&self) -> &str;

    /// Size of the device's proxy-addressable space in bytes (bounds the
    /// device proxy pages the kernel may grant for it).
    fn proxy_space_bytes(&self) -> u64;

    /// Programmed-I/O store to a memory-mapped device register at `offset`
    /// within the device's MMIO window. Used by non-DMA devices such as the
    /// §9 memory-mapped-FIFO baseline NIC. The default ignores the write.
    fn mmio_store(&mut self, _offset: u64, _value: u64, _now: shrimp_sim::SimTime) {}

    /// Programmed-I/O load from a memory-mapped device register. The
    /// default returns zero.
    fn mmio_load(&mut self, _offset: u64, _now: shrimp_sim::SimTime) -> u64 {
        0
    }

    /// Gives the device CPU-independent execution time up to `now` (e.g. a
    /// NIC draining its FIFO into the network). The default does nothing.
    fn tick(&mut self, _now: shrimp_sim::SimTime) {}

    /// Bus snoop of one CPU store to ordinary memory (physical address +
    /// 8-byte value). SHRIMP's *automatic update* strategy is built on
    /// exactly this: the network interface watches the memory bus and
    /// forwards writes to bound pages. The default ignores the store.
    fn snoop_store(&mut self, _pa: shrimp_mem::PhysAddr, _value: u64, _now: shrimp_sim::SimTime) {}

    /// Bus snoop of a bulk memory write (a burst of consecutive stores).
    /// The default ignores it.
    fn snoop_write(&mut self, _pa: shrimp_mem::PhysAddr, _data: &[u8], _now: shrimp_sim::SimTime) {}

    /// Registers the device's counters in `set` (at node `index`, when
    /// given). The default registers nothing.
    fn harvest_metrics(&self, _set: &mut MetricSet, _index: Option<u32>) {}
}
