//! §6 I4 ablation: pinning versus the register check.
//!
//! "Although this scheme has the same effect as page pinning, it is much
//! faster. Pinning requires changing the page table on every DMA, while
//! our mechanism requires no kernel action in the common case."
//!
//! Two measurements:
//!
//! 1. **Per-transfer protection overhead** — a stream of one-page
//!    transfers with no memory pressure: the kernel path pays pin+unpin
//!    per page; UDMA pays nothing.
//! 2. **Under pressure** — the same stream while a second process thrashes
//!    a tight memory: the pager must skip hardware-held frames (I4) but
//!    everything stays correct.

use shrimp_devices::StreamSink;
use shrimp_machine::MachineConfig;
use shrimp_mem::{VirtAddr, PAGE_SIZE};
use shrimp_os::{DmaStrategy, Node, NodeConfig};
use shrimp_sim::{CostModel, SimDuration};

/// Measurement 1: per-transfer protection overhead.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProtectionCost {
    /// Transfers measured.
    pub transfers: u64,
    /// Mean time per transfer, kernel DMA path.
    pub kernel_per_transfer: SimDuration,
    /// Mean time per transfer, UDMA path.
    pub udma_per_transfer: SimDuration,
    /// Page-table pin/unpin operations the kernel path performed.
    pub kernel_pins: u64,
    /// Pin operations the UDMA path performed (zero in the common case).
    pub udma_pins: u64,
}

/// Measurement 2: behaviour under memory pressure.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PressureRun {
    /// Total simulated time.
    pub elapsed: SimDuration,
    /// Evictions performed by the pager.
    pub evictions: u64,
    /// Frames the pager skipped because the UDMA hardware named them (I4).
    pub i4_skips: u64,
    /// Transfers completed (all of them).
    pub transfers: u64,
}

fn fresh_node(frames: Option<u64>) -> Node<StreamSink> {
    let config = NodeConfig {
        machine: MachineConfig { mem_bytes: 512 * PAGE_SIZE, ..MachineConfig::default() },
        user_frames: frames,
    };
    Node::new(config, StreamSink::new("sink"))
}

/// Measures per-transfer overhead for `transfers` one-page transfers.
pub fn protection_cost(transfers: u64) -> ProtectionCost {
    // Kernel path.
    let mut n = fresh_node(None);
    let pid = n.spawn();
    n.mmap(pid, 0x10_0000, 1, true).expect("map");
    n.write_user(pid, VirtAddr::new(0x10_0000), &vec![1u8; PAGE_SIZE as usize]).expect("fill");
    n.sys_dma_to_device(pid, VirtAddr::new(0x10_0000), 0, PAGE_SIZE, DmaStrategy::PinPages)
        .expect("warm");
    let t0 = n.machine().now();
    for _ in 0..transfers {
        n.sys_dma_to_device(pid, VirtAddr::new(0x10_0000), 0, PAGE_SIZE, DmaStrategy::PinPages)
            .expect("kernel transfer");
    }
    let kernel_total = n.machine().now() - t0;
    let kernel_pins = n.counters().pins.get();

    // UDMA path.
    let mut n = fresh_node(None);
    let pid = n.spawn();
    n.mmap(pid, 0x10_0000, 1, true).expect("map");
    n.grant_device_proxy(pid, 0, 1, true).expect("grant");
    n.write_user(pid, VirtAddr::new(0x10_0000), &vec![1u8; PAGE_SIZE as usize]).expect("fill");
    n.udma_send(pid, VirtAddr::new(0x10_0000), 0, 0, PAGE_SIZE).expect("warm");
    let t0 = n.machine().now();
    for _ in 0..transfers {
        n.udma_send(pid, VirtAddr::new(0x10_0000), 0, 0, PAGE_SIZE).expect("udma transfer");
    }
    let udma_total = n.machine().now() - t0;
    let udma_pins = n.counters().pins.get();

    ProtectionCost {
        transfers,
        kernel_per_transfer: kernel_total / transfers,
        udma_per_transfer: udma_total / transfers,
        kernel_pins,
        udma_pins,
    }
}

/// Runs `transfers` UDMA sends while a second process cycles through
/// `thrash_pages` pages of a `frames`-frame memory, forcing evictions
/// between sends. A slow bus keeps transfers in flight across evictions so
/// the I4 check actually fires.
pub fn pressure_run(transfers: u64, frames: u64, thrash_pages: u64) -> PressureRun {
    let cost = CostModel {
        bus_mb_per_s: 2.0, // one page ~2ms on the bus: outlives evictions
        disk_seek: SimDuration::from_us(20.0),
        disk_rotation: SimDuration::from_us(10.0),
        disk_mb_per_s: 500.0,
        ..CostModel::default()
    };
    let config = NodeConfig {
        machine: MachineConfig { mem_bytes: 512 * PAGE_SIZE, cost, ..MachineConfig::default() },
        user_frames: Some(frames),
    };
    let mut n = Node::new(config, StreamSink::new("sink"));
    let sender = n.spawn();
    let thrasher = n.spawn();
    n.mmap(sender, 0x10_0000, 1, true).expect("map sender");
    n.grant_device_proxy(sender, 0, 1, true).expect("grant");
    n.mmap(thrasher, 0x80_0000, thrash_pages, true).expect("map thrasher");
    n.write_user(sender, VirtAddr::new(0x10_0000), &vec![1u8; PAGE_SIZE as usize]).expect("fill");
    n.udma_send(sender, VirtAddr::new(0x10_0000), 0, 0, PAGE_SIZE).expect("warm");

    let t0 = n.machine().now();
    let mut touch = 0u64;
    let layout = n.machine().layout();
    let vproxy = layout.proxy_of_virt(VirtAddr::new(0x10_0000)).expect("in memory region");
    for _ in 0..transfers {
        // Initiate (two references) but do NOT wait for completion...
        let status = n
            .udma_initiate(sender, VirtAddr::new(shrimp_mem::DEV_PROXY_BASE), vproxy, PAGE_SIZE)
            .expect("initiate");
        assert!(status.started() || status.should_retry(), "{status}");
        // ...so the thrasher's evictions race the in-flight transfer.
        for _ in 0..4 {
            let va = VirtAddr::new(0x80_0000 + (touch % thrash_pages) * PAGE_SIZE);
            n.user_store(thrasher, va, 1).expect("thrash");
            touch += 1;
        }
        n.check_invariants().expect("invariants must hold under pressure");
        let drained = n.machine().udma_drained_at();
        n.machine_mut().advance_to(drained);
    }
    PressureRun {
        elapsed: n.machine().now() - t0,
        evictions: n.counters().evictions.get(),
        i4_skips: n.counters().i4_skips.get(),
        transfers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn udma_has_no_pinning_and_lower_overhead() {
        let p = protection_cost(16);
        assert_eq!(p.udma_pins, 0, "UDMA must pin nothing in the common case");
        assert_eq!(p.kernel_pins, 17, "kernel path pins once per transfer (incl. warm)");
        assert!(
            p.udma_per_transfer < p.kernel_per_transfer,
            "udma {} !< kernel {}",
            p.udma_per_transfer,
            p.kernel_per_transfer
        );
    }

    #[test]
    fn pressure_exercises_i4_without_violations() {
        let r = pressure_run(6, 4, 10);
        assert!(r.evictions > 0, "pressure must evict");
        assert!(r.i4_skips > 0, "the pager must have skipped hardware-held frames");
        assert_eq!(r.transfers, 6);
    }
}
