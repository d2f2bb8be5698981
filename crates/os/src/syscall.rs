//! The traditional, kernel-mediated DMA path — the paper's baseline (§2).
//!
//! Every transfer pays the full §2 sequence: a system call; per-page
//! virtual-to-physical translation, permission verification and pinning (or
//! copies through a pre-pinned bounce buffer); descriptor construction; the
//! transfer itself; and completion-interrupt handling with unpinning. The
//! `t2_init_cost` and `t1_hippi` benches measure exactly this path against
//! the two-reference UDMA sequence.

use shrimp_devices::Device;
use shrimp_dma::Direction;
use shrimp_mem::{Pfn, VirtAddr};
use shrimp_mmu::{AccessKind, Mode};
use shrimp_sim::SimDuration;

use crate::process::Pid;
use crate::{Node, Trap};

/// How the kernel makes user pages safe for DMA.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DmaStrategy {
    /// Pin the user's own pages for the duration of the transfer.
    #[default]
    PinPages,
    /// Copy through a reserved, permanently pinned kernel buffer ("this
    /// method may require copying data between memory in user address
    /// space and the reserved, pinned DMA memory buffers", §2).
    BounceBuffer,
}

/// Outcome of a kernel DMA syscall.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SyscallDmaResult {
    /// Wall-clock (simulated) time from trap to return.
    pub elapsed: SimDuration,
    /// Pages the transfer spanned.
    pub pages: u64,
    /// Bytes moved.
    pub bytes: u64,
}

impl<D: Device> Node<D> {
    /// `write(device)` via traditional DMA: memory → device.
    ///
    /// # Errors
    ///
    /// [`Trap::SegFault`]/[`Trap::ReadOnly`] on bad buffers, or any paging
    /// trap.
    pub fn sys_dma_to_device(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        dev_addr: u64,
        nbytes: u64,
        strategy: DmaStrategy,
    ) -> Result<SyscallDmaResult, Trap> {
        self.sys_dma(pid, va, dev_addr, nbytes, strategy, Direction::MemToDev)
    }

    /// `read(device)` via traditional DMA: device → memory.
    ///
    /// # Errors
    ///
    /// [`Trap::SegFault`]/[`Trap::ReadOnly`] on bad buffers, or any paging
    /// trap.
    pub fn sys_dma_from_device(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        dev_addr: u64,
        nbytes: u64,
        strategy: DmaStrategy,
    ) -> Result<SyscallDmaResult, Trap> {
        self.sys_dma(pid, va, dev_addr, nbytes, strategy, Direction::DevToMem)
    }

    fn sys_dma(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        dev_addr: u64,
        nbytes: u64,
        strategy: DmaStrategy,
        direction: Direction,
    ) -> Result<SyscallDmaResult, Trap> {
        self.ensure_current(pid)?;
        let t0 = self.machine.now();
        // Step 1: the system call itself.
        let c = self.machine.cost().clone();
        self.machine.advance(c.syscall);
        self.counters.dma_syscalls.incr();

        if nbytes == 0 {
            return Ok(SyscallDmaResult { elapsed: self.machine.now() - t0, pages: 0, bytes: 0 });
        }

        // Step 2: translate, verify permission, pin.
        let first_vpn = va.page().raw();
        let last_vpn = (va.raw() + nbytes - 1) >> shrimp_mem::PAGE_SHIFT;
        let pages = last_vpn - first_vpn + 1;

        let mut pinned: Vec<Pfn> = Vec::new();
        for vpn_raw in first_vpn..=last_vpn {
            let vpn = shrimp_mem::Vpn::new(vpn_raw);
            // Permission check against the segment.
            let writable = self
                .procs
                .get(&pid)
                .ok_or(Trap::NoSuchProcess(pid))?
                .vpages
                .get(&vpn)
                .ok_or(Trap::SegFault { pid, va: vpn.base() })?
                .writable();
            if direction == Direction::DevToMem && !writable {
                // Roll back pins before trapping.
                for pfn in pinned {
                    self.unpin_frame(pfn);
                }
                return Err(Trap::ReadOnly { pid, va: vpn.base() });
            }
            let pfn = self.ensure_resident(pid, vpn)?;
            if strategy == DmaStrategy::PinPages {
                self.pin_frame(pfn);
                pinned.push(pfn);
            }
            self.machine.advance(c.pin_page);
            // Incoming DMA dirties the page; traditional kernels know this
            // and mark it (§6: "in traditional DMA, the kernel knows about
            // all DMA transfers, so it can mark the appropriate pages").
            if direction == Direction::DevToMem {
                let proc = self.procs.get_mut(&pid).expect("validated above");
                proc.pt.set_flags(vpn, shrimp_mmu::PteFlags::DIRTY);
            }
        }

        // Step 3: build the descriptor and run the transfer, page chunk by
        // page chunk (physical pages are discontiguous).
        self.machine.advance(c.build_descriptor);
        let mut moved = 0u64;
        while moved < nbytes {
            let cur = va + moved;
            let chunk = cur.bytes_to_page_end().min(nbytes - moved);
            let access = match direction {
                Direction::MemToDev => AccessKind::Read,
                Direction::DevToMem => AccessKind::Write,
            };
            let proc = self.procs.get_mut(&pid).expect("validated above");
            let (pa, _) = self
                .machine
                .translate(&mut proc.pt, cur, access, Mode::Kernel)
                .map_err(|_| Trap::SegFault { pid, va: cur })?;
            match strategy {
                DmaStrategy::PinPages => {
                    self.machine.kernel_dma(direction, pa, dev_addr + moved, chunk);
                }
                DmaStrategy::BounceBuffer => {
                    // Frame 0 is the kernel's permanently pinned buffer.
                    let bounce = shrimp_mem::PhysAddr::new(0);
                    let copy = c.kernel_copy(chunk);
                    match direction {
                        Direction::MemToDev => {
                            self.machine.advance(copy);
                            self.machine
                                .mem_mut()
                                .copy_within(pa, bounce, chunk)
                                .expect("bounce copy in range");
                            self.machine.kernel_dma(direction, bounce, dev_addr + moved, chunk);
                        }
                        Direction::DevToMem => {
                            self.machine.kernel_dma(direction, bounce, dev_addr + moved, chunk);
                            self.machine.advance(copy);
                            self.machine
                                .mem_mut()
                                .copy_within(bounce, pa, chunk)
                                .expect("bounce copy in range");
                        }
                    }
                }
            }
            moved += chunk;
        }

        // Step 4: completion interrupt, unpin, reschedule.
        self.machine.advance(c.syscall / 2); // interrupt entry/exit
        for pfn in pinned {
            self.unpin_frame(pfn);
            self.machine.advance(c.unpin_page);
        }
        self.counters.dma_syscall_bytes.add(nbytes);

        Ok(SyscallDmaResult { elapsed: self.machine.now() - t0, pages, bytes: nbytes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeConfig;
    use shrimp_devices::StreamSink;
    use shrimp_machine::MachineConfig;
    use shrimp_mem::PAGE_SIZE;

    fn node() -> Node<StreamSink> {
        let config = NodeConfig {
            machine: MachineConfig { mem_bytes: 128 * PAGE_SIZE, ..MachineConfig::default() },
            user_frames: None,
        };
        Node::new(config, StreamSink::new("sink"))
    }

    #[test]
    fn pinned_dma_delivers_data() {
        let mut n = node();
        let pid = n.spawn();
        n.mmap(pid, 0x10000, 2, true).unwrap();
        n.write_user(pid, VirtAddr::new(0x10000), b"kernel dma payload").unwrap();
        let r =
            n.sys_dma_to_device(pid, VirtAddr::new(0x10000), 0, 18, DmaStrategy::PinPages).unwrap();
        assert_eq!(r.bytes, 18);
        assert_eq!(r.pages, 1);
        assert_eq!(n.machine().device().writes()[0].1, b"kernel dma payload");
        // Pins are released after completion.
        assert_eq!(n.counters().pins.get(), n.counters().unpins.get());
    }

    #[test]
    fn bounce_buffer_dma_delivers_data() {
        let mut n = node();
        let pid = n.spawn();
        n.mmap(pid, 0x10000, 1, true).unwrap();
        n.write_user(pid, VirtAddr::new(0x10000), b"bounced").unwrap();
        let r = n
            .sys_dma_to_device(pid, VirtAddr::new(0x10000), 8, 7, DmaStrategy::BounceBuffer)
            .unwrap();
        assert_eq!(r.bytes, 7);
        assert_eq!(n.machine().device().writes()[0].0, 8);
        assert_eq!(n.machine().device().writes()[0].1, b"bounced");
        assert_eq!(n.counters().pins.get(), 0, "bounce strategy pins nothing");
    }

    #[test]
    fn syscall_dma_costs_dwarf_udma_initiation() {
        let mut n = node();
        let pid = n.spawn();
        n.mmap(pid, 0x10000, 1, true).unwrap();
        n.write_user(pid, VirtAddr::new(0x10000), &[1; 64]).unwrap();
        let r =
            n.sys_dma_to_device(pid, VirtAddr::new(0x10000), 0, 64, DmaStrategy::PinPages).unwrap();
        let udma_init = n.machine().cost().udma_initiation();
        assert!(
            r.elapsed > udma_init * 5,
            "syscall path {} must dwarf the 2-reference sequence {}",
            r.elapsed,
            udma_init
        );
    }

    #[test]
    fn multi_page_transfer_spans_pages() {
        let mut n = node();
        let pid = n.spawn();
        n.mmap(pid, 0x10000, 3, true).unwrap();
        let data: Vec<u8> = (0..2 * PAGE_SIZE + 100).map(|i| i as u8).collect();
        n.write_user(pid, VirtAddr::new(0x10000), &data).unwrap();
        let r = n
            .sys_dma_to_device(
                pid,
                VirtAddr::new(0x10000),
                0,
                data.len() as u64,
                DmaStrategy::PinPages,
            )
            .unwrap();
        assert_eq!(r.pages, 3);
        let received: Vec<u8> =
            n.machine().device().writes().iter().flat_map(|(_, d, _)| d.clone()).collect();
        assert_eq!(received, data);
    }

    #[test]
    fn dma_from_device_marks_pages_dirty() {
        let mut n = node();
        let pid = n.spawn();
        n.mmap(pid, 0x10000, 1, true).unwrap();
        let _ = n.user_load(pid, VirtAddr::new(0x10000)).unwrap(); // clean page
        n.sys_dma_from_device(pid, VirtAddr::new(0x10000), 0, 32, DmaStrategy::PinPages).unwrap();
        let proc = n.process(pid).unwrap();
        assert!(proc.pt.get(VirtAddr::new(0x10000).page()).unwrap().is_dirty());
        n.check_invariants().unwrap();
    }

    #[test]
    fn dma_into_readonly_buffer_traps() {
        let mut n = node();
        let pid = n.spawn();
        n.mmap(pid, 0x10000, 1, false).unwrap();
        let err = n
            .sys_dma_from_device(pid, VirtAddr::new(0x10000), 0, 16, DmaStrategy::PinPages)
            .unwrap_err();
        assert!(matches!(err, Trap::ReadOnly { .. }));
        assert_eq!(n.counters().pins.get(), n.counters().unpins.get(), "pins rolled back");
    }

    #[test]
    fn unmapped_buffer_traps() {
        let mut n = node();
        let pid = n.spawn();
        let err = n
            .sys_dma_to_device(pid, VirtAddr::new(0x10000), 0, 16, DmaStrategy::PinPages)
            .unwrap_err();
        assert!(matches!(err, Trap::SegFault { .. }));
    }

    #[test]
    fn zero_byte_transfer_is_trivial() {
        let mut n = node();
        let pid = n.spawn();
        let r =
            n.sys_dma_to_device(pid, VirtAddr::new(0x10000), 0, 0, DmaStrategy::PinPages).unwrap();
        assert_eq!(r.pages, 0);
    }
}
