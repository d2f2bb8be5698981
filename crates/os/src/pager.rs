//! Page replacement and cleaning: a second-chance clock that maintains
//! invariants I2, I3 and I4.
//!
//! This is where UDMA's "no pinning" claim is honoured: before remapping a
//! frame the kernel checks the UDMA hardware's SOURCE/DESTINATION registers
//! (or reference counts on the queued device). A frame named by the
//! hardware is simply *skipped* — "the kernel must either find another page
//! to remap, or wait until the transfer finishes" (§6). If the hardware is
//! merely in the DestLoaded state, the kernel fires an Inval to clear the
//! latched DESTINATION and retries.

use shrimp_devices::Device;
use shrimp_mem::{Pfn, Vpn, PAGE_SIZE};
use shrimp_mmu::PteFlags;

use crate::process::{Pid, VPage};
use crate::{Node, Trap};

impl<D: Device> Node<D> {
    /// Allocates a frame for `(pid, vpn)`, evicting under memory
    /// pressure. The requester is charged one demand allocation in its
    /// per-process pager account; eviction costs land on the *victim's*
    /// account in [`Node::evict_frame`] — under tenant churn the two
    /// differ, which is exactly what the accounting exists to show.
    ///
    /// # Errors
    ///
    /// [`Trap::OutOfMemory`] when every frame is pinned, hardware-held or
    /// otherwise unreclaimable.
    pub(crate) fn alloc_frame_evicting(&mut self, pid: Pid, vpn: Vpn) -> Result<Pfn, Trap> {
        debug_assert!(
            self.procs.get(&pid).and_then(|p| p.vpages.get(&vpn)).and_then(VPage::pfn).is_none(),
            "demand alloc for a page already resident ({pid}, {vpn})"
        );
        loop {
            if let Ok(pfn) = self.frames.alloc() {
                if let Some(proc) = self.procs.get_mut(&pid) {
                    proc.pager.demand_allocs += 1;
                }
                return Ok(pfn);
            }
            self.evict_one()?;
        }
    }

    /// Evicts one page using the second-chance clock.
    ///
    /// # Errors
    ///
    /// [`Trap::OutOfMemory`] if no page is evictable.
    pub(crate) fn evict_one(&mut self) -> Result<(), Trap> {
        let mut inval_tried = false;
        // Each page can be skipped at most twice (reference bit, hardware);
        // beyond that nothing is reclaimable.
        let max_scans = self.resident_fifo.len() * 2 + 1;
        for _ in 0..max_scans {
            let Some(pfn) = self.resident_fifo.pop_front() else {
                return Err(Trap::OutOfMemory);
            };

            // Pinned by a traditional DMA transfer.
            if self.pinned.get(&pfn).copied().unwrap_or(0) > 0 {
                self.resident_fifo.push_back(pfn);
                continue;
            }

            // Invariant I4: never remap a frame the UDMA hardware names.
            if self.machine.udma().frame_in_use(pfn) {
                if !inval_tried {
                    // "If the hardware is in the DestLoaded state, the
                    // kernel may also cause an Inval event in order to
                    // clear the DESTINATION register."
                    self.machine.kernel_inval_udma();
                    inval_tried = true;
                }
                if self.machine.udma().frame_in_use(pfn) {
                    self.counters.i4_skips.incr();
                    self.resident_fifo.push_back(pfn);
                    continue;
                }
            }

            let (pid, vpn) = *self.frame_owner.get(&pfn).expect("resident frame has an owner");

            // Second chance: recently referenced pages get another lap —
            // "remapped pages are usually those which have not been
            // accessed for a long time".
            let referenced = self
                .procs
                .get(&pid)
                .and_then(|p| p.pt.get(vpn))
                .is_some_and(|pte| pte.flags.contains(PteFlags::REFERENCED));
            if referenced {
                let proc = self.procs.get_mut(&pid).expect("owner exists");
                proc.pt.clear_flags(vpn, PteFlags::REFERENCED);
                self.machine.mmu_mut().flush_page(vpn);
                self.resident_fifo.push_back(pfn);
                continue;
            }

            self.evict_frame(pfn, pid, vpn);
            return Ok(());
        }
        Err(Trap::OutOfMemory)
    }

    /// Unmaps and reclaims one frame, cleaning it first if dirty.
    fn evict_frame(&mut self, pfn: Pfn, pid: Pid, vpn: Vpn) {
        let layout = self.machine.layout();
        let proc = self.procs.get_mut(&pid).expect("owner exists");
        let pte = proc.pt.get(vpn).copied().expect("resident page is mapped");
        let writable = proc.vpages.get(&vpn).map(VPage::writable).unwrap_or(false);
        let was_dirty = pte.is_dirty();
        let has_slot = self.swap_slots.contains_key(&(pid, vpn));

        // Where do the contents go?
        let new_state = if was_dirty || has_slot {
            let slot = *self.swap_slots.entry((pid, vpn)).or_insert_with(|| self.swap.alloc());
            if was_dirty || !self.swap.contains(slot) {
                // Clean: write the frame to backing store.
                let frame =
                    self.machine.mem().frame(pfn).expect("resident frame in range").to_vec();
                self.swap.write(slot, &frame);
                let io = self.machine.cost().disk_seek
                    + self.machine.cost().disk_rotation
                    + self.machine.cost().disk_transfer(PAGE_SIZE);
                self.machine.advance(io);
                self.counters.page_outs.incr();
                if let Some(proc) = self.procs.get_mut(&pid) {
                    proc.pager.page_outs += 1;
                }
            }
            VPage::Swapped { slot, writable }
        } else {
            // Never written and never swapped: revert to zero-fill.
            VPage::Untouched { writable }
        };

        // Invariant I2: the proxy mapping dies with the real mapping.
        let proc = self.procs.get_mut(&pid).expect("owner exists");
        proc.pager.evictions += 1;
        proc.pt.unmap(vpn);
        proc.vpages.insert(vpn, new_state);
        let proxy_vpn =
            layout.proxy_of_virt(vpn.base()).expect("user pages live in the memory region").page();
        proc.pt.unmap(proxy_vpn);
        self.machine.mmu_mut().flush_page(vpn);
        self.machine.mmu_mut().flush_page(proxy_vpn);
        let pte_cost = self.machine.cost().pte_update * 2;
        self.machine.advance(pte_cost);

        self.frame_owner.remove(&pfn);
        self.frames.free(pfn);
        self.counters.evictions.incr();
    }

    /// Cleans one resident dirty page: writes it to backing store, clears
    /// its DIRTY bit and write-protects its proxy page (maintaining I3).
    ///
    /// Returns `false` without cleaning when the page is not resident, not
    /// dirty, or — the §6 race rule — currently involved in a DMA transfer
    /// ("the operating system must make sure not to clear the dirty bit if
    /// a DMA transfer to the page is in progress... the page should remain
    /// dirty").
    ///
    /// # Errors
    ///
    /// [`Trap::NoSuchProcess`] for an unknown pid.
    pub fn clean_page(&mut self, pid: Pid, vpn: Vpn) -> Result<bool, Trap> {
        let layout = self.machine.layout();
        let proc = self.procs.get(&pid).ok_or(Trap::NoSuchProcess(pid))?;
        let Some(VPage::Resident { pfn, .. }) = proc.vpages.get(&vpn).copied() else {
            return Ok(false);
        };
        let dirty = proc.pt.get(vpn).is_some_and(|pte| pte.is_dirty());
        if !dirty {
            return Ok(false);
        }
        if self.machine.udma().frame_in_use(pfn) {
            self.counters.clean_deferred_dma.incr();
            return Ok(false);
        }

        let slot = *self.swap_slots.entry((pid, vpn)).or_insert_with(|| self.swap.alloc());
        let frame = self.machine.mem().frame(pfn).expect("resident frame in range").to_vec();
        self.swap.write(slot, &frame);
        let io = self.machine.cost().disk_seek
            + self.machine.cost().disk_rotation
            + self.machine.cost().disk_transfer(PAGE_SIZE);
        self.machine.advance(io);

        let proc = self.procs.get_mut(&pid).expect("validated above");
        proc.pt.clear_flags(vpn, PteFlags::DIRTY);
        let proxy_vpn =
            layout.proxy_of_virt(vpn.base()).expect("user pages live in the memory region").page();
        proc.pt.clear_flags(proxy_vpn, PteFlags::WRITABLE);
        self.machine.mmu_mut().flush_page(vpn);
        self.machine.mmu_mut().flush_page(proxy_vpn);
        self.counters.cleans.incr();
        Ok(true)
    }

    /// Sweeps every resident page of every process through
    /// [`Node::clean_page`]; returns how many pages were cleaned.
    ///
    /// # Errors
    ///
    /// Never errs in practice (pids come from the process table) but
    /// propagates [`Trap`] for uniformity.
    pub fn clean_all(&mut self) -> Result<usize, Trap> {
        let targets: Vec<(Pid, Vpn)> = self
            .procs
            .iter()
            .flat_map(|(&pid, proc)| proc.vpages.keys().map(move |&vpn| (pid, vpn)))
            .collect();
        let mut cleaned = 0;
        for (pid, vpn) in targets {
            if self.clean_page(pid, vpn)? {
                cleaned += 1;
            }
        }
        Ok(cleaned)
    }

    /// Pins a frame (traditional DMA baseline); pinned frames are never
    /// evicted.
    pub(crate) fn pin_frame(&mut self, pfn: Pfn) {
        *self.pinned.entry(pfn).or_insert(0) += 1;
        self.counters.pins.incr();
    }

    /// Releases one pin on a frame.
    pub(crate) fn unpin_frame(&mut self, pfn: Pfn) {
        match self.pinned.get_mut(&pfn) {
            Some(c) if *c > 1 => *c -= 1,
            Some(_) => {
                self.pinned.remove(&pfn);
            }
            None => debug_assert!(false, "unpin of unpinned frame {pfn}"),
        }
        self.counters.unpins.incr();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeConfig;
    use shrimp_devices::StreamSink;
    use shrimp_machine::MachineConfig;
    use shrimp_mem::VirtAddr;

    /// A node with only `frames` user frames, to force eviction.
    fn tight_node(frames: u64) -> Node<StreamSink> {
        let config = NodeConfig {
            machine: MachineConfig { mem_bytes: 256 * PAGE_SIZE, ..MachineConfig::default() },
            user_frames: Some(frames),
        };
        Node::new(config, StreamSink::new("sink"))
    }

    #[test]
    fn eviction_under_pressure_preserves_contents() {
        let mut n = tight_node(4);
        let pid = n.spawn();
        n.mmap(pid, 0x10000, 8, true).unwrap();
        // Touch 8 pages with distinct values — more than fit.
        for i in 0..8u64 {
            n.user_store(pid, VirtAddr::new(0x10000 + i * PAGE_SIZE), i as i64 + 1).unwrap();
        }
        assert!(n.counters().evictions.get() > 0);
        // Everything reads back correctly through page-ins.
        for i in 0..8u64 {
            assert_eq!(
                n.user_load(pid, VirtAddr::new(0x10000 + i * PAGE_SIZE)).unwrap(),
                i + 1,
                "page {i}"
            );
        }
        assert!(n.counters().page_ins.get() > 0);
        n.check_invariants().unwrap();
    }

    #[test]
    fn eviction_unmaps_proxy_mapping_i2() {
        let mut n = tight_node(3);
        let layout = n.machine().layout();
        let pid = n.spawn();
        n.mmap(pid, 0x10000, 6, true).unwrap();
        // Create a proxy mapping for page 0.
        n.user_store(pid, VirtAddr::new(0x10000), 7).unwrap();
        let vproxy = layout.proxy_of_virt(VirtAddr::new(0x10000)).unwrap();
        let _ = n.user_load(pid, vproxy).unwrap();
        // Force page 0 out by touching the rest.
        for i in 1..6u64 {
            n.user_store(pid, VirtAddr::new(0x10000 + i * PAGE_SIZE), 1).unwrap();
        }
        // Page 0 evicted: its proxy PTE must be gone too (I2).
        let proc = n.process(pid).unwrap();
        if proc.pt.get(VirtAddr::new(0x10000).page()).is_none() {
            assert!(proc.pt.get(vproxy.page()).is_none(), "I2: stale proxy mapping");
        }
        n.check_invariants().unwrap();
    }

    #[test]
    fn clean_write_protects_proxy_i3() {
        let mut n = tight_node(8);
        let layout = n.machine().layout();
        let pid = n.spawn();
        n.mmap(pid, 0x10000, 1, true).unwrap();
        n.user_store(pid, VirtAddr::new(0x10000), 42).unwrap(); // dirty
        let vproxy = layout.proxy_of_virt(VirtAddr::new(0x10000)).unwrap();
        n.user_store(pid, vproxy, 64).unwrap(); // writable proxy (dirty page)
        n.machine_mut().kernel_inval_udma(); // drop the latched initiation
        n.check_invariants().unwrap();

        assert!(n.clean_page(pid, VirtAddr::new(0x10000).page()).unwrap());
        // After cleaning: page clean, proxy write-protected, swap has data.
        let proc = n.process(pid).unwrap();
        assert!(!proc.pt.get(VirtAddr::new(0x10000).page()).unwrap().is_dirty());
        assert!(!proc.pt.get(vproxy.page()).unwrap().is_writable());
        assert_eq!(n.swap().write_count(), 1);
        n.check_invariants().unwrap();

        // Naming the page as a destination again re-dirties via the fault.
        n.user_store(pid, vproxy, 64).unwrap();
        assert_eq!(n.counters().i3_write_enables.get(), 1);
        n.check_invariants().unwrap();
    }

    #[test]
    fn clean_skipped_while_dma_in_flight() {
        let mut n = tight_node(8);
        let layout = n.machine().layout();
        let pid = n.spawn();
        n.mmap(pid, 0x10000, 1, true).unwrap();
        n.grant_device_proxy(pid, 0, 1, true).unwrap();
        n.user_store(pid, VirtAddr::new(0x10000), 42).unwrap();
        // Start a transfer sourcing the page.
        let vdev = VirtAddr::new(shrimp_mem::DEV_PROXY_BASE);
        let vproxy = layout.proxy_of_virt(VirtAddr::new(0x10000)).unwrap();
        n.user_store(pid, vdev, 256).unwrap();
        let status = udma_core::UdmaStatus::unpack(n.user_load(pid, vproxy).unwrap());
        assert!(status.started(), "{status}");
        // The §6 race rule: cleaning is refused mid-transfer.
        assert!(!n.clean_page(pid, VirtAddr::new(0x10000).page()).unwrap());
        assert_eq!(n.counters().clean_deferred_dma.get(), 1);
        n.check_invariants().unwrap();
    }

    #[test]
    fn i4_frame_held_by_hardware_is_not_evicted() {
        // Slow bus + fast paging disk so the in-flight transfer outlives
        // many eviction passes.
        let cost = shrimp_sim::CostModel {
            bus_mb_per_s: 0.05, // one page takes ~82 ms on the bus
            disk_seek: shrimp_sim::SimDuration::from_us(10.0),
            disk_rotation: shrimp_sim::SimDuration::from_us(10.0),
            disk_mb_per_s: 1000.0,
            ..shrimp_sim::CostModel::default()
        };
        let config = NodeConfig {
            machine: MachineConfig { mem_bytes: 256 * PAGE_SIZE, cost, ..MachineConfig::default() },
            user_frames: Some(3),
        };
        let mut n = Node::new(config, StreamSink::new("sink"));
        let layout = n.machine().layout();
        let pid = n.spawn();
        n.mmap(pid, 0x10000, 8, true).unwrap();
        n.grant_device_proxy(pid, 0, 1, true).unwrap();
        // Start a long transfer from page 0.
        n.user_store(pid, VirtAddr::new(0x10000), 1).unwrap();
        let vdev = VirtAddr::new(shrimp_mem::DEV_PROXY_BASE);
        let vproxy = layout.proxy_of_virt(VirtAddr::new(0x10000)).unwrap();
        n.user_store(pid, vdev, PAGE_SIZE as i64).unwrap();
        let status = udma_core::UdmaStatus::unpack(n.user_load(pid, vproxy).unwrap());
        assert!(status.started());
        let held =
            n.process(pid).unwrap().vpages[&VirtAddr::new(0x10000).page()].pfn().expect("resident");

        // Thrash memory: the held frame must survive every eviction pass.
        for i in 1..8u64 {
            n.user_store(pid, VirtAddr::new(0x10000 + i * PAGE_SIZE), 1).unwrap();
        }
        assert!(n.counters().i4_skips.get() > 0, "the pager must have skipped the frame");
        assert_eq!(
            n.process(pid).unwrap().vpages[&VirtAddr::new(0x10000).page()].pfn(),
            Some(held),
            "I4: frame named by hardware was remapped"
        );
        n.check_invariants().unwrap();
    }

    #[test]
    fn pinned_frames_survive_pressure() {
        let mut n = tight_node(3);
        let pid = n.spawn();
        n.mmap(pid, 0x10000, 6, true).unwrap();
        n.user_store(pid, VirtAddr::new(0x10000), 9).unwrap();
        let pfn = n.process(pid).unwrap().vpages[&VirtAddr::new(0x10000).page()].pfn().unwrap();
        n.pin_frame(pfn);
        for i in 1..6u64 {
            n.user_store(pid, VirtAddr::new(0x10000 + i * PAGE_SIZE), 1).unwrap();
        }
        assert_eq!(n.process(pid).unwrap().vpages[&VirtAddr::new(0x10000).page()].pfn(), Some(pfn));
        n.unpin_frame(pfn);
    }

    #[test]
    fn out_of_memory_when_everything_pinned() {
        let mut n = tight_node(2);
        let pid = n.spawn();
        n.mmap(pid, 0x10000, 4, true).unwrap();
        for i in 0..2u64 {
            n.user_store(pid, VirtAddr::new(0x10000 + i * PAGE_SIZE), 1).unwrap();
            let pfn = n.process(pid).unwrap().vpages
                [&VirtAddr::new(0x10000 + i * PAGE_SIZE).page()]
                .pfn()
                .unwrap();
            n.pin_frame(pfn);
        }
        let err = n.user_store(pid, VirtAddr::new(0x10000 + 2 * PAGE_SIZE), 1).unwrap_err();
        assert_eq!(err, Trap::OutOfMemory);
    }

    #[test]
    fn untouched_clean_pages_revert_to_zero_fill() {
        let mut n = tight_node(2);
        let pid = n.spawn();
        n.mmap(pid, 0x10000, 4, true).unwrap();
        // Only read pages (clean): evictions need no swap writes.
        for i in 0..4u64 {
            let _ = n.user_load(pid, VirtAddr::new(0x10000 + i * PAGE_SIZE)).unwrap();
        }
        assert!(n.counters().evictions.get() > 0);
        assert_eq!(n.counters().page_outs.get(), 0, "clean pages need no cleaning");
        assert_eq!(n.swap().write_count(), 0);
    }

    #[test]
    fn pager_accounts_are_per_process() {
        let mut n = tight_node(4);
        let a = n.spawn();
        let b = n.spawn();
        n.mmap(a, 0x10000, 4, true).unwrap();
        n.mmap(b, 0x10000, 4, true).unwrap();
        for i in 0..4u64 {
            n.user_store(a, VirtAddr::new(0x10000 + i * PAGE_SIZE), 1).unwrap();
        }
        // B's demand allocations squeeze A out: the requester and the
        // victim of the pressure are different processes.
        for i in 0..4u64 {
            n.user_store(b, VirtAddr::new(0x10000 + i * PAGE_SIZE), 2).unwrap();
        }
        let pa = n.process(a).unwrap().pager;
        let pb = n.process(b).unwrap().pager;
        assert_eq!(pa.demand_allocs, 4, "A touched 4 pages");
        assert_eq!(pb.demand_allocs, 4, "B touched 4 pages");
        assert!(pa.evictions > 0, "the victim is charged for evictions");
        assert_eq!(
            pa.evictions + pb.evictions,
            n.counters().evictions.get(),
            "per-process evictions partition the node total"
        );
        assert_eq!(
            pa.page_outs + pb.page_outs,
            n.counters().page_outs.get(),
            "per-process page-outs partition the node total"
        );
        n.check_invariants().unwrap();
    }

    #[test]
    fn clean_all_sweeps_dirty_pages() {
        let mut n = tight_node(8);
        let pid = n.spawn();
        n.mmap(pid, 0x10000, 3, true).unwrap();
        for i in 0..3u64 {
            n.user_store(pid, VirtAddr::new(0x10000 + i * PAGE_SIZE), 5).unwrap();
        }
        assert_eq!(n.clean_all().unwrap(), 3);
        assert_eq!(n.clean_all().unwrap(), 0, "second sweep finds nothing dirty");
    }
}
