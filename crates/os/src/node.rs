//! [`Node`]: one machine plus its kernel — process management, demand
//! paging, proxy-mapping faults and the UDMA invariants.

use std::collections::{BTreeMap, VecDeque};

use shrimp_devices::Device;
use shrimp_machine::{Machine, MachineConfig};
use shrimp_mem::{BackingStore, FrameAllocator, Pfn, Region, SwapSlot, VirtAddr, Vpn, PAGE_SIZE};
use shrimp_mmu::{Fault, Mode, Pte, PteFlags};
use shrimp_sim::MetricSet;

use crate::process::{DeviceGrant, Pid, Process, VPage};
use crate::Trap;

/// Node-level configuration.
#[derive(Clone, Debug, Default)]
pub struct NodeConfig {
    /// Hardware configuration.
    pub machine: MachineConfig,
    /// Cap on page frames available to user paging (`None` = all frames
    /// minus the kernel-reserved frame 0). Lowering this forces memory
    /// pressure for the invariant and pinning experiments.
    pub user_frames: Option<u64>,
}

shrimp_sim::counters! {
    /// Kernel event counts (metrics subsystem `kernel`).
    pub struct KernelCounters {
        /// Processes created.
        spawns,
        /// Processes exited.
        exits,
        /// Context switches.
        context_switches,
        /// Fault-handler entries.
        page_faults,
        /// Zero-filled first touches.
        zero_fills,
        /// Pages read back from the backing store.
        page_ins,
        /// Frames reclaimed by the pager.
        evictions,
        /// Dirty pages written to the backing store.
        page_outs,
        /// Eviction candidates skipped because the UDMA hardware names
        /// them (invariant I4).
        i4_skips,
        /// Dirty pages cleaned without eviction.
        cleans,
        /// Cleans deferred because an incoming DMA targets the page.
        clean_deferred_dma,
        /// Memory-proxy mappings created on demand.
        proxy_mappings_created,
        /// Proxy pages made writable after their page dirtied (I3).
        i3_write_enables,
        /// Device-proxy mappings created on demand.
        device_proxy_mappings_created,
        /// Device grants issued.
        device_grants,
        /// Device grants revoked.
        device_revokes,
        /// Page ranges wired for export.
        wired_exports,
        /// Frames pinned for traditional DMA.
        pins,
        /// Frames unpinned after traditional DMA.
        unpins,
        /// Traditional-DMA system calls.
        dma_syscalls,
        /// Bytes moved by traditional-DMA system calls.
        dma_syscall_bytes,
    }
}

/// A complete simulated node: the machine hardware plus the kernel state
/// that manages it.
#[derive(Debug)]
pub struct Node<D> {
    pub(crate) machine: Machine<D>,
    pub(crate) frames: FrameAllocator,
    pub(crate) swap: BackingStore,
    pub(crate) procs: BTreeMap<Pid, Process>,
    next_pid: u32,
    pub(crate) current: Option<Pid>,
    /// Which (process, virtual page) owns each allocated frame.
    pub(crate) frame_owner: BTreeMap<Pfn, (Pid, Vpn)>,
    /// Second-chance clock queue over resident frames.
    pub(crate) resident_fifo: VecDeque<Pfn>,
    /// Pin counts for the traditional DMA baseline.
    pub(crate) pinned: BTreeMap<Pfn, u32>,
    /// Backing-store slot assigned to each (process, page), if any.
    pub(crate) swap_slots: BTreeMap<(Pid, Vpn), SwapSlot>,
    pub(crate) counters: KernelCounters,
}

impl<D: Device> Node<D> {
    /// Boots a node: builds the machine and an empty process table.
    pub fn new(config: NodeConfig, device: D) -> Self {
        let machine = Machine::new(config.machine.clone(), device);
        let total = machine.mem().frame_count();
        let usable = config.user_frames.map_or(total, |n| (n + 1).min(total));
        Node {
            machine,
            // Frame 0 is reserved for the kernel (and anchors the I1 Inval
            // store's proxy address).
            frames: FrameAllocator::with_reserved(usable, 1),
            swap: BackingStore::new(),
            procs: BTreeMap::new(),
            next_pid: 1,
            current: None,
            frame_owner: BTreeMap::new(),
            resident_fifo: VecDeque::new(),
            pinned: BTreeMap::new(),
            swap_slots: BTreeMap::new(),
            counters: KernelCounters::default(),
        }
    }

    /// The machine hardware.
    pub fn machine(&self) -> &Machine<D> {
        &self.machine
    }

    /// Mutable machine access (device setup, manual time advancement).
    pub fn machine_mut(&mut self) -> &mut Machine<D> {
        &mut self.machine
    }

    /// Kernel event counts (context switches, faults by kind, evictions...).
    pub fn counters(&self) -> &KernelCounters {
        &self.counters
    }

    /// Registers every counter of this node in `set`, at node `index` when
    /// given: the kernel's (`kernel/*`) plus the machine's (see
    /// [`Machine::harvest_metrics`]).
    pub fn harvest_metrics(&self, set: &mut MetricSet, index: Option<u32>) {
        self.counters.harvest(set, "kernel", index);
        self.machine.harvest_metrics(set, index);
    }

    /// The backing store (test inspection of I3's cleaning traffic).
    pub fn swap(&self) -> &BackingStore {
        &self.swap
    }

    /// The process table entry for `pid`.
    ///
    /// # Errors
    ///
    /// [`Trap::NoSuchProcess`] if `pid` is unknown.
    pub fn process(&self, pid: Pid) -> Result<&Process, Trap> {
        self.procs.get(&pid).ok_or(Trap::NoSuchProcess(pid))
    }

    /// The currently scheduled process, if any.
    pub fn current(&self) -> Option<Pid> {
        self.current
    }

    /// Creates a process with an empty address space.
    pub fn spawn(&mut self) -> Pid {
        let pid = Pid::new(self.next_pid);
        self.next_pid += 1;
        self.procs.insert(pid, Process::new(pid));
        self.counters.spawns.incr();
        pid
    }

    /// Declares `pages` pages of zero-fill memory at `va_base` for `pid`.
    ///
    /// # Errors
    ///
    /// - [`Trap::NoSuchProcess`] for an unknown pid,
    /// - [`Trap::SegFault`] if the range leaves the ordinary-memory region
    ///   of the virtual address space.
    ///
    /// # Panics
    ///
    /// Panics if `va_base` is not page-aligned.
    pub fn mmap(&mut self, pid: Pid, va_base: u64, pages: u64, writable: bool) -> Result<(), Trap> {
        assert_eq!(va_base % PAGE_SIZE, 0, "mmap base must be page-aligned");
        let layout = self.machine.layout();
        let end = va_base + pages * PAGE_SIZE;
        if layout.region_of_virt(VirtAddr::new(va_base)) != Region::Memory
            || (end > 0 && layout.region_of_virt(VirtAddr::new(end - 1)) != Region::Memory)
        {
            return Err(Trap::SegFault { pid, va: VirtAddr::new(va_base) });
        }
        let proc = self.procs.get_mut(&pid).ok_or(Trap::NoSuchProcess(pid))?;
        for i in 0..pages {
            proc.vpages
                .entry(VirtAddr::new(va_base + i * PAGE_SIZE).page())
                .or_insert(VPage::Untouched { writable });
        }
        Ok(())
    }

    /// The `grant device proxy` system call (§4: "an operating system call
    /// is responsible for creating the mapping... decides whether to grant
    /// permission... and whether the permission is read-only").
    ///
    /// The grant is recorded and the PTEs are created on demand through the
    /// normal page-fault path.
    ///
    /// # Errors
    ///
    /// - [`Trap::NoSuchProcess`] for an unknown pid,
    /// - [`Trap::DeviceNotGranted`] if the range exceeds the device's proxy
    ///   space.
    pub fn grant_device_proxy(
        &mut self,
        pid: Pid,
        first_page: u64,
        pages: u64,
        writable: bool,
    ) -> Result<(), Trap> {
        let syscall = self.machine.cost().syscall;
        self.machine.advance(syscall);
        let layout = self.machine.layout();
        let device_pages = self
            .machine
            .device()
            .proxy_space_bytes()
            .min(layout.dev_proxy_bytes())
            .div_ceil(PAGE_SIZE);
        if first_page + pages > device_pages {
            return Err(Trap::DeviceNotGranted {
                pid,
                va: VirtAddr::new(shrimp_mem::DEV_PROXY_BASE + first_page * PAGE_SIZE),
            });
        }
        let proc = self.procs.get_mut(&pid).ok_or(Trap::NoSuchProcess(pid))?;
        proc.grants.push(DeviceGrant { first_page, pages, writable });
        self.counters.device_grants.incr();
        Ok(())
    }

    /// Revokes device proxy pages `[first_page, first_page + pages)` from
    /// `pid`: the teardown half of NIPT demand paging. Grants covering the
    /// range are dropped, any demand-created proxy PTEs in the range are
    /// unmapped (and their TLB entries shot down), and the I1 Inval store
    /// fires so a transfer half-initiated through the dying mapping can
    /// never complete against a recycled NIPT entry. `pid`'s next touch of
    /// the range faults [`Trap::DeviceNotGranted`].
    ///
    /// # Errors
    ///
    /// [`Trap::NoSuchProcess`] for an unknown pid.
    pub fn revoke_device_proxy(
        &mut self,
        pid: Pid,
        first_page: u64,
        pages: u64,
    ) -> Result<(), Trap> {
        let syscall = self.machine.cost().syscall;
        self.machine.advance(syscall);
        let proc = self.procs.get_mut(&pid).ok_or(Trap::NoSuchProcess(pid))?;
        let end = first_page + pages;
        proc.grants.retain(|g| g.first_page >= end || g.first_page + g.pages <= first_page);
        let mut unmapped = 0u64;
        for page in first_page..end {
            let vpn = VirtAddr::new(shrimp_mem::DEV_PROXY_BASE + page * PAGE_SIZE).page();
            if proc.pt.unmap(vpn).is_some() {
                unmapped += 1;
            }
        }
        for page in first_page..end {
            let vpn = VirtAddr::new(shrimp_mem::DEV_PROXY_BASE + page * PAGE_SIZE).page();
            self.machine.mmu_mut().flush_page(vpn);
        }
        if unmapped > 0 {
            let pte_cost = self.machine.cost().pte_update;
            self.machine.advance(pte_cost * unmapped);
        }
        // Invariant I1 territory: a transfer the process half-initiated
        // through the revoked window must not survive the revocation.
        self.machine.kernel_inval_udma();
        self.counters.device_revokes.incr();
        Ok(())
    }

    /// Schedules `pid`, performing a context switch if it is not already
    /// running: full TLB flush plus the I1 Inval store ("the operating
    /// system must invalidate any partially initiated UDMA transfer on
    /// every context switch... with a single STORE instruction").
    ///
    /// # Errors
    ///
    /// [`Trap::NoSuchProcess`] for an unknown pid.
    pub fn ensure_current(&mut self, pid: Pid) -> Result<(), Trap> {
        if self.current == Some(pid) {
            // A scheduled pid always has a process-table entry (exit()
            // deschedules before removing), so skip the existence lookup.
            debug_assert!(self.procs.contains_key(&pid));
            return Ok(());
        }
        if !self.procs.contains_key(&pid) {
            return Err(Trap::NoSuchProcess(pid));
        }
        self.context_switch(Some(pid));
        Ok(())
    }

    /// Unconditionally switches to `to` (or to the idle loop for `None`).
    pub fn context_switch(&mut self, to: Option<Pid>) {
        let cost = self.machine.cost().context_switch;
        self.machine.advance(cost);
        self.machine.mmu_mut().flush_all();
        // Invariant I1: one STORE of a negative value to proxy space.
        self.machine.kernel_inval_udma();
        self.current = to;
        self.counters.context_switches.incr();
    }

    /// One user-mode load, with kernel fault handling and restart.
    ///
    /// # Errors
    ///
    /// Any [`Trap`] the fault handler raises.
    pub fn user_load(&mut self, pid: Pid, va: VirtAddr) -> Result<u64, Trap> {
        // `pid` already scheduled is the steady state; the process-table
        // lookup below doubles as the existence check.
        if self.current != Some(pid) {
            self.ensure_current(pid)?;
        }
        for _ in 0..MAX_FAULT_RESTARTS {
            let proc = self.procs.get_mut(&pid).ok_or(Trap::NoSuchProcess(pid))?;
            match self.machine.load(&mut proc.pt, va, Mode::User) {
                Ok(v) => return Ok(v),
                Err(fault) => self.handle_fault(pid, fault)?,
            }
        }
        panic!("fault handler livelock at {va} (kernel bug)");
    }

    /// One user-mode store, with kernel fault handling and restart.
    ///
    /// # Errors
    ///
    /// Any [`Trap`] the fault handler raises.
    pub fn user_store(&mut self, pid: Pid, va: VirtAddr, value: i64) -> Result<(), Trap> {
        if self.current != Some(pid) {
            self.ensure_current(pid)?;
        }
        for _ in 0..MAX_FAULT_RESTARTS {
            let proc = self.procs.get_mut(&pid).ok_or(Trap::NoSuchProcess(pid))?;
            match self.machine.store(&mut proc.pt, va, value, Mode::User) {
                Ok(()) => return Ok(()),
                Err(fault) => self.handle_fault(pid, fault)?,
            }
        }
        panic!("fault handler livelock at {va} (kernel bug)");
    }

    /// The UDMA initiation pair — `STORE value TO dest_va; LOAD FROM
    /// src_va` — with a single process-table lookup covering both
    /// references in the no-fault steady state (the data-plane hot path
    /// performs this sequence once per packet). Any fault falls back to
    /// the general per-reference paths, so trap behavior and simulated
    /// timing are identical to calling [`Node::user_store`] then
    /// [`Node::user_load`].
    ///
    /// # Errors
    ///
    /// Any [`Trap`] the fault handler raises.
    pub(crate) fn user_store_load_pair(
        &mut self,
        pid: Pid,
        dest_va: VirtAddr,
        value: i64,
        src_va: VirtAddr,
    ) -> Result<u64, Trap> {
        if self.current != Some(pid) {
            self.ensure_current(pid)?;
        }
        let proc = self.procs.get_mut(&pid).ok_or(Trap::NoSuchProcess(pid))?;
        if let Err(fault) = self.machine.store(&mut proc.pt, dest_va, value, Mode::User) {
            self.handle_fault(pid, fault)?;
            self.user_store(pid, dest_va, value)?;
            return self.user_load(pid, src_va);
        }
        match self.machine.load(&mut proc.pt, src_va, Mode::User) {
            Ok(v) => Ok(v),
            Err(fault) => {
                self.handle_fault(pid, fault)?;
                self.user_load(pid, src_va)
            }
        }
    }

    /// Copies `data` into `pid`'s memory at `va` (bulk user write with
    /// fault handling).
    ///
    /// A fault resumes the copy at the faulting page rather than
    /// restarting — like a real faulting instruction — so a sequential
    /// sweep larger than physical memory still makes forward progress.
    ///
    /// # Errors
    ///
    /// Any [`Trap`] the fault handler raises.
    pub fn write_user(&mut self, pid: Pid, va: VirtAddr, data: &[u8]) -> Result<(), Trap> {
        self.ensure_current(pid)?;
        let mut off = 0u64;
        while off < data.len() as u64 {
            let cur = va + off;
            let chunk = cur.bytes_to_page_end().min(data.len() as u64 - off);
            let slice = &data[off as usize..(off + chunk) as usize];
            for attempt in 0..=MAX_FAULT_RESTARTS {
                assert!(attempt < MAX_FAULT_RESTARTS, "fault handler livelock at {cur}");
                let proc = self.procs.get_mut(&pid).expect("checked by ensure_current");
                match self.machine.write_bytes(&mut proc.pt, cur, slice, Mode::User) {
                    Ok(()) => break,
                    Err(fault) => self.handle_fault(pid, fault)?,
                }
            }
            off += chunk;
        }
        Ok(())
    }

    /// Reads `len` bytes of `pid`'s memory at `va`, resuming at the
    /// faulting page after each fault (see [`Node::write_user`]).
    ///
    /// # Errors
    ///
    /// Any [`Trap`] the fault handler raises.
    pub fn read_user(&mut self, pid: Pid, va: VirtAddr, len: u64) -> Result<Vec<u8>, Trap> {
        self.ensure_current(pid)?;
        let mut out = Vec::with_capacity(len as usize);
        let mut off = 0u64;
        while off < len {
            let cur = va + off;
            let chunk = cur.bytes_to_page_end().min(len - off);
            for attempt in 0..=MAX_FAULT_RESTARTS {
                assert!(attempt < MAX_FAULT_RESTARTS, "fault handler livelock at {cur}");
                let proc = self.procs.get_mut(&pid).expect("checked by ensure_current");
                match self.machine.read_bytes(&mut proc.pt, cur, chunk, Mode::User) {
                    Ok(v) => {
                        out.extend_from_slice(&v);
                        break;
                    }
                    Err(fault) => self.handle_fault(pid, fault)?,
                }
            }
            off += chunk;
        }
        Ok(out)
    }

    /// The kernel page-fault handler. Dispatches on the region of the
    /// faulting address: ordinary memory (demand paging), memory proxy
    /// space (the three §6 cases plus the I3 dirty protocol) or device
    /// proxy space (grant check).
    ///
    /// # Errors
    ///
    /// A [`Trap`] when the access is genuinely illegal.
    pub fn handle_fault(&mut self, pid: Pid, fault: Fault) -> Result<(), Trap> {
        let overhead = self.machine.cost().page_fault_overhead;
        self.machine.advance(overhead);
        self.counters.page_faults.incr();
        let layout = self.machine.layout();
        let va = fault.va();
        match layout.region_of_virt(va) {
            // Page-fault service is the cold path by definition:
            // steady-state hot-path accesses hit valid, resident mappings
            // and never reach the fault_* handlers below.
            // lint:allow(A1) -- cold fault path (see above).
            Region::Memory => self.fault_memory(pid, fault),
            Region::MemoryProxy => self.fault_memory_proxy(pid, fault),
            Region::DeviceProxy => self.fault_device_proxy(pid, fault),
            Region::Mmio | Region::Invalid => Err(Trap::SegFault { pid, va }),
        }
    }

    /// Demand paging for ordinary memory.
    fn fault_memory(&mut self, pid: Pid, fault: Fault) -> Result<(), Trap> {
        let va = fault.va();
        let vpn = fault.vpn();
        match fault {
            Fault::NotMapped { .. } => {
                self.ensure_resident(pid, vpn)?;
                Ok(())
            }
            // The real page is mapped writable iff its segment is, so a
            // write-protection fault here is a genuine violation.
            Fault::WriteProtected { .. } => Err(Trap::ReadOnly { pid, va }),
            Fault::Privilege { .. } => Err(Trap::SegFault { pid, va }),
        }
    }

    /// On-demand memory-proxy mappings: §6's three cases, plus the I3
    /// write-enable protocol.
    fn fault_memory_proxy(&mut self, pid: Pid, fault: Fault) -> Result<(), Trap> {
        let layout = self.machine.layout();
        let va = fault.va();
        let real_va =
            layout.virt_of_proxy(va).expect("region dispatch guarantees a memory-proxy address");
        let real_vpn = real_va.page();

        let Some(&vpage) =
            self.procs.get(&pid).ok_or(Trap::NoSuchProcess(pid))?.vpages.get(&real_vpn)
        else {
            // Case 3: "vmem_page is not accessible for the process. The
            // kernel treats this like an illegal access."
            return Err(Trap::SegFault { pid, va });
        };

        match fault {
            Fault::NotMapped { .. } => {
                // Cases 1 and 2: page the real page in if needed, then
                // create the proxy mapping.
                let pfn = self.ensure_resident(pid, real_vpn)?;
                self.map_proxy_pte(pid, real_vpn, pfn);
                self.counters.proxy_mappings_created.incr();
                Ok(())
            }
            Fault::WriteProtected { .. } => {
                // I3: enable writes to PROXY(page) and mark the page dirty.
                if !vpage.writable() {
                    // "A read-only page can be used as the source of a
                    // transfer but not as the destination."
                    return Err(Trap::ReadOnly { pid, va });
                }
                let pfn = self.ensure_resident(pid, real_vpn)?;
                let pte_cost = self.machine.cost().pte_update;
                self.machine.advance(pte_cost);
                let proc = self.procs.get_mut(&pid).expect("existence checked above");
                proc.pt.set_flags(real_vpn, PteFlags::DIRTY);
                let proxy_vpn =
                    layout.proxy_of_virt(real_va).expect("real address in memory region").page();
                proc.pt.set_flags(proxy_vpn, PteFlags::WRITABLE);
                self.machine.mmu_mut().flush_page(proxy_vpn);
                self.machine.mmu_mut().flush_page(real_vpn);
                let _ = pfn;
                self.counters.i3_write_enables.incr();
                Ok(())
            }
            Fault::Privilege { .. } => Err(Trap::SegFault { pid, va }),
        }
    }

    /// Device-proxy mappings, created on demand against recorded grants.
    fn fault_device_proxy(&mut self, pid: Pid, fault: Fault) -> Result<(), Trap> {
        let va = fault.va();
        let dev_page = (va.raw() - shrimp_mem::DEV_PROXY_BASE) >> shrimp_mem::PAGE_SHIFT;
        let proc = self.procs.get_mut(&pid).ok_or(Trap::NoSuchProcess(pid))?;
        let Some(&grant) = proc.grant_for(dev_page).map(|g| g as &DeviceGrant) else {
            return Err(Trap::DeviceNotGranted { pid, va });
        };
        match fault {
            Fault::NotMapped { .. } => {
                let mut flags =
                    PteFlags::VALID | PteFlags::USER | PteFlags::UNCACHED | PteFlags::PROXY;
                if grant.writable {
                    flags |= PteFlags::WRITABLE;
                }
                // Virtual device proxy space maps identically onto physical
                // device proxy space.
                proc.pt.map(va.page(), Pte::new(Pfn::new(va.page().raw()), flags));
                let pte_cost = self.machine.cost().pte_update;
                self.machine.advance(pte_cost);
                self.counters.device_proxy_mappings_created.incr();
                Ok(())
            }
            // A store to a read-only device grant: cannot name the device
            // as a destination.
            Fault::WriteProtected { .. } => Err(Trap::ReadOnly { pid, va }),
            Fault::Privilege { .. } => Err(Trap::SegFault { pid, va }),
        }
    }

    /// Creates the memory-proxy PTE for a resident real page, respecting
    /// invariant I3 (writable only if the real page is already dirty).
    pub(crate) fn map_proxy_pte(&mut self, pid: Pid, real_vpn: Vpn, pfn: Pfn) {
        let layout = self.machine.layout();
        let proc = self.procs.get_mut(&pid).expect("caller validated pid");
        let real_pte = *proc.pt.get(real_vpn).expect("real page must be mapped first");
        let segment_writable = proc.vpages.get(&real_vpn).map(VPage::writable).unwrap_or(false);
        let mut flags = PteFlags::VALID | PteFlags::USER | PteFlags::UNCACHED | PteFlags::PROXY;
        if segment_writable && real_pte.is_dirty() {
            flags |= PteFlags::WRITABLE;
        }
        let proxy_vpn = layout.proxy_of_virt(real_vpn.base()).expect("vpn in memory region").page();
        let proxy_pfn = layout.proxy_of_phys(pfn.base()).expect("pfn in memory region").page();
        proc.pt.map(proxy_vpn, Pte::new(proxy_pfn, flags));
        let pte_cost = self.machine.cost().pte_update;
        self.machine.advance(pte_cost);
    }

    /// Makes `(pid, vpn)` resident, paging in from swap or zero-filling,
    /// and installs the real PTE. Returns the frame.
    ///
    /// # Errors
    ///
    /// - [`Trap::SegFault`] if the page is not part of any segment,
    /// - [`Trap::OutOfMemory`] if no frame can be freed.
    pub(crate) fn ensure_resident(&mut self, pid: Pid, vpn: Vpn) -> Result<Pfn, Trap> {
        let vpage = *self
            .procs
            .get(&pid)
            .ok_or(Trap::NoSuchProcess(pid))?
            .vpages
            .get(&vpn)
            .ok_or(Trap::SegFault { pid, va: vpn.base() })?;

        let (pfn, writable) = match vpage {
            VPage::Resident { pfn, writable } => {
                // Already resident: just (re)install the PTE if missing.
                (pfn, writable)
            }
            VPage::Untouched { writable } => {
                let pfn = self.alloc_frame_evicting(pid, vpn)?;
                let zero_cost = self.machine.cost().instructions(PAGE_SIZE / 8);
                self.machine.advance(zero_cost);
                self.machine
                    .mem_mut()
                    .fill(pfn.base(), PAGE_SIZE, 0)
                    .expect("allocated frame in range");
                self.counters.zero_fills.incr();
                (pfn, writable)
            }
            VPage::Swapped { slot, writable } => {
                let pfn = self.alloc_frame_evicting(pid, vpn)?;
                let io = self.machine.cost().disk_seek
                    + self.machine.cost().disk_rotation
                    + self.machine.cost().disk_transfer(PAGE_SIZE);
                self.machine.advance(io);
                let data = self.swap.read(slot).expect("swapped page has contents").to_vec();
                self.machine.mem_mut().write_frame(pfn, &data).expect("allocated frame in range");
                self.counters.page_ins.incr();
                (pfn, writable)
            }
        };

        let proc = self.procs.get_mut(&pid).expect("validated above");
        if proc.pt.get(vpn).is_none() {
            let mut flags = PteFlags::VALID | PteFlags::USER;
            if writable {
                flags |= PteFlags::WRITABLE;
            }
            proc.pt.map(vpn, Pte::new(pfn, flags));
            let pte_cost = self.machine.cost().pte_update;
            self.machine.advance(pte_cost);
        }
        proc.vpages.insert(vpn, VPage::Resident { pfn, writable });
        if let std::collections::btree_map::Entry::Vacant(e) = self.frame_owner.entry(pfn) {
            e.insert((pid, vpn));
            self.resident_fifo.push_back(pfn);
        }
        Ok(pfn)
    }

    /// Terminates a process and reclaims everything it held: frames, swap
    /// slots, device grants, pins.
    ///
    /// The interesting case is an in-flight UDMA transfer touching the
    /// process's frames: "once started, a UDMA transfer continues
    /// regardless of whether the process that started it is de-scheduled"
    /// (§6) — and I4 forbids remapping those frames. The kernel therefore
    /// fires an Inval (clearing any latched DESTINATION) and then waits for
    /// the hardware to drain before freeing frames the hardware names.
    ///
    /// # Errors
    ///
    /// [`Trap::NoSuchProcess`] for an unknown pid.
    pub fn exit_process(&mut self, pid: Pid) -> Result<(), Trap> {
        if !self.procs.contains_key(&pid) {
            return Err(Trap::NoSuchProcess(pid));
        }
        // Clear any latched (DestLoaded) registers; queued/in-flight
        // transfers keep running.
        self.machine.kernel_inval_udma();

        // I4: wait out transfers that name this process's frames.
        let owned: Vec<Pfn> = self
            .frame_owner
            .iter()
            .filter(|&(_, &(owner, _))| owner == pid)
            .map(|(&pfn, _)| pfn)
            .collect();
        if owned.iter().any(|&pfn| self.machine.udma().frame_in_use(pfn)) {
            let drained = self.machine.udma_drained_at();
            self.machine.advance_to(drained);
        }
        debug_assert!(
            !owned.iter().any(|&pfn| self.machine.udma().frame_in_use(pfn)),
            "hardware still names an exiting process's frame after drain"
        );

        // Reclaim frames (dirty or not — the address space is gone).
        for pfn in owned {
            self.frame_owner.remove(&pfn);
            self.pinned.remove(&pfn);
            self.frames.free(pfn);
        }
        self.resident_fifo.retain(|pfn| self.frame_owner.contains_key(pfn));

        // Release backing store and the process itself.
        let slots: Vec<_> = self
            .swap_slots
            .iter()
            .filter(|&(&(owner, _), _)| owner == pid)
            .map(|(&k, &slot)| (k, slot))
            .collect();
        for (k, slot) in slots {
            self.swap.release(slot);
            self.swap_slots.remove(&k);
        }
        self.procs.remove(&pid);
        if self.current == Some(pid) {
            self.context_switch(None);
        }
        self.machine.mmu_mut().flush_all();
        let cost = self.machine.cost().syscall;
        self.machine.advance(cost);
        self.counters.exits.incr();
        Ok(())
    }

    /// Kernel-privilege page-table edit: installs `pte` for `vpn` in
    /// `pid`'s table. Used for special windows (e.g. device MMIO) that the
    /// normal paging paths do not manage.
    ///
    /// # Errors
    ///
    /// [`Trap::NoSuchProcess`] for an unknown pid.
    pub fn kernel_map_page(&mut self, pid: Pid, vpn: Vpn, pte: Pte) -> Result<(), Trap> {
        let proc = self.procs.get_mut(&pid).ok_or(Trap::NoSuchProcess(pid))?;
        proc.pt.map(vpn, pte);
        self.machine.mmu_mut().flush_page(vpn);
        let cost = self.machine.cost().pte_update;
        self.machine.advance(cost);
        Ok(())
    }

    /// Wires down a run of user pages: makes them resident, pins them and
    /// marks them dirty. Used by the SHRIMP export path — pages a receiver
    /// exposes to incoming network DMA must keep their frames (incoming
    /// packets carry *physical* addresses) and must be considered dirty
    /// (network writes bypass the MMU's dirty-bit hardware). Returns the
    /// backing frames in page order.
    ///
    /// # Errors
    ///
    /// Any paging [`Trap`].
    pub fn wire_pages(&mut self, pid: Pid, va: VirtAddr, pages: u64) -> Result<Vec<Pfn>, Trap> {
        assert!(va.is_page_aligned(), "wire_pages base must be page-aligned");
        let mut pfns = Vec::with_capacity(pages as usize);
        for i in 0..pages {
            let vpn = (va + i * PAGE_SIZE).page();
            let pfn = self.ensure_resident(pid, vpn)?;
            self.pin_frame(pfn);
            let proc = self.procs.get_mut(&pid).expect("resident page has a process");
            proc.pt.set_flags(vpn, PteFlags::DIRTY);
            pfns.push(pfn);
        }
        self.counters.wired_exports.incr();
        Ok(pfns)
    }

    /// Releases pages wired by [`Node::wire_pages`].
    pub fn unwire_pages(&mut self, pid: Pid, va: VirtAddr, pages: u64) {
        for i in 0..pages {
            let vpn = (va + i * PAGE_SIZE).page();
            if let Some(pfn) = self
                .procs
                .get(&pid)
                .and_then(|p| p.vpages.get(&vpn))
                .and_then(crate::process::VPage::pfn)
            {
                self.unpin_frame(pfn);
            }
        }
    }

    /// Verifies the §6 invariants over the whole node. Returns a
    /// description of the first violation found. Test-support API.
    ///
    /// # Errors
    ///
    /// A human-readable violation description.
    pub fn check_invariants(&self) -> Result<(), String> {
        let layout = self.machine.layout();
        for (pid, proc) in &self.procs {
            for (vpn, pte) in proc.pt.iter() {
                if !pte.flags.contains(PteFlags::PROXY) {
                    continue;
                }
                let va = vpn.base();
                if layout.region_of_virt(va) != Region::MemoryProxy {
                    continue; // device proxy entries have no paired mapping
                }
                // I2: proxy mapping valid => real mapping valid & paired.
                let real_vpn = layout
                    .virt_of_proxy(va)
                    .map_err(|e| format!("{pid}: proxy PTE at non-proxy page: {e}"))?
                    .page();
                let Some(real_pte) = proc.pt.get(real_vpn) else {
                    return Err(format!(
                        "I2 violated: {pid} maps PROXY({real_vpn}) but not {real_vpn}"
                    ));
                };
                let expect_proxy_pfn = layout
                    .proxy_of_phys(real_pte.pfn.base())
                    .map_err(|e| format!("{pid}: real PTE outside memory: {e}"))?
                    .page();
                if pte.pfn != expect_proxy_pfn {
                    return Err(format!(
                        "I2 violated: {pid} PROXY({real_vpn}) -> {} but {real_vpn} -> {}",
                        pte.pfn, real_pte.pfn
                    ));
                }
                // I3: writable proxy => dirty real page.
                if pte.is_writable() && !real_pte.is_dirty() {
                    return Err(format!(
                        "I3 violated: {pid} PROXY({real_vpn}) writable but {real_vpn} clean"
                    ));
                }
            }
        }
        // I4: every frame the hardware names is still owned and mapped.
        for pfn in self.hw_frames() {
            let Some(&(pid, vpn)) = self.frame_owner.get(&pfn) else {
                return Err(format!("I4 violated: hardware names unowned frame {pfn}"));
            };
            let proc = self.procs.get(&pid).expect("owner table consistent");
            match proc.pt.get(vpn) {
                Some(pte) if pte.pfn == pfn => {}
                _ => {
                    return Err(format!(
                        "I4 violated: hardware names {pfn} but {pid}:{vpn} no longer maps it"
                    ))
                }
            }
        }
        Ok(())
    }

    /// Frames currently named by the UDMA hardware.
    fn hw_frames(&self) -> Vec<Pfn> {
        (0..self.machine.mem().frame_count())
            .map(Pfn::new)
            .filter(|&p| self.machine.udma().frame_in_use(p))
            .collect()
    }
}

/// Restart bound for the fault-handling loops: any single reference needs
/// at most a handful of kernel interventions (real page-in + proxy mapping
/// + I3 write-enable); more indicates a kernel bug.
const MAX_FAULT_RESTARTS: usize = 8;

#[cfg(test)]
mod tests {
    use super::*;
    use shrimp_devices::StreamSink;

    fn node() -> Node<StreamSink> {
        let config = NodeConfig {
            machine: MachineConfig { mem_bytes: 64 * PAGE_SIZE, ..MachineConfig::default() },
            user_frames: None,
        };
        Node::new(config, StreamSink::new("sink"))
    }

    #[test]
    fn spawn_and_mmap() {
        let mut n = node();
        let pid = n.spawn();
        n.mmap(pid, 0x10000, 4, true).unwrap();
        assert_eq!(n.process(pid).unwrap().vpages.len(), 4);
    }

    #[test]
    fn demand_zero_fill_on_first_touch() {
        let mut n = node();
        let pid = n.spawn();
        n.mmap(pid, 0x10000, 1, true).unwrap();
        assert_eq!(n.user_load(pid, VirtAddr::new(0x10008)).unwrap(), 0);
        assert_eq!(n.counters().zero_fills.get(), 1);
        assert_eq!(n.process(pid).unwrap().resident_pages(), 1);
    }

    #[test]
    fn store_then_load_roundtrip() {
        let mut n = node();
        let pid = n.spawn();
        n.mmap(pid, 0x10000, 1, true).unwrap();
        n.user_store(pid, VirtAddr::new(0x10010), 99).unwrap();
        assert_eq!(n.user_load(pid, VirtAddr::new(0x10010)).unwrap(), 99);
    }

    #[test]
    fn unmapped_access_is_segfault() {
        let mut n = node();
        let pid = n.spawn();
        let err = n.user_load(pid, VirtAddr::new(0x10000)).unwrap_err();
        assert_eq!(err, Trap::SegFault { pid, va: VirtAddr::new(0x10000) });
    }

    /// Processes A and B with one page each, touched in that order so
    /// they get frames 1 and 2: B's frame sits physically right after A's.
    fn neighbours(mem_pages: u64) -> (Node<StreamSink>, Pid, Pid) {
        let config = NodeConfig {
            machine: MachineConfig { mem_bytes: mem_pages * PAGE_SIZE, ..MachineConfig::default() },
            user_frames: None,
        };
        let mut n = Node::new(config, StreamSink::new("sink"));
        let (a, b) = (n.spawn(), n.spawn());
        n.mmap(a, 0x10000, 1, true).unwrap();
        n.mmap(b, 0x40000, 1, true).unwrap();
        n.user_store(a, VirtAddr::new(0x10000), 0).unwrap();
        n.user_store(b, VirtAddr::new(0x40000), 0).unwrap();
        (n, a, b)
    }

    #[test]
    fn page_crossing_access_never_touches_the_adjacent_frame() {
        let (mut n, a, b) = neighbours(64);
        let err = n.user_store(a, VirtAddr::new(0x10ffc), -1).unwrap_err();
        assert_eq!(err, Trap::SegFault { pid: a, va: VirtAddr::new(0x11000) });
        let err = n.user_load(a, VirtAddr::new(0x10ffc)).unwrap_err();
        assert_eq!(err, Trap::SegFault { pid: a, va: VirtAddr::new(0x11000) });
        assert_eq!(n.read_user(b, VirtAddr::new(0x40000), 8).unwrap(), [0; 8], "B's page");
        assert_eq!(n.read_user(a, VirtAddr::new(0x10ff8), 8).unwrap(), [0; 8], "A's page");
    }

    #[test]
    fn page_crossing_access_in_the_top_frame_faults_instead_of_panicking() {
        // Frames 0 (kernel), 1 (A) and 2 (B): B owns the top frame.
        let (mut n, a, b) = neighbours(3);
        let err = n.user_store(b, VirtAddr::new(0x40ffc), -1).unwrap_err();
        assert_eq!(err, Trap::SegFault { pid: b, va: VirtAddr::new(0x41000) });
        let err = n.user_load(b, VirtAddr::new(0x40ffc)).unwrap_err();
        assert_eq!(err, Trap::SegFault { pid: b, va: VirtAddr::new(0x41000) });
        assert_eq!(n.read_user(b, VirtAddr::new(0x40ff8), 8).unwrap(), [0; 8]);
        assert_eq!(n.read_user(a, VirtAddr::new(0x10000), 8).unwrap(), [0; 8]);
    }

    #[test]
    fn page_crossing_access_splits_across_the_mapped_frames() {
        // A's second page lands in frame 3, past B's frame 2.
        let (mut n, a, b) = neighbours(64);
        n.mmap(a, 0x11000, 1, true).unwrap();
        n.user_store(a, VirtAddr::new(0x11000), 0).unwrap();
        let v = 0x1122_3344_5566_7788u64;
        n.user_store(a, VirtAddr::new(0x10ffc), v as i64).unwrap();
        assert_eq!(n.user_load(a, VirtAddr::new(0x10ffc)).unwrap(), v);
        assert_eq!(n.read_user(a, VirtAddr::new(0x10ffc), 8).unwrap(), v.to_le_bytes());
        assert_eq!(n.read_user(b, VirtAddr::new(0x40000), 8).unwrap(), [0; 8], "B's page");
    }

    #[test]
    fn write_to_readonly_segment_traps() {
        let mut n = node();
        let pid = n.spawn();
        n.mmap(pid, 0x10000, 1, false).unwrap();
        assert_eq!(n.user_load(pid, VirtAddr::new(0x10000)).unwrap(), 0); // read ok
        let err = n.user_store(pid, VirtAddr::new(0x10000), 1).unwrap_err();
        assert!(matches!(err, Trap::ReadOnly { .. }));
    }

    #[test]
    fn bulk_write_read_user() {
        let mut n = node();
        let pid = n.spawn();
        n.mmap(pid, 0x10000, 3, true).unwrap();
        let data: Vec<u8> = (0..PAGE_SIZE as usize * 2 + 100).map(|i| i as u8).collect();
        n.write_user(pid, VirtAddr::new(0x10020), &data).unwrap();
        assert_eq!(n.read_user(pid, VirtAddr::new(0x10020), data.len() as u64).unwrap(), data);
    }

    #[test]
    fn proxy_fault_creates_mapping_on_demand() {
        let mut n = node();
        let layout = n.machine().layout();
        let pid = n.spawn();
        n.mmap(pid, 0x10000, 1, true).unwrap();
        // Touch the real page so it is resident.
        n.user_store(pid, VirtAddr::new(0x10000), 5).unwrap();
        // A load from the page's proxy address faults, then succeeds.
        let vproxy = layout.proxy_of_virt(VirtAddr::new(0x10000)).unwrap();
        let status = udma_core::UdmaStatus::unpack(n.user_load(pid, vproxy).unwrap());
        assert!(status.invalid, "idle device status expected, got {status}");
        assert_eq!(n.counters().proxy_mappings_created.get(), 1);
        n.check_invariants().unwrap();
    }

    #[test]
    fn proxy_fault_pages_in_nonresident_page() {
        // §6 case 2: "vmem_page is valid but is not currently in core".
        let mut n = node();
        let layout = n.machine().layout();
        let pid = n.spawn();
        n.mmap(pid, 0x10000, 1, true).unwrap();
        let vproxy = layout.proxy_of_virt(VirtAddr::new(0x10000)).unwrap();
        let _ = n.user_load(pid, vproxy).unwrap();
        // The real page was brought in (zero-filled) by the proxy fault.
        assert_eq!(n.process(pid).unwrap().resident_pages(), 1);
        n.check_invariants().unwrap();
    }

    #[test]
    fn proxy_fault_on_unmapped_segment_is_segfault() {
        // §6 case 3.
        let mut n = node();
        let layout = n.machine().layout();
        let pid = n.spawn();
        let vproxy = layout.proxy_of_virt(VirtAddr::new(0x7000)).unwrap();
        let err = n.user_load(pid, vproxy).unwrap_err();
        assert!(matches!(err, Trap::SegFault { .. }));
    }

    #[test]
    fn i3_proxy_starts_readonly_then_write_enables() {
        let mut n = node();
        let layout = n.machine().layout();
        let pid = n.spawn();
        n.mmap(pid, 0x10000, 1, true).unwrap();
        // Only *read* the page: it is resident but clean.
        let _ = n.user_load(pid, VirtAddr::new(0x10000)).unwrap();
        let vproxy = layout.proxy_of_virt(VirtAddr::new(0x10000)).unwrap();
        let _ = n.user_load(pid, vproxy).unwrap(); // creates read-only proxy
        n.check_invariants().unwrap();

        // Storing to the proxy (naming the page as a DMA destination)
        // faults, then the kernel write-enables and dirties (I3).
        n.user_store(pid, vproxy, 64).unwrap();
        assert_eq!(n.counters().i3_write_enables.get(), 1);
        let proc = n.process(pid).unwrap();
        assert!(proc.pt.get(VirtAddr::new(0x10000).page()).unwrap().is_dirty());
        n.check_invariants().unwrap();
    }

    #[test]
    fn i3_readonly_segment_cannot_be_dma_destination() {
        let mut n = node();
        let layout = n.machine().layout();
        let pid = n.spawn();
        n.mmap(pid, 0x10000, 1, false).unwrap();
        let _ = n.user_load(pid, VirtAddr::new(0x10000)).unwrap();
        let vproxy = layout.proxy_of_virt(VirtAddr::new(0x10000)).unwrap();
        let _ = n.user_load(pid, vproxy).unwrap(); // read-only proxy is fine
        let err = n.user_store(pid, vproxy, 64).unwrap_err();
        assert!(matches!(err, Trap::ReadOnly { .. }));
    }

    #[test]
    fn device_proxy_requires_grant() {
        let mut n = node();
        let pid = n.spawn();
        let vdev = VirtAddr::new(shrimp_mem::DEV_PROXY_BASE);
        let err = n.user_store(pid, vdev, 64).unwrap_err();
        assert!(matches!(err, Trap::DeviceNotGranted { .. }));

        n.grant_device_proxy(pid, 0, 1, true).unwrap();
        n.user_store(pid, vdev, 64).unwrap();
        assert_eq!(n.counters().device_proxy_mappings_created.get(), 1);
    }

    #[test]
    fn revoke_device_proxy_unmaps_and_faults() {
        let mut n = node();
        let pid = n.spawn();
        n.grant_device_proxy(pid, 0, 2, true).unwrap();
        let vdev = VirtAddr::new(shrimp_mem::DEV_PROXY_BASE);
        n.user_store(pid, vdev, 64).unwrap(); // demand-creates the PTE
        assert!(n.process(pid).unwrap().pt.get(vdev.page()).is_some());

        n.revoke_device_proxy(pid, 0, 2).unwrap();
        assert_eq!(n.counters().device_revokes.get(), 1);
        assert!(n.process(pid).unwrap().pt.get(vdev.page()).is_none(), "PTE must die");
        assert!(n.process(pid).unwrap().grants.is_empty(), "grant must die");
        let err = n.user_store(pid, vdev, 64).unwrap_err();
        assert!(matches!(err, Trap::DeviceNotGranted { .. }), "got {err:?}");
        n.check_invariants().unwrap();
    }

    #[test]
    fn readonly_device_grant_rejects_stores() {
        let mut n = node();
        let pid = n.spawn();
        n.grant_device_proxy(pid, 0, 1, false).unwrap();
        let vdev = VirtAddr::new(shrimp_mem::DEV_PROXY_BASE);
        let err = n.user_store(pid, vdev, 64).unwrap_err();
        assert!(matches!(err, Trap::ReadOnly { .. }));
        // Loads (status queries / naming as source) still work.
        let _ = n.user_load(pid, vdev).unwrap();
    }

    #[test]
    fn grant_beyond_device_space_rejected() {
        let mut n = node();
        let pid = n.spawn();
        // StreamSink has unbounded proxy space, so bound comes from layout.
        let pages = n.machine().layout().dev_proxy_bytes() / PAGE_SIZE;
        let err = n.grant_device_proxy(pid, pages, 1, true).unwrap_err();
        assert!(matches!(err, Trap::DeviceNotGranted { .. }));
    }

    #[test]
    fn context_switch_fires_inval() {
        let mut n = node();
        let a = n.spawn();
        let b = n.spawn();
        n.grant_device_proxy(a, 0, 1, true).unwrap();
        // Process A half-initiates.
        let vdev = VirtAddr::new(shrimp_mem::DEV_PROXY_BASE);
        n.user_store(a, vdev, 128).unwrap();
        // Scheduling B fires the I1 Inval.
        n.ensure_current(b).unwrap();
        // A's LOAD now reports a failed initiation (invalid flag).
        n.mmap(a, 0x10000, 1, true).unwrap();
        n.user_store(a, VirtAddr::new(0x10000), 1).unwrap(); // dirty page
        let vproxy = n.machine().layout().proxy_of_virt(VirtAddr::new(0x10000)).unwrap();
        let status = udma_core::UdmaStatus::unpack(n.user_load(a, vproxy).unwrap());
        assert!(status.initiation && status.invalid, "{status}");
        assert!(n.counters().context_switches.get() >= 2);
    }

    #[test]
    fn two_processes_have_isolated_address_spaces() {
        let mut n = node();
        let a = n.spawn();
        let b = n.spawn();
        n.mmap(a, 0x10000, 1, true).unwrap();
        n.mmap(b, 0x10000, 1, true).unwrap();
        n.user_store(a, VirtAddr::new(0x10000), 111).unwrap();
        n.user_store(b, VirtAddr::new(0x10000), 222).unwrap();
        assert_eq!(n.user_load(pid_of(a), VirtAddr::new(0x10000)).unwrap(), 111);
        assert_eq!(n.user_load(b, VirtAddr::new(0x10000)).unwrap(), 222);
        n.check_invariants().unwrap();
    }

    fn pid_of(p: Pid) -> Pid {
        p
    }

    #[test]
    fn exit_reclaims_every_frame() {
        let mut n = node();
        let free_before = n.frames.free_frames();
        let pid = n.spawn();
        n.mmap(pid, 0x10000, 4, true).unwrap();
        for i in 0..4u64 {
            n.user_store(pid, VirtAddr::new(0x10000 + i * PAGE_SIZE), 1).unwrap();
        }
        assert_eq!(n.frames.free_frames(), free_before - 4);
        n.exit_process(pid).unwrap();
        assert_eq!(n.frames.free_frames(), free_before);
        assert!(matches!(n.user_load(pid, VirtAddr::new(0x10000)), Err(Trap::NoSuchProcess(_))));
        assert!(n.current().is_none());
    }

    #[test]
    fn exit_waits_for_in_flight_transfer() {
        let mut n = node();
        let pid = n.spawn();
        n.mmap(pid, 0x10000, 1, true).unwrap();
        n.grant_device_proxy(pid, 0, 1, true).unwrap();
        n.user_store(pid, VirtAddr::new(0x10000), 7).unwrap();
        // Start a page-sized transfer, then exit immediately.
        let vdev = VirtAddr::new(shrimp_mem::DEV_PROXY_BASE);
        let vproxy = n.machine().layout().proxy_of_virt(VirtAddr::new(0x10000)).unwrap();
        n.user_store(pid, vdev, PAGE_SIZE as i64).unwrap();
        let status = udma_core::UdmaStatus::unpack(n.user_load(pid, vproxy).unwrap());
        assert!(status.started());
        let before_exit = n.machine().now();
        n.exit_process(pid).unwrap();
        // The exit had to wait for the drain (transfer is ~128us).
        assert!(
            (n.machine().now() - before_exit).as_micros_f64() > 100.0,
            "exit must wait for the in-flight transfer"
        );
        // The data still arrived (the transfer was never aborted).
        assert_eq!(n.machine().device().writes().len(), 1);
        n.check_invariants().unwrap();
    }

    #[test]
    fn spawn_exit_cycles_do_not_leak() {
        let mut n = node();
        let free_before = n.frames.free_frames();
        for round in 0..10 {
            let pid = n.spawn();
            n.mmap(pid, 0x10000, 3, true).unwrap();
            n.user_store(pid, VirtAddr::new(0x10000), round).unwrap();
            n.grant_device_proxy(pid, 0, 1, true).unwrap();
            n.exit_process(pid).unwrap();
        }
        assert_eq!(n.frames.free_frames(), free_before);
        assert_eq!(n.counters().exits.get(), 10);
    }

    #[test]
    fn exit_of_swapped_out_process_releases_slots() {
        let config = NodeConfig {
            machine: MachineConfig { mem_bytes: 64 * PAGE_SIZE, ..MachineConfig::default() },
            user_frames: Some(2),
        };
        let mut n = Node::new(config, StreamSink::new("sink"));
        let pid = n.spawn();
        n.mmap(pid, 0x10000, 6, true).unwrap();
        for i in 0..6u64 {
            n.user_store(pid, VirtAddr::new(0x10000 + i * PAGE_SIZE), 1).unwrap();
        }
        assert!(n.swap().write_count() > 0);
        n.exit_process(pid).unwrap();
        // A fresh process can use the whole machine again.
        let pid2 = n.spawn();
        n.mmap(pid2, 0x10000, 2, true).unwrap();
        n.user_store(pid2, VirtAddr::new(0x10000), 9).unwrap();
        n.check_invariants().unwrap();
    }
}
