//! The machine proper: reference path, bus decode, cost accounting.

use shrimp_devices::Device;
use shrimp_dma::DmaTiming;
use shrimp_mem::{Layout, PhysMemory, Region, VirtAddr, MMIO_BASE, PAGE_SIZE};
use shrimp_mmu::{AccessKind, Fault, Mmu, Mode, PageTable};
use shrimp_sim::{Clock, CostModel, MetricSet, SimDuration, SimTime};

use crate::{UdmaHw, UdmaMode};

/// Hardware configuration of a simulated node.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Calibrated timing constants.
    pub cost: CostModel,
    /// Installed physical memory in bytes.
    pub mem_bytes: u64,
    /// Size of the device proxy region in bytes.
    pub dev_proxy_bytes: u64,
    /// TLB capacity in entries.
    pub tlb_entries: usize,
    /// UDMA hardware variant.
    pub udma: UdmaMode,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            cost: CostModel::default(),
            mem_bytes: 8 * 1024 * 1024,
            // SHRIMP's NIPT has 32K entries; default to a generous window.
            dev_proxy_bytes: 32 * 1024 * PAGE_SIZE,
            tlb_entries: 64,
            udma: UdmaMode::Basic,
        }
    }
}

shrimp_sim::counters! {
    /// Per-region reference counts (metrics subsystem `machine`): `load`
    /// and `store` run once per simulated reference, so each is a single
    /// inlined increment.
    pub struct MachineCounters {
        /// Loads from ordinary memory.
        mem_loads,
        /// Stores to ordinary memory.
        mem_stores,
        /// Loads from proxy space (initiations and status polls).
        proxy_loads,
        /// Stores to proxy space (initiations).
        proxy_stores,
        /// Loads from the device MMIO window.
        mmio_loads,
        /// Stores to the device MMIO window.
        mmio_stores,
        /// Kernel Inval stores (invariant I1).
        inval_stores,
        /// Kernel-driven (traditional) DMA transfers.
        kernel_dmas,
    }
}

/// One simulated SHRIMP node's hardware.
///
/// Generic over its UDMA-capable device `D` so examples and the SHRIMP
/// network interface keep concrete access to their device.
#[derive(Debug)]
pub struct Machine<D> {
    clock: Clock,
    cost: CostModel,
    layout: Layout,
    mem: PhysMemory,
    mmu: Mmu,
    udma: UdmaHw,
    device: D,
    refs: MachineCounters,
}

impl<D: Device> Machine<D> {
    /// Builds a machine from `config` with `device` on its I/O bus.
    pub fn new(config: MachineConfig, device: D) -> Self {
        let layout = Layout::new(config.mem_bytes, config.dev_proxy_bytes);
        let timing = DmaTiming {
            start_overhead: config.cost.dma_start,
            bus_mb_per_s: config.cost.bus_mb_per_s,
        };
        Machine {
            clock: Clock::new(),
            mmu: Mmu::new(config.tlb_entries).with_tlb_miss_cost(config.cost.tlb_miss),
            udma: UdmaHw::new(config.udma, layout, timing),
            mem: PhysMemory::new(config.mem_bytes),
            layout,
            cost: config.cost,
            device,
            refs: MachineCounters::default(),
        }
    }

    /// The node clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Current simulated instant.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// The calibrated cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The address-space layout.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Physical memory.
    pub fn mem(&self) -> &PhysMemory {
        &self.mem
    }

    /// Mutable physical memory (kernel use: paging I/O, zeroing frames).
    pub fn mem_mut(&mut self) -> &mut PhysMemory {
        &mut self.mem
    }

    /// The MMU.
    pub fn mmu(&self) -> &Mmu {
        &self.mmu
    }

    /// Mutable MMU (kernel use: TLB shootdowns).
    pub fn mmu_mut(&mut self) -> &mut Mmu {
        &mut self.mmu
    }

    /// The UDMA hardware.
    pub fn udma(&self) -> &UdmaHw {
        &self.udma
    }

    /// The device on the I/O bus.
    pub fn device(&self) -> &D {
        &self.device
    }

    /// Mutable device access (setup and inspection).
    pub fn device_mut(&mut self) -> &mut D {
        &mut self.device
    }

    /// Reference counts by region.
    pub fn counters(&self) -> &MachineCounters {
        &self.refs
    }

    /// Registers every hardware counter of this machine in `set`, at node
    /// `index` when given: references (`machine/*`), MMU and TLB
    /// (`mmu/*`, `tlb/*`), UDMA controller (`udma/*`), DMA engine
    /// (`dma/*`) and whatever the device registers.
    pub fn harvest_metrics(&self, set: &mut MetricSet, index: Option<u32>) {
        self.refs.harvest(set, "machine", index);
        self.mmu.harvest_metrics(set, index);
        self.udma.counters().harvest(set, "udma", index);
        self.udma.engine().counters().harvest(set, "dma", index);
        self.device.harvest_metrics(set, index);
    }

    /// Lets autonomous hardware (UDMA engine, device) catch up to the
    /// current instant.
    pub fn poll(&mut self) {
        let now = self.clock.now();
        self.udma.poll(now, &mut self.mem, &mut self.device);
        self.device.tick(now);
    }

    /// Models `d` of CPU work, then lets the hardware catch up.
    pub fn advance(&mut self, d: SimDuration) {
        self.clock.advance(d);
        self.poll();
    }

    /// Advances to absolute instant `t` (monotonic), then polls.
    pub fn advance_to(&mut self, t: SimTime) {
        self.clock.advance_to(t);
        self.poll();
    }

    /// Models `n` straight-line instructions of CPU work.
    pub fn compute(&mut self, n: u64) {
        let d = self.cost.instructions(n);
        self.advance(d);
    }

    /// When the UDMA hardware's currently accepted work will have drained.
    pub fn udma_drained_at(&self) -> SimTime {
        self.udma.drained_at(self.clock.now())
    }

    /// Replays `count` further repetitions of the just-completed
    /// steady-state UDMA message cycle, each `stride` later than the last.
    ///
    /// The caller (`SendCore::replay` in `shrimp`) has executed two literal
    /// messages, verified they were single-transfer/zero-retry and exactly
    /// `stride` apart, and asks the machine to advance as if the same
    /// cycle ran `count` more times. The machine checks that the hardware
    /// is in the replayable state (idle basic controller, last transfer
    /// memory→device), then books every counter and device write the
    /// literal path would have produced, in one pass.
    ///
    /// Returns `false` without changing any state when the situation is
    /// not replayable; the caller falls back to literal sends.
    // lint:hot_path
    pub fn udma_replay_messages(&mut self, count: u64, stride: SimDuration) -> bool {
        if count == 0 {
            return true;
        }
        let Some(t) = self.udma.replay_template() else { return false };
        self.udma.replay_completed(count, t.nbytes);
        self.refs.proxy_stores.add(count);
        self.refs.proxy_loads.add(3 * count);
        self.mmu.book_replayed_hits(4 * count);
        // INVARIANT: the template transfer read this range when it retired,
        // and physical memory cannot shrink.
        let data =
            self.mem.read(t.mem_addr, t.nbytes).expect("replay template was readable at retire");
        self.device.dma_write_run(
            t.dev_addr,
            data,
            count,
            shrimp_dma::RunTiming {
                started_at: t.started_at + stride,
                completes_at: t.completes_at + stride,
                stride,
            },
        );
        self.clock.advance(stride * count);
        self.poll();
        true
    }

    /// Translates `va` through the MMU without performing an access (used
    /// by the kernel's traditional-DMA path to build descriptors).
    ///
    /// # Errors
    ///
    /// Any translation [`Fault`].
    pub fn translate(
        &mut self,
        pt: &mut PageTable,
        va: VirtAddr,
        access: AccessKind,
        mode: Mode,
    ) -> Result<(shrimp_mem::PhysAddr, SimDuration), Fault> {
        self.mmu.translate(pt, va, access, mode)
    }

    /// One CPU load from virtual address `va` under page table `pt`.
    ///
    /// Routed by physical region: ordinary memory returns the 8 bytes at
    /// the address (from two frames when they cross a page boundary);
    /// proxy regions return the packed
    /// [`UdmaStatus`](udma_core::UdmaStatus) word; the MMIO window calls
    /// the device. The clock advances by the reference's calibrated cost.
    ///
    /// # Errors
    ///
    /// Any translation [`Fault`]; the kernel's fault handler decides what
    /// happens next.
    ///
    /// # Panics
    ///
    /// Panics on a physical bus error (a mapping pointing at no device),
    /// which indicates a kernel bug.
    pub fn load(&mut self, pt: &mut PageTable, va: VirtAddr, mode: Mode) -> Result<u64, Fault> {
        let (pa, tlb_cost) = self.mmu.translate(pt, va, AccessKind::Read, mode)?;
        match self.layout.region_of_phys(pa) {
            Region::Memory => {
                let tail = self.page_tail(pt, va, AccessKind::Read, mode)?;
                self.clock.advance(
                    self.cost.cached_ref + tlb_cost + tail.map_or(SimDuration::ZERO, |t| t.2),
                );
                self.refs.mem_loads.incr();
                let Some((split, tail_pa, _)) = tail else {
                    return Ok(self.mem.read_u64(pa).expect("mapped frame must be in range"));
                };
                let mut word = [0u8; 8];
                word[..split].copy_from_slice(
                    self.mem.read(pa, split as u64).expect("mapped frame must be in range"),
                );
                word[split..].copy_from_slice(
                    self.mem
                        .read(tail_pa, 8 - split as u64)
                        .expect("mapped frame must be in range"),
                );
                Ok(u64::from_le_bytes(word))
            }
            Region::MemoryProxy | Region::DeviceProxy => {
                self.clock.advance(self.cost.proxy_load + tlb_cost);
                self.refs.proxy_loads.incr();
                let now = self.clock.now();
                let status = if mode == Mode::Kernel {
                    self.udma.handle_load_system(pa, now, &mut self.mem, &mut self.device)
                } else {
                    self.udma.handle_load(pa, now, &mut self.mem, &mut self.device)
                };
                Ok(status.pack())
            }
            Region::Mmio => {
                self.clock.advance(self.cost.pio_word_store + tlb_cost);
                self.refs.mmio_loads.incr();
                let now = self.clock.now();
                Ok(self.device.mmio_load(pa.raw() - MMIO_BASE, now))
            }
            Region::Invalid => panic!("bus error: load from undecoded address {pa}"),
        }
    }

    /// The second half of an 8-byte ordinary-memory access at `va` that
    /// crosses into the next virtual page: `(bytes on the first page,
    /// the next page's physical address, its translation cost)`, or
    /// `None` when the access stays on its page. The next page is
    /// translated with the access's own kind and mode before any byte
    /// moves, so a fault there leaves memory untouched, and the two
    /// halves land in the frames their own pages map — never in whatever
    /// frame happens to sit physically next to the first.
    // lint:checks(F1) -- the tail address comes from MMU translate (the
    // protection boundary) and the page-end check bounds `split` below 8.
    fn page_tail(
        &mut self,
        pt: &mut PageTable,
        va: VirtAddr,
        access: AccessKind,
        mode: Mode,
    ) -> Result<Option<(usize, shrimp_mem::PhysAddr, SimDuration)>, Fault> {
        let split = va.bytes_to_page_end();
        if split >= 8 {
            return Ok(None);
        }
        let (pa, cost) = self.mmu.translate(pt, va + split, access, mode)?;
        debug_assert_eq!(self.layout.region_of_phys(pa), Region::Memory);
        Ok(Some((split as usize, pa, cost)))
    }

    /// One CPU store of `value` to virtual address `va` under `pt`.
    ///
    /// Stores to proxy regions carry the signed `nbytes` interpretation
    /// (negative = Inval); stores to ordinary memory write 8 bytes,
    /// split across two frames when they cross a page boundary (both
    /// pages are translated before any byte is written).
    ///
    /// # Errors
    ///
    /// Any translation [`Fault`] — including the write-protection fault on
    /// a clean page's proxy that invariant I3 relies on.
    ///
    /// # Panics
    ///
    /// Panics on a physical bus error (kernel bug).
    pub fn store(
        &mut self,
        pt: &mut PageTable,
        va: VirtAddr,
        value: i64,
        mode: Mode,
    ) -> Result<(), Fault> {
        let (pa, tlb_cost) = self.mmu.translate(pt, va, AccessKind::Write, mode)?;
        match self.layout.region_of_phys(pa) {
            Region::Memory => {
                let tail = self.page_tail(pt, va, AccessKind::Write, mode)?;
                self.clock.advance(
                    self.cost.cached_ref + tlb_cost + tail.map_or(SimDuration::ZERO, |t| t.2),
                );
                self.refs.mem_stores.incr();
                let now = self.clock.now();
                let Some((split, tail_pa, _)) = tail else {
                    self.mem.write_u64(pa, value as u64).expect("mapped frame must be in range");
                    // The device snoops the memory bus (automatic update).
                    self.device.snoop_store(pa, value as u64, now);
                    return Ok(());
                };
                let word = value.to_le_bytes();
                let (head, rest) = word.split_at(split);
                self.mem.write(pa, head).expect("mapped frame must be in range");
                self.mem.write(tail_pa, rest).expect("mapped frame must be in range");
                self.device.snoop_write(pa, head, now);
                self.device.snoop_write(tail_pa, rest, now);
                Ok(())
            }
            Region::MemoryProxy | Region::DeviceProxy => {
                self.clock.advance(self.cost.proxy_store + tlb_cost);
                self.refs.proxy_stores.incr();
                let now = self.clock.now();
                self.udma.handle_store(pa, value, now, &mut self.mem, &mut self.device);
                Ok(())
            }
            Region::Mmio => {
                self.clock.advance(self.cost.pio_word_store + tlb_cost);
                self.refs.mmio_stores.incr();
                let now = self.clock.now();
                self.device.mmio_store(pa.raw() - MMIO_BASE, value as u64, now);
                Ok(())
            }
            Region::Invalid => panic!("bus error: store to undecoded address {pa}"),
        }
    }

    /// Copies `data` into the process's memory at `va` (page-chunked,
    /// charged at cache-line granularity — models a user `memcpy` into a
    /// mapped buffer).
    ///
    /// # Errors
    ///
    /// Faults like [`Machine::store`]; partial progress is possible (the
    /// kernel resolves the fault and the caller retries the remainder).
    pub fn write_bytes(
        &mut self,
        pt: &mut PageTable,
        va: VirtAddr,
        data: &[u8],
        mode: Mode,
    ) -> Result<(), Fault> {
        let mut off = 0u64;
        while off < data.len() as u64 {
            let cur = va + off;
            let chunk = cur.bytes_to_page_end().min(data.len() as u64 - off);
            let (pa, tlb_cost) = self.mmu.translate(pt, cur, AccessKind::Write, mode)?;
            debug_assert_eq!(self.layout.region_of_phys(pa), Region::Memory);
            self.mem
                .write(pa, &data[off as usize..(off + chunk) as usize])
                .expect("mapped frame must be in range");
            self.clock.advance(tlb_cost + self.cost.instructions(chunk / 8 + 1));
            let now = self.clock.now();
            self.device.snoop_write(pa, &data[off as usize..(off + chunk) as usize], now);
            off += chunk;
        }
        self.poll();
        Ok(())
    }

    /// Reads `len` bytes of the process's memory at `va`.
    ///
    /// # Errors
    ///
    /// Faults like [`Machine::load`].
    pub fn read_bytes(
        &mut self,
        pt: &mut PageTable,
        va: VirtAddr,
        len: u64,
        mode: Mode,
    ) -> Result<Vec<u8>, Fault> {
        let mut out = Vec::with_capacity(len as usize);
        let mut off = 0u64;
        while off < len {
            let cur = va + off;
            let chunk = cur.bytes_to_page_end().min(len - off);
            let (pa, tlb_cost) = self.mmu.translate(pt, cur, AccessKind::Read, mode)?;
            debug_assert_eq!(self.layout.region_of_phys(pa), Region::Memory);
            out.extend_from_slice(self.mem.read(pa, chunk).expect("mapped frame must be in range"));
            self.clock.advance(tlb_cost + self.cost.instructions(chunk / 8 + 1));
            off += chunk;
        }
        Ok(out)
    }

    /// The kernel's I1 action: a single STORE of a negative value to a
    /// valid proxy address, firing the hardware Inval event. Costs one
    /// uncached proxy store.
    pub fn kernel_inval_udma(&mut self) {
        self.clock.advance(self.cost.proxy_store);
        let proxy = self
            .layout
            .proxy_of_phys(shrimp_mem::PhysAddr::new(0))
            .expect("address 0 is always real memory");
        let now = self.clock.now();
        self.udma.handle_store(proxy, -1, now, &mut self.mem, &mut self.device);
        self.refs.inval_stores.incr();
    }

    /// Splits the machine into (UDMA hardware, memory, device) for direct
    /// hardware-level access in tests and the SHRIMP receive path.
    pub fn hw_parts(&mut self) -> (&mut UdmaHw, &mut PhysMemory, &mut D) {
        (&mut self.udma, &mut self.mem, &mut self.device)
    }

    /// A kernel-driven (traditional) DMA transfer: the CPU blocks while the
    /// engine moves `nbytes` between physical memory at `mem_addr` and the
    /// device at `dev_addr`. Returns the transfer's duration. This is the
    /// data-movement step of the paper's baseline; the syscall, pinning and
    /// interrupt costs around it live in `shrimp-os`.
    ///
    /// # Panics
    ///
    /// Panics if the memory side is out of range (kernel bug: the caller
    /// translated and pinned the pages).
    pub fn kernel_dma(
        &mut self,
        direction: shrimp_dma::Direction,
        mem_addr: shrimp_mem::PhysAddr,
        dev_addr: u64,
        nbytes: u64,
    ) -> SimDuration {
        use shrimp_dma::Direction;
        let service = self.device.service_time(dev_addr, nbytes);
        let d = self.cost.dma_start + self.cost.bus_transfer(nbytes) + service;
        self.clock.advance(d);
        let now = self.clock.now();
        match direction {
            Direction::MemToDev => {
                let data = self
                    .mem
                    .read(mem_addr, nbytes)
                    .expect("kernel DMA source must be translated and resident");
                self.device.dma_write(dev_addr, data, now);
            }
            Direction::DevToMem => {
                let buf = self
                    .mem
                    .slice_mut(mem_addr, nbytes)
                    .expect("kernel DMA destination must be translated and resident");
                self.device.dma_read(dev_addr, buf, now);
            }
        }
        self.refs.kernel_dmas.incr();
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shrimp_devices::StreamSink;
    use shrimp_mem::{Pfn, Vpn};
    use shrimp_mmu::{Pte, PteFlags};
    use udma_core::UdmaStatus;

    fn machine() -> Machine<StreamSink> {
        Machine::new(
            MachineConfig { mem_bytes: 64 * PAGE_SIZE, ..MachineConfig::default() },
            StreamSink::new("sink"),
        )
    }

    fn user_rw() -> PteFlags {
        PteFlags::VALID | PteFlags::USER | PteFlags::WRITABLE
    }

    #[test]
    fn memory_load_store_roundtrip() {
        let mut m = machine();
        let mut pt = PageTable::new();
        pt.map(Vpn::new(1), Pte::new(Pfn::new(5), user_rw()));
        m.store(&mut pt, VirtAddr::new(0x1010), 0x1234_5678, Mode::User).unwrap();
        let v = m.load(&mut pt, VirtAddr::new(0x1010), Mode::User).unwrap();
        assert_eq!(v, 0x1234_5678);
        assert!(m.now() > SimTime::ZERO, "references must cost time");
    }

    #[test]
    fn unmapped_reference_faults_without_time_skew() {
        let mut m = machine();
        let mut pt = PageTable::new();
        let err = m.load(&mut pt, VirtAddr::new(0x9000), Mode::User).unwrap_err();
        assert!(matches!(err, Fault::NotMapped { .. }));
    }

    #[test]
    fn full_udma_initiation_through_virtual_addresses() {
        let mut m = machine();
        let layout = m.layout();
        let mut pt = PageTable::new();

        // Map a user data page at VPN 1 -> PFN 2, its memory proxy page,
        // and a device proxy page at the matching virtual proxy location.
        pt.map(Vpn::new(1), Pte::new(Pfn::new(2), user_rw()));
        let vproxy = layout.proxy_of_virt(VirtAddr::new(0x1000)).unwrap();
        let pproxy = layout.proxy_of_phys(shrimp_mem::PhysAddr::new(2 * PAGE_SIZE)).unwrap();
        pt.map(
            vproxy.page(),
            Pte::new(pproxy.page(), user_rw() | PteFlags::UNCACHED | PteFlags::PROXY),
        );
        let vdev = VirtAddr::new(shrimp_mem::DEV_PROXY_BASE); // identity-map dev proxy page 0
        pt.map(
            vdev.page(),
            Pte::new(
                shrimp_mem::PhysAddr::new(shrimp_mem::DEV_PROXY_BASE).page(),
                user_rw() | PteFlags::UNCACHED | PteFlags::PROXY,
            ),
        );

        // Fill the user buffer, then the two-instruction sequence.
        m.write_bytes(&mut pt, VirtAddr::new(0x1000), b"hello udma", Mode::User).unwrap();
        m.store(&mut pt, vdev, 10, Mode::User).unwrap();
        let status = UdmaStatus::unpack(m.load(&mut pt, vproxy, Mode::User).unwrap());
        assert!(status.started(), "{status}");

        // Drain the transfer and check arrival at the device.
        let done = m.udma().drained_at(m.now());
        m.advance_to(done);
        assert_eq!(m.device().writes().len(), 1);
        assert_eq!(m.device().writes()[0].1, b"hello udma");
    }

    #[test]
    fn initiation_cost_is_two_proxy_references() {
        let mut m = machine();
        let layout = m.layout();
        let mut pt = PageTable::new();
        pt.map(Vpn::new(1), Pte::new(Pfn::new(2), user_rw()));
        let vproxy = layout.proxy_of_virt(VirtAddr::new(0x1000)).unwrap();
        let pproxy = layout.proxy_of_phys(shrimp_mem::PhysAddr::new(2 * PAGE_SIZE)).unwrap();
        pt.map(vproxy.page(), Pte::new(pproxy.page(), user_rw() | PteFlags::PROXY));
        let vdev = VirtAddr::new(shrimp_mem::DEV_PROXY_BASE);
        pt.map(
            vdev.page(),
            Pte::new(
                shrimp_mem::PhysAddr::new(shrimp_mem::DEV_PROXY_BASE).page(),
                user_rw() | PteFlags::PROXY,
            ),
        );

        // Warm the TLB so we measure the steady-state initiation cost.
        m.store(&mut pt, vdev, 8, Mode::User).unwrap();
        let _ = m.load(&mut pt, vproxy, Mode::User).unwrap();
        m.kernel_inval_udma();

        let t0 = m.now();
        m.store(&mut pt, vdev, 8, Mode::User).unwrap();
        let _ = m.load(&mut pt, vproxy, Mode::User).unwrap();
        let elapsed = m.now() - t0;
        let expected = m.cost().proxy_store + m.cost().proxy_load;
        assert_eq!(elapsed, expected, "two uncached references, nothing else");
    }

    #[test]
    fn mmio_routes_to_device() {
        let mut m = machine();
        let mut pt = PageTable::new();
        let vmmio = VirtAddr::new(MMIO_BASE);
        pt.map(
            vmmio.page(),
            Pte::new(shrimp_mem::PhysAddr::new(MMIO_BASE).page(), user_rw() | PteFlags::UNCACHED),
        );
        // StreamSink's default MMIO ignores stores and loads return 0.
        m.store(&mut pt, vmmio, 42, Mode::User).unwrap();
        assert_eq!(m.load(&mut pt, vmmio, Mode::User).unwrap(), 0);
        assert_eq!(m.counters().mmio_stores.get(), 1);
        assert_eq!(m.counters().mmio_loads.get(), 1);
    }

    #[test]
    fn write_read_bytes_cross_page_boundary() {
        let mut m = machine();
        let mut pt = PageTable::new();
        pt.map(Vpn::new(1), Pte::new(Pfn::new(7), user_rw()));
        pt.map(Vpn::new(2), Pte::new(Pfn::new(3), user_rw())); // discontiguous frames
        let data: Vec<u8> = (0..=255).collect();
        let va = VirtAddr::new(0x2000 - 100);
        m.write_bytes(&mut pt, va, &data, Mode::User).unwrap();
        assert_eq!(m.read_bytes(&mut pt, va, 256, Mode::User).unwrap(), data);
    }

    #[test]
    fn kernel_inval_clears_partial_initiation() {
        let mut m = machine();
        let layout = m.layout();
        let mut pt = PageTable::new();
        let vdev = VirtAddr::new(shrimp_mem::DEV_PROXY_BASE);
        pt.map(
            vdev.page(),
            Pte::new(
                shrimp_mem::PhysAddr::new(shrimp_mem::DEV_PROXY_BASE).page(),
                user_rw() | PteFlags::PROXY,
            ),
        );
        m.store(&mut pt, vdev, 100, Mode::User).unwrap();
        m.kernel_inval_udma();
        // A victim's LOAD reports invalid + failed initiation.
        let vproxy = layout.proxy_of_virt(VirtAddr::new(0)).unwrap();
        let pproxy = layout.proxy_of_phys(shrimp_mem::PhysAddr::new(0)).unwrap();
        pt.map(vproxy.page(), Pte::new(pproxy.page(), user_rw() | PteFlags::PROXY));
        let status = UdmaStatus::unpack(m.load(&mut pt, vproxy, Mode::User).unwrap());
        assert!(status.initiation && status.invalid);
    }
}
