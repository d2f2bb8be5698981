//! The basic UDMA controller (paper §5, Figure 4): the state machine wired
//! between the CPU's physical proxy accesses and the standard DMA engine.

use shrimp_dma::{DevicePort, DmaEngine, DmaTiming};
use shrimp_mem::{Layout, Pfn, PhysAddr, PhysMemory, Region};
use shrimp_sim::SimTime;

use crate::plan::{plan_transfer, PlanError};
use crate::state::{transition, Effect, UdmaEvent, UdmaState};
use crate::{store_value_as_count, UdmaCounters, UdmaStatus};

/// Device-specific error bit reported when the device rejects a transfer
/// (e.g. the §5 alignment example).
pub(crate) const DEV_ERR_REJECTED: u16 = 0x1;

/// The basic (non-queued) UDMA device: one latched destination, one
/// in-flight transfer.
///
/// The controller receives *physical* proxy addresses — the MMU has already
/// translated and permission-checked the user's virtual references — and
/// drives the [`DmaEngine`]. All methods take the current [`SimTime`] plus
/// mutable access to physical memory and the device port so completed
/// transfers can retire lazily ("the entire data transfer process requires
/// no CPU intervention" — data movement is attributed to the engine's
/// completion time, not to the caller).
#[derive(Debug)]
pub struct UdmaController {
    layout: Layout,
    state: UdmaState,
    /// Latched DESTINATION register (a proxy address) and COUNT.
    dest: Option<(PhysAddr, u64)>,
    /// SOURCE proxy address of the transfer in progress (for MATCH).
    active_source: Option<PhysAddr>,
    engine: DmaEngine,
    /// Plain counter fields — `handle_store`/`handle_load` run once per
    /// simulated proxy reference.
    counters: UdmaCounters,
}

impl UdmaController {
    /// An idle controller for a node with address layout `layout`.
    pub fn new(layout: Layout, timing: DmaTiming) -> Self {
        UdmaController {
            layout,
            state: UdmaState::Idle,
            dest: None,
            active_source: None,
            engine: DmaEngine::new(timing),
            counters: UdmaCounters::default(),
        }
    }

    /// Current hardware state (after lazy completion, pass `now` through
    /// [`UdmaController::poll`] first for an up-to-date answer).
    pub fn state(&self) -> UdmaState {
        self.state
    }

    /// The underlying DMA engine (register inspection, timing queries).
    pub fn engine(&self) -> &DmaEngine {
        &self.engine
    }

    /// Controller counts.
    pub fn counters(&self) -> &UdmaCounters {
        &self.counters
    }

    /// Retires a completed transfer, if any, and runs the TransferDone
    /// transition. Called internally by every access; exposed for the
    /// machine's event loop.
    pub fn poll(&mut self, now: SimTime, mem: &mut PhysMemory, port: &mut dyn DevicePort) {
        if self.state == UdmaState::Transferring && !self.engine.is_busy(now) {
            // Bus errors abort the transfer; either way the engine frees.
            match self.engine.retire(now, mem, port) {
                Ok(Some(_)) => self.counters.completions.incr(),
                Ok(None) => {}
                Err(_) => self.counters.bus_errors.incr(),
            }
            let (next, effect) = transition(self.state, UdmaEvent::TransferDone);
            debug_assert_eq!(effect, Effect::Complete);
            self.state = next;
            self.active_source = None;
        }
    }

    /// A STORE of `value` to physical proxy address `proxy` — the first
    /// half of the initiation sequence, or an Inval when `value <= 0`.
    pub fn handle_store(
        &mut self,
        proxy: PhysAddr,
        value: i64,
        now: SimTime,
        mem: &mut PhysMemory,
        port: &mut dyn DevicePort,
    ) {
        debug_assert!(self.layout.region_of_phys(proxy).is_proxy());
        self.poll(now, mem, port);
        self.counters.stores.incr();

        match store_value_as_count(value) {
            Some(nbytes) => {
                let (next, effect) = transition(self.state, UdmaEvent::Store);
                if effect == Effect::LatchDest {
                    self.dest = Some((proxy, nbytes));
                }
                self.state = next;
            }
            None => {
                self.counters.invals.incr();
                let (next, effect) = transition(self.state, UdmaEvent::Inval);
                if effect == Effect::ClearDest {
                    self.dest = None;
                }
                self.state = next;
            }
        }
    }

    /// A LOAD from physical proxy address `proxy` — the second half of the
    /// initiation sequence, or a status query. Returns the status word the
    /// LOAD deposits in the CPU register.
    pub fn handle_load(
        &mut self,
        proxy: PhysAddr,
        now: SimTime,
        mem: &mut PhysMemory,
        port: &mut dyn DevicePort,
    ) -> UdmaStatus {
        debug_assert!(self.layout.region_of_phys(proxy).is_proxy());
        self.poll(now, mem, port);
        self.counters.loads.incr();

        match self.state {
            UdmaState::Idle => {
                UdmaStatus { initiation: true, invalid: true, ..UdmaStatus::default() }
            }
            UdmaState::Transferring => {
                let matches = self.active_source == Some(proxy);
                UdmaStatus {
                    initiation: true,
                    transferring: true,
                    matches,
                    remaining_bytes: self.engine.remaining_bytes(now),
                    ..UdmaStatus::default()
                }
            }
            UdmaState::DestLoaded => self.try_start(proxy, now, port),
        }
    }

    /// Attempts the DestLoaded → Transferring transition for source `proxy`.
    fn try_start(&mut self, proxy: PhysAddr, now: SimTime, port: &dyn DevicePort) -> UdmaStatus {
        let (dest, nbytes) = self.dest.expect("DestLoaded implies latched registers");

        let plan = match plan_transfer(&self.layout, dest, proxy, nbytes) {
            Ok(plan) => plan,
            Err(PlanError::WrongSpace) | Err(PlanError::NotProxy(_)) => {
                // BadLoad: back to Idle, report WRONG-SPACE.
                self.counters.bad_loads.incr();
                let (next, effect) = transition(self.state, UdmaEvent::BadLoad);
                debug_assert_eq!(effect, Effect::ClearDest);
                self.state = next;
                self.dest = None;
                return UdmaStatus {
                    initiation: true,
                    wrong_space: true,
                    invalid: true, // now Idle
                    ..UdmaStatus::default()
                };
            }
        };

        // Device-specific validation (§5's alignment example): the latched
        // registers are cleared and an error bit returned.
        if !port.validate(plan.dev_addr, plan.nbytes) {
            self.counters.device_rejects.incr();
            let (next, _) = transition(self.state, UdmaEvent::BadLoad);
            self.state = next;
            self.dest = None;
            return UdmaStatus {
                initiation: true,
                invalid: true,
                device_error: DEV_ERR_REJECTED,
                ..UdmaStatus::default()
            };
        }

        let (next, effect) = transition(self.state, UdmaEvent::Load);
        debug_assert_eq!(effect, Effect::StartTransfer);
        let service = port.service_time(plan.dev_addr, plan.nbytes);
        self.engine
            .start_with_service(
                plan.direction,
                plan.mem_addr,
                plan.dev_addr,
                plan.nbytes,
                now,
                service,
            )
            .expect("engine must be idle outside Transferring state");
        self.state = next;
        self.dest = None;
        self.active_source = Some(proxy);
        self.counters.initiations.incr();

        UdmaStatus {
            initiation: false,
            transferring: true,
            matches: true, // the initiating load references the base address
            remaining_bytes: plan.nbytes,
            ..UdmaStatus::default()
        }
    }

    /// Books `count` replayed repetitions of the steady-state message
    /// cycle the machine layer verified against the event tail: one proxy
    /// STORE, three proxy LOADs (initiate, busy poll, completion poll),
    /// one initiation and one completion per message, plus the engine's
    /// own start/retire accounting. The controller must be Idle — the
    /// caller replays only after observing a completed cycle.
    pub fn replay_completed(&mut self, count: u64, nbytes: u64) {
        debug_assert_eq!(self.state, UdmaState::Idle, "replay requires an idle controller");
        self.counters.stores.add(count);
        self.counters.loads.add(3 * count);
        self.counters.initiations.add(count);
        self.counters.completions.add(count);
        self.engine.replay_retired(count, nbytes);
    }

    /// Kernel-privileged transfer termination — the extension §5 sketches:
    /// "although this design does not include a mechanism for software to
    /// terminate a transfer and force a transition from the Transferring
    /// state to the Idle state, it is not hard to imagine adding one. This
    /// could be useful for dealing with memory system errors that the DMA
    /// hardware cannot handle transparently."
    ///
    /// Drops any in-flight transfer without moving data and returns the
    /// machine to Idle. Returns `true` if a transfer was killed.
    pub fn kernel_terminate(&mut self) -> bool {
        let killed = self.engine.abort().is_some();
        self.state = UdmaState::Idle;
        self.active_source = None;
        self.dest = None;
        if killed {
            self.counters.terminations.incr();
        }
        killed
    }

    /// The page frames currently latched in the hardware SOURCE or
    /// DESTINATION registers — everything the kernel must treat as
    /// unremappable under invariant I4. Includes the DestLoaded-latched
    /// destination (the kernel may Inval to clear it, §6).
    pub fn frames_in_registers(&self) -> Vec<Pfn> {
        let mut frames = self.engine.frames_in_registers();
        if let Some((dest, nbytes)) = self.dest {
            if self.layout.region_of_phys(dest) == Region::MemoryProxy {
                let real = self.layout.phys_of_proxy(dest).expect("memory-proxy region checked");
                let first = real.page().raw();
                let last = (real.raw() + nbytes.max(1) - 1) >> shrimp_mem::PAGE_SHIFT;
                frames.extend((first..=last).map(Pfn::new));
            }
        }
        frames.sort_unstable();
        frames.dedup();
        frames
    }

    /// Kernel-visible check for invariant I4: is `pfn` named by the
    /// hardware registers?
    ///
    /// Answers directly from the latched `(base, count)` intervals — the
    /// engine's in-flight transfer and the DestLoaded destination — without
    /// materializing a frame list, so kernel sweeps over every owned frame
    /// (process exit, page-out eviction) stay O(1) per frame.
    pub fn frame_in_use(&self, pfn: Pfn) -> bool {
        if self.engine.frame_in_use(pfn) {
            return true;
        }
        let Some((dest, nbytes)) = self.dest else { return false };
        if self.layout.region_of_phys(dest) != Region::MemoryProxy {
            return false;
        }
        let real = self.layout.phys_of_proxy(dest).expect("memory-proxy region checked");
        let first = real.page().raw();
        let last = (real.raw() + nbytes.max(1) - 1) >> shrimp_mem::PAGE_SHIFT;
        (first..=last).contains(&pfn.raw())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shrimp_dma::LoopbackPort;
    use shrimp_mem::PAGE_SIZE;
    use shrimp_sim::SimDuration;

    fn setup() -> (Layout, PhysMemory, LoopbackPort, UdmaController) {
        let layout = Layout::new(64 * PAGE_SIZE, 16 * PAGE_SIZE);
        let mem = PhysMemory::new(64 * PAGE_SIZE);
        let port = LoopbackPort::new(2 * PAGE_SIZE as usize);
        let udma = UdmaController::new(layout, DmaTiming::default());
        (layout, mem, port, udma)
    }

    #[test]
    fn two_reference_initiation_moves_data() {
        let (layout, mut mem, mut port, mut udma) = setup();
        mem.write(PhysAddr::new(0x2100), b"shrimp!").unwrap();

        let dest = layout.dev_proxy_addr(0, 0x80);
        let src = layout.proxy_of_phys(PhysAddr::new(0x2100)).unwrap();
        udma.handle_store(dest, 7, SimTime::ZERO, &mut mem, &mut port);
        assert_eq!(udma.state(), UdmaState::DestLoaded);
        let status = udma.handle_load(src, SimTime::ZERO, &mut mem, &mut port);
        assert!(status.started(), "status = {status}");
        assert!(status.matches);
        assert_eq!(status.remaining_bytes, 7);
        assert_eq!(udma.state(), UdmaState::Transferring);

        let done = SimTime::ZERO + udma.engine().duration_for(7);
        udma.poll(done, &mut mem, &mut port);
        assert_eq!(udma.state(), UdmaState::Idle);
        assert_eq!(&port.bytes()[0x80..0x87], b"shrimp!");
    }

    #[test]
    fn device_to_memory_transfer() {
        let (layout, mut mem, mut port, mut udma) = setup();
        port.dma_write(0x10, &[5, 6, 7, 8], SimTime::ZERO);

        let dest = layout.proxy_of_phys(PhysAddr::new(0x4000)).unwrap();
        let src = layout.dev_proxy_addr(0, 0x10);
        udma.handle_store(dest, 4, SimTime::ZERO, &mut mem, &mut port);
        let status = udma.handle_load(src, SimTime::ZERO, &mut mem, &mut port);
        assert!(status.started());

        let done = SimTime::ZERO + udma.engine().duration_for(4);
        udma.poll(done, &mut mem, &mut port);
        assert_eq!(mem.read_vec(PhysAddr::new(0x4000), 4).unwrap(), vec![5, 6, 7, 8]);
    }

    #[test]
    fn load_in_idle_reports_invalid() {
        let (layout, mut mem, mut port, mut udma) = setup();
        let src = layout.proxy_of_phys(PhysAddr::new(0x1000)).unwrap();
        let status = udma.handle_load(src, SimTime::ZERO, &mut mem, &mut port);
        assert!(status.initiation);
        assert!(status.invalid);
        assert!(status.should_retry());
    }

    #[test]
    fn mem_to_mem_is_bad_load() {
        let (layout, mut mem, mut port, mut udma) = setup();
        let a = layout.proxy_of_phys(PhysAddr::new(0x1000)).unwrap();
        let b = layout.proxy_of_phys(PhysAddr::new(0x2000)).unwrap();
        udma.handle_store(a, 16, SimTime::ZERO, &mut mem, &mut port);
        let status = udma.handle_load(b, SimTime::ZERO, &mut mem, &mut port);
        assert!(status.wrong_space);
        assert!(status.is_error());
        assert_eq!(udma.state(), UdmaState::Idle);
    }

    #[test]
    fn inval_cancels_partial_initiation() {
        let (layout, mut mem, mut port, mut udma) = setup();
        let dest = layout.dev_proxy_addr(0, 0);
        udma.handle_store(dest, 64, SimTime::ZERO, &mut mem, &mut port);
        assert_eq!(udma.state(), UdmaState::DestLoaded);
        // The I1 context-switch store: negative nbytes to any proxy address.
        udma.handle_store(dest, -1, SimTime::ZERO, &mut mem, &mut port);
        assert_eq!(udma.state(), UdmaState::Idle);
        // The victim's LOAD now reports a failed initiation.
        let src = layout.proxy_of_phys(PhysAddr::new(0x1000)).unwrap();
        let status = udma.handle_load(src, SimTime::ZERO, &mut mem, &mut port);
        assert!(status.initiation && status.invalid);
    }

    #[test]
    fn second_store_overwrites_registers() {
        let (layout, mut mem, mut port, mut udma) = setup();
        mem.write(PhysAddr::new(0x3000), &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        let d1 = layout.dev_proxy_addr(0, 0x10);
        let d2 = layout.dev_proxy_addr(0, 0x20);
        udma.handle_store(d1, 8, SimTime::ZERO, &mut mem, &mut port);
        udma.handle_store(d2, 4, SimTime::ZERO, &mut mem, &mut port);
        let src = layout.proxy_of_phys(PhysAddr::new(0x3000)).unwrap();
        let status = udma.handle_load(src, SimTime::ZERO, &mut mem, &mut port);
        assert!(status.started());
        assert_eq!(status.remaining_bytes, 4);
        let done = SimTime::ZERO + udma.engine().duration_for(4);
        udma.poll(done, &mut mem, &mut port);
        assert_eq!(&port.bytes()[0x20..0x24], &[1, 2, 3, 4]);
        assert_eq!(&port.bytes()[0x10..0x14], &[0; 4], "first dest must be unused");
    }

    #[test]
    fn completion_polling_via_match_flag() {
        let (layout, mut mem, mut port, mut udma) = setup();
        let dest = layout.dev_proxy_addr(0, 0);
        let src = layout.proxy_of_phys(PhysAddr::new(0x1000)).unwrap();
        udma.handle_store(dest, 1024, SimTime::ZERO, &mut mem, &mut port);
        udma.handle_load(src, SimTime::ZERO, &mut mem, &mut port);

        // Mid-transfer: repeating the LOAD shows MATCH set, some remaining.
        let mid = SimTime::ZERO + udma.engine().duration_for(1024) / 2;
        let status = udma.handle_load(src, mid, &mut mem, &mut port);
        assert!(status.matches);
        assert!(status.transferring);
        assert!(status.remaining_bytes > 0 && status.remaining_bytes < 1024);

        // After completion: MATCH clear (device back in Idle).
        let done = SimTime::ZERO + udma.engine().duration_for(1024);
        let status = udma.handle_load(src, done, &mut mem, &mut port);
        assert!(!status.matches);
        assert!(status.invalid);
    }

    #[test]
    fn status_load_from_other_address_does_not_match() {
        let (layout, mut mem, mut port, mut udma) = setup();
        let dest = layout.dev_proxy_addr(0, 0);
        let src = layout.proxy_of_phys(PhysAddr::new(0x1000)).unwrap();
        let other = layout.proxy_of_phys(PhysAddr::new(0x5000)).unwrap();
        udma.handle_store(dest, 512, SimTime::ZERO, &mut mem, &mut port);
        udma.handle_load(src, SimTime::ZERO, &mut mem, &mut port);
        let status = udma.handle_load(other, SimTime::ZERO, &mut mem, &mut port);
        assert!(!status.matches);
        assert!(status.transferring);
        assert!(status.should_retry());
    }

    #[test]
    fn store_during_transfer_is_ignored() {
        let (layout, mut mem, mut port, mut udma) = setup();
        let dest = layout.dev_proxy_addr(0, 0);
        let src = layout.proxy_of_phys(PhysAddr::new(0x1000)).unwrap();
        udma.handle_store(dest, 256, SimTime::ZERO, &mut mem, &mut port);
        udma.handle_load(src, SimTime::ZERO, &mut mem, &mut port);
        // Another process's store while Transferring: no effect.
        udma.handle_store(dest, 64, SimTime::ZERO, &mut mem, &mut port);
        assert_eq!(udma.state(), UdmaState::Transferring);
        let done = SimTime::ZERO + udma.engine().duration_for(256);
        udma.poll(done, &mut mem, &mut port);
        assert_eq!(udma.state(), UdmaState::Idle);
    }

    #[test]
    fn device_rejection_sets_error_bits() {
        let (layout, mut mem, mut port, mut udma) = setup();
        // LoopbackPort validates bounds; ask for a transfer past its end.
        let dest = layout.dev_proxy_addr(1, PAGE_SIZE - 4);
        let src = layout.proxy_of_phys(PhysAddr::new(0x1000)).unwrap();
        udma.handle_store(dest, 64, SimTime::ZERO, &mut mem, &mut port);
        let status = udma.handle_load(src, SimTime::ZERO, &mut mem, &mut port);
        assert!(status.is_error());
        assert_ne!(status.device_error, 0);
        assert_eq!(udma.state(), UdmaState::Idle);
    }

    #[test]
    fn frames_in_registers_tracks_dest_and_engine() {
        let (layout, mut mem, mut port, mut udma) = setup();
        // DestLoaded with a memory-proxy destination spanning two pages.
        let dest = layout.proxy_of_phys(PhysAddr::new(2 * PAGE_SIZE - 8)).unwrap();
        udma.handle_store(dest, 16, SimTime::ZERO, &mut mem, &mut port);
        let frames = udma.frames_in_registers();
        assert_eq!(frames, vec![Pfn::new(1), Pfn::new(2)]);
        assert!(udma.frame_in_use(Pfn::new(1)));
        assert!(!udma.frame_in_use(Pfn::new(3)));

        // Start the transfer; the engine's memory side takes over.
        let src = layout.dev_proxy_addr(0, 0);
        udma.handle_load(src, SimTime::ZERO, &mut mem, &mut port);
        let frames = udma.frames_in_registers();
        assert_eq!(frames, vec![Pfn::new(1), Pfn::new(2)]);
        // The interval check agrees with the materialized list while the
        // engine holds the registers.
        for pfn in [Pfn::new(0), Pfn::new(1), Pfn::new(2), Pfn::new(3)] {
            assert_eq!(udma.frame_in_use(pfn), frames.contains(&pfn));
        }

        // After completion, nothing is in use.
        let done = SimTime::ZERO + udma.engine().duration_for(16);
        udma.poll(done, &mut mem, &mut port);
        assert!(udma.frames_in_registers().is_empty());
        assert!(!udma.frame_in_use(Pfn::new(1)));
    }

    #[test]
    fn kernel_terminate_kills_in_flight_transfer() {
        let (layout, mut mem, mut port, mut udma) = setup();
        mem.write(PhysAddr::new(0x1000), &[0xee; 64]).unwrap();
        let dest = layout.dev_proxy_addr(0, 0);
        let src = layout.proxy_of_phys(PhysAddr::new(0x1000)).unwrap();
        udma.handle_store(dest, 64, SimTime::ZERO, &mut mem, &mut port);
        udma.handle_load(src, SimTime::ZERO, &mut mem, &mut port);
        assert_eq!(udma.state(), UdmaState::Transferring);

        assert!(udma.kernel_terminate());
        assert_eq!(udma.state(), UdmaState::Idle);
        assert!(udma.frames_in_registers().is_empty(), "registers cleared");
        // The aborted transfer never delivered data.
        let done = SimTime::ZERO + udma.engine().duration_for(64);
        udma.poll(done, &mut mem, &mut port);
        assert_eq!(&port.bytes()[..4], &[0; 4]);
        // The device accepts fresh work immediately.
        udma.handle_store(dest, 4, done, &mut mem, &mut port);
        let status = udma.handle_load(src, done, &mut mem, &mut port);
        assert!(status.started());
    }

    #[test]
    fn kernel_terminate_on_idle_device_is_harmless() {
        let (_layout, _mem, _port, mut udma) = setup();
        assert!(!udma.kernel_terminate());
        assert_eq!(udma.state(), UdmaState::Idle);
    }

    #[test]
    fn kernel_terminate_clears_destloaded_latch() {
        let (layout, mut mem, mut port, mut udma) = setup();
        let dest = layout.dev_proxy_addr(0, 0);
        udma.handle_store(dest, 64, SimTime::ZERO, &mut mem, &mut port);
        assert_eq!(udma.state(), UdmaState::DestLoaded);
        assert!(!udma.kernel_terminate(), "no transfer was in flight");
        assert_eq!(udma.state(), UdmaState::Idle);
        assert!(udma.frames_in_registers().is_empty());
    }

    #[test]
    fn back_to_back_transfers() {
        let (layout, mut mem, mut port, mut udma) = setup();
        mem.write(PhysAddr::new(0x1000), &[0xaa; 8]).unwrap();
        mem.write(PhysAddr::new(0x2000), &[0xbb; 8]).unwrap();
        let mut now = SimTime::ZERO;
        for (addr, off) in [(0x1000u64, 0u64), (0x2000, 0x100)] {
            let dest = layout.dev_proxy_addr(0, off);
            let src = layout.proxy_of_phys(PhysAddr::new(addr)).unwrap();
            udma.handle_store(dest, 8, now, &mut mem, &mut port);
            let status = udma.handle_load(src, now, &mut mem, &mut port);
            assert!(status.started());
            now = now + udma.engine().duration_for(8) + SimDuration::from_nanos(1);
        }
        udma.poll(now, &mut mem, &mut port);
        assert_eq!(&port.bytes()[0..4], &[0xaa; 4]);
        assert_eq!(&port.bytes()[0x100..0x104], &[0xbb; 4]);
        assert_eq!(udma.counters().initiations.get(), 2);
        assert_eq!(udma.counters().completions.get(), 2);
    }
}
