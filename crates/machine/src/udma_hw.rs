//! Unified front end over the basic and queued UDMA hardware variants.

use shrimp_dma::{DevicePort, Direction, DmaEngine, DmaTiming, Transfer};
use shrimp_mem::{Layout, Pfn, PhysAddr, PhysMemory};
use shrimp_sim::SimTime;
use udma_core::{Priority, QueuedUdma, UdmaController, UdmaCounters, UdmaState, UdmaStatus};

/// Which UDMA hardware variant a machine is built with.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum UdmaMode {
    /// The basic single-transfer device of §5 (what the SHRIMP board
    /// implements: "this device does not support multi-page transfers").
    #[default]
    Basic,
    /// The §7 queueing extension with the given queue capacity.
    Queued(usize),
}

/// The UDMA hardware of one machine: either variant behind one interface.
#[derive(Debug)]
pub enum UdmaHw {
    /// Basic controller.
    Basic(UdmaController),
    /// Queued controller.
    Queued(QueuedUdma),
}

impl UdmaHw {
    /// Builds the hardware for `mode`.
    pub fn new(mode: UdmaMode, layout: Layout, timing: DmaTiming) -> Self {
        match mode {
            UdmaMode::Basic => UdmaHw::Basic(UdmaController::new(layout, timing)),
            UdmaMode::Queued(cap) => UdmaHw::Queued(QueuedUdma::new(layout, timing, cap)),
        }
    }

    /// Routes a proxy STORE to the hardware.
    pub fn handle_store(
        &mut self,
        proxy: PhysAddr,
        value: i64,
        now: SimTime,
        mem: &mut PhysMemory,
        port: &mut dyn DevicePort,
    ) {
        match self {
            UdmaHw::Basic(c) => c.handle_store(proxy, value, now, mem, port),
            UdmaHw::Queued(q) => q.handle_store(proxy, value, now, mem, port),
        }
    }

    /// Routes a proxy LOAD to the hardware (user priority).
    pub fn handle_load(
        &mut self,
        proxy: PhysAddr,
        now: SimTime,
        mem: &mut PhysMemory,
        port: &mut dyn DevicePort,
    ) -> UdmaStatus {
        match self {
            UdmaHw::Basic(c) => c.handle_load(proxy, now, mem, port),
            UdmaHw::Queued(q) => q.handle_load(proxy, now, mem, port),
        }
    }

    /// Routes a proxy LOAD at system priority (kernel-initiated transfers
    /// on the queued variant; identical to [`UdmaHw::handle_load`] on the
    /// basic one).
    pub fn handle_load_system(
        &mut self,
        proxy: PhysAddr,
        now: SimTime,
        mem: &mut PhysMemory,
        port: &mut dyn DevicePort,
    ) -> UdmaStatus {
        match self {
            UdmaHw::Basic(c) => c.handle_load(proxy, now, mem, port),
            UdmaHw::Queued(q) => {
                q.handle_load_with_priority(proxy, Priority::System, now, mem, port)
            }
        }
    }

    /// Retires completed transfers (and feeds the queue, if any).
    pub fn poll(&mut self, now: SimTime, mem: &mut PhysMemory, port: &mut dyn DevicePort) {
        match self {
            UdmaHw::Basic(c) => c.poll(now, mem, port),
            UdmaHw::Queued(q) => q.poll(now, mem, port),
        }
    }

    /// Invariant-I4 check: is frame `pfn` named by the hardware (registers
    /// on the basic device; reference counts on the queued one)?
    pub fn frame_in_use(&self, pfn: Pfn) -> bool {
        match self {
            UdmaHw::Basic(c) => c.frame_in_use(pfn),
            UdmaHw::Queued(q) => q.ref_count(pfn) > 0,
        }
    }

    /// The underlying DMA engine.
    pub fn engine(&self) -> &DmaEngine {
        match self {
            UdmaHw::Basic(c) => c.engine(),
            UdmaHw::Queued(q) => q.engine(),
        }
    }

    /// The controller's proxy-reference and transfer counts.
    pub fn counters(&self) -> &UdmaCounters {
        match self {
            UdmaHw::Basic(c) => c.counters(),
            UdmaHw::Queued(q) => q.counters(),
        }
    }

    /// When all accepted work will have drained (now for an idle device).
    pub fn drained_at(&self, now: SimTime) -> SimTime {
        match self {
            UdmaHw::Basic(c) => c.engine().active().map(|t| t.completes_at).unwrap_or(now).max(now),
            UdmaHw::Queued(q) => q.drained_at().max(now),
        }
    }

    /// The template for a steady-state message replay: the last retired
    /// memory→device transfer of an otherwise idle *basic* controller.
    /// Queued hardware keeps per-request state a replay cannot stride, so
    /// it never offers a template.
    pub fn replay_template(&self) -> Option<Transfer> {
        match self {
            UdmaHw::Basic(c) if c.state() == UdmaState::Idle && c.engine().active().is_none() => {
                c.engine().last_retired().copied().filter(|t| t.direction == Direction::MemToDev)
            }
            _ => None,
        }
    }

    /// Books `count` replayed steady-state cycles on the basic controller.
    /// No-op on queued hardware (which never offers a replay template).
    pub fn replay_completed(&mut self, count: u64, nbytes: u64) {
        if let UdmaHw::Basic(c) = self {
            c.replay_completed(count, nbytes);
        }
    }

    /// Access to the basic controller (panics on the queued variant); used
    /// by tests asserting on state-machine internals.
    pub fn as_basic(&self) -> &UdmaController {
        match self {
            UdmaHw::Basic(c) => c,
            UdmaHw::Queued(_) => panic!("machine was built with queued UDMA hardware"),
        }
    }

    /// Access to the queued controller (panics on the basic variant).
    pub fn as_queued(&self) -> &QueuedUdma {
        match self {
            UdmaHw::Queued(q) => q,
            UdmaHw::Basic(_) => panic!("machine was built with basic UDMA hardware"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shrimp_dma::LoopbackPort;
    use shrimp_mem::PAGE_SIZE;

    fn layout() -> Layout {
        Layout::new(16 * PAGE_SIZE, 16 * PAGE_SIZE)
    }

    #[test]
    fn builds_both_variants() {
        let basic = UdmaHw::new(UdmaMode::Basic, layout(), DmaTiming::default());
        assert!(matches!(basic, UdmaHw::Basic(_)));
        let queued = UdmaHw::new(UdmaMode::Queued(4), layout(), DmaTiming::default());
        assert!(matches!(queued, UdmaHw::Queued(_)));
    }

    #[test]
    fn unified_interface_drives_either_variant() {
        for mode in [UdmaMode::Basic, UdmaMode::Queued(4)] {
            let l = layout();
            let mut hw = UdmaHw::new(mode, l, DmaTiming::default());
            let mut mem = PhysMemory::new(16 * PAGE_SIZE);
            mem.write(PhysAddr::new(0x100), b"xy").unwrap();
            let mut port = LoopbackPort::new(64);

            let dest = l.dev_proxy_addr(0, 0);
            let src = l.proxy_of_phys(PhysAddr::new(0x100)).unwrap();
            hw.handle_store(dest, 2, SimTime::ZERO, &mut mem, &mut port);
            let status = hw.handle_load(src, SimTime::ZERO, &mut mem, &mut port);
            assert!(status.started(), "mode {mode:?}: {status}");
            assert!(hw.frame_in_use(Pfn::new(0)));

            let done = hw.drained_at(SimTime::ZERO);
            hw.poll(done, &mut mem, &mut port);
            assert_eq!(&port.bytes()[..2], b"xy", "mode {mode:?}");
            assert!(!hw.frame_in_use(Pfn::new(0)));
        }
    }

    #[test]
    #[should_panic(expected = "queued UDMA hardware")]
    fn as_basic_panics_on_queued() {
        let hw = UdmaHw::new(UdmaMode::Queued(2), layout(), DmaTiming::default());
        let _ = hw.as_basic();
    }

    #[test]
    #[should_panic(expected = "basic UDMA hardware")]
    fn as_queued_panics_on_basic() {
        let hw = UdmaHw::new(UdmaMode::Basic, layout(), DmaTiming::default());
        let _ = hw.as_queued();
    }

    #[test]
    fn system_priority_load_works_on_both_variants() {
        for mode in [UdmaMode::Basic, UdmaMode::Queued(4)] {
            let l = layout();
            let mut hw = UdmaHw::new(mode, l, DmaTiming::default());
            let mut mem = PhysMemory::new(16 * PAGE_SIZE);
            let mut port = LoopbackPort::new(64);
            let dest = l.dev_proxy_addr(0, 0);
            let src = l.proxy_of_phys(PhysAddr::new(0x80)).unwrap();
            hw.handle_store(dest, 8, SimTime::ZERO, &mut mem, &mut port);
            let status = hw.handle_load_system(src, SimTime::ZERO, &mut mem, &mut port);
            assert!(status.started(), "mode {mode:?}: {status}");
        }
    }

    #[test]
    fn drained_at_is_monotone() {
        let l = layout();
        let mut hw = UdmaHw::new(UdmaMode::Basic, l, DmaTiming::default());
        let mut mem = PhysMemory::new(16 * PAGE_SIZE);
        let mut port = LoopbackPort::new(4096);
        let now = SimTime::from_nanos(1000);
        assert_eq!(hw.drained_at(now), now, "idle device drains immediately");
        let dest = l.dev_proxy_addr(0, 0);
        let src = l.proxy_of_phys(PhysAddr::new(0)).unwrap();
        hw.handle_store(dest, 2048, now, &mut mem, &mut port);
        hw.handle_load(src, now, &mut mem, &mut port);
        assert!(hw.drained_at(now) > now, "busy device drains later");
    }
}
