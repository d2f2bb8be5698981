//! Multi-page transfers with hardware queueing (paper §7).
//!
//! The basic UDMA device refuses work while Transferring; large transfers
//! therefore cost a full round-trip per page. The §7 extension queues
//! requests in hardware: a user process starts a multi-page transfer with
//! only two instructions per page, gather/scatter falls out naturally, and
//! unrelated transfers (from separate processes) can be outstanding
//! simultaneously.
//!
//! Two mechanisms let the kernel keep invariant I4 without pinning:
//!
//! - a **reference-count register** per physical page
//!   ([`QueuedUdma::ref_count`]), and
//! - an **associative query** that searches the hardware queue for a page
//!   ([`QueuedUdma::associative_query`]).
//!
//! Both are implemented so the `pinning` bench can compare them. Two
//! priorities are provided ("implementing just two queues, with the higher
//! priority queue reserved for the system, would certainly be useful"),
//! guarding against a selfish user starving the kernel.

use std::collections::{BTreeMap, VecDeque};

use shrimp_dma::{DevicePort, DmaEngine, DmaTiming};
use shrimp_mem::{Layout, Pfn, PhysAddr, PhysMemory};
use shrimp_sim::SimTime;

use crate::controller::DEV_ERR_REJECTED;
use crate::plan::{plan_transfer, PlanError, TransferPlan};
use crate::{store_value_as_count, UdmaCounters, UdmaStatus};

/// Request priority: the high-priority queue is reserved for the kernel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Ordinary user-process transfers.
    #[default]
    User,
    /// Kernel-initiated transfers (paging I/O, etc.).
    System,
}

/// One queued transfer request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueuedRequest {
    /// The resolved transfer.
    pub plan: TransferPlan,
    /// The source proxy address that initiated it (for MATCH reporting).
    pub source_proxy: PhysAddr,
    /// Which queue it sits in.
    pub priority: Priority,
}

/// The queueing UDMA device of §7.
#[derive(Debug)]
pub struct QueuedUdma {
    layout: Layout,
    engine: DmaEngine,
    /// Latched DESTINATION/COUNT awaiting the source LOAD.
    dest: Option<(PhysAddr, u64)>,
    user_queue: VecDeque<QueuedRequest>,
    system_queue: VecDeque<QueuedRequest>,
    /// The request currently occupying the engine.
    active: Option<QueuedRequest>,
    /// When the engine becomes free (tail of the in-order schedule).
    engine_free_at: SimTime,
    capacity: usize,
    refcounts: BTreeMap<Pfn, u32>,
    counters: UdmaCounters,
}

impl QueuedUdma {
    /// A queueing device holding up to `capacity` pending requests (not
    /// counting the one in the engine).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(layout: Layout, timing: DmaTiming, capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        QueuedUdma {
            layout,
            engine: DmaEngine::new(timing),
            dest: None,
            user_queue: VecDeque::new(),
            system_queue: VecDeque::new(),
            active: None,
            engine_free_at: SimTime::ZERO,
            capacity,
            refcounts: BTreeMap::new(),
            counters: UdmaCounters::default(),
        }
    }

    /// Pending requests (both priorities), excluding the active one.
    pub fn queued_len(&self) -> usize {
        self.user_queue.len() + self.system_queue.len()
    }

    /// True when nothing is queued, latched or in flight.
    pub fn is_idle(&self, now: SimTime) -> bool {
        self.dest.is_none()
            && self.active.is_none()
            && self.queued_len() == 0
            && !self.engine.is_busy(now)
    }

    /// When all currently accepted work will have drained.
    pub fn drained_at(&self) -> SimTime {
        let queued: u64 = self
            .system_queue
            .iter()
            .chain(&self.user_queue)
            .map(|r| self.engine.duration_for(r.plan.nbytes).as_nanos())
            .sum();
        self.engine_free_at + shrimp_sim::SimDuration::from_nanos(queued)
    }

    /// The underlying engine.
    pub fn engine(&self) -> &DmaEngine {
        &self.engine
    }

    /// Controller counts.
    pub fn counters(&self) -> &UdmaCounters {
        &self.counters
    }

    /// The §7 "reference-count register" for physical page `pfn`: how often
    /// the page appears in the engine or queue.
    pub fn ref_count(&self, pfn: Pfn) -> u32 {
        self.refcounts.get(&pfn).copied().unwrap_or(0)
    }

    /// The §7 associative alternative: searches the hardware queue (and the
    /// engine) for `pfn`. Semantically equals `ref_count(pfn) > 0`; the
    /// pinning bench models its different lookup cost.
    pub fn associative_query(&self, pfn: Pfn) -> bool {
        self.active
            .iter()
            .chain(self.system_queue.iter())
            .chain(self.user_queue.iter())
            .any(|r| Self::plan_frames(&r.plan).any(|f| f == pfn))
    }

    fn plan_frames(plan: &TransferPlan) -> impl Iterator<Item = Pfn> {
        let first = plan.mem_addr.page().raw();
        let last = (plan.mem_addr.raw() + plan.nbytes.max(1) - 1) >> shrimp_mem::PAGE_SHIFT;
        (first..=last).map(Pfn::new)
    }

    fn add_refs(&mut self, plan: &TransferPlan) {
        for f in Self::plan_frames(plan) {
            *self.refcounts.entry(f).or_insert(0) += 1;
        }
    }

    fn drop_refs(&mut self, plan: &TransferPlan) {
        for f in Self::plan_frames(plan) {
            match self.refcounts.get_mut(&f) {
                Some(c) if *c > 1 => *c -= 1,
                Some(_) => {
                    self.refcounts.remove(&f);
                }
                None => debug_assert!(false, "refcount underflow for {f}"),
            }
        }
    }

    /// Retires finished transfers and feeds the engine from the queues
    /// (system priority first). Time between queued transfers is back to
    /// back: each starts at the previous completion.
    pub fn poll(&mut self, now: SimTime, mem: &mut PhysMemory, port: &mut dyn DevicePort) {
        loop {
            // Retire the active transfer if its completion time has passed.
            if let Some(active) = self.active {
                if self.engine.is_busy(now) {
                    return;
                }
                match self.engine.retire(now, mem, port) {
                    Ok(Some(_)) => self.counters.completions.incr(),
                    Ok(None) => {}
                    Err(_) => self.counters.bus_errors.incr(),
                }
                self.drop_refs(&active.plan);
                self.active = None;
            }

            // Feed the next request, starting where the engine went free.
            let next = self.system_queue.pop_front().or_else(|| self.user_queue.pop_front());
            let Some(req) = next else { return };
            let start_at = self.engine_free_at.max(SimTime::ZERO);
            let service = port.service_time(req.plan.dev_addr, req.plan.nbytes);
            let done = self
                .engine
                .start_with_service(
                    req.plan.direction,
                    req.plan.mem_addr,
                    req.plan.dev_addr,
                    req.plan.nbytes,
                    start_at,
                    service,
                )
                .expect("engine idle after retire");
            self.engine_free_at = done;
            self.active = Some(req);
        }
    }

    /// A STORE to proxy space: latches DESTINATION/COUNT, or on a
    /// non-positive value fires Inval (clears the latch only — queued and
    /// in-flight transfers are unaffected, mirroring the basic device's
    /// behaviour in Transferring).
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
            Some(nbytes) => self.dest = Some((proxy, nbytes)),
            None => {
                self.counters.invals.incr();
                self.dest = None;
            }
        }
    }

    /// A LOAD from proxy space at user priority.
    pub fn handle_load(
        &mut self,
        proxy: PhysAddr,
        now: SimTime,
        mem: &mut PhysMemory,
        port: &mut dyn DevicePort,
    ) -> UdmaStatus {
        self.handle_load_with_priority(proxy, Priority::User, now, mem, port)
    }

    /// A LOAD from proxy space; `priority` selects the queue (the System
    /// queue is reserved for kernel-initiated requests).
    pub fn handle_load_with_priority(
        &mut self,
        proxy: PhysAddr,
        priority: Priority,
        now: SimTime,
        mem: &mut PhysMemory,
        port: &mut dyn DevicePort,
    ) -> UdmaStatus {
        debug_assert!(self.layout.region_of_phys(proxy).is_proxy());
        self.poll(now, mem, port);
        self.counters.loads.incr();

        let Some((dest, nbytes)) = self.dest else {
            return self.status_query(proxy, now);
        };

        // Resolve the request.
        let plan = match plan_transfer(&self.layout, dest, proxy, nbytes) {
            Ok(plan) => plan,
            Err(PlanError::WrongSpace) | Err(PlanError::NotProxy(_)) => {
                self.counters.bad_loads.incr();
                self.dest = None;
                return UdmaStatus {
                    initiation: true,
                    wrong_space: true,
                    ..self.status_query(proxy, now)
                };
            }
        };

        if !port.validate(plan.dev_addr, plan.nbytes) {
            self.counters.device_rejects.incr();
            self.dest = None;
            return UdmaStatus {
                initiation: true,
                device_error: DEV_ERR_REJECTED,
                ..self.status_query(proxy, now)
            };
        }

        // "A transfer request is refused only when the queue is full" — the
        // latch is kept so the user can simply repeat the LOAD.
        if self.queued_len() >= self.capacity {
            self.counters.queue_full_refusals.incr();
            return UdmaStatus { initiation: true, transferring: true, ..UdmaStatus::default() };
        }

        let req = QueuedRequest { plan, source_proxy: proxy, priority };
        self.add_refs(&plan);
        match priority {
            Priority::User => self.user_queue.push_back(req),
            Priority::System => self.system_queue.push_back(req),
        }
        self.dest = None;
        self.counters.initiations.incr();
        // If the engine is idle the request starts immediately.
        self.engine_free_at = self.engine_free_at.max(now);
        self.poll(now, mem, port);

        UdmaStatus {
            initiation: false,
            transferring: true,
            matches: true,
            remaining_bytes: nbytes,
            ..UdmaStatus::default()
        }
    }

    /// Status for a LOAD that is not completing an initiation sequence.
    fn status_query(&self, proxy: PhysAddr, now: SimTime) -> UdmaStatus {
        let busy = self.active.is_some() || self.queued_len() > 0;
        let active_match = self.active.as_ref().is_some_and(|r| r.source_proxy == proxy);
        let queued_match =
            self.system_queue.iter().chain(&self.user_queue).find(|r| r.source_proxy == proxy);
        let remaining = if active_match {
            self.engine.remaining_bytes(now)
        } else {
            queued_match.map_or(0, |r| r.plan.nbytes)
        };
        UdmaStatus {
            initiation: true,
            transferring: busy,
            invalid: !busy,
            matches: active_match || queued_match.is_some(),
            remaining_bytes: remaining,
            ..UdmaStatus::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shrimp_dma::LoopbackPort;
    use shrimp_mem::PAGE_SIZE;

    fn setup(capacity: usize) -> (Layout, PhysMemory, LoopbackPort, QueuedUdma) {
        let layout = Layout::new(64 * PAGE_SIZE, 64 * PAGE_SIZE);
        let mem = PhysMemory::new(64 * PAGE_SIZE);
        let port = LoopbackPort::new(64 * PAGE_SIZE as usize);
        let udma = QueuedUdma::new(layout, DmaTiming::default(), capacity);
        (layout, mem, port, udma)
    }

    /// Enqueue one page-sized transfer from `page` to device offset `off`.
    fn send_page(
        layout: &Layout,
        udma: &mut QueuedUdma,
        mem: &mut PhysMemory,
        port: &mut LoopbackPort,
        page: u64,
        off: u64,
        now: SimTime,
    ) -> UdmaStatus {
        let dest =
            layout.dev_proxy_addr(off >> shrimp_mem::PAGE_SHIFT, off & shrimp_mem::PAGE_MASK);
        let src = layout.proxy_of_phys(PhysAddr::new(page * PAGE_SIZE)).unwrap();
        udma.handle_store(dest, PAGE_SIZE as i64, now, mem, port);
        udma.handle_load(src, now, mem, port)
    }

    #[test]
    fn multi_page_transfer_two_refs_per_page() {
        let (layout, mut mem, mut port, mut udma) = setup(8);
        for p in 0..4u64 {
            mem.fill(PhysAddr::new(p * PAGE_SIZE), PAGE_SIZE, 0x10 + p as u8).unwrap();
        }
        let now = SimTime::ZERO;
        for p in 0..4u64 {
            let status = send_page(&layout, &mut udma, &mut mem, &mut port, p, p * PAGE_SIZE, now);
            assert!(status.started(), "page {p}: {status}");
        }
        // All four accepted instantly; drain them.
        let done = udma.drained_at();
        udma.poll(done, &mut mem, &mut port);
        assert!(udma.is_idle(done));
        for p in 0..4u64 {
            assert_eq!(port.bytes()[(p * PAGE_SIZE) as usize], 0x10 + p as u8);
        }
        assert_eq!(udma.counters().initiations.get(), 4);
        assert_eq!(udma.counters().completions.get(), 4);
    }

    #[test]
    fn queue_full_refusal_keeps_latch() {
        let (layout, mut mem, mut port, mut udma) = setup(1);
        let now = SimTime::ZERO;
        // First fills the engine, second fills the queue, third refused.
        assert!(send_page(&layout, &mut udma, &mut mem, &mut port, 0, 0, now).started());
        assert!(send_page(&layout, &mut udma, &mut mem, &mut port, 1, PAGE_SIZE, now).started());
        let refused = send_page(&layout, &mut udma, &mut mem, &mut port, 2, 2 * PAGE_SIZE, now);
        assert!(refused.initiation && refused.transferring);
        assert!(refused.should_retry());
        assert_eq!(udma.counters().queue_full_refusals.get(), 1);

        // Retrying just the LOAD after the first transfer drains succeeds.
        let after_first = now + udma.engine().duration_for(PAGE_SIZE);
        let src = layout.proxy_of_phys(PhysAddr::new(2 * PAGE_SIZE)).unwrap();
        let retry = udma.handle_load(src, after_first, &mut mem, &mut port);
        assert!(retry.started(), "{retry}");
    }

    #[test]
    fn refcounts_track_queue_membership() {
        let (layout, mut mem, mut port, mut udma) = setup(8);
        let now = SimTime::ZERO;
        send_page(&layout, &mut udma, &mut mem, &mut port, 3, 0, now);
        send_page(&layout, &mut udma, &mut mem, &mut port, 3, PAGE_SIZE, now);
        send_page(&layout, &mut udma, &mut mem, &mut port, 5, 2 * PAGE_SIZE, now);
        assert_eq!(udma.ref_count(Pfn::new(3)), 2);
        assert_eq!(udma.ref_count(Pfn::new(5)), 1);
        assert_eq!(udma.ref_count(Pfn::new(7)), 0);
        assert!(udma.associative_query(Pfn::new(3)));
        assert!(udma.associative_query(Pfn::new(5)));
        assert!(!udma.associative_query(Pfn::new(7)));

        let done = udma.drained_at();
        udma.poll(done, &mut mem, &mut port);
        assert_eq!(udma.ref_count(Pfn::new(3)), 0);
        assert!(!udma.associative_query(Pfn::new(5)));
    }

    #[test]
    fn system_priority_jumps_queue() {
        let (layout, mut mem, mut port, mut udma) = setup(8);
        let now = SimTime::ZERO;
        mem.fill(PhysAddr::new(0), PAGE_SIZE, 1).unwrap();
        mem.fill(PhysAddr::new(PAGE_SIZE), PAGE_SIZE, 2).unwrap();
        mem.fill(PhysAddr::new(2 * PAGE_SIZE), PAGE_SIZE, 3).unwrap();

        // Page 0 occupies the engine; pages 1 (user) then 2 (system) queue.
        send_page(&layout, &mut udma, &mut mem, &mut port, 0, 0, now);
        send_page(&layout, &mut udma, &mut mem, &mut port, 1, PAGE_SIZE, now);
        let dest = layout.dev_proxy_addr(2, 0);
        let src = layout.proxy_of_phys(PhysAddr::new(2 * PAGE_SIZE)).unwrap();
        udma.handle_store(dest, PAGE_SIZE as i64, now, &mut mem, &mut port);
        let status =
            udma.handle_load_with_priority(src, Priority::System, now, &mut mem, &mut port);
        assert!(status.started());

        // After two transfer durations, pages 0 and 2 are done; page 1 is not.
        let two = now + udma.engine().duration_for(PAGE_SIZE) * 2;
        udma.poll(two, &mut mem, &mut port);
        assert_eq!(port.bytes()[0], 1, "first transfer done");
        assert_eq!(port.bytes()[(2 * PAGE_SIZE) as usize], 3, "system jumped ahead");
        assert_eq!(port.bytes()[PAGE_SIZE as usize], 0, "user transfer still pending");
    }

    #[test]
    fn gather_scatter_from_discontiguous_pages() {
        let (layout, mut mem, mut port, mut udma) = setup(8);
        let now = SimTime::ZERO;
        // Gather three discontiguous source pages into one contiguous
        // device region.
        for (i, p) in [2u64, 9, 5].iter().enumerate() {
            mem.fill(PhysAddr::new(p * PAGE_SIZE), PAGE_SIZE, 0xa0 + *p as u8).unwrap();
            let status =
                send_page(&layout, &mut udma, &mut mem, &mut port, *p, i as u64 * PAGE_SIZE, now);
            assert!(status.started());
        }
        let done = udma.drained_at();
        udma.poll(done, &mut mem, &mut port);
        assert_eq!(port.bytes()[0], 0xa2);
        assert_eq!(port.bytes()[PAGE_SIZE as usize], 0xa9);
        assert_eq!(port.bytes()[2 * PAGE_SIZE as usize], 0xa5);
    }

    #[test]
    fn inval_clears_latch_but_not_queue() {
        let (layout, mut mem, mut port, mut udma) = setup(8);
        let now = SimTime::ZERO;
        send_page(&layout, &mut udma, &mut mem, &mut port, 0, 0, now);
        // Latch a second destination, then context-switch Inval.
        let dest = layout.dev_proxy_addr(1, 0);
        udma.handle_store(dest, 64, now, &mut mem, &mut port);
        udma.handle_store(dest, -1, now, &mut mem, &mut port);
        // The queued/in-flight transfer still completes.
        let done = udma.drained_at();
        udma.poll(done, &mut mem, &mut port);
        assert_eq!(udma.counters().completions.get(), 1);
        // But the latched initiation is gone: a LOAD is a status query now.
        let src = layout.proxy_of_phys(PhysAddr::new(PAGE_SIZE)).unwrap();
        let status = udma.handle_load(src, done, &mut mem, &mut port);
        assert!(status.initiation && status.invalid);
    }

    #[test]
    fn completion_polling_per_request() {
        let (layout, mut mem, mut port, mut udma) = setup(8);
        let now = SimTime::ZERO;
        send_page(&layout, &mut udma, &mut mem, &mut port, 0, 0, now);
        let last = send_page(&layout, &mut udma, &mut mem, &mut port, 1, PAGE_SIZE, now);
        assert!(last.started());

        // Wait for the last transfer only (§7: "the user process need only
        // wait for the completion of the last transfer").
        let src1 = layout.proxy_of_phys(PhysAddr::new(PAGE_SIZE)).unwrap();
        let mid = now + udma.engine().duration_for(PAGE_SIZE); // first done
        let status = udma.handle_load(src1, mid, &mut mem, &mut port);
        assert!(status.matches, "second transfer still pending: {status}");
        let done = udma.drained_at();
        let status = udma.handle_load(src1, done, &mut mem, &mut port);
        assert!(!status.matches);
        assert!(status.invalid);
    }

    #[test]
    fn wrong_space_still_detected() {
        let (layout, mut mem, mut port, mut udma) = setup(4);
        let a = layout.proxy_of_phys(PhysAddr::new(0x1000)).unwrap();
        let b = layout.proxy_of_phys(PhysAddr::new(0x2000)).unwrap();
        udma.handle_store(a, 8, SimTime::ZERO, &mut mem, &mut port);
        let status = udma.handle_load(b, SimTime::ZERO, &mut mem, &mut port);
        assert!(status.wrong_space);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let layout = Layout::new(PAGE_SIZE, PAGE_SIZE);
        let _ = QueuedUdma::new(layout, DmaTiming::default(), 0);
    }
}
