//! The assembled SHRIMP multicomputer: nodes, fabric, and the receive-side
//! EISA DMA logic that completes "deliberate update".

use std::error::Error;
use std::fmt;

use shrimp_machine::MachineConfig;
use shrimp_mem::{PhysAddr, VirtAddr, PAGE_SIZE};
use shrimp_net::{FabricShard, Interconnect, LinkParams, NodeId, PacketClass};
use shrimp_os::{NodeConfig, Pid, Trap, UdmaXferResult};
use shrimp_sim::{FlightRecorder, MetricId, MetricSet, SimTime};

use crate::engine::{DeliveryCore, Lane, SendCore};
use crate::{Nic, Nipt, SendOp, ShrimpNode};

/// Configuration shared by every node of the multicomputer.
#[derive(Clone, Debug)]
pub struct MulticomputerConfig {
    /// Per-node kernel/hardware configuration.
    pub node: NodeConfig,
    /// Backplane link parameters.
    pub link: LinkParams,
    /// NIPT entries per NIC (the real board: 32K).
    pub nipt_entries: usize,
    /// Passive-receiver clock model: when `true` (default), applying a
    /// delivery advances an idle receiver's clock to the delivery
    /// completion, giving causal local timestamps for request/reply
    /// protocols. Set `false` for throughput experiments where every node
    /// actively streams — receivers then keep their own timelines and
    /// flows overlap fully (measure with [`Multicomputer::last_delivery`]).
    pub passive_receivers: bool,
}

impl Default for MulticomputerConfig {
    fn default() -> Self {
        MulticomputerConfig {
            node: NodeConfig::default(),
            link: LinkParams::default(),
            nipt_entries: Nipt::SHRIMP_ENTRIES,
            passive_receivers: true,
        }
    }
}

/// Errors from multicomputer operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShrimpError {
    /// A kernel trap on some node.
    Trap(Trap),
    /// A node index outside the machine.
    NoSuchNode(usize),
}

impl fmt::Display for ShrimpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShrimpError::Trap(t) => write!(f, "{t}"),
            ShrimpError::NoSuchNode(i) => write!(f, "no such node: {i}"),
        }
    }
}

impl Error for ShrimpError {}

impl From<Trap> for ShrimpError {
    fn from(t: Trap) -> Self {
        ShrimpError::Trap(t)
    }
}

/// The SHRIMP multicomputer.
///
/// Owns every node plus the interconnect, and models the receive path: a
/// delivered packet occupies the receiver's EISA bus for its payload time,
/// then its data appears in the receiver's physical memory at the packet's
/// destination physical address — no receiving CPU involvement, exactly the
/// deliberate-update semantics of §8.
///
/// The receiver is modelled as passive: applying a delivery advances the
/// receiving node's clock to the delivery completion if that node was idle
/// earlier than it (a node busy past that instant is unaffected).
///
/// Both halves of the fast path live in one place — the crate-internal
/// `SendCore` and `DeliveryCore` (`engine.rs`). The machine owns one of
/// each plus the fabric's shard; the serial driver runs them over every
/// lane, and [`Multicomputer::run`] lends them, with the lanes in place,
/// to its shard 0. The machine *is* shard 0: a one-thread run splits,
/// copies and merges nothing.
#[derive(Debug)]
pub struct Multicomputer {
    /// Every node with its receive-side state (`engine::Lane`).
    pub(crate) lanes: Vec<Lane>,
    pub(crate) fabric: Interconnect,
    /// The machine's receive-side delivery core (shard 0's in a run).
    pub(crate) core: DeliveryCore,
    /// The machine's send-side core (shard 0's in a run).
    sender: SendCore,
    /// Forced windows-per-barrier count for parallel runs (`None` =
    /// adaptive from plan depth; see [`Multicomputer::set_epoch_windows`]).
    pub(crate) epoch_windows: Option<usize>,
    /// Host phase clock for epoch-phase breakdowns (`None` = timing off;
    /// see [`Multicomputer::set_phase_clock`]).
    pub(crate) phase_clock: Option<fn() -> u64>,
    /// Merged epoch-phase breakdown of the most recent parallel run.
    pub(crate) phases: crate::parallel::PhaseBreakdown,
    /// Epoch count of the most recent parallel run.
    pub(crate) last_epochs: u64,
    /// Per-node engine work of the most recent parallel run: program
    /// steps, chunk executions and bound reads.
    pub(crate) last_node_visits: u64,
}

impl Multicomputer {
    /// Builds an `n`-node machine.
    pub fn new(n: u16, config: MulticomputerConfig) -> Self {
        let header = config.node.machine.cost.packet_header;
        let nodes: Vec<ShrimpNode> = (0..n)
            .map(|i| {
                let id = NodeId::new(i);
                ShrimpNode::new(id, config.node.clone(), Nic::new(id, config.nipt_entries, header))
            })
            .collect();
        // The lane table is allocated after the nodes' memory: freed last
        // when the machine drops, it keeps the allocator from returning
        // that memory to the OS, so the next machine built reuses it
        // instead of faulting in fresh pages.
        let lanes = nodes.into_iter().map(Lane::new).collect();
        Multicomputer {
            lanes,
            fabric: Interconnect::new(n, config.link),
            // Room for every lane on the wake list: shard 0 of a run
            // collects here.
            core: DeliveryCore::new(
                config.passive_receivers,
                n.into(),
                FlightRecorder::new(Self::TRACE_SPANS),
            ),
            sender: SendCore::new(0, n.into(), 1, 0),
            epoch_windows: None,
            phase_clock: None,
            phases: crate::parallel::PhaseBreakdown::default(),
            last_epochs: 0,
            last_node_visits: 0,
        }
    }

    /// Capacity of the flight recorder's span ring: the newest this many
    /// transfer spans are kept for export; summary histograms see every
    /// span regardless.
    pub const TRACE_SPANS: usize = 65536;

    /// Enables or disables transfer tracing machine-wide: the flight
    /// recorder plus every node's typed machine event ring. Enabling
    /// reserves all ring storage up front, so the data plane stays
    /// allocation-free afterwards. Tracing is pure observation — it never
    /// advances a clock, so `state_digest` is unchanged by it.
    pub fn set_tracing(&mut self, enabled: bool) {
        self.core.recorder.set_enabled(enabled);
        for lane in &mut self.lanes {
            lane.node.os_mut().machine_mut().set_tracing(enabled);
        }
    }

    /// Whether transfer tracing is on.
    pub fn tracing(&self) -> bool {
        self.core.tracing()
    }

    /// The flight recorder (span inspection; see
    /// [`Multicomputer::export_trace_bin`] for the exported form).
    pub fn recorder(&self) -> &FlightRecorder {
        &self.core.recorder
    }

    /// A convenience config for benchmarks: default everything but the
    /// given machine config.
    pub fn with_machine_config(n: u16, machine: MachineConfig) -> Self {
        Multicomputer::new(
            n,
            MulticomputerConfig {
                node: NodeConfig { machine, user_frames: None },
                ..MulticomputerConfig::default()
            },
        )
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.lanes.len()
    }

    /// Immutable node access.
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range index.
    pub fn node(&self, i: usize) -> &ShrimpNode {
        &self.lanes[i].node
    }

    /// Mutable node access.
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range index.
    pub fn node_mut(&mut self, i: usize) -> &mut ShrimpNode {
        &mut self.lanes[i].node
    }

    /// The interconnect (statistics inspection).
    pub fn fabric(&self) -> &Interconnect {
        &self.fabric
    }

    /// When the last delivery to node `i` completed.
    pub fn last_delivery(&self, i: usize) -> SimTime {
        self.lanes[i].rx.last_delivery
    }

    /// Packets dropped for naming physical addresses outside the
    /// receiver's memory (a corrupted NIPT entry would do this).
    pub fn dropped_packets(&self) -> u64 {
        self.core.counters.drops.get()
    }

    /// FNV-1a digest of the machine's externally visible state: every
    /// node's clock, its last delivery completion, and its full physical
    /// memory contents. Two runs of the same workload must digest
    /// identically regardless of host thread count — the determinism
    /// suite asserts it and `BENCH_throughput.json` records it.
    pub fn state_digest(&self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        fn eat(mut h: u64, bytes: &[u8]) -> u64 {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(PRIME);
            }
            h
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for lane in &self.lanes {
            let node = &lane.node;
            h = eat(h, &node.os().machine().now().as_nanos().to_le_bytes());
            h = eat(h, &lane.rx.last_delivery.as_nanos().to_le_bytes());
            let mem = node.os().machine().mem();
            let bytes = mem
                .read(shrimp_mem::PhysAddr::new(0), mem.size())
                .expect("whole-memory read is in range");
            h = eat(h, bytes);
        }
        h
    }

    /// Deterministic machine-wide metrics snapshot: the one registry
    /// every simulator counter is harvested into.
    ///
    /// Every metric registered here is a pure function of the simulated
    /// timeline — per node (indexed by node number) the kernel, machine,
    /// MMU/TLB, UDMA controller, DMA engine, NIC and NIPT counters (see
    /// [`shrimp_os::Node::harvest_metrics`]); per link the wire bytes;
    /// and machine-wide the fabric's traffic counters and the delivery
    /// core's — registered in a fixed order (node by node, then link by
    /// link, then scalars) and rendered sorted by [`MetricId`]. The same
    /// workload therefore produces **byte-identical**
    /// [`MetricSet::render_text`] / [`MetricSet::render_json`] output at
    /// any thread count; the metrics suite pins this on a 256-node mesh.
    /// One pair is a batching figure rather than a timeline one:
    /// `delivery/runs_committed` and `delivery/run_splits` count how the
    /// sends were batched, so a per-message [`Multicomputer::send`] loop
    /// and a batched run of the same timeline differ there (and only
    /// there).
    ///
    /// Host- and schedule-variant observability (peak staged depth, buffer-pool
    /// high water, phase timings) deliberately lives in the separate
    /// [`Multicomputer::engine_metrics`] set, outside this guarantee.
    pub fn metrics_snapshot(&self) -> MetricSet {
        let mut set = MetricSet::default();
        for (i, lane) in self.lanes.iter().enumerate() {
            lane.node.os().harvest_metrics(&mut set, Some(i as u32));
        }
        for (i, bytes) in self.fabric.wire_bytes_per_link().enumerate() {
            set.counter(MetricId::indexed("link", "wire_bytes", i as u32), bytes);
        }
        self.fabric.counters().harvest(&mut set, "fabric", None);
        self.core.counters.harvest(&mut set, "delivery", None);
        set
    }

    /// The change in the deterministic snapshot since `base` (counters
    /// subtract; gauges and histograms report current state) — interval
    /// reporting for long workloads.
    pub fn snapshot_delta(&self, base: &MetricSet) -> MetricSet {
        self.metrics_snapshot().delta(base)
    }

    /// Host- and schedule-variant engine observability, separate from the
    /// pinned [`Multicomputer::metrics_snapshot`]: peak staged depth,
    /// per-node buffer-pool demand and TLB lookup shortcuts, the last
    /// run's epoch count and node visits (program steps, chunk executions
    /// and bound reads), and (when a phase clock is installed) the
    /// host-time epoch-phase histograms. Values here may legitimately
    /// differ across thread counts and hosts.
    pub fn engine_metrics(&self) -> MetricSet {
        let mut set = MetricSet::with_capacity(3 * self.lanes.len() + 9);
        for (i, lane) in self.lanes.iter().enumerate() {
            let i = i as u32;
            let machine = lane.node.os().machine();
            let pool = machine.device().buf_pool();
            set.gauge(MetricId::indexed("buf_pool", "in_use", i), pool.in_use_gauge());
            set.counter(MetricId::indexed("buf_pool", "exhaustion", i), pool.exhaustion_stalls());
            set.counter(MetricId::indexed("tlb", "last_hits", i), machine.mmu().tlb().last_hits());
        }
        // Peak staged entries. The id predates staging by destination: it
        // named the calendar wheel the fabric once staged into, and
        // benchmark reports read it under that name.
        set.counter(MetricId::scalar("wheel", "depth_high"), self.fabric.staged_depth_high());
        set.counter(MetricId::scalar("engine", "epochs"), self.last_epochs);
        set.counter(MetricId::scalar("engine", "node_visits"), self.last_node_visits);
        let p = &self.phases;
        set.hist(MetricId::scalar("phase", "execute_ns"), p.execute.clone());
        set.hist(MetricId::scalar("phase", "barrier_ns"), p.barrier.clone());
        set.hist(MetricId::scalar("phase", "merge_ns"), p.merge.clone());
        set.hist(MetricId::scalar("phase", "commit_ns"), p.commit.clone());
        set
    }

    /// Exports the recorded transfer spans in the binary trace format
    /// (`SHRTRC01`, layout in [`crate::trace`]): a fixed header carrying
    /// the node count, span count and per-stage latency summary, then one
    /// 64-byte record per span in merge-key order `(link_ready, id)`, the
    /// engine's packet commit order.
    ///
    /// The same workload exports byte-identical traces at any thread
    /// count, and from the serial driver too **while the ring holds every
    /// span** ([`Multicomputer::TRACE_SPANS`]): past that, the engine
    /// keeps the newest spans by merge key, the serial driver (which
    /// records per `propagate`, in commit order) its newest by commit
    /// order, and the two may differ.
    /// Convert to Perfetto JSON with [`crate::trace_bin_to_json`]; analyze
    /// with the `shrimp_trace` binary. Export is off the hot path.
    pub fn export_trace_bin(&self) -> Vec<u8> {
        crate::trace::encode(self.lanes.len() as u16, &self.core.recorder)
    }

    /// Spawns a process on node `i`.
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range node.
    pub fn spawn_process(&mut self, i: usize) -> Pid {
        self.lanes[i].node.os_mut().spawn()
    }

    /// Maps `pages` writable pages at `va_base` for `pid` on node `i`.
    ///
    /// # Errors
    ///
    /// Node bounds or kernel traps.
    pub fn map_user_buffer(
        &mut self,
        i: usize,
        pid: Pid,
        va_base: u64,
        pages: u64,
    ) -> Result<(), ShrimpError> {
        self.check_node(i)?;
        self.lanes[i].node.os_mut().mmap(pid, va_base, pages, true)?;
        Ok(())
    }

    /// Bulk user-memory write on node `i`.
    ///
    /// # Errors
    ///
    /// Node bounds or kernel traps.
    pub fn write_user(
        &mut self,
        i: usize,
        pid: Pid,
        va: VirtAddr,
        data: &[u8],
    ) -> Result<(), ShrimpError> {
        self.check_node(i)?;
        self.lanes[i].node.os_mut().write_user(pid, va, data)?;
        Ok(())
    }

    /// Bulk user-memory read on node `i`.
    ///
    /// # Errors
    ///
    /// Node bounds or kernel traps.
    pub fn read_user(
        &mut self,
        i: usize,
        pid: Pid,
        va: VirtAddr,
        len: u64,
    ) -> Result<Vec<u8>, ShrimpError> {
        self.check_node(i)?;
        Ok(self.lanes[i].node.os_mut().read_user(pid, va, len)?)
    }

    /// The physical address backing `va` in `pid`'s address space on node
    /// `i`. Traffic programs use this to learn where exported receive
    /// buffers live in physical memory — the address deliveries into those
    /// buffers will name ([`DeliveryEvent::dst_paddr`]). Only meaningful
    /// for *wired* (exported) pages, whose frames cannot move.
    ///
    /// [`DeliveryEvent::dst_paddr`]: crate::DeliveryEvent::dst_paddr
    ///
    /// # Errors
    ///
    /// Node bounds, unknown process, or a page that is not resident.
    pub fn user_paddr(&self, i: usize, pid: Pid, va: VirtAddr) -> Result<PhysAddr, ShrimpError> {
        self.check_node(i)?;
        let proc = self.lanes[i].node.os().process(pid)?;
        let pfn = proc
            .vpages
            .get(&va.page())
            .and_then(shrimp_os::VPage::pfn)
            .ok_or(Trap::SegFault { pid, va })?;
        Ok(pfn.addr(va.page_offset()))
    }

    /// Establishes a deliberate-update mapping: wires `pages` pages of the
    /// receiver's buffer, installs NIPT entries on the sender, and grants
    /// the sender the corresponding device proxy pages. Returns the first
    /// device proxy page the sender should address.
    ///
    /// # Errors
    ///
    /// Node bounds or kernel traps on either side.
    pub fn export(
        &mut self,
        recv_node: usize,
        recv_pid: Pid,
        recv_va: VirtAddr,
        pages: u64,
        send_node: usize,
        send_pid: Pid,
    ) -> Result<u64, ShrimpError> {
        self.check_node(recv_node)?;
        self.check_node(send_node)?;
        let frames = self.lanes[recv_node].node.export_pages(recv_pid, recv_va, pages)?;
        let dst = self.lanes[recv_node].node.id();
        let dev_page = self.lanes[send_node].node.import_mapping(send_pid, dst, &frames, 0)?;
        Ok(dev_page)
    }

    /// Establishes an **automatic update** binding (\[5\], retained per §9):
    /// `pages` pages of the sender's buffer are bound page-for-page to the
    /// receiver's buffer; every subsequent ordinary store to the bound
    /// pages is snooped off the memory bus by the NIC and propagated
    /// automatically — no per-transfer initiation at all.
    ///
    /// Both sides are wired (the fixed source→destination page mapping the
    /// strategy relies on). Use [`Multicomputer::unbind_auto_update`] to
    /// tear the binding down before the sender pages may move again.
    ///
    /// # Errors
    ///
    /// Node bounds or kernel traps on either side.
    #[allow(clippy::too_many_arguments)]
    pub fn bind_auto_update(
        &mut self,
        send_node: usize,
        send_pid: Pid,
        send_va: VirtAddr,
        pages: u64,
        recv_node: usize,
        recv_pid: Pid,
        recv_va: VirtAddr,
    ) -> Result<(), ShrimpError> {
        self.check_node(send_node)?;
        self.check_node(recv_node)?;
        let dst_frames = self.lanes[recv_node].node.export_pages(recv_pid, recv_va, pages)?;
        let src_frames =
            self.lanes[send_node].node.os_mut().wire_pages(send_pid, send_va, pages)?;
        let dst_id = self.lanes[recv_node].node.id();
        let nic = self.lanes[send_node].node.os_mut().machine_mut().device_mut();
        for (src, dst) in src_frames.into_iter().zip(dst_frames) {
            nic.bind_auto_update(src, crate::NiptEntry { node: dst_id, pfn: dst });
        }
        Ok(())
    }

    /// Removes automatic-update bindings and unwires the sender pages.
    ///
    /// # Errors
    ///
    /// Node bounds or kernel traps.
    pub fn unbind_auto_update(
        &mut self,
        send_node: usize,
        send_pid: Pid,
        send_va: VirtAddr,
        pages: u64,
    ) -> Result<(), ShrimpError> {
        self.check_node(send_node)?;
        for i in 0..pages {
            let va = send_va + i * PAGE_SIZE;
            let pfn = self.lanes[send_node]
                .node
                .os()
                .process(send_pid)?
                .vpages
                .get(&va.page())
                .and_then(|v| v.pfn());
            if let Some(pfn) = pfn {
                self.lanes[send_node]
                    .node
                    .os_mut()
                    .machine_mut()
                    .device_mut()
                    .unbind_auto_update(pfn);
            }
        }
        self.lanes[send_node].node.os_mut().unwire_pages(send_pid, send_va, pages);
        Ok(())
    }

    /// An ordinary user store that, when the page is bound for automatic
    /// update, also propagates to the remote node. (Any store does; this
    /// helper just pairs the store with packet propagation.)
    ///
    /// # Errors
    ///
    /// Node bounds or kernel traps.
    pub fn store_user(
        &mut self,
        i: usize,
        pid: Pid,
        va: VirtAddr,
        value: i64,
    ) -> Result<(), ShrimpError> {
        self.check_node(i)?;
        self.lanes[i].node.os_mut().user_store(pid, va, value)?;
        self.propagate();
        Ok(())
    }

    /// Forces the windows-per-barrier count for [`Multicomputer::run`]
    /// (clamped to `[1, MAX_EPOCH_WINDOWS]`), or restores the default
    /// adaptive selection with `None`. The count only sets how much work
    /// each shard executes between barrier crossings; the simulated
    /// timeline, digests and traces are identical at every value — the
    /// K-sweep determinism tests pin exactly that.
    pub fn set_epoch_windows(&mut self, windows: Option<usize>) {
        self.epoch_windows = windows;
    }

    /// The forced windows-per-barrier count, if any.
    pub fn epoch_windows(&self) -> Option<usize> {
        self.epoch_windows
    }

    /// Installs (or removes) a host phase clock: a monotonic nanosecond
    /// counter sampled by every shard around each epoch phase of
    /// [`Multicomputer::run`]. The simulator itself never reads host
    /// time — the clock is injected by the benchmark layer, keeping the
    /// core deterministic — and the samples land in
    /// [`Multicomputer::phase_breakdown`].
    pub fn set_phase_clock(&mut self, clock: Option<fn() -> u64>) {
        self.phase_clock = clock;
    }

    /// Host-time epoch-phase breakdown of the most recent
    /// [`Multicomputer::run`]. Empty unless a phase clock was installed.
    pub fn phase_breakdown(&self) -> &crate::parallel::PhaseBreakdown {
        &self.phases
    }

    /// A user-level deliberate-update send: `nbytes` from `src_va` on node
    /// `i` through device proxy page `dev_page` + `dev_off`, then packet
    /// propagation.
    ///
    /// # Errors
    ///
    /// Node bounds or kernel traps.
    // lint:hot_path
    pub fn send(
        &mut self,
        i: usize,
        pid: Pid,
        src_va: VirtAddr,
        dev_page: u64,
        dev_off: u64,
        nbytes: u64,
    ) -> Result<UdmaXferResult, ShrimpError> {
        self.check_node(i)?;
        let op = SendOp { pid, src_va, dev_page, dev_off, nbytes, class: PacketClass::User };
        let result = self.sender.send(&mut self.lanes[i].node, self.fabric.shard_mut(), &op)?;
        self.propagate();
        Ok(result)
    }

    /// Sends `data` by programmed I/O through the NIC's memory-mapped FIFO
    /// window (the §9 baseline). The MMIO page must be reachable; the
    /// kernel maps it for the process on first use.
    ///
    /// # Errors
    ///
    /// Node bounds, kernel traps, or a PIO status error surfaced as
    /// [`Trap::DeviceError`] — including `data` that does not fit the
    /// destination page from `dev_off`, which the NIC's COMMIT check
    /// rejects with status 1.
    pub fn send_pio(
        &mut self,
        i: usize,
        pid: Pid,
        dev_page: u64,
        dev_off: u64,
        data: &[u8],
    ) -> Result<(), ShrimpError> {
        self.check_node(i)?;
        self.ensure_mmio_mapped(i, pid)?;
        let base = shrimp_mem::MMIO_BASE;
        let os = self.lanes[i].node.os_mut();
        os.user_store(pid, VirtAddr::new(base + crate::NIC_MMIO::DEST_PAGE), dev_page as i64)?;
        os.user_store(pid, VirtAddr::new(base + crate::NIC_MMIO::DEST_OFFSET), dev_off as i64)?;
        for chunk in data.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            os.user_store(
                pid,
                VirtAddr::new(base + crate::NIC_MMIO::DATA),
                i64::from_le_bytes(word),
            )?;
        }
        os.user_store(pid, VirtAddr::new(base + crate::NIC_MMIO::COMMIT), data.len() as i64)?;
        let status = os.user_load(pid, VirtAddr::new(base + crate::NIC_MMIO::STATUS))?;
        if status != 0 {
            return Err(ShrimpError::Trap(Trap::DeviceError { code: status as u16 }));
        }
        self.propagate();
        Ok(())
    }

    /// Maps the NIC's MMIO window into `pid` (idempotent).
    fn ensure_mmio_mapped(&mut self, i: usize, pid: Pid) -> Result<(), ShrimpError> {
        use shrimp_mmu::{Pte, PteFlags};
        let os = self.lanes[i].node.os_mut();
        let vpn = VirtAddr::new(shrimp_mem::MMIO_BASE).page();
        let needs_map = os.process(pid)?.pt.get(vpn).is_none();
        if needs_map {
            let flags = PteFlags::VALID | PteFlags::USER | PteFlags::WRITABLE | PteFlags::UNCACHED;
            // Identity map of the MMIO window's first page.
            let pte = Pte::new(shrimp_mem::Pfn::new(vpn.raw()), flags);
            // Route through the kernel: a tiny syscall-ish cost.
            let cost = os.machine().cost().syscall;
            os.machine_mut().advance(cost);
            os.kernel_map_page(pid, vpn, pte)?;
        }
        Ok(())
    }

    /// Injects every NIC's built packets into the fabric and applies all
    /// deliveries: receive-side EISA DMA into physical memory.
    pub fn propagate(&mut self) {
        let fabric = self.fabric.shard_mut();
        // Flush every NIC (automatic-update and PIO output, or anything a
        // direct `udma_send` left behind) through the shared send core.
        for lane in &mut self.lanes {
            self.sender.flush(&mut lane.node, fabric);
        }
        // Deliver everything currently in flight (new sends only happen
        // from CPU activity, which happens between propagate calls). The
        // drain itself is the shared `DeliveryCore`, run with an unbounded
        // horizon: the serial driver is the one-shard instantiation.
        self.core.commit_due(fabric, &mut self.lanes, 0, None);
    }

    /// Advances every node's clock to the global maximum (a barrier) and
    /// flushes in-flight traffic. Returns the synchronized instant. Use
    /// before timing multi-node phases so flows start together.
    pub fn barrier_sync(&mut self) -> SimTime {
        self.run_until_quiet();
        let horizon = self
            .lanes
            .iter()
            .map(|l| l.node.os().machine().now())
            .max()
            .expect("at least one node");
        for lane in &mut self.lanes {
            lane.node.os_mut().machine_mut().advance_to(horizon);
        }
        horizon
    }

    /// Runs until no packets are in flight and no NIC holds built packets.
    /// One [`Multicomputer::propagate`] is enough: it flushes every NIC
    /// and commits with no horizon, and delivery writes memory without
    /// building packets, so nothing is left for a second pass.
    pub fn run_until_quiet(&mut self) {
        self.propagate();
        debug_assert!(
            self.fabric.in_flight_count() == 0
                && self.lanes.iter().all(|l| l.node.os().machine().device().outgoing_len() == 0),
            "propagate left traffic pending"
        );
    }

    /// Lends every lane, the fabric's own shard and both cores to shard 0
    /// of a run of `shards` blocks of `per_shard` lanes (`SendCore::reshard`);
    /// lending with `(node_count, 1, 0)` restores the serial routing.
    pub(crate) fn lend(
        &mut self,
        per_shard: usize,
        shards: usize,
        batch: usize,
    ) -> (&mut [Lane], &mut FabricShard, &mut DeliveryCore, &mut SendCore) {
        self.sender.reshard(per_shard, shards, batch);
        (&mut self.lanes, self.fabric.shard_mut(), &mut self.core, &mut self.sender)
    }

    pub(crate) fn check_node(&self, i: usize) -> Result<(), ShrimpError> {
        if i < self.lanes.len() {
            Ok(())
        } else {
            Err(ShrimpError::NoSuchNode(i))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shrimp_sim::SimDuration as SD;

    fn two_nodes() -> (Multicomputer, Pid, Pid, u64) {
        let mut mc = Multicomputer::new(2, MulticomputerConfig::default());
        let s = mc.spawn_process(0);
        let r = mc.spawn_process(1);
        mc.map_user_buffer(0, s, 0x10000, 4).unwrap();
        mc.map_user_buffer(1, r, 0x40000, 4).unwrap();
        let dev_page = mc.export(1, r, VirtAddr::new(0x40000), 4, 0, s).unwrap();
        (mc, s, r, dev_page)
    }

    #[test]
    fn deliberate_update_end_to_end() {
        let (mut mc, s, r, dev_page) = two_nodes();
        mc.write_user(0, s, VirtAddr::new(0x10000), b"hello remote node!!!").unwrap();
        let result = mc.send(0, s, VirtAddr::new(0x10000), dev_page, 0, 20).unwrap();
        assert!(result.transfers >= 1);
        let got = mc.read_user(1, r, VirtAddr::new(0x40000), 20).unwrap();
        assert_eq!(got, b"hello remote node!!!");
        assert!(mc.last_delivery(1) > SimTime::ZERO);
        assert_eq!(mc.dropped_packets(), 0);
    }

    #[test]
    fn unaligned_length_is_rejected_by_the_nic() {
        let (mut mc, s, _r, dev_page) = two_nodes();
        mc.write_user(0, s, VirtAddr::new(0x10000), b"abc").unwrap();
        // 3 bytes violates the §8 4-byte alignment rule.
        let err = mc.send(0, s, VirtAddr::new(0x10000), dev_page, 0, 3).unwrap_err();
        assert!(matches!(err, ShrimpError::Trap(Trap::DeviceError { .. })));
    }

    #[test]
    fn multi_page_message_lands_contiguously() {
        let (mut mc, s, r, dev_page) = two_nodes();
        let data: Vec<u8> = (0..2 * PAGE_SIZE).map(|i| (i % 249) as u8).collect();
        mc.write_user(0, s, VirtAddr::new(0x10000), &data).unwrap();
        mc.send(0, s, VirtAddr::new(0x10000), dev_page, 0, data.len() as u64).unwrap();
        let got = mc.read_user(1, r, VirtAddr::new(0x40000), data.len() as u64).unwrap();
        assert_eq!(got, data);
    }

    #[test]
    fn offset_send_lands_at_offset() {
        let (mut mc, s, r, dev_page) = two_nodes();
        mc.write_user(0, s, VirtAddr::new(0x10000), &[7u8; 8]).unwrap();
        mc.send(0, s, VirtAddr::new(0x10000), dev_page, 0x100, 8).unwrap();
        let got = mc.read_user(1, r, VirtAddr::new(0x40000 + 0x100), 8).unwrap();
        assert_eq!(got, [7u8; 8]);
        // Surrounding bytes untouched.
        assert_eq!(mc.read_user(1, r, VirtAddr::new(0x40000), 8).unwrap(), [0u8; 8]);
    }

    #[test]
    fn pio_send_arrives() {
        let (mut mc, s, r, dev_page) = two_nodes();
        mc.send_pio(0, s, dev_page, 0x40, b"pio bytes!!!").unwrap();
        let got = mc.read_user(1, r, VirtAddr::new(0x40040), 12).unwrap();
        assert_eq!(got, b"pio bytes!!!");
    }

    #[test]
    fn oversize_pio_is_a_device_error_not_a_panic() {
        let (mut mc, s, r, dev_page) = two_nodes();
        let too_big = vec![0x5a; PAGE_SIZE as usize + 8];
        let past_end = (PAGE_SIZE - 8, &[0x5a; 16][..]);
        for (off, data) in [(0, &too_big[..]), past_end, (u64::MAX, &[0x5a; 8][..])] {
            let err = mc.send_pio(0, s, dev_page, off, data).unwrap_err();
            assert_eq!(err, ShrimpError::Trap(Trap::DeviceError { code: 1 }), "offset {off:#x}");
        }
        // The rejected commits left nothing behind: a normal send delivers.
        mc.write_user(0, s, VirtAddr::new(0x10000), b"still works!").unwrap();
        mc.send(0, s, VirtAddr::new(0x10000), dev_page, 0, 12).unwrap();
        assert_eq!(mc.read_user(1, r, VirtAddr::new(0x40000), 12).unwrap(), b"still works!");
        assert_eq!(mc.dropped_packets(), 0);
    }

    #[test]
    fn pio_latency_beats_udma_for_tiny_messages() {
        let (mut mc, s, _r, dev_page) = two_nodes();
        mc.write_user(0, s, VirtAddr::new(0x10000), &[1u8; 16]).unwrap();
        // Warm both paths.
        mc.send(0, s, VirtAddr::new(0x10000), dev_page, 0, 16).unwrap();
        mc.send_pio(0, s, dev_page, 0x20, &[1u8; 16]).unwrap();

        let t0 = mc.node(0).os().machine().now();
        mc.send_pio(0, s, dev_page, 0x20, &[1u8; 16]).unwrap();
        let pio = mc.node(0).os().machine().now() - t0;

        let t0 = mc.node(0).os().machine().now();
        mc.send(0, s, VirtAddr::new(0x10000), dev_page, 0, 16).unwrap();
        let udma = mc.node(0).os().machine().now() - t0;

        assert!(pio < udma, "16B: pio {pio} should beat udma {udma} (§9)");
    }

    #[test]
    fn bidirectional_traffic() {
        let mut mc = Multicomputer::new(2, MulticomputerConfig::default());
        let a = mc.spawn_process(0);
        let b = mc.spawn_process(1);
        mc.map_user_buffer(0, a, 0x10000, 2).unwrap();
        mc.map_user_buffer(1, b, 0x10000, 2).unwrap();
        let to_b = mc.export(1, b, VirtAddr::new(0x11000), 1, 0, a).unwrap();
        let to_a = mc.export(0, a, VirtAddr::new(0x11000), 1, 1, b).unwrap();

        mc.write_user(0, a, VirtAddr::new(0x10000), b"ping").unwrap();
        mc.send(0, a, VirtAddr::new(0x10000), to_b, 0, 4).unwrap();
        assert_eq!(mc.read_user(1, b, VirtAddr::new(0x11000), 4).unwrap(), b"ping");

        mc.write_user(1, b, VirtAddr::new(0x10000), b"pong").unwrap();
        mc.send(1, b, VirtAddr::new(0x10000), to_a, 0, 4).unwrap();
        assert_eq!(mc.read_user(0, a, VirtAddr::new(0x11000), 4).unwrap(), b"pong");
    }

    #[test]
    fn four_node_all_to_one() {
        let mut mc = Multicomputer::new(4, MulticomputerConfig::default());
        let recv = mc.spawn_process(3);
        mc.map_user_buffer(3, recv, 0x40000, 3).unwrap();
        let mut pids = Vec::new();
        for i in 0..3usize {
            let pid = mc.spawn_process(i);
            mc.map_user_buffer(i, pid, 0x10000, 1).unwrap();
            let dev = mc
                .export(3, recv, VirtAddr::new(0x40000 + i as u64 * PAGE_SIZE), 1, i, pid)
                .unwrap();
            pids.push((pid, dev));
        }
        for (i, &(pid, dev)) in pids.iter().enumerate() {
            let msg = vec![0x30 + i as u8; 64];
            mc.write_user(i, pid, VirtAddr::new(0x10000), &msg).unwrap();
            mc.send(i, pid, VirtAddr::new(0x10000), dev, 0, 64).unwrap();
        }
        mc.run_until_quiet();
        for i in 0..3u64 {
            let got = mc.read_user(3, recv, VirtAddr::new(0x40000 + i * PAGE_SIZE), 64).unwrap();
            assert_eq!(got, vec![0x30 + i as u8; 64], "sender {i}");
        }
    }

    #[test]
    fn automatic_update_propagates_ordinary_stores() {
        let mut mc = Multicomputer::new(2, MulticomputerConfig::default());
        let a = mc.spawn_process(0);
        let b = mc.spawn_process(1);
        mc.map_user_buffer(0, a, 0x10000, 2).unwrap();
        mc.map_user_buffer(1, b, 0x30000, 2).unwrap();
        mc.bind_auto_update(0, a, VirtAddr::new(0x10000), 2, 1, b, VirtAddr::new(0x30000)).unwrap();

        // An ordinary store — no STORE/LOAD initiation sequence at all.
        mc.store_user(0, a, VirtAddr::new(0x10008), 0x1122_3344).unwrap();
        let got = mc.read_user(1, b, VirtAddr::new(0x30008), 8).unwrap();
        assert_eq!(u64::from_le_bytes(got.try_into().unwrap()), 0x1122_3344);

        // Bulk writes propagate too (snooped as bursts), page-for-page.
        mc.write_user(0, a, VirtAddr::new(0x10000 + PAGE_SIZE), b"second page data").unwrap();
        mc.propagate();
        let got = mc.read_user(1, b, VirtAddr::new(0x30000 + PAGE_SIZE), 16).unwrap();
        assert_eq!(got, b"second page data");
        assert!(mc.node(0).os().machine().device().counters().auto_updates.get() >= 2);
    }

    #[test]
    fn unbind_stops_propagation() {
        let mut mc = Multicomputer::new(2, MulticomputerConfig::default());
        let a = mc.spawn_process(0);
        let b = mc.spawn_process(1);
        mc.map_user_buffer(0, a, 0x10000, 1).unwrap();
        mc.map_user_buffer(1, b, 0x30000, 1).unwrap();
        mc.bind_auto_update(0, a, VirtAddr::new(0x10000), 1, 1, b, VirtAddr::new(0x30000)).unwrap();
        mc.store_user(0, a, VirtAddr::new(0x10000), 7).unwrap();
        mc.unbind_auto_update(0, a, VirtAddr::new(0x10000), 1).unwrap();
        mc.store_user(0, a, VirtAddr::new(0x10000), 99).unwrap();
        let got = mc.read_user(1, b, VirtAddr::new(0x30000), 8).unwrap();
        assert_eq!(u64::from_le_bytes(got.try_into().unwrap()), 7, "99 must not propagate");
        assert_eq!(mc.node(0).os().machine().device().auto_binding_count(), 0);
    }

    #[test]
    fn auto_update_and_deliberate_update_coexist() {
        let (mut mc, s, r, dev_page) = two_nodes();
        // Bind a separate page pair for automatic update.
        mc.map_user_buffer(0, s, 0x80000, 1).unwrap();
        mc.map_user_buffer(1, r, 0x90000, 1).unwrap();
        mc.bind_auto_update(0, s, VirtAddr::new(0x80000), 1, 1, r, VirtAddr::new(0x90000)).unwrap();

        mc.store_user(0, s, VirtAddr::new(0x80000), 42).unwrap();
        mc.write_user(0, s, VirtAddr::new(0x10000), b"explicit").unwrap();
        mc.send(0, s, VirtAddr::new(0x10000), dev_page, 0, 8).unwrap();

        assert_eq!(mc.read_user(1, r, VirtAddr::new(0x40000), 8).unwrap(), b"explicit");
        let got = mc.read_user(1, r, VirtAddr::new(0x90000), 8).unwrap();
        assert_eq!(u64::from_le_bytes(got.try_into().unwrap()), 42);
    }

    #[test]
    fn binary_trace_roundtrips_to_the_json_export() {
        use crate::{decode_trace_bin, trace_bin_to_json, TRACE_BIN_MAGIC};
        let (mut mc, s, _r, dev_page) = two_nodes();
        mc.set_tracing(true);
        mc.write_user(0, s, VirtAddr::new(0x10000), &[0xab; 256]).unwrap();
        for _ in 0..4 {
            mc.send(0, s, VirtAddr::new(0x10000), dev_page, 0, 256).unwrap();
        }
        let bin = mc.export_trace_bin();
        assert_eq!(&bin[..8], TRACE_BIN_MAGIC);
        assert_eq!(bin.len(), 192 + 4 * 64, "4 spans at 64 bytes after the 192-byte header");
        // The decoder recovers exactly the recorder's spans, in commit order.
        let decoded = decode_trace_bin(&bin).expect("well-formed buffer");
        let recorded: Vec<_> = mc.recorder().iter().copied().collect();
        assert_eq!(decoded.spans, recorded);
        assert_eq!((decoded.nodes, decoded.recorded, decoded.dropped), (2, 4, 0));
        let json = trace_bin_to_json(&bin).expect("well-formed buffer");
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4 * 5, "five stage events per span");
        assert!(json.contains("\"stats\": {\"spans\":4,\"dropped\":0"), "{json}");
        // Malformed buffers are rejected, not misparsed.
        assert!(trace_bin_to_json(&bin[..bin.len() - 1]).is_none(), "truncated");
        assert!(trace_bin_to_json(&[bin.as_slice(), &[0]].concat()).is_none(), "trailing byte");
        assert!(trace_bin_to_json(b"NOTATRACE").is_none(), "bad magic");
    }

    #[test]
    fn a_nipt_entry_outside_the_machine_drops_the_packet() {
        // Node 0 holds a mapping to node 9 of a 2-node machine: the send
        // completes, its packet counts as injected and as a fabric drop
        // (so conservation still closes), and the next valid send
        // delivers.
        let (mut mc, s, r, dev_page) = two_nodes();
        mc.map_user_buffer(1, r, 0x80000, 1).unwrap();
        let frames = mc.node_mut(1).export_pages(r, VirtAddr::new(0x80000), 1).unwrap();
        let stray = mc.node_mut(0).import_mapping(s, NodeId::new(9), &frames, 0).unwrap();
        mc.write_user(0, s, VirtAddr::new(0x10000), b"lost").unwrap();
        mc.send(0, s, VirtAddr::new(0x10000), stray, 0, 4).unwrap();
        mc.write_user(0, s, VirtAddr::new(0x10000), b"kept").unwrap();
        mc.send(0, s, VirtAddr::new(0x10000), dev_page, 0, 4).unwrap();
        assert_eq!(mc.read_user(1, r, VirtAddr::new(0x40000), 4).unwrap(), b"kept");
        let snap = mc.metrics_snapshot();
        let get = |sub, name| snap.get(sub, name, None).unwrap();
        assert_eq!(get("fabric", "packets"), 2);
        assert_eq!(get("fabric", "drops"), 1);
        assert_eq!(get("delivery", "delivered"), 1);
        assert_eq!(get("delivery", "drops"), 0);
    }

    #[test]
    fn barrier_sync_aligns_all_clocks() {
        let mut mc = Multicomputer::new(3, MulticomputerConfig::default());
        // Skew the clocks: work on node 0 only.
        let pid = mc.spawn_process(0);
        mc.map_user_buffer(0, pid, 0x10000, 4).unwrap();
        mc.write_user(0, pid, VirtAddr::new(0x10000), &[1u8; 4096]).unwrap();
        let skewed: Vec<_> = (0..3).map(|i| mc.node(i).os().machine().now()).collect();
        assert!(skewed[0] > skewed[1], "node 0 must be ahead");
        let t = mc.barrier_sync();
        for i in 0..3 {
            assert_eq!(mc.node(i).os().machine().now(), t, "node {i} not synced");
        }
        assert!(t >= skewed[0]);
    }

    #[test]
    fn no_such_node_errors() {
        let mut mc = Multicomputer::new(1, MulticomputerConfig::default());
        let pid = mc.spawn_process(0);
        assert_eq!(mc.map_user_buffer(5, pid, 0x10000, 1).unwrap_err(), ShrimpError::NoSuchNode(5));
    }

    #[test]
    fn send_time_scales_with_size() {
        let (mut mc, s, _r, dev_page) = two_nodes();
        let big = vec![0u8; PAGE_SIZE as usize];
        mc.write_user(0, s, VirtAddr::new(0x10000), &big).unwrap();
        // Warm.
        mc.send(0, s, VirtAddr::new(0x10000), dev_page, 0, 64).unwrap();
        let t0 = mc.node(0).os().machine().now();
        mc.send(0, s, VirtAddr::new(0x10000), dev_page, 0, 64).unwrap();
        let small = mc.node(0).os().machine().now() - t0;
        let t0 = mc.node(0).os().machine().now();
        mc.send(0, s, VirtAddr::new(0x10000), dev_page, 0, PAGE_SIZE).unwrap();
        let large = mc.node(0).os().machine().now() - t0;
        assert!(large > small + SD::from_us(50.0), "page send must be bus-bound");
    }
}
