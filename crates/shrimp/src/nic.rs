//! The SHRIMP network interface board (paper §8, Figure 6).
//!
//! The NIC is a UDMA device: the "EISA DMA Logic" block streams outgoing
//! message data from memory into the outgoing FIFO; the packetizer looks up
//! the destination in the NIPT ("the rightmost 15 bits of the page number
//! are used to index directly into the Network Interface Page Table"),
//! builds a header, and launches the packet.
//!
//! Everything the board builds leaves through one queue in one shape, an
//! [`OutgoingRun`]: a template packet, a member count and a stride. A
//! literal transfer, a PIO commit or an automatic-update store is a train
//! of one; a replayed message train is one train of many, built by the
//! same packetizer with one NIPT lookup. The drain
//! (`ShrimpNode::drain_nic`) stamps the status instant and the send core
//! stages each train under the key its template carries.
//!
//! The board here also exposes a memory-mapped FIFO window (the §9
//! related-work design: "the host processor communicates with the network
//! interface by reading or writing special memory locations") so the
//! programmed-I/O baseline can be measured on identical hardware.

use std::collections::BTreeMap;

use shrimp_devices::Device;
use shrimp_dma::{DevicePort, RunTiming};
use shrimp_mem::{Pfn, PhysAddr, PAGE_MASK, PAGE_SHIFT, PAGE_SIZE};
use shrimp_net::{NodeId, Packet, PacketRun};
use shrimp_sim::{BufPool, MetricId, MetricSet, SimDuration, SimTime, XferId, XferMeta};

use crate::{Nipt, NiptEntry};

shrimp_sim::counters! {
    /// Packetizer and automatic-update counts (metrics subsystem `nic`).
    pub struct NicCounters {
        /// Packets built (run members count individually).
        packets_built,
        /// Payload bytes packetized.
        bytes_sent,
        /// Snooped stores forwarded by automatic update.
        auto_updates,
        /// Bytes forwarded by automatic update.
        auto_update_bytes,
        /// Device-to-memory DMA requests (unsupported on SHRIMP).
        unsupported_reads,
        /// Programmed-I/O FIFO commits.
        pio_commits,
    }
}

/// A message train the NIC has built, ready for fabric injection: one
/// template packet (member 0, holding the shared payload) plus a member
/// count and a constant stride — the §7 gather-descriptor idea, and the
/// NIC's only outgoing shape. A literal packet is a train of one
/// (`count = 1`, `stride_ns = 0`); a replayed message train is one
/// descriptor whatever its length. Member `k` is the template with every
/// timestamp shifted by `stride × k` and the transfer sequence number
/// advanced by `k`.
#[derive(Debug)]
pub struct OutgoingRun {
    /// The train: template, member count (≥ 1) and stride.
    pub run: PacketRun,
    /// When member 0 may enter the network (member `k` follows at
    /// `ready_at + stride × k`).
    pub ready_at: SimTime,
}

/// MMIO register map of the board's programmed-I/O window.
pub mod NIC_MMIO {
    #![allow(non_snake_case)]
    /// Write: destination NIPT index for subsequent PIO sends.
    pub const DEST_PAGE: u64 = 0x00;
    /// Write: byte offset within the destination page.
    pub const DEST_OFFSET: u64 = 0x08;
    /// Write: push 8 bytes of message data into the outgoing FIFO.
    pub const DATA: u64 = 0x10;
    /// Write: commit `value` bytes of the pushed data as one packet.
    pub const COMMIT: u64 = 0x18;
    /// Read: PIO status (0 = ok, 1 = last commit failed).
    pub const STATUS: u64 = 0x20;
}

/// Errors the PIO window can latch into its status register.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PioError {
    /// No valid NIPT entry for the selected destination page.
    BadDestination,
    /// Commit length exceeded the pushed data or a page boundary.
    BadLength,
}

/// The SHRIMP network interface.
#[derive(Debug)]
pub struct Nic {
    node: NodeId,
    nipt: Nipt,
    header_cost: SimDuration,
    outgoing: Vec<OutgoingRun>,
    // Programmed-I/O window state.
    pio_dest_page: u64,
    pio_dest_offset: u64,
    pio_fifo: Vec<u8>,
    pio_status: u64,
    /// Automatic-update bindings: local source frame -> remote page.
    /// "Our current design retains the automatic update transfer strategy
    /// described in [5] which still relies upon fixed mappings between
    /// source and destination pages" (§9).
    auto_bindings: BTreeMap<Pfn, NiptEntry>,
    /// Packet-buffer pool: payload storage cycles sender → fabric →
    /// receiver → back here, so steady-state sends never allocate.
    pool: BufPool,
    /// Next flight-recorder transfer sequence number (each outgoing
    /// packet gets a fresh correlation ID).
    next_xfer: u64,
    /// Plain counter fields on the packetize/auto-update path.
    counters: NicCounters,
}

impl Nic {
    /// A NIC for `node` with `nipt_entries` NIPT slots.
    pub fn new(node: NodeId, nipt_entries: usize, header_cost: SimDuration) -> Self {
        Nic {
            node,
            nipt: Nipt::new(nipt_entries),
            header_cost,
            outgoing: Vec::new(),
            pio_dest_page: 0,
            pio_dest_offset: 0,
            pio_fifo: Vec::new(),
            pio_status: 0,
            auto_bindings: BTreeMap::new(),
            pool: BufPool::new(),
            next_xfer: 0,
            counters: NicCounters::default(),
        }
    }

    /// Binds local frame `src` for automatic update: every snooped store
    /// to the frame is forwarded to `dst` (fixed source-to-destination
    /// page mapping, \[5\]).
    pub fn bind_auto_update(&mut self, src: Pfn, dst: NiptEntry) {
        self.auto_bindings.insert(src, dst);
    }

    /// Removes an automatic-update binding; returns whether one existed.
    pub fn unbind_auto_update(&mut self, src: Pfn) -> bool {
        self.auto_bindings.remove(&src).is_some()
    }

    /// Number of active automatic-update bindings.
    pub fn auto_binding_count(&self) -> usize {
        self.auto_bindings.len()
    }

    /// Mints the correlation block for the next outgoing packet: a fresh
    /// per-NIC transfer ID (monotone per source, so it doubles as the
    /// delivery engine's merge tag — see `engine.rs`), the initiating
    /// instant, and the packetize-complete (queued) instant.
    fn stamp(&mut self, initiated_at: SimTime, queued_at: SimTime) -> XferMeta {
        let id = XferId::new(self.node.raw(), self.next_xfer);
        self.next_xfer += 1;
        XferMeta { id, initiated_at, queued_at, ..XferMeta::default() }
    }

    /// Forwards a snooped write to the bound remote page, if any.
    fn auto_forward(&mut self, pa: PhysAddr, data: &[u8], now: SimTime) {
        let Some(&NiptEntry { node, pfn }) = self.auto_bindings.get(&pa.page()) else {
            return;
        };
        // A store straddling the page end only forwards the bytes on the
        // bound page (the binding is per-page).
        let len = (data.len() as u64).min(pa.bytes_to_page_end()) as usize;
        let dst_paddr = PhysAddr::new(pfn.base().raw() + pa.page_offset());
        let mut packet =
            Packet::new(self.node, node, dst_paddr, self.pool.filled_from(&data[..len]));
        let ready_at = now + self.header_cost;
        packet.meta = self.stamp(now, ready_at);
        self.outgoing.push(OutgoingRun {
            run: PacketRun { template: packet, count: 1, stride_ns: 0 },
            ready_at,
        });
        self.counters.auto_updates.incr();
        self.counters.auto_update_bytes.add(len as u64);
    }

    /// This NIC's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The NIPT (kernel-managed).
    pub fn nipt(&self) -> &Nipt {
        &self.nipt
    }

    /// Mutable NIPT access (the kernel's export/import path).
    pub fn nipt_mut(&mut self) -> &mut Nipt {
        &mut self.nipt
    }

    /// Appends every train ready for fabric injection to `out`, keeping
    /// this NIC's queue capacity for reuse, so a caller with a persistent
    /// scratch vector drains without allocating.
    pub fn drain_outgoing_into(&mut self, out: &mut Vec<OutgoingRun>) {
        out.append(&mut self.outgoing);
    }

    /// The NIC's payload-buffer pool (test observability).
    pub fn buf_pool(&self) -> &BufPool {
        &self.pool
    }

    /// Trains queued and not yet injected (a train counts once, whatever
    /// its member count).
    pub fn outgoing_len(&self) -> usize {
        self.outgoing.len()
    }

    /// Packetizer and automatic-update counts.
    pub fn counters(&self) -> &NicCounters {
        &self.counters
    }

    /// Packetize a train of `count` identical messages of `data` for the
    /// destination named by device-relative address `dev_addr` (NIPT
    /// index ‖ page offset), `stride_ns` apart: one NIPT lookup, one pool
    /// buffer, `count` consecutive transfer IDs. `initiated_at` is when
    /// the first originating request started (the DMA transfer's
    /// initiation STORE for UDMA, `done_at` for PIO), carried into the
    /// packet's flight-recorder span; `done_at` is when its data left
    /// memory. A literal send is `count = 1, stride_ns = 0`.
    // lint:hot_path
    fn packetize(
        &mut self,
        dev_addr: u64,
        data: &[u8],
        count: u32,
        stride_ns: u32,
        initiated_at: SimTime,
        done_at: SimTime,
    ) -> Result<(), PioError> {
        let index = dev_addr >> PAGE_SHIFT;
        let offset = dev_addr & PAGE_MASK;
        let Some(NiptEntry { node, pfn }) = self.nipt.lookup(index) else {
            return Err(PioError::BadDestination);
        };
        // "The destination page number is concatenated with the offset to
        // form the destination physical address."
        let dst_paddr = PhysAddr::new(pfn.base().raw() + offset);
        // The data plane's single sender-side copy: borrowed memory bytes
        // land in a recycled pool buffer that travels to the receiver.
        let mut template = Packet::new(self.node, node, dst_paddr, self.pool.filled_from(data));
        let ready_at = done_at + self.header_cost;
        template.meta = self.stamp(initiated_at, ready_at);
        // `stamp` consumed one sequence number; the remaining members own
        // the next `count - 1` so the train's merge tags stay consecutive.
        self.next_xfer += u64::from(count) - 1;
        // lint:allow(A1) -- `outgoing` keeps its capacity across drains
        // (see drain_outgoing_into); steady-state pushes never reallocate,
        // pinned by the zero_alloc bench at 0.00 allocs/msg.
        self.outgoing.push(OutgoingRun { run: PacketRun { template, count, stride_ns }, ready_at });
        self.counters.packets_built.add(u64::from(count));
        self.counters.bytes_sent.add(u64::from(count) * data.len() as u64);
        Ok(())
    }
}

impl DevicePort for Nic {
    fn dma_write(&mut self, dev_addr: u64, data: &[u8], now: SimTime) {
        self.dma_write_traced(dev_addr, data, now, now);
    }

    fn dma_write_traced(&mut self, dev_addr: u64, data: &[u8], started_at: SimTime, now: SimTime) {
        // The DMA engine hands us the transfer's initiation instant so the
        // flight-recorder span starts at the user's STORE, not at retire.
        // INVARIANT: `validate` ran at initiation with the same dev_addr
        // and length; a failure here is a hardware bug.
        self.packetize(dev_addr, data, 1, 0, started_at, now)
            .expect("DMA to NIC passed validate but failed packetize");
    }

    fn dma_write_run(&mut self, dev_addr: u64, data: &[u8], count: u64, timing: RunTiming) {
        if count == 0 {
            return;
        }
        // INVARIANT: the one caller, `SendCore::replay`, refuses strides
        // over `u32::MAX` ns and replays at most `K·CHUNK` ≤ 1,024 ops.
        let count = u32::try_from(count).expect("replayed run fits u32");
        let ns = u32::try_from(timing.stride.as_nanos()).expect("replay stride fits u32");
        let (started, done) = (timing.started_at, timing.completes_at);
        let packetized = self.packetize(dev_addr, data, count, ns, started, done);
        // INVARIANT: a run replays a transfer that already packetized
        // once with this dev_addr; no kernel ran since, so the NIPT entry
        // cannot have vanished mid-replay.
        packetized.expect("replayed NIPT entry exists");
    }

    fn dma_read(&mut self, _dev_addr: u64, buf: &mut [u8], _now: SimTime) {
        // SHRIMP uses UDMA for memory-to-device only ("SHRIMP uses UDMA
        // only for memory-to-device transfers", §8); incoming data goes
        // straight to memory via the receive-side EISA DMA logic.
        self.counters.unsupported_reads.incr();
        buf.fill(0);
    }

    fn validate(&self, dev_addr: u64, nbytes: u64) -> bool {
        // §8: outgoing data must be "aligned on 4-byte boundaries"; the
        // destination must be a valid NIPT entry; a single transfer must
        // not cross the destination page.
        let index = dev_addr >> PAGE_SHIFT;
        let offset = dev_addr & PAGE_MASK;
        dev_addr & 0x3 == 0
            && nbytes & 0x3 == 0
            && self.nipt.get(index).is_some()
            && offset + nbytes <= PAGE_SIZE
    }
}

impl Device for Nic {
    fn name(&self) -> &str {
        "shrimp-nic"
    }

    fn proxy_space_bytes(&self) -> u64 {
        self.nipt.capacity() as u64 * PAGE_SIZE
    }

    /// Registers `nic/*` plus the NIPT's occupancy gauge and churn
    /// counters (`nipt/occupancy`, `nipt/evictions`, `nipt/refaults`).
    fn harvest_metrics(&self, set: &mut MetricSet, index: Option<u32>) {
        self.counters.harvest(set, "nic", index);
        set.gauge(
            MetricId { subsystem: "nipt", name: "occupancy", index },
            self.nipt.occupancy_gauge(),
        );
        set.counter(
            MetricId { subsystem: "nipt", name: "evictions", index },
            self.nipt.evictions(),
        );
        set.counter(MetricId { subsystem: "nipt", name: "refaults", index }, self.nipt.refaults());
    }

    fn mmio_store(&mut self, offset: u64, value: u64, now: SimTime) {
        match offset {
            NIC_MMIO::DEST_PAGE => self.pio_dest_page = value,
            NIC_MMIO::DEST_OFFSET => self.pio_dest_offset = value,
            NIC_MMIO::DATA => self.pio_fifo.extend_from_slice(&value.to_le_bytes()),
            NIC_MMIO::COMMIT => {
                let len = value as usize;
                let ok = len <= self.pio_fifo.len()
                    && self.pio_dest_offset.checked_add(len as u64).is_some_and(|e| e <= PAGE_SIZE);
                if !ok {
                    self.pio_status = 1;
                    self.pio_fifo.clear();
                    return;
                }
                let data: Vec<u8> = self.pio_fifo.drain(..len).collect();
                self.pio_fifo.clear();
                let dev_addr = (self.pio_dest_page << PAGE_SHIFT) | self.pio_dest_offset;
                self.pio_status = match self.packetize(dev_addr, &data, 1, 0, now, now) {
                    Ok(()) => 0,
                    Err(_) => 1,
                };
                self.counters.pio_commits.incr();
            }
            _ => {}
        }
    }

    fn snoop_store(&mut self, pa: PhysAddr, value: u64, now: SimTime) {
        self.auto_forward(pa, &value.to_le_bytes(), now);
    }

    fn snoop_write(&mut self, pa: PhysAddr, data: &[u8], now: SimTime) {
        self.auto_forward(pa, data, now);
    }

    fn mmio_load(&mut self, offset: u64, _now: SimTime) -> u64 {
        match offset {
            NIC_MMIO::STATUS => self.pio_status,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shrimp_mem::Pfn;

    fn nic() -> Nic {
        let mut nic = Nic::new(NodeId::new(0), 16, SimDuration::from_us(1.2));
        nic.nipt_mut().set(2, NiptEntry { node: NodeId::new(1), pfn: Pfn::new(40) });
        nic
    }

    /// Drains the NIC's queue into a fresh vector.
    fn drain(n: &mut Nic) -> Vec<OutgoingRun> {
        let mut out = Vec::new();
        n.drain_outgoing_into(&mut out);
        out
    }

    #[test]
    fn dma_write_builds_packet_with_translated_address() {
        let mut n = nic();
        n.dma_write(2 * PAGE_SIZE + 0x100, b"data", SimTime::from_nanos(500));
        let out = drain(&mut n);
        assert_eq!(out.len(), 1);
        let pkt = &out[0].run.template;
        assert_eq!(pkt.dst, NodeId::new(1));
        assert_eq!(pkt.dst_paddr, PhysAddr::new(40 * PAGE_SIZE + 0x100));
        assert_eq!(pkt.payload, b"data");
        assert_eq!(out[0].ready_at, SimTime::from_nanos(500) + SimDuration::from_us(1.2));
        assert!(drain(&mut n).is_empty(), "drained");
    }

    #[test]
    fn validate_requires_alignment_and_nipt_entry() {
        let n = nic();
        assert!(n.validate(2 * PAGE_SIZE, 64));
        assert!(!n.validate(2 * PAGE_SIZE + 1, 64), "unaligned address");
        assert!(!n.validate(2 * PAGE_SIZE, 63), "unaligned length");
        assert!(!n.validate(3 * PAGE_SIZE, 64), "invalid NIPT entry");
        assert!(!n.validate(2 * PAGE_SIZE + 0x800, PAGE_SIZE), "page crossing");
    }

    #[test]
    fn pio_send_path() {
        let mut n = nic();
        let now = SimTime::ZERO;
        n.mmio_store(NIC_MMIO::DEST_PAGE, 2, now);
        n.mmio_store(NIC_MMIO::DEST_OFFSET, 0x20, now);
        n.mmio_store(NIC_MMIO::DATA, u64::from_le_bytes(*b"pio send"), now);
        n.mmio_store(NIC_MMIO::COMMIT, 8, now);
        assert_eq!(n.mmio_load(NIC_MMIO::STATUS, now), 0);
        let out = drain(&mut n);
        assert_eq!(out[0].run.template.payload, b"pio send");
        assert_eq!(out[0].run.template.dst_paddr, PhysAddr::new(40 * PAGE_SIZE + 0x20));
    }

    #[test]
    fn pio_bad_destination_sets_status() {
        let mut n = nic();
        let now = SimTime::ZERO;
        n.mmio_store(NIC_MMIO::DEST_PAGE, 9, now); // no NIPT entry
        n.mmio_store(NIC_MMIO::DATA, 0, now);
        n.mmio_store(NIC_MMIO::COMMIT, 8, now);
        assert_eq!(n.mmio_load(NIC_MMIO::STATUS, now), 1);
        assert!(drain(&mut n).is_empty());
    }

    #[test]
    fn pio_overlength_commit_sets_status() {
        let mut n = nic();
        let now = SimTime::ZERO;
        n.mmio_store(NIC_MMIO::DEST_PAGE, 2, now);
        n.mmio_store(NIC_MMIO::DATA, 0, now);
        n.mmio_store(NIC_MMIO::COMMIT, 16, now); // only 8 pushed
        assert_eq!(n.mmio_load(NIC_MMIO::STATUS, now), 1);
    }

    #[test]
    fn dma_read_is_unsupported() {
        let mut n = nic();
        assert_eq!(n.dma_read_vec(0, 4, SimTime::ZERO), vec![0; 4]);
        assert_eq!(n.counters().unsupported_reads.get(), 1);
    }

    #[test]
    fn packet_buffers_recycle_through_the_pool() {
        let mut n = nic();
        n.dma_write(2 * PAGE_SIZE, &[1, 2, 3, 4], SimTime::ZERO);
        let out = drain(&mut n);
        assert_eq!(n.buf_pool().free_buffers(), 0, "buffer still in flight");
        drop(out);
        assert_eq!(n.buf_pool().free_buffers(), 1, "dropped payload returns home");
        n.dma_write(2 * PAGE_SIZE, &[5, 6, 7, 8], SimTime::ZERO);
        assert_eq!(n.buf_pool().free_buffers(), 0, "recycled, not reallocated");
        assert_eq!(drain(&mut n)[0].run.template.payload, [5u8, 6, 7, 8]);
    }

    #[test]
    fn dma_write_run_builds_one_descriptor_with_consecutive_ids() {
        let mut n = nic();
        let stride = SimDuration::from_us(17.0);
        let t0 = SimTime::from_nanos(1_000);
        let timing = RunTiming { started_at: t0, completes_at: t0 + stride, stride };
        n.dma_write_run(2 * PAGE_SIZE + 0x40, b"abcd", 5, timing);
        let runs = drain(&mut n);
        assert_eq!(runs.len(), 1, "one descriptor for the whole train");
        let run = &runs[0].run;
        assert_eq!(run.count, 5);
        assert_eq!(run.stride_ns, stride.as_nanos() as u32);
        assert_eq!(run.template.payload, b"abcd");
        assert_eq!(run.template.meta.id, XferId::new(0, 0));
        assert_eq!(runs[0].ready_at, t0 + stride + SimDuration::from_us(1.2));
        assert_eq!(n.counters().packets_built.get(), 5);
        assert_eq!(n.counters().bytes_sent.get(), 20);
        // The next single packet's ID follows the whole run.
        n.dma_write(2 * PAGE_SIZE, b"next", SimTime::ZERO);
        let next = drain(&mut n);
        assert_eq!(
            (next[0].run.count, next[0].run.stride_ns),
            (1, 0),
            "a literal packet is a train of one"
        );
        assert_eq!(next[0].run.template.meta.id, XferId::new(0, 5));
    }

    #[test]
    fn drain_outgoing_into_reuses_caller_scratch() {
        let mut n = nic();
        let mut scratch = Vec::new();
        n.dma_write(2 * PAGE_SIZE, &[1, 2, 3, 4], SimTime::ZERO);
        n.drain_outgoing_into(&mut scratch);
        assert_eq!(scratch.len(), 1);
        assert_eq!(n.outgoing_len(), 0);
        scratch.clear();
        n.dma_write(2 * PAGE_SIZE, &[9, 9, 9, 9], SimTime::ZERO);
        n.drain_outgoing_into(&mut scratch);
        assert_eq!(scratch[0].run.template.payload, [9u8, 9, 9, 9]);
    }
}
