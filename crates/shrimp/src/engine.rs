//! The engine core: the **single** implementation of both halves of
//! SHRIMP's fast path — proxy reference → packetize → wire →
//! receive-side EISA DMA → status word. [`SendCore`] is the send half
//! (literal send, message-train replay, NIC flush, staging);
//! [`DeliveryCore`] is the receive half. The machine owns one of each
//! over its one [`FabricShard`]:
//!
//! - the serial driver ([`Multicomputer::send`], [`Multicomputer::propagate`])
//!   drives them over every lane with an unbounded horizon,
//! - a run ([`Multicomputer::run`]) lends them to its shard 0, bounded by
//!   the epoch horizon; only the other shards of a multi-threaded run
//!   build copies of their own.
//!
//! The send half stages one shape: every NIC output is a train
//! ([`OutgoingRun`]), a literal packet being a train of one, and every
//! staged entry ([`Staged`]) carries its own commit key, its first
//! packet's `(meta.link_ready, merge tag)`, so staging locally and
//! posting to another shard move the entry alone.
//!
//! A [`Lane`] is a node plus the receive-side state ([`RxState`]) that
//! must live wherever deliveries to that node are applied. Shards own
//! contiguous blocks of lanes, so an engine finds the lane for a global
//! node index by subtracting its block's base (0 for the serial driver).
//!
//! [`Multicomputer::send`]: crate::Multicomputer::send
//! [`Multicomputer::propagate`]: crate::Multicomputer::propagate
//! [`Multicomputer::run`]: crate::Multicomputer::run

use shrimp_net::{Commit, FabricShard, Packet, PacketClass, PacketRun, Staged};
use shrimp_os::{Trap, UdmaXferResult};
use shrimp_sim::{CostModel, FlightRecorder, SimDuration, SimTime, SpanRecord};

use crate::program::DeliveryEvent;
use crate::{OutgoingRun, SendOp, ShrimpNode};

/// The model's steady-state per-message clock stride for a warm
/// single-chunk send of `nbytes`: per-message library software, the user
/// check, the initiation STORE, the initiating and final status LOADs
/// (the mid-transfer busy LOAD is absorbed by the wait for DMA
/// completion), DMA start, and the bus burst. A measured message pair
/// whose stride equals this is in the replayable steady state.
fn steady_stride(cost: &CostModel, nbytes: u64) -> SimDuration {
    cost.udma_per_message_sw
        + cost.udma_user_check
        + cost.proxy_store
        + cost.proxy_load * 2
        + cost.dma_start
        + cost.bus_transfer(nbytes)
}

/// The send-side engine, twin of [`DeliveryCore`]: one per execution
/// context. Everything a NIC builds is a train ([`OutgoingRun`], a
/// literal packet being a train of one), and every train leaves through
/// one loop: drain, class stamp, inject, and one sink with one routing
/// rule — node `dst` belongs to shard `dst / per_shard`; stage straight
/// into the caller's [`FabricShard`] when that is this shard, else post
/// to `staging[dst / per_shard]` for the owning shard. The machine's own
/// core is shard 0 with every node in its block (`per_shard` = node
/// count). A staged entry carries its own commit key (its first packet's
/// `link_ready` and merge tag), and the staged queue pops by key, never
/// by insertion order, so where an entry is staged from cannot change the
/// timeline.
#[derive(Debug)]
pub(crate) struct SendCore {
    id: usize,
    per_shard: usize,
    /// Cross-shard entries per destination shard (this shard's slot stays
    /// empty), posted once per epoch.
    pub staging: Vec<Vec<Staged>>,
    /// Minimum `link_ready` of every entry staged or posted since the
    /// owner last reset it (the reactive bound's cover).
    pub posted_min: Option<SimTime>,
    /// Scratch NIC drain target, reused across sends.
    outbox: Vec<OutgoingRun>,
}

impl SendCore {
    /// Shard `id` of a run whose shards own blocks of `per_shard` nodes,
    /// with room for `batch` entries per other shard.
    pub fn new(id: usize, per_shard: usize, shards: usize, batch: usize) -> Self {
        let mut core = SendCore {
            id,
            per_shard,
            staging: Vec::new(),
            posted_min: None,
            outbox: Vec::with_capacity(8),
        };
        core.reshard(per_shard, shards, batch);
        core
    }

    /// Re-blocks the routing rule for a run of `shards` shards of
    /// `per_shard` nodes each (the other shards' batches get room for
    /// `batch` entries), and forgets the posted minimum. Allocates only
    /// when the shard count grows.
    pub fn reshard(&mut self, per_shard: usize, shards: usize, batch: usize) {
        self.per_shard = per_shard;
        self.staging.truncate(shards);
        let id = self.id;
        self.staging.extend(
            (self.staging.len()..shards)
                .map(|s| Vec::with_capacity(if s == id { 0 } else { batch })),
        );
        self.posted_min = None;
    }

    /// The literal send: `op` through the node's UDMA initiation, then
    /// drain, class stamp, inject and stage. A trap returns before the
    /// drain, leaving anything already built in the NIC for a flush.
    /// A1/F1 cover it from its callers' roots; it is not a root itself,
    /// since P1 from this file would extend to the whole kernel fault
    /// path behind `udma_send`.
    pub fn send(
        &mut self,
        node: &mut ShrimpNode,
        fabric: &mut FabricShard,
        op: &SendOp,
    ) -> Result<UdmaXferResult, Trap> {
        let result =
            node.os_mut().udma_send(op.pid, op.src_va, op.dev_page, op.dev_off, op.nbytes)?;
        self.stage(node, fabric, op.class);
        Ok(result)
    }

    /// Replays `count` more copies of `op` as one run, given its two
    /// calibrating literal sends: `first` (result, sender clock after it)
    /// and `second`, which just completed. Eligible when both took one
    /// transfer with no retries and their stride is exactly
    /// [`steady_stride`] (and fits `u32` ns); the machine then books the
    /// messages wholesale and the NIC's train stages as one entry.
    /// Returns `false`, having done nothing, otherwise — the caller sends
    /// its next op literally and may calibrate again from there.
    // lint:hot_path
    pub fn replay(
        &mut self,
        node: &mut ShrimpNode,
        fabric: &mut FabricShard,
        op: &SendOp,
        first: (UdmaXferResult, SimTime),
        second: UdmaXferResult,
        count: u64,
    ) -> bool {
        let (r0, after_first) = first;
        let machine = node.os().machine();
        let stride = machine.now().saturating_duration_since(after_first);
        let eligible = r0.transfers == 1
            && r0.retries == 0
            && second == r0
            && stride == steady_stride(machine.cost(), op.nbytes)
            && stride.as_nanos() <= u64::from(u32::MAX);
        if !eligible || !node.os_mut().machine_mut().udma_replay_messages(count, stride) {
            return false;
        }
        self.stage(node, fabric, op.class);
        true
    }

    /// Stages everything the node's NIC holds, for traffic no send op
    /// initiated (automatic update, PIO); it keeps the user class every
    /// NIC-built packet starts with. An idle NIC costs one length check:
    /// `propagate` flushes every lane per send.
    // lint:hot_path
    pub fn flush(&mut self, node: &mut ShrimpNode, fabric: &mut FabricShard) {
        if node.os().machine().device().outgoing_len() == 0 {
            return;
        }
        self.stage(node, fabric, PacketClass::User);
    }

    /// Drains the node's NIC and stages every train under `class`: a train
    /// of one stages as a single packet, a longer one as a run.
    fn stage(&mut self, node: &mut ShrimpNode, fabric: &mut FabricShard, class: PacketClass) {
        node.drain_nic(&mut self.outbox);
        let mut outbox = std::mem::take(&mut self.outbox);
        for OutgoingRun { mut run, ready_at } in outbox.drain(..) {
            run.template.class = class;
            if fabric.inject_run(&mut run, ready_at).is_none() {
                continue;
            }
            let entry = if run.count == 1 { Staged::One(run.template) } else { Staged::Run(run) };
            self.sink(fabric, entry);
        }
        self.outbox = outbox;
    }

    fn sink(&mut self, fabric: &mut FabricShard, e: Staged) {
        let at = e.key().0;
        self.posted_min = Some(self.posted_min.map_or(at, |m| m.min(at)));
        // lint:checks(F1) -- the inject before every sink drops a
        // destination outside the fabric, so `dst < nodes ≤ per_shard ·
        // shards`; the `min` keeps the block index in range regardless.
        let shard = (e.dst().raw() as usize / self.per_shard).min(self.staging.len() - 1);
        if shard == self.id {
            fabric.stage(e);
        } else {
            // lint:allow(A1) -- staging batches keep their capacity across
            // epochs (post_batch drains them in place), so steady-state
            // pushes never reallocate.
            self.staging[shard].push(e);
        }
    }
}

/// Receive-side per-node state: it must be owned by whichever engine
/// currently applies deliveries to the node, so it travels with the node
/// inside a [`Lane`].
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct RxState {
    /// When the node's EISA bus frees up (receive-side DMA serializes on
    /// it).
    pub eisa_busy: SimTime,
    /// When the last delivery to the node completed.
    pub last_delivery: SimTime,
}

/// One node plus its receive-side state: the unit a run's shards own in
/// contiguous blocks (the serial driver owns every lane).
#[derive(Debug)]
pub(crate) struct Lane {
    pub node: ShrimpNode,
    pub rx: RxState,
    /// Deliveries surfaced to this node's traffic program since its last
    /// step, in commit order. Only populated while `collect` is set (the
    /// node runs a reactive program); cleared at every program step.
    pub inbox: Vec<DeliveryEvent>,
    /// Whether [`DeliveryCore::deliver`] should surface deliveries into
    /// `inbox`. Off outside reactive `run_programs` runs, so the legacy
    /// paths pay one predictable branch and nothing else.
    pub collect: bool,
}

impl Lane {
    pub fn new(node: ShrimpNode) -> Self {
        Lane { node, rx: RxState::default(), inbox: Vec::new(), collect: false }
    }
}

/// A list of lane indices with room for every lane reserved up front, so
/// adding never allocates: the engine's wake and active lists. Each index
/// is on the list at most once, which the owner guarantees; adding past
/// the reserved room is a broken guarantee and panics.
#[derive(Debug)]
pub(crate) struct LaneList {
    ids: Vec<usize>,
    len: usize,
}

impl LaneList {
    /// An empty list with room for `lanes` indices.
    pub fn with_room(lanes: usize) -> Self {
        LaneList { ids: vec![0; lanes], len: 0 }
    }

    pub fn add(&mut self, id: usize) {
        self.ids[self.len] = id;
        self.len += 1;
    }

    pub fn as_slice(&self) -> &[usize] {
        &self.ids[..self.len]
    }

    /// Sorts the list ascending, the order the engine steps lanes in.
    pub fn sort(&mut self) {
        self.ids[..self.len].sort_unstable();
    }

    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Keeps the indices for which `keep` holds, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        let mut kept = 0;
        for i in 0..self.len {
            let id = self.ids[i];
            if keep(id) {
                self.ids[kept] = id;
                kept += 1;
            }
        }
        self.len = kept;
    }
}

shrimp_sim::counters! {
    /// Delivery-core counts (metrics subsystem `delivery`).
    pub(crate) struct DeliveryCounters {
        /// Packets successfully deposited into receiver memory.
        delivered,
        /// Packets dropped for naming physical addresses outside the
        /// receiver's memory.
        drops,
        /// Run prefixes committed as one dispatch (each covers ≥ 1 member;
        /// `delivered / runs_committed` is the mean batch the drain
        /// achieved).
        runs_committed,
        /// Runs that could not commit whole: an interleaving
        /// same-destination key or the epoch horizon forced the tail back
        /// into the queue.
        run_splits,
    }
}

/// The receive-side delivery engine: EISA DMA apply, clock and
/// `last_delivery` advance, passive-receiver wakeup, and `SpanRecord`
/// stamping. There is exactly one of these per execution context (the
/// machine's own, which serial calls and shard 0 of a run drive, plus one
/// per other shard of a multi-threaded run) and exactly one
/// implementation of its logic in the codebase.
#[derive(Debug)]
pub(crate) struct DeliveryCore {
    /// Passive-receiver clock model: applying a delivery advances an idle
    /// receiver's clock to the delivery completion.
    pub passive: bool,
    /// Delivered/dropped packets and run-batching figures.
    pub counters: DeliveryCounters,
    /// The transfer-level flight recorder this core stamps spans into.
    pub recorder: FlightRecorder,
    /// The wake list: global indices of collecting lanes whose inbox went
    /// from empty to non-empty since the owner last cleared it.
    pub woken: LaneList,
}

impl DeliveryCore {
    /// A core whose wake list has room for `lanes` lanes.
    pub fn new(passive: bool, lanes: usize, recorder: FlightRecorder) -> Self {
        DeliveryCore {
            passive,
            counters: DeliveryCounters::default(),
            recorder,
            woken: LaneList::with_room(lanes),
        }
    }

    /// Commits every staged entry with `link_ready` at or before
    /// `horizon` (`None` = drain everything), in the fabric's
    /// deterministic per-destination `(link_ready, id)` order (see
    /// [`FabricShard::commit_next`]): **the** delivery drain loop. Node
    /// `d`'s lane is `lanes[d - base]`: the caller owns the block of
    /// lanes starting at global index `base`, and the fabric only holds
    /// entries bound for it. A single packet delivers one at a time; a
    /// run's committed prefix delivers under one dispatch — one horizon
    /// check and one lane lookup cover the whole prefix. Allocation-free.
    // lint:hot_path
    pub fn commit_due(
        &mut self,
        fabric: &mut FabricShard,
        lanes: &mut [Lane],
        base: usize,
        horizon: Option<SimTime>,
    ) {
        while let Some(commit) = fabric.commit_next(horizon) {
            match commit {
                Commit::One { arrival, packet } => {
                    let lane = &mut lanes[packet.dst.raw() as usize - base];
                    self.deliver(lane, arrival, &packet);
                }
                Commit::Run { run, take } => {
                    let lane = &mut lanes[run.template.dst.raw() as usize - base];
                    self.deliver_run(fabric, lane, run, take);
                }
            }
        }
    }

    /// Applies the committed prefix of a run to its lane: each member is
    /// admitted on the inbound link and delivered through the same
    /// [`DeliveryCore::deliver`] as the single-packet path (the template
    /// walks forward by one stride per member, so every span and
    /// timestamp is bit-identical to the unbatched drain), and any
    /// remainder re-stages into the fabric without cloning the payload.
    // lint:hot_path
    fn deliver_run(
        &mut self,
        fabric: &mut FabricShard,
        lane: &mut Lane,
        mut run: PacketRun,
        take: u32,
    ) {
        self.counters.runs_committed.incr();
        if take < run.count {
            self.counters.run_splits.incr();
        }
        let mut left = take;
        loop {
            let arrival = fabric.admit(&run.template, run.template.meta.link_ready);
            self.deliver(lane, arrival, &run.template);
            left -= 1;
            if left == 0 {
                break;
            }
            run.advance(1);
        }
        // The template now sits at the last delivered member; one more
        // step puts the first undelivered member at the head (or drops
        // the run, recycling its payload, when none remain).
        fabric.restage_run_tail(run, 1);
    }

    /// Applies one packet to its destination lane: one receive-side EISA
    /// DMA transaction (arbitration/setup plus the payload burst), the
    /// deposit into physical memory, delivery bookkeeping, span stamping,
    /// and the passive-receiver clock advance. `arrival` is when the
    /// packet finished serializing on the inbound link it reached at
    /// `packet.meta.link_ready`.
    // lint:hot_path
    fn deliver(&mut self, lane: &mut Lane, arrival: SimTime, packet: &Packet) {
        let start = arrival.max(lane.rx.eisa_busy);
        let done = {
            let cost = lane.node.os().machine().cost();
            start + cost.dma_start + cost.bus_transfer(packet.payload.len() as u64)
        };
        lane.rx.eisa_busy = done;
        let mem = lane.node.os_mut().machine_mut().mem_mut();
        // dst_paddr was produced by the sender's NIPT lookup (invariant
        // I2: outgoing translation is the protection check); the write
        // re-validates bounds and a failure counts a drop, never a stray
        // store.
        // lint:allow(F1) -- sender-side NIPT translation (I2, see above).
        if mem.write(packet.dst_paddr, &packet.payload).is_err() {
            self.counters.drops.incr();
            return;
        }
        self.counters.delivered.incr();
        lane.rx.last_delivery = lane.rx.last_delivery.max(done);
        if lane.collect {
            if lane.inbox.is_empty() {
                self.woken.add(packet.dst.raw() as usize);
            }
            // lint:allow(A1) -- the inbox keeps its capacity across epochs
            // (program steps drain it in place) and reactive runs reserve
            // it up front, so steady-state pushes never reallocate.
            lane.inbox.push(DeliveryEvent {
                src: packet.src,
                dst_paddr: packet.dst_paddr,
                bytes: packet.payload.len() as u32,
                done,
                class: packet.class,
            });
        }
        if self.recorder.is_enabled() {
            let m = packet.meta;
            self.recorder.record(SpanRecord {
                id: m.id,
                src: packet.src.raw(),
                dst: packet.dst.raw(),
                bytes: packet.payload.len() as u32,
                initiated_at: m.initiated_at,
                queued_at: m.queued_at,
                link_ready: m.link_ready,
                wire_done: arrival,
                delivered_at: done,
                status_at: m.status_observed.max(done),
            });
        }
        // Passive receiver: an idle node's clock catches up to the
        // delivery it was waiting for.
        if self.passive {
            lane.node.os_mut().machine_mut().advance_to(done);
        }
    }

    /// Whether span recording is on.
    pub fn tracing(&self) -> bool {
        self.recorder.is_enabled()
    }
}
