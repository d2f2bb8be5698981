//! The mesh fabric: routing, link occupancy and in-order delivery.
//!
//! Since the engine unification there is exactly **one** delivery source:
//! [`FabricShard`]. It carries a packet through three steps —
//!
//! 1. [`FabricShard::inject`] — routing latency; stamps `link_ready`,
//! 2. staging ([`FabricShard::stage`]) — the packet waits in its
//!    destination's queue, keyed `(link_ready, tag)`, the tag being the §7
//!    priority class bit over the transfer ID,
//! 3. [`FabricShard::commit_next`] — pops the earliest staged packet and
//!    serializes it on the destination's inbound link, yielding its
//!    arrival instant.
//!
//! [`Interconnect`] is a thin wrapper over one full-machine shard, which
//! is shard 0 of every run: a multi-threaded run splits off copies for
//! the other shards with [`Interconnect::split`] and folds them back with
//! [`Interconnect::merge`]. Every shard drains packets through the same
//! `commit_next` — there is no second delivery loop.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use shrimp_sim::{SimDuration, SimTime, XferId};

use crate::{NodeId, Packet};

/// A contiguous run of `count` same-shape packets: one template plus a
/// constant inter-member time stride. Member `i` (0-based) is the template
/// with every timestamp shifted by `stride × i` and the transfer sequence
/// number advanced by `i` — exactly the packets a steady-state message
/// train would have produced one at a time, folded into one descriptor
/// (the §7 gather-descriptor idea applied to the simulator's own hot
/// path). The payload is stored once; deliveries reuse it per member.
#[derive(Debug)]
pub struct PacketRun {
    /// Member 0 of the run, carrying the shared payload and destination.
    pub template: Packet,
    /// Members remaining in the run (≥ 1 when staged).
    pub count: u32,
    /// Inter-member stride in nanoseconds. Fits `u32` by construction:
    /// runs are only minted for strides under ~4.3 ms, far above any
    /// per-message cost the model produces.
    pub stride_ns: u32,
}

impl PacketRun {
    /// The inter-member stride as a duration.
    pub fn stride(&self) -> SimDuration {
        SimDuration::from_nanos(u64::from(self.stride_ns))
    }

    /// The staged-queue key `(link_ready, tag)` of member `i`, with the
    /// template's [`crate::PacketClass`] encoded in the tag: the delta
    /// encoding means the whole run's ordering is two integer adds per
    /// member, never a re-derivation of routing latency.
    pub fn member_key(&self, i: u32) -> (SimTime, u64) {
        (
            self.template.meta.link_ready + self.stride() * u64::from(i),
            self.template.merge_tag() + u64::from(i),
        )
    }

    /// Advances the template past the first `consumed` members: every
    /// timestamp shifts by `stride × consumed` and the sequence number
    /// advances, so the remainder is itself a well-formed run.
    pub fn advance(&mut self, consumed: u32) {
        debug_assert!(consumed < self.count, "cannot advance past the end of a run");
        let shift = self.stride() * u64::from(consumed);
        self.template.sent_at += shift;
        let m = &mut self.template.meta;
        m.id = XferId::new(m.id.node(), m.id.seq() + u64::from(consumed));
        m.initiated_at += shift;
        m.queued_at += shift;
        m.link_ready += shift;
        m.status_observed += shift;
        self.count -= consumed;
    }
}

/// One staged entry: a single packet or a whole run. The queue key of a
/// run is its first member's key; later members stay ordered because the
/// commit loop splits a run the moment another staged entry **for the
/// same destination** would sort between its members (traffic bound
/// elsewhere cannot observe the interleaving — see
/// [`FabricShard::commit_next`]).
#[derive(Debug)]
pub enum Staged {
    /// A single packet.
    One(Packet),
    /// A contiguous run of packets sharing one payload and stride.
    Run(PacketRun),
}

/// One committed unit popped from the staged queue.
#[derive(Debug)]
pub enum Commit {
    /// A single packet, already serialized on its destination link.
    One {
        /// When the packet reached the destination's inbound link.
        link_ready: SimTime,
        /// When it finished serializing on that link.
        arrival: SimTime,
        /// The packet itself.
        packet: Packet,
    },
    /// The leading `take` members of a run are committed; the caller
    /// delivers them (admitting each on the link via
    /// [`FabricShard::admit`]) and hands any remainder back through
    /// [`FabricShard::restage_run_tail`] — the payload is never cloned.
    Run {
        /// When member 0 reached the destination's inbound link.
        link_ready: SimTime,
        /// The full run; members `0..take` are committed.
        run: PacketRun,
        /// How many leading members commit now (≥ 1).
        take: u32,
    },
}

/// Link and router parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkParams {
    /// Per-hop router latency.
    pub hop_latency: SimDuration,
    /// Link bandwidth, MB/s (Paragon backplane links: far faster than the
    /// node's EISA bus, keeping the sender the bottleneck).
    pub mb_per_s: f64,
}

impl Default for LinkParams {
    fn default() -> Self {
        LinkParams { hop_latency: SimDuration::from_us(0.5), mb_per_s: 175.0 }
    }
}

/// Columns of the near-square grid holding `nodes` nodes: the integer
/// ceiling square root (smallest `c` with `c * c >= nodes`), computed
/// without an `f64` round-trip.
fn grid_cols(nodes: u16) -> u16 {
    let mut c: u16 = 1;
    while u32::from(c) * u32::from(c) < u32::from(nodes) {
        c += 1;
    }
    c
}

shrimp_sim::counters! {
    /// Fabric traffic counts (metrics subsystem `fabric`).
    pub struct FabricCounters {
        /// Packets injected (run members count individually).
        packets,
        /// Payload bytes injected.
        payload_bytes,
        /// Packets the fabric itself discarded because they name a
        /// destination outside it: a NIPT entry pointing past the last
        /// node ([`FabricShard::inject`] counts such a packet as injected,
        /// then drops it), or a header corrupted in flight. Distinct from
        /// the delivery layer's bad-address drops so conservation can
        /// attribute every undelivered packet.
        drops,
    }
}

/// A 2-D mesh interconnect with dimension-order routing distances.
///
/// Nodes are arranged on a near-square grid. A packet's latency is
/// `hops × hop_latency + wire_bytes / bandwidth`, serialized on the
/// destination's inbound link, which preserves point-to-point ordering —
/// the property SHRIMP's deliberate update relies on.
///
/// `Interconnect` owns a single [`FabricShard`] covering the whole
/// machine; every delivery — serial or parallel — goes through the
/// shard's staged queue and [`FabricShard::commit_next`].
#[derive(Debug)]
pub struct Interconnect {
    shard: FabricShard,
}

impl Interconnect {
    /// A fabric connecting `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: u16, params: LinkParams) -> Self {
        assert!(nodes > 0, "a fabric needs at least one node");
        let links = vec![LinkState::IDLE; nodes as usize];
        Interconnect { shard: FabricShard::new(nodes, grid_cols(nodes), params, links) }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> u16 {
        self.shard.nodes
    }

    /// Mesh hop count between two nodes (Manhattan distance + 1 for the
    /// ejection router; 1 for self-sends, which still traverse the NI).
    pub fn hops(&self, a: NodeId, b: NodeId) -> u64 {
        self.shard.hops(a, b)
    }

    /// Injects `packet` at instant `now` and stages it for delivery;
    /// returns the instant it reaches its destination's inbound link
    /// (before serialization). Drain staged packets with
    /// [`FabricShard::commit_next`] via [`Interconnect::shard_mut`].
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is outside the fabric.
    pub fn send(&mut self, packet: Packet, now: SimTime) -> SimTime {
        self.shard.send(packet, now)
    }

    /// The machine-wide delivery source (the serial engine drains it with
    /// [`FabricShard::commit_next`], exactly as each parallel shard drains
    /// its own).
    pub fn shard_mut(&mut self) -> &mut FabricShard {
        &mut self.shard
    }

    /// Staged entries not yet committed — a run counts once, however
    /// many members it holds — so zero exactly when nothing is in flight.
    pub fn in_flight_count(&self) -> usize {
        self.shard.staged_len()
    }

    /// Traffic counts, including totals absorbed from merged shards.
    pub fn counters(&self) -> &FabricCounters {
        &self.shard.counters
    }

    /// Wire bytes serialized on each node's inbound link, indexed by
    /// destination node (payload plus header, counted at admit).
    pub fn wire_bytes_per_link(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        self.shard.wire_bytes_per_link()
    }

    /// Peak entries staged at once, the deepest any shard got (merged
    /// shards fold in as a max).
    pub fn staged_depth_high(&self) -> u64 {
        self.shard.depth_high
    }

    /// Splits off `shards` copies for the shards after the fabric's own
    /// (shard 0) in a parallel run. Each carries the inbound-link state;
    /// the engine drives each node's link from exactly one shard, then
    /// gives the copies back with [`Interconnect::merge`].
    ///
    /// # Panics
    ///
    /// Panics with packets in flight (the engine must start from a
    /// quiet fabric).
    pub fn split(&mut self, shards: usize) -> Vec<FabricShard> {
        let s = &self.shard;
        assert!(s.keys.is_empty(), "cannot split a fabric with packets in flight");
        // Copies inherit link occupancy but start their byte tallies at
        // zero: merge() sums the per-shard columns.
        let links = || s.links.iter().map(|l| LinkState { wire_bytes: 0, ..*l }).collect();
        (0..shards).map(|_| FabricShard::new(s.nodes, s.cols, s.params, links())).collect()
    }

    /// Reabsorbs the copies [`Interconnect::split`] handed out to a run of
    /// blocks of `per_shard` nodes: `shards[k]` is shard `k + 1`, whose
    /// block's link occupancy it holds. Traffic counters fold into the
    /// fabric's, so [`Interconnect::counters`] reports one-shard totals.
    ///
    /// # Panics
    ///
    /// Panics if a copy still holds staged packets (the engine must drain
    /// every shard before reassembly).
    pub fn merge(&mut self, shards: Vec<FabricShard>, per_shard: usize) {
        for (k, shard) in shards.into_iter().enumerate() {
            assert!(shard.keys.is_empty(), "cannot merge a shard with staged packets");
            self.shard.counters.merge(&shard.counters);
            self.shard.depth_high = self.shard.depth_high.max(shard.depth_high);
            // Each node's inbound link is driven by exactly one shard, so
            // summing every copy's per-link column folds in the owner's
            // traffic and zeros from everyone else.
            let owned = (k + 1) * per_shard..(k + 2) * per_shard;
            for (d, (total, part)) in self.shard.links.iter_mut().zip(&shard.links).enumerate() {
                if owned.contains(&d) {
                    total.busy_until = part.busy_until;
                }
                total.wire_bytes += part.wire_bytes;
            }
        }
    }
}

/// One destination's inbound-link state: when the link frees up, plus
/// the wire bytes (payload + header) it has serialized. Counted at
/// [`FabricShard::admit`] — exactly once per delivered member — so the
/// per-link byte totals are a pure function of the delivery timeline and
/// identical at any shard count.
#[derive(Debug, Clone, Copy)]
struct LinkState {
    busy_until: SimTime,
    wire_bytes: u64,
}

impl LinkState {
    const IDLE: LinkState = LinkState { busy_until: SimTime::ZERO, wire_bytes: 0 };
}

/// A staged entry's commit key, `(link_ready, merge tag)`.
type Key = (SimTime, u64);

/// One shard's slice of the fabric — **the** delivery source of the
/// machine. The serial [`Interconnect`] is one shard covering every node;
/// the parallel engine runs N of them, one per worker.
///
/// A shard plays both fabric roles without touching shared state:
///
/// - **sender side** — [`FabricShard::inject`] stamps a packet and returns
///   when it reaches its destination's inbound link (routing latency only;
///   no shared queue),
/// - **receiver side** — staged packets ([`FabricShard::stage`]) pop in
///   deterministic `(link_ready, id)` order through
///   [`FabricShard::commit_next`], which serializes each on the
///   destination's inbound link and returns its arrival.
///
/// Staging is by destination: each destination keeps its entries in one
/// queue, ascending by key, and one binary heap holds the key of every
/// staged entry. The heap's minimum is the earliest entry overall, so it
/// is the head of its own destination's queue; and the entry behind that
/// head is the earliest *other* key for the destination, the one bound a
/// run split needs. The two structures change together in exactly two
/// places — [`FabricShard::stage`] adds an entry to both, and
/// [`FabricShard::commit_next`] takes the heap minimum and the queue
/// head it names — so they always hold the same set of keys.
///
/// Splitting the fabric this way moves every mutable per-destination
/// structure (the link states, the staged queues) to the shard that
/// owns the destination node, which is what lets shards run on separate
/// threads with packets exchanged only at epoch boundaries.
#[derive(Debug)]
pub struct FabricShard {
    nodes: u16,
    cols: u16,
    params: LinkParams,
    /// Per-destination inbound-link state; only indices this shard owns
    /// are meaningful. Occupancy and the wire-byte tally live in one
    /// struct so `admit` pays a single bounds check and touches a single
    /// cache line per member.
    links: Vec<LinkState>,
    /// Entries awaiting commit, one queue per destination, each ascending
    /// by `(link_ready, merge tag)`. An entry is a single packet or a
    /// whole [`PacketRun`] keyed by its first member.
    queues: Vec<VecDeque<(Key, Staged)>>,
    /// `(link_ready, merge tag, destination)` of every staged entry,
    /// minimum first: the pop order is a pure function of the staged
    /// set, never of insertion order, so serial and parallel drains are
    /// the same sequence.
    keys: BinaryHeap<Reverse<(SimTime, u64, u16)>>,
    /// Peak entries staged at once.
    depth_high: u64,
    counters: FabricCounters,
}

impl FabricShard {
    fn new(nodes: u16, cols: u16, params: LinkParams, links: Vec<LinkState>) -> Self {
        FabricShard {
            nodes,
            cols,
            params,
            links,
            queues: (0..nodes).map(|_| VecDeque::new()).collect(),
            keys: BinaryHeap::new(),
            depth_high: 0,
            counters: FabricCounters::default(),
        }
    }

    /// Mesh hop count between two nodes (same topology as the parent
    /// [`Interconnect::hops`]).
    pub fn hops(&self, a: NodeId, b: NodeId) -> u64 {
        let (ar, ac) = (a.raw() / self.cols, a.raw() % self.cols);
        let (br, bc) = (b.raw() / self.cols, b.raw() % self.cols);
        u64::from(ar.abs_diff(br)) + u64::from(ac.abs_diff(bc)) + 1
    }

    /// Sender side: stamps `packet` as sent at `now`, counts it, and
    /// returns the instant it reaches the destination's inbound link
    /// (`now` + routing latency, **before** link serialization). A
    /// destination outside the fabric — a NIPT entry naming a node the
    /// machine does not have — is counted as injected and as a fabric
    /// drop, and yields `None`: the packet goes nowhere.
    ///
    /// # Panics
    ///
    /// Panics if the source is outside the fabric.
    // lint:hot_path
    pub fn inject(&mut self, packet: &mut Packet, now: SimTime) -> Option<SimTime> {
        assert!(packet.src.raw() < self.nodes, "source {} not in fabric", packet.src);
        self.route(packet, now, 1)
    }

    /// Stamps and counts `members` packets shaped like `p` (a run's
    /// members follow the template at its stride) and routes the first;
    /// `None` when the destination is outside the fabric.
    fn route(&mut self, p: &mut Packet, now: SimTime, members: u32) -> Option<SimTime> {
        p.sent_at = now;
        self.counters.packets.add(u64::from(members));
        self.counters.payload_bytes.add(p.payload.len() as u64 * u64::from(members));
        if p.dst.raw() >= self.nodes {
            self.counters.drops.add(u64::from(members));
            return None;
        }
        let link_ready = now + self.params.hop_latency * self.hops(p.src, p.dst);
        p.meta.link_ready = link_ready;
        Some(link_ready)
    }

    /// Stages an entry that reaches its destination's inbound link at
    /// `link_ready`, keyed for the deterministic commit order. `tag` must
    /// be unique per staged member — the (first) packet's merge tag
    /// ([`Packet::merge_tag`]: §7 priority class bit over the `XferId`
    /// raw value); a run's later members own the consecutive tags above
    /// it.
    // lint:hot_path
    pub fn stage(&mut self, link_ready: SimTime, tag: u64, item: Staged) {
        let dst = match &item {
            Staged::One(p) => p.dst.raw(),
            Staged::Run(r) => r.template.dst.raw(),
        };
        let key = (link_ready, tag);
        let queue = &mut self.queues[usize::from(dst)];
        // Keys mostly arrive in order, so the search usually ends at the back.
        let at = queue.partition_point(|(k, _)| *k < key);
        // lint:allow(A1) -- the queue and the heap keep their capacity
        // across commits; steady-state staging never allocates.
        queue.insert(at, (key, item));
        self.keys.push(Reverse((link_ready, tag, dst)));
        self.depth_high = self.depth_high.max(self.keys.len() as u64);
    }

    /// [`FabricShard::inject`] + [`FabricShard::stage`] in one step, keyed
    /// by the packet's own correlation ID: the whole sender side of a
    /// transfer. Returns the `link_ready` instant; panics if either
    /// endpoint is outside the fabric.
    // lint:hot_path
    pub fn send(&mut self, mut packet: Packet, now: SimTime) -> SimTime {
        assert!(packet.dst.raw() < self.nodes, "destination {} not in fabric", packet.dst);
        // INVARIANT: the destination was checked just above, so it routes.
        let link_ready = self.inject(&mut packet, now).expect("destination in fabric");
        let tag = packet.merge_tag();
        self.stage(link_ready, tag, Staged::One(packet));
        link_ready
    }

    /// Sender side of a whole run: stamps the template as sent at `now`
    /// (member `k` follows at `now + stride·k`), counts every member, and
    /// returns the instant member 0 reaches the destination's inbound
    /// link. One routing computation covers the run — later members add
    /// the delta-encoded stride instead of re-deriving hop latency. A
    /// destination outside the fabric drops every member, as
    /// [`FabricShard::inject`] drops a packet.
    ///
    /// # Panics
    ///
    /// Panics if the source is outside the fabric or the run is empty.
    // lint:hot_path
    pub fn inject_run(&mut self, run: &mut PacketRun, now: SimTime) -> Option<SimTime> {
        assert!(run.count > 0, "a run needs at least one member");
        assert!(run.template.src.raw() < self.nodes, "source {} not in fabric", run.template.src);
        self.route(&mut run.template, now, run.count)
    }

    /// [`FabricShard::inject_run`] + staging in one step: the whole
    /// sender side of a message train as one queue entry. Returns member
    /// 0's `link_ready` instant; panics as [`FabricShard::send`] does, or
    /// on an empty run.
    // lint:hot_path
    pub fn send_run(&mut self, mut run: PacketRun, now: SimTime) -> SimTime {
        let dst = run.template.dst;
        assert!(dst.raw() < self.nodes, "destination {dst} not in fabric");
        // INVARIANT: the destination was checked just above, so it routes.
        let link_ready = self.inject_run(&mut run, now).expect("destination in fabric");
        let tag = run.template.merge_tag();
        self.stage(link_ready, tag, Staged::Run(run));
        link_ready
    }

    /// Receiver side: pops the earliest staged entry whose `link_ready`
    /// is at or before `horizon` (`None` = no bound). A single packet is
    /// serialized on its destination's inbound link immediately
    /// ([`Commit::One`]); for a run, the horizon and the next entry in the
    /// destination's queue bound how many leading members commit now
    /// ([`Commit::Run`]) — member `i` joins the commit while its key
    /// `(link_ready + stride·i, id + i)` is still due **and** still sorts
    /// ahead of every other staged entry **bound for the same
    /// destination**. Allocation-free.
    ///
    /// Only the same-destination order matters: every effect of a commit
    /// — inbound-link serialization ([`FabricShard::admit`]), the
    /// receive-side EISA DMA, the memory deposit, `last_delivery`, the
    /// passive clock — is keyed by the destination node, and trace export
    /// sorts spans by `(link_ready, id)` before rendering. Entries bound
    /// for *other* destinations may therefore commit after a run that
    /// their keys interleave with; every per-destination subsequence of
    /// the strict global `(link_ready, id)` order is preserved exactly,
    /// so the timeline, digests and trace bytes are bit-identical to the
    /// unrelaxed drain — while a long run no longer splits (one pop and
    /// one restage per member) just because unrelated traffic shares the
    /// shard's queue.
    ///
    /// Identical arithmetic at any shard count: admitting members in the
    /// per-destination `(link_ready, tag)` order reproduces the timeline
    /// bit for bit.
    ///
    /// **This is the §7 priority arbitration point.** The staged tag
    /// carries the packet's [`crate::PacketClass`] in its top bit
    /// ([`Packet::merge_tag`]), so when a system-class and a user-class
    /// entry reach a destination's inbound link at the same `link_ready`
    /// instant, the system packet pops — and serializes on the link —
    /// first, exactly the "system packets take priority" rule of the
    /// paper's two outgoing queues. Single-class workloads see the plain
    /// `XferId` order, unchanged from the pre-priority fabric.
    // lint:hot_path
    pub fn commit_next(&mut self, horizon: Option<SimTime>) -> Option<Commit> {
        let &Reverse((link_ready, _, dst)) = self.keys.peek()?;
        if horizon.is_some_and(|h| link_ready > h) {
            return None;
        }
        self.keys.pop();
        let queue = &mut self.queues[usize::from(dst)];
        // INVARIANT: the heap and the queues hold the same keys, and the
        // heap minimum is the minimum of its own destination's queue.
        let (_, item) = queue.pop_front().expect("heap key names a queue head");
        match item {
            Staged::One(packet) => {
                let arrival = self.admit(&packet, link_ready);
                Some(Commit::One { link_ready, arrival, packet })
            }
            Staged::Run(run) => {
                let next = queue.front().map(|(k, _)| *k);
                let mut take: u32 = 1;
                while take < run.count {
                    let key = run.member_key(take);
                    let due = horizon.is_none_or(|h| key.0 <= h);
                    let ahead = next.is_none_or(|n| key < n);
                    if !(due && ahead) {
                        break;
                    }
                    take += 1;
                }
                Some(Commit::Run { link_ready, run, take })
            }
        }
    }

    /// Returns the uncommitted tail of a partially committed run to the
    /// staged queue: the template advances past the `take` delivered
    /// members and the remainder re-enters keyed by its new first member.
    /// The payload moves with the run — no clone, no allocation.
    // lint:hot_path
    pub fn restage_run_tail(&mut self, mut run: PacketRun, take: u32) {
        if take >= run.count {
            return;
        }
        run.advance(take);
        let (at, tag) = run.member_key(0);
        self.stage(at, tag, Staged::Run(run));
    }

    /// Serializes a packet that reached the destination's inbound link at
    /// `link_ready` and returns its arrival instant (wire time plus any
    /// wait for earlier traffic on the same link).
    // lint:hot_path
    pub fn admit(&mut self, packet: &Packet, link_ready: SimTime) -> SimTime {
        let bytes = packet.wire_bytes();
        let wire = SimDuration::from_bytes_at_rate(bytes, self.params.mb_per_s);
        let d = packet.dst.raw() as usize;
        let Some(link) = self.links.get_mut(d) else {
            // Defensive: inject() drops out-of-fabric destinations, so
            // only a header corrupted after injection can land here. Count
            // the discard (the conservation check attributes it) instead
            // of panicking mid-drain; the bogus instant is never observed
            // because the packet is gone.
            self.counters.drops.incr();
            return link_ready;
        };
        let start = link_ready.max(link.busy_until);
        let arrives = start + wire;
        link.busy_until = arrives;
        link.wire_bytes += bytes;
        arrives
    }

    /// Staged entries not yet committed — a run counts once, however
    /// many members it holds — so zero exactly when nothing is in flight.
    pub fn staged_len(&self) -> usize {
        self.keys.len()
    }

    /// Earliest staged `link_ready`, if any.
    pub fn next_staged(&self) -> Option<SimTime> {
        self.keys.peek().map(|Reverse((at, _, _))| *at)
    }

    /// Traffic counts: injected packets, payload bytes, fabric drops.
    pub fn counters(&self) -> &FabricCounters {
        &self.counters
    }

    /// The shard's minimum cross-node latency (one router hop): the
    /// conservative engine's lookahead. Any packet injected at or after
    /// instant `t` reaches its destination's inbound link strictly after
    /// `t` as long as this is positive.
    pub fn lookahead(&self) -> SimDuration {
        self.params.hop_latency
    }

    /// Wire bytes serialized on each node's inbound link, indexed by
    /// destination node (payload plus header, counted at admit).
    pub fn wire_bytes_per_link(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        self.links.iter().map(|l| l.wire_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shrimp_mem::PhysAddr;
    use shrimp_sim::XferId;

    /// A test packet with a unique correlation ID (`src:seq`): staged
    /// packets are keyed by ID, so distinct IDs pin a deterministic order.
    fn pkt(src: u16, dst: u16, bytes: usize, seq: u64) -> Packet {
        let mut p =
            Packet::new(NodeId::new(src), NodeId::new(dst), PhysAddr::new(0), vec![0; bytes]);
        p.meta.id = XferId::new(src, seq);
        p
    }

    /// Pops one commit and flattens it to per-member `(arrival, packet-ish)`
    /// tuples: run members are admitted on the link one by one exactly as
    /// the delivery core does, and any tail is restaged.
    fn commit_flat(
        shard: &mut FabricShard,
        horizon: Option<SimTime>,
    ) -> Vec<(SimTime, XferId, u8)> {
        match shard.commit_next(horizon) {
            None => Vec::new(),
            Some(Commit::One { arrival, packet, .. }) => {
                vec![(arrival, packet.meta.id, packet.payload[0])]
            }
            Some(Commit::Run { link_ready, run, take }) => {
                let mut out = Vec::new();
                for i in 0..take {
                    let lr = link_ready + run.stride() * u64::from(i);
                    let arrival = shard.admit(&run.template, lr);
                    let id = XferId::new(
                        run.template.meta.id.node(),
                        run.template.meta.id.seq() + u64::from(i),
                    );
                    out.push((arrival, id, run.template.payload[0]));
                }
                shard.restage_run_tail(run, take);
                out
            }
        }
    }

    /// Drains every staged entry, returning `(arrival, payload[0])`.
    fn drain(net: &mut Interconnect) -> Vec<(SimTime, u8)> {
        let mut out = Vec::new();
        loop {
            let batch = commit_flat(net.shard_mut(), None);
            if batch.is_empty() {
                break;
            }
            out.extend(batch.into_iter().map(|(at, _, b)| (at, b)));
        }
        out
    }

    #[test]
    fn hops_on_2x2_mesh() {
        let net = Interconnect::new(4, LinkParams::default());
        assert_eq!(net.hops(NodeId::new(0), NodeId::new(0)), 1);
        assert_eq!(net.hops(NodeId::new(0), NodeId::new(1)), 2);
        assert_eq!(net.hops(NodeId::new(0), NodeId::new(3)), 3); // diagonal
    }

    #[test]
    fn delivery_time_scales_with_distance() {
        let mut net = Interconnect::new(4, LinkParams::default());
        net.send(pkt(0, 1, 64, 0), SimTime::ZERO);
        net.send(pkt(0, 3, 64, 1), SimTime::ZERO);
        let times = drain(&mut net);
        let (near, far) = (times[0].0, times[1].0);
        assert!(far > near);
        assert_eq!(far - near, LinkParams::default().hop_latency);
    }

    #[test]
    fn destination_link_serializes() {
        let mut net = Interconnect::new(4, LinkParams::default());
        net.send(pkt(0, 1, 1000, 0), SimTime::ZERO);
        net.send(pkt(2, 1, 1000, 0), SimTime::ZERO);
        let times = drain(&mut net);
        assert!(times[1].0 > times[0].0, "second packet must queue behind the first");
    }

    #[test]
    fn point_to_point_ordering_preserved() {
        let mut net = Interconnect::new(2, LinkParams::default());
        let mut expected = Vec::new();
        for i in 0..5u8 {
            let mut p = pkt(0, 1, 32, u64::from(i));
            p.payload[0] = i;
            net.send(p, SimTime::from_nanos(u64::from(i)));
            expected.push(i);
        }
        let got: Vec<u8> = drain(&mut net).into_iter().map(|(_, b)| b).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn commit_respects_horizon() {
        let mut net = Interconnect::new(2, LinkParams::default());
        let link_ready = net.send(pkt(0, 1, 64, 0), SimTime::ZERO);
        let shard = net.shard_mut();
        assert!(shard.commit_next(Some(link_ready - SimDuration::from_nanos(1))).is_none());
        assert_eq!(net.in_flight_count(), 1);
        assert_eq!(net.shard_mut().next_staged(), Some(link_ready));
        assert!(net.shard_mut().commit_next(Some(link_ready)).is_some());
        assert_eq!(net.in_flight_count(), 0);
    }

    #[test]
    fn commit_pops_one_at_a_time_in_staged_order() {
        let mut net = Interconnect::new(2, LinkParams::default());
        net.send(pkt(0, 1, 64, 0), SimTime::ZERO);
        net.send(pkt(0, 1, 64, 1), SimTime::ZERO);
        // Same link_ready: the correlation ID breaks the tie, so the
        // first-injected packet commits first and owns the link first.
        let first = commit_flat(net.shard_mut(), None);
        let second = commit_flat(net.shard_mut(), None);
        assert_eq!(first[0].1, XferId::new(0, 0));
        assert_eq!(second[0].1, XferId::new(0, 1));
        assert!(second[0].0 > first[0].0, "link serialization orders arrivals");
        assert!(net.shard_mut().commit_next(None).is_none());
    }

    /// A run staged alongside the equivalent singles: identical arrival
    /// sequence, and a mid-run single from another node splits the run at
    /// exactly the right member.
    #[test]
    fn run_commit_matches_equivalent_singles() {
        let stride = SimDuration::from_us(20.0);
        let base = SimTime::from_nanos(5_000);

        // Literal path: five singles, 20 µs apart.
        let mut literal = Interconnect::new(4, LinkParams::default());
        for i in 0..5u64 {
            literal.send(pkt(0, 1, 256, i), base + stride * i);
        }
        // Competing traffic from node 2 lands between members 1 and 2.
        literal.send(pkt(2, 1, 64, 900), base + stride * 2);
        let lit = drain(&mut literal);

        // Run path: one descriptor plus the same competing single.
        let mut batched = Interconnect::new(4, LinkParams::default());
        let run = PacketRun {
            template: pkt(0, 1, 256, 0),
            count: 5,
            stride_ns: stride.as_nanos() as u32,
        };
        batched.shard_mut().send_run(run, base);
        batched.send(pkt(2, 1, 64, 900), base + stride * 2);
        let bat = drain(&mut batched);

        let lit_times: Vec<SimTime> = lit.iter().map(|&(at, _)| at).collect();
        let bat_times: Vec<SimTime> = bat.iter().map(|&(at, _)| at).collect();
        assert_eq!(bat_times, lit_times, "run split must reproduce the single-packet timeline");
        assert_eq!(batched.counters().packets.get(), literal.counters().packets.get());
        assert_eq!(batched.counters().payload_bytes.get(), literal.counters().payload_bytes.get());
    }

    /// Traffic bound for a *different* destination never splits a run,
    /// even when its key interleaves with the run's members — and the
    /// arrivals it produces are identical to the fully split drain,
    /// because every delivery effect is keyed by the destination.
    #[test]
    fn cross_destination_traffic_does_not_split_a_run() {
        let stride = SimDuration::from_us(20.0);
        let base = SimTime::from_nanos(5_000);
        let mut net = Interconnect::new(4, LinkParams::default());
        let run = PacketRun {
            template: pkt(0, 1, 256, 0),
            count: 5,
            stride_ns: stride.as_nanos() as u32,
        };
        net.shard_mut().send_run(run, base);
        // Key lands between members 1 and 2, but the destination differs.
        net.send(pkt(2, 3, 64, 900), base + stride * 2);

        let first = commit_flat(net.shard_mut(), None);
        assert_eq!(first.len(), 5, "unrelated traffic must not split the run");

        // Same scenario as singles: the per-destination arrivals match.
        let mut literal = Interconnect::new(4, LinkParams::default());
        for i in 0..5u64 {
            literal.send(pkt(0, 1, 256, i), base + stride * i);
        }
        literal.send(pkt(2, 3, 64, 900), base + stride * 2);
        let mut lit: Vec<SimTime> = drain(&mut literal).into_iter().map(|(at, _)| at).collect();
        let mut bat: Vec<SimTime> = first.iter().map(|&(at, _, _)| at).collect();
        bat.extend(drain(&mut net).into_iter().map(|(at, _)| at));
        lit.sort_unstable();
        bat.sort_unstable();
        assert_eq!(bat, lit, "arrivals must match the fully split drain");
    }

    /// A deep same-destination backlog, staged in scrambled order, drains
    /// in `(link_ready, id)` order.
    #[test]
    fn deep_same_destination_backlog_drains_in_order() {
        let mut net = Interconnect::new(2, LinkParams::default());
        let n = 211u64;
        for i in 0..n {
            let k = i * 97 % n;
            net.send(pkt(0, 1, 16, k), SimTime::from_nanos(k * 10));
        }
        let drained = drain(&mut net);
        assert_eq!(drained.len(), n as usize);
        assert!(drained.windows(2).all(|w| w[0].0 < w[1].0), "arrivals stay ordered");
    }

    /// Stages a 16-byte single from `src` to `dst` keyed at `at_ns`.
    fn stage_at(shard: &mut FabricShard, at_ns: u64, src: u16, dst: u16, seq: u64) {
        let p = pkt(src, dst, 16, seq);
        shard.stage(SimTime::from_nanos(at_ns), p.merge_tag(), Staged::One(p));
    }

    /// Commits singles up to `horizon` until none is due: `(link_ready, id)`.
    fn pops(shard: &mut FabricShard, horizon: Option<u64>) -> Vec<(u64, XferId)> {
        std::iter::from_fn(|| match shard.commit_next(horizon.map(SimTime::from_nanos))? {
            Commit::One { link_ready, packet, .. } => Some((link_ready.as_nanos(), packet.meta.id)),
            Commit::Run { .. } => panic!("only singles are staged"),
        })
        .collect()
    }

    #[test]
    fn commits_by_time_then_tag_regardless_of_staging_order() {
        // Two staging orders of the same set, spread over three
        // destinations: ties break by (source, sequence).
        let orders: [&[(u64, u16, u64, u16)]; 2] = [
            &[(50, 1, 0, 2), (50, 0, 0, 1), (10, 3, 7, 3), (50, 0, 1, 2)],
            &[(50, 0, 1, 2), (10, 3, 7, 3), (50, 0, 0, 1), (50, 1, 0, 2)],
        ];
        let mut seen = Vec::new();
        for order in orders {
            let mut net = Interconnect::new(4, LinkParams::default());
            for &(at, src, seq, dst) in order {
                stage_at(net.shard_mut(), at, src, dst, seq);
            }
            seen.push(pops(net.shard_mut(), None));
        }
        assert_eq!(seen[0], seen[1], "commit order must not depend on staging order");
        let id = XferId::new;
        assert_eq!(seen[0], [(10, id(3, 7)), (50, id(0, 0)), (50, id(0, 1)), (50, id(1, 0))]);
    }

    #[test]
    fn far_future_keys_commit_in_key_order() {
        // Keys scattered over ~13 ms and two destinations commit in
        // strict key order, under a creeping horizon and then unbounded.
        let mut net = Interconnect::new(2, LinkParams::default());
        let mut expect = Vec::new();
        for i in 0..200u64 {
            let at = (i * 7919) % 13_000_000;
            stage_at(net.shard_mut(), at, 0, (i % 2) as u16, i);
            expect.push((at, XferId::new(0, i)));
        }
        expect.sort_unstable();
        let mut got = pops(net.shard_mut(), Some(1_000_000));
        assert!(got.iter().all(|&(at, _)| at <= 1_000_000));
        got.extend(pops(net.shard_mut(), None));
        assert_eq!(got, expect);
        assert_eq!(net.in_flight_count(), 0);
    }

    #[test]
    fn keys_below_committed_ones_commit_first() {
        // A restaged run tail or a late single can key below what already
        // committed; it commits before everything still staged.
        let mut net = Interconnect::new(2, LinkParams::default());
        let shard = net.shard_mut();
        stage_at(shard, 10_000, 0, 1, 0);
        stage_at(shard, 90_000, 0, 1, 1);
        assert_eq!(pops(shard, Some(10_000)), [(10_000, XferId::new(0, 0))]);
        stage_at(shard, 9_500, 0, 1, 2);
        stage_at(shard, 40_000, 0, 0, 3);
        assert_eq!(shard.next_staged(), Some(SimTime::from_nanos(9_500)));
        let order: Vec<u64> = pops(shard, None).into_iter().map(|(_, id)| id.seq()).collect();
        assert_eq!(order, [2, 3, 1]);
    }

    #[test]
    fn next_staged_sees_every_destination() {
        let mut net = Interconnect::new(3, LinkParams::default());
        let shard = net.shard_mut();
        stage_at(shard, 1_000_000, 2, 2, 0);
        assert_eq!(shard.next_staged(), Some(SimTime::from_nanos(1_000_000)));
        stage_at(shard, 5_000, 2, 0, 1);
        assert_eq!(shard.next_staged(), Some(SimTime::from_nanos(5_000)));
        assert_eq!(pops(shard, Some(5_000)).len(), 1);
        assert_eq!(shard.next_staged(), Some(SimTime::from_nanos(1_000_000)));
        assert_eq!(shard.staged_len(), 1);
    }

    /// A run is one staged entry however many members it holds, so the
    /// in-flight count is entries, not packets.
    #[test]
    fn in_flight_count_counts_a_run_once() {
        let mut net = Interconnect::new(2, LinkParams::default());
        let run = PacketRun { template: pkt(0, 1, 64, 0), count: 5, stride_ns: 1_000 };
        net.shard_mut().send_run(run, SimTime::ZERO);
        net.send(pkt(1, 0, 64, 0), SimTime::ZERO);
        assert_eq!(net.in_flight_count(), 2);
        drain(&mut net);
        assert_eq!(net.in_flight_count(), 0);
    }

    /// The peak depth counts entries at their peak, and a merge folds the
    /// copies' peaks in as a max.
    #[test]
    fn staged_depth_high_is_the_peak_and_merges_as_max() {
        let mut net = Interconnect::new(2, LinkParams::default());
        for i in 0..3 {
            net.send(pkt(0, 1, 16, i), SimTime::from_nanos(i * 10));
        }
        drain(&mut net);
        net.send(pkt(0, 1, 16, 3), SimTime::from_nanos(100));
        drain(&mut net);
        assert_eq!(net.staged_depth_high(), 3);
        let mut copies = net.split(1);
        for i in 0..5 {
            copies[0].send(pkt(1, 1, 16, i), SimTime::from_nanos(i * 10));
        }
        while copies[0].commit_next(None).is_some() {}
        net.merge(copies, 1);
        assert_eq!(net.staged_depth_high(), 5);
    }

    /// The horizon splits a run: only members due at or before it commit,
    /// the tail re-stages with shifted keys, and a later commit finishes
    /// the run.
    #[test]
    fn run_commit_respects_horizon() {
        let stride = SimDuration::from_us(10.0);
        let mut net = Interconnect::new(2, LinkParams::default());
        let run =
            PacketRun { template: pkt(0, 1, 64, 0), count: 4, stride_ns: stride.as_nanos() as u32 };
        let base = net.shard_mut().send_run(run, SimTime::ZERO);

        // Horizon covers members 0 and 1 only.
        let horizon = base + stride;
        let first = commit_flat(net.shard_mut(), Some(horizon));
        assert_eq!(first.len(), 2, "two members due at the horizon");
        assert_eq!(first[0].1, XferId::new(0, 0));
        assert_eq!(first[1].1, XferId::new(0, 1));
        assert_eq!(net.shard_mut().next_staged(), Some(base + stride * 2));
        assert!(net.shard_mut().commit_next(Some(horizon)).is_none());

        let rest = commit_flat(net.shard_mut(), None);
        assert_eq!(rest.len(), 2, "the restaged tail commits as one run");
        assert_eq!(rest[0].1, XferId::new(0, 2));
        assert_eq!(rest[1].1, XferId::new(0, 3));
        assert_eq!(net.in_flight_count(), 0);
    }

    /// §7 arbitration: a system packet staged at the same `link_ready`
    /// as user packets commits first, even when its transfer ID sorts
    /// last — and within each class the `XferId` order is untouched.
    #[test]
    fn system_class_wins_equal_time_arbitration() {
        use crate::PacketClass;
        let mut net = Interconnect::new(2, LinkParams::default());
        let at = SimTime::from_nanos(100);
        net.send(pkt(0, 1, 64, 0), at);
        net.send(pkt(0, 1, 64, 1), at);
        let mut sys = pkt(0, 1, 64, 2);
        sys.class = PacketClass::System;
        net.send(sys, at);
        let order: Vec<u64> = std::iter::from_fn(|| commit_flat(net.shard_mut(), None).pop())
            .map(|(_, id, _)| id.seq())
            .collect();
        assert_eq!(order, [2, 0, 1], "system first, then user in XferId order");
    }

    /// A user-class run and a same-time system single: the system packet
    /// splits the run at member 0 (it owns the link first), and the run
    /// commits after it without losing a member.
    #[test]
    fn system_single_preempts_a_user_run_at_equal_time() {
        use crate::PacketClass;
        let stride = SimDuration::from_us(10.0);
        let mut net = Interconnect::new(4, LinkParams::default());
        let run =
            PacketRun { template: pkt(0, 1, 64, 0), count: 3, stride_ns: stride.as_nanos() as u32 };
        net.shard_mut().send_run(run, SimTime::ZERO);
        let mut sys = pkt(3, 1, 64, 900);
        sys.class = PacketClass::System;
        // Nodes 0 and 3 are both two hops from node 1 on the 2×2 mesh, so
        // sending at the same instant lands both at the same link_ready.
        net.send(sys, SimTime::ZERO);
        let order: Vec<XferId> = std::iter::from_fn(|| {
            let batch = commit_flat(net.shard_mut(), None);
            (!batch.is_empty()).then_some(batch)
        })
        .flatten()
        .map(|(_, id, _)| id)
        .collect();
        assert_eq!(
            order,
            [XferId::new(3, 900), XferId::new(0, 0), XferId::new(0, 1), XferId::new(0, 2)],
            "system packet commits ahead of the whole equal-time run"
        );
    }

    #[test]
    fn stats_count_traffic() {
        let mut net = Interconnect::new(2, LinkParams::default());
        net.send(pkt(0, 1, 10, 0), SimTime::ZERO);
        net.send(pkt(1, 0, 20, 0), SimTime::ZERO);
        assert_eq!(net.counters().packets.get(), 2);
        assert_eq!(net.counters().payload_bytes.get(), 30);
    }

    #[test]
    fn wire_bytes_counted_per_destination_link() {
        let mut net = Interconnect::new(4, LinkParams::default());
        net.send(pkt(0, 1, 100, 0), SimTime::ZERO);
        net.send(pkt(2, 1, 50, 0), SimTime::ZERO);
        net.send(pkt(0, 3, 10, 1), SimTime::ZERO);
        drain(&mut net);
        let per_link: Vec<u64> = net.wire_bytes_per_link().collect();
        let hdr = pkt(0, 1, 0, 0).wire_bytes();
        assert_eq!(per_link[0], 0, "node 0 received nothing");
        assert_eq!(per_link[1], 150 + 2 * hdr);
        assert_eq!(per_link[3], 10 + hdr);
        assert_eq!(net.counters().drops.get(), 0);
    }

    #[test]
    fn corrupted_destination_is_dropped_not_panicked() {
        // `inject` drops out-of-fabric destinations, so only a header
        // corrupted after injection can reach `admit` out of range; the
        // fabric counts the discard instead of unwinding mid-drain.
        let mut net = Interconnect::new(2, LinkParams::default());
        let shard = net.shard_mut();
        shard.admit(&pkt(0, 7, 16, 0), SimTime::ZERO);
        assert_eq!(shard.counters().drops.get(), 1);
        assert_eq!(shard.wire_bytes_per_link().collect::<Vec<u64>>(), [0, 0]);
    }

    #[test]
    fn out_of_fabric_destination_is_injected_then_dropped() {
        // A NIPT entry may name a node the machine does not have: the
        // packet counts as injected and as a fabric drop, and routes
        // nowhere — packets and runs alike.
        let mut net = Interconnect::new(2, LinkParams::default());
        let shard = net.shard_mut();
        assert_eq!(shard.inject(&mut pkt(0, 9, 16, 0), SimTime::ZERO), None);
        let mut run = PacketRun { template: pkt(0, 9, 16, 1), count: 3, stride_ns: 10 };
        assert_eq!(shard.inject_run(&mut run, SimTime::ZERO), None);
        assert_eq!(shard.counters().packets.get(), 4);
        assert_eq!(shard.counters().payload_bytes.get(), 4 * 16);
        assert_eq!(shard.counters().drops.get(), 4);
        assert_eq!(net.in_flight_count(), 0);
    }

    #[test]
    #[should_panic(expected = "not in fabric")]
    fn out_of_fabric_send_panics() {
        let mut net = Interconnect::new(2, LinkParams::default());
        net.send(pkt(0, 5, 1, 0), SimTime::ZERO);
    }

    #[test]
    fn grid_cols_handles_non_square_node_counts() {
        // (nodes, expected columns): ceil(sqrt(n)) by pure integers, from
        // toy meshes through the big-machine points the bench sweeps —
        // including 1000, which is decidedly non-square (31² = 961 < 1000).
        for (nodes, cols) in [
            (1, 1),
            (2, 2),
            (3, 2),
            (4, 2),
            (5, 3),
            (7, 3),
            (9, 3),
            (10, 4),
            (64, 8),
            (256, 16),
            (1000, 32),
            (1024, 32),
        ] {
            assert_eq!(grid_cols(nodes), cols, "{nodes} nodes");
        }
    }

    #[test]
    fn non_square_meshes_route_consistently() {
        // From toy meshes to a 1000-node machine (a 32-wide grid with a
        // ragged last row): every pair has a positive hop count, symmetric
        // in both directions, and self-sends still cross the ejection
        // router once.
        for nodes in [3u16, 5, 7, 64, 1000] {
            let net = Interconnect::new(nodes, LinkParams::default());
            for a in 0..nodes {
                for b in 0..nodes {
                    let ab = net.hops(NodeId::new(a), NodeId::new(b));
                    let ba = net.hops(NodeId::new(b), NodeId::new(a));
                    assert_eq!(ab, ba, "{nodes} nodes: hops must be symmetric");
                    assert!(ab >= 1, "{nodes} nodes: {a}->{b} must cross the ejection router");
                }
            }
        }
    }

    #[test]
    fn split_shards_reproduce_the_one_shard_timeline() {
        // The same packet sequence through the one-shard Interconnect and
        // through split shards (staged with the same keys, committed in
        // the same order) must produce identical arrival times and
        // identical post-run link state.
        let sequence: [(u16, u16, usize, u64); 5] =
            [(0, 1, 1000, 0), (2, 1, 1000, 0), (3, 1, 64, 100), (0, 3, 256, 200), (1, 3, 64, 200)];

        let mut serial = Interconnect::new(4, LinkParams::default());
        for (i, &(s, d, bytes, at)) in sequence.iter().enumerate() {
            serial.send(pkt(s, d, bytes, i as u64), SimTime::from_nanos(at));
        }
        let serial_times: Vec<SimTime> = std::iter::from_fn(|| {
            let batch = commit_flat(serial.shard_mut(), None);
            if batch.is_empty() {
                None
            } else {
                Some(batch)
            }
        })
        .flatten()
        .map(|(at, _, _)| at)
        .collect();

        let mut net = Interconnect::new(4, LinkParams::default());
        // Nodes 0..2 on the fabric's own shard (shard 0), nodes 2..4 on
        // the one split-off copy (shard 1).
        let per_shard = 2;
        let mut copies = net.split(1);
        let mut shard_times = Vec::new();
        {
            let mut shards = [net.shard_mut(), &mut copies[0]];
            for (i, &(s, d, bytes, at)) in sequence.iter().enumerate() {
                let mut p = pkt(s, d, bytes, i as u64);
                let owner = |node: u16| usize::from(node) / per_shard;
                let ready = shards[owner(s)].inject(&mut p, SimTime::from_nanos(at)).unwrap();
                let tag = p.merge_tag();
                shards[owner(d)].stage(ready, tag, Staged::One(p));
            }
            for shard in &mut shards {
                loop {
                    let batch = commit_flat(shard, None);
                    if batch.is_empty() {
                        break;
                    }
                    shard_times.extend(batch.into_iter().map(|(at, _, _)| at));
                }
            }
        }
        shard_times.sort_unstable();
        let mut sorted_serial = serial_times.clone();
        sorted_serial.sort_unstable();
        assert_eq!(shard_times, sorted_serial);
        net.merge(copies, per_shard);

        assert_eq!(net.counters().packets.get(), serial.counters().packets.get());
        assert_eq!(net.counters().payload_bytes.get(), serial.counters().payload_bytes.get());
        // Follow-up traffic sees identical link occupancy.
        serial.send(pkt(0, 1, 64, 10), SimTime::from_nanos(300));
        net.send(pkt(0, 1, 64, 10), SimTime::from_nanos(300));
        let a = commit_flat(serial.shard_mut(), None).first().map(|&(at, _, _)| at);
        let b = commit_flat(net.shard_mut(), None).first().map(|&(at, _, _)| at);
        assert_eq!(a, b, "merged link state must match the one-shard fabric");
    }

    #[test]
    #[should_panic(expected = "packets in flight")]
    fn split_requires_quiet_fabric() {
        let mut net = Interconnect::new(2, LinkParams::default());
        net.send(pkt(0, 1, 64, 0), SimTime::ZERO);
        let _ = net.split(2);
    }

    #[test]
    fn shard_lookahead_is_hop_latency() {
        let mut net = Interconnect::new(2, LinkParams::default());
        let shards = net.split(1);
        assert_eq!(shards[0].lookahead(), LinkParams::default().hop_latency);
        assert!(shards[0].lookahead() > SimDuration::ZERO, "conservative sync needs lookahead");
    }
}
