//! Transfer-level flight recorder: typed spans with cross-node correlation.
//!
//! The UDMA fast path is invisible by design — two memory references and
//! no kernel entry — so the simulator needs its own black box. This module
//! provides one:
//!
//! - [`XferId`] — a correlation ID minted by the NIC when a transfer is
//!   packetized, carried inside every fabric packet ([`XferMeta`]),
//! - [`SpanRecord`] — the completed five-stage span of one packet
//!   (initiation → queued → wire → delivered → status-observed), assembled
//!   at delivery time from the timestamps the meta block accumulated,
//! - [`FlightRecorder`] — a span ring plus per-stage latency
//!   [`Histogram`]s, kept in merge-key order and merged deterministically
//!   by the sharded parallel engine. The ring is an [`EventRing`]: fixed
//!   capacity, storage reserved once when enabled, so the hot path never
//!   touches the heap.
//!
//! It is the simulator's only event recorder. Machine and kernel facts
//! (proxy references, Invals, evictions, context switches, faults) are
//! counters in the metrics registry, not events.
//!
//! Determinism contract: the parallel engine keeps every shard's ring in
//! `(link_ready, src‖seq)` order epoch by epoch and merges the rings in
//! that order, so the merged trace is bit-identical at any thread count.

use std::fmt;

use crate::stats::Histogram;
use crate::time::SimTime;

/// Correlation ID for one UDMA/PIO transfer packet.
///
/// Layout is `(source node) << 48 | per-NIC sequence number` — the same
/// shape as the parallel engine's merge tag, so sorting span records by
/// `(link_ready, id)` reproduces the engine's packet commit order exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct XferId(u64);

impl XferId {
    /// Mints the ID for `seq`-th packet sent by `node`.
    ///
    /// `seq` must fit in 48 bits; the simulator would need ~10^14 packets
    /// from one NIC to overflow.
    pub const fn new(node: u16, seq: u64) -> Self {
        XferId(((node as u64) << 48) | (seq & ((1 << 48) - 1)))
    }

    /// The minting (source) node.
    pub const fn node(self) -> u16 {
        (self.0 >> 48) as u16
    }

    /// The per-NIC sequence number.
    pub const fn seq(self) -> u64 {
        self.0 & ((1 << 48) - 1)
    }

    /// The packed 64-bit form (sorts as `(node, seq)`).
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for XferId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.node(), self.seq())
    }
}

/// Per-packet correlation block carried inside every fabric packet.
///
/// The NIC fills `id`, `initiated_at` and `queued_at` when it packetizes;
/// the fabric stamps `link_ready` on injection; the sending driver stamps
/// `status_observed` (the sender's clock after its completion LOAD
/// returned) when it drains the NIC. The receiver combines these with its
/// own arrival/deposit times into a [`SpanRecord`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct XferMeta {
    /// Correlation ID minted by the sending NIC.
    pub id: XferId,
    /// When the user's STORE kicked off the DMA transfer that produced
    /// this packet (the transfer's `started_at`).
    pub initiated_at: SimTime,
    /// When the NIC finished packetizing (DMA retire + header build).
    pub queued_at: SimTime,
    /// When the packet reached the head of the source link (routing done,
    /// before link serialization).
    pub link_ready: SimTime,
    /// The sender's clock when the packet left the node — by then the
    /// completion-status LOAD for the owning message has been observed.
    pub status_observed: SimTime,
}

/// Number of stages in a transfer span.
pub const STAGE_COUNT: usize = 5;

/// One stage of a transfer span, in pipeline order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// User STORE → NIC packetize: DMA engine service time.
    Initiation,
    /// Packetize → head of the source link: header build + routing.
    Queued,
    /// Head of link → last byte off the wire: serialization + contention.
    Wire,
    /// Wire → data deposited in destination physical memory: EISA DMA.
    Delivered,
    /// Deposit → sender's completion status observed.
    StatusObserved,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; STAGE_COUNT] =
        [Stage::Initiation, Stage::Queued, Stage::Wire, Stage::Delivered, Stage::StatusObserved];

    /// Stable display name (used in the Perfetto export).
    pub const fn name(self) -> &'static str {
        match self {
            Stage::Initiation => "initiation",
            Stage::Queued => "queued",
            Stage::Wire => "wire",
            Stage::Delivered => "delivered",
            Stage::StatusObserved => "status-observed",
        }
    }

    /// Index into [`Stage::ALL`].
    pub const fn index(self) -> usize {
        match self {
            Stage::Initiation => 0,
            Stage::Queued => 1,
            Stage::Wire => 2,
            Stage::Delivered => 3,
            Stage::StatusObserved => 4,
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The completed span of one packet: six timestamps bounding five stages.
///
/// `Copy` and fixed-size by construction — recording one is a handful of
/// word moves into a pre-sized ring, never a heap allocation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanRecord {
    /// Correlation ID (also encodes the source node and NIC sequence).
    pub id: XferId,
    /// Sending node index.
    pub src: u16,
    /// Receiving node index.
    pub dst: u16,
    /// Payload bytes carried.
    pub bytes: u32,
    /// User STORE that started the owning DMA transfer.
    pub initiated_at: SimTime,
    /// NIC packetize complete.
    pub queued_at: SimTime,
    /// Head of the source link (routing done).
    pub link_ready: SimTime,
    /// Last byte off the wire at the receiver.
    pub wire_done: SimTime,
    /// Data deposited into destination physical memory.
    pub delivered_at: SimTime,
    /// Sender's completion status observed (clamped to `delivered_at`).
    pub status_at: SimTime,
}

impl SpanRecord {
    /// The `[start, end]` bounds of `stage`.
    pub fn stage_bounds(&self, stage: Stage) -> (SimTime, SimTime) {
        match stage {
            Stage::Initiation => (self.initiated_at, self.queued_at),
            Stage::Queued => (self.queued_at, self.link_ready),
            Stage::Wire => (self.link_ready, self.wire_done),
            Stage::Delivered => (self.wire_done, self.delivered_at),
            Stage::StatusObserved => (self.delivered_at, self.status_at),
        }
    }

    /// `true` when the six timestamps are non-decreasing in stage order.
    pub fn is_monotonic(&self) -> bool {
        self.initiated_at <= self.queued_at
            && self.queued_at <= self.link_ready
            && self.link_ready <= self.wire_done
            && self.wire_done <= self.delivered_at
            && self.delivered_at <= self.status_at
    }

    /// The deterministic merge key: `(link_ready, id)` — identical to the
    /// parallel engine's `(link_ready, src‖seq)` packet commit order.
    pub fn merge_key(&self) -> (SimTime, u64) {
        (self.link_ready, self.id.raw())
    }
}

/// Fixed-capacity ring buffer for `Copy` records.
///
/// Construction is free: storage is reserved only when the ring is
/// enabled, so disabled recorders cost nothing and enabled ones allocate
/// once, *before* the measured region. Recording into an enabled ring
/// never allocates; when full, the oldest record is overwritten.
#[derive(Clone, Debug)]
pub(crate) struct EventRing<T> {
    buf: Vec<T>,
    head: usize,
    cap: usize,
    enabled: bool,
    total: u64,
}

impl<T: Copy> EventRing<T> {
    /// A disabled ring that will hold up to `capacity` records.
    ///
    /// # Panics
    ///
    /// If `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "EventRing capacity must be non-zero");
        EventRing { buf: Vec::new(), head: 0, cap: capacity, enabled: false, total: 0 }
    }

    /// Enables or disables recording. Enabling reserves the ring's full
    /// storage up front (the one and only allocation).
    pub fn set_enabled(&mut self, enabled: bool) {
        if enabled && self.buf.capacity() < self.cap {
            self.buf.reserve_exact(self.cap - self.buf.len());
        }
        self.enabled = enabled;
    }

    /// Whether the owner records into this ring.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Stores `value`, overwriting the oldest record when full. The ring
    /// does not check `enabled`: its owner does.
    pub fn push(&mut self, value: T) {
        self.total += 1;
        if self.buf.len() < self.cap {
            // lint:allow(A1) -- fills the capacity reserved up front by
            // set_enabled exactly once, then overwrites in place.
            self.buf.push(value);
        } else {
            self.buf[self.head] = value;
            self.head = (self.head + 1) % self.cap;
        }
    }

    /// Records currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum records held at once.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Records ever offered to the ring (stored or overwritten).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Records lost to overwriting (`total - len`).
    pub fn dropped(&self) -> u64 {
        self.total - self.buf.len() as u64
    }

    /// Iterates oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf[self.head..].iter().chain(self.buf[..self.head].iter())
    }

    /// The newest `n` held records as one slice, which the ring keeps as
    /// its newest records in slice order — for callers that reorder it:
    /// as the whole ring, the slice starts in storage order. Storage
    /// moves only when a strict suffix wraps past its end.
    fn newest_mut(&mut self, n: usize) -> &mut [T] {
        let len = self.buf.len();
        if n == len {
            self.head = 0;
        } else if n > self.head && self.head > 0 {
            self.buf.rotate_left(self.head);
            self.head = 0;
        }
        let end = if self.head == 0 { len } else { self.head };
        &mut self.buf[end - n..end]
    }
}

/// The flight recorder: a span ring plus per-stage latency histograms.
///
/// Histograms and the `total` count see *every* recorded span even after
/// the ring starts overwriting, so summary statistics are exact while the
/// ring keeps only the newest `capacity` spans for inspection/export.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    ring: EventRing<SpanRecord>,
    stages: [Histogram; STAGE_COUNT],
}

impl FlightRecorder {
    /// A disabled recorder holding up to `capacity` spans.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder { ring: EventRing::new(capacity), stages: Default::default() }
    }

    /// Enables or disables recording; enabling reserves the span ring.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.ring.set_enabled(enabled);
    }

    /// Whether spans are currently recorded.
    pub fn is_enabled(&self) -> bool {
        self.ring.is_enabled()
    }

    /// Records one completed span (no-op while disabled, alloc-free
    /// while enabled).
    #[inline]
    pub fn record(&mut self, span: SpanRecord) {
        if !self.ring.is_enabled() {
            return;
        }
        for stage in Stage::ALL {
            let (start, end) = span.stage_bounds(stage);
            self.stages[stage.index()].record(end.saturating_duration_since(start).as_nanos());
        }
        self.ring.push(span);
    }

    /// Sorts the held spans recorded since [`FlightRecorder::total_recorded`]
    /// read `since` by [`SpanRecord::merge_key`], in place. The parallel
    /// engine does this after every epoch's commit, so its rings stay in
    /// key order and retain the newest spans by key, even on overflow.
    pub fn sort_since(&mut self, since: u64) {
        let run = self.held_since(since);
        self.ring.newest_mut(run).sort_unstable_by_key(SpanRecord::merge_key);
    }

    /// Held spans recorded since the total read `since`: the newest ones.
    fn held_since(&self, since: u64) -> usize {
        self.ring.total().saturating_sub(since).min(self.ring.len() as u64) as usize
    }

    /// Deterministically merges other shards' recorders into the spans
    /// this one recorded since its total read `since`: all of them sort by
    /// [`SpanRecord::merge_key`] after the earlier spans, so the result
    /// does not depend on the sharding as long as every ring holds its
    /// newest spans by key ([`FlightRecorder::sort_since`]). Stage
    /// histograms are summed, so they stay exact past ring overflow.
    pub fn absorb(&mut self, since: u64, parts: Vec<FlightRecorder>) {
        let own = self.held_since(since);
        let mut records = self.ring.newest_mut(own).to_vec();
        for part in &parts {
            for (i, h) in part.stages.iter().enumerate() {
                self.stages[i].merge(h);
            }
            // Spans a part overwrote count as offered here, and dropped.
            self.ring.total += part.ring.dropped();
            records.extend(part.iter().copied());
        }
        records.sort_unstable_by_key(SpanRecord::merge_key);
        // The earliest go back into this ring's own slots, the rest after.
        let (mine, theirs) = records.split_at(own);
        self.ring.newest_mut(own).copy_from_slice(mine);
        for &record in theirs {
            self.ring.push(record);
        }
    }

    /// Latency histogram (nanoseconds) for one stage.
    pub fn stage_histogram(&self, stage: Stage) -> &Histogram {
        &self.stages[stage.index()]
    }

    /// Spans currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when no spans are held.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Maximum spans held at once.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Spans ever recorded (including those overwritten since).
    pub fn total_recorded(&self) -> u64 {
        self.ring.total()
    }

    /// Spans lost to ring overwriting.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Iterates held spans, oldest → newest (commit order).
    pub fn iter(&self) -> impl Iterator<Item = &SpanRecord> {
        self.ring.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn span(seq: u64, link_ready: u64) -> SpanRecord {
        SpanRecord {
            id: XferId::new(0, seq),
            src: 0,
            dst: 1,
            bytes: 64,
            initiated_at: t(10),
            queued_at: t(20),
            link_ready: t(link_ready),
            wire_done: t(link_ready + 5),
            delivered_at: t(link_ready + 9),
            status_at: t(link_ready + 9),
        }
    }

    #[test]
    fn xfer_id_packs_node_and_sequence() {
        let id = XferId::new(3, 17);
        assert_eq!(id.node(), 3);
        assert_eq!(id.seq(), 17);
        assert_eq!(id.raw(), (3u64 << 48) | 17);
        assert_eq!(id.to_string(), "3:17");
    }

    #[test]
    fn span_monotonicity_and_bounds() {
        let s = span(0, 30);
        assert!(s.is_monotonic());
        assert_eq!(s.stage_bounds(Stage::Initiation), (t(10), t(20)));
        assert_eq!(s.stage_bounds(Stage::StatusObserved), (t(39), t(39)));
        let mut bad = s;
        bad.wire_done = t(5);
        assert!(!bad.is_monotonic());
    }

    #[test]
    fn ring_is_disabled_by_default_and_overwrites_when_full() {
        let mut ring: EventRing<u64> = EventRing::new(3);
        assert!(!ring.is_enabled());
        assert_eq!(ring.buf.capacity(), 0);
        ring.set_enabled(true);
        assert!(ring.is_enabled());
        for v in 0..5 {
            ring.push(v);
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.total(), 5);
        assert_eq!(ring.dropped(), 2);
        let held: Vec<u64> = ring.iter().copied().collect();
        assert_eq!(held, vec![2, 3, 4]);
    }

    #[test]
    fn enabling_reserves_storage_once() {
        let mut ring: EventRing<u64> = EventRing::new(128);
        assert_eq!(ring.buf.capacity(), 0);
        ring.set_enabled(true);
        let cap = ring.buf.capacity();
        assert!(cap >= 128);
        for v in 0..1000 {
            ring.push(v);
        }
        assert_eq!(ring.buf.capacity(), cap, "recording must never reallocate");
    }

    #[test]
    fn recorder_tracks_stage_histograms() {
        let mut fr = FlightRecorder::new(8);
        fr.set_enabled(true);
        fr.record(span(0, 30));
        let h = fr.stage_histogram(Stage::Initiation);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), Some(SimDuration::from_nanos(10).as_nanos()));
        assert_eq!(fr.stage_histogram(Stage::StatusObserved).max(), Some(0));
    }

    #[test]
    fn absorb_merges_in_commit_order_regardless_of_sharding() {
        // Shard A holds seq 0 (link_ready 40) and seq 2 (link_ready 30);
        // shard B holds seq 1 (link_ready 30). Commit order sorts by
        // (link_ready, id): seq1 ties seq2 on time, loses on id? No —
        // XferId::new(0, 1) < XferId::new(0, 2), so order is 1, 2, 0.
        let mut a = FlightRecorder::new(8);
        let mut b = FlightRecorder::new(8);
        a.set_enabled(true);
        b.set_enabled(true);
        a.record(span(0, 40));
        a.record(span(2, 30));
        b.record(span(1, 30));

        let mut merged = FlightRecorder::new(8);
        merged.absorb(0, vec![a, b]);
        let seqs: Vec<u64> = merged.iter().map(|s| s.id.seq()).collect();
        assert_eq!(seqs, vec![1, 2, 0]);
        assert_eq!(merged.total_recorded(), 3);
        assert_eq!(merged.stage_histogram(Stage::Wire).count(), 3);
    }

    /// What a run leaves in `machine` when every shard records into a
    /// recorder of its own and the merge concatenates, sorts and appends
    /// their retained spans: the model [`FlightRecorder::sort_since`] and
    /// [`FlightRecorder::absorb`] must reproduce.
    fn model_merge(machine: &FlightRecorder, shards: &[Vec<SpanRecord>]) -> (Vec<u64>, u64) {
        let cap = machine.capacity();
        let mut ring = EventRing::new(cap);
        ring.set_enabled(true);
        ring.total = machine.total_recorded();
        let mut retained = Vec::new();
        for spans in shards {
            ring.total += spans.len().saturating_sub(cap) as u64;
            retained.extend_from_slice(&spans[spans.len().saturating_sub(cap)..]);
        }
        retained.sort_unstable_by_key(SpanRecord::merge_key);
        let earlier: Vec<SpanRecord> = machine.iter().copied().collect();
        ring.total -= earlier.len() as u64;
        for s in earlier.into_iter().chain(retained) {
            ring.push(s);
        }
        (ring.iter().map(|s| s.id.raw()).collect(), ring.dropped())
    }

    #[test]
    fn shard_zero_recording_in_place_matches_the_merge_model() {
        // Spans in commit order that is not merge-key order (link_ready
        // runs backwards within each group of three), on an 8-span ring:
        // runs below, at and past its capacity, after 0, 5, 11 and 14
        // earlier spans (an empty, a partly full and a wrapped ring; 14
        // makes a 3-span run wrap past the end of storage), at 1, 2 and
        // 3 shards.
        let spans = |shard: u16, n: u64| -> Vec<SpanRecord> {
            (0..n)
                .map(|i| {
                    let mut s = span(i, 1000 + 10 * (i / 3) + 3 * (2 - i % 3) + u64::from(shard));
                    s.id = XferId::new(shard, i);
                    s
                })
                .collect()
        };
        for earlier in [0u64, 5, 11, 14] {
            for run in [3u64, 8, 13, 20] {
                for shards in 1u16..=3 {
                    let mut machine = FlightRecorder::new(8);
                    machine.set_enabled(true);
                    for i in 0..earlier {
                        machine.record(span(1 << 40 | i, 10 + i));
                    }
                    let parts: Vec<Vec<SpanRecord>> =
                        (0..shards).map(|k| spans(k, run + u64::from(k))).collect();
                    let want = model_merge(&machine, &parts);
                    let since = machine.total_recorded();
                    for &s in &parts[0] {
                        machine.record(s);
                    }
                    if shards == 1 {
                        machine.sort_since(since);
                    } else {
                        let others = parts[1..]
                            .iter()
                            .map(|p| {
                                let mut r = FlightRecorder::new(8);
                                r.set_enabled(true);
                                p.iter().for_each(|&s| r.record(s));
                                r
                            })
                            .collect();
                        machine.absorb(since, others);
                    }
                    let got = (machine.iter().map(|s| s.id.raw()).collect(), machine.dropped());
                    assert_eq!(got, want, "{earlier} earlier, {run} run, {shards} shards");
                }
            }
        }
    }
}
