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
//! - [`FlightRecorder`] — span runs plus per-stage latency
//!   [`Histogram`]s. A span run is a head span plus a count and a stride,
//!   so a message train the engine commits as one packet run is stored
//!   once and expanded into [`SpanRecord`]s only when read. Storage is
//!   fixed: one run slot per span of capacity, reserved once when
//!   enabled, so the hot path never touches the heap.
//!
//! It is the simulator's only event recorder. Machine and kernel facts
//! (proxy references, Invals, evictions, context switches, faults) are
//! counters in the metrics registry, not events.
//!
//! Retention: the recorder keeps its newest `capacity` spans. Every commit
//! (a serial `propagate` or one engine epoch) records one epoch, whose
//! spans are ordered by merge key `(link_ready, src‖seq)`; at each epoch
//! close the oldest go — whole epochs first, then the epoch straddling
//! the cut by key — without sorting a span. Engine epochs commit in key
//! order, so a run keeps its newest spans by key, and the parallel
//! engine's merge of per-shard recorders keeps the same spans at any
//! thread count.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

use crate::stats::Histogram;
use crate::time::{SimDuration, SimTime};

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

/// A merge key `(link_ready, id)` packed into one integer of the same
/// order.
fn packed(link_ready: SimTime, id: u64) -> u128 {
    (u128::from(link_ready.as_nanos()) << 64) | u128::from(id)
}

/// The five stage durations of `span`, in nanoseconds.
fn durations(span: &SpanRecord) -> [u64; STAGE_COUNT] {
    Stage::ALL.map(|stage| {
        let (start, end) = span.stage_bounds(stage);
        end.saturating_duration_since(start).as_nanos()
    })
}

/// A span run: `head` plus the `count - 1` spans after it, member `i`
/// being `head` with all six instants `i` strides later and its sequence
/// number `i` higher — the recorder's twin of a packet run. A run's
/// members share their stage durations, and their merge keys rise
/// strictly with the index.
#[derive(Clone, Copy, Debug, Default)]
struct SpanRun {
    head: SpanRecord,
    stride_ns: u32,
    count: u16,
    /// Whether the run is the first of its epoch.
    opens: bool,
}

// The recorder reserves one run per span of capacity.
const _: () = assert!(std::mem::size_of::<SpanRun>() <= 72);

impl SpanRun {
    fn new(head: SpanRecord) -> Self {
        SpanRun { head, stride_ns: 0, count: 1, opens: false }
    }

    /// Member `i` (`i = count` is the span that would extend the run).
    fn member(&self, i: u16) -> SpanRecord {
        let shift = SimDuration::from_nanos(u64::from(self.stride_ns) * u64::from(i));
        let h = self.head;
        SpanRecord {
            id: XferId::new(h.id.node(), h.id.seq() + u64::from(i)),
            initiated_at: h.initiated_at + shift,
            queued_at: h.queued_at + shift,
            link_ready: h.link_ready + shift,
            wire_done: h.wire_done + shift,
            delivered_at: h.delivered_at + shift,
            status_at: h.status_at + shift,
            ..h
        }
    }

    /// Member `i`'s packed merge key.
    fn key(&self, i: u16) -> u128 {
        let shift = SimDuration::from_nanos(u64::from(self.stride_ns) * u64::from(i));
        packed(self.head.link_ready + shift, self.head.id.raw() + u64::from(i))
    }

    /// Grows the run by `span` when it is the member after the last (the
    /// second member fixes the stride).
    fn grow(&mut self, span: &SpanRecord) -> bool {
        if self.count == 1 {
            let gap = span.initiated_at.as_nanos().wrapping_sub(self.head.initiated_at.as_nanos());
            let Ok(stride) = u32::try_from(gap) else { return false };
            self.stride_ns = stride;
        } else if self.count == u16::MAX {
            return false;
        }
        if self.member(self.count) != *span {
            return false;
        }
        self.count += 1;
        true
    }

    /// Drops the first `n < count` members.
    fn advance(&mut self, n: u16) {
        self.head = self.member(n);
        self.count -= n;
    }

    /// Members whose merge key is below `k`, by arithmetic: with a stride,
    /// member `i` lies below exactly when `i` strides fall short of `k`'s
    /// instant, or reach it with a smaller id; without one, every member
    /// shares the head's instant and the ids decide.
    fn below(&self, k: u128) -> u16 {
        let (at, id) = ((k >> 64) as u64, k as u64);
        let (t0, id0) = (self.head.link_ready.as_nanos(), self.head.id.raw());
        let s = u64::from(self.stride_ns);
        let n = if at < t0 {
            0
        } else if s == 0 {
            if at > t0 {
                u64::MAX
            } else {
                id.saturating_sub(id0)
            }
        } else {
            let d = at - t0;
            let earlier = d.div_ceil(s);
            if d % s == 0 && id0.saturating_add(earlier) < id {
                earlier + 1
            } else {
                earlier
            }
        };
        n.min(u64::from(self.count)) as u16
    }
}

/// The merge key that exactly `n` members of `runs` lie below, for
/// `n` less than their total: a binary search over keys, counting each
/// run's members below a probe by [`SpanRun::below`]. Member keys are
/// distinct (every packet has its own id), so the key found is a member's.
fn threshold<'a>(runs: impl Iterator<Item = &'a SpanRun> + Clone, n: u64) -> u128 {
    let (mut lo, mut hi) = (u128::MAX, 0);
    for run in runs.clone() {
        lo = lo.min(run.key(0));
        hi = hi.max(run.key(run.count - 1) + 1);
    }
    // Below `lo` lie none (≤ n) and below `hi` all (> n) members.
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        let below: u64 = runs.clone().map(|r| u64::from(r.below(mid))).sum();
        if below > n {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    lo
}

/// Cuts of at most this many spans drop the smallest key one at a time:
/// each drop is one pass over the epoch's run heads, where [`threshold`]
/// takes some 80 bisection probes, each counting every run's members.
const HEAD_DROPS: u64 = 64;

/// Fixed-capacity FIFO of `Copy` values. Construction is free: storage is
/// reserved only when the recorder is enabled, so a disabled recorder
/// costs nothing and an enabled one allocates once, *before* the measured
/// region. Its owner makes room before it pushes, so pushing never
/// allocates. While few values are held, they move back to the front of
/// the storage instead of wrapping, so a ring that never fills touches
/// only the slots it needs.
#[derive(Clone, Debug)]
struct Ring<T> {
    buf: Vec<T>,
    head: usize,
    len: usize,
    cap: usize,
}

impl<T: Copy> Ring<T> {
    fn new(cap: usize) -> Self {
        Ring { buf: Vec::new(), head: 0, len: 0, cap }
    }

    /// Reserves the full storage (the one and only allocation).
    fn reserve(&mut self) {
        if self.buf.capacity() < self.cap {
            self.buf.reserve_exact(self.cap - self.buf.len());
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_full(&self) -> bool {
        self.len == self.cap
    }

    fn slot(&self, i: usize) -> usize {
        let s = self.head + i;
        if s >= self.cap {
            s - self.cap
        } else {
            s
        }
    }

    /// The `i`-th value, oldest first.
    fn get(&self, i: usize) -> &T {
        &self.buf[self.slot(i)]
    }

    fn get_mut(&mut self, i: usize) -> &mut T {
        let s = self.slot(i);
        &mut self.buf[s]
    }

    fn iter(&self) -> impl Iterator<Item = &T> + Clone {
        (0..self.len).map(|i| self.get(i))
    }

    /// Appends `value`; the owner has made room.
    fn push_back(&mut self, value: T) {
        debug_assert!(self.len < self.cap, "push into a full ring");
        if self.buf.len() < self.cap {
            // lint:allow(A1) -- fills the capacity reserved up front by
            // `reserve`; the owner never pushes past it.
            self.buf.push(value);
        } else {
            let s = self.slot(self.len);
            self.buf[s] = value;
        }
        self.len += 1;
    }

    fn pop_front(&mut self) {
        self.head = self.slot(1);
        self.len -= 1;
        if self.len == 0 {
            self.head = 0;
            self.buf.clear();
        } else if self.head >= self.len && self.head + self.len == self.buf.len() {
            // Unwrapped and at least half spent: moving the live values
            // costs no more than the pops that spent the front did.
            self.buf.copy_within(self.head.., 0);
            self.buf.truncate(self.len);
            self.head = 0;
        }
    }
}

/// The flight recorder: span runs plus per-stage latency histograms.
///
/// Spans are held as *span runs* (a head span plus a count and a
/// stride), so a message train the engine commits as one run costs one
/// stored record, not one per member. Held spans are grouped in epochs,
/// oldest first: every commit records one, which
/// [`FlightRecorder::close_epoch`] ends, and each is ordered by merge key.
/// When more than `capacity` spans are held, the oldest go — whole epochs
/// first, then the smallest keys of the epoch that straddles the cut. An
/// engine epoch commits every packet due by its horizon before any later
/// one, so an engine run keeps its newest `capacity` spans by merge key
/// at any sharding; the serial driver keeps its newest commits whole and
/// cuts the straddling one by key.
///
/// Histograms and the `total` count see *every* recorded span even after
/// spans are dropped, so summary statistics are exact while the recorder
/// keeps only the newest `capacity` spans for inspection/export.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    /// Span runs, oldest first; storage for one run per span of capacity.
    runs: Ring<SpanRun>,
    /// Spans held (at most `cap` once the newest epoch is closed).
    held: u64,
    cap: u64,
    enabled: bool,
    total: u64,
    /// Runs ever pushed: the absolute index of the next one.
    pushed: u64,
    /// Whether the newest epoch takes more spans (its newest run may grow).
    open: bool,
    /// Whether `next`, the member after the newest run's last, extends it
    /// as a repeat of the histograms' pending durations.
    extends: bool,
    next: SpanRecord,
    stages: [Histogram; STAGE_COUNT],
    /// Spans recorded since the histograms last took a sample, all with
    /// these stage durations (a run's members share theirs).
    repeats: (u64, [u64; STAGE_COUNT]),
}

impl FlightRecorder {
    /// A disabled recorder holding up to `capacity` spans.
    ///
    /// # Panics
    ///
    /// If `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "FlightRecorder capacity must be non-zero");
        FlightRecorder {
            runs: Ring::new(capacity),
            held: 0,
            cap: capacity as u64,
            enabled: false,
            total: 0,
            pushed: 0,
            open: false,
            extends: false,
            next: SpanRecord::default(),
            stages: Default::default(),
            repeats: (0, [0; STAGE_COUNT]),
        }
    }

    /// Enables or disables recording; enabling reserves the span storage.
    pub fn set_enabled(&mut self, enabled: bool) {
        if enabled {
            self.runs.reserve();
        }
        self.enabled = enabled;
    }

    /// Whether spans are currently recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one completed span into the open epoch (no-op while
    /// disabled, alloc-free while enabled). A span that extends the
    /// newest run by one stride costs one comparison and a few
    /// increments: its stage durations are the run's, so the histograms
    /// take it as a repeat.
    #[inline]
    pub fn record(&mut self, span: SpanRecord) {
        if !self.enabled {
            return;
        }
        self.total += 1;
        if self.extends && span == self.next {
            self.repeats.0 += 1;
            self.held += 1;
            let n = self.runs.len();
            let run = self.runs.get_mut(n - 1);
            run.count += 1;
            self.extends = run.count < u16::MAX;
            self.next = run.member(run.count);
        } else {
            self.record_new(span);
        }
    }

    /// [`FlightRecorder::record`] for a span that is not the expected
    /// next member: it may still fix a single-span run's stride, or it
    /// starts a run.
    fn record_new(&mut self, span: SpanRecord) {
        let d = durations(&span);
        if d != self.repeats.1 {
            self.flush_repeats();
            self.repeats.1 = d;
        }
        self.repeats.0 += 1;
        let n = self.runs.len();
        if self.open && n > 0 {
            let run = self.runs.get_mut(n - 1);
            if run.grow(&span) {
                self.held += 1;
                self.extends = run.count < u16::MAX;
                self.next = run.member(run.count);
                return;
            }
        }
        // Whether or not `span` is kept, the repeat durations are its own
        // now, not the newest run's.
        self.extends = false;
        self.push_run(SpanRun::new(span));
    }

    /// Ends the open epoch (one commit's spans) and keeps the newest
    /// `capacity` spans: whole old epochs go first, then the smallest keys
    /// of the epoch that straddles the cut. No span is sorted.
    pub fn close_epoch(&mut self) {
        if self.held > self.cap {
            self.evict(self.held - self.cap);
        }
        (self.open, self.extends) = (false, false);
    }

    /// The mark [`FlightRecorder::absorb`] takes: read it before a run.
    pub fn mark(&self) -> u64 {
        self.pushed
    }

    /// Adds `run` to the open epoch, opening one if none is, and makes
    /// room first when every slot holds a run.
    fn push_run(&mut self, mut run: SpanRun) {
        if self.runs.is_full() && self.held > self.cap {
            self.evict(self.held - self.cap);
        }
        if self.runs.is_full() {
            // `cap` spans in single-span runs: one of them or `run` goes.
            // While the open epoch is the only one held, a run below
            // every held key is the one.
            if self.open && self.front_epoch().0 == self.runs.len() {
                let last = run.key(run.count - 1);
                if self.runs.iter().all(|r| r.key(0) > last) {
                    return;
                }
            }
            self.evict(1);
        }
        run.opens = !self.open;
        self.runs.push_back(run);
        self.pushed += 1;
        self.held += u64::from(run.count);
        self.open = true;
    }

    /// Runs and spans of the oldest epoch.
    fn front_epoch(&self) -> (usize, u64) {
        let mut spans = u64::from(self.runs.get(0).count);
        let mut runs = 1;
        while runs < self.runs.len() && !self.runs.get(runs).opens {
            spans += u64::from(self.runs.get(runs).count);
            runs += 1;
        }
        (runs, spans)
    }

    /// Drops the `n ≤ held` oldest spans: whole epochs while they fit,
    /// then the smallest keys of the straddling epoch.
    fn evict(&mut self, mut n: u64) {
        while n > 0 {
            let (runs, spans) = self.front_epoch();
            if spans <= n {
                (0..runs).for_each(|_| self.runs.pop_front());
                self.held -= spans;
                n -= spans;
            } else {
                self.trim_front_epoch(runs, n);
                self.held -= n;
                n = 0;
            }
        }
        if self.runs.len() == 0 {
            (self.open, self.extends) = (false, false);
        }
    }

    /// Drops the `n` smallest keys of the oldest epoch, whose `runs` runs
    /// hold more than `n` spans: a cut of up to [`HEAD_DROPS`] drops the
    /// smallest head `n` times, a larger one cuts every run at one key
    /// threshold.
    fn trim_front_epoch(&mut self, mut runs: usize, n: u64) {
        if n <= HEAD_DROPS {
            for _ in 0..n {
                // The smallest key is some run's head.
                let (mut at, mut min) = (0, self.runs.get(0).key(0));
                for i in 1..runs {
                    let key = self.runs.get(i).key(0);
                    if key < min {
                        (at, min) = (i, key);
                    }
                }
                let run = self.runs.get_mut(at);
                if run.count > 1 {
                    run.advance(1);
                    continue;
                }
                // The front run fills the emptied slot.
                let first = *self.runs.get(0);
                *self.runs.get_mut(at) = SpanRun { opens: false, ..first };
                self.runs.pop_front();
                self.runs.get_mut(0).opens = true;
                runs -= 1;
            }
            return;
        }
        let cut = threshold(self.runs.iter().take(runs), n);
        // Survivors pack toward the epoch's end; the emptied front slots go.
        let mut kept = runs;
        for i in (0..runs).rev() {
            let mut run = *self.runs.get(i);
            let below = run.below(cut);
            if below < run.count {
                run.advance(below);
                run.opens = false;
                kept -= 1;
                *self.runs.get_mut(kept) = run;
            }
        }
        (0..kept).for_each(|_| self.runs.pop_front());
        self.runs.get_mut(0).opens = true;
    }

    /// Folds the pending repeated samples into the histograms.
    fn flush_repeats(&mut self) {
        let (n, d) = self.repeats;
        for (h, &v) in self.stages.iter_mut().zip(&d) {
            h.record_n(v, n);
        }
        self.repeats.0 = 0;
    }

    /// Deterministically merges other shards' recorders into the spans
    /// this one recorded since [`FlightRecorder::mark`] read `since`:
    /// those spans re-open as one epoch, every other shard's runs join
    /// it, and the newest `capacity` spans by merge key stay, cut at one
    /// key as at an epoch close. The result does not depend on the
    /// sharding as long as every shard kept its newest `capacity` spans
    /// by key. Stage histograms are summed, so they stay exact past
    /// overflow. Off the hot path.
    pub fn absorb(&mut self, since: u64, parts: Vec<FlightRecorder>) {
        for part in &parts {
            for stage in Stage::ALL {
                self.stages[stage.index()].merge(&part.stage_histogram(stage));
            }
            self.total += part.total;
        }
        let front = self.pushed - self.runs.len() as u64;
        let first = (since.max(front) - front) as usize;
        for i in first..self.runs.len() {
            self.runs.get_mut(i).opens = i == first;
        }
        (self.open, self.extends) = (first < self.runs.len(), false);
        // What the close would drop goes first, found at one key: older
        // spans past the room the run leaves, and the run's spans below
        // its newest `capacity`, ours in place and theirs as they join.
        // Left to the joins, each would evict one span by a pass over the
        // epoch.
        let older: u64 = self.runs.iter().take(first).map(|r| u64::from(r.count)).sum();
        let union = self.held - older + parts.iter().map(|p| p.held).sum::<u64>();
        let own = self.runs.iter().skip(first);
        let theirs = parts.iter().flat_map(|p| p.runs.iter());
        let cut =
            (union > self.cap).then(|| threshold(own.clone().chain(theirs), union - self.cap));
        let below = |run: &SpanRun| cut.map_or(0, |k| run.below(k));
        let ours: u64 = own.map(|r| u64::from(below(r))).sum();
        self.evict((older + union).saturating_sub(self.cap).min(older) + ours);
        for &(mut run) in parts.iter().flat_map(|p| p.runs.iter()) {
            let n = below(&run);
            if n < run.count {
                run.advance(n);
                self.push_run(run);
            }
        }
        self.close_epoch();
    }

    /// Latency histogram (nanoseconds) for one stage.
    pub fn stage_histogram(&self, stage: Stage) -> Histogram {
        let mut h = self.stages[stage.index()].clone();
        h.record_n(self.repeats.1[stage.index()], self.repeats.0);
        h
    }

    /// Spans currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.held as usize
    }

    /// `true` when no spans are held.
    pub fn is_empty(&self) -> bool {
        self.held == 0
    }

    /// Maximum spans held at once.
    pub fn capacity(&self) -> usize {
        self.cap as usize
    }

    /// Spans ever recorded (including those dropped since).
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Spans lost to overflow.
    pub fn dropped(&self) -> u64 {
        self.total - self.held
    }

    /// Iterates held spans, oldest → newest: epoch by epoch, each
    /// epoch's runs expanded in merge-key order (a merge over its runs).
    /// Off the hot path: it allocates a cursor per run of one epoch.
    pub fn iter(&self) -> impl Iterator<Item = SpanRecord> + '_ {
        let runs = &self.runs;
        let mut next = 0;
        // Cursors `(key, run, member)` over one epoch's runs, smallest
        // first.
        let mut cursors: BinaryHeap<Reverse<(u128, usize, u16)>> = BinaryHeap::new();
        std::iter::from_fn(move || {
            if cursors.is_empty() {
                if next == runs.len() {
                    return None;
                }
                let start = next;
                next += 1;
                while next < runs.len() && !runs.get(next).opens {
                    next += 1;
                }
                cursors.extend((start..next).map(|i| Reverse((runs.get(i).key(0), i, 0))));
            }
            let Reverse((_, i, m)) = cursors.pop()?;
            let run = runs.get(i);
            if m + 1 < run.count {
                cursors.push(Reverse((run.key(m + 1), i, m + 1)));
            }
            Some(run.member(m))
        })
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

    /// Member `i` of a train from `node`: every instant `stride` ns later
    /// per member, so consecutive members extend one span run.
    fn train(node: u16, seq0: u64, start: u64, stride: u64, i: u64) -> SpanRecord {
        let at = start + stride * i;
        SpanRecord {
            id: XferId::new(node, seq0 + i),
            src: node,
            dst: node + 1,
            bytes: 4096,
            initiated_at: t(at),
            queued_at: t(at + 3),
            link_ready: t(at + 7),
            wire_done: t(at + 20),
            delivered_at: t(at + 31),
            status_at: t(at + 31),
        }
    }

    fn ids(fr: &FlightRecorder) -> Vec<u64> {
        fr.iter().map(|s| s.id.raw()).collect()
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
        let mut fr = FlightRecorder::new(3);
        assert!(!fr.is_enabled());
        assert_eq!(fr.runs.buf.capacity(), 0);
        fr.record(span(9, 30));
        assert_eq!(fr.total_recorded(), 0, "a disabled recorder records nothing");
        fr.set_enabled(true);
        assert!(fr.is_enabled());
        // Serial spans, one commit each, whose link_ready runs backwards:
        // the oldest recorded go first, whatever their keys.
        for seq in 0..5 {
            fr.record(span(seq, 100 - 10 * seq));
            fr.close_epoch();
        }
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.total_recorded(), 5);
        assert_eq!(fr.dropped(), 2);
        let held: Vec<u64> = fr.iter().map(|s| s.id.seq()).collect();
        assert_eq!(held, vec![2, 3, 4]);
    }

    #[test]
    fn enabling_reserves_storage_once() {
        let mut fr = FlightRecorder::new(128);
        assert_eq!(fr.runs.buf.capacity(), 0);
        fr.set_enabled(true);
        let cap = fr.runs.buf.capacity();
        assert!(cap >= 128);
        for i in 0..1000 {
            // Trains of 7 between single spans, in epochs of 100.
            let s = if i % 8 == 7 { span(1 << 40 | i, 5 * i) } else { train(2, i, 100 * i, 0, 0) };
            fr.record(s);
            if i % 100 == 99 {
                fr.close_epoch();
            }
        }
        assert_eq!(fr.runs.buf.capacity(), cap, "recording must never reallocate");
        assert_eq!(fr.len(), 128);
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
    fn a_train_is_one_run_and_every_member_reaches_the_histograms() {
        let mut fr = FlightRecorder::new(1024);
        fr.set_enabled(true);
        for i in 0..600 {
            fr.record(train(4, 0, 1000, 250, i));
        }
        fr.close_epoch();
        assert_eq!(fr.runs.len(), 1, "one train, one span run");
        assert_eq!(fr.len(), 600);
        let expanded: Vec<SpanRecord> = fr.iter().collect();
        let want: Vec<SpanRecord> = (0..600).map(|i| train(4, 0, 1000, 250, i)).collect();
        assert_eq!(expanded, want);
        let wire = fr.stage_histogram(Stage::Wire);
        assert_eq!(
            (wire.count(), wire.min(), wire.max(), wire.sum()),
            (600, Some(13), Some(13), 7800)
        );
    }

    #[test]
    fn below_counts_members_under_a_key_by_arithmetic() {
        // Against a member-by-member count, over strides with and without
        // ties at the probe instant and around each member's id.
        for stride in [0u32, 1, 7, 64] {
            let mut run = SpanRun::new(train(1, 40, 500, 0, 0));
            run.stride_ns = stride;
            run.count = 9;
            let keys: Vec<u128> = (0..9).map(|i| run.key(i)).collect();
            for &k in &keys {
                for probe in [k - 1, k, k + 1, k + (1 << 64)] {
                    let want = keys.iter().filter(|&&m| m < probe).count() as u16;
                    assert_eq!(run.below(probe), want, "stride {stride}, probe {probe:#x}");
                }
            }
            assert_eq!(run.below(0), 0);
            assert_eq!(run.below(u128::MAX), 9);
        }
    }

    /// What the recorder holds after `earlier` spans (in the order it
    /// holds them) and then `epochs`, each in merge-key order: the newest
    /// `cap` of them — of a run's spans, "newest cap by key", whatever the
    /// sharding. Returns the held ids in order and the dropped count.
    fn model(cap: usize, earlier: &[SpanRecord], epochs: &[Vec<SpanRecord>]) -> (Vec<u64>, u64) {
        let mut held = earlier.to_vec();
        for epoch in epochs {
            let start = held.len();
            held.extend(epoch);
            held[start..].sort_unstable_by_key(SpanRecord::merge_key);
        }
        let total = held.len() as u64;
        let kept = &held[held.len().saturating_sub(cap)..];
        (kept.iter().map(|s| s.id.raw()).collect(), total - kept.len() as u64)
    }

    #[test]
    fn shard_zero_recording_in_place_matches_the_merge_model() {
        // Spans in commit order that is not merge-key order (link_ready
        // runs backwards within each group of three), interleaved with
        // trains that extend runs, on an 8-span recorder: runs below, at
        // and past its capacity — some past it in one epoch, so an epoch
        // is trimmed partway through its runs — after 0, 5, 11 and 14
        // earlier spans, at 1, 2 and 3 shards, in one or two epochs.
        let spans = |shard: u16, n: u64, epoch: u64| -> Vec<SpanRecord> {
            (0..n)
                .map(|i| {
                    let base = 1000 * (epoch + 1);
                    if (i / 4) % 2 == 1 {
                        // Blocks of four consecutive train members: runs.
                        train(shard, 1000 * epoch, base + 40, 2, i)
                    } else {
                        let lr = base + 10 * (i / 3) + 3 * (2 - i % 3) + u64::from(shard);
                        let mut s = span(i, lr);
                        s.id = XferId::new(shard, 1000 * epoch + i);
                        s
                    }
                })
                .collect()
        };
        for earlier in [0u64, 5, 11, 14] {
            for run in [3u64, 8, 13, 20] {
                for shards in 1u16..=3 {
                    for epochs in 1..=2u64 {
                        let mut machine = FlightRecorder::new(8);
                        machine.set_enabled(true);
                        let before: Vec<SpanRecord> =
                            (0..earlier).map(|i| span(1 << 40 | i, 10 + i)).collect();
                        for &s in &before {
                            machine.record(s);
                            machine.close_epoch();
                        }
                        let parts: Vec<Vec<Vec<SpanRecord>>> = (0..shards)
                            .map(|k| (0..epochs).map(|e| spans(k, run + u64::from(k), e)).collect())
                            .collect();
                        let flat: Vec<Vec<SpanRecord>> = parts.iter().map(|p| p.concat()).collect();
                        let held: Vec<SpanRecord> = machine.iter().collect();
                        let mut want = model(8, &held, &[flat.concat()]);
                        want.1 += machine.dropped();
                        let mark = machine.mark();
                        let mut recorders: Vec<FlightRecorder> = (1..shards)
                            .map(|_| {
                                let mut r = FlightRecorder::new(8);
                                r.set_enabled(true);
                                r
                            })
                            .collect();
                        for e in 0..epochs as usize {
                            for (k, part) in parts.iter().enumerate() {
                                let r = if k == 0 { &mut machine } else { &mut recorders[k - 1] };
                                part[e].iter().for_each(|&s| r.record(s));
                                r.close_epoch();
                            }
                        }
                        if shards > 1 {
                            machine.absorb(mark, recorders);
                        }
                        let got = (ids(&machine), machine.dropped());
                        assert_eq!(
                            got, want,
                            "{earlier} earlier, {run} run, {shards} shards, {epochs} epochs"
                        );
                        assert_eq!(
                            machine.len() as u64 + machine.dropped(),
                            machine.total_recorded()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn absorb_merges_in_commit_order_regardless_of_sharding() {
        // Shard A holds seq 0 (link_ready 40) and seq 2 (link_ready 30);
        // shard B holds seq 1 (link_ready 30). Merge-key order is
        // (link_ready, id): seq 1 ties seq 2 on time and wins on id, so
        // the order is 1, 2, 0.
        let mut a = FlightRecorder::new(8);
        let mut b = FlightRecorder::new(8);
        a.set_enabled(true);
        b.set_enabled(true);
        a.record(span(0, 40));
        a.record(span(2, 30));
        a.close_epoch();
        b.record(span(1, 30));
        b.close_epoch();

        let mut merged = FlightRecorder::new(8);
        merged.absorb(merged.mark(), vec![a, b]);
        let seqs: Vec<u64> = merged.iter().map(|s| s.id.seq()).collect();
        assert_eq!(seqs, vec![1, 2, 0]);
        assert_eq!(merged.total_recorded(), 3);
        assert_eq!(merged.stage_histogram(Stage::Wire).count(), 3);
    }

    #[test]
    fn a_run_trimmed_partway_expands_to_the_spans_the_member_model_keeps() {
        // Two interleaved trains and a few single spans in one epoch, 300
        // spans into a 100-span recorder: the epoch close cuts both
        // trains partway, at one key threshold.
        let mut spans: Vec<SpanRecord> = Vec::new();
        for i in 0..140 {
            spans.push(train(2, 0, 1000, 10, i));
            spans.push(train(6, 0, 1003, 10, i));
        }
        spans.extend((0..20).map(|i| span(1 << 40 | i, 1000 + 71 * i)));
        let mut fr = FlightRecorder::new(100);
        fr.set_enabled(true);
        // Commit order: one train, then the other, then the singles.
        let (trains, singles) = spans.split_at(280);
        trains
            .iter()
            .step_by(2)
            .chain(trains.iter().skip(1).step_by(2))
            .for_each(|&s| fr.record(s));
        singles.iter().for_each(|&s| fr.record(s));
        assert!(fr.runs.len() <= 22, "the trains stay runs: {} runs", fr.runs.len());
        fr.close_epoch();
        let (want, dropped) = model(100, &[], &[spans]);
        assert_eq!(ids(&fr), want);
        assert_eq!(fr.dropped(), dropped);
        let wire = fr.stage_histogram(Stage::Wire);
        assert_eq!(wire.count(), 300, "histograms see dropped spans too");

        // The serial driver's pattern, one epoch per commit: epochs of two
        // or three spans, closed one at a time (single spans whose keys
        // fall, or a train), into an 8-span recorder. The closes cut the
        // straddling epoch by key at fewer spans than it has runs and, on
        // a train, at more.
        let epochs: Vec<Vec<SpanRecord>> = (0..16)
            .map(|e| {
                let members = 2 + e % 2;
                (0..members)
                    .map(|i| match e % 3 {
                        1 => train(3, 10 * e, 100 * e, 4, i),
                        _ => span(10 * e + i, 100 * e + 50 - i),
                    })
                    .collect()
            })
            .collect();
        let mut fr = FlightRecorder::new(8);
        fr.set_enabled(true);
        for (e, epoch) in epochs.iter().enumerate() {
            epoch.iter().for_each(|&s| fr.record(s));
            fr.close_epoch();
            let (want, dropped) = model(8, &[], &epochs[..=e]);
            assert_eq!((ids(&fr), fr.dropped()), (want, dropped), "after epoch {e}");
        }
    }

    #[test]
    fn serial_spans_after_an_engine_epoch_evict_it_by_key() {
        // A keyed epoch of two trains fills the recorder; serial spans
        // recorded after it push out its smallest keys first.
        let mut fr = FlightRecorder::new(10);
        fr.set_enabled(true);
        (0..5).for_each(|i| fr.record(train(2, 0, 100, 10, i)));
        (0..5).for_each(|i| fr.record(train(6, 0, 104, 10, i)));
        fr.close_epoch();
        let mut keyed: Vec<SpanRecord> = fr.iter().collect();
        let serial: Vec<SpanRecord> = (0..13).map(|i| span(1 << 40 | i, 5000 - i)).collect();
        for (n, &s) in serial.iter().enumerate() {
            fr.record(s);
            fr.close_epoch();
            keyed.push(s);
            let want: Vec<u64> = keyed[keyed.len() - 10..].iter().map(|s| s.id.raw()).collect();
            assert_eq!(ids(&fr), want, "after {} serial spans", n + 1);
        }
    }

    #[test]
    fn an_epoch_of_more_single_spans_than_slots_keeps_its_newest_keys() {
        // 40 single spans whose keys fall and rise in commit order, in one
        // epoch of a 16-span recorder: every slot fills mid-epoch, and the
        // close still leaves the 16 largest keys.
        let spans: Vec<SpanRecord> = (0..40).map(|i| span(i, 1000 + (i * 37) % 101)).collect();
        let mut fr = FlightRecorder::new(16);
        fr.set_enabled(true);
        spans.iter().for_each(|&s| fr.record(s));
        fr.close_epoch();
        assert_eq!((ids(&fr), fr.dropped()), model(16, &[], &[spans]));
    }
}
