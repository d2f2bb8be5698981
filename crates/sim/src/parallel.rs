//! Primitives for conservative parallel discrete-event execution.
//!
//! The simulator's nodes only interact through fabric packets with a
//! known minimum latency (the fabric's lookahead: at least one router
//! hop plus wire time), so shards of the machine can advance
//! independently in bounded epochs and exchange packets at epoch
//! boundaries — classic conservative (Chandy–Misra–Bryant style)
//! synchronization, with the lookahead standing in for null messages.
//!
//! This module provides the engine-agnostic pieces:
//!
//! - [`SpinBarrier`] — a sense-reversing barrier that spins briefly and
//!   then yields, so oversubscribed hosts (more shards than cores) make
//!   progress instead of burning a timeslice,
//! - [`ExchangeGrid`] — per-(source, destination) shard mailboxes whose
//!   slots are only ever touched by one producer and one consumer in
//!   barrier-separated phases, so the locks are uncontended,
//! - [`MergeQueue`] — a priority queue keyed `(SimTime, tag)` whose pop
//!   order is a pure function of its *contents*, never of insertion
//!   order, making cross-shard merges deterministic at any thread count,
//! - [`TimeFrontier`] — published per-shard lower bounds on future event
//!   times, whose minimum is the safe commit horizon for an epoch.
//!
//! Determinism contract: give every item a globally unique [`merge_tag`]
//! (source id ‖ per-source sequence number) and pop strictly by
//! `(time, tag)`. Two runs that insert the same item *sets* — however
//! the insertions were interleaved by threads — then pop identical
//! sequences. The simulated timeline therefore cannot observe the
//! thread count.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::SimTime;

/// Spin iterations before a waiting thread starts yielding its timeslice.
/// Short: with more shards than cores (the common case on small hosts)
/// the peer we wait for cannot run until we yield.
const SPINS_BEFORE_YIELD: u32 = 64;

/// A sense-reversing barrier for a fixed party count.
///
/// `wait` returns once all parties have arrived. Waiters spin briefly,
/// then `yield_now` so an oversubscribed host schedules the stragglers.
#[derive(Debug)]
pub struct SpinBarrier {
    parties: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    /// A barrier for `parties` threads.
    ///
    /// # Panics
    ///
    /// Panics if `parties` is zero.
    pub fn new(parties: usize) -> Self {
        assert!(parties > 0, "a barrier needs at least one party");
        SpinBarrier { parties, arrived: AtomicUsize::new(0), generation: AtomicUsize::new(0) }
    }

    /// Blocks until all parties have called `wait` for the current
    /// generation. The last arrival resets the barrier for reuse.
    pub fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            // Leader: reset the arrival count *before* releasing the
            // generation, so early arrivals of the next epoch count from
            // zero.
            self.arrived.store(0, Ordering::Release);
            self.generation.fetch_add(1, Ordering::AcqRel);
            return;
        }
        let mut spins = 0u32;
        while self.generation.load(Ordering::Acquire) == generation {
            spins = spins.saturating_add(1);
            if spins < SPINS_BEFORE_YIELD {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// Per-(source, destination) mailboxes for cross-shard item exchange.
///
/// Slot `(src, dst)` is written only by shard `src` during an execute
/// phase and drained only by shard `dst` during the following commit
/// phase; a barrier separates the phases, so every lock acquisition is
/// uncontended and the drained item set is a deterministic function of
/// the epoch, not of thread scheduling.
#[derive(Debug)]
pub struct ExchangeGrid<T> {
    shards: usize,
    /// Flat `(dst, src)` lanes: lane `(src, dst)` lives at
    /// `dst * shards + src`, so a destination's inbound lanes are
    /// contiguous and a drain walks one cache-linear stripe.
    lanes: Vec<Mutex<Vec<T>>>,
}

impl<T> ExchangeGrid<T> {
    /// A grid for `shards` shards with empty (lazily growing) lanes.
    pub fn new(shards: usize) -> Self {
        Self::with_lane_capacity(shards, 0)
    }

    /// A grid for `shards` shards whose every lane pre-reserves room for
    /// `capacity` items, so steady-state batch posts never grow a lane.
    pub fn with_lane_capacity(shards: usize, capacity: usize) -> Self {
        let lanes =
            (0..shards * shards).map(|_| Mutex::new(Vec::with_capacity(capacity))).collect();
        ExchangeGrid { shards, lanes }
    }

    /// Number of shards the grid connects.
    pub fn shards(&self) -> usize {
        self.shards
    }

    fn lane(&self, src: usize, dst: usize) -> &Mutex<Vec<T>> {
        &self.lanes[dst * self.shards + src]
    }

    /// Posts one item from shard `src` to shard `dst`.
    pub fn post(&self, src: usize, dst: usize, item: T) {
        // INVARIANT: mailbox-lock holders never panic while holding the
        // lock, so the mutex cannot be poisoned.
        self.lane(src, dst).lock().expect("mailbox poisoned").push(item);
    }

    /// Moves every item out of `batch` into the `(src, dst)` lane,
    /// keeping `batch`'s capacity — one lock per batch instead of one
    /// per item.
    // lint:hot_path
    pub fn post_batch(&self, src: usize, dst: usize, batch: &mut Vec<T>) {
        if batch.is_empty() {
            return;
        }
        // INVARIANT: mailbox-lock holders never panic while holding the
        // lock, so the mutex cannot be poisoned.
        self.lane(src, dst).lock().expect("mailbox poisoned").append(batch);
    }

    /// Drains every lane addressed to `dst` (in source-shard order)
    /// into `out`.
    // lint:hot_path
    pub fn drain_to(&self, dst: usize, out: &mut Vec<T>) {
        for lane in &self.lanes[dst * self.shards..(dst + 1) * self.shards] {
            // INVARIANT: mailbox-lock holders never panic while holding
            // the lock, so the mutex cannot be poisoned.
            out.append(&mut lane.lock().expect("mailbox poisoned"));
        }
    }

    /// Whether every lane in the grid is empty.
    pub fn is_empty(&self) -> bool {
        // INVARIANT: mailbox-lock holders never panic while holding
        // the lock, so the mutex cannot be poisoned.
        self.lanes.iter().all(|lane| lane.lock().expect("mailbox poisoned").is_empty())
    }
}

/// Builds the unique merge key for an item from source `src` with
/// per-source sequence number `seq` (the source's items must be numbered
/// in their generation order). `seq` must stay below 2^48.
///
/// The layout **is** [`XferId`](crate::XferId): one constructor
/// owns the `(source << 48) | sequence` packing, so a transfer's
/// correlation ID and its merge tag can never drift apart — the parallel
/// engine commits packets keyed by `id.raw()` directly.
pub const fn merge_tag(src: u16, seq: u64) -> u64 {
    debug_assert!(seq < 1 << 48);
    crate::span::XferId::new(src, seq).raw()
}

/// One entry of a [`MergeQueue`]. Ordered by key alone so `T` needs no
/// ordering of its own (packets aren't comparable).
#[derive(Debug)]
struct MergeEntry<T> {
    at: SimTime,
    tag: u64,
    item: T,
}

impl<T> MergeEntry<T> {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.tag)
    }

    fn raw_at(&self) -> u64 {
        self.at.as_nanos()
    }
}

/// Buckets in one calendar rung.
const WHEEL_BUCKETS: usize = 64;
/// Fixed per-bucket slab capacity; a bucket's excess spills to the
/// sorted spill lane.
const BUCKET_CAP: usize = 32;
/// Minimum bucket width in nanoseconds (power of two). One rung then
/// spans at least 64 µs — several fabric lookaheads — so steady-state
/// pushes land inside the rung.
const MIN_BUCKET_WIDTH: u64 = 1024;

/// A deterministic min-queue keyed `(SimTime, tag)`.
///
/// Time ties break by the caller-supplied tag, never by insertion order
/// (which is undefined across threads), so the pop sequence is a
/// function of the inserted set alone.
///
/// Layout: a calendar wheel instead of a binary heap. Keys below
/// `cur_end` live in `cur`, sorted descending so the minimum pops from
/// the back in O(1). Keys inside the current rung `[base, base +
/// 64·width)` drop into one of 64 fixed-capacity slab buckets by
/// `(time - base) / width` — an O(1), cache-linear append; a full
/// bucket spills to the sorted `spill` lane. Keys beyond the rung go to
/// the unsorted `overflow` lane. When `cur` drains, the next non-empty
/// bucket (plus any spill due in its range) is sorted into `cur`; when
/// the whole rung drains, the rung re-seeds from `overflow`, re-basing
/// at the overflow minimum and re-widening so the span fits 64 buckets.
/// Steady-state stride-encoded keys (PR 6's run batching) walk the rung
/// bucket by bucket, so pushes and pops never touch heap-churn paths,
/// and all storage is retained across rungs.
#[derive(Debug)]
pub struct MergeQueue<T> {
    /// Entries with keys below `cur_end`, sorted descending by
    /// `(time, tag)`; the global minimum is `cur.last()`.
    cur: Vec<MergeEntry<T>>,
    /// Slab of `WHEEL_BUCKETS * BUCKET_CAP` slots; bucket `k` owns
    /// `slab[k*BUCKET_CAP..][..counts[k]]`.
    slab: Vec<Option<MergeEntry<T>>>,
    /// Live entries per bucket.
    counts: [usize; WHEEL_BUCKETS],
    /// In-rung entries whose bucket was full, sorted descending by key.
    spill: Vec<MergeEntry<T>>,
    /// Entries at or beyond the rung end, unsorted.
    overflow: Vec<MergeEntry<T>>,
    /// First instant covered by the rung.
    base: u64,
    /// Bucket span in nanoseconds (power of two, ≥ `MIN_BUCKET_WIDTH`).
    width: u64,
    /// Exclusive upper bound of the consumed region: always
    /// `base + k·width` for the next unconsumed bucket `k`.
    cur_end: u64,
    len: usize,
    /// Entries that missed their slab bucket and took the sorted spill
    /// lane (metrics plane: wheel pressure; O(n) inserts instead of O(1)).
    spills: u64,
    /// Rung re-seeds from the overflow lane (metrics plane: how often the
    /// wheel re-bases and re-widens).
    reseeds: u64,
    /// Peak entries resident at once (metrics plane: staged-queue depth).
    len_high: u64,
}

impl<T> Default for MergeQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> MergeQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        MergeQueue {
            cur: Vec::with_capacity(BUCKET_CAP * 2),
            slab: (0..WHEEL_BUCKETS * BUCKET_CAP).map(|_| None).collect(),
            counts: [0; WHEEL_BUCKETS],
            spill: Vec::with_capacity(BUCKET_CAP),
            overflow: Vec::with_capacity(BUCKET_CAP),
            base: 0,
            width: MIN_BUCKET_WIDTH,
            cur_end: 0,
            len: 0,
            spills: 0,
            reseeds: 0,
            len_high: 0,
        }
    }

    /// Exclusive upper bound of the current rung.
    fn rung_end(&self) -> u64 {
        self.base.saturating_add(self.width.saturating_mul(WHEEL_BUCKETS as u64))
    }

    /// Inserts `item` keyed `(at, tag)`. Tags must be unique per queue
    /// (see [`merge_tag`]); entries are ordered by key alone, so
    /// duplicate keys would pop in unspecified relative order.
    // lint:hot_path
    pub fn push(&mut self, at: SimTime, tag: u64, item: T) {
        let entry = MergeEntry { at, tag, item };
        self.len += 1;
        self.len_high = self.len_high.max(self.len as u64);
        if entry.raw_at() < self.cur_end {
            // Already-consumed region (restaged run tails land here):
            // keep `cur` sorted descending so the minimum stays at the
            // back. Near-past keys insert near the back — a short move.
            let idx = self.cur.partition_point(|e| e.key() > entry.key());
            // lint:allow(A1) -- Vec::insert shifts within `cur`'s retained
            // capacity; the refill pass reserves it and pops shrink in place.
            self.cur.insert(idx, entry);
        } else if entry.raw_at() < self.rung_end() {
            self.place_in_rung(entry);
        } else {
            // lint:allow(A1) -- the overflow lane retains its capacity
            // across rung re-seeds; steady-state pushes reuse it.
            self.overflow.push(entry);
        }
    }

    /// Files an in-rung entry into its slab bucket, or into the sorted
    /// spill lane when the bucket is full.
    // lint:hot_path
    fn place_in_rung(&mut self, entry: MergeEntry<T>) {
        let bucket = ((entry.raw_at() - self.base) / self.width) as usize;
        debug_assert!(bucket < WHEEL_BUCKETS);
        let count = self.counts[bucket];
        if count < BUCKET_CAP {
            self.slab[bucket * BUCKET_CAP + count] = Some(entry);
            self.counts[bucket] = count + 1;
        } else {
            self.spills += 1;
            let idx = self.spill.partition_point(|e| e.key() > entry.key());
            // lint:allow(A1) -- Vec::insert into the spill lane, which keeps
            // its capacity across rung re-seeds (drained in place).
            self.spill.insert(idx, entry);
        }
    }

    /// Refills `cur` from the wheel: steps bucket by bucket (taking each
    /// bucket's slab slots plus the spill entries due in its range) until
    /// `cur` is non-empty, re-seeding the rung from `overflow` when the
    /// current rung is exhausted.
    fn advance(&mut self) {
        while self.cur.is_empty() {
            let bucket = ((self.cur_end - self.base) / self.width) as usize;
            if bucket >= WHEEL_BUCKETS {
                if self.overflow.is_empty() {
                    return;
                }
                self.reseed();
                continue;
            }
            let next_end = self.cur_end.saturating_add(self.width);
            let count = self.counts[bucket];
            for slot in bucket * BUCKET_CAP..bucket * BUCKET_CAP + count {
                // INVARIANT: `counts[bucket]` slots are always filled
                // contiguously from the bucket's start, so each indexed
                // slot holds an entry.
                let entry = self.slab[slot].take().expect("bucket slot must be filled");
                // lint:allow(A1) -- `cur`'s storage is retained across
                // refills; steady-state refills reuse its capacity.
                self.cur.push(entry);
            }
            self.counts[bucket] = 0;
            // Spill is sorted descending, so due entries sit at the back.
            while self.spill.last().is_some_and(|e| e.raw_at() < next_end) {
                // INVARIANT: the loop condition just observed a last
                // element, and nothing was removed since.
                let entry = self.spill.pop().expect("checked spill entry must pop");
                // lint:allow(A1) -- `cur`'s storage is retained across
                // refills; steady-state refills reuse its capacity.
                self.cur.push(entry);
            }
            self.cur_end = next_end;
            if !self.cur.is_empty() {
                // Descending: the minimum key pops from the back.
                self.cur.sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
            }
        }
    }

    /// Re-bases the rung at the overflow minimum and re-widens so the
    /// whole overflow span fits one rung, then redistributes overflow
    /// into the wheel. Only called with the rung fully consumed, so
    /// every resident overflow key is at or past the old rung end and
    /// `cur_end` stays monotone.
    fn reseed(&mut self) {
        debug_assert!(!self.overflow.is_empty());
        self.reseeds += 1;
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for entry in &self.overflow {
            lo = lo.min(entry.raw_at());
            hi = hi.max(entry.raw_at());
        }
        self.base = lo;
        self.cur_end = lo;
        self.width =
            ((hi - lo) / WHEEL_BUCKETS as u64 + 1).next_power_of_two().max(MIN_BUCKET_WIDTH);
        while let Some(entry) = self.overflow.pop() {
            // The new rung covers `hi`, so every entry lands in a bucket
            // (or the spill lane) — never back in overflow.
            self.place_in_rung(entry);
        }
    }

    /// Earliest `(raw time, tag)` over the wheel lanes (everything not
    /// yet in `cur`): first non-empty bucket min, its spill companion,
    /// else the overflow min.
    fn wheel_min(&self) -> Option<(u64, u64)> {
        let first = ((self.cur_end.max(self.base) - self.base) / self.width) as usize;
        for bucket in first..WHEEL_BUCKETS {
            let count = self.counts[bucket];
            if count == 0 {
                continue;
            }
            let slots = &self.slab[bucket * BUCKET_CAP..bucket * BUCKET_CAP + count];
            let mut min: Option<(u64, u64)> = None;
            for slot in slots {
                // INVARIANT: `counts[bucket]` slots are always filled
                // contiguously from the bucket's start.
                let e = slot.as_ref().expect("bucket slot must be filled");
                let key = (e.raw_at(), e.tag);
                if min.is_none_or(|m| key < m) {
                    min = Some(key);
                }
            }
            // A spill entry can undercut the bucket minimum only if it
            // spilled from this same (still-full) bucket.
            if let Some(s) = self.spill.last() {
                let key = (s.raw_at(), s.tag);
                if min.is_none_or(|m| key < m) {
                    min = Some(key);
                }
            }
            return min;
        }
        if let Some(s) = self.spill.last() {
            return Some((s.raw_at(), s.tag));
        }
        let mut min: Option<(u64, u64)> = None;
        for e in &self.overflow {
            let key = (e.raw_at(), e.tag);
            if min.is_none_or(|m| key < m) {
                min = Some(key);
            }
        }
        min
    }

    /// Removes and returns the earliest entry with `at <= horizon`
    /// (`None` horizon = no bound).
    // lint:hot_path
    pub fn pop_within(&mut self, horizon: Option<SimTime>) -> Option<(SimTime, T)> {
        if self.cur.is_empty() {
            self.advance();
        }
        let head = self.cur.last()?;
        if let Some(h) = horizon {
            if head.at > h {
                return None;
            }
        }
        // INVARIANT: `last` above returned `Some`, and no entry was
        // removed since, so `cur` is non-empty here.
        let entry = self.cur.pop().expect("peeked entry must pop");
        self.len -= 1;
        Some((entry.at, entry.item))
    }

    /// Earliest key time, if any.
    pub fn next_at(&self) -> Option<SimTime> {
        self.next_key().map(|(at, _)| at)
    }

    /// Earliest full `(time, tag)` key, if any. Run-commit uses this to
    /// decide how many members of a contiguous run stay ahead of every
    /// other staged entry.
    // lint:hot_path
    pub fn next_key(&self) -> Option<(SimTime, u64)> {
        // `cur` holds the minimum whenever it is non-empty: every wheel
        // lane only stores keys at or past `cur_end`.
        if let Some(e) = self.cur.last() {
            return Some(e.key());
        }
        self.wheel_min().map(|(raw, tag)| (SimTime::from_nanos(raw), tag))
    }

    /// Entries currently queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pushes that missed their slab bucket and took the sorted spill
    /// lane (O(n) insert instead of an O(1) slab append).
    pub fn spill_count(&self) -> u64 {
        self.spills
    }

    /// Rung re-seeds from the overflow lane so far.
    pub fn reseed_count(&self) -> u64 {
        self.reseeds
    }

    /// Peak entries resident at once over the queue's lifetime.
    pub fn len_high_water(&self) -> u64 {
        self.len_high
    }

    /// Folds another queue's lifetime metrics into this one (spills and
    /// reseeds sum; the high-water mark is the max over the queues, i.e.
    /// the deepest any single queue ever got). A parallel engine calls
    /// this when reassembling per-shard queues so machine-wide totals
    /// survive the shards' destruction.
    pub fn absorb_metrics<U>(&mut self, other: &MergeQueue<U>) {
        self.spills += other.spills;
        self.reseeds += other.reseeds;
        self.len_high = self.len_high.max(other.len_high);
    }
}

/// Raw nanosecond value standing for "this shard has no future events".
const FRONTIER_EXHAUSTED: u64 = u64::MAX;

/// Published per-shard lower bounds on future event times.
///
/// During an execute phase each shard publishes a lower bound on the
/// time of any event it may still produce (its minimum unfinished node
/// clock; every future packet leaves at or after that clock and arrives
/// strictly later thanks to the fabric lookahead). After a barrier,
/// [`TimeFrontier::horizon`] — the minimum over shards — bounds what any
/// shard may safely commit: all packets at or before it have already
/// been exchanged.
#[derive(Debug)]
pub struct TimeFrontier {
    bounds: Vec<AtomicU64>,
}

impl TimeFrontier {
    /// A frontier for `shards` shards, initially all at time zero.
    pub fn new(shards: usize) -> Self {
        TimeFrontier { bounds: (0..shards).map(|_| AtomicU64::new(0)).collect() }
    }

    /// Publishes shard `shard`'s bound: `Some(t)` = no future event
    /// before `t`; `None` = the shard is exhausted (no future events at
    /// all).
    pub fn publish(&self, shard: usize, bound: Option<SimTime>) {
        let raw = bound.map_or(FRONTIER_EXHAUSTED, SimTime::as_nanos);
        self.bounds[shard].store(raw, Ordering::Release);
    }

    /// The commit horizon: the minimum published bound, or `None` when
    /// every shard is exhausted (commit everything). Only meaningful
    /// between the barrier that ends an execute phase and the barrier
    /// that ends the commit phase.
    pub fn horizon(&self) -> Option<SimTime> {
        let min = self.bounds.iter().map(|b| b.load(Ordering::Acquire)).min().unwrap_or(0);
        if min == FRONTIER_EXHAUSTED {
            None
        } else {
            Some(SimTime::from_nanos(min))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as TestCounter;
    use std::sync::Arc;

    #[test]
    fn barrier_releases_all_parties_each_generation() {
        let parties = 4;
        let barrier = Arc::new(SpinBarrier::new(parties));
        let passed = Arc::new(TestCounter::new(0));
        let epochs = 50;
        std::thread::scope(|s| {
            for _ in 0..parties {
                let barrier = Arc::clone(&barrier);
                let passed = Arc::clone(&passed);
                s.spawn(move || {
                    for e in 0..epochs {
                        barrier.wait();
                        // Everyone from epoch e has arrived: the count
                        // must be a multiple of the party count by the
                        // time anyone passes.
                        let seen = passed.fetch_add(1, Ordering::AcqRel);
                        assert!(seen / parties as u64 <= e + 1);
                    }
                });
            }
        });
        assert_eq!(passed.load(Ordering::Acquire), parties as u64 * epochs);
    }

    #[test]
    fn single_party_barrier_never_blocks() {
        let b = SpinBarrier::new(1);
        for _ in 0..3 {
            b.wait();
        }
    }

    #[test]
    fn grid_routes_by_destination_in_source_order() {
        let grid: ExchangeGrid<u32> = ExchangeGrid::new(3);
        grid.post(0, 2, 10);
        grid.post(1, 2, 20);
        grid.post(0, 2, 11);
        grid.post(2, 0, 30);
        let mut out = Vec::new();
        grid.drain_to(2, &mut out);
        assert_eq!(out, [10, 11, 20], "source-major, generation order within a source");
        out.clear();
        grid.drain_to(0, &mut out);
        assert_eq!(out, [30]);
        assert!(grid.is_empty());
    }

    #[test]
    fn grid_post_batch_moves_and_keeps_capacity() {
        let grid: ExchangeGrid<u32> = ExchangeGrid::new(2);
        let mut batch = Vec::with_capacity(8);
        batch.extend([1, 2, 3]);
        grid.post_batch(0, 1, &mut batch);
        assert!(batch.is_empty());
        assert!(batch.capacity() >= 8, "batch keeps its allocation");
        let mut out = Vec::new();
        grid.drain_to(1, &mut out);
        assert_eq!(out, [1, 2, 3]);
    }

    #[test]
    fn merge_queue_pops_by_time_then_tag_regardless_of_insertion_order() {
        let t = SimTime::from_nanos;
        // Two insertion orders of the same set.
        let orders: [&[(u64, u16, u64)]; 2] = [
            &[(50, 1, 0), (50, 0, 0), (10, 3, 7), (50, 0, 1)],
            &[(50, 0, 1), (10, 3, 7), (50, 0, 0), (50, 1, 0)],
        ];
        let mut pops = Vec::new();
        for order in orders {
            let mut q = MergeQueue::new();
            for &(at, src, seq) in order {
                q.push(t(at), merge_tag(src, seq), (src, seq));
            }
            let mut seq = Vec::new();
            while let Some((at, item)) = q.pop_within(None) {
                seq.push((at, item));
            }
            pops.push(seq);
        }
        assert_eq!(pops[0], pops[1], "pop order must not depend on insertion order");
        assert_eq!(
            pops[0],
            [(t(10), (3, 7)), (t(50), (0, 0)), (t(50), (0, 1)), (t(50), (1, 0))],
            "ties break by (source, sequence)"
        );
    }

    #[test]
    fn merge_queue_respects_horizon() {
        let mut q = MergeQueue::new();
        q.push(SimTime::from_nanos(5), merge_tag(0, 0), "early");
        q.push(SimTime::from_nanos(15), merge_tag(0, 1), "late");
        assert_eq!(q.pop_within(Some(SimTime::from_nanos(10))).map(|(_, i)| i), Some("early"));
        assert_eq!(q.pop_within(Some(SimTime::from_nanos(10))), None, "late item is beyond");
        assert_eq!(q.next_at(), Some(SimTime::from_nanos(15)));
        assert_eq!(q.pop_within(None).map(|(_, i)| i), Some("late"));
        assert!(q.is_empty());
    }

    #[test]
    fn merge_queue_handles_far_future_keys_across_rungs() {
        // Keys spanning many rungs (the initial rung covers 64 µs) force
        // the wheel through bucket refills and overflow re-seeds; pops
        // must still come out in strict key order.
        let mut q = MergeQueue::new();
        let mut expect = Vec::new();
        for i in 0..200u64 {
            // Deterministic scatter over ~13 ms: far past the first rung.
            let at = (i * 7919) % 13_000_000;
            q.push(SimTime::from_nanos(at), merge_tag(0, i), i);
            expect.push((at, i));
        }
        expect.sort_unstable();
        let mut got = Vec::new();
        while let Some((at, item)) = q.pop_within(None) {
            got.push((at.as_nanos(), item));
        }
        assert_eq!(got, expect);
        assert!(q.is_empty());
    }

    #[test]
    fn merge_queue_bucket_overflow_spills_in_order() {
        // More same-bucket entries than a slab bucket holds: the excess
        // takes the spill lane and must interleave back by key.
        let mut q = MergeQueue::new();
        let n = 3 * super::BUCKET_CAP as u64;
        for i in (0..n).rev() {
            q.push(SimTime::from_nanos(100 + i), merge_tag(1, i), i);
        }
        for i in 0..n {
            let (at, item) = q.pop_within(None).expect("entry present");
            assert_eq!((at.as_nanos(), item), (100 + i, i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn merge_queue_accepts_keys_below_the_consumed_region() {
        // Restaged run tails re-enter with keys near (or below) already
        // popped times; they must sort into the current lane, not get
        // lost behind it.
        let mut q = MergeQueue::new();
        q.push(SimTime::from_nanos(10_000), merge_tag(0, 0), "first");
        q.push(SimTime::from_nanos(90_000), merge_tag(0, 1), "far");
        assert_eq!(q.pop_within(None).map(|(_, i)| i), Some("first"));
        // The consumed region has moved past 10 µs; push below it.
        q.push(SimTime::from_nanos(9_500), merge_tag(0, 2), "late-arrival");
        q.push(SimTime::from_nanos(40_000), merge_tag(0, 3), "mid");
        assert_eq!(q.next_at(), Some(SimTime::from_nanos(9_500)));
        assert_eq!(q.pop_within(None).map(|(_, i)| i), Some("late-arrival"));
        assert_eq!(q.pop_within(None).map(|(_, i)| i), Some("mid"));
        assert_eq!(q.pop_within(None).map(|(_, i)| i), Some("far"));
        assert!(q.is_empty());
    }

    #[test]
    fn merge_queue_next_key_sees_every_lane() {
        let mut q = MergeQueue::new();
        // Overflow only (beyond the initial 64 µs rung).
        q.push(SimTime::from_nanos(1_000_000), merge_tag(2, 0), ());
        assert_eq!(q.next_key(), Some((SimTime::from_nanos(1_000_000), merge_tag(2, 0))));
        // A rung entry undercuts it.
        q.push(SimTime::from_nanos(5_000), merge_tag(2, 1), ());
        assert_eq!(q.next_key(), Some((SimTime::from_nanos(5_000), merge_tag(2, 1))));
        // After a pop fills `cur`, the peek is O(1) off its back.
        assert!(q.pop_within(None).is_some());
        assert_eq!(q.next_key(), Some((SimTime::from_nanos(1_000_000), merge_tag(2, 0))));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn merge_queue_metrics_count_spills_reseeds_and_depth() {
        let mut q = MergeQueue::new();
        // Overfill one bucket: BUCKET_CAP slab slots, the rest spill.
        for i in 0..(BUCKET_CAP as u64 + 5) {
            q.push(SimTime::from_nanos(100), merge_tag(0, i), i);
        }
        assert_eq!(q.spill_count(), 5);
        assert_eq!(q.len_high_water(), BUCKET_CAP as u64 + 5);
        // Park one entry far beyond the rung, drain, and pop into it:
        // the wheel must re-seed from overflow exactly once.
        q.push(SimTime::from_nanos(100_000_000), merge_tag(0, 99), 99);
        assert_eq!(q.reseed_count(), 0);
        while q.pop_within(None).is_some() {}
        assert_eq!(q.reseed_count(), 1);
        assert_eq!(q.len_high_water(), BUCKET_CAP as u64 + 6);
        assert!(q.is_empty());
    }

    #[test]
    fn frontier_horizon_is_min_bound() {
        let f = TimeFrontier::new(3);
        f.publish(0, Some(SimTime::from_nanos(100)));
        f.publish(1, Some(SimTime::from_nanos(40)));
        f.publish(2, None);
        assert_eq!(f.horizon(), Some(SimTime::from_nanos(40)));
        f.publish(1, None);
        assert_eq!(f.horizon(), Some(SimTime::from_nanos(100)));
        f.publish(0, None);
        assert_eq!(f.horizon(), None, "all exhausted: commit everything");
    }

    #[test]
    fn merge_tag_orders_by_source_then_sequence() {
        assert!(merge_tag(0, 5) < merge_tag(1, 0));
        assert!(merge_tag(2, 3) < merge_tag(2, 4));
    }

    #[test]
    fn merge_tag_is_the_xfer_id_layout_and_cannot_drift() {
        use crate::span::XferId;
        // Boundary and representative values: the packed tag must equal
        // the correlation ID bit-for-bit, and the ID must round-trip the
        // fields, so both views of "(source, sequence)" are one layout.
        for (src, seq) in
            [(0u16, 0u64), (0, 1), (1, 0), (7, 123), (u16::MAX, 0), (u16::MAX, (1 << 48) - 1)]
        {
            let id = XferId::new(src, seq);
            assert_eq!(merge_tag(src, seq), id.raw(), "tag != id for {src}:{seq}");
            assert_eq!(id.node(), src);
            assert_eq!(id.seq(), seq);
        }
    }
}
