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
//! - [`TimeFrontier`] — published per-shard lower bounds on future event
//!   times, whose minimum is the safe commit horizon for an epoch.
//!
//! Determinism contract: give every item a globally unique tag (an
//! [`XferId`](crate::XferId): source id ‖ per-source sequence number) and
//! commit strictly by `(time, tag)`. Two runs that exchange the same item
//! *sets* — however the exchanges were interleaved by threads — then
//! commit identical sequences. The simulated timeline therefore cannot
//! observe the thread count.

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
    /// A grid for `shards` shards whose every lane pre-reserves room for
    /// `capacity` items, so steady-state batch posts never grow a lane.
    pub fn with_lane_capacity(shards: usize, capacity: usize) -> Self {
        let lanes =
            (0..shards * shards).map(|_| Mutex::new(Vec::with_capacity(capacity))).collect();
        ExchangeGrid { shards, lanes }
    }

    fn lane(&self, src: usize, dst: usize) -> &Mutex<Vec<T>> {
        &self.lanes[dst * self.shards + src]
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
    use crate::XferId;
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
        let grid: ExchangeGrid<u32> = ExchangeGrid::with_lane_capacity(3, 0);
        grid.post_batch(0, 2, &mut vec![10]);
        grid.post_batch(1, 2, &mut vec![20]);
        grid.post_batch(0, 2, &mut vec![11]);
        grid.post_batch(2, 0, &mut vec![30]);
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
        let grid: ExchangeGrid<u32> = ExchangeGrid::with_lane_capacity(2, 0);
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
        // The fabric's merge tag is the raw transfer ID (under the class
        // bit): equal-time commits order by source, then sequence.
        let tag = |src, seq| XferId::new(src, seq).raw();
        assert!(tag(0, 5) < tag(1, 0));
        assert!(tag(2, 3) < tag(2, 4));
    }

    #[test]
    fn merge_tag_is_the_xfer_id_layout_and_cannot_drift() {
        // Boundary and representative values: the packed form must
        // round-trip both fields, so "(source, sequence)" has one layout.
        for (src, seq) in
            [(0u16, 0u64), (0, 1), (1, 0), (7, 123), (u16::MAX, 0), (u16::MAX, (1 << 48) - 1)]
        {
            let id = XferId::new(src, seq);
            assert_eq!(id.raw(), (u64::from(src) << 48) | seq, "layout for {src}:{seq}");
            assert_eq!((id.node(), id.seq()), (src, seq));
        }
    }
}
