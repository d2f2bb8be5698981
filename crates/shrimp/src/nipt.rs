//! The Network Interface Page Table (paper §8).
//!
//! "All potential message destinations are stored in the Network Interface
//! Page Table (NIPT), each entry of which specifies a remote node and a
//! physical memory page on that node. ... Since the NIPT is indexed with 15
//! bits, it can hold 32K different destination pages."

use shrimp_mem::Pfn;
use shrimp_net::NodeId;
use shrimp_sim::{Counter, Gauge};

/// One NIPT entry: a remote destination page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NiptEntry {
    /// Destination node.
    pub node: NodeId,
    /// Destination physical page on that node.
    pub pfn: Pfn,
}

/// The NIPT: a direct-indexed table of destination pages.
///
/// # Example
///
/// ```
/// use shrimp::{Nipt, NiptEntry};
/// use shrimp_mem::Pfn;
/// use shrimp_net::NodeId;
///
/// let mut nipt = Nipt::new(Nipt::SHRIMP_ENTRIES);
/// nipt.set(5, NiptEntry { node: NodeId::new(3), pfn: Pfn::new(77) });
/// assert_eq!(nipt.get(5).unwrap().pfn, Pfn::new(77));
/// ```
#[derive(Clone, Debug)]
pub struct Nipt {
    /// Slots up to the highest index ever installed; the rest are invalid.
    entries: Vec<Option<NiptEntry>>,
    capacity: usize,
    /// Valid-entry count with a high-water mark (metrics plane: how close
    /// the workload gets to the 32K board capacity).
    occupancy: Gauge,
    /// `set` calls that overwrote a still-valid entry — the kernel
    /// recycled a live destination slot.
    evictions: Counter,
    /// Data-path [`Nipt::lookup`]s that missed — a send named an index
    /// with no installed destination.
    refaults: Counter,
}

impl Nipt {
    /// The real board's capacity: 15 index bits → 32K entries.
    pub const SHRIMP_ENTRIES: usize = 32 * 1024;

    /// A NIPT with `capacity` entries, all invalid.
    ///
    /// # Panics
    ///
    /// Panics on zero capacity.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "NIPT needs at least one entry");
        Nipt {
            entries: Vec::new(),
            capacity,
            occupancy: Gauge::new(),
            evictions: Counter::new(),
            refaults: Counter::new(),
        }
    }

    /// Number of entries (valid or not).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Installs an entry (kernel-only operation on the real board).
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds capacity.
    pub fn set(&mut self, index: u64, entry: NiptEntry) {
        let i = index as usize;
        assert!(i < self.capacity, "NIPT index {index} out of range");
        if i >= self.entries.len() {
            self.entries.resize(i + 1, None);
        }
        let slot = &mut self.entries[i];
        if slot.is_some() {
            self.evictions.incr();
        } else {
            self.occupancy.incr();
        }
        *slot = Some(entry);
    }

    /// Invalidates an entry.
    pub fn clear(&mut self, index: u64) {
        if let Some(slot) = self.entries.get_mut(index as usize) {
            if slot.is_some() {
                self.occupancy.decr();
            }
            *slot = None;
        }
    }

    /// Looks up an entry; `None` for invalid or out-of-range indices.
    /// Pure — allocation scans and eligibility probes use this.
    pub fn get(&self, index: u64) -> Option<NiptEntry> {
        self.entries.get(index as usize).copied().flatten()
    }

    /// Data-path lookup: like [`Nipt::get`], but a miss counts as a
    /// refault (a send named an index with no installed destination).
    // lint:hot_path
    #[inline]
    pub fn lookup(&mut self, index: u64) -> Option<NiptEntry> {
        let hit = self.entries.get(index as usize).copied().flatten();
        if hit.is_none() {
            self.refaults.incr();
        }
        hit
    }

    /// Ownership probe for NIPT demand paging: `true` when `index` still
    /// holds exactly `expect`. A mismatch — the slot was recycled for
    /// another tenant, or never installed — counts as a refault, since the
    /// probing tenant must re-enter the kernel to reload its mapping
    /// before it can send. (So `refaults` counts missed *or mis-owned*
    /// data-path checks.)
    // lint:hot_path
    #[inline]
    pub fn lookup_expect(&mut self, index: u64, expect: NiptEntry) -> bool {
        let hit = self.entries.get(index as usize).copied().flatten() == Some(expect);
        if !hit {
            self.refaults.incr();
        }
        hit
    }

    /// First invalid index at or after `from`, for allocation.
    pub fn first_free(&self, from: u64) -> Option<u64> {
        (from..self.capacity as u64).find(|&i| self.get(i).is_none())
    }

    /// Number of valid entries.
    pub fn valid_count(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// Current valid-entry count as tracked by the occupancy gauge.
    pub fn occupancy(&self) -> u64 {
        self.occupancy.get()
    }

    /// The occupancy gauge itself (level + high water), for registering
    /// in a metrics snapshot.
    pub fn occupancy_gauge(&self) -> Gauge {
        self.occupancy
    }

    /// Highest valid-entry count ever reached.
    pub fn occupancy_high_water(&self) -> u64 {
        self.occupancy.high_water()
    }

    /// `set` calls that overwrote a still-valid entry.
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// Data-path lookups that missed.
    pub fn refaults(&self) -> u64 {
        self.refaults.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut n = Nipt::new(8);
        assert_eq!(n.get(3), None);
        n.set(3, NiptEntry { node: NodeId::new(1), pfn: Pfn::new(9) });
        assert_eq!(n.get(3).unwrap().node, NodeId::new(1));
        n.clear(3);
        assert_eq!(n.get(3), None);
    }

    #[test]
    fn out_of_range_get_is_none() {
        let n = Nipt::new(4);
        assert_eq!(n.get(100), None);
    }

    #[test]
    fn first_free_scans() {
        let mut n = Nipt::new(4);
        n.set(0, NiptEntry { node: NodeId::new(0), pfn: Pfn::new(0) });
        n.set(1, NiptEntry { node: NodeId::new(0), pfn: Pfn::new(1) });
        assert_eq!(n.first_free(0), Some(2));
        assert_eq!(n.first_free(3), Some(3));
        n.set(2, NiptEntry { node: NodeId::new(0), pfn: Pfn::new(2) });
        n.set(3, NiptEntry { node: NodeId::new(0), pfn: Pfn::new(3) });
        assert_eq!(n.first_free(0), None);
        assert_eq!(n.valid_count(), 4);
    }

    #[test]
    fn metrics_track_occupancy_evictions_refaults() {
        let mut n = Nipt::new(4);
        n.set(0, NiptEntry { node: NodeId::new(0), pfn: Pfn::new(0) });
        n.set(1, NiptEntry { node: NodeId::new(0), pfn: Pfn::new(1) });
        assert_eq!(n.occupancy(), 2);
        assert_eq!(n.occupancy_high_water(), 2);
        // Overwriting a live slot is an eviction, not new occupancy.
        n.set(1, NiptEntry { node: NodeId::new(2), pfn: Pfn::new(9) });
        assert_eq!(n.occupancy(), 2);
        assert_eq!(n.evictions(), 1);
        n.clear(0);
        assert_eq!(n.occupancy(), 1);
        assert_eq!(n.occupancy_high_water(), 2, "high water survives clears");
        // Clearing an already-empty slot changes nothing.
        n.clear(0);
        assert_eq!(n.occupancy(), 1);
        // Data-path lookups count misses; pure `get` never does.
        assert!(n.lookup(1).is_some());
        assert!(n.lookup(0).is_none());
        assert!(n.lookup(100).is_none());
        assert!(n.get(0).is_none());
        assert_eq!(n.refaults(), 2);
    }

    #[test]
    fn lookup_expect_counts_mismatches_as_refaults() {
        let mut n = Nipt::new(4);
        let mine = NiptEntry { node: NodeId::new(1), pfn: Pfn::new(7) };
        let theirs = NiptEntry { node: NodeId::new(2), pfn: Pfn::new(8) };
        n.set(0, mine);
        assert!(n.lookup_expect(0, mine));
        assert_eq!(n.refaults(), 0);
        // The slot was recycled out from under us: a refault.
        n.set(0, theirs);
        assert!(!n.lookup_expect(0, mine));
        // Never installed, or out of range: also refaults.
        assert!(!n.lookup_expect(1, mine));
        assert!(!n.lookup_expect(100, mine));
        assert_eq!(n.refaults(), 3);
    }

    #[test]
    fn shrimp_capacity_is_32k() {
        assert_eq!(Nipt::SHRIMP_ENTRIES, 32768);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        let mut n = Nipt::new(2);
        n.set(2, NiptEntry { node: NodeId::new(0), pfn: Pfn::new(0) });
    }
}
