//! A translation lookaside buffer model.

use shrimp_mem::Vpn;
use shrimp_sim::Counter;

use crate::Pte;

/// A fully associative TLB with FIFO replacement.
///
/// Caches recently used `(Vpn, Pte)` pairs. The MMU is responsible for
/// keeping cached copies coherent with PTE status-bit updates (it writes
/// through to both). The kernel must [`Tlb::flush_page`] on any remap and
/// [`Tlb::flush_all`] on context switch — exactly the shootdown points the
/// paper's invariants require.
#[derive(Clone, Debug)]
pub struct Tlb {
    entries: Vec<(Vpn, Pte)>,
    capacity: usize,
    /// Index of the most recent hit — a host-side shortcut for the
    /// associative scan, since machine references run in page-local
    /// bursts. Never trusted blindly: a lookup re-checks the VPN, so a
    /// stale index after eviction or flush just falls back to the scan.
    /// Purely an implementation detail of the host simulation: hit/miss
    /// counts and simulated timing are unchanged.
    last: usize,
    hits: Counter,
    misses: Counter,
    /// Hits answered by the `last` shortcut without an associative scan —
    /// how often the page-local-burst assumption actually pays.
    last_hits: Counter,
}

impl Tlb {
    /// A TLB holding up to `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB capacity must be positive");
        Tlb {
            entries: Vec::with_capacity(capacity),
            capacity,
            last: 0,
            hits: Counter::new(),
            misses: Counter::new(),
            last_hits: Counter::new(),
        }
    }

    /// Looks up `vpn`, recording a hit or miss.
    pub fn lookup(&mut self, vpn: Vpn) -> Option<Pte> {
        if let Some(&(v, pte)) = self.entries.get(self.last) {
            if v == vpn {
                self.hits.incr();
                self.last_hits.incr();
                return Some(pte);
            }
        }
        match self.entries.iter().position(|(v, _)| *v == vpn) {
            Some(i) => {
                self.last = i;
                self.hits.incr();
                Some(self.entries[i].1)
            }
            None => {
                self.misses.incr();
                None
            }
        }
    }

    /// Books `n` hits that a replayed steady-state message train would
    /// have made (see [`Mmu::book_replayed_hits`](crate::Mmu::book_replayed_hits)).
    /// No lookup runs, so the host-side shortcut count is untouched.
    pub fn book_replayed_hits(&mut self, n: u64) {
        self.hits.add(n);
    }

    /// Inserts (or refreshes) a translation, evicting the oldest entry when
    /// full.
    pub fn insert(&mut self, vpn: Vpn, pte: Pte) {
        if let Some(slot) = self.entries.iter_mut().find(|(v, _)| *v == vpn) {
            slot.1 = pte;
            return;
        }
        if self.entries.len() == self.capacity {
            self.entries.remove(0);
        }
        self.entries.push((vpn, pte));
    }

    /// Updates the cached copy of `vpn` if present (write-through of PTE
    /// status bits).
    pub fn update(&mut self, vpn: Vpn, pte: Pte) {
        if let Some(slot) = self.entries.iter_mut().find(|(v, _)| *v == vpn) {
            slot.1 = pte;
        }
    }

    /// Invalidates the entry for `vpn` (single-page shootdown).
    pub fn flush_page(&mut self, vpn: Vpn) {
        self.entries.retain(|(v, _)| *v != vpn);
    }

    /// Invalidates everything (context switch).
    pub fn flush_all(&mut self) {
        self.entries.clear();
    }

    /// Lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Hits served by the last-hit index shortcut, without the
    /// associative scan. Always `<= hits()`.
    pub fn last_hits(&self) -> u64 {
        self.last_hits.get()
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no translations are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PteFlags;
    use shrimp_mem::Pfn;

    fn pte(pfn: u64) -> Pte {
        Pte::new(Pfn::new(pfn), PteFlags::VALID)
    }

    #[test]
    fn hit_after_insert() {
        let mut tlb = Tlb::new(4);
        assert!(tlb.lookup(Vpn::new(1)).is_none());
        tlb.insert(Vpn::new(1), pte(5));
        assert_eq!(tlb.lookup(Vpn::new(1)).unwrap().pfn, Pfn::new(5));
        assert_eq!(tlb.hits(), 1);
        assert_eq!(tlb.misses(), 1);
        // Slot 0 is where the shortcut already points, so both hits are
        // shortcut hits; a hit on a different slot goes through the scan.
        assert_eq!(tlb.last_hits(), 1);
        tlb.insert(Vpn::new(2), pte(6));
        assert!(tlb.lookup(Vpn::new(2)).is_some());
        assert_eq!(tlb.hits(), 2);
        assert_eq!(tlb.last_hits(), 1, "scan hit must not count as a shortcut hit");
    }

    #[test]
    fn fifo_eviction() {
        let mut tlb = Tlb::new(2);
        tlb.insert(Vpn::new(1), pte(1));
        tlb.insert(Vpn::new(2), pte(2));
        tlb.insert(Vpn::new(3), pte(3)); // evicts vpn 1
        assert!(tlb.lookup(Vpn::new(1)).is_none());
        assert!(tlb.lookup(Vpn::new(2)).is_some());
        assert!(tlb.lookup(Vpn::new(3)).is_some());
    }

    #[test]
    fn reinsert_refreshes_in_place() {
        let mut tlb = Tlb::new(2);
        tlb.insert(Vpn::new(1), pte(1));
        tlb.insert(Vpn::new(2), pte(2));
        tlb.insert(Vpn::new(1), pte(9)); // refresh, no eviction
        assert_eq!(tlb.len(), 2);
        assert_eq!(tlb.lookup(Vpn::new(1)).unwrap().pfn, Pfn::new(9));
    }

    #[test]
    fn update_only_touches_resident() {
        let mut tlb = Tlb::new(2);
        tlb.update(Vpn::new(7), pte(7));
        assert!(tlb.is_empty());
        tlb.insert(Vpn::new(7), pte(7));
        tlb.update(Vpn::new(7), pte(8));
        assert_eq!(tlb.lookup(Vpn::new(7)).unwrap().pfn, Pfn::new(8));
    }

    #[test]
    fn stale_last_hit_index_is_harmless() {
        let mut tlb = Tlb::new(2);
        tlb.insert(Vpn::new(1), pte(1));
        tlb.insert(Vpn::new(2), pte(2));
        // Prime the shortcut on vpn 2 (index 1)…
        assert!(tlb.lookup(Vpn::new(2)).is_some());
        // …then shrink the table under it.
        tlb.flush_page(Vpn::new(1));
        assert_eq!(tlb.lookup(Vpn::new(2)).unwrap().pfn, Pfn::new(2));
        tlb.flush_all();
        assert!(tlb.lookup(Vpn::new(2)).is_none());
        // Refill: the shortcut must re-verify, not resurrect old entries.
        tlb.insert(Vpn::new(3), pte(3));
        assert_eq!(tlb.lookup(Vpn::new(3)).unwrap().pfn, Pfn::new(3));
        // Write-through lands in the slot the shortcut points at.
        tlb.update(Vpn::new(3), pte(9));
        assert_eq!(tlb.lookup(Vpn::new(3)).unwrap().pfn, Pfn::new(9));
    }

    #[test]
    fn flushes() {
        let mut tlb = Tlb::new(4);
        tlb.insert(Vpn::new(1), pte(1));
        tlb.insert(Vpn::new(2), pte(2));
        tlb.flush_page(Vpn::new(1));
        assert!(tlb.lookup(Vpn::new(1)).is_none());
        assert!(tlb.lookup(Vpn::new(2)).is_some());
        tlb.flush_all();
        assert!(tlb.is_empty());
    }
}
