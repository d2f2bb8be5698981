//! The MMU translation and protection path.

use shrimp_mem::{PhysAddr, VirtAddr};
use shrimp_sim::{MetricId, MetricSet, SimDuration};

use crate::{AccessKind, Fault, Mode, PageTable, Pte, PteFlags};

shrimp_sim::counters! {
    /// Translation and protection-fault counts (metrics subsystem `mmu`).
    /// TLB hits and misses live on the [`Tlb`](crate::Tlb) itself.
    pub struct MmuCounters {
        /// Successful translations — one per reference, the hottest line
        /// in the simulator.
        translations,
        /// User accesses to kernel-only pages.
        privilege_faults,
        /// Stores to read-only pages.
        write_faults,
    }
}

/// The memory-management unit: translation, permission checking, and
/// hardware maintenance of the REFERENCED/DIRTY bits.
///
/// This is the hardware UDMA reuses for protection: a user reference to a
/// proxy page goes through [`Mmu::translate`] like any other reference, so
/// an unmapped or write-protected proxy page faults before the UDMA
/// hardware ever sees the access.
#[derive(Clone, Debug)]
pub struct Mmu {
    tlb: crate::Tlb,
    counters: MmuCounters,
    tlb_miss_cost: SimDuration,
}

impl Mmu {
    /// An MMU with a `tlb_entries`-entry TLB and the default 400 ns
    /// table-walk cost.
    pub fn new(tlb_entries: usize) -> Self {
        Mmu {
            tlb: crate::Tlb::new(tlb_entries),
            counters: MmuCounters::default(),
            tlb_miss_cost: SimDuration::from_nanos(400),
        }
    }

    /// Overrides the TLB miss (table walk) cost.
    pub fn with_tlb_miss_cost(mut self, cost: SimDuration) -> Self {
        self.tlb_miss_cost = cost;
        self
    }

    /// Translates `va` for an `access` in `mode` against page table `pt`.
    ///
    /// On success returns the physical address and the extra time spent on
    /// translation (zero on a TLB hit, the table-walk cost on a miss), and
    /// updates the REFERENCED bit (always) and DIRTY bit (on writes) in both
    /// the PTE and any cached TLB copy.
    ///
    /// # Errors
    ///
    /// - [`Fault::NotMapped`] — no valid entry for the page,
    /// - [`Fault::Privilege`] — user access to a kernel-only page,
    /// - [`Fault::WriteProtected`] — store to a read-only page.
    // lint:checks(F1) -- translate is the protection boundary: it yields a
    // physical address only after the mapping, privilege, and write checks
    // all pass, so its result is safe to index physical memory with.
    pub fn translate(
        &mut self,
        pt: &mut PageTable,
        va: VirtAddr,
        access: AccessKind,
        mode: Mode,
    ) -> Result<(PhysAddr, SimDuration), Fault> {
        let vpn = va.page();

        let (pte, cost) = match self.tlb.lookup(vpn) {
            Some(pte) => (pte, SimDuration::ZERO),
            None => {
                let pte = *pt.get(vpn).ok_or(Fault::NotMapped { va, vpn, access })?;
                if !pte.is_valid() {
                    return Err(Fault::NotMapped { va, vpn, access });
                }
                // lint:allow(A1) -- Tlb::insert writes a fixed-capacity
                // entry list (evict-oldest on overflow); refill reuses the
                // Vec's retained capacity once the TLB has filled.
                self.tlb.insert(vpn, pte);
                (pte, self.tlb_miss_cost)
            }
        };

        if mode == Mode::User && !pte.flags.contains(PteFlags::USER) {
            self.counters.privilege_faults.incr();
            return Err(Fault::Privilege { va, vpn });
        }
        if access == AccessKind::Write && !pte.is_writable() {
            self.counters.write_faults.incr();
            return Err(Fault::WriteProtected { va, vpn });
        }

        // Hardware status-bit maintenance, written through to PTE and TLB.
        let mut new_flags = pte.flags | PteFlags::REFERENCED;
        if access == AccessKind::Write {
            new_flags |= PteFlags::DIRTY;
        }
        if new_flags != pte.flags {
            pt.set_flags(vpn, new_flags);
            self.tlb.update(vpn, Pte::new(pte.pfn, new_flags));
        }

        self.counters.translations.incr();
        Ok((pte.pfn.base() + va.page_offset(), cost))
    }

    /// Single-page TLB shootdown; must accompany any PTE change.
    pub fn flush_page(&mut self, vpn: shrimp_mem::Vpn) {
        self.tlb.flush_page(vpn);
    }

    /// Full TLB flush (context switch).
    pub fn flush_all(&mut self) {
        self.tlb.flush_all();
    }

    /// Translation and fault counts.
    pub fn counters(&self) -> &MmuCounters {
        &self.counters
    }

    /// Books `n` successful translations, all TLB hits, that a replayed
    /// steady-state message train would have made: the replay runs no
    /// reference, but its counts must equal the literal path's. (A TLB
    /// miss would have cost time and broken the steady-state stride, so
    /// a replayable train hits on every reference.)
    pub fn book_replayed_hits(&mut self, n: u64) {
        self.counters.translations.add(n);
        self.tlb.book_replayed_hits(n);
    }

    /// Registers the MMU's counters (`mmu/*`) and its TLB's simulated
    /// hit/miss counts (`tlb/hits`, `tlb/misses`) in `set`, at node
    /// `index` when given.
    pub fn harvest_metrics(&self, set: &mut MetricSet, index: Option<u32>) {
        self.counters.harvest(set, "mmu", index);
        set.counter(MetricId { subsystem: "tlb", name: "hits", index }, self.tlb.hits());
        set.counter(MetricId { subsystem: "tlb", name: "misses", index }, self.tlb.misses());
    }

    /// The TLB model (for inspection in tests and benches).
    pub fn tlb(&self) -> &crate::Tlb {
        &self.tlb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shrimp_mem::{Pfn, Vpn};

    fn setup() -> (PageTable, Mmu) {
        let mut pt = PageTable::new();
        pt.map(
            Vpn::new(1),
            Pte::new(Pfn::new(10), PteFlags::VALID | PteFlags::USER | PteFlags::WRITABLE),
        );
        pt.map(Vpn::new(2), Pte::new(Pfn::new(11), PteFlags::VALID | PteFlags::USER));
        pt.map(Vpn::new(3), Pte::new(Pfn::new(12), PteFlags::VALID)); // kernel-only
        (pt, Mmu::new(8))
    }

    #[test]
    fn translates_with_offset() {
        let (mut pt, mut mmu) = setup();
        let (pa, _) =
            mmu.translate(&mut pt, VirtAddr::new(0x1abc), AccessKind::Read, Mode::User).unwrap();
        assert_eq!(pa, PhysAddr::new(0xaabc));
    }

    #[test]
    fn miss_then_hit_costs() {
        let (mut pt, mut mmu) = setup();
        let (_, c1) =
            mmu.translate(&mut pt, VirtAddr::new(0x1000), AccessKind::Read, Mode::User).unwrap();
        let (_, c2) =
            mmu.translate(&mut pt, VirtAddr::new(0x1004), AccessKind::Read, Mode::User).unwrap();
        assert!(c1 > SimDuration::ZERO);
        assert_eq!(c2, SimDuration::ZERO);
        assert_eq!(mmu.tlb().hits(), 1);
        assert_eq!(mmu.tlb().misses(), 1);
    }

    #[test]
    fn unmapped_page_faults() {
        let (mut pt, mut mmu) = setup();
        let err = mmu
            .translate(&mut pt, VirtAddr::new(0x9000), AccessKind::Read, Mode::User)
            .unwrap_err();
        assert!(matches!(err, Fault::NotMapped { .. }));
        assert_eq!(err.vpn(), Vpn::new(9));
    }

    #[test]
    fn write_to_readonly_faults() {
        let (mut pt, mut mmu) = setup();
        let err = mmu
            .translate(&mut pt, VirtAddr::new(0x2000), AccessKind::Write, Mode::User)
            .unwrap_err();
        assert!(matches!(err, Fault::WriteProtected { .. }));
        // Reads still succeed.
        assert!(mmu
            .translate(&mut pt, VirtAddr::new(0x2000), AccessKind::Read, Mode::User)
            .is_ok());
    }

    #[test]
    fn user_access_to_kernel_page_faults() {
        let (mut pt, mut mmu) = setup();
        let err = mmu
            .translate(&mut pt, VirtAddr::new(0x3000), AccessKind::Read, Mode::User)
            .unwrap_err();
        assert!(matches!(err, Fault::Privilege { .. }));
        // Kernel mode is allowed.
        assert!(mmu
            .translate(&mut pt, VirtAddr::new(0x3000), AccessKind::Read, Mode::Kernel)
            .is_ok());
    }

    #[test]
    fn sets_referenced_and_dirty_bits() {
        let (mut pt, mut mmu) = setup();
        mmu.translate(&mut pt, VirtAddr::new(0x1000), AccessKind::Read, Mode::User).unwrap();
        let pte = pt.get(Vpn::new(1)).unwrap();
        assert!(pte.flags.contains(PteFlags::REFERENCED));
        assert!(!pte.is_dirty());
        mmu.translate(&mut pt, VirtAddr::new(0x1000), AccessKind::Write, Mode::User).unwrap();
        assert!(pt.get(Vpn::new(1)).unwrap().is_dirty());
    }

    #[test]
    fn dirty_bit_set_even_on_tlb_hit() {
        let (mut pt, mut mmu) = setup();
        // Load caches the translation without DIRTY.
        mmu.translate(&mut pt, VirtAddr::new(0x1000), AccessKind::Read, Mode::User).unwrap();
        // Store hits the TLB but must still set DIRTY in the page table.
        mmu.translate(&mut pt, VirtAddr::new(0x1008), AccessKind::Write, Mode::User).unwrap();
        assert!(pt.get(Vpn::new(1)).unwrap().is_dirty());
    }

    #[test]
    fn write_protect_enforced_after_flag_change_and_shootdown() {
        let (mut pt, mut mmu) = setup();
        mmu.translate(&mut pt, VirtAddr::new(0x1000), AccessKind::Write, Mode::User).unwrap();
        // Kernel write-protects the page (e.g. cleaning for I3) + shootdown.
        pt.clear_flags(Vpn::new(1), PteFlags::WRITABLE);
        mmu.flush_page(Vpn::new(1));
        let err = mmu
            .translate(&mut pt, VirtAddr::new(0x1000), AccessKind::Write, Mode::User)
            .unwrap_err();
        assert!(matches!(err, Fault::WriteProtected { .. }));
    }

    #[test]
    fn invalid_pte_faults() {
        let mut pt = PageTable::new();
        pt.map(Vpn::new(4), Pte::new(Pfn::new(1), PteFlags::USER)); // VALID not set
        let mut mmu = Mmu::new(4);
        let err = mmu
            .translate(&mut pt, VirtAddr::new(0x4000), AccessKind::Read, Mode::User)
            .unwrap_err();
        assert!(matches!(err, Fault::NotMapped { .. }));
    }
}
