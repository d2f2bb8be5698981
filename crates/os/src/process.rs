//! Processes and their virtual-memory metadata.

use std::collections::BTreeMap;
use std::fmt;

use shrimp_mem::{Pfn, SwapSlot, Vpn};
use shrimp_mmu::PageTable;

/// Process identifier.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(u32);

impl Pid {
    /// Wraps a raw pid.
    pub const fn new(raw: u32) -> Self {
        Pid(raw)
    }

    /// The raw pid.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

/// Kernel-side state of one virtual memory page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VPage {
    /// Declared by `mmap` but never touched: zero-fill on demand.
    Untouched {
        /// Whether the segment permits writes.
        writable: bool,
    },
    /// Resident in the given frame.
    Resident {
        /// The backing frame.
        pfn: Pfn,
        /// Whether the segment permits writes.
        writable: bool,
    },
    /// Evicted to backing store.
    Swapped {
        /// Where the contents live.
        slot: SwapSlot,
        /// Whether the segment permits writes.
        writable: bool,
    },
}

impl VPage {
    /// Whether the segment permits writes (independent of residency).
    pub fn writable(&self) -> bool {
        match *self {
            VPage::Untouched { writable }
            | VPage::Resident { writable, .. }
            | VPage::Swapped { writable, .. } => writable,
        }
    }

    /// The resident frame, if any.
    pub fn pfn(&self) -> Option<Pfn> {
        match *self {
            VPage::Resident { pfn, .. } => Some(pfn),
            _ => None,
        }
    }
}

/// Per-process pager accounting: who demanded frames, and who paid for
/// the pressure. Under multi-tenant churn the requester and the victim
/// of an eviction are usually *different* processes — these counters
/// make that visible per process, where the kernel-wide `KernelCounters` only
/// shows node totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PagerAccount {
    /// Frames demand-allocated on this process's behalf (zero-fill
    /// faults and swap-ins).
    pub demand_allocs: u64,
    /// This process's resident pages reclaimed by the second-chance
    /// clock (charged to the victim, not the requester).
    pub evictions: u64,
    /// Dirty pages of this process written to backing store on eviction.
    pub page_outs: u64,
}

/// A grant of device proxy pages to a process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeviceGrant {
    /// First device proxy page granted.
    pub first_page: u64,
    /// Number of pages granted.
    pub pages: u64,
    /// Whether the grant permits naming the device as a *destination*
    /// (read-only grants can only source transfers).
    pub writable: bool,
}

/// One simulated process.
#[derive(Debug, Default)]
pub struct Process {
    /// The process id.
    pub pid: Pid,
    /// Hardware page table the MMU walks for this process.
    pub pt: PageTable,
    /// Kernel bookkeeping for every declared virtual page.
    pub vpages: BTreeMap<Vpn, VPage>,
    /// Device proxy grants.
    pub grants: Vec<DeviceGrant>,
    /// Pager accounting (demand allocations, evictions, page-outs).
    pub pager: PagerAccount,
}

impl Process {
    /// A fresh process with an empty address space.
    pub fn new(pid: Pid) -> Self {
        Process { pid, ..Process::default() }
    }

    /// The grant covering device proxy page `dev_page`, if any.
    pub fn grant_for(&self, dev_page: u64) -> Option<&DeviceGrant> {
        self.grants.iter().find(|g| (g.first_page..g.first_page + g.pages).contains(&dev_page))
    }

    /// Number of resident pages.
    pub fn resident_pages(&self) -> usize {
        self.vpages.values().filter(|v| matches!(v, VPage::Resident { .. })).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pid_display() {
        assert_eq!(Pid::new(7).to_string(), "pid7");
    }

    #[test]
    fn vpage_accessors() {
        let p = VPage::Resident { pfn: Pfn::new(3), writable: true };
        assert!(p.writable());
        assert_eq!(p.pfn(), Some(Pfn::new(3)));
        assert_eq!(VPage::Untouched { writable: false }.pfn(), None);
    }

    #[test]
    fn grant_lookup() {
        let mut p = Process::new(Pid::new(1));
        p.grants.push(DeviceGrant { first_page: 4, pages: 2, writable: true });
        assert!(p.grant_for(4).is_some());
        assert!(p.grant_for(5).is_some());
        assert!(p.grant_for(6).is_none());
        assert!(p.grant_for(3).is_none());
    }

    #[test]
    fn resident_count() {
        let mut p = Process::new(Pid::new(1));
        p.vpages.insert(Vpn::new(1), VPage::Untouched { writable: true });
        p.vpages.insert(Vpn::new(2), VPage::Resident { pfn: Pfn::new(0), writable: true });
        assert_eq!(p.resident_pages(), 1);
    }
}
