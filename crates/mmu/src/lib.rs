//! Virtual-memory hardware model: page tables, a TLB and the MMU
//! translation/protection path.
//!
//! UDMA's whole point is to reuse this hardware: "UDMA uses the existing
//! virtual memory mechanisms — address translation and permission checking —
//! to provide the same degree of protection as the traditional DMA
//! operations" (§1). The [`Mmu`] here performs exactly that translation and
//! permission check for every user reference, including references to proxy
//! pages, and maintains the referenced/dirty PTE bits the OS invariants
//! (I2/I3) depend on.
//!
//! # Example
//!
//! ```
//! use shrimp_mem::{Pfn, VirtAddr, Vpn};
//! use shrimp_mmu::{AccessKind, Mmu, Mode, PageTable, Pte, PteFlags};
//!
//! let mut pt = PageTable::new();
//! pt.map(Vpn::new(4), Pte::new(Pfn::new(9), PteFlags::VALID | PteFlags::USER));
//! let mut mmu = Mmu::new(16);
//! let (pa, _cost) = mmu
//!     .translate(&mut pt, VirtAddr::new(0x4018), AccessKind::Read, Mode::User)
//!     .unwrap();
//! assert_eq!(pa.raw(), 0x9018);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fault;
mod mmu;
mod page_table;
mod pte;
mod tlb;

pub use fault::{AccessKind, Fault, Mode};
pub use mmu::{Mmu, MmuCounters};
pub use page_table::PageTable;
pub use pte::{Pte, PteFlags};
pub use tlb::Tlb;
