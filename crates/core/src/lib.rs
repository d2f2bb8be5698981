//! **UDMA** — Protected, User-Level DMA (Blumrich, Dubnicki, Felten & Li,
//! HPCA 1996). This crate is the paper's primary contribution.
//!
//! A user process initiates a DMA transfer with two ordinary memory
//! references and no system call:
//!
//! ```text
//! STORE nbytes TO PROXY(destAddr)   ; latch destination + byte count
//! LOAD  status FROM PROXY(srcAddr)  ; latch source, start the transfer
//! ```
//!
//! Protection comes for free: both references are translated and permission
//! checked by the ordinary MMU, so a process can only name pages whose
//! *proxy pages* the kernel has mapped into it. The UDMA hardware then only
//! has to (1) apply the trivial `PROXY⁻¹` translation to the physical proxy
//! addresses it receives, and (2) run a three-state machine over the
//! initiation sequence.
//!
//! The crate provides:
//!
//! - [`state`] — the pure `Idle → DestLoaded → Transferring` state machine
//!   of Figure 5, as a total transition function,
//! - [`UdmaStatus`] — the status word returned by every proxy LOAD (§5),
//! - [`UdmaController`] — the basic single-transfer device (Figure 4),
//! - [`QueuedUdma`] — the §7 extension: a hardware request queue enabling
//!   multi-page and gather/scatter transfers at two references per page,
//!   with per-page reference counts *and* an associative queue query so the
//!   kernel can maintain invariant I4 without pinning,
//! - [`plan`] — translation of a (destination proxy, source proxy) pair
//!   into a concrete transfer, including BadLoad (WRONG-SPACE) detection.
//!
//! # Example
//!
//! ```
//! use shrimp_dma::{DmaTiming, LoopbackPort};
//! use shrimp_mem::{Layout, PhysAddr, PhysMemory, PAGE_SIZE};
//! use shrimp_sim::SimTime;
//! use udma_core::UdmaController;
//!
//! let layout = Layout::new(16 * PAGE_SIZE, 16 * PAGE_SIZE);
//! let mut mem = PhysMemory::new(16 * PAGE_SIZE);
//! mem.write(PhysAddr::new(0x100), b"payload")?;
//! let mut port = LoopbackPort::new(4096);
//! let mut udma = UdmaController::new(layout, DmaTiming::default());
//!
//! // The two-reference initiation sequence (physical proxy addresses, as
//! // they arrive at the hardware after MMU translation):
//! let dest = layout.dev_proxy_addr(0, 0x40);
//! let src = layout.proxy_of_phys(PhysAddr::new(0x100))?;
//! let now = SimTime::ZERO;
//! udma.handle_store(dest, 7, now, &mut mem, &mut port);
//! let status = udma.handle_load(src, now, &mut mem, &mut port);
//! assert!(status.started());
//!
//! // Poll for completion by repeating the LOAD: MATCH clear => done.
//! let later = now + udma.engine().duration_for(7);
//! let status = udma.handle_load(src, later, &mut mem, &mut port);
//! assert!(!status.matches);
//! assert_eq!(&port.bytes()[0x40..0x47], b"payload");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod controller;
pub mod plan;
mod queue;
pub mod state;
mod status;

pub use controller::UdmaController;
pub use plan::{PlanError, TransferPlan};
pub use queue::{Priority, QueuedRequest, QueuedUdma};
pub use state::{transition, Effect, UdmaEvent, UdmaState};
pub use status::UdmaStatus;

shrimp_sim::counters! {
    /// Proxy-reference and transfer counts of either UDMA controller
    /// variant (metrics subsystem `udma`).
    pub struct UdmaCounters {
        /// Proxy STOREs (initiation first halves and Invals).
        stores,
        /// Proxy LOADs (initiation second halves and status polls).
        loads,
        /// Transfers started.
        initiations,
        /// Transfers retired.
        completions,
        /// Inval events (non-positive STOREs).
        invals,
        /// LOADs naming the wrong proxy space (BadLoad).
        bad_loads,
        /// Transfers the device refused at validation.
        device_rejects,
        /// Transfers aborted by a bus error at retire.
        bus_errors,
        /// Kernel-forced terminations (basic controller).
        terminations,
        /// Requests refused because the queue was full (queued controller).
        queue_full_refusals,
    }
}

/// Interpreting the value written by the initiating STORE: the paper uses
/// negative values as `Inval` events ("STOREs of negative values (passing a
/// negative, and hence invalid, value of nbytes to proxy space)", §5).
///
/// Returns `None` for an Inval (non-positive) value, `Some(nbytes)` for a
/// transfer-count store.
pub fn store_value_as_count(value: i64) -> Option<u64> {
    (value > 0).then_some(value as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negative_store_is_inval() {
        assert_eq!(store_value_as_count(-1), None);
        assert_eq!(store_value_as_count(-4096), None);
    }

    #[test]
    fn zero_store_is_inval() {
        // Zero bytes cannot be a transfer; treated as invalid.
        assert_eq!(store_value_as_count(0), None);
    }

    #[test]
    fn positive_store_is_count() {
        assert_eq!(store_value_as_count(4096), Some(4096));
    }
}
