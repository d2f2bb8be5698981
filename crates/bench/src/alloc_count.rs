//! A counting wrapper around the system allocator.
//!
//! Used by the `host_throughput` harness (and the zero-allocation
//! regression test) to measure how many heap allocations the simulator's
//! steady-state data plane performs per message. The wrapper only counts;
//! all actual allocation is delegated to [`std::alloc::System`].
//!
//! Register it as the global allocator from a binary or test:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: shrimp_bench::alloc_count::CountingAlloc =
//!     shrimp_bench::alloc_count::CountingAlloc;
//! ```
//!
//! `host_throughput` always registers it, so every stream and serving row
//! of `BENCH_throughput.json` carries a measured `allocs_per_msg`; a
//! harness without it reports `null` ([`is_active`] is `false`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The counting allocator. Zero-sized; all state is global.
pub struct CountingAlloc;

#[allow(unsafe_code)]
// SAFETY: every method delegates verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the atomic counter updates have no effect on
// allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same layout handed unchanged to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: `ptr`/`layout` come from our `alloc`, which is `System`'s.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: arguments forwarded unchanged to `System.realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Heap allocations observed so far (monotone; see [`delta_since`]).
pub fn allocation_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Bytes requested from the allocator so far.
pub fn allocated_bytes() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

/// Allocations since a previous [`allocation_count`] reading.
pub fn delta_since(mark: u64) -> u64 {
    allocation_count().saturating_sub(mark)
}

/// `true` when the counting allocator is actually registered (counts
/// advance when a heap allocation happens).
pub fn is_active() -> bool {
    let before = allocation_count();
    let v = std::hint::black_box(vec![0u8; 64]);
    drop(v);
    allocation_count() > before
}
