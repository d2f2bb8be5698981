//! Per-crate rule applicability: which invariants bind where.
//!
//! The tables mirror the repo's architecture documents (DESIGN.md §8):
//! determinism binds every crate whose code runs *inside* the simulated
//! timeline; panic discipline binds the files on the per-message
//! delivery path; the unsafe audit and hot-path rules bind everywhere
//! (hot paths are opt-in via `// lint:hot_path`).

/// Crates (directory names under `crates/`) whose simulated behaviour
/// must be bit-identical run to run — no iteration-order, wall-clock,
/// RNG or pointer-value leaks. `bench` is deliberately absent: it
/// measures host wall-clock. `proptest` and `lint` run outside the
/// simulated timeline.
pub const D1_CRATES: &[&str] =
    &["sim", "net", "shrimp", "core", "machine", "dma", "mmu", "mem", "os"];

/// Repo-relative files on the per-message delivery path, where a panic
/// would take down a whole multi-node run: every `unwrap`/`expect`/
/// `panic!` must carry an `// INVARIANT:` justification.
pub const P1_FILES: &[&str] = &[
    "crates/shrimp/src/engine.rs",
    "crates/shrimp/src/nic.rs",
    "crates/net/src/fabric.rs",
    "crates/sim/src/buf.rs",
    "crates/sim/src/parallel.rs",
    "crates/sim/src/span.rs",
];

/// Crates on the protection path, where rule F1 binds: every value
/// derived from a user/packet-controlled source must pass a sanitizer
/// before indexing `PhysMemory`, frame tables, or NIPT slots (the
/// paper's I1–I4 check-and-translate discipline).
pub const F1_CRATES: &[&str] = &["machine", "shrimp", "mem", "os"];

/// `(function name, parameter name)` pairs whose values arrive straight
/// from user or packet control — the F1 taint sources. Taint is seeded
/// per function, so each layer of a cross-crate flow re-checks its own
/// boundary.
pub const F1_SOURCE_PARAMS: &[(&str, &str)] = &[
    // CPU-side proxy access: the user picks the virtual address (proxy
    // page + offset) and the stored word (§4.2 deliberate update).
    ("store", "va"),
    ("store", "value"),
    ("load", "va"),
    // NI MMIO window: user-programmed PIO registers.
    ("mmio_store", "offset"),
    ("mmio_store", "value"),
    ("mmio_load", "offset"),
    // Device-side proxy decode.
    ("handle_store", "proxy"),
    ("handle_store", "value"),
    ("handle_load", "proxy"),
    ("handle_load_system", "proxy"),
    // NI send path: destination device addresses arrive from user stores.
    ("packetize", "dev_addr"),
    ("validate", "dev_addr"),
    ("validate", "nbytes"),
    ("dma_write", "dev_addr"),
    ("dma_write_traced", "dev_addr"),
    ("dma_write_run", "dev_addr"),
    // NIPT recycling: a victim's stale slot index is tenant-controlled.
    ("import_mapping_over", "start"),
];

/// Struct fields whose reads are tainted wherever they appear: packet
/// destination addresses, tenant NIPT views, run strides/counts, and the
/// NI's user-writable PIO registers.
pub const F1_TAINTED_FIELDS: &[&str] =
    &["dst_paddr", "dev_page", "stride_ns", "count", "pio_dest_page", "pio_dest_offset", "meta"];

/// F1 sinks: `(receiver type, [(method, index-like leading args)])`.
/// Only the leading index-like arguments must be clean — data operands
/// (the value stored by `write_u64`, the payload slice of `write`) may
/// carry user bytes; it is the *where*, not the *what*, that protection
/// gates.
pub const F1_SINKS: &[(&str, &[(&str, usize)])] = &[
    (
        "PhysMemory",
        &[
            ("read", 2),
            ("read_vec", 2),
            ("slice_mut", 2),
            ("write", 1),
            ("copy_from_mem", 3),
            ("copy_within", 3),
            ("fill", 2),
            ("read_u64", 1),
            ("write_u64", 1),
            ("frame", 1),
            ("write_frame", 1),
        ],
    ),
    ("Nipt", &[("set", 1), ("clear", 1)]),
    ("FrameAllocator", &[("free", 1)]),
];

/// How the rules apply to one file.
#[derive(Clone, Copy, Debug, Default)]
pub struct FileContext {
    /// D1 applies (the file belongs to a determinism-critical crate).
    pub determinism: bool,
    /// P1 applies (the file is on the delivery path).
    pub delivery_path: bool,
    /// U1's crate-root attribute check applies (the file is a `lib.rs`).
    pub crate_root: bool,
    /// F1 applies (the file belongs to a protection-path crate).
    pub f1: bool,
}

impl FileContext {
    /// The context for a repo-relative path like
    /// `crates/net/src/fabric.rs`.
    pub fn for_path(rel_path: &str) -> FileContext {
        let norm = rel_path.replace('\\', "/");
        let crate_name = norm
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next())
            .unwrap_or_default();
        FileContext {
            determinism: D1_CRATES.contains(&crate_name),
            delivery_path: P1_FILES.contains(&norm.as_str()),
            crate_root: norm.ends_with("/src/lib.rs"),
            f1: F1_CRATES.contains(&crate_name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contexts_follow_the_tables() {
        let fabric = FileContext::for_path("crates/net/src/fabric.rs");
        assert!(fabric.determinism && fabric.delivery_path && !fabric.crate_root);
        assert!(!fabric.f1, "net is below the protection boundary");
        let bench = FileContext::for_path("crates/bench/src/host_perf.rs");
        assert!(!bench.determinism && !bench.delivery_path && !bench.f1);
        let root = FileContext::for_path("crates/mem/src/lib.rs");
        assert!(root.crate_root && root.determinism && root.f1);
        assert!(FileContext::for_path("crates/shrimp/src/nic.rs").f1);
    }
}
