//! Every metric the benchmark prints, with its unit and direction — the
//! same list `BENCHMARK.json` declares (a test keeps the two in step).

/// One metric's declaration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Metric {
    /// Printed name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Metrics of the untraced run (`--trace 0`). `peak_rss_mib` is measured
/// by the launcher around this process, which cannot see its own exit.
pub const END_TO_END: &[Metric] = &[
    m("msgs_per_host_s", "1/s", "higher"),
    m("recorder_on_msgs_per_host_s", "1/s", "higher"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mib", "MiB", "lower"),
    m("sim_mb_per_s", "MB/s", "higher"),
    m("sim_latency_p50_ns", "ns", "lower"),
    m("sim_latency_p99_ns", "ns", "lower"),
];

/// Metrics of the traced run (`--trace 1`).
pub const PER_LAYER: &[Metric] = &[
    m("os.udma_send_ns", "ns", "lower"),
    m("os.transfers_per_msg", "count", "lower"),
    m("os.retries_per_msg", "count", "lower"),
    m("multicomputer.propagate_ns", "ns", "lower"),
    m("parallel.execute_ns_per_msg", "ns", "lower"),
    m("parallel.merge_ns_per_msg", "ns", "lower"),
    m("parallel.commit_ns_per_msg", "ns", "lower"),
    m("parallel.barrier_ns_per_msg", "ns", "lower"),
    m("parallel.epochs", "count", "lower"),
    m("program.step_ns", "ns", "lower"),
    m("program.steps_per_msg", "count", "lower"),
    m("tenant.ensure_ns", "ns", "lower"),
    m("nipt.refault_ratio", "ratio", "lower"),
    m("nipt.evictions", "count", "lower"),
    m("delivery.msgs_per_run", "count", "higher"),
    m("delivery.run_splits", "count", "lower"),
    m("wheel.spills", "count", "lower"),
    m("wheel.reseeds", "count", "lower"),
    m("wheel.depth_high", "count", "lower"),
    m("dst_index.lane_spills", "count", "lower"),
    m("net.send_ns", "ns", "lower"),
    m("net.commit_next_ns", "ns", "lower"),
    m("mem.write_ns_per_kib", "ns", "lower"),
    m("mmu.translate_ns", "ns", "lower"),
    m("tlb.hit_ratio", "ratio", "higher"),
    m("nipt.lookup_ns", "ns", "lower"),
    m("buf_pool.in_use_high", "count", "lower"),
    m("buf_pool.exhaustion", "count", "lower"),
    m("data_plane.allocs_per_msg", "count", "lower"),
    m("failed_frac", "ratio", "lower"),
    m("ledger.wall_ns_per_msg", "ns", "lower"),
    m("ledger.unattributed_frac", "ratio", "lower"),
    m("trace.overhead_ratio", "ratio", "lower"),
];

/// The declaration of `name`, if it is a benchmark metric.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}
