//! Deterministic artifacts of the simulator's streaming data plane.
//!
//! The `host_throughput` binary drives these workloads and writes
//! `BENCH_throughput.json`: per workload, the FNV digest of the final
//! machine state, the steady-state heap allocations per message, and
//! (traced rows) per-stage simulated-latency percentiles. None of it
//! reads the host clock, so a row reproduces on any host; host time is
//! measured by `perfbench` alone.
//!
//! Workloads run either through the serial driver (`threads == 0`: a
//! literal [`Multicomputer::send`] loop) or through
//! [`Multicomputer::run`] (`threads >= 1`). Both drive the same send and
//! delivery cores, so the digest of a stream must not depend on the
//! thread count.

use shrimp::{Multicomputer, NodePlan, PacketClass, SendOp};
use shrimp_machine::MachineConfig;
use shrimp_mem::{VirtAddr, PAGE_SIZE};
use shrimp_sim::{Stage, STAGE_COUNT};

use crate::alloc_count;

/// Node count above which streams use small per-node memory: the
/// data plane only touches the mapped buffers, and whole-memory state
/// digests over hundreds of default-sized (8 MB) nodes would measure
/// the digest, not the engine.
const SMALL_NODE_THRESHOLD: u16 = 16;

/// Per-stage simulated-time latency percentiles `[p50, p90, p99]` in
/// nanoseconds, indexed by [`Stage::ALL`] order (`None` on untraced
/// rows — the flight recorder is the source).
pub type StageLatencies = [[u64; 3]; STAGE_COUNT];

fn stages_to_json(s: &StageLatencies) -> String {
    let body: Vec<String> = Stage::ALL
        .iter()
        .zip(s.iter())
        .map(|(stage, pq)| format!("\"{}\":[{},{},{}]", stage.name(), pq[0], pq[1], pq[2]))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// One workload's deterministic outcome.
#[derive(Clone, Debug)]
pub struct ThroughputResult {
    /// Workload name (`stream_<size>_<n>node[_t<threads>]`).
    pub name: String,
    /// Node count (half senders, half receivers).
    pub nodes: u16,
    /// Per-message payload bytes.
    pub msg_bytes: u64,
    /// Total messages sent across all pairs.
    pub messages: u64,
    /// Worker threads (`0` = serial driver loop, `>=1` = parallel engine).
    pub threads: usize,
    /// FNV-1a digest of final machine state (clocks, deliveries, memory).
    /// Identical workloads must digest identically at every thread count.
    pub digest: u64,
    /// Heap allocations per message over the measured run (`None` unless
    /// the counting allocator is registered, as the `host_throughput`
    /// binary always does): the steady state on the streams, mostly
    /// one-time warm-up on the short serving rows.
    pub allocs_per_msg: Option<f64>,
    /// Per-stage `[p50, p90, p99]` simulated latency in nanoseconds
    /// (traced rows only), from the flight recorder's stage histograms.
    pub stage_ns: Option<StageLatencies>,
    /// Request-latency percentiles `[p50, p90, p99]` in simulated
    /// nanoseconds (serving rows only) — deterministic at every thread
    /// count, so CI can gate on them.
    pub request_ns: Option<[u64; 3]>,
    /// Machine-wide NIPT churn `[evictions, refaults]` (serving rows
    /// only): slot runs recycled for another tenant, and sends that
    /// found their slot recycled and reloaded it.
    pub nipt_churn: Option<[u64; 2]>,
}

impl ThroughputResult {
    /// Renders the result as one JSON object (no external deps).
    pub fn to_json(&self) -> String {
        let allocs = match self.allocs_per_msg {
            Some(a) => format!("{a:.3}"),
            None => "null".to_string(),
        };
        let stage_ns = match &self.stage_ns {
            Some(s) => stages_to_json(s),
            None => "null".to_string(),
        };
        let request_ns = match self.request_ns {
            Some([p50, p90, p99]) => format!("[{p50},{p90},{p99}]"),
            None => "null".to_string(),
        };
        let nipt_churn = match self.nipt_churn {
            Some([evictions, refaults]) => format!("[{evictions},{refaults}]"),
            None => "null".to_string(),
        };
        format!(
            concat!(
                "{{\"name\":\"{}\",\"nodes\":{},\"msg_bytes\":{},\"messages\":{},",
                "\"threads\":{},\"digest\":\"{:#018x}\",",
                "\"allocs_per_msg\":{},\"stage_p50_p90_p99_ns\":{},",
                "\"request_p50_p90_p99_ns\":{},\"nipt_evictions_refaults\":{}}}"
            ),
            self.name,
            self.nodes,
            self.msg_bytes,
            self.messages,
            self.threads,
            self.digest,
            allocs,
            stage_ns,
            request_ns,
            nipt_churn,
        )
    }
}

/// Every pair of rows that ran the same workload — equal node count,
/// message size and message count — yet digest differently. Thread
/// count and tracing must never move a digest, so a non-empty result is
/// a determinism failure.
pub fn digest_divergences(
    runs: &[ThroughputResult],
) -> Vec<(&ThroughputResult, &ThroughputResult)> {
    let mut out = Vec::new();
    for (i, a) in runs.iter().enumerate() {
        for b in &runs[i + 1..] {
            if (a.nodes, a.msg_bytes, a.messages) == (b.nodes, b.msg_bytes, b.messages)
                && a.digest != b.digest
            {
                out.push((a, b));
            }
        }
    }
    out
}

/// Renders a run list as a JSON array.
pub fn runs_to_json(runs: &[ThroughputResult]) -> String {
    let body: Vec<String> = runs.iter().map(|r| format!("    {}", r.to_json())).collect();
    format!("[\n{}\n  ]", body.join(",\n"))
}

/// Streams `messages_per_pair` messages of `msg_bytes` down `nodes / 2`
/// disjoint sender→receiver pairs and reports the final state digest.
///
/// With `threads == 0` each sender in turn issues its messages through
/// the serial driver (`Multicomputer::send` + `run_until_quiet`), one
/// literal send per message. With `threads >= 1` every sender's
/// messages become a [`NodePlan`] executed by [`Multicomputer::run`] on
/// that many worker threads. Either way the simulated timeline — and
/// therefore the state digest — is identical.
///
/// # Panics
///
/// Panics on kernel traps during setup (the workload is statically valid).
pub fn stream_pairs(
    nodes: u16,
    msg_bytes: u64,
    messages_per_pair: u32,
    threads: usize,
) -> ThroughputResult {
    stream_pairs_impl(nodes, msg_bytes, messages_per_pair, threads, false, false).0
}

/// [`stream_pairs`] with the flight recorder enabled: tracing is switched
/// on *after* warm-up (so ring storage is reserved outside the measured
/// region) and the `SHRTRC01` binary trace
/// ([`shrimp::Multicomputer::export_trace_bin`]) is exported afterwards.
/// The workload name gains a `_traced` suffix; the digest must equal the
/// untraced run's (tracing is pure observation).
///
/// # Panics
///
/// Panics on kernel traps during setup (the workload is statically valid).
pub fn stream_pairs_traced(
    nodes: u16,
    msg_bytes: u64,
    messages_per_pair: u32,
    threads: usize,
) -> (ThroughputResult, Vec<u8>) {
    let (result, trace, _) =
        stream_pairs_impl(nodes, msg_bytes, messages_per_pair, threads, true, false);
    (result, trace.expect("tracing was enabled"))
}

/// [`stream_pairs`] with metrics harvesting: after the measured window
/// the machine-wide snapshot ([`Multicomputer::metrics_snapshot`]) is
/// rendered to its stable text form and returned alongside the result.
/// Harvesting happens outside the measured window and must not disturb
/// the digest or the steady-state allocation count.
///
/// # Panics
///
/// Panics on kernel traps during setup (the workload is statically valid).
pub fn stream_pairs_metered(
    nodes: u16,
    msg_bytes: u64,
    messages_per_pair: u32,
    threads: usize,
) -> (ThroughputResult, String) {
    let (result, _, metrics) =
        stream_pairs_impl(nodes, msg_bytes, messages_per_pair, threads, false, true);
    (result, metrics.expect("metering was enabled"))
}

/// Traced *and* metered stream: returns the result, the `SHRTRC01`
/// binary trace, and the rendered metrics snapshot — the full
/// observability surface of one run, for `host_throughput --metrics`.
///
/// # Panics
///
/// Panics on kernel traps during setup (the workload is statically valid).
pub fn stream_pairs_traced_metered(
    nodes: u16,
    msg_bytes: u64,
    messages_per_pair: u32,
    threads: usize,
) -> (ThroughputResult, Vec<u8>, String) {
    let (result, trace, metrics) =
        stream_pairs_impl(nodes, msg_bytes, messages_per_pair, threads, true, true);
    (result, trace.expect("tracing was enabled"), metrics.expect("metering was enabled"))
}

fn stream_pairs_impl(
    nodes: u16,
    msg_bytes: u64,
    messages_per_pair: u32,
    threads: usize,
    traced: bool,
    metered: bool,
) -> (ThroughputResult, Option<Vec<u8>>, Option<String>) {
    assert!(nodes >= 2 && nodes.is_multiple_of(2), "need sender/receiver pairs");
    let machine = if nodes > SMALL_NODE_THRESHOLD {
        MachineConfig { mem_bytes: 64 * PAGE_SIZE, ..MachineConfig::default() }
    } else {
        MachineConfig::default()
    };
    let mut mc = Multicomputer::with_machine_config(nodes, machine);
    let pairs = usize::from(nodes) / 2;
    let pages = msg_bytes.div_ceil(PAGE_SIZE).max(1) + 1;

    let mut flows = Vec::with_capacity(pairs);
    for p in 0..pairs {
        let (send_node, recv_node) = (2 * p, 2 * p + 1);
        let sender = mc.spawn_process(send_node);
        let receiver = mc.spawn_process(recv_node);
        mc.map_user_buffer(send_node, sender, 0x10_0000, pages).expect("map sender");
        mc.map_user_buffer(recv_node, receiver, 0x40_0000, pages).expect("map receiver");
        let dev_page = mc
            .export(recv_node, receiver, VirtAddr::new(0x40_0000), pages, send_node, sender)
            .expect("export");
        let payload: Vec<u8> = (0..msg_bytes).map(|i| (i % 251) as u8).collect();
        mc.write_user(send_node, sender, VirtAddr::new(0x10_0000), &payload).expect("fill");
        flows.push((send_node, sender, dev_page));
    }

    // Warm every flow: mappings, proxy PTEs, dirty bits, TLB, NIC scratch.
    for &(send_node, sender, dev_page) in &flows {
        mc.send(send_node, sender, VirtAddr::new(0x10_0000), dev_page, 0, msg_bytes)
            .expect("warm send");
    }
    mc.run_until_quiet();
    if traced {
        // Reserve every trace ring now, before the allocation mark: the
        // traced steady state must stay allocation-free too.
        mc.set_tracing(true);
    }

    let total = u64::from(messages_per_pair) * pairs as u64;
    // Plans are workload *input*, not data-plane work: build them before
    // the allocation mark so the steady-state figure measures the engine.
    let plans: Vec<NodePlan> = if threads == 0 {
        Vec::new()
    } else {
        flows
            .iter()
            .map(|&(send_node, sender, dev_page)| NodePlan {
                node: send_node,
                ops: vec![
                    SendOp {
                        pid: sender,
                        src_va: VirtAddr::new(0x10_0000),
                        dev_page,
                        dev_off: 0,
                        nbytes: msg_bytes,
                        class: PacketClass::User,
                    };
                    messages_per_pair as usize
                ],
            })
            .collect()
    };
    let alloc_mark = alloc_count::allocation_count();
    if threads == 0 {
        for &(send_node, sender, dev_page) in &flows {
            for _ in 0..messages_per_pair {
                mc.send(send_node, sender, VirtAddr::new(0x10_0000), dev_page, 0, msg_bytes)
                    .expect("steady-state send");
            }
        }
        mc.run_until_quiet();
    } else {
        mc.run(&plans, threads).expect("steady-state parallel run");
    }
    let allocs = alloc_count::delta_since(alloc_mark);

    assert_eq!(mc.dropped_packets(), 0, "workload must not drop packets");
    let trace = traced.then(|| mc.export_trace_bin());
    let metrics = metered.then(|| mc.metrics_snapshot().render_text());
    let stage_ns = traced.then(|| {
        let mut out = [[0u64; 3]; STAGE_COUNT];
        for (slot, stage) in out.iter_mut().zip(Stage::ALL) {
            let h = mc.recorder().stage_histogram(stage);
            let q = |p: f64| h.quantile(p).unwrap_or(0);
            *slot = [q(0.50), q(0.90), q(0.99)];
        }
        out
    });

    let threads_suffix = if threads == 0 { String::new() } else { format!("_t{threads}") };
    let traced_suffix = if traced { "_traced" } else { "" };
    let result = ThroughputResult {
        name: format!("stream_{}b_{}node{}{}", msg_bytes, nodes, threads_suffix, traced_suffix),
        nodes,
        msg_bytes,
        messages: total,
        threads,
        digest: mc.state_digest(),
        allocs_per_msg: if alloc_count::is_active() {
            Some(allocs as f64 / total as f64)
        } else {
            None
        },
        stage_ns,
        request_ns: None,
        nipt_churn: None,
    };
    (result, trace, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_pairs_moves_data_and_reports_sane_numbers() {
        let r = stream_pairs(2, 4096, 16, 0);
        assert_eq!(r.messages, 16);
        assert_eq!(r.threads, 0);
        assert_eq!(r.allocs_per_msg, None, "no counting allocator in unit tests");
        assert_ne!(r.digest, 0);
        assert_ne!(r.digest, stream_pairs(2, 4096, 17, 0).digest, "one more message moves state");
    }

    #[test]
    fn serial_and_parallel_digests_agree() {
        let serial = stream_pairs(4, 512, 8, 0);
        let par1 = stream_pairs(4, 512, 8, 1);
        let par2 = stream_pairs(4, 512, 8, 2);
        assert_eq!(serial.digest, par1.digest, "serial vs 1 thread");
        assert_eq!(par1.digest, par2.digest, "1 vs 2 threads");
        assert_eq!(par2.name, "stream_512b_4node_t2");
    }

    #[test]
    fn divergent_digests_of_one_workload_are_reported() {
        let t1 = stream_pairs(4, 512, 8, 1);
        let other = stream_pairs(4, 512, 9, 1);
        let runs = vec![stream_pairs(4, 512, 8, 0), t1.clone(), other];
        assert!(digest_divergences(&runs).is_empty(), "agreeing rows and other workloads pass");
        let mut broken = t1;
        broken.digest ^= 1;
        let runs = vec![runs[0].clone(), broken];
        let divergent = digest_divergences(&runs);
        assert_eq!(divergent.len(), 1);
        assert_eq!(divergent[0].1.name, "stream_512b_4node_t1");
    }

    #[test]
    fn json_shape_is_stable() {
        let r = stream_pairs(2, 256, 4, 0);
        let j = r.to_json();
        assert!(j.contains("\"name\":\"stream_256b_2node\""), "{j}");
        assert!(j.contains("\"threads\":0"), "{j}");
        assert!(j.contains("\"digest\":\"0x"), "{j}");
        assert!(j.contains("\"allocs_per_msg\":"), "{j}");
        assert!(j.contains("\"stage_p50_p90_p99_ns\":null"), "untraced row has no stages: {j}");
        assert!(j.contains("\"request_p50_p90_p99_ns\":null"), "stream row: {j}");
        assert!(j.contains("\"nipt_evictions_refaults\":null"), "stream row: {j}");
    }

    #[test]
    fn traced_rows_report_stage_percentiles() {
        let (r, _trace) = stream_pairs_traced(2, 4096, 16, 1);
        let stages = r.stage_ns.expect("traced row has stage latencies");
        let wire = stages[Stage::Wire.index()];
        assert!(wire[0] > 0, "wire p50 nonzero for 4 KB payloads");
        assert!(wire[1] >= wire[0] && wire[2] >= wire[1], "p50 <= p90 <= p99");
        let j = r.to_json();
        assert!(j.contains("\"stage_p50_p90_p99_ns\":{\"initiation\":["), "{j}");
        assert!(j.contains("\"status-observed\":["), "{j}");
    }

    #[test]
    fn metered_run_renders_snapshot_with_live_counters() {
        let (r, metrics) = stream_pairs_metered(2, 256, 8, 1);
        assert_ne!(r.digest, 0);
        assert!(metrics.starts_with("# shrimp-metrics v1"), "{metrics}");
        let delivered = metrics
            .lines()
            .find(|l| l.starts_with("delivery/delivered"))
            .expect("snapshot has delivery.delivered");
        let count: u64 = delivered.split_whitespace().last().unwrap().parse().unwrap();
        // 8 steady-state messages + 1 warm-up send on the single pair.
        assert_eq!(count, 9, "{metrics}");
    }
}
