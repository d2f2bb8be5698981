//! Offline analyzer for SHRIMP transfer traces.
//!
//! Reads a `SHRTRC01` trace — the one format the engine exports
//! ([`shrimp::Multicomputer::export_trace_bin`], e.g.
//! `host_throughput --trace-bin`) — and reports where transfer time went:
//!
//! * per-stage latency percentiles (p50/p90/p99/max) from the same
//!   log-scaled histograms the simulator uses internally,
//! * per-node (sender) and per-link (src→dst) traffic breakdowns,
//! * the slowest N transfers with their dominant stage, and
//! * `--diff <other>`: the same percentile table for two traces side by
//!   side with deltas — byte-identical traces show every delta as 0 and
//!   exit 0; any difference exits 1 (usable as a CI regression gate).
//!
//! Run: `cargo run --release -p shrimp-bench --bin shrimp_trace -- \
//!       traces/sample_2node.shrtrc`

use std::fs;
use std::process::ExitCode;

use shrimp_sim::{Histogram, Stage, STAGE_COUNT};

/// One normalized transfer span: identity, endpoints, and the duration
/// of each pipeline stage in nanoseconds.
#[derive(Clone, Copy, Debug)]
struct Span {
    /// Raw transfer id (`src << 48 | seq`).
    id: u64,
    src: u16,
    dst: u16,
    bytes: u32,
    stage_ns: [u64; STAGE_COUNT],
}

impl Span {
    fn total_ns(&self) -> u64 {
        self.stage_ns.iter().sum()
    }

    /// The stage this span spent the most time in.
    fn dominant(&self) -> Stage {
        let mut best = 0;
        for (i, &ns) in self.stage_ns.iter().enumerate() {
            if ns > self.stage_ns[best] {
                best = i;
            }
        }
        Stage::ALL[best]
    }
}

/// A parsed trace.
#[derive(Debug)]
struct Trace {
    nodes: u16,
    /// Spans the recorder *observed* (>= `spans.len()` if a ring filled).
    recorded: u64,
    /// Spans the recorder's rings had no room for.
    ring_dropped: u64,
    spans: Vec<Span>,
}

/// Decodes a `SHRTRC01` trace with the engine's own decoder
/// ([`shrimp::decode_trace_bin`]), reducing each span's six
/// stage-boundary timestamps to five stage durations.
fn parse(bytes: &[u8]) -> Option<Trace> {
    let t = shrimp::decode_trace_bin(bytes)?;
    let spans = t
        .spans
        .iter()
        .map(|s| {
            let mut stage_ns = [0u64; STAGE_COUNT];
            for (d, stage) in stage_ns.iter_mut().zip(Stage::ALL) {
                let (start, end) = s.stage_bounds(stage);
                *d = end.saturating_duration_since(start).as_nanos();
            }
            Span { id: s.id.raw(), src: s.src, dst: s.dst, bytes: s.bytes, stage_ns }
        })
        .collect();
    Some(Trace { nodes: t.nodes, recorded: t.recorded, ring_dropped: t.dropped, spans })
}

/// Per-stage latency histograms plus the end-to-end total, rebuilt from
/// the retained spans with the simulator's own log-scaled [`Histogram`].
fn stage_histograms(t: &Trace) -> [Histogram; STAGE_COUNT + 1] {
    let mut hists: [Histogram; STAGE_COUNT + 1] = Default::default();
    for span in &t.spans {
        for (i, &ns) in span.stage_ns.iter().enumerate() {
            hists[i].record(ns);
        }
        hists[STAGE_COUNT].record(span.total_ns());
    }
    hists
}

/// Row label for histogram index `i`: a stage name or `end-to-end`.
fn row_name(i: usize) -> &'static str {
    if i < STAGE_COUNT {
        Stage::ALL[i].name()
    } else {
        "end-to-end"
    }
}

/// The four reported figures of one histogram: p50/p90/p99/max (ns).
fn figures(h: &Histogram) -> [u64; 4] {
    [
        h.quantile(0.50).unwrap_or(0),
        h.quantile(0.90).unwrap_or(0),
        h.quantile(0.99).unwrap_or(0),
        h.max().unwrap_or(0),
    ]
}

fn print_stage_table(hists: &[Histogram; STAGE_COUNT + 1]) {
    println!("stage latency (ns)      count        p50        p90        p99        max");
    for (i, h) in hists.iter().enumerate() {
        let [p50, p90, p99, max] = figures(h);
        println!(
            "  {:<18} {:>8} {:>10} {:>10} {:>10} {:>10}",
            row_name(i),
            h.count(),
            p50,
            p90,
            p99,
            max
        );
    }
}

/// Breakdown rows capped for huge meshes; the cap is always announced.
const TOP_ROWS: usize = 8;

fn print_node_breakdown(t: &Trace) {
    // Aggregate by sender; index by node id (bounded by the header).
    let n = usize::from(t.nodes).max(1);
    let mut spans_by = vec![0u64; n];
    let mut bytes_by = vec![0u64; n];
    let mut ns_by = vec![0u64; n];
    for s in &t.spans {
        let i = usize::from(s.src).min(n - 1);
        spans_by[i] += 1;
        bytes_by[i] += u64::from(s.bytes);
        ns_by[i] += s.total_ns();
    }
    let mut order: Vec<usize> = (0..n).filter(|&i| spans_by[i] > 0).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(bytes_by[i]), i));
    let shown = order.len().min(TOP_ROWS);
    println!(
        "\nper-node (sender) breakdown{}:",
        if order.len() > shown {
            format!(" (top {shown} of {} senders)", order.len())
        } else {
            String::new()
        }
    );
    println!("  node      spans        bytes   mean end-to-end ns");
    for &i in &order[..shown] {
        println!(
            "  {:<6} {:>8} {:>12} {:>20}",
            i,
            spans_by[i],
            bytes_by[i],
            ns_by[i] / spans_by[i].max(1),
        );
    }
}

fn print_link_breakdown(t: &Trace) {
    // Aggregate by (src, dst); a stream workload has nodes/2 live links.
    let mut links: Vec<(u32, u64, u64, Histogram)> = Vec::new();
    for s in &t.spans {
        let key = (u32::from(s.src) << 16) | u32::from(s.dst);
        let slot = match links.iter_mut().find(|(k, ..)| *k == key) {
            Some(slot) => slot,
            None => {
                links.push((key, 0, 0, Histogram::default()));
                links.last_mut().expect("just pushed")
            }
        };
        slot.1 += 1;
        slot.2 += u64::from(s.bytes);
        slot.3.record(s.stage_ns[Stage::Wire.index()]);
    }
    links.sort_by_key(|&(k, _, bytes, _)| (std::cmp::Reverse(bytes), k));
    let shown = links.len().min(TOP_ROWS);
    println!(
        "\nper-link breakdown{}:",
        if links.len() > shown {
            format!(" (top {shown} of {} links)", links.len())
        } else {
            String::new()
        }
    );
    println!("  link            spans        bytes     wire p99 ns");
    for (key, spans, bytes, wire) in &links[..shown] {
        let label = format!("{}\u{2192}{}", key >> 16, key & 0xffff);
        println!(
            "  {:<14} {:>8} {:>12} {:>15}",
            label,
            spans,
            bytes,
            wire.quantile(0.99).unwrap_or(0)
        );
    }
}

fn print_slowest(t: &Trace, top: usize) {
    let mut order: Vec<usize> = (0..t.spans.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(t.spans[i].total_ns()), t.spans[i].id));
    let shown = order.len().min(top);
    println!("\nslowest {shown} transfers:");
    println!("  xfer             link        bytes      total ns   dominant stage");
    for &i in &order[..shown] {
        let s = &t.spans[i];
        let stage = s.dominant();
        let share = 100.0 * s.stage_ns[stage.index()] as f64 / s.total_ns().max(1) as f64;
        println!(
            "  {:<16} {:<11} {:>8} {:>13}   {} ({share:.0}%)",
            format!("{}:{}", s.id >> 48, s.id & ((1 << 48) - 1)),
            format!("{}\u{2192}{}", s.src, s.dst),
            s.bytes,
            s.total_ns(),
            stage.name(),
        );
    }
}

/// Side-by-side percentile diff. Returns how many figures differ.
fn print_diff(a: &Trace, b: &Trace) -> usize {
    let (ha, hb) = (stage_histograms(a), stage_histograms(b));
    let mut differing = 0;
    println!("stage figure diff (ns): p50 p90 p99 max — (b - a)");
    for i in 0..=STAGE_COUNT {
        let (fa, fb) = (figures(&ha[i]), figures(&hb[i]));
        let mut deltas = String::new();
        for (x, y) in fa.iter().zip(fb.iter()) {
            let d = *y as i128 - *x as i128;
            if d != 0 {
                differing += 1;
            }
            deltas.push_str(&format!(" {d:+}"));
        }
        println!("  {:<18}{deltas}", row_name(i));
    }
    let total = 4 * (STAGE_COUNT + 1);
    println!("diff: {differing} of {total} stage figures differ");
    differing
}

fn load(path: &str) -> Trace {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: cannot read `{path}`: {e}");
            std::process::exit(2);
        }
    };
    match parse(&bytes) {
        Some(t) => t,
        None => {
            eprintln!("error: `{path}` is not a well-formed SHRTRC01 trace");
            std::process::exit(2);
        }
    }
}

const USAGE: &str = "usage: shrimp_trace <trace> [--diff <other>] [--top <n>]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<String> = None;
    let mut diff_path: Option<String> = None;
    let mut top = 5usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--diff" | "--top" => {
                let Some(v) = it.next() else {
                    eprintln!("error: {a} requires a value\n{USAGE}");
                    return ExitCode::from(2);
                };
                if a == "--diff" {
                    diff_path = Some(v.clone());
                } else {
                    match v.parse() {
                        Ok(n) => top = n,
                        Err(_) => {
                            eprintln!("error: --top needs an integer\n{USAGE}");
                            return ExitCode::from(2);
                        }
                    }
                }
            }
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_string()),
            other => {
                eprintln!("error: unexpected argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(path) = path else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };

    let trace = load(&path);
    println!(
        "trace: {path} — {} nodes, {} spans retained ({} recorded, {} ring-dropped)",
        trace.nodes,
        trace.spans.len(),
        trace.recorded,
        trace.ring_dropped
    );
    if let Some(other) = diff_path {
        let b = load(&other);
        println!("  vs: {other} — {} nodes, {} spans retained", b.nodes, b.spans.len());
        let differing = print_diff(&trace, &b);
        return if differing == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }
    print_stage_table(&stage_histograms(&trace));
    print_node_breakdown(&trace);
    print_link_breakdown(&trace);
    print_slowest(&trace, top);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use shrimp::TRACE_BIN_MAGIC;

    /// Hand-encodes a two-node SHRTRC01 trace with `stamps` as each
    /// span's six stage-boundary timestamps.
    fn encode(stamps: &[[u64; 6]]) -> Vec<u8> {
        let mut b = Vec::new();
        b.extend_from_slice(TRACE_BIN_MAGIC);
        b.extend_from_slice(&2u16.to_le_bytes());
        b.extend_from_slice(&0u16.to_le_bytes());
        b.extend_from_slice(&(stamps.len() as u32).to_le_bytes());
        b.extend_from_slice(&(stamps.len() as u64).to_le_bytes());
        b.extend_from_slice(&0u64.to_le_bytes());
        for _ in 0..STAGE_COUNT * 4 {
            b.extend_from_slice(&0u64.to_le_bytes());
        }
        for (seq, ts) in stamps.iter().enumerate() {
            b.extend_from_slice(&(seq as u64).to_le_bytes()); // id: node 0, seq
            b.extend_from_slice(&0u16.to_le_bytes()); // src
            b.extend_from_slice(&1u16.to_le_bytes()); // dst
            b.extend_from_slice(&4096u32.to_le_bytes());
            for t in ts {
                b.extend_from_slice(&t.to_le_bytes());
            }
        }
        b
    }

    const STAMPS: [[u64; 6]; 3] = [
        [0, 100, 300, 1300, 1500, 1600],
        [1000, 1100, 1400, 2400, 2600, 2700],
        [2000, 2050, 2500, 3900, 4100, 4200],
    ];

    #[test]
    fn binary_parse_recovers_stage_durations() {
        let t = parse(&encode(&STAMPS)).expect("valid trace");
        assert_eq!(t.nodes, 2);
        assert_eq!(t.recorded, 3);
        assert_eq!(t.ring_dropped, 0);
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[0].stage_ns, [100, 200, 1000, 200, 100]);
        assert_eq!(t.spans[2].stage_ns, [50, 450, 1400, 200, 100]);
        assert_eq!(t.spans[0].total_ns(), 1600);
        assert_eq!(t.spans[0].dominant(), Stage::Wire);
        assert_eq!(t.spans[0].src, 0);
        assert_eq!(t.spans[0].dst, 1);
    }

    #[test]
    fn truncated_or_bad_magic_is_rejected() {
        let good = encode(&STAMPS);
        assert!(parse(&good[..good.len() - 1]).is_none(), "truncated record");
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(parse(&bad).is_none(), "wrong magic");
    }

    #[test]
    fn stage_histograms_report_percentiles() {
        let t = parse(&encode(&STAMPS)).unwrap();
        let hists = stage_histograms(&t);
        let wire = &hists[Stage::Wire.index()];
        assert_eq!(wire.count(), 3);
        assert_eq!(wire.max(), Some(1400));
        assert!(wire.quantile(0.50).unwrap() >= 1000);
        let end_to_end = &hists[STAGE_COUNT];
        assert_eq!(end_to_end.count(), 3);
        assert_eq!(end_to_end.max(), Some(2200));
    }

    #[test]
    fn identical_traces_diff_to_zero() {
        let (a, b) = (parse(&encode(&STAMPS)).unwrap(), parse(&encode(&STAMPS)).unwrap());
        assert_eq!(print_diff(&a, &b), 0);
        // A genuinely different trace must not diff to zero.
        let mut other = STAMPS;
        other[0][3] += 5000;
        let c = parse(&encode(&other)).unwrap();
        assert_ne!(print_diff(&a, &c), 0);
    }
}
