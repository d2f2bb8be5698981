//! The one transfer-trace format, `SHRTRC01`, and its converter to
//! Chrome/Perfetto trace-event JSON.
//!
//! The engine emits only this binary form
//! ([`Multicomputer::export_trace_bin`](crate::Multicomputer::export_trace_bin)).
//! JSON is produced offline from it — by [`trace_bin_to_json`] (what
//! `host_throughput --trace` writes) — and the `shrimp_trace` analyzer
//! reads it through [`decode_trace_bin`], so every consumer shares one
//! decoder.
//!
//! Layout (all integers little-endian):
//!
//! | offset | bytes | field |
//! |--------|-------|-------|
//! | 0      | 8     | magic `"SHRTRC01"` |
//! | 8      | 2     | node count |
//! | 10     | 2     | reserved (0) |
//! | 12     | 4     | span count `N` |
//! | 16     | 8     | total spans recorded (≥ `N`; ring may drop) |
//! | 24     | 8     | spans dropped |
//! | 32     | 5×32  | per stage: `u64` count, min ns, max ns, `f64` mean bits |
//! | 192    | N×64  | spans: `u64` id, `u16` src, `u16` dst, `u32` bytes, 6×`u64` stage-boundary ns |
//!
//! Spans are stored in merge-key order `(link_ready, id)` — the engine's
//! packet commit order — so the bytes are a pure function of the
//! simulated timeline, identical at any thread count and from either
//! entry point.

use shrimp_sim::{FlightRecorder, SimTime, SpanRecord, Stage, XferId, STAGE_COUNT};

/// Magic prefix of the binary trace format.
pub const TRACE_BIN_MAGIC: &[u8; 8] = b"SHRTRC01";

/// Bytes before the first span record.
const HEADER_BYTES: usize = 192;

/// Bytes per span record.
const SPAN_BYTES: usize = 64;

/// Per-stage summary figures: count, mean ns, min ns, max ns.
type StageSummary = (u64, f64, u64, u64);

/// A decoded `SHRTRC01` trace.
#[derive(Clone, Debug)]
pub struct BinTrace {
    /// Node count of the traced machine.
    pub nodes: u16,
    /// Spans the recorder observed (≥ `spans.len()` when its ring filled).
    pub recorded: u64,
    /// Spans the recorder's ring had no room for.
    pub dropped: u64,
    /// The retained spans, in merge-key order.
    pub spans: Vec<SpanRecord>,
    /// Per-stage summary block, from the recorder's histograms (which saw
    /// every span, retained or not).
    stages: [StageSummary; STAGE_COUNT],
}

/// Encodes `recorder`'s spans (sorted into merge-key order) and stage
/// summary for a machine of `nodes` nodes.
pub(crate) fn encode(nodes: u16, recorder: &FlightRecorder) -> Vec<u8> {
    let mut spans: Vec<SpanRecord> = recorder.iter().collect();
    spans.sort_unstable_by_key(SpanRecord::merge_key);
    let mut out = Vec::with_capacity(HEADER_BYTES + spans.len() * SPAN_BYTES);
    out.extend_from_slice(TRACE_BIN_MAGIC);
    out.extend_from_slice(&nodes.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&(spans.len() as u32).to_le_bytes());
    out.extend_from_slice(&recorder.total_recorded().to_le_bytes());
    out.extend_from_slice(&recorder.dropped().to_le_bytes());
    for stage in Stage::ALL {
        let h = recorder.stage_histogram(stage);
        out.extend_from_slice(&h.count().to_le_bytes());
        out.extend_from_slice(&h.min().unwrap_or(0).to_le_bytes());
        out.extend_from_slice(&h.max().unwrap_or(0).to_le_bytes());
        out.extend_from_slice(&h.mean().unwrap_or(0.0).to_bits().to_le_bytes());
    }
    for s in &spans {
        out.extend_from_slice(&s.id.raw().to_le_bytes());
        out.extend_from_slice(&s.src.to_le_bytes());
        out.extend_from_slice(&s.dst.to_le_bytes());
        out.extend_from_slice(&s.bytes.to_le_bytes());
        for t in
            [s.initiated_at, s.queued_at, s.link_ready, s.wire_done, s.delivered_at, s.status_at]
        {
            out.extend_from_slice(&t.as_nanos().to_le_bytes());
        }
    }
    out
}

/// Decodes a `SHRTRC01` buffer. Returns `None` for a buffer that is
/// truncated, carries the wrong magic, or disagrees with its own span
/// count.
pub fn decode_trace_bin(bytes: &[u8]) -> Option<BinTrace> {
    struct Reader<'a> {
        b: &'a [u8],
    }
    impl Reader<'_> {
        fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
            let (head, rest) = self.b.split_at_checked(N)?;
            self.b = rest;
            head.try_into().ok()
        }
        fn u16(&mut self) -> Option<u16> {
            self.take().map(u16::from_le_bytes)
        }
        fn u32(&mut self) -> Option<u32> {
            self.take().map(u32::from_le_bytes)
        }
        fn u64(&mut self) -> Option<u64> {
            self.take().map(u64::from_le_bytes)
        }
        fn time(&mut self) -> Option<SimTime> {
            self.u64().map(SimTime::from_nanos)
        }
    }

    let mut r = Reader { b: bytes };
    if &r.take::<8>()? != TRACE_BIN_MAGIC {
        return None;
    }
    let nodes = r.u16()?;
    let _reserved = r.u16()?;
    let count = r.u32()? as usize;
    let recorded = r.u64()?;
    let dropped = r.u64()?;
    let mut stages = [(0u64, 0.0f64, 0u64, 0u64); STAGE_COUNT];
    for s in &mut stages {
        let (count, min, max) = (r.u64()?, r.u64()?, r.u64()?);
        *s = (count, f64::from_bits(r.u64()?), min, max);
    }
    // The remaining length must be exactly `count` records; checking up
    // front also bounds the allocation below by the input size.
    if r.b.len() != count.checked_mul(SPAN_BYTES)? {
        return None;
    }
    let mut spans = Vec::with_capacity(count);
    for _ in 0..count {
        let raw = r.u64()?;
        spans.push(SpanRecord {
            id: XferId::new((raw >> 48) as u16, raw & ((1 << 48) - 1)),
            src: r.u16()?,
            dst: r.u16()?,
            bytes: r.u32()?,
            initiated_at: r.time()?,
            queued_at: r.time()?,
            link_ready: r.time()?,
            wire_done: r.time()?,
            delivered_at: r.time()?,
            status_at: r.time()?,
        });
    }
    Some(BinTrace { nodes, recorded, dropped, spans, stages })
}

/// Converts a `SHRTRC01` buffer to Chrome/Perfetto trace-event JSON: the
/// object form with per-node `process_name` metadata, one `"ph":"X"`
/// complete event per span stage (timestamps and durations in
/// microseconds), and a `"stats"` summary with per-stage latency figures
/// (nanoseconds). Load the output at <https://ui.perfetto.dev> or
/// `chrome://tracing`. Returns `None` for a malformed buffer (see
/// [`decode_trace_bin`]).
pub fn trace_bin_to_json(bytes: &[u8]) -> Option<String> {
    decode_trace_bin(bytes).map(|t| render_json(&t))
}

/// Renders a decoded trace as Perfetto JSON: a pure function of the
/// decoded fields, one event object per line.
fn render_json(t: &BinTrace) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(512 + t.spans.len() * 5 * 160);
    out.push_str("{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [");
    let mut first = true;
    for i in 0..t.nodes {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{i},\"tid\":0,\
             \"args\":{{\"name\":\"node{i}\"}}}}"
        );
    }
    for span in &t.spans {
        for stage in Stage::ALL {
            let (start, end) = span.stage_bounds(stage);
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"name\":\"{}\",\"cat\":\"udma\",\"ph\":\"X\",\"ts\":{:.3},\
                 \"dur\":{:.3},\"pid\":{},\"tid\":{},\
                 \"args\":{{\"xfer\":\"{}\",\"bytes\":{}}}}}",
                stage.name(),
                start.as_micros_f64(),
                end.saturating_duration_since(start).as_micros_f64(),
                span.src,
                span.dst,
                span.id,
                span.bytes,
            );
        }
    }
    out.push_str("\n  ],\n");
    let _ = write!(
        out,
        "  \"stats\": {{\"spans\":{},\"dropped\":{},\"stages\":{{",
        t.recorded, t.dropped,
    );
    for (i, stage) in Stage::ALL.into_iter().enumerate() {
        let (count, mean, min, max) = t.stages[i];
        let _ = write!(
            out,
            "{}\n    \"{}\":{{\"count\":{count},\"mean_ns\":{mean:.1},\"min_ns\":{min},\
             \"max_ns\":{max}}}",
            if i == 0 { "" } else { "," },
            stage.name(),
        );
    }
    out.push_str("\n  }}\n}\n");
    out
}
