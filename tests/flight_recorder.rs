//! The transfer-level flight recorder: a traced UDMA transfer must yield
//! one five-stage span whose stage boundaries never run backwards, the
//! exported trace's Perfetto conversion must parse and carry every stage,
//! and tracing must be pure observation (nothing recorded — and nothing
//! exported — when off).
//!
//! The converter emits hand-built JSON, so the checks here parse it with a
//! deliberately independent hand-rolled scanner (no JSON dependency).

use std::collections::BTreeMap;

use shrimp::{trace_bin_to_json, Multicomputer, MulticomputerConfig};
use shrimp_mem::VirtAddr;
use shrimp_os::Pid;
use shrimp_sim::{Stage, STAGE_COUNT};

const SEND_VA: u64 = 0x10000;
const RECV_VA: u64 = 0x40000;

/// A 2-node machine with a deliberate-update mapping from node 0 to
/// node 1, ready to send out of `SEND_VA` into `RECV_VA`.
fn two_nodes() -> (Multicomputer, Pid, Pid, u64) {
    let mut mc = Multicomputer::new(2, MulticomputerConfig::default());
    let s = mc.spawn_process(0);
    let r = mc.spawn_process(1);
    mc.map_user_buffer(0, s, SEND_VA, 4).unwrap();
    mc.map_user_buffer(1, r, RECV_VA, 4).unwrap();
    let dev_page = mc.export(1, r, VirtAddr::new(RECV_VA), 4, 0, s).unwrap();
    (mc, s, r, dev_page)
}

/// Extracts the string value of `"key":"..."` from one JSON object line.
fn str_field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = obj.find(&pat)? + pat.len();
    let end = obj[start..].find('"')? + start;
    Some(&obj[start..end])
}

/// Extracts the numeric value of `"key":<n>` from one JSON object line.
fn num_field(obj: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = obj.find(&pat)? + pat.len();
    let rest = &obj[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Splits the converter's `traceEvents` array into per-event object lines
/// (it writes one object per line; this asserts the envelope on the way:
/// a `traceEvents` array must exist and must close).
fn trace_events(json: &str) -> Vec<&str> {
    let start = json.find("\"traceEvents\": [").expect("traceEvents array");
    let end = json.find("\n  ],").expect("traceEvents closes");
    json[start..end].split("\n    ").filter(|l| l.starts_with('{')).collect()
}

#[test]
fn four_kb_transfer_records_one_monotonic_five_stage_span() {
    let (mut mc, s, r, dev_page) = two_nodes();
    mc.set_tracing(true);
    assert!(mc.tracing());
    let data: Vec<u8> = (0..4096u64).map(|i| i as u8).collect();
    mc.write_user(0, s, VirtAddr::new(SEND_VA), &data).unwrap();
    mc.send(0, s, VirtAddr::new(SEND_VA), dev_page, 0, 4096).unwrap();
    assert_eq!(mc.read_user(1, r, VirtAddr::new(RECV_VA), 4096).unwrap(), data);

    assert_eq!(mc.recorder().len(), 1, "one packet, one span");
    let span = mc.recorder().iter().next().unwrap();
    assert_eq!(span.src, 0);
    assert_eq!(span.dst, 1);
    assert_eq!(span.bytes, 4096);
    assert_eq!(span.id.node(), 0, "the sending NIC mints the id");
    assert!(span.is_monotonic(), "stage boundaries ran backwards: {span:?}");
    // Every stage is individually well-ordered and they chain end-to-start.
    let mut prev_end = None;
    for stage in Stage::ALL {
        let (start, end) = span.stage_bounds(stage);
        assert!(start <= end, "{stage} runs backwards");
        if let Some(p) = prev_end {
            assert_eq!(start, p, "{stage} does not start where the previous stage ended");
        }
        prev_end = Some(end);
    }
}

#[test]
fn export_trace_parses_with_all_stages_in_order() {
    let (mut mc, s, _r, dev_page) = two_nodes();
    mc.set_tracing(true);
    mc.write_user(0, s, VirtAddr::new(SEND_VA), &[0xA5u8; 4096]).unwrap();
    for _ in 0..3 {
        mc.send(0, s, VirtAddr::new(SEND_VA), dev_page, 0, 4096).unwrap();
    }
    let json = trace_bin_to_json(&mc.export_trace_bin()).expect("well-formed trace");

    // Group the "ph":"X" events by transfer id, in emission order.
    let mut by_xfer: BTreeMap<String, Vec<(String, f64, f64)>> = BTreeMap::new();
    let mut metadata = 0;
    for event in trace_events(&json) {
        if str_field(event, "ph") == Some("M") {
            metadata += 1;
            continue;
        }
        assert_eq!(str_field(event, "ph"), Some("X"), "unknown event phase: {event}");
        assert_eq!(str_field(event, "cat"), Some("udma"));
        let name = str_field(event, "name").expect("stage name").to_string();
        let ts = num_field(event, "ts").expect("ts");
        let dur = num_field(event, "dur").expect("dur");
        assert_eq!(num_field(event, "bytes"), Some(4096.0));
        let xfer = str_field(event, "xfer").expect("correlation id").to_string();
        by_xfer.entry(xfer).or_default().push((name, ts, dur));
    }
    assert_eq!(metadata, 2, "one process_name record per node");
    assert_eq!(by_xfer.len(), 3, "three transfers, three correlation ids");

    let expected: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
    for (xfer, stages) in &by_xfer {
        let names: Vec<&str> = stages.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, expected, "{xfer}: every span carries all {STAGE_COUNT} stages");
        for window in stages.windows(2) {
            let (ref a, a_ts, a_dur) = window[0];
            let (ref b, b_ts, _) = window[1];
            assert!(a_dur >= 0.0, "{xfer}/{a}: negative duration");
            assert!(b_ts >= a_ts, "{xfer}: {b} starts before {a}");
            // Stages tile the transfer: each starts where the last ended
            // (µs at ns resolution, so exact up to formatting).
            assert!((a_ts + a_dur - b_ts).abs() < 0.002, "{xfer}: gap between {a} and {b}");
        }
    }

    // The stats trailer agrees with the recorder.
    assert_eq!(num_field(&json, "spans"), Some(3.0));
    assert_eq!(num_field(&json, "dropped"), Some(0.0));
    for stage in Stage::ALL {
        let section = json.find(&format!("\"{}\":{{", stage.name())).expect("stage summary");
        assert_eq!(num_field(&json[section..], "count"), Some(3.0), "{stage} count");
    }
}

#[test]
fn tracing_off_records_and_exports_nothing() {
    let (mut mc, s, _r, dev_page) = two_nodes();
    mc.write_user(0, s, VirtAddr::new(SEND_VA), &[1u8; 4096]).unwrap();
    mc.send(0, s, VirtAddr::new(SEND_VA), dev_page, 0, 4096).unwrap();
    assert!(!mc.tracing());
    assert!(mc.recorder().is_empty());
    assert_eq!(mc.recorder().total_recorded(), 0);
    let json = trace_bin_to_json(&mc.export_trace_bin()).expect("well-formed trace");
    let spans = trace_events(&json).into_iter().filter(|e| str_field(e, "ph") == Some("X")).count();
    assert_eq!(spans, 0, "nothing traced, nothing exported");
    assert_eq!(num_field(&json, "spans"), Some(0.0));
}
