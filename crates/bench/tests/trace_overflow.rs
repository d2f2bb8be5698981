//! Traces that record more spans than the flight recorder holds
//! (`Multicomputer::TRACE_SPANS`). A run whose single epoch overflows it
//! must keep the same spans at every thread count: the newest by merge
//! key. 128 pairs × 1,024 messages of 4 KB replay in one epoch, so one
//! epoch records 131,072 spans into a 65,536-span recorder. The serial
//! driver, one epoch per `propagate`, must keep the spans of the last
//! packets it committed.

use shrimp_bench::host_perf::stream_pairs_traced;

/// FNV-1a, to name a trace in a failure message.
fn fnv(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

#[test]
fn a_single_epoch_past_the_span_ring_exports_the_same_trace_at_any_thread_count() {
    let traces: Vec<(usize, Vec<u8>)> = [1usize, 2, 4]
        .into_iter()
        .map(|t| (t, stream_pairs_traced(256, 4096, 1024, t).1))
        .collect();
    let spans = u32::from_le_bytes(traces[0].1[12..16].try_into().unwrap());
    assert_eq!(spans as usize, shrimp::Multicomputer::TRACE_SPANS, "the recorder must overflow");
    for (t, trace) in &traces[1..] {
        assert!(
            *trace == traces[0].1,
            "trace at t={t} ({:#x}) differs from t=1 ({:#x})",
            fnv(trace),
            fnv(&traces[0].1)
        );
    }
}

#[test]
fn the_serial_driver_past_the_span_ring_keeps_the_last_packets_committed() {
    // 2 pairs × 33,000 sends of 64 B, one packet and one `propagate` (one
    // recorder epoch) each: 66,000 spans into a 65,536-span recorder. The
    // serial driver commits pair 0's sends, then pair 1's, so the last
    // `TRACE_SPANS` packets committed are pair 1's 33,000 and pair 0's
    // newest 32,536.
    let (_, bin) = stream_pairs_traced(4, 64, 33_000, 0);
    let trace = shrimp::decode_trace_bin(&bin).expect("well-formed trace");
    let cap = shrimp::Multicomputer::TRACE_SPANS;
    assert_eq!((trace.spans.len(), trace.recorded, trace.dropped), (cap, 66_000, 464));
    let seqs = |src: u16| -> Vec<u64> {
        trace.spans.iter().filter(|s| s.src == src).map(|s| s.id.seq()).collect()
    };
    let (first, second) = (seqs(0), seqs(2));
    assert_eq!((first.len(), second.len()), (cap - 33_000, 33_000));
    // Both senders numbered their packets alike, so pair 0's newest
    // packet carries pair 1's newest sequence number.
    let last = *second.last().unwrap();
    assert_eq!(second, (last + 1 - 33_000..=last).collect::<Vec<_>>());
    assert_eq!(first, (last + 1 - first.len() as u64..=last).collect::<Vec<_>>());
}
