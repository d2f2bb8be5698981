//! A traced run whose single epoch commits more spans than the flight
//! recorder holds (`Multicomputer::TRACE_SPANS`) must keep the same spans
//! at every thread count: the newest by merge key. 128 pairs × 1,024
//! messages of 4 KB replay in one epoch, so one epoch records 131,072
//! spans into a 65,536-span recorder.

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
