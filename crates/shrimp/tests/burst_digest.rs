//! Run batching must be invisible to every observer.
//!
//! The batched hot path (burst packetization, run-commit delivery,
//! delta-time advancement) is a pure host-side optimization: the state
//! digest and the exported trace bytes must be bit-identical whether
//! steady-state message trains replay as runs or execute
//! message-at-a-time — at every thread count, for burst sizes on both
//! sides of the parallel engine's epoch chunk, and for randomized
//! interleavings of burst and single-message sends. The literal
//! reference is a plain [`Multicomputer::send`] loop, which never
//! batches.

use shrimp::{Multicomputer, MulticomputerConfig, NodePlan, PacketClass, SendOp};
use shrimp_mem::VirtAddr;
use shrimp_os::Pid;
use shrimp_sim::SplitMix64;

/// Burst sizes around every interesting boundary: 1 and 2 never batch
/// (calibration alone consumes them), 7 replays inside one epoch chunk,
/// 23 straddles the parallel engine's CHUNK = 16 window, 64 spans
/// several chunks. 3 and 4, sent once the machine is warm, replay trains
/// of one and two members: a train of one stages as a single packet, a
/// longer one as a run.
const SIZES: [u64; 7] = [1, 2, 7, 64, 23, 3, 4];
const NBYTES: u64 = 1024;

struct Flow {
    node: usize,
    pid: Pid,
    dev_page: u64,
}

/// An `n`-node machine with disjoint sender→receiver pairs (`2p → 2p+1`),
/// tracing on (so trace bytes are part of every comparison).
fn build(n: u16) -> (Multicomputer, Vec<Flow>) {
    let mut mc = Multicomputer::new(n, MulticomputerConfig::default());
    let mut flows = Vec::new();
    for p in 0..(usize::from(n) / 2) {
        let (s, r) = (2 * p, 2 * p + 1);
        let spid = mc.spawn_process(s);
        let rpid = mc.spawn_process(r);
        mc.map_user_buffer(s, spid, 0x10_0000, 1).unwrap();
        mc.map_user_buffer(r, rpid, 0x40_0000, 1).unwrap();
        let dev_page = mc.export(r, rpid, VirtAddr::new(0x40_0000), 1, s, spid).unwrap();
        let fill: Vec<u8> = (0..NBYTES).map(|i| (i as u8) ^ (s as u8)).collect();
        mc.write_user(s, spid, VirtAddr::new(0x10_0000), &fill).unwrap();
        flows.push(Flow { node: s, pid: spid, dev_page });
    }
    mc.set_tracing(true);
    (mc, flows)
}

/// Destination offset for train `i`: alternating keeps adjacent trains
/// distinct ops, so each schedule entry is its own maximal run.
fn off(i: usize) -> u64 {
    (i as u64 % 2) * NBYTES
}

/// The literal reference: every flow sends each schedule entry as that
/// many plain [`Multicomputer::send`]s.
fn literal_fingerprint(schedule: &[u64]) -> (u64, Vec<u8>) {
    let (mut mc, flows) = build(4);
    for f in &flows {
        for (i, &size) in schedule.iter().enumerate() {
            for _ in 0..size {
                mc.send(f.node, f.pid, VirtAddr::new(0x10_0000), f.dev_page, off(i), NBYTES)
                    .unwrap();
            }
        }
    }
    mc.run_until_quiet();
    (mc.state_digest(), mc.export_trace_bin())
}

/// Parallel engine: the same schedule as per-node plans — each entry
/// becomes a train of identical consecutive ops the engine may batch.
fn parallel_fingerprint(threads: usize, schedule: &[u64]) -> (u64, Vec<u8>) {
    let (mut mc, flows) = build(4);
    let plans: Vec<NodePlan> = flows
        .iter()
        .map(|f| {
            let mut ops = Vec::new();
            for (i, &size) in schedule.iter().enumerate() {
                let op = SendOp {
                    pid: f.pid,
                    src_va: VirtAddr::new(0x10_0000),
                    dev_page: f.dev_page,
                    dev_off: off(i),
                    nbytes: NBYTES,
                    class: PacketClass::User,
                };
                ops.extend(std::iter::repeat_n(op, size as usize));
            }
            NodePlan { node: f.node, ops }
        })
        .collect();
    mc.run(&plans, threads).unwrap();
    (mc.state_digest(), mc.export_trace_bin())
}

#[test]
fn burst_sweep_is_invisible_at_every_thread_count() {
    let reference = literal_fingerprint(&SIZES);
    for threads in [1usize, 2, 4] {
        let batched = parallel_fingerprint(threads, &SIZES);
        assert_eq!(batched.0, reference.0, "digest diverged at {threads} threads");
        assert_eq!(batched.1, reference.1, "trace bytes diverged at {threads} threads");
    }
}

#[test]
fn random_interleavings_of_burst_and_single_sends_are_invisible() {
    // Deterministic in-tree RNG (never `thread_rng`): every failure
    // reproduces from the printed seed.
    for seed in 0..3u64 {
        let mut rng = SplitMix64::new(0x0B_5EED ^ seed);
        let trains = 4 + rng.next_below(5) as usize;
        let schedule: Vec<u64> = (0..trains).map(|_| 1 + rng.next_below(40)).collect();
        let reference = literal_fingerprint(&schedule);
        for threads in [1usize, 2, 4] {
            let batched = parallel_fingerprint(threads, &schedule);
            assert_eq!(
                batched.0, reference.0,
                "digest diverged: seed {seed}, {threads} threads, schedule {schedule:?}"
            );
            assert_eq!(
                batched.1, reference.1,
                "trace diverged: seed {seed}, {threads} threads, schedule {schedule:?}"
            );
        }
    }
}
