//! Golden equivalence: the zero-copy data plane changed how the simulator
//! *executes* (pooled payload buffers, direct memory copies, flat counters)
//! but must not change what it *simulates*. These tests pin the simulated
//! timelines and receiver memory of two deterministic workloads to values
//! captured from the pre-optimization tree (commit 301acb1), and check
//! that pooled-buffer recycling never aliases two in-flight packets.

use proptest::prelude::*;

use shrimp::{Channel, Multicomputer};
use shrimp_machine::MachineConfig;
use shrimp_mem::{VirtAddr, PAGE_SIZE};
use shrimp_sim::SimTime;

// ---------------------------------------------------------------------
// Golden timelines (captured from the seed tree; see module docs).
// ---------------------------------------------------------------------

/// The 4-node ring exchange from `examples/message_passing.rs`: receive
/// instant of every hop, in nanoseconds, as simulated by the seed.
const RING_HOP_TIMES_NS: [u64; 11] = [
    232_027, 429_510, 626_493, 812_876, 852_493, 892_748, 932_503, 972_758, 1_012_530, 1_052_923,
    1_092_816,
];

/// Per-node clocks after the last send, as simulated by the seed.
const RING_FINAL_NODE_TIMES_NS: [u64; 4] = [1_133_209, 1_046_661, 1_087_054, 1_126_947];

/// Final clocks of the fig8-style 2-node 4 KB deliberate-update stream
/// (50 messages), as simulated by the seed: (sender, receiver).
const STREAM_FINAL_TIMES_NS: (u64, u64) = (7_552_383, 7_713_851);

/// Final clocks of the *pure* 50-message 4 KB stream (one fill, fifty
/// sends, one drain — the shape a [`shrimp::NodePlan`] expresses), as
/// simulated by the serial driver when the parallel engine landed:
/// (sender, receiver). Both the serial driver and `Multicomputer::run` at any
/// thread count must land exactly here.
const PLAN_STREAM_FINAL_TIMES_NS: (u64, u64) = (7_133_433, 7_286_351);

/// `Multicomputer::state_digest` of the machine at those final clocks.
const PLAN_STREAM_DIGEST: u64 = 0x133a_63a5_a448_4120;

#[test]
fn ring_exchange_matches_seed_timeline_and_token() {
    const NODES: usize = 4;
    let mut mc = Multicomputer::new(NODES as u16, Default::default());
    let pids: Vec<_> = (0..NODES).map(|i| mc.spawn_process(i)).collect();
    let mut channels: Vec<Channel> = Vec::new();
    for i in 0..NODES {
        let j = (i + 1) % NODES;
        let ch = Channel::establish(
            &mut mc,
            i,
            pids[i],
            j,
            pids[j],
            VirtAddr::new(0x40_0000),
            VirtAddr::new(0x10_0000 + i as u64 * 0x1_0000),
            2,
        )
        .unwrap();
        channels.push(ch);
    }

    let mut token = vec![0u8; 8];
    channels[0].send(&mut mc, &token).unwrap();
    let mut at = 1usize;
    let mut hop_times = Vec::new();
    for _ in 0..(3 * NODES - 1) {
        let from = (at + NODES - 1) % NODES;
        let msg = channels[from].try_recv(&mut mc).unwrap().expect("token must have arrived");
        hop_times.push(mc.node(at).os().machine().now());
        token = msg.data;
        token.push(at as u8);
        channels[at].send(&mut mc, &token).unwrap();
        at = (at + 1) % NODES;
    }
    let last = channels[(at + NODES - 1) % NODES].try_recv(&mut mc).unwrap().expect("final token");

    // Byte-identical receiver memory: the token recorded every hop.
    let mut expected = vec![0u8; 8];
    expected.extend((0..3 * NODES - 1).map(|h| ((h + 1) % NODES) as u8));
    assert_eq!(last.data, expected);

    // Identical simulated timeline, hop by hop.
    let golden: Vec<SimTime> =
        RING_HOP_TIMES_NS.iter().map(|&ns| SimTime::from_nanos(ns)).collect();
    assert_eq!(hop_times, golden, "simulated hop times must match the seed");
    for (i, &ns) in RING_FINAL_NODE_TIMES_NS.iter().enumerate() {
        assert_eq!(
            mc.node(i).os().machine().now(),
            SimTime::from_nanos(ns),
            "node {i} final clock must match the seed"
        );
    }
}

#[test]
fn deliberate_update_stream_matches_seed_memory_and_clocks() {
    let mut mc = Multicomputer::with_machine_config(2, MachineConfig::default());
    let sender = mc.spawn_process(0);
    let receiver = mc.spawn_process(1);
    let msg_bytes: u64 = 4096;
    let pages = msg_bytes.div_ceil(PAGE_SIZE).max(1) + 1;
    mc.map_user_buffer(0, sender, 0x10_0000, pages).unwrap();
    mc.map_user_buffer(1, receiver, 0x40_0000, pages).unwrap();
    let dev_page = mc.export(1, receiver, VirtAddr::new(0x40_0000), pages, 0, sender).unwrap();

    for k in 0..50u64 {
        let payload: Vec<u8> = (0..msg_bytes).map(|i| ((i * 31 + k * 7) % 251) as u8).collect();
        mc.write_user(0, sender, VirtAddr::new(0x10_0000), &payload).unwrap();
        mc.send(0, sender, VirtAddr::new(0x10_0000), dev_page, 0, msg_bytes).unwrap();
        mc.run_until_quiet();
        // Byte-identical receiver memory after every message.
        let got = mc.read_user(1, receiver, VirtAddr::new(0x40_0000), msg_bytes).unwrap();
        assert_eq!(got, payload, "message {k}: receiver memory differs from sent payload");
    }

    assert_eq!(mc.node(0).os().machine().now(), SimTime::from_nanos(STREAM_FINAL_TIMES_NS.0));
    assert_eq!(mc.node(1).os().machine().now(), SimTime::from_nanos(STREAM_FINAL_TIMES_NS.1));
    assert_eq!(mc.fabric().counters().packets.get(), 50);
    assert_eq!(mc.fabric().counters().payload_bytes.get(), 50 * msg_bytes);
}

/// Builds the pure 50-message stream machine and its plan.
fn plan_stream() -> (Multicomputer, Vec<shrimp::NodePlan>) {
    let mut mc = Multicomputer::with_machine_config(2, MachineConfig::default());
    let sender = mc.spawn_process(0);
    let receiver = mc.spawn_process(1);
    let msg_bytes: u64 = 4096;
    let pages = msg_bytes.div_ceil(PAGE_SIZE).max(1) + 1;
    mc.map_user_buffer(0, sender, 0x10_0000, pages).unwrap();
    mc.map_user_buffer(1, receiver, 0x40_0000, pages).unwrap();
    let dev_page = mc.export(1, receiver, VirtAddr::new(0x40_0000), pages, 0, sender).unwrap();
    let payload: Vec<u8> = (0..msg_bytes).map(|i| ((i * 31) % 251) as u8).collect();
    mc.write_user(0, sender, VirtAddr::new(0x10_0000), &payload).unwrap();
    let plans = vec![shrimp::NodePlan {
        node: 0,
        ops: vec![
            shrimp::SendOp {
                pid: sender,
                src_va: VirtAddr::new(0x10_0000),
                dev_page,
                dev_off: 0,
                nbytes: msg_bytes,
                class: shrimp::PacketClass::User,
            };
            50
        ],
    }];
    (mc, plans)
}

#[test]
fn serial_plan_stream_matches_pinned_timeline() {
    let (mut mc, plans) = plan_stream();
    for op in &plans[0].ops {
        mc.send(0, op.pid, op.src_va, op.dev_page, op.dev_off, op.nbytes).unwrap();
    }
    mc.run_until_quiet();
    assert_eq!(mc.node(0).os().machine().now(), SimTime::from_nanos(PLAN_STREAM_FINAL_TIMES_NS.0));
    assert_eq!(mc.node(1).os().machine().now(), SimTime::from_nanos(PLAN_STREAM_FINAL_TIMES_NS.1));
    assert_eq!(mc.state_digest(), PLAN_STREAM_DIGEST);
}

#[test]
fn parallel_plan_stream_matches_pinned_timeline() {
    for threads in [1usize, 2] {
        let (mut mc, plans) = plan_stream();
        mc.run(&plans, threads).unwrap();
        assert_eq!(
            mc.node(0).os().machine().now(),
            SimTime::from_nanos(PLAN_STREAM_FINAL_TIMES_NS.0),
            "threads={threads}"
        );
        assert_eq!(
            mc.node(1).os().machine().now(),
            SimTime::from_nanos(PLAN_STREAM_FINAL_TIMES_NS.1),
            "threads={threads}"
        );
        assert_eq!(mc.state_digest(), PLAN_STREAM_DIGEST, "threads={threads}");
    }
}

// ---------------------------------------------------------------------
// Pooled buffers never alias in-flight packets.
// ---------------------------------------------------------------------

proptest! {
    /// Two independent sender→receiver pairs stream concurrently with
    /// per-message fill patterns. Packets from both pairs are in flight
    /// together and payload buffers recycle through each NIC's pool; if a
    /// recycled buffer were ever handed out while still referenced by an
    /// in-flight packet, one stream's bytes would surface in the other's
    /// receiver memory.
    #[test]
    fn pooled_buffers_never_alias_in_flight_packets(
        msgs in 2u64..12,
        size_sel in 0usize..4,
        seed in 0u64..1024,
    ) {
        let sizes = [64u64, 256, 1024, 4096];
        let msg_bytes = sizes[size_sel];
        let mut mc = Multicomputer::with_machine_config(4, MachineConfig::default());
        let pairs = [(0usize, 1usize), (2, 3)];
        let mut ends = Vec::new();
        for &(s, r) in &pairs {
            let sp = mc.spawn_process(s);
            let rp = mc.spawn_process(r);
            let pages = msg_bytes.div_ceil(PAGE_SIZE).max(1) + 1;
            mc.map_user_buffer(s, sp, 0x10_0000, pages).unwrap();
            mc.map_user_buffer(r, rp, 0x40_0000, pages).unwrap();
            let dev = mc.export(r, rp, VirtAddr::new(0x40_0000), pages, s, sp).unwrap();
            ends.push((s, sp, r, rp, dev));
        }

        // Interleave the two streams without draining, so packets from
        // both coexist in the NIC queues and the fabric.
        let pattern = |pair: usize, k: u64, i: u64| -> u8 {
            ((i * 31 + k * 7 + seed + pair as u64 * 101) % 251) as u8
        };
        for k in 0..msgs {
            for (pair, &(s, sp, _r, _rp, dev)) in ends.iter().enumerate() {
                let payload: Vec<u8> =
                    (0..msg_bytes).map(|i| pattern(pair, k, i)).collect();
                mc.write_user(s, sp, VirtAddr::new(0x10_0000), &payload).unwrap();
                mc.send(s, sp, VirtAddr::new(0x10_0000), dev, 0, msg_bytes).unwrap();
            }
        }
        mc.run_until_quiet();

        // Buffers were actually recycled (the property is vacuous
        // otherwise): after the drain each sender NIC's pool holds the
        // returned buffers.
        for &(s, ..) in &ends {
            prop_assert!(
                mc.node(s).os().machine().device().buf_pool().free_buffers() > 0,
                "sender {s}: pool never recycled a buffer"
            );
        }

        // Each receiver holds exactly its own stream's final message.
        for (pair, &(_s, _sp, r, rp, _dev)) in ends.iter().enumerate() {
            let got = mc.read_user(r, rp, VirtAddr::new(0x40_0000), msg_bytes).unwrap();
            let want: Vec<u8> =
                (0..msg_bytes).map(|i| pattern(pair, msgs - 1, i)).collect();
            prop_assert_eq!(&got, &want, "receiver {} saw foreign or stale bytes", r);
        }
    }
}
