//! The metrics plane's three contracts (DESIGN.md §10):
//!
//! 1. **Determinism** — `Multicomputer::metrics_snapshot()` renders
//!    byte-identical text and JSON at every thread count, because every
//!    pinned metric is a pure function of the simulated timeline (which
//!    is itself bit-identical across shardings).
//! 2. **Invisibility** — instrumenting the hot paths changes no digest:
//!    all four committed golden `state_digest`s still come out of the
//!    bench workloads, including when a run is metered (snapshot
//!    harvested) and sampled (per-epoch gauge ring enabled).
//! 3. **Conservation** — fabric-level and delivery-level drops are
//!    distinct counters whose sum accounts for every undelivered packet.
//!
//! Registered as a `shrimp-bench` test target so it can drive both the
//! raw `Multicomputer` API and the bench workloads.

use shrimp::{Multicomputer, MulticomputerConfig, NodePlan, PacketClass, SendOp};
use shrimp_bench::host_perf;
use shrimp_mem::VirtAddr;

const SEND_BASE: u64 = 0x10_0000;
const RECV_BASE: u64 = 0x40_0000;

/// An `n`-node machine with disjoint sender→receiver pairs (`2p → 2p+1`)
/// and a plan of `msgs` sends of `bytes` bytes per pair — the same
/// workload shape `tests/determinism.rs` pins digests with.
fn paired_stream(n: u16, msgs: usize, bytes: u64) -> (Multicomputer, Vec<NodePlan>) {
    let mut mc = Multicomputer::new(n, MulticomputerConfig::default());
    let mut plans = Vec::new();
    for p in 0..(n as usize / 2) {
        let (s, r) = (2 * p, 2 * p + 1);
        let spid = mc.spawn_process(s);
        let rpid = mc.spawn_process(r);
        mc.map_user_buffer(s, spid, SEND_BASE, 2).unwrap();
        mc.map_user_buffer(r, rpid, RECV_BASE, 2).unwrap();
        let dev = mc.export(r, rpid, VirtAddr::new(RECV_BASE), 2, s, spid).unwrap();
        let fill: Vec<u8> = (0..bytes).map(|i| (i as u8) ^ (s as u8)).collect();
        mc.write_user(s, spid, VirtAddr::new(SEND_BASE), &fill).unwrap();
        plans.push(NodePlan {
            node: s,
            ops: vec![
                SendOp {
                    pid: spid,
                    src_va: VirtAddr::new(SEND_BASE),
                    dev_page: dev,
                    dev_off: 0,
                    nbytes: bytes,
                    class: PacketClass::User,
                };
                msgs
            ],
        });
    }
    (mc, plans)
}

#[test]
fn snapshot_bytes_identical_across_thread_counts_on_256_nodes() {
    let mut texts = Vec::new();
    let mut jsons = Vec::new();
    for threads in [1usize, 2, 4] {
        let (mut mc, plans) = paired_stream(256, 20, 1024);
        mc.run(&plans, threads).unwrap();
        let snap = mc.metrics_snapshot();
        texts.push(snap.render_text());
        jsons.push(snap.render_json());
    }
    assert_eq!(texts[0], texts[1], "snapshot text: 1 vs 2 threads");
    assert_eq!(texts[1], texts[2], "snapshot text: 2 vs 4 threads");
    assert_eq!(jsons[0], jsons[1], "snapshot JSON: 1 vs 2 threads");
    assert_eq!(jsons[1], jsons[2], "snapshot JSON: 2 vs 4 threads");

    // The snapshot is not merely stable but *live*: key figures match
    // the workload (128 pairs × (20 planned + 0 warm) messages).
    let (mut mc, plans) = paired_stream(256, 20, 1024);
    mc.run(&plans, 2).unwrap();
    let snap = mc.metrics_snapshot();
    assert_eq!(snap.get("delivery", "delivered", None), Some(128 * 20));
    assert_eq!(snap.get("fabric", "packets", None), Some(128 * 20));
    assert_eq!(snap.get("nipt", "occupancy", Some(0)), Some(2), "two exported pages on node 0");
    assert!(snap.get("tlb", "hits", Some(0)).unwrap() > 0, "sender TLB saw the stream");
    assert!(snap.get("link", "wire_bytes", Some(1)).unwrap() >= 20 * 1024, "link 0→1 moved data");
    assert_eq!(snap.get("link", "wire_bytes", Some(0)), Some(0), "node 0 receives nothing");
}

#[test]
fn snapshot_delta_isolates_an_interval() {
    let (mut mc, plans) = paired_stream(8, 10, 512);
    mc.run(&plans, 2).unwrap();
    let base = mc.metrics_snapshot();
    let (mut mc2, plans2) = paired_stream(8, 10, 512);
    mc2.run(&plans2, 2).unwrap();
    // Same machine, second burst: the delta holds exactly that burst.
    assert_eq!(base.get("delivery", "delivered", None), Some(40));
    let delta = mc2.snapshot_delta(&base);
    assert_eq!(delta.get("delivery", "delivered", None), Some(0), "identical runs delta to zero");
    assert_eq!(delta.get("fabric", "packets", None), Some(0));
}

/// The four committed golden digests (BENCH_throughput.json /
/// CHANGES.md) must come out of metered runs too: harvesting a snapshot
/// is pure observation.
#[test]
fn golden_digests_unchanged_with_metrics_harvested() {
    let cases: [(u16, u64, u32, usize, u64); 4] = [
        (2, 4096, 10_000, 0, 0x21b8_ad2f_c3af_7f1f),
        (2, 256, 20_000, 0, 0x33c1_8800_a521_b6e7),
        (8, 4096, 2_500, 0, 0x3b45_aa5d_6bf1_0cfd),
        (16, 4096, 1_250, 4, 0x0600_489c_f640_8495),
    ];
    for (nodes, bytes, msgs, threads, golden) in cases {
        let (r, metrics) = host_perf::stream_pairs_metered(nodes, bytes, msgs, threads);
        assert_eq!(
            r.digest, golden,
            "{}: metered digest {:016x} != committed golden {golden:016x}",
            r.name, r.digest
        );
        assert!(metrics.starts_with("# shrimp-metrics v1"), "{}", r.name);
    }
}

#[test]
fn drop_counters_conserve_undelivered_packets() {
    // Lossless run: every injected packet is delivered, both drop
    // counters stay zero, and the conservation identity
    //   injected - delivered == fabric_drops + delivery_drops
    // holds with zero undelivered. (The lossy legs live next to the
    // counters: `shrimp-net` pins a corrupted-destination admit
    // incrementing `fabric/drops`, and `DeliveryCore` counts its own
    // rejects in `delivery/drops` — the two are distinct metrics.)
    let (mut mc, plans) = paired_stream(16, 25, 2048);
    mc.run(&plans, 2).unwrap();
    let snap = mc.metrics_snapshot();
    let injected = snap.get("fabric", "packets", None).unwrap();
    let delivered = snap.get("delivery", "delivered", None).unwrap();
    let fabric_drops = snap.get("fabric", "drops", None).unwrap();
    let delivery_drops = snap.get("delivery", "drops", None).unwrap();
    assert_eq!(injected, 8 * 25);
    assert_eq!(
        injected - delivered,
        fabric_drops + delivery_drops,
        "undelivered packets must be accounted to exactly one drop counter"
    );
    assert_eq!(fabric_drops, 0, "well-formed run never drops in the fabric");
    assert_eq!(delivery_drops, 0, "well-formed run never drops at delivery");
}

#[test]
fn engine_metrics_expose_wheel_and_phase_figures() {
    let (mut mc, plans) = paired_stream(8, 30, 1024);
    mc.set_phase_clock(Some(host_perf::host_nanos));
    mc.run(&plans, 2).unwrap();
    let em = mc.engine_metrics();
    assert!(em.get("engine", "epochs", None).unwrap() > 0);
    assert!(em.get("wheel", "depth_high", None).unwrap() > 0, "staging saw entries");
    let execute = em.get_hist("phase", "execute_ns", None).unwrap();
    assert!(execute.count() > 0, "phase clock recorded execute samples");
    assert!(execute.sum() > 0, "execute phase accumulated host time");
    // Buffer pools saw traffic on every sender.
    assert!(em.get_high_water("buf_pool", "in_use", Some(0)).unwrap() > 0);
}
