//! Determinism of the parallel engine: `Multicomputer::run` must produce
//! **bit-identical** simulated timelines and receiver memory at every
//! thread count — including `threads = 1` versus the pre-existing serial
//! driver — and the cross-shard merge order must equal the canonical
//! serial event order. These are the contracts `DESIGN.md` §6b states;
//! the CI determinism job runs exactly this suite.

use proptest::prelude::*;

use shrimp::{Multicomputer, MulticomputerConfig, NodePlan, PacketClass, SendOp};
use shrimp_mem::{PhysAddr, VirtAddr};
use shrimp_net::{
    Commit, FabricShard, Interconnect, LinkParams, NodeId, Packet, PacketRun, Staged,
};
use shrimp_os::Pid;
use shrimp_sim::{SimTime, SplitMix64, XferId};

const SEND_BASE: u64 = 0x10_0000;
const RECV_BASE: u64 = 0x40_0000;

/// An `n`-node machine with disjoint sender→receiver pairs (`2p → 2p+1`)
/// and a plan of `msgs` sends of `bytes` bytes per pair. Every pair's
/// fill pattern depends on the sender index so receiver memories differ.
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
fn digests_are_identical_across_thread_counts() {
    // 2-, 8- and 16-node streams, the sizes the throughput bench sweeps.
    for (nodes, msgs, bytes) in [(2u16, 40, 1024u64), (8, 25, 1024), (16, 15, 512)] {
        let mut digests = Vec::new();
        for threads in [1usize, 2, 4] {
            let (mut mc, plans) = paired_stream(nodes, msgs, bytes);
            let report = mc.run(&plans, threads).unwrap();
            assert_eq!(report.messages, (nodes as u64 / 2) * msgs as u64);
            digests.push(mc.state_digest());
        }
        assert_eq!(digests[0], digests[1], "{nodes}-node: 1 vs 2 threads");
        assert_eq!(digests[1], digests[2], "{nodes}-node: 2 vs 4 threads");
    }
}

#[test]
fn parallel_engine_matches_the_serial_driver() {
    // The pre-parallel path: one `send` at a time, `propagate` after each.
    let (mut serial, plans) = paired_stream(8, 20, 768);
    for plan in &plans {
        for op in &plan.ops {
            serial.send(plan.node, op.pid, op.src_va, op.dev_page, op.dev_off, op.nbytes).unwrap();
        }
    }
    serial.run_until_quiet();

    // Snapshot the digest before touching the machine again: `read_user`
    // itself mutates kernel state (context switch, PTE status bits).
    let serial_digest = serial.state_digest();
    let serial_mem: Vec<Vec<u8>> = (1..8)
        .step_by(2)
        .map(|r| serial.read_user(r, Pid::new(1), VirtAddr::new(RECV_BASE), 768).unwrap())
        .collect();

    for threads in [1usize, 3] {
        let (mut par, plans) = paired_stream(8, 20, 768);
        par.run(&plans, threads).unwrap();
        assert_eq!(
            par.state_digest(),
            serial_digest,
            "threads={threads} diverged from the serial driver"
        );
        for (i, r) in (1..8).step_by(2).enumerate() {
            let b = par.read_user(r, Pid::new(1), VirtAddr::new(RECV_BASE), 768).unwrap();
            assert_eq!(serial_mem[i], b, "receiver {r} memory diverged at threads={threads}");
        }
    }
}

#[test]
fn unified_engine_reproduces_the_serial_driver_bytes() {
    // The single-engine contract: the old serial API (`send` +
    // `run_until_quiet`) and the unified `run` entry point are the same
    // delivery core, so `state_digest` AND the exported trace bytes must
    // be identical — serial versus every thread count.
    let (mut serial, plans) = paired_stream(8, 20, 1024);
    serial.set_tracing(true);
    for plan in &plans {
        for op in &plan.ops {
            serial.send(plan.node, op.pid, op.src_va, op.dev_page, op.dev_off, op.nbytes).unwrap();
        }
    }
    serial.run_until_quiet();
    let serial_digest = serial.state_digest();
    let serial_trace = serial.export_trace_bin();
    assert_eq!(spans_in(&serial_trace), 4 * 20, "serial trace must contain every span");

    for threads in [1usize, 2, 4] {
        let (mut mc, plans) = paired_stream(8, 20, 1024);
        mc.set_tracing(true);
        mc.run(&plans, threads).unwrap();
        assert_eq!(
            mc.state_digest(),
            serial_digest,
            "threads={threads}: unified engine digest diverged from the serial driver"
        );
        assert_eq!(
            mc.export_trace_bin(),
            serial_trace,
            "threads={threads}: unified engine trace bytes diverged from the serial driver"
        );
    }
}

#[test]
fn tracing_is_invisible_to_state_digests() {
    // Satellite: the flight recorder is pure observation. Enabling it must
    // not move a single clock or byte — digests match the untraced run at
    // every thread count.
    for threads in [1usize, 2, 4] {
        let (mut plain, plans) = paired_stream(8, 15, 1024);
        plain.run(&plans, threads).unwrap();
        let (mut traced, plans) = paired_stream(8, 15, 1024);
        traced.set_tracing(true);
        traced.run(&plans, threads).unwrap();
        assert!(!traced.recorder().is_empty(), "tracing on but nothing recorded");
        assert_eq!(
            plain.state_digest(),
            traced.state_digest(),
            "threads={threads}: tracing changed the simulated timeline"
        );
    }
}

/// Spans retained in an exported `SHRTRC01` trace.
fn spans_in(trace: &[u8]) -> usize {
    shrimp::decode_trace_bin(trace).expect("well-formed trace").spans.len()
}

#[test]
fn traces_and_stats_are_bit_identical_across_thread_counts() {
    // The exported trace and the metrics snapshot (every component
    // counter, harvested per node) are pure functions of the simulated
    // timeline: any thread count must produce byte-identical output (the
    // recorder merges shard rings in commit order, exactly the serial
    // event order).
    let mut traces = Vec::new();
    let mut snapshots = Vec::new();
    for threads in [1usize, 2, 4] {
        let (mut mc, plans) = paired_stream(8, 20, 1024);
        mc.set_tracing(true);
        mc.run(&plans, threads).unwrap();
        traces.push(mc.export_trace_bin());
        snapshots.push(mc.metrics_snapshot().render_text());
    }
    assert_eq!(spans_in(&traces[0]), 4 * 20, "trace must contain every span");
    assert_eq!(traces[0], traces[1], "trace: 1 vs 2 threads");
    assert_eq!(traces[1], traces[2], "trace: 2 vs 4 threads");
    assert_eq!(snapshots[0], snapshots[1], "snapshot: 1 vs 2 threads");
    assert_eq!(snapshots[1], snapshots[2], "snapshot: 2 vs 4 threads");
}

#[test]
fn a_run_that_overflows_the_span_ring_is_thread_count_independent() {
    // 4 pairs × 20,000 sends of 64 B record 80,000 spans into a ring of
    // `TRACE_SPANS` (65,536): which spans the ring keeps, their order and
    // the dropped count must not depend on how the run was sharded.
    let mut prints = Vec::new();
    for threads in [1usize, 2, 4] {
        let (mut mc, plans) = paired_stream(8, 20_000, 64);
        mc.set_tracing(true);
        mc.run(&plans, threads).unwrap();
        let recorder = mc.recorder();
        assert_eq!(recorder.len(), Multicomputer::TRACE_SPANS);
        assert_eq!(recorder.dropped(), 80_000 - Multicomputer::TRACE_SPANS as u64);
        let order: Vec<_> = recorder.iter().map(|s| (s.link_ready, s.id)).collect();
        prints.push((mc.export_trace_bin(), order, recorder.dropped()));
    }
    assert!(prints[1] == prints[0], "overflowed ring: 1 vs 2 threads");
    assert!(prints[2] == prints[0], "overflowed ring: 1 vs 4 threads");
}

#[test]
fn serial_calls_between_runs_are_thread_count_independent() {
    // Serial sends and runs share the machine's fabric, delivery core and
    // recorder: literal sends, a run, more sends in reverse node order, a
    // second run and a final quiesce must leave the same digest, trace
    // bytes and snapshot whatever the runs' thread count.
    let mut prints = Vec::new();
    for threads in [1usize, 2, 3, 4] {
        let (mut mc, plans) = paired_stream(8, 12, 512);
        mc.set_tracing(true);
        let send = |mc: &mut Multicomputer, plan: &NodePlan, k: usize| {
            for op in &plan.ops[..k] {
                mc.send(plan.node, op.pid, op.src_va, op.dev_page, op.dev_off, op.nbytes).unwrap();
            }
        };
        for plan in &plans {
            send(&mut mc, plan, 3);
        }
        mc.run(&plans, threads).unwrap();
        for plan in plans.iter().rev() {
            send(&mut mc, plan, 5);
        }
        mc.run(&plans[1..], threads).unwrap();
        mc.run_until_quiet();
        prints.push((
            mc.state_digest(),
            mc.export_trace_bin(),
            mc.metrics_snapshot().render_text(),
        ));
    }
    for (i, p) in prints.iter().enumerate().skip(1) {
        assert!(*p == prints[0], "serial calls between runs: 1 vs {} threads", i + 1);
    }
}

#[test]
fn merged_parallel_stats_equal_serial_stats() {
    // The metrics snapshot after a parallel run must merge the per-shard
    // counters (fabric, delivery core) and carry the per-node component
    // counters into exactly what the serial driver counts.
    let (mut serial, plans) = paired_stream(8, 20, 768);
    for plan in &plans {
        for op in &plan.ops {
            serial.send(plan.node, op.pid, op.src_va, op.dev_page, op.dev_off, op.nbytes).unwrap();
        }
    }
    serial.run_until_quiet();
    let serial_snapshot = serial.metrics_snapshot();
    assert_eq!(serial_snapshot.get("nic", "packets_built", Some(0)), Some(20));
    assert_eq!(serial_snapshot.get("machine", "proxy_stores", Some(0)), Some(20));
    assert_eq!(serial_snapshot.get("fabric", "packets", None), Some(4 * 20));

    // `runs_committed`/`run_splits` count how sends were batched — the
    // one part of the snapshot the serial per-message loop and the run
    // engine legitimately differ on.
    let timeline = |text: String| -> Vec<String> {
        text.lines().filter(|l| !l.contains("delivery/run")).map(str::to_string).collect()
    };
    let (mut par, plans) = paired_stream(8, 20, 768);
    par.run(&plans, 2).unwrap();
    assert_eq!(
        timeline(par.metrics_snapshot().render_text()),
        timeline(serial_snapshot.render_text()),
        "parallel merge lost or double-counted a counter"
    );
}

#[test]
fn digests_distinguish_different_workloads() {
    // A digest that never changes proves nothing: different payload sizes
    // must produce different machine states.
    let (mut a, plans) = paired_stream(2, 5, 256);
    a.run(&plans, 2).unwrap();
    let (mut b, plans) = paired_stream(2, 5, 512);
    b.run(&plans, 2).unwrap();
    assert_ne!(a.state_digest(), b.state_digest());
}

#[test]
fn big_mesh_digest_and_trace_are_invariant_across_windows_and_threads() {
    // Big-machine satellite: on a 256-node mesh, every combination of
    // epoch window count (K = 1, 2, 8 lookahead windows per barrier
    // crossing) and worker count must reproduce the serial driver's
    // digest AND trace bytes exactly. Window count only changes how much
    // work runs between barriers — never the commit order — so nine
    // schedules collapse onto one timeline.
    let (mut serial, plans) = paired_stream(256, 10, 512);
    serial.set_tracing(true);
    for plan in &plans {
        for op in &plan.ops {
            serial.send(plan.node, op.pid, op.src_va, op.dev_page, op.dev_off, op.nbytes).unwrap();
        }
    }
    serial.run_until_quiet();
    let serial_digest = serial.state_digest();
    let serial_trace = serial.export_trace_bin();
    assert_eq!(spans_in(&serial_trace), 128 * 10, "serial trace must contain every span");

    for windows in [1usize, 2, 8] {
        for threads in [1usize, 2, 4] {
            let (mut mc, plans) = paired_stream(256, 10, 512);
            mc.set_epoch_windows(Some(windows));
            mc.set_tracing(true);
            mc.run(&plans, threads).unwrap();
            assert_eq!(
                mc.state_digest(),
                serial_digest,
                "K={windows} t={threads}: digest diverged from the serial driver"
            );
            assert_eq!(
                mc.export_trace_bin(),
                serial_trace,
                "K={windows} t={threads}: trace bytes diverged from the serial driver"
            );
        }
    }
}

/// A packet from `src` to `dst` with transfer ID `src:seq`.
fn packet(src: u16, dst: u16, seq: u64) -> Packet {
    let mut p = Packet::new(NodeId::new(src), NodeId::new(dst), PhysAddr::new(0), vec![0u8; 8]);
    p.meta.id = XferId::new(src, seq);
    p
}

#[test]
fn staged_ties_break_by_source_then_sequence() {
    let mut net = Interconnect::new(4, LinkParams::default());
    let shard = net.shard_mut();
    let t = SimTime::from_nanos(100);
    for (src, seq) in [(3, 0), (1, 1), (1, 0)] {
        let mut p = packet(src, 2, seq);
        p.meta.link_ready = t;
        shard.stage(Staged::One(p));
    }
    let order: Vec<XferId> = std::iter::from_fn(|| match shard.commit_next(None)? {
        Commit::One { packet, .. } => Some(packet.meta.id),
        Commit::Run { .. } => None,
    })
    .collect();
    assert_eq!(order, [XferId::new(1, 0), XferId::new(1, 1), XferId::new(3, 0)]);
}

/// Nodes of the staging-contract machine: every one is a destination,
/// the first [`SOURCES`] also send.
const NODES: u16 = 6;
const SOURCES: u16 = 4;

/// One send of a staging script: a single packet (`count == 0`) or a run
/// of `count` members `stride_ns` apart.
#[derive(Clone, Copy, Debug)]
struct ScriptSend {
    src: u16,
    dst: u16,
    seq: u64,
    count: u32,
    stride_ns: u32,
    at_ns: u64,
    system: bool,
}

/// A staging script step: a batch of sends, or up to `calls` commits
/// under one horizon (each run commit restages its tail).
#[derive(Debug)]
enum Step {
    Batch(Vec<ScriptSend>),
    Commit { horizon: Option<u64>, calls: u32 },
}

/// One observed commit: `(is run, link_ready ns, first id, take)`.
type Seen = (bool, u64, XferId, u32);

/// A seeded script over [`NODES`] destinations and [`SOURCES`] sources:
/// singles and runs of 1–40 members keyed over several hundred µs (half
/// of them on a 1 µs grid, so equal-time ties are common; one in eight is
/// system-class), interleaved with commits under random horizons.
fn staging_script(seed: u64) -> Vec<Step> {
    let mut rng = SplitMix64::new(seed);
    let mut next_seq = [0u64; SOURCES as usize];
    let steps = 1 + rng.next_below(40);
    (0..steps)
        .map(|_| {
            if rng.next_below(2) == 0 {
                let sends = 1 + rng.next_below(8);
                let batch = (0..sends)
                    .map(|_| {
                        let src = rng.next_below(u64::from(SOURCES)) as u16;
                        let count = if rng.next_below(2) == 0 { 0 } else { 1 + rng.next_below(40) };
                        let seq = next_seq[usize::from(src)];
                        next_seq[usize::from(src)] += count.max(1);
                        let at_ns = if rng.next_below(2) == 0 {
                            rng.next_below(600) * 1_000
                        } else {
                            rng.next_below(600_000)
                        };
                        ScriptSend {
                            src,
                            dst: rng.next_below(u64::from(NODES)) as u16,
                            seq,
                            count: count as u32,
                            stride_ns: 200 + rng.next_below(15_000) as u32,
                            at_ns,
                            system: rng.next_below(8) == 0,
                        }
                    })
                    .collect();
                Step::Batch(batch)
            } else {
                let horizon = (rng.next_below(4) != 0).then(|| rng.next_below(900_000));
                Step::Commit { horizon, calls: 1 + rng.next_below(6) as u32 }
            }
        })
        .collect()
}

/// Runs `script` through a [`FabricShard`], staging each batch in the
/// order `shuffle` permutes it to (none: script order), then drains.
fn fabric_commits(script: &[Step], shuffle: Option<u64>) -> Vec<Seen> {
    let mut net = Interconnect::new(NODES, LinkParams::default());
    let shard = net.shard_mut();
    let mut rng = SplitMix64::new(shuffle.unwrap_or(0));
    let mut seen = Vec::new();
    let mut commit = |shard: &mut FabricShard, horizon: Option<u64>| {
        seen.push(match shard.commit_next(horizon.map(SimTime::from_nanos))? {
            Commit::One { packet, .. } => {
                (false, packet.meta.link_ready.as_nanos(), packet.meta.id, 1)
            }
            Commit::Run { run, take } => {
                let (link_ready, id) = (run.template.meta.link_ready, run.template.meta.id);
                shard.restage_run_tail(run, take);
                (true, link_ready.as_nanos(), id, take)
            }
        });
        Some(())
    };
    for step in script {
        match step {
            Step::Batch(sends) => {
                let mut order: Vec<&ScriptSend> = sends.iter().collect();
                if shuffle.is_some() {
                    for i in (1..order.len()).rev() {
                        order.swap(i, rng.next_below(i as u64 + 1) as usize);
                    }
                }
                for s in order {
                    let mut p = packet(s.src, s.dst, s.seq);
                    if s.system {
                        p.class = PacketClass::System;
                    }
                    let now = SimTime::from_nanos(s.at_ns);
                    if s.count == 0 {
                        shard.send(p, now);
                    } else {
                        let run = PacketRun { template: p, count: s.count, stride_ns: s.stride_ns };
                        shard.send_run(run, now);
                    }
                }
            }
            &Step::Commit { horizon, calls } => {
                for _ in 0..calls {
                    if commit(shard, horizon).is_none() {
                        break;
                    }
                }
            }
        }
    }
    while commit(shard, None).is_some() {}
    seen
}

/// The reference model of staging: a flat list scanned linearly. A commit
/// pops the minimum `(link_ready, tag)` key if it is at or before the
/// horizon; a run then takes members while each is due and sorts ahead
/// of the minimum other key for the same destination, and its tail goes
/// back in the list.
fn model_commits(script: &[Step]) -> Vec<Seen> {
    struct Entry {
        key: (u64, u64),
        dst: u16,
        id: XferId,
        count: u32,
        stride: u64,
    }
    let net = Interconnect::new(NODES, LinkParams::default());
    let hop = LinkParams::default().hop_latency.as_nanos();
    let mut staged: Vec<Entry> = Vec::new();
    let mut seen = Vec::new();
    let mut commit = |staged: &mut Vec<Entry>, horizon: Option<u64>| {
        let i = (0..staged.len()).min_by_key(|&i| staged[i].key)?;
        if horizon.is_some_and(|h| staged[i].key.0 > h) {
            return None;
        }
        let e = staged.swap_remove(i);
        if e.count == 0 {
            seen.push((false, e.key.0, e.id, 1));
            return Some(());
        }
        let next = staged.iter().filter(|o| o.dst == e.dst).map(|o| o.key).min();
        let member = |k: u32| (e.key.0 + e.stride * u64::from(k), e.key.1 + u64::from(k));
        let mut take = 1;
        while take < e.count
            && horizon.is_none_or(|h| member(take).0 <= h)
            && next.is_none_or(|n| member(take) < n)
        {
            take += 1;
        }
        if take < e.count {
            let id = XferId::new(e.id.node(), e.id.seq() + u64::from(take));
            staged.push(Entry { key: member(take), id, count: e.count - take, ..e });
        }
        seen.push((true, e.key.0, e.id, take));
        Some(())
    };
    for step in script {
        match step {
            Step::Batch(sends) => {
                for s in sends {
                    let (src, dst) = (NodeId::new(s.src), NodeId::new(s.dst));
                    let mut p = packet(s.src, s.dst, s.seq);
                    if s.system {
                        p.class = PacketClass::System;
                    }
                    staged.push(Entry {
                        key: (s.at_ns + hop * net.hops(src, dst), p.merge_tag()),
                        dst: s.dst,
                        id: p.meta.id,
                        count: s.count,
                        stride: u64::from(s.stride_ns),
                    });
                }
            }
            &Step::Commit { horizon, calls } => {
                for _ in 0..calls {
                    if commit(&mut staged, horizon).is_none() {
                        break;
                    }
                }
            }
        }
    }
    while commit(&mut staged, None).is_some() {}
    seen
}

proptest! {
    /// The staging contract, against a naive model: for seeded scripts
    /// interleaving `send`, `send_run`, `commit_next` under random
    /// horizons and `restage_run_tail` of partial takes, the fabric's
    /// commit sequence — kind, `link_ready`, id and take — is exactly the
    /// model's, and shuffling the staging order within each batch does
    /// not change it. The commit order is a function of the staged set
    /// alone, which is what the engine's determinism rests on: the
    /// parallel commit order *is* the serial event order.
    #[test]
    fn merge_order_equals_serial_event_order(seed in any::<u64>(), shuffle in any::<u64>()) {
        let script = staging_script(seed);
        let want = model_commits(&script);
        prop_assert_eq!(fabric_commits(&script, None), want.clone());
        prop_assert_eq!(fabric_commits(&script, Some(shuffle)), want);
    }

    /// The staging queue (whose peak the engine reports as
    /// `wheel/depth_high`) against a binary heap: single packets staged
    /// to scattered destinations, interleaved with commits under random
    /// horizons, commit exactly in the heap's `(link_ready, tag)` order,
    /// and a commit is refused iff the minimum key is past the horizon.
    #[test]
    fn wheel_pops_match_a_binary_heap_under_interleaved_horizons(
        script in proptest::collection::vec(
            (0u8..4, 0u64..200_000, 0u64..200_000, 0u16..SOURCES, 0u16..NODES),
            1..200,
        ),
    ) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let mut net = Interconnect::new(NODES, LinkParams::default());
        let shard = net.shard_mut();
        let mut heap: BinaryHeap<Reverse<(u64, u64, XferId)>> = BinaryHeap::new();

        // Reference semantics of `commit_next`: commit the minimum
        // `(link_ready, tag)` entry iff it is at or before the horizon.
        let heap_pop = |heap: &mut BinaryHeap<Reverse<(u64, u64, XferId)>>,
                            horizon: Option<u64>| {
            match (heap.peek(), horizon) {
                (Some(&Reverse((at, _, _))), Some(h)) if at > h => None,
                _ => heap.pop().map(|Reverse((at, _, id))| (at, id)),
            }
        };
        let shard_pop = |shard: &mut FabricShard, horizon: Option<u64>| {
            match shard.commit_next(horizon.map(SimTime::from_nanos))? {
                Commit::One { packet, .. } => {
                    Some((packet.meta.link_ready.as_nanos(), packet.meta.id))
                }
                Commit::Run { .. } => unreachable!("only single packets are staged"),
            }
        };

        for (i, &(kind, at, h, src, dst)) in script.iter().enumerate() {
            if kind < 3 {
                // Stage-heavy mix (3:1) so commits see a populated queue.
                let mut p = packet(src, dst, i as u64);
                heap.push(Reverse((at, p.merge_tag(), p.meta.id)));
                p.meta.link_ready = SimTime::from_nanos(at);
                shard.stage(Staged::One(p));
            } else {
                let horizon = (h % 2 == 0).then_some(h);
                prop_assert_eq!(
                    shard_pop(shard, horizon),
                    heap_pop(&mut heap, horizon),
                    "commit under horizon {:?} diverged at step {}",
                    horizon,
                    i
                );
            }
        }

        // Drain both to empty: the full residual orders must agree too.
        loop {
            let want = heap_pop(&mut heap, None);
            prop_assert_eq!(shard_pop(shard, None), want, "drain diverged");
            if want.is_none() {
                break;
            }
        }
        prop_assert_eq!(shard.staged_len(), 0);
    }
}
