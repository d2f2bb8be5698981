//! Determinism of the parallel engine: `Multicomputer::run` must produce
//! **bit-identical** simulated timelines and receiver memory at every
//! thread count — including `threads = 1` versus the pre-existing serial
//! driver — and the cross-shard merge order must equal the canonical
//! serial event order. These are the contracts `DESIGN.md` §6b states;
//! the CI determinism job runs exactly this suite.

use proptest::prelude::*;

use shrimp::{Multicomputer, MulticomputerConfig, NodePlan, PacketClass, SendOp};
use shrimp_mem::VirtAddr;
use shrimp_os::Pid;
use shrimp_sim::{merge_tag, MergeQueue, SimTime};

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

#[test]
fn merge_queue_ties_break_by_source_then_sequence() {
    let mut q = MergeQueue::new();
    let t = SimTime::from_nanos(100);
    q.push(t, merge_tag(3, 0), "late source");
    q.push(t, merge_tag(1, 1), "early source, later seq");
    q.push(t, merge_tag(1, 0), "early source, first seq");
    let order: Vec<_> = std::iter::from_fn(|| q.pop_within(None).map(|(_, i)| i)).collect();
    assert_eq!(order, ["early source, first seq", "early source, later seq", "late source"]);
}

proptest! {
    /// For any batch of timestamped packets with per-source sequence
    /// numbers, popping a [`MergeQueue`] — however thread interleaving
    /// ordered the insertions — yields exactly the canonical serial event
    /// order: the batch sorted by `(time, tag)`. This is the reduction the
    /// engine's determinism rests on: the parallel commit order *is* the
    /// serial event order.
    #[test]
    fn merge_order_equals_serial_event_order(
        batch in proptest::collection::vec((0u64..300, 0u16..6), 1..80),
        shuffle_seed in any::<u64>(),
    ) {
        // Tag each item in generation order (per-source sequence numbers).
        let mut next_seq = [0u64; 6];
        let keyed: Vec<(SimTime, u64, usize)> = batch
            .iter()
            .enumerate()
            .map(|(i, &(at, src))| {
                let tag = merge_tag(src, next_seq[src as usize]);
                next_seq[src as usize] += 1;
                (SimTime::from_nanos(at), tag, i)
            })
            .collect();

        // Canonical serial order: the batch sorted by (time, tag).
        let mut canonical = keyed.clone();
        canonical.sort_by_key(|&(at, tag, _)| (at, tag));
        let serial: Vec<(SimTime, usize)> =
            canonical.iter().map(|&(at, _, item)| (at, item)).collect();

        // Adversarial insertion order for the MergeQueue.
        let mut shuffled = keyed.clone();
        let mut rng = shuffle_seed | 1;
        for i in (1..shuffled.len()).rev() {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            shuffled.swap(i, (rng >> 33) as usize % (i + 1));
        }
        let mut mq = MergeQueue::new();
        for &(at, tag, item) in &shuffled {
            mq.push(at, tag, item);
        }
        let merged: Vec<(SimTime, usize)> =
            std::iter::from_fn(|| mq.pop_within(None)).collect();

        prop_assert_eq!(merged, serial);
    }

    /// The calendar wheel against a binary heap, under *interleaved*
    /// pushes and horizon-bounded pops — the access pattern the epoch
    /// loop actually drives. Times span several rungs, so the stream
    /// exercises the consumed-region (`cur`) insert path, slab buckets,
    /// the sorted spill lane, the overflow lane and rung re-seeding; at
    /// every step the wheel must pop exactly what the heap pops.
    #[test]
    fn wheel_pops_match_a_binary_heap_under_interleaved_horizons(
        script in proptest::collection::vec(
            (0u8..4, 0u64..200_000, 0u64..200_000),
            1..200,
        ),
    ) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let mut wheel: MergeQueue<usize> = MergeQueue::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
        let mut next_tag = 0u64;

        // Reference semantics of `pop_within`: pop the minimum
        // `(time, tag)` entry iff its time is at or before the horizon.
        let heap_pop = |heap: &mut BinaryHeap<Reverse<(u64, u64, usize)>>,
                            horizon: Option<u64>| {
            match (heap.peek(), horizon) {
                (Some(&Reverse((at, _, _))), Some(h)) if at > h => None,
                _ => heap.pop().map(|Reverse((at, _, item))| (at, item)),
            }
        };

        for (i, &(kind, at, h)) in script.iter().enumerate() {
            if kind < 3 {
                // Push-heavy mix (3:1) so pops see a populated wheel.
                wheel.push(SimTime::from_nanos(at), next_tag, i);
                heap.push(Reverse((at, next_tag, i)));
                next_tag += 1;
            } else {
                let horizon = (h % 2 == 0).then_some(h);
                let got = wheel.pop_within(horizon.map(SimTime::from_nanos));
                let want = heap_pop(&mut heap, horizon);
                prop_assert_eq!(
                    got.map(|(t, item)| (t.as_nanos(), item)),
                    want,
                    "pop under horizon {:?} diverged at step {}",
                    horizon,
                    i
                );
            }
        }

        // Drain both to empty: the full residual orders must agree too.
        loop {
            let got = wheel.pop_within(None);
            let want = heap_pop(&mut heap, None);
            prop_assert_eq!(got.map(|(t, item)| (t.as_nanos(), item)), want, "drain diverged");
            if want.is_none() {
                break;
            }
        }
        prop_assert!(wheel.is_empty());
    }
}
