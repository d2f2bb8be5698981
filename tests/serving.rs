//! Serving-workload determinism and program/plan equivalence.
//!
//! The reactive program layer injects sends *mid-run* (replies keyed on
//! deliveries), so its determinism story needs its own pins alongside the
//! stream goldens: the multi-tenant serving workload's `state_digest`
//! and exported trace bytes must be bit-identical at t=1/2/4, and a
//! static program must be indistinguishable from the hand-unrolled
//! `NodePlan` it replaces — the legacy path is a special case, not a
//! parallel implementation.

use proptest::prelude::*;

use shrimp::{
    Multicomputer, NiptDirectory, NodePlan, PacketClass, ProgramPlan, RpcClientProgram, RpcRoute,
    RpcServerProgram, SendOp, StreamProgram,
};
use shrimp_bench::serving::{serving_traced, SERVING_MSG_BYTES};
use shrimp_machine::MachineConfig;
use shrimp_mem::VirtAddr;

/// Pinned `state_digest` of the 64-node, 8-tenant, 2-request serving
/// workload (any thread count). Captured when the serving workload
/// landed; a change means the simulated serving timeline changed.
const SERVING_64N_8X2_DIGEST: u64 = 0xe747_6a20_8d54_7525;

#[test]
fn serving_digest_and_trace_are_thread_invariant() {
    let runs: Vec<_> = [1usize, 2, 4]
        .into_iter()
        .map(|threads| {
            let (out, trace) = serving_traced(64, 8, 2, threads);
            (threads, out, trace)
        })
        .collect();
    let (_, base, base_trace) = &runs[0];
    assert_eq!(
        base.result.digest, SERVING_64N_8X2_DIGEST,
        "serving digest departed from the pinned timeline"
    );
    assert!(base.nipt_evictions > 0, "tenant mix must pressure the NIPT");
    assert!(base.nipt_refaults > 0, "recycled slots must refault");
    for (threads, out, trace) in &runs[1..] {
        assert_eq!(out.result.digest, base.result.digest, "digest at t={threads}");
        assert_eq!(trace, base_trace, "trace bytes at t={threads}");
        assert_eq!(
            out.result.request_ns, base.result.request_ns,
            "request percentiles are simulated figures (t={threads})"
        );
        assert_eq!(out.nipt_evictions, base.nipt_evictions, "evictions at t={threads}");
        assert_eq!(out.nipt_refaults, base.nipt_refaults, "refaults at t={threads}");
    }
}

/// Two exported one-page windows per pair, both directions — the rig the
/// interleaving proptest sprays static sends over. Returns the machine
/// and, per sending node, `(pid, dev_page)` of its outbound window.
fn crossed_pairs() -> (Multicomputer, Vec<(shrimp_os::Pid, u64)>) {
    let mut mc = Multicomputer::with_machine_config(4, MachineConfig::default());
    let mut out = Vec::new();
    for pair in 0..2usize {
        let (a, b) = (2 * pair, 2 * pair + 1);
        let pa = mc.spawn_process(a);
        let pb = mc.spawn_process(b);
        for (node, pid) in [(a, pa), (b, pb)] {
            mc.map_user_buffer(node, pid, 0x10_0000, 2).unwrap();
            mc.map_user_buffer(node, pid, 0x40_0000, 2).unwrap();
            let fill: Vec<u8> =
                (0..2048u64).map(|i| ((i * 13 + node as u64) % 251) as u8).collect();
            mc.write_user(node, pid, VirtAddr::new(0x10_0000), &fill).unwrap();
        }
        let dev_ab = mc.export(b, pb, VirtAddr::new(0x40_0000), 2, a, pa).unwrap();
        let dev_ba = mc.export(a, pa, VirtAddr::new(0x40_0000), 2, b, pb).unwrap();
        out.push((pa, dev_ab));
        out.push((pb, dev_ba));
    }
    (mc, out)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Any interleaving of request-like and reply-like static sends —
    /// four senders crossing two pairs, mixed §7 priority classes,
    /// varying sizes — must produce the same machine whether expressed
    /// as hand-unrolled [`NodePlan`]s or as the trivial
    /// [`StreamProgram`]s that replaced them, at one shard and at two.
    #[test]
    fn static_programs_match_hand_unrolled_plans(
        ops_per_node in proptest::collection::vec((1usize..12, 0u64..4, 0u64..2), 4),
        threads in 1usize..3,
    ) {
        let sizes = [64u64, 256, 1024, 2048];
        let build_plans = |ends: &[(shrimp_os::Pid, u64)]| -> Vec<NodePlan> {
            ends.iter()
                .enumerate()
                .map(|(node, &(pid, dev_page))| NodePlan {
                    node,
                    ops: (0..ops_per_node[node].0)
                        .map(|k| SendOp {
                            pid,
                            src_va: VirtAddr::new(0x10_0000),
                            dev_page,
                            dev_off: 0,
                            nbytes: sizes[(ops_per_node[node].1 as usize + k) % sizes.len()],
                            class: if (k as u64 + ops_per_node[node].2).is_multiple_of(2) {
                                PacketClass::User
                            } else {
                                PacketClass::System
                            },
                        })
                        .collect(),
                })
                .collect()
        };

        let (mut as_plans, ends) = crossed_pairs();
        let plans = build_plans(&ends);
        as_plans.run(&plans, threads).unwrap();

        let (mut as_programs, ends) = crossed_pairs();
        let mut programs: Vec<ProgramPlan> = build_plans(&ends)
            .into_iter()
            .map(|plan| ProgramPlan {
                node: plan.node,
                program: Box::new(StreamProgram::new(plan.ops)),
            })
            .collect();
        as_programs.run_programs(&mut programs, threads).unwrap();

        prop_assert_eq!(
            as_plans.state_digest(),
            as_programs.state_digest(),
            "hand-unrolled plans and stream programs must be one timeline (t={})",
            threads
        );
    }
}

#[test]
fn rpc_reply_carries_the_server_payload() {
    let mut mc = Multicomputer::with_machine_config(2, MachineConfig::default());
    let client = mc.spawn_process(0);
    let server = mc.spawn_process(1);
    for (node, pid) in [(0usize, client), (1usize, server)] {
        mc.map_user_buffer(node, pid, 0x10_0000, 1).unwrap();
        mc.map_user_buffer(node, pid, 0x40_0000, 1).unwrap();
    }
    let request: Vec<u8> = (0..SERVING_MSG_BYTES).map(|i| (i % 127) as u8).collect();
    let reply: Vec<u8> = (0..SERVING_MSG_BYTES).map(|i| ((i * 7) % 239) as u8).collect();
    mc.write_user(0, client, VirtAddr::new(0x10_0000), &request).unwrap();
    mc.write_user(1, server, VirtAddr::new(0x10_0000), &reply).unwrap();

    // Each side registers the peer's exported window with its directory.
    let req = mc.node_mut(1).export_pages(server, VirtAddr::new(0x40_0000), 1).unwrap();
    let rep = mc.node_mut(0).export_pages(client, VirtAddr::new(0x40_0000), 1).unwrap();
    let (req_paddr, rep_paddr) = (req[0].base(), rep[0].base());
    let (mut client_dir, mut server_dir) = (NiptDirectory::new(), NiptDirectory::new());
    let to_server = client_dir.register(client, mc.node(1).id(), req);
    let to_client = server_dir.register(server, mc.node(0).id(), rep);

    let requests = 3usize;
    let src = VirtAddr::new(0x10_0000);
    let class = PacketClass::User;
    let route = RpcRoute { pid: client, handle: to_server, landing: rep_paddr, class };
    let rpc_client =
        RpcClientProgram::new(client_dir, vec![route], src, SERVING_MSG_BYTES, requests);
    let class = PacketClass::System;
    let route = RpcRoute { pid: server, handle: to_client, landing: req_paddr, class };
    let rpc_server =
        RpcServerProgram::new(server_dir, vec![route], src, SERVING_MSG_BYTES, requests);
    let mut programs = vec![
        ProgramPlan { node: 0, program: Box::new(rpc_client) },
        ProgramPlan { node: 1, program: Box::new(rpc_server) },
    ];
    mc.run_programs(&mut programs, 2).unwrap();

    // The request bytes crossed to the server's window, the reply bytes
    // crossed back to the client's — user-level RPC moved real payloads.
    let got_req = mc.read_user(1, server, VirtAddr::new(0x40_0000), SERVING_MSG_BYTES).unwrap();
    assert_eq!(got_req, request, "server window must hold the request payload");
    let got_rep = mc.read_user(0, client, VirtAddr::new(0x40_0000), SERVING_MSG_BYTES).unwrap();
    assert_eq!(got_rep, reply, "client window must hold the reply payload");

    let rpc = programs[0]
        .program
        .as_any_mut()
        .downcast_mut::<RpcClientProgram>()
        .expect("client program comes back");
    assert_eq!(rpc.completed(), requests);
    assert_eq!(rpc.latency().count(), requests as u64);
    assert!(rpc.latency().quantile(0.99).unwrap() > 0);
}
