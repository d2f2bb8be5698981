//! Protection under multiprogramming: "a UDMA device can be used
//! concurrently by an arbitrary number of untrusting processes without
//! compromising protection" (§1).
//!
//! This demo rides the reactive program layer: two untrusting tenant
//! processes on node 0 share the node's UDMA device through the stock
//! [`RpcClientProgram`], a closed-loop tenant mux that makes the kernel
//! context-switch to the issuing process on every send. A stock
//! [`RpcServerProgram`] on node 1 echoes their requests. Each tenant
//! reaches its peer window through a [`NiptDirectory`] handle, and one
//! tenant travels the §7 system-priority class while the other stays
//! user-priority. The protection demos still hit the raw kernel API:
//!   - a process *without* a device grant being stopped by the MMU,
//!   - a process trying to name another process's memory being stopped
//!     because it cannot map the victim's proxy pages.
//!
//! Run: `cargo run -p shrimp --example multiprocess`

use shrimp::{
    Multicomputer, MulticomputerConfig, NiptDirectory, PacketClass, ProgramPlan, RpcClientProgram,
    RpcRoute, RpcServerProgram,
};
use shrimp_mem::{VirtAddr, DEV_PROXY_BASE, PAGE_SIZE};
use shrimp_os::Trap;

const SRC_VA: u64 = 0x10_0000;
const WIN_VA: u64 = 0x40_0000;
const MSG_BYTES: u64 = 256;
const PER_TENANT: usize = 20;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut mc = Multicomputer::new(2, MulticomputerConfig::default());

    // --- Protection demo 1: no grant, no device access.
    let os = mc.node_mut(0).os_mut();
    let rogue = os.spawn();
    let err = os.user_store(rogue, VirtAddr::new(DEV_PROXY_BASE), 64).unwrap_err();
    println!("rogue store to device proxy without grant: {err}");
    assert!(matches!(err, Trap::DeviceNotGranted { .. }));

    // --- Protection demo 2: cannot name another process's memory.
    let victim = os.spawn();
    os.mmap(victim, 0x5_0000, 1, true)?;
    os.user_store(victim, VirtAddr::new(0x5_0000), 0x5ec2e7)?;
    let victim_proxy =
        os.machine().layout().proxy_of_virt(VirtAddr::new(0x5_0000)).expect("memory region");
    // The rogue references the same *virtual* proxy address, but its own
    // page table has no mapping there and no segment backs it: segfault.
    let err = os.user_load(rogue, victim_proxy).unwrap_err();
    println!("rogue load of victim's proxy page:          {err}");
    assert!(matches!(err, Trap::SegFault { .. }));

    // --- Concurrency demo: two untrusting tenants muxed by one program.
    let server = mc.spawn_process(1);
    mc.map_user_buffer(1, server, SRC_VA, 1)?;
    mc.map_user_buffer(1, server, WIN_VA, 2)?;
    let echo: Vec<u8> = (0..MSG_BYTES).map(|i| ((i * 7) % 239) as u8).collect();
    mc.write_user(1, server, VirtAddr::new(SRC_VA), &echo)?;

    let (node0, node1) = (mc.node(0).id(), mc.node(1).id());
    let (mut client_dir, mut server_dir) = (NiptDirectory::new(), NiptDirectory::new());
    let (mut client_routes, mut server_routes, mut pids) = (Vec::new(), Vec::new(), Vec::new());
    for t in 0..2u64 {
        let pid = mc.spawn_process(0);
        mc.map_user_buffer(0, pid, SRC_VA, 1)?;
        mc.map_user_buffer(0, pid, WIN_VA, 1)?;
        mc.write_user(0, pid, VirtAddr::new(SRC_VA), &[t as u8 + 1; MSG_BYTES as usize])?;

        // The tenant's one-page request window on the server node, and
        // the reply window the server echoes back into, each registered
        // with the sending side's directory.
        let req = mc.node_mut(1).export_pages(server, VirtAddr::new(WIN_VA + t * PAGE_SIZE), 1)?;
        let rep = mc.node_mut(0).export_pages(pid, VirtAddr::new(WIN_VA), 1)?;
        let (request_paddr, reply_paddr) = (req[0].base(), rep[0].base());
        let to_server = client_dir.register(pid, node1, req);
        let to_client = server_dir.register(server, node0, rep);
        // Tenant 0 rides the §7 system queue, tenant 1 the user queue —
        // both make it through the same arbitrated fabric.
        let class = if t == 0 { PacketClass::System } else { PacketClass::User };
        client_routes.push(RpcRoute { pid, handle: to_server, landing: reply_paddr, class });
        let (handle, class) = (to_client, PacketClass::System);
        server_routes.push(RpcRoute { pid: server, handle, landing: request_paddr, class });
        pids.push(pid);
    }

    let (src, requests) = (VirtAddr::new(SRC_VA), 2 * PER_TENANT);
    let client = RpcClientProgram::new(client_dir, client_routes, src, MSG_BYTES, requests);
    let server = RpcServerProgram::new(server_dir, server_routes, src, MSG_BYTES, requests);
    let mut programs = vec![
        ProgramPlan { node: 0, program: Box::new(client) },
        ProgramPlan { node: 1, program: Box::new(server) },
    ];
    let report = mc.run_programs(&mut programs, 2)?;

    let mux = programs[0]
        .program
        .as_any_mut()
        .downcast_mut::<RpcClientProgram>()
        .expect("the client comes back stepped to its final state");
    println!("\ntwo tenants, one device, closed-loop echo:");
    println!("  requests answered:  {}", mux.completed());
    println!("  fabric messages:    {} (requests + echoes)", report.messages);
    println!("  context switches:   {}", mc.node(0).os().counters().context_switches.get());
    assert_eq!(mux.completed(), requests, "every request echoed");
    assert_eq!(report.messages, 2 * requests as u64);

    // Every tenant's reply window holds the echo payload, each tenant's
    // source memory was never touched by the other, and the invariants
    // held through every context switch.
    for pid in pids {
        let got = mc.read_user(0, pid, VirtAddr::new(WIN_VA), MSG_BYTES)?;
        assert_eq!(got, echo, "echo landed in the tenant's own window");
    }
    for node in 0..2 {
        mc.node(node).os().check_invariants().expect("I1-I4 hold");
    }
    println!("  invariants I1-I4:   OK");

    let os = mc.node_mut(0).os_mut();
    assert_eq!(os.user_load(victim, VirtAddr::new(0x5_0000))?, 0x5ec2e7);
    println!("  victim's memory:    untouched");
    Ok(())
}
