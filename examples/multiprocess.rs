//! Protection under multiprogramming: "a UDMA device can be used
//! concurrently by an arbitrary number of untrusting processes without
//! compromising protection" (§1).
//!
//! The original version of this demo drove one node's device registers by
//! hand through the scheduler. This version rides the reactive program
//! layer instead: two untrusting tenant processes on node 0 are
//! multiplexed by a single custom [`TrafficProgram`] (a closed-loop mux
//! that makes the kernel context-switch to the issuing process on every
//! send), their requests are echoed by a stock [`RpcServerProgram`] on
//! node 1, and one tenant travels the §7 system-priority class while the
//! other stays user-priority. The protection demos are unchanged in
//! spirit and still hit the raw kernel API:
//!   - a process *without* a device grant being stopped by the MMU,
//!   - a process trying to name another process's memory being stopped
//!     because it cannot map the victim's proxy pages.
//!
//! Run: `cargo run -p shrimp --example multiprocess`

use std::any::Any;

use shrimp::{
    DeliveryEvent, Multicomputer, MulticomputerConfig, PacketClass, ProgramPlan, RpcServerProgram,
    SendOp, ShrimpNode, TrafficProgram,
};
use shrimp_mem::{VirtAddr, DEV_PROXY_BASE, PAGE_SIZE};
use shrimp_os::{Pid, Trap};

const SRC_VA: u64 = 0x10_0000;
const WIN_VA: u64 = 0x40_0000;
const MSG_BYTES: u64 = 256;
const PER_TENANT: u32 = 20;

/// One untrusting sender sharing the node's UDMA device.
struct Tenant {
    pid: Pid,
    /// Device proxy page addressing its window on the server node.
    dev_page: u64,
    /// Where the server's echo lands in this node's physical memory.
    reply_paddr: shrimp_mem::PhysAddr,
    class: PacketClass,
    remaining: u32,
}

/// A closed-loop multi-process mux: round-robins its tenants with one
/// request outstanding machine-wide. Every emitted [`SendOp`] names a
/// different process, so the engine's send pump context-switches the node
/// (firing the I1 Inval) between untrusting address spaces on every send
/// — the multiprogramming workout, expressed as a program.
struct TenantMux {
    tenants: Vec<Tenant>,
    next: usize,
    /// Tenant index whose request is awaiting its echo.
    in_flight: Option<usize>,
    completed: u64,
}

impl TrafficProgram for TenantMux {
    fn planned_hint(&self) -> usize {
        let total: usize = self.tenants.iter().map(|t| t.remaining as usize).sum();
        total.saturating_sub(1)
    }

    fn step(
        &mut self,
        _node: &mut ShrimpNode,
        inbox: &[DeliveryEvent],
        out: &mut Vec<SendOp>,
    ) -> Result<(), Trap> {
        if let Some(t) = self.in_flight {
            if inbox.iter().any(|ev| ev.dst_paddr == self.tenants[t].reply_paddr) {
                self.in_flight = None;
                self.completed += 1;
            }
        }
        if self.in_flight.is_some() {
            return Ok(());
        }
        for off in 0..self.tenants.len() {
            let i = (self.next + off) % self.tenants.len();
            if self.tenants[i].remaining == 0 {
                continue;
            }
            let t = &mut self.tenants[i];
            t.remaining -= 1;
            out.push(SendOp {
                pid: t.pid,
                src_va: VirtAddr::new(SRC_VA),
                dev_page: t.dev_page,
                dev_off: 0,
                nbytes: MSG_BYTES,
                class: t.class,
            });
            self.in_flight = Some(i);
            self.next = (i + 1) % self.tenants.len();
            break;
        }
        Ok(())
    }

    fn finished(&self) -> bool {
        self.in_flight.is_none() && self.tenants.iter().all(|t| t.remaining == 0)
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

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

    let mut tenants = Vec::new();
    let mut routes = Vec::new();
    let mut req_paddrs = Vec::new();
    for t in 0..2u64 {
        let pid = mc.spawn_process(0);
        mc.map_user_buffer(0, pid, SRC_VA, 1)?;
        mc.map_user_buffer(0, pid, WIN_VA, 1)?;
        mc.write_user(0, pid, VirtAddr::new(SRC_VA), &[t as u8 + 1; MSG_BYTES as usize])?;

        // The tenant's one-page request window on the server node, and
        // the reply window the server echoes back into.
        let req_va = VirtAddr::new(WIN_VA + t * PAGE_SIZE);
        let dev_page = mc.export(1, server, req_va, 1, 0, pid)?;
        let req_paddr = mc.user_paddr(1, server, req_va)?;
        let rep_dev = mc.export(0, pid, VirtAddr::new(WIN_VA), 1, 1, server)?;
        let reply_paddr = mc.user_paddr(0, pid, VirtAddr::new(WIN_VA))?;

        routes.push((
            req_paddr,
            SendOp {
                pid: server,
                src_va: VirtAddr::new(SRC_VA),
                dev_page: rep_dev,
                dev_off: 0,
                nbytes: MSG_BYTES,
                class: PacketClass::System,
            },
        ));
        req_paddrs.push(req_paddr);
        // Tenant 0 rides the §7 system queue, tenant 1 the user queue —
        // both make it through the same arbitrated fabric.
        let class = if t == 0 { PacketClass::System } else { PacketClass::User };
        tenants.push(Tenant { pid, dev_page, reply_paddr, class, remaining: PER_TENANT });
    }
    let pids: Vec<Pid> = tenants.iter().map(|t| t.pid).collect();

    // The server filters deliveries to the span covering both request
    // windows; the exact landing address picks the route.
    let base = *req_paddrs.iter().min_by_key(|p| p.raw()).unwrap();
    let top = req_paddrs.iter().map(|p| p.raw()).max().unwrap() + PAGE_SIZE;
    let expected = 2 * PER_TENANT as usize;
    let mut programs = vec![
        ProgramPlan {
            node: 0,
            program: Box::new(TenantMux { tenants, next: 0, in_flight: None, completed: 0 }),
        },
        ProgramPlan {
            node: 1,
            program: Box::new(RpcServerProgram::new(base, top - base.raw(), routes, expected)),
        },
    ];
    let report = mc.run_programs(&mut programs, 2)?;

    let mux = programs[0]
        .program
        .as_any_mut()
        .downcast_mut::<TenantMux>()
        .expect("mux comes back stepped to its final state");
    println!("\ntwo tenants, one device, closed-loop echo:");
    println!("  requests answered:  {}", mux.completed);
    println!("  fabric messages:    {} (requests + echoes)", report.messages);
    println!("  context switches:   {}", mc.node(0).os().counters().context_switches.get());
    assert_eq!(mux.completed, u64::from(2 * PER_TENANT), "every request echoed");
    assert_eq!(report.messages, 2 * u64::from(2 * PER_TENANT));

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
