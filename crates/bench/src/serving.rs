//! Multi-tenant request/response serving on the reactive program layer.
//!
//! The streaming rows in `BENCH_throughput.json` measure the data plane
//! at its best: one process per node, mappings imported once, traffic
//! known up front. `serving` measures the other end of the design space
//! the paper's protection story exists for: every client node
//! multiplexes dozens of tenant *processes*, each with its own
//! deliberate-update window on a server node, all contending for a NIPT
//! deliberately sized far below the working set — so the kernel's
//! demand-paging path (evict a victim tenant's slot run, revoke its
//! proxy grant, reimport on refault) runs continuously, under churn,
//! while requests and replies flow.
//!
//! Topology: node `2p` is a client, node `2p+1` its server. Each client
//! runs a [`ServingClient`] — a tenant mux that round-robins its tenant
//! processes, each a closed-loop RPC flow (the node's CPU runs one
//! process at a time; `udma_send` context-switches to the issuing
//! tenant, so the mux is also a context-switch workout). Each server
//! runs a [`ServingServer`] that routes every request landing in a
//! tenant's window to that tenant's reply send. Every fourth tenant's
//! requests — and all replies — travel [`PacketClass::System`], so the
//! §7 two-priority arbitration sees mixed classes on every link.
//!
//! Request latency (issue instant → reply EISA-DMA completion) is
//! simulated time, recorded per client into a [`Histogram`] and merged
//! machine-wide: the p50/p90/p99 in the output row are deterministic
//! figures of the modelled serving path, not host noise — which is what
//! lets CI gate on them.

use shrimp::{
    DeliveryEvent, Multicomputer, MulticomputerConfig, NiptDirectory, PacketClass, ProgramPlan,
    SendOp, ShrimpNode, TrafficProgram,
};
use shrimp_machine::MachineConfig;
use shrimp_mem::{PhysAddr, VirtAddr, PAGE_SIZE};
use shrimp_net::NodeId;
use shrimp_os::{NodeConfig, Pid, Trap};
use shrimp_sim::{Histogram, SimTime};

use crate::alloc_count;
use crate::host_perf::ThroughputResult;

/// Per-tenant virtual layout (each tenant is its own process, so the
/// addresses repeat per tenant): the outbound payload page and the
/// exported one-page window inbound traffic lands in.
const SRC_VA: u64 = 0x10_0000;
const WINDOW_VA: u64 = 0x40_0000;

/// One client-side tenant flow: the local process that issues requests
/// and the window its replies land in.
#[derive(Clone, Copy, Debug)]
struct ClientTenant {
    /// The tenant process on the client node.
    pid: Pid,
    /// Directory handle of the request window on the server.
    handle: usize,
    /// Local physical page replies land in (exact landing address —
    /// replies are single-page sends at offset 0).
    reply_paddr: PhysAddr,
    /// §7 priority class of this tenant's requests.
    class: PacketClass,
}

/// The client-node tenant mux: round-robins its tenants, one closed-loop
/// request in flight at a time. Before each request the tenant's NIPT
/// mapping is demand-ensured ([`NiptDirectory::ensure`]) — with more
/// tenants than table slots, that is a steady diet of evictions and
/// refaults, exactly the churn the row exists to measure.
#[derive(Debug)]
pub struct ServingClient {
    dir: NiptDirectory,
    tenants: Vec<ClientTenant>,
    /// Request payload bytes.
    msg_bytes: u64,
    /// Requests to issue across all tenants.
    total: usize,
    issued: usize,
    completed: usize,
    /// The outstanding request: `(tenant index, issue instant)`.
    in_flight: Option<(usize, SimTime)>,
    latency: Histogram,
}

impl ServingClient {
    /// Replies received so far.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// The request-latency histogram (issue → reply delivery, simulated).
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }
}

impl TrafficProgram for ServingClient {
    fn planned_hint(&self) -> usize {
        self.total.saturating_sub(1)
    }

    fn step(
        &mut self,
        node: &mut ShrimpNode,
        inbox: &[DeliveryEvent],
        out: &mut Vec<SendOp>,
    ) -> Result<(), Trap> {
        for ev in inbox {
            if let Some((t, issued_at)) = self.in_flight {
                if ev.dst_paddr == self.tenants[t].reply_paddr {
                    self.latency.record(ev.done.saturating_duration_since(issued_at).as_nanos());
                    self.completed += 1;
                    self.in_flight = None;
                }
            }
        }
        if self.in_flight.is_none() && self.issued < self.total {
            let tenant = self.tenants[self.issued % self.tenants.len()];
            // Demand-ensure the tenant's mapping: one NIPT probe when the
            // slot run survived, the full revoke + reimport kernel path
            // when another tenant recycled it.
            let dev_page = self.dir.ensure(tenant.handle, node)?;
            out.push(SendOp {
                pid: tenant.pid,
                src_va: VirtAddr::new(SRC_VA),
                dev_page,
                dev_off: 0,
                nbytes: self.msg_bytes,
                class: tenant.class,
            });
            self.in_flight = Some((self.issued % self.tenants.len(), node.os().machine().now()));
            self.issued += 1;
        }
        Ok(())
    }

    fn finished(&self) -> bool {
        self.completed >= self.total
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// One server-side tenant: where its requests land and which process
/// answers them.
#[derive(Clone, Copy, Debug)]
struct ServerTenant {
    /// The tenant's serving process on this node.
    pid: Pid,
    /// Exact physical landing address of the tenant's requests.
    request_paddr: PhysAddr,
    /// Directory handle of the client's reply window.
    handle: usize,
}

/// The server-node mux: routes each request delivery to its tenant's
/// reply send. Replies travel [`PacketClass::System`] — the kernel-side
/// priority a server issues on a tenant's behalf — and the reply
/// window's NIPT mapping is demand-ensured per reply, so the server's
/// table churns just like the client's.
#[derive(Debug)]
pub struct ServingServer {
    dir: NiptDirectory,
    tenants: Vec<ServerTenant>,
    /// Reply payload bytes.
    msg_bytes: u64,
    /// Requests this server will answer before it is finished.
    expected: usize,
    replied: usize,
}

impl ServingServer {
    /// Requests answered so far.
    pub fn replied(&self) -> usize {
        self.replied
    }
}

impl TrafficProgram for ServingServer {
    fn planned_hint(&self) -> usize {
        self.expected
    }

    fn step(
        &mut self,
        node: &mut ShrimpNode,
        inbox: &[DeliveryEvent],
        out: &mut Vec<SendOp>,
    ) -> Result<(), Trap> {
        for ev in inbox {
            // A handful of tenants per node: linear scan, no hash map on
            // the data path (D1).
            let Some(tenant) = self.tenants.iter().find(|t| t.request_paddr == ev.dst_paddr) else {
                continue;
            };
            let (pid, handle) = (tenant.pid, tenant.handle);
            let dev_page = self.dir.ensure(handle, node)?;
            out.push(SendOp {
                pid,
                src_va: VirtAddr::new(SRC_VA),
                dev_page,
                dev_off: 0,
                nbytes: self.msg_bytes,
                class: PacketClass::System,
            });
            self.replied += 1;
        }
        Ok(())
    }

    fn finished(&self) -> bool {
        self.replied >= self.expected
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Request/reply payload bytes (single-packet sends: the row measures
/// the per-message serving path, not wire bandwidth).
pub const SERVING_MSG_BYTES: u64 = 256;

/// A fully wired serving machine plus its traffic programs, ready for
/// [`Multicomputer::run_programs`].
pub struct ServingRig {
    /// The machine: even nodes clients, odd nodes servers.
    pub mc: Multicomputer,
    /// One [`ServingClient`] per even node, one [`ServingServer`] per odd
    /// node.
    pub programs: Vec<ProgramPlan>,
    /// Total requests the clients will issue.
    pub requests: u64,
}

/// Builds the serving machine: `nodes / 2` client/server pairs,
/// `tenants_per_client` tenant processes on each side of every pair,
/// each tenant a closed-loop request/reply flow issuing
/// `requests_per_tenant` requests. The per-node NIPT is sized to a
/// quarter of the tenant working set (floor 2), so slot churn is
/// guaranteed, and every fourth tenant's requests travel
/// [`PacketClass::System`].
///
/// # Panics
///
/// Panics on kernel traps during setup (the rig is statically valid) and
/// when `nodes` is odd or less than 2.
pub fn serving_rig(nodes: u16, tenants_per_client: usize, requests_per_tenant: u32) -> ServingRig {
    assert!(nodes >= 2 && nodes.is_multiple_of(2), "need client/server pairs");
    assert!(tenants_per_client >= 1);
    // A quarter of the per-node mapping working set: small enough that
    // the round-robin mux thrashes the table (every visit refaults),
    // large enough that the one mapping a step needs always fits.
    let nipt_entries = (tenants_per_client / 4).max(2);
    let config = MulticomputerConfig {
        node: NodeConfig {
            // Tenant pages, not streams, bound the footprint: a small
            // memory keeps 64-node digests measuring the engine.
            machine: MachineConfig { mem_bytes: 256 * PAGE_SIZE, ..MachineConfig::default() },
            user_frames: None,
        },
        nipt_entries,
        ..MulticomputerConfig::default()
    };
    let mut mc = Multicomputer::new(nodes, config);
    let pairs = usize::from(nodes) / 2;
    let mut programs = Vec::with_capacity(usize::from(nodes));
    let per_client = tenants_per_client * requests_per_tenant as usize;

    for p in 0..pairs {
        let (client_node, server_node) = (2 * p, 2 * p + 1);
        let client_id = NodeId::new(client_node as u16);
        let server_id = NodeId::new(server_node as u16);
        let mut client_dir = NiptDirectory::new();
        let mut server_dir = NiptDirectory::new();
        let mut client_tenants = Vec::with_capacity(tenants_per_client);
        let mut server_tenants = Vec::with_capacity(tenants_per_client);
        for t in 0..tenants_per_client {
            // The tenant pair: one process on each side, each with an
            // outbound payload page and an exported one-page window.
            let cpid = mc.spawn_process(client_node);
            let spid = mc.spawn_process(server_node);
            for (node, pid) in [(client_node, cpid), (server_node, spid)] {
                mc.map_user_buffer(node, pid, SRC_VA, 1).expect("map payload page");
                mc.map_user_buffer(node, pid, WINDOW_VA, 1).expect("map window page");
            }
            let request: Vec<u8> =
                (0..SERVING_MSG_BYTES).map(|i| (i.wrapping_add(t as u64) % 251) as u8).collect();
            mc.write_user(client_node, cpid, VirtAddr::new(SRC_VA), &request).expect("fill req");
            let reply: Vec<u8> =
                (0..SERVING_MSG_BYTES).map(|i| (i.wrapping_mul(3) % 239) as u8).collect();
            mc.write_user(server_node, spid, VirtAddr::new(SRC_VA), &reply).expect("fill rep");

            // Cross-export the windows. The frames go into each side's
            // NIPT *directory*, not the table: mappings are imported on
            // demand, mid-run, under contention.
            let req_frames = mc
                .node_mut(server_node)
                .export_pages(spid, VirtAddr::new(WINDOW_VA), 1)
                .expect("export request window");
            let rep_frames = mc
                .node_mut(client_node)
                .export_pages(cpid, VirtAddr::new(WINDOW_VA), 1)
                .expect("export reply window");
            let request_paddr = req_frames[0].base();
            let reply_paddr = rep_frames[0].base();
            let c_handle = client_dir.register(cpid, server_id, req_frames);
            let s_handle = server_dir.register(spid, client_id, rep_frames);
            let class = if t.is_multiple_of(4) { PacketClass::System } else { PacketClass::User };
            client_tenants.push(ClientTenant { pid: cpid, handle: c_handle, reply_paddr, class });
            server_tenants.push(ServerTenant { pid: spid, request_paddr, handle: s_handle });
        }
        programs.push(ProgramPlan {
            node: client_node,
            program: Box::new(ServingClient {
                dir: client_dir,
                tenants: client_tenants,
                msg_bytes: SERVING_MSG_BYTES,
                total: per_client,
                issued: 0,
                completed: 0,
                in_flight: None,
                latency: Histogram::new(),
            }),
        });
        programs.push(ProgramPlan {
            node: server_node,
            program: Box::new(ServingServer {
                dir: server_dir,
                tenants: server_tenants,
                msg_bytes: SERVING_MSG_BYTES,
                expected: per_client,
                replied: 0,
            }),
        });
    }
    ServingRig { mc, programs, requests: (pairs * per_client) as u64 }
}

/// Everything a serving run yields beyond the row: the merged
/// request-latency histogram and the machine-wide NIPT churn counters.
pub struct ServingOutcome {
    /// The `BENCH_throughput.json` row.
    pub result: ThroughputResult,
    /// Merged request latency across every client (simulated ns).
    pub latency: Histogram,
    /// NIPT slot runs recycled machine-wide.
    pub nipt_evictions: u64,
    /// Sends that found their slot recycled and reloaded machine-wide.
    pub nipt_refaults: u64,
}

/// Runs the serving workload and reports it as a throughput row carrying
/// request p50/p90/p99 and the NIPT churn counters. The digest — and
/// every simulated figure, the percentiles included — is identical at
/// every thread count.
///
/// # Panics
///
/// Panics on setup traps, on a failed run, or if any request goes
/// unanswered.
pub fn serving(
    nodes: u16,
    tenants_per_client: usize,
    requests_per_tenant: u32,
    threads: usize,
) -> ServingOutcome {
    serving_impl(nodes, tenants_per_client, requests_per_tenant, threads, false).0
}

/// [`serving`] with the flight recorder on for the whole run, returning
/// the `SHRTRC01` binary trace alongside — the serving analogue of
/// [`stream_pairs_traced`](crate::host_perf::stream_pairs_traced).
/// Trace bytes must be identical at every thread count.
///
/// # Panics
///
/// As for [`serving`].
pub fn serving_traced(
    nodes: u16,
    tenants_per_client: usize,
    requests_per_tenant: u32,
    threads: usize,
) -> (ServingOutcome, Vec<u8>) {
    let (outcome, trace) =
        serving_impl(nodes, tenants_per_client, requests_per_tenant, threads, true);
    (outcome, trace.expect("tracing was enabled"))
}

fn serving_impl(
    nodes: u16,
    tenants_per_client: usize,
    requests_per_tenant: u32,
    threads: usize,
    traced: bool,
) -> (ServingOutcome, Option<Vec<u8>>) {
    let ServingRig { mut mc, mut programs, requests } =
        serving_rig(nodes, tenants_per_client, requests_per_tenant);
    if traced {
        mc.set_tracing(true);
    }
    let alloc_mark = alloc_count::allocation_count();
    let report = mc.run_programs(&mut programs, threads).expect("serving run");
    let allocs = alloc_count::delta_since(alloc_mark);
    assert_eq!(mc.dropped_packets(), 0, "serving must not drop packets");

    // Harvest the per-client latency histograms out of the returned
    // programs and the churn counters out of every NIC.
    let mut latency = Histogram::new();
    let mut completed = 0u64;
    for pp in &mut programs {
        if let Some(client) = pp.program.as_any_mut().downcast_mut::<ServingClient>() {
            latency.merge(client.latency());
            completed += client.completed() as u64;
        }
    }
    assert_eq!(completed, requests, "every request must be answered");
    let (mut evictions, mut refaults) = (0u64, 0u64);
    for i in 0..mc.node_count() {
        let nipt = mc.node(i).os().machine().device().nipt();
        evictions += nipt.evictions();
        refaults += nipt.refaults();
    }

    // Per-stage percentiles when traced: the request figure says how the
    // serving path feels end to end, the stage split says where the
    // simulated time went (initiation vs queueing vs wire).
    let stage_ns = traced.then(|| {
        let mut out = [[0u64; 3]; shrimp_sim::STAGE_COUNT];
        for (slot, stage) in out.iter_mut().zip(shrimp_sim::Stage::ALL) {
            let h = mc.recorder().stage_histogram(stage);
            let sq = |p: f64| h.quantile(p).unwrap_or(0);
            *slot = [sq(0.50), sq(0.90), sq(0.99)];
        }
        out
    });
    let q = |p: f64| latency.quantile(p).unwrap_or(0);
    let result = ThroughputResult {
        name: format!(
            "serving_{}b_{}node_{}x{}_t{}",
            SERVING_MSG_BYTES, nodes, tenants_per_client, requests_per_tenant, threads
        ),
        nodes,
        msg_bytes: SERVING_MSG_BYTES,
        messages: report.messages,
        threads,
        digest: mc.state_digest(),
        allocs_per_msg: alloc_count::is_active().then(|| allocs as f64 / report.messages as f64),
        stage_ns,
        request_ns: Some([q(0.50), q(0.90), q(0.99)]),
        nipt_churn: Some([evictions, refaults]),
    };
    let trace = traced.then(|| mc.export_trace_bin());
    (ServingOutcome { result, latency, nipt_evictions: evictions, nipt_refaults: refaults }, trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serving_answers_every_request_and_churns_the_nipt() {
        let out = serving(4, 8, 2, 1);
        assert_eq!(out.latency.count(), 2 * 8 * 2);
        assert!(out.nipt_evictions > 0, "8 tenants over 2 slots must evict");
        assert!(out.nipt_refaults > 0, "round-robin over 2 slots must refault");
        let [p50, p90, p99] = out.result.request_ns.expect("serving row has request latencies");
        assert!(p50 > 0 && p90 >= p50 && p99 >= p90, "{p50} {p90} {p99}");
        assert_eq!(out.result.messages, 2 * 2 * 8 * 2, "a reply per request");
    }

    #[test]
    fn serving_digest_is_thread_invariant() {
        let a = serving(4, 4, 2, 1);
        let b = serving(4, 4, 2, 2);
        assert_eq!(a.result.digest, b.result.digest);
        assert_eq!(a.result.request_ns, b.result.request_ns, "latency is simulated time");
    }

    #[test]
    fn serving_row_renders_the_new_fields() {
        let out = serving(2, 4, 1, 1);
        let j = out.result.to_json();
        assert!(j.contains("\"request_p50_p90_p99_ns\":["), "{j}");
        assert!(j.contains("\"nipt_evictions_refaults\":["), "{j}");
        assert!(j.contains("\"name\":\"serving_256b_2node_4x1_t1\""), "{j}");
    }
}
