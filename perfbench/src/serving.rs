//! `serving`: client/server node pairs, 16 tenant processes per client,
//! closed-loop RPC through `Multicomputer::run_programs(…, 1)` with one
//! request in flight per client node. The NIPT holds a quarter of the
//! tenant working set, every fourth tenant's requests travel §7 system
//! class, and request and reply sizes are seeded from 64 B to 2 KB — so
//! program stepping, `NiptDirectory` demand paging (evict, revoke,
//! reimport) and per-send context switches do most of the work, and the
//! request latencies have a real spread.

use std::any::Any;
use std::time::Instant;

use shrimp::{
    DeliveryEvent, Multicomputer, MulticomputerConfig, NiptDirectory, PacketClass, ProgramPlan,
    SendOp, ShrimpNode, TrafficProgram,
};
use shrimp_machine::MachineConfig;
use shrimp_mem::{PhysAddr, VirtAddr, PAGE_SIZE};
use shrimp_net::NodeId;
use shrimp_os::{NodeConfig, Pid, Trap};
use shrimp_sim::SplitMix64;

use crate::{log_uniform, ns_since, seeded_bytes, Round, Scale, Shape, Spans, Timed, Window};
use crate::{Workload, SRC_VA, WINDOW_VA};

/// Smallest and largest request or reply.
const MIN_BYTES: u64 = 64;
const MAX_BYTES: u64 = 2048;

/// `NiptDirectory::ensure`, timed into `ns`/`count` while `timing` is on.
fn ensure(
    dir: &mut NiptDirectory,
    handle: usize,
    node: &mut ShrimpNode,
    timing: bool,
    ns: &mut u64,
    count: &mut u64,
) -> Result<u64, Trap> {
    if !timing {
        return dir.ensure(handle, node);
    }
    let t0 = Instant::now();
    let result = dir.ensure(handle, node);
    *ns += ns_since(t0);
    *count += 1;
    result
}

/// One client-side tenant.
#[derive(Clone, Copy, Debug)]
struct ClientTenant {
    pid: Pid,
    /// Directory handle of the tenant's request window on the server.
    handle: usize,
    /// Where the tenant's replies land.
    reply_paddr: PhysAddr,
    class: PacketClass,
}

/// The client mux: request `r` of a round goes to tenant `r % tenants`
/// with `sizes[r]` bytes, after the next reply; each tenant's request
/// window is demand-ensured in the NIPT before the send.
struct Client {
    dir: NiptDirectory,
    tenants: Vec<ClientTenant>,
    sizes: Vec<u64>,
    issued: usize,
    completed: usize,
    in_flight: Option<(usize, u64)>,
    /// Simulated request latencies of the current round.
    latencies: Vec<u64>,
    timing: bool,
    ensure_ns: u64,
    ensures: u64,
}

impl TrafficProgram for Client {
    fn planned_hint(&self) -> usize {
        self.sizes.len().saturating_sub(1)
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
                    self.latencies.push(ev.done.as_nanos().saturating_sub(issued_at));
                    self.completed += 1;
                    self.in_flight = None;
                }
            }
        }
        if self.in_flight.is_none() && self.issued < self.sizes.len() {
            let t = self.issued % self.tenants.len();
            let tenant = self.tenants[t];
            let (timing, ns, count) = (self.timing, &mut self.ensure_ns, &mut self.ensures);
            let dev_page = ensure(&mut self.dir, tenant.handle, node, timing, ns, count)?;
            out.push(SendOp {
                pid: tenant.pid,
                src_va: VirtAddr::new(SRC_VA),
                dev_page,
                dev_off: 0,
                nbytes: self.sizes[self.issued],
                class: tenant.class,
            });
            self.in_flight = Some((t, node.os().machine().now().as_nanos()));
            self.issued += 1;
        }
        Ok(())
    }

    fn finished(&self) -> bool {
        self.completed >= self.sizes.len()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// One server-side tenant.
#[derive(Clone, Copy, Debug)]
struct ServerTenant {
    pid: Pid,
    /// Where the tenant's requests land.
    request_paddr: PhysAddr,
    /// Directory handle of the client's reply window.
    handle: usize,
}

/// The server mux: answers its client's `k`-th request of a round with a
/// `sizes[k]`-byte system-class reply into the requesting tenant's reply
/// window, demand-ensured like the client's.
struct Server {
    dir: NiptDirectory,
    tenants: Vec<ServerTenant>,
    sizes: Vec<u64>,
    replied: usize,
    timing: bool,
    ensure_ns: u64,
    ensures: u64,
}

impl TrafficProgram for Server {
    fn planned_hint(&self) -> usize {
        self.sizes.len()
    }

    fn step(
        &mut self,
        node: &mut ShrimpNode,
        inbox: &[DeliveryEvent],
        out: &mut Vec<SendOp>,
    ) -> Result<(), Trap> {
        for ev in inbox {
            let Some(tenant) = self.tenants.iter().find(|t| t.request_paddr == ev.dst_paddr) else {
                continue;
            };
            let (pid, handle) = (tenant.pid, tenant.handle);
            let (timing, ns, count) = (self.timing, &mut self.ensure_ns, &mut self.ensures);
            let dev_page = ensure(&mut self.dir, handle, node, timing, ns, count)?;
            out.push(SendOp {
                pid,
                src_va: VirtAddr::new(SRC_VA),
                dev_page,
                dev_off: 0,
                nbytes: self.sizes[self.replied],
                class: PacketClass::System,
            });
            self.replied += 1;
        }
        Ok(())
    }

    fn finished(&self) -> bool {
        self.replied >= self.sizes.len()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The built `serving` workload.
pub struct Serving {
    mc: Multicomputer,
    programs: Vec<ProgramPlan>,
    windows: Vec<Window>,
    requests: u64,
    bytes: u64,
}

impl Serving {
    /// Builds the machine: per pair, `scale.tenants` tenant processes on
    /// each side with seeded payloads and cross-exported one-page windows
    /// registered in each side's NIPT directory, plus the round's seeded
    /// request and reply sizes.
    pub fn new(seed: u64, scale: &Scale) -> Self {
        let mut rng = SplitMix64::new(seed);
        let tenants = scale.tenants;
        let config = MulticomputerConfig {
            node: NodeConfig {
                machine: MachineConfig { mem_bytes: 256 * PAGE_SIZE, ..MachineConfig::default() },
                user_frames: None,
            },
            // A quarter of each node's mapping working set.
            nipt_entries: (tenants / 4).max(2),
            ..MulticomputerConfig::default()
        };
        let mut mc = Multicomputer::new(scale.nodes, config);
        let pairs = usize::from(scale.nodes) / 2;
        let per_client = tenants * scale.requests_per_tenant;
        let mut programs = Vec::with_capacity(2 * pairs);
        let mut windows = Vec::with_capacity(2 * pairs * tenants);
        let mut bytes = 0;
        for p in 0..pairs {
            let (cn, sn) = (2 * p, 2 * p + 1);
            let req_sizes: Vec<u64> =
                (0..per_client).map(|_| log_uniform(&mut rng, MIN_BYTES, MAX_BYTES)).collect();
            let rep_sizes: Vec<u64> =
                (0..per_client).map(|_| log_uniform(&mut rng, MIN_BYTES, MAX_BYTES)).collect();
            bytes += req_sizes.iter().chain(&rep_sizes).sum::<u64>();
            let (mut cdir, mut sdir) = (NiptDirectory::new(), NiptDirectory::new());
            let (mut ctenants, mut stenants) = (Vec::new(), Vec::new());
            for t in 0..tenants {
                let cpid = mc.spawn_process(cn);
                let spid = mc.spawn_process(sn);
                let mut payloads = [Vec::new(), Vec::new()];
                for (slot, (node, pid)) in [(cn, cpid), (sn, spid)].into_iter().enumerate() {
                    mc.map_user_buffer(node, pid, SRC_VA, 1).expect("map payload");
                    mc.map_user_buffer(node, pid, WINDOW_VA, 1).expect("map window");
                    payloads[slot] = seeded_bytes(&mut rng, MAX_BYTES);
                    mc.write_user(node, pid, VirtAddr::new(SRC_VA), &payloads[slot])
                        .expect("fill payload");
                }
                let req_frames = mc
                    .node_mut(sn)
                    .export_pages(spid, VirtAddr::new(WINDOW_VA), 1)
                    .expect("export request window");
                let rep_frames = mc
                    .node_mut(cn)
                    .export_pages(cpid, VirtAddr::new(WINDOW_VA), 1)
                    .expect("export reply window");
                let request_paddr = req_frames[0].base();
                let reply_paddr = rep_frames[0].base();
                // Request `r` belongs to tenant `r % tenants`; each window
                // ends holding its writer's payload up to the longest
                // message it received.
                let mut req_window = Window::new(sn, spid, WINDOW_VA, MAX_BYTES);
                let mut rep_window = Window::new(cn, cpid, WINDOW_VA, MAX_BYTES);
                for r in (t..per_client).step_by(tenants) {
                    req_window.write(0, &payloads[0][..req_sizes[r] as usize]);
                    rep_window.write(0, &payloads[1][..rep_sizes[r] as usize]);
                }
                windows.push(req_window);
                windows.push(rep_window);
                let class = if t % 4 == 0 { PacketClass::System } else { PacketClass::User };
                let handle = cdir.register(cpid, NodeId::new(sn as u16), req_frames);
                ctenants.push(ClientTenant { pid: cpid, handle, reply_paddr, class });
                let handle = sdir.register(spid, NodeId::new(cn as u16), rep_frames);
                stenants.push(ServerTenant { pid: spid, request_paddr, handle });
            }
            let client = Client {
                dir: cdir,
                tenants: ctenants,
                sizes: req_sizes,
                issued: 0,
                completed: 0,
                in_flight: None,
                latencies: Vec::with_capacity(per_client),
                timing: false,
                ensure_ns: 0,
                ensures: 0,
            };
            let server = Server {
                dir: sdir,
                tenants: stenants,
                sizes: rep_sizes,
                replied: 0,
                timing: false,
                ensure_ns: 0,
                ensures: 0,
            };
            programs.push(ProgramPlan { node: cn, program: Box::new(Timed::new(client)) });
            programs.push(ProgramPlan { node: sn, program: Box::new(Timed::new(server)) });
        }
        Serving { mc, programs, windows, requests: (pairs * per_client) as u64, bytes }
    }

    /// Rewinds every program to the start of a round (the NIPT directories
    /// keep their state, like the kernel would) and sets timing.
    fn rewind(&mut self, timing: bool) {
        for pp in &mut self.programs {
            let any = pp.program.as_any_mut();
            if let Some(c) = any.downcast_mut::<Timed<Client>>() {
                c.timing = timing;
                let c = &mut c.inner;
                (c.issued, c.completed, c.in_flight, c.timing) = (0, 0, None, timing);
                c.latencies.clear();
            } else if let Some(s) = any.downcast_mut::<Timed<Server>>() {
                s.timing = timing;
                (s.inner.replied, s.inner.timing) = (0, timing);
            }
        }
    }

    /// Runs one round and returns it with the answered requests'
    /// latencies folded into `lat` (when given).
    fn run_round(
        &mut self,
        mut spans: Option<&mut Spans>,
        mut lat: Option<&mut Vec<u64>>,
    ) -> Round {
        self.rewind(spans.is_some());
        let t0 = Instant::now();
        let result = self.mc.run_programs(&mut self.programs, 1);
        let wall_ns = ns_since(t0);
        let mut answered = 0;
        for pp in &mut self.programs {
            let any = pp.program.as_any_mut();
            if let Some(c) = any.downcast_mut::<Timed<Client>>() {
                answered += c.inner.completed as u64;
                if let Some(lat) = lat.as_deref_mut() {
                    lat.extend_from_slice(&c.inner.latencies);
                }
                if let Some(spans) = spans.as_deref_mut() {
                    c.drain_into(spans);
                    spans.ensure_ns += std::mem::take(&mut c.inner.ensure_ns);
                    spans.ensures += std::mem::take(&mut c.inner.ensures);
                }
            } else if let Some(s) = any.downcast_mut::<Timed<Server>>() {
                if let Some(spans) = spans.as_deref_mut() {
                    s.drain_into(spans);
                    spans.ensure_ns += std::mem::take(&mut s.inner.ensure_ns);
                    spans.ensures += std::mem::take(&mut s.inner.ensures);
                }
            }
        }
        // A request counts as two messages: the request and its reply.
        let attempted = 2 * self.requests;
        let failed = if result.is_ok() { 2 * (self.requests - answered) } else { attempted };
        if let Some(spans) = spans {
            spans.wall_ns += wall_ns;
            spans.msgs += attempted - failed;
            spans.rounds += 1;
            spans.epochs += result.as_ref().map_or(0, |r| r.epochs);
            spans.add_phases(&self.mc);
        }
        Round { attempted, failed, bytes: if failed == 0 { self.bytes } else { 0 } }
    }
}

impl Workload for Serving {
    fn mc(&mut self) -> &mut Multicomputer {
        &mut self.mc
    }

    fn round(&mut self, spans: Option<&mut Spans>) -> Round {
        self.run_round(spans, None)
    }

    fn reference_round(&mut self, spans: Option<&mut Spans>) -> (Round, Vec<u64>) {
        let mut lat = Vec::with_capacity(self.requests as usize);
        let round = self.run_round(spans, Some(&mut lat));
        (round, lat)
    }

    fn senders(&self) -> u64 {
        self.mc.node_count() as u64
    }

    fn window_mismatches(&mut self) -> u64 {
        self.windows.iter().filter(|w| !w.holds(&mut self.mc)).count() as u64
    }

    fn shapes(&mut self) -> Vec<Shape> {
        // Requests only: replies have the same shape from the other side.
        let mut out = Vec::new();
        for pp in &mut self.programs {
            let node = pp.node;
            let Some(c) = pp.program.as_any_mut().downcast_mut::<Timed<Client>>() else {
                continue;
            };
            let c = &c.inner;
            let n = c.tenants.len();
            for (r, &nbytes) in c.sizes.iter().enumerate() {
                let tenant = &c.tenants[r % n];
                out.push(Shape {
                    src: node as u16,
                    dst: node as u16 + 1,
                    pid: tenant.pid,
                    src_va: SRC_VA,
                    dev_page: c.dir.mapping(tenant.handle).dev_page.unwrap_or(0),
                    dev_off: 0,
                    nbytes,
                    repeat: 1,
                });
            }
        }
        out
    }

    fn cross_probe(&mut self, spans: &mut Spans) {
        // The serial driver's two halves on this workload's requests: for
        // each client tenant, ensure its mapping and send one request.
        for pp in &mut self.programs {
            let node = pp.node;
            let Some(c) = pp.program.as_any_mut().downcast_mut::<Timed<Client>>() else {
                continue;
            };
            let c = &mut c.inner;
            for (r, &nbytes) in c.sizes.iter().enumerate().take(c.tenants.len()) {
                let tenant = c.tenants[r];
                let dev_page = c.dir.ensure(tenant.handle, self.mc.node_mut(node));
                let Ok(dev_page) = dev_page else { continue };
                let op = SendOp {
                    pid: tenant.pid,
                    src_va: VirtAddr::new(SRC_VA),
                    dev_page,
                    dev_off: 0,
                    nbytes,
                    class: tenant.class,
                };
                crate::scatter::timed_send(&mut self.mc, node, &op, spans);
            }
        }
    }
}
