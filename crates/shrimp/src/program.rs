//! Reactive traffic programs: per-process workload generators.
//!
//! A [`NodePlan`](crate::NodePlan) is a pre-baked send list — it can say
//! *what* a node sends but never *why*. A [`TrafficProgram`] is the
//! reactive generalization: a deterministic step function that, given the
//! messages delivered to its node and the node's local clock, emits the
//! next [`SendOp`]s. The old static streams become the trivial
//! [`StreamProgram`] (all of its sends on the first step, nothing
//! after), keeping every golden digest valid.
//!
//! Request/reply traffic is one program pair. [`RpcClientProgram`] is a
//! closed-loop tenant mux: it round-robins its tenant processes with one
//! request in flight, so the node context-switches between untrusting
//! address spaces on every send. [`RpcServerProgram`] answers each
//! request by its exact landing address. Every route of either program
//! reaches its peer window through a [`NiptDirectory`] handle, ensured
//! before each send: a fixed mapping is a directory entry that is never
//! evicted, and a demand-paged one under NIPT churn takes the same path.
//!
//! # Determinism rules
//!
//! Programs run inside both engine instantiations of
//! [`Multicomputer::run_programs`](crate::Multicomputer::run_programs),
//! so their behavior must be a pure function of the simulated timeline:
//!
//! 1. **The initial step.** Every program is stepped once with an empty
//!    inbox before the epoch loop starts. Open-loop traffic (streams,
//!    fire-and-forget bursts) is emitted here, and the emission count
//!    seeds the deterministic windows-per-crossing schedule exactly as
//!    a [`NodePlan`] of the same depth would.
//! 2. **Delivery-driven after that.** A program is stepped again only at
//!    an epoch boundary at which its node received deliveries — the
//!    inbox passed to [`TrafficProgram::step`] is never empty after the
//!    initial step. Emissions are therefore *reply injections*, ordered
//!    by the engine's deterministic commit order, so the timeline (and
//!    `state_digest`, and trace bytes) is bit-identical at any thread
//!    count.
//! 3. **Node-local state only.** `step` gets mutable access to its own
//!    node (so a tenant mux can context-switch processes or re-import a
//!    NIPT mapping mid-run) but can never see another node, host time,
//!    or the thread count.
//!
//! [`SendOp`]: crate::SendOp

use std::any::Any;

use shrimp_mem::{PhysAddr, VirtAddr};
use shrimp_net::{NodeId, PacketClass};
use shrimp_os::{Pid, Trap};
use shrimp_sim::{Histogram, SimTime};

use crate::{NiptDirectory, SendOp, ShrimpNode};

/// One delivery surfaced to the destination node's program: the
/// receive-side facts a reactive workload can key on. Collected by the
/// delivery core only for nodes that run a reactive program, and handed
/// to [`TrafficProgram::step`] in commit order at the next epoch
/// boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeliveryEvent {
    /// The sending node.
    pub src: NodeId,
    /// Where the payload landed in this node's physical memory.
    pub dst_paddr: PhysAddr,
    /// Payload length.
    pub bytes: u32,
    /// When the receive-side EISA DMA completed.
    pub done: SimTime,
    /// The §7 priority class the packet travelled under.
    pub class: PacketClass,
}

/// A reactive traffic source for one node: see the module docs for the
/// determinism rules every implementation must follow.
pub trait TrafficProgram: Send {
    /// Whether the program may emit sends *after* the initial step (in
    /// reaction to deliveries). Return `false` for purely static traffic
    /// — the engine then skips the reactive horizon machinery entirely
    /// and runs the exact legacy epoch schedule.
    fn reactive(&self) -> bool {
        true
    }

    /// A hint for the windows-per-crossing schedule: roughly how many
    /// sends the program expects to emit after the initial step. Zero
    /// (the default) is always safe — it only makes later windows
    /// smaller, never incorrect.
    fn planned_hint(&self) -> usize {
        0
    }

    /// Emits the next sends into `out`, given everything delivered to
    /// this node since the last step. Called once with an empty `inbox`
    /// before the run starts, then only at epoch boundaries at which
    /// deliveries arrived. A trap finishes the node's traffic for the
    /// run and surfaces from `run_programs` like a mid-plan kernel trap.
    ///
    /// # Errors
    ///
    /// Any kernel [`Trap`] raised by node operations performed inside
    /// the step (tenant context switches, demand NIPT re-imports, …).
    fn step(
        &mut self,
        node: &mut ShrimpNode,
        inbox: &[DeliveryEvent],
        out: &mut Vec<SendOp>,
    ) -> Result<(), Trap>;

    /// Whether the program has emitted everything it ever will. A run
    /// terminates when every program is finished and the fabric is
    /// drained; an unfinished program whose replies never arrive simply
    /// stops making progress (the run still terminates — nothing is
    /// left that could move the clock).
    fn finished(&self) -> bool;

    /// Downcast support, so callers can recover workload-specific state
    /// (latency histograms, counters) from the boxed program after a
    /// run: `program.as_any_mut().downcast_mut::<MyProgram>()`.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// A program paired with the node it runs on — the reactive analogue of
/// [`NodePlan`](crate::NodePlan). At most one program per node.
pub struct ProgramPlan {
    /// Which node runs the program.
    pub node: usize,
    /// The traffic program. The engine borrows it for the run and hands
    /// it back (stepped to its final state) when the run returns.
    pub program: Box<dyn TrafficProgram>,
}

/// The trivial program: a static send list, emitted whole on the initial
/// step. [`Multicomputer::run`](crate::Multicomputer::run) wraps every
/// [`NodePlan`](crate::NodePlan) in one of these — the legacy path is
/// literally this special case.
#[derive(Clone, Debug)]
pub struct StreamProgram {
    ops: Vec<SendOp>,
    emitted: bool,
}

impl StreamProgram {
    /// A program that emits `ops` in order on the initial step.
    pub fn new(ops: Vec<SendOp>) -> Self {
        StreamProgram { ops, emitted: false }
    }
}

impl TrafficProgram for StreamProgram {
    fn reactive(&self) -> bool {
        false
    }

    fn step(
        &mut self,
        _node: &mut ShrimpNode,
        _inbox: &[DeliveryEvent],
        out: &mut Vec<SendOp>,
    ) -> Result<(), Trap> {
        if !self.emitted {
            if out.is_empty() {
                // The initial step lands in a fresh buffer: hand over the
                // storage instead of copying (the legacy `run` path then
                // allocates nothing per node beyond the box itself).
                std::mem::swap(out, &mut self.ops);
            } else {
                out.extend_from_slice(&self.ops);
                self.ops.clear();
            }
            self.emitted = true;
        }
        Ok(())
    }

    fn finished(&self) -> bool {
        self.emitted
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The placeholder the engine swaps into a [`ProgramPlan`] while it owns
/// the real program (and the restore target if a caller inspects a plan
/// mid-run). Emits nothing, is always finished.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct NullProgram;

impl TrafficProgram for NullProgram {
    fn reactive(&self) -> bool {
        false
    }

    fn step(
        &mut self,
        _node: &mut ShrimpNode,
        _inbox: &[DeliveryEvent],
        _out: &mut Vec<SendOp>,
    ) -> Result<(), Trap> {
        Ok(())
    }

    fn finished(&self) -> bool {
        true
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// One tenant flow of an RPC program: on a client, a tenant's requests;
/// on a server, the replies that answer that tenant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RpcRoute {
    /// The local process that sends on this flow.
    pub pid: Pid,
    /// [`NiptDirectory`] handle of the peer window the flow sends into.
    pub handle: usize,
    /// Exact local physical address the flow's inbound messages land
    /// at: the replies on a client, the requests on a server.
    pub landing: PhysAddr,
    /// The §7 priority class of the flow's sends.
    pub class: PacketClass,
}

/// The send side both RPC programs share: routes, the directory their
/// handles index, and the payload every send carries.
#[derive(Debug)]
struct RpcEnd {
    dir: NiptDirectory,
    routes: Vec<RpcRoute>,
    /// Every send moves `nbytes` from `src_va` of the route's process.
    src_va: VirtAddr,
    nbytes: u64,
}

impl RpcEnd {
    /// Emits route `r`'s send after demand-ensuring its mapping: one
    /// NIPT probe when the slot run survived, the revoke + reimport
    /// kernel path when another tenant recycled it.
    fn send(&mut self, r: usize, node: &mut ShrimpNode, out: &mut Vec<SendOp>) -> Result<(), Trap> {
        let route = self.routes[r];
        let dev_page = self.dir.ensure(route.handle, node)?;
        out.push(SendOp {
            pid: route.pid,
            src_va: self.src_va,
            dev_page,
            dev_off: 0,
            nbytes: self.nbytes,
            class: route.class,
        });
        Ok(())
    }
}

/// A closed-loop multi-tenant RPC client: round-robins its tenant
/// routes with one request in flight. Every send names its tenant's
/// process, so the engine context-switches the node (firing the I1
/// Inval) between untrusting address spaces; with more tenants than
/// NIPT slots, every ensure can evict and refault. A reply matches by
/// the in-flight tenant's exact landing address, and its latency — issue
/// instant to reply EISA-DMA completion — lands in a [`Histogram`].
#[derive(Debug)]
pub struct RpcClientProgram {
    end: RpcEnd,
    /// Requests to issue across all tenants.
    requests: usize,
    issued: usize,
    completed: usize,
    /// The outstanding request: `(its reply's landing address, issue
    /// instant)`.
    in_flight: Option<(PhysAddr, SimTime)>,
    latency: Histogram,
}

impl RpcClientProgram {
    /// A client issuing `requests` requests round-robin over `routes`;
    /// each moves `nbytes` from `src_va` of its tenant's process into the
    /// window behind the tenant's `dir` handle.
    ///
    /// # Panics
    ///
    /// Panics when `routes` is empty.
    pub fn new(
        dir: NiptDirectory,
        routes: Vec<RpcRoute>,
        src_va: VirtAddr,
        nbytes: u64,
        requests: usize,
    ) -> Self {
        assert!(!routes.is_empty(), "an RPC client needs a tenant");
        RpcClientProgram {
            end: RpcEnd { dir, routes, src_va, nbytes },
            requests,
            issued: 0,
            completed: 0,
            in_flight: None,
            latency: Histogram::new(),
        }
    }

    /// Replies received so far.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// The request-latency histogram (issue instant → reply delivery).
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }
}

impl TrafficProgram for RpcClientProgram {
    fn planned_hint(&self) -> usize {
        self.requests.saturating_sub(1)
    }

    fn step(
        &mut self,
        node: &mut ShrimpNode,
        inbox: &[DeliveryEvent],
        out: &mut Vec<SendOp>,
    ) -> Result<(), Trap> {
        if let Some((landing, issued_at)) = self.in_flight {
            if let Some(ev) = inbox.iter().find(|ev| ev.dst_paddr == landing) {
                self.latency.record(ev.done.saturating_duration_since(issued_at).as_nanos());
                self.completed += 1;
                self.in_flight = None;
            }
        }
        if self.in_flight.is_none() && self.issued < self.requests {
            let t = self.issued % self.end.routes.len();
            // The ensure may run the kernel, so the issue instant is read
            // after it.
            self.end.send(t, node, out)?;
            self.in_flight = Some((self.end.routes[t].landing, node.os().machine().now()));
            self.issued += 1;
        }
        Ok(())
    }

    fn finished(&self) -> bool {
        self.completed >= self.requests
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// An RPC server: answers each delivery that lands exactly at a route's
/// landing address with that route's reply, and ignores the rest. Each
/// route keeps its own class; servers typically reply
/// [`PacketClass::System`] (the §7 priority a server issues on a
/// tenant's behalf).
#[derive(Debug)]
pub struct RpcServerProgram {
    /// Routes are scanned linearly: a handful of tenants per node, and
    /// no hash map on the data path (D1).
    end: RpcEnd,
    /// Requests this program will answer before it is finished.
    expected: usize,
    replied: usize,
}

impl RpcServerProgram {
    /// A server answering `expected` requests; each reply moves `nbytes`
    /// from `src_va` of the route's process into the window behind the
    /// route's `dir` handle.
    pub fn new(
        dir: NiptDirectory,
        routes: Vec<RpcRoute>,
        src_va: VirtAddr,
        nbytes: u64,
        expected: usize,
    ) -> Self {
        RpcServerProgram { end: RpcEnd { dir, routes, src_va, nbytes }, expected, replied: 0 }
    }

    /// Requests answered so far.
    pub fn replied(&self) -> usize {
        self.replied
    }
}

impl TrafficProgram for RpcServerProgram {
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
            if let Some(r) = self.end.routes.iter().position(|r| r.landing == ev.dst_paddr) {
                self.end.send(r, node, out)?;
                self.replied += 1;
            }
        }
        Ok(())
    }

    fn finished(&self) -> bool {
        self.replied >= self.expected
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
