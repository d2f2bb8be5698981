//! Reactive traffic programs: per-process workload generators.
//!
//! A [`NodePlan`](crate::NodePlan) is a pre-baked send list — it can say
//! *what* a node sends but never *why*. A [`TrafficProgram`] is the
//! reactive generalization: a deterministic step function that, given the
//! messages delivered to its node and the node's local clock, emits the
//! next [`SendOp`]s. That is enough to express open- and closed-loop RPC
//! clients, servers that reply to requests, multi-tenant muxes that
//! context-switch between processes — and the old static streams, which
//! become the trivial [`StreamProgram`] (all of its sends on the first
//! step, nothing after), keeping every golden digest valid.
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

use shrimp_mem::PhysAddr;
use shrimp_net::{NodeId, PacketClass};
use shrimp_os::Trap;
use shrimp_sim::{Histogram, SimTime};

use crate::{SendOp, ShrimpNode};

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

/// A request/response client: issues `requests` identical requests and
/// matches each reply by its landing address. Closed-loop by default
/// (one outstanding request; the reply triggers the next), or open-loop
/// (`pipeline = true`: every request issued on the initial step,
/// replies matched first-in-first-out). Request latency — issue instant
/// to reply EISA-DMA completion — lands in a [`Histogram`].
#[derive(Debug)]
pub struct RpcClientProgram {
    /// The request send, reissued verbatim for every request.
    request: SendOp,
    /// Total requests to issue.
    requests: usize,
    /// Physical base of the region replies land in.
    reply_paddr: PhysAddr,
    /// Length of the reply region.
    reply_bytes: u64,
    /// Open loop when true: all requests up front.
    pipeline: bool,
    issued: usize,
    completed: usize,
    /// Issue instants of not-yet-answered requests, oldest first
    /// (closed-loop keeps at most one).
    in_flight: std::collections::VecDeque<SimTime>,
    latency: Histogram,
}

impl RpcClientProgram {
    /// A closed-loop client: one outstanding request at a time.
    pub fn closed_loop(
        request: SendOp,
        requests: usize,
        reply_paddr: PhysAddr,
        reply_bytes: u64,
    ) -> Self {
        RpcClientProgram {
            request,
            requests,
            reply_paddr,
            reply_bytes,
            pipeline: false,
            issued: 0,
            completed: 0,
            in_flight: std::collections::VecDeque::with_capacity(1),
            latency: Histogram::new(),
        }
    }

    /// An open-loop client: every request issued on the initial step.
    pub fn open_loop(
        request: SendOp,
        requests: usize,
        reply_paddr: PhysAddr,
        reply_bytes: u64,
    ) -> Self {
        RpcClientProgram {
            pipeline: true,
            in_flight: std::collections::VecDeque::with_capacity(requests),
            ..Self::closed_loop(request, requests, reply_paddr, reply_bytes)
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

    fn is_reply(&self, ev: &DeliveryEvent) -> bool {
        let base = self.reply_paddr.raw();
        let p = ev.dst_paddr.raw();
        p >= base && p < base + self.reply_bytes
    }
}

impl TrafficProgram for RpcClientProgram {
    fn planned_hint(&self) -> usize {
        if self.pipeline {
            0
        } else {
            self.requests.saturating_sub(1)
        }
    }

    fn step(
        &mut self,
        node: &mut ShrimpNode,
        inbox: &[DeliveryEvent],
        out: &mut Vec<SendOp>,
    ) -> Result<(), Trap> {
        for ev in inbox {
            if self.is_reply(ev) {
                if let Some(issued_at) = self.in_flight.pop_front() {
                    self.latency.record(ev.done.saturating_duration_since(issued_at).as_nanos());
                    self.completed += 1;
                }
            }
        }
        let now = node.os().machine().now();
        let batch = if self.pipeline {
            self.requests - self.issued
        } else {
            usize::from(self.in_flight.is_empty() && self.issued < self.requests)
        };
        for _ in 0..batch {
            out.push(self.request);
            self.in_flight.push_back(now);
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

/// A request/response server: watches a request region and answers each
/// delivery that lands in it with the reply send routed by the request's
/// exact landing address. Replies typically travel [`PacketClass::System`]
/// (the §7 priority a server issues on the tenant's behalf).
#[derive(Debug)]
pub struct RpcServerProgram {
    /// Physical base of the region requests land in.
    request_paddr: PhysAddr,
    /// Length of the request region.
    request_bytes: u64,
    /// `(landing address, reply send)` routes, scanned linearly (a
    /// handful of tenants per node — no hash map on the data path).
    routes: Vec<(PhysAddr, SendOp)>,
    /// Requests this program will serve before it is finished.
    expected: usize,
    replied: usize,
}

impl RpcServerProgram {
    /// A server answering `expected` requests landing in
    /// `[request_paddr, request_paddr + request_bytes)` via `routes`.
    pub fn new(
        request_paddr: PhysAddr,
        request_bytes: u64,
        routes: Vec<(PhysAddr, SendOp)>,
        expected: usize,
    ) -> Self {
        RpcServerProgram { request_paddr, request_bytes, routes, expected, replied: 0 }
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
        _node: &mut ShrimpNode,
        inbox: &[DeliveryEvent],
        out: &mut Vec<SendOp>,
    ) -> Result<(), Trap> {
        let base = self.request_paddr.raw();
        for ev in inbox {
            let p = ev.dst_paddr.raw();
            if p < base || p >= base + self.request_bytes {
                continue;
            }
            if let Some((_, reply)) = self.routes.iter().find(|(at, _)| at.raw() == p) {
                out.push(*reply);
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
