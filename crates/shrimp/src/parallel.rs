//! Conservative parallel execution of deliberate-update workloads.
//!
//! [`Multicomputer::run`] runs a *plan* — per-node lists of UDMA sends —
//! with the nodes split into contiguous blocks, one per shard, advancing
//! in bounded **epochs** synchronized by the fabric's lookahead (one
//! router hop): a node paused at simulated instant `t` cannot make any
//! packet reach a destination's inbound link at or before `t`, so all
//! traffic at or before the minimum paused clock is safe to commit.
//!
//! **The machine is shard 0.** There is no separate parallel send or
//! delivery implementation and, at one thread, no separate state: shard 0
//! borrows the machine's own [`FabricShard`], `SendCore` and
//! `DeliveryCore` (flight recorder included) — the pieces the serial
//! [`Multicomputer::send`] and [`Multicomputer::propagate`] drive — and
//! every shard borrows its block of lanes in place. Only the other shards
//! of a multi-threaded run get copies, split off before the run and
//! folded back after it.
//!
//! Each epoch has two phases. **Execute:** every shard steps the programs
//! on its *wake list* (nodes whose inbox filled last epoch), runs each
//! node on its *active list* for up to `K ·` [`CHUNK`] sends (`K`
//! lookahead windows per barrier crossing, see [`WindowSchedule`]),
//! stages traffic for its own nodes, posts the rest to the owning shard's
//! mailbox, and publishes a bound: the minimum clock of its active nodes.
//! **Commit:** after a barrier, every shard drains its mailboxes and
//! commits every packet at or before the horizon (the minimum bound) in
//! `(link_ready, transfer id)` order; a second barrier keeps next-epoch
//! publications from racing this epoch's horizon reads. An epoch costs
//! the nodes it wakes and the nodes with work, not the machine size. With
//! one thread nothing can cross, so the same loop skips the barriers,
//! frontier and mailboxes: its horizon is its own bound.
//!
//! **Determinism.** The horizon is the minimum over *all* unfinished
//! node clocks — independent of how nodes are assigned to shards — and
//! per-epoch node progress is a fixed span, so the sequence of horizons
//! is a pure function of the plan. Each destination's packets commit in
//! `(link_ready, id)` order with per-destination receive state, so the
//! simulated timeline, receiver memory and trace are **bit-identical at
//! any thread count**, and equal to the serial driver's, which sends,
//! stages and commits through the same code (see `DESIGN.md` §6b).

use shrimp_mem::VirtAddr;
use shrimp_net::{FabricShard, PacketClass, Staged};
use shrimp_os::{Pid, UdmaXferResult};
use shrimp_sim::{ExchangeGrid, FlightRecorder, Histogram, SimTime, SpinBarrier, TimeFrontier};

use crate::engine::{DeliveryCore, Lane, LaneList, SendCore};
use crate::program::{NullProgram, ProgramPlan, StreamProgram, TrafficProgram};
use crate::{Multicomputer, ShrimpError};

/// Sends a node executes per epoch. Fixed (never derived from the thread
/// count or the host) so epoch boundaries are identical at any
/// parallelism — though the *timeline* would not change anyway: the
/// chunk size only sets how much traffic defers to the next commit.
/// Small enough that the deferred payload window stays cache-resident
/// (large chunks collapse host throughput: every payload is written,
/// aged out of cache, then re-read at commit), large enough to amortize
/// the two barriers. 16 measured best on the `host_throughput` sweep.
const CHUNK: usize = 16;

/// Upper bound on windows executed per barrier crossing. Deep plans run
/// `MAX_EPOCH_WINDOWS · CHUNK` sends between barriers, cutting
/// barrier/frontier traffic (and run-calibration overhead — longer
/// windows mean longer replayed trains) by up to this factor: 64 windows
/// (1024 sends per node between barriers) measured best on the
/// 64–1024-node `host_throughput` rows.
pub const MAX_EPOCH_WINDOWS: usize = 64;

/// Deterministic windows-per-crossing schedule.
///
/// Every shard carries a copy and calls [`WindowSchedule::next`]
/// exactly once per epoch, so all shards agree on the span without
/// communicating. The schedule is a pure function of the *initial plan
/// shape* and the optional forced override — never of execution outcomes
/// or the thread count — so the epoch boundaries, and with them the whole
/// timeline, are identical at any parallelism. The prediction
/// deliberately ignores traps: a trapped node finishes its plan early,
/// which only makes a predicted window partially idle, never incorrect.
///
/// One integer is the whole prediction: every node's predicted remainder
/// drops by the same `K · CHUNK` per epoch, and
/// `max(xᵢ ⊖ d) = (max xᵢ) ⊖ d` for saturating subtraction `⊖`, so the
/// deepest node's remainder is all the window count ever reads.
#[derive(Clone, Copy, Debug)]
struct WindowSchedule {
    /// Predicted sends remaining on the deepest node: a plan's op count,
    /// or a program's initial emission plus its
    /// [`TrafficProgram::planned_hint`].
    deepest: usize,
    /// Forced window count ([`Multicomputer::set_epoch_windows`]);
    /// `None` selects adaptively from the deepest remaining plan.
    forced: Option<usize>,
}

impl WindowSchedule {
    /// Window count for the next epoch; advances the prediction.
    fn next(&mut self) -> usize {
        let k = self.forced.unwrap_or(self.deepest.div_ceil(CHUNK)).clamp(1, MAX_EPOCH_WINDOWS);
        self.deepest = self.deepest.saturating_sub(k * CHUNK);
        k
    }
}

/// Host wall-clock nanoseconds per epoch phase, recorded when a phase
/// clock is installed ([`Multicomputer::set_phase_clock`]) and merged
/// across shards after a run. Pure observation of *host* time — the
/// simulated timeline cannot see it. One `execute` sample is recorded
/// per shard per epoch; `barrier` gets two samples per crossing (both
/// waits) and `merge` one. A one-shard run crosses no barrier and merges
/// nothing, so those two stay empty.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Plan execution: sends, NIC drains, staging posts, bound publish.
    pub execute: Histogram,
    /// Barrier waits (the straggler penalty of the crossing).
    pub barrier: Histogram,
    /// Mailbox drain plus staged-queue merge.
    pub merge: Histogram,
    /// Horizon-bounded delivery commit.
    pub commit: Histogram,
}

impl PhaseBreakdown {
    /// Folds another shard's samples into this breakdown.
    pub fn merge_from(&mut self, other: &PhaseBreakdown) {
        self.execute.merge(&other.execute);
        self.barrier.merge(&other.barrier);
        self.merge.merge(&other.merge);
        self.commit.merge(&other.commit);
    }
}

/// Records the nanoseconds since `*mark` into `hist` and re-marks.
/// Cost-free when no phase clock is installed.
#[inline]
fn lap(clock: Option<fn() -> u64>, mark: &mut u64, hist: &mut Histogram) {
    if let Some(c) = clock {
        let now = c();
        hist.record(now.saturating_sub(*mark));
        *mark = now;
    }
}

/// One user-level DMA send in a [`NodePlan`]: the arguments of
/// [`Multicomputer::send`] minus the node index. `PartialEq` lets the
/// engine spot message trains — maximal runs of identical consecutive
/// ops — which are the burst-replay candidates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SendOp {
    /// Sending process.
    pub pid: Pid,
    /// Source buffer virtual address.
    pub src_va: VirtAddr,
    /// Destination device proxy page.
    pub dev_page: u64,
    /// Offset on the proxy page.
    pub dev_off: u64,
    /// Transfer length in bytes.
    pub nbytes: u64,
    /// The §7 priority class the resulting packets travel under
    /// ([`PacketClass::User`] for ordinary data; the engine stamps it
    /// onto every packet the send produces).
    pub class: PacketClass,
}

/// A node's share of a parallel workload.
#[derive(Clone, Debug)]
pub struct NodePlan {
    /// Which node runs the ops.
    pub node: usize,
    /// Sends, executed in order.
    pub ops: Vec<SendOp>,
}

/// What a parallel run did (observability; identical at any thread count).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParallelReport {
    /// Epochs until every plan drained.
    pub epochs: u64,
    /// Sends executed.
    pub messages: u64,
    /// Packets exchanged through the fabric.
    pub packets: u64,
}

/// A node's state for one run, kept beside its [`Lane`]: the
/// emitted-so-far send list and the traffic program that grows it
/// (absent for nodes that only receive).
#[derive(Default)]
struct NodeRun {
    /// Sends emitted so far: the whole plan up front for a stream, a
    /// growing log for a reactive program (`next` walks it; emitted ops
    /// are never revisited, so the log doubles as the run's op history).
    ops: Vec<SendOp>,
    next: usize,
    /// The node's traffic program, if any (stepped at epoch boundaries
    /// at which deliveries arrived).
    program: Option<Box<dyn TrafficProgram>>,
    /// A kernel trap finished this node's traffic for the run: its
    /// program is no longer stepped, its remaining ops are dropped.
    failed: bool,
}

impl NodeRun {
    /// No ops left to execute *right now* — the node cannot advance its
    /// own clock, so it is excluded from the published bound. A reactive
    /// program may still revive it (deliveries wake it at the next epoch
    /// boundary).
    fn exhausted(&self) -> bool {
        self.next >= self.ops.len()
    }
}

/// The cross-shard synchronization of a multi-threaded run: the epoch
/// barrier, the published bounds and the mailboxes. A one-shard run has
/// none of it.
#[derive(Clone, Copy)]
struct Crossing<'a> {
    barrier: &'a SpinBarrier,
    frontier: &'a TimeFrontier,
    grid: &'a ExchangeGrid<Staged>,
}

/// One worker's block of the machine: its lanes and their run state, the
/// fabric shard that stages the traffic addressed to them, and the send
/// and delivery cores. Shard 0 borrows the machine's own fabric shard and
/// cores; the other shards of a multi-threaded run own copies.
struct Shard<'a> {
    id: usize,
    /// Global index of `lanes[0]`: node `g` is local index `g - base`.
    base: usize,
    lanes: &'a mut [Lane],
    nodes: &'a mut [NodeRun],
    /// Local indices of the nodes with ops left to execute
    /// (`!exhausted()`), ascending: the nodes the execute sweep and the
    /// bound visit.
    active: LaneList,
    fabric: &'a mut FabricShard,
    core: &'a mut DeliveryCore,
    sender: &'a mut SendCore,
    /// Scratch: mailbox drain target (unused, and empty, at one thread).
    incoming: Vec<Staged>,
    /// This shard's clone of the global windows-per-crossing schedule.
    schedule: WindowSchedule,
    /// Whether any program in the run (on *any* shard) is reactive: the
    /// shard then publishes the reactive bound — node clocks *plus*
    /// staged/posted traffic — so replies injected next epoch can never
    /// land behind the horizon. All-static runs publish the legacy
    /// clock-only bound and reproduce the legacy epochs exactly.
    reactive: bool,
    /// Host phase clock (`None` = phase timing off).
    clock: Option<fn() -> u64>,
    /// Host-time samples per epoch phase (empty when `clock` is `None`).
    phases: PhaseBreakdown,
    epochs: u64,
    messages: u64,
    /// Program steps (and inbox clears), chunk executions and bound
    /// reads: the per-node work the epochs cost.
    visits: u64,
    /// Trapped nodes: `(global index, error)`. A trap finishes that
    /// node's plan; the run keeps going and reports the error at the end.
    errors: Vec<(usize, ShrimpError)>,
}

impl Shard<'_> {
    /// The epoch loop. `crossing` is the synchronization with the other
    /// shards; a one-shard run passes `None`, and its horizon is then its
    /// own bound — nothing is posted, drained or waited for.
    // lint:hot_path
    fn run(&mut self, crossing: Option<Crossing<'_>>) {
        let clock = self.clock;
        let mut mark = clock.map_or(0, |c| c());
        loop {
            self.epochs += 1;
            // Execute phase: K lookahead windows' worth of sends per
            // active node, all paid for with the one barrier crossing
            // below.
            let span = self.schedule.next() * CHUNK;
            if self.reactive {
                self.pump_programs();
            }
            for k in 0..self.active.as_slice().len() {
                self.execute_chunk(self.active.as_slice()[k], span);
            }
            let nodes = &self.nodes;
            self.active.retain(|ni| !nodes[ni].exhausted());
            let bound = self.publish_bound();
            self.sender.posted_min = None;
            if let Some(x) = crossing {
                for (dst, batch) in self.sender.staging.iter_mut().enumerate() {
                    x.grid.post_batch(self.id, dst, batch);
                }
                x.frontier.publish(self.id, bound);
            }
            lap(clock, &mut mark, &mut self.phases.execute);

            // Commit phase. The horizon is only meaningful between the
            // two barriers: every shard has published, none has moved on.
            // A one-shard run crosses no barrier and merges nothing, so
            // it laps neither phase.
            let horizon = match crossing {
                Some(x) => {
                    x.barrier.wait();
                    lap(clock, &mut mark, &mut self.phases.barrier);
                    x.grid.drain_to(self.id, &mut self.incoming);
                    for e in self.incoming.drain(..) {
                        self.fabric.stage(e);
                    }
                    let horizon = x.frontier.horizon();
                    lap(clock, &mut mark, &mut self.phases.merge);
                    horizon
                }
                None => bound,
            };
            // An epoch commits exactly the packets due by its horizon, the
            // same set at any sharding, and every one of them before any
            // later epoch's; kept by merge key at each commit's close, the
            // recorder holds the newest spans by key, whichever shard
            // recorded them.
            self.core.commit_due(self.fabric, self.lanes, self.base, horizon);
            lap(clock, &mut mark, &mut self.phases.commit);
            if let Some(x) = crossing {
                x.barrier.wait();
                lap(clock, &mut mark, &mut self.phases.barrier);
            }

            // A `None` horizon means every shard was exhausted when it
            // published, so this commit drained everything in flight.
            if horizon.is_none() {
                debug_assert!(
                    self.fabric.staged_len() == 0,
                    "final commit must drain the staged queue"
                );
                return;
            }
        }
    }

    /// Steps every reactive-era program whose node received deliveries
    /// last epoch (the inbox its lane collected in commit order), letting
    /// it append reply sends for this epoch's execute sweep. Only the
    /// wake list is walked, in ascending node order: programs are
    /// delivery-driven after their initial step — a node with an empty
    /// inbox stays dormant, exactly as the bound it was excluded from
    /// assumed. A node whose step emits ops joins the active list. A
    /// trap in a step finishes the node's traffic like a mid-plan kernel
    /// trap.
    // lint:hot_path
    fn pump_programs(&mut self) {
        self.core.woken.sort();
        let mut joined = false;
        for &g in self.core.woken.as_slice() {
            self.visits += 1;
            let ni = g - self.base;
            let (sn, lane) = (&mut self.nodes[ni], &mut self.lanes[ni]);
            let Some(program) = sn.program.as_mut() else {
                lane.inbox.clear();
                continue;
            };
            if sn.failed || program.finished() {
                lane.inbox.clear();
                continue;
            }
            let was_active = sn.next < sn.ops.len();
            let result = program.step(&mut lane.node, &lane.inbox, &mut sn.ops);
            lane.inbox.clear();
            if let Err(trap) = result {
                // lint:allow(A1) -- a trap is terminal for the node's
                // traffic: the cold error path, never the steady state.
                self.errors.push((g, trap.into()));
                sn.failed = true;
                sn.next = sn.ops.len();
            } else if !was_active && !sn.exhausted() {
                self.active.add(ni);
                joined = true;
            }
        }
        self.core.woken.clear();
        if joined {
            self.active.sort();
        }
    }

    /// The bound this shard publishes for the crossing. Legacy (all
    /// programs static): the minimum clock of its unexhausted nodes —
    /// the exact pre-program bound, same epochs, same timeline. Reactive:
    /// additionally capped by the earliest staged entry and the earliest
    /// entry this shard's sends produced this epoch, staged locally or
    /// posted (each plus one hop of lookahead), because
    /// a delivery at instant `t` can wake a dormant program whose reply
    /// cannot reach any inbound link before `t + hop` — so committing
    /// through `min + hop` is always safe, wherever in the mesh the
    /// waiting node and the pending traffic live. Only the active list is
    /// read: it holds exactly the unexhausted nodes.
    // lint:hot_path
    fn publish_bound(&mut self) -> Option<SimTime> {
        let active = self.active.as_slice();
        self.visits += active.len() as u64;
        let mut bound = active.iter().map(|&ni| self.lanes[ni].node.os().machine().now()).min();
        if self.reactive {
            let lookahead = self.fabric.lookahead();
            for t in [self.fabric.next_staged(), self.sender.posted_min].into_iter().flatten() {
                let capped = t + lookahead;
                bound = Some(bound.map_or(capped, |b| b.min(capped)));
            }
        }
        bound
    }

    /// Runs up to `span` sends of node `ni` (the crossing's
    /// `K ·` [`CHUNK`] window), staging its packets. Maximal runs of
    /// identical consecutive ops (length ≥ 3) are burst candidates: two
    /// literal sends calibrate, the rest may replay as one run through
    /// [`SendCore::replay`]; replayed or not, the next op is re-detected
    /// from the new position. Runs never cross the window, so epoch
    /// boundaries — and hence the timeline — are the same whether or not
    /// batching engages.
    // lint:hot_path
    fn execute_chunk(&mut self, ni: usize, span: usize) {
        self.visits += 1;
        let end = (self.nodes[ni].next + span).min(self.nodes[ni].ops.len());
        while self.nodes[ni].next < end {
            let sn = &self.nodes[ni];
            let op = sn.ops[sn.next];
            let mut runlen = 1;
            while sn.next + runlen < end && sn.ops[sn.next + runlen] == op {
                runlen += 1;
            }
            let Some(r0) = self.execute_one(ni, &op) else { return };
            if runlen < 3 {
                continue;
            }
            let first = (r0, self.lanes[ni].node.os().machine().now());
            let Some(r1) = self.execute_one(ni, &op) else { return };
            let count = runlen - 2;
            let node = &mut self.lanes[ni].node;
            if self.sender.replay(node, self.fabric, &op, first, r1, count as u64) {
                self.nodes[ni].next += count;
                self.messages += count as u64;
            }
        }
    }

    /// Runs one literal send of `op` on node `ni` through the shared
    /// [`SendCore::send`]. Returns `None` after a kernel trap (which
    /// finishes the node's plan).
    fn execute_one(&mut self, ni: usize, op: &SendOp) -> Option<UdmaXferResult> {
        let sn = &mut self.nodes[ni];
        sn.next += 1;
        match self.sender.send(&mut self.lanes[ni].node, self.fabric, op) {
            Ok(result) => {
                self.messages += 1;
                Some(result)
            }
            Err(trap) => {
                // lint:allow(A1) -- a trap is terminal for the node's
                // plan: the cold error path, never the steady state.
                self.errors.push((self.base + ni, trap.into()));
                sn.next = sn.ops.len();
                None
            }
        }
    }
}

impl Multicomputer {
    /// Runs `plans` to completion across `threads` worker threads using
    /// conservative epoch synchronization. With `threads = 1` the single
    /// shard is the machine itself, run inline with no thread, barrier,
    /// frontier or mailbox, and nothing is split or merged. Each epoch
    /// visits only the nodes deliveries woke and the nodes with sends
    /// left, so its host cost follows the traffic, not the node count.
    /// The simulated timeline, receiver memory, per-node clocks and
    /// fabric statistics are identical at any thread count (clamped to
    /// the number of equal node blocks, at most `node_count`).
    ///
    /// Quiesces in-flight traffic first; plans for the same node
    /// concatenate in argument order. Empty `plans` are exactly the
    /// serial no-op: one epoch, no messages, state untouched.
    ///
    /// # Errors
    ///
    /// A bad node index fails up front. A kernel trap mid-plan finishes
    /// that node's plan early; the rest of the machine runs to
    /// completion and the trap of the lowest-indexed trapped node is
    /// returned.
    pub fn run(
        &mut self,
        plans: &[NodePlan],
        threads: usize,
    ) -> Result<ParallelReport, ShrimpError> {
        let n = self.lanes.len();
        let mut ops: Vec<Vec<SendOp>> = vec![Vec::new(); n];
        for plan in plans {
            self.check_node(plan.node)?;
            ops[plan.node].extend_from_slice(&plan.ops);
        }
        // The legacy path is literally the trivial program: each node's
        // concatenated plan becomes a stream that emits everything on
        // its initial step and reacts to nothing.
        let mut programs: Vec<ProgramPlan> = ops
            .into_iter()
            .enumerate()
            .filter(|(_, ops)| !ops.is_empty())
            .map(|(node, ops)| ProgramPlan { node, program: Box::new(StreamProgram::new(ops)) })
            .collect();
        self.run_programs(&mut programs, threads)
    }

    /// Runs reactive traffic programs to completion across `threads`
    /// worker threads — the program-driven generalization of
    /// [`Multicomputer::run`] (which is now a wrapper emitting each plan
    /// as a trivial [`StreamProgram`]).
    ///
    /// Each program is stepped once up front (empty inbox) to emit its
    /// opening sends, then re-stepped at every epoch boundary at which
    /// its node received deliveries, with those deliveries surfaced in
    /// commit order. Reply injection is therefore a pure function of the
    /// simulated timeline, and the timeline, `state_digest` and trace
    /// bytes are bit-identical at any thread count. On return every
    /// program is handed back in its final state (for latency histograms
    /// and the like); at most one program per node.
    ///
    /// # Panics
    ///
    /// Panics if two programs name the same node.
    ///
    /// # Errors
    ///
    /// A bad node index fails up front. A kernel trap in a program step
    /// or mid-plan finishes that node's traffic; the rest of the machine
    /// runs to completion and the trap of the lowest-indexed trapped node
    /// is returned.
    pub fn run_programs(
        &mut self,
        programs: &mut [ProgramPlan],
        threads: usize,
    ) -> Result<ParallelReport, ShrimpError> {
        let n = self.lanes.len();
        for pp in programs.iter() {
            self.check_node(pp.node)?;
        }
        self.run_until_quiet();
        let reactive = programs.iter().any(|pp| pp.program.reactive());

        // Borrow the programs for the run (a placeholder keeps each
        // `ProgramPlan` intact) and run every initial step against an
        // empty inbox: opening emissions seed the schedule exactly as
        // plan depths would.
        let mut nodes: Vec<NodeRun> = std::iter::repeat_with(NodeRun::default).take(n).collect();
        let mut errors: Vec<(usize, ShrimpError)> = Vec::new();
        let mut deepest = 0;
        for pp in programs.iter_mut() {
            let node = pp.node;
            let nr = &mut nodes[node];
            assert!(nr.program.is_none(), "node {node} has more than one traffic program");
            let program =
                nr.program.insert(std::mem::replace(&mut pp.program, Box::new(NullProgram)));
            let hint = program.planned_hint();
            let lane = &mut self.lanes[node];
            match program.step(&mut lane.node, &[], &mut nr.ops) {
                Ok(()) => deepest = deepest.max(nr.ops.len() + hint),
                Err(trap) => {
                    errors.push((node, trap.into()));
                    nr.ops.clear();
                    nr.failed = true;
                }
            }
            if reactive {
                lane.collect = true;
                lane.inbox.reserve(2 * CHUNK);
            }
        }
        // Shards own contiguous blocks of `per_shard` nodes (the last may
        // be short); block 0 is the machine's own.
        let per_shard = n.div_ceil(threads.clamp(1, n));
        let threads = n.div_ceil(per_shard);
        // Scratch queues are sized for a full epoch up front so the epoch
        // loop never grows them; at one thread nothing crosses.
        let batch = if threads > 1 { CHUNK * per_shard } else { 0 };
        let since = self.core.recorder.mark();
        let packets_before = self.fabric.counters().packets.get();
        let mut copies: Vec<(FabricShard, DeliveryCore, SendCore)> = Vec::new();
        if threads > 1 {
            copies = self
                .fabric
                .split(threads - 1)
                .into_iter()
                .zip(1..)
                .map(|(fabric, id)| {
                    // Full global capacity per copy: a ring kept in key order
                    // then retains a superset of its share of the merged
                    // newest-capacity window, whatever the sharding.
                    let mut recorder = FlightRecorder::new(self.core.recorder.capacity());
                    recorder.set_enabled(self.core.recorder.is_enabled());
                    let core = DeliveryCore::new(self.core.passive, per_shard, recorder);
                    (fabric, core, SendCore::new(id, per_shard, threads, batch))
                })
                .collect();
        }

        // The windows-per-crossing schedule is fixed by the initial
        // emissions; every shard gets a copy.
        let schedule = WindowSchedule { deepest, forced: self.epoch_windows };
        let clock = self.phase_clock;
        let (lanes, fabric, core, sender) = self.lend(per_shard, threads, batch);
        let cores = std::iter::once((fabric, core, sender))
            .chain(copies.iter_mut().map(|(f, c, s)| (f, c, s)));
        let mut shards: Vec<Shard<'_>> = lanes
            .chunks_mut(per_shard)
            .zip(nodes.chunks_mut(per_shard))
            .zip(cores)
            .enumerate()
            .map(|(id, ((lanes, nodes), (fabric, core, sender)))| {
                let mut active = LaneList::with_room(lanes.len());
                for (ni, _) in nodes.iter().enumerate().filter(|(_, nr)| !nr.exhausted()) {
                    active.add(ni);
                }
                Shard {
                    id,
                    base: id * per_shard,
                    lanes,
                    nodes,
                    active,
                    fabric,
                    core,
                    sender,
                    incoming: Vec::with_capacity(if threads > 1 { CHUNK * n } else { 0 }),
                    schedule,
                    reactive,
                    clock,
                    phases: PhaseBreakdown::default(),
                    epochs: 0,
                    messages: 0,
                    visits: 0,
                    errors: Vec::new(),
                }
            })
            .collect();

        if threads == 1 {
            // The one shard runs inline with no crossing: no thread, no
            // barrier, no frontier, no mailboxes — nothing can cross.
            shards[0].run(None);
        } else {
            // Lanes pre-reserve one window's worth of literal sends per
            // owned node; batch posts then reuse capacity in steady state
            // (runs cross as single entries, so burst mode needs far
            // less, and traffic between a shard's own nodes never
            // crosses).
            let grid = ExchangeGrid::with_lane_capacity(threads, batch);
            let crossing = Crossing {
                barrier: &SpinBarrier::new(threads),
                frontier: &TimeFrontier::new(threads),
                grid: &grid,
            };
            let (first, rest) = shards.split_at_mut(1);
            std::thread::scope(|s| {
                let handles: Vec<_> = rest
                    .iter_mut()
                    .map(|shard| s.spawn(move || shard.run(Some(crossing))))
                    .collect();
                first[0].run(Some(crossing));
                for h in handles {
                    h.join().expect("shard thread panicked");
                }
            });
            debug_assert!(grid.is_empty(), "all exchanged packets must be committed");
        }

        let mut report = ParallelReport::default();
        let (mut phases, mut visits) = (PhaseBreakdown::default(), 0);
        for shard in shards {
            phases.merge_from(&shard.phases);
            report.epochs = report.epochs.max(shard.epochs);
            report.messages += shard.messages;
            visits += shard.visits;
            errors.extend(shard.errors);
        }
        (self.phases, self.last_node_visits) = (phases, visits);
        // Fold the other shards back in; at one thread there are none,
        // and shard 0's spans already sit in merge-key order in the
        // machine's recorder.
        if threads > 1 {
            let (fabrics, cores): (Vec<_>, Vec<_>) =
                copies.into_iter().map(|(fabric, core, _)| (fabric, core)).unzip();
            for core in &cores {
                self.core.counters.merge(&core.counters);
            }
            self.fabric.merge(fabrics, per_shard);
            self.core.recorder.absorb(since, cores.into_iter().map(|c| c.recorder).collect());
        }
        self.lend(n, 1, 0);
        self.core.woken.clear();
        for lane in &mut self.lanes {
            lane.collect = false;
            lane.inbox.clear();
        }
        for pp in programs.iter_mut() {
            if let Some(program) = nodes[pp.node].program.take() {
                pp.program = program;
            }
        }
        // Every member of a run counts, as do packets dropped for naming
        // a node outside the machine.
        report.packets = self.fabric.counters().packets.get() - packets_before;
        self.last_epochs = report.epochs;
        match errors.into_iter().min_by_key(|&(node, _)| node) {
            Some((_, error)) => Err(error),
            None => Ok(report),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MulticomputerConfig;
    use shrimp_os::Trap;

    /// An `n`-node machine with disjoint sender→receiver pairs
    /// (`2p → 2p+1`) and a plan of `msgs` sends of `bytes` bytes per pair.
    fn paired_stream(n: u16, msgs: usize, bytes: u64) -> (Multicomputer, Vec<NodePlan>) {
        let mut mc = Multicomputer::new(n, MulticomputerConfig::default());
        let mut plans = Vec::new();
        for p in 0..(n as usize / 2) {
            let (s, r) = (2 * p, 2 * p + 1);
            let spid = mc.spawn_process(s);
            let rpid = mc.spawn_process(r);
            mc.map_user_buffer(s, spid, 0x10_0000, 2).unwrap();
            mc.map_user_buffer(r, rpid, 0x40_0000, 2).unwrap();
            let dev = mc.export(r, rpid, VirtAddr::new(0x40_0000), 2, s, spid).unwrap();
            let fill: Vec<u8> = (0..bytes).map(|i| (i as u8) ^ (s as u8)).collect();
            mc.write_user(s, spid, VirtAddr::new(0x10_0000), &fill).unwrap();
            plans.push(NodePlan {
                node: s,
                ops: vec![
                    SendOp {
                        pid: spid,
                        src_va: VirtAddr::new(0x10_0000),
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

    /// Timeline fingerprint: every node clock, delivery time and EISA
    /// state, plus fabric counters.
    fn fingerprint(mc: &Multicomputer) -> Vec<u64> {
        let mut v = Vec::new();
        for i in 0..mc.node_count() {
            v.push(mc.node(i).os().machine().now().as_nanos());
            v.push(mc.last_delivery(i).as_nanos());
        }
        v.push(mc.fabric().counters().packets.get());
        v.push(mc.fabric().counters().payload_bytes.get());
        v.push(mc.dropped_packets());
        v
    }

    /// The commit phase's merge queue is the shard's staged fabric, gated
    /// by the frontier horizon: a packet past the minimum published bound
    /// stays staged until every shard is exhausted.
    #[test]
    fn merge_queue_respects_horizon() {
        use shrimp_mem::PhysAddr;
        use shrimp_net::{Commit, Interconnect, LinkParams, NodeId, Packet, Staged};
        use shrimp_sim::XferId;

        let mut net = Interconnect::new(2, LinkParams::default());
        let shard = net.shard_mut();
        for (seq, at) in [(0u64, 5u64), (1, 15)] {
            let mut p = Packet::new(NodeId::new(0), NodeId::new(1), PhysAddr::new(0), vec![0; 8]);
            p.meta.id = XferId::new(0, seq);
            p.meta.link_ready = SimTime::from_nanos(at);
            shard.stage(Staged::One(p));
        }
        let committed = |shard: &mut FabricShard, horizon| match shard.commit_next(horizon)? {
            Commit::One { packet, .. } => Some(packet.meta.id.seq()),
            Commit::Run { .. } => None,
        };

        let frontier = TimeFrontier::new(2);
        frontier.publish(0, Some(SimTime::from_nanos(20)));
        frontier.publish(1, Some(SimTime::from_nanos(10)));
        assert_eq!(committed(shard, frontier.horizon()), Some(0), "early packet commits");
        assert_eq!(committed(shard, frontier.horizon()), None, "late packet is beyond");
        assert_eq!(shard.next_staged(), Some(SimTime::from_nanos(15)));
        frontier.publish(0, None);
        frontier.publish(1, None);
        assert_eq!(committed(shard, frontier.horizon()), Some(1));
        assert_eq!(shard.staged_len(), 0);
    }

    /// A phase clock that ticks once per read, so every lap records one
    /// sample of 1 ns.
    fn tick() -> u64 {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NOW: AtomicU64 = AtomicU64::new(0);
        NOW.fetch_add(1, Ordering::Relaxed)
    }

    #[test]
    fn the_ledger_laps_only_phases_that_run() {
        for threads in [1usize, 2] {
            let (mut mc, plans) = paired_stream(4, 40, 256);
            mc.set_phase_clock(Some(tick));
            mc.run(&plans, threads).unwrap();
            let p = mc.phase_breakdown();
            assert!(p.execute.count() > 0 && p.commit.count() > 0, "t={threads}");
            if threads == 1 {
                assert_eq!(p.barrier.count(), 0, "one shard crosses no barrier");
                assert_eq!(p.merge.count(), 0, "one shard merges nothing");
            } else {
                assert!(p.barrier.count() > 0, "t={threads} crosses barriers");
            }
        }
    }

    #[test]
    fn thread_counts_cannot_change_the_timeline() {
        let mut prints = Vec::new();
        for threads in [1usize, 2, 3, 4] {
            let (mut mc, plans) = paired_stream(8, 40, 1024);
            let report = mc.run(&plans, threads).unwrap();
            assert_eq!(report.messages, 4 * 40);
            prints.push((fingerprint(&mc), report));
        }
        for (p, r) in &prints[1..] {
            assert_eq!(p, &prints[0].0, "timeline must be thread-count independent");
            assert_eq!(r, &prints[0].1, "report must be thread-count independent");
        }
    }

    #[test]
    fn parallel_matches_serial_driver_on_streams() {
        let msgs = 30;
        let (mut serial, plans) = paired_stream(4, msgs, 512);
        let (mut par, _) = paired_stream(4, msgs, 512);
        for plan in &plans {
            for op in &plan.ops {
                serial
                    .send(plan.node, op.pid, op.src_va, op.dev_page, op.dev_off, op.nbytes)
                    .unwrap();
            }
        }
        serial.run_until_quiet();
        par.run(&plans, 2).unwrap();
        assert_eq!(fingerprint(&par), fingerprint(&serial));
        // Receiver memory matches too.
        for r in [1usize, 3] {
            let pid = Pid::new(1);
            let a = serial.read_user(r, pid, VirtAddr::new(0x40_0000), 512).unwrap();
            let b = par.read_user(r, pid, VirtAddr::new(0x40_0000), 512).unwrap();
            assert_eq!(a, b, "receiver {r} memory diverged");
        }
    }

    #[test]
    fn delivered_data_is_correct() {
        let (mut mc, plans) = paired_stream(2, 5, 2048);
        mc.run(&plans, 2).unwrap();
        let pid = Pid::new(1);
        let got = mc.read_user(1, pid, VirtAddr::new(0x40_0000), 2048).unwrap();
        let want: Vec<u8> = (0..2048u64).map(|i| i as u8).collect();
        assert_eq!(got, want);
        assert_eq!(mc.dropped_packets(), 0);
    }

    #[test]
    fn bad_node_index_is_rejected() {
        let (mut mc, _) = paired_stream(2, 1, 64);
        let err = mc.run(&[NodePlan { node: 9, ops: Vec::new() }], 1).unwrap_err();
        assert_eq!(err, ShrimpError::NoSuchNode(9));
    }

    #[test]
    fn a_nipt_entry_outside_the_machine_drops_at_any_thread_count() {
        // Node 2 of a 4-node machine also maps node 9, which the machine
        // does not have: under the block rule a packet for it would route
        // past the last shard. Each stray send's packet counts as
        // injected and as a fabric drop; the valid sends around it still
        // deliver, identically at every thread count.
        let mut prints = Vec::new();
        for threads in [1usize, 2, 4] {
            let (mut mc, mut plans) = paired_stream(4, 3, 64);
            let (rpid, spid) = (Pid::new(1), plans[1].ops[0].pid);
            mc.map_user_buffer(3, rpid, 0x80_0000, 1).unwrap();
            let frames = mc.node_mut(3).export_pages(rpid, VirtAddr::new(0x80_0000), 1).unwrap();
            let stray = mc
                .node_mut(2)
                .import_mapping(spid, shrimp_net::NodeId::new(9), &frames, 0)
                .unwrap();
            let op = SendOp { dev_page: stray, ..plans[1].ops[0] };
            plans[1].ops.splice(1..1, [op, op]);
            let report = mc.run(&plans, threads).unwrap();
            assert_eq!(report.messages, 8);
            let snap = mc.metrics_snapshot();
            let get = |sub, name| snap.get(sub, name, None).unwrap();
            assert_eq!((get("fabric", "packets"), get("fabric", "drops")), (8, 2));
            assert_eq!(get("delivery", "delivered"), 6);
            let got = mc.read_user(3, rpid, VirtAddr::new(0x40_0000), 64).unwrap();
            assert_eq!(got, (0..64).map(|i| i as u8 ^ 2).collect::<Vec<u8>>());
            prints.push((fingerprint(&mc), mc.state_digest(), report));
        }
        for p in &prints[1..] {
            assert_eq!(p, &prints[0], "timeline must be thread-count independent");
        }
    }

    #[test]
    fn trap_mid_plan_surfaces_after_the_run() {
        let (mut mc, mut plans) = paired_stream(2, 3, 64);
        // Unmapped source address: the kernel traps on the second op.
        plans[0].ops[1].src_va = VirtAddr::new(0xdead_0000);
        let err = mc.run(&plans, 2).unwrap_err();
        assert!(matches!(err, ShrimpError::Trap(Trap::SegFault { .. })), "got {err:?}");
        // Ops before the trap still landed.
        let pid = Pid::new(1);
        let got = mc.read_user(1, pid, VirtAddr::new(0x40_0000), 64).unwrap();
        assert_eq!(got, (0..64).map(|i| i as u8).collect::<Vec<u8>>());
    }

    #[test]
    fn empty_plans_are_the_serial_noop() {
        // The empty workload must behave identically through both entry
        // points: same report at every thread count, same digest as the
        // serial driver's quiesce on an identically built machine.
        let (mut serial, _) = paired_stream(4, 1, 64);
        serial.run_until_quiet();
        let want = serial.state_digest();
        for threads in [1usize, 2, 4] {
            let (mut mc, _) = paired_stream(4, 1, 64);
            let report = mc.run(&[], threads).unwrap();
            assert_eq!(report, ParallelReport { epochs: 1, messages: 0, packets: 0 });
            assert_eq!(mc.state_digest(), want, "empty run diverged at {threads} threads");
        }
    }

    #[test]
    fn programs_reproduce_the_plan_timeline() {
        // A `StreamProgram` per node must be byte-for-byte the plan path
        // (it IS the plan path now, but pin it from the public API too).
        let (mut a, plans) = paired_stream(4, 10, 256);
        let (mut b, _) = paired_stream(4, 10, 256);
        let ra = a.run(&plans, 2).unwrap();
        let mut programs: Vec<ProgramPlan> = plans
            .iter()
            .map(|p| ProgramPlan {
                node: p.node,
                program: Box::new(StreamProgram::new(p.ops.clone())),
            })
            .collect();
        let rb = b.run_programs(&mut programs, 2).unwrap();
        assert_eq!(ra, rb);
        assert_eq!(a.state_digest(), b.state_digest());
        for pp in &programs {
            assert!(pp.program.finished(), "stream on node {} not drained", pp.node);
        }
    }

    /// An `n`-node machine whose first `pairs` node pairs `(2p, 2p + 1)`
    /// run a closed-loop RPC client and its server for `requests`
    /// requests; every other node idles.
    fn rpc_rig(n: u16, pairs: usize, requests: usize) -> (Multicomputer, Vec<ProgramPlan>) {
        use crate::program::{RpcClientProgram, RpcRoute, RpcServerProgram};
        use crate::NiptDirectory;

        let mut mc = Multicomputer::new(n, MulticomputerConfig::default());
        let mut programs = Vec::new();
        for p in 0..pairs {
            let (c, s) = (2 * p, 2 * p + 1);
            let cpid = mc.spawn_process(c);
            let spid = mc.spawn_process(s);
            mc.map_user_buffer(c, cpid, 0x10_0000, 2).unwrap();
            mc.map_user_buffer(s, spid, 0x40_0000, 2).unwrap();
            // The server's request window and the client's reply window,
            // each registered with the peer's directory.
            let req = mc.node_mut(s).export_pages(spid, VirtAddr::new(0x40_0000), 1).unwrap();
            let rep = mc.node_mut(c).export_pages(cpid, VirtAddr::new(0x10_1000), 1).unwrap();
            let fill: Vec<u8> = (0..256).map(|i| i as u8 ^ c as u8).collect();
            mc.write_user(c, cpid, VirtAddr::new(0x10_0000), &fill).unwrap();
            mc.write_user(s, spid, VirtAddr::new(0x40_1000), &fill).unwrap();
            let (req_paddr, rep_paddr) = (req[0].base(), rep[0].base());
            let (mut cdir, mut sdir) = (NiptDirectory::new(), NiptDirectory::new());
            let to_server = cdir.register(cpid, mc.node(s).id(), req);
            let to_client = sdir.register(spid, mc.node(c).id(), rep);
            let (class, landing) = (PacketClass::User, rep_paddr);
            let route = RpcRoute { pid: cpid, handle: to_server, landing, class };
            let client =
                RpcClientProgram::new(cdir, vec![route], VirtAddr::new(0x10_0000), 256, requests);
            let route = RpcRoute { pid: spid, handle: to_client, landing: req_paddr, class };
            let server =
                RpcServerProgram::new(sdir, vec![route], VirtAddr::new(0x40_1000), 256, requests);
            programs.push(ProgramPlan { node: c, program: Box::new(client) });
            programs.push(ProgramPlan { node: s, program: Box::new(server) });
        }
        (mc, programs)
    }

    #[test]
    fn rpc_ping_pong_is_thread_count_invariant() {
        let mut prints = Vec::new();
        for threads in [1usize, 2, 4] {
            let (mut mc, mut programs) = rpc_rig(4, 2, 6);
            let report = mc.run_programs(&mut programs, threads).unwrap();
            for pp in &programs {
                assert!(pp.program.finished(), "node {} program stalled", pp.node);
            }
            prints.push((fingerprint(&mc), mc.state_digest(), report));
        }
        for p in &prints[1..] {
            assert_eq!(p, &prints[0], "RPC timeline must be thread-count independent");
        }
    }

    /// Asserts the last run's per-node engine work stayed within
    /// `per_epoch` node visits per epoch.
    fn assert_visits_within(mc: &Multicomputer, per_epoch: u64) {
        let metrics = mc.engine_metrics();
        let epochs = metrics.get("engine", "epochs", None).unwrap();
        let visits = metrics.get("engine", "node_visits", None).expect("node visits are reported");
        assert!(visits > 0, "the counter must count");
        assert!(visits <= per_epoch * epochs, "{visits} node visits over {epochs} epochs");
    }

    #[test]
    fn epochs_visit_only_woken_and_active_nodes() {
        // One ping-pong pair on 64 nodes: a sweep over every node would
        // cost at least 3 · 64 visits per epoch; the wake and active
        // lists cost the pair's step, chunk and bound.
        for threads in [1usize, 2] {
            let (mut mc, mut programs) = rpc_rig(64, 1, 8);
            mc.run_programs(&mut programs, threads).unwrap();
            assert_visits_within(&mc, 4);
        }
    }

    /// Wraps a program and traps on its `k`-th step (the initial step is
    /// the first).
    struct TrapOnStep {
        inner: Box<dyn TrafficProgram>,
        left: usize,
    }

    impl TrafficProgram for TrapOnStep {
        fn step(
            &mut self,
            node: &mut crate::ShrimpNode,
            inbox: &[crate::DeliveryEvent],
            out: &mut Vec<SendOp>,
        ) -> Result<(), Trap> {
            self.left -= 1;
            if self.left == 0 {
                return Err(Trap::DeviceError { code: 7 });
            }
            self.inner.step(node, inbox, out)
        }

        fn finished(&self) -> bool {
            self.inner.finished()
        }

        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn a_trapping_step_surfaces_and_the_rest_finishes() {
        let mut prints = Vec::new();
        for threads in [1usize, 2, 4] {
            let (mut mc, mut programs) = rpc_rig(8, 3, 6);
            // Pair 1's server traps on its third step.
            let inner = std::mem::replace(&mut programs[3].program, Box::new(NullProgram));
            programs[3].program = Box::new(TrapOnStep { inner, left: 3 });
            let err = mc.run_programs(&mut programs, threads).unwrap_err();
            assert_eq!(err, ShrimpError::Trap(Trap::DeviceError { code: 7 }));
            // At most a step, a chunk and a bound read per program node.
            assert_visits_within(&mc, 3 * 6);
            for pp in programs.iter().filter(|pp| pp.node / 2 != 1) {
                assert!(pp.program.finished(), "node {} program stalled", pp.node);
            }
            prints.push((fingerprint(&mc), mc.state_digest()));
        }
        for p in &prints[1..] {
            assert_eq!(p, &prints[0], "trap timeline must be thread-count independent");
        }
    }

    #[test]
    fn deliveries_to_nodes_without_work_wake_nothing() {
        // Node 6 has no program and node 7 a finished one; a static
        // stream from node 4 feeds both while pair 0 ping-pongs, so the
        // run is reactive and both receivers' lanes see deliveries.
        let mut prints = Vec::new();
        for threads in [1usize, 2, 4] {
            let (mut mc, mut programs) = rpc_rig(8, 1, 6);
            let spid = mc.spawn_process(4);
            mc.map_user_buffer(4, spid, 0x10_0000, 1).unwrap();
            mc.write_user(4, spid, VirtAddr::new(0x10_0000), &[0x5a; 128]).unwrap();
            let mut ops = Vec::new();
            for r in [6, 7] {
                let rpid = mc.spawn_process(r);
                mc.map_user_buffer(r, rpid, 0x40_0000, 1).unwrap();
                let dev = mc.export(r, rpid, VirtAddr::new(0x40_0000), 1, 4, spid).unwrap();
                let op = SendOp {
                    pid: spid,
                    src_va: VirtAddr::new(0x10_0000),
                    dev_page: dev,
                    dev_off: 0,
                    nbytes: 128,
                    class: PacketClass::User,
                };
                ops.extend([op; 5]);
            }
            programs.push(ProgramPlan { node: 4, program: Box::new(StreamProgram::new(ops)) });
            programs
                .push(ProgramPlan { node: 7, program: Box::new(StreamProgram::new(Vec::new())) });
            let report = mc.run_programs(&mut programs, threads).unwrap();
            // Nodes 6 and 7 never execute or bound: the pair, the
            // stream and node 7's wake-ups cost at most 3 visits each.
            assert_visits_within(&mc, 3 * 4);
            for r in [6usize, 7] {
                let got = mc.read_user(r, Pid::new(1), VirtAddr::new(0x40_0000), 128).unwrap();
                assert_eq!(got, vec![0x5a; 128], "node {r} missed its deliveries");
                assert!(mc.lanes[r].inbox.is_empty(), "node {r} kept an inbox");
            }
            prints.push((fingerprint(&mc), mc.state_digest(), report));
        }
        for p in &prints[1..] {
            assert_eq!(p, &prints[0], "timeline must be thread-count independent");
        }
    }

    #[test]
    fn back_to_back_runs_carry_no_engine_state() {
        // The second run on a machine matches at every pairing of thread
        // counts, and the first matches a fresh machine's only run.
        let (mut fresh, mut programs) = rpc_rig(8, 2, 5);
        fresh.run_programs(&mut programs, 1).unwrap();
        let first = fresh.state_digest();
        let mut prints = Vec::new();
        for (ta, tb) in [(1usize, 1usize), (1, 2), (2, 4), (4, 1), (4, 4)] {
            let (mut mc, mut programs) = rpc_rig(8, 2, 5);
            mc.run_programs(&mut programs, ta).unwrap();
            assert_eq!(mc.state_digest(), first, "first run at {ta} threads");
            // A fresh set of the rig's programs for the same machine.
            let mut again = rpc_rig(8, 2, 5).1;
            let report = mc.run_programs(&mut again, tb).unwrap();
            assert_visits_within(&mc, 3 * 4);
            for pp in &again {
                assert!(pp.program.finished(), "node {} program stalled", pp.node);
            }
            prints.push((fingerprint(&mc), mc.state_digest(), report));
        }
        for p in &prints[1..] {
            assert_eq!(p, &prints[0], "second run must not depend on the first run's threads");
        }
    }
}
