//! The repository benchmark: three seeded workloads that stress different
//! layers of the SHRIMP UDMA simulator, an untraced pass that yields the
//! end-to-end metrics, and a traced pass that times the calls into each
//! layer from this crate's own code and adds up a per-layer host-cost
//! ledger.
//!
//! Every workload runs on one host thread (the engine at `threads = 1`,
//! or the serial driver), builds its inputs from a [`SplitMix64`] seed
//! before any timed region, and repeats one fixed *round* of traffic as
//! often as the measuring time allows. A round leaves the receive windows
//! in the same state however many times it runs (each window has one
//! writer and every round replays the same writes), so one shadow model
//! built from the generator checks the machine after any number of
//! rounds.
//!
//! [`SplitMix64`]: shrimp_sim::SplitMix64

use std::any::Any;
use std::sync::OnceLock;
use std::time::Instant;

use shrimp::{DeliveryEvent, Multicomputer, NiptDirectory, SendOp, ShrimpNode, TrafficProgram};
use shrimp_mem::{Pfn, VirtAddr, PAGE_SIZE};
use shrimp_net::NodeId;
use shrimp_os::{Pid, Trap};
use shrimp_sim::SplitMix64;

pub mod metrics;
pub mod probes;
pub mod run;
pub mod scatter;
pub mod serving;
pub mod stream;

/// Per-process virtual layout shared by every workload: the outbound
/// payload buffer and the first exported receive window.
pub const SRC_VA: u64 = 0x10_0000;
/// See [`SRC_VA`].
pub const WINDOW_VA: u64 = 0x40_0000;

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Steady 4 KB message trains on disjoint pairs through the engine.
    Stream,
    /// Seeded sizes and unaligned offsets through the imperative send.
    Scatter,
    /// Closed-loop multi-tenant RPC with NIPT demand paging.
    Serving,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 3] = [Kind::Stream, Kind::Scatter, Kind::Serving];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Stream => "stream",
            Kind::Scatter => "scatter",
            Kind::Serving => "serving",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// How big a machine and a round each workload uses.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Node count (even: stream and serving pair nodes up).
    pub nodes: u16,
    /// `stream`: messages each sender sends per round.
    pub stream_msgs: usize,
    /// `scatter`: messages per round, machine-wide.
    pub scatter_msgs: usize,
    /// `serving`: tenant processes per client node.
    pub tenants: usize,
    /// `serving`: requests each tenant issues per round.
    pub requests_per_tenant: usize,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setups: usize,
}

impl Scale {
    /// The benchmark's scale: 64 nodes, rounds of tens of milliseconds.
    pub const FULL: Scale = Scale {
        nodes: 64,
        stream_msgs: 4096,
        scatter_msgs: 16384,
        tenants: 16,
        requests_per_tenant: 8,
        setups: 7,
    };

    /// A toy machine for the benchmark's own tests.
    pub const TOY: Scale = Scale {
        nodes: 16,
        stream_msgs: 2048,
        scatter_msgs: 512,
        tenants: 8,
        requests_per_tenant: 2,
        setups: 1,
    };
}

/// Result of one round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Round {
    /// Messages the round attempted.
    pub attempted: u64,
    /// Trapped sends plus unanswered requests.
    pub failed: u64,
    /// Payload bytes the round delivered.
    pub bytes: u64,
}

/// Host time and call counts per layer, accumulated by traced rounds from
/// spans around the calls this crate makes into each layer.
#[derive(Clone, Debug, Default)]
pub struct Spans {
    /// Wall time of the traced rounds (the ledger's denominator).
    pub wall_ns: u64,
    /// Messages the traced rounds delivered.
    pub msgs: u64,
    /// Rounds accumulated.
    pub rounds: u64,
    /// `Node::udma_send` calls and their host time (`os` layer plus the
    /// `machine`/`udma-core`/`mmu` initiation and NIC packetize below it).
    pub udma_send_ns: u64,
    /// See [`Spans::udma_send_ns`].
    pub udma_sends: u64,
    /// Hardware transfers and initiation retries the sends reported.
    pub transfers: u64,
    /// See [`Spans::transfers`].
    pub retries: u64,
    /// `Multicomputer::propagate` calls and their host time.
    pub propagate_ns: u64,
    /// See [`Spans::propagate_ns`].
    pub propagates: u64,
    /// Engine epoch phases (the installed phase clock's sums).
    pub execute_ns: u64,
    /// See [`Spans::execute_ns`].
    pub merge_ns: u64,
    /// See [`Spans::execute_ns`].
    pub commit_ns: u64,
    /// See [`Spans::execute_ns`].
    pub barrier_ns: u64,
    /// Epochs the engine ran.
    pub epochs: u64,
    /// `TrafficProgram::step` calls and their host time (inside execute).
    pub step_ns: u64,
    /// See [`Spans::step_ns`].
    pub steps: u64,
    /// `NiptDirectory::ensure` calls and their host time (inside step).
    pub ensure_ns: u64,
    /// See [`Spans::ensure_ns`].
    pub ensures: u64,
}

impl Spans {
    /// Host time of the top-level spans: the engine's four phases (which
    /// contain program steps and their NIPT ensures) or the serial
    /// driver's send and propagate halves.
    pub fn top_level_ns(&self) -> u64 {
        self.udma_send_ns
            + self.propagate_ns
            + self.execute_ns
            + self.merge_ns
            + self.commit_ns
            + self.barrier_ns
    }

    /// Folds the engine's phase breakdown of the last run into the
    /// ledger.
    pub fn add_phases(&mut self, mc: &Multicomputer) {
        let p = mc.phase_breakdown();
        self.execute_ns += p.execute.sum();
        self.merge_ns += p.merge.sum();
        self.commit_ns += p.commit.sum();
        self.barrier_ns += p.barrier.sum();
    }
}

/// Monotonic host nanoseconds, installed as the engine's phase clock.
pub fn host_nanos() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Nanoseconds since `t0`.
pub fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// A traffic program wrapper that, while `timing` is on, times every
/// `step` of the program inside it.
pub struct Timed<P> {
    /// The wrapped program.
    pub inner: P,
    /// Whether steps are timed.
    pub timing: bool,
    /// Host time of timed steps.
    pub step_ns: u64,
    /// Timed steps.
    pub steps: u64,
}

impl<P> Timed<P> {
    /// Wraps `inner` with timing off.
    pub fn new(inner: P) -> Self {
        Timed { inner, timing: false, step_ns: 0, steps: 0 }
    }

    /// Moves the step counts into `spans` and zeroes them.
    pub fn drain_into(&mut self, spans: &mut Spans) {
        spans.step_ns += std::mem::take(&mut self.step_ns);
        spans.steps += std::mem::take(&mut self.steps);
    }
}

impl<P: TrafficProgram + 'static> TrafficProgram for Timed<P> {
    fn reactive(&self) -> bool {
        self.inner.reactive()
    }

    fn planned_hint(&self) -> usize {
        self.inner.planned_hint()
    }

    fn step(
        &mut self,
        node: &mut ShrimpNode,
        inbox: &[DeliveryEvent],
        out: &mut Vec<SendOp>,
    ) -> Result<(), Trap> {
        if !self.timing {
            return self.inner.step(node, inbox, out);
        }
        let t0 = Instant::now();
        let result = self.inner.step(node, inbox, out);
        self.step_ns += ns_since(t0);
        self.steps += 1;
        result
    }

    fn finished(&self) -> bool {
        self.inner.finished()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// `n` seeded bytes.
pub fn seeded_bytes(rng: &mut SplitMix64, n: u64) -> Vec<u8> {
    (0..n).map(|_| rng.next_u64() as u8).collect()
}

/// A log-uniform size in `[lo, hi]` (both multiples of 4), rounded down to
/// a multiple of 4: the NIC takes only 4-byte-aligned lengths (§8).
pub fn log_uniform(rng: &mut SplitMix64, lo: u64, hi: u64) -> u64 {
    let (a, b) = ((lo as f64).ln(), (hi as f64).ln());
    ((a + rng.next_f64() * (b - a)).exp() as u64).clamp(lo, hi) & !3
}

/// The predicted contents of one receive window: zeroes overwritten by
/// every write the generator makes into it, in the writer's order.
#[derive(Clone, Debug)]
pub struct Window {
    /// Receiving node.
    pub node: usize,
    /// Process that exported the window.
    pub pid: Pid,
    /// Window base address in that process.
    pub va: u64,
    /// Predicted bytes.
    pub expect: Vec<u8>,
}

impl Window {
    /// A zeroed window of `len` bytes.
    pub fn new(node: usize, pid: Pid, va: u64, len: u64) -> Self {
        Window { node, pid, va, expect: vec![0; len as usize] }
    }

    /// Applies one predicted write.
    pub fn write(&mut self, off: u64, data: &[u8]) {
        let off = off as usize;
        self.expect[off..off + data.len()].copy_from_slice(data);
    }

    /// The physical frames backing the window (it is exported, so they
    /// stay put).
    pub fn frames(&self, mc: &Multicomputer) -> Vec<Pfn> {
        (0..self.expect.len() as u64)
            .step_by(PAGE_SIZE as usize)
            .map(|off| {
                let va = VirtAddr::new(self.va + off);
                mc.user_paddr(self.node, self.pid, va).expect("exported window is resident").page()
            })
            .collect()
    }

    /// Whether the machine's window holds the predicted bytes (read back
    /// through the kernel with `read_user`).
    pub fn holds(&self, mc: &mut Multicomputer) -> bool {
        mc.read_user(self.node, self.pid, VirtAddr::new(self.va), self.expect.len() as u64)
            .is_ok_and(|got| got == self.expect)
    }
}

/// One message as the isolated probes replay it: who sends how much from
/// where to where.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    /// Sending node.
    pub src: u16,
    /// Receiving node.
    pub dst: u16,
    /// Sending process (a change forces a context switch and TLB flush).
    pub pid: Pid,
    /// Source virtual address.
    pub src_va: u64,
    /// Destination NIPT index of the first byte.
    pub dev_page: u64,
    /// Offset on that proxy page.
    pub dev_off: u64,
    /// Payload bytes.
    pub nbytes: u64,
    /// Consecutive identical messages this shape stands for (a message
    /// train on `stream`, 1 elsewhere).
    pub repeat: u32,
}

/// A built workload: a machine with its inputs, able to run rounds.
pub trait Workload {
    /// The machine.
    fn mc(&mut self) -> &mut Multicomputer;

    /// Runs one round. `spans` is `Some` on the traced pass, which times
    /// the calls into each layer; otherwise nothing is timed.
    fn round(&mut self, spans: Option<&mut Spans>) -> Round;

    /// Runs one round while recording its simulated latencies.
    fn reference_round(&mut self, spans: Option<&mut Spans>) -> (Round, Vec<u64>);

    /// Nodes that send in a round.
    fn senders(&self) -> u64;

    /// Receive windows whose contents differ from the generator's
    /// prediction.
    fn window_mismatches(&mut self) -> u64;

    /// The round's messages, for the isolated probes.
    fn shapes(&mut self) -> Vec<Shape>;

    /// Times the layers this workload's own path does not call from the
    /// benchmark, by pushing a sample of its messages through the other
    /// path on this machine. Runs after the oracle has checked the
    /// machine.
    fn cross_probe(&mut self, spans: &mut Spans);
}

/// Builds `kind`'s machine and inputs from `seed` and warms it with one
/// untimed round. Everything here counts as set-up.
pub fn build(kind: Kind, seed: u64, scale: &Scale) -> Box<dyn Workload> {
    let mut w: Box<dyn Workload> = match kind {
        Kind::Stream => Box::new(stream::Stream::new(seed, scale)),
        Kind::Scatter => Box::new(scatter::Scatter::new(seed, scale)),
        Kind::Serving => Box::new(serving::Serving::new(seed, scale)),
    };
    let warm = w.round(None);
    assert_eq!(warm.failed, 0, "the warm-up round must not fail");
    w.mc().barrier_sync();
    w
}

/// The simulated instant every node has reached (after a barrier, the
/// round's common start).
pub fn latest_clock(mc: &Multicomputer) -> u64 {
    (0..mc.node_count())
        .map(|i| mc.node(i).os().machine().now().as_nanos().max(mc.last_delivery(i).as_nanos()))
        .max()
        .unwrap_or(0)
}

/// Times `NiptDirectory::ensure` for `imports` — `(sender node, sender
/// process, window)` — in `order`, one directory per sender node, on
/// `mc`. The workloads whose own path never consults a directory use it
/// to price the steady-state probe on their own mappings.
pub fn ensure_probe(
    mc: &mut Multicomputer,
    imports: &[(usize, Pid, &Window)],
    order: impl Iterator<Item = usize>,
    spans: &mut Spans,
) {
    let mut dirs: Vec<NiptDirectory> = (0..mc.node_count()).map(|_| NiptDirectory::new()).collect();
    let handles: Vec<usize> = imports
        .iter()
        .map(|&(node, pid, w)| dirs[node].register(pid, NodeId::new(w.node as u16), w.frames(mc)))
        .collect();
    for i in order {
        let node = imports[i].0;
        let t0 = Instant::now();
        let ok = dirs[node].ensure(handles[i], mc.node_mut(node)).is_ok();
        spans.ensure_ns += ns_since(t0);
        spans.ensures += u64::from(ok);
    }
}
