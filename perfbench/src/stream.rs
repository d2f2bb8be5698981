//! `stream`: 32 seeded disjoint sender→receiver pairs, each sending one steady
//! train of 4 KB deliberate-update messages per round through
//! `Multicomputer::run(plans, 1)` — the §7 message-train case, where run
//! batching takes nearly all the work out of initiation and the commit
//! side (`commit_next`/`admit` plus the 4 KB delivery write) dominates.

use std::time::Instant;

use shrimp::{Multicomputer, MulticomputerConfig, NodePlan, PacketClass, ParallelReport};
use shrimp::{ProgramPlan, SendOp, ShrimpError, StreamProgram};
use shrimp_machine::MachineConfig;
use shrimp_mem::{VirtAddr, PAGE_SIZE};
use shrimp_os::NodeConfig;
use shrimp_sim::SplitMix64;

use crate::{ns_since, seeded_bytes, Round, Scale, Shape, Spans, Timed, Window, Workload};
use crate::{SRC_VA, WINDOW_VA};

/// Message size: one page, the Figure 8 knee.
pub const MSG_BYTES: u64 = 4096;

/// The built `stream` workload.
pub struct Stream {
    mc: Multicomputer,
    plans: Vec<NodePlan>,
    windows: Vec<Window>,
}

impl Stream {
    /// Builds the machine, maps and exports one window per pair, and
    /// fills each sender's buffer with seeded bytes.
    pub fn new(seed: u64, scale: &Scale) -> Self {
        let mut rng = SplitMix64::new(seed);
        let machine = MachineConfig { mem_bytes: 64 * PAGE_SIZE, ..MachineConfig::default() };
        let config = MulticomputerConfig {
            node: NodeConfig { machine, user_frames: None },
            ..MulticomputerConfig::default()
        };
        let mut mc = Multicomputer::new(scale.nodes, config);
        let pairs = usize::from(scale.nodes) / 2;
        let mut plans = Vec::with_capacity(pairs);
        let mut windows = Vec::with_capacity(pairs);
        // Seeded disjoint pairs: the mesh distance of each pair, and with
        // it the spread of message latencies, depends on the seed.
        let mut order: Vec<usize> = (0..2 * pairs).collect();
        rng.shuffle(&mut order);
        for p in 0..pairs {
            let (s, r) = (order[2 * p], order[2 * p + 1]);
            let spid = mc.spawn_process(s);
            let rpid = mc.spawn_process(r);
            mc.map_user_buffer(s, spid, SRC_VA, 1).expect("map source");
            mc.map_user_buffer(r, rpid, WINDOW_VA, 1).expect("map window");
            let dev_page =
                mc.export(r, rpid, VirtAddr::new(WINDOW_VA), 1, s, spid).expect("export window");
            let payload = seeded_bytes(&mut rng, MSG_BYTES);
            mc.write_user(s, spid, VirtAddr::new(SRC_VA), &payload).expect("fill source");
            let mut window = Window::new(r, rpid, WINDOW_VA, PAGE_SIZE);
            window.write(0, &payload);
            windows.push(window);
            let op = SendOp {
                pid: spid,
                src_va: VirtAddr::new(SRC_VA),
                dev_page,
                dev_off: 0,
                nbytes: MSG_BYTES,
                class: PacketClass::User,
            };
            plans.push(NodePlan { node: s, ops: vec![op; scale.stream_msgs] });
        }
        Stream { mc, plans, windows }
    }

    fn messages(&self) -> u64 {
        self.plans.iter().map(|p| p.ops.len() as u64).sum()
    }

    fn outcome(&self, result: Result<ParallelReport, ShrimpError>) -> Round {
        let attempted = self.messages();
        let sent = result.map_or(0, |r| r.messages);
        Round { attempted, failed: attempted - sent.min(attempted), bytes: sent * MSG_BYTES }
    }
}

impl Workload for Stream {
    fn mc(&mut self) -> &mut Multicomputer {
        &mut self.mc
    }

    fn round(&mut self, spans: Option<&mut Spans>) -> Round {
        let Some(spans) = spans else {
            let result = self.mc.run(&self.plans, 1);
            return self.outcome(result);
        };
        let result = timed_run(&mut self.mc, &self.plans, spans);
        let round = self.outcome(result);
        spans.msgs += round.attempted - round.failed;
        round
    }

    fn reference_round(&mut self, spans: Option<&mut Spans>) -> (Round, Vec<u64>) {
        // Message latency comes from the flight recorder's spans: the
        // engine issues the sends, so only it sees each one's issue time.
        let was = self.mc.tracing();
        self.mc.set_tracing(true);
        let before = self.mc.recorder().total_recorded();
        let round = self.round(spans);
        let fresh = (self.mc.recorder().total_recorded() - before) as usize;
        let held = self.mc.recorder().len();
        let latencies = self
            .mc
            .recorder()
            .iter()
            .skip(held.saturating_sub(fresh))
            .map(|s| s.delivered_at.saturating_duration_since(s.initiated_at).as_nanos())
            .collect();
        self.mc.set_tracing(was);
        (round, latencies)
    }

    fn senders(&self) -> u64 {
        self.plans.len() as u64
    }

    fn window_mismatches(&mut self) -> u64 {
        self.windows.iter().filter(|w| !w.holds(&mut self.mc)).count() as u64
    }

    fn shapes(&mut self) -> Vec<Shape> {
        self.plans
            .iter()
            .zip(&self.windows)
            .map(|(p, w)| Shape {
                src: p.node as u16,
                dst: w.node as u16,
                pid: p.ops[0].pid,
                src_va: SRC_VA,
                dev_page: p.ops[0].dev_page,
                dev_off: 0,
                nbytes: MSG_BYTES,
                repeat: p.ops.len() as u32,
            })
            .collect()
    }

    fn cross_probe(&mut self, spans: &mut Spans) {
        // The serial driver's two halves on this workload's messages: a
        // few literal sends per pair, round-robin over the pairs.
        for _ in 0..8 {
            for p in &self.plans {
                crate::scatter::timed_send(&mut self.mc, p.node, &p.ops[0], spans);
            }
        }
        let imports: Vec<_> =
            self.plans.iter().zip(&self.windows).map(|(p, w)| (p.node, p.ops[0].pid, w)).collect();
        let order = (0..64).flat_map(|_| 0..imports.len());
        crate::ensure_probe(&mut self.mc, &imports, order, spans);
    }
}

/// `Multicomputer::run(plans, 1)` with every step and epoch phase timed:
/// builds the same stream programs `run` builds, each wrapped so its
/// steps are timed, and runs them through the same engine. Adds the wall
/// time, epochs, phases and steps to `spans`; the caller adds messages.
///
/// # Errors
///
/// As `Multicomputer::run_programs`.
pub fn timed_run(
    mc: &mut Multicomputer,
    plans: &[NodePlan],
    spans: &mut Spans,
) -> Result<ParallelReport, ShrimpError> {
    let t0 = Instant::now();
    let mut programs: Vec<ProgramPlan> = plans
        .iter()
        .map(|p| {
            let mut program = Timed::new(StreamProgram::new(p.ops.clone()));
            program.timing = true;
            ProgramPlan { node: p.node, program: Box::new(program) }
        })
        .collect();
    let result = mc.run_programs(&mut programs, 1);
    spans.wall_ns += ns_since(t0);
    spans.epochs += result.as_ref().map_or(0, |r| r.epochs);
    spans.rounds += 1;
    spans.add_phases(mc);
    for pp in &mut programs {
        if let Some(t) = pp.program.as_any_mut().downcast_mut::<Timed<StreamProgram>>() {
            t.drain_into(spans);
        }
    }
    result
}
