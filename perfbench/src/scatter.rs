//! `scatter`: every node imports windows on 8 seeded peers, and the nodes
//! take turns, in simulated-time order, calling the imperative
//! `Multicomputer::send` — the per-message library path the paper-figure
//! harnesses use. Sizes are log-uniform from 64 B to 12 KB and source
//! offsets are never page-aligned, so run batching never applies: every
//! message pays the literal proxy STORE/LOAD, NIC packetize, NIPT lookup,
//! page-boundary splits and a full `propagate` sweep over every lane.

use std::time::Instant;

use shrimp::{Multicomputer, MulticomputerConfig, NodePlan, PacketClass, SendOp};
use shrimp_machine::MachineConfig;
use shrimp_mem::{VirtAddr, PAGE_SIZE};
use shrimp_os::{NodeConfig, Pid};
use shrimp_sim::SplitMix64;

use crate::{log_uniform, ns_since, seeded_bytes, Round, Scale, Shape, Spans, Window};
use crate::{Workload, SRC_VA, WINDOW_VA};

/// Peers each node imports a window on.
pub const PEERS: usize = 8;
/// Pages per window and per source buffer.
const PAGES: u64 = 4;
/// Smallest and largest message.
const MIN_BYTES: u64 = 64;
const MAX_BYTES: u64 = 12 * 1024;

/// One scheduled message.
#[derive(Clone, Copy, Debug)]
struct Msg {
    node: usize,
    dst: usize,
    /// Index of the window it writes (`node * PEERS + peer slot`).
    window: usize,
    op: SendOp,
}

/// The built `scatter` workload.
pub struct Scatter {
    mc: Multicomputer,
    /// The one process on each node.
    pids: Vec<Pid>,
    /// The round's messages in send order.
    msgs: Vec<Msg>,
    windows: Vec<Window>,
}

impl Scatter {
    /// Builds the machine: one process per node with a seeded source
    /// buffer, [`PEERS`] windows exported to it by seeded peers, and a
    /// round of seeded messages over those windows.
    pub fn new(seed: u64, scale: &Scale) -> Self {
        let mut rng = SplitMix64::new(seed);
        let n = usize::from(scale.nodes);
        assert!(n > PEERS, "scatter needs more nodes than peers");
        let machine = MachineConfig { mem_bytes: 128 * PAGE_SIZE, ..MachineConfig::default() };
        let config = MulticomputerConfig {
            node: NodeConfig { machine, user_frames: None },
            ..MulticomputerConfig::default()
        };
        let mut mc = Multicomputer::new(scale.nodes, config);
        let span = PAGES * PAGE_SIZE;
        let pids: Vec<Pid> = (0..n).map(|i| mc.spawn_process(i)).collect();
        let mut sources = Vec::with_capacity(n);
        for (i, &pid) in pids.iter().enumerate() {
            mc.map_user_buffer(i, pid, SRC_VA, PAGES).expect("map source");
            mc.map_user_buffer(i, pid, WINDOW_VA, PAGES * PEERS as u64).expect("map windows");
            let bytes = seeded_bytes(&mut rng, span);
            mc.write_user(i, pid, VirtAddr::new(SRC_VA), &bytes).expect("fill source");
            sources.push(bytes);
        }
        // Peer `k` of node `i` is `i + offset[k]`: seeded distinct offsets
        // shared by every node, so each node also receives from exactly
        // [`PEERS`] importers and window slot `k` has exactly one writer.
        let mut offsets: Vec<usize> = (1..n).collect();
        rng.shuffle(&mut offsets);
        offsets.truncate(PEERS);
        let mut windows = Vec::with_capacity(n * PEERS);
        let mut dev_pages = vec![[0u64; PEERS]; n];
        for (i, pages) in dev_pages.iter_mut().enumerate() {
            for (k, &off) in offsets.iter().enumerate() {
                let peer = (i + off) % n;
                let va = WINDOW_VA + k as u64 * span;
                pages[k] = mc
                    .export(peer, pids[peer], VirtAddr::new(va), PAGES, i, pids[i])
                    .expect("export window");
                windows.push(Window::new(peer, pids[peer], va, span));
            }
        }
        let per_node = scale.scatter_msgs.div_ceil(n);
        let mut msgs = vec![Vec::with_capacity(per_node); n];
        for j in 0..scale.scatter_msgs {
            let node = j % n;
            let k = rng.next_below(PEERS as u64) as usize;
            let nbytes = log_uniform(&mut rng, MIN_BYTES, MAX_BYTES);
            // 4-byte aligned, as the NIC requires, but never page-aligned:
            // the first transfer always ends early.
            let mut src_off = rng.next_below(span - nbytes - 4) & !3;
            if src_off.is_multiple_of(PAGE_SIZE) {
                src_off += 4;
            }
            let dev_off = rng.next_below(span - nbytes + 1) & !3;
            let src = &sources[node][src_off as usize..(src_off + nbytes) as usize];
            windows[node * PEERS + k].write(dev_off, src);
            let op = SendOp {
                pid: pids[node],
                src_va: VirtAddr::new(SRC_VA + src_off),
                dev_page: dev_pages[node][k],
                dev_off,
                nbytes,
                class: PacketClass::User,
            };
            msgs[node].push(Msg {
                node,
                dst: (node + offsets[k]) % n,
                window: node * PEERS + k,
                op,
            });
        }
        // The nodes take turns in simulated-time order, found once by a
        // dry run of the round from a synchronized start; every round
        // replays that order, which keeps scheduling out of the timed loop.
        mc.barrier_sync();
        let msgs = time_order(&mut mc, &msgs);
        Scatter { mc, pids, msgs, windows }
    }

    fn run_round(
        &mut self,
        mut spans: Option<&mut Spans>,
        mut lat: Option<&mut Vec<u64>>,
    ) -> Round {
        let t0 = Instant::now();
        let mut round = Round::default();
        for m in &self.msgs {
            round.attempted += 1;
            let issued = lat.is_some().then(|| node_clock(&self.mc, m.node));
            let ok = match spans.as_deref_mut() {
                None => {
                    let op = &m.op;
                    self.mc
                        .send(m.node, op.pid, op.src_va, op.dev_page, op.dev_off, op.nbytes)
                        .is_ok()
                }
                Some(spans) => timed_send(&mut self.mc, m.node, &m.op, spans),
            };
            if !ok {
                round.failed += 1;
                continue;
            }
            round.bytes += m.op.nbytes;
            if let (Some(lat), Some(issued)) = (lat.as_deref_mut(), issued) {
                lat.push(self.mc.last_delivery(m.dst).as_nanos().saturating_sub(issued));
            }
        }
        if let Some(spans) = spans {
            spans.wall_ns += ns_since(t0);
            spans.msgs += round.attempted - round.failed;
            spans.rounds += 1;
        }
        round
    }
}

fn node_clock(mc: &Multicomputer, i: usize) -> u64 {
    mc.node(i).os().machine().now().as_nanos()
}

/// Sends every node's messages in simulated-time order — the node whose
/// clock is earliest sends its next one — and returns that order. Only
/// the sender's and the (passive) receiver's clocks move in a send.
fn time_order(mc: &mut Multicomputer, per_node: &[Vec<Msg>]) -> Vec<Msg> {
    let n = per_node.len();
    let mut clock: Vec<u64> = (0..n).map(|i| node_clock(mc, i)).collect();
    let mut next = vec![0usize; n];
    let mut order = Vec::with_capacity(per_node.iter().map(Vec::len).sum());
    loop {
        let node = (0..n).filter(|&i| next[i] < per_node[i].len()).min_by_key(|&i| (clock[i], i));
        let Some(node) = node else { return order };
        let m = per_node[node][next[node]];
        next[node] += 1;
        let op = &m.op;
        mc.send(m.node, op.pid, op.src_va, op.dev_page, op.dev_off, op.nbytes)
            .expect("the round's sends are valid");
        clock[node] = node_clock(mc, node);
        clock[m.dst] = node_clock(mc, m.dst);
        order.push(m);
    }
}

/// `Multicomputer::send` in its two halves, each timed: the user-level
/// initiation (`node_mut(i).os_mut().udma_send`) and the fabric/delivery
/// sweep (`propagate`). Returns whether the send succeeded.
pub fn timed_send(mc: &mut Multicomputer, node: usize, op: &SendOp, spans: &mut Spans) -> bool {
    let t0 = Instant::now();
    let result =
        mc.node_mut(node).os_mut().udma_send(op.pid, op.src_va, op.dev_page, op.dev_off, op.nbytes);
    let t1 = Instant::now();
    mc.propagate();
    spans.propagate_ns += ns_since(t1);
    spans.udma_send_ns += (t1 - t0).as_nanos() as u64;
    spans.udma_sends += 1;
    spans.propagates += 1;
    match result {
        Ok(r) => {
            spans.transfers += r.transfers;
            spans.retries += r.retries;
            true
        }
        Err(_) => false,
    }
}

impl Workload for Scatter {
    fn mc(&mut self) -> &mut Multicomputer {
        &mut self.mc
    }

    fn round(&mut self, spans: Option<&mut Spans>) -> Round {
        self.run_round(spans, None)
    }

    fn reference_round(&mut self, spans: Option<&mut Spans>) -> (Round, Vec<u64>) {
        let mut lat = Vec::with_capacity(self.msgs.len());
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
        self.msgs
            .iter()
            .map(|m| Shape {
                src: m.node as u16,
                dst: m.dst as u16,
                pid: m.op.pid,
                src_va: m.op.src_va.raw(),
                dev_page: m.op.dev_page,
                dev_off: m.op.dev_off,
                nbytes: m.op.nbytes,
                repeat: 1,
            })
            .collect()
    }

    fn cross_probe(&mut self, spans: &mut Spans) {
        // The round's messages as per-node plans through the engine: each
        // window keeps its single writer and that writer's order, so the
        // windows end as the oracle predicts either way.
        let mut ops = vec![Vec::new(); self.mc.node_count()];
        for m in &self.msgs {
            ops[m.node].push(m.op);
        }
        let plans: Vec<NodePlan> = ops
            .into_iter()
            .enumerate()
            .filter(|(_, ops)| !ops.is_empty())
            .map(|(node, ops)| NodePlan { node, ops })
            .collect();
        let result = crate::stream::timed_run(&mut self.mc, &plans, spans);
        spans.msgs += result.map_or(0, |r| r.messages);
        let imports: Vec<_> = (0..self.windows.len())
            .map(|i| (i / PEERS, self.pids[i / PEERS], &self.windows[i]))
            .collect();
        let order = self.msgs.iter().map(|m| m.window);
        crate::ensure_probe(&mut self.mc, &imports, order, spans);
    }
}
