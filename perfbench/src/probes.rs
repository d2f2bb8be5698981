//! Isolated layer probes: benchmark-owned instances of one layer's type
//! driven with a workload's message shapes, timed in batches. They are
//! measured apart from the workload and are not part of the ledger sum.

use std::hint::black_box;
use std::time::Instant;

use shrimp::{Nipt, NiptEntry};
use shrimp_mem::{Pfn, PhysAddr, PhysMemory, VirtAddr, DEV_PROXY_BASE, PAGE_SIZE};
use shrimp_mmu::{AccessKind, Mmu, Mode, PageTable, Pte, PteFlags};
use shrimp_net::{Commit, Interconnect, LinkParams, NodeId, Packet, PacketRun};
use shrimp_sim::{SimDuration, SimTime, XferId};

use crate::{ns_since, Shape};

/// Host time each probe spends measuring, spread over repetitions.
const PROBE_NS: u64 = 150_000_000;
/// Repetitions per probe, at least.
const MIN_REPS: usize = 5;

/// Median per-unit cost over repetitions of `rep`, which returns
/// `(host ns, units)` for one pass.
fn median_cost(mut rep: impl FnMut() -> (u64, u64)) -> f64 {
    let t0 = Instant::now();
    let mut costs = Vec::new();
    while costs.len() < MIN_REPS || (ns_since(t0) < PROBE_NS && costs.len() < 10_000) {
        let (ns, units) = rep();
        costs.push(ns as f64 / units.max(1) as f64);
    }
    crate::run::median(&mut costs)
}

/// One staged entry of the net probe.
enum Entry {
    One(Packet),
    Run(PacketRun),
}

/// `FabricShard::send`/`send_run` and `commit_next` on a benchmark-owned
/// fabric replaying `shapes` (a train becomes one run): host ns per
/// packet on each side, `(send, commit)`.
pub fn net(shapes: &[Shape], nodes: u16) -> (f64, f64) {
    let params = LinkParams::default();
    let mut commit_costs = Vec::new();
    let send = median_cost(|| {
        let mut seq = vec![0u64; usize::from(nodes)];
        let mut clock = vec![SimTime::ZERO; usize::from(nodes)];
        let mut entries = Vec::with_capacity(shapes.len());
        let mut packets = 0u64;
        for s in shapes {
            let mut p = Packet::new(
                NodeId::new(s.src),
                NodeId::new(s.dst),
                PhysAddr::new(s.dev_off),
                vec![0u8; s.nbytes as usize],
            );
            let src = usize::from(s.src);
            p.meta.id = XferId::new(s.src, seq[src]);
            seq[src] += u64::from(s.repeat);
            let wire =
                SimDuration::from_bytes_at_rate(s.nbytes + Packet::HEADER_BYTES, params.mb_per_s);
            let at = clock[src];
            clock[src] = at + wire * u64::from(s.repeat);
            packets += u64::from(s.repeat);
            entries.push((
                at,
                if s.repeat > 1 {
                    Entry::Run(PacketRun {
                        template: p,
                        count: s.repeat,
                        stride_ns: wire.as_nanos() as u32,
                    })
                } else {
                    Entry::One(p)
                },
            ));
        }
        let mut fabric = Interconnect::new(nodes, params);
        let shard = fabric.shard_mut();
        let t0 = Instant::now();
        for (at, e) in entries {
            match e {
                Entry::One(p) => black_box(shard.send(p, at)),
                Entry::Run(r) => black_box(shard.send_run(r, at)),
            };
        }
        let send_ns = ns_since(t0);
        let t1 = Instant::now();
        let mut committed = 0u64;
        while let Some(c) = shard.commit_next(None) {
            match c {
                Commit::One { packet, .. } => {
                    committed += 1;
                    black_box(packet);
                }
                Commit::Run { mut run, take, .. } => {
                    committed += u64::from(take);
                    for left in (0..take).rev() {
                        let link_ready = run.template.meta.link_ready;
                        black_box(shard.admit(&run.template, link_ready));
                        if left > 0 {
                            run.advance(1);
                        }
                    }
                    shard.restage_run_tail(run, 1);
                }
            }
        }
        commit_costs.push(ns_since(t1) as f64 / committed.max(1) as f64);
        (send_ns, packets)
    });
    (send, crate::run::median(&mut commit_costs))
}

/// `PhysMemory::write` at the shapes' sizes and destination offsets: host
/// ns per KiB written.
pub fn mem(shapes: &[Shape]) -> f64 {
    const REGION: u64 = 64 * PAGE_SIZE;
    let mut mem = PhysMemory::new(REGION + 16 * PAGE_SIZE);
    let data = vec![0x5au8; 16 * PAGE_SIZE as usize];
    median_cost(|| {
        let t0 = Instant::now();
        let mut bytes = 0u64;
        for (i, s) in shapes.iter().enumerate() {
            let pa = PhysAddr::new((i as u64 * 4 * PAGE_SIZE + s.dev_off) % REGION);
            mem.write(pa, &data[..s.nbytes as usize]).expect("probe write in range");
            bytes += s.nbytes;
        }
        black_box(&mem);
        (ns_since(t0) * 1024, bytes)
    })
}

/// The proxy pages a message touches, split at page boundaries in both
/// spaces as the user library splits them: `(source VA, device page)`
/// per hardware transfer.
fn transfers(s: &Shape) -> impl Iterator<Item = (u64, u64)> + '_ {
    let mut moved = 0u64;
    std::iter::from_fn(move || {
        if moved >= s.nbytes {
            return None;
        }
        let mem = s.src_va + moved;
        let dev_off = s.dev_off + moved;
        let chunk = (s.nbytes - moved)
            .min(PAGE_SIZE - mem % PAGE_SIZE)
            .min(PAGE_SIZE - dev_off % PAGE_SIZE);
        moved += chunk;
        Some((mem, s.dev_page + dev_off / PAGE_SIZE))
    })
}

/// `Mmu::translate` over the shapes' page pattern — each transfer's
/// source page and device proxy page, with a TLB flush wherever the
/// sending process changes (a context switch): host ns per translation.
pub fn mmu(shapes: &[Shape], tlb_entries: usize) -> f64 {
    let mut pt = PageTable::new();
    let flags = PteFlags::VALID | PteFlags::USER | PteFlags::WRITABLE;
    let mut refs = Vec::new();
    let mut last = None;
    for s in shapes {
        let flush = last.is_some_and(|l| l != (s.src, s.pid));
        last = Some((s.src, s.pid));
        for (i, (mem_va, dev_page)) in transfers(s).enumerate() {
            let dev_va = DEV_PROXY_BASE + dev_page * PAGE_SIZE;
            for va in [mem_va, dev_va] {
                let va = VirtAddr::new(va);
                let pfn = Pfn::new(va.page().raw() & 0xffff);
                pt.map(va.page(), Pte::new(pfn, flags));
            }
            refs.push((flush && i == 0, VirtAddr::new(mem_va), VirtAddr::new(dev_va)));
        }
    }
    let mut mmu = Mmu::new(tlb_entries);
    median_cost(|| {
        let t0 = Instant::now();
        for &(flush, mem_va, dev_va) in &refs {
            if flush {
                mmu.flush_all();
            }
            black_box(mmu.translate(&mut pt, mem_va, AccessKind::Read, Mode::User).ok());
            black_box(mmu.translate(&mut pt, dev_va, AccessKind::Write, Mode::User).ok());
        }
        (ns_since(t0), 2 * refs.len() as u64)
    })
}

/// `Nipt::lookup` over the NIPT indices the shapes' transfers name: host
/// ns per lookup.
pub fn nipt(shapes: &[Shape]) -> f64 {
    let mut nipt = Nipt::new(Nipt::SHRIMP_ENTRIES);
    let indices: Vec<u64> =
        shapes.iter().flat_map(|s| transfers(s).map(|(_, dev_page)| dev_page)).collect();
    for &i in &indices {
        nipt.set(i, NiptEntry { node: NodeId::new(0), pfn: Pfn::new(i) });
    }
    median_cost(|| {
        let t0 = Instant::now();
        for _ in 0..16 {
            for &i in &indices {
                black_box(nipt.lookup(black_box(i)));
            }
        }
        (ns_since(t0), 16 * indices.len() as u64)
    })
}
