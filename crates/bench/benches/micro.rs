//! Micro-benchmarks of the simulator's hot primitives.
//!
//! These measure *host* performance of the building blocks (state machine,
//! proxy math, MMU, TLB, fabric staging) — engineering benchmarks that keep
//! the simulator fast, as opposed to the `src/bin/*` experiment harnesses
//! that reproduce the paper's *simulated* results.
//!
//! Self-timed (no external harness dependency): each benchmark runs a
//! short warm-up, then iterates until ~100 ms of wall clock has elapsed,
//! and the mean ns/iter is printed.

use std::hint::black_box;
use std::time::Instant;

use shrimp_dma::{DmaTiming, LoopbackPort};
use shrimp_mem::{Layout, Pfn, PhysAddr, PhysMemory, VirtAddr, Vpn, PAGE_SIZE};
use shrimp_mmu::{AccessKind, Mmu, Mode, PageTable, Pte, PteFlags};
use shrimp_net::{Commit, FabricShard, Interconnect, LinkParams, NodeId, Packet};
use shrimp_sim::{SimTime, SplitMix64, XferId};
use udma_core::{plan::plan_transfer, state, UdmaController, UdmaStatus};

/// Runs `f` for ~100 ms after a short warm-up and prints mean ns/iter.
fn bench<R>(name: &str, mut f: impl FnMut() -> R) {
    const WARMUP: u32 = 1_000;
    const TARGET_NS: u128 = 100_000_000;
    for _ in 0..WARMUP {
        black_box(f());
    }
    let mut iters: u64 = 0;
    let mut batch: u64 = 1_000;
    let start = Instant::now();
    loop {
        for _ in 0..batch {
            black_box(f());
        }
        iters += batch;
        let elapsed = start.elapsed().as_nanos();
        if elapsed >= TARGET_NS {
            let per_iter = elapsed as f64 / iters as f64;
            println!("{name:<36} {per_iter:>12.1} ns/iter  ({iters} iters)");
            return;
        }
        batch = batch.saturating_mul(2);
    }
}

fn bench_state_machine() {
    bench("udma_state_transition", || {
        let (s, _) = state::transition(
            black_box(state::UdmaState::DestLoaded),
            black_box(state::UdmaEvent::Load),
        );
        s
    });
}

fn bench_proxy_math() {
    let layout = Layout::new(64 * 1024 * 1024, 1024 * PAGE_SIZE);
    bench("proxy_roundtrip", || {
        let p = layout.proxy_of_phys(black_box(PhysAddr::new(0x12345))).unwrap();
        layout.phys_of_proxy(p).unwrap()
    });
    let dest = layout.dev_proxy_addr(3, 0);
    let src = layout.proxy_of_phys(PhysAddr::new(0x4000)).unwrap();
    bench("plan_transfer", || {
        plan_transfer(&layout, black_box(dest), black_box(src), 4096).unwrap()
    });
}

fn bench_status_word() {
    let status = UdmaStatus {
        initiation: true,
        transferring: true,
        matches: true,
        remaining_bytes: 2048,
        ..UdmaStatus::default()
    };
    bench("status_pack_unpack", || UdmaStatus::unpack(black_box(status.pack())));
}

fn bench_mmu() {
    let mut pt = PageTable::new();
    for i in 0..128u64 {
        pt.map(
            Vpn::new(i),
            Pte::new(Pfn::new(i + 1), PteFlags::VALID | PteFlags::USER | PteFlags::WRITABLE),
        );
    }
    let mut mmu = Mmu::new(64);
    // Warm the TLB for the hit benchmark.
    let _ = mmu.translate(&mut pt, VirtAddr::new(0x1000), AccessKind::Read, Mode::User);
    bench("mmu_translate_tlb_hit", || {
        mmu.translate(&mut pt, black_box(VirtAddr::new(0x1008)), AccessKind::Read, Mode::User)
            .unwrap()
    });
    let mut i = 0u64;
    bench("mmu_translate_tlb_miss", || {
        mmu.flush_all();
        i = (i + 1) % 128;
        mmu.translate(
            &mut pt,
            black_box(VirtAddr::new(i * PAGE_SIZE)),
            AccessKind::Read,
            Mode::User,
        )
        .unwrap()
    });
}

fn bench_controller_initiation() {
    let layout = Layout::new(64 * PAGE_SIZE, 64 * PAGE_SIZE);
    let mut mem = PhysMemory::new(64 * PAGE_SIZE);
    let mut port = LoopbackPort::new(2 * PAGE_SIZE as usize);
    let mut udma = UdmaController::new(layout, DmaTiming::default());
    let dest = layout.dev_proxy_addr(0, 0);
    let src = layout.proxy_of_phys(PhysAddr::new(0x1000)).unwrap();
    let mut now = SimTime::ZERO;
    bench("udma_controller_full_initiation", || {
        udma.handle_store(dest, 64, now, &mut mem, &mut port);
        let status = udma.handle_load(src, now, &mut mem, &mut port);
        now += udma.engine().duration_for(64);
        udma.poll(now, &mut mem, &mut port);
        status
    });
}

fn bench_fabric_stage_commit() {
    const NODES: u16 = 64;
    let mut net = Interconnect::new(NODES, LinkParams::default());
    let shard = net.shard_mut();
    let mut rng = SplitMix64::new(1);
    let mut seq = 0u64;
    let mut send = |shard: &mut FabricShard, mut p: Packet| {
        p.dst = NodeId::new(rng.next_below(u64::from(NODES)) as u16);
        p.meta.id = XferId::new(0, seq);
        seq += 1;
        shard.send(p, SimTime::from_nanos(rng.next_below(1_000_000)));
    };
    // A standing backlog spread over every destination, so each commit
    // pops from populated queues; the committed packet is sent again.
    let template = Packet::new(NodeId::new(0), NodeId::new(0), PhysAddr::new(0), vec![0; 64]);
    for _ in 0..256 {
        send(shard, template.clone());
    }
    let mut hand = Some(template);
    bench("fabric_send_commit_next", || {
        send(shard, hand.take().expect("a packet in hand"));
        if let Some(Commit::One { packet, .. }) = shard.commit_next(None) {
            hand = Some(packet);
        }
    });
}

fn bench_phys_memory() {
    let mut mem = PhysMemory::new(1024 * PAGE_SIZE);
    let page = vec![0xa5u8; PAGE_SIZE as usize];
    bench("phys_memory_page_write", || {
        mem.write(black_box(PhysAddr::new(8 * PAGE_SIZE)), &page).unwrap()
    });
}

fn main() {
    bench_state_machine();
    bench_proxy_math();
    bench_status_word();
    bench_mmu();
    bench_controller_initiation();
    bench_fabric_stage_commit();
    bench_phys_memory();
}
