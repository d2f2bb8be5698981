//! Kernel-level integration tests: demand paging, invariants under
//! pressure, traditional-vs-UDMA equivalence, multiprogramming.

use shrimp_devices::{StreamSink, StreamSource};
use shrimp_machine::{MachineConfig, UdmaMode};
use shrimp_mem::{VirtAddr, PAGE_SIZE};
use shrimp_os::{DmaStrategy, Node, NodeConfig, Trap};
use shrimp_sim::{CostModel, SimDuration, SplitMix64};

fn node_with(frames: Option<u64>, mode: UdmaMode) -> Node<StreamSink> {
    let config = NodeConfig {
        machine: MachineConfig {
            mem_bytes: 512 * PAGE_SIZE,
            udma: mode,
            ..MachineConfig::default()
        },
        user_frames: frames,
    };
    Node::new(config, StreamSink::new("sink"))
}

#[test]
fn udma_and_kernel_dma_deliver_identical_bytes() {
    let mut n = node_with(None, UdmaMode::Basic);
    let pid = n.spawn();
    n.mmap(pid, 0x10_0000, 3, true).unwrap();
    n.grant_device_proxy(pid, 0, 3, true).unwrap();
    let data: Vec<u8> = (0..2 * PAGE_SIZE + 512).map(|i| (i % 239) as u8).collect();
    n.write_user(pid, VirtAddr::new(0x10_0000), &data).unwrap();

    n.udma_send(pid, VirtAddr::new(0x10_0000), 0, 0, data.len() as u64).unwrap();
    let udma_bytes: Vec<u8> =
        n.machine().device().writes().iter().flat_map(|(_, d, _)| d.clone()).collect();

    let mut n2 = node_with(None, UdmaMode::Basic);
    let pid2 = n2.spawn();
    n2.mmap(pid2, 0x10_0000, 3, true).unwrap();
    n2.write_user(pid2, VirtAddr::new(0x10_0000), &data).unwrap();
    n2.sys_dma_to_device(
        pid2,
        VirtAddr::new(0x10_0000),
        0,
        data.len() as u64,
        DmaStrategy::PinPages,
    )
    .unwrap();
    let kernel_bytes: Vec<u8> =
        n2.machine().device().writes().iter().flat_map(|(_, d, _)| d.clone()).collect();

    assert_eq!(udma_bytes, data);
    assert_eq!(kernel_bytes, data);
}

#[test]
fn bounce_buffer_and_pinning_strategies_agree() {
    for strategy in [DmaStrategy::PinPages, DmaStrategy::BounceBuffer] {
        let mut n = node_with(None, UdmaMode::Basic);
        let pid = n.spawn();
        n.mmap(pid, 0x20_0000, 2, true).unwrap();
        let data = vec![0x3cu8; PAGE_SIZE as usize + 17];
        n.write_user(pid, VirtAddr::new(0x20_0000), &data).unwrap();
        n.sys_dma_to_device(pid, VirtAddr::new(0x20_0000), 0, data.len() as u64, strategy).unwrap();
        let got: Vec<u8> =
            n.machine().device().writes().iter().flat_map(|(_, d, _)| d.clone()).collect();
        assert_eq!(got, data, "{strategy:?}");
    }
}

#[test]
fn paging_pressure_with_concurrent_udma_keeps_invariants() {
    // Deterministic random workload: many pages, few frames, transfers in
    // flight; invariants re-checked continuously.
    let mut n = node_with(Some(6), UdmaMode::Basic);
    let pid = n.spawn();
    let pages = 24u64;
    n.mmap(pid, 0x10_0000, pages, true).unwrap();
    n.grant_device_proxy(pid, 0, 4, true).unwrap();
    let mut rng = SplitMix64::new(2024);

    for round in 0..120 {
        let page = rng.next_below(pages);
        let va = VirtAddr::new(0x10_0000 + page * PAGE_SIZE);
        match rng.next_below(4) {
            0 => {
                n.user_store(pid, va, round as i64).unwrap();
            }
            1 => {
                let _ = n.user_load(pid, va).unwrap();
            }
            2 => {
                // A small UDMA send sourcing a random page.
                let r = n.udma_send(pid, va, rng.next_below(4), 0, 256);
                assert!(r.is_ok(), "send failed: {r:?}");
            }
            _ => {
                let _ = n.clean_page(pid, va.page()).unwrap();
            }
        }
        n.check_invariants().unwrap_or_else(|e| panic!("round {round}: {e}"));
    }
    assert!(n.counters().evictions.get() > 0, "pressure must page");
}

#[test]
fn swapped_pages_round_trip_through_backing_store() {
    let mut n = node_with(Some(3), UdmaMode::Basic);
    let pid = n.spawn();
    n.mmap(pid, 0x10_0000, 10, true).unwrap();
    // Unique content per page.
    for i in 0..10u64 {
        n.user_store(pid, VirtAddr::new(0x10_0000 + i * PAGE_SIZE + 8), (i * 1000 + 1) as i64)
            .unwrap();
    }
    // Everything reads back despite only 3 frames.
    for i in (0..10u64).rev() {
        assert_eq!(
            n.user_load(pid, VirtAddr::new(0x10_0000 + i * PAGE_SIZE + 8)).unwrap(),
            i * 1000 + 1
        );
    }
    assert!(n.swap().write_count() > 0);
    assert!(n.swap().read_count() > 0);
}

#[test]
fn i3_content_consistency_after_clean_and_incoming_dma() {
    // The full I3 story: receive into a page, clean it, verify the swap
    // copy carries the DMA'd data; receive again and confirm re-dirtying.
    let config = NodeConfig {
        machine: MachineConfig { mem_bytes: 512 * PAGE_SIZE, ..MachineConfig::default() },
        user_frames: Some(8),
    };
    let mut n = Node::new(config, StreamSource::new("pattern", 0x11));
    let pid = n.spawn();
    n.mmap(pid, 0x30_0000, 1, true).unwrap();
    n.grant_device_proxy(pid, 0, 1, true).unwrap();

    // Incoming DMA (device -> memory) via UDMA.
    n.udma_recv(pid, VirtAddr::new(0x30_0000), 0, 0, 64).unwrap();
    let vpn = VirtAddr::new(0x30_0000).page();
    assert!(n.process(pid).unwrap().pt.get(vpn).unwrap().is_dirty(), "I3: page dirty");

    // Clean: the swap copy must contain the device's bytes.
    assert!(n.clean_page(pid, vpn).unwrap());
    n.check_invariants().unwrap();
    let got = n.read_user(pid, VirtAddr::new(0x30_0000), 64).unwrap();
    let src = StreamSource::new("check", 0x11);
    for (i, &b) in got.iter().enumerate() {
        assert_eq!(b, src.expected_byte(i as u64), "byte {i} after clean");
    }

    // Receiving again triggers the I3 write-enable fault path (the proxy
    // was write-protected by the clean).
    let before = n.counters().i3_write_enables.get();
    n.udma_recv(pid, VirtAddr::new(0x30_0000), 0, 4096 - 64, 64).unwrap();
    assert_eq!(n.counters().i3_write_enables.get(), before + 1);
    n.check_invariants().unwrap();
}

#[test]
fn many_processes_share_the_device_without_interference() {
    let mut n = node_with(None, UdmaMode::Basic);
    let mut pids = Vec::new();
    for i in 0..5u64 {
        let pid = n.spawn();
        n.mmap(pid, 0x10_0000, 1, true).unwrap();
        n.grant_device_proxy(pid, i, 1, true).unwrap();
        n.write_user(pid, VirtAddr::new(0x10_0000), &[0xc0 + i as u8; 128]).unwrap();
        pids.push(pid);
    }
    // Interleave sends; every message lands at its own device offset.
    for round in 0..3 {
        for (i, &pid) in pids.iter().enumerate() {
            let r = n.udma_send(pid, VirtAddr::new(0x10_0000), i as u64, (round * 128) as u64, 128);
            r.unwrap();
        }
    }
    let writes = n.machine().device().writes();
    assert_eq!(writes.len(), 15);
    for (dev_addr, data, _) in writes {
        let owner = dev_addr / PAGE_SIZE;
        assert!(data.iter().all(|&b| b == 0xc0 + owner as u8), "cross-talk at {dev_addr:#x}");
    }
    n.check_invariants().unwrap();
}

#[test]
fn queued_hardware_under_os_control() {
    let mut n = node_with(None, UdmaMode::Queued(8));
    let pid = n.spawn();
    n.mmap(pid, 0x10_0000, 8, true).unwrap();
    n.grant_device_proxy(pid, 0, 8, true).unwrap();
    let data = vec![0x66u8; (8 * PAGE_SIZE) as usize];
    n.write_user(pid, VirtAddr::new(0x10_0000), &data).unwrap();
    let r = n.udma_send(pid, VirtAddr::new(0x10_0000), 0, 0, data.len() as u64).unwrap();
    assert_eq!(r.transfers, 8);
    assert_eq!(r.retries, 0, "queue depth 8 absorbs all pages");
    assert_eq!(n.machine().device().bytes_received(), 8 * PAGE_SIZE);
    n.check_invariants().unwrap();
}

#[test]
fn trap_paths_do_not_corrupt_kernel_state() {
    let mut n = node_with(Some(4), UdmaMode::Basic);
    let pid = n.spawn();
    n.mmap(pid, 0x10_0000, 2, true).unwrap();

    // A parade of failures...
    assert!(matches!(
        n.user_load(pid, VirtAddr::new(0x90_0000)).unwrap_err(),
        Trap::SegFault { .. }
    ));
    assert!(n.udma_send(pid, VirtAddr::new(0x10_0000), 0, 0, 64).is_err(), "no grant yet");
    n.grant_device_proxy(pid, 0, 1, false).unwrap(); // read-only grant
    assert!(matches!(
        n.udma_send(pid, VirtAddr::new(0x10_0000), 0, 0, 64).unwrap_err(),
        Trap::ReadOnly { .. }
    ));

    // ...after which normal service continues.
    n.grant_device_proxy(pid, 1, 1, true).unwrap();
    n.write_user(pid, VirtAddr::new(0x10_0000), b"recovered").unwrap();
    // 12-byte aligned transfer (device validates nothing on StreamSink).
    let r = n.udma_send(pid, VirtAddr::new(0x10_0000), 1, 0, 12).unwrap();
    assert_eq!(r.transfers, 1);
    n.check_invariants().unwrap();
}

#[test]
fn elapsed_times_are_deterministic_across_runs() {
    let run = || {
        let mut n = node_with(Some(8), UdmaMode::Basic);
        let pid = n.spawn();
        n.mmap(pid, 0x10_0000, 4, true).unwrap();
        n.grant_device_proxy(pid, 0, 4, true).unwrap();
        n.write_user(pid, VirtAddr::new(0x10_0000), &vec![1u8; 4096]).unwrap();
        let r = n.udma_send(pid, VirtAddr::new(0x10_0000), 0, 0, 4096).unwrap();
        (r.elapsed, n.machine().now())
    };
    assert_eq!(run(), run(), "simulation must be bit-for-bit deterministic");
}

#[test]
fn slow_device_cost_model_changes_only_timing() {
    let fast = {
        let mut n = node_with(None, UdmaMode::Basic);
        let pid = n.spawn();
        n.mmap(pid, 0x10_0000, 1, true).unwrap();
        n.grant_device_proxy(pid, 0, 1, true).unwrap();
        n.write_user(pid, VirtAddr::new(0x10_0000), &[9; 512]).unwrap();
        n.udma_send(pid, VirtAddr::new(0x10_0000), 0, 0, 512).unwrap().elapsed
    };
    let slow = {
        let config = NodeConfig {
            machine: MachineConfig {
                mem_bytes: 512 * PAGE_SIZE,
                cost: CostModel::default().with_bus_mb_per_s(3.3),
                ..MachineConfig::default()
            },
            user_frames: None,
        };
        let mut n = Node::new(config, StreamSink::new("sink"));
        let pid = n.spawn();
        n.mmap(pid, 0x10_0000, 1, true).unwrap();
        n.grant_device_proxy(pid, 0, 1, true).unwrap();
        n.write_user(pid, VirtAddr::new(0x10_0000), &[9; 512]).unwrap();
        n.udma_send(pid, VirtAddr::new(0x10_0000), 0, 0, 512).unwrap().elapsed
    };
    assert!(slow > fast + SimDuration::from_us(100.0), "10x slower bus: {slow} vs {fast}");
}
