//! Property-based tests: the paper's four OS invariants under arbitrary
//! operation sequences, plus algebraic properties of the core data types.

use proptest::prelude::*;

use shrimp_devices::StreamSink;
use shrimp_machine::{MachineConfig, UdmaMode};
use shrimp_mem::{Layout, PhysAddr, VirtAddr, PAGE_SIZE, PROXY_OFFSET};
use shrimp_os::{Node, NodeConfig};
use udma_core::state::{transition, Effect, UdmaEvent, UdmaState};
use udma_core::UdmaStatus;

// ---------------------------------------------------------------------
// Proxy-space algebra.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn proxy_roundtrip_phys(addr in 0u64..(64 * 1024 * 1024)) {
        let layout = Layout::new(64 * 1024 * 1024, 1024 * PAGE_SIZE);
        let pa = PhysAddr::new(addr);
        let proxy = layout.proxy_of_phys(pa).unwrap();
        prop_assert_eq!(layout.phys_of_proxy(proxy).unwrap(), pa);
        // PROXY preserves page offsets (the hardware relies on this).
        prop_assert_eq!(proxy.page_offset(), pa.page_offset());
    }

    #[test]
    fn proxy_roundtrip_virt(addr in 0u64..PROXY_OFFSET) {
        let layout = Layout::new(8 * 1024 * 1024, 1024 * PAGE_SIZE);
        let va = VirtAddr::new(addr);
        let proxy = layout.proxy_of_virt(va).unwrap();
        prop_assert_eq!(layout.virt_of_proxy(proxy).unwrap(), va);
    }

    #[test]
    fn proxy_regions_never_overlap(addr in any::<u64>()) {
        let layout = Layout::new(64 * 1024 * 1024, 1024 * PAGE_SIZE);
        // Any address classifies into exactly one region (total function;
        // no panics), and proxy translation only succeeds in the right one.
        let region = layout.region_of_phys(PhysAddr::new(addr));
        let as_real = layout.proxy_of_phys(PhysAddr::new(addr)).is_ok();
        let as_proxy = layout.phys_of_proxy(PhysAddr::new(addr)).is_ok();
        prop_assert!(!(as_real && as_proxy), "{addr:#x} in two regions ({region:?})");
    }
}

// ---------------------------------------------------------------------
// Status word.
// ---------------------------------------------------------------------

fn arb_status() -> impl Strategy<Value = UdmaStatus> {
    (
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        0u16..0x800,
        0u64..(1 << 48),
    )
        .prop_map(
            |(
                initiation,
                transferring,
                invalid,
                matches,
                wrong_space,
                device_error,
                remaining_bytes,
            )| {
                UdmaStatus {
                    initiation,
                    transferring,
                    invalid,
                    matches,
                    wrong_space,
                    device_error,
                    remaining_bytes,
                }
            },
        )
}

proptest! {
    #[test]
    fn status_pack_unpack_roundtrip(status in arb_status()) {
        prop_assert_eq!(UdmaStatus::unpack(status.pack()), status);
    }

    #[test]
    fn status_retry_and_error_are_disjoint(status in arb_status()) {
        prop_assert!(!(status.should_retry() && status.is_error()));
        // A started transfer is neither a retry case nor an error.
        if status.started() {
            prop_assert!(!status.should_retry());
            prop_assert!(!status.is_error());
        }
    }
}

// ---------------------------------------------------------------------
// State machine.
// ---------------------------------------------------------------------

fn arb_event() -> impl Strategy<Value = UdmaEvent> {
    prop_oneof![
        Just(UdmaEvent::Store),
        Just(UdmaEvent::Inval),
        Just(UdmaEvent::Load),
        Just(UdmaEvent::BadLoad),
        Just(UdmaEvent::TransferDone),
    ]
}

proptest! {
    /// Figure 5 invariants over arbitrary event streams:
    /// - a transfer only ever starts from DestLoaded via Load,
    /// - Transferring is only left via TransferDone,
    /// - the latch is only populated by Store.
    #[test]
    fn state_machine_stream_invariants(events in proptest::collection::vec(arb_event(), 0..64)) {
        let mut state = UdmaState::Idle;
        for ev in events {
            let (next, effect) = transition(state, ev);
            if effect == Effect::StartTransfer {
                prop_assert_eq!(state, UdmaState::DestLoaded);
                prop_assert_eq!(ev, UdmaEvent::Load);
                prop_assert_eq!(next, UdmaState::Transferring);
            }
            if state == UdmaState::Transferring && next != UdmaState::Transferring {
                prop_assert_eq!(ev, UdmaEvent::TransferDone);
            }
            if effect == Effect::LatchDest {
                prop_assert_eq!(ev, UdmaEvent::Store);
                prop_assert_eq!(next, UdmaState::DestLoaded);
            }
            state = next;
        }
    }

    /// From any state, Inval followed by the two-instruction sequence
    /// reaches Transferring unless a transfer is already running — the
    /// user-level retry protocol's termination argument.
    #[test]
    fn retry_always_reaches_transferring(start in prop_oneof![
        Just(UdmaState::Idle),
        Just(UdmaState::DestLoaded),
        Just(UdmaState::Transferring),
    ]) {
        let (s, _) = transition(start, UdmaEvent::Inval);
        let (s, _) = transition(s, UdmaEvent::Store);
        let (s, _) = transition(s, UdmaEvent::Load);
        if start == UdmaState::Transferring {
            // Busy device: unchanged, retry later.
            prop_assert_eq!(s, UdmaState::Transferring);
        } else {
            prop_assert_eq!(s, UdmaState::Transferring);
        }
    }
}

// ---------------------------------------------------------------------
// Kernel invariants I1–I4 under random operation sequences.
// ---------------------------------------------------------------------

// ---------------------------------------------------------------------
// Shadow-model oracle: under arbitrary stores, reads, cleans and memory
// pressure, user memory must behave exactly like a flat byte array — the
// pager (evictions, swap round-trips, proxy unmapping) must be invisible
// to program semantics.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn paging_is_transparent_to_program_semantics(
        ops in proptest::collection::vec(
            (0u64..10, 0u64..(PAGE_SIZE - 8), any::<i64>(), 0u8..4),
            1..100,
        ),
    ) {
        const PAGES: u64 = 10;
        let config = NodeConfig {
            machine: MachineConfig {
                mem_bytes: 256 * PAGE_SIZE,
                ..MachineConfig::default()
            },
            user_frames: Some(4), // heavy pressure: 4 frames for 10 pages
        };
        let mut node = Node::new(config, StreamSink::new("sink"));
        let pid = node.spawn();
        node.mmap(pid, 0x10_0000, PAGES, true).unwrap();
        let mut shadow = vec![0u8; (PAGES * PAGE_SIZE) as usize];

        for &(page, off, val, kind) in &ops {
            let off = off & !7; // 8-byte aligned word ops
            let va = VirtAddr::new(0x10_0000 + page * PAGE_SIZE + off);
            let idx = (page * PAGE_SIZE + off) as usize;
            match kind {
                0 | 1 => {
                    node.user_store(pid, va, val).unwrap();
                    shadow[idx..idx + 8].copy_from_slice(&(val as u64).to_le_bytes());
                }
                2 => {
                    let got = node.user_load(pid, va).unwrap();
                    let want =
                        u64::from_le_bytes(shadow[idx..idx + 8].try_into().unwrap());
                    prop_assert_eq!(got, want, "load at page {} off {}", page, off);
                }
                _ => {
                    let _ = node.clean_page(pid, va.page()).unwrap();
                }
            }
            node.check_invariants().map_err(TestCaseError::fail)?;
        }

        // Final sweep: every byte of every page matches the shadow.
        let all = node
            .read_user(pid, VirtAddr::new(0x10_0000), PAGES * PAGE_SIZE)
            .unwrap();
        prop_assert_eq!(all, shadow);
        // And the pressure was real.
        prop_assert!(node.counters().evictions.get() > 0 || ops.len() < 6);
    }
}

// ---------------------------------------------------------------------
// Differential testing: the §7 queueing extension must be observationally
// equivalent to the basic device for a single process's send stream —
// only timing may differ.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn queued_and_basic_devices_deliver_identical_streams(
        sizes in proptest::collection::vec(1u64..1024, 1..16),
        offsets in proptest::collection::vec(0u64..960, 16),
    ) {
        let run = |mode: UdmaMode| {
            let config = NodeConfig {
                machine: MachineConfig {
                    mem_bytes: 256 * PAGE_SIZE,
                    udma: mode,
                    ..MachineConfig::default()
                },
                user_frames: None,
            };
            let mut n = Node::new(config, StreamSink::new("sink"));
            let pid = n.spawn();
            n.mmap(pid, 0x10_0000, 2, true).unwrap();
            n.grant_device_proxy(pid, 0, 2, true).unwrap();
            let fill: Vec<u8> = (0..2 * PAGE_SIZE).map(|i| (i % 241) as u8).collect();
            n.write_user(pid, VirtAddr::new(0x10_0000), &fill).unwrap();
            for (i, &raw) in sizes.iter().enumerate() {
                let size = (raw.max(1) + 3) & !3;
                let off = offsets[i] & !3;
                n.udma_send(pid, VirtAddr::new(0x10_0000 + off), 0, off, size).unwrap();
            }
            let drained = n.machine().udma_drained_at();
            n.machine_mut().advance_to(drained);
            n.machine_mut().poll();
            // The observable: the exact (address, bytes) write sequence.
            n.machine()
                .device()
                .writes()
                .iter()
                .map(|(a, d, _)| (*a, d.clone()))
                .collect::<Vec<_>>()
        };
        let basic = run(UdmaMode::Basic);
        let queued = run(UdmaMode::Queued(8));
        prop_assert_eq!(basic, queued);
    }
}

#[derive(Clone, Debug)]
enum Op {
    Store { page: u64, val: i64 },
    Load { page: u64 },
    ProxyLoad { page: u64 },
    ProxyStore { page: u64, nbytes: i64 },
    DevStore { dev_page: u64, nbytes: i64 },
    DevLoad { dev_page: u64 },
    Clean { page: u64 },
    Switch,
    Drain,
}

fn arb_op(pages: u64, dev_pages: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..pages, any::<i64>()).prop_map(|(page, val)| Op::Store { page, val }),
        (0..pages).prop_map(|page| Op::Load { page }),
        (0..pages).prop_map(|page| Op::ProxyLoad { page }),
        (0..pages, 1i64..2048).prop_map(|(page, nbytes)| Op::ProxyStore { page, nbytes }),
        (0..dev_pages, -64i64..2048)
            .prop_map(|(dev_page, nbytes)| Op::DevStore { dev_page, nbytes }),
        (0..dev_pages).prop_map(|dev_page| Op::DevLoad { dev_page }),
        (0..pages).prop_map(|page| Op::Clean { page }),
        Just(Op::Switch),
        Just(Op::Drain),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Two untrusting processes issue arbitrary references (memory, memory
    /// proxy, device proxy), cleans, and context switches on a
    /// memory-pressured node; I1–I4 must hold after every step and no
    /// operation may panic the kernel.
    #[test]
    fn kernel_invariants_hold_under_random_ops(
        ops in proptest::collection::vec(arb_op(6, 3), 1..80),
        seed in any::<u64>(),
    ) {
        let _ = seed;
        let config = NodeConfig {
            machine: MachineConfig {
                mem_bytes: 256 * PAGE_SIZE,
                udma: UdmaMode::Basic,
                ..MachineConfig::default()
            },
            user_frames: Some(5),
        };
        let mut node = Node::new(config, StreamSink::new("sink"));
        let layout = node.machine().layout();
        let pids = [node.spawn(), node.spawn()];
        for &pid in &pids {
            node.mmap(pid, 0x10_0000, 6, true).unwrap();
            node.grant_device_proxy(pid, 0, 3, true).unwrap();
        }

        for (i, op) in ops.iter().enumerate() {
            let pid = pids[i % 2];
            let va = |page: u64| VirtAddr::new(0x10_0000 + page * PAGE_SIZE);
            let result: Result<(), shrimp_os::Trap> = match *op {
                Op::Store { page, val } => node.user_store(pid, va(page), val).map(|_| ()),
                Op::Load { page } => node.user_load(pid, va(page)).map(|_| ()),
                Op::ProxyLoad { page } => node
                    .user_load(pid, layout.proxy_of_virt(va(page)).unwrap())
                    .map(|_| ()),
                Op::ProxyStore { page, nbytes } => node
                    .user_store(pid, layout.proxy_of_virt(va(page)).unwrap(), nbytes)
                    .map(|_| ()),
                Op::DevStore { dev_page, nbytes } => node
                    .user_store(
                        pid,
                        VirtAddr::new(shrimp_mem::DEV_PROXY_BASE + dev_page * PAGE_SIZE),
                        nbytes,
                    )
                    .map(|_| ()),
                Op::DevLoad { dev_page } => node
                    .user_load(
                        pid,
                        VirtAddr::new(shrimp_mem::DEV_PROXY_BASE + dev_page * PAGE_SIZE),
                    )
                    .map(|_| ()),
                Op::Clean { page } => node.clean_page(pid, va(page).page()).map(|_| ()),
                Op::Switch => {
                    node.context_switch(None);
                    Ok(())
                }
                Op::Drain => {
                    let t = node.machine().udma_drained_at();
                    node.machine_mut().advance_to(t);
                    Ok(())
                }
            };
            // Operations may trap (that is protection working); they must
            // never corrupt kernel state.
            let _ = result;
            if let Err(v) = node.check_invariants() {
                return Err(TestCaseError::fail(format!("op {i} ({op:?}): {v}")));
            }
        }
    }
}
