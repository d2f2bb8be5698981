//! Property tests of the §7 queueing engine: reference-count registers
//! always agree with the associative query, capacity is honoured, and all
//! accepted work drains.

use proptest::prelude::*;

use shrimp_dma::{DmaTiming, LoopbackPort};
use shrimp_mem::{Layout, Pfn, PhysAddr, PhysMemory, PAGE_SIZE};
use shrimp_sim::{SimDuration, SimTime};
use udma_core::QueuedUdma;

const PAGES: u64 = 16;

#[derive(Clone, Debug)]
enum QOp {
    /// Latch a destination: device page + count.
    StoreDev { dev_page: u64, nbytes: u16 },
    /// Initiating load from a memory page's proxy.
    LoadMem { page: u64 },
    /// Latch a memory destination (device-to-memory direction).
    StoreMem { page: u64, nbytes: u16 },
    /// Initiating load from a device proxy page.
    LoadDev { dev_page: u64 },
    /// The kernel's context-switch Inval.
    Inval,
    /// Let time pass (fraction of a page transfer).
    Advance(u8),
}

fn arb_op() -> impl Strategy<Value = QOp> {
    prop_oneof![
        (0..4u64, 1..2048u16).prop_map(|(dev_page, nbytes)| QOp::StoreDev { dev_page, nbytes }),
        (0..PAGES).prop_map(|page| QOp::LoadMem { page }),
        (0..PAGES, 1..2048u16).prop_map(|(page, nbytes)| QOp::StoreMem { page, nbytes }),
        (0..4u64).prop_map(|dev_page| QOp::LoadDev { dev_page }),
        Just(QOp::Inval),
        (1..=16u8).prop_map(QOp::Advance),
    ]
}

/// Recomputes what every page's reference count should be by querying the
/// associative port, and cross-checks the refcount registers.
fn check_consistency(udma: &QueuedUdma) -> Result<(), TestCaseError> {
    for p in 0..PAGES {
        let pfn = Pfn::new(p);
        let associative = udma.associative_query(pfn);
        let counted = udma.ref_count(pfn) > 0;
        prop_assert_eq!(
            associative,
            counted,
            "page {}: associative={} refcount={}",
            p,
            associative,
            udma.ref_count(pfn)
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn queue_invariants_under_random_ops(
        ops in proptest::collection::vec(arb_op(), 1..120),
        capacity in 1usize..8,
    ) {
        let layout = Layout::new(PAGES * PAGE_SIZE, 8 * PAGE_SIZE);
        let mut mem = PhysMemory::new(PAGES * PAGE_SIZE);
        let mut port = LoopbackPort::new((8 * PAGE_SIZE) as usize);
        let mut udma = QueuedUdma::new(layout, DmaTiming::default(), capacity);
        let mut now = SimTime::ZERO;
        let page_time = SimDuration::from_us(130.0);

        for op in ops {
            match op {
                QOp::StoreDev { dev_page, nbytes } => {
                    let proxy = layout.dev_proxy_addr(dev_page, 0);
                    udma.handle_store(proxy, i64::from(nbytes), now, &mut mem, &mut port);
                }
                QOp::StoreMem { page, nbytes } => {
                    let proxy = layout.proxy_of_phys(PhysAddr::new(page * PAGE_SIZE)).unwrap();
                    udma.handle_store(proxy, i64::from(nbytes), now, &mut mem, &mut port);
                }
                QOp::LoadMem { page } => {
                    let proxy = layout.proxy_of_phys(PhysAddr::new(page * PAGE_SIZE)).unwrap();
                    let _ = udma.handle_load(proxy, now, &mut mem, &mut port);
                }
                QOp::LoadDev { dev_page } => {
                    let proxy = layout.dev_proxy_addr(dev_page, 0);
                    let _ = udma.handle_load(proxy, now, &mut mem, &mut port);
                }
                QOp::Inval => {
                    let proxy = layout.proxy_of_phys(PhysAddr::new(0)).unwrap();
                    udma.handle_store(proxy, -1, now, &mut mem, &mut port);
                }
                QOp::Advance(f) => {
                    now += page_time * u64::from(f) / 4;
                    udma.poll(now, &mut mem, &mut port);
                }
            }
            // Capacity is a hard bound.
            prop_assert!(udma.queued_len() <= capacity);
            // The two I4 mechanisms always agree.
            check_consistency(&udma)?;
        }

        // Everything accepted eventually drains, releasing every count.
        let drained = udma.drained_at() + SimDuration::from_us(1.0);
        udma.poll(drained, &mut mem, &mut port);
        // One more Inval clears any dangling latch.
        let proxy = layout.proxy_of_phys(PhysAddr::new(0)).unwrap();
        udma.handle_store(proxy, -1, drained, &mut mem, &mut port);
        prop_assert!(udma.is_idle(drained), "device must drain");
        for p in 0..PAGES {
            prop_assert_eq!(udma.ref_count(Pfn::new(p)), 0, "page {} leaked a count", p);
        }
    }

    /// Initiations and completions balance for any accepted stream.
    #[test]
    fn completions_match_initiations(pages in proptest::collection::vec(0..PAGES, 1..24)) {
        let layout = Layout::new(PAGES * PAGE_SIZE, 8 * PAGE_SIZE);
        let mut mem = PhysMemory::new(PAGES * PAGE_SIZE);
        let mut port = LoopbackPort::new((8 * PAGE_SIZE) as usize);
        let mut udma = QueuedUdma::new(layout, DmaTiming::default(), 64);
        let mut now = SimTime::ZERO;
        let mut accepted = 0u64;
        for (i, &page) in pages.iter().enumerate() {
            let dest = layout.dev_proxy_addr(i as u64 % 4, 0);
            udma.handle_store(dest, 256, now, &mut mem, &mut port);
            let src = layout.proxy_of_phys(PhysAddr::new(page * PAGE_SIZE)).unwrap();
            let status = udma.handle_load(src, now, &mut mem, &mut port);
            if status.started() {
                accepted += 1;
            }
            now += SimDuration::from_us(3.0);
        }
        let drained = udma.drained_at() + SimDuration::from_us(1.0);
        udma.poll(drained, &mut mem, &mut port);
        prop_assert_eq!(udma.counters().completions.get(), accepted);
    }
}
