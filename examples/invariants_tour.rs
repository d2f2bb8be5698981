//! A guided tour of the paper's four OS invariants (§6), demonstrating
//! each one live on a simulated node and printing what the kernel did.
//!
//! Run: `cargo run -p shrimp --example invariants_tour`

use shrimp_devices::StreamSink;
use shrimp_machine::MachineConfig;
use shrimp_mem::{VirtAddr, DEV_PROXY_BASE, PAGE_SIZE};
use shrimp_os::{Node, NodeConfig, Trap};
use shrimp_sim::{CostModel, MetricSet, SimDuration};
use udma_core::UdmaStatus;

fn main() -> Result<(), Trap> {
    // A slow bus (so transfers stay in flight long enough to watch) and a
    // tight memory (so the pager runs).
    let cost = CostModel {
        bus_mb_per_s: 1.0,
        disk_seek: SimDuration::from_us(20.0),
        disk_rotation: SimDuration::from_us(10.0),
        disk_mb_per_s: 500.0,
        ..CostModel::default()
    };
    let config = NodeConfig {
        machine: MachineConfig { mem_bytes: 512 * PAGE_SIZE, cost, ..MachineConfig::default() },
        user_frames: Some(5),
    };
    let mut node = Node::new(config, StreamSink::new("device"));
    let layout = node.machine().layout();

    // ---------------------------------------------------------------
    println!("== I1: atomicity of the two-instruction sequence ==");
    let alice = node.spawn();
    let bob = node.spawn();
    node.mmap(alice, 0x10000, 1, true)?;
    node.mmap(bob, 0x10000, 1, true)?;
    node.grant_device_proxy(alice, 0, 1, true)?;
    node.grant_device_proxy(bob, 1, 1, true)?;
    node.user_store(alice, VirtAddr::new(0x10000), 0xA11CE)?;
    node.user_store(bob, VirtAddr::new(0x10000), 0xB0B)?;

    // Alice STOREs her destination... and is preempted before her LOAD.
    node.user_store(alice, VirtAddr::new(DEV_PROXY_BASE), 256)?;
    node.ensure_current(bob)?; // context switch fires the Inval STORE
    println!("  alice latched a destination; switch to bob fired the I1 Inval");

    // Bob cannot complete Alice's initiation: his LOAD names *his* memory
    // and the latch is gone anyway.
    let bob_proxy = layout.proxy_of_virt(VirtAddr::new(0x10000)).unwrap();
    let status = UdmaStatus::unpack(node.user_load(bob, bob_proxy)?);
    println!("  bob's LOAD sees:  {status}");
    assert!(status.initiation && status.invalid, "no cross-process initiation");

    // Alice retries the whole sequence and succeeds.
    node.user_store(alice, VirtAddr::new(DEV_PROXY_BASE), 256)?;
    let alice_proxy = layout.proxy_of_virt(VirtAddr::new(0x10000)).unwrap();
    let status = UdmaStatus::unpack(node.user_load(alice, alice_proxy)?);
    assert!(status.started());
    println!("  alice's retry:    {status}");
    let drained = node.machine().udma_drained_at();
    node.machine_mut().advance_to(drained);

    // ---------------------------------------------------------------
    println!("\n== I2: proxy mappings die with their real mappings ==");
    let before = node.process(alice)?.pt.get(alice_proxy.page()).is_some();
    println!("  alice's proxy PTE exists: {before}");
    // Thrash memory until alice's page is evicted.
    let crowd = node.spawn();
    node.mmap(crowd, 0x80000, 8, true)?;
    for i in 0..8u64 {
        node.user_store(crowd, VirtAddr::new(0x80000 + i * PAGE_SIZE), 1)?;
    }
    let real_gone = node.process(alice)?.pt.get(VirtAddr::new(0x10000).page()).is_none();
    let proxy_gone = node.process(alice)?.pt.get(alice_proxy.page()).is_none();
    println!("  after eviction: real mapping gone: {real_gone}, proxy mapping gone: {proxy_gone}");
    assert_eq!(real_gone, proxy_gone, "I2: the two mappings live and die together");
    node.check_invariants().expect("I2 holds");

    // ---------------------------------------------------------------
    println!("\n== I3: writable proxy pages imply dirty real pages ==");
    // Touch alice's page back in (read-only access: page is clean).
    let _ = node.user_load(alice, VirtAddr::new(0x10000))?;
    let _ = node.user_load(alice, alice_proxy)?; // proxy recreated read-only
    let pte = *node.process(alice)?.pt.get(alice_proxy.page()).unwrap();
    println!("  clean page -> proxy writable: {}", pte.is_writable());
    assert!(!pte.is_writable());
    // Naming the page as a DMA *destination* write-faults; the kernel
    // dirties the page and enables the proxy.
    node.user_store(alice, alice_proxy, 64)?;
    let pte = *node.process(alice)?.pt.get(alice_proxy.page()).unwrap();
    let real = *node.process(alice)?.pt.get(VirtAddr::new(0x10000).page()).unwrap();
    println!(
        "  after I3 fault  -> proxy writable: {}, page dirty: {}",
        pte.is_writable(),
        real.is_dirty()
    );
    assert!(pte.is_writable() && real.is_dirty());
    node.machine_mut().kernel_inval_udma(); // drop the latched initiation
    node.check_invariants().expect("I3 holds");

    // ---------------------------------------------------------------
    println!("\n== I4: frames named by the hardware are never remapped ==");
    // Start a long (slow-bus) transfer from alice's page...
    node.user_store(alice, VirtAddr::new(DEV_PROXY_BASE), PAGE_SIZE as i64)?;
    let status = UdmaStatus::unpack(node.user_load(alice, alice_proxy)?);
    assert!(status.started());
    let held = node.process(alice)?.vpages[&VirtAddr::new(0x10000).page()].pfn().unwrap();
    println!("  transfer in flight from frame {held}");
    // ...and thrash again: the pager must work around the held frame.
    for i in 0..8u64 {
        node.user_store(crowd, VirtAddr::new(0x80000 + i * PAGE_SIZE), 2)?;
    }
    let still = node.process(alice)?.vpages[&VirtAddr::new(0x10000).page()].pfn();
    println!(
        "  after {} evictions ({} I4 skips): frame still {:?}",
        node.counters().evictions.get(),
        node.counters().i4_skips.get(),
        still
    );
    assert_eq!(still, Some(held), "I4: the frame survived the storm");
    node.check_invariants().expect("I4 holds");

    let mut metrics = MetricSet::default();
    node.counters().harvest(&mut metrics, "kernel", None);
    print!("\nall four invariants demonstrated; kernel metrics:\n{}", metrics.render_text());
    Ok(())
}
