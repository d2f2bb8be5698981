//! Quickstart: the UDMA mechanism in five minutes.
//!
//! Boots a single simulated node whose UDMA device is a stream sink,
//! walks through the paper's two-instruction initiation sequence at the
//! lowest level (raw proxy references), and then uses the user-level
//! library for a whole-message transfer.
//!
//! Run: `cargo run -p shrimp --example quickstart`

use shrimp_devices::StreamSink;
use shrimp_mem::{VirtAddr, DEV_PROXY_BASE, PAGE_SIZE};
use shrimp_os::{Node, NodeConfig, Trap};
use shrimp_sim::MetricSet;
use udma_core::UdmaStatus;

fn main() -> Result<(), Trap> {
    // 1. Boot a node: machine (CPU + MMU + UDMA hardware) + kernel.
    let mut node = Node::new(NodeConfig::default(), StreamSink::new("sink"));
    let pid = node.spawn();

    // 2. Map one page of user memory and get a device-proxy grant from the
    //    kernel (the only system calls in this whole program).
    node.mmap(pid, 0x1_0000, 1, true)?;
    node.grant_device_proxy(pid, 0, 1, true)?;

    // 3. Fill the buffer like any user program would.
    node.write_user(pid, VirtAddr::new(0x1_0000), b"hello, user-level DMA!!!")?;

    // 4. The two-instruction initiation sequence, by hand:
    //        STORE nbytes TO   PROXY(dest)   ; device proxy page 0
    //        LOAD  status FROM PROXY(src)    ; memory proxy of our buffer
    let vdev = VirtAddr::new(DEV_PROXY_BASE);
    let vproxy = node
        .machine()
        .layout()
        .proxy_of_virt(VirtAddr::new(0x1_0000))
        .expect("buffer lives in the ordinary-memory region");

    // The first initiation is cold: the references page-fault and the
    // kernel builds the proxy mappings on demand (§6's three cases).
    let t0 = node.machine().now();
    node.user_store(pid, vdev, 24)?; // destination + byte count
    let status = UdmaStatus::unpack(node.user_load(pid, vproxy)?); // source + go
    let cold = node.machine().now() - t0;
    println!("initiation status: {status}");
    println!("cold initiation:   {cold} (page faults build the proxy mappings)");
    assert!(status.started());

    // 5. Poll for completion by repeating the LOAD (MATCH flag clears).
    loop {
        let s = UdmaStatus::unpack(node.user_load(pid, vproxy)?);
        if !s.matches {
            break;
        }
        let drained = node.machine().udma_drained_at();
        node.machine_mut().advance_to(drained);
    }
    println!(
        "device received:   {:?}",
        String::from_utf8_lossy(&node.machine().device().writes()[0].1)
    );

    // Steady state: the mappings exist, so the sequence is two uncached
    // references + the user-level check — the paper's 2.8us figure.
    let check = node.machine().cost().udma_user_check;
    let t0 = node.machine().now();
    node.machine_mut().advance(check); // the §8 alignment check
    node.user_store(pid, vdev, 24)?;
    let status = UdmaStatus::unpack(node.user_load(pid, vproxy)?);
    let warm = node.machine().now() - t0;
    assert!(status.started());
    println!("warm initiation:   {warm} (paper: ~2.8us incl. checks)");
    loop {
        let s = UdmaStatus::unpack(node.user_load(pid, vproxy)?);
        if !s.matches {
            break;
        }
        let drained = node.machine().udma_drained_at();
        node.machine_mut().advance_to(drained);
    }

    // 6. The user-level library does all of the above (plus page-boundary
    //    splitting and retry) in one call.
    let data = vec![0x42u8; 2 * PAGE_SIZE as usize];
    node.mmap(pid, 0x2_0000, 3, true)?;
    node.grant_device_proxy(pid, 1, 3, true)?;
    node.write_user(pid, VirtAddr::new(0x2_0000), &data)?;
    let r = node.udma_send(pid, VirtAddr::new(0x2_0000), 1, 0, data.len() as u64)?;
    println!(
        "library send:      {} bytes in {} ({} transfers, {} retries)",
        r.bytes, r.elapsed, r.transfers, r.retries
    );

    let mut metrics = MetricSet::default();
    node.counters().harvest(&mut metrics, "kernel", None);
    print!("\nkernel metrics:\n{}", metrics.render_text());
    Ok(())
}
