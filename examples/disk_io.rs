//! UDMA with a storage device (paper §1/§4: "if the device is a disk, a
//! device address might name a block").
//!
//! A user process writes a record to disk block 7 and reads it back —
//! both directions via user-level DMA, no system call on the data path —
//! then compares against the traditional syscall path on the same node.
//!
//! Run: `cargo run -p shrimp --example disk_io`

use shrimp_devices::{Device, Disk, DiskGeometry};
use shrimp_machine::MachineConfig;
use shrimp_mem::{VirtAddr, PAGE_SIZE};
use shrimp_os::{DmaStrategy, Node, NodeConfig, Trap};
use shrimp_sim::MetricSet;

fn main() -> Result<(), Trap> {
    let disk = Disk::new("disk0", DiskGeometry { blocks: 64, ..DiskGeometry::default() });
    let config = NodeConfig {
        machine: MachineConfig { mem_bytes: 256 * PAGE_SIZE, ..MachineConfig::default() },
        user_frames: None,
    };
    let mut node = Node::new(config, disk);
    let pid = node.spawn();

    // Two user pages: one to write from, one to read into. Device proxy
    // page k = disk block k; we get a grant for blocks 0..16.
    node.mmap(pid, 0x1_0000, 2, true)?;
    node.grant_device_proxy(pid, 0, 16, true)?;

    let record = b"block 7: user-level disk DMA record ...".repeat(8);
    node.write_user(pid, VirtAddr::new(0x1_0000), &record)?;

    // Write memory -> disk block 7 (destination = device proxy page 7).
    let w = node.udma_send(pid, VirtAddr::new(0x1_0000), 7, 0, record.len() as u64)?;
    println!("disk write: {} bytes in {} ({} transfers)", w.bytes, w.elapsed, w.transfers);
    assert_eq!(&node.machine().device().block(7)[..record.len()], &record[..]);

    // Read disk block 7 -> memory (source = device proxy page 7).
    let r = node.udma_recv(pid, VirtAddr::new(0x2_000 * 8), 7, 0, record.len() as u64)?;
    println!("disk read:  {} bytes in {} ({} transfers)", r.bytes, r.elapsed, r.transfers);
    let got = node.read_user(pid, VirtAddr::new(0x2_000 * 8), record.len() as u64)?;
    assert_eq!(got, record);

    // The same write through the traditional kernel path, for contrast.
    let k = node.sys_dma_to_device(
        pid,
        VirtAddr::new(0x1_0000),
        7 * PAGE_SIZE,
        record.len() as u64,
        DmaStrategy::PinPages,
    )?;
    println!("kernel DMA: {} bytes in {} ({} pages pinned)", k.bytes, k.elapsed, k.pages);
    println!(
        "\nmechanical service dominates both ({} seek), but the software overhead\n\
         difference is what the paper is about: udma {} vs kernel {}",
        node.machine().device().geometry().seek,
        w.elapsed,
        k.elapsed
    );
    let mut metrics = MetricSet::default();
    node.machine().device().harvest_metrics(&mut metrics, None);
    print!("\ndisk metrics:\n{}", metrics.render_text());
    Ok(())
}
