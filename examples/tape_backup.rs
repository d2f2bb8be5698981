//! UDMA with a sequential device: streaming a backup to tape.
//!
//! §1 lists "data storage devices such as disks and tape drives" among
//! UDMA's targets. Tape rewards exactly what the queued UDMA device
//! provides: a steady stream of back-to-back transfers keeps the drive
//! streaming, while any gap (or a random reposition) costs a start/stop
//! penalty plus winding time.
//!
//! Run: `cargo run -p shrimp --example tape_backup`

use shrimp_devices::{Device, Tape, TapeGeometry};
use shrimp_machine::{MachineConfig, UdmaMode};
use shrimp_mem::{VirtAddr, PAGE_SIZE};
use shrimp_os::{Node, NodeConfig, Trap};
use shrimp_sim::MetricSet;

fn main() -> Result<(), Trap> {
    const ARCHIVE_PAGES: u64 = 16;

    let tape = Tape::new("tape0", TapeGeometry::default());
    let config = NodeConfig {
        machine: MachineConfig {
            mem_bytes: 256 * PAGE_SIZE,
            // The §7 queueing device: two references per page, no gaps.
            udma: UdmaMode::Queued(32),
            ..MachineConfig::default()
        },
        user_frames: None,
    };
    let mut node = Node::new(config, tape);
    let pid = node.spawn();

    // An archive buffer and grants covering its tape extent.
    node.mmap(pid, 0x10_0000, ARCHIVE_PAGES, true)?;
    node.grant_device_proxy(pid, 0, ARCHIVE_PAGES + 64, true)?;
    let archive: Vec<u8> = (0..ARCHIVE_PAGES * PAGE_SIZE).map(|i| (i * 131 % 251) as u8).collect();
    node.write_user(pid, VirtAddr::new(0x10_0000), &archive)?;

    // Stream the whole archive: one multi-page queued UDMA send.
    let r = node.udma_send(pid, VirtAddr::new(0x10_0000), 0, 0, archive.len() as u64)?;
    println!(
        "streamed {} KB to tape in {} ({} transfers, {} retries)",
        r.bytes / 1024,
        r.elapsed,
        r.transfers,
        r.retries
    );
    assert_eq!(r.retries, 0, "the queue keeps the drive streaming");
    assert_eq!(&node.machine().device().dma_read_check(0, 64), &archive[..64]);

    // Verify by reading a random record back: one reposition, then stream.
    let record_page = 11u64;
    let rd = node.udma_recv(pid, VirtAddr::new(0x10_0000), record_page, 0, PAGE_SIZE)?;
    println!("random restore of page {record_page}: {}", rd.elapsed);
    let got = node.read_user(pid, VirtAddr::new(0x10_0000), PAGE_SIZE)?;
    assert_eq!(
        got,
        &archive[(record_page * PAGE_SIZE) as usize..((record_page + 1) * PAGE_SIZE) as usize]
    );

    // Sequential restore of the next page is far cheaper (head in place).
    let rd2 = node.udma_recv(pid, VirtAddr::new(0x10_0000), record_page + 1, 0, PAGE_SIZE)?;
    println!("sequential restore of page {}: {}", record_page + 1, rd2.elapsed);
    assert!(rd2.elapsed < rd.elapsed, "streaming must beat repositioning");

    let mut metrics = MetricSet::default();
    node.machine().device().harvest_metrics(&mut metrics, None);
    print!("\ntape metrics:\n{}", metrics.render_text());
    Ok(())
}

/// Small helper so the example can peek at tape contents without timing.
trait TapePeek {
    fn dma_read_check(&self, pos: u64, len: usize) -> Vec<u8>;
}

impl TapePeek for Tape {
    fn dma_read_check(&self, pos: u64, len: usize) -> Vec<u8> {
        // Reading via the Device trait would move the head; clone instead.
        let mut copy = self.clone();
        shrimp_dma::DevicePort::dma_read_vec(&mut copy, pos, len as u64, shrimp_sim::SimTime::ZERO)
    }
}
