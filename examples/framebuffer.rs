//! UDMA with a memory-mapped graphics device (paper §1/§4: "if the device
//! is a graphics frame-buffer, a device address might specify a pixel").
//!
//! A user process renders a gradient into its own memory and blits it to
//! the frame buffer row by row with user-level DMA, then reads a region
//! back. Each device proxy page covers 4096 pixels of the framebuffer.
//!
//! Run: `cargo run -p shrimp --example framebuffer`

use shrimp_devices::{Device, FrameBuffer};
use shrimp_machine::MachineConfig;
use shrimp_mem::{VirtAddr, PAGE_SIZE};
use shrimp_os::{Node, NodeConfig, Trap};
use shrimp_sim::MetricSet;

const WIDTH: u64 = 256;
const HEIGHT: u64 = 128;

fn main() -> Result<(), Trap> {
    let fb = FrameBuffer::new("fb0", WIDTH, HEIGHT);
    let config = NodeConfig {
        machine: MachineConfig { mem_bytes: 256 * PAGE_SIZE, ..MachineConfig::default() },
        user_frames: None,
    };
    let mut node = Node::new(config, fb);
    let pid = node.spawn();

    // Map a render buffer and get grants covering the whole framebuffer.
    let fb_pages = (WIDTH * HEIGHT).div_ceil(PAGE_SIZE);
    node.mmap(pid, 0x10_0000, fb_pages + 1, true)?;
    node.grant_device_proxy(pid, 0, fb_pages, true)?;

    // Render a diagonal gradient in user memory.
    let frame: Vec<u8> =
        (0..HEIGHT).flat_map(|y| (0..WIDTH).map(move |x| ((x + y) & 0xff) as u8)).collect();
    node.write_user(pid, VirtAddr::new(0x10_0000), &frame)?;

    // Blit the whole frame: one UDMA call; the library splits per page.
    let blit = node.udma_send(pid, VirtAddr::new(0x10_0000), 0, 0, frame.len() as u64)?;
    println!(
        "blit {}x{} ({} bytes): {} in {} transfers, {} retries",
        WIDTH, HEIGHT, blit.bytes, blit.elapsed, blit.transfers, blit.retries
    );

    // Verify a few pixels straight on the device.
    let fb = node.machine().device();
    assert_eq!(fb.pixel(0, 0), 0);
    assert_eq!(fb.pixel(10, 5), 15);
    assert_eq!(fb.pixel(255, 127), ((255 + 127) & 0xff) as u8);
    println!("device checksum: {:#x}", fb.checksum());

    // Read a 64-byte scanline segment back into a second buffer: the
    // framebuffer is also a DMA *source* (device-to-memory UDMA).
    let row = 7u64;
    let dev_byte = row * WIDTH; // pixel offset of row start
    let recv = node.udma_recv(
        pid,
        VirtAddr::new(0x10_0000 + fb_pages * PAGE_SIZE),
        dev_byte / PAGE_SIZE,
        dev_byte % PAGE_SIZE,
        64,
    )?;
    let got = node.read_user(pid, VirtAddr::new(0x10_0000 + fb_pages * PAGE_SIZE), 64)?;
    assert_eq!(&got[..], &frame[(row * WIDTH) as usize..(row * WIDTH) as usize + 64]);
    println!("readback of row {row}: {} bytes in {}", recv.bytes, recv.elapsed);

    let mut metrics = MetricSet::default();
    node.machine().device().harvest_metrics(&mut metrics, None);
    print!("fb metrics:\n{}", metrics.render_text());
    Ok(())
}
