//! Multicomputer integration: deliberate update across the fabric, the
//! message-passing layer, scaling, and end-to-end timing sanity.

use shrimp::{Channel, Multicomputer, MulticomputerConfig};
use shrimp_mem::{VirtAddr, PAGE_SIZE};
use shrimp_os::Pid;
use shrimp_sim::SplitMix64;

fn pair() -> (Multicomputer, Pid, Pid, u64) {
    let mut mc = Multicomputer::new(2, MulticomputerConfig::default());
    let s = mc.spawn_process(0);
    let r = mc.spawn_process(1);
    mc.map_user_buffer(0, s, 0x10_0000, 4).unwrap();
    mc.map_user_buffer(1, r, 0x40_0000, 4).unwrap();
    let dev = mc.export(1, r, VirtAddr::new(0x40_0000), 4, 0, s).unwrap();
    (mc, s, r, dev)
}

#[test]
fn randomized_scatter_writes_land_byte_exactly() {
    let (mut mc, s, r, dev) = pair();
    let mut rng = SplitMix64::new(7);
    let mut shadow = vec![0u8; (4 * PAGE_SIZE) as usize];
    for i in 0..40u64 {
        let len = 4 * (1 + rng.next_below(64)); // 4..256 bytes, 4-aligned
        let off = 4 * rng.next_below((4 * PAGE_SIZE - len) / 4);
        let fill = (i + 1) as u8;
        let data = vec![fill; len as usize];
        mc.write_user(0, s, VirtAddr::new(0x10_0000), &data).unwrap();
        mc.send(0, s, VirtAddr::new(0x10_0000), dev + off / PAGE_SIZE, off % PAGE_SIZE, len)
            .unwrap();
        shadow[off as usize..(off + len) as usize].fill(fill);
    }
    let got = mc.read_user(1, r, VirtAddr::new(0x40_0000), 4 * PAGE_SIZE).unwrap();
    assert_eq!(got, shadow);
    assert_eq!(mc.dropped_packets(), 0);
}

#[test]
fn receiver_observes_sender_ordering() {
    // Point-to-point ordering: increasing counters written to the same
    // word must arrive monotonically; final value is the last write.
    let (mut mc, s, r, dev) = pair();
    for v in 1..=20u64 {
        mc.write_user(0, s, VirtAddr::new(0x10_0000), &v.to_le_bytes()).unwrap();
        mc.send(0, s, VirtAddr::new(0x10_0000), dev, 0, 8).unwrap();
    }
    let got = mc.read_user(1, r, VirtAddr::new(0x40_0000), 8).unwrap();
    assert_eq!(u64::from_le_bytes(got.try_into().unwrap()), 20);
}

#[test]
fn eight_node_ring_of_channels() {
    const N: usize = 8;
    let mut mc = Multicomputer::new(N as u16, MulticomputerConfig::default());
    let pids: Vec<_> = (0..N).map(|i| mc.spawn_process(i)).collect();
    let mut channels = Vec::new();
    for i in 0..N {
        let j = (i + 1) % N;
        channels.push(
            Channel::establish(
                &mut mc,
                i,
                pids[i],
                j,
                pids[j],
                VirtAddr::new(0x40_0000),
                VirtAddr::new(0x10_0000),
                1,
            )
            .unwrap(),
        );
    }
    // Every node sends its id to its neighbour; everyone receives.
    for (i, ch) in channels.iter_mut().enumerate() {
        ch.send(&mut mc, &[i as u8; 16]).unwrap();
    }
    for (i, ch) in channels.iter_mut().enumerate() {
        let msg = ch.try_recv(&mut mc).unwrap().expect("delivered");
        assert_eq!(msg.data, [i as u8; 16]);
    }
}

#[test]
fn fabric_congestion_serializes_fan_in() {
    // Many senders to one receiver must take longer (per delivered byte)
    // than a single sender: the receiver's inbound link serializes.
    let mut mc = Multicomputer::new(5, MulticomputerConfig::default());
    let recv = mc.spawn_process(4);
    mc.map_user_buffer(4, recv, 0x40_0000, 4).unwrap();
    let mut senders = Vec::new();
    for i in 0..4usize {
        let pid = mc.spawn_process(i);
        mc.map_user_buffer(i, pid, 0x10_0000, 1).unwrap();
        let dev =
            mc.export(4, recv, VirtAddr::new(0x40_0000 + i as u64 * PAGE_SIZE), 1, i, pid).unwrap();
        mc.write_user(i, pid, VirtAddr::new(0x10_0000), &vec![i as u8 + 1; PAGE_SIZE as usize])
            .unwrap();
        senders.push((pid, dev));
    }
    for (i, &(pid, dev)) in senders.iter().enumerate() {
        mc.send(i, pid, VirtAddr::new(0x10_0000), dev, 0, PAGE_SIZE).unwrap();
    }
    mc.run_until_quiet();
    // All four pages landed.
    for i in 0..4u64 {
        let got = mc.read_user(4, recv, VirtAddr::new(0x40_0000 + i * PAGE_SIZE), 16).unwrap();
        assert_eq!(got, vec![i as u8 + 1; 16]);
    }
    // The last delivery is later than one isolated page delivery would be.
    assert!(mc.last_delivery(4).as_nanos() > 0);
    assert_eq!(mc.fabric().counters().packets.get(), 4);
}

#[test]
fn end_to_end_latency_has_all_components() {
    let (mut mc, s, _r, dev) = pair();
    mc.write_user(0, s, VirtAddr::new(0x10_0000), &[1u8; 256]).unwrap();
    mc.send(0, s, VirtAddr::new(0x10_0000), dev, 0, 256).unwrap(); // warm
    let send_done = mc.node(0).os().machine().now();
    mc.send(0, s, VirtAddr::new(0x10_0000), dev, 0, 256).unwrap();
    let delivery = mc.last_delivery(1);
    // Delivery strictly lags the sender-side completion (routing + wire +
    // receiver EISA time)...
    assert!(delivery > send_done);
    // ...but by less than a millisecond (it's 256 bytes).
    assert!((delivery - send_done).as_micros_f64() < 1000.0);
}

#[test]
fn bandwidth_grows_with_message_size() {
    let bw = |bytes: u64| {
        let (mut mc, s, _r, dev) = pair();
        mc.write_user(0, s, VirtAddr::new(0x10_0000), &vec![1u8; bytes as usize]).unwrap();
        mc.send(0, s, VirtAddr::new(0x10_0000), dev, 0, bytes).unwrap(); // warm
        let t0 = mc.node(0).os().machine().now();
        for _ in 0..4 {
            mc.send(0, s, VirtAddr::new(0x10_0000), dev, 0, bytes).unwrap();
        }
        let dt = mc.node(0).os().machine().now() - t0;
        (4 * bytes) as f64 / dt.as_micros_f64()
    };
    let small = bw(128);
    let mid = bw(1024);
    let large = bw(4096);
    assert!(small < mid && mid < large, "{small:.1} < {mid:.1} < {large:.1} MB/s");
}

#[test]
fn channels_interleave_without_cross_talk() {
    let mut mc = Multicomputer::new(2, MulticomputerConfig::default());
    let s = mc.spawn_process(0);
    let r = mc.spawn_process(1);
    let mut a = Channel::establish(
        &mut mc,
        0,
        s,
        1,
        r,
        VirtAddr::new(0x40_0000),
        VirtAddr::new(0x10_0000),
        1,
    )
    .unwrap();
    let mut b = Channel::establish(
        &mut mc,
        0,
        s,
        1,
        r,
        VirtAddr::new(0x50_0000),
        VirtAddr::new(0x20_0000),
        1,
    )
    .unwrap();
    a.send(&mut mc, b"channel A #1").unwrap();
    b.send(&mut mc, b"channel B #1").unwrap();
    a.send(&mut mc, b"channel A #2").unwrap();
    assert_eq!(b.try_recv(&mut mc).unwrap().unwrap().data, b"channel B #1");
    // Channel A coalesces to the latest (single-buffer channel semantics):
    // the header word carries seq 2.
    let msg = a.try_recv(&mut mc).unwrap().unwrap();
    assert_eq!(msg.seq, 2);
    assert_eq!(msg.data, b"channel A #2");
}

#[test]
fn deliberate_update_needs_no_receiver_cpu() {
    let (mut mc, s, r, dev) = pair();
    mc.write_user(0, s, VirtAddr::new(0x10_0000), &[7u8; 64]).unwrap();
    let receiver_stats_before = mc.node(1).os().counters().page_faults.get();
    let receiver_refs_before = mc.node(1).os().machine().counters().mem_loads.get();
    mc.send(0, s, VirtAddr::new(0x10_0000), dev, 0, 64).unwrap();
    // Data is in the receiver's physical memory...
    assert_eq!(mc.read_user(1, r, VirtAddr::new(0x40_0000), 8).unwrap(), [7u8; 8]);
    // ...but delivery itself consumed no receiver CPU references or
    // faults (only the read_user just now did).
    assert_eq!(mc.node(1).os().counters().page_faults.get(), receiver_stats_before);
    assert!(mc.node(1).os().machine().counters().mem_loads.get() >= receiver_refs_before);
}
