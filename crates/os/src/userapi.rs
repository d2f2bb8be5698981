//! The user-level UDMA library: what an application links against.
//!
//! The paper requires applications to drive the hardware directly — two
//! references to initiate, explicit failure checking and retry ("the user
//! process can deduce what happened and re-try its operation", §6), and
//! completion polling by repeating the initiating LOAD (§5). This module
//! packages that protocol:
//!
//! - [`Node::udma_initiate`] — one raw two-instruction sequence, no retry,
//! - [`Node::udma_send`] / [`Node::udma_recv`] — whole-message transfers
//!   with page-boundary splitting ("a basic UDMA transfer cannot cross a
//!   page boundary", §4), retry on Inval/busy, and final completion wait.

use shrimp_devices::Device;
use shrimp_mem::{VirtAddr, DEV_PROXY_BASE, PAGE_SIZE};
use shrimp_sim::SimDuration;
use udma_core::UdmaStatus;

use crate::process::Pid;
use crate::{Node, Trap};

/// Outcome of a user-level UDMA transfer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UdmaXferResult {
    /// Simulated time from library entry to completion of the last
    /// transfer.
    pub elapsed: SimDuration,
    /// Two-instruction sequences that had to be retried.
    pub retries: u64,
    /// Hardware transfers issued (≥ 1 per page boundary crossed).
    pub transfers: u64,
    /// Bytes moved.
    pub bytes: u64,
}

/// Retry bound: generous enough for any amount of queue back-pressure in
/// the experiments, small enough to catch livelock bugs.
const MAX_RETRIES_PER_CHUNK: u64 = 100_000;

impl<D: Device> Node<D> {
    /// One raw two-instruction initiation attempt: `STORE nbytes TO
    /// dest_va; LOAD status FROM src_va`. No retry, no waiting — the
    /// returned status is exactly what the hardware said.
    ///
    /// # Errors
    ///
    /// Any paging [`Trap`] from either reference.
    pub fn udma_initiate(
        &mut self,
        pid: Pid,
        dest_va: VirtAddr,
        src_va: VirtAddr,
        nbytes: u64,
    ) -> Result<UdmaStatus, Trap> {
        let word = self.user_store_load_pair(pid, dest_va, nbytes as i64, src_va)?;
        Ok(UdmaStatus::unpack(word))
    }

    /// Sends `nbytes` from the process's memory at `src_va` to the device
    /// at proxy page `dev_page` + `dev_off` — the full user-level protocol.
    ///
    /// # Errors
    ///
    /// - paging [`Trap`]s from the references,
    /// - [`Trap::WrongSpace`] / [`Trap::DeviceError`] for hard status
    ///   errors.
    pub fn udma_send(
        &mut self,
        pid: Pid,
        src_va: VirtAddr,
        dev_page: u64,
        dev_off: u64,
        nbytes: u64,
    ) -> Result<UdmaXferResult, Trap> {
        self.udma_transfer(pid, src_va, dev_page, dev_off, nbytes, true)
    }

    /// Receives `nbytes` from the device at proxy page `dev_page` +
    /// `dev_off` into the process's memory at `dst_va`.
    ///
    /// # Errors
    ///
    /// As for [`Node::udma_send`]; additionally the I3 protocol may raise
    /// [`Trap::ReadOnly`] when the destination segment is read-only.
    pub fn udma_recv(
        &mut self,
        pid: Pid,
        dst_va: VirtAddr,
        dev_page: u64,
        dev_off: u64,
        nbytes: u64,
    ) -> Result<UdmaXferResult, Trap> {
        self.udma_transfer(pid, dst_va, dev_page, dev_off, nbytes, false)
    }

    fn udma_transfer(
        &mut self,
        pid: Pid,
        mem_va: VirtAddr,
        dev_page: u64,
        dev_off: u64,
        nbytes: u64,
        to_device: bool,
    ) -> Result<UdmaXferResult, Trap> {
        self.ensure_current(pid)?;
        let t0 = self.machine.now();
        let per_message = self.machine.cost().udma_per_message_sw;
        self.machine.advance(per_message);

        let layout = self.machine.layout();
        let mut result = UdmaXferResult { bytes: nbytes, ..UdmaXferResult::default() };
        let mut moved = 0u64;
        let mut last_src_va = None;

        while moved < nbytes {
            // Split at both the memory page boundary and the device proxy
            // page boundary (§4: no transfer crosses a page boundary in
            // either space). The user-level check §8 charges for.
            let mem_cur = mem_va + moved;
            let dev_cur_off = dev_off + moved;
            let dev_cur_page = dev_page + (dev_cur_off >> shrimp_mem::PAGE_SHIFT);
            let dev_in_page = dev_cur_off & shrimp_mem::PAGE_MASK;
            let chunk =
                (nbytes - moved).min(mem_cur.bytes_to_page_end()).min(PAGE_SIZE - dev_in_page);
            let check = self.machine.cost().udma_user_check;
            self.machine.advance(check);

            let vdev = VirtAddr::new(DEV_PROXY_BASE + dev_cur_page * PAGE_SIZE + dev_in_page);
            let vproxy =
                layout.proxy_of_virt(mem_cur).map_err(|_| Trap::SegFault { pid, va: mem_cur })?;
            // STORE names the destination; LOAD names the source.
            let (dest_va, src_va) = if to_device { (vdev, vproxy) } else { (vproxy, vdev) };

            let mut retries = 0;
            loop {
                let status = self.udma_initiate(pid, dest_va, src_va, chunk)?;
                if status.started() {
                    break;
                }
                if status.wrong_space {
                    return Err(Trap::WrongSpace);
                }
                if status.device_error != 0 {
                    return Err(Trap::DeviceError { code: status.device_error });
                }
                // Busy or invalidated: wait for the hardware to drain, then
                // re-issue the full two-instruction sequence.
                retries += 1;
                result.retries += 1;
                if retries > MAX_RETRIES_PER_CHUNK {
                    panic!("udma_transfer livelock: {retries} retries (kernel/hardware bug)");
                }
                let drained = self.machine.udma_drained_at();
                self.machine.advance_to(drained);
            }
            result.transfers += 1;
            last_src_va = Some(src_va);
            moved += chunk;
        }

        // Wait for the final transfer: repeat its LOAD until MATCH clears
        // ("to check for completion... repeat the LOAD instruction that it
        // used to start the transfer", §5).
        if let Some(src_va) = last_src_va {
            loop {
                let status = UdmaStatus::unpack(self.user_load(pid, src_va)?);
                if !status.matches {
                    break;
                }
                let drained = self.machine.udma_drained_at();
                self.machine.advance_to(drained);
            }
        }

        result.elapsed = self.machine.now() - t0;
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeConfig;
    use shrimp_devices::{StreamSink, StreamSource};
    use shrimp_machine::MachineConfig;

    fn sink_node() -> Node<StreamSink> {
        let config = NodeConfig {
            machine: MachineConfig { mem_bytes: 128 * PAGE_SIZE, ..MachineConfig::default() },
            user_frames: None,
        };
        Node::new(config, StreamSink::new("sink"))
    }

    #[test]
    fn single_page_send() {
        let mut n = sink_node();
        let pid = n.spawn();
        n.mmap(pid, 0x10000, 1, true).unwrap();
        n.grant_device_proxy(pid, 0, 1, true).unwrap();
        n.write_user(pid, VirtAddr::new(0x10000), b"one chunk").unwrap();
        let r = n.udma_send(pid, VirtAddr::new(0x10000), 0, 0, 9).unwrap();
        assert_eq!(r.transfers, 1);
        assert_eq!(r.retries, 0);
        assert_eq!(n.machine().device().writes()[0].1, b"one chunk");
    }

    #[test]
    fn send_splits_at_page_boundaries() {
        let mut n = sink_node();
        let pid = n.spawn();
        n.mmap(pid, 0x10000, 3, true).unwrap();
        n.grant_device_proxy(pid, 0, 4, true).unwrap();
        let data: Vec<u8> = (0..PAGE_SIZE as usize * 2).map(|i| (i % 251) as u8).collect();
        // Source starts mid-page: 2 pages of data from offset 0x80 spans 3
        // source pages; aligned destination spans 2 device pages -> at
        // least 3 transfers ("two transfers per page are needed" when
        // offsets differ).
        n.write_user(pid, VirtAddr::new(0x10080), &data).unwrap();
        let r = n.udma_send(pid, VirtAddr::new(0x10080), 0, 0, data.len() as u64).unwrap();
        assert!(r.transfers >= 3, "got {} transfers", r.transfers);
        let received: Vec<u8> =
            n.machine().device().writes().iter().flat_map(|(_, d, _)| d.clone()).collect();
        assert_eq!(received, data);
    }

    #[test]
    fn aligned_multi_page_send_is_two_refs_per_page() {
        let mut n = sink_node();
        let pid = n.spawn();
        n.mmap(pid, 0x10000, 4, true).unwrap();
        n.grant_device_proxy(pid, 0, 4, true).unwrap();
        let data = vec![0x5au8; 4 * PAGE_SIZE as usize];
        n.write_user(pid, VirtAddr::new(0x10000), &data).unwrap();
        let r = n.udma_send(pid, VirtAddr::new(0x10000), 0, 0, data.len() as u64).unwrap();
        assert_eq!(r.transfers, 4, "same page offsets: one transfer per page");
    }

    #[test]
    fn busy_hardware_forces_retries_on_basic_device() {
        let mut n = sink_node();
        let pid = n.spawn();
        n.mmap(pid, 0x10000, 2, true).unwrap();
        n.grant_device_proxy(pid, 0, 2, true).unwrap();
        n.write_user(pid, VirtAddr::new(0x10000), &vec![1u8; 2 * PAGE_SIZE as usize]).unwrap();
        // Two pages through the basic (no-queue) device: the second
        // initiation lands while the first transfer is in flight.
        let r = n.udma_send(pid, VirtAddr::new(0x10000), 0, 0, 2 * PAGE_SIZE).unwrap();
        assert_eq!(r.transfers, 2);
        assert!(r.retries >= 1, "second page should hit the busy device");
    }

    #[test]
    fn recv_from_device_fills_memory() {
        let config = NodeConfig {
            machine: MachineConfig { mem_bytes: 128 * PAGE_SIZE, ..MachineConfig::default() },
            user_frames: None,
        };
        let mut n = Node::new(config, StreamSource::new("src", 0x3c));
        let pid = n.spawn();
        n.mmap(pid, 0x20000, 1, true).unwrap();
        n.grant_device_proxy(pid, 2, 1, true).unwrap();
        let r = n.udma_recv(pid, VirtAddr::new(0x20000), 2, 0x10, 64).unwrap();
        assert_eq!(r.transfers, 1);
        let got = n.read_user(pid, VirtAddr::new(0x20000), 64).unwrap();
        let src = StreamSource::new("check", 0x3c);
        let dev_base = 2 * PAGE_SIZE + 0x10;
        for (i, &b) in got.iter().enumerate() {
            assert_eq!(b, src.expected_byte(dev_base + i as u64), "byte {i}");
        }
        // I3 held throughout: the destination page ended up dirty.
        n.check_invariants().unwrap();
        let proc = n.process(pid).unwrap();
        assert!(proc.pt.get(VirtAddr::new(0x20000).page()).unwrap().is_dirty());
    }

    #[test]
    fn recv_into_readonly_segment_traps() {
        let mut n = sink_node();
        let pid = n.spawn();
        n.mmap(pid, 0x20000, 1, false).unwrap();
        n.grant_device_proxy(pid, 0, 1, true).unwrap();
        let err = n.udma_recv(pid, VirtAddr::new(0x20000), 0, 0, 16).unwrap_err();
        assert!(matches!(err, Trap::ReadOnly { .. }));
    }

    #[test]
    fn device_rejection_surfaces_as_device_error() {
        let mut n = sink_node();
        let pid = n.spawn();
        n.mmap(pid, 0x10000, 1, true).unwrap();
        n.grant_device_proxy(pid, 0, 1, true).unwrap();
        n.write_user(pid, VirtAddr::new(0x10000), &[1; 8]).unwrap();
        n.machine_mut().device_mut().reject_all(true);
        let err = n.udma_send(pid, VirtAddr::new(0x10000), 0, 0, 8).unwrap_err();
        assert!(matches!(err, Trap::DeviceError { .. }));
    }

    #[test]
    fn elapsed_time_matches_cost_model_for_one_page() {
        let mut n = sink_node();
        let pid = n.spawn();
        n.mmap(pid, 0x10000, 1, true).unwrap();
        n.grant_device_proxy(pid, 0, 1, true).unwrap();
        n.write_user(pid, VirtAddr::new(0x10000), &vec![7u8; PAGE_SIZE as usize]).unwrap();
        // Warm everything: mappings, proxy pages, dirty bits.
        let _ = n.udma_send(pid, VirtAddr::new(0x10000), 0, 0, PAGE_SIZE).unwrap();
        // Steady-state second send.
        let r = n.udma_send(pid, VirtAddr::new(0x10000), 0, 0, PAGE_SIZE).unwrap();
        let c = n.machine().cost().clone();
        let floor = c.udma_per_message_sw
            + c.udma_user_check
            + c.proxy_store
            + c.proxy_load
            + c.dma_start
            + c.bus_transfer(PAGE_SIZE);
        assert!(
            r.elapsed >= floor && r.elapsed.as_nanos() < floor.as_nanos() * 12 / 10,
            "elapsed {} vs floor {}",
            r.elapsed,
            floor
        );
    }
}
