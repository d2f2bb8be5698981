//! One SHRIMP node: kernel + machine + network interface.

use shrimp_mem::{Pfn, VirtAddr};
use shrimp_net::NodeId;
use shrimp_os::{Node, NodeConfig, Pid, Trap};

use crate::Nic;

/// A SHRIMP node — an [`shrimp_os::Node`] whose UDMA device is the
/// [`Nic`] — plus the export bookkeeping the NIPT mapping path needs.
#[derive(Debug)]
pub struct ShrimpNode {
    id: NodeId,
    os: Node<Nic>,
}

impl ShrimpNode {
    /// Boots a node with the given kernel/hardware configuration and NIC.
    pub fn new(id: NodeId, config: NodeConfig, nic: Nic) -> Self {
        ShrimpNode { id, os: Node::new(config, nic) }
    }

    /// This node's fabric id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The operating system (and through it the machine and NIC).
    pub fn os(&self) -> &Node<Nic> {
        &self.os
    }

    /// Mutable OS access.
    pub fn os_mut(&mut self) -> &mut Node<Nic> {
        &mut self.os
    }

    /// Drains this node's NIC into `outbox` (keeping the NIC queue's
    /// capacity) and, when `tracing`, stamps each drained packet with the
    /// instant the sender's completion status became observable — the
    /// node's clock, already past the status LOAD for everything queued.
    ///
    /// Its one caller is `SendCore` (`engine.rs`), the send side both
    /// engine instantiations share.
    pub(crate) fn drain_nic(&mut self, tracing: bool, outbox: &mut Vec<crate::OutgoingPacket>) {
        let drained_from = outbox.len();
        self.os.machine_mut().device_mut().drain_outgoing_into(outbox);
        if tracing {
            let observed = self.os.machine().now();
            for out in &mut outbox[drained_from..] {
                out.packet.meta.status_observed = observed;
            }
        }
    }

    /// Drains this node's NIC burst descriptors into `run_outbox`. Runs
    /// are pre-stamped at packetize time (the replay knows each member's
    /// status instant), so no per-packet stamping happens here.
    pub(crate) fn drain_nic_runs(&mut self, run_outbox: &mut Vec<crate::OutgoingRun>) {
        self.os.machine_mut().device_mut().drain_runs_into(run_outbox);
    }

    /// Export: wires down `pages` pages of `pid`'s buffer at `va` so
    /// incoming deliberate updates can land in them, returning the physical
    /// frames a remote NIPT entry should name.
    ///
    /// # Errors
    ///
    /// Any paging [`Trap`].
    pub fn export_pages(&mut self, pid: Pid, va: VirtAddr, pages: u64) -> Result<Vec<Pfn>, Trap> {
        self.os.wire_pages(pid, va, pages)
    }

    /// Import: installs NIPT entries (starting at the first free slot at
    /// or after `from_index`) pointing at `(dst_node, frames)`, and grants
    /// the device proxy pages to `pid`. Returns the first NIPT index used.
    ///
    /// # Errors
    ///
    /// [`Trap::DeviceNotGranted`] when the NIPT is full, plus any grant
    /// trap.
    pub fn import_mapping(
        &mut self,
        pid: Pid,
        dst_node: NodeId,
        frames: &[Pfn],
        from_index: u64,
    ) -> Result<u64, Trap> {
        // Find a contiguous free run of NIPT slots.
        let start = {
            let nipt = self.os.machine().device().nipt();
            let needed = frames.len() as u64;
            let mut base = from_index;
            loop {
                let Some(start) = nipt.first_free(base) else {
                    return Err(Trap::DeviceNotGranted {
                        pid,
                        va: VirtAddr::new(shrimp_mem::DEV_PROXY_BASE),
                    });
                };
                if start + needed > nipt.capacity() as u64 {
                    return Err(Trap::DeviceNotGranted {
                        pid,
                        va: VirtAddr::new(shrimp_mem::DEV_PROXY_BASE),
                    });
                }
                match (0..needed).find(|&i| nipt.get(start + i).is_some()) {
                    Some(i) => base = start + i + 1,
                    None => break start,
                }
            }
        };
        let nic = self.os.machine_mut().device_mut();
        for (i, &pfn) in frames.iter().enumerate() {
            nic.nipt_mut().set(start + i as u64, crate::NiptEntry { node: dst_node, pfn });
        }
        self.os.grant_device_proxy(pid, start, frames.len() as u64, true)?;
        Ok(start)
    }

    /// Import over live slots: installs NIPT entries for `(dst_node,
    /// frames)` at exactly `[start, start + frames.len())`, overwriting
    /// whatever is there (each overwrite of a valid entry counts as a NIPT
    /// eviction), and grants the device proxy pages to `pid`. The caller
    /// must have revoked the previous owner's grant first
    /// (`revoke_device_proxy` in the kernel) — this is the reload half of
    /// NIPT demand paging under tenant churn.
    ///
    /// # Errors
    ///
    /// Any grant trap.
    ///
    /// # Panics
    ///
    /// Panics when the run falls outside the table.
    pub fn import_mapping_over(
        &mut self,
        pid: Pid,
        dst_node: NodeId,
        frames: &[Pfn],
        start: u64,
    ) -> Result<u64, Trap> {
        let nic = self.os.machine_mut().device_mut();
        // lint:checks(F1) -- the assert bounds the whole run against the
        // NIPT capacity before any slot is written.
        assert!(
            start + frames.len() as u64 <= nic.nipt().capacity() as u64,
            "import_mapping_over run out of NIPT bounds"
        );
        for (i, &pfn) in frames.iter().enumerate() {
            nic.nipt_mut().set(start + i as u64, crate::NiptEntry { node: dst_node, pfn });
        }
        self.os.grant_device_proxy(pid, start, frames.len() as u64, true)?;
        Ok(start)
    }
}
