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
    /// capacity) and stamps each drained train's member 0 with the instant
    /// the sender's completion status became observable:
    /// `now − stride·(count − 1)`. For a literal packet that is the node's
    /// clock, already past the status LOAD for everything queued. A
    /// replayed train was drained right after the machine advanced its
    /// clock over all `count` members, so the rule steps back to member
    /// 0's instant, and member `k` is stamped `stride·k` later.
    ///
    /// Its one caller is `SendCore` (`engine.rs`), the send side both
    /// engine instantiations share.
    pub(crate) fn drain_nic(&mut self, outbox: &mut Vec<crate::OutgoingRun>) {
        let drained_from = outbox.len();
        self.os.machine_mut().device_mut().drain_outgoing_into(outbox);
        let now = self.os.machine().now();
        for out in &mut outbox[drained_from..] {
            let run = &mut out.run;
            run.template.meta.status_observed = now - run.stride() * u64::from(run.count - 1);
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NiptEntry;
    use shrimp_dma::{DevicePort, RunTiming};
    use shrimp_mem::PAGE_SIZE;
    use shrimp_sim::SimDuration;

    /// The drain stamps member 0 of every train `now − stride·(count − 1)`:
    /// the node's clock for a train of one, and member 0's status instant
    /// for a replayed train drained once the clock has crossed all of it.
    #[test]
    fn drain_stamps_each_train_at_its_first_members_status_instant() {
        let id = NodeId::new(0);
        let nic = Nic::new(id, 4, SimDuration::from_us(1.0));
        let mut node = ShrimpNode::new(id, NodeConfig::default(), nic);
        let machine = node.os_mut().machine_mut();
        let dst = NiptEntry { node: NodeId::new(1), pfn: Pfn::new(8) };
        machine.device_mut().nipt_mut().set(1, dst);
        let (t0, stride) = (machine.now(), SimDuration::from_us(17.0));
        machine.device_mut().dma_write(PAGE_SIZE, b"one!", t0);
        let timing = RunTiming { started_at: t0, completes_at: t0 + stride, stride };
        machine.device_mut().dma_write_run(PAGE_SIZE, b"many", 5, timing);
        machine.advance(stride * 5);
        let now = machine.now();
        let mut outbox = Vec::new();
        node.drain_nic(&mut outbox);
        let stamps: Vec<_> = outbox.iter().map(|o| o.run.template.meta.status_observed).collect();
        assert_eq!(stamps, [now, now - stride * 4]);
    }
}
