//! NIPT demand paging for multi-tenant nodes.
//!
//! The board's NIPT holds 32K destination pages (§8) — plenty for one
//! process, but a node running thousands of tenant flows can want more
//! live mappings than the table holds. The kernel then treats NIPT slots
//! like page frames: mappings are imported on demand, a tenant's slot can
//! be *recycled* for another tenant when the table is full (a NIPT
//! **eviction**), and a tenant that finds its slot recycled re-enters the
//! kernel to reload it (a NIPT **refault**) before it can send.
//!
//! [`NiptDirectory`] is that kernel-side bookkeeping for one node: which
//! tenant mapping occupies which slot run, plus a clock cursor for victim
//! selection. The data-path check is [`Nipt::lookup_expect`] — one table
//! probe per send in the steady state; only a recycled slot pays the
//! revoke + reimport syscall path.
//!
//! Protection is never weakened by recycling: the victim's device proxy
//! grant is revoked (its demand-created PTEs are unmapped and the I1
//! Inval store fires) *before* the slot is rewritten, so the victim's
//! next touch of the window faults `DeviceNotGranted` instead of writing
//! through another tenant's mapping.

use shrimp_mem::Pfn;
use shrimp_net::NodeId;
use shrimp_os::{Pid, Trap};

use crate::{NiptEntry, ShrimpNode};

/// One tenant's deliberate-update mapping: the destination it names and
/// the NIPT slot run currently backing it (if any).
#[derive(Clone, Debug)]
pub struct TenantMapping {
    /// The local process that owns the mapping.
    pub pid: Pid,
    /// Destination node.
    pub dst: NodeId,
    /// Destination physical frames (one NIPT slot each).
    pub frames: Vec<Pfn>,
    /// First NIPT index that last backed the mapping — the *tenant's*
    /// view, deliberately kept after a recycle: the tenant's next send
    /// probes the stale run, mismatches, and refaults into the kernel,
    /// exactly like a process touching an unmapped page.
    pub dev_page: Option<u64>,
    /// Kernel-side truth: whether the mapping currently owns its slot
    /// run (`dev_page` alone may be stale).
    pub resident: bool,
}

/// Per-node directory of tenant mappings competing for NIPT slots.
#[derive(Clone, Debug, Default)]
pub struct NiptDirectory {
    slots: Vec<TenantMapping>,
    /// Clock hand for victim selection, in directory order.
    hand: usize,
}

impl NiptDirectory {
    /// An empty directory.
    pub fn new() -> Self {
        NiptDirectory::default()
    }

    /// Registers a tenant mapping (not yet imported); returns its handle.
    pub fn register(&mut self, pid: Pid, dst: NodeId, frames: Vec<Pfn>) -> usize {
        self.slots.push(TenantMapping { pid, dst, frames, dev_page: None, resident: false });
        self.slots.len() - 1
    }

    /// The mapping behind `handle`.
    pub fn mapping(&self, handle: usize) -> &TenantMapping {
        &self.slots[handle]
    }

    /// Number of registered mappings.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Ensures tenant `handle`'s mapping is live in `node`'s NIPT and
    /// returns its device proxy page. The steady state is a single
    /// [`Nipt::lookup_expect`](crate::Nipt::lookup_expect) probe; a recycled or never-imported
    /// mapping falls into the kernel reload path, evicting another
    /// tenant's slot run when the table is full.
    ///
    /// # Errors
    ///
    /// [`Trap::DeviceNotGranted`] when the table cannot hold the mapping
    /// even after eviction, plus any grant trap.
    // lint:hot_path
    pub fn ensure(&mut self, handle: usize, node: &mut ShrimpNode) -> Result<u64, Trap> {
        let m = &self.slots[handle];
        if let Some(dev_page) = m.dev_page {
            let expect = NiptEntry { node: m.dst, pfn: m.frames[0] };
            let nipt = node.os_mut().machine_mut().device_mut().nipt_mut();
            if nipt.lookup_expect(dev_page, expect) {
                return Ok(dev_page);
            }
        }
        // lint:allow(A1) -- the miss path's one allocating callee is the
        // `grants.push` in `Node::grant_device_proxy`; a re-grant reuses the
        // capacity its revoke's `retain` kept, so only a first import allocates.
        self.reload(handle, node)
    }

    /// The miss path: (re)imports `handle`'s mapping, evicting a victim
    /// when the NIPT is full. The mapping's frame list is lent to the
    /// import and put back, so a reload allocates nothing.
    fn reload(&mut self, handle: usize, node: &mut ShrimpNode) -> Result<u64, Trap> {
        self.slots[handle].resident = false;
        let frames = std::mem::take(&mut self.slots[handle].frames);
        let result = self.install(handle, &frames, node);
        self.slots[handle].frames = frames;
        result
    }

    /// Installs `frames` for `handle`, whose own slot holds no frames
    /// while they are lent out (the victim scan skips it).
    fn install(
        &mut self,
        handle: usize,
        frames: &[Pfn],
        node: &mut ShrimpNode,
    ) -> Result<u64, Trap> {
        let (pid, dst) = (self.slots[handle].pid, self.slots[handle].dst);
        match node.import_mapping(pid, dst, frames, 0) {
            Ok(start) => {
                self.slots[handle].dev_page = Some(start);
                self.slots[handle].resident = true;
                Ok(start)
            }
            Err(Trap::DeviceNotGranted { .. }) => {
                // Table full: clock over the directory for a resident
                // victim whose run is big enough, revoke it, and install
                // over its slots. The victim keeps its stale `dev_page`
                // view — its next send probes it and refaults.
                let n = self.slots.len();
                for step in 0..n {
                    let v = (self.hand + step) % n;
                    if v == handle {
                        continue;
                    }
                    let victim = &self.slots[v];
                    if !victim.resident {
                        continue;
                    }
                    let Some(start) = victim.dev_page else { continue };
                    if victim.frames.len() < frames.len() {
                        continue;
                    }
                    let (vpid, vpages) = (victim.pid, victim.frames.len() as u64);
                    node.os_mut().revoke_device_proxy(vpid, start, vpages)?;
                    self.slots[v].resident = false;
                    self.hand = (v + 1) % n;
                    let got = node.import_mapping_over(pid, dst, frames, start)?;
                    // A victim longer than the newcomer leaves its tail
                    // slots behind; clear them, or they stay valid entries
                    // that count as occupied and are never handed out.
                    let nipt = node.os_mut().machine_mut().device_mut().nipt_mut();
                    for slot in start + frames.len() as u64..start + vpages {
                        nipt.clear(slot);
                    }
                    self.slots[handle].dev_page = Some(got);
                    self.slots[handle].resident = true;
                    return Ok(got);
                }
                Err(Trap::DeviceNotGranted {
                    pid,
                    va: shrimp_mem::VirtAddr::new(shrimp_mem::DEV_PROXY_BASE),
                })
            }
            Err(trap) => Err(trap),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Multicomputer, MulticomputerConfig};
    use shrimp_mem::VirtAddr;

    /// A 2-node machine whose sender NIPT holds only `entries` slots, one
    /// sender *process per tenant* on node 0, and `tenants` one-page
    /// receive windows exported from node 1 — more mappings than the
    /// table can hold at once.
    fn churn_rig(entries: usize, tenants: usize) -> (Multicomputer, Vec<Pid>, NiptDirectory) {
        let config =
            MulticomputerConfig { nipt_entries: entries, ..MulticomputerConfig::default() };
        let mut mc = Multicomputer::new(2, config);
        let rpid = mc.spawn_process(1);
        mc.map_user_buffer(1, rpid, 0x40_0000, tenants as u64).unwrap();
        let mut dir = NiptDirectory::new();
        let mut pids = Vec::new();
        for t in 0..tenants {
            let spid = mc.spawn_process(0);
            mc.map_user_buffer(0, spid, 0x10_0000, 1).unwrap();
            let va = VirtAddr::new(0x40_0000 + (t as u64) * shrimp_mem::PAGE_SIZE);
            let frames = mc.node_mut(1).export_pages(rpid, va, 1).unwrap();
            let dst = mc.node(1).id();
            dir.register(spid, dst, frames);
            pids.push(spid);
        }
        (mc, pids, dir)
    }

    #[test]
    fn churn_evicts_and_refaults() {
        let (mut mc, _pids, mut dir) = churn_rig(2, 3);
        // Two tenants fit; the third evicts.
        for t in 0..3 {
            dir.ensure(t, mc.node_mut(0)).unwrap();
        }
        let nipt = mc.node(0).os().machine().device().nipt();
        assert!(nipt.evictions() > 0, "third tenant must evict a slot");
        assert!(dir.mapping(2).dev_page.is_some());
        // The evicted tenant still holds its stale view: its next ensure
        // probes the recycled run, refaults, and reloads (evicting
        // someone else).
        let victim = (0..2).find(|&t| !dir.mapping(t).resident).unwrap();
        assert!(dir.mapping(victim).dev_page.is_some(), "stale view survives the recycle");
        let before = mc.node(0).os().machine().device().nipt().refaults();
        dir.ensure(victim, mc.node_mut(0)).unwrap();
        let nipt = mc.node(0).os().machine().device().nipt();
        assert!(nipt.refaults() > before, "the stale probe must count a refault");
        assert!(dir.mapping(victim).resident);
    }

    #[test]
    fn steady_state_is_one_probe() {
        let (mut mc, _pids, mut dir) = churn_rig(4, 2);
        let a = dir.ensure(0, mc.node_mut(0)).unwrap();
        let evictions = mc.node(0).os().machine().device().nipt().evictions();
        for _ in 0..100 {
            assert_eq!(dir.ensure(0, mc.node_mut(0)).unwrap(), a);
        }
        let nipt = mc.node(0).os().machine().device().nipt();
        assert_eq!(nipt.evictions(), evictions, "steady state never rewrites slots");
        assert_eq!(nipt.refaults(), 0, "steady state never refaults");
    }

    /// A one-page tenant that evicts a resident two-page tenant takes
    /// one of its slots and frees the other, so the next one-page tenant
    /// imports into the freed slot without evicting anyone.
    #[test]
    fn evicting_a_longer_tenant_frees_its_tail_slots() {
        let config = MulticomputerConfig { nipt_entries: 2, ..MulticomputerConfig::default() };
        let mut mc = Multicomputer::new(2, config);
        let rpid = mc.spawn_process(1);
        mc.map_user_buffer(1, rpid, 0x40_0000, 4).unwrap();
        let dst = mc.node(1).id();
        let mut dir = NiptDirectory::new();
        for (first_page, pages) in [(0u64, 2u64), (2, 1), (3, 1)] {
            let spid = mc.spawn_process(0);
            let va = VirtAddr::new(0x40_0000 + first_page * shrimp_mem::PAGE_SIZE);
            let frames = mc.node_mut(1).export_pages(rpid, va, pages).unwrap();
            dir.register(spid, dst, frames);
        }
        let nipt = |mc: &Multicomputer| {
            let n = mc.node(0).os().machine().device().nipt();
            (n.occupancy(), n.evictions())
        };
        dir.ensure(0, mc.node_mut(0)).unwrap();
        assert_eq!(nipt(&mc), (2, 0), "the two-page tenant fills the table");
        dir.ensure(1, mc.node_mut(0)).unwrap();
        assert!(!dir.mapping(0).resident);
        assert_eq!(nipt(&mc), (1, 1), "the victim's second slot is freed");
        dir.ensure(2, mc.node_mut(0)).unwrap();
        assert_eq!(nipt(&mc), (2, 1), "the freed slot imports without an eviction");
        assert!(dir.mapping(1).resident && dir.mapping(2).resident);
    }

    #[test]
    fn revoked_sender_faults_device_not_granted() {
        let (mut mc, pids, mut dir) = churn_rig(1, 2);
        let dev0 = dir.ensure(0, mc.node_mut(0)).unwrap();
        // Map + touch the proxy page so tenant 0 has a live PTE.
        mc.write_user(0, pids[0], VirtAddr::new(0x10_0000), &[7u8; 64]).unwrap();
        mc.send(0, pids[0], VirtAddr::new(0x10_0000), dev0, 0, 64).unwrap();
        // Tenant 1 steals the only slot.
        let dev1 = dir.ensure(1, mc.node_mut(0)).unwrap();
        assert_eq!(dev0, dev1, "one-slot table must recycle the same run");
        assert!(!dir.mapping(0).resident);
        // Tenant 0's old window now faults instead of writing through the
        // recycled mapping (protection under churn — invariant I1 family).
        let err = mc.send(0, pids[0], VirtAddr::new(0x10_0000), dev0, 0, 64).unwrap_err();
        assert!(
            matches!(err, crate::ShrimpError::Trap(Trap::DeviceNotGranted { .. })),
            "got {err:?}"
        );
        mc.run_until_quiet();
    }
}
