//! The device side of a DMA transfer.

use shrimp_sim::SimTime;

/// Timing for a replayed run of identical transfers: member `k` was
/// initiated at `started_at + stride·k` and completed at
/// `completes_at + stride·k`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunTiming {
    /// Initiation instant of the first member.
    pub started_at: SimTime,
    /// Completion instant of the first member.
    pub completes_at: SimTime,
    /// Inter-member spacing.
    pub stride: shrimp_sim::SimDuration,
}

/// A device endpoint the DMA engine can stream to or from.
///
/// `dev_addr` is the device's own address space: a block number for a disk,
/// a pixel offset for a frame buffer, a device-proxy-derived destination for
/// the SHRIMP network interface. The UDMA mechanism deliberately leaves its
/// interpretation device-specific (§4: "the precise interpretation of
/// addresses in device proxy space is device specific").
pub trait DevicePort {
    /// Accepts `data` for device address `dev_addr` (a memory→device
    /// transfer arriving at the device).
    fn dma_write(&mut self, dev_addr: u64, data: &[u8], now: SimTime);

    /// [`DevicePort::dma_write`] plus the simulated time the transfer was
    /// *initiated* (`started_at <= now`). Devices that correlate outgoing
    /// work with its originating request — the SHRIMP NIC stamps transfer
    /// spans for the flight recorder — override this; the default simply
    /// forwards to `dma_write`.
    fn dma_write_traced(&mut self, dev_addr: u64, data: &[u8], started_at: SimTime, now: SimTime) {
        let _ = started_at;
        self.dma_write(dev_addr, data, now);
    }

    /// A replayed *run* of `count` identical writes of `data` to
    /// `dev_addr`, spaced per [`RunTiming`]. The default simply loops the
    /// traced single-write path; batching devices (the SHRIMP NIC)
    /// override this to build one run descriptor instead of `count`
    /// packets.
    fn dma_write_run(&mut self, dev_addr: u64, data: &[u8], count: u64, timing: RunTiming) {
        for k in 0..count {
            self.dma_write_traced(
                dev_addr,
                data,
                timing.started_at + timing.stride * k,
                timing.completes_at + timing.stride * k,
            );
        }
    }

    /// Fills `buf` with bytes from device address `dev_addr` (a
    /// device→memory transfer leaving the device). The engine passes the
    /// destination memory slice directly, so retirement moves data with a
    /// single copy and no intermediate allocation.
    fn dma_read(&mut self, dev_addr: u64, buf: &mut [u8], now: SimTime);

    /// Convenience wrapper returning the read as a fresh `Vec` (tests and
    /// cold paths; the hot path uses [`DevicePort::dma_read`] directly).
    fn dma_read_vec(&mut self, dev_addr: u64, len: u64, now: SimTime) -> Vec<u8> {
        let mut buf = vec![0; len as usize];
        self.dma_read(dev_addr, &mut buf, now);
        buf
    }

    /// Device-specific validation of a transfer request, called at
    /// initiation time. Returning `false` sets the DEVICE-SPECIFIC ERROR
    /// bits in the UDMA status word (§5). The default accepts everything.
    fn validate(&self, _dev_addr: u64, _nbytes: u64) -> bool {
        true
    }

    /// Additional device-side service time for a transfer (e.g. disk seek
    /// plus rotational delay). Added to the engine's bus time. The default
    /// is zero (bus-limited devices such as network FIFOs).
    fn service_time(&self, _dev_addr: u64, _nbytes: u64) -> shrimp_sim::SimDuration {
        shrimp_sim::SimDuration::ZERO
    }
}

/// A trivial in-memory port that stores writes and replays them on reads;
/// useful for tests and as a scratch device.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LoopbackPort {
    data: Vec<u8>,
}

impl LoopbackPort {
    /// A loopback port backed by `size` zeroed bytes.
    pub fn new(size: usize) -> Self {
        LoopbackPort { data: vec![0; size] }
    }

    /// Direct access to the backing bytes (test inspection).
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }
}

impl DevicePort for LoopbackPort {
    fn dma_write(&mut self, dev_addr: u64, data: &[u8], _now: SimTime) {
        let start = dev_addr as usize;
        let end = start + data.len();
        assert!(end <= self.data.len(), "loopback write out of range");
        self.data[start..end].copy_from_slice(data);
    }

    fn dma_read(&mut self, dev_addr: u64, buf: &mut [u8], _now: SimTime) {
        let start = dev_addr as usize;
        let end = start + buf.len();
        assert!(end <= self.data.len(), "loopback read out of range");
        buf.copy_from_slice(&self.data[start..end]);
    }

    fn validate(&self, dev_addr: u64, nbytes: u64) -> bool {
        dev_addr + nbytes <= self.data.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_roundtrip() {
        let mut p = LoopbackPort::new(16);
        p.dma_write(4, &[1, 2, 3], SimTime::ZERO);
        assert_eq!(p.dma_read_vec(4, 3, SimTime::ZERO), vec![1, 2, 3]);
        assert_eq!(p.bytes()[3], 0);
    }

    #[test]
    fn loopback_validate_bounds() {
        let p = LoopbackPort::new(8);
        assert!(p.validate(0, 8));
        assert!(!p.validate(1, 8));
    }
}
