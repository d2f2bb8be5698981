//! Synthetic stream endpoints for tests and failure injection.

use shrimp_dma::DevicePort;
use shrimp_sim::SimTime;

use crate::Device;

/// A sink that records everything DMA'd into it, in arrival order.
///
/// Reads return zeros. Useful for asserting on exactly what a transfer
/// delivered and when.
#[derive(Clone, Debug, Default)]
pub struct StreamSink {
    name: String,
    writes: Vec<(u64, Vec<u8>, SimTime)>,
    /// When set, `validate` rejects everything (failure injection).
    reject_all: bool,
}

impl StreamSink {
    /// An empty sink.
    pub fn new(name: impl Into<String>) -> Self {
        StreamSink { name: name.into(), writes: Vec::new(), reject_all: false }
    }

    /// Makes `validate` reject every request (failure injection).
    pub fn reject_all(&mut self, reject: bool) {
        self.reject_all = reject;
    }

    /// All recorded writes: `(dev_addr, data, arrival_time)`.
    pub fn writes(&self) -> &[(u64, Vec<u8>, SimTime)] {
        &self.writes
    }

    /// Total bytes received.
    pub fn bytes_received(&self) -> u64 {
        self.writes.iter().map(|(_, d, _)| d.len() as u64).sum()
    }
}

impl DevicePort for StreamSink {
    fn dma_write(&mut self, dev_addr: u64, data: &[u8], now: SimTime) {
        // lint:allow(A1) -- a test sink keeps a copy of every write. No hot
        // path has it as its port (a SHRIMP node's is the NIC): the graph
        // reaches it only because `DevicePort` dispatch binds every impl.
        self.writes.push((dev_addr, data.to_vec(), now));
    }

    fn dma_read(&mut self, _dev_addr: u64, buf: &mut [u8], _now: SimTime) {
        buf.fill(0);
    }

    fn validate(&self, _dev_addr: u64, _nbytes: u64) -> bool {
        !self.reject_all
    }
}

impl Device for StreamSink {
    fn name(&self) -> &str {
        &self.name
    }

    fn proxy_space_bytes(&self) -> u64 {
        u64::MAX
    }
}

/// A source producing a deterministic byte pattern: byte `i` of device
/// address `a` is `(a + i) * 0x9E ^ seed`, so any subrange is checkable.
#[derive(Clone, Debug)]
pub struct StreamSource {
    name: String,
    seed: u8,
    reads: u64,
}

impl StreamSource {
    /// A pattern source.
    pub fn new(name: impl Into<String>, seed: u8) -> Self {
        StreamSource { name: name.into(), seed, reads: 0 }
    }

    /// The byte this source produces for device address `addr`.
    pub fn expected_byte(&self, addr: u64) -> u8 {
        (addr as u8).wrapping_mul(0x9e) ^ self.seed
    }

    /// Number of DMA reads served.
    pub fn read_count(&self) -> u64 {
        self.reads
    }
}

impl DevicePort for StreamSource {
    fn dma_write(&mut self, _dev_addr: u64, _data: &[u8], _now: SimTime) {
        // Writes into a pure source are dropped.
    }

    fn dma_read(&mut self, dev_addr: u64, buf: &mut [u8], _now: SimTime) {
        self.reads += 1;
        for (i, b) in buf.iter_mut().enumerate() {
            *b = self.expected_byte(dev_addr + i as u64);
        }
    }
}

impl Device for StreamSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn proxy_space_bytes(&self) -> u64 {
        u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_records_in_order() {
        let mut s = StreamSink::new("sink");
        s.dma_write(0, &[1], SimTime::from_nanos(5));
        s.dma_write(8, &[2, 3], SimTime::from_nanos(9));
        assert_eq!(s.writes().len(), 2);
        assert_eq!(s.writes()[1], (8, vec![2, 3], SimTime::from_nanos(9)));
        assert_eq!(s.bytes_received(), 3);
    }

    #[test]
    fn sink_failure_injection() {
        let mut s = StreamSink::new("sink");
        assert!(s.validate(0, 1));
        s.reject_all(true);
        assert!(!s.validate(0, 1));
    }

    #[test]
    fn source_pattern_is_deterministic() {
        let mut a = StreamSource::new("a", 0x55);
        let b = StreamSource::new("b", 0x55);
        let got = a.dma_read_vec(100, 16, SimTime::ZERO);
        for (i, &byte) in got.iter().enumerate() {
            assert_eq!(byte, b.expected_byte(100 + i as u64));
        }
        assert_eq!(a.read_count(), 1);
    }

    #[test]
    fn source_seeds_differ() {
        let a = StreamSource::new("a", 1);
        let b = StreamSource::new("b", 2);
        assert_ne!(a.expected_byte(0), b.expected_byte(0));
    }
}
