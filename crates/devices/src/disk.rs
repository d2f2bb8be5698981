//! A block storage device with a mechanical service-time model.

use shrimp_dma::DevicePort;
use shrimp_mem::{PAGE_MASK, PAGE_SHIFT, PAGE_SIZE};
use shrimp_sim::{MetricSet, SimDuration, SimTime};

use crate::Device;

/// Mechanical parameters of the disk.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DiskGeometry {
    /// Number of page-sized blocks.
    pub blocks: u64,
    /// Average seek time.
    pub seek: SimDuration,
    /// Average rotational delay.
    pub rotation: SimDuration,
    /// Media transfer rate, MB/s.
    pub media_mb_per_s: f64,
}

impl Default for DiskGeometry {
    fn default() -> Self {
        // A period-plausible ~90 MB drive: 9 ms seek, 4.2 ms rotation
        // (7200 rpm would be 4.17 ms half-rotation), 5 MB/s media rate.
        DiskGeometry {
            blocks: 22_000,
            seek: SimDuration::from_us(9_000.0),
            rotation: SimDuration::from_us(4_200.0),
            media_mb_per_s: 5.0,
        }
    }
}

shrimp_sim::counters! {
    /// Disk access counts (metrics subsystem `disk`).
    pub struct DiskCounters {
        /// DMA writes to the media.
        writes,
        /// Bytes written.
        bytes_written,
        /// DMA reads from the media.
        reads,
        /// Bytes read.
        bytes_read,
    }
}

/// A simulated disk whose device proxy pages name blocks.
///
/// Device address layout: `dev_addr = block * PAGE_SIZE + offset`, so the
/// device proxy page number *is* the block number — exactly the paper's §4
/// suggestion. Sequential accesses to the same block pay no seek.
///
/// # Example
///
/// ```
/// use shrimp_devices::{Device, Disk, DiskGeometry};
/// use shrimp_dma::DevicePort;
/// use shrimp_sim::SimTime;
///
/// let mut disk = Disk::new("disk0", DiskGeometry { blocks: 16, ..Default::default() });
/// disk.dma_write(4096, b"block 1 data", SimTime::ZERO);
/// assert_eq!(disk.dma_read_vec(4096, 12, SimTime::ZERO), b"block 1 data");
/// ```
#[derive(Clone, Debug)]
pub struct Disk {
    name: String,
    geometry: DiskGeometry,
    data: Vec<u8>,
    /// Head position (block index) for the seek model.
    head_at: u64,
    counters: DiskCounters,
}

impl Disk {
    /// A zero-filled disk.
    pub fn new(name: impl Into<String>, geometry: DiskGeometry) -> Self {
        Disk {
            name: name.into(),
            data: vec![0; (geometry.blocks * PAGE_SIZE) as usize],
            geometry,
            head_at: 0,
            counters: DiskCounters::default(),
        }
    }

    /// The disk's geometry.
    pub fn geometry(&self) -> DiskGeometry {
        self.geometry
    }

    /// Reads a whole block (test/setup convenience; not timed).
    pub fn block(&self, block: u64) -> &[u8] {
        let s = (block * PAGE_SIZE) as usize;
        &self.data[s..s + PAGE_SIZE as usize]
    }

    /// Overwrites a whole block (test/setup convenience; not timed).
    ///
    /// # Panics
    ///
    /// Panics if `data` is not one page or `block` is out of range.
    pub fn set_block(&mut self, block: u64, data: &[u8]) {
        assert_eq!(data.len() as u64, PAGE_SIZE, "blocks are page-sized");
        assert!(block < self.geometry.blocks, "block {block} out of range");
        let s = (block * PAGE_SIZE) as usize;
        self.data[s..s + PAGE_SIZE as usize].copy_from_slice(data);
    }

    /// Access counts.
    pub fn counters(&self) -> &DiskCounters {
        &self.counters
    }

    fn in_range(&self, dev_addr: u64, nbytes: u64) -> bool {
        dev_addr.checked_add(nbytes).is_some_and(|end| end <= self.geometry.blocks * PAGE_SIZE)
    }
}

impl DevicePort for Disk {
    fn dma_write(&mut self, dev_addr: u64, data: &[u8], _now: SimTime) {
        assert!(self.in_range(dev_addr, data.len() as u64), "disk write out of range");
        let s = dev_addr as usize;
        self.data[s..s + data.len()].copy_from_slice(data);
        self.head_at = dev_addr >> PAGE_SHIFT;
        self.counters.writes.incr();
        self.counters.bytes_written.add(data.len() as u64);
    }

    fn dma_read(&mut self, dev_addr: u64, buf: &mut [u8], _now: SimTime) {
        let len = buf.len() as u64;
        assert!(self.in_range(dev_addr, len), "disk read out of range");
        let s = dev_addr as usize;
        self.head_at = dev_addr >> PAGE_SHIFT;
        self.counters.reads.incr();
        self.counters.bytes_read.add(len);
        buf.copy_from_slice(&self.data[s..s + len as usize]);
    }

    fn validate(&self, dev_addr: u64, nbytes: u64) -> bool {
        // The §5 alignment example: this device requires 4-byte alignment,
        // and transfers must stay on the media.
        dev_addr & 0x3 == 0 && self.in_range(dev_addr, nbytes)
    }

    fn service_time(&self, dev_addr: u64, nbytes: u64) -> SimDuration {
        let target = dev_addr >> PAGE_SHIFT;
        let mechanical = if target == self.head_at {
            // Head already on the track: rotational delay only.
            self.geometry.rotation
        } else {
            self.geometry.seek + self.geometry.rotation
        };
        mechanical + SimDuration::from_bytes_at_rate(nbytes, self.geometry.media_mb_per_s)
    }
}

impl Device for Disk {
    fn name(&self) -> &str {
        &self.name
    }

    fn proxy_space_bytes(&self) -> u64 {
        self.geometry.blocks * PAGE_SIZE
    }

    fn harvest_metrics(&self, set: &mut MetricSet, index: Option<u32>) {
        self.counters.harvest(set, "disk", index);
    }
}

/// Decomposes a disk device address into `(block, offset)`.
pub fn block_of(dev_addr: u64) -> (u64, u64) {
    (dev_addr >> PAGE_SHIFT, dev_addr & PAGE_MASK)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Disk {
        Disk::new("d", DiskGeometry { blocks: 8, ..Default::default() })
    }

    #[test]
    fn write_read_roundtrip() {
        let mut d = small();
        d.dma_write(2 * PAGE_SIZE + 16, &[1, 2, 3], SimTime::ZERO);
        assert_eq!(d.dma_read_vec(2 * PAGE_SIZE + 16, 3, SimTime::ZERO), vec![1, 2, 3]);
        assert_eq!(d.block(2)[16..19], [1, 2, 3]);
    }

    #[test]
    fn validate_alignment_and_bounds() {
        let d = small();
        assert!(d.validate(0, PAGE_SIZE));
        assert!(!d.validate(2, 8), "unaligned");
        assert!(!d.validate(7 * PAGE_SIZE, PAGE_SIZE + 4), "past end");
        assert!(!d.validate(u64::MAX - 3, 8), "overflow");
    }

    #[test]
    fn service_time_models_seek() {
        let mut d = small();
        let far = d.service_time(5 * PAGE_SIZE, PAGE_SIZE);
        // Move the head to block 5.
        d.dma_write(5 * PAGE_SIZE, &[0], SimTime::ZERO);
        let near = d.service_time(5 * PAGE_SIZE, PAGE_SIZE);
        assert!(far > near, "seek should dominate: far={far} near={near}");
        assert_eq!(far - near, d.geometry().seek);
    }

    #[test]
    fn set_block_and_block() {
        let mut d = small();
        d.set_block(3, &vec![9u8; PAGE_SIZE as usize]);
        assert!(d.block(3).iter().all(|&b| b == 9));
    }

    #[test]
    fn block_decomposition() {
        assert_eq!(block_of(3 * PAGE_SIZE + 7), (3, 7));
    }

    #[test]
    fn device_trait() {
        let d = small();
        assert_eq!(d.name(), "d");
        assert_eq!(d.proxy_space_bytes(), 8 * PAGE_SIZE);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_write_panics() {
        let mut d = small();
        d.dma_write(8 * PAGE_SIZE, &[1], SimTime::ZERO);
    }
}
