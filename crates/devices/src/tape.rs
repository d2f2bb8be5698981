//! A sequential-access tape drive — the other storage class §1 names.
//!
//! Unlike the disk's per-access seek model, a tape pays *winding* time
//! proportional to the distance between the head position and the target,
//! then streams at the medium rate. Sequential access is therefore nearly
//! free while random access is catastrophic — a service-time profile at
//! the opposite extreme from the frame buffer's.

use shrimp_dma::DevicePort;
use shrimp_sim::{MetricSet, SimDuration, SimTime};

use crate::Device;

/// Mechanical parameters of the tape drive.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TapeGeometry {
    /// Medium capacity in bytes.
    pub capacity: u64,
    /// Winding speed, bytes of tape passed per second (both directions).
    pub wind_bytes_per_s: f64,
    /// Streaming transfer rate, MB/s.
    pub stream_mb_per_s: f64,
    /// Fixed start/stop penalty per repositioning.
    pub start_stop: SimDuration,
}

impl Default for TapeGeometry {
    fn default() -> Self {
        // A period QIC-style drive: slow streaming, painful repositioning.
        TapeGeometry {
            capacity: 64 * 1024 * 1024,
            wind_bytes_per_s: 3_000_000.0,
            stream_mb_per_s: 0.5,
            start_stop: SimDuration::from_us(250_000.0),
        }
    }
}

shrimp_sim::counters! {
    /// Tape access counts (metrics subsystem `tape`).
    pub struct TapeCounters {
        /// DMA writes to the medium.
        writes,
        /// Bytes written.
        bytes_written,
        /// DMA reads from the medium.
        reads,
        /// Bytes read.
        bytes_read,
        /// Untimed rewinds.
        rewinds,
    }
}

/// A simulated tape drive. Device proxy addresses are absolute byte
/// positions on the medium.
///
/// # Example
///
/// ```
/// use shrimp_devices::{Tape, TapeGeometry};
/// use shrimp_dma::DevicePort;
/// use shrimp_sim::SimTime;
///
/// let mut tape = Tape::new("tape0", TapeGeometry::default());
/// tape.dma_write(0, b"archive record", SimTime::ZERO);
/// assert_eq!(tape.dma_read_vec(0, 7, SimTime::ZERO), b"archive");
/// ```
#[derive(Clone, Debug)]
pub struct Tape {
    name: String,
    geometry: TapeGeometry,
    data: Vec<u8>,
    /// Head position (byte offset on the medium).
    position: u64,
    counters: TapeCounters,
}

impl Tape {
    /// A blank tape.
    pub fn new(name: impl Into<String>, geometry: TapeGeometry) -> Self {
        Tape {
            name: name.into(),
            data: vec![0; geometry.capacity as usize],
            geometry,
            position: 0,
            counters: TapeCounters::default(),
        }
    }

    /// The drive's geometry.
    pub fn geometry(&self) -> TapeGeometry {
        self.geometry
    }

    /// Current head position.
    pub fn position(&self) -> u64 {
        self.position
    }

    /// Rewinds to the beginning (not timed; use a DMA at position 0 for a
    /// timed repositioning).
    pub fn rewind(&mut self) {
        self.position = 0;
        self.counters.rewinds.incr();
    }

    /// Access counts.
    pub fn counters(&self) -> &TapeCounters {
        &self.counters
    }

    fn in_range(&self, dev_addr: u64, nbytes: u64) -> bool {
        dev_addr.checked_add(nbytes).is_some_and(|end| end <= self.geometry.capacity)
    }
}

impl DevicePort for Tape {
    fn dma_write(&mut self, dev_addr: u64, data: &[u8], _now: SimTime) {
        assert!(self.in_range(dev_addr, data.len() as u64), "tape write past end of medium");
        let s = dev_addr as usize;
        self.data[s..s + data.len()].copy_from_slice(data);
        self.position = dev_addr + data.len() as u64;
        self.counters.writes.incr();
        self.counters.bytes_written.add(data.len() as u64);
    }

    fn dma_read(&mut self, dev_addr: u64, buf: &mut [u8], _now: SimTime) {
        let len = buf.len() as u64;
        assert!(self.in_range(dev_addr, len), "tape read past end of medium");
        let s = dev_addr as usize;
        self.position = dev_addr + len;
        self.counters.reads.incr();
        self.counters.bytes_read.add(len);
        buf.copy_from_slice(&self.data[s..s + len as usize]);
    }

    fn validate(&self, dev_addr: u64, nbytes: u64) -> bool {
        self.in_range(dev_addr, nbytes)
    }

    fn service_time(&self, dev_addr: u64, nbytes: u64) -> SimDuration {
        let wind = if dev_addr == self.position {
            SimDuration::ZERO // streaming: head already there
        } else {
            let distance = dev_addr.abs_diff(self.position);
            self.geometry.start_stop
                + SimDuration::from_bytes_at_rate(
                    distance,
                    self.geometry.wind_bytes_per_s / 1_000_000.0 * 1_000_000.0,
                )
        };
        wind + SimDuration::from_bytes_at_rate(nbytes, self.geometry.stream_mb_per_s)
    }
}

impl Device for Tape {
    fn name(&self) -> &str {
        &self.name
    }

    fn proxy_space_bytes(&self) -> u64 {
        self.geometry.capacity
    }

    fn harvest_metrics(&self, set: &mut MetricSet, index: Option<u32>) {
        self.counters.harvest(set, "tape", index);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Tape {
        Tape::new("t", TapeGeometry { capacity: 1024 * 1024, ..TapeGeometry::default() })
    }

    #[test]
    fn write_read_roundtrip_moves_head() {
        let mut t = small();
        t.dma_write(100, &[1, 2, 3], SimTime::ZERO);
        assert_eq!(t.position(), 103);
        assert_eq!(t.dma_read_vec(100, 3, SimTime::ZERO), vec![1, 2, 3]);
        assert_eq!(t.position(), 103);
    }

    #[test]
    fn sequential_access_is_cheap_random_is_not() {
        let mut t = small();
        t.dma_write(0, &[0; 4096], SimTime::ZERO); // head at 4096
        let sequential = t.service_time(4096, 4096);
        let random = t.service_time(900_000, 4096);
        assert!(random > sequential * 2, "random {random} must dwarf sequential {sequential}");
        // Sequential streaming pays no start/stop.
        assert!(sequential < t.geometry().start_stop);
    }

    #[test]
    fn validate_bounds() {
        let t = small();
        assert!(t.validate(0, 1024 * 1024));
        assert!(!t.validate(1, 1024 * 1024));
        assert!(!t.validate(u64::MAX, 8));
    }

    #[test]
    fn rewind_resets_position() {
        let mut t = small();
        t.dma_write(5000, &[1], SimTime::ZERO);
        t.rewind();
        assert_eq!(t.position(), 0);
        assert_eq!(t.counters().rewinds.get(), 1);
    }

    #[test]
    fn device_trait() {
        let t = small();
        assert_eq!(t.name(), "t");
        assert_eq!(t.proxy_space_bytes(), 1024 * 1024);
    }

    #[test]
    #[should_panic(expected = "past end")]
    fn overrun_panics() {
        let mut t = small();
        t.dma_write(1024 * 1024 - 1, &[1, 2], SimTime::ZERO);
    }
}
