//! A graphics frame buffer whose device proxy addresses name pixels.

use shrimp_dma::DevicePort;
use shrimp_sim::{MetricSet, SimTime};

use crate::Device;

shrimp_sim::counters! {
    /// Frame-buffer access counts (metrics subsystem `framebuffer`).
    pub struct FrameBufferCounters {
        /// DMA writes (blits).
        blits,
        /// Pixels written by blits.
        pixels_written,
        /// DMA reads (readbacks).
        readbacks,
    }
}

/// A simulated frame buffer (8 bits per pixel, row-major).
///
/// Device address layout: `dev_addr = y * width + x`, so a device proxy
/// address "specifies a pixel" exactly as §4 suggests for graphics devices.
///
/// # Example
///
/// ```
/// use shrimp_devices::FrameBuffer;
/// use shrimp_dma::DevicePort;
/// use shrimp_sim::SimTime;
///
/// let mut fb = FrameBuffer::new("fb0", 64, 32);
/// fb.dma_write(64 + 5, &[0xff], SimTime::ZERO); // pixel (5, 1)
/// assert_eq!(fb.pixel(5, 1), 0xff);
/// ```
#[derive(Clone, Debug)]
pub struct FrameBuffer {
    name: String,
    width: u64,
    height: u64,
    pixels: Vec<u8>,
    counters: FrameBufferCounters,
}

impl FrameBuffer {
    /// A cleared `width × height` frame buffer.
    ///
    /// # Panics
    ///
    /// Panics on a zero dimension.
    pub fn new(name: impl Into<String>, width: u64, height: u64) -> Self {
        assert!(width > 0 && height > 0, "frame buffer dimensions must be positive");
        FrameBuffer {
            name: name.into(),
            width,
            height,
            pixels: vec![0; (width * height) as usize],
            counters: FrameBufferCounters::default(),
        }
    }

    /// Width in pixels.
    pub fn width(&self) -> u64 {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> u64 {
        self.height
    }

    /// The pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn pixel(&self, x: u64, y: u64) -> u8 {
        assert!(x < self.width && y < self.height, "pixel ({x},{y}) out of bounds");
        self.pixels[(y * self.width + x) as usize]
    }

    /// One row of pixels (test inspection).
    pub fn row(&self, y: u64) -> &[u8] {
        assert!(y < self.height, "row {y} out of bounds");
        let s = (y * self.width) as usize;
        &self.pixels[s..s + self.width as usize]
    }

    /// A simple content checksum for whole-frame assertions.
    pub fn checksum(&self) -> u64 {
        self.pixels.iter().fold(0u64, |acc, &p| acc.wrapping_mul(31).wrapping_add(u64::from(p)))
    }

    /// Access counts.
    pub fn counters(&self) -> &FrameBufferCounters {
        &self.counters
    }

    fn len(&self) -> u64 {
        self.width * self.height
    }
}

impl DevicePort for FrameBuffer {
    fn dma_write(&mut self, dev_addr: u64, data: &[u8], _now: SimTime) {
        let end = dev_addr + data.len() as u64;
        assert!(end <= self.len(), "framebuffer write out of range");
        self.pixels[dev_addr as usize..end as usize].copy_from_slice(data);
        self.counters.blits.incr();
        self.counters.pixels_written.add(data.len() as u64);
    }

    fn dma_read(&mut self, dev_addr: u64, buf: &mut [u8], _now: SimTime) {
        let end = dev_addr + buf.len() as u64;
        assert!(end <= self.len(), "framebuffer read out of range");
        self.counters.readbacks.incr();
        buf.copy_from_slice(&self.pixels[dev_addr as usize..end as usize]);
    }

    fn validate(&self, dev_addr: u64, nbytes: u64) -> bool {
        dev_addr.checked_add(nbytes).is_some_and(|end| end <= self.len())
    }
}

impl Device for FrameBuffer {
    fn name(&self) -> &str {
        &self.name
    }

    fn proxy_space_bytes(&self) -> u64 {
        self.len()
    }

    fn harvest_metrics(&self, set: &mut MetricSet, index: Option<u32>) {
        self.counters.harvest(set, "framebuffer", index);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blit_row() {
        let mut fb = FrameBuffer::new("fb", 16, 4);
        fb.dma_write(16, &[7; 16], SimTime::ZERO); // whole row 1
        assert!(fb.row(1).iter().all(|&p| p == 7));
        assert!(fb.row(0).iter().all(|&p| p == 0));
    }

    #[test]
    fn readback_matches_write() {
        let mut fb = FrameBuffer::new("fb", 8, 8);
        fb.dma_write(10, &[1, 2, 3], SimTime::ZERO);
        assert_eq!(fb.dma_read_vec(10, 3, SimTime::ZERO), vec![1, 2, 3]);
    }

    #[test]
    fn checksum_changes_with_content() {
        let mut fb = FrameBuffer::new("fb", 8, 8);
        let before = fb.checksum();
        fb.dma_write(0, &[1], SimTime::ZERO);
        assert_ne!(fb.checksum(), before);
    }

    #[test]
    fn validate_bounds() {
        let fb = FrameBuffer::new("fb", 8, 8);
        assert!(fb.validate(0, 64));
        assert!(!fb.validate(1, 64));
        assert!(!fb.validate(u64::MAX, 2));
    }

    #[test]
    fn device_trait() {
        let fb = FrameBuffer::new("fb0", 320, 200);
        assert_eq!(fb.name(), "fb0");
        assert_eq!(fb.proxy_space_bytes(), 64_000);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn pixel_bounds_checked() {
        let fb = FrameBuffer::new("fb", 4, 4);
        let _ = fb.pixel(4, 0);
    }
}
