//! The DMA engine state: registers, timing and retirement.

use std::error::Error;
use std::fmt;

use shrimp_mem::{MemError, Pfn, PhysAddr, PhysMemory, PAGE_SHIFT};
use shrimp_sim::{SimDuration, SimTime};

use crate::{DevicePort, Direction};

/// Timing parameters of the engine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DmaTiming {
    /// Bus arbitration plus control-register write before data moves.
    pub start_overhead: SimDuration,
    /// Burst bandwidth on the I/O bus, MB/s.
    pub bus_mb_per_s: f64,
}

impl Default for DmaTiming {
    fn default() -> Self {
        DmaTiming { start_overhead: SimDuration::from_us(4.2), bus_mb_per_s: 33.0 }
    }
}

/// One in-flight (or retired) DMA transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Transfer {
    /// Direction relative to main memory.
    pub direction: Direction,
    /// The memory-side base address.
    pub mem_addr: PhysAddr,
    /// The device-side address (device-specific interpretation).
    pub dev_addr: u64,
    /// Bytes to move.
    pub nbytes: u64,
    /// When the engine accepted the transfer.
    pub started_at: SimTime,
    /// When the last byte lands.
    pub completes_at: SimTime,
}

impl Transfer {
    /// The physical frames the memory side of this transfer touches.
    pub fn mem_frames(&self) -> impl Iterator<Item = Pfn> {
        let first = self.mem_addr.page().raw();
        let last = if self.nbytes == 0 {
            first
        } else {
            (self.mem_addr.raw() + self.nbytes - 1) >> PAGE_SHIFT
        };
        (first..=last).map(Pfn::new)
    }
}

/// Errors from engine operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DmaError {
    /// A transfer is already in progress.
    Busy,
    /// A zero-length transfer was requested.
    ZeroLength,
}

impl fmt::Display for DmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DmaError::Busy => write!(f, "DMA engine is busy"),
            DmaError::ZeroLength => write!(f, "zero-length DMA transfer"),
        }
    }
}

impl Error for DmaError {}

shrimp_sim::counters! {
    /// Per-transfer engine counts (metrics subsystem `dma`): one plain
    /// increment per start/retire.
    pub struct DmaCounters {
        /// Transfers started.
        starts,
        /// Bytes moved by started transfers.
        bytes,
        /// Transfers retired (data moved).
        retired,
        /// Transfers aborted.
        aborts,
    }
}

/// The traditional DMA engine of Figure 1.
///
/// # Example
///
/// ```
/// use shrimp_dma::{Direction, DmaEngine, DmaTiming, LoopbackPort};
/// use shrimp_mem::{PhysAddr, PhysMemory};
/// use shrimp_sim::SimTime;
///
/// let mut mem = PhysMemory::new(4096);
/// mem.write(PhysAddr::new(0), b"data")?;
/// let mut port = LoopbackPort::new(64);
/// let mut engine = DmaEngine::new(DmaTiming::default());
///
/// let done = engine.start(Direction::MemToDev, PhysAddr::new(0), 8, 4, SimTime::ZERO)?;
/// engine.retire(done, &mut mem, &mut port)?;
/// assert_eq!(port.bytes()[8..12], b"data"[..]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct DmaEngine {
    timing: DmaTiming,
    active: Option<Transfer>,
    /// The most recently retired transfer — the template a replayed run of
    /// identical transfers is stamped from (see `replay_retired`).
    last_retired: Option<Transfer>,
    counters: DmaCounters,
}

impl DmaEngine {
    /// An idle engine with the given timing.
    pub fn new(timing: DmaTiming) -> Self {
        DmaEngine { timing, active: None, last_retired: None, counters: DmaCounters::default() }
    }

    /// The engine's timing parameters.
    pub fn timing(&self) -> DmaTiming {
        self.timing
    }

    /// Time the engine is occupied by an `nbytes` transfer.
    pub fn duration_for(&self, nbytes: u64) -> SimDuration {
        self.timing.start_overhead
            + SimDuration::from_bytes_at_rate(nbytes, self.timing.bus_mb_per_s)
    }

    /// Loads the registers and starts a transfer, returning its completion
    /// time. Data does not move until [`DmaEngine::retire`].
    ///
    /// # Errors
    ///
    /// - [`DmaError::Busy`] if a transfer is still in flight (the caller
    ///   must retire it first),
    /// - [`DmaError::ZeroLength`] for `nbytes == 0`.
    pub fn start(
        &mut self,
        direction: Direction,
        mem_addr: PhysAddr,
        dev_addr: u64,
        nbytes: u64,
        now: SimTime,
    ) -> Result<SimTime, DmaError> {
        self.start_with_service(direction, mem_addr, dev_addr, nbytes, now, SimDuration::ZERO)
    }

    /// Like [`DmaEngine::start`] but adds `service` device-side time (e.g.
    /// a disk seek) to the transfer's duration.
    ///
    /// # Errors
    ///
    /// Same as [`DmaEngine::start`].
    pub fn start_with_service(
        &mut self,
        direction: Direction,
        mem_addr: PhysAddr,
        dev_addr: u64,
        nbytes: u64,
        now: SimTime,
        service: SimDuration,
    ) -> Result<SimTime, DmaError> {
        if self.active.is_some() {
            return Err(DmaError::Busy);
        }
        if nbytes == 0 {
            return Err(DmaError::ZeroLength);
        }
        let completes_at = now + self.duration_for(nbytes) + service;
        self.active =
            Some(Transfer { direction, mem_addr, dev_addr, nbytes, started_at: now, completes_at });
        self.counters.starts.incr();
        self.counters.bytes.add(nbytes);
        Ok(completes_at)
    }

    /// The in-flight transfer, if any (regardless of whether its completion
    /// time has passed — it stays here until retired).
    pub fn active(&self) -> Option<&Transfer> {
        self.active.as_ref()
    }

    /// True while a transfer occupies the engine at instant `now`.
    pub fn is_busy(&self, now: SimTime) -> bool {
        self.active.is_some_and(|t| t.completes_at > now)
    }

    /// COUNT register as visible at `now`: bytes not yet transferred,
    /// linearly interpolated over the transfer window. This feeds the
    /// REMAINING-BYTES field of the UDMA status word.
    pub fn remaining_bytes(&self, now: SimTime) -> u64 {
        match self.active {
            None => 0,
            Some(t) => {
                if now >= t.completes_at {
                    0
                } else if now <= t.started_at {
                    t.nbytes
                } else {
                    let total = t.completes_at.duration_since(t.started_at).as_nanos();
                    let left = t.completes_at.duration_since(now).as_nanos();
                    // Round up: a byte in flight still counts.
                    ((t.nbytes as u128 * left as u128).div_ceil(total as u128)) as u64
                }
            }
        }
    }

    /// The memory-side page frames named by the engine's registers — what
    /// the kernel reads to maintain invariant I4 (§6: "the kernel reads the
    /// two registers to perform the check").
    pub fn frames_in_registers(&self) -> Vec<Pfn> {
        self.active.map(|t| t.mem_frames().collect()).unwrap_or_default()
    }

    /// Non-allocating form of the invariant-I4 register check: does the
    /// memory side of the in-flight transfer touch `pfn`? Answers from the
    /// latched `(base, count)` interval, so kernel sweeps over every frame
    /// stay O(1) per frame instead of materializing a frame list.
    pub fn frame_in_use(&self, pfn: Pfn) -> bool {
        self.active.is_some_and(|t| {
            let first = t.mem_addr.page().raw();
            let last =
                if t.nbytes == 0 { first } else { (t.mem_addr.raw() + t.nbytes - 1) >> PAGE_SHIFT };
            (first..=last).contains(&pfn.raw())
        })
    }

    /// If the active transfer has completed by `now`, performs the data
    /// movement between `mem` and `port`, frees the engine, and returns the
    /// finished transfer.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if the memory side falls outside installed
    /// memory (the transfer is dropped and the engine freed — the hardware
    /// analog of a bus error).
    pub fn retire(
        &mut self,
        now: SimTime,
        mem: &mut PhysMemory,
        port: &mut dyn DevicePort,
    ) -> Result<Option<Transfer>, MemError> {
        let Some(t) = self.active else { return Ok(None) };
        if t.completes_at > now {
            return Ok(None);
        }
        self.active = None;
        match t.direction {
            Direction::MemToDev => {
                // Hand the device a borrow of memory itself: the bus moves
                // the bytes once, with no staging buffer.
                let data = mem.read(t.mem_addr, t.nbytes)?;
                port.dma_write_traced(t.dev_addr, data, t.started_at, t.completes_at);
            }
            Direction::DevToMem => {
                // The device fills the destination frames in place.
                let buf = mem.slice_mut(t.mem_addr, t.nbytes)?;
                port.dma_read(t.dev_addr, buf, t.completes_at);
            }
        }
        self.counters.retired.incr();
        self.last_retired = Some(t);
        Ok(Some(t))
    }

    /// The most recently retired transfer, if any.
    pub fn last_retired(&self) -> Option<&Transfer> {
        self.last_retired.as_ref()
    }

    /// Accounts for `count` replayed repetitions of the last retired
    /// transfer without re-running start/retire. The replayed transfers
    /// are strides of the template: the caller moves the data (once — the
    /// payload is identical) and advances time; the engine only books the
    /// counters it would have booked had each transfer run individually.
    pub fn replay_retired(&mut self, count: u64, nbytes: u64) {
        self.counters.starts.add(count);
        self.counters.bytes.add(count * nbytes);
        self.counters.retired.add(count);
    }

    /// Drops any in-flight transfer without moving data (used by fault
    /// recovery paths).
    pub fn abort(&mut self) -> Option<Transfer> {
        self.counters.aborts.incr();
        self.active.take()
    }

    /// Engine counts: starts, bytes, retirements, aborts.
    pub fn counters(&self) -> &DmaCounters {
        &self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LoopbackPort;
    use shrimp_mem::PAGE_SIZE;

    fn engine() -> DmaEngine {
        DmaEngine::new(DmaTiming { start_overhead: SimDuration::from_us(4.0), bus_mb_per_s: 33.0 })
    }

    #[test]
    fn duration_includes_start_overhead() {
        let e = engine();
        let d = e.duration_for(33); // 1us of data
        assert_eq!(d, SimDuration::from_us(5.0));
    }

    #[test]
    fn busy_until_completion() {
        let mut e = engine();
        let done = e.start(Direction::MemToDev, PhysAddr::new(0), 0, 330, SimTime::ZERO).unwrap();
        assert!(e.is_busy(SimTime::ZERO));
        assert!(e.is_busy(done - SimDuration::from_nanos(1)));
        assert!(!e.is_busy(done));
        assert_eq!(
            e.start(Direction::MemToDev, PhysAddr::new(0), 0, 1, SimTime::ZERO),
            Err(DmaError::Busy)
        );
    }

    #[test]
    fn zero_length_rejected() {
        let mut e = engine();
        assert_eq!(
            e.start(Direction::MemToDev, PhysAddr::new(0), 0, 0, SimTime::ZERO),
            Err(DmaError::ZeroLength)
        );
    }

    #[test]
    fn remaining_bytes_interpolates() {
        let mut e = engine();
        let start = SimTime::from_nanos(0);
        let done = e.start(Direction::MemToDev, PhysAddr::new(0), 0, 1000, start).unwrap();
        assert_eq!(e.remaining_bytes(start), 1000);
        assert_eq!(e.remaining_bytes(done), 0);
        let mid = SimTime::from_nanos(done.as_nanos() / 2);
        let mid_remaining = e.remaining_bytes(mid);
        assert!(mid_remaining > 0 && mid_remaining < 1000, "mid = {mid_remaining}");
    }

    #[test]
    fn retire_moves_data_mem_to_dev() {
        let mut e = engine();
        let mut mem = PhysMemory::new(PAGE_SIZE);
        mem.write(PhysAddr::new(16), &[9, 8, 7]).unwrap();
        let mut port = LoopbackPort::new(32);
        let done = e.start(Direction::MemToDev, PhysAddr::new(16), 4, 3, SimTime::ZERO).unwrap();
        // Too early: nothing happens.
        assert!(e.retire(SimTime::ZERO, &mut mem, &mut port).unwrap().is_none());
        let t = e.retire(done, &mut mem, &mut port).unwrap().unwrap();
        assert_eq!(t.nbytes, 3);
        assert_eq!(&port.bytes()[4..7], &[9, 8, 7]);
        assert!(!e.is_busy(done));
    }

    #[test]
    fn retire_moves_data_dev_to_mem() {
        let mut e = engine();
        let mut mem = PhysMemory::new(PAGE_SIZE);
        let mut port = LoopbackPort::new(32);
        port.dma_write(0, &[1, 2, 3, 4], SimTime::ZERO);
        let done = e.start(Direction::DevToMem, PhysAddr::new(64), 0, 4, SimTime::ZERO).unwrap();
        e.retire(done, &mut mem, &mut port).unwrap().unwrap();
        assert_eq!(mem.read_vec(PhysAddr::new(64), 4).unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn frames_in_registers_span_pages() {
        let mut e = engine();
        e.start(Direction::MemToDev, PhysAddr::new(PAGE_SIZE - 4), 0, 8, SimTime::ZERO).unwrap();
        assert_eq!(e.frames_in_registers(), vec![Pfn::new(0), Pfn::new(1)]);
        e.abort();
        assert!(e.frames_in_registers().is_empty());
    }

    #[test]
    fn frame_in_use_matches_register_list() {
        let mut e = engine();
        assert!(!e.frame_in_use(Pfn::new(0)), "idle engine names no frames");
        e.start(Direction::MemToDev, PhysAddr::new(PAGE_SIZE - 4), 0, 8, SimTime::ZERO).unwrap();
        for pfn in [Pfn::new(0), Pfn::new(1), Pfn::new(2)] {
            assert_eq!(e.frame_in_use(pfn), e.frames_in_registers().contains(&pfn));
        }
        e.abort();
        assert!(!e.frame_in_use(Pfn::new(0)));
    }

    #[test]
    fn abort_frees_engine() {
        let mut e = engine();
        e.start(Direction::MemToDev, PhysAddr::new(0), 0, 100, SimTime::ZERO).unwrap();
        let t = e.abort().unwrap();
        assert_eq!(t.nbytes, 100);
        assert!(!e.is_busy(SimTime::ZERO));
        assert!(e.start(Direction::MemToDev, PhysAddr::new(0), 0, 1, SimTime::ZERO).is_ok());
    }

    #[test]
    fn retire_out_of_range_frees_engine() {
        let mut e = engine();
        let mut mem = PhysMemory::new(PAGE_SIZE);
        let mut port = LoopbackPort::new(8);
        let done = e
            .start(Direction::MemToDev, PhysAddr::new(PAGE_SIZE - 1), 0, 8, SimTime::ZERO)
            .unwrap();
        assert!(e.retire(done, &mut mem, &mut port).is_err());
        assert!(e.active().is_none());
    }

    #[test]
    fn counters_accumulate() {
        let mut e = engine();
        let mut mem = PhysMemory::new(PAGE_SIZE);
        let mut port = LoopbackPort::new(8);
        let done = e.start(Direction::MemToDev, PhysAddr::new(0), 0, 4, SimTime::ZERO).unwrap();
        e.retire(done, &mut mem, &mut port).unwrap();
        assert_eq!(e.counters().starts.get(), 1);
        assert_eq!(e.counters().bytes.get(), 4);
        assert_eq!(e.counters().retired.get(), 1);
    }
}
