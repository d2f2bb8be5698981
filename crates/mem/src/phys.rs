//! Simulated physical memory: a flat byte array with bounds-checked access.

use std::cell::RefCell;

use crate::{MemError, Pfn, PhysAddr, PAGE_SIZE};

thread_local! {
    /// Storage of the memories dropped on this thread, all of one size.
    /// A machine built after another of the same shape takes its nodes'
    /// memory from here, pages already resident, instead of asking the
    /// allocator again — which may have handed the dropped machine's
    /// pages back to the OS, depending on where unrelated allocations sit
    /// in its heap, so that the new machine faults every page in afresh.
    static SPARE: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// The installed physical memory of one simulated node.
///
/// # Example
///
/// ```
/// use shrimp_mem::{PhysAddr, PhysMemory};
///
/// let mut mem = PhysMemory::new(64 * 1024);
/// mem.write(PhysAddr::new(0x100), b"hello")?;
/// assert_eq!(mem.read_vec(PhysAddr::new(0x100), 5)?, b"hello");
/// # Ok::<(), shrimp_mem::MemError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhysMemory {
    bytes: Vec<u8>,
}

impl PhysMemory {
    /// Installs `size` bytes of zeroed memory, reusing the storage of a
    /// memory of the same size dropped earlier on this thread.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not page-aligned.
    pub fn new(size: u64) -> Self {
        assert_eq!(size % PAGE_SIZE, 0, "memory size must be page-aligned");
        let len = size as usize;
        let bytes = match SPARE.with_borrow_mut(|spare| spare.pop_if(|b| b.len() == len)) {
            Some(mut bytes) => {
                bytes.fill(0);
                bytes
            }
            None => vec![0; len],
        };
        PhysMemory { bytes }
    }

    /// Installed bytes.
    pub fn size(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Number of page frames.
    pub fn frame_count(&self) -> u64 {
        self.size() / PAGE_SIZE
    }

    fn check(&self, pa: PhysAddr, len: u64) -> Result<(usize, usize), MemError> {
        let start = pa.raw();
        let end = start
            .checked_add(len)
            .filter(|&e| e <= self.size())
            .ok_or(MemError::OutOfRange { addr: start, len })?;
        Ok((start as usize, end as usize))
    }

    /// Borrows `len` bytes starting at `pa`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if the range exceeds installed memory.
    pub fn read(&self, pa: PhysAddr, len: u64) -> Result<&[u8], MemError> {
        let (s, e) = self.check(pa, len)?;
        Ok(&self.bytes[s..e])
    }

    /// Copies `len` bytes starting at `pa` into a fresh `Vec`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if the range exceeds installed memory.
    pub fn read_vec(&self, pa: PhysAddr, len: u64) -> Result<Vec<u8>, MemError> {
        self.read(pa, len).map(<[u8]>::to_vec)
    }

    /// Mutably borrows `len` bytes starting at `pa` — the destination side
    /// of a device→memory DMA retirement, filled in place so no
    /// intermediate buffer is ever materialized.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if the range exceeds installed memory.
    pub fn slice_mut(&mut self, pa: PhysAddr, len: u64) -> Result<&mut [u8], MemError> {
        let (s, e) = self.check(pa, len)?;
        Ok(&mut self.bytes[s..e])
    }

    /// Writes `data` starting at `pa`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if the range exceeds installed memory.
    pub fn write(&mut self, pa: PhysAddr, data: &[u8]) -> Result<(), MemError> {
        let (s, e) = self.check(pa, data.len() as u64)?;
        self.bytes[s..e].copy_from_slice(data);
        Ok(())
    }

    /// Copies `len` bytes from `src` in `src_mem` to `dst` here — the
    /// slice-to-slice path for memory↔memory movement between two nodes
    /// (e.g. packet delivery), with no intermediate `Vec`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if either range exceeds its memory.
    pub fn copy_from_mem(
        &mut self,
        dst: PhysAddr,
        src_mem: &PhysMemory,
        src: PhysAddr,
        len: u64,
    ) -> Result<(), MemError> {
        let (ss, se) = src_mem.check(src, len)?;
        let (ds, de) = self.check(dst, len)?;
        self.bytes[ds..de].copy_from_slice(&src_mem.bytes[ss..se]);
        Ok(())
    }

    /// Copies `len` bytes from `src` to `dst` within this memory (ranges
    /// may overlap) — the kernel bounce-buffer copy, done in place.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if either range exceeds installed memory.
    pub fn copy_within(&mut self, src: PhysAddr, dst: PhysAddr, len: u64) -> Result<(), MemError> {
        let (ss, _) = self.check(src, len)?;
        let (ds, _) = self.check(dst, len)?;
        self.bytes.copy_within(ss..ss + len as usize, ds);
        Ok(())
    }

    /// Fills `len` bytes at `pa` with `value`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if the range exceeds installed memory.
    pub fn fill(&mut self, pa: PhysAddr, len: u64, value: u8) -> Result<(), MemError> {
        let (s, e) = self.check(pa, len)?;
        self.bytes[s..e].fill(value);
        Ok(())
    }

    /// Reads a little-endian `u64` at `pa`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if the range exceeds installed memory.
    pub fn read_u64(&self, pa: PhysAddr) -> Result<u64, MemError> {
        let b = self.read(pa, 8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("read returned 8 bytes")))
    }

    /// Writes a little-endian `u64` at `pa`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if the range exceeds installed memory.
    pub fn write_u64(&mut self, pa: PhysAddr, v: u64) -> Result<(), MemError> {
        self.write(pa, &v.to_le_bytes())
    }

    /// Borrows a whole page frame.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if the frame exceeds installed memory.
    pub fn frame(&self, pfn: Pfn) -> Result<&[u8], MemError> {
        self.read(pfn.base(), PAGE_SIZE)
    }

    /// Overwrites a whole page frame.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if the frame exceeds installed memory, and
    /// panics if `data` is not exactly one page.
    pub fn write_frame(&mut self, pfn: Pfn, data: &[u8]) -> Result<(), MemError> {
        assert_eq!(data.len() as u64, PAGE_SIZE, "frame write must be one page");
        self.write(pfn.base(), data)
    }
}

impl Drop for PhysMemory {
    /// Keeps the storage for the next memory of the same size built on
    /// this thread; spares of another size are freed.
    fn drop(&mut self) {
        let bytes = std::mem::take(&mut self.bytes);
        // During thread teardown the spares may already be gone: the
        // storage is then simply freed.
        let _ = SPARE.try_with(|spare| {
            if let Ok(mut spare) = spare.try_borrow_mut() {
                if spare.last().is_some_and(|b| b.len() != bytes.len()) {
                    spare.clear();
                }
                spare.push(bytes);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut m = PhysMemory::new(2 * PAGE_SIZE);
        m.write(PhysAddr::new(10), &[1, 2, 3]).unwrap();
        assert_eq!(m.read_vec(PhysAddr::new(10), 3).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn zero_initialized() {
        let m = PhysMemory::new(PAGE_SIZE);
        assert!(m.read(PhysAddr::new(0), PAGE_SIZE).unwrap().iter().all(|&b| b == 0));
    }

    #[test]
    fn a_dropped_memory_backs_the_next_of_its_size_zeroed() {
        let mut old = PhysMemory::new(2 * PAGE_SIZE);
        old.fill(PhysAddr::new(0), 2 * PAGE_SIZE, 0xa5).unwrap();
        let storage = old.read(PhysAddr::new(0), 1).unwrap().as_ptr();
        drop(old);
        let other = PhysMemory::new(PAGE_SIZE);
        let new = PhysMemory::new(2 * PAGE_SIZE);
        assert_eq!(new.read(PhysAddr::new(0), 1).unwrap().as_ptr(), storage);
        assert!(new.read(PhysAddr::new(0), 2 * PAGE_SIZE).unwrap().iter().all(|&b| b == 0));
        assert_eq!(other.size(), PAGE_SIZE);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut m = PhysMemory::new(PAGE_SIZE);
        assert_eq!(
            m.read(PhysAddr::new(PAGE_SIZE - 1), 2),
            Err(MemError::OutOfRange { addr: PAGE_SIZE - 1, len: 2 })
        );
        assert!(m.write(PhysAddr::new(PAGE_SIZE), &[0]).is_err());
        // Overflowing ranges are rejected, not wrapped.
        assert!(m.read(PhysAddr::new(u64::MAX), 2).is_err());
    }

    #[test]
    fn u64_accessors() {
        let mut m = PhysMemory::new(PAGE_SIZE);
        m.write_u64(PhysAddr::new(16), 0xdead_beef_0bad_cafe).unwrap();
        assert_eq!(m.read_u64(PhysAddr::new(16)).unwrap(), 0xdead_beef_0bad_cafe);
    }

    #[test]
    fn frame_accessors() {
        let mut m = PhysMemory::new(4 * PAGE_SIZE);
        let page = vec![7u8; PAGE_SIZE as usize];
        m.write_frame(Pfn::new(2), &page).unwrap();
        assert_eq!(m.frame(Pfn::new(2)).unwrap(), &page[..]);
        assert_eq!(m.frame(Pfn::new(1)).unwrap()[0], 0);
    }

    #[test]
    fn fill_region() {
        let mut m = PhysMemory::new(PAGE_SIZE);
        m.fill(PhysAddr::new(8), 4, 0xaa).unwrap();
        assert_eq!(m.read_vec(PhysAddr::new(7), 6).unwrap(), vec![0, 0xaa, 0xaa, 0xaa, 0xaa, 0]);
    }

    #[test]
    fn slice_mut_fills_in_place() {
        let mut m = PhysMemory::new(PAGE_SIZE);
        m.slice_mut(PhysAddr::new(4), 3).unwrap().copy_from_slice(&[1, 2, 3]);
        assert_eq!(m.read_vec(PhysAddr::new(4), 3).unwrap(), vec![1, 2, 3]);
        assert!(m.slice_mut(PhysAddr::new(PAGE_SIZE - 1), 2).is_err());
    }

    #[test]
    fn copy_from_mem_moves_between_nodes() {
        let mut a = PhysMemory::new(PAGE_SIZE);
        let mut b = PhysMemory::new(PAGE_SIZE);
        a.write(PhysAddr::new(0x40), b"inter-node").unwrap();
        b.copy_from_mem(PhysAddr::new(0x80), &a, PhysAddr::new(0x40), 10).unwrap();
        assert_eq!(b.read(PhysAddr::new(0x80), 10).unwrap(), b"inter-node");
        assert!(b.copy_from_mem(PhysAddr::new(0), &a, PhysAddr::new(PAGE_SIZE), 1).is_err());
        assert!(b.copy_from_mem(PhysAddr::new(PAGE_SIZE), &a, PhysAddr::new(0), 1).is_err());
    }

    #[test]
    fn copy_within_allows_overlap() {
        let mut m = PhysMemory::new(PAGE_SIZE);
        m.write(PhysAddr::new(0), &[1, 2, 3, 4]).unwrap();
        m.copy_within(PhysAddr::new(0), PhysAddr::new(2), 4).unwrap();
        assert_eq!(m.read_vec(PhysAddr::new(0), 6).unwrap(), vec![1, 2, 1, 2, 3, 4]);
        assert!(m.copy_within(PhysAddr::new(PAGE_SIZE - 1), PhysAddr::new(0), 2).is_err());
    }

    #[test]
    fn frame_count() {
        assert_eq!(PhysMemory::new(8 * PAGE_SIZE).frame_count(), 8);
    }

    #[test]
    #[should_panic(expected = "page-aligned")]
    fn unaligned_size_rejected() {
        let _ = PhysMemory::new(100);
    }
}
