//! Guest physical memory and the frame allocator.
//!
//! All guest bytes — kernel images, process code, heaps, stacks — live in one
//! flat [`PhysMem`]. Shadow (taint) state in the `faros-taint` crate is keyed
//! by *physical* address, exactly like PANDA's taint2: that is what lets tags
//! follow bytes across address spaces, which in turn is what makes
//! cross-process injection visible to FAROS at all.
//!
//! `PhysMem` is also where self-modifying code is detected: every guest
//! physical byte is written through [`PhysMem::write`] or
//! [`PhysMem::write_u8`], whether by a guest store or by the kernel on a
//! syscall's behalf (`NtWriteVirtualMemory`, `NtReadFile`, the loader). The
//! translation cache marks each frame it decodes from
//! (`PhysMem::watch_code_frame`); a write into a marked frame raises
//! `PhysMem::code_written`, and the cache drops its blocks before it runs
//! another instruction.

use std::fmt;

/// Size of a guest page/frame in bytes.
pub const PAGE_SIZE: u32 = 4096;

/// Mask selecting the offset-within-page bits of an address.
pub const PAGE_MASK: u32 = PAGE_SIZE - 1;

/// Returns the page/frame number containing `addr`.
#[inline]
pub fn page_number(addr: u32) -> u32 {
    addr >> 12
}

/// Returns the byte offset of `addr` within its page.
#[inline]
pub fn page_offset(addr: u32) -> u32 {
    addr & PAGE_MASK
}

/// Error returned when physical memory is exhausted or an access is out of
/// range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// No free frames remain.
    OutOfFrames,
    /// A physical access fell outside the installed memory.
    OutOfRange {
        /// The offending physical address.
        addr: u32,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfFrames => write!(f, "physical memory exhausted"),
            MemError::OutOfRange { addr } => {
                write!(f, "physical address {addr:#010x} out of range")
            }
        }
    }
}

impl std::error::Error for MemError {}

/// Flat guest physical memory with a simple frame allocator.
///
/// Frames are *committed lazily*: construction reserves address space for
/// the whole configured RAM but materializes (and zeroes) host memory one
/// frame at a time, as frames are allocated or first written. A machine
/// that touches 2 MiB of a 16 MiB guest costs 2 MiB — this is what keeps
/// per-replay setup cheap enough for the corpus-wide gates, which build
/// hundreds of machines back to back. Reads of in-range frames that were
/// never touched still see zeroes, exactly as if the whole array had been
/// zero-initialized up front.
///
/// # Examples
///
/// ```
/// use faros_emu::mem::{PhysMem, PAGE_SIZE};
///
/// let mut mem = PhysMem::new(16);
/// let frame = mem.alloc_frame().unwrap();
/// let base = frame * PAGE_SIZE;
/// mem.write(base, b"hello").unwrap();
/// let mut buf = [0u8; 5];
/// mem.read(base, &mut buf).unwrap();
/// assert_eq!(&buf, b"hello");
/// ```
#[derive(Debug, Clone)]
pub struct PhysMem {
    /// Committed prefix of physical memory; grows frame-aligned up to
    /// `total_frames * PAGE_SIZE`.
    data: Vec<u8>,
    total_frames: u32,
    next_frame: u32,
    free_list: Vec<u32>,
    /// `code_frames[pfn]` is set while decoded code from frame `pfn` is
    /// cached.
    code_frames: Vec<bool>,
    /// Set by any write into a watched frame since the last
    /// `PhysMem::clear_code_watch`.
    code_written: bool,
}

impl PhysMem {
    /// Creates a physical memory of `frames` pages, zero-initialized.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is zero or the total size would overflow `u32`.
    pub fn new(frames: u32) -> PhysMem {
        assert!(frames > 0, "physical memory must have at least one frame");
        let bytes = (frames as u64) * (PAGE_SIZE as u64);
        assert!(bytes <= u32::MAX as u64 + 1, "physical memory too large for a 32-bit guest");
        PhysMem {
            data: Vec::with_capacity(bytes as usize),
            total_frames: frames,
            next_frame: 0,
            free_list: Vec::new(),
            code_frames: Vec::new(),
            code_written: false,
        }
    }

    /// Total number of frames installed.
    pub fn total_frames(&self) -> u32 {
        self.total_frames
    }

    /// Total installed bytes (frame count times page size).
    #[inline]
    fn total_bytes(&self) -> usize {
        self.total_frames as usize * PAGE_SIZE as usize
    }

    /// Commits (zero-fills) frames so the committed prefix covers `end`
    /// bytes, rounded up to a frame boundary. Cold: each frame is committed
    /// at most once per lifetime.
    #[cold]
    fn commit_to(&mut self, end: usize) {
        let aligned = end
            .checked_add(PAGE_SIZE as usize - 1)
            .expect("commit bound overflows usize")
            & !(PAGE_SIZE as usize - 1);
        let new_len = aligned.min(self.total_bytes());
        if new_len > self.data.len() {
            self.data.resize(new_len, 0);
        }
    }

    /// Number of frames still allocatable.
    pub fn free_frames(&self) -> u32 {
        self.total_frames() - self.next_frame + self.free_list.len() as u32
    }

    /// Allocates a zeroed frame and returns its frame number.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfFrames`] when memory is exhausted.
    pub fn alloc_frame(&mut self) -> Result<u32, MemError> {
        if let Some(pfn) = self.free_list.pop() {
            let base = (pfn * PAGE_SIZE) as usize;
            self.data[base..base + PAGE_SIZE as usize].fill(0);
            return Ok(pfn);
        }
        if self.next_frame < self.total_frames() {
            let pfn = self.next_frame;
            self.next_frame += 1;
            let end = (pfn as usize + 1) * PAGE_SIZE as usize;
            if end > self.data.len() {
                self.commit_to(end);
            }
            Ok(pfn)
        } else {
            Err(MemError::OutOfFrames)
        }
    }

    /// Returns a frame to the allocator.
    ///
    /// The frame's contents are zeroed on the next allocation, not here, so a
    /// forensic snapshot taken after a free still sees stale bytes — the same
    /// property malfind-style tools depend on (and transient attacks defeat
    /// by wiping memory *before* exiting).
    pub fn free_frame(&mut self, pfn: u32) {
        debug_assert!(pfn < self.total_frames());
        self.free_list.push(pfn);
    }

    /// Reads bytes at a physical address into `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfRange`] if the range exceeds installed memory.
    pub fn read(&self, addr: u32, buf: &mut [u8]) -> Result<(), MemError> {
        let start = addr as usize;
        let end = start.checked_add(buf.len()).ok_or(MemError::OutOfRange { addr })?;
        if let Some(src) = self.data.get(start..end) {
            buf.copy_from_slice(src);
            return Ok(());
        }
        if end > self.total_bytes() {
            return Err(MemError::OutOfRange { addr });
        }
        // Uncommitted (never-touched) frames read as zeroes; copy whatever
        // committed prefix overlaps the request and zero the rest.
        let committed = self.data.len().saturating_sub(start).min(buf.len());
        if committed > 0 {
            buf[..committed].copy_from_slice(&self.data[start..start + committed]);
        }
        buf[committed..].fill(0);
        Ok(())
    }

    /// Writes `bytes` at a physical address.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfRange`] if the range exceeds installed memory.
    pub fn write(&mut self, addr: u32, bytes: &[u8]) -> Result<(), MemError> {
        let start = addr as usize;
        let end = start.checked_add(bytes.len()).ok_or(MemError::OutOfRange { addr })?;
        if end > self.data.len() {
            if end > self.total_bytes() {
                return Err(MemError::OutOfRange { addr });
            }
            self.commit_to(end);
        }
        self.data[start..end].copy_from_slice(bytes);
        if !bytes.is_empty() {
            let (first, last) = (start >> 12, (end - 1) >> 12);
            let mut frames = self.code_frames.iter().skip(first).take(last - first + 1);
            self.code_written |= frames.any(|&watched| watched);
        }
        Ok(())
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfRange`] if `addr` exceeds installed memory.
    #[inline]
    pub fn read_u8(&self, addr: u32) -> Result<u8, MemError> {
        match self.data.get(addr as usize) {
            Some(b) => Ok(*b),
            None if (addr as usize) < self.total_bytes() => Ok(0),
            None => Err(MemError::OutOfRange { addr }),
        }
    }

    /// Writes one byte.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfRange`] if `addr` exceeds installed memory.
    #[inline]
    pub fn write_u8(&mut self, addr: u32, val: u8) -> Result<(), MemError> {
        let i = addr as usize;
        if i >= self.data.len() {
            if i >= self.total_bytes() {
                return Err(MemError::OutOfRange { addr });
            }
            self.commit_to(i + 1);
        }
        self.data[i] = val;
        if self.code_frames.get(i >> 12) == Some(&true) {
            self.code_written = true;
        }
        Ok(())
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfRange`] if the range exceeds installed memory.
    pub fn read_u32(&self, addr: u32) -> Result<u32, MemError> {
        let mut b = [0u8; 4];
        self.read(addr, &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Writes a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfRange`] if the range exceeds installed memory.
    pub fn write_u32(&mut self, addr: u32, val: u32) -> Result<(), MemError> {
        self.write(addr, &val.to_le_bytes())
    }

    /// Marks frame `pfn` as holding decoded code: from now on a write into
    /// it raises `PhysMem::code_written`.
    pub(crate) fn watch_code_frame(&mut self, pfn: u32) {
        let i = pfn as usize;
        if self.code_frames.len() <= i {
            self.code_frames.resize(i + 1, false);
        }
        self.code_frames[i] = true;
    }

    /// Whether a write touched a watched frame since the last
    /// `PhysMem::clear_code_watch`.
    #[inline]
    pub(crate) fn code_written(&self) -> bool {
        self.code_written
    }

    /// Unwatches every frame and lowers `PhysMem::code_written`. Returns
    /// whether any frame was watched. Only `TransCache::invalidate_all`
    /// may call it, as it drops every block in the same step: a frame
    /// unwatched while its blocks stay cached would let stale code run.
    pub(crate) fn clear_code_watch(&mut self) -> bool {
        let watched = !self.code_frames.is_empty();
        self.code_frames.clear();
        self.code_written = false;
        watched
    }

    /// Borrows a physical byte range (used by snapshot scanners and the
    /// instruction-fetch path).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfRange`] if the range exceeds installed
    /// memory, or if it extends past the committed prefix — i.e. into
    /// frames never allocated or written. Every mapped guest page is
    /// committed (allocation commits its frame), so translated addresses
    /// never hit the latter case; for raw probes of untouched memory use
    /// [`PhysMem::read`], which serves the zeroes without a borrow.
    pub fn slice(&self, addr: u32, len: usize) -> Result<&[u8], MemError> {
        let start = addr as usize;
        let end = start.checked_add(len).ok_or(MemError::OutOfRange { addr })?;
        self.data.get(start..end).ok_or(MemError::OutOfRange { addr })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_until_exhaustion() {
        let mut mem = PhysMem::new(4);
        assert_eq!(mem.free_frames(), 4);
        let frames: Vec<u32> = (0..4).map(|_| mem.alloc_frame().unwrap()).collect();
        assert_eq!(frames, vec![0, 1, 2, 3]);
        assert_eq!(mem.alloc_frame(), Err(MemError::OutOfFrames));
        mem.free_frame(2);
        assert_eq!(mem.free_frames(), 1);
        assert_eq!(mem.alloc_frame().unwrap(), 2);
    }

    #[test]
    fn freed_frame_is_zeroed_on_realloc_not_on_free() {
        let mut mem = PhysMem::new(2);
        let f = mem.alloc_frame().unwrap();
        let base = f * PAGE_SIZE;
        mem.write(base, b"secret").unwrap();
        mem.free_frame(f);
        // Stale bytes visible post-free (forensics relies on this).
        assert_eq!(mem.slice(base, 6).unwrap(), b"secret");
        let f2 = mem.alloc_frame().unwrap();
        assert_eq!(f2, f);
        assert_eq!(mem.slice(base, 6).unwrap(), &[0u8; 6]);
    }

    #[test]
    fn read_write_round_trip() {
        let mut mem = PhysMem::new(2);
        mem.write_u32(100, 0xdead_beef).unwrap();
        assert_eq!(mem.read_u32(100).unwrap(), 0xdead_beef);
        assert_eq!(mem.read_u8(100).unwrap(), 0xef, "little-endian layout");
        mem.write_u8(103, 0x00).unwrap();
        assert_eq!(mem.read_u32(100).unwrap(), 0x00ad_beef);
    }

    #[test]
    fn out_of_range_is_an_error() {
        let mut mem = PhysMem::new(1);
        assert!(mem.read_u8(PAGE_SIZE).is_err());
        assert!(mem.write_u8(PAGE_SIZE, 0).is_err());
        let mut buf = [0u8; 8];
        assert!(mem.read(PAGE_SIZE - 4, &mut buf).is_err());
        assert!(mem.write(PAGE_SIZE - 4, &buf).is_err());
        assert!(mem.read_u32(u32::MAX).is_err());
    }

    #[test]
    fn lazy_commit_is_invisible_to_readers() {
        let mut mem = PhysMem::new(8);
        // Nothing committed yet: in-range reads still see the documented
        // zero-initialized contents.
        assert_eq!(mem.read_u8(5 * PAGE_SIZE).unwrap(), 0);
        assert_eq!(mem.read_u32(7 * PAGE_SIZE + 42).unwrap(), 0);
        let mut buf = [0xaa; 16];
        mem.read(3 * PAGE_SIZE - 8, &mut buf).unwrap();
        assert_eq!(buf, [0; 16], "uncommitted frames read as zeroes");
        // A raw write commits its frame; the rest of the frame reads zero
        // and the bytes round-trip.
        mem.write(6 * PAGE_SIZE + 100, b"deep").unwrap();
        assert_eq!(mem.slice(6 * PAGE_SIZE + 100, 4).unwrap(), b"deep");
        assert_eq!(mem.read_u8(6 * PAGE_SIZE + 99).unwrap(), 0);
        // A read spanning the committed boundary splices committed bytes
        // with zeroes.
        let mut span = [0xbb; 8];
        mem.write(7 * PAGE_SIZE - 4, &[1, 2, 3, 4]).unwrap();
        mem.read(7 * PAGE_SIZE - 4, &mut span).unwrap();
        assert_eq!(span, [1, 2, 3, 4, 0, 0, 0, 0]);
        // Allocation still hands out zeroed frames in order.
        assert_eq!(mem.alloc_frame().unwrap(), 0);
        assert_eq!(mem.free_frames(), 7);
    }

    #[test]
    fn writes_into_watched_frames_raise_code_written() {
        let mut mem = PhysMem::new(4);
        mem.watch_code_frame(1);
        // Writes outside the watched frame leave the flag down.
        mem.write(0, &[1; 16]).unwrap();
        mem.write_u8(2 * PAGE_SIZE, 1).unwrap();
        mem.write(PAGE_SIZE, &[]).unwrap();
        assert!(!mem.code_written());
        // A run straddling into the watched frame raises it.
        mem.write(PAGE_SIZE - 2, &[7; 4]).unwrap();
        assert!(mem.code_written());
        assert!(mem.clear_code_watch());
        assert!(!mem.code_written());
        // Clearing unwatches the frame too.
        mem.write_u8(PAGE_SIZE + 5, 9).unwrap();
        assert!(!mem.code_written());
        assert!(!mem.clear_code_watch());
        mem.watch_code_frame(1);
        mem.write_u8(PAGE_SIZE + 5, 9).unwrap();
        assert!(mem.code_written());
    }

    #[test]
    fn page_arithmetic() {
        assert_eq!(page_number(0), 0);
        assert_eq!(page_number(4095), 0);
        assert_eq!(page_number(4096), 1);
        assert_eq!(page_offset(4097), 1);
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_frames_rejected() {
        let _ = PhysMem::new(0);
    }
}
