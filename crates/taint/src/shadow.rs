//! Shadow memory and the shadow register bank (paper §V-A).
//!
//! Every guest *physical* byte and every CPU register byte has a shadow cell
//! holding a [`ListId`] — the interned provenance list of that byte. Keying
//! by physical address (rather than virtual) is what lets a tag follow a
//! byte when it is written into another process's address space.
//!
//! Memory shadow is stored in the two-level [`PagedShadow`]
//! (see [`crate::paged`]): a page directory of lazily-allocated 4 Ki
//! [`ListId`] pages with exact occupancy counts, replacing the original
//! per-byte `HashMap` whose lookup cost dominated the replay hot path. The
//! register bank additionally keeps its own tainted-byte count, so
//! [`ShadowState::is_clean`] — the zero-taint fast-path predicate — is two
//! integer compares.

use crate::paged::PagedShadow;
use crate::provlist::ListId;

/// Number of register slots shadowed (generous upper bound; FE32 uses 8).
pub const SHADOW_REGS: usize = 16;

/// A byte-granular shadow address: one guest physical memory byte or one
/// register byte — the operands of the paper's Table I rules, "a byte in
/// memory or a register". The engine knows no emulator types; callers
/// translate their own operands into these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShadowAddr {
    /// A guest physical memory byte.
    Mem(u32),
    /// Byte `off` (0..4) of register `index`.
    Reg {
        /// Register-file index.
        index: u8,
        /// Byte offset within the register.
        off: u8,
    },
}

impl ShadowAddr {
    /// The shadow address `n` bytes after this one, or `None` when a
    /// register address would escape the register (offset past byte 3).
    /// Memory addresses always succeed (wrapping arithmetic). The engine's
    /// per-byte loops treat a `None` byte as absent.
    #[inline]
    pub fn checked_offset(self, n: u8) -> Option<ShadowAddr> {
        match self {
            ShadowAddr::Mem(a) => Some(ShadowAddr::Mem(a.wrapping_add(n as u32))),
            ShadowAddr::Reg { index, off } => {
                let new = (off as u32) + (n as u32);
                if new < 4 {
                    Some(ShadowAddr::Reg { index, off: new as u8 })
                } else {
                    None
                }
            }
        }
    }
}

/// The shadow state: paged shadow memory plus a dense register bank.
///
/// # Examples
///
/// ```
/// use faros_taint::provlist::ListId;
/// use faros_taint::shadow::{ShadowAddr, ShadowState};
///
/// let mut shadow = ShadowState::new();
/// assert_eq!(shadow.get(ShadowAddr::Mem(0x1000)), ListId::EMPTY);
/// assert!(shadow.is_clean());
/// ```
#[derive(Debug, Default)]
pub struct ShadowState {
    mem: PagedShadow,
    regs: [[ListId; 4]; SHADOW_REGS],
    /// Count of non-empty register shadow bytes, kept exact by `set` /
    /// `clear_regs` / `restore_regs`.
    reg_tainted: u32,
}

impl ShadowState {
    /// Creates an all-untainted shadow state.
    pub fn new() -> ShadowState {
        ShadowState::default()
    }

    /// Reads the provenance list id of a shadow byte.
    #[inline]
    pub fn get(&self, addr: ShadowAddr) -> ListId {
        match addr {
            ShadowAddr::Mem(a) => self.mem.get(a),
            ShadowAddr::Reg { index, off } => self.regs[index as usize][off as usize],
        }
    }

    /// Writes the provenance list id of a shadow byte. Writing
    /// [`ListId::EMPTY`] clears the cell; a fully-cleared memory page is
    /// freed (see [`PagedShadow::set`]).
    #[inline]
    pub fn set(&mut self, addr: ShadowAddr, id: ListId) {
        match addr {
            ShadowAddr::Mem(a) => self.mem.set(a, id),
            ShadowAddr::Reg { index, off } => {
                let cell = &mut self.regs[index as usize][off as usize];
                match (cell.is_empty(), id.is_empty()) {
                    (true, false) => self.reg_tainted += 1,
                    (false, true) => self.reg_tainted -= 1,
                    _ => {}
                }
                *cell = id;
            }
        }
    }

    /// Writes one [`ListId`] across `len` consecutive physical shadow
    /// bytes — the bulk form of [`ShadowState::set`] for memory ranges
    /// (see [`PagedShadow::fill_range`]). The caller must pre-clamp the
    /// range to the physical address space.
    #[inline]
    pub fn fill_mem_range(&mut self, phys: u32, len: usize, id: ListId) {
        self.mem.fill_range(phys, len, id);
    }

    /// Decomposes a physical byte range into maximal same-provenance runs
    /// (see [`PagedShadow::runs`]).
    #[inline]
    pub fn mem_runs(&self, phys: u32, len: usize) -> Vec<(u32, usize, ListId)> {
        self.mem.runs(phys, len)
    }

    /// Number of tainted memory bytes (exact, maintained incrementally).
    #[inline]
    pub fn tainted_mem_bytes(&self) -> usize {
        self.mem.tainted_bytes()
    }

    /// Number of tainted register shadow bytes.
    #[inline]
    pub fn tainted_reg_bytes(&self) -> usize {
        self.reg_tainted as usize
    }

    /// Returns `true` when *nothing* is tainted — no memory byte and no
    /// register byte. This is the zero-taint fast-path predicate: while it
    /// holds (e.g. before the first `label_fresh` of a replay), every
    /// `copy`/`union`/`delete` is a provable no-op.
    #[inline]
    pub fn is_clean(&self) -> bool {
        self.mem.is_clean() && self.reg_tainted == 0
    }

    /// Number of resident shadow-memory pages (diagnostics / benches).
    pub fn resident_pages(&self) -> usize {
        self.mem.resident_pages()
    }

    /// Iterates over tainted memory bytes as `(phys_addr, list)` pairs in
    /// ascending physical-address order.
    pub fn iter_mem(&self) -> impl Iterator<Item = (u32, ListId)> + '_ {
        self.mem.iter()
    }

    /// Clears all register shadows (e.g. on a context switch if per-thread
    /// register shadows are not preserved — our kernel *does* preserve them
    /// per thread, so this is only used by tests and resets).
    pub fn clear_regs(&mut self) {
        self.regs = [[ListId::EMPTY; 4]; SHADOW_REGS];
        self.reg_tainted = 0;
    }

    /// Takes a snapshot of the register shadow bank.
    pub fn save_regs(&self) -> [[ListId; 4]; SHADOW_REGS] {
        self.regs
    }

    /// Restores a register shadow bank snapshot.
    ///
    /// The kernel calls `save_regs`/`restore_regs` around context switches so
    /// each thread keeps its own register taint, mirroring how a real
    /// whole-system DIFT sees register state move to/from the KTRAP frame.
    pub fn restore_regs(&mut self, regs: [[ListId; 4]; SHADOW_REGS]) {
        self.regs = regs;
        self.reg_tainted =
            self.regs.iter().flatten().filter(|id| !id.is_empty()).count() as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lid(n: u32) -> ListId {
        ListId::from_raw(n)
    }

    #[test]
    fn default_is_untainted() {
        let s = ShadowState::new();
        assert_eq!(s.get(ShadowAddr::Mem(123)), ListId::EMPTY);
        assert_eq!(s.get(ShadowAddr::Reg { index: 3, off: 2 }), ListId::EMPTY);
        assert_eq!(s.tainted_mem_bytes(), 0);
        assert!(s.is_clean());
    }

    #[test]
    fn set_get_round_trip() {
        let mut s = ShadowState::new();
        s.set(ShadowAddr::Mem(0x40), lid(5));
        s.set(ShadowAddr::Reg { index: 0, off: 1 }, lid(7));
        assert_eq!(s.get(ShadowAddr::Mem(0x40)), lid(5));
        assert_eq!(s.get(ShadowAddr::Reg { index: 0, off: 1 }), lid(7));
        assert_eq!(s.get(ShadowAddr::Reg { index: 0, off: 0 }), ListId::EMPTY);
        assert_eq!(s.tainted_mem_bytes(), 1);
        assert_eq!(s.tainted_reg_bytes(), 1);
        assert!(!s.is_clean());
    }

    #[test]
    fn setting_empty_removes_entry() {
        let mut s = ShadowState::new();
        s.set(ShadowAddr::Mem(0x40), lid(5));
        s.set(ShadowAddr::Mem(0x40), ListId::EMPTY);
        assert_eq!(s.tainted_mem_bytes(), 0);
        assert!(s.is_clean());
        assert_eq!(s.resident_pages(), 0, "fully-cleared page is freed");
    }

    #[test]
    fn reg_checked_offset_reports_overflow() {
        // Regression for the clamp-aliasing bug: a saturating offset used to
        // collapse every out-of-range register offset onto byte 3, merging
        // distinct sub-register taint bytes. `checked_offset` reports the
        // overflow so the engine's per-byte loops treat the byte as absent.
        assert_eq!(
            ShadowAddr::Reg { index: 1, off: 2 }.checked_offset(1),
            Some(ShadowAddr::Reg { index: 1, off: 3 })
        );
        assert_eq!(ShadowAddr::Reg { index: 1, off: 2 }.checked_offset(2), None);
        assert_eq!(ShadowAddr::Reg { index: 1, off: 3 }.checked_offset(u8::MAX), None);
        assert_eq!(ShadowAddr::Mem(10).checked_offset(3), Some(ShadowAddr::Mem(13)));
        assert_eq!(ShadowAddr::Mem(u32::MAX).checked_offset(1), Some(ShadowAddr::Mem(0)));
    }

    #[test]
    fn reg_bank_save_restore() {
        let mut s = ShadowState::new();
        s.set(ShadowAddr::Reg { index: 1, off: 0 }, lid(9));
        let saved = s.save_regs();
        s.clear_regs();
        assert_eq!(s.get(ShadowAddr::Reg { index: 1, off: 0 }), ListId::EMPTY);
        assert!(s.is_clean());
        s.restore_regs(saved);
        assert_eq!(s.get(ShadowAddr::Reg { index: 1, off: 0 }), lid(9));
        assert_eq!(s.tainted_reg_bytes(), 1, "restore recounts the bank");
    }

    #[test]
    fn iter_mem_sees_all_entries_in_order() {
        let mut s = ShadowState::new();
        s.set(ShadowAddr::Mem(2), lid(2));
        s.set(ShadowAddr::Mem(1), lid(1));
        let got: Vec<(u32, ListId)> = s.iter_mem().collect();
        assert_eq!(got, vec![(1, lid(1)), (2, lid(2))]);
    }
}
