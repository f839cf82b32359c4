//! Virtual memory: page tables, permissions, and address translation.
//!
//! Each guest process owns an [`AddressSpace`] identified by an [`Asid`] —
//! the moral equivalent of a page-table root. The FAROS paper uses the CR3
//! value as the *process tag* because it "uniquely identifies a process at
//! the architecture level" (§V-A); in this reproduction the `Asid` plays that
//! role and is exposed to plugins as the CR3 of the running CPU.
//!
//! The kernel half of every address space (addresses at or above
//! [`KERNEL_BASE`]) is shared: kernel pages — including the export-table
//! region FAROS taints — are mapped identically into every process, matching
//! the Windows 2 GiB/2 GiB split the paper's flagged addresses (e.g.
//! `0x83B07019`) come from.

use crate::mem::page_number;
use std::collections::BTreeMap;
use std::fmt;

/// First virtual address of the shared kernel half of every address space.
pub const KERNEL_BASE: u32 = 0x8000_0000;

/// Address-space identifier; architecturally visible as `CR3`.
///
/// # Examples
///
/// ```
/// use faros_emu::mmu::Asid;
/// let cr3 = Asid(0x3000);
/// assert_eq!(format!("{cr3}"), "cr3:0x00003000");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
)]
pub struct Asid(pub u32);

impl fmt::Display for Asid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cr3:{:#010x}", self.0)
    }
}

/// Page permissions.
///
/// A set-of-flags type in the C-BITFLAG spirit, implemented in-house to keep
/// the dependency footprint at the approved list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Perms(u8);

impl Perms {
    /// No access.
    pub const NONE: Perms = Perms(0);
    /// Readable.
    pub const R: Perms = Perms(1);
    /// Writable.
    pub const W: Perms = Perms(2);
    /// Executable.
    pub const X: Perms = Perms(4);
    /// Read + write.
    pub const RW: Perms = Perms(1 | 2);
    /// Read + execute.
    pub const RX: Perms = Perms(1 | 4);
    /// Read + write + execute — what malfind-style scanners hunt for.
    pub const RWX: Perms = Perms(1 | 2 | 4);

    /// The permissions in the low three bits of `bits` (R = 1, W = 2,
    /// X = 4, the encoding of the syscall ABI and the FDL section header);
    /// higher bits are ignored.
    ///
    /// ```
    /// use faros_emu::mmu::Perms;
    /// assert_eq!(Perms::from_bits(0x45), Perms::RX);
    /// assert_eq!(Perms::RWX.bits(), 7);
    /// ```
    #[inline]
    pub fn from_bits(bits: u32) -> Perms {
        Perms((bits & 7) as u8)
    }

    /// The encoding [`Perms::from_bits`] reads.
    #[inline]
    pub const fn bits(self) -> u32 {
        self.0 as u32
    }

    /// Returns `true` if every permission in `other` is present in `self`.
    #[inline]
    pub fn contains(self, other: Perms) -> bool {
        self.0 & other.0 == other.0
    }

    /// The union of two permission sets.
    #[inline]
    pub fn union(self, other: Perms) -> Perms {
        Perms(self.0 | other.0)
    }

    /// Returns `true` if the pages are writable and executable at once.
    #[inline]
    pub fn is_wx(self) -> bool {
        self.contains(Perms::W) && self.contains(Perms::X)
    }
}

impl fmt::Display for Perms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}",
            if self.contains(Perms::R) { 'r' } else { '-' },
            if self.contains(Perms::W) { 'w' } else { '-' },
            if self.contains(Perms::X) { 'x' } else { '-' },
        )
    }
}

/// The kind of access being attempted, for permission checks and faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Exec,
}

impl Access {
    fn required(self) -> Perms {
        match self {
            Access::Read => Perms::R,
            Access::Write => Perms::W,
            Access::Exec => Perms::X,
        }
    }
}

/// A translation fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fault {
    /// The page containing `vaddr` is not mapped.
    NotMapped {
        /// Faulting virtual address.
        vaddr: u32,
    },
    /// The page is mapped but does not permit the attempted access.
    Protection {
        /// Faulting virtual address.
        vaddr: u32,
        /// The attempted access kind.
        access: Access,
    },
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::NotMapped { vaddr } => write!(f, "page fault: {vaddr:#010x} not mapped"),
            Fault::Protection { vaddr, access } => {
                write!(f, "protection fault: {access:?} at {vaddr:#010x}")
            }
        }
    }
}

impl std::error::Error for Fault {}

/// One page-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageEntry {
    /// Physical frame number backing the page.
    pub pfn: u32,
    /// Permissions of the page.
    pub perms: Perms,
}

/// A per-process page table mapping virtual pages to physical frames.
///
/// Stored as a `BTreeMap` so iteration (snapshots, region scans) is in
/// address order and fully deterministic.
///
/// # Examples
///
/// ```
/// use faros_emu::mmu::{Access, AddressSpace, Asid, Perms};
///
/// let mut aspace = AddressSpace::new(Asid(0x1000));
/// aspace.map(0x0040_0000, 7, Perms::RX);
/// let phys = aspace.translate(0x0040_0010, Access::Read).unwrap();
/// assert_eq!(phys, 7 * 4096 + 0x10);
/// assert!(aspace.translate(0x0040_0010, Access::Write).is_err());
/// ```
#[derive(Debug, Clone)]
pub struct AddressSpace {
    asid: Asid,
    table: BTreeMap<u32, PageEntry>,
}

impl AddressSpace {
    /// Creates an empty address space with the given identifier.
    pub fn new(asid: Asid) -> AddressSpace {
        AddressSpace { asid, table: BTreeMap::new() }
    }

    /// The address-space identifier (the CR3 value).
    pub fn asid(&self) -> Asid {
        self.asid
    }

    /// Maps the page containing `vaddr` to physical frame `pfn`.
    ///
    /// Replaces any existing mapping for that page and returns it.
    pub fn map(&mut self, vaddr: u32, pfn: u32, perms: Perms) -> Option<PageEntry> {
        self.table.insert(page_number(vaddr), PageEntry { pfn, perms })
    }

    /// Removes the mapping for the page containing `vaddr`, returning it.
    pub fn unmap(&mut self, vaddr: u32) -> Option<PageEntry> {
        self.table.remove(&page_number(vaddr))
    }

    /// Changes the permissions of the page containing `vaddr`.
    ///
    /// Returns the previous permissions, or `None` if the page is unmapped.
    pub fn protect(&mut self, vaddr: u32, perms: Perms) -> Option<Perms> {
        self.table.get_mut(&page_number(vaddr)).map(|e| {
            let old = e.perms;
            e.perms = perms;
            old
        })
    }

    /// Looks up the entry for the page containing `vaddr`.
    pub fn entry(&self, vaddr: u32) -> Option<PageEntry> {
        self.table.get(&page_number(vaddr)).copied()
    }

    /// Translates a virtual address, checking permissions.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::NotMapped`] for an unmapped page and
    /// [`Fault::Protection`] when the mapping forbids `access`.
    #[inline]
    pub fn translate(&self, vaddr: u32, access: Access) -> Result<u32, Fault> {
        let entry = self
            .table
            .get(&page_number(vaddr))
            .ok_or(Fault::NotMapped { vaddr })?;
        if !entry.perms.contains(access.required()) {
            return Err(Fault::Protection { vaddr, access });
        }
        Ok(entry.pfn * crate::mem::PAGE_SIZE + (vaddr & crate::mem::PAGE_MASK))
    }

    /// Iterates over `(virtual_page_number, entry)` pairs in address order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, PageEntry)> + '_ {
        self.table.iter().map(|(&vpn, &e)| (vpn, e))
    }

    /// Like [`AddressSpace::iter`], over the mapped pages that hold a byte
    /// of `[first, last]`.
    pub fn pages_in(&self, first: u32, last: u32) -> impl Iterator<Item = (u32, PageEntry)> + '_ {
        self.table.range(page_number(first)..=page_number(last)).map(|(&vpn, &e)| (vpn, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::PAGE_SIZE;

    #[test]
    fn translate_applies_offset() {
        let mut a = AddressSpace::new(Asid(1));
        a.map(0x1000, 5, Perms::RW);
        assert_eq!(a.translate(0x1abc, Access::Read).unwrap(), 5 * PAGE_SIZE + 0xabc);
    }

    #[test]
    fn unmapped_page_faults() {
        let a = AddressSpace::new(Asid(1));
        assert_eq!(
            a.translate(0x2000, Access::Read),
            Err(Fault::NotMapped { vaddr: 0x2000 })
        );
    }

    #[test]
    fn protection_enforced_per_access_kind() {
        let mut a = AddressSpace::new(Asid(1));
        a.map(0x1000, 0, Perms::RX);
        assert!(a.translate(0x1000, Access::Read).is_ok());
        assert!(a.translate(0x1000, Access::Exec).is_ok());
        assert_eq!(
            a.translate(0x1000, Access::Write),
            Err(Fault::Protection { vaddr: 0x1000, access: Access::Write })
        );
    }

    #[test]
    fn protect_changes_permissions() {
        let mut a = AddressSpace::new(Asid(1));
        a.map(0x1000, 0, Perms::RW);
        assert_eq!(a.protect(0x1000, Perms::RX), Some(Perms::RW));
        assert!(a.translate(0x1000, Access::Write).is_err());
        assert!(a.translate(0x1000, Access::Exec).is_ok());
        assert_eq!(a.protect(0x9000, Perms::R), None);
    }

    #[test]
    fn unmap_removes_mapping() {
        let mut a = AddressSpace::new(Asid(1));
        a.map(0x1000, 3, Perms::RWX);
        assert!(a.unmap(0x1000).is_some());
        assert!(a.translate(0x1000, Access::Read).is_err());
        assert!(a.unmap(0x1000).is_none());
    }

    #[test]
    fn perms_algebra() {
        assert!(Perms::RWX.contains(Perms::RW));
        assert!(!Perms::RX.contains(Perms::W));
        assert_eq!(Perms::R.union(Perms::W), Perms::RW);
        assert!(Perms::RWX.is_wx());
        assert!(!Perms::RX.is_wx());
        assert_eq!(Perms::RWX.to_string(), "rwx");
        assert_eq!(Perms::RX.to_string(), "r-x");
        assert_eq!(Perms::NONE.to_string(), "---");
    }
}
