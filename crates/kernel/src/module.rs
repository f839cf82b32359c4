//! FDL — the guest executable/module format (the reproduction's PE).
//!
//! An FDL image has sections (code/data, with page permissions) and an
//! **export table**: an array of 32-byte entries, each holding a
//! zero-padded name, a djb2 name hash, and the exported function's virtual
//! address. The export table is materialized into guest memory at load time;
//! FAROS taints the four *function-pointer bytes* of every entry with the
//! export-table tag (paper §V-A: "FAROS scans all loaded modules and taints
//! the function pointers in the export tables").
//!
//! Reflective payloads resolve APIs exactly the way the paper describes the
//! Metasploit DLL doing it: walk the kernel module's export table comparing
//! name hashes, then read the function pointer — and it is that read the
//! FAROS invariant fires on.

use faros_emu::mmu::Perms;
use std::fmt;

/// Magic bytes at the start of every FDL image.
pub const FDL_MAGIC: [u8; 4] = *b"FDL1";

/// Size of one export-table entry in guest memory.
pub const EXPORT_ENTRY_SIZE: u32 = 32;

/// Offset of the name-hash field within an export entry.
pub const EXPORT_HASH_OFFSET: u32 = 24;

/// Offset of the function-pointer field within an export entry — the four
/// bytes FAROS taints.
pub const EXPORT_PTR_OFFSET: u32 = 28;

/// Maximum stored name length (zero-padded).
pub const EXPORT_NAME_LEN: usize = 24;

/// The djb2 hash used for export-name lookup (easy to compute from FE32
/// guest code: `h = h*33 + byte`).
pub fn hash_name(name: &str) -> u32 {
    let mut h: u32 = 5381;
    for &b in name.as_bytes() {
        h = h.wrapping_mul(33).wrapping_add(b as u32);
    }
    h
}

/// One exported symbol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Export {
    /// Symbol name (≤ 24 bytes).
    pub name: String,
    /// Virtual address of the function.
    pub va: u32,
}

impl Export {
    /// The symbol's djb2 hash.
    pub fn hash(&self) -> u32 {
        hash_name(&self.name)
    }
}

/// One loadable section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Virtual address the section maps at.
    pub va: u32,
    /// Raw bytes (padded to its in-memory size).
    pub data: Vec<u8>,
    /// Page permissions.
    pub perms: Perms,
}

impl Section {
    /// One past the last virtual address the section's bytes occupy.
    pub fn end_va(&self) -> u32 {
        self.va.saturating_add(self.data.len() as u32)
    }

    /// Returns `true` if `va` falls inside the section's byte range.
    pub fn contains(&self, va: u32) -> bool {
        va >= self.va && va < self.end_va()
    }

    /// Returns `true` if the section maps executable.
    pub fn is_code(&self) -> bool {
        self.perms.contains(Perms::X)
    }
}

/// Error parsing an FDL image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FdlError {
    /// Missing or wrong magic.
    BadMagic,
    /// The header or a table is truncated or inconsistent.
    Malformed(&'static str),
}

impl fmt::Display for FdlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FdlError::BadMagic => write!(f, "not an FDL image (bad magic)"),
            FdlError::Malformed(what) => write!(f, "malformed FDL image: {what}"),
        }
    }
}

impl std::error::Error for FdlError {}

/// A parsed (or freshly built) FDL image.
///
/// # Examples
///
/// ```
/// use faros_emu::mmu::Perms;
/// use faros_kernel::module::{Export, FdlImage, Section};
///
/// let image = FdlImage {
///     entry: 0x40_0000,
///     export_table_va: 0x40_2000,
///     sections: vec![Section { va: 0x40_0000, data: vec![0x71], perms: Perms::RX }],
///     exports: vec![Export { name: "main".into(), va: 0x40_0000 }],
/// };
/// let bytes = image.to_bytes();
/// let parsed = FdlImage::parse(&bytes).unwrap();
/// assert_eq!(parsed, image);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FdlImage {
    /// Entry-point virtual address.
    pub entry: u32,
    /// Virtual address the loader materializes the export table at.
    pub export_table_va: u32,
    /// Loadable sections.
    pub sections: Vec<Section>,
    /// Exported symbols.
    pub exports: Vec<Export>,
}

impl FdlImage {
    /// Serializes the image to its on-disk byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&FDL_MAGIC);
        out.extend_from_slice(&self.entry.to_le_bytes());
        out.extend_from_slice(&self.export_table_va.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.exports.len() as u32).to_le_bytes());
        // Section headers; data offsets are computed after the tables.
        let headers_len = 20 + self.sections.len() * 16 + self.exports.len() * 28;
        let mut offset = headers_len as u32;
        for s in &self.sections {
            out.extend_from_slice(&s.va.to_le_bytes());
            out.extend_from_slice(&offset.to_le_bytes());
            out.extend_from_slice(&(s.data.len() as u32).to_le_bytes());
            out.extend_from_slice(&s.perms.bits().to_le_bytes());
            offset += s.data.len() as u32;
        }
        for e in &self.exports {
            let mut name = [0u8; EXPORT_NAME_LEN];
            let src = e.name.as_bytes();
            name[..src.len().min(EXPORT_NAME_LEN)]
                .copy_from_slice(&src[..src.len().min(EXPORT_NAME_LEN)]);
            out.extend_from_slice(&name);
            out.extend_from_slice(&e.va.to_le_bytes());
        }
        for s in &self.sections {
            out.extend_from_slice(&s.data);
        }
        out
    }

    /// Parses an image from bytes.
    ///
    /// # Errors
    ///
    /// Returns [`FdlError`] for wrong magic or inconsistent tables.
    pub fn parse(bytes: &[u8]) -> Result<FdlImage, FdlError> {
        fn u32_at(b: &[u8], at: usize) -> Result<u32, FdlError> {
            b.get(at..at + 4)
                .map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
                .ok_or(FdlError::Malformed("truncated header"))
        }
        if bytes.get(..4) != Some(&FDL_MAGIC[..]) {
            return Err(FdlError::BadMagic);
        }
        let entry = u32_at(bytes, 4)?;
        let export_table_va = u32_at(bytes, 8)?;
        let n_sections = u32_at(bytes, 12)? as usize;
        let n_exports = u32_at(bytes, 16)? as usize;
        if n_sections > 64 || n_exports > 1024 {
            return Err(FdlError::Malformed("implausible table sizes"));
        }
        let mut sections = Vec::with_capacity(n_sections);
        let mut cursor = 20;
        let mut raw_sections = Vec::with_capacity(n_sections);
        for _ in 0..n_sections {
            let va = u32_at(bytes, cursor)?;
            let off = u32_at(bytes, cursor + 4)? as usize;
            let size = u32_at(bytes, cursor + 8)? as usize;
            let perms = Perms::from_bits(u32_at(bytes, cursor + 12)?);
            raw_sections.push((va, off, size, perms));
            cursor += 16;
        }
        let mut exports = Vec::with_capacity(n_exports);
        for _ in 0..n_exports {
            let name_bytes = bytes
                .get(cursor..cursor + EXPORT_NAME_LEN)
                .ok_or(FdlError::Malformed("truncated export table"))?;
            let end = name_bytes.iter().position(|&b| b == 0).unwrap_or(EXPORT_NAME_LEN);
            let name = String::from_utf8_lossy(&name_bytes[..end]).into_owned();
            let va = u32_at(bytes, cursor + EXPORT_NAME_LEN)?;
            exports.push(Export { name, va });
            cursor += 28;
        }
        // Reject sections that wrap the 32-bit address space or overlap one
        // another: the loader would otherwise double-map pages (and an
        // attacker-supplied image could alias code under two protections).
        for &(va, _, size, _) in &raw_sections {
            if u64::from(va) + size as u64 > u64::from(u32::MAX) + 1 {
                return Err(FdlError::Malformed("section wraps the address space"));
            }
        }
        let mut spans: Vec<(u32, u64)> = raw_sections
            .iter()
            .filter(|&&(_, _, size, _)| size > 0)
            .map(|&(va, _, size, _)| (va, u64::from(va) + size as u64))
            .collect();
        spans.sort_unstable();
        for pair in spans.windows(2) {
            if u64::from(pair[1].0) < pair[0].1 {
                return Err(FdlError::Malformed("overlapping sections"));
            }
        }
        for (va, off, size, perms) in raw_sections {
            let data = bytes
                .get(off..off.checked_add(size).ok_or(FdlError::Malformed("section data out of range"))?)
                .ok_or(FdlError::Malformed("section data out of range"))?
                .to_vec();
            sections.push(Section { va, data, perms });
        }
        Ok(FdlImage { entry, export_table_va, sections, exports })
    }

    /// Lowest section virtual address (the module base); `entry` when the
    /// image has no sections.
    pub fn base(&self) -> u32 {
        self.sections.iter().map(|s| s.va).min().unwrap_or(self.entry)
    }

    /// The executable sections, in declaration order.
    pub fn code_sections(&self) -> impl Iterator<Item = &Section> {
        self.sections.iter().filter(|s| s.is_code())
    }

    /// The section whose byte range contains `va`.
    pub fn section_containing(&self, va: u32) -> Option<&Section> {
        self.sections.iter().find(|s| s.contains(va))
    }

    /// Returns `true` if `va` lies inside an executable section — the
    /// static analyzer's definition of "statically accounted-for code".
    pub fn is_code_va(&self, va: u32) -> bool {
        self.section_containing(va).is_some_and(Section::is_code)
    }

    /// Lays out the export table as it appears in guest memory:
    /// `count: u32` followed by 32-byte entries
    /// (`name[24] | hash: u32 | fn_ptr: u32`).
    pub fn export_table_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.exports.len() * EXPORT_ENTRY_SIZE as usize);
        out.extend_from_slice(&(self.exports.len() as u32).to_le_bytes());
        for e in &self.exports {
            let mut name = [0u8; EXPORT_NAME_LEN];
            let src = e.name.as_bytes();
            name[..src.len().min(EXPORT_NAME_LEN)]
                .copy_from_slice(&src[..src.len().min(EXPORT_NAME_LEN)]);
            out.extend_from_slice(&name);
            out.extend_from_slice(&e.hash().to_le_bytes());
            out.extend_from_slice(&e.va.to_le_bytes());
        }
        out
    }

    /// Total bytes the materialized export table occupies.
    pub fn export_table_len(&self) -> u32 {
        4 + self.exports.len() as u32 * EXPORT_ENTRY_SIZE
    }
}

/// A module as registered with the kernel after loading.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleInfo {
    /// Module name (file name, or `ntdll.fdl` for the kernel module).
    pub name: String,
    /// Lowest mapped virtual address.
    pub base: u32,
    /// Entry point.
    pub entry: u32,
    /// Virtual address of the materialized export table.
    pub export_table_va: u32,
    /// Exported symbols.
    pub exports: Vec<Export>,
}

impl ModuleInfo {
    /// Virtual address of entry `i`'s function-pointer field — the four
    /// bytes FAROS taints with the export-table tag.
    pub fn export_ptr_va(&self, i: usize) -> u32 {
        self.export_table_va + 4 + i as u32 * EXPORT_ENTRY_SIZE + EXPORT_PTR_OFFSET
    }

    /// Looks up an export by name.
    pub fn find_export(&self, name: &str) -> Option<&Export> {
        self.exports.iter().find(|e| e.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FdlImage {
        FdlImage {
            entry: 0x40_0010,
            export_table_va: 0x40_3000,
            sections: vec![
                Section { va: 0x40_0000, data: vec![1, 2, 3, 4], perms: Perms::RX },
                Section { va: 0x40_1000, data: vec![9; 100], perms: Perms::RW },
            ],
            exports: vec![
                Export { name: "start".into(), va: 0x40_0010 },
                Export { name: "helper".into(), va: 0x40_0020 },
            ],
        }
    }

    #[test]
    fn image_round_trip() {
        let img = sample();
        assert_eq!(FdlImage::parse(&img.to_bytes()).unwrap(), img);
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(FdlImage::parse(b"ELF!xxxxxxxx"), Err(FdlError::BadMagic));
        assert_eq!(FdlImage::parse(b""), Err(FdlError::BadMagic));
    }

    #[test]
    fn truncated_image_rejected() {
        let bytes = sample().to_bytes();
        for cut in [5, 19, 30, bytes.len() - 1] {
            assert!(FdlImage::parse(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn export_table_layout() {
        let img = sample();
        let table = img.export_table_bytes();
        assert_eq!(table.len() as u32, img.export_table_len());
        // count
        assert_eq!(u32::from_le_bytes(table[..4].try_into().unwrap()), 2);
        // entry 0 name
        assert_eq!(&table[4..9], b"start");
        // entry 0 hash at +24, ptr at +28
        let hash = u32::from_le_bytes(table[4 + 24..4 + 28].try_into().unwrap());
        assert_eq!(hash, hash_name("start"));
        let ptr = u32::from_le_bytes(table[4 + 28..4 + 32].try_into().unwrap());
        assert_eq!(ptr, 0x40_0010);
    }

    #[test]
    fn module_info_pointer_addresses() {
        let img = sample();
        let info = ModuleInfo {
            name: "sample.fdl".into(),
            base: 0x40_0000,
            entry: img.entry,
            export_table_va: img.export_table_va,
            exports: img.exports.clone(),
        };
        assert_eq!(info.export_ptr_va(0), 0x40_3000 + 4 + 28);
        assert_eq!(info.export_ptr_va(1), 0x40_3000 + 4 + 32 + 28);
        assert_eq!(info.find_export("helper").unwrap().va, 0x40_0020);
        assert!(info.find_export("nope").is_none());
    }

    #[test]
    fn overlapping_sections_rejected() {
        let img = FdlImage {
            entry: 0x40_0000,
            export_table_va: 0,
            sections: vec![
                Section { va: 0x40_0000, data: vec![0; 0x100], perms: Perms::RX },
                Section { va: 0x40_0080, data: vec![0; 0x100], perms: Perms::RW },
            ],
            exports: vec![],
        };
        assert_eq!(
            FdlImage::parse(&img.to_bytes()),
            Err(FdlError::Malformed("overlapping sections"))
        );
        // Adjacent (end == next start) sections are fine.
        let ok = FdlImage {
            sections: vec![
                Section { va: 0x40_0000, data: vec![0; 0x100], perms: Perms::RX },
                Section { va: 0x40_0100, data: vec![0; 0x100], perms: Perms::RW },
            ],
            ..img
        };
        assert!(FdlImage::parse(&ok.to_bytes()).is_ok());
    }

    #[test]
    fn wrapping_section_rejected() {
        let img = FdlImage {
            entry: 0,
            export_table_va: 0,
            sections: vec![Section {
                va: 0xffff_ff00,
                data: vec![0; 0x200],
                perms: Perms::RX,
            }],
            exports: vec![],
        };
        assert_eq!(
            FdlImage::parse(&img.to_bytes()),
            Err(FdlError::Malformed("section wraps the address space"))
        );
    }

    #[test]
    fn section_and_image_accessors() {
        let img = sample();
        assert_eq!(img.base(), 0x40_0000);
        assert_eq!(img.code_sections().count(), 1);
        assert!(img.sections[0].is_code());
        assert!(!img.sections[1].is_code());
        assert!(img.sections[0].contains(0x40_0003));
        assert!(!img.sections[0].contains(0x40_0004));
        assert_eq!(img.section_containing(0x40_1050).unwrap().va, 0x40_1000);
        assert!(img.section_containing(0x50_0000).is_none());
        assert!(img.is_code_va(0x40_0000));
        assert!(!img.is_code_va(0x40_1000));
        // Sectionless images (the kernel module) fall back to entry.
        let bare = FdlImage { entry: 7, export_table_va: 0, sections: vec![], exports: vec![] };
        assert_eq!(bare.base(), 7);
    }

    #[test]
    fn hash_name_is_djb2() {
        assert_eq!(hash_name(""), 5381);
        // djb2("a") = 5381*33 + 97
        assert_eq!(hash_name("a"), 5381u32.wrapping_mul(33) + 97);
        assert_ne!(hash_name("LoadLibraryA"), hash_name("GetProcAddress"));
    }

    #[test]
    fn long_names_truncate_at_24_bytes() {
        let img = FdlImage {
            entry: 0,
            export_table_va: 0,
            sections: vec![],
            exports: vec![Export {
                name: "this_name_is_way_longer_than_twenty_four".into(),
                va: 1,
            }],
        };
        let parsed = FdlImage::parse(&img.to_bytes()).unwrap();
        assert_eq!(parsed.exports[0].name.len(), EXPORT_NAME_LEN);
    }
}
