//! The three tag hash maps of FAROS (paper Fig. 5).
//!
//! Every netflow, process, and file tag payload is stored once in the table
//! for its type; the compact [`ProvTag`] carries only
//! the 16-bit index. Export-table tags have no payload and therefore no
//! table (paper §V-A).

use crate::tag::{FileTag, NetflowTag, ProcessTag, ProvTag, TagKind};
use faros_obs::fasthash::FastMap;
use std::fmt;
use std::sync::Arc;

/// Error returned when a tag table overflows its 16-bit index space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagTableFull {
    /// Which table overflowed.
    pub kind: TagKind,
}

impl fmt::Display for TagTableFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} tag table exceeded 65536 entries", self.kind)
    }
}

impl std::error::Error for TagTableFull {}

/// Interning store for tag payloads.
///
/// # Examples
///
/// ```
/// use faros_taint::tables::TagTables;
/// use faros_taint::tag::{NetflowTag, TagKind};
///
/// let mut tables = TagTables::new();
/// let nf = NetflowTag {
///     src_ip: [10, 0, 0, 1], src_port: 4444,
///     dst_ip: [10, 0, 0, 2], dst_port: 1080,
/// };
/// let tag = tables.intern_netflow(nf).unwrap();
/// assert_eq!(tag.kind(), TagKind::Netflow);
/// assert_eq!(tables.netflow(tag).unwrap(), &nf);
/// // Interning the same flow again yields the same tag.
/// assert_eq!(tables.intern_netflow(nf).unwrap(), tag);
/// ```
#[derive(Debug, Default)]
pub struct TagTables {
    netflows: Vec<NetflowTag>,
    netflow_index: FastMap<NetflowTag, u16>,
    processes: Vec<ProcessTag>,
    process_index: FastMap<u32, u16>, // keyed by CR3
    files: Vec<FileTag>,
    /// File name -> version -> index, so a lookup by `&str` copies no name.
    file_index: FastMap<String, FastMap<u32, u16>>,
    // The paper's stated future work: "we plan to augment this tag with
    // information about function name, which will require the addition of a
    // corresponding hash map" (§V-A). Shared copy-on-write, so tables can
    // start from names interned once (see `share_exports`).
    exports: Arc<ExportNames>,
}

/// The interned export-table entry names of a [`TagTables`]: the `i`-th
/// name belongs to the named export tag with index `i + 1`, since index 0
/// is the anonymous [`ProvTag::EXPORT_TABLE`].
///
/// Tables that intern the same names in the same order assign the same
/// tags, so a snapshot taken after interning a module's exports can seed
/// later tables ([`TagTables::share_exports`]) in place of re-interning
/// every name.
#[derive(Debug, Clone, Default)]
pub struct ExportNames {
    names: Vec<String>,
    index: FastMap<String, u16>,
}

impl ExportNames {
    /// The interned names in tag-index order.
    pub fn names(&self) -> impl ExactSizeIterator<Item = &str> {
        self.names.iter().map(String::as_str)
    }
}

impl TagTables {
    /// Creates empty tables.
    pub fn new() -> TagTables {
        TagTables::default()
    }

    fn next_index(len: usize, kind: TagKind) -> Result<u16, TagTableFull> {
        u16::try_from(len).map_err(|_| TagTableFull { kind })
    }

    /// Interns a netflow payload, returning its tag.
    ///
    /// # Errors
    ///
    /// Returns [`TagTableFull`] after 65536 distinct flows.
    pub fn intern_netflow(&mut self, nf: NetflowTag) -> Result<ProvTag, TagTableFull> {
        if let Some(&i) = self.netflow_index.get(&nf) {
            return Ok(ProvTag::new(TagKind::Netflow, i));
        }
        let i = Self::next_index(self.netflows.len(), TagKind::Netflow)?;
        self.netflows.push(nf);
        self.netflow_index.insert(nf, i);
        Ok(ProvTag::new(TagKind::Netflow, i))
    }

    /// Interns a process payload (keyed by CR3), returning its tag.
    ///
    /// # Errors
    ///
    /// Returns [`TagTableFull`] after 65536 distinct processes.
    pub fn intern_process(&mut self, cr3: u32, name: &str) -> Result<ProvTag, TagTableFull> {
        if let Some(&i) = self.process_index.get(&cr3) {
            return Ok(ProvTag::new(TagKind::Process, i));
        }
        let i = Self::next_index(self.processes.len(), TagKind::Process)?;
        self.processes.push(ProcessTag { cr3, name: name.to_string() });
        self.process_index.insert(cr3, i);
        Ok(ProvTag::new(TagKind::Process, i))
    }

    /// Interns a file payload, returning its tag. Distinct versions of the
    /// same file intern to distinct tags.
    ///
    /// # Errors
    ///
    /// Returns [`TagTableFull`] after 65536 distinct (file, version) pairs.
    pub fn intern_file(&mut self, name: &str, version: u32) -> Result<ProvTag, TagTableFull> {
        if let Some(&i) = self.file_index.get(name).and_then(|vs| vs.get(&version)) {
            return Ok(ProvTag::new(TagKind::File, i));
        }
        let i = Self::next_index(self.files.len(), TagKind::File)?;
        self.files.push(FileTag { name: name.to_string(), version });
        match self.file_index.get_mut(name) {
            Some(versions) => versions.insert(version, i),
            None => self.file_index.entry(name.to_string()).or_default().insert(version, i),
        };
        Ok(ProvTag::new(TagKind::File, i))
    }

    /// Interns an export-table entry name (e.g. `ntdll.fdl!VirtualAlloc`),
    /// returning a named export-table tag — the paper's future-work
    /// extension letting reports say *which* function pointer was read.
    /// Index 0 is reserved for the anonymous [`ProvTag::EXPORT_TABLE`].
    ///
    /// # Errors
    ///
    /// Returns [`TagTableFull`] after 65535 distinct names.
    pub fn intern_export(&mut self, name: &str) -> Result<ProvTag, TagTableFull> {
        if let Some(&i) = self.exports.index.get(name) {
            return Ok(ProvTag::new(TagKind::ExportTable, i));
        }
        let i = Self::next_index(self.exports.names.len() + 1, TagKind::ExportTable)?;
        let exports = Arc::make_mut(&mut self.exports);
        exports.names.push(name.to_string());
        exports.index.insert(name.to_string(), i);
        Ok(ProvTag::new(TagKind::ExportTable, i))
    }

    /// The export names interned so far, as a shareable snapshot.
    pub fn export_names(&self) -> &Arc<ExportNames> {
        &self.exports
    }

    /// Starts the export names from a shared snapshot — the same tags as
    /// interning its names in order, without copying them — provided no
    /// export name has been interned yet. Returns whether it did.
    pub fn share_exports(&mut self, names: &Arc<ExportNames>) -> bool {
        if !self.exports.names.is_empty() {
            return false;
        }
        self.exports = Arc::clone(names);
        true
    }

    /// Looks up the name of a named export-table tag. Returns `None` for
    /// the anonymous tag, a non-export tag, or an out-of-range index.
    pub fn export_name(&self, tag: ProvTag) -> Option<&str> {
        if tag.kind() != TagKind::ExportTable || tag.index() == 0 {
            return None;
        }
        self.exports.names.get(tag.index() as usize - 1).map(String::as_str)
    }

    /// Looks up a netflow payload. Returns `None` if `tag` is not a netflow
    /// tag or is out of range.
    pub fn netflow(&self, tag: ProvTag) -> Option<&NetflowTag> {
        (tag.kind() == TagKind::Netflow)
            .then(|| self.netflows.get(tag.index() as usize))
            .flatten()
    }

    /// Looks up a process payload.
    pub fn process(&self, tag: ProvTag) -> Option<&ProcessTag> {
        (tag.kind() == TagKind::Process)
            .then(|| self.processes.get(tag.index() as usize))
            .flatten()
    }

    /// The process tag interned for `cr3`, if any.
    pub fn process_by_cr3(&self, cr3: u32) -> Option<ProvTag> {
        self.process_index.get(&cr3).map(|&i| ProvTag::new(TagKind::Process, i))
    }

    /// Looks up a file payload.
    pub fn file(&self, tag: ProvTag) -> Option<&FileTag> {
        (tag.kind() == TagKind::File)
            .then(|| self.files.get(tag.index() as usize))
            .flatten()
    }

    /// Renders a tag for analyst-facing output, in the paper's Table II
    /// style (`NetFlow: {...}`, `Process: notepad.exe`, ...).
    pub fn display_tag(&self, tag: ProvTag) -> String {
        let mut out = String::new();
        self.write_tag(&mut out, tag);
        out
    }

    /// Appends [`TagTables::display_tag`]'s rendering of `tag` to `out`.
    pub fn write_tag(&self, out: &mut String, tag: ProvTag) {
        use std::fmt::Write;
        let i = tag.index();
        // Writing into a `String` cannot fail.
        let _ = match tag.kind() {
            TagKind::Netflow => match self.netflow(tag) {
                Some(nf) => write!(out, "NetFlow: {nf}"),
                None => write!(out, "NetFlow: <unknown #{i}>"),
            },
            TagKind::Process => match self.process(tag) {
                Some(p) => write!(out, "Process: {p}"),
                None => write!(out, "Process: <unknown #{i}>"),
            },
            TagKind::File => match self.file(tag) {
                Some(f) => write!(out, "File: {f}"),
                None => write!(out, "File: <unknown #{i}>"),
            },
            TagKind::ExportTable => match self.export_name(tag) {
                Some(name) => write!(out, "Export Table ({name})"),
                None => write!(out, "Export Table"),
            },
        };
    }

    /// Number of interned tags of each kind `(netflow, process, file)`.
    pub fn counts(&self) -> (usize, usize, usize) {
        (self.netflows.len(), self.processes.len(), self.files.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nf(port: u16) -> NetflowTag {
        NetflowTag {
            src_ip: [1, 2, 3, 4],
            src_port: port,
            dst_ip: [5, 6, 7, 8],
            dst_port: 80,
        }
    }

    #[test]
    fn interning_is_idempotent() {
        let mut t = TagTables::new();
        let a = t.intern_netflow(nf(1)).unwrap();
        let b = t.intern_netflow(nf(1)).unwrap();
        let c = t.intern_netflow(nf(2)).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(t.counts().0, 2);
    }

    #[test]
    fn process_keyed_by_cr3() {
        let mut t = TagTables::new();
        let a = t.intern_process(0x1000, "a.exe").unwrap();
        let b = t.intern_process(0x1000, "renamed.exe").unwrap();
        assert_eq!(a, b, "same CR3 is the same process identity");
        assert_eq!(t.process(a).unwrap().name, "a.exe");
        assert_eq!(t.process_by_cr3(0x1000), Some(a));
        assert_eq!(t.process_by_cr3(0x2000), None);
    }

    #[test]
    fn file_versions_are_distinct_tags() {
        let mut t = TagTables::new();
        let v1 = t.intern_file("C:/secret.txt", 1).unwrap();
        let v2 = t.intern_file("C:/secret.txt", 2).unwrap();
        assert_ne!(v1, v2);
        assert_eq!(t.file(v1).unwrap().version, 1);
        assert_eq!(t.file(v2).unwrap().version, 2);
    }

    #[test]
    fn lookups_reject_wrong_kind() {
        let mut t = TagTables::new();
        let p = t.intern_process(1, "x.exe").unwrap();
        assert!(t.netflow(p).is_none());
        assert!(t.file(p).is_none());
        assert!(t.process(p).is_some());
    }

    #[test]
    fn export_names_intern_and_display() {
        let mut t = TagTables::new();
        let va = t.intern_export("ntdll.fdl!VirtualAlloc").unwrap();
        let wf = t.intern_export("ntdll.fdl!WriteFile").unwrap();
        assert_ne!(va, wf);
        assert_ne!(va.index(), 0, "index 0 is the anonymous tag");
        assert_eq!(t.intern_export("ntdll.fdl!VirtualAlloc").unwrap(), va);
        assert_eq!(t.export_name(va), Some("ntdll.fdl!VirtualAlloc"));
        assert_eq!(t.export_name(ProvTag::EXPORT_TABLE), None);
        assert_eq!(t.display_tag(va), "Export Table (ntdll.fdl!VirtualAlloc)");
        assert_eq!(t.display_tag(ProvTag::EXPORT_TABLE), "Export Table");
    }

    #[test]
    fn shared_export_names_assign_the_interned_tags() {
        let mut first = TagTables::new();
        let va = first.intern_export("ntdll.fdl!VirtualAlloc").unwrap();
        let snapshot = Arc::clone(first.export_names());

        let mut seeded = TagTables::new();
        assert!(seeded.share_exports(&snapshot));
        assert_eq!(seeded.intern_export("ntdll.fdl!VirtualAlloc").unwrap(), va);
        // A new name copies the shared names before adding to them.
        let wf = seeded.intern_export("ntdll.fdl!WriteFile").unwrap();
        assert_eq!(wf.index(), 2);
        assert_eq!(snapshot.names().collect::<Vec<_>>(), ["ntdll.fdl!VirtualAlloc"]);
        assert_eq!(seeded.export_name(wf), Some("ntdll.fdl!WriteFile"));
        // Tables that already interned a name keep their own.
        assert!(!seeded.share_exports(&snapshot));
    }

    #[test]
    fn display_matches_table2_shapes() {
        let mut t = TagTables::new();
        let p = t.intern_process(0x3000, "notepad.exe").unwrap();
        assert_eq!(t.display_tag(p), "Process: notepad.exe");
        assert_eq!(t.display_tag(ProvTag::EXPORT_TABLE), "Export Table");
        let f = t.intern_file("a.dll", 1).unwrap();
        assert_eq!(t.display_tag(f), "File: a.dll (v1)");
    }
}
