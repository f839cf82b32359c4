//! The DIFT engine: Table-I propagation over shadow state, with
//! per-security-policy handling of indirect flows.
//!
//! The engine implements exactly the three propagation rules of the paper's
//! Table I — `copy`, `union`, `delete` — at byte granularity, plus two
//! *optional* indirect-flow modes:
//!
//! * **address dependencies** ([`PropagationMode::address_deps`]): the
//!   provenance of registers used in an address computation flows into the
//!   loaded/stored value (the Fig. 1 lookup-table case);
//! * **control dependencies** ([`PropagationMode::control_deps`]): the
//!   provenance of the last tainted comparison flows into everything written
//!   under its branch scope (a Fenton/RIFLE-style conservative rule,
//!   illustrating the overtainting horn of the dilemma in §IV).
//!
//! FAROS itself runs with both disabled and regains the lost accuracy
//! through tag-type confluence (§IV); the modes exist so the benches can
//! demonstrate the undertainting/overtainting trade-off the paper argues
//! against.

use crate::provlist::{ListId, ProvInterner};
use crate::shadow::{ShadowAddr, ShadowState};
use crate::tables::TagTables;
use crate::tag::{ProvTag, TagKind};
use faros_obs::metrics::{CounterId, FastPath, MetricsRegistry, MetricsSnapshot};
use faros_support::json::{JsonValue, ToJson};

/// Which indirect flows the engine propagates. The FAROS configuration is
/// `PropagationMode::default()` (neither).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PropagationMode {
    /// Propagate address dependencies (index/base registers into the value).
    pub address_deps: bool,
    /// Propagate control dependencies (tainted flags into branch-scoped
    /// writes).
    pub control_deps: bool,
}

impl PropagationMode {
    /// The FAROS configuration: direct flows only.
    pub fn direct_only() -> PropagationMode {
        PropagationMode::default()
    }

    /// Direct flows plus address dependencies.
    pub fn with_address_deps() -> PropagationMode {
        PropagationMode { address_deps: true, control_deps: false }
    }

    /// Everything — the maximally conservative (overtainting) configuration.
    pub fn conservative() -> PropagationMode {
        PropagationMode { address_deps: true, control_deps: true }
    }
}

/// Counters describing the propagation work performed.
///
/// Derived on demand from the engine's [`MetricsRegistry`] (the `taint.*`
/// counters) — the struct is a stable read-out view, not the storage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaintStats {
    /// Byte copies processed.
    pub copies: u64,
    /// Union operations processed.
    pub unions: u64,
    /// Byte deletions processed.
    pub deletes: u64,
    /// Labeling operations (taint sources).
    pub labels: u64,
    /// Address-dependency events observed (propagated or not).
    pub addr_deps: u64,
}

impl ToJson for TaintStats {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("copies", self.copies.to_json_value()),
            ("unions", self.unions.to_json_value()),
            ("deletes", self.deletes.to_json_value()),
            ("labels", self.labels.to_json_value()),
            ("addr_deps", self.addr_deps.to_json_value()),
        ])
    }
}

/// Registered ids of the engine's counters (see [`TaintEngine::metrics`]).
#[derive(Debug, Clone, Copy)]
struct TaintCounters {
    copies: CounterId,
    unions: CounterId,
    deletes: CounterId,
    labels: CounterId,
    addr_deps: CounterId,
    /// Gauge: interned provenance lists, refreshed at snapshot time.
    interner_lists: CounterId,
    /// Gauge: tainted shadow-memory bytes, refreshed at snapshot time.
    shadow_tainted_bytes: CounterId,
    /// Zero-taint fast path hit/miss pair (`taint.fastpath.*`).
    fastpath: FastPath,
}

impl TaintCounters {
    fn register(m: &mut MetricsRegistry) -> TaintCounters {
        TaintCounters {
            copies: m.counter("taint.copies"),
            unions: m.counter("taint.unions"),
            deletes: m.counter("taint.deletes"),
            labels: m.counter("taint.labels"),
            addr_deps: m.counter("taint.addr_deps"),
            interner_lists: m.counter("taint.interner_lists"),
            shadow_tainted_bytes: m.counter("taint.shadow_tainted_bytes"),
            fastpath: FastPath::register(m, "taint.fastpath"),
        }
    }
}

/// One contiguous run of guest physical bytes sharing the same provenance
/// list — the unit of the analyst-facing *taint map*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaintedRegion {
    /// First physical address of the run.
    pub phys: u32,
    /// Length in bytes.
    pub len: u32,
    /// The shared provenance list.
    pub list: ListId,
}

/// The provenance-DIFT engine.
///
/// # Examples
///
/// ```
/// use faros_taint::engine::{PropagationMode, TaintEngine};
/// use faros_taint::shadow::ShadowAddr;
/// use faros_taint::tag::NetflowTag;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut engine = TaintEngine::new(PropagationMode::direct_only());
/// let nf = engine.tables_mut().intern_netflow(NetflowTag {
///     src_ip: [10, 0, 0, 1], src_port: 4444,
///     dst_ip: [10, 0, 0, 2], dst_port: 80,
/// })?;
/// engine.label_fresh(ShadowAddr::Mem(0x100), nf);
/// engine.copy(ShadowAddr::Mem(0x200), ShadowAddr::Mem(0x100), 1);
/// assert!(engine.prov_tags(ShadowAddr::Mem(0x200)).contains(&nf));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TaintEngine {
    tables: TagTables,
    interner: ProvInterner,
    shadow: ShadowState,
    mode: PropagationMode,
    flags_prov: ListId,
    control_ctx: ListId,
    metrics: MetricsRegistry,
    ctr: TaintCounters,
}

impl TaintEngine {
    /// Creates an engine with the given propagation mode.
    pub fn new(mode: PropagationMode) -> TaintEngine {
        let mut metrics = MetricsRegistry::new();
        let ctr = TaintCounters::register(&mut metrics);
        TaintEngine {
            tables: TagTables::new(),
            interner: ProvInterner::new(),
            shadow: ShadowState::new(),
            mode,
            flags_prov: ListId::EMPTY,
            control_ctx: ListId::EMPTY,
            metrics,
            ctr,
        }
    }

    /// The propagation mode in effect.
    pub fn mode(&self) -> PropagationMode {
        self.mode
    }

    /// The tag payload tables.
    pub fn tables(&self) -> &TagTables {
        &self.tables
    }

    /// Mutable access to the tag payload tables (for interning new tags).
    pub fn tables_mut(&mut self) -> &mut TagTables {
        &mut self.tables
    }

    /// The provenance-list interner.
    pub fn interner(&self) -> &ProvInterner {
        &self.interner
    }

    /// The raw shadow state.
    pub fn shadow(&self) -> &ShadowState {
        &self.shadow
    }

    /// Mutable access to the raw shadow state (context-switch register
    /// save/restore).
    pub fn shadow_mut(&mut self) -> &mut ShadowState {
        &mut self.shadow
    }

    /// Propagation statistics so far (a read-out of the `taint.*` counters).
    pub fn stats(&self) -> TaintStats {
        TaintStats {
            copies: self.metrics.get(self.ctr.copies),
            unions: self.metrics.get(self.ctr.unions),
            deletes: self.metrics.get(self.ctr.deletes),
            labels: self.metrics.get(self.ctr.labels),
            addr_deps: self.metrics.get(self.ctr.addr_deps),
        }
    }

    /// The engine's metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Mutable access to the registry, so co-resident components (e.g. the
    /// FAROS policy layer) can register their own counters alongside the
    /// engine's and share one snapshot.
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// Snapshots the registry, first refreshing the gauges
    /// (`taint.interner_lists`, `taint.shadow_tainted_bytes`) that track
    /// current sizes rather than monotone event counts.
    pub fn metrics_snapshot(&mut self) -> MetricsSnapshot {
        self.metrics.set(self.ctr.interner_lists, self.interner.len() as u64);
        self.metrics
            .set(self.ctr.shadow_tainted_bytes, self.shadow.tainted_mem_bytes() as u64);
        self.metrics.snapshot()
    }

    // --- taint sources ---

    /// Labels one shadow byte with a fresh single-tag list, replacing any
    /// existing provenance (a taint *source*, e.g. a network DMA byte).
    pub fn label_fresh(&mut self, addr: ShadowAddr, tag: ProvTag) {
        self.metrics.inc(self.ctr.labels);
        let id = self.interner.append(ListId::EMPTY, tag);
        self.shadow.set(addr, id);
    }

    /// Clamps a `[phys, phys + len)` byte range to the end of the physical
    /// address space. The helpers below used to `wrapping_add`, so a range
    /// ending past `u32::MAX` silently wrapped and tainted low memory.
    fn clamp_range(phys: u32, len: usize) -> usize {
        len.min((u32::MAX - phys) as usize + 1)
    }

    /// Labels `len` consecutive physical bytes with a fresh single-tag list.
    /// A range extending past the top of the physical address space is
    /// clamped at `u32::MAX` (it never wraps to low memory).
    pub fn label_range_fresh(&mut self, phys: u32, len: usize, tag: ProvTag) {
        self.label_range_fresh_tags(phys, len, &[tag]);
    }

    /// Labels `len` consecutive physical bytes with a fresh list holding
    /// `tags` (oldest first), replacing any existing provenance. Equivalent
    /// to a fresh single-tag label followed by per-byte appends of the
    /// remaining tags — e.g. a source tag plus the accessing process's tag,
    /// the FAROS labeling rule — but builds the interned list once and
    /// writes the shadow range in one bulk fill.
    pub fn label_range_fresh_tags(&mut self, phys: u32, len: usize, tags: &[ProvTag]) {
        let len = Self::clamp_range(phys, len);
        let mut id = ListId::EMPTY;
        for &t in tags {
            id = self.interner.append(id, t);
        }
        self.metrics.add(self.ctr.labels, (len * tags.len()) as u64);
        self.shadow.fill_mem_range(phys, len, id);
    }

    /// Appends `tag` at the head of one byte's provenance list (e.g. the
    /// FAROS rule "if a process accesses a byte in memory, add a process tag
    /// into the head of that byte's provenance list").
    pub fn append_tag(&mut self, addr: ShadowAddr, tag: ProvTag) {
        self.metrics.inc(self.ctr.labels);
        let cur = self.shadow.get(addr);
        let new = self.interner.append(cur, tag);
        self.shadow.set(addr, new);
    }

    /// Appends `tag` to `len` consecutive physical bytes. Like
    /// [`TaintEngine::label_range_fresh`], the range is clamped at
    /// `u32::MAX` rather than wrapping into low memory.
    /// Runs of bytes sharing one provenance list (the overwhelmingly common
    /// case — a freshly-labeled buffer) are coalesced: one interner append
    /// and one bulk shadow fill per run, instead of both per byte. The
    /// interner memoizes `append`, so the resulting list ids are identical
    /// to the per-byte loop's.
    pub fn append_tag_range(&mut self, phys: u32, len: usize, tag: ProvTag) {
        let len = Self::clamp_range(phys, len);
        self.metrics.add(self.ctr.labels, len as u64);
        for (start, run_len, cur) in self.shadow.mem_runs(phys, len) {
            let new = self.interner.append(cur, tag);
            self.shadow.fill_mem_range(start, run_len, new);
        }
    }

    // --- queries ---

    /// The provenance list id of a shadow byte.
    #[inline]
    pub fn prov_id(&self, addr: ShadowAddr) -> ListId {
        self.shadow.get(addr)
    }

    /// The provenance tags of a shadow byte, oldest first.
    pub fn prov_tags(&self, addr: ShadowAddr) -> &[ProvTag] {
        self.interner.tags(self.shadow.get(addr))
    }

    /// Returns `true` if the byte carries any tag of `kind`.
    pub fn has_kind(&self, addr: ShadowAddr, kind: TagKind) -> bool {
        self.interner.contains_kind(self.shadow.get(addr), kind)
    }

    /// Unions two interned lists without touching shadow state (used by
    /// detectors aggregating provenance across an instruction's code bytes).
    pub fn union_lists(&mut self, a: ListId, b: ListId) -> ListId {
        self.interner.union(a, b)
    }

    /// Renders a provenance list in the paper's Table II style:
    /// `NetFlow: {...} ->Process: a.exe ->Process: b.exe`.
    pub fn display_list(&self, id: ListId) -> String {
        let tags = self.interner.tags(id);
        if tags.is_empty() {
            return "<untainted>".to_string();
        }
        tags.iter()
            .map(|&t| self.tables.display_tag(t))
            .collect::<Vec<_>>()
            .join(" ->")
    }

    // --- Table I propagation rules ---

    /// Returns `true` when the zero-taint fast path applies: no shadow byte
    /// anywhere (memory or registers) is tainted and no control-dependency
    /// context is open, so `copy`/`union`/`delete`/`addr_dep` provably
    /// cannot change shadow state. The rules that write shadow state check
    /// it themselves (counting a fast-path hit or miss), so callers need
    /// not.
    #[inline]
    pub fn propagation_is_noop(&self) -> bool {
        self.shadow.is_clean() && self.control_ctx.is_empty()
    }

    /// Counts one fast-path decision; returns `true` on a hit (skip).
    #[inline]
    fn fast_path(&mut self) -> bool {
        if self.propagation_is_noop() {
            self.ctr.fastpath.hit(&mut self.metrics);
            true
        } else {
            self.ctr.fastpath.miss(&mut self.metrics);
            false
        }
    }

    fn control_adjust(&mut self, id: ListId) -> ListId {
        if self.mode.control_deps && !self.control_ctx.is_empty() {
            self.interner.union(id, self.control_ctx)
        } else {
            id
        }
    }

    /// Union of all source bytes' lists (shared by `union_into`,
    /// `addr_dep_bytes` and `note_flags`).
    ///
    /// A source range that runs past a register's last byte contributes
    /// only its in-range bytes: reading "past" a register yields no
    /// provenance. (The old `offset` clamp silently re-read byte 3 for each
    /// out-of-range index — the aliasing bug.)
    fn union_srcs(&mut self, srcs: &[(ShadowAddr, u8)]) -> ListId {
        let mut acc = ListId::EMPTY;
        for &(src, len) in srcs {
            for i in 0..len {
                let Some(byte) = src.checked_offset(i) else { break };
                let id = self.shadow.get(byte);
                acc = self.interner.union(acc, id);
            }
        }
        acc
    }

    /// `copy(a, b)`: `prov(a) <- prov(b)`, byte-wise for `len` bytes.
    ///
    /// Register ranges are bounds-checked per byte: a destination byte past
    /// the register's end is skipped (there is no such shadow cell), and a
    /// source byte past the end reads as untainted — matching the machine,
    /// where no data actually moves for those bytes.
    pub fn copy(&mut self, dst: ShadowAddr, src: ShadowAddr, len: u8) {
        self.metrics.add(self.ctr.copies, len as u64);
        if self.fast_path() {
            return;
        }
        for i in 0..len {
            let Some(dst_byte) = dst.checked_offset(i) else { break };
            let id = match src.checked_offset(i) {
                Some(src_byte) => self.shadow.get(src_byte),
                None => ListId::EMPTY,
            };
            let id = self.control_adjust(id);
            self.shadow.set(dst_byte, id);
        }
    }

    /// Batched load propagation: `prov(reg[i]) <- prov(phys[i])` for each
    /// translated physical byte of a memory read. The bytes need not be
    /// physically contiguous — a page-crossing access lands each byte on
    /// its own frame.
    pub fn copy_mem_to_reg(&mut self, reg_index: u8, phys: &[u32]) {
        self.metrics.add(self.ctr.copies, phys.len() as u64);
        if self.fast_path() {
            return;
        }
        for (i, &p) in phys.iter().enumerate() {
            let id = self.shadow.get(ShadowAddr::Mem(p));
            let id = self.control_adjust(id);
            self.shadow.set(ShadowAddr::Reg { index: reg_index, off: i as u8 }, id);
        }
    }

    /// Batched store propagation: `prov(phys[i]) <- prov(reg[i])` for each
    /// translated physical byte of a memory write (page-crossing safe).
    pub fn copy_reg_to_mem(&mut self, phys: &[u32], reg_index: u8) {
        self.metrics.add(self.ctr.copies, phys.len() as u64);
        if self.fast_path() {
            return;
        }
        for (i, &p) in phys.iter().enumerate() {
            let id = self.shadow.get(ShadowAddr::Reg { index: reg_index, off: i as u8 });
            let id = self.control_adjust(id);
            self.shadow.set(ShadowAddr::Mem(p), id);
        }
    }

    /// `union(a, b, c)`: every destination byte receives the union of all
    /// source bytes' lists (unioned with its own if `keep_dst`).
    pub fn union_into(
        &mut self,
        dst: ShadowAddr,
        dst_len: u8,
        srcs: &[(ShadowAddr, u8)],
        keep_dst: bool,
    ) {
        self.metrics.inc(self.ctr.unions);
        if self.fast_path() {
            return;
        }
        let acc = self.union_srcs(srcs);
        for i in 0..dst_len {
            let Some(byte_dst) = dst.checked_offset(i) else { break };
            let merged = if keep_dst {
                let cur = self.shadow.get(byte_dst);
                self.interner.union(cur, acc)
            } else {
                acc
            };
            let merged = self.control_adjust(merged);
            self.shadow.set(byte_dst, merged);
        }
    }

    /// `delete(a)`: `prov(a) <- ∅` for `len` bytes (immediates, `xor r, r`).
    ///
    /// Under the conservative control-dependency mode a "delete" inside a
    /// tainted branch still leaks the branch condition, so the control
    /// context is written instead of the empty list — this is precisely the
    /// bit-copy channel of the paper's Fig. 2.
    pub fn delete(&mut self, dst: ShadowAddr, len: u8) {
        self.metrics.add(self.ctr.deletes, len as u64);
        if self.fast_path() {
            return;
        }
        for i in 0..len {
            let Some(dst_byte) = dst.checked_offset(i) else { break };
            let id = self.control_adjust(ListId::EMPTY);
            self.shadow.set(dst_byte, id);
        }
    }

    /// Range `delete`: `prov(phys + i) <- ∅` for `len` consecutive physical
    /// bytes, clamped at the top of the address space. Same control-context
    /// semantics as [`TaintEngine::delete`], but one bulk shadow fill for
    /// the whole range — this is the kernel-write path (image loads, guest
    /// I/O), which clears tens of kilobytes per replay.
    pub fn delete_range(&mut self, phys: u32, len: usize) {
        let len = Self::clamp_range(phys, len);
        self.metrics.add(self.ctr.deletes, len as u64);
        if self.fast_path() {
            return;
        }
        let id = self.control_adjust(ListId::EMPTY);
        self.shadow.fill_mem_range(phys, len, id);
    }

    /// Batched `delete` over translated physical bytes (page-crossing
    /// safe): `prov(phys[i]) <- ∅`.
    pub fn delete_mem(&mut self, phys: &[u32]) {
        self.metrics.add(self.ctr.deletes, phys.len() as u64);
        if self.fast_path() {
            return;
        }
        for &p in phys {
            let id = self.control_adjust(ListId::EMPTY);
            self.shadow.set(ShadowAddr::Mem(p), id);
        }
    }

    /// An address dependency observed: a value at `dst` was accessed through
    /// an address computed from `srcs`. Propagated only when
    /// [`PropagationMode::address_deps`] is set.
    ///
    /// `dst.checked_offset(i)` must be the i-th affected byte, so a memory
    /// `dst` must be physically contiguous — for a page-crossing memory
    /// operand use [`TaintEngine::addr_dep_bytes`] with the translated per-byte
    /// physical addresses instead.
    pub fn addr_dep(&mut self, dst: ShadowAddr, dst_len: u8, srcs: &[(ShadowAddr, u8)]) {
        self.metrics.inc(self.ctr.addr_deps);
        if self.mode.address_deps {
            self.union_into(dst, dst_len, srcs, true);
        }
    }

    /// Address dependency over translated physical bytes: each byte of the
    /// accessed memory receives the union of the address registers'
    /// provenance, landing on the byte's *own* frame. This is the
    /// page-crossing-correct form of [`TaintEngine::addr_dep`] for memory
    /// destinations: `addr_dep(Mem(phys[0]), w, ..)` would assume the `w`
    /// bytes are contiguous and taint the wrong frame past a page boundary.
    pub fn addr_dep_bytes(&mut self, phys: &[u32], srcs: &[(ShadowAddr, u8)]) {
        self.metrics.inc(self.ctr.addr_deps);
        if !self.mode.address_deps {
            return;
        }
        self.metrics.inc(self.ctr.unions);
        if self.fast_path() {
            return;
        }
        let acc = self.union_srcs(srcs);
        for &p in phys {
            let byte_dst = ShadowAddr::Mem(p);
            let cur = self.shadow.get(byte_dst);
            let merged = self.interner.union(cur, acc);
            let merged = self.control_adjust(merged);
            self.shadow.set(byte_dst, merged);
        }
    }

    // --- control-dependency scaffolding ---

    /// Records the provenance feeding the flags register (called at `cmp` /
    /// `test` when control-dependency tracking is on).
    pub fn note_flags(&mut self, srcs: &[(ShadowAddr, u8)]) {
        if !self.mode.control_deps {
            return;
        }
        self.flags_prov = self.union_srcs(srcs);
    }

    /// Builds the taint map: every tainted physical byte, coalesced into
    /// runs of identical provenance, in address order. This is the
    /// "visibility into how information flows in a live system" view an
    /// analyst browses after a replay. The paged shadow iterates in
    /// ascending address order, so no sort is needed.
    pub fn tainted_regions(&self) -> Vec<TaintedRegion> {
        let mut out: Vec<TaintedRegion> = Vec::new();
        for (addr, list) in self.shadow.iter_mem() {
            match out.last_mut() {
                Some(last)
                    if u64::from(last.phys) + u64::from(last.len) == u64::from(addr)
                        && last.list == list =>
                {
                    last.len += 1;
                }
                _ => out.push(TaintedRegion { phys: addr, len: 1, list }),
            }
        }
        out
    }

    /// Opens a branch scope: subsequent writes are unioned with the taint of
    /// the comparison that decided the branch.
    pub fn enter_branch_scope(&mut self) {
        if self.mode.control_deps {
            self.control_ctx = self.flags_prov;
        }
    }

    /// Closes the current branch scope.
    pub fn exit_branch_scope(&mut self) {
        self.control_ctx = ListId::EMPTY;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::NetflowTag;

    fn engine_with_nf(mode: PropagationMode) -> (TaintEngine, ProvTag) {
        let mut e = TaintEngine::new(mode);
        let nf = e
            .tables_mut()
            .intern_netflow(NetflowTag {
                src_ip: [1, 1, 1, 1],
                src_port: 1,
                dst_ip: [2, 2, 2, 2],
                dst_port: 2,
            })
            .unwrap();
        (e, nf)
    }

    #[test]
    fn copy_rule() {
        let (mut e, nf) = engine_with_nf(PropagationMode::direct_only());
        e.label_fresh(ShadowAddr::Mem(0), nf);
        e.copy(ShadowAddr::Mem(100), ShadowAddr::Mem(0), 1);
        assert_eq!(e.prov_tags(ShadowAddr::Mem(100)), &[nf]);
        // Copying an untainted byte clears the destination.
        e.copy(ShadowAddr::Mem(100), ShadowAddr::Mem(50), 1);
        assert!(e.prov_tags(ShadowAddr::Mem(100)).is_empty());
    }

    #[test]
    fn union_rule_merges_sources() {
        let (mut e, nf) = engine_with_nf(PropagationMode::direct_only());
        let file = e.tables_mut().intern_file("x.bin", 1).unwrap();
        e.label_fresh(ShadowAddr::Mem(0), nf);
        e.label_fresh(ShadowAddr::Mem(1), file);
        e.union_into(
            ShadowAddr::Mem(10),
            1,
            &[(ShadowAddr::Mem(0), 1), (ShadowAddr::Mem(1), 1)],
            false,
        );
        let tags = e.prov_tags(ShadowAddr::Mem(10));
        assert!(tags.contains(&nf) && tags.contains(&file));
    }

    #[test]
    fn union_keep_dst_preserves_existing() {
        let (mut e, nf) = engine_with_nf(PropagationMode::direct_only());
        let file = e.tables_mut().intern_file("x.bin", 1).unwrap();
        e.label_fresh(ShadowAddr::Mem(10), file);
        e.label_fresh(ShadowAddr::Mem(0), nf);
        e.union_into(ShadowAddr::Mem(10), 1, &[(ShadowAddr::Mem(0), 1)], true);
        let tags = e.prov_tags(ShadowAddr::Mem(10));
        assert_eq!(tags, &[file, nf], "dst chronology first, then source");
    }

    #[test]
    fn delete_rule() {
        let (mut e, nf) = engine_with_nf(PropagationMode::direct_only());
        e.label_fresh(ShadowAddr::Mem(0), nf);
        e.delete(ShadowAddr::Mem(0), 1);
        assert!(e.prov_tags(ShadowAddr::Mem(0)).is_empty());
        assert_eq!(e.shadow().tainted_mem_bytes(), 0);
    }

    #[test]
    fn address_deps_off_by_default() {
        let (mut e, nf) = engine_with_nf(PropagationMode::direct_only());
        e.label_fresh(ShadowAddr::Reg { index: 2, off: 0 }, nf);
        e.addr_dep(ShadowAddr::Mem(10), 1, &[(ShadowAddr::Reg { index: 2, off: 0 }, 4)]);
        assert!(e.prov_tags(ShadowAddr::Mem(10)).is_empty());
        assert_eq!(e.stats().addr_deps, 1);
    }

    #[test]
    fn address_deps_propagate_when_enabled() {
        let (mut e, nf) = engine_with_nf(PropagationMode::with_address_deps());
        e.label_fresh(ShadowAddr::Reg { index: 2, off: 0 }, nf);
        e.addr_dep(ShadowAddr::Mem(10), 1, &[(ShadowAddr::Reg { index: 2, off: 0 }, 4)]);
        assert_eq!(e.prov_tags(ShadowAddr::Mem(10)), &[nf]);
    }

    #[test]
    fn control_deps_taint_branch_scoped_writes() {
        let (mut e, nf) = engine_with_nf(PropagationMode::conservative());
        e.label_fresh(ShadowAddr::Reg { index: 0, off: 0 }, nf);
        // cmp eax, 1 — flags now carry eax's provenance.
        e.note_flags(&[(ShadowAddr::Reg { index: 0, off: 0 }, 4)]);
        e.enter_branch_scope();
        // A constant write inside the branch still picks up the taint
        // (paper Fig. 2: the bit-copy loop).
        e.delete(ShadowAddr::Mem(50), 1);
        assert_eq!(e.prov_tags(ShadowAddr::Mem(50)), &[nf]);
        e.exit_branch_scope();
        e.delete(ShadowAddr::Mem(50), 1);
        assert!(e.prov_tags(ShadowAddr::Mem(50)).is_empty());
    }

    #[test]
    fn control_deps_ignored_when_disabled() {
        let (mut e, nf) = engine_with_nf(PropagationMode::direct_only());
        e.label_fresh(ShadowAddr::Reg { index: 0, off: 0 }, nf);
        e.note_flags(&[(ShadowAddr::Reg { index: 0, off: 0 }, 4)]);
        e.enter_branch_scope();
        e.delete(ShadowAddr::Mem(50), 1);
        assert!(
            e.prov_tags(ShadowAddr::Mem(50)).is_empty(),
            "FAROS does not propagate control dependencies"
        );
    }

    #[test]
    fn append_tag_builds_chronology() {
        let (mut e, nf) = engine_with_nf(PropagationMode::direct_only());
        let p1 = e.tables_mut().intern_process(0x1000, "a.exe").unwrap();
        let p2 = e.tables_mut().intern_process(0x2000, "b.exe").unwrap();
        e.label_fresh(ShadowAddr::Mem(0), nf);
        e.append_tag(ShadowAddr::Mem(0), p1);
        e.append_tag(ShadowAddr::Mem(0), p1); // duplicate head: no-op
        e.append_tag(ShadowAddr::Mem(0), p2);
        assert_eq!(e.prov_tags(ShadowAddr::Mem(0)), &[nf, p1, p2]);
    }

    #[test]
    fn display_list_matches_paper_format() {
        let (mut e, nf) = engine_with_nf(PropagationMode::direct_only());
        let p1 = e.tables_mut().intern_process(0x1000, "inject_client.exe").unwrap();
        let p2 = e.tables_mut().intern_process(0x2000, "notepad.exe").unwrap();
        e.label_fresh(ShadowAddr::Mem(0), nf);
        e.append_tag(ShadowAddr::Mem(0), p1);
        e.append_tag(ShadowAddr::Mem(0), p2);
        let s = e.display_list(e.prov_id(ShadowAddr::Mem(0)));
        assert_eq!(
            s,
            "NetFlow: {src ip,port: 1.1.1.1:1, dest ip,port: 2.2.2.2:2} \
             ->Process: inject_client.exe ->Process: notepad.exe"
        );
        assert_eq!(e.display_list(ListId::EMPTY), "<untainted>");
    }

    #[test]
    fn label_range_and_stats() {
        let (mut e, nf) = engine_with_nf(PropagationMode::direct_only());
        e.label_range_fresh(0x100, 16, nf);
        assert_eq!(e.shadow().tainted_mem_bytes(), 16);
        assert_eq!(e.stats().labels, 16);
        for i in 0..16 {
            assert!(e.has_kind(ShadowAddr::Mem(0x100 + i), TagKind::Netflow));
        }
    }

    #[test]
    fn tainted_regions_coalesce_by_provenance() {
        let (mut e, nf) = engine_with_nf(PropagationMode::direct_only());
        let file = e.tables_mut().intern_file("f", 1).unwrap();
        e.label_range_fresh(0x100, 8, nf);
        e.label_range_fresh(0x108, 4, file); // adjacent, different list
        e.label_fresh(ShadowAddr::Mem(0x200), nf); // gap
        let regions = e.tainted_regions();
        assert_eq!(regions.len(), 3);
        assert_eq!((regions[0].phys, regions[0].len), (0x100, 8));
        assert_eq!((regions[1].phys, regions[1].len), (0x108, 4));
        assert_eq!((regions[2].phys, regions[2].len), (0x200, 1));
        assert_eq!(regions[0].list, regions[2].list, "same single-tag list interned once");
        assert_ne!(regions[0].list, regions[1].list);
    }

    #[test]
    fn metrics_snapshot_carries_counters_and_gauges() {
        let (mut e, nf) = engine_with_nf(PropagationMode::direct_only());
        e.label_range_fresh(0x100, 8, nf);
        e.copy(ShadowAddr::Mem(0x200), ShadowAddr::Mem(0x100), 4);
        e.union_into(ShadowAddr::Mem(0x300), 1, &[(ShadowAddr::Mem(0x100), 2)], false);
        let snap = e.metrics_snapshot();
        assert_eq!(snap.counter("taint.labels"), Some(8));
        assert_eq!(snap.counter("taint.copies"), Some(4));
        assert_eq!(snap.counter("taint.unions"), Some(1));
        assert_eq!(
            snap.counter("taint.shadow_tainted_bytes"),
            Some(e.shadow().tainted_mem_bytes() as u64)
        );
        assert!(snap.counter("taint.interner_lists").unwrap() > 0);
        // The stats read-out view agrees with the registry.
        assert_eq!(e.stats().copies, 4);
        let json = e.stats().to_json_value().to_compact();
        assert!(json.contains("\"copies\":4"));
    }

    #[test]
    fn multi_byte_copy_is_bytewise() {
        let (mut e, nf) = engine_with_nf(PropagationMode::direct_only());
        let file = e.tables_mut().intern_file("f", 1).unwrap();
        e.label_fresh(ShadowAddr::Mem(0), nf);
        e.label_fresh(ShadowAddr::Mem(1), file);
        e.copy(ShadowAddr::Mem(100), ShadowAddr::Mem(0), 2);
        assert_eq!(e.prov_tags(ShadowAddr::Mem(100)), &[nf]);
        assert_eq!(e.prov_tags(ShadowAddr::Mem(101)), &[file]);
    }

    #[test]
    fn zero_taint_fast_path_counts_hits_then_misses() {
        let (mut e, nf) = engine_with_nf(PropagationMode::direct_only());
        assert!(e.propagation_is_noop());
        // All propagation rules skip while the system is clean...
        e.copy(ShadowAddr::Mem(100), ShadowAddr::Mem(0), 4);
        e.delete(ShadowAddr::Mem(100), 4);
        e.union_into(ShadowAddr::Mem(200), 1, &[(ShadowAddr::Mem(0), 4)], false);
        let snap = e.metrics_snapshot();
        assert_eq!(snap.counter("taint.fastpath.hits"), Some(3));
        assert_eq!(snap.counter("taint.fastpath.misses"), Some(0));
        // ...but the work counters advance exactly as on the slow path.
        assert_eq!(e.stats().copies, 4);
        assert_eq!(e.stats().deletes, 4);
        assert_eq!(e.stats().unions, 1);
        // First label flips the predicate; the next op takes the slow path.
        e.label_fresh(ShadowAddr::Mem(0), nf);
        assert!(!e.propagation_is_noop());
        e.copy(ShadowAddr::Mem(100), ShadowAddr::Mem(0), 1);
        assert_eq!(e.prov_tags(ShadowAddr::Mem(100)), &[nf]);
        let snap = e.metrics_snapshot();
        assert_eq!(snap.counter("taint.fastpath.misses"), Some(1));
        // Deleting the last tainted byte re-arms the fast path.
        e.delete(ShadowAddr::Mem(0), 1);
        e.delete(ShadowAddr::Mem(100), 1);
        assert!(e.propagation_is_noop());
    }

    #[test]
    fn fast_path_disarmed_by_register_taint() {
        let (mut e, nf) = engine_with_nf(PropagationMode::direct_only());
        e.label_fresh(ShadowAddr::Reg { index: 0, off: 0 }, nf);
        assert!(!e.propagation_is_noop(), "register taint must disarm the fast path");
        e.copy(ShadowAddr::Mem(0x10), ShadowAddr::Reg { index: 0, off: 0 }, 1);
        assert_eq!(e.prov_tags(ShadowAddr::Mem(0x10)), &[nf]);
    }

    #[test]
    fn fast_path_disarmed_by_open_control_context() {
        let (mut e, nf) = engine_with_nf(PropagationMode::conservative());
        e.label_fresh(ShadowAddr::Reg { index: 0, off: 0 }, nf);
        e.note_flags(&[(ShadowAddr::Reg { index: 0, off: 0 }, 4)]);
        e.enter_branch_scope();
        // Clearing the only tainted byte leaves shadow clean, but the open
        // branch scope still forces deletes to write the control context.
        e.delete(ShadowAddr::Reg { index: 0, off: 0 }, 4);
        assert!(!e.propagation_is_noop());
        e.delete(ShadowAddr::Mem(50), 1);
        assert_eq!(e.prov_tags(ShadowAddr::Mem(50)), &[nf]);
    }

    #[test]
    fn batched_copies_match_per_byte_semantics() {
        let (mut e, nf) = engine_with_nf(PropagationMode::direct_only());
        let file = e.tables_mut().intern_file("f", 1).unwrap();
        // A 4-byte run crossing a page boundary: 0x1ffe..0x2002.
        let phys = [0x1ffe, 0x1fff, 0x2000, 0x2001];
        e.label_fresh(ShadowAddr::Mem(0x1fff), nf);
        e.label_fresh(ShadowAddr::Mem(0x2001), file);
        e.copy_mem_to_reg(3, &phys);
        assert!(e.prov_tags(ShadowAddr::Reg { index: 3, off: 0 }).is_empty());
        assert_eq!(e.prov_tags(ShadowAddr::Reg { index: 3, off: 1 }), &[nf]);
        assert!(e.prov_tags(ShadowAddr::Reg { index: 3, off: 2 }).is_empty());
        assert_eq!(e.prov_tags(ShadowAddr::Reg { index: 3, off: 3 }), &[file]);
        assert_eq!(e.stats().copies, 4);
        // Store the register back to a different page-crossing run.
        let dst = [0x4ffe, 0x4fff, 0x5000, 0x5001];
        e.copy_reg_to_mem(&dst, 3);
        assert_eq!(e.prov_tags(ShadowAddr::Mem(0x4fff)), &[nf]);
        assert_eq!(e.prov_tags(ShadowAddr::Mem(0x5001)), &[file]);
        assert!(e.prov_tags(ShadowAddr::Mem(0x4ffe)).is_empty());
        // Batched delete clears the run without touching neighbours.
        e.delete_mem(&dst);
        assert!(e.prov_tags(ShadowAddr::Mem(0x4fff)).is_empty());
        assert!(e.prov_tags(ShadowAddr::Mem(0x5001)).is_empty());
        assert_eq!(e.prov_tags(ShadowAddr::Mem(0x1fff)), &[nf]);
    }

    #[test]
    fn addr_dep_bytes_taints_each_byte_on_its_own_frame() {
        let (mut e, nf) = engine_with_nf(PropagationMode::with_address_deps());
        e.label_fresh(ShadowAddr::Reg { index: 2, off: 0 }, nf);
        // Regression for the page-crossing bug: a 4-byte store at
        // virt 0xffe..0x1002 translates to bytes on two distinct frames.
        let phys = [0x1ffe, 0x1fff, 0x7000, 0x7001];
        e.addr_dep_bytes(&phys, &[(ShadowAddr::Reg { index: 2, off: 0 }, 4)]);
        for &p in &phys {
            assert_eq!(e.prov_tags(ShadowAddr::Mem(p)), &[nf], "byte {p:#x}");
        }
        // The contiguous interpretation would have tainted 0x2000/0x2001.
        assert!(e.prov_tags(ShadowAddr::Mem(0x2000)).is_empty());
        assert!(e.prov_tags(ShadowAddr::Mem(0x2001)).is_empty());
        assert_eq!(e.stats().addr_deps, 1);
        assert_eq!(e.stats().unions, 1);
    }

    #[test]
    fn addr_dep_bytes_respects_direct_only_mode() {
        let (mut e, nf) = engine_with_nf(PropagationMode::direct_only());
        e.label_fresh(ShadowAddr::Reg { index: 2, off: 0 }, nf);
        e.addr_dep_bytes(&[0x1000], &[(ShadowAddr::Reg { index: 2, off: 0 }, 4)]);
        assert!(e.prov_tags(ShadowAddr::Mem(0x1000)).is_empty());
        assert_eq!(e.stats().addr_deps, 1);
        assert_eq!(e.stats().unions, 0);
    }

    #[test]
    fn label_range_clamps_at_top_of_address_space() {
        let (mut e, nf) = engine_with_nf(PropagationMode::direct_only());
        // A range that used to wrap into low memory: 8 bytes from MAX-3.
        e.label_range_fresh(u32::MAX - 3, 8, nf);
        assert_eq!(e.shadow().tainted_mem_bytes(), 4, "clamped at u32::MAX");
        assert!(e.prov_tags(ShadowAddr::Mem(u32::MAX)).contains(&nf));
        assert!(e.prov_tags(ShadowAddr::Mem(0)).is_empty(), "no wrap to low memory");
        assert!(e.prov_tags(ShadowAddr::Mem(3)).is_empty());
        // Same for append_tag_range.
        let p1 = e.tables_mut().intern_process(0x1000, "a.exe").unwrap();
        e.append_tag_range(u32::MAX - 1, 100, p1);
        assert_eq!(e.prov_tags(ShadowAddr::Mem(u32::MAX)), &[nf, p1]);
        assert!(e.prov_tags(ShadowAddr::Mem(0)).is_empty());
        let regions = e.tainted_regions();
        // Two runs at the very top: [MAX-3, MAX-2] with nf, [MAX-1, MAX]
        // with nf->p1. Coalescing near MAX must not overflow.
        assert_eq!(regions.last().map(|r| (r.phys, r.len)), Some((u32::MAX - 1, 2)));
    }
}
