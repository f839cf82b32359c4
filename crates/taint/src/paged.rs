//! Paged shadow memory: a two-level, physically-indexed shadow substrate.
//!
//! The original shadow memory was a `HashMap<u32, ListId>` — one hash
//! lookup per byte per propagation rule, which dominated the replay-side
//! taint overhead (see `BENCH_replay.json`). Low-overhead DIFT substrates
//! (TaintAssembly's linear shadow memory, SpiderPig's cheap dynamic
//! data-flow instrumentation) use dense region-structured shadows instead;
//! this module is that structure for the FAROS reproduction:
//!
//! * a **page directory** indexed by physical frame number (`addr >> 12`),
//!   grown lazily to the highest frame ever tainted;
//! * lazily-allocated **shadow pages** of 4 Ki [`ListId`] cells, one per
//!   guest byte, each carrying a resident tainted-byte count so a page
//!   whose last tainted byte is cleared is freed again;
//! * **uniform pages**: a page that one range fill labels whole (an image
//!   page read from a file, a page-sized receive buffer) holds its single
//!   list and no cell array until a write makes its bytes differ;
//! * a **global tainted-byte counter**, kept exact by `set`, which is what
//!   makes the engine's zero-taint fast path a two-field check.
//!
//! Reads of untainted frames touch no page; writes of [`ListId::EMPTY`]
//! to untainted frames allocate nothing. Iteration is in ascending
//! physical-address order, so the analyst-facing taint map needs no sort.

use crate::provlist::ListId;

/// Bytes covered by one shadow page (matches the guest MMU page size).
pub const SHADOW_PAGE_SIZE: u32 = 4096;

/// log2 of [`SHADOW_PAGE_SIZE`].
const PAGE_SHIFT: u32 = 12;

/// Offset-within-page mask.
const OFFSET_MASK: u32 = SHADOW_PAGE_SIZE - 1;

/// One resident shadow page: a [`ListId`] cell per guest byte of the frame
/// plus the count of non-empty cells — or, while every byte of the frame
/// holds one list, just that list.
#[derive(Debug)]
struct ShadowPage {
    /// Number of cells holding a non-empty list.
    occupied: u32,
    /// Cell per byte, of length [`SHADOW_PAGE_SIZE`]; empty while the page
    /// is uniform.
    cells: Box<[ListId]>,
    /// The list of every byte of a uniform page ([`ListId::EMPTY`] for a
    /// page with cells).
    fill: ListId,
}

impl ShadowPage {
    fn new() -> ShadowPage {
        ShadowPage::with_cells(ListId::EMPTY)
    }

    /// A page whose cells all hold `id`.
    fn with_cells(id: ListId) -> ShadowPage {
        ShadowPage {
            occupied: if id.is_empty() { 0 } else { SHADOW_PAGE_SIZE },
            cells: vec![id; SHADOW_PAGE_SIZE as usize].into_boxed_slice(),
            fill: ListId::EMPTY,
        }
    }

    /// A uniform page: every byte holds `id`, with no cell array.
    fn uniform(id: ListId) -> ShadowPage {
        ShadowPage { occupied: SHADOW_PAGE_SIZE, cells: Box::default(), fill: id }
    }

    #[inline]
    fn get(&self, off: usize) -> ListId {
        match self.cells.get(off) {
            Some(&id) => id,
            None => self.fill,
        }
    }

    /// The page's cells, building the array of a uniform page first.
    fn cells_mut(&mut self) -> &mut [ListId] {
        if self.cells.is_empty() {
            *self = ShadowPage::with_cells(self.fill);
        }
        &mut self.cells
    }
}

/// Upper bound on pages kept in the free-page pool (1 MiB of shadow cells).
/// Freed pages have `occupied == 0`, which by the occupancy invariant means
/// every cell is already [`ListId::EMPTY`] — so a pooled page can be handed
/// back out with no re-zeroing, avoiding the 16 KiB zeroed allocation that
/// otherwise dominates label-heavy replays with delete/relabel churn.
const PAGE_POOL_MAX: usize = 64;

/// The paged shadow memory (see module docs).
///
/// # Examples
///
/// ```
/// use faros_taint::paged::PagedShadow;
/// use faros_taint::provlist::ListId;
///
/// let shadow = PagedShadow::new();
/// assert_eq!(shadow.get(0x1000), ListId::EMPTY);
/// assert!(shadow.is_clean());
/// assert_eq!(shadow.resident_pages(), 0);
/// ```
#[derive(Debug, Default)]
pub struct PagedShadow {
    /// Page directory, indexed by physical frame number. Pages sit in the
    /// directory itself, so a read is one load to the page's cells.
    dir: Vec<Option<ShadowPage>>,
    /// Global count of tainted (non-empty) bytes across all pages.
    tainted: usize,
    /// Freed pages kept for reuse; every pooled page is all-[`ListId::EMPTY`]
    /// (see [`PAGE_POOL_MAX`]). Reuse moves the page's cell pointer, not
    /// the 4 Ki cell array.
    pool: Vec<ShadowPage>,
}

impl PagedShadow {
    /// Creates an all-untainted shadow with no resident pages.
    pub fn new() -> PagedShadow {
        PagedShadow::default()
    }

    /// Reads the cell for one physical byte.
    #[inline]
    pub fn get(&self, addr: u32) -> ListId {
        match self.dir.get((addr >> PAGE_SHIFT) as usize) {
            Some(Some(page)) => page.get((addr & OFFSET_MASK) as usize),
            _ => ListId::EMPTY,
        }
    }

    /// Frees the page in `slot`, whose every byte the caller has cleared,
    /// into the reuse pool.
    fn free_page(pool: &mut Vec<ShadowPage>, slot: &mut Option<ShadowPage>) {
        let mut page = slot.take().expect("freeing a resident page");
        page.fill = ListId::EMPTY;
        if pool.len() < PAGE_POOL_MAX {
            pool.push(page);
        }
    }

    /// Writes the cell for one physical byte, maintaining the per-page
    /// occupancy and the global tainted-byte count. Clearing the last
    /// tainted byte of a page frees the page (into the reuse pool);
    /// clearing an untainted byte allocates nothing.
    #[inline]
    pub fn set(&mut self, addr: u32, id: ListId) {
        let pfn = (addr >> PAGE_SHIFT) as usize;
        let off = (addr & OFFSET_MASK) as usize;
        if id.is_empty() {
            let Some(slot) = self.dir.get_mut(pfn) else { return };
            let Some(page) = slot else { return };
            if page.get(off).is_empty() {
                return;
            }
            page.cells_mut()[off] = ListId::EMPTY;
            page.occupied -= 1;
            self.tainted -= 1;
            if page.occupied == 0 {
                Self::free_page(&mut self.pool, slot);
            }
        } else {
            self.ensure_resident(pfn);
            let page = self.dir[pfn].as_mut().expect("made resident above");
            if page.get(off) == id {
                return;
            }
            let cell = &mut page.cells_mut()[off];
            let fresh = cell.is_empty();
            *cell = id;
            if fresh {
                page.occupied += 1;
                self.tainted += 1;
            }
        }
    }

    /// The directory slot of `pfn`, growing the directory to cover it.
    fn dir_slot(&mut self, pfn: usize) -> &mut Option<ShadowPage> {
        if pfn >= self.dir.len() {
            self.dir.resize_with(pfn + 1, || None);
        }
        &mut self.dir[pfn]
    }

    /// Grows the directory to cover `pfn` and, if the frame is
    /// non-resident, installs a pooled (all-empty) page when one is
    /// available. Returns `true` when the frame is resident afterwards.
    #[inline]
    fn page_resident_or_pooled(&mut self, pfn: usize) -> bool {
        if self.dir_slot(pfn).is_some() {
            return true;
        }
        match self.pool.pop() {
            Some(page) => {
                debug_assert!(
                    page.occupied == 0
                        && page.fill.is_empty()
                        && page.cells.iter().all(|c| c.is_empty()),
                    "pooled pages must be fully cleared"
                );
                self.dir[pfn] = Some(page);
                true
            }
            None => false,
        }
    }

    /// Ensures frame `pfn` has a resident page, reusing a pooled
    /// (all-empty) page when one is available.
    #[inline]
    fn ensure_resident(&mut self, pfn: usize) {
        if !self.page_resident_or_pooled(pfn) {
            self.dir[pfn] = Some(ShadowPage::new());
        }
    }

    /// Writes one [`ListId`] across `len` consecutive physical bytes,
    /// resolving each shadow page once instead of once per byte — the bulk
    /// form of [`PagedShadow::set`] behind range labeling and range
    /// deletes, where the per-byte directory walk used to dominate the
    /// whole-corpus replay cost.
    ///
    /// Semantically identical to `for i in 0..len { set(start + i, id) }`,
    /// including occupancy accounting, freeing fully-cleared pages, and
    /// skipping page allocation for empty writes. The caller must clamp
    /// the range so `start + len` does not exceed the address space (see
    /// `TaintEngine::clamp_range`); a clamped range cannot wrap.
    pub fn fill_range(&mut self, start: u32, len: usize, id: ListId) {
        let mut addr = start as u64;
        let end = addr + len as u64;
        debug_assert!(end <= u32::MAX as u64 + 1, "fill_range must be pre-clamped");
        while addr < end {
            let pfn = (addr >> PAGE_SHIFT) as usize;
            let off = (addr & OFFSET_MASK as u64) as usize;
            let span = ((SHADOW_PAGE_SIZE as usize - off) as u64).min(end - addr) as usize;
            let whole = span == SHADOW_PAGE_SIZE as usize;
            if id.is_empty() {
                // Clearing a non-resident page is free.
                if let Some(slot @ Some(_)) = self.dir.get_mut(pfn) {
                    let page = slot.as_mut().expect("matched Some");
                    // A whole-page or fully-occupied span needs no scan:
                    // every occupied cell, or every cell in the span, is
                    // cleared. Otherwise count and clear in one pass.
                    let cleared = if whole {
                        page.cells.fill(ListId::EMPTY);
                        page.occupied as usize
                    } else if page.occupied == SHADOW_PAGE_SIZE {
                        page.cells_mut()[off..off + span].fill(ListId::EMPTY);
                        span
                    } else {
                        let mut cleared = 0usize;
                        for c in page.cells[off..off + span].iter_mut() {
                            cleared += !c.is_empty() as usize;
                            *c = ListId::EMPTY;
                        }
                        cleared
                    };
                    page.occupied -= cleared as u32;
                    self.tainted -= cleared;
                    if page.occupied == 0 {
                        Self::free_page(&mut self.pool, slot);
                    }
                }
            } else if whole {
                // One list over the whole frame: a new page is uniform and
                // costs no cell array.
                let slot = self.dir_slot(pfn);
                let before = slot.as_ref().map_or(0, |page| page.occupied as usize);
                match slot {
                    Some(page) if page.cells.is_empty() => page.fill = id,
                    Some(page) => {
                        page.cells.fill(id);
                        page.occupied = SHADOW_PAGE_SIZE;
                    }
                    None => *slot = Some(ShadowPage::uniform(id)),
                }
                self.tainted += SHADOW_PAGE_SIZE as usize - before;
            } else if self.page_resident_or_pooled(pfn) {
                let page = self.dir[pfn].as_mut().expect("resident above");
                // An empty page (a reused pooled page) or a fully-occupied
                // one needs no per-cell scan; otherwise count and overwrite
                // in one pass over the span.
                let occupied = page.occupied;
                let cells = &mut page.cells_mut()[off..off + span];
                let fresh = if occupied == 0 {
                    cells.fill(id);
                    span
                } else if occupied == SHADOW_PAGE_SIZE {
                    cells.fill(id);
                    0
                } else {
                    let mut fresh = 0usize;
                    for c in cells.iter_mut() {
                        fresh += c.is_empty() as usize;
                        *c = id;
                    }
                    fresh
                };
                page.occupied += fresh as u32;
                self.tainted += fresh;
            } else {
                // Brand-new page for part of a fresh label.
                let mut page = ShadowPage::new();
                page.cells[off..off + span].fill(id);
                page.occupied = span as u32;
                self.dir[pfn] = Some(page);
                self.tainted += span;
            }
            addr += span as u64;
        }
    }

    /// Decomposes `[start, start + len)` into maximal runs of bytes sharing
    /// one provenance list, as `(run_start, run_len, id)` triples in
    /// address order. Non-resident pages contribute a single
    /// [`ListId::EMPTY`] run without being touched; resident pages are
    /// scanned as a flat cell slice, so the cost is one directory lookup
    /// per page rather than per byte. Bulk read-modify-write operations
    /// (e.g. appending a process tag to a freshly-labeled buffer, which is
    /// one run in practice) pair this with [`PagedShadow::fill_range`].
    ///
    /// The caller must pre-clamp the range, as for `fill_range`.
    pub fn runs(&self, start: u32, len: usize) -> Vec<(u32, usize, ListId)> {
        let mut out: Vec<(u32, usize, ListId)> = Vec::new();
        let mut push = |addr: u32, span: usize, id: ListId| match out.last_mut() {
            Some(last) if last.2 == id && last.0 as u64 + last.1 as u64 == addr as u64 => {
                last.1 += span;
            }
            _ => out.push((addr, span, id)),
        };
        let mut addr = start as u64;
        let end = addr + len as u64;
        debug_assert!(end <= u32::MAX as u64 + 1, "runs must be pre-clamped");
        while addr < end {
            let pfn = (addr >> PAGE_SHIFT) as usize;
            let off = (addr & OFFSET_MASK as u64) as usize;
            let span = ((SHADOW_PAGE_SIZE as usize - off) as u64).min(end - addr) as usize;
            match self.dir.get(pfn) {
                Some(Some(page)) if page.cells.is_empty() => push(addr as u32, span, page.fill),
                Some(Some(page)) => {
                    let cells = &page.cells[off..off + span];
                    let mut i = 0;
                    while i < span {
                        let id = cells[i];
                        let mut j = i + 1;
                        while j < span && cells[j] == id {
                            j += 1;
                        }
                        push(addr as u32 + i as u32, j - i, id);
                        i = j;
                    }
                }
                _ => push(addr as u32, span, ListId::EMPTY),
            }
            addr += span as u64;
        }
        out
    }

    /// Exact number of tainted bytes across all pages.
    #[inline]
    pub fn tainted_bytes(&self) -> usize {
        self.tainted
    }

    /// Returns `true` when no byte anywhere is tainted — the zero-taint
    /// fast-path predicate.
    #[inline]
    pub fn is_clean(&self) -> bool {
        self.tainted == 0
    }

    /// Number of resident (allocated) shadow pages.
    pub fn resident_pages(&self) -> usize {
        self.dir.iter().filter(|p| p.is_some()).count()
    }

    /// Returns `true` when the page covering `addr` is resident (i.e. at
    /// least one byte of its frame is tainted).
    #[inline]
    pub fn page_resident(&self, addr: u32) -> bool {
        matches!(self.dir.get((addr >> PAGE_SHIFT) as usize), Some(Some(_)))
    }

    /// Iterates over tainted bytes as `(phys_addr, list)` pairs in
    /// ascending physical-address order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, ListId)> + '_ {
        self.dir
            .iter()
            .enumerate()
            .filter_map(|(pfn, slot)| slot.as_ref().map(|page| (pfn, page)))
            .flat_map(|(pfn, page)| {
                let base = (pfn as u32) << PAGE_SHIFT;
                (0..SHADOW_PAGE_SIZE as usize).filter_map(move |off| {
                    let cell = page.get(off);
                    (!cell.is_empty()).then_some((base | off as u32, cell))
                })
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lid(n: u32) -> ListId {
        ListId::from_raw(n)
    }

    #[test]
    fn get_set_round_trip_and_counts() {
        let mut s = PagedShadow::new();
        s.set(0x1234, lid(7));
        assert_eq!(s.get(0x1234), lid(7));
        assert_eq!(s.get(0x1235), ListId::EMPTY);
        assert_eq!(s.tainted_bytes(), 1);
        assert!(!s.is_clean());
        // Overwriting with another list does not double-count.
        s.set(0x1234, lid(9));
        assert_eq!(s.tainted_bytes(), 1);
    }

    #[test]
    fn clearing_last_byte_frees_the_page() {
        let mut s = PagedShadow::new();
        s.set(0x2000, lid(1));
        s.set(0x2fff, lid(2));
        assert_eq!(s.resident_pages(), 1);
        assert!(s.page_resident(0x2abc));
        s.set(0x2000, ListId::EMPTY);
        assert_eq!(s.resident_pages(), 1, "one tainted byte keeps the page");
        s.set(0x2fff, ListId::EMPTY);
        assert_eq!(s.resident_pages(), 0, "fully-cleared page is freed");
        assert!(s.is_clean());
        assert!(!s.page_resident(0x2abc));
    }

    #[test]
    fn clearing_untainted_bytes_allocates_nothing() {
        let mut s = PagedShadow::new();
        s.set(0xffff_0000, ListId::EMPTY);
        assert_eq!(s.resident_pages(), 0);
        assert!(s.is_clean());
        // The directory did not grow either: a high clear is free.
        assert_eq!(s.dir.len(), 0);
    }

    #[test]
    fn pages_are_independent_across_frames() {
        let mut s = PagedShadow::new();
        // Two adjacent physical bytes on different frames.
        s.set(0x1fff, lid(3));
        s.set(0x2000, lid(4));
        assert_eq!(s.resident_pages(), 2);
        assert_eq!(s.get(0x1fff), lid(3));
        assert_eq!(s.get(0x2000), lid(4));
    }

    #[test]
    fn iteration_is_in_ascending_address_order() {
        let mut s = PagedShadow::new();
        for &a in &[0x5001u32, 0x1002, 0x1000, 0x5000, 0x3fff] {
            s.set(a, lid(a));
        }
        let got: Vec<u32> = s.iter().map(|(a, _)| a).collect();
        assert_eq!(got, vec![0x1000, 0x1002, 0x3fff, 0x5000, 0x5001]);
    }

    #[test]
    fn fill_range_matches_per_byte_set() {
        // Differential: fill_range over a page-crossing span must leave the
        // shadow in exactly the state a per-byte set loop would.
        let spans: &[(u32, usize)] =
            &[(0x1ff0, 0x30), (0x0, 0x1000), (0x2fff, 1), (0x3000, 0x2001)];
        for &(start, len) in spans {
            let mut bulk = PagedShadow::new();
            let mut byte = PagedShadow::new();
            // Pre-taint a scattered backdrop so fills overwrite a mix of
            // empty and occupied cells.
            for a in (0..0x6000u32).step_by(7) {
                bulk.set(a, lid(a + 1));
                byte.set(a, lid(a + 1));
            }
            bulk.fill_range(start, len, lid(42));
            for i in 0..len {
                byte.set(start + i as u32, lid(42));
            }
            assert_eq!(bulk.tainted_bytes(), byte.tainted_bytes(), "span {start:#x}+{len:#x}");
            assert_eq!(
                bulk.iter().collect::<Vec<_>>(),
                byte.iter().collect::<Vec<_>>(),
                "span {start:#x}+{len:#x}"
            );
            // And clearing the same span must too (including freeing pages).
            bulk.fill_range(start, len, ListId::EMPTY);
            for i in 0..len {
                byte.set(start + i as u32, ListId::EMPTY);
            }
            assert_eq!(bulk.iter().collect::<Vec<_>>(), byte.iter().collect::<Vec<_>>());
            assert_eq!(bulk.resident_pages(), byte.resident_pages());
        }
    }

    /// Fills `[start, start + len)` in `bulk` with one `fill_range` and in
    /// `bytes` one `set` at a time, then checks they read the same.
    fn fill_both(
        bulk: &mut PagedShadow,
        bytes: &mut PagedShadow,
        start: u32,
        len: usize,
        id: ListId,
    ) {
        bulk.fill_range(start, len, id);
        for a in start..start + len as u32 {
            bytes.set(a, id);
        }
        assert_eq!(bulk.tainted_bytes(), bytes.tainted_bytes());
        assert_eq!(bulk.resident_pages(), bytes.resident_pages());
        assert_eq!(bulk.iter().collect::<Vec<_>>(), bytes.iter().collect::<Vec<_>>());
        assert_eq!(bulk.runs(0x1f00, 0x5200), bytes.runs(0x1f00, 0x5200));
    }

    #[test]
    fn uniform_pages_read_and_change_like_cell_pages() {
        // A whole-page fill keeps one list and no cells; every later write
        // must leave the state a per-byte set loop leaves.
        let (mut bulk, mut bytes) = (PagedShadow::new(), PagedShadow::new());
        let uniform =
            |s: &PagedShadow, pfn: usize| s.dir[pfn].as_ref().is_some_and(|p| p.cells.is_empty());
        fill_both(&mut bulk, &mut bytes, 0x2000, 0x1000, lid(4));
        assert!(uniform(&bulk, 2), "no cell array");
        assert_eq!(bulk.get(0x2abc), lid(4));
        // Refilled whole, with the same list or another: still uniform.
        fill_both(&mut bulk, &mut bytes, 0x2000, 0x1000, lid(4));
        fill_both(&mut bulk, &mut bytes, 0x2000, 0x1000, lid(5));
        assert!(uniform(&bulk, 2));
        // A partial clear and a partial overwrite build the cells.
        fill_both(&mut bulk, &mut bytes, 0x2010, 4, ListId::EMPTY);
        fill_both(&mut bulk, &mut bytes, 0x2ff0, 0x20, lid(6));
        assert!(!uniform(&bulk, 2));
        // Clearing whole pages frees them into the pool, clean.
        fill_both(&mut bulk, &mut bytes, 0x2000, 0x1000, ListId::EMPTY);
        fill_both(&mut bulk, &mut bytes, 0x3000, 0x10, ListId::EMPTY);
        assert!(bulk.is_clean());
        assert_eq!(bulk.pool.len(), 2);
        // A freed uniform page comes back from the pool clean too.
        fill_both(&mut bulk, &mut bytes, 0x5000, 0x1000, lid(7));
        fill_both(&mut bulk, &mut bytes, 0x5000, 0x1000, ListId::EMPTY);
        bulk.set(0x6001, lid(8));
        assert_eq!(bulk.iter().collect::<Vec<_>>(), vec![(0x6001, lid(8))]);
        assert_eq!(bulk.get(0x6000), ListId::EMPTY);
    }

    #[test]
    fn fill_range_of_empty_allocates_nothing() {
        let mut s = PagedShadow::new();
        s.fill_range(0x10_0000, 0x5000, ListId::EMPTY);
        assert_eq!(s.resident_pages(), 0);
        assert_eq!(s.dir.len(), 0, "clearing untouched frames must not grow the directory");
    }

    #[test]
    fn fill_range_reaches_top_of_address_space() {
        let mut s = PagedShadow::new();
        s.fill_range(u32::MAX - 15, 16, lid(3));
        assert_eq!(s.tainted_bytes(), 16);
        assert_eq!(s.get(u32::MAX), lid(3));
        s.fill_range(u32::MAX - 15, 16, ListId::EMPTY);
        assert!(s.is_clean());
    }

    #[test]
    fn freed_pages_are_reused_from_the_pool() {
        let mut s = PagedShadow::new();
        s.fill_range(0x3000, 0x1000, lid(5));
        s.fill_range(0x3000, 0x1000, ListId::EMPTY);
        assert_eq!(s.resident_pages(), 0);
        assert_eq!(s.pool.len(), 1, "freed page lands in the pool");
        // Reuse on a *different* frame: the pooled page must come back
        // fully cleared, so stale cells from its previous life are invisible.
        s.set(0x7abc, lid(9));
        assert_eq!(s.pool.len(), 0, "allocation drains the pool first");
        assert_eq!(s.tainted_bytes(), 1);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(0x7abc, lid(9))]);
    }

    #[test]
    fn full_page_fast_paths_keep_counts_exact() {
        // Exercise the occupied == SHADOW_PAGE_SIZE shortcuts in both fill
        // directions.
        let mut s = PagedShadow::new();
        s.fill_range(0x2000, SHADOW_PAGE_SIZE as usize, lid(1));
        assert_eq!(s.tainted_bytes(), SHADOW_PAGE_SIZE as usize);
        s.fill_range(0x2100, 0x100, lid(2));
        assert_eq!(s.tainted_bytes(), SHADOW_PAGE_SIZE as usize, "overwrite adds nothing");
        s.fill_range(0x2100, 0x100, ListId::EMPTY);
        assert_eq!(s.tainted_bytes(), SHADOW_PAGE_SIZE as usize - 0x100);
        s.fill_range(0x2000, SHADOW_PAGE_SIZE as usize, ListId::EMPTY);
        assert!(s.is_clean());
        assert_eq!(s.resident_pages(), 0);
    }

    #[test]
    fn top_of_address_space_is_addressable() {
        let mut s = PagedShadow::new();
        s.set(u32::MAX, lid(1));
        assert_eq!(s.get(u32::MAX), lid(1));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(u32::MAX, lid(1))]);
        s.set(u32::MAX, ListId::EMPTY);
        assert!(s.is_clean());
        assert_eq!(s.resident_pages(), 0);
    }
}
