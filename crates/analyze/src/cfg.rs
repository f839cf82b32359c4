//! Disassembly and CFG recovery over FDL images.
//!
//! Two classic passes over every executable section:
//!
//! 1. **Recursive descent** from the image entry point and every export
//!    whose VA lands in code, following direct control flow (`jmp`/`jcc`/
//!    `call` targets plus fall-through). Everything found here is
//!    *reachable* code.
//! 2. **Linear sweep** over the bytes the descent never visited, decoding
//!    greedily and resynchronizing on decode errors. Everything found only
//!    here is *sweep* code — possibly data, possibly functions reached
//!    exclusively through indirect calls. A zero byte decodes as a
//!    one-byte `nop`, so the sweep charts each maximal run of zero bytes
//!    it meets (section padding, mostly) as one range instead of one
//!    instruction per byte: a block records the run in
//!    [`BasicBlock::nop_runs`], not in [`BasicBlock::instrs`].
//!
//! Instructions are then grouped into basic blocks at the usual leaders
//! (roots, branch targets, instructions following a block-ender), mirroring
//! the dynamic notion of a block in `Instr::ends_block`, so static block
//! starts and replay-observed block starts live in the same vocabulary.

use faros_emu::encode::decode_at;
use faros_emu::isa::Instr;
use faros_kernel::module::{FdlImage, Section};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One recovered basic block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// VA of the first instruction.
    pub start: u32,
    /// One past the last instruction byte.
    pub end: u32,
    /// The block's instructions, in address order, except the `nop`s of
    /// its [`nop_runs`](Self::nop_runs).
    pub instrs: Vec<(u32, Instr)>,
    /// Runs of zero bytes the sweep charted, as `[start, end)` ranges in
    /// address order. Every byte of a run is a one-byte `nop` instruction
    /// of this block, and none of them is listed in `instrs`.
    pub nop_runs: Vec<(u32, u32)>,
    /// Statically known successor block-start VAs (direct targets and
    /// fall-throughs; empty for `ret`/`hlt`/indirect jumps).
    pub succs: Vec<u32>,
    /// Found by recursive descent (`true`) or only by the linear sweep.
    pub reachable: bool,
}

impl BasicBlock {
    /// Returns `true` if every instruction is a `nop` — section padding,
    /// not code worth reporting.
    pub fn is_padding(&self) -> bool {
        self.instrs.iter().all(|(_, i)| *i == Instr::Nop)
    }

    /// The number of instructions in the block, one per byte of its `nop`
    /// runs included.
    pub fn instr_count(&self) -> usize {
        let run_bytes: u32 = self.nop_runs.iter().map(|&(s, e)| e - s).sum();
        self.instrs.len() + run_bytes as usize
    }
}

/// An indirect control-flow site (`call reg` / `jmp reg`) — statically
/// unresolvable by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndirectSite {
    /// VA of the indirect instruction.
    pub va: u32,
    /// The instruction itself.
    pub instr: Instr,
    /// Whether recursive descent reached it.
    pub reachable: bool,
}

/// Disjoint half-open VA ranges `[start, end)`, keyed by start: a
/// one-byte range per listed instruction start, one range per `nop` run.
#[derive(Debug, Clone, Default)]
struct Spans(BTreeMap<u32, u32>);

impl Spans {
    fn insert(&mut self, start: u32, end: u32) {
        self.0.insert(start, end);
    }

    fn contains(&self, va: u32) -> bool {
        self.0.range(..=va).next_back().is_some_and(|(_, &end)| va < end)
    }
}

/// The static model of one module.
#[derive(Debug, Clone)]
pub struct ModuleCfg {
    /// Module name the model was built for.
    pub name: String,
    /// Recovered basic blocks, keyed by start VA.
    pub blocks: BTreeMap<u32, BasicBlock>,
    /// Direct call edges as `(call-site VA, callee VA)` pairs — the static
    /// call graph.
    pub call_edges: Vec<(u32, u32)>,
    /// Indirect control-flow sites.
    pub indirect_sites: Vec<IndirectSite>,
    /// Statically resolved target sets for indirect sites, keyed by site
    /// VA — filled in by [`ModuleCfg::splice_resolved`] (targets may lie
    /// outside the image, e.g. a JIT buffer or another module).
    pub resolved_targets: BTreeMap<u32, Vec<u32>>,
    instr_starts: Spans,
    reachable_starts: Spans,
}

/// One piece of recovered code, before blocks are formed: an instruction,
/// or a run of zero bytes the sweep charted.
struct Piece {
    va: u32,
    /// One past its last byte.
    end: u32,
    /// The instruction; `None` for a `nop` run.
    instr: Option<Instr>,
    /// A basic block starts here.
    leader: bool,
    /// Recursive descent decoded it.
    reachable: bool,
}

impl ModuleCfg {
    /// Builds the static model of `image`.
    pub fn recover(name: &str, image: &FdlImage) -> ModuleCfg {
        // Sections never overlap (`FdlImage::parse` rejects it), so a VA
        // has at most one section.
        let locate = |va: u32| image.section_containing(va).filter(|s| s.is_code());
        let decode = |s: &Section, va: u32| -> Option<(Instr, u32)> {
            let (instr, len) = decode_at(&s.data, (va - s.va) as usize).ok()?;
            // An instruction must not run past its section.
            (u64::from(va) + len as u64 <= u64::from(s.end_va())).then_some((instr, len as u32))
        };
        let mut leaders: BTreeSet<u32> = BTreeSet::new();
        let mut call_edges = Vec::new();
        let mut indirect_sites = Vec::new();

        // Pass 1: recursive descent from the entry point and code exports.
        let mut descent: BTreeMap<u32, (Instr, u32)> = BTreeMap::new();
        let mut worklist: VecDeque<u32> = VecDeque::new();
        if image.is_code_va(image.entry) {
            worklist.push_back(image.entry);
        }
        worklist.extend(image.exports.iter().map(|e| e.va).filter(|&va| image.is_code_va(va)));
        leaders.extend(worklist.iter().copied());
        while let Some(va) = worklist.pop_front() {
            let Some(s) = locate(va) else { continue };
            if descent.contains_key(&va) {
                continue;
            }
            let Some((instr, len)) = decode(s, va) else { continue };
            descent.insert(va, (instr, len));
            let next = va.wrapping_add(len);
            let target = |rel: i32| next.wrapping_add(rel as u32);
            match instr {
                Instr::Jmp { rel } => {
                    leaders.insert(target(rel));
                    worklist.push_back(target(rel));
                }
                Instr::Jcc { rel, .. } => {
                    leaders.extend([target(rel), next]);
                    worklist.extend([target(rel), next]);
                }
                Instr::Call { rel } => {
                    call_edges.push((va, target(rel)));
                    leaders.extend([target(rel), next]);
                    worklist.extend([target(rel), next]);
                }
                Instr::CallReg { .. } => {
                    indirect_sites.push(IndirectSite { va, instr, reachable: true });
                    leaders.insert(next);
                    worklist.push_back(next);
                }
                Instr::JmpReg { .. } => {
                    indirect_sites.push(IndirectSite { va, instr, reachable: true });
                }
                Instr::Int { .. } => {
                    // Syscalls return to the next instruction.
                    leaders.insert(next);
                    worklist.push_back(next);
                }
                Instr::Ret | Instr::Hlt => {}
                _ => {
                    worklist.push_back(next);
                }
            }
        }
        // Every leader is a descent instruction or a VA neither pass
        // charts, so only descent pieces look the leaders up.
        let mut pieces: Vec<Piece> = descent
            .iter()
            .map(|(&va, &(instr, len))| Piece {
                va,
                end: va + len,
                instr: Some(instr),
                leader: leaders.contains(&va),
                reachable: true,
            })
            .collect();

        // Pass 2: linear sweep over the bytes descent never reached. The
        // first piece decoded after a gap starts a block.
        for s in image.code_sections() {
            let mut va = s.va;
            let mut synced = false;
            while va < s.end_va() {
                if let Some(&(_, len)) = descent.get(&va) {
                    va += len;
                    synced = false;
                    continue;
                }
                let off = (va - s.va) as usize;
                if s.data[off] == 0 {
                    // Zero bytes decode as one-byte `nop`s: chart them up to
                    // the next non-zero byte or descent instruction at once.
                    let limit = descent.range(va..).next().map_or(s.end_va(), |(&d, _)| d);
                    let zeros = s.data[off..(limit.min(s.end_va()) - s.va) as usize]
                        .iter()
                        .take_while(|&&b| b == 0)
                        .count() as u32;
                    let end = va + zeros;
                    pieces.push(Piece { va, end, instr: None, leader: !synced, reachable: false });
                    synced = true;
                    va = end;
                    continue;
                }
                let Some((instr, len)) = decode(s, va) else {
                    va += 1;
                    synced = false;
                    continue;
                };
                pieces.push(Piece {
                    va,
                    end: va + len,
                    instr: Some(instr),
                    leader: !synced,
                    reachable: false,
                });
                synced = true;
                if matches!(instr, Instr::CallReg { .. } | Instr::JmpReg { .. }) {
                    indirect_sites.push(IndirectSite { va, instr, reachable: false });
                }
                va += len;
            }
        }
        // Address order (sections need not be listed in VA order).
        pieces.sort_unstable_by_key(|p| p.va);
        // An instruction starts at its first byte; a run at every byte.
        let starts = |p: &Piece| (p.va, if p.instr.is_some() { p.va + 1 } else { p.end });
        let instr_starts = Spans(pieces.iter().map(starts).collect());
        let reachable_starts = Spans(pieces.iter().filter(|p| p.reachable).map(starts).collect());

        // Group the pieces into blocks at the leaders.
        let mut blocks: BTreeMap<u32, BasicBlock> = BTreeMap::new();
        let mut current: Option<BasicBlock> = None;
        let mut expected_next: u32 = 0;
        for p in pieces {
            let continues = current.is_some() && p.va == expected_next && !p.leader;
            if !continues {
                if let Some(mut b) = current.take() {
                    // A block cut short by a leader (not by a block-ending
                    // instruction) falls through into that leader.
                    if b.succs.is_empty()
                        && b.end == p.va
                        && !b.instrs.last().is_some_and(|(_, i)| i.ends_block())
                    {
                        b.succs = vec![p.va];
                    }
                    blocks.insert(b.start, b);
                }
                current = Some(BasicBlock {
                    start: p.va,
                    end: p.va,
                    instrs: Vec::new(),
                    nop_runs: Vec::new(),
                    succs: Vec::new(),
                    reachable: p.reachable,
                });
            }
            let b = current.as_mut().expect("block opened above");
            b.end = p.end;
            expected_next = b.end;
            let Some(instr) = p.instr else {
                b.nop_runs.push((p.va, p.end));
                continue;
            };
            b.instrs.push((p.va, instr));
            if instr.ends_block() {
                let next = b.end;
                let target = |rel: i32| next.wrapping_add(rel as u32);
                b.succs = match instr {
                    Instr::Jmp { rel } => vec![target(rel)],
                    Instr::Jcc { rel, .. } => vec![target(rel), next],
                    Instr::Call { rel } => vec![target(rel), next],
                    Instr::CallReg { .. } | Instr::Int { .. } => vec![next],
                    _ => Vec::new(),
                };
                blocks.insert(b.start, current.take().expect("current set"));
            }
        }
        if let Some(b) = current.take() {
            blocks.insert(b.start, b);
        }

        ModuleCfg {
            name: name.to_string(),
            blocks,
            call_edges,
            indirect_sites,
            resolved_targets: BTreeMap::new(),
            instr_starts,
            reachable_starts,
        }
    }

    /// Start VA of the block whose byte range contains `va`.
    fn block_containing(&self, va: u32) -> Option<u32> {
        let (&start, b) = self.blocks.range(..=va).next_back()?;
        (va < b.end).then_some(start)
    }

    /// Splits the block containing `va` so that `va` becomes a block
    /// start (a new leader discovered after recovery — e.g. a resolved
    /// indirect-branch target landing mid-block or inside a `nop` run).
    /// Returns `true` if a split happened.
    fn split_block_at(&mut self, va: u32) -> bool {
        if self.blocks.contains_key(&va) || !self.instr_starts.contains(va) {
            return false;
        }
        let Some(bstart) = self.block_containing(va) else { return false };
        // Blocks are runs of consecutive pieces in address order, so the
        // block containing a charted start is the one that holds it.
        let b = self.blocks.get_mut(&bstart).expect("block_containing returned a key");
        let mut tail_runs = b.nop_runs.split_off(b.nop_runs.partition_point(|&(_, e)| e <= va));
        if let Some(run) = tail_runs.first_mut().filter(|run| run.0 < va) {
            b.nop_runs.push((run.0, va));
            run.0 = va;
        }
        let tail = BasicBlock {
            start: va,
            end: b.end,
            instrs: b.instrs.split_off(b.instrs.partition_point(|(v, _)| *v < va)),
            nop_runs: tail_runs,
            succs: std::mem::take(&mut b.succs),
            reachable: b.reachable,
        };
        b.end = va;
        b.succs = vec![va];
        self.blocks.insert(va, tail);
        true
    }

    /// Splices statically resolved indirect-branch target sets back into
    /// the model: records them in [`resolved_targets`](Self::resolved_targets),
    /// turns in-image targets into real successor / call edges (splitting
    /// blocks where a target lands mid-block), and extends
    /// descent-reachability through the new edges, so `is_reachable`,
    /// `unreachable_blocks` and the lint layer all see the resolved flow.
    pub fn splice_resolved(&mut self, resolved: &BTreeMap<u32, Vec<u32>>) {
        let mut new_roots: Vec<u32> = Vec::new();
        for (&site, targets) in resolved {
            self.resolved_targets.insert(site, targets.clone());
            let in_image: Vec<u32> =
                targets.iter().copied().filter(|&t| self.instr_starts.contains(t)).collect();
            for &t in &in_image {
                self.split_block_at(t);
            }
            let Some(bstart) = self.block_containing(site) else { continue };
            let b = self.blocks.get_mut(&bstart).expect("block_containing returned a key");
            match b.instrs.last() {
                Some(&(last_va, Instr::JmpReg { .. })) if last_va == site => {
                    for &t in &in_image {
                        if !b.succs.contains(&t) {
                            b.succs.push(t);
                        }
                    }
                }
                Some(&(last_va, Instr::CallReg { .. })) if last_va == site => {
                    for &t in &in_image {
                        if !self.call_edges.contains(&(site, t)) {
                            self.call_edges.push((site, t));
                        }
                    }
                }
                _ => continue,
            }
            if self.reachable_starts.contains(site) {
                new_roots.extend(in_image);
            }
        }
        self.extend_reachability(new_roots);
    }

    /// Propagates descent-reachability from `roots` through block
    /// successors, direct call edges, and already-resolved indirect edges.
    /// A `nop` run becomes reachable with the block that holds it.
    fn extend_reachability(&mut self, roots: Vec<u32>) {
        let mut work: VecDeque<u32> = roots
            .into_iter()
            .filter(|&r| self.blocks.contains_key(&r) && !self.reachable_starts.contains(r))
            .collect();
        while let Some(bva) = work.pop_front() {
            if self.reachable_starts.contains(bva) {
                continue;
            }
            let Some(b) = self.blocks.get_mut(&bva) else { continue };
            b.reachable = true;
            // Block succs already carry direct-call targets and
            // fall-throughs; only resolved indirect edges need adding.
            let mut next: Vec<u32> = b.succs.clone();
            for &(va, instr) in &b.instrs {
                self.reachable_starts.insert(va, va + 1);
                if matches!(instr, Instr::CallReg { .. } | Instr::JmpReg { .. }) {
                    if let Some(ts) = self.resolved_targets.get(&va) {
                        next.extend(ts.iter().copied());
                    }
                }
            }
            for &(s, e) in &b.nop_runs {
                self.reachable_starts.insert(s, e);
            }
            work.extend(next.into_iter().filter(|t| self.blocks.contains_key(t)));
        }
        for site in &mut self.indirect_sites {
            site.reachable = self.reachable_starts.contains(site.va);
        }
    }

    /// The resolved targets of the indirect site at `va` when every one of
    /// them starts an in-image block; `None` when the site is unresolved or
    /// may transfer to code outside the image (a JIT buffer, another
    /// module), whose behavior the model cannot see.
    pub fn resolved_in_image(&self, va: u32) -> Option<&[u32]> {
        self.resolved_targets
            .get(&va)
            .filter(|ts| ts.iter().all(|t| self.blocks.contains_key(t)))
            .map(Vec::as_slice)
    }

    /// Returns `true` if `va` is the start of a statically recovered
    /// instruction (descent or sweep, every byte of a `nop` run included)
    /// — the coverage cross-check's definition of "statically charted".
    pub fn accounts_for(&self, va: u32) -> bool {
        self.instr_starts.contains(va)
    }

    /// Returns `true` if recursive descent reached the instruction at `va`
    /// (a byte of a `nop` run: if the block holding it is reachable).
    pub fn is_reachable(&self, va: u32) -> bool {
        self.reachable_starts.contains(va)
    }

    /// The recovered instruction starting at `va`, if any.
    pub fn instr_at(&self, va: u32) -> Option<Instr> {
        let b = &self.blocks[&self.block_containing(va)?];
        if b.nop_runs.iter().any(|&(s, e)| s <= va && va < e) {
            return Some(Instr::Nop);
        }
        b.instrs.iter().find(|(v, _)| *v == va).map(|&(_, i)| i)
    }

    /// The listed instructions of the reachable blocks (`nop` runs left
    /// out), as `(va, instr)` pairs in address order.
    pub fn reachable_instrs(&self) -> impl Iterator<Item = (u32, Instr)> + '_ {
        self.blocks
            .values()
            .filter(|b| b.reachable)
            .flat_map(|b| b.instrs.iter().copied())
    }

    /// Blocks the sweep found but descent never reached, excluding pure
    /// padding runs.
    pub fn unreachable_blocks(&self) -> impl Iterator<Item = &BasicBlock> {
        self.blocks.values().filter(|b| !b.reachable && !b.is_padding())
    }
}

/// The per-byte recovery `recover` replaced, kept as the oracle of its
/// property test: one slot per section byte, one sweep step and one
/// listed `nop` per zero byte. Its model has no `nop` runs, so splicing
/// it runs only the per-instruction paths of the shared splice code.
#[cfg(test)]
mod oracle {
    use super::*;

    /// Recovery's scratch state for one byte of a code section.
    #[derive(Clone, Copy, Default)]
    struct Slot {
        /// The instruction decoded here, and its encoded length.
        instr: Option<Instr>,
        len: u8,
        /// A basic block starts here.
        leader: bool,
        /// Recursive descent decoded it.
        reachable: bool,
    }

    impl Slot {
        fn decoded(&self) -> Option<(Instr, u32)> {
            Some((self.instr?, u32::from(self.len)))
        }
    }

    /// [`ModuleCfg::recover`], one byte at a time.
    pub(super) fn recover_per_byte(name: &str, image: &FdlImage) -> ModuleCfg {
        let mut slots: Vec<Vec<Slot>> = image
            .sections
            .iter()
            .map(|s| vec![Slot::default(); if s.is_code() { s.data.len() } else { 0 }])
            .collect();
        let locate = |va: u32| -> Option<(usize, usize)> {
            let (i, s) = image.sections.iter().enumerate().find(|(_, s)| s.contains(va))?;
            s.is_code().then_some((i, (va - s.va) as usize))
        };
        let decode = |i: usize, off: usize| -> Option<(Instr, u8)> {
            let s = &image.sections[i];
            let (instr, len) = decode_at(&s.data, off).ok()?;
            (u64::from(s.va) + (off + len) as u64 <= u64::from(s.end_va()))
                .then_some((instr, u8::try_from(len).ok()?))
        };
        let mut leaders: Vec<u32> = Vec::new();
        let mut call_edges = Vec::new();
        let mut indirect_sites = Vec::new();

        let mut worklist: VecDeque<u32> = VecDeque::new();
        if image.is_code_va(image.entry) {
            worklist.push_back(image.entry);
        }
        worklist.extend(image.exports.iter().map(|e| e.va).filter(|&va| image.is_code_va(va)));
        leaders.extend(worklist.iter().copied());
        while let Some(va) = worklist.pop_front() {
            let Some((i, off)) = locate(va) else { continue };
            if slots[i][off].instr.is_some() {
                continue;
            }
            let Some((instr, len)) = decode(i, off) else { continue };
            slots[i][off] = Slot { instr: Some(instr), len, leader: false, reachable: true };
            let next = va.wrapping_add(u32::from(len));
            let target = |rel: i32| next.wrapping_add(rel as u32);
            match instr {
                Instr::Jmp { rel } => {
                    leaders.push(target(rel));
                    worklist.push_back(target(rel));
                }
                Instr::Jcc { rel, .. } => {
                    leaders.extend([target(rel), next]);
                    worklist.extend([target(rel), next]);
                }
                Instr::Call { rel } => {
                    call_edges.push((va, target(rel)));
                    leaders.extend([target(rel), next]);
                    worklist.extend([target(rel), next]);
                }
                Instr::CallReg { .. } => {
                    indirect_sites.push(IndirectSite { va, instr, reachable: true });
                    leaders.push(next);
                    worklist.push_back(next);
                }
                Instr::JmpReg { .. } => {
                    indirect_sites.push(IndirectSite { va, instr, reachable: true });
                }
                Instr::Int { .. } => {
                    leaders.push(next);
                    worklist.push_back(next);
                }
                Instr::Ret | Instr::Hlt => {}
                _ => {
                    worklist.push_back(next);
                }
            }
        }

        for s in image.code_sections() {
            let mut va = s.va;
            let mut synced = false;
            while va < s.end_va() {
                let at = locate(va);
                if let Some((_, len)) = at.and_then(|(i, off)| slots[i][off].decoded()) {
                    va = va.wrapping_add(len);
                    synced = false;
                    continue;
                }
                let Some((i, off, (instr, len))) =
                    at.and_then(|(i, off)| Some((i, off, decode(i, off)?)))
                else {
                    va = va.wrapping_add(1);
                    synced = false;
                    continue;
                };
                slots[i][off] = Slot { instr: Some(instr), len, leader: !synced, reachable: false };
                synced = true;
                if matches!(instr, Instr::CallReg { .. } | Instr::JmpReg { .. }) {
                    indirect_sites.push(IndirectSite { va, instr, reachable: false });
                }
                va = va.wrapping_add(u32::from(len));
            }
        }
        for va in leaders {
            if let Some((i, off)) = locate(va) {
                slots[i][off].leader = true;
            }
        }

        let mut decoded: Vec<(u32, Slot)> = Vec::new();
        for (s, slots) in image.sections.iter().zip(&slots) {
            for (off, slot) in slots.iter().enumerate() {
                if slot.instr.is_some() {
                    decoded.push((s.va + off as u32, *slot));
                }
            }
        }
        decoded.sort_by_key(|d| d.0);

        let mut blocks: BTreeMap<u32, BasicBlock> = BTreeMap::new();
        let mut current: Option<BasicBlock> = None;
        let mut expected_next: u32 = 0;
        for &(va, slot) in &decoded {
            let (instr, len) = slot.decoded().expect("only decoded slots are gathered");
            let continues = current.is_some() && va == expected_next && !slot.leader;
            if !continues {
                if let Some(mut b) = current.take() {
                    if b.succs.is_empty()
                        && b.end == va
                        && !b.instrs.last().is_some_and(|(_, i)| i.ends_block())
                    {
                        b.succs = vec![va];
                    }
                    blocks.insert(b.start, b);
                }
                current = Some(BasicBlock {
                    start: va,
                    end: va,
                    instrs: Vec::new(),
                    nop_runs: Vec::new(),
                    succs: Vec::new(),
                    reachable: slot.reachable,
                });
            }
            let b = current.as_mut().expect("block opened above");
            b.instrs.push((va, instr));
            b.end = va.wrapping_add(len);
            expected_next = b.end;
            if instr.ends_block() {
                let next = b.end;
                let target = |rel: i32| next.wrapping_add(rel as u32);
                b.succs = match instr {
                    Instr::Jmp { rel } => vec![target(rel)],
                    Instr::Jcc { rel, .. } => vec![target(rel), next],
                    Instr::Call { rel } => vec![target(rel), next],
                    Instr::CallReg { .. } | Instr::Int { .. } => vec![next],
                    _ => Vec::new(),
                };
                blocks.insert(b.start, current.take().expect("current set"));
            }
        }
        if let Some(b) = current.take() {
            blocks.insert(b.start, b);
        }

        let mut instr_starts = Spans::default();
        let mut reachable_starts = Spans::default();
        for &(va, slot) in &decoded {
            instr_starts.insert(va, va + 1);
            if slot.reachable {
                reachable_starts.insert(va, va + 1);
            }
        }
        ModuleCfg {
            name: name.to_string(),
            blocks,
            call_edges,
            indirect_sites,
            resolved_targets: BTreeMap::new(),
            instr_starts,
            reachable_starts,
        }
    }
}


#[cfg(test)]
mod tests {
    use super::*;
    use faros_emu::asm::Asm;
    use faros_emu::mmu::Perms;
    use faros_kernel::module::{Export, Section};
    use faros_support::prop::{check, Config, Rng, Shrink};
    use faros_support::prop_assert_eq;

    const BASE: u32 = 0x40_0000;

    fn image_of(asm: Asm) -> FdlImage {
        let code = asm.assemble().expect("assembles");
        FdlImage {
            entry: BASE,
            export_table_va: 0,
            sections: vec![Section { va: BASE, data: code, perms: Perms::RX }],
            exports: vec![],
        }
    }

    #[test]
    fn straight_line_code_is_one_block() {
        let mut asm = Asm::new(BASE);
        asm.mov_ri(faros_emu::isa::Reg::Eax, 1);
        asm.mov_ri(faros_emu::isa::Reg::Ebx, 2);
        asm.hlt();
        let cfg = ModuleCfg::recover("t", &image_of(asm));
        assert_eq!(cfg.blocks.len(), 1);
        let b = cfg.blocks.values().next().unwrap();
        assert_eq!(b.start, BASE);
        assert_eq!(b.instrs.len(), 3);
        assert!(b.reachable);
        assert!(b.succs.is_empty());
    }

    #[test]
    fn branch_splits_blocks_and_links_successors() {
        use faros_emu::isa::Reg;
        let mut asm = Asm::new(BASE);
        asm.cmp_ri(Reg::Eax, 0);
        asm.jnz("odd"); // block 1 ends; succs = [odd, fallthrough]
        asm.mov_ri(Reg::Ebx, 1);
        asm.hlt();
        asm.label("odd");
        asm.mov_ri(Reg::Ebx, 2);
        asm.hlt();
        let cfg = ModuleCfg::recover("t", &image_of(asm));
        assert_eq!(cfg.blocks.len(), 3);
        let first = &cfg.blocks[&BASE];
        assert_eq!(first.succs.len(), 2);
        for succ in &first.succs {
            assert!(cfg.blocks.contains_key(succ), "successor {succ:#x} is a block start");
        }
        assert!(cfg.blocks.values().all(|b| b.reachable));
    }

    #[test]
    fn direct_calls_build_the_call_graph() {
        use faros_emu::isa::Reg;
        let mut asm = Asm::new(BASE);
        asm.call("fn1");
        asm.hlt();
        asm.label("fn1");
        asm.mov_ri(Reg::Eax, 7);
        asm.ret();
        let cfg = ModuleCfg::recover("t", &image_of(asm));
        assert_eq!(cfg.call_edges.len(), 1);
        let (_site, callee) = cfg.call_edges[0];
        assert!(cfg.blocks.contains_key(&callee));
        assert!(cfg.blocks[&callee].reachable);
    }

    #[test]
    fn indirect_sites_are_collected() {
        use faros_emu::isa::Reg;
        let mut asm = Asm::new(BASE);
        asm.mov_ri(Reg::Ebp, 0x8000_0000);
        asm.call_reg(Reg::Ebp);
        asm.hlt();
        let cfg = ModuleCfg::recover("t", &image_of(asm));
        assert_eq!(cfg.indirect_sites.len(), 1);
        assert!(cfg.indirect_sites[0].reachable);
        // The instruction after the indirect call is still explored.
        assert!(cfg.accounts_for(cfg.indirect_sites[0].va));
    }

    #[test]
    fn sweep_finds_code_descent_cannot_reach() {
        use faros_emu::isa::Reg;
        let mut asm = Asm::new(BASE);
        asm.hlt(); // entry block ends immediately
        asm.label("orphan");
        asm.mov_ri(Reg::Eax, 9);
        asm.ret();
        let cfg = ModuleCfg::recover("t", &image_of(asm));
        let unreachable: Vec<_> = cfg.unreachable_blocks().collect();
        assert_eq!(unreachable.len(), 1);
        assert_eq!(unreachable[0].instrs.len(), 2);
        // Sweep instructions still count as charted.
        assert!(cfg.accounts_for(unreachable[0].start));
        assert!(!cfg.is_reachable(unreachable[0].start));
    }

    #[test]
    fn exports_are_descent_roots() {
        use faros_emu::isa::Reg;
        let mut asm = Asm::new(BASE);
        asm.hlt();
        let fn_va = BASE + 1;
        asm.mov_ri(Reg::Eax, 3); // at BASE+1, only reachable via the export
        asm.ret();
        let code = asm.assemble().unwrap();
        let image = FdlImage {
            entry: BASE,
            export_table_va: 0,
            sections: vec![Section { va: BASE, data: code, perms: Perms::RX }],
            exports: vec![Export { name: "f".into(), va: fn_va }],
        };
        let cfg = ModuleCfg::recover("t", &image);
        assert!(cfg.is_reachable(fn_va));
    }

    #[test]
    fn padding_blocks_are_not_reported_unreachable() {
        let mut asm = Asm::new(BASE);
        asm.hlt();
        let mut code = asm.assemble().unwrap();
        code.resize(64, 0); // zero padding decodes as nops
        let image = FdlImage {
            entry: BASE,
            export_table_va: 0,
            sections: vec![Section { va: BASE, data: code, perms: Perms::RX }],
            exports: vec![],
        };
        let cfg = ModuleCfg::recover("t", &image);
        assert_eq!(cfg.unreachable_blocks().count(), 0);
        // ...but the padding is still charted.
        assert!(cfg.accounts_for(BASE + 1));
    }

    #[test]
    fn splicing_resolved_targets_extends_reachability() {
        use faros_emu::isa::Reg;
        let mut asm = Asm::new(BASE);
        asm.mov_ri(Reg::Ebp, 0);
        asm.call_reg(Reg::Ebp);
        asm.hlt();
        asm.label("helper"); // only reachable through the indirect call
        asm.mov_ri(Reg::Eax, 1);
        asm.ret();
        let (code, labels) = asm.assemble_with_labels().unwrap();
        let helper = labels["helper"];
        let image = FdlImage {
            entry: BASE,
            export_table_va: 0,
            sections: vec![Section { va: BASE, data: code, perms: Perms::RX }],
            exports: vec![],
        };
        let mut cfg = ModuleCfg::recover("t", &image);
        let site = cfg.indirect_sites[0].va;
        assert!(!cfg.is_reachable(helper));

        let resolved = BTreeMap::from([(site, vec![helper])]);
        cfg.splice_resolved(&resolved);
        assert!(cfg.is_reachable(helper), "spliced callee becomes reachable");
        assert!(cfg.call_edges.contains(&(site, helper)), "call edge spliced");
        assert_eq!(cfg.resolved_targets[&site], vec![helper]);
        assert_eq!(cfg.unreachable_blocks().count(), 0);
    }

    #[test]
    fn splicing_a_mid_block_target_splits_the_block() {
        use faros_emu::isa::Reg;
        let mut asm = Asm::new(BASE);
        asm.mov_ri(Reg::Edi, 0);
        asm.jmp_reg(Reg::Edi);
        asm.label("run"); // swept as one straight-line block
        asm.mov_ri(Reg::Eax, 1);
        asm.label("mid");
        asm.mov_ri(Reg::Ebx, 2);
        asm.hlt();
        let (code, labels) = asm.assemble_with_labels().unwrap();
        let mid = labels["mid"];
        let image = FdlImage {
            entry: BASE,
            export_table_va: 0,
            sections: vec![Section { va: BASE, data: code, perms: Perms::RX }],
            exports: vec![],
        };
        let mut cfg = ModuleCfg::recover("t", &image);
        assert!(!cfg.blocks.contains_key(&mid), "target starts mid-block");
        let site = cfg.indirect_sites[0].va;
        cfg.splice_resolved(&BTreeMap::from([(site, vec![mid])]));
        assert!(cfg.blocks.contains_key(&mid), "block split at resolved target");
        assert!(cfg.is_reachable(mid));
        let site_block = cfg.blocks.range(..=site).next_back().unwrap().1;
        assert!(site_block.succs.contains(&mid), "jmp edge spliced");
    }

    /// Encodes `instrs` back to back.
    fn bytes(instrs: &[Instr]) -> Vec<u8> {
        instrs.iter().flat_map(faros_emu::encode::encode).collect()
    }

    fn block(
        start: u32,
        end: u32,
        instrs: &[(u32, Instr)],
        succs: &[u32],
        reachable: bool,
    ) -> BasicBlock {
        BasicBlock {
            start,
            end,
            instrs: instrs.to_vec(),
            nop_runs: Vec::new(),
            succs: succs.to_vec(),
            reachable,
        }
    }

    /// A block holding only the `nop` run `[start, end)`.
    fn run_block(start: u32, end: u32, succs: &[u32]) -> BasicBlock {
        BasicBlock { nop_runs: vec![(start, end)], ..block(start, end, &[], succs, false) }
    }

    #[test]
    fn code_sections_out_of_va_order_around_a_data_section() {
        use faros_emu::isa::Reg;
        let mov = Instr::MovRI { dst: Reg::Eax, imm: 1 };
        // Listed high section first: the recovered model is in VA order
        // regardless, and the data section's bytes (two `hlt` opcodes)
        // are never decoded.
        let high = Section { va: 0x40_2000, data: bytes(&[mov, Instr::Ret]), perms: Perms::RX };
        let data =
            Section { va: 0x40_1000, data: bytes(&[Instr::Hlt, Instr::Hlt]), perms: Perms::RW };
        let call = Instr::Call { rel: 0x1ffb }; // 0x40_0005 + 0x1ffb = 0x40_2000
        let low = Section { va: BASE, data: bytes(&[call, Instr::Hlt]), perms: Perms::RX };
        let image = FdlImage {
            entry: BASE,
            export_table_va: 0,
            sections: vec![high, data, low],
            exports: vec![],
        };
        let cfg = ModuleCfg::recover("t", &image);
        let expected = BTreeMap::from([
            (
                0x40_0000,
                block(0x40_0000, 0x40_0005, &[(0x40_0000, call)], &[0x40_2000, 0x40_0005], true),
            ),
            (0x40_0005, block(0x40_0005, 0x40_0006, &[(0x40_0005, Instr::Hlt)], &[], true)),
            (
                0x40_2000,
                block(
                    0x40_2000,
                    0x40_2007,
                    &[(0x40_2000, mov), (0x40_2006, Instr::Ret)],
                    &[],
                    true,
                ),
            ),
        ]);
        assert_eq!(cfg.blocks, expected);
        assert_eq!(cfg.call_edges, vec![(0x40_0000, 0x40_2000)]);
        for va in [0x40_0000, 0x40_0005, 0x40_2000, 0x40_2006] {
            assert!(cfg.accounts_for(va) && cfg.is_reachable(va), "{va:#x}");
        }
        for va in [0x40_0001, 0x40_1000, 0x40_1001, 0x40_2001, 0x40_2007] {
            assert!(!cfg.accounts_for(va) && !cfg.is_reachable(va), "{va:#x}");
        }
    }

    #[test]
    fn an_instruction_running_past_its_section_end_is_rejected() {
        // `jmp` needs five bytes; its section ends after three. The next
        // section starts right there with a `ret`, but decoding never
        // reads across a section boundary.
        let first = Section { va: BASE, data: vec![0x71, 0x40, 0x00, 0x00], perms: Perms::RX };
        let second = Section { va: BASE + 4, data: bytes(&[Instr::Ret]), perms: Perms::RX };
        let image = FdlImage {
            entry: BASE,
            export_table_va: 0,
            sections: vec![first, second],
            exports: vec![],
        };
        let cfg = ModuleCfg::recover("t", &image);
        // The sweep resynchronizes on the two zero bytes, one `nop` run;
        // its block is cut short by the next section's leader and falls
        // through into it.
        let expected = BTreeMap::from([
            (BASE, block(BASE, BASE + 1, &[(BASE, Instr::Hlt)], &[], true)),
            (BASE + 2, run_block(BASE + 2, BASE + 4, &[BASE + 4])),
            (BASE + 4, block(BASE + 4, BASE + 5, &[(BASE + 4, Instr::Ret)], &[], false)),
        ]);
        assert_eq!(cfg.blocks, expected);
        assert_eq!(cfg.blocks[&(BASE + 2)].instr_count(), 2);
        assert_eq!(cfg.instr_at(BASE + 3), Some(Instr::Nop));
        assert!(!cfg.accounts_for(BASE + 1), "the truncated jmp is not charted");
        assert!(cfg.accounts_for(BASE + 2) && cfg.accounts_for(BASE + 4));
        assert!(cfg.is_reachable(BASE) && !cfg.is_reachable(BASE + 4));
    }

    #[test]
    fn an_export_in_the_second_code_section_is_a_descent_root() {
        use faros_emu::isa::Reg;
        let f = Instr::MovRI { dst: Reg::Eax, imm: 3 };
        let orphan = Instr::MovRI { dst: Reg::Ebx, imm: 2 };
        let second = BASE + 0x100;
        let image = FdlImage {
            entry: BASE,
            export_table_va: 0,
            sections: vec![
                Section { va: BASE, data: bytes(&[Instr::Hlt]), perms: Perms::RX },
                Section {
                    va: second,
                    data: bytes(&[f, Instr::Ret, orphan, Instr::Ret]),
                    perms: Perms::RX,
                },
            ],
            exports: vec![Export { name: "f".into(), va: second }],
        };
        let cfg = ModuleCfg::recover("t", &image);
        let expected = BTreeMap::from([
            (BASE, block(BASE, BASE + 1, &[(BASE, Instr::Hlt)], &[], true)),
            (
                second,
                block(second, second + 7, &[(second, f), (second + 6, Instr::Ret)], &[], true),
            ),
            (
                second + 7,
                block(
                    second + 7,
                    second + 14,
                    &[(second + 7, orphan), (second + 13, Instr::Ret)],
                    &[],
                    false,
                ),
            ),
        ]);
        assert_eq!(cfg.blocks, expected);
        assert!(cfg.is_reachable(second) && cfg.is_reachable(second + 6));
        assert!(cfg.accounts_for(second + 7) && !cfg.is_reachable(second + 7));
        let unreachable: Vec<u32> = cfg.unreachable_blocks().map(|b| b.start).collect();
        assert_eq!(unreachable, vec![second + 7]);
    }

    #[test]
    fn an_all_padding_section_is_one_charted_padding_block() {
        let image = FdlImage {
            entry: BASE,
            export_table_va: 0,
            sections: vec![
                Section { va: BASE, data: bytes(&[Instr::Hlt]), perms: Perms::RX },
                Section { va: BASE + 0x10, data: vec![0; 16], perms: Perms::RX },
            ],
            exports: vec![],
        };
        let cfg = ModuleCfg::recover("t", &image);
        let expected = BTreeMap::from([
            (BASE, block(BASE, BASE + 1, &[(BASE, Instr::Hlt)], &[], true)),
            (BASE + 0x10, run_block(BASE + 0x10, BASE + 0x20, &[])),
        ]);
        assert_eq!(cfg.blocks, expected);
        assert!(cfg.blocks[&(BASE + 0x10)].is_padding());
        assert_eq!(cfg.blocks[&(BASE + 0x10)].instr_count(), 16);
        assert_eq!(cfg.unreachable_blocks().count(), 0);
        for va in BASE + 0x10..BASE + 0x20 {
            assert!(cfg.accounts_for(va) && !cfg.is_reachable(va), "{va:#x}");
            assert_eq!(cfg.instr_at(va), Some(Instr::Nop), "{va:#x}");
        }
        assert!(!cfg.accounts_for(BASE + 1) && !cfg.accounts_for(BASE + 0x20));
    }

    #[test]
    fn data_only_images_have_no_blocks() {
        let image = FdlImage {
            entry: BASE,
            export_table_va: 0,
            sections: vec![Section { va: BASE, data: vec![1, 2, 3], perms: Perms::RW }],
            exports: vec![],
        };
        let cfg = ModuleCfg::recover("t", &image);
        assert!(cfg.blocks.is_empty());
        assert!(!cfg.accounts_for(BASE));
    }

    #[test]
    fn a_sweep_block_of_one_instruction_and_a_long_zero_run_counts_every_nop() {
        // The shape of the corpus `gadget.exe`: a `sub eax, eax` only the
        // sweep reaches, followed by 7,999 zero bytes to the section end.
        use faros_emu::isa::{AluOp, Operand, Reg};
        let sub = Instr::Alu { op: AluOp::Sub, dst: Reg::Eax, src: Operand::Reg(Reg::Eax) };
        let entry = [Instr::MovRI { dst: Reg::Edi, imm: 0 }, Instr::JmpReg { target: Reg::Edi }];
        let mut code = bytes(&entry);
        let gadget = BASE + code.len() as u32;
        code.extend(bytes(&[sub]));
        let run = BASE + code.len() as u32;
        code.resize(code.len() + 7999, 0);
        let end = BASE + code.len() as u32;
        let image = FdlImage {
            entry: BASE,
            export_table_va: 0,
            sections: vec![Section { va: BASE, data: code, perms: Perms::RX }],
            exports: vec![],
        };
        let mut cfg = ModuleCfg::recover("t", &image);
        let b = &cfg.blocks[&gadget];
        assert_eq!(
            *b,
            BasicBlock { nop_runs: vec![(run, end)], ..block(gadget, end, &[(gadget, sub)], &[], false) }
        );
        assert_eq!(b.instr_count(), 8000);
        assert!(!b.is_padding());
        let unreachable: Vec<u32> = cfg.unreachable_blocks().map(|b| b.start).collect();
        assert_eq!(unreachable, vec![gadget]);
        let advisories: Vec<String> = crate::lint::lint_with_cfg("t", &image, &cfg)
            .into_iter()
            .filter(|f| f.va == gadget)
            .map(|f| f.detail)
            .collect();
        assert_eq!(advisories, vec!["8000-instruction block unreachable from entry/exports"]);
        for va in [run, run + 1, end - 1] {
            assert!(cfg.accounts_for(va) && !cfg.is_reachable(va), "{va:#x}");
            assert_eq!(cfg.instr_at(va), Some(Instr::Nop));
        }
        assert!(!cfg.accounts_for(end) && cfg.instr_at(end).is_none());

        // A resolved target inside the run splits it between two blocks,
        // and only the bytes of the newly reachable tail become reachable.
        let site = cfg.indirect_sites[0].va;
        let mid = run + 4000;
        cfg.splice_resolved(&BTreeMap::from([(site, vec![mid])]));
        let head = &cfg.blocks[&gadget];
        assert_eq!((head.end, head.instr_count(), head.succs.clone()), (mid, 4001, vec![mid]));
        assert_eq!(*head, BasicBlock { nop_runs: vec![(run, mid)], ..head.clone() });
        let tail = &cfg.blocks[&mid];
        assert_eq!(*tail, BasicBlock { nop_runs: vec![(mid, end)], ..block(mid, end, &[], &[], true) });
        assert!(!cfg.is_reachable(mid - 1) && cfg.is_reachable(mid) && cfg.is_reachable(end - 1));
        assert!(!cfg.is_reachable(end));
    }

    /// A piece of a generated code section.
    #[derive(Debug, Clone)]
    enum Chunk {
        /// Instructions, encoded back to back.
        Code(Vec<Instr>),
        /// A run of zero bytes.
        Zeros(u32),
        /// Arbitrary bytes, about half of them zero.
        Data(Vec<u8>),
    }

    impl Shrink for Chunk {
        fn shrink(&self) -> Vec<Chunk> {
            match self {
                Chunk::Code(is) => is.shrink().into_iter().map(Chunk::Code).collect(),
                Chunk::Zeros(n) => n.shrink().into_iter().map(Chunk::Zeros).collect(),
                Chunk::Data(b) => b.shrink().into_iter().map(Chunk::Data).collect(),
            }
        }
    }

    /// An image of padded code sections plus resolved-target sets to
    /// splice into its model.
    #[derive(Debug, Clone)]
    struct CfgCase {
        /// The code sections, each as a list of chunks.
        sections: Vec<Vec<Chunk>>,
        /// Lay the sections out back to back, listed in reverse VA order
        /// (otherwise one page apart, in VA order).
        adjacent: bool,
        /// VA picks for the entry point and the exports.
        roots: Vec<u32>,
        /// Site and target VA picks, spliced in two rounds.
        resolved: Vec<(u32, Vec<u32>)>,
    }

    impl Shrink for CfgCase {
        fn shrink(&self) -> Vec<CfgCase> {
            let mut out: Vec<CfgCase> = self
                .resolved
                .shrink()
                .into_iter()
                .map(|resolved| CfgCase { resolved, ..self.clone() })
                .collect();
            out.extend(
                self.sections.shrink().into_iter().map(|sections| CfgCase { sections, ..self.clone() }),
            );
            out.extend(self.roots.shrink().into_iter().map(|roots| CfgCase { roots, ..self.clone() }));
            out
        }
    }

    impl CfgCase {
        fn generate(rng: &mut Rng) -> CfgCase {
            let sections = rng.vec_of(1, 4, |rng| {
                if rng.below(6) == 0 {
                    // The gadget shape: a non-block-ending instruction,
                    // then zeros to the section end.
                    let first = loop {
                        let i = code_instr(rng);
                        if !i.ends_block() {
                            break i;
                        }
                    };
                    vec![Chunk::Code(vec![first]), Chunk::Zeros(rng.range_u32(1, 400))]
                } else {
                    rng.vec_of(1, 8, |rng| match rng.below(4) {
                        0 if rng.below(3) == 0 => Chunk::Zeros(rng.range_u32(32, 400)),
                        0 => Chunk::Zeros(rng.range_u32(1, 8)),
                        1 => Chunk::Data(rng.vec_of(1, 24, |r| if r.next_bool() { 0 } else { r.next_u8() })),
                        _ => Chunk::Code(rng.vec_of(1, 10, code_instr)),
                    })
                }
            });
            CfgCase {
                sections,
                adjacent: rng.next_bool(),
                roots: rng.vec_of(1, 4, Rng::next_u32),
                resolved: rng.vec_of(0, 8, |rng| (rng.next_u32(), rng.vec_of(1, 5, Rng::next_u32))),
            }
        }

        fn image(&self) -> FdlImage {
            let mut sections = Vec::new();
            let mut va = BASE;
            for chunks in &self.sections {
                let data: Vec<u8> = chunks
                    .iter()
                    .flat_map(|c| match c {
                        Chunk::Code(is) => bytes(is),
                        Chunk::Zeros(n) => vec![0; *n as usize],
                        Chunk::Data(b) => b.clone(),
                    })
                    .collect();
                let len = data.len() as u32;
                sections.push(Section { va, data, perms: Perms::RX });
                va += if self.adjacent { len } else { 0x1000 };
            }
            // Data is never charted, however it decodes.
            let data = [bytes(&[Instr::Ret, Instr::Nop]), vec![0; 8]].concat();
            sections.push(Section { va, data, perms: Perms::RW });
            if self.adjacent {
                sections.reverse();
            }
            let mut image = FdlImage { entry: 0, export_table_va: 0, sections, exports: vec![] };
            image.entry = pick_va(&image, self.roots[0]);
            image.exports = self.roots[1..]
                .iter()
                .map(|&p| Export { name: format!("e{p}"), va: pick_va(&image, p) })
                .collect();
            image
        }

        /// The resolved sets, one per splice round. An even site pick
        /// names one of the model's indirect sites, an odd one any VA.
        fn rounds(&self, image: &FdlImage, cfg: &ModuleCfg) -> [BTreeMap<u32, Vec<u32>>; 2] {
            let mut rounds = [BTreeMap::new(), BTreeMap::new()];
            for (k, (site, targets)) in self.resolved.iter().enumerate() {
                let site = match cfg.indirect_sites.len() {
                    n if n > 0 && site.is_multiple_of(2) => {
                        cfg.indirect_sites[(site / 2) as usize % n].va
                    }
                    _ => pick_va(image, site / 2),
                };
                let targets = targets.iter().map(|&t| pick_va(image, t)).collect();
                rounds[k % 2].insert(site, targets);
            }
            rounds
        }
    }

    /// A generated instruction whose branches land near their own site:
    /// mid-instruction, in zero runs, or past the section end.
    fn code_instr(rng: &mut Rng) -> Instr {
        match faros_support::arb::instr(rng) {
            Instr::Jmp { .. } => Instr::Jmp { rel: rng.range_i32(-48, 48) },
            Instr::Jcc { cond, .. } => Instr::Jcc { cond, rel: rng.range_i32(-48, 48) },
            Instr::Call { .. } => Instr::Call { rel: rng.range_i32(-48, 48) },
            // Small immediates embed zero bytes in the encoding.
            Instr::MovRI { dst, .. } if rng.next_bool() => {
                Instr::MovRI { dst, imm: rng.range_u32(0, 256) }
            }
            i => i,
        }
    }

    /// Maps `pick` to a byte of one of the image's sections or one past
    /// its end; one pick in 16 maps outside the image.
    fn pick_va(image: &FdlImage, pick: u32) -> u32 {
        if pick.is_multiple_of(16) {
            return 0x10;
        }
        let total: u32 = image.sections.iter().map(|s| s.data.len() as u32 + 1).sum();
        let mut at = pick / 16 % total;
        for s in &image.sections {
            let span = s.data.len() as u32 + 1;
            if at < span {
                return s.va + at;
            }
            at -= span;
        }
        unreachable!("`at` is below the sum of the spans")
    }

    /// `b` with each byte of its `nop` runs listed as an instruction, as
    /// the per-byte recovery lists it.
    fn per_byte(b: &BasicBlock) -> BasicBlock {
        let mut instrs = b.instrs.clone();
        instrs.extend(b.nop_runs.iter().flat_map(|&(s, e)| (s..e).map(|va| (va, Instr::Nop))));
        instrs.sort_by_key(|&(va, _)| va);
        BasicBlock { instrs, nop_runs: Vec::new(), ..b.clone() }
    }

    /// Every answer the model gives its readers, compared between the
    /// run-charting model `new` and the per-byte oracle `old`.
    fn same_answers(image: &FdlImage, new: &ModuleCfg, old: &ModuleCfg) -> Result<(), String> {
        let starts = |cfg: &ModuleCfg| cfg.blocks.keys().copied().collect::<Vec<u32>>();
        prop_assert_eq!(starts(new), starts(old));
        for (b, o) in new.blocks.values().zip(old.blocks.values()) {
            let expanded = per_byte(b);
            prop_assert_eq!(&expanded, o);
            prop_assert_eq!(b.instr_count(), o.instrs.len());
            prop_assert_eq!(b.is_padding(), o.is_padding());
            // Readers look at a block's last listed instruction when it
            // ends the block.
            let ender = |b: &BasicBlock| b.instrs.last().copied().filter(|(_, i)| i.ends_block());
            prop_assert_eq!(ender(b), ender(o));
        }
        prop_assert_eq!(&new.call_edges, &old.call_edges);
        prop_assert_eq!(&new.indirect_sites, &old.indirect_sites);
        prop_assert_eq!(&new.resolved_targets, &old.resolved_targets);
        let unreachable = |cfg: &ModuleCfg| cfg.unreachable_blocks().map(|b| b.start).collect::<Vec<_>>();
        prop_assert_eq!(unreachable(new), unreachable(old));
        let listed = |cfg: &ModuleCfg| {
            cfg.reachable_instrs().filter(|(_, i)| *i != Instr::Nop).collect::<Vec<_>>()
        };
        prop_assert_eq!(listed(new), listed(old));
        for s in &image.sections {
            for va in s.va..=s.end_va() {
                let answers =
                    |cfg: &ModuleCfg| (cfg.accounts_for(va), cfg.is_reachable(va), cfg.instr_at(va));
                prop_assert_eq!(answers(new), answers(old), "at {:#x}", va);
            }
        }
        Ok(())
    }

    #[test]
    fn recovery_matches_the_per_byte_oracle() {
        check(
            "run-charting recovery matches the per-byte oracle",
            Config::default(),
            CfgCase::generate,
            |case| {
                let image = case.image();
                let mut new = ModuleCfg::recover("t", &image);
                let mut old = oracle::recover_per_byte("t", &image);
                same_answers(&image, &new, &old).map_err(|e| format!("after recover: {e}"))?;
                for (round, resolved) in case.rounds(&image, &new).iter().enumerate() {
                    new.splice_resolved(resolved);
                    old.splice_resolved(resolved);
                    same_answers(&image, &new, &old)
                        .map_err(|e| format!("after splice round {round}: {e}"))?;
                }
                Ok(())
            },
        );
    }
}
