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
//!    exclusively through indirect calls.
//!
//! Instructions are then grouped into basic blocks at the usual leaders
//! (roots, branch targets, instructions following a block-ender), mirroring
//! the dynamic notion of a block in `Instr::ends_block`, so static block
//! starts and replay-observed block starts live in the same vocabulary.

use faros_emu::encode::decode_at;
use faros_emu::isa::Instr;
use faros_kernel::module::FdlImage;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One recovered basic block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// VA of the first instruction.
    pub start: u32,
    /// One past the last instruction byte.
    pub end: u32,
    /// The block's instructions, in address order.
    pub instrs: Vec<(u32, Instr)>,
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
    instr_starts: BTreeSet<u32>,
    reachable_starts: BTreeSet<u32>,
}

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

impl ModuleCfg {
    /// Builds the static model of `image`.
    pub fn recover(name: &str, image: &FdlImage) -> ModuleCfg {
        // One slot per byte of every code section, indexed by section and
        // byte offset: every visited test and decode is an array access.
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
            // An instruction must not run past its section.
            (u64::from(s.va) + (off + len) as u64 <= u64::from(s.end_va()))
                .then_some((instr, u8::try_from(len).ok()?))
        };
        let mut leaders: Vec<u32> = Vec::new();
        let mut call_edges = Vec::new();
        let mut indirect_sites = Vec::new();

        // Pass 1: recursive descent from the entry point and code exports.
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
                    // Syscalls return to the next instruction.
                    leaders.push(next);
                    worklist.push_back(next);
                }
                Instr::Ret | Instr::Hlt => {}
                _ => {
                    worklist.push_back(next);
                }
            }
        }

        // Pass 2: linear sweep over the bytes descent never reached.
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
                // First decodable byte after a gap starts a block.
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

        // Every decoded instruction in address order (sections need not be
        // listed in VA order).
        let mut decoded: Vec<(u32, Slot)> = Vec::new();
        for (s, slots) in image.sections.iter().zip(&slots) {
            for (off, slot) in slots.iter().enumerate() {
                if slot.instr.is_some() {
                    decoded.push((s.va + off as u32, *slot));
                }
            }
        }
        // Free the slots before the blocks are built, to keep peak memory
        // near the size of the model itself.
        drop(slots);
        decoded.sort_by_key(|d| d.0);

        // Group instructions into blocks at the leaders.
        let mut blocks: BTreeMap<u32, BasicBlock> = BTreeMap::new();
        let mut current: Option<BasicBlock> = None;
        let mut expected_next: u32 = 0;
        for &(va, slot) in &decoded {
            let (instr, len) = slot.decoded().expect("only decoded slots are gathered");
            let continues = current.is_some() && va == expected_next && !slot.leader;
            if !continues {
                if let Some(mut b) = current.take() {
                    // A block cut short by a leader (not by a block-ending
                    // instruction) falls through into that leader.
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

        ModuleCfg {
            name: name.to_string(),
            blocks,
            call_edges,
            indirect_sites,
            resolved_targets: BTreeMap::new(),
            instr_starts: decoded.iter().map(|d| d.0).collect(),
            reachable_starts: decoded.iter().filter(|d| d.1.reachable).map(|d| d.0).collect(),
        }
    }

    /// Start VA of the block whose byte range contains `va`.
    fn block_containing(&self, va: u32) -> Option<u32> {
        let (&start, b) = self.blocks.range(..=va).next_back()?;
        (va < b.end).then_some(start)
    }

    /// Splits the block containing `va` so that `va` becomes a block
    /// start (a new leader discovered after recovery — e.g. a resolved
    /// indirect-branch target landing mid-block). Returns `true` if a
    /// split happened.
    fn split_block_at(&mut self, va: u32) -> bool {
        if self.blocks.contains_key(&va) || !self.instr_starts.contains(&va) {
            return false;
        }
        let Some(bstart) = self.block_containing(va) else { return false };
        let b = self.blocks.get_mut(&bstart).expect("block_containing returned a key");
        let Some(idx) = b.instrs.iter().position(|(v, _)| *v == va) else { return false };
        let tail = BasicBlock {
            start: va,
            end: b.end,
            instrs: b.instrs.split_off(idx),
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
                targets.iter().copied().filter(|&t| self.instr_starts.contains(&t)).collect();
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
            if self.reachable_starts.contains(&site) {
                new_roots.extend(in_image);
            }
        }
        self.extend_reachability(new_roots);
    }

    /// Propagates descent-reachability from `roots` through block
    /// successors, direct call edges, and already-resolved indirect edges.
    fn extend_reachability(&mut self, roots: Vec<u32>) {
        let mut work: VecDeque<u32> = roots
            .into_iter()
            .filter(|r| self.blocks.contains_key(r) && !self.reachable_starts.contains(r))
            .collect();
        while let Some(bva) = work.pop_front() {
            if self.reachable_starts.contains(&bva) {
                continue;
            }
            let Some(b) = self.blocks.get_mut(&bva) else { continue };
            b.reachable = true;
            // Block succs already carry direct-call targets and
            // fall-throughs; only resolved indirect edges need adding.
            let mut next: Vec<u32> = b.succs.clone();
            for &(va, instr) in &b.instrs {
                self.reachable_starts.insert(va);
                if matches!(instr, Instr::CallReg { .. } | Instr::JmpReg { .. }) {
                    if let Some(ts) = self.resolved_targets.get(&va) {
                        next.extend(ts.iter().copied());
                    }
                }
            }
            work.extend(next.into_iter().filter(|t| self.blocks.contains_key(t)));
        }
        for site in &mut self.indirect_sites {
            site.reachable = self.reachable_starts.contains(&site.va);
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
    /// instruction (descent or sweep) — the coverage cross-check's
    /// definition of "statically charted".
    pub fn accounts_for(&self, va: u32) -> bool {
        self.instr_starts.contains(&va)
    }

    /// Returns `true` if recursive descent reached the instruction at `va`.
    pub fn is_reachable(&self, va: u32) -> bool {
        self.reachable_starts.contains(&va)
    }

    /// The recovered instruction starting at `va`, if any.
    pub fn instr_at(&self, va: u32) -> Option<Instr> {
        let bstart = self.block_containing(va)?;
        self.blocks[&bstart].instrs.iter().find(|(v, _)| *v == va).map(|&(_, i)| i)
    }

    /// The reachable instructions, as `(va, instr)` pairs in address order.
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

#[cfg(test)]
mod tests {
    use super::*;
    use faros_emu::asm::Asm;
    use faros_emu::mmu::Perms;
    use faros_kernel::module::{Export, Section};

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
        BasicBlock { start, end, instrs: instrs.to_vec(), succs: succs.to_vec(), reachable }
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
        // The sweep resynchronizes on the two zero bytes (`nop`s); the
        // run they start is cut short by the next section's leader and
        // falls through into it.
        let expected = BTreeMap::from([
            (BASE, block(BASE, BASE + 1, &[(BASE, Instr::Hlt)], &[], true)),
            (
                BASE + 2,
                block(
                    BASE + 2,
                    BASE + 4,
                    &[(BASE + 2, Instr::Nop), (BASE + 3, Instr::Nop)],
                    &[BASE + 4],
                    false,
                ),
            ),
            (BASE + 4, block(BASE + 4, BASE + 5, &[(BASE + 4, Instr::Ret)], &[], false)),
        ]);
        assert_eq!(cfg.blocks, expected);
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
        let nops: Vec<(u32, Instr)> =
            (BASE + 0x10..BASE + 0x20).map(|va| (va, Instr::Nop)).collect();
        let expected = BTreeMap::from([
            (BASE, block(BASE, BASE + 1, &[(BASE, Instr::Hlt)], &[], true)),
            (BASE + 0x10, block(BASE + 0x10, BASE + 0x20, &nops, &[], false)),
        ]);
        assert_eq!(cfg.blocks, expected);
        assert!(cfg.blocks[&(BASE + 0x10)].is_padding());
        assert_eq!(cfg.unreachable_blocks().count(), 0);
        for va in BASE + 0x10..BASE + 0x20 {
            assert!(cfg.accounts_for(va) && !cfg.is_reachable(va), "{va:#x}");
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
}
