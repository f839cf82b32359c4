//! Differential property test: the paged shadow memory against the original
//! per-byte `HashMap` shadow kept here as a reference oracle.
//!
//! Random label/copy/union/delete sequences — including page-boundary-
//! crossing loads and stores whose translated bytes land on scrambled,
//! non-adjacent frames — are applied to a real [`TaintEngine`] (paged
//! shadow, zero-taint fast path, batched ops) and to the oracle, which
//! replicates the pre-paging semantics byte by byte over a
//! `HashMap<u32, ListId>`. Afterwards the two must agree on the exact
//! tainted-byte set, the coalesced `tainted_regions()` boundaries, and the
//! provenance tags of every region and register byte.
//!
//! Both sides intern into their own [`ProvInterner`]; since interning is
//! canonical (same tag history ⇒ same id), regions are compared by
//! boundaries plus rendered tag sequences rather than raw ids.

use faros_support::prop::{check, Config, Rng, Shrink};
use faros_support::{prop_assert, prop_assert_eq};
use faros_taint::arb::prov_tag;
use faros_taint::engine::{PropagationMode, TaintEngine};
use faros_taint::provlist::{ListId, ProvInterner};
use faros_taint::shadow::ShadowAddr;
use faros_taint::tag::ProvTag;
use std::collections::HashMap;

const PAGE: u32 = 4096;
const REGS: u8 = 8;

/// One shadow operation, expressed so it can drive both implementations.
#[derive(Debug, Clone)]
enum Op {
    /// `label_range_fresh` — a taint source over a physical range.
    LabelRange { phys: u32, len: usize, tag: ProvTag },
    /// `append_tag_range` — process/file tag appended over a range.
    AppendRange { phys: u32, len: usize, tag: ProvTag },
    /// Plain contiguous mem→mem copy (kernel-mediated `guest_copy` shape).
    CopyMem { dst: u32, src: u32, len: u8 },
    /// A load: per-byte translated run into a register, with
    /// zero-extension for sub-word widths. The run may cross a page
    /// boundary onto a non-adjacent frame.
    Load { reg: u8, phys: Vec<u32> },
    /// A store: register bytes out to a per-byte translated run.
    Store { phys: Vec<u32>, reg: u8 },
    /// Union of memory source ranges into a destination (ALU shape).
    Union { dst: u32, dst_len: u8, srcs: Vec<(u32, u8)>, keep: bool },
    /// Contiguous delete (immediate writes).
    Delete { dst: u32, len: u8 },
    /// Batched delete over a translated run (`push imm` across pages).
    DeleteMem { phys: Vec<u32> },
}

impl Shrink for Op {
    fn shrink(&self) -> Vec<Op> {
        Vec::new() // Vec<Op> already shrinks by dropping whole ops.
    }
}

/// The reference oracle: the original per-byte `HashMap` shadow with its
/// own interner, applying every rule exactly as the pre-paging engine did.
#[derive(Default)]
struct Oracle {
    interner: ProvInterner,
    mem: HashMap<u32, ListId>,
    regs: [[ListId; 4]; REGS as usize],
}

impl Oracle {
    fn get_mem(&self, a: u32) -> ListId {
        self.mem.get(&a).copied().unwrap_or(ListId::EMPTY)
    }

    fn set_mem(&mut self, a: u32, id: ListId) {
        if id.is_empty() {
            self.mem.remove(&a);
        } else {
            self.mem.insert(a, id);
        }
    }

    fn clamp(phys: u32, len: usize) -> usize {
        len.min((u32::MAX - phys) as usize + 1)
    }

    fn apply(&mut self, op: &Op) {
        match op {
            Op::LabelRange { phys, len, tag } => {
                let id = self.interner.append(ListId::EMPTY, *tag);
                for i in 0..Self::clamp(*phys, *len) {
                    self.set_mem(phys + i as u32, id);
                }
            }
            Op::AppendRange { phys, len, tag } => {
                for i in 0..Self::clamp(*phys, *len) {
                    let a = phys + i as u32;
                    let id = self.interner.append(self.get_mem(a), *tag);
                    self.set_mem(a, id);
                }
            }
            Op::CopyMem { dst, src, len } => {
                for i in 0..u32::from(*len) {
                    let id = self.get_mem(src.wrapping_add(i));
                    self.set_mem(dst.wrapping_add(i), id);
                }
            }
            Op::Load { reg, phys } => {
                for (i, &p) in phys.iter().enumerate() {
                    self.regs[*reg as usize][i] = self.get_mem(p);
                }
                for i in phys.len()..4 {
                    self.regs[*reg as usize][i] = ListId::EMPTY;
                }
            }
            Op::Store { phys, reg } => {
                for (i, &p) in phys.iter().enumerate() {
                    self.set_mem(p, self.regs[*reg as usize][i]);
                }
            }
            Op::Union { dst, dst_len, srcs, keep } => {
                let mut acc = ListId::EMPTY;
                for &(src, len) in srcs {
                    for i in 0..u32::from(len) {
                        let id = self.get_mem(src.wrapping_add(i));
                        acc = self.interner.union(acc, id);
                    }
                }
                for i in 0..u32::from(*dst_len) {
                    let a = dst.wrapping_add(i);
                    let merged = if *keep {
                        let cur = self.get_mem(a);
                        self.interner.union(cur, acc)
                    } else {
                        acc
                    };
                    self.set_mem(a, merged);
                }
            }
            Op::Delete { dst, len } => {
                for i in 0..u32::from(*len) {
                    self.set_mem(dst.wrapping_add(i), ListId::EMPTY);
                }
            }
            Op::DeleteMem { phys } => {
                for &p in phys {
                    self.set_mem(p, ListId::EMPTY);
                }
            }
        }
    }

    /// Tainted regions as `(phys, len, tags)`, coalesced like the engine's
    /// `tainted_regions` (adjacent bytes with the identical list).
    fn regions(&self) -> Vec<(u32, u32, Vec<ProvTag>)> {
        let mut bytes: Vec<(u32, ListId)> = self.mem.iter().map(|(&a, &id)| (a, id)).collect();
        bytes.sort_unstable_by_key(|&(a, _)| a);
        let mut out: Vec<(u32, u32, ListId)> = Vec::new();
        for (addr, list) in bytes {
            match out.last_mut() {
                Some((phys, len, l))
                    if u64::from(*phys) + u64::from(*len) == u64::from(addr) && *l == list =>
                {
                    *len += 1;
                }
                _ => out.push((addr, 1, list)),
            }
        }
        out.into_iter()
            .map(|(phys, len, l)| (phys, len, self.interner.tags(l).to_vec()))
            .collect()
    }
}

fn engine_regions(engine: &TaintEngine) -> Vec<(u32, u32, Vec<ProvTag>)> {
    engine
        .tainted_regions()
        .into_iter()
        .map(|r| (r.phys, r.len, engine.interner().tags(r.list).to_vec()))
        .collect()
}

fn apply_to_engine(engine: &mut TaintEngine, op: &Op) {
    match op {
        Op::LabelRange { phys, len, tag } => engine.label_range_fresh(*phys, *len, *tag),
        Op::AppendRange { phys, len, tag } => engine.append_tag_range(*phys, *len, *tag),
        Op::CopyMem { dst, src, len } => {
            engine.copy(ShadowAddr::Mem(*dst), ShadowAddr::Mem(*src), *len);
        }
        Op::Load { reg, phys } => {
            engine.copy_mem_to_reg(*reg, phys);
            let w = phys.len();
            if w < 4 {
                engine.delete(ShadowAddr::Reg { index: *reg, off: w as u8 }, (4 - w) as u8);
            }
        }
        Op::Store { phys, reg } => engine.copy_reg_to_mem(phys, *reg),
        Op::Union { dst, dst_len, srcs, keep } => {
            let srcs: Vec<(ShadowAddr, u8)> =
                srcs.iter().map(|&(a, l)| (ShadowAddr::Mem(a), l)).collect();
            engine.union_into(ShadowAddr::Mem(*dst), *dst_len, &srcs, *keep);
        }
        Op::Delete { dst, len } => engine.delete(ShadowAddr::Mem(*dst), *len),
        Op::DeleteMem { phys } => engine.delete_mem(phys),
    }
}

/// A physical byte address, biased toward page boundaries and the very top
/// of the address space (where the old wrapping bugs lived).
fn addr(rng: &mut Rng) -> u32 {
    match rng.range_u32(0, 10) {
        0 => u32::MAX - rng.range_u32(0, 64),
        1..=4 => {
            let page = rng.range_u32(1, 8);
            page * PAGE - rng.range_u32(0, 8)
        }
        _ => rng.range_u32(0, 8 * PAGE),
    }
}

/// A translated per-byte physical run of width 1/2/4: starts near the end
/// of one frame and, when it crosses, continues on an unrelated frame —
/// exactly what an MMU hands back for a page-crossing virtual access.
fn translated_run(rng: &mut Rng) -> Vec<u32> {
    let w = *rng.pick(&[1usize, 2, 4]);
    let start = rng.range_u32(PAGE - 4, PAGE); // offset within the first frame
    let f1 = rng.range_u32(0, 8) * PAGE;
    let f2 = rng.range_u32(0, 8) * PAGE; // independent: frames need not be adjacent
    (0..w as u32)
        .map(|i| {
            let off = start + i;
            if off < PAGE {
                f1 + off
            } else {
                f2 + (off - PAGE)
            }
        })
        .collect()
}

fn op(rng: &mut Rng) -> Op {
    match rng.range_u32(0, 8) {
        0 => Op::LabelRange {
            phys: addr(rng),
            len: rng.range_usize(1, 64),
            tag: prov_tag(rng),
        },
        1 => Op::AppendRange {
            phys: addr(rng),
            len: rng.range_usize(1, 32),
            tag: prov_tag(rng),
        },
        2 => Op::CopyMem {
            dst: addr(rng),
            src: addr(rng),
            len: rng.range_u32(1, 9) as u8,
        },
        3 => Op::Load { reg: rng.range_u32(0, u32::from(REGS)) as u8, phys: translated_run(rng) },
        4 => Op::Store { phys: translated_run(rng), reg: rng.range_u32(0, u32::from(REGS)) as u8 },
        5 => Op::Union {
            dst: addr(rng),
            dst_len: rng.range_u32(1, 5) as u8,
            srcs: rng.vec_of(1, 3, |r| (addr(r), r.range_u32(1, 5) as u8)),
            keep: rng.next_bool(),
        },
        6 => Op::Delete { dst: addr(rng), len: rng.range_u32(1, 9) as u8 },
        _ => Op::DeleteMem { phys: translated_run(rng) },
    }
}

#[test]
fn paged_shadow_matches_hashmap_oracle() {
    check(
        "paged_shadow_matches_hashmap_oracle",
        Config::default(),
        |rng| rng.vec_of(0, 48, op),
        |ops| {
            let mut engine = TaintEngine::new(PropagationMode::direct_only());
            let mut oracle = Oracle::default();
            for op in ops {
                apply_to_engine(&mut engine, op);
                oracle.apply(op);
            }
            prop_assert_eq!(
                engine.shadow().tainted_mem_bytes(),
                oracle.mem.len(),
                "global tainted-byte count"
            );
            prop_assert_eq!(engine_regions(&engine), oracle.regions(), "tainted_regions");
            for r in 0..REGS {
                for off in 0..4u8 {
                    let got = engine.prov_tags(ShadowAddr::Reg { index: r, off });
                    let want =
                        oracle.interner.tags(oracle.regs[r as usize][off as usize]);
                    prop_assert_eq!(got, want, "register {r} byte {off}");
                }
            }
            // The fast path must be an optimization, not a behaviour: a
            // clean engine and a clean oracle agree too.
            prop_assert!(
                engine.shadow().tainted_mem_bytes() > 0 || engine_regions(&engine).is_empty()
            );
            Ok(())
        },
    );
}

/// One register-addressed shadow operation whose offset arithmetic can
/// escape the 4-byte register — the shapes behind the clamp-aliasing bug.
#[derive(Debug, Clone)]
enum RegOp {
    /// Seed taint into memory so register traffic has something to move.
    Label { phys: u32, len: usize, tag: ProvTag },
    /// `copy(Reg{off}, Mem(src), len)` — dst bytes past the register end
    /// must be *dropped*, not folded onto byte 3.
    MemToReg { reg: u8, off: u8, src: u32, len: u8 },
    /// `copy(Mem(dst), Reg{off}, len)` — src bytes past the register end
    /// read as untainted.
    RegToMem { dst: u32, reg: u8, off: u8, len: u8 },
    /// `delete(Reg{off}, len)` with a possibly-escaping range.
    DeleteReg { reg: u8, off: u8, len: u8 },
    /// `union_into(Reg{off}, ..)` from a memory source.
    UnionIntoReg { reg: u8, off: u8, dst_len: u8, src: u32, src_len: u8, keep: bool },
    /// `union_into(Mem(dst), ..)` from a register source whose range may
    /// escape — escaped source bytes contribute nothing.
    UnionFromReg { dst: u32, dst_len: u8, reg: u8, off: u8, src_len: u8, keep: bool },
}

impl Shrink for RegOp {
    fn shrink(&self) -> Vec<RegOp> {
        Vec::new()
    }
}

impl Oracle {
    /// Applies a [`RegOp`] with the *documented* overflow policy: a
    /// register shadow byte past offset 3 does not exist — writes to it are
    /// dropped and reads of it yield the empty list. This is exactly what
    /// the pre-fix clamp violated (it aliased every escaped byte onto
    /// byte 3).
    fn apply_reg(&mut self, op: &RegOp) {
        match op {
            RegOp::Label { phys, len, tag } => {
                self.apply(&Op::LabelRange { phys: *phys, len: *len, tag: *tag });
            }
            RegOp::MemToReg { reg, off, src, len } => {
                for i in 0..*len {
                    let Some(o) = checked_reg_off(*off, i) else { break };
                    self.regs[*reg as usize][o] = self.get_mem(src.wrapping_add(i.into()));
                }
            }
            RegOp::RegToMem { dst, reg, off, len } => {
                for i in 0..*len {
                    let id = match checked_reg_off(*off, i) {
                        Some(o) => self.regs[*reg as usize][o],
                        None => ListId::EMPTY,
                    };
                    self.set_mem(dst.wrapping_add(i.into()), id);
                }
            }
            RegOp::DeleteReg { reg, off, len } => {
                for i in 0..*len {
                    let Some(o) = checked_reg_off(*off, i) else { break };
                    self.regs[*reg as usize][o] = ListId::EMPTY;
                }
            }
            RegOp::UnionIntoReg { reg, off, dst_len, src, src_len, keep } => {
                let mut acc = ListId::EMPTY;
                for i in 0..u32::from(*src_len) {
                    acc = self.interner.union(acc, self.get_mem(src.wrapping_add(i)));
                }
                for i in 0..*dst_len {
                    let Some(o) = checked_reg_off(*off, i) else { break };
                    let cur = self.regs[*reg as usize][o];
                    self.regs[*reg as usize][o] =
                        if *keep { self.interner.union(cur, acc) } else { acc };
                }
            }
            RegOp::UnionFromReg { dst, dst_len, reg, off, src_len, keep } => {
                let mut acc = ListId::EMPTY;
                for i in 0..*src_len {
                    let Some(o) = checked_reg_off(*off, i) else { break };
                    acc = self.interner.union(acc, self.regs[*reg as usize][o]);
                }
                for i in 0..u32::from(*dst_len) {
                    let a = dst.wrapping_add(i);
                    let merged = if *keep {
                        self.interner.union(self.get_mem(a), acc)
                    } else {
                        acc
                    };
                    self.set_mem(a, merged);
                }
            }
        }
    }
}

fn checked_reg_off(off: u8, i: u8) -> Option<usize> {
    let o = u32::from(off) + u32::from(i);
    (o < 4).then_some(o as usize)
}

fn apply_reg_to_engine(engine: &mut TaintEngine, op: &RegOp) {
    match op {
        RegOp::Label { phys, len, tag } => engine.label_range_fresh(*phys, *len, *tag),
        RegOp::MemToReg { reg, off, src, len } => {
            engine.copy(ShadowAddr::Reg { index: *reg, off: *off }, ShadowAddr::Mem(*src), *len);
        }
        RegOp::RegToMem { dst, reg, off, len } => {
            engine.copy(ShadowAddr::Mem(*dst), ShadowAddr::Reg { index: *reg, off: *off }, *len);
        }
        RegOp::DeleteReg { reg, off, len } => {
            engine.delete(ShadowAddr::Reg { index: *reg, off: *off }, *len);
        }
        RegOp::UnionIntoReg { reg, off, dst_len, src, src_len, keep } => {
            engine.union_into(
                ShadowAddr::Reg { index: *reg, off: *off },
                *dst_len,
                &[(ShadowAddr::Mem(*src), *src_len)],
                *keep,
            );
        }
        RegOp::UnionFromReg { dst, dst_len, reg, off, src_len, keep } => {
            engine.union_into(
                ShadowAddr::Mem(*dst),
                *dst_len,
                &[(ShadowAddr::Reg { index: *reg, off: *off }, *src_len)],
                *keep,
            );
        }
    }
}

fn reg_op(rng: &mut Rng) -> RegOp {
    let reg = |r: &mut Rng| r.range_u32(0, u32::from(REGS)) as u8;
    // Offsets 0..4 and lengths 1..=4: roughly half the draws escape the
    // register, which is the interesting half.
    let off = |r: &mut Rng| r.range_u32(0, 4) as u8;
    let len = |r: &mut Rng| r.range_u32(1, 5) as u8;
    match rng.range_u32(0, 6) {
        0 => RegOp::Label { phys: addr(rng), len: rng.range_usize(1, 32), tag: prov_tag(rng) },
        1 => RegOp::MemToReg { reg: reg(rng), off: off(rng), src: addr(rng), len: len(rng) },
        2 => RegOp::RegToMem { dst: addr(rng), reg: reg(rng), off: off(rng), len: len(rng) },
        3 => RegOp::DeleteReg { reg: reg(rng), off: off(rng), len: len(rng) },
        4 => RegOp::UnionIntoReg {
            reg: reg(rng),
            off: off(rng),
            dst_len: len(rng),
            src: addr(rng),
            src_len: len(rng),
            keep: rng.next_bool(),
        },
        _ => RegOp::UnionFromReg {
            dst: addr(rng),
            dst_len: len(rng),
            reg: reg(rng),
            off: off(rng),
            src_len: len(rng),
            keep: rng.next_bool(),
        },
    }
}

/// Differential pin for the sub-register clamp-aliasing fix: random
/// register-addressed flows whose offset arithmetic escapes the register
/// must agree with an oracle that *drops* escaped bytes. Under the old
/// `saturating_add(..).min(3)` behaviour, escaped destination bytes all
/// collapsed onto byte 3 (last writer wins) and escaped source reads
/// returned byte 3's list — both diverge from this oracle.
#[test]
fn register_offset_overflow_drops_bytes_instead_of_aliasing() {
    check(
        "register_offset_overflow_drops_bytes_instead_of_aliasing",
        Config::default(),
        |rng| rng.vec_of(1, 48, reg_op),
        |ops| {
            let mut engine = TaintEngine::new(PropagationMode::direct_only());
            let mut oracle = Oracle::default();
            for op in ops {
                apply_reg_to_engine(&mut engine, op);
                oracle.apply_reg(op);
            }
            prop_assert_eq!(engine_regions(&engine), oracle.regions(), "memory shadow");
            for r in 0..REGS {
                for off in 0..4u8 {
                    let got = engine.prov_tags(ShadowAddr::Reg { index: r, off });
                    let want = oracle.interner.tags(oracle.regs[r as usize][off as usize]);
                    prop_assert_eq!(got, want, "register {r} byte {off}");
                }
            }
            Ok(())
        },
    );
}

/// The exact shape that used to alias: a 4-byte copy into `Reg {{ off: 2 }}`
/// must write register bytes 2 and 3 from source bytes 0 and 1 and stop —
/// not fold source bytes 1..4 onto register byte 3.
#[test]
fn escaped_copy_keeps_the_in_range_prefix() {
    use faros_taint::tag::TagKind;
    let mut engine = TaintEngine::new(PropagationMode::direct_only());
    for i in 0..4u16 {
        engine.label_range_fresh(0x100 + u32::from(i), 1, ProvTag::new(TagKind::Process, 10 + i));
    }
    engine.copy(ShadowAddr::Reg { index: 0, off: 2 }, ShadowAddr::Mem(0x100), 4);
    let tags = |engine: &TaintEngine, off: u8| {
        engine.prov_tags(ShadowAddr::Reg { index: 0, off }).to_vec()
    };
    assert_eq!(tags(&engine, 2), vec![ProvTag::new(TagKind::Process, 10)]);
    assert_eq!(
        tags(&engine, 3),
        vec![ProvTag::new(TagKind::Process, 11)],
        "byte 3 must hold source byte 1, not the clamp-aliased last writer"
    );
    assert_eq!(tags(&engine, 0), Vec::new());
    assert_eq!(tags(&engine, 1), Vec::new());
}

/// Focused page-boundary differential: long label runs spanning frames,
/// then page-crossing loads/stores shuffling them, then deletes freeing
/// pages — the allocation/free lifecycle of the paged shadow.
#[test]
fn page_lifecycle_matches_oracle() {
    check(
        "page_lifecycle_matches_oracle",
        Config::default(),
        |rng| {
            let seed_tag = prov_tag(rng);
            let start = rng.range_u32(1, 4) * PAGE - rng.range_u32(1, 16);
            let len = rng.range_usize(8, 2 * PAGE as usize);
            let moves = rng.vec_of(1, 12, |r| {
                (translated_run(r), r.range_u32(0, u32::from(REGS)) as u8, translated_run(r))
            });
            (seed_tag, start, len, moves)
        },
        |(seed_tag, start, len, moves)| {
            let mut engine = TaintEngine::new(PropagationMode::direct_only());
            let mut oracle = Oracle::default();
            let label = Op::LabelRange { phys: *start, len: *len, tag: *seed_tag };
            apply_to_engine(&mut engine, &label);
            oracle.apply(&label);
            for (src_run, reg, dst_run) in moves {
                for o in [
                    Op::Load { reg: *reg, phys: src_run.clone() },
                    Op::Store { phys: dst_run.clone(), reg: *reg },
                    Op::DeleteMem { phys: src_run.clone() },
                ] {
                    apply_to_engine(&mut engine, &o);
                    oracle.apply(&o);
                }
            }
            prop_assert_eq!(engine_regions(&engine), oracle.regions());
            prop_assert_eq!(engine.shadow().tainted_mem_bytes(), oracle.mem.len());
            Ok(())
        },
    );
}

/// One kernel copy: `len` bytes from `src` to `dst`, appending `append` to
/// every byte that lands tainted (the destination process's tag).
#[derive(Debug, Clone)]
struct RangeCopy {
    dst: u32,
    src: u32,
    len: u32,
    append: Option<ProvTag>,
}

/// A range-copy scenario: the propagation mode, the tag of the register
/// that decides an open branch scope (if any), the shadow seeding, and the
/// copies.
#[derive(Debug, Clone)]
struct CopyCase {
    conservative: bool,
    scope: Option<ProvTag>,
    seed: Vec<Op>,
    copies: Vec<RangeCopy>,
}

impl Shrink for CopyCase {
    fn shrink(&self) -> Vec<CopyCase> {
        let mut out = Vec::new();
        for i in 0..self.copies.len() {
            let mut c = self.clone();
            c.copies.remove(i);
            out.push(c);
        }
        for i in 0..self.seed.len() {
            let mut c = self.clone();
            c.seed.remove(i);
            out.push(c);
        }
        out
    }
}

/// The range copy's oracle: the per-byte `copy` + `prov_id` +
/// `append_tag` loop over the same bytes.
fn copy_per_byte(engine: &mut TaintEngine, c: &RangeCopy) {
    for i in 0..c.len {
        let dst = ShadowAddr::Mem(c.dst + i);
        engine.copy(dst, ShadowAddr::Mem(c.src + i), 1);
        if let Some(tag) = c.append {
            if !engine.prov_id(dst).is_empty() {
                engine.append_tag(dst, tag);
            }
        }
    }
}

fn range_copy(rng: &mut Rng) -> RangeCopy {
    let len = match rng.range_u32(0, 8) {
        0 => rng.range_u32(PAGE, 2 * PAGE + 16),
        _ => rng.range_u32(0, 64),
    };
    let src = addr(rng);
    let dst = match rng.range_u32(0, 6) {
        // Overlapping, the destination ahead of the source (replicates).
        0 => src.wrapping_add(rng.range_u32(1, len.max(2))),
        // Overlapping, the destination behind the source (moves).
        1 => src.wrapping_sub(rng.range_u32(1, len.max(2))),
        _ => addr(rng),
    };
    // Kernel copies are of physical runs, which end at the top of memory.
    let room = |a: u32| (u32::MAX - a).saturating_add(1);
    let len = len.min(room(src)).min(room(dst));
    let append = rng.next_bool().then(|| prov_tag(rng));
    RangeCopy { dst, src, len, append }
}

/// A copy from clean memory over a range that holds every tainted byte:
/// the shadow goes clean partway through the run, after the range's last
/// tainted byte.
fn clearing_case(rng: &mut Rng) -> CopyCase {
    let dst = addr(rng) & !0xff;
    let first = rng.range_u32(0, 32);
    let tainted = rng.range_usize(1, 32);
    let len = first + tainted as u32 + rng.range_u32(1, 64);
    let seed = vec![Op::LabelRange { phys: dst.wrapping_add(first), len: tainted, tag: prov_tag(rng) }];
    let copy = RangeCopy { dst, src: dst.wrapping_add(16 * PAGE), len, append: Some(prov_tag(rng)) };
    let copies = std::iter::once(copy).chain(rng.vec_of(0, 2, range_copy)).collect();
    CopyCase { conservative: false, scope: None, seed, copies }
}

fn copy_case(rng: &mut Rng) -> CopyCase {
    if rng.range_u32(0, 4) == 0 {
        return clearing_case(rng);
    }
    CopyCase {
        conservative: rng.next_bool(),
        scope: rng.next_bool().then(|| prov_tag(rng)),
        seed: rng.vec_of(0, 12, op),
        copies: rng.vec_of(1, 6, range_copy),
    }
}

fn case_engine(case: &CopyCase) -> TaintEngine {
    let mode = if case.conservative {
        PropagationMode::conservative()
    } else {
        PropagationMode::direct_only()
    };
    let mut engine = TaintEngine::new(mode);
    for op in &case.seed {
        apply_to_engine(&mut engine, op);
    }
    if let Some(tag) = case.scope {
        let flags = ShadowAddr::Reg { index: 0, off: 0 };
        engine.label_fresh(flags, tag);
        engine.note_flags(&[(flags, 4)]);
        engine.enter_branch_scope();
    }
    engine
}

/// `copy_mem_range` is the per-byte kernel copy loop, run by run: the same
/// final shadow (memory and registers), the same list ids minted in the
/// same order (so the same interner size), and the same counters, down to
/// one fast-path decision per byte.
#[test]
fn range_copy_matches_the_per_byte_loop() {
    check(
        "range_copy_matches_the_per_byte_loop",
        Config::default(),
        copy_case,
        |case| {
            let mut ranged = case_engine(case);
            let mut bytewise = case_engine(case);
            for c in &case.copies {
                ranged.copy_mem_range(c.dst, c.src, c.len, c.append);
                copy_per_byte(&mut bytewise, c);
            }
            let mem = |e: &TaintEngine| e.shadow().iter_mem().collect::<Vec<_>>();
            prop_assert_eq!(mem(&ranged), mem(&bytewise), "memory shadow and list ids");
            prop_assert_eq!(ranged.shadow().save_regs(), bytewise.shadow().save_regs());
            prop_assert_eq!(ranged.interner().len(), bytewise.interner().len(), "interner");
            prop_assert_eq!(ranged.metrics_snapshot(), bytewise.metrics_snapshot(), "metrics");
            Ok(())
        },
    );
}

/// The clean-partway shape, pinned: clearing the last tainted byte at
/// offset 6 of a 16-byte run leaves the nine bytes after it to the fast
/// path, as the per-byte loop counts them.
#[test]
fn range_copy_counts_hits_after_the_shadow_goes_clean() {
    use faros_taint::tag::TagKind;
    let mut engine = TaintEngine::new(PropagationMode::direct_only());
    engine.label_range_fresh(0x1004, 3, ProvTag::new(TagKind::Netflow, 1));
    engine.copy_mem_range(0x1000, 0x9000, 16, Some(ProvTag::new(TagKind::Process, 2)));
    let snap = engine.metrics_snapshot();
    assert_eq!(engine.shadow().tainted_mem_bytes(), 0);
    assert_eq!(snap.counter("taint.fastpath.misses"), Some(7));
    assert_eq!(snap.counter("taint.fastpath.hits"), Some(9));
    assert_eq!(snap.counter("taint.copies"), Some(16));
}
