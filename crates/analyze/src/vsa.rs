//! Worklist-based intra-procedural value-set analysis over FE32.
//!
//! The abstract domain is the classic *strided interval* of Balakrishnan &
//! Reps' VSA (the analysis SpiderPig runs before instrumenting, cf.
//! PAPERS.md): a value is either unknown (`Top`), an unreachable
//! contradiction (`Bot`), a stack address expressed as a byte offset from
//! the frame base at function entry (`Sp`), or a finite arithmetic
//! progression `stride[lo, hi]` of 32-bit constants (`Si`). Constants are
//! the degenerate interval `0[c, c]`.
//!
//! The analysis is deliberately modest — flow-sensitive, intra-procedural,
//! no branch-condition refinement — because its one consumer
//! ([`crate::dataflow`]) only needs the value sets of registers at three
//! kinds of program points: indirect call/jump sites (target resolution),
//! syscall gates (`eax` carries the service number, `ebx ecx edx esi edi`
//! the arguments), and, for the taint pass, the addresses of loads and
//! stores. Soundness of the resolved target sets is checked
//! *differentially* against replay-observed targets by the corpus
//! property test, which is the arbiter the design trusts.
//!
//! The block worklist (`solve`) is the static layer's one
//! intra-procedural fixpoint engine: generic over the per-block state, it
//! owns the queue, the join counts and the widening rule.
//! [`analyze_function`] runs it over [`State`]; the taint pass in
//! [`crate::dataflow`] runs it over a `(State, taint state)` pair and
//! supplies only its taint transfer, calling [`step`] to keep the value
//! view in step. Resolved indirect-jump targets are read from the CFG
//! ([`ModuleCfg::resolved_targets`]), the one place they are kept.
//!
//! Model assumptions, stated once and tested empirically:
//!
//! * direct and resolved indirect calls are callee-balanced (`esp` is
//!   restored); every other register and all tracked stack slots are
//!   havocked across a call;
//! * a syscall havocs `eax`/`edx` and every tracked stack slot (kernel
//!   out-parameters may point anywhere), other registers survive;
//! * stores through statically unknown pointers havoc the tracked stack
//!   frame; stores through constant addresses are assumed not to alias it
//!   (guest stacks are kernel-allocated away from statically addressed
//!   globals);
//! * loads from non-writable image sections read the image bytes (the
//!   jump-table case); every other load is `Top` unless it hits a tracked
//!   stack slot.

use crate::cfg::{BasicBlock, ModuleCfg};
use faros_emu::isa::{AluOp, Instr, Mem, Operand, Reg, Width, NUM_REGS};
use faros_kernel::module::FdlImage;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Joins per block before changing strided intervals are widened to `Top`.
const WIDEN_AFTER_JOINS: u32 = 3;

/// Upper bound on the cardinality of a value set enumerated into concrete
/// targets; larger sets stay symbolic (and indirect sites stay unresolved).
pub const MAX_ENUMERATED: u64 = 64;

fn gcd(a: u32, b: u32) -> u32 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// A finite arithmetic progression of `u32` values: `{lo, lo+stride, ...,
/// hi}`. Invariants: `lo <= hi`; `stride == 0` iff `lo == hi`; otherwise
/// `(hi - lo) % stride == 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StridedInterval {
    /// Distance between adjacent elements (0 for a singleton).
    pub stride: u32,
    /// Smallest element.
    pub lo: u32,
    /// Largest element.
    pub hi: u32,
}

impl StridedInterval {
    /// The singleton interval `{v}`.
    pub fn constant(v: u32) -> StridedInterval {
        StridedInterval { stride: 0, lo: v, hi: v }
    }

    /// A normalized interval; fixes up stride/bound inconsistencies.
    pub fn new(stride: u32, lo: u32, hi: u32) -> StridedInterval {
        if lo >= hi {
            return StridedInterval::constant(lo.min(hi));
        }
        let stride = if stride == 0 { 1 } else { stride };
        let stride = gcd(stride, hi - lo);
        StridedInterval { stride, lo, hi }
    }

    /// Returns the constant if the interval is a singleton.
    pub fn as_const(&self) -> Option<u32> {
        (self.lo == self.hi).then_some(self.lo)
    }

    /// Number of elements.
    pub fn count(&self) -> u64 {
        match (self.hi - self.lo).checked_div(self.stride) {
            Some(n) => u64::from(n) + 1,
            None => 1,
        }
    }

    /// Returns `true` if `v` is an element.
    pub fn contains(&self, v: u32) -> bool {
        v >= self.lo
            && v <= self.hi
            && (self.stride == 0 || (v - self.lo).is_multiple_of(self.stride))
    }

    /// Enumerates the elements when there are at most [`MAX_ENUMERATED`].
    pub fn enumerate(&self) -> Option<Vec<u32>> {
        if self.count() > MAX_ENUMERATED {
            return None;
        }
        let mut out = Vec::with_capacity(self.count() as usize);
        let mut v = self.lo;
        loop {
            out.push(v);
            if v == self.hi {
                break;
            }
            v += self.stride;
        }
        Some(out)
    }

    /// Least upper bound.
    pub fn join(&self, other: &StridedInterval) -> StridedInterval {
        let lo = self.lo.min(other.lo);
        let hi = self.hi.max(other.hi);
        if lo == hi {
            return StridedInterval::constant(lo);
        }
        let mut stride = gcd(self.stride, other.stride);
        stride = gcd(stride, self.lo.abs_diff(other.lo));
        StridedInterval::new(stride.max(1), lo, hi)
    }

    /// Sum of two intervals; `None` when the bounds would wrap.
    pub fn add(&self, other: &StridedInterval) -> Option<StridedInterval> {
        let lo = self.lo.checked_add(other.lo)?;
        let hi = self.hi.checked_add(other.hi)?;
        Some(StridedInterval::new(gcd(self.stride, other.stride).max(1), lo, hi))
    }

    /// Difference of two intervals; `None` when the bounds would wrap.
    pub fn sub(&self, other: &StridedInterval) -> Option<StridedInterval> {
        let lo = self.lo.checked_sub(other.hi)?;
        let hi = self.hi.checked_sub(other.lo)?;
        Some(StridedInterval::new(gcd(self.stride, other.stride).max(1), lo, hi))
    }

    /// Product with a constant; `None` when the bounds would wrap.
    pub fn mul_const(&self, c: u32) -> Option<StridedInterval> {
        if c == 0 {
            return Some(StridedInterval::constant(0));
        }
        let lo = self.lo.checked_mul(c)?;
        let hi = self.hi.checked_mul(c)?;
        Some(StridedInterval::new(self.stride.saturating_mul(c).max(1), lo, hi))
    }
}

/// An abstract FE32 value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AVal {
    /// Unreachable / uninitialized (identity of join).
    Bot,
    /// A finite set of constants.
    Si(StridedInterval),
    /// The stack pointer at `offset` bytes from the frame base at function
    /// entry (negative = below the entry `esp`).
    Sp(i32),
    /// Statically unknown.
    #[default]
    Top,
}

impl AVal {
    /// The singleton constant `v`.
    pub fn constant(v: u32) -> AVal {
        AVal::Si(StridedInterval::constant(v))
    }

    /// Returns the constant if this value is a singleton.
    pub fn as_const(&self) -> Option<u32> {
        match self {
            AVal::Si(si) => si.as_const(),
            _ => None,
        }
    }

    /// Least upper bound.
    pub fn join(&self, other: &AVal) -> AVal {
        match (self, other) {
            (AVal::Bot, v) | (v, AVal::Bot) => *v,
            (AVal::Top, _) | (_, AVal::Top) => AVal::Top,
            (AVal::Sp(a), AVal::Sp(b)) => {
                if a == b {
                    AVal::Sp(*a)
                } else {
                    AVal::Top
                }
            }
            (AVal::Si(a), AVal::Si(b)) => AVal::Si(a.join(b)),
            _ => AVal::Top,
        }
    }

    fn add_val(&self, other: &AVal) -> AVal {
        match (self, other) {
            (AVal::Bot, _) | (_, AVal::Bot) => AVal::Bot,
            (AVal::Sp(o), AVal::Si(si)) | (AVal::Si(si), AVal::Sp(o)) => match si.as_const() {
                Some(c) => AVal::Sp(o.wrapping_add(c as i32)),
                None => AVal::Top,
            },
            (AVal::Si(a), AVal::Si(b)) => a.add(b).map_or(AVal::Top, AVal::Si),
            _ => AVal::Top,
        }
    }

    fn sub_val(&self, other: &AVal) -> AVal {
        match (self, other) {
            (AVal::Bot, _) | (_, AVal::Bot) => AVal::Bot,
            (AVal::Sp(o), AVal::Si(si)) => match si.as_const() {
                Some(c) => AVal::Sp(o.wrapping_sub(c as i32)),
                None => AVal::Top,
            },
            (AVal::Si(a), AVal::Si(b)) => a.sub(b).map_or(AVal::Top, AVal::Si),
            _ => AVal::Top,
        }
    }

    fn alu(&self, op: AluOp, rhs: &AVal) -> AVal {
        // Constant folding first: every op is precise on singletons.
        if let (Some(a), Some(b)) = (self.as_const(), rhs.as_const()) {
            return AVal::constant(op.apply(a, b));
        }
        match op {
            AluOp::Add => self.add_val(rhs),
            AluOp::Sub => self.sub_val(rhs),
            AluOp::Mul => match (self, rhs) {
                (AVal::Si(si), AVal::Si(c)) => match c.as_const() {
                    Some(c) => si.mul_const(c).map_or(AVal::Top, AVal::Si),
                    None => AVal::Top,
                },
                _ => AVal::Top,
            },
            AluOp::Shl => match rhs.as_const() {
                Some(c) if c < 32 => self.alu(AluOp::Mul, &AVal::constant(1u32 << c)),
                _ => AVal::Top,
            },
            // `and r, mask` bounds the result to [0, mask] regardless of the
            // operand — the classic bounded-jump-table idiom.
            AluOp::And => match rhs.as_const() {
                Some(mask) => AVal::Si(StridedInterval::new(1, 0, mask)),
                None => AVal::Top,
            },
            AluOp::Or | AluOp::Xor | AluOp::Shr => AVal::Top,
        }
    }
}

/// The abstract machine state at a program point: one [`AVal`] per GPR plus
/// the tracked stack frame (4-byte-aligned slots keyed by their offset from
/// the frame base; absent slots are `Top`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct State {
    /// Register values, indexed by [`Reg::index`].
    pub regs: [AVal; NUM_REGS],
    /// Known 4-byte stack slots, keyed by frame offset.
    pub stack: BTreeMap<i32, AVal>,
}

impl State {
    /// The state at function entry: everything unknown except `esp`, which
    /// is the frame base.
    pub fn entry() -> State {
        let mut regs = [AVal::Top; NUM_REGS];
        regs[Reg::Esp.index()] = AVal::Sp(0);
        State { regs, stack: BTreeMap::new() }
    }

    /// Reads a register.
    pub fn reg(&self, r: Reg) -> AVal {
        self.regs[r.index()]
    }

    fn set_reg(&mut self, r: Reg, v: AVal) {
        self.regs[r.index()] = v;
    }

    /// Evaluates a memory operand's address.
    pub fn eval_addr(&self, mem: &Mem) -> AVal {
        let mut v = AVal::constant(mem.disp as u32);
        if let Some((idx, scale)) = mem.index {
            let scaled = self.reg(idx).alu(AluOp::Mul, &AVal::constant(scale as u32));
            v = v.add_val(&scaled);
        }
        if let Some(base) = mem.base {
            v = self.reg(base).add_val(&v);
        }
        v
    }

    fn havoc_stack(&mut self) {
        self.stack.clear();
    }

    fn havoc_call(&mut self) {
        // Callee-balanced model: esp survives, everything else is gone.
        let esp = self.reg(Reg::Esp);
        self.regs = [AVal::Top; NUM_REGS];
        self.set_reg(Reg::Esp, esp);
        self.havoc_stack();
    }
}

/// Reads `width` bytes at `addr` out of a *non-writable* section of
/// `image`, little-endian and zero-extended. Writable sections are runtime
/// state and never constant-folded.
fn read_image_const(image: &FdlImage, addr: u32, width: Width) -> Option<u32> {
    use faros_emu::mmu::Perms;
    let s = image.section_containing(addr)?;
    if s.perms.contains(Perms::W) {
        return None;
    }
    let off = (addr - s.va) as usize;
    let bytes = s.data.get(off..off + width.bytes())?;
    let mut v = 0u32;
    for (i, b) in bytes.iter().enumerate() {
        v |= u32::from(*b) << (8 * i);
    }
    Some(v)
}

fn load(image: &FdlImage, state: &State, mem: &Mem, width: Width) -> AVal {
    match state.eval_addr(mem) {
        AVal::Sp(off) => {
            if width == Width::B4 && off % 4 == 0 {
                state.stack.get(&off).copied().unwrap_or(AVal::Top)
            } else {
                AVal::Top
            }
        }
        AVal::Si(si) => {
            // Enumerate the addresses and join the loaded constants — the
            // jump-table read. Any address outside a read-only section
            // makes the whole load unknown.
            let Some(addrs) = si.enumerate() else { return AVal::Top };
            let mut out = AVal::Bot;
            for a in addrs {
                match read_image_const(image, a, width) {
                    Some(v) => out = out.join(&AVal::constant(v)),
                    None => return AVal::Top,
                }
            }
            out
        }
        _ => AVal::Top,
    }
}

fn store(state: &mut State, mem: &Mem, width: Width, val: AVal) {
    match state.eval_addr(mem) {
        AVal::Sp(off) => {
            if width == Width::B4 && off % 4 == 0 {
                state.stack.insert(off, val);
            } else {
                // Partial or unaligned: kill every slot it may overlap.
                let lo = off - 3;
                let hi = off + width.bytes() as i32 - 1;
                let doomed: Vec<i32> = state
                    .stack
                    .range(lo..=hi)
                    .map(|(k, _)| *k)
                    .collect();
                for k in doomed {
                    state.stack.remove(&k);
                }
            }
        }
        // Constant addresses are assumed disjoint from the guest stack
        // (see the module docs); symbolic ones may alias anything.
        AVal::Si(_) => {}
        _ => state.havoc_stack(),
    }
}

/// Applies one instruction's data effects to `state`; control flow is the
/// block worklist's business (`solve`). [`crate::dataflow`]'s taint pass
/// calls it too, to keep the value view its own transfer reads in step.
pub fn step(image: &FdlImage, state: &mut State, instr: &Instr) {
    match *instr {
        Instr::MovRR { dst, src } => {
            let v = state.reg(src);
            state.set_reg(dst, v);
        }
        Instr::MovRI { dst, imm } => state.set_reg(dst, AVal::constant(imm)),
        Instr::Load { dst, mem, width } => {
            let v = load(image, state, &mem, width);
            state.set_reg(dst, v);
        }
        Instr::Store { mem, src, width } => {
            let v = state.reg(src);
            store(state, &mem, width, v);
        }
        Instr::Lea { dst, mem } => {
            let v = state.eval_addr(&mem);
            state.set_reg(dst, v);
        }
        Instr::Alu { op, dst, src } => {
            let rhs = match src {
                Operand::Reg(r) => state.reg(r),
                Operand::Imm(i) => AVal::constant(i),
            };
            // `xor r, r` / `sub r, r` zero the register exactly.
            let v = match (op, src) {
                (AluOp::Xor | AluOp::Sub, Operand::Reg(r)) if r == dst => AVal::constant(0),
                _ => state.reg(dst).alu(op, &rhs),
            };
            state.set_reg(dst, v);
        }
        Instr::Cmp { .. } | Instr::Test { .. } => {}
        Instr::Push { src } => {
            let v = state.reg(src);
            let esp = state.reg(Reg::Esp).sub_val(&AVal::constant(4));
            state.set_reg(Reg::Esp, esp);
            store(state, &Mem::reg(Reg::Esp), Width::B4, v);
        }
        Instr::PushImm { imm } => {
            let esp = state.reg(Reg::Esp).sub_val(&AVal::constant(4));
            state.set_reg(Reg::Esp, esp);
            store(state, &Mem::reg(Reg::Esp), Width::B4, AVal::constant(imm));
        }
        Instr::Pop { dst } => {
            let v = load(image, state, &Mem::reg(Reg::Esp), Width::B4);
            state.set_reg(dst, v);
            let esp = state.reg(Reg::Esp).add_val(&AVal::constant(4));
            state.set_reg(Reg::Esp, esp);
        }
        Instr::Call { .. } | Instr::CallReg { .. } => state.havoc_call(),
        Instr::Int { .. } => {
            // Kernel writes the status into eax; edx is scratch across the
            // gate; out-parameters may point into the frame.
            state.set_reg(Reg::Eax, AVal::Top);
            state.set_reg(Reg::Edx, AVal::Top);
            state.havoc_stack();
        }
        Instr::Jmp { .. }
        | Instr::Jcc { .. }
        | Instr::JmpReg { .. }
        | Instr::Ret
        | Instr::Hlt
        | Instr::Nop => {}
    }
}

/// The result of analyzing one function.
#[derive(Debug, Clone, Default)]
pub struct FunctionVsa {
    /// Register file just *before* each interesting instruction (indirect
    /// call/jump sites and syscall gates), keyed by instruction VA.
    pub site_regs: BTreeMap<u32, [AVal; NUM_REGS]>,
    /// Block-start VAs this function's intra-procedural walk visited.
    pub blocks: BTreeSet<u32>,
    /// Worklist iterations (blocks processed, including re-processing).
    pub iterations: u64,
    /// Strided intervals widened to `Top`.
    pub widenings: u64,
}

/// Intra-procedural successors of `block`: direct-call fall-through only
/// (the callee is a different function), resolved indirect-jump targets
/// inside the image.
fn intra_succs(cfg: &ModuleCfg, image: &FdlImage, block: &BasicBlock) -> Vec<u32> {
    // A block of `nop` runs alone lists no instruction; it falls through.
    match block.instrs.last() {
        // The callee is analyzed separately; state flows to the return
        // point with call havoc applied.
        Some((_, Instr::Call { .. } | Instr::CallReg { .. } | Instr::Int { .. })) => {
            vec![block.end]
        }
        Some(&(last_va, Instr::JmpReg { .. })) => cfg
            .resolved_targets
            .get(&last_va)
            .map(|ts| {
                ts.iter()
                    .copied()
                    .filter(|&t| image.is_code_va(t) && cfg.blocks.contains_key(&t))
                    .collect()
            })
            .unwrap_or_default(),
        _ => block.succs.clone(),
    }
}

/// A per-block abstract state [`solve`] can run to a fixpoint.
pub(crate) trait BlockState: Clone {
    /// Joins `other` into `self`; returns `true` if `self` changed. When
    /// `widen` is set, values that would keep growing are widened, and
    /// their number is added to `widenings`.
    fn join_from(&mut self, other: &Self, widen: bool, widenings: &mut u64) -> bool;
}

impl BlockState for State {
    /// Any strided interval that would keep growing under `widen` goes
    /// straight to `Top`.
    fn join_from(&mut self, other: &State, widen: bool, widenings: &mut u64) -> bool {
        let mut changed = false;
        for i in 0..NUM_REGS {
            let j = self.regs[i].join(&other.regs[i]);
            if j != self.regs[i] {
                self.regs[i] = if widen && matches!(j, AVal::Si(_)) {
                    *widenings += 1;
                    AVal::Top
                } else {
                    j
                };
                changed = true;
            }
        }
        // A slot missing on either side is Top, so the join keeps only
        // slots present (and equal-or-joined) in both.
        let keys: Vec<i32> = self.stack.keys().copied().collect();
        for k in keys {
            match other.stack.get(&k) {
                Some(ov) => {
                    let j = self.stack[&k].join(ov);
                    if j != self.stack[&k] {
                        if j == AVal::Top {
                            self.stack.remove(&k);
                        } else if widen && matches!(j, AVal::Si(_)) {
                            *widenings += 1;
                            self.stack.remove(&k);
                        } else {
                            self.stack.insert(k, j);
                        }
                        changed = true;
                    }
                }
                None => {
                    self.stack.remove(&k);
                    changed = true;
                }
            }
        }
        changed
    }
}

/// The intra-procedural block worklist every static pass runs: starting
/// from `init` at `entry`, `visit` applies a block's instructions to a
/// copy of the block's in-state, and the out-state is joined into each
/// intra-procedural successor (widened after [`WIDEN_AFTER_JOINS`] joins)
/// until no in-state changes. Returns `(iterations, widenings)`: blocks
/// processed, revisits included, and values widened.
pub(crate) fn solve<S: BlockState>(
    image: &FdlImage,
    cfg: &ModuleCfg,
    entry: u32,
    init: S,
    mut visit: impl FnMut(&BasicBlock, &mut S),
) -> (u64, u64) {
    let (mut iterations, mut widenings) = (0, 0);
    if !cfg.blocks.contains_key(&entry) {
        return (iterations, widenings);
    }
    let mut in_states: BTreeMap<u32, S> = BTreeMap::from([(entry, init)]);
    let mut join_counts: BTreeMap<u32, u32> = BTreeMap::new();
    let mut work: VecDeque<u32> = VecDeque::from([entry]);
    let mut queued: BTreeSet<u32> = BTreeSet::from([entry]);

    while let Some(bva) = work.pop_front() {
        queued.remove(&bva);
        iterations += 1;
        // Only blocks of the CFG are queued, each with an in-state.
        let block = &cfg.blocks[&bva];
        let mut state = in_states[&bva].clone();
        visit(block, &mut state);
        for succ in intra_succs(cfg, image, block) {
            if !cfg.blocks.contains_key(&succ) {
                continue;
            }
            let joins = join_counts.entry(succ).or_insert(0);
            *joins += 1;
            let widen = *joins > WIDEN_AFTER_JOINS;
            let changed = match in_states.get_mut(&succ) {
                Some(existing) => existing.join_from(&state, widen, &mut widenings),
                None => {
                    in_states.insert(succ, state.clone());
                    true
                }
            };
            if changed && queued.insert(succ) {
                work.push_back(succ);
            }
        }
    }
    (iterations, widenings)
}

/// Runs the VSA fixpoint over the function entered at `entry`.
pub fn analyze_function(image: &FdlImage, cfg: &ModuleCfg, entry: u32) -> FunctionVsa {
    let mut out = FunctionVsa::default();
    let (iterations, widenings) = solve(image, cfg, entry, State::entry(), |block, state| {
        out.blocks.insert(block.start);
        for (va, instr) in &block.instrs {
            if matches!(instr, Instr::CallReg { .. } | Instr::JmpReg { .. } | Instr::Int { .. }) {
                out.site_regs.insert(*va, state.regs);
            }
            step(image, state, instr);
        }
    });
    out.iterations = iterations;
    out.widenings = widenings;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use faros_emu::asm::Asm;
    use faros_emu::mmu::Perms;
    use faros_kernel::module::Section;

    const BASE: u32 = 0x40_0000;

    fn image_of(asm: Asm) -> FdlImage {
        FdlImage {
            entry: BASE,
            export_table_va: 0,
            sections: vec![Section {
                va: BASE,
                data: asm.assemble().expect("assembles"),
                perms: Perms::RX,
            }],
            exports: vec![],
        }
    }

    fn reg_at_site(image: &FdlImage, site_reg: Reg) -> AVal {
        let cfg = ModuleCfg::recover("t", image);
        let vsa = analyze_function(image, &cfg, image.entry);
        let (_, regs) = vsa.site_regs.iter().next().expect("one site");
        regs[site_reg.index()]
    }

    #[test]
    fn strided_interval_algebra() {
        let a = StridedInterval::new(4, 0, 12);
        assert_eq!(a.count(), 4);
        assert!(a.contains(8));
        assert!(!a.contains(9));
        assert_eq!(a.enumerate().unwrap(), vec![0, 4, 8, 12]);
        let b = StridedInterval::constant(6);
        let j = a.join(&b);
        assert!(j.contains(6) && j.contains(12) && j.contains(0));
        assert_eq!(j.stride, 2);
        assert_eq!(a.add(&StridedInterval::constant(100)).unwrap().lo, 100);
        assert!(StridedInterval::constant(u32::MAX).add(&StridedInterval::constant(1)).is_none());
        assert_eq!(a.mul_const(2).unwrap().hi, 24);
    }

    #[test]
    fn constant_propagates_to_indirect_site() {
        let mut asm = Asm::new(BASE);
        asm.mov_ri(Reg::Ebp, 0x0100_2000);
        asm.call_reg(Reg::Ebp);
        asm.hlt();
        let image = image_of(asm);
        assert_eq!(reg_at_site(&image, Reg::Ebp).as_const(), Some(0x0100_2000));
    }

    #[test]
    fn constant_survives_syscall_but_not_call() {
        let mut asm = Asm::new(BASE);
        asm.mov_ri(Reg::Ebp, 0x0100_2000);
        asm.mov_ri(Reg::Eax, 0x52);
        asm.int_syscall();
        asm.call_reg(Reg::Ebp); // ebp survives the gate
        asm.call_reg(Reg::Ebp); // ...but not the call
        asm.hlt();
        let image = image_of(asm);
        let cfg = ModuleCfg::recover("t", &image);
        let vsa = analyze_function(&image, &cfg, image.entry);
        let sites: Vec<_> = vsa.site_regs.iter().collect();
        assert_eq!(sites.len(), 3); // int + two call_regs
        assert_eq!(sites[1].1[Reg::Ebp.index()].as_const(), Some(0x0100_2000));
        assert_eq!(sites[2].1[Reg::Ebp.index()], AVal::Top);
    }

    #[test]
    fn sysno_is_visible_at_the_gate() {
        let mut asm = Asm::new(BASE);
        asm.mov_ri(Reg::Eax, 0x46);
        asm.mov_ri(Reg::Ecx, 0x2000);
        asm.int_syscall();
        asm.hlt();
        let image = image_of(asm);
        let cfg = ModuleCfg::recover("t", &image);
        let vsa = analyze_function(&image, &cfg, image.entry);
        let (_, regs) = vsa.site_regs.iter().next().unwrap();
        assert_eq!(regs[Reg::Eax.index()].as_const(), Some(0x46));
        assert_eq!(regs[Reg::Ecx.index()].as_const(), Some(0x2000));
    }

    #[test]
    fn stack_slots_round_trip_through_push_pop() {
        let mut asm = Asm::new(BASE);
        asm.mov_ri(Reg::Ebx, 0xdead_0000);
        asm.push(Reg::Ebx);
        asm.mov_ri(Reg::Ebx, 0);
        asm.pop(Reg::Ecx);
        asm.jmp_reg(Reg::Ecx);
        let image = image_of(asm);
        assert_eq!(reg_at_site(&image, Reg::Ecx).as_const(), Some(0xdead_0000));
    }

    #[test]
    fn join_of_two_paths_is_their_union() {
        let mut asm = Asm::new(BASE);
        asm.cmp_ri(Reg::Eax, 0);
        asm.jnz("other");
        asm.mov_ri(Reg::Edi, 0x1000);
        asm.jmp("out");
        asm.label("other");
        asm.mov_ri(Reg::Edi, 0x2000);
        asm.label("out");
        asm.jmp_reg(Reg::Edi);
        let image = image_of(asm);
        match reg_at_site(&image, Reg::Edi) {
            AVal::Si(si) => {
                assert!(si.contains(0x1000) && si.contains(0x2000));
                assert_eq!(si.count(), 2);
            }
            v => panic!("expected interval, got {v:?}"),
        }
    }

    #[test]
    fn loop_counter_widens_instead_of_diverging() {
        let mut asm = Asm::new(BASE);
        asm.mov_ri(Reg::Ecx, 0);
        asm.label("loop");
        asm.add_ri(Reg::Ecx, 1);
        asm.cmp_ri(Reg::Ecx, 10);
        asm.jnz("loop");
        asm.mov_ri(Reg::Ebp, 0x5000);
        asm.call_reg(Reg::Ebp);
        asm.hlt();
        let image = image_of(asm);
        let cfg = ModuleCfg::recover("t", &image);
        let vsa = analyze_function(&image, &cfg, image.entry);
        assert!(vsa.widenings > 0, "the loop must trigger widening");
        // The constant after the loop is still precise.
        let (_, regs) = vsa.site_regs.iter().next().unwrap();
        assert_eq!(regs[Reg::Ebp.index()].as_const(), Some(0x5000));
    }

    #[test]
    fn masked_index_table_load_enumerates_the_table() {
        // A 4-entry jump table in a read-only section, indexed by a masked
        // register: the load's value set is exactly the table entries.
        let mut asm = Asm::new(BASE);
        asm.and_ri(Reg::Ebx, 3);
        asm.mov_label(Reg::Ecx, "table");
        asm.ld4(Reg::Edi, Mem::table(Reg::Ecx, Reg::Ebx, 4));
        asm.jmp_reg(Reg::Edi);
        asm.label("table");
        asm.dd(0x0040_1000);
        asm.dd(0x0040_1004);
        asm.dd(0x0040_1008);
        asm.dd(0x0040_100c);
        let image = image_of(asm);
        match reg_at_site(&image, Reg::Edi) {
            AVal::Si(si) => {
                for t in [0x0040_1000u32, 0x0040_1004, 0x0040_1008, 0x0040_100c] {
                    assert!(si.contains(t), "{t:#x} missing from {si:?}");
                }
            }
            v => panic!("expected interval, got {v:?}"),
        }
    }

    #[test]
    fn loads_from_writable_sections_stay_unknown() {
        let mut asm = Asm::new(BASE);
        asm.ld4(Reg::Edi, Mem::abs(0x50_0000));
        asm.jmp_reg(Reg::Edi);
        let mut image = image_of(asm);
        image.sections.push(Section {
            va: 0x50_0000,
            data: vec![0x44, 0x33, 0x22, 0x11],
            perms: Perms::RW,
        });
        assert_eq!(reg_at_site(&image, Reg::Edi), AVal::Top);
    }
}
