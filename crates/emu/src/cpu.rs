//! The FE32 CPU interpreter.
//!
//! [`Cpu::step`] executes one instruction against a [`PhysMem`] and an
//! [`AddressSpace`], reporting everything a whole-system DIFT engine needs
//! through the [`CpuHooks`] trait:
//!
//! * **data flows** — the three propagation operations of the paper's
//!   Table I (`flow_copy` / `flow_union` / `flow_delete`) on whole
//!   registers, their memory forms (`flow_load` / `flow_store` /
//!   `flow_delete_mem`) over the translated physical byte of each access,
//!   and the optional *address-dependency* flows for indexed addressing;
//! * **instruction events** carrying the per-byte physical addresses the
//!   instruction was fetched from — the provenance of code bytes is how
//!   FAROS recognizes injected instructions;
//! * **load events** with both virtual and physical addresses;
//! * **control transfer events**, enabling Minos-style tainted-control-flow
//!   policies as an ablation.
//!
//! The hook methods all have empty default bodies; a `Cpu` driven with
//! [`NoHooks`] monomorphizes to a plain emulator with no DIFT overhead, which
//! is what the Table V "replay without FAROS" baseline measures.

use crate::encode::{decode, DecodeError, MAX_INSTR_LEN};
use crate::isa::{AluOp, Cond, Instr, Mem, Operand, Reg, Width, NUM_REGS, SYSCALL_VECTOR};
use crate::mem::{PhysMem, PAGE_SIZE};
use crate::mmu::{Access, AddressSpace, Asid, Fault};
use std::fmt;

/// A shadow location named by a control transfer's `target_src`: the
/// physical memory byte a `ret` popped its target from, or the register an
/// indirect `call`/`jmp` read it from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShadowLoc {
    /// A byte of guest physical memory.
    Mem(u32),
    /// A general-purpose register.
    Reg(Reg),
}

/// CPU condition flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Flags {
    /// Zero flag.
    pub zf: bool,
    /// Sign flag.
    pub sf: bool,
    /// Carry flag (unsigned borrow after `CMP`).
    pub cf: bool,
    /// Overflow flag (signed overflow after `CMP`).
    pub of: bool,
}

/// Context describing the instruction currently being executed, passed to
/// every hook.
#[derive(Debug, Clone)]
pub struct InsnCtx {
    /// Virtual address the instruction was fetched from.
    pub vaddr: u32,
    /// Physical address of each instruction byte (fetch may cross pages).
    pub code_phys: [u32; MAX_INSTR_LEN],
    /// Encoded length in bytes.
    pub len: u8,
    /// The decoded instruction.
    pub instr: Instr,
    /// Address space (CR3) the instruction executed under.
    pub asid: Asid,
    /// Instructions retired before this one — the CPU's deterministic
    /// virtual clock, usable as a trace timestamp.
    pub retired: u64,
}

impl InsnCtx {
    /// Physical addresses of the instruction's code bytes.
    pub fn code_bytes(&self) -> &[u32] {
        &self.code_phys[..self.len as usize]
    }
}

/// Receiver for execution and data-flow events.
///
/// The methods are exactly what [`Cpu::step`] emits, and all default to
/// no-ops; implementors override what they need. Register flows name whole
/// registers; memory flows carry the translated physical address of each
/// accessed byte, since an access may cross a page boundary. The `Cpu` is
/// generic over the hook type, so an unhooked run compiles down to a bare
/// interpreter.
#[allow(unused_variables)]
pub trait CpuHooks {
    /// Called before an instruction executes (after a successful fetch and
    /// decode, before any side effect).
    fn on_insn(&mut self, ctx: &InsnCtx) {}

    /// A register move: `shadow(dst) = shadow(src)`.
    fn flow_copy(&mut self, dst: Reg, src: Reg) {}

    /// A computation: `dst` receives the union of the sources' shadows,
    /// unioned with its own when `keep_dst` is set.
    fn flow_union(&mut self, dst: Reg, srcs: &[Reg], keep_dst: bool) {}

    /// Shadow deletion: `shadow(dst) = ∅` (the paper's `delete` rule, fired
    /// by immediates and `xor r, r`).
    fn flow_delete(&mut self, dst: Reg) {}

    /// An *address dependency*: the value loaded into `dst` was read from an
    /// address computed from `addr_srcs`. Policies that propagate address
    /// dependencies union these into the destination; the default FAROS
    /// policy ignores them (§IV).
    fn flow_addr_dep(&mut self, dst: Reg, addr_srcs: &[Reg]) {}

    /// An address dependency on a store: `phys[i]` is the translated
    /// physical address of the i-th stored byte, which may sit on a
    /// different frame than `phys[0]` when the store crosses a page boundary.
    fn flow_addr_dep_bytes(&mut self, phys: &[u32], addr_srcs: &[Reg]) {}

    /// Load flow: `shadow(dst.byte(i)) = shadow(phys[i])`, plus
    /// zero-extension of the register's remaining shadow bytes when the
    /// access is narrower than the register.
    fn flow_load(&mut self, dst: Reg, phys: &[u32]) {}

    /// Store flow: `shadow(phys[i]) = shadow(src.byte(i))`.
    fn flow_store(&mut self, phys: &[u32], src: Reg) {}

    /// Shadow deletion over translated physical bytes (constant stores:
    /// `push imm`, the return address slot of `call`).
    fn flow_delete_mem(&mut self, phys: &[u32]) {}

    /// A memory load is about to complete. `phys` holds the translated
    /// physical address of *each* accessed byte — a page-crossing access
    /// lands bytes on more than one frame.
    fn on_load(&mut self, ctx: &InsnCtx, vaddr: u32, phys: &[u32], width: Width, dst: Reg) {}

    /// A control transfer resolved. `target_src` is the shadow location the
    /// target address was read from for indirect transfers (`ret`,
    /// `call/jmp reg`), enabling Minos-style tainted-PC policies.
    fn on_control(&mut self, ctx: &InsnCtx, target: u32, target_src: Option<ShadowLoc>) {}

    /// A conditional branch resolved; `taken` tells which way. The flag
    /// source is a *control dependency* — FAROS deliberately does not
    /// propagate these (§VI-D discusses the bit-copy evasion this allows).
    fn on_branch(&mut self, ctx: &InsnCtx, taken: bool) {}

    /// The flags register was written by a comparison whose operands are
    /// `srcs`. Conservative (RIFLE-style) policies use this to taint
    /// branch-scoped writes; FAROS ignores it.
    fn flow_flags(&mut self, srcs: &[Reg]) {}
}

/// A [`CpuHooks`] implementation that does nothing — the plain-QEMU-speed
/// configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHooks;

impl CpuHooks for NoHooks {}

// Forwarding impl so `&mut dyn`-style hook stacks (e.g. a plugin manager
// handed around as a trait object) satisfy the generic bound on `Cpu::step`.
impl<H: CpuHooks + ?Sized> CpuHooks for &mut H {
    fn on_insn(&mut self, ctx: &InsnCtx) {
        (**self).on_insn(ctx);
    }
    fn flow_copy(&mut self, dst: Reg, src: Reg) {
        (**self).flow_copy(dst, src);
    }
    fn flow_union(&mut self, dst: Reg, srcs: &[Reg], keep_dst: bool) {
        (**self).flow_union(dst, srcs, keep_dst);
    }
    fn flow_delete(&mut self, dst: Reg) {
        (**self).flow_delete(dst);
    }
    fn flow_addr_dep(&mut self, dst: Reg, addr_srcs: &[Reg]) {
        (**self).flow_addr_dep(dst, addr_srcs);
    }
    fn flow_addr_dep_bytes(&mut self, phys: &[u32], addr_srcs: &[Reg]) {
        (**self).flow_addr_dep_bytes(phys, addr_srcs);
    }
    fn flow_load(&mut self, dst: Reg, phys: &[u32]) {
        (**self).flow_load(dst, phys);
    }
    fn flow_store(&mut self, phys: &[u32], src: Reg) {
        (**self).flow_store(phys, src);
    }
    fn flow_delete_mem(&mut self, phys: &[u32]) {
        (**self).flow_delete_mem(phys);
    }
    fn on_load(&mut self, ctx: &InsnCtx, vaddr: u32, phys: &[u32], width: Width, dst: Reg) {
        (**self).on_load(ctx, vaddr, phys, width, dst);
    }
    fn on_control(&mut self, ctx: &InsnCtx, target: u32, target_src: Option<ShadowLoc>) {
        (**self).on_control(ctx, target, target_src);
    }
    fn on_branch(&mut self, ctx: &InsnCtx, taken: bool) {
        (**self).on_branch(ctx, taken);
    }
    fn flow_flags(&mut self, srcs: &[Reg]) {
        (**self).flow_flags(srcs);
    }
}

/// Why [`Cpu::step`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// Instruction retired normally.
    Normal,
    /// A control transfer retired (ends a basic block).
    Branch,
    /// The syscall gate fired (`int 0x2e`); the kernel must service it.
    Syscall {
        /// Interrupt vector.
        vector: u8,
    },
    /// The thread executed `hlt` (thread exit in the guest ABI).
    Halt,
    /// A translation fault; `eip` still points at the faulting instruction.
    Fault(Fault),
    /// The bytes at `eip` are not a valid instruction.
    Illegal {
        /// Faulting instruction address.
        vaddr: u32,
        /// The decode failure.
        err: DecodeError,
    },
}

impl StepEvent {
    /// Returns `true` for events the scheduler treats as thread-fatal.
    pub fn is_fatal(&self) -> bool {
        matches!(self, StepEvent::Fault(_) | StepEvent::Illegal { .. })
    }
}

impl fmt::Display for StepEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StepEvent::Normal => write!(f, "retired"),
            StepEvent::Branch => write!(f, "branch"),
            StepEvent::Syscall { vector } => write!(f, "syscall (int {vector:#x})"),
            StepEvent::Halt => write!(f, "halt"),
            StepEvent::Fault(fault) => write!(f, "{fault}"),
            StepEvent::Illegal { vaddr, err } => {
                write!(f, "illegal instruction at {vaddr:#010x}: {err}")
            }
        }
    }
}

/// The architectural thread context: registers, program counter, flags.
///
/// This is what the kernel snapshots on a context switch and what
/// `NtGetContextThread` / `NtSetContextThread` expose to guests — the
/// process-hollowing attack depends on being able to redirect a suspended
/// thread's `eip` through this structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CpuContext {
    /// General-purpose registers, indexed by [`Reg::index`].
    pub regs: [u32; NUM_REGS],
    /// Program counter.
    pub eip: u32,
    /// Condition flags.
    pub flags: Flags,
}

/// The FE32 CPU.
///
/// # Examples
///
/// ```
/// use faros_emu::asm::Asm;
/// use faros_emu::cpu::{Cpu, NoHooks, StepEvent};
/// use faros_emu::isa::Reg;
/// use faros_emu::mem::PhysMem;
/// use faros_emu::mmu::{AddressSpace, Asid, Perms};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut mem = PhysMem::new(4);
/// let frame = mem.alloc_frame()?;
/// let mut aspace = AddressSpace::new(Asid(1));
/// aspace.map(0x1000, frame, Perms::RX);
///
/// let mut asm = Asm::new(0x1000);
/// asm.mov_ri(Reg::Eax, 41);
/// asm.add_ri(Reg::Eax, 1);
/// asm.hlt();
/// mem.write(frame * 4096, &asm.assemble()?)?;
///
/// let mut cpu = Cpu::new();
/// cpu.context_mut().eip = 0x1000;
/// cpu.set_asid(Asid(1));
/// while cpu.step(&mut mem, &aspace, &mut NoHooks) != StepEvent::Halt {}
/// assert_eq!(cpu.reg(Reg::Eax), 42);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Cpu {
    ctx: CpuContext,
    asid: Asid,
    retired: u64,
}

impl Cpu {
    /// Creates a CPU with all registers zeroed.
    pub fn new() -> Cpu {
        Cpu::default()
    }

    /// The architectural context (registers, `eip`, flags).
    pub fn context(&self) -> &CpuContext {
        &self.ctx
    }

    /// Mutable access to the architectural context.
    pub fn context_mut(&mut self) -> &mut CpuContext {
        &mut self.ctx
    }

    /// Reads a general-purpose register.
    #[inline]
    pub fn reg(&self, r: Reg) -> u32 {
        self.ctx.regs[r.index()]
    }

    /// Writes a general-purpose register.
    #[inline]
    pub fn set_reg(&mut self, r: Reg, val: u32) {
        self.ctx.regs[r.index()] = val;
    }

    /// The current address-space identifier (CR3).
    pub fn asid(&self) -> Asid {
        self.asid
    }

    /// Loads CR3 — performed by the kernel on a context switch.
    pub fn set_asid(&mut self, asid: Asid) {
        self.asid = asid;
    }

    /// Total instructions retired since construction.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    fn mem_addr(&self, mem_op: &Mem) -> u32 {
        let mut addr = mem_op.disp as u32;
        if let Some(b) = mem_op.base {
            addr = addr.wrapping_add(self.reg(b));
        }
        if let Some((i, scale)) = mem_op.index {
            addr = addr.wrapping_add(self.reg(i).wrapping_mul(scale as u32));
        }
        addr
    }

    /// Translates `width` bytes starting at `vaddr`, byte by byte (accesses
    /// may cross page boundaries).
    fn translate_range(
        aspace: &AddressSpace,
        vaddr: u32,
        width: usize,
        access: Access,
    ) -> Result<[u32; 4], Fault> {
        let mut phys = [0u32; 4];
        for (i, slot) in phys.iter_mut().enumerate().take(width) {
            *slot = aspace.translate(vaddr.wrapping_add(i as u32), access)?;
        }
        Ok(phys)
    }

    fn read_mem(
        mem: &PhysMem,
        phys: &[u32; 4],
        width: usize,
    ) -> u32 {
        let mut val = 0u32;
        for (i, &p) in phys.iter().enumerate().take(width) {
            // Physical addresses were produced by translate(); the kernel
            // never maps beyond installed memory, so this cannot fail.
            let byte = mem.read_u8(p).expect("translated address in range");
            val |= (byte as u32) << (8 * i);
        }
        val
    }

    fn write_mem(mem: &mut PhysMem, phys: &[u32; 4], width: usize, val: u32) {
        for (i, &p) in phys.iter().enumerate().take(width) {
            mem.write_u8(p, (val >> (8 * i)) as u8)
                .expect("translated address in range");
        }
    }

    fn addr_srcs(mem_op: &Mem) -> ([Reg; 2], usize) {
        let mut srcs = [Reg::Eax; 2];
        let mut n = 0;
        for r in mem_op.regs_used() {
            srcs[n] = r;
            n += 1;
        }
        (srcs, n)
    }

    fn set_cmp_flags(&mut self, a: u32, b: u32) {
        let (res, borrow) = a.overflowing_sub(b);
        self.ctx.flags.zf = res == 0;
        self.ctx.flags.sf = (res as i32) < 0;
        self.ctx.flags.cf = borrow;
        self.ctx.flags.of = ((a ^ b) & (a ^ res)) & 0x8000_0000 != 0;
    }

    fn cond_holds(&self, cond: Cond) -> bool {
        let f = self.ctx.flags;
        match cond {
            Cond::Z => f.zf,
            Cond::Nz => !f.zf,
            Cond::L => f.sf != f.of,
            Cond::Ge => f.sf == f.of,
            Cond::G => !f.zf && f.sf == f.of,
            Cond::Le => f.zf || f.sf != f.of,
            Cond::B => f.cf,
            Cond::Ae => !f.cf,
        }
    }

    /// Fetches and decodes the instruction at `vaddr`.
    ///
    /// The fetch is page-aware and stops at the decoded length: one Exec
    /// translation covers every instruction byte on the same page, and bytes
    /// past the end of the instruction are neither translated nor read. A
    /// short instruction flush against an unmapped page therefore executes
    /// cleanly — the old byte-wise fetch translated all `MAX_INSTR_LEN`
    /// bytes up front. Only an instruction whose *encoding* crosses the page
    /// boundary touches the next page; if that page is unfetchable the fault
    /// is reported as `NotMapped` at the boundary, exactly as before.
    pub(crate) fn fetch_decode(
        mem: &PhysMem,
        aspace: &AddressSpace,
        vaddr: u32,
    ) -> Result<(Instr, usize, [u32; MAX_INSTR_LEN]), StepEvent> {
        let mut code = [0u8; MAX_INSTR_LEN];
        let mut code_phys = [0u32; MAX_INSTR_LEN];
        let p0 = match aspace.translate(vaddr, Access::Exec) {
            Ok(p) => p,
            Err(fault) => return Err(StepEvent::Fault(fault)),
        };
        let in_page = ((PAGE_SIZE - (vaddr % PAGE_SIZE)) as usize).min(MAX_INSTR_LEN);
        for i in 0..in_page {
            // Bytes on the first page share p0's frame; no per-byte walk.
            let p = p0 + i as u32;
            code_phys[i] = p;
            code[i] = mem.read_u8(p).expect("translated address in range");
        }
        let err = match decode(&code[..in_page]) {
            Ok((instr, len)) => return Ok((instr, len, code_phys)),
            Err(DecodeError::Truncated) if in_page < MAX_INSTR_LEN => {
                // The encoding crosses the page boundary: fetch the spill
                // bytes from the next page and retry with the full window.
                let boundary = vaddr.wrapping_add(in_page as u32);
                let p1 = match aspace.translate(boundary, Access::Exec) {
                    Ok(p) => p,
                    Err(_) => {
                        // Mid-instruction fetch failures are reported as
                        // NotMapped at the first unfetchable byte, whatever
                        // the underlying fault kind (legacy contract).
                        return Err(StepEvent::Fault(Fault::NotMapped { vaddr: boundary }));
                    }
                };
                for i in in_page..MAX_INSTR_LEN {
                    let p = p1 + (i - in_page) as u32;
                    code_phys[i] = p;
                    code[i] = mem.read_u8(p).expect("translated address in range");
                }
                match decode(&code) {
                    Ok((instr, len)) => return Ok((instr, len, code_phys)),
                    Err(err) => err,
                }
            }
            Err(err) => err,
        };
        Err(StepEvent::Illegal { vaddr, err })
    }

    /// Bumps the retired-instruction counter by one (the cached-block
    /// executor retires instructions itself).
    #[inline]
    pub(crate) fn retire_one(&mut self) {
        self.retired += 1;
    }

    /// Executes one instruction.
    ///
    /// On a fault the CPU state is unchanged (`eip` still addresses the
    /// faulting instruction) and no data-flow hooks have fired for it, so the
    /// kernel can deliver the fault precisely.
    pub fn step<H: CpuHooks>(
        &mut self,
        mem: &mut PhysMem,
        aspace: &AddressSpace,
        hooks: &mut H,
    ) -> StepEvent {
        let vaddr = self.ctx.eip;
        let (instr, len, code_phys) = match Self::fetch_decode(mem, aspace, vaddr) {
            Ok(ok) => ok,
            Err(ev) => return ev,
        };
        let ctx = InsnCtx {
            vaddr,
            code_phys,
            len: len as u8,
            instr,
            asid: self.asid,
            retired: self.retired,
        };
        hooks.on_insn(&ctx);
        let event = self.exec_instr(mem, aspace, hooks, &ctx);
        if !matches!(event, StepEvent::Fault(_)) {
            self.retired += 1;
        }
        event
    }

    /// The execute half of [`Cpu::step`]: runs an already-fetched
    /// instruction. Flow hooks fire only after every translation the
    /// instruction needs has succeeded, so a faulting instruction
    /// contributes no flows; this all-or-nothing property is what lets the
    /// cached executor deliver precise faults mid-block. Does *not* bump the
    /// retired counter — callers retire non-faulting instructions
    /// themselves.
    pub(crate) fn exec_instr<H: CpuHooks>(
        &mut self,
        mem: &mut PhysMem,
        aspace: &AddressSpace,
        hooks: &mut H,
        ctx: &InsnCtx,
    ) -> StepEvent {
        let vaddr = ctx.vaddr;
        let next_eip = vaddr.wrapping_add(ctx.len as u32);

        match ctx.instr {
            Instr::Nop => {
                self.ctx.eip = next_eip;
                StepEvent::Normal
            }
            Instr::Hlt => {
                self.ctx.eip = next_eip;
                StepEvent::Halt
            }
            Instr::MovRR { dst, src } => {
                self.set_reg(dst, self.reg(src));
                hooks.flow_copy(dst, src);
                self.ctx.eip = next_eip;
                StepEvent::Normal
            }
            Instr::MovRI { dst, imm } => {
                self.set_reg(dst, imm);
                hooks.flow_delete(dst);
                self.ctx.eip = next_eip;
                StepEvent::Normal
            }
            Instr::Load { dst, mem: m, width } => {
                let addr = self.mem_addr(&m);
                let w = width.bytes();
                let phys = match Self::translate_range(aspace, addr, w, Access::Read) {
                    Ok(p) => p,
                    Err(f) => return StepEvent::Fault(f),
                };
                let val = Self::read_mem(mem, &phys, w);
                hooks.on_load(ctx, addr, &phys[..w], width, dst);
                self.set_reg(dst, val);
                // One flow per load; it covers zero-extension.
                hooks.flow_load(dst, &phys[..w]);
                let (srcs, n) = Self::addr_srcs(&m);
                if n > 0 {
                    hooks.flow_addr_dep(dst, &srcs[..n]);
                }
                self.ctx.eip = next_eip;
                StepEvent::Normal
            }
            Instr::Store { mem: m, src, width } => {
                let addr = self.mem_addr(&m);
                let w = width.bytes();
                let phys = match Self::translate_range(aspace, addr, w, Access::Write) {
                    Ok(p) => p,
                    Err(f) => return StepEvent::Fault(f),
                };
                Self::write_mem(mem, &phys, w, self.reg(src));
                hooks.flow_store(&phys[..w], src);
                let (srcs, n) = Self::addr_srcs(&m);
                if n > 0 {
                    // Per-byte frames: a page-crossing store's bytes are not
                    // physically contiguous.
                    hooks.flow_addr_dep_bytes(&phys[..w], &srcs[..n]);
                }
                self.ctx.eip = next_eip;
                StepEvent::Normal
            }
            Instr::Lea { dst, mem: m } => {
                let addr = self.mem_addr(&m);
                self.set_reg(dst, addr);
                let (srcs, n) = Self::addr_srcs(&m);
                hooks.flow_union(dst, &srcs[..n], false);
                self.ctx.eip = next_eip;
                StepEvent::Normal
            }
            Instr::Alu { op, dst, src } => {
                let b = match src {
                    Operand::Reg(r) => self.reg(r),
                    Operand::Imm(i) => i,
                };
                let a = self.reg(dst);
                let res = op.apply(a, b);
                self.set_reg(dst, res);
                self.ctx.flags.zf = res == 0;
                self.ctx.flags.sf = (res as i32) < 0;
                match src {
                    Operand::Reg(r) if r == dst && matches!(op, AluOp::Xor | AluOp::Sub) => {
                        // xor r, r / sub r, r: result is constant zero —
                        // the canonical taint-deleting idiom (paper §V-A).
                        hooks.flow_delete(dst);
                    }
                    Operand::Reg(r) => {
                        hooks.flow_union(dst, &[r], true);
                    }
                    Operand::Imm(_) => {
                        // Computation with an untainted constant: destination
                        // provenance is unchanged.
                    }
                }
                self.ctx.eip = next_eip;
                StepEvent::Normal
            }
            Instr::Cmp { a, b } => {
                let bv = match b {
                    Operand::Reg(r) => self.reg(r),
                    Operand::Imm(i) => i,
                };
                self.set_cmp_flags(self.reg(a), bv);
                match b {
                    Operand::Reg(r) => hooks.flow_flags(&[a, r]),
                    Operand::Imm(_) => hooks.flow_flags(&[a]),
                }
                self.ctx.eip = next_eip;
                StepEvent::Normal
            }
            Instr::Test { a, b } => {
                let bv = match b {
                    Operand::Reg(r) => self.reg(r),
                    Operand::Imm(i) => i,
                };
                let res = self.reg(a) & bv;
                self.ctx.flags.zf = res == 0;
                self.ctx.flags.sf = (res as i32) < 0;
                self.ctx.flags.cf = false;
                self.ctx.flags.of = false;
                match b {
                    Operand::Reg(r) => hooks.flow_flags(&[a, r]),
                    Operand::Imm(_) => hooks.flow_flags(&[a]),
                }
                self.ctx.eip = next_eip;
                StepEvent::Normal
            }
            Instr::Jmp { rel } => {
                let target = next_eip.wrapping_add(rel as u32);
                hooks.on_control(ctx, target, None);
                self.ctx.eip = target;
                StepEvent::Branch
            }
            Instr::Jcc { cond, rel } => {
                let taken = self.cond_holds(cond);
                hooks.on_branch(ctx, taken);
                self.ctx.eip = if taken {
                    next_eip.wrapping_add(rel as u32)
                } else {
                    next_eip
                };
                StepEvent::Branch
            }
            Instr::Call { rel } => {
                let target = next_eip.wrapping_add(rel as u32);
                let sp = self.reg(Reg::Esp).wrapping_sub(4);
                let phys = match Self::translate_range(aspace, sp, 4, Access::Write) {
                    Ok(p) => p,
                    Err(f) => return StepEvent::Fault(f),
                };
                Self::write_mem(mem, &phys, 4, next_eip);
                hooks.flow_delete_mem(&phys);
                self.set_reg(Reg::Esp, sp);
                hooks.on_control(ctx, target, None);
                self.ctx.eip = target;
                StepEvent::Branch
            }
            Instr::CallReg { target } => {
                let tgt = self.reg(target);
                let sp = self.reg(Reg::Esp).wrapping_sub(4);
                let phys = match Self::translate_range(aspace, sp, 4, Access::Write) {
                    Ok(p) => p,
                    Err(f) => return StepEvent::Fault(f),
                };
                Self::write_mem(mem, &phys, 4, next_eip);
                hooks.flow_delete_mem(&phys);
                self.set_reg(Reg::Esp, sp);
                hooks.on_control(ctx, tgt, Some(ShadowLoc::Reg(target)));
                self.ctx.eip = tgt;
                StepEvent::Branch
            }
            Instr::JmpReg { target } => {
                let tgt = self.reg(target);
                hooks.on_control(ctx, tgt, Some(ShadowLoc::Reg(target)));
                self.ctx.eip = tgt;
                StepEvent::Branch
            }
            Instr::Ret => {
                let sp = self.reg(Reg::Esp);
                let phys = match Self::translate_range(aspace, sp, 4, Access::Read) {
                    Ok(p) => p,
                    Err(f) => return StepEvent::Fault(f),
                };
                let target = Self::read_mem(mem, &phys, 4);
                self.set_reg(Reg::Esp, sp.wrapping_add(4));
                hooks.on_control(ctx, target, Some(ShadowLoc::Mem(phys[0])));
                self.ctx.eip = target;
                StepEvent::Branch
            }
            Instr::Push { src } => {
                let sp = self.reg(Reg::Esp).wrapping_sub(4);
                let phys = match Self::translate_range(aspace, sp, 4, Access::Write) {
                    Ok(p) => p,
                    Err(f) => return StepEvent::Fault(f),
                };
                Self::write_mem(mem, &phys, 4, self.reg(src));
                hooks.flow_store(&phys, src);
                self.set_reg(Reg::Esp, sp);
                self.ctx.eip = next_eip;
                StepEvent::Normal
            }
            Instr::PushImm { imm } => {
                let sp = self.reg(Reg::Esp).wrapping_sub(4);
                let phys = match Self::translate_range(aspace, sp, 4, Access::Write) {
                    Ok(p) => p,
                    Err(f) => return StepEvent::Fault(f),
                };
                Self::write_mem(mem, &phys, 4, imm);
                hooks.flow_delete_mem(&phys);
                self.set_reg(Reg::Esp, sp);
                self.ctx.eip = next_eip;
                StepEvent::Normal
            }
            Instr::Pop { dst } => {
                let sp = self.reg(Reg::Esp);
                let phys = match Self::translate_range(aspace, sp, 4, Access::Read) {
                    Ok(p) => p,
                    Err(f) => return StepEvent::Fault(f),
                };
                let val = Self::read_mem(mem, &phys, 4);
                self.set_reg(dst, val);
                hooks.flow_load(dst, &phys);
                self.set_reg(Reg::Esp, sp.wrapping_add(4));
                self.ctx.eip = next_eip;
                StepEvent::Normal
            }
            Instr::Int { vector } => {
                self.ctx.eip = next_eip;
                if vector == SYSCALL_VECTOR {
                    StepEvent::Syscall { vector }
                } else {
                    // Unknown vectors behave as an illegal operation.
                    StepEvent::Illegal { vaddr, err: DecodeError::BadOpcode(vector) }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::mem::PAGE_SIZE;
    use crate::mmu::Perms;

    fn machine(code: &Asm) -> (Cpu, PhysMem, AddressSpace) {
        let mut mem = PhysMem::new(16);
        let code_frame = mem.alloc_frame().unwrap();
        let data_frame = mem.alloc_frame().unwrap();
        let stack_frame = mem.alloc_frame().unwrap();
        let mut aspace = AddressSpace::new(Asid(0x1000));
        aspace.map(0x1000, code_frame, Perms::RX);
        aspace.map(0x2000, data_frame, Perms::RW);
        aspace.map(0x3000, stack_frame, Perms::RW);
        let bytes = code.clone().assemble().unwrap();
        assert!(bytes.len() <= PAGE_SIZE as usize);
        mem.write(code_frame * PAGE_SIZE, &bytes).unwrap();
        let mut cpu = Cpu::new();
        cpu.context_mut().eip = 0x1000;
        cpu.set_reg(Reg::Esp, 0x4000); // top of stack page
        cpu.set_asid(Asid(0x1000));
        (cpu, mem, aspace)
    }

    fn run(cpu: &mut Cpu, mem: &mut PhysMem, aspace: &AddressSpace) -> StepEvent {
        for _ in 0..10_000 {
            let ev = cpu.step(mem, aspace, &mut NoHooks);
            match ev {
                StepEvent::Normal | StepEvent::Branch => continue,
                other => return other,
            }
        }
        panic!("program did not terminate");
    }

    #[test]
    fn arithmetic_and_flags() {
        let mut a = Asm::new(0x1000);
        a.mov_ri(Reg::Eax, 10);
        a.mov_ri(Reg::Ebx, 3);
        a.sub_rr(Reg::Eax, Reg::Ebx); // 7
        a.mul_ri(Reg::Eax, 6); // 42
        a.hlt();
        let (mut cpu, mut mem, aspace) = machine(&a);
        assert_eq!(run(&mut cpu, &mut mem, &aspace), StepEvent::Halt);
        assert_eq!(cpu.reg(Reg::Eax), 42);
    }

    #[test]
    fn loads_and_stores_round_trip() {
        let mut a = Asm::new(0x1000);
        a.mov_ri(Reg::Eax, 0xcafe_babe);
        a.st4(Mem::abs(0x2010), Reg::Eax);
        a.ld4(Reg::Ebx, Mem::abs(0x2010));
        a.ld1(Reg::Ecx, Mem::abs(0x2010)); // low byte, zero-extended
        a.hlt();
        let (mut cpu, mut mem, aspace) = machine(&a);
        assert_eq!(run(&mut cpu, &mut mem, &aspace), StepEvent::Halt);
        assert_eq!(cpu.reg(Reg::Ebx), 0xcafe_babe);
        assert_eq!(cpu.reg(Reg::Ecx), 0xbe);
    }

    #[test]
    fn scaled_index_addressing() {
        let mut a = Asm::new(0x1000);
        // table[i] for i = 3 with 4-byte entries at 0x2000.
        a.mov_ri(Reg::Ebx, 0x2000);
        a.mov_ri(Reg::Ecx, 3);
        a.ld4(Reg::Eax, Mem::table(Reg::Ebx, Reg::Ecx, 4));
        a.hlt();
        let (mut cpu, mut mem, aspace) = machine(&a);
        mem.write_u32(PAGE_SIZE + 12, 0x1234_5678).unwrap(); // data frame is pfn 1
        assert_eq!(run(&mut cpu, &mut mem, &aspace), StepEvent::Halt);
        assert_eq!(cpu.reg(Reg::Eax), 0x1234_5678);
    }

    #[test]
    fn loop_with_conditional_branch() {
        let mut a = Asm::new(0x1000);
        a.mov_ri(Reg::Eax, 0);
        a.mov_ri(Reg::Ecx, 5);
        a.label("loop");
        a.add_ri(Reg::Eax, 2);
        a.sub_ri(Reg::Ecx, 1);
        a.cmp_ri(Reg::Ecx, 0);
        a.jnz("loop");
        a.hlt();
        let (mut cpu, mut mem, aspace) = machine(&a);
        assert_eq!(run(&mut cpu, &mut mem, &aspace), StepEvent::Halt);
        assert_eq!(cpu.reg(Reg::Eax), 10);
    }

    #[test]
    fn call_ret_uses_stack() {
        let mut a = Asm::new(0x1000);
        a.call("fn");
        a.add_ri(Reg::Eax, 1); // executes after ret
        a.hlt();
        a.label("fn");
        a.mov_ri(Reg::Eax, 41);
        a.ret();
        let (mut cpu, mut mem, aspace) = machine(&a);
        assert_eq!(run(&mut cpu, &mut mem, &aspace), StepEvent::Halt);
        assert_eq!(cpu.reg(Reg::Eax), 42);
        assert_eq!(cpu.reg(Reg::Esp), 0x4000, "stack balanced");
    }

    #[test]
    fn push_pop() {
        let mut a = Asm::new(0x1000);
        a.mov_ri(Reg::Eax, 7);
        a.push(Reg::Eax);
        a.push_imm(9);
        a.pop(Reg::Ebx); // 9
        a.pop(Reg::Ecx); // 7
        a.hlt();
        let (mut cpu, mut mem, aspace) = machine(&a);
        assert_eq!(run(&mut cpu, &mut mem, &aspace), StepEvent::Halt);
        assert_eq!(cpu.reg(Reg::Ebx), 9);
        assert_eq!(cpu.reg(Reg::Ecx), 7);
    }

    #[test]
    fn syscall_gate_reports_vector() {
        let mut a = Asm::new(0x1000);
        a.mov_ri(Reg::Eax, 5);
        a.int_syscall();
        a.hlt();
        let (mut cpu, mut mem, aspace) = machine(&a);
        let mut ev = cpu.step(&mut mem, &aspace, &mut NoHooks);
        while ev == StepEvent::Normal {
            ev = cpu.step(&mut mem, &aspace, &mut NoHooks);
        }
        assert_eq!(ev, StepEvent::Syscall { vector: SYSCALL_VECTOR });
        // eip advanced past the gate: kernel resumes after it.
        assert_eq!(cpu.step(&mut mem, &aspace, &mut NoHooks), StepEvent::Halt);
    }

    #[test]
    fn write_to_ro_page_faults_precisely() {
        let mut a = Asm::new(0x1000);
        a.mov_ri(Reg::Eax, 1);
        a.st4(Mem::abs(0x1000), Reg::Eax); // code page is RX
        a.hlt();
        let (mut cpu, mut mem, aspace) = machine(&a);
        let ev = run(&mut cpu, &mut mem, &aspace);
        assert_eq!(
            ev,
            StepEvent::Fault(Fault::Protection { vaddr: 0x1000, access: Access::Write })
        );
        // eip still points at the faulting store (precise fault).
        let (i, _) = decode(&{
            let p = aspace.translate(cpu.context().eip, Access::Exec).unwrap();
            let mut b = [0u8; MAX_INSTR_LEN];
            mem.read(p, &mut b).unwrap();
            b
        })
        .unwrap();
        assert!(matches!(i, Instr::Store { .. }));
    }

    #[test]
    fn jump_to_unmapped_page_faults() {
        let mut a = Asm::new(0x1000);
        a.mov_ri(Reg::Eax, 0x7000_0000);
        a.jmp_reg(Reg::Eax);
        let (mut cpu, mut mem, aspace) = machine(&a);
        let ev = run(&mut cpu, &mut mem, &aspace);
        assert!(matches!(ev, StepEvent::Fault(Fault::NotMapped { vaddr: 0x7000_0000 })));
    }

    #[test]
    fn illegal_bytes_fault() {
        let mut mem = PhysMem::new(2);
        let f = mem.alloc_frame().unwrap();
        let mut aspace = AddressSpace::new(Asid(1));
        aspace.map(0x1000, f, Perms::RX);
        mem.write(f * PAGE_SIZE, &[0xff, 0xff]).unwrap();
        let mut cpu = Cpu::new();
        cpu.context_mut().eip = 0x1000;
        let ev = cpu.step(&mut mem, &aspace, &mut NoHooks);
        assert!(matches!(ev, StepEvent::Illegal { vaddr: 0x1000, .. }));
        assert!(ev.is_fatal());
    }

    #[test]
    fn flow_events_for_mov_chain() {
        #[derive(Default)]
        struct Recorder {
            copies: Vec<(Reg, Reg)>,
            deletes: Vec<Reg>,
        }
        impl CpuHooks for Recorder {
            fn flow_copy(&mut self, dst: Reg, src: Reg) {
                self.copies.push((dst, src));
            }
            fn flow_delete(&mut self, dst: Reg) {
                self.deletes.push(dst);
            }
        }
        let mut a = Asm::new(0x1000);
        a.mov_ri(Reg::Eax, 5); // delete eax
        a.mov_rr(Reg::Ebx, Reg::Eax); // copy eax -> ebx
        a.xor_rr(Reg::Ecx, Reg::Ecx); // delete ecx
        a.hlt();
        let (mut cpu, mut mem, aspace) = machine(&a);
        let mut rec = Recorder::default();
        while !matches!(cpu.step(&mut mem, &aspace, &mut rec), StepEvent::Halt) {}
        assert_eq!(rec.copies, vec![(Reg::Ebx, Reg::Eax)]);
        assert_eq!(rec.deletes, vec![Reg::Eax, Reg::Ecx]);
    }

    #[test]
    fn load_reports_physical_address() {
        struct LoadWatch(Option<(u32, Vec<u32>)>);
        impl CpuHooks for LoadWatch {
            fn on_load(&mut self, _ctx: &InsnCtx, vaddr: u32, phys: &[u32], _w: Width, _d: Reg) {
                self.0 = Some((vaddr, phys.to_vec()));
            }
        }
        let mut a = Asm::new(0x1000);
        a.ld4(Reg::Eax, Mem::abs(0x2014));
        a.hlt();
        let (mut cpu, mut mem, aspace) = machine(&a);
        let mut w = LoadWatch(None);
        while !matches!(cpu.step(&mut mem, &aspace, &mut w), StepEvent::Halt) {}
        // data page (0x2000) maps to pfn 1 in the test fixture.
        let base = PAGE_SIZE + 0x14;
        assert_eq!(w.0, Some((0x2014, vec![base, base + 1, base + 2, base + 3])));
    }

    #[test]
    fn instruction_ending_at_page_boundary_does_not_touch_next_page() {
        // Regression for the overfetch bug: fetch used to translate all
        // MAX_INSTR_LEN bytes, so a short instruction flush against an
        // unmapped page faulted spuriously. Place `mov eax, 42` (6 bytes)
        // so it ends exactly at the end of the code page, with nothing
        // mapped above it.
        let mut mem = PhysMem::new(4);
        let code_frame = mem.alloc_frame().unwrap();
        let mut aspace = AddressSpace::new(Asid(1));
        aspace.map(0x1000, code_frame, Perms::RX);
        let start = 0x2000 - 6;
        let mut a = Asm::new(start);
        a.mov_ri(Reg::Eax, 42);
        let bytes = a.assemble().unwrap();
        assert_eq!(bytes.len(), 6, "test assumes mov_ri encodes to 6 bytes");
        mem.write(code_frame * PAGE_SIZE + (start - 0x1000), &bytes).unwrap();
        let mut cpu = Cpu::new();
        cpu.context_mut().eip = start;
        cpu.set_asid(Asid(1));
        assert_eq!(cpu.step(&mut mem, &aspace, &mut NoHooks), StepEvent::Normal);
        assert_eq!(cpu.reg(Reg::Eax), 42);
        assert_eq!(cpu.context().eip, 0x2000);
        // Falling off the end of the page still faults precisely.
        assert_eq!(
            cpu.step(&mut mem, &aspace, &mut NoHooks),
            StepEvent::Fault(Fault::NotMapped { vaddr: 0x2000 })
        );
    }

    #[test]
    fn instruction_crossing_into_mapped_page_executes() {
        let mut mem = PhysMem::new(4);
        let lo = mem.alloc_frame().unwrap();
        let hi = mem.alloc_frame().unwrap();
        let mut aspace = AddressSpace::new(Asid(1));
        aspace.map(0x1000, lo, Perms::RX);
        aspace.map(0x2000, hi, Perms::RX);
        let start = 0x2000 - 2; // 6-byte mov: 2 bytes below, 4 above
        let mut a = Asm::new(start);
        a.mov_ri(Reg::Ebx, 0xdead_beef);
        let bytes = a.assemble().unwrap();
        mem.write(lo * PAGE_SIZE + PAGE_SIZE - 2, &bytes[..2]).unwrap();
        mem.write(hi * PAGE_SIZE, &bytes[2..]).unwrap();
        struct PhysWatch(Vec<u32>);
        impl CpuHooks for PhysWatch {
            fn on_insn(&mut self, ctx: &InsnCtx) {
                self.0 = ctx.code_bytes().to_vec();
            }
        }
        let mut cpu = Cpu::new();
        cpu.context_mut().eip = start;
        cpu.set_asid(Asid(1));
        let mut w = PhysWatch(Vec::new());
        assert_eq!(cpu.step(&mut mem, &aspace, &mut w), StepEvent::Normal);
        assert_eq!(cpu.reg(Reg::Ebx), 0xdead_beef);
        // code_phys lands the spill bytes on the second frame.
        let expect = vec![
            lo * PAGE_SIZE + PAGE_SIZE - 2,
            lo * PAGE_SIZE + PAGE_SIZE - 1,
            hi * PAGE_SIZE,
            hi * PAGE_SIZE + 1,
            hi * PAGE_SIZE + 2,
            hi * PAGE_SIZE + 3,
        ];
        assert_eq!(w.0, expect);
    }

    #[test]
    fn instruction_crossing_into_unmapped_page_faults_at_boundary() {
        let mut mem = PhysMem::new(4);
        let lo = mem.alloc_frame().unwrap();
        let mut aspace = AddressSpace::new(Asid(1));
        aspace.map(0x1000, lo, Perms::RX);
        let start = 0x2000 - 2;
        let mut a = Asm::new(start);
        a.mov_ri(Reg::Ebx, 1);
        let bytes = a.assemble().unwrap();
        mem.write(lo * PAGE_SIZE + PAGE_SIZE - 2, &bytes[..2]).unwrap();
        let mut cpu = Cpu::new();
        cpu.context_mut().eip = start;
        cpu.set_asid(Asid(1));
        assert_eq!(
            cpu.step(&mut mem, &aspace, &mut NoHooks),
            StepEvent::Fault(Fault::NotMapped { vaddr: 0x2000 })
        );
        assert_eq!(cpu.context().eip, start, "fault is precise");
    }

    #[test]
    fn page_crossing_store_reports_per_byte_addr_deps() {
        // Regression for the page-crossing address-dependency bug: the CPU
        // used to report one dependency run starting at `phys[0]`, which
        // assumes the w translated bytes are contiguous. Map two *non-adjacent*
        // physical frames at adjacent virtual pages and verify each byte's
        // own physical address is reported.
        #[derive(Default)]
        struct DepWatch {
            runs: Vec<Vec<u32>>,
            store_phys: Vec<u32>,
        }
        impl CpuHooks for DepWatch {
            fn flow_addr_dep_bytes(&mut self, phys: &[u32], _srcs: &[Reg]) {
                self.runs.push(phys.to_vec());
            }
            fn flow_store(&mut self, phys: &[u32], _src: Reg) {
                self.store_phys = phys.to_vec();
            }
        }
        let mut mem = PhysMem::new(16);
        let code_frame = mem.alloc_frame().unwrap();
        let lo_frame = mem.alloc_frame().unwrap();
        let _gap = mem.alloc_frame().unwrap();
        let hi_frame = mem.alloc_frame().unwrap(); // not adjacent to lo_frame
        let mut aspace = AddressSpace::new(Asid(7));
        aspace.map(0x1000, code_frame, Perms::RX);
        aspace.map(0x2000, lo_frame, Perms::RW);
        aspace.map(0x3000, hi_frame, Perms::RW);
        // Store 4 bytes at 0x2ffe: two bytes on lo_frame, two on hi_frame,
        // through a base register so an address dependency is emitted.
        let mut a = Asm::new(0x1000);
        a.mov_ri(Reg::Ebx, 0x2ffe);
        a.mov_ri(Reg::Eax, 0xdead_beef);
        a.st4(Mem::reg(Reg::Ebx), Reg::Eax);
        a.hlt();
        mem.write(code_frame * PAGE_SIZE, &a.assemble().unwrap()).unwrap();
        let mut cpu = Cpu::new();
        cpu.context_mut().eip = 0x1000;
        cpu.set_asid(Asid(7));
        let mut w = DepWatch::default();
        while !matches!(cpu.step(&mut mem, &aspace, &mut w), StepEvent::Halt) {}
        let expect = vec![
            lo_frame * PAGE_SIZE + 0xffe,
            lo_frame * PAGE_SIZE + 0xfff,
            hi_frame * PAGE_SIZE,
            hi_frame * PAGE_SIZE + 1,
        ];
        assert_eq!(w.store_phys, expect, "flow_store sees every translated byte");
        assert_eq!(w.runs, vec![expect], "addr dep carries per-byte frames");
    }

    #[test]
    fn retired_counter_advances() {
        let mut a = Asm::new(0x1000);
        a.nop();
        a.nop();
        a.hlt();
        let (mut cpu, mut mem, aspace) = machine(&a);
        run(&mut cpu, &mut mem, &aspace);
        assert_eq!(cpu.retired(), 3);
    }
}
