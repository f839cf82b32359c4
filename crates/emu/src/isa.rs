//! The FE32 instruction-set architecture.
//!
//! FE32 ("Faros Emulated 32-bit") is a small, byte-encoded, little-endian
//! 32-bit ISA designed to exercise exactly the properties whole-system DIFT
//! needs from a guest architecture:
//!
//! * code and data live as plain bytes in one physical memory, so instruction
//!   bytes themselves can carry taint (the key to flagging injected code);
//! * memory operands support base + scaled-index + displacement addressing,
//!   which is what address-dependency taint policies key on (cf. FAROS §III
//!   and the Minos/Suh heuristics discussed in §VII);
//! * an `INT` gate provides an NT-style syscall boundary;
//! * a `CR3`-like control register names the current address space, which the
//!   paper uses verbatim as the architecture-level process identity tag.
//!
//! The ISA is deliberately much smaller than x86, but every instruction class
//! the paper's taint propagation table (Table I) distinguishes is present:
//! copies (`MOV`, `LD`, `ST`), computations (`ADD`, `OR`, `MUL`, ...),
//! taint-deleting forms (`MOVI`, `XOR r, r`), and control flow.

use std::fmt;

/// A general-purpose register.
///
/// FE32 has eight GPRs named after their x86 counterparts. `Esp` doubles as
/// the stack pointer for `PUSH`/`POP`/`CALL`/`RET`.
///
/// # Examples
///
/// ```
/// use faros_emu::isa::Reg;
/// assert_eq!(Reg::Eax.index(), 0);
/// assert_eq!(Reg::from_index(7), Some(Reg::Esp));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Reg {
    /// Accumulator; also carries the syscall number at an `INT` gate.
    Eax = 0,
    /// Base register.
    Ebx = 1,
    /// Count register.
    Ecx = 2,
    /// Data register; also carries the syscall status on return.
    Edx = 3,
    /// Source index.
    Esi = 4,
    /// Destination index.
    Edi = 5,
    /// Frame pointer.
    Ebp = 6,
    /// Stack pointer.
    Esp = 7,
}

/// Number of general-purpose registers in the FE32 register file.
pub const NUM_REGS: usize = 8;

impl Reg {
    /// All registers in index order.
    pub const ALL: [Reg; NUM_REGS] = [
        Reg::Eax,
        Reg::Ebx,
        Reg::Ecx,
        Reg::Edx,
        Reg::Esi,
        Reg::Edi,
        Reg::Ebp,
        Reg::Esp,
    ];

    /// Returns the register-file index of this register (0..8).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Looks a register up by its register-file index.
    ///
    /// Returns `None` if `idx` is out of range.
    #[inline]
    pub fn from_index(idx: u8) -> Option<Reg> {
        Reg::ALL.get(idx as usize).copied()
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Reg::Eax => "eax",
            Reg::Ebx => "ebx",
            Reg::Ecx => "ecx",
            Reg::Edx => "edx",
            Reg::Esi => "esi",
            Reg::Edi => "edi",
            Reg::Ebp => "ebp",
            Reg::Esp => "esp",
        };
        f.write_str(name)
    }
}

/// A memory operand: `[base + index * scale + disp]`.
///
/// The scaled-index form matters for DIFT research fidelity: FAROS §VII
/// discusses how earlier systems (Suh et al., Minos) special-cased scaled
/// index base addressing when deciding whether to propagate address
/// dependencies. Our taint engine exposes the same policy knob, so the
/// addressing mode must be expressible.
///
/// # Examples
///
/// ```
/// use faros_emu::isa::{Mem, Reg};
/// let m = Mem::base_disp(Reg::Ebx, 8);
/// assert_eq!(m.base, Some(Reg::Ebx));
/// assert_eq!(m.disp, 8);
/// let t = Mem::table(Reg::Ebx, Reg::Ecx, 4);
/// assert_eq!(t.index, Some((Reg::Ecx, 4)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mem {
    /// Optional base register.
    pub base: Option<Reg>,
    /// Optional `(index_register, scale)`; scale must be 1, 2, 4, or 8.
    pub index: Option<(Reg, u8)>,
    /// Signed 32-bit displacement.
    pub disp: i32,
}

impl Mem {
    /// An absolute address operand `[disp]`.
    pub fn abs(addr: u32) -> Mem {
        Mem { base: None, index: None, disp: addr as i32 }
    }

    /// A `[base + disp]` operand.
    pub fn base_disp(base: Reg, disp: i32) -> Mem {
        Mem { base: Some(base), index: None, disp }
    }

    /// A `[base]` operand.
    pub fn reg(base: Reg) -> Mem {
        Mem::base_disp(base, 0)
    }

    /// A table-lookup operand `[base + index * scale]`.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not 1, 2, 4, or 8.
    pub fn table(base: Reg, index: Reg, scale: u8) -> Mem {
        assert!(
            matches!(scale, 1 | 2 | 4 | 8),
            "scale must be 1, 2, 4 or 8, got {scale}"
        );
        Mem { base: Some(base), index: Some((index, scale)), disp: 0 }
    }

    /// Returns every register the address computation reads.
    pub fn regs_used(&self) -> impl Iterator<Item = Reg> + '_ {
        self.base.into_iter().chain(self.index.map(|(r, _)| r))
    }
}

impl fmt::Display for Mem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        let mut wrote = false;
        if let Some(b) = self.base {
            write!(f, "{b}")?;
            wrote = true;
        }
        if let Some((i, s)) = self.index {
            if wrote {
                write!(f, "+")?;
            }
            write!(f, "{i}*{s}")?;
            wrote = true;
        }
        if self.disp != 0 || !wrote {
            if wrote && self.disp >= 0 {
                write!(f, "+")?;
            }
            write!(f, "{:#x}", self.disp)?;
        }
        write!(f, "]")
    }
}

/// Second operand of an ALU instruction: either a register or an immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A register operand.
    Reg(Reg),
    /// A 32-bit immediate operand.
    Imm(u32),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(i) => write!(f, "{i:#x}"),
        }
    }
}

/// Arithmetic/logic operation selector.
///
/// Each of these is a *computation dependency* in the paper's taxonomy
/// (§III): the destination's provenance becomes the union of both operands'.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum AluOp {
    /// Wrapping addition.
    Add = 0,
    /// Wrapping subtraction.
    Sub = 1,
    /// Bitwise AND.
    And = 2,
    /// Bitwise OR.
    Or = 3,
    /// Bitwise XOR. `XOR r, r` is the canonical taint-deleting idiom.
    Xor = 4,
    /// Wrapping multiplication.
    Mul = 5,
    /// Logical shift left (by `src & 31`).
    Shl = 6,
    /// Logical shift right (by `src & 31`).
    Shr = 7,
}

impl AluOp {
    /// All ALU operations.
    pub const ALL: [AluOp; 8] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Mul,
        AluOp::Shl,
        AluOp::Shr,
    ];

    /// Applies the operation to two 32-bit values.
    #[inline]
    pub fn apply(self, a: u32, b: u32) -> u32 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Shl => a.wrapping_shl(b & 31),
            AluOp::Shr => a.wrapping_shr(b & 31),
        }
    }

    fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Mul => "mul",
            AluOp::Shl => "shl",
            AluOp::Shr => "shr",
        }
    }
}

/// Condition code for conditional jumps, derived from `EFLAGS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Cond {
    /// Zero flag set (`==` after `CMP`).
    Z = 0,
    /// Zero flag clear (`!=` after `CMP`).
    Nz = 1,
    /// Signed less-than after `CMP`.
    L = 2,
    /// Signed greater-or-equal after `CMP`.
    Ge = 3,
    /// Signed greater-than after `CMP`.
    G = 4,
    /// Signed less-or-equal after `CMP`.
    Le = 5,
    /// Unsigned below (carry set) after `CMP`.
    B = 6,
    /// Unsigned above-or-equal (carry clear) after `CMP`.
    Ae = 7,
}

impl Cond {
    /// All condition codes.
    pub const ALL: [Cond; 8] = [
        Cond::Z,
        Cond::Nz,
        Cond::L,
        Cond::Ge,
        Cond::G,
        Cond::Le,
        Cond::B,
        Cond::Ae,
    ];

    fn mnemonic(self) -> &'static str {
        match self {
            Cond::Z => "jz",
            Cond::Nz => "jnz",
            Cond::L => "jl",
            Cond::Ge => "jge",
            Cond::G => "jg",
            Cond::Le => "jle",
            Cond::B => "jb",
            Cond::Ae => "jae",
        }
    }
}

/// Access width of a load or store, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Width {
    /// One byte.
    B1 = 1,
    /// Two bytes (halfword).
    B2 = 2,
    /// Four bytes (word).
    B4 = 4,
}

impl Width {
    /// The width in bytes.
    #[inline]
    pub fn bytes(self) -> usize {
        self as usize
    }
}

/// A decoded FE32 instruction.
///
/// The variants map one-to-one onto the instruction classes that FAROS'
/// propagation policy distinguishes (paper Table I):
///
/// * `MovRR`, `Load`, `Store`, `Push`, `Pop` — **copy** dependencies;
/// * `Alu` — **union** (computation) dependencies, except the
///   taint-deleting idioms (`XOR r, r`);
/// * `MovRI`, `PushImm` — **delete** (immediate) forms;
/// * `Load`/`Store` with an index register — **address** dependencies;
/// * `Jcc` — **control** dependencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// `mov dst, src` — register-to-register copy.
    MovRR {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `mov dst, imm` — the paper's `MOVI`: destination taint is deleted.
    MovRI {
        /// Destination register.
        dst: Reg,
        /// Immediate value.
        imm: u32,
    },
    /// `ld{w} dst, [mem]` — memory load.
    Load {
        /// Destination register.
        dst: Reg,
        /// Address operand.
        mem: Mem,
        /// Access width.
        width: Width,
    },
    /// `st{w} [mem], src` — memory store.
    Store {
        /// Address operand.
        mem: Mem,
        /// Source register.
        src: Reg,
        /// Access width.
        width: Width,
    },
    /// `lea dst, [mem]` — address computation without memory access.
    Lea {
        /// Destination register.
        dst: Reg,
        /// Address operand.
        mem: Mem,
    },
    /// ALU operation `op dst, src`.
    Alu {
        /// Operation selector.
        op: AluOp,
        /// Destination (and first source) register.
        dst: Reg,
        /// Second source operand.
        src: Operand,
    },
    /// `cmp a, b` — sets flags, no data result.
    Cmp {
        /// First operand.
        a: Reg,
        /// Second operand.
        b: Operand,
    },
    /// `test a, b` — sets ZF from `a & b`.
    Test {
        /// First operand.
        a: Reg,
        /// Second operand.
        b: Operand,
    },
    /// Unconditional relative jump.
    Jmp {
        /// Displacement relative to the end of this instruction.
        rel: i32,
    },
    /// Conditional relative jump.
    Jcc {
        /// Condition code.
        cond: Cond,
        /// Displacement relative to the end of this instruction.
        rel: i32,
    },
    /// Relative call: pushes the return address.
    Call {
        /// Displacement relative to the end of this instruction.
        rel: i32,
    },
    /// Indirect call through a register.
    CallReg {
        /// Register holding the target address.
        target: Reg,
    },
    /// Indirect jump through a register.
    JmpReg {
        /// Register holding the target address.
        target: Reg,
    },
    /// Return: pops the return address.
    Ret,
    /// Push a register onto the stack.
    Push {
        /// Source register.
        src: Reg,
    },
    /// Push an immediate onto the stack (taint-deleting).
    PushImm {
        /// Immediate value.
        imm: u32,
    },
    /// Pop the stack into a register.
    Pop {
        /// Destination register.
        dst: Reg,
    },
    /// Software interrupt — the syscall gate (`INT 0x2E` in the guest ABI).
    Int {
        /// Interrupt vector.
        vector: u8,
    },
    /// Halt the current thread (thread exit in the guest ABI).
    Hlt,
    /// No operation.
    Nop,
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instr::MovRR { dst, src } => write!(f, "mov {dst}, {src}"),
            Instr::MovRI { dst, imm } => write!(f, "mov {dst}, {imm:#x}"),
            Instr::Load { dst, mem, width } => {
                write!(f, "ld{} {dst}, {mem}", width.bytes())
            }
            Instr::Store { mem, src, width } => {
                write!(f, "st{} {mem}, {src}", width.bytes())
            }
            Instr::Lea { dst, mem } => write!(f, "lea {dst}, {mem}"),
            Instr::Alu { op, dst, src } => write!(f, "{} {dst}, {src}", op.mnemonic()),
            Instr::Cmp { a, b } => write!(f, "cmp {a}, {b}"),
            Instr::Test { a, b } => write!(f, "test {a}, {b}"),
            Instr::Jmp { rel } => write!(f, "jmp {rel:+}"),
            Instr::Jcc { cond, rel } => write!(f, "{} {rel:+}", cond.mnemonic()),
            Instr::Call { rel } => write!(f, "call {rel:+}"),
            Instr::CallReg { target } => write!(f, "call {target}"),
            Instr::JmpReg { target } => write!(f, "jmp {target}"),
            Instr::Ret => write!(f, "ret"),
            Instr::Push { src } => write!(f, "push {src}"),
            Instr::PushImm { imm } => write!(f, "push {imm:#x}"),
            Instr::Pop { dst } => write!(f, "pop {dst}"),
            Instr::Int { vector } => write!(f, "int {vector:#x}"),
            Instr::Hlt => write!(f, "hlt"),
            Instr::Nop => write!(f, "nop"),
        }
    }
}

impl Instr {
    /// Returns `true` if the instruction ends a basic block (any control
    /// transfer, syscall gate, or halt).
    ///
    /// The replay framework fires its `block_exec` callback at these
    /// boundaries, mirroring PANDA's translation-block granularity.
    pub fn ends_block(&self) -> bool {
        matches!(
            self,
            Instr::Jmp { .. }
                | Instr::Jcc { .. }
                | Instr::Call { .. }
                | Instr::CallReg { .. }
                | Instr::JmpReg { .. }
                | Instr::Ret
                | Instr::Int { .. }
                | Instr::Hlt
        )
    }
}

impl Instr {
    /// Registers whose *values* this instruction reads — data operands plus
    /// every register an address computation uses, including the implicit
    /// `esp` of the stack forms. Static transfer functions (value-set
    /// analysis, taint summaries) key on this instead of re-matching every
    /// variant.
    ///
    /// # Examples
    ///
    /// ```
    /// use faros_emu::isa::{Instr, Mem, Reg, Width};
    /// let ld = Instr::Load { dst: Reg::Eax, mem: Mem::table(Reg::Ebx, Reg::Ecx, 4), width: Width::B4 };
    /// assert_eq!(ld.regs_read(), vec![Reg::Ebx, Reg::Ecx]);
    /// assert_eq!(Instr::Push { src: Reg::Edi }.regs_read(), vec![Reg::Edi, Reg::Esp]);
    /// ```
    pub fn regs_read(&self) -> Vec<Reg> {
        match *self {
            Instr::MovRR { src, .. } => vec![src],
            Instr::MovRI { .. } => Vec::new(),
            Instr::PushImm { .. } => vec![Reg::Esp],
            Instr::Load { mem, .. } | Instr::Lea { mem, .. } => mem.regs_used().collect(),
            Instr::Store { mem, src, .. } => {
                let mut v: Vec<Reg> = mem.regs_used().collect();
                v.push(src);
                v
            }
            Instr::Alu { dst, src, .. } => match src {
                Operand::Reg(r) => vec![dst, r],
                Operand::Imm(_) => vec![dst],
            },
            Instr::Cmp { a, b } | Instr::Test { a, b } => match b {
                Operand::Reg(r) => vec![a, r],
                Operand::Imm(_) => vec![a],
            },
            Instr::Call { .. } => vec![Reg::Esp],
            Instr::CallReg { target } => vec![target, Reg::Esp],
            Instr::JmpReg { target } => vec![target],
            Instr::Ret | Instr::Pop { .. } => vec![Reg::Esp],
            Instr::Push { src } => vec![src, Reg::Esp],
            Instr::Jmp { .. }
            | Instr::Jcc { .. }
            | Instr::Int { .. }
            | Instr::Hlt
            | Instr::Nop => Vec::new(),
        }
    }
}

/// The syscall interrupt vector used by the guest ABI (mirrors NT's
/// `int 0x2e` system-service dispatch on 32-bit Windows).
pub const SYSCALL_VECTOR: u8 = 0x2e;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_index_round_trip() {
        for r in Reg::ALL {
            assert_eq!(Reg::from_index(r.index() as u8), Some(r));
        }
        assert_eq!(Reg::from_index(8), None);
        assert_eq!(Reg::from_index(255), None);
    }

    #[test]
    fn alu_semantics() {
        assert_eq!(AluOp::Add.apply(2, 3), 5);
        assert_eq!(AluOp::Add.apply(u32::MAX, 1), 0);
        assert_eq!(AluOp::Sub.apply(3, 5), u32::MAX - 1);
        assert_eq!(AluOp::And.apply(0b1100, 0b1010), 0b1000);
        assert_eq!(AluOp::Or.apply(0b1100, 0b1010), 0b1110);
        assert_eq!(AluOp::Xor.apply(0xff, 0xff), 0);
        assert_eq!(AluOp::Mul.apply(7, 6), 42);
        assert_eq!(AluOp::Shl.apply(1, 4), 16);
        assert_eq!(AluOp::Shl.apply(1, 33), 2, "shift counts are masked to 5 bits");
        assert_eq!(AluOp::Shr.apply(16, 4), 1);
    }

    #[test]
    fn mem_display() {
        assert_eq!(Mem::abs(0x1000).to_string(), "[0x1000]");
        assert_eq!(Mem::base_disp(Reg::Ebx, 8).to_string(), "[ebx+0x8]");
        assert_eq!(Mem::table(Reg::Ebx, Reg::Ecx, 4).to_string(), "[ebx+ecx*4]");
        assert_eq!(Mem::reg(Reg::Esi).to_string(), "[esi]");
    }

    #[test]
    #[should_panic(expected = "scale must be")]
    fn mem_table_rejects_bad_scale() {
        let _ = Mem::table(Reg::Ebx, Reg::Ecx, 3);
    }

    #[test]
    fn mem_regs_used() {
        let m = Mem::table(Reg::Ebx, Reg::Ecx, 4);
        let regs: Vec<Reg> = m.regs_used().collect();
        assert_eq!(regs, vec![Reg::Ebx, Reg::Ecx]);
        assert_eq!(Mem::abs(4).regs_used().count(), 0);
    }

    #[test]
    fn ends_block_classification() {
        assert!(Instr::Hlt.ends_block());
        assert!(Instr::Ret.ends_block());
        assert!(Instr::Jmp { rel: 0 }.ends_block());
        assert!(Instr::Int { vector: SYSCALL_VECTOR }.ends_block());
        assert!(!Instr::Nop.ends_block());
        assert!(!Instr::MovRR { dst: Reg::Eax, src: Reg::Ebx }.ends_block());
    }

    #[test]
    fn operand_metadata_covers_every_variant() {
        use Instr as I;
        let mem = Mem::table(Reg::Ebx, Reg::Ecx, 4);
        // Reads.
        assert_eq!(I::MovRR { dst: Reg::Eax, src: Reg::Ebx }.regs_read(), vec![Reg::Ebx]);
        assert!(I::MovRI { dst: Reg::Eax, imm: 1 }.regs_read().is_empty());
        assert_eq!(
            I::Store { mem, src: Reg::Edx, width: Width::B4 }.regs_read(),
            vec![Reg::Ebx, Reg::Ecx, Reg::Edx]
        );
        assert_eq!(
            I::Alu { op: AluOp::Add, dst: Reg::Eax, src: Operand::Reg(Reg::Ebx) }.regs_read(),
            vec![Reg::Eax, Reg::Ebx]
        );
        assert_eq!(I::Cmp { a: Reg::Eax, b: Operand::Imm(1) }.regs_read(), vec![Reg::Eax]);
        assert_eq!(I::CallReg { target: Reg::Ebp }.regs_read(), vec![Reg::Ebp, Reg::Esp]);
        assert_eq!(I::JmpReg { target: Reg::Edi }.regs_read(), vec![Reg::Edi]);
        assert_eq!(I::Ret.regs_read(), vec![Reg::Esp]);
        assert!(I::Jmp { rel: 0 }.regs_read().is_empty());
        assert!(I::Int { vector: SYSCALL_VECTOR }.regs_read().is_empty());
    }

    #[test]
    fn instr_display_is_nonempty() {
        let samples = [
            Instr::MovRR { dst: Reg::Eax, src: Reg::Ebx },
            Instr::Load { dst: Reg::Eax, mem: Mem::abs(0x10), width: Width::B4 },
            Instr::Alu { op: AluOp::Xor, dst: Reg::Eax, src: Operand::Reg(Reg::Eax) },
            Instr::Jcc { cond: Cond::Nz, rel: -5 },
        ];
        for s in samples {
            assert!(!s.to_string().is_empty());
        }
    }
}
