//! A two-pass FE32 assembler with labels.
//!
//! The attack and workload corpus (`faros-corpus`) builds every guest program
//! with this assembler: loaders, injected payloads, RAT clients, the mini-JIT
//! — all of them become plain FE32 bytes in guest memory, which is what lets
//! the DIFT engine tag and track them.
//!
//! # Examples
//!
//! ```
//! use faros_emu::asm::Asm;
//! use faros_emu::isa::Reg;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut asm = Asm::new(0x40_0000);
//! asm.mov_ri(Reg::Ecx, 10);
//! asm.mov_ri(Reg::Eax, 0);
//! asm.label("top");
//! asm.add_ri(Reg::Eax, 3);
//! asm.sub_ri(Reg::Ecx, 1);
//! asm.cmp_ri(Reg::Ecx, 0);
//! asm.jnz("top");
//! asm.hlt();
//! let code = asm.assemble()?;
//! assert!(!code.is_empty());
//! # Ok(())
//! # }
//! ```

use crate::encode::encode_into;
use crate::isa::{AluOp, Cond, Instr, Mem, Operand, Reg, Width, SYSCALL_VECTOR};
use std::collections::HashMap;
use std::fmt;

/// Error produced while assembling a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A branch references a label that was never defined.
    UndefinedLabel(String),
    /// The same label was defined twice.
    DuplicateLabel(String),
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            AsmError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
        }
    }
}

impl std::error::Error for AsmError {}

#[derive(Debug, Clone)]
struct Fixup {
    /// Byte offset of the 4-byte rel field within `bytes`.
    field_at: usize,
    /// Offset of the first byte after the instruction (rel is relative to it).
    next: usize,
    label: String,
}

/// The assembler. Instructions are appended through the mnemonic methods;
/// [`Asm::assemble`] resolves label fixups and returns the image.
#[derive(Debug, Clone)]
pub struct Asm {
    base: u32,
    bytes: Vec<u8>,
    labels: HashMap<String, usize>,
    fixups: Vec<Fixup>,
    duplicate: Option<String>,
}

impl Asm {
    /// Creates an assembler for code to be loaded at virtual address `base`.
    pub fn new(base: u32) -> Asm {
        Asm {
            base,
            bytes: Vec::new(),
            labels: HashMap::new(),
            fixups: Vec::new(),
            duplicate: None,
        }
    }

    /// The load address the program is being assembled for.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Current offset from `base`, i.e. the address of the next instruction.
    pub fn here(&self) -> u32 {
        self.base + self.bytes.len() as u32
    }

    /// Defines a label at the current position.
    pub fn label(&mut self, name: &str) -> &mut Asm {
        if self.labels.insert(name.to_string(), self.bytes.len()).is_some() {
            self.duplicate.get_or_insert_with(|| name.to_string());
        }
        self
    }

    fn emit(&mut self, instr: Instr) -> &mut Asm {
        encode_into(&instr, &mut self.bytes);
        self
    }

    fn emit_branch(&mut self, instr: Instr, label: &str) -> &mut Asm {
        // Encode with rel = 0, then record a fixup over the trailing 4 bytes.
        encode_into(&instr, &mut self.bytes);
        let next = self.bytes.len();
        self.fixups.push(Fixup {
            field_at: next - 4,
            next,
            label: label.to_string(),
        });
        self
    }

    /// Emits raw bytes (e.g. embedded data or deliberately invalid code).
    pub fn raw(&mut self, bytes: &[u8]) -> &mut Asm {
        self.bytes.extend_from_slice(bytes);
        self
    }

    /// Emits a little-endian `u32` data word.
    pub fn dd(&mut self, val: u32) -> &mut Asm {
        self.bytes.extend_from_slice(&val.to_le_bytes());
        self
    }

    // --- moves ---

    /// `mov dst, src`
    pub fn mov_rr(&mut self, dst: Reg, src: Reg) -> &mut Asm {
        self.emit(Instr::MovRR { dst, src })
    }

    /// `mov dst, imm`
    pub fn mov_ri(&mut self, dst: Reg, imm: u32) -> &mut Asm {
        self.emit(Instr::MovRI { dst, imm })
    }

    /// `mov dst, <address of label>` — resolved at assembly time.
    pub fn mov_label(&mut self, dst: Reg, label: &str) -> &mut Asm {
        // Encoded as MovRI whose imm field gets an absolute fixup; reuse the
        // relative machinery by noting imm = base + label_off, i.e. rel
        // relative to 0 rather than to `next`. Easiest: emit now, patch in
        // assemble() via a dedicated fixup with next == usize::MAX marker.
        self.emit(Instr::MovRI { dst, imm: 0 });
        let next = self.bytes.len();
        self.fixups.push(Fixup {
            field_at: next - 4,
            next: usize::MAX, // absolute
            label: label.to_string(),
        });
        self
    }

    // --- loads/stores ---

    /// `ld1 dst, [mem]` (byte load, zero-extended)
    pub fn ld1(&mut self, dst: Reg, mem: Mem) -> &mut Asm {
        self.emit(Instr::Load { dst, mem, width: Width::B1 })
    }

    /// `ld2 dst, [mem]` (halfword load, zero-extended)
    pub fn ld2(&mut self, dst: Reg, mem: Mem) -> &mut Asm {
        self.emit(Instr::Load { dst, mem, width: Width::B2 })
    }

    /// `ld4 dst, [mem]` (word load)
    pub fn ld4(&mut self, dst: Reg, mem: Mem) -> &mut Asm {
        self.emit(Instr::Load { dst, mem, width: Width::B4 })
    }

    /// `st1 [mem], src` (byte store)
    pub fn st1(&mut self, mem: Mem, src: Reg) -> &mut Asm {
        self.emit(Instr::Store { mem, src, width: Width::B1 })
    }

    /// `st2 [mem], src` (halfword store)
    pub fn st2(&mut self, mem: Mem, src: Reg) -> &mut Asm {
        self.emit(Instr::Store { mem, src, width: Width::B2 })
    }

    /// `st4 [mem], src` (word store)
    pub fn st4(&mut self, mem: Mem, src: Reg) -> &mut Asm {
        self.emit(Instr::Store { mem, src, width: Width::B4 })
    }

    /// `lea dst, [mem]`
    pub fn lea(&mut self, dst: Reg, mem: Mem) -> &mut Asm {
        self.emit(Instr::Lea { dst, mem })
    }

    // --- ALU ---

    /// `add dst, src`
    pub fn add_rr(&mut self, dst: Reg, src: Reg) -> &mut Asm {
        self.emit(Instr::Alu { op: AluOp::Add, dst, src: Operand::Reg(src) })
    }

    /// `add dst, imm`
    pub fn add_ri(&mut self, dst: Reg, imm: u32) -> &mut Asm {
        self.emit(Instr::Alu { op: AluOp::Add, dst, src: Operand::Imm(imm) })
    }

    /// `sub dst, src`
    pub fn sub_rr(&mut self, dst: Reg, src: Reg) -> &mut Asm {
        self.emit(Instr::Alu { op: AluOp::Sub, dst, src: Operand::Reg(src) })
    }

    /// `sub dst, imm`
    pub fn sub_ri(&mut self, dst: Reg, imm: u32) -> &mut Asm {
        self.emit(Instr::Alu { op: AluOp::Sub, dst, src: Operand::Imm(imm) })
    }

    /// `and dst, src`
    pub fn and_rr(&mut self, dst: Reg, src: Reg) -> &mut Asm {
        self.emit(Instr::Alu { op: AluOp::And, dst, src: Operand::Reg(src) })
    }

    /// `and dst, imm`
    pub fn and_ri(&mut self, dst: Reg, imm: u32) -> &mut Asm {
        self.emit(Instr::Alu { op: AluOp::And, dst, src: Operand::Imm(imm) })
    }

    /// `or dst, src`
    pub fn or_rr(&mut self, dst: Reg, src: Reg) -> &mut Asm {
        self.emit(Instr::Alu { op: AluOp::Or, dst, src: Operand::Reg(src) })
    }

    /// `or dst, imm`
    pub fn or_ri(&mut self, dst: Reg, imm: u32) -> &mut Asm {
        self.emit(Instr::Alu { op: AluOp::Or, dst, src: Operand::Imm(imm) })
    }

    /// `xor dst, src` — `xor r, r` is the canonical taint-delete idiom.
    pub fn xor_rr(&mut self, dst: Reg, src: Reg) -> &mut Asm {
        self.emit(Instr::Alu { op: AluOp::Xor, dst, src: Operand::Reg(src) })
    }

    /// `xor dst, imm`
    pub fn xor_ri(&mut self, dst: Reg, imm: u32) -> &mut Asm {
        self.emit(Instr::Alu { op: AluOp::Xor, dst, src: Operand::Imm(imm) })
    }

    /// `mul dst, imm`
    pub fn mul_ri(&mut self, dst: Reg, imm: u32) -> &mut Asm {
        self.emit(Instr::Alu { op: AluOp::Mul, dst, src: Operand::Imm(imm) })
    }

    /// `shl dst, imm`
    pub fn shl_ri(&mut self, dst: Reg, imm: u32) -> &mut Asm {
        self.emit(Instr::Alu { op: AluOp::Shl, dst, src: Operand::Imm(imm) })
    }

    /// `shr dst, imm`
    pub fn shr_ri(&mut self, dst: Reg, imm: u32) -> &mut Asm {
        self.emit(Instr::Alu { op: AluOp::Shr, dst, src: Operand::Imm(imm) })
    }

    // --- compare ---

    /// `cmp a, b`
    pub fn cmp_rr(&mut self, a: Reg, b: Reg) -> &mut Asm {
        self.emit(Instr::Cmp { a, b: Operand::Reg(b) })
    }

    /// `cmp a, imm`
    pub fn cmp_ri(&mut self, a: Reg, imm: u32) -> &mut Asm {
        self.emit(Instr::Cmp { a, b: Operand::Imm(imm) })
    }

    // --- control flow ---

    /// `jmp label`
    pub fn jmp(&mut self, label: &str) -> &mut Asm {
        self.emit_branch(Instr::Jmp { rel: 0 }, label)
    }

    fn jcc(&mut self, cond: Cond, label: &str) -> &mut Asm {
        self.emit_branch(Instr::Jcc { cond, rel: 0 }, label)
    }

    /// `jz label`
    pub fn jz(&mut self, label: &str) -> &mut Asm {
        self.jcc(Cond::Z, label)
    }

    /// `jnz label`
    pub fn jnz(&mut self, label: &str) -> &mut Asm {
        self.jcc(Cond::Nz, label)
    }

    /// `jl label`
    pub fn jl(&mut self, label: &str) -> &mut Asm {
        self.jcc(Cond::L, label)
    }

    /// `jge label`
    pub fn jge(&mut self, label: &str) -> &mut Asm {
        self.jcc(Cond::Ge, label)
    }

    /// `jg label`
    pub fn jg(&mut self, label: &str) -> &mut Asm {
        self.jcc(Cond::G, label)
    }

    /// `jle label`
    pub fn jle(&mut self, label: &str) -> &mut Asm {
        self.jcc(Cond::Le, label)
    }

    /// `jb label`
    pub fn jb(&mut self, label: &str) -> &mut Asm {
        self.jcc(Cond::B, label)
    }

    /// `jae label`
    pub fn jae(&mut self, label: &str) -> &mut Asm {
        self.jcc(Cond::Ae, label)
    }

    /// `call label`
    pub fn call(&mut self, label: &str) -> &mut Asm {
        self.emit_branch(Instr::Call { rel: 0 }, label)
    }

    /// `call reg`
    pub fn call_reg(&mut self, target: Reg) -> &mut Asm {
        self.emit(Instr::CallReg { target })
    }

    /// `jmp reg`
    pub fn jmp_reg(&mut self, target: Reg) -> &mut Asm {
        self.emit(Instr::JmpReg { target })
    }

    /// `ret`
    pub fn ret(&mut self) -> &mut Asm {
        self.emit(Instr::Ret)
    }

    // --- stack ---

    /// `push src`
    pub fn push(&mut self, src: Reg) -> &mut Asm {
        self.emit(Instr::Push { src })
    }

    /// `push imm`
    pub fn push_imm(&mut self, imm: u32) -> &mut Asm {
        self.emit(Instr::PushImm { imm })
    }

    /// `pop dst`
    pub fn pop(&mut self, dst: Reg) -> &mut Asm {
        self.emit(Instr::Pop { dst })
    }

    // --- system ---

    /// `int 0x2e` — the syscall gate.
    pub fn int_syscall(&mut self) -> &mut Asm {
        self.emit(Instr::Int { vector: SYSCALL_VECTOR })
    }

    /// `hlt` — thread exit.
    pub fn hlt(&mut self) -> &mut Asm {
        self.emit(Instr::Hlt)
    }

    /// `nop`
    pub fn nop(&mut self) -> &mut Asm {
        self.emit(Instr::Nop)
    }

    /// Resolves fixups and returns the final byte image.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError::UndefinedLabel`] for a branch to a label that was
    /// never defined and [`AsmError::DuplicateLabel`] if any label was
    /// defined more than once.
    pub fn assemble(mut self) -> Result<Vec<u8>, AsmError> {
        if let Some(dup) = self.duplicate.take() {
            return Err(AsmError::DuplicateLabel(dup));
        }
        for fixup in &self.fixups {
            let &target_off = self
                .labels
                .get(&fixup.label)
                .ok_or_else(|| AsmError::UndefinedLabel(fixup.label.clone()))?;
            let value: u32 = if fixup.next == usize::MAX {
                // Absolute address fixup (mov_label).
                self.base + target_off as u32
            } else {
                (target_off as i64 - fixup.next as i64) as u32
            };
            self.bytes[fixup.field_at..fixup.field_at + 4]
                .copy_from_slice(&value.to_le_bytes());
        }
        Ok(self.bytes)
    }

    /// Like [`Asm::assemble`], also returning the label table (virtual
    /// addresses) — the corpus uses this to find payload entry points.
    ///
    /// # Errors
    ///
    /// Same as [`Asm::assemble`].
    pub fn assemble_with_labels(self) -> Result<(Vec<u8>, HashMap<String, u32>), AsmError> {
        let base = self.base;
        let labels: HashMap<String, u32> = self
            .labels
            .iter()
            .map(|(k, &off)| (k.clone(), base + off as u32))
            .collect();
        let bytes = self.assemble()?;
        Ok((bytes, labels))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::decode;

    #[test]
    fn forward_and_backward_branches_resolve() {
        let mut a = Asm::new(0x1000);
        a.label("start");
        a.jmp("end"); // forward
        a.nop();
        a.label("end");
        a.jmp("start"); // backward
        let bytes = a.assemble().unwrap();
        // First: jmp rel; rel should skip the nop (1 byte).
        let (i1, l1) = decode(&bytes).unwrap();
        assert_eq!(i1, Instr::Jmp { rel: 1 });
        // Second jmp at offset l1+1 targets offset 0.
        let off2 = l1 + 1;
        let (i2, l2) = decode(&bytes[off2..]).unwrap();
        assert_eq!(i2, Instr::Jmp { rel: -((off2 + l2) as i32) });
    }

    #[test]
    fn undefined_label_is_an_error() {
        let mut a = Asm::new(0);
        a.jmp("nowhere");
        assert_eq!(a.assemble(), Err(AsmError::UndefinedLabel("nowhere".into())));
    }

    #[test]
    fn duplicate_label_is_an_error() {
        let mut a = Asm::new(0);
        a.label("x");
        a.nop();
        a.label("x");
        assert_eq!(a.assemble(), Err(AsmError::DuplicateLabel("x".into())));
    }

    #[test]
    fn mov_label_resolves_absolute_address() {
        let mut a = Asm::new(0x2000);
        a.mov_label(Reg::Eax, "data");
        a.hlt();
        a.label("data");
        a.dd(0xdead_beef);
        let (bytes, labels) = a.assemble_with_labels().unwrap();
        let (i, _) = decode(&bytes).unwrap();
        assert_eq!(i, Instr::MovRI { dst: Reg::Eax, imm: labels["data"] });
    }

    #[test]
    fn here_reflects_emitted_bytes() {
        let mut a = Asm::new(0x1000);
        assert_eq!(a.here(), 0x1000);
        a.nop(); // 1 byte
        assert_eq!(a.here(), 0x1001);
        a.mov_ri(Reg::Eax, 0); // 6 bytes
        assert_eq!(a.here(), 0x1007);
    }

    #[test]
    fn raw_and_dd_emit_verbatim() {
        let mut a = Asm::new(0);
        a.raw(&[1, 2, 3]);
        a.dd(0x0403_0201);
        let bytes = a.assemble().unwrap();
        assert_eq!(bytes, vec![1, 2, 3, 1, 2, 3, 4]);
    }
}
