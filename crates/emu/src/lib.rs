//! # faros-emu — the FE32 whole-system emulator
//!
//! This crate is the QEMU substitute of the FAROS reproduction: a small
//! 32-bit little-endian machine ("FE32") with byte-encoded instructions,
//! 4 KiB paging, per-process address spaces named by a CR3-like [`mmu::Asid`],
//! and an interpreter that reports data flows (whole registers, physical
//! memory per byte) through the [`cpu::CpuHooks`] trait — the substrate
//! every layer above (guest kernel, record/replay, provenance DIFT, the
//! FAROS detector) builds on.
//!
//! ## Layout
//!
//! * [`isa`] — registers, addressing modes, the instruction set;
//! * [`encode`] — binary encoding/decoding (instructions live as guest bytes);
//! * [`asm`] — a two-pass assembler with labels, used by the workload corpus;
//! * [`mem`] — flat physical memory, the frame allocator and code-write
//!   detection;
//! * [`mmu`] — page tables, permissions, translation faults;
//! * [`cpu`] — the interpreter and its DIFT-oriented hook surface;
//! * [`tcache`] — the decode-once translation cache: predecoded blocks,
//!   block-to-block chaining, and self-modifying-code invalidation.
//!
//! ## Quick start
//!
//! ```
//! use faros_emu::asm::Asm;
//! use faros_emu::cpu::{Cpu, NoHooks, StepEvent};
//! use faros_emu::isa::Reg;
//! use faros_emu::mem::PhysMem;
//! use faros_emu::mmu::{AddressSpace, Asid, Perms};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut mem = PhysMem::new(8);
//! let frame = mem.alloc_frame()?;
//! let mut aspace = AddressSpace::new(Asid(0x1000));
//! aspace.map(0x40_0000, frame, Perms::RX);
//!
//! let mut asm = Asm::new(0x40_0000);
//! asm.mov_ri(Reg::Eax, 6);
//! asm.mul_ri(Reg::Eax, 7);
//! asm.hlt();
//! mem.write(frame * 4096, &asm.assemble()?)?;
//!
//! let mut cpu = Cpu::new();
//! cpu.context_mut().eip = 0x40_0000;
//! cpu.set_asid(aspace.asid());
//! while cpu.step(&mut mem, &aspace, &mut NoHooks) != StepEvent::Halt {}
//! assert_eq!(cpu.reg(Reg::Eax), 42);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod asm;
pub mod cpu;
pub mod encode;
pub mod isa;
pub mod mem;
pub mod mmu;
pub mod tcache;

pub use cpu::{Cpu, CpuContext, CpuHooks, InsnCtx, NoHooks, ShadowLoc, StepEvent};
pub use tcache::{TcStats, TransCache};
pub use isa::{Instr, Mem as MemOperand, Reg};
pub use mem::PhysMem;
pub use mmu::{Access, AddressSpace, Asid, Fault, Perms};
