//! Shared FE32 program-building helpers for the sample corpus.
//!
//! Every guest program in the corpus (loaders, payloads, RAT clients, JIT
//! hosts, benign apps) is assembled with these helpers, which encode the
//! guest ABI conventions once:
//!
//! * syscalls via [`sys`] (service number in `EAX`, args in `EBX..EDI`);
//! * a data/scratch page at [`SCRATCH`] (`IMAGE_BASE + 0x2000`);
//! * the canonical export-table walk ([`emit_resolve_export`]) that
//!   reflective payloads use to find API addresses — the code path FAROS'
//!   confluence invariant fires on.

use faros_emu::asm::Asm;
use faros_emu::isa::{Mem as M, Reg};
use faros_emu::mmu::Perms;
use faros_kernel::machine::{IMAGE_BASE, KERNEL_EXPORT_TABLE_VA};
use faros_kernel::module::FdlImage;
use faros_kernel::module::Section;
use faros_kernel::nt::Sysno;

/// Start of the scratch/data area every corpus image maps (read-write).
pub const SCRATCH: u32 = IMAGE_BASE + 0x2000;

/// Size of the code+data image each corpus program occupies.
pub const IMAGE_SIZE: u32 = 0x4000;

/// Emits a syscall: loads the immediate args, then the service number, then
/// the gate. Registers not listed keep their current values, so callers can
/// pre-load computed arguments.
pub fn sys(asm: &mut Asm, sysno: Sysno, args: &[(Reg, u32)]) {
    for &(reg, val) in args {
        asm.mov_ri(reg, val);
    }
    asm.mov_ri(Reg::Eax, sysno as u32);
    asm.int_syscall();
}

/// Emits `NtDisplayString(label, len)`.
pub fn print_label(asm: &mut Asm, label: &str, len: u32) {
    asm.mov_label(Reg::Ebx, label);
    sys(asm, Sysno::NtDisplayString, &[(Reg::Ecx, len)]);
}

/// Emits `NtTerminateProcess(self, code)`.
pub fn exit_process(asm: &mut Asm, code: u32) {
    sys(
        asm,
        Sysno::NtTerminateProcess,
        &[(Reg::Ebx, 0xffff_ffff), (Reg::Ecx, code)],
    );
}

/// Emits: create a socket (handle stored at `SCRATCH + sock_slot`) and
/// connect it to `ip:port`. On refusal the program exits with code 1.
pub fn connect(asm: &mut Asm, ip: [u8; 4], port: u16, sock_slot: u32) {
    sys(asm, Sysno::NtSocketCreate, &[(Reg::Ebx, SCRATCH + sock_slot)]);
    asm.ld4(Reg::Ebx, M::abs(SCRATCH + sock_slot));
    sys(
        asm,
        Sysno::NtSocketConnect,
        &[(Reg::Ecx, u32::from_be_bytes(ip)), (Reg::Edx, port as u32)],
    );
    asm.cmp_ri(Reg::Eax, 0);
    let skip = format!("conn_ok_{sock_slot}_{port}");
    asm.jz(&skip);
    exit_process(asm, 1);
    asm.label(&skip);
}

/// Emits `NtSocketSend(sock, label, len)`.
pub fn send_label(asm: &mut Asm, sock_slot: u32, label: &str, len: u32) {
    asm.ld4(Reg::Ebx, M::abs(SCRATCH + sock_slot));
    asm.mov_label(Reg::Ecx, label);
    sys(asm, Sysno::NtSocketSend, &[(Reg::Edx, len), (Reg::Esi, 0)]);
}

/// Emits `NtSocketSend(sock, buf_va, len)` for a runtime buffer.
pub fn send_buf(asm: &mut Asm, sock_slot: u32, buf_va: u32, len: u32) {
    asm.ld4(Reg::Ebx, M::abs(SCRATCH + sock_slot));
    sys(
        asm,
        Sysno::NtSocketSend,
        &[(Reg::Ecx, buf_va), (Reg::Edx, len), (Reg::Esi, 0)],
    );
}

/// Emits a blocking `NtSocketRecv(sock, buf_va, cap)`; the byte count is
/// stored at `SCRATCH + count_slot`.
pub fn recv_into(asm: &mut Asm, sock_slot: u32, buf_va: u32, cap: u32, count_slot: u32) {
    asm.ld4(Reg::Ebx, M::abs(SCRATCH + sock_slot));
    sys(
        asm,
        Sysno::NtSocketRecv,
        &[
            (Reg::Ecx, buf_va),
            (Reg::Edx, cap),
            (Reg::Esi, SCRATCH + count_slot),
        ],
    );
}

/// Emits `NtDelayExecution(ticks)`.
pub fn sleep(asm: &mut Asm, ticks: u32) {
    sys(asm, Sysno::NtDelayExecution, &[(Reg::Ebx, ticks)]);
}

/// Emits the reflective export-table walk (the paper's §II: "the DLL parses
/// the host process kernel's export table to calculate the addresses of
/// \[its\] functions"): scans the kernel export table for an entry whose djb2
/// hash equals `hash`, leaving the function pointer in `EAX`.
///
/// The pointer load at the end reads four export-table-tagged bytes — when
/// this sequence executes from injected (netflow- or cross-process-tagged)
/// code, FAROS' confluence invariant fires exactly here.
///
/// Clobbers `ESI`, `ECX`, `EDX`. `label_seed` must be unique per expansion.
pub fn emit_resolve_export(asm: &mut Asm, hash: u32, label_seed: &str) {
    let lp = format!("res_loop_{label_seed}");
    let hit = format!("res_hit_{label_seed}");
    let fail = format!("res_fail_{label_seed}");
    let done = format!("res_done_{label_seed}");
    asm.mov_ri(Reg::Esi, KERNEL_EXPORT_TABLE_VA);
    asm.ld4(Reg::Ecx, M::reg(Reg::Esi)); // entry count
    asm.add_ri(Reg::Esi, 4);
    asm.label(&lp);
    asm.cmp_ri(Reg::Ecx, 0);
    asm.jz(&fail);
    asm.ld4(Reg::Edx, M::base_disp(Reg::Esi, 24)); // name hash
    asm.cmp_ri(Reg::Edx, hash);
    asm.jz(&hit);
    asm.add_ri(Reg::Esi, 32);
    asm.sub_ri(Reg::Ecx, 1);
    asm.jmp(&lp);
    asm.label(&hit);
    // The flagged read: the function-pointer field carries the
    // export-table tag.
    asm.ld4(Reg::Eax, M::base_disp(Reg::Esi, 28));
    asm.jmp(&done);
    asm.label(&fail);
    asm.mov_ri(Reg::Eax, 0);
    asm.label(&done);
}

/// Emits a tight user-space byte-copy loop `memcpy(dst, src, len)` using
/// `ld1`/`st1` — a *direct* flow, so taint follows (paper Table I `copy`).
/// Clobbers `ESI, EDI, ECX, EDX`. `label_seed` must be unique.
pub fn emit_memcpy(asm: &mut Asm, dst: u32, src: u32, len: u32, label_seed: &str) {
    let lp = format!("mc_loop_{label_seed}");
    let done = format!("mc_done_{label_seed}");
    asm.mov_ri(Reg::Esi, src);
    asm.mov_ri(Reg::Edi, dst);
    asm.mov_ri(Reg::Ecx, len);
    asm.label(&lp);
    asm.cmp_ri(Reg::Ecx, 0);
    asm.jz(&done);
    asm.ld1(Reg::Edx, M::reg(Reg::Esi));
    asm.st1(M::reg(Reg::Edi), Reg::Edx);
    asm.add_ri(Reg::Esi, 1);
    asm.add_ri(Reg::Edi, 1);
    asm.sub_ri(Reg::Ecx, 1);
    asm.jmp(&lp);
    asm.label(&done);
}

/// Emits the paper's Fig. 2 control-dependency copy: reconstructs `len`
/// bytes from `src` at `dst` bit by bit through conditional branches, so
/// the output is value-identical but **untainted** under FAROS' direct-flow
/// policy — the taint-laundering evasion §VI-D discusses.
/// Clobbers `ESI, EDI, ECX, EDX, EBP`. `label_seed` must be unique.
pub fn emit_launder_copy(asm: &mut Asm, dst: u32, src: u32, len: u32, label_seed: &str) {
    let byte_loop = format!("ln_byte_{label_seed}");
    let bit_loop = format!("ln_bit_{label_seed}");
    let skip = format!("ln_skip_{label_seed}");
    let bit_next = format!("ln_next_{label_seed}");
    let done = format!("ln_done_{label_seed}");
    asm.mov_ri(Reg::Esi, src);
    asm.mov_ri(Reg::Edi, dst);
    asm.mov_ri(Reg::Ecx, len);
    asm.label(&byte_loop);
    asm.cmp_ri(Reg::Ecx, 0);
    asm.jz(&done);
    asm.ld1(Reg::Edx, M::reg(Reg::Esi)); // tainted input byte
    asm.mov_ri(Reg::Ebp, 1); // current bit mask (untainted)
    asm.mov_ri(Reg::Eax, 0); // reconstructed byte (untainted)
    asm.label(&bit_loop);
    asm.cmp_ri(Reg::Ebp, 256);
    asm.jae(&bit_next);
    // if (bit & tainted_input) out |= bit;  — information flows only
    // through the branch, which FAROS deliberately does not track.
    asm.push(Reg::Edx);
    asm.and_rr(Reg::Edx, Reg::Ebp);
    asm.cmp_ri(Reg::Edx, 0);
    asm.pop(Reg::Edx);
    asm.jz(&skip);
    asm.or_rr(Reg::Eax, Reg::Ebp);
    asm.label(&skip);
    asm.shl_ri(Reg::Ebp, 1);
    asm.jmp(&bit_loop);
    asm.label(&bit_next);
    asm.st1(M::reg(Reg::Edi), Reg::Eax);
    asm.add_ri(Reg::Esi, 1);
    asm.add_ri(Reg::Edi, 1);
    asm.sub_ri(Reg::Ecx, 1);
    asm.jmp(&byte_loop);
    asm.label(&done);
}

/// Wraps assembled code into a standard corpus image: an RX code section
/// at [`IMAGE_BASE`] (code + embedded constants) and an RW data section at
/// [`SCRATCH`], together spanning [`IMAGE_SIZE`] bytes, entry at the image
/// base. Benign images are W^X-clean by construction — the static linter
/// holds every corpus module to that layout.
///
/// # Panics
///
/// Panics if the program does not assemble or its code spills past the
/// [`SCRATCH`] data area — corpus programs are static, so both are
/// build-time bugs.
pub fn finish_image(asm: Asm) -> FdlImage {
    let mut code = asm.assemble().expect("corpus program must assemble");
    let code_size = SCRATCH - IMAGE_BASE;
    assert!(
        code.len() as u32 <= code_size,
        "corpus program too large: {} bytes",
        code.len()
    );
    code.resize(code_size as usize, 0);
    FdlImage {
        entry: IMAGE_BASE,
        export_table_va: IMAGE_BASE + 0x0010_0000,
        sections: vec![
            Section { va: IMAGE_BASE, data: code, perms: Perms::RX },
            Section {
                va: SCRATCH,
                data: vec![0; (IMAGE_SIZE - (SCRATCH - IMAGE_BASE)) as usize],
                perms: Perms::RW,
            },
        ],
        exports: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faros_kernel::event::NullObserver;
    use faros_kernel::machine::{Machine, MachineConfig, RunExit};
    use faros_kernel::module::hash_name;

    #[test]
    fn resolve_export_finds_kernel_apis() {
        let mut asm = Asm::new(IMAGE_BASE);
        emit_resolve_export(&mut asm, hash_name("VirtualAlloc"), "t");
        asm.st4(M::abs(SCRATCH), Reg::Eax);
        asm.hlt();
        let mut machine = Machine::new(MachineConfig::default());
        machine.install_program("C:/r.exe", &finish_image(asm)).unwrap();
        let pid = machine
            .spawn_process("C:/r.exe", false, None, &mut NullObserver)
            .unwrap();
        assert_eq!(machine.run(1_000_000, &mut NullObserver), RunExit::AllExited);
        let got = machine.read_guest(pid, SCRATCH, 4).unwrap();
        let va = u32::from_le_bytes(got.try_into().unwrap());
        let expected = machine.kernel_modules()[0]
            .find_export("VirtualAlloc")
            .unwrap()
            .va;
        assert_eq!(va, expected);
    }

    #[test]
    fn resolve_export_unknown_hash_yields_zero() {
        let mut asm = Asm::new(IMAGE_BASE);
        emit_resolve_export(&mut asm, 0xdead_beef, "t");
        asm.st4(M::abs(SCRATCH), Reg::Eax);
        asm.hlt();
        let mut machine = Machine::new(MachineConfig::default());
        machine.install_program("C:/r.exe", &finish_image(asm)).unwrap();
        let pid = machine
            .spawn_process("C:/r.exe", false, None, &mut NullObserver)
            .unwrap();
        assert_eq!(machine.run(1_000_000, &mut NullObserver), RunExit::AllExited);
        let got = machine.read_guest(pid, SCRATCH, 4).unwrap();
        assert_eq!(u32::from_le_bytes(got.try_into().unwrap()), 0);
    }

    #[test]
    fn memcpy_and_launder_produce_identical_bytes() {
        let src = SCRATCH + 0x100;
        let dst_a = SCRATCH + 0x200;
        let dst_b = SCRATCH + 0x300;
        let mut asm = Asm::new(IMAGE_BASE);
        // Initialize source bytes.
        for (i, b) in [0xde, 0xad, 0xbe, 0xefu32].iter().enumerate() {
            asm.mov_ri(Reg::Eax, *b);
            asm.st1(M::abs(src + i as u32), Reg::Eax);
        }
        emit_memcpy(&mut asm, dst_a, src, 4, "a");
        emit_launder_copy(&mut asm, dst_b, src, 4, "b");
        asm.hlt();
        let mut machine = Machine::new(MachineConfig::default());
        machine.install_program("C:/c.exe", &finish_image(asm)).unwrap();
        let pid = machine
            .spawn_process("C:/c.exe", false, None, &mut NullObserver)
            .unwrap();
        assert_eq!(machine.run(1_000_000, &mut NullObserver), RunExit::AllExited);
        let a = machine.read_guest(pid, dst_a, 4).unwrap();
        let b = machine.read_guest(pid, dst_b, 4).unwrap();
        assert_eq!(a, vec![0xde, 0xad, 0xbe, 0xef]);
        assert_eq!(a, b, "laundered copy must be value-identical");
    }
}
