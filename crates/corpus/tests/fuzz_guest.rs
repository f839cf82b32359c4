//! Whole-system robustness fuzzing: arbitrary byte soup and random (valid)
//! instruction streams run as guest programs under full FAROS analysis.
//! Whatever the guest does — illegal instructions, wild pointers, random
//! syscall numbers with garbage arguments — the *host* stack (kernel,
//! taint engine, detector) must never panic and the run must terminate.
//!
//! Runs on the in-tree deterministic harness (`faros_support::prop`) with
//! the pinned default seed; set `FAROS_PROP_SEED` to explore other streams.

use faros::{Faros, Policy};
use faros_corpus::{Sample, SampleScenario};
use faros_emu::encode::encode;
use faros_emu::isa::{Instr, Reg};
use faros_emu::mem::PAGE_SIZE;
use faros_emu::mmu::Perms;
use faros_kernel::machine::IMAGE_BASE;
use faros_kernel::module::{FdlImage, Section};
use faros_kernel::nt::{CURRENT_PROCESS, CURRENT_THREAD};
use faros_replay::record_and_replay;
use faros_support::arb;
use faros_support::prop::{check, Config, Rng};

fn wrap_bytes(code: Vec<u8>) -> Sample {
    let mut data = code;
    data.resize(0x2000, 0);
    let image = FdlImage {
        entry: IMAGE_BASE,
        export_table_va: IMAGE_BASE + 0x10_0000,
        sections: vec![Section { va: IMAGE_BASE, data, perms: Perms::RWX }],
        exports: vec![],
    };
    let scenario = SampleScenario::new("fuzz")
        .program("C:/fuzz.exe", image)
        .autostart("C:/fuzz.exe");
    Sample {
        scenario,
        category: faros_corpus::Category::Benign,
        behaviors: Vec::new(),
    }
}

fn run_under_faros(sample: &Sample) {
    let mut faros = Faros::new(Policy::paper());
    // Small budget: fuzzed programs may spin; they must still come back.
    let result = record_and_replay(&sample.scenario, 200_000, &mut faros);
    // Any outcome is fine (clean exit, fault-kill, budget); panics are not.
    let _ = result;
    let _ = faros.report();
}

#[test]
fn random_byte_soup_never_panics_the_host() {
    check(
        "random_byte_soup_never_panics_the_host",
        Config::with_cases(24),
        |rng| rng.vec_of(0, 512, |r| r.next_u8()),
        |bytes| {
            run_under_faros(&wrap_bytes(bytes.clone()));
            Ok(())
        },
    );
}

#[test]
fn random_instruction_streams_never_panic_the_host() {
    check(
        "random_instruction_streams_never_panic_the_host",
        Config::with_cases(24),
        |rng| rng.vec_of(1, 64, arb::guest_instr),
        |instrs| {
            let mut code = Vec::new();
            for i in instrs {
                code.extend(encode(i));
            }
            run_under_faros(&wrap_bytes(code));
            Ok(())
        },
    );
}

/// One syscall argument register. A uniform `u32` almost never names a
/// live handle or a size the kernel accepts, so most draws come from the
/// values it branches on: the pseudo-handles, small handle and perms
/// values, page boundaries, values near `0xffff_ffff`, and pointers into
/// the image's writable scratch.
fn syscall_arg(r: &mut Rng) -> u32 {
    match r.range_u32(0, 8) {
        0 | 1 => *r.pick(&[CURRENT_PROCESS, CURRENT_THREAD]),
        2 => r.range_u32(0, 16),
        3 => (r.next_u32() & !(PAGE_SIZE - 1)).wrapping_add(*r.pick(&[0, 1, u32::MAX])),
        4 | 5 => 0u32.wrapping_sub(r.range_u32(0, 2 * PAGE_SIZE)),
        6 => IMAGE_BASE + r.range_u32(0x1000, 0x2000),
        _ => r.next_u32(),
    }
}

#[test]
fn random_syscall_arguments_never_panic_the_kernel() {
    check(
        "random_syscall_arguments_never_panic_the_kernel",
        Config::with_cases(24),
        |rng| {
            rng.vec_of(1, 24, |r| {
                // Half the calls go to the memory services (0x28..=0x2e).
                let sysno = if r.next_bool() { r.range_u32(0x28, 0x2f) } else { r.range_u32(0, 0x60) };
                (syscall_arg(r), syscall_arg(r), syscall_arg(r), syscall_arg(r), syscall_arg(r), sysno)
            })
        },
        |calls| {
            // A program that makes syscalls with entirely attacker-chosen
            // registers, then exits.
            let mut code = Vec::new();
            for (b, c, d, si, di, sysno) in calls {
                for (reg, val) in [
                    (Reg::Ebx, *b),
                    (Reg::Ecx, *c),
                    (Reg::Edx, *d),
                    (Reg::Esi, *si),
                    (Reg::Edi, *di),
                    (Reg::Eax, *sysno),
                ] {
                    code.extend(encode(&Instr::MovRI { dst: reg, imm: val }));
                }
                code.extend(encode(&Instr::Int { vector: 0x2e }));
            }
            code.extend(encode(&Instr::Hlt));
            run_under_faros(&wrap_bytes(code));
            Ok(())
        },
    );
}
