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
use faros_emu::asm::Asm;
use faros_emu::encode::encode;
use faros_emu::isa::{Mem, Reg};
use faros_emu::mem::PAGE_SIZE;
use faros_emu::mmu::Perms;
use faros_kernel::machine::IMAGE_BASE;
use faros_kernel::module::{FdlImage, Section};
use faros_kernel::nt::{Sysno, CURRENT_PROCESS, CURRENT_THREAD};
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
        .seed_file(SEED_FILE, vec![0xcc; 16])
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
        3 => page_boundary(r),
        4 | 5 => near_top(r),
        6 => IMAGE_BASE + r.range_u32(0x1000, 0x2000),
        _ => r.next_u32(),
    }
}

/// A page boundary, or one byte either side of it.
fn page_boundary(r: &mut Rng) -> u32 {
    (r.next_u32() & !(PAGE_SIZE - 1)).wrapping_add(*r.pick(&[0, 1, u32::MAX]))
}

/// A value within two pages of `0xffff_ffff` (or 0).
fn near_top(r: &mut Rng) -> u32 {
    0u32.wrapping_sub(r.range_u32(0, 2 * PAGE_SIZE))
}

/// A view base for `NtMapViewOfSection`: a page boundary (±1), or one of
/// the top two pages, which a view of more than a page runs past.
fn view_base(r: &mut Rng) -> u32 {
    if r.next_bool() {
        page_boundary(r)
    } else {
        near_top(r) & !(PAGE_SIZE - 1)
    }
}

/// The file every fuzzed program opens a section on; a view of it is one
/// page.
const SEED_FILE: &str = "C:/seed";

#[test]
fn random_syscall_arguments_never_panic_the_kernel() {
    check(
        "random_syscall_arguments_never_panic_the_kernel",
        Config::with_cases(24),
        |rng| {
            rng.vec_of(1, 24, |r| {
                // Half the calls go to the memory services (0x28..=0x2e),
                // a quarter to the section services (0x0b..=0x0e).
                let sysno = match r.range_u32(0, 4) {
                    0 | 1 => r.range_u32(0x28, 0x2f),
                    2 => r.range_u32(0x0b, 0x0f),
                    _ => r.range_u32(0, 0x60),
                };
                // A view takes a handle the kernel hands out (multiples of
                // four) and a base from the page-boundary and top pools.
                let (b, c) = if sysno == Sysno::NtMapViewOfSection as u32 {
                    (4 * r.range_u32(0, 4), view_base(r))
                } else {
                    (syscall_arg(r), syscall_arg(r))
                };
                (b, c, syscall_arg(r), syscall_arg(r), syscall_arg(r), sysno)
            })
        },
        |calls| {
            // A fixed prologue opens a section on the seed file, so small
            // handle values name a real file and section. Then the program
            // makes syscalls with entirely attacker-chosen registers, and
            // exits.
            let mut asm = Asm::new(IMAGE_BASE);
            let out = IMAGE_BASE + 0x1ff0;
            asm.mov_label(Reg::Ebx, "path");
            let path_len = SEED_FILE.len() as u32;
            syscall(&mut asm, Sysno::NtOpenFile as u32, &[(Reg::Ecx, path_len), (Reg::Edx, out)]);
            asm.ld4(Reg::Ebx, Mem::abs(out));
            syscall(&mut asm, Sysno::NtCreateSection as u32, &[(Reg::Ecx, out + 4)]);
            for &(b, c, d, si, di, sysno) in calls {
                let args =
                    [(Reg::Ebx, b), (Reg::Ecx, c), (Reg::Edx, d), (Reg::Esi, si), (Reg::Edi, di)];
                syscall(&mut asm, sysno, &args);
            }
            asm.hlt();
            asm.label("path");
            asm.raw(SEED_FILE.as_bytes());
            run_under_faros(&wrap_bytes(asm.assemble().expect("fuzz program assembles")));
            Ok(())
        },
    );
}

fn syscall(asm: &mut Asm, sysno: u32, args: &[(Reg, u32)]) {
    for &(reg, val) in args {
        asm.mov_ri(reg, val);
    }
    asm.mov_ri(Reg::Eax, sysno);
    asm.int_syscall();
}
