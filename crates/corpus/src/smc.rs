//! Benign self-modifying code — the translation cache's worst customer.
//!
//! A tiny patch-loop program in the style of a template JIT's inline-cache
//! rewriting: it instantiates a clean routine (`mov eax, imm; ret`) from
//! its own image into an RWX buffer, then repeatedly *patches the
//! immediate in place* and re-calls the routine, checking after every call
//! that it observed the freshly patched value. Every bit of code involved
//! comes from the program's own image — no network, no cross-process
//! writes — so FAROS must stay silent; but every patch lands in a block
//! the decode-once translation cache has already cached, so the cache must
//! invalidate and rebuild on each iteration or the guest computes a stale
//! sum and the reports diverge between execution modes.
//!
//! `tests/smc_invalidation.rs` runs this sample under both
//! [`faros_kernel::machine::ExecMode`]s and requires byte-identical
//! reports plus a non-zero `tc.invalidations` count.

use crate::builder::{exit_process, finish_image, print_label, sys, SCRATCH};
use crate::scenario::{Behavior, Category, Sample, SampleScenario};
use faros_emu::asm::Asm;
use faros_emu::isa::{Mem as M, Reg};
use faros_kernel::machine::IMAGE_BASE;
use faros_kernel::nt::Sysno;

/// Where the patchable routine lives (RWX allocation).
const SMC_BUF: u32 = 0x0100_0000;

/// Patch iterations (also the number of forced cache invalidations).
const ROUNDS: u32 = 8;

/// The patchable routine: `mov eax, 7; ret`. `mov_ri` encodes its 32-bit
/// immediate at byte offset 2, which is where the patch loop writes.
const IMM_OFFSET: u32 = 2;

fn routine() -> Vec<u8> {
    let mut asm = Asm::new(SMC_BUF);
    asm.mov_ri(Reg::Eax, 7);
    asm.ret();
    asm.assemble().expect("smc routine assembles")
}

/// The benign self-modifying-code sample (`smc_patch_loop`).
///
/// Console output is `smc-ok` exactly when every call observed the value
/// patched immediately before it — i.e. when stale cached code never ran.
pub fn smc_patch_loop() -> Sample {
    let template = routine();
    let tlen = template.len() as u32;

    let mut asm = Asm::new(IMAGE_BASE);
    // RWX buffer for the routine (base address returned at SCRATCH + 8,
    // but the program uses the fixed first-allocation address).
    sys(
        &mut asm,
        Sysno::NtAllocateVirtualMemory,
        &[
            (Reg::Ebx, 0xffff_ffff),
            (Reg::Ecx, 0x1000),
            (Reg::Edx, 0b111),
            (Reg::Esi, SCRATCH + 8),
        ],
    );
    // Instantiate the clean template: memcpy(SMC_BUF, template, tlen).
    asm.mov_label(Reg::Esi, "template");
    asm.mov_ri(Reg::Edi, SMC_BUF);
    asm.mov_ri(Reg::Ecx, tlen);
    asm.label("inst_copy");
    asm.cmp_ri(Reg::Ecx, 0);
    asm.jz("inst_done");
    asm.ld1(Reg::Edx, M::reg(Reg::Esi));
    asm.st1(M::reg(Reg::Edi), Reg::Edx);
    asm.add_ri(Reg::Esi, 1);
    asm.add_ri(Reg::Edi, 1);
    asm.sub_ri(Reg::Ecx, 1);
    asm.jmp("inst_copy");
    asm.label("inst_done");

    // First call executes the unpatched template: expect 7.
    asm.mov_ri(Reg::Ebp, SMC_BUF);
    asm.call_reg(Reg::Ebp);
    asm.cmp_ri(Reg::Eax, 7);
    asm.jnz("fail");

    // Patch loop: for i in 1..=ROUNDS, overwrite the immediate of the
    // already-executed (and therefore already-cached) routine, re-call it,
    // and demand the fresh value back. EDI accumulates the sum.
    asm.mov_ri(Reg::Edi, 0);
    asm.mov_ri(Reg::Esi, 1);
    asm.label("patch_loop");
    asm.cmp_ri(Reg::Esi, ROUNDS + 1);
    asm.jz("patch_done");
    asm.st4(M::abs(SMC_BUF + IMM_OFFSET), Reg::Esi); // the self-modification
    asm.call_reg(Reg::Ebp);
    asm.cmp_rr(Reg::Eax, Reg::Esi);
    asm.jnz("fail"); // stale cached code ran
    asm.add_rr(Reg::Edi, Reg::Eax);
    asm.add_ri(Reg::Esi, 1);
    asm.jmp("patch_loop");
    asm.label("patch_done");

    // Sum of 1..=ROUNDS.
    asm.cmp_ri(Reg::Edi, ROUNDS * (ROUNDS + 1) / 2);
    asm.jnz("fail");
    print_label(&mut asm, "ok", 6);
    exit_process(&mut asm, 0);
    asm.label("fail");
    print_label(&mut asm, "bad", 7);
    exit_process(&mut asm, 1);
    asm.label("ok");
    asm.raw(b"smc-ok");
    asm.label("bad");
    asm.raw(b"smc-bad");
    asm.label("template");
    asm.raw(&template);

    let scenario = SampleScenario::new("smc_patch_loop")
        .program("C:/smcbench.exe", finish_image(asm))
        .autostart("C:/smcbench.exe");
    Sample {
        scenario,
        category: Category::Benign,
        behaviors: vec![Behavior::Run],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faros_kernel::event::NullObserver;
    use faros_kernel::machine::RunExit;
    use faros_kernel::net::NetworkFabric;
    use faros_replay::Scenario as _;

    #[test]
    fn patch_loop_sees_every_patched_value() {
        let sample = smc_patch_loop();
        let fabric = NetworkFabric::new_live(sample.scenario.guest_ip());
        let mut machine = sample.scenario.build(fabric, &mut NullObserver).unwrap();
        let exit = machine.run(20_000_000, &mut NullObserver);
        assert_eq!(exit, RunExit::AllExited);
        assert!(
            machine.console().iter().any(|(_, s)| s == "smc-ok"),
            "stale cached code ran: console = {:?}",
            machine.console()
        );
        let tc = machine.tc_stats();
        assert!(
            tc.invalidations >= u64::from(ROUNDS),
            "each patch must invalidate the cached routine: {tc:?}"
        );
        assert!(tc.hits > 0, "the patch loop itself must be served from cache: {tc:?}");
    }
}
