//! Driver-level tests: setup failures, budget exits, and the recording
//! metadata — exercised with a minimal inline scenario (no corpus needed).

use faros_emu::asm::Asm;
use faros_emu::isa::Reg;
use faros_emu::mmu::Perms;
use faros_kernel::event::Observer;
use faros_kernel::machine::{Machine, MachineConfig, MachineError, IMAGE_BASE};
use faros_kernel::module::{FdlImage, Section};
use faros_kernel::net::NetworkFabric;
use faros_kernel::nt::Sysno;
use faros_replay::{record, replay, Recording, ReplayError, Scenario};

/// A scenario that spins for `spins` iterations then prints and exits; with
/// `broken = true` it references a missing program to trigger setup errors.
struct Inline {
    spins: u32,
    broken: bool,
}

impl Scenario for Inline {
    fn name(&self) -> &str {
        "inline"
    }

    fn build(
        &self,
        fabric: NetworkFabric,
        obs: &mut dyn Observer,
    ) -> Result<Machine, MachineError> {
        let mut machine = Machine::with_fabric(MachineConfig::default(), fabric);
        let mut asm = Asm::new(IMAGE_BASE);
        asm.mov_ri(Reg::Ecx, self.spins);
        asm.label("spin");
        asm.sub_ri(Reg::Ecx, 1);
        asm.cmp_ri(Reg::Ecx, 0);
        asm.jnz("spin");
        asm.mov_label(Reg::Ebx, "msg");
        asm.mov_ri(Reg::Ecx, 4);
        asm.mov_ri(Reg::Eax, Sysno::NtDisplayString as u32);
        asm.int_syscall();
        asm.hlt();
        asm.label("msg");
        asm.raw(b"done");
        let mut code = asm.assemble().expect("assembles");
        code.resize(0x1000, 0);
        machine.install_program(
            "C:/inline.exe",
            &FdlImage {
                entry: IMAGE_BASE,
                export_table_va: IMAGE_BASE + 0x10_0000,
                sections: vec![Section { va: IMAGE_BASE, data: code, perms: Perms::RX }],
                exports: vec![],
            },
        )?;
        let path = if self.broken { "C:/missing.exe" } else { "C:/inline.exe" };
        machine.spawn_process(path, false, None, obs)?;
        Ok(machine)
    }
}

#[test]
fn record_reports_setup_failures() {
    let err = record(&Inline { spins: 1, broken: true }, 1_000).unwrap_err();
    assert!(matches!(err, ReplayError::Setup(_)), "{err}");
    assert!(err.to_string().contains("missing.exe"), "{err}");
}

#[test]
fn replay_reports_setup_failures_too() {
    let scenario = Inline { spins: 1, broken: false };
    let (recording, _) = record(&scenario, 100_000).unwrap();
    let broken = Inline { spins: 1, broken: true };
    let mut sink = faros_kernel::NullObserver;
    let err = replay(&broken, &recording, 100_000, &mut sink).unwrap_err();
    assert!(matches!(err, ReplayError::Setup(_)));
}

#[test]
fn recording_metadata_reflects_the_run() {
    let scenario = Inline { spins: 50, broken: false };
    let (recording, outcome) = record(&scenario, 1_000_000).unwrap();
    assert_eq!(recording.scenario, "inline");
    assert!(recording.clean_exit);
    assert!(recording.instructions > 50, "{}", recording.instructions);
    assert_eq!(recording.instructions, outcome.instructions);
    assert!(recording.net_log.events.is_empty(), "no network activity");
    assert!(outcome.phases.ns("record").is_some_and(|ns| ns > 0));
}

#[test]
fn budget_exhaustion_is_not_a_clean_exit() {
    let scenario = Inline { spins: 1_000_000, broken: false };
    let (recording, outcome) = record(&scenario, 5_000).unwrap();
    assert_eq!(outcome.exit, faros_kernel::RunExit::Budget);
    assert!(!recording.clean_exit);
}

#[test]
fn empty_recording_json_round_trip() {
    let scenario = Inline { spins: 1, broken: false };
    let (recording, _) = record(&scenario, 100_000).unwrap();
    let json = recording.to_json().unwrap();
    assert_eq!(Recording::from_json(&json).unwrap(), recording);
    assert!(Recording::from_json("not json").is_err());
}
