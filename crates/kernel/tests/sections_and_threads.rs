//! Coverage for section mapping, directory queries, multi-threading within
//! a process, and file metadata — the quieter corners of the syscall
//! surface.

use faros_emu::asm::Asm;
use faros_emu::isa::{Mem as M, Reg};
use faros_emu::mmu::Perms;
use faros_kernel::event::NullObserver;
use faros_kernel::machine::{Machine, MachineConfig, RunExit, IMAGE_BASE};
use faros_kernel::module::{FdlImage, Section};
use faros_kernel::nt::{NtStatus, Sysno};

const SCRATCH: u32 = IMAGE_BASE + 0x1000;

fn image(asm: Asm) -> FdlImage {
    let mut code = asm.assemble().unwrap();
    code.resize(0x2000, 0);
    FdlImage {
        entry: IMAGE_BASE,
        export_table_va: IMAGE_BASE + 0x10_0000,
        sections: vec![Section { va: IMAGE_BASE, data: code, perms: Perms::RWX }],
        exports: vec![],
    }
}

fn sys(asm: &mut Asm, sysno: Sysno, args: &[(Reg, u32)]) {
    for &(reg, val) in args {
        asm.mov_ri(reg, val);
    }
    asm.mov_ri(Reg::Eax, sysno as u32);
    asm.int_syscall();
}

fn run(asm: Asm, setup: impl FnOnce(&mut Machine)) -> Machine {
    let mut machine = Machine::new(MachineConfig::default());
    setup(&mut machine);
    machine.install_program("C:/t.exe", &image(asm)).unwrap();
    machine.spawn_process("C:/t.exe", false, None, &mut NullObserver).unwrap();
    assert_eq!(machine.run(5_000_000, &mut NullObserver), RunExit::AllExited);
    machine
}

#[test]
fn map_view_of_section_exposes_file_bytes() {
    let mut asm = Asm::new(IMAGE_BASE);
    // h = NtOpenFile("C:/blob"); section = NtCreateSection(h);
    asm.mov_label(Reg::Ebx, "path");
    sys(&mut asm, Sysno::NtOpenFile, &[(Reg::Ecx, 7), (Reg::Edx, SCRATCH)]);
    asm.ld4(Reg::Ebx, M::abs(SCRATCH));
    sys(&mut asm, Sysno::NtCreateSection, &[(Reg::Ecx, SCRATCH + 4)]);
    // NtMapViewOfSection(section, 0x0500_0000, R)
    asm.ld4(Reg::Ebx, M::abs(SCRATCH + 4));
    sys(
        &mut asm,
        Sysno::NtMapViewOfSection,
        &[(Reg::Ecx, 0x0500_0000), (Reg::Edx, 0b001)],
    );
    // Read the mapped bytes and print them.
    sys(
        &mut asm,
        Sysno::NtDisplayString,
        &[(Reg::Ebx, 0x0500_0000), (Reg::Ecx, 6)],
    );
    asm.hlt();
    asm.label("path");
    asm.raw(b"C:/blob");
    let machine = run(asm, |m| {
        m.fs.create("C:/blob", b"MAPPED".to_vec()).unwrap();
    });
    assert_eq!(machine.console()[0].1, "MAPPED");
    // The view is recorded as a Mapped VAD region (what malfind skips).
    let proc = machine.process_by_name("t.exe").unwrap();
    let region = proc.region_containing(0x0500_0000).unwrap();
    assert!(matches!(
        region.kind,
        faros_kernel::process::RegionKind::Mapped { ref path } if path == "C:/blob"
    ));
}

#[test]
fn query_directory_lists_matching_files() {
    let mut asm = Asm::new(IMAGE_BASE);
    asm.mov_label(Reg::Ebx, "prefix");
    sys(
        &mut asm,
        Sysno::NtQueryDirectoryFile,
        &[(Reg::Ecx, 8), (Reg::Edx, SCRATCH + 0x100), (Reg::Esi, 64)],
    );
    sys(
        &mut asm,
        Sysno::NtDisplayString,
        &[(Reg::Ebx, SCRATCH + 0x100), (Reg::Ecx, 27)],
    );
    asm.hlt();
    asm.label("prefix");
    asm.raw(b"C:/docs/");
    let machine = run(asm, |m| {
        m.fs.create("C:/docs/a.txt", vec![]).unwrap();
        m.fs.create("C:/docs/b.txt", vec![]).unwrap();
        m.fs.create("C:/other.txt", vec![]).unwrap();
    });
    assert_eq!(machine.console()[0].1, "C:/docs/a.txt\nC:/docs/b.txt");
}

#[test]
fn query_information_file_reports_size_and_version() {
    let mut asm = Asm::new(IMAGE_BASE);
    asm.mov_label(Reg::Ebx, "path");
    sys(&mut asm, Sysno::NtOpenFile, &[(Reg::Ecx, 7), (Reg::Edx, SCRATCH)]);
    asm.ld4(Reg::Ebx, M::abs(SCRATCH));
    sys(&mut asm, Sysno::NtQueryInformationFile, &[(Reg::Ecx, SCRATCH + 8)]);
    asm.hlt();
    asm.label("path");
    asm.raw(b"C:/info");
    let machine = run(asm, |m| {
        m.fs.create("C:/info", vec![7; 123]).unwrap();
        m.fs.write("C:/info", 0, &[1]).unwrap(); // version -> 2
    });
    let pid = machine.process_by_name("t.exe").unwrap().pid;
    let out = machine.read_guest(pid, SCRATCH + 8, 8).unwrap();
    assert_eq!(u32::from_le_bytes(out[..4].try_into().unwrap()), 123);
    assert_eq!(u32::from_le_bytes(out[4..].try_into().unwrap()), 2);
}

#[test]
fn two_threads_in_one_process_interleave() {
    // Main thread spawns a second thread in the SAME process via
    // NtCreateThreadEx(self); both loop printing, then exit.
    let mut asm = Asm::new(IMAGE_BASE);
    asm.mov_label(Reg::Ecx, "worker");
    asm.mov_ri(Reg::Ebx, 0xffff_ffff);
    asm.mov_ri(Reg::Edx, 0);
    asm.mov_ri(Reg::Esi, 0);
    asm.mov_ri(Reg::Edi, 0);
    asm.mov_ri(Reg::Eax, Sysno::NtCreateThreadEx as u32);
    asm.int_syscall();
    // Main prints M three times with sleeps.
    asm.mov_ri(Reg::Ebp, 3);
    asm.label("main_loop");
    asm.mov_label(Reg::Ebx, "m");
    asm.mov_ri(Reg::Ecx, 1);
    asm.mov_ri(Reg::Eax, Sysno::NtDisplayString as u32);
    asm.int_syscall();
    sys(&mut asm, Sysno::NtDelayExecution, &[(Reg::Ebx, 100)]);
    asm.sub_ri(Reg::Ebp, 1);
    asm.cmp_ri(Reg::Ebp, 0);
    asm.jnz("main_loop");
    asm.hlt();
    // Worker prints W twice.
    asm.label("worker");
    asm.mov_ri(Reg::Ebp, 2);
    asm.label("w_loop");
    asm.mov_label(Reg::Ebx, "w");
    asm.mov_ri(Reg::Ecx, 1);
    asm.mov_ri(Reg::Eax, Sysno::NtDisplayString as u32);
    asm.int_syscall();
    sys(&mut asm, Sysno::NtDelayExecution, &[(Reg::Ebx, 100)]);
    asm.sub_ri(Reg::Ebp, 1);
    asm.cmp_ri(Reg::Ebp, 0);
    asm.jnz("w_loop");
    asm.hlt();
    asm.label("m");
    asm.raw(b"M");
    asm.label("w");
    asm.raw(b"W");
    let machine = run(asm, |_| {});
    let line: String = machine.console().iter().map(|(_, s)| s.as_str()).collect();
    let ms = line.matches('M').count();
    let ws = line.matches('W').count();
    assert_eq!(ms, 3, "main printed three times: {line}");
    assert_eq!(ws, 2, "worker printed twice: {line}");
}

#[test]
fn query_virtual_memory_reports_vad_info() {
    let mut asm = Asm::new(IMAGE_BASE);
    // Allocate RW memory, then query it.
    sys(
        &mut asm,
        Sysno::NtAllocateVirtualMemory,
        &[(Reg::Ebx, 0xffff_ffff), (Reg::Ecx, 0x3000), (Reg::Edx, 0b011), (Reg::Esi, SCRATCH)],
    );
    asm.ld4(Reg::Ecx, M::abs(SCRATCH));
    asm.add_ri(Reg::Ecx, 0x100); // query an interior address
    sys(
        &mut asm,
        Sysno::NtQueryVirtualMemory,
        &[(Reg::Ebx, 0xffff_ffff), (Reg::Edx, SCRATCH + 0x10)],
    );
    // Also query the image region.
    sys(
        &mut asm,
        Sysno::NtQueryVirtualMemory,
        &[(Reg::Ebx, 0xffff_ffff), (Reg::Ecx, IMAGE_BASE + 4), (Reg::Edx, SCRATCH + 0x20)],
    );
    asm.hlt();
    let machine = run(asm, |_| {});
    let pid = machine.process_by_name("t.exe").unwrap().pid;
    let heap = machine.read_guest(pid, SCRATCH + 0x10, 16).unwrap();
    let words: Vec<u32> = heap.chunks(4).map(|c| u32::from_le_bytes(c.try_into().unwrap())).collect();
    assert_eq!(words[0], 0x0100_0000, "region base");
    assert_eq!(words[1], 0x3000, "region size");
    assert_eq!(words[2], 0b011, "RW perms bits");
    assert_eq!(words[3], 1, "kind: private");
    let image = machine.read_guest(pid, SCRATCH + 0x20, 16).unwrap();
    let words: Vec<u32> = image.chunks(4).map(|c| u32::from_le_bytes(c.try_into().unwrap())).collect();
    assert_eq!(words[0], IMAGE_BASE);
    assert_eq!(words[3], 0, "kind: image");
}

#[test]
fn query_information_process_reports_identity_and_parent() {
    // Parent spawns a child; the child reports its own info and queries the
    // parent handle it... keep simple: the parent queries itself and the child.
    let mut asm = Asm::new(IMAGE_BASE);
    sys(
        &mut asm,
        Sysno::NtQueryInformationProcess,
        &[(Reg::Ebx, 0xffff_ffff), (Reg::Ecx, SCRATCH)],
    );
    asm.mov_label(Reg::Ebx, "cpath");
    sys(
        &mut asm,
        Sysno::NtCreateUserProcess,
        &[(Reg::Ecx, 8), (Reg::Edx, 1), (Reg::Esi, SCRATCH + 0x20)],
    );
    asm.ld4(Reg::Ebx, M::abs(SCRATCH + 0x20));
    sys(&mut asm, Sysno::NtQueryInformationProcess, &[(Reg::Ecx, SCRATCH + 0x30)]);
    // Terminate the suspended child so the run ends.
    asm.ld4(Reg::Ebx, M::abs(SCRATCH + 0x20));
    sys(&mut asm, Sysno::NtTerminateProcess, &[(Reg::Ecx, 0)]);
    asm.hlt();
    asm.label("cpath");
    asm.raw(b"C:/c.exe");
    let mut child = Asm::new(IMAGE_BASE);
    child.hlt();
    let machine = run(asm, |m| {
        m.install_program("C:/c.exe", &image(child)).unwrap();
    });
    let parent = machine.process_by_name("t.exe").unwrap();
    let child_proc = machine.process_by_name("c.exe").unwrap();
    let own = machine.read_guest(parent.pid, SCRATCH, 12).unwrap();
    let words: Vec<u32> = own.chunks(4).map(|c| u32::from_le_bytes(c.try_into().unwrap())).collect();
    assert_eq!(words[0], parent.pid.0);
    assert_eq!(words[1], 0, "no parent");
    let child_info = machine.read_guest(parent.pid, SCRATCH + 0x30, 12).unwrap();
    let words: Vec<u32> =
        child_info.chunks(4).map(|c| u32::from_le_bytes(c.try_into().unwrap())).collect();
    assert_eq!(words[0], child_proc.pid.0);
    assert_eq!(words[1], parent.pid.0, "parent recorded");
    assert_eq!(words[2], 1, "alive at query time");
}

#[test]
fn query_system_time_is_monotonic() {
    let mut asm = Asm::new(IMAGE_BASE);
    sys(&mut asm, Sysno::NtQuerySystemTime, &[(Reg::Ebx, SCRATCH)]);
    sys(&mut asm, Sysno::NtDelayExecution, &[(Reg::Ebx, 500)]);
    sys(&mut asm, Sysno::NtQuerySystemTime, &[(Reg::Ebx, SCRATCH + 4)]);
    asm.hlt();
    let machine = run(asm, |_| {});
    let pid = machine.process_by_name("t.exe").unwrap().pid;
    let bytes = machine.read_guest(pid, SCRATCH, 8).unwrap();
    let t1 = u32::from_le_bytes(bytes[..4].try_into().unwrap());
    let t2 = u32::from_le_bytes(bytes[4..].try_into().unwrap());
    assert!(t2 >= t1 + 500, "sleep must advance virtual time: {t1} -> {t2}");
}

#[test]
fn two_processes_interleave_under_round_robin() {
    // Two CPU-bound processes must both make progress (no starvation).
    fn spinner(tag: &str) -> Asm {
        let mut asm = Asm::new(IMAGE_BASE);
        asm.mov_ri(Reg::Ebp, 3);
        asm.label("outer");
        // Burn more than one timeslice (default 200 instructions).
        asm.mov_ri(Reg::Ecx, 300);
        asm.label("burn");
        asm.sub_ri(Reg::Ecx, 1);
        asm.cmp_ri(Reg::Ecx, 0);
        asm.jnz("burn");
        asm.mov_label(Reg::Ebx, "tag");
        sys(&mut asm, Sysno::NtDisplayString, &[(Reg::Ecx, 1)]);
        asm.sub_ri(Reg::Ebp, 1);
        asm.cmp_ri(Reg::Ebp, 0);
        asm.jnz("outer");
        asm.hlt();
        asm.label("tag");
        asm.raw(tag.as_bytes());
        asm
    }
    let mut machine = Machine::new(MachineConfig::default());
    machine.install_program("C:/a.exe", &image(spinner("A"))).unwrap();
    machine.install_program("C:/b.exe", &image(spinner("B"))).unwrap();
    machine.spawn_process("C:/a.exe", false, None, &mut NullObserver).unwrap();
    machine.spawn_process("C:/b.exe", false, None, &mut NullObserver).unwrap();
    assert_eq!(machine.run(5_000_000, &mut NullObserver), RunExit::AllExited);
    let line: String = machine.console().iter().map(|(_, s)| s.as_str()).collect();
    assert_eq!(line.matches('A').count(), 3);
    assert_eq!(line.matches('B').count(), 3);
    // Interleaving: the output is not all-A-then-all-B.
    assert_ne!(line, "AAABBB");
    assert_ne!(line, "BBBAAA");
}

/// Opens `C:/blob`, maps it at `va` and stores the NTSTATUS at `SCRATCH + 8`.
fn map_blob_at(va: u32, blob: Vec<u8>) -> Machine {
    let mut asm = Asm::new(IMAGE_BASE);
    asm.mov_label(Reg::Ebx, "path");
    sys(&mut asm, Sysno::NtOpenFile, &[(Reg::Ecx, 7), (Reg::Edx, SCRATCH)]);
    asm.ld4(Reg::Ebx, M::abs(SCRATCH));
    sys(&mut asm, Sysno::NtCreateSection, &[(Reg::Ecx, SCRATCH + 4)]);
    asm.ld4(Reg::Ebx, M::abs(SCRATCH + 4));
    sys(&mut asm, Sysno::NtMapViewOfSection, &[(Reg::Ecx, va), (Reg::Edx, 0b011)]);
    asm.st4(M::abs(SCRATCH + 8), Reg::Eax);
    asm.hlt();
    asm.label("path");
    asm.raw(b"C:/blob");
    run(asm, |m| m.fs.create("C:/blob", blob).unwrap())
}

fn view_status(machine: &Machine) -> u32 {
    let pid = machine.process_by_name("t.exe").unwrap().pid;
    let out = machine.read_guest(pid, SCRATCH + 8, 4).unwrap();
    u32::from_le_bytes(out.try_into().unwrap())
}

#[test]
fn unaligned_view_base_is_rejected_before_mapping() {
    let machine = map_blob_at(0x0500_0123, b"MAPPED".to_vec());
    assert_eq!(view_status(&machine), NtStatus::InvalidParameter as u32);
    let proc = machine.process_by_name("t.exe").unwrap();
    assert!(proc.region_containing(0x0500_0123).is_none());
    assert!(proc.aspace.entry(0x0500_0000).is_none());
}

#[test]
fn view_past_the_top_of_the_address_space_maps_nothing() {
    // Three pages at 0xffff_e000 would need a page at 0x1_0000_0000.
    let machine = map_blob_at(0xffff_e000, vec![0xcc; 3 * 0x1000]);
    assert_eq!(view_status(&machine), NtStatus::InvalidParameter as u32);
    let proc = machine.process_by_name("t.exe").unwrap();
    for va in [0xffff_e000, 0xffff_f000, 0] {
        assert!(proc.aspace.entry(va).is_none(), "page {va:#x} was mapped");
    }
    assert!(proc.region_containing(0xffff_e000).is_none());
}
