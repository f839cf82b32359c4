//! Failure-injection tests for the syscall surface: bad handles, bad
//! pointers, refused connections, permission violations — the kernel must
//! degrade with precise NTSTATUS codes, never corrupt state, and never
//! panic, because malware exercises exactly these paths.

use faros_emu::asm::Asm;
use faros_emu::isa::{Mem as M, Reg};
use faros_emu::mmu::Perms;
use faros_kernel::event::{KernelEvents, NullObserver};
use faros_kernel::machine::{Machine, MachineConfig, RunExit, IMAGE_BASE, KERNEL_EXPORT_TABLE_VA};
use faros_kernel::module::{FdlImage, Section};
use faros_kernel::nt::{NtStatus, Sysno};
use faros_kernel::{Pid, Tid};
use faros_emu::cpu::CpuHooks;

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

/// Collects syscall exits so tests can assert on statuses.
#[derive(Default)]
struct StatusTrace(Vec<(Sysno, NtStatus)>);

impl CpuHooks for StatusTrace {}
impl KernelEvents for StatusTrace {
    fn syscall_exit(&mut self, _pid: Pid, _tid: Tid, sysno: Sysno, status: NtStatus) {
        self.0.push((sysno, status));
    }
}

fn run_and_trace(asm: Asm) -> (Machine, Vec<(Sysno, NtStatus)>) {
    let mut machine = Machine::new(MachineConfig::default());
    machine.install_program("C:/t.exe", &image(asm)).unwrap();
    let mut trace = StatusTrace::default();
    machine.spawn_process("C:/t.exe", false, None, &mut trace).unwrap();
    let exit = machine.run(5_000_000, &mut trace);
    assert_eq!(exit, RunExit::AllExited);
    (machine, trace.0)
}

fn sys(asm: &mut Asm, sysno: Sysno, args: &[(Reg, u32)]) {
    for &(reg, val) in args {
        asm.mov_ri(reg, val);
    }
    asm.mov_ri(Reg::Eax, sysno as u32);
    asm.int_syscall();
}

fn status_of(trace: &[(Sysno, NtStatus)], sysno: Sysno) -> NtStatus {
    trace
        .iter()
        .find(|(s, _)| *s == sysno)
        .unwrap_or_else(|| panic!("{sysno} not in trace"))
        .1
}

#[test]
fn invalid_handles_are_rejected_not_fatal() {
    let mut asm = Asm::new(IMAGE_BASE);
    sys(&mut asm, Sysno::NtReadFile, &[(Reg::Ebx, 0x998), (Reg::Ecx, SCRATCH), (Reg::Edx, 4), (Reg::Esi, 0)]);
    sys(&mut asm, Sysno::NtWriteFile, &[(Reg::Ebx, 0x998), (Reg::Ecx, SCRATCH), (Reg::Edx, 4), (Reg::Esi, 0)]);
    sys(&mut asm, Sysno::NtClose, &[(Reg::Ebx, 0x998)]);
    sys(&mut asm, Sysno::NtSocketSend, &[(Reg::Ebx, 0x998), (Reg::Ecx, SCRATCH), (Reg::Edx, 1), (Reg::Esi, 0)]);
    sys(&mut asm, Sysno::NtResumeThread, &[(Reg::Ebx, 0x998)]);
    asm.hlt();
    let (_machine, trace) = run_and_trace(asm);
    for sysno in [
        Sysno::NtReadFile,
        Sysno::NtWriteFile,
        Sysno::NtClose,
        Sysno::NtSocketSend,
        Sysno::NtResumeThread,
    ] {
        assert_eq!(status_of(&trace, sysno), NtStatus::InvalidHandle, "{sysno}");
    }
}

#[test]
fn bad_guest_pointers_return_access_violation() {
    let mut asm = Asm::new(IMAGE_BASE);
    // Create a real file handle first.
    asm.mov_label(Reg::Ebx, "path");
    sys(&mut asm, Sysno::NtCreateFile, &[(Reg::Ecx, 4), (Reg::Edx, 0), (Reg::Esi, SCRATCH)]);
    // Then read into an unmapped buffer.
    asm.ld4(Reg::Ebx, M::abs(SCRATCH));
    sys(&mut asm, Sysno::NtWriteFile, &[(Reg::Ecx, 0x7000_0000), (Reg::Edx, 16), (Reg::Esi, 0)]);
    // And pass a wild path pointer.
    sys(&mut asm, Sysno::NtOpenFile, &[(Reg::Ebx, 0x7000_0000), (Reg::Ecx, 8), (Reg::Edx, 0)]);
    asm.hlt();
    asm.label("path");
    asm.raw(b"C:/f");
    let (_machine, trace) = run_and_trace(asm);
    assert_eq!(status_of(&trace, Sysno::NtWriteFile), NtStatus::AccessViolation);
    assert_eq!(status_of(&trace, Sysno::NtOpenFile), NtStatus::AccessViolation);
}

#[test]
fn missing_files_and_processes_not_found() {
    let mut asm = Asm::new(IMAGE_BASE);
    asm.mov_label(Reg::Ebx, "path");
    sys(&mut asm, Sysno::NtOpenFile, &[(Reg::Ecx, 9), (Reg::Edx, 0)]);
    asm.mov_label(Reg::Ebx, "path");
    sys(&mut asm, Sysno::NtDeleteFile, &[(Reg::Ecx, 9)]);
    sys(&mut asm, Sysno::NtOpenProcess, &[(Reg::Ebx, 999), (Reg::Ecx, 0)]);
    asm.mov_label(Reg::Ebx, "path");
    sys(&mut asm, Sysno::NtCreateUserProcess, &[(Reg::Ecx, 9), (Reg::Edx, 0), (Reg::Esi, 0)]);
    asm.hlt();
    asm.label("path");
    asm.raw(b"C:/ghost!");
    let (_machine, trace) = run_and_trace(asm);
    assert_eq!(status_of(&trace, Sysno::NtOpenFile), NtStatus::ObjectNameNotFound);
    assert_eq!(status_of(&trace, Sysno::NtDeleteFile), NtStatus::ObjectNameNotFound);
    assert_eq!(status_of(&trace, Sysno::NtOpenProcess), NtStatus::ObjectNameNotFound);
    assert_eq!(
        status_of(&trace, Sysno::NtCreateUserProcess),
        NtStatus::ObjectNameNotFound
    );
}

#[test]
fn refused_connection_reports_connection_refused() {
    let mut asm = Asm::new(IMAGE_BASE);
    sys(&mut asm, Sysno::NtSocketCreate, &[(Reg::Ebx, SCRATCH)]);
    asm.ld4(Reg::Ebx, M::abs(SCRATCH));
    sys(
        &mut asm,
        Sysno::NtSocketConnect,
        &[(Reg::Ecx, u32::from_be_bytes([9, 9, 9, 9])), (Reg::Edx, 80)],
    );
    asm.hlt();
    let (_machine, trace) = run_and_trace(asm);
    assert_eq!(
        status_of(&trace, Sysno::NtSocketConnect),
        NtStatus::ConnectionRefused
    );
}

#[test]
fn unknown_syscall_number_returns_not_implemented() {
    let mut asm = Asm::new(IMAGE_BASE);
    asm.mov_ri(Reg::Eax, 0xdead);
    asm.int_syscall();
    // Status lands in EAX; stash it for inspection.
    asm.st4(M::abs(SCRATCH), Reg::Eax);
    asm.hlt();
    let (machine, _trace) = run_and_trace(asm);
    let pid = machine.process_by_name("t.exe").unwrap().pid;
    let got = machine.read_guest(pid, SCRATCH, 4).unwrap();
    assert_eq!(
        u32::from_le_bytes(got.try_into().unwrap()),
        NtStatus::NotImplemented as u32
    );
}

#[test]
fn protect_and_free_on_unmapped_regions_fail_cleanly() {
    let mut asm = Asm::new(IMAGE_BASE);
    sys(
        &mut asm,
        Sysno::NtProtectVirtualMemory,
        &[(Reg::Ebx, 0xffff_ffff), (Reg::Ecx, 0x5000_0000), (Reg::Edx, 0x1000), (Reg::Esi, 0b111)],
    );
    sys(
        &mut asm,
        Sysno::NtFreeVirtualMemory,
        &[(Reg::Ebx, 0xffff_ffff), (Reg::Ecx, 0x5000_0000)],
    );
    sys(
        &mut asm,
        Sysno::NtUnmapViewOfSection,
        &[(Reg::Ebx, 0xffff_ffff), (Reg::Ecx, 0x5000_0000)],
    );
    asm.hlt();
    let (_machine, trace) = run_and_trace(asm);
    assert_eq!(
        status_of(&trace, Sysno::NtProtectVirtualMemory),
        NtStatus::InvalidParameter
    );
    assert_eq!(status_of(&trace, Sysno::NtFreeVirtualMemory), NtStatus::InvalidParameter);
    assert_eq!(
        status_of(&trace, Sysno::NtUnmapViewOfSection),
        NtStatus::InvalidParameter
    );
}

#[test]
fn write_through_protect_transition_is_enforced() {
    // Alloc RW, write, protect to R, write again -> the second store
    // faults and kills the process (access violation exit code).
    let mut asm = Asm::new(IMAGE_BASE);
    sys(
        &mut asm,
        Sysno::NtAllocateVirtualMemory,
        &[(Reg::Ebx, 0xffff_ffff), (Reg::Ecx, 0x1000), (Reg::Edx, 0b011), (Reg::Esi, SCRATCH)],
    );
    asm.ld4(Reg::Ebx, M::abs(SCRATCH));
    asm.mov_ri(Reg::Ecx, 0x41);
    asm.st1(M::reg(Reg::Ebx), Reg::Ecx); // fine: RW
    // Protect to read-only.
    asm.ld4(Reg::Ecx, M::abs(SCRATCH));
    sys(
        &mut asm,
        Sysno::NtProtectVirtualMemory,
        &[(Reg::Ebx, 0xffff_ffff), (Reg::Edx, 0x1000), (Reg::Esi, 0b001)],
    );
    asm.ld4(Reg::Ebx, M::abs(SCRATCH));
    asm.mov_ri(Reg::Ecx, 0x42);
    asm.st1(M::reg(Reg::Ebx), Reg::Ecx); // faults
    asm.hlt();
    let mut machine = Machine::new(MachineConfig::default());
    machine.install_program("C:/t.exe", &image(asm)).unwrap();
    machine.spawn_process("C:/t.exe", false, None, &mut NullObserver).unwrap();
    assert_eq!(machine.run(5_000_000, &mut NullObserver), RunExit::AllExited);
    let proc = machine.process_by_name("t.exe").unwrap();
    assert_eq!(proc.exit_code, Some(0xC000_0005), "killed by access violation");
}

#[test]
fn suspend_resume_counts_nest() {
    // Suspend the current thread twice from a helper thread is overkill to
    // build in assembly; instead verify the nesting semantics through a
    // remote thread handle.
    let mut asm = Asm::new(IMAGE_BASE);
    // Spawn a sleeping child suspended, then resume it twice after a double
    // suspend: one resume must NOT be enough.
    asm.mov_label(Reg::Ebx, "vpath");
    sys(
        &mut asm,
        Sysno::NtCreateUserProcess,
        &[(Reg::Ecx, 8), (Reg::Edx, 1), (Reg::Esi, SCRATCH)],
    );
    // Thread handle at SCRATCH+4. Suspend once more (count -> 2).
    asm.ld4(Reg::Ebx, M::abs(SCRATCH + 4));
    sys(&mut asm, Sysno::NtSuspendThread, &[]);
    // Resume once (count -> 1): child must stay parked.
    asm.ld4(Reg::Ebx, M::abs(SCRATCH + 4));
    sys(&mut asm, Sysno::NtResumeThread, &[]);
    // Resume again (count -> 0): child finally runs and prints.
    asm.ld4(Reg::Ebx, M::abs(SCRATCH + 4));
    sys(&mut asm, Sysno::NtResumeThread, &[]);
    asm.hlt();
    asm.label("vpath");
    asm.raw(b"C:/c.exe");

    let mut child = Asm::new(IMAGE_BASE);
    child.mov_label(Reg::Ebx, "msg");
    sys(&mut child, Sysno::NtDisplayString, &[(Reg::Ecx, 5)]);
    child.hlt();
    child.label("msg");
    child.raw(b"child");

    let mut machine = Machine::new(MachineConfig::default());
    machine.install_program("C:/t.exe", &image(asm)).unwrap();
    machine.install_program("C:/c.exe", &image(child)).unwrap();
    machine.spawn_process("C:/t.exe", false, None, &mut NullObserver).unwrap();
    assert_eq!(machine.run(5_000_000, &mut NullObserver), RunExit::AllExited);
    assert_eq!(machine.console()[0].1, "child");
}

#[test]
fn deadlocked_machine_is_reported() {
    // A thread blocking forever on a socket with no data: run() must
    // return Deadlocked, not hang.
    let mut asm = Asm::new(IMAGE_BASE);
    sys(&mut asm, Sysno::NtSocketCreate, &[(Reg::Ebx, SCRATCH)]);
    // Recv on an unconnected socket is InvalidDeviceState; to block we need
    // a connected socket with no traffic — use an endpoint that never sends.
    asm.ld4(Reg::Ebx, M::abs(SCRATCH));
    sys(
        &mut asm,
        Sysno::NtSocketConnect,
        &[(Reg::Ecx, u32::from_be_bytes([10, 0, 0, 1])), (Reg::Edx, 1)],
    );
    asm.ld4(Reg::Ebx, M::abs(SCRATCH));
    sys(
        &mut asm,
        Sysno::NtSocketRecv,
        &[(Reg::Ecx, SCRATCH + 16), (Reg::Edx, 8), (Reg::Esi, 0)],
    );
    asm.hlt();

    struct Mute;
    impl faros_kernel::net::RemoteEndpoint for Mute {
        fn on_data(&mut self, _d: &[u8]) -> Vec<Vec<u8>> {
            Vec::new()
        }
    }
    let mut machine = Machine::new(MachineConfig::default());
    machine.net.add_endpoint([10, 0, 0, 1], 1, Box::new(Mute));
    machine.install_program("C:/t.exe", &image(asm)).unwrap();
    machine.spawn_process("C:/t.exe", false, None, &mut NullObserver).unwrap();
    // NetRecv counts as wakeable (data could still arrive), so the run ends
    // by budget, not by deadlock detection — but it must end.
    let exit = machine.run(500_000, &mut NullObserver);
    assert!(
        matches!(exit, RunExit::Budget | RunExit::Deadlocked),
        "blocked machine must not hang: {exit:?}"
    );
}

#[test]
fn instruction_budget_is_respected() {
    let mut asm = Asm::new(IMAGE_BASE);
    asm.label("spin");
    asm.add_ri(Reg::Eax, 1);
    asm.jmp("spin");
    let mut machine = Machine::new(MachineConfig::default());
    machine.install_program("C:/t.exe", &image(asm)).unwrap();
    machine.spawn_process("C:/t.exe", false, None, &mut NullObserver).unwrap();
    assert_eq!(machine.run(10_000, &mut NullObserver), RunExit::Budget);
}

#[test]
fn allocation_size_near_the_top_is_no_memory() {
    // 0xffff_f001 bytes round up to 2^32: no page count fits in the space.
    let mut asm = Asm::new(IMAGE_BASE);
    sys(
        &mut asm,
        Sysno::NtAllocateVirtualMemory,
        &[(Reg::Ebx, 0xffff_ffff), (Reg::Ecx, 0xffff_f001), (Reg::Edx, 0b011), (Reg::Esi, SCRATCH)],
    );
    asm.hlt();
    let (machine, trace) = run_and_trace(asm);
    assert_eq!(status_of(&trace, Sysno::NtAllocateVirtualMemory), NtStatus::NoMemory);
    let proc = machine.process_by_name("t.exe").unwrap();
    assert!(proc.region_containing(proc.next_alloc_va).is_none());
}

#[test]
fn allocations_that_run_past_the_top_fail_and_map_nothing() {
    // A 2 GiB request from the cursor overlaps the stack; a request whose
    // own size runs past 0xffff_ffff cannot fit at all. Neither moves the
    // allocation cursor, so a small request afterwards still lands at the
    // first allocation address.
    let mut asm = Asm::new(IMAGE_BASE);
    for size in [0x8000_0000, 0xff00_0000, 0x1000] {
        sys(
            &mut asm,
            Sysno::NtAllocateVirtualMemory,
            &[(Reg::Ebx, 0xffff_ffff), (Reg::Ecx, size), (Reg::Edx, 0b011), (Reg::Esi, SCRATCH)],
        );
    }
    asm.hlt();
    let (machine, trace) = run_and_trace(asm);
    let statuses: Vec<NtStatus> = trace
        .iter()
        .filter(|(s, _)| *s == Sysno::NtAllocateVirtualMemory)
        .map(|&(_, status)| status)
        .collect();
    assert_eq!(statuses, [NtStatus::ConflictingAddresses, NtStatus::NoMemory, NtStatus::Success]);
    let pid = machine.process_by_name("t.exe").unwrap().pid;
    let base = u32::from_le_bytes(machine.read_guest(pid, SCRATCH, 4).unwrap().try_into().unwrap());
    assert_eq!(base, 0x0100_0000, "a refused request moved the allocation cursor");
    let proc = machine.process(pid).unwrap();
    assert_eq!(proc.region_containing(base).map(|r| r.size), Some(0x1000));
    assert!(proc.aspace.entry(0x0100_1000).is_none(), "a refused request left pages");
}

#[test]
fn allocation_beyond_guest_memory_maps_nothing() {
    // 32 MiB fits the address space but not the 16 MiB of guest memory.
    let mut asm = Asm::new(IMAGE_BASE);
    sys(
        &mut asm,
        Sysno::NtAllocateVirtualMemory,
        &[(Reg::Ebx, 0xffff_ffff), (Reg::Ecx, 0x0200_0000), (Reg::Edx, 0b011), (Reg::Esi, SCRATCH)],
    );
    asm.hlt();
    let (machine, trace) = run_and_trace(asm);
    assert_eq!(status_of(&trace, Sysno::NtAllocateVirtualMemory), NtStatus::NoMemory);
    let proc = machine.process_by_name("t.exe").unwrap();
    assert!(proc.aspace.entry(0x0100_0000).is_none(), "the failed request left pages");
}

#[test]
fn an_unaligned_protect_covers_every_page_it_touches() {
    // 0x20 bytes from 0x0100_0ff0 straddle the two pages of a fresh RW
    // allocation: both become RX. A range that runs past 0xffff_ffff is
    // refused and changes nothing.
    let mut asm = Asm::new(IMAGE_BASE);
    sys(
        &mut asm,
        Sysno::NtAllocateVirtualMemory,
        &[(Reg::Ebx, 0xffff_ffff), (Reg::Ecx, 0x2000), (Reg::Edx, 0b011), (Reg::Esi, SCRATCH)],
    );
    for (va, size) in [(0x0100_0ff0, 0x20), (0x0100_0ff0, 0xffff_f010)] {
        sys(
            &mut asm,
            Sysno::NtProtectVirtualMemory,
            &[(Reg::Ebx, 0xffff_ffff), (Reg::Ecx, va), (Reg::Edx, size), (Reg::Esi, 0b101)],
        );
    }
    asm.hlt();
    let (machine, trace) = run_and_trace(asm);
    let statuses: Vec<NtStatus> = trace
        .iter()
        .filter(|(s, _)| *s == Sysno::NtProtectVirtualMemory)
        .map(|&(_, status)| status)
        .collect();
    assert_eq!(statuses, [NtStatus::Success, NtStatus::InvalidParameter]);
    let proc = machine.process_by_name("t.exe").unwrap();
    for page in [0x0100_0000, 0x0100_1000] {
        assert_eq!(proc.aspace.entry(page).unwrap().perms, Perms::RX, "page {page:#x}");
    }
}

#[test]
fn a_process_cannot_make_the_shared_export_table_writable() {
    // Every address space maps the same export-table frames. A protect of
    // them is refused, so the store that follows faults and a process
    // spawned afterwards still reads the original bytes.
    let target = KERNEL_EXPORT_TABLE_VA + 0x40;
    let mut asm = Asm::new(IMAGE_BASE);
    sys(
        &mut asm,
        Sysno::NtProtectVirtualMemory,
        &[(Reg::Ebx, 0xffff_ffff), (Reg::Ecx, KERNEL_EXPORT_TABLE_VA), (Reg::Edx, 0x1000), (Reg::Esi, 0b011)],
    );
    asm.mov_ri(Reg::Ebx, target);
    asm.mov_ri(Reg::Ecx, 0x4141_4141);
    asm.st4(M::reg(Reg::Ebx), Reg::Ecx);
    asm.hlt();
    let mut machine = Machine::new(MachineConfig::default());
    machine.install_program("C:/t.exe", &image(asm)).unwrap();
    machine.install_program("C:/later.exe", &image(Asm::new(IMAGE_BASE))).unwrap();
    let mut trace = StatusTrace::default();
    let pid = machine.spawn_process("C:/t.exe", false, None, &mut trace).unwrap();
    let original = machine.read_guest(pid, target, 4).unwrap();
    assert_eq!(machine.run(5_000_000, &mut trace), RunExit::AllExited);
    assert_eq!(status_of(&trace.0, Sysno::NtProtectVirtualMemory), NtStatus::InvalidParameter);
    assert_eq!(machine.process(pid).unwrap().exit_code, Some(0xC000_0005), "the store faults");
    let later = machine.spawn_process("C:/later.exe", true, None, &mut NullObserver).unwrap();
    assert_eq!(machine.read_guest(later, target, 4).unwrap(), original);
}

/// Runs `asm` with `C:/blob` (two pages) in the file system; `asm` may
/// open it through the label `path`.
fn run_with_blob(mut asm: Asm) -> (Machine, Vec<(Sysno, NtStatus)>) {
    asm.hlt();
    asm.label("path");
    asm.raw(b"C:/blob");
    let mut machine = Machine::new(MachineConfig::default());
    machine.install_program("C:/t.exe", &image(asm)).unwrap();
    machine.fs.create("C:/blob", vec![0xcc; 0x2000]).unwrap();
    let mut trace = StatusTrace::default();
    machine.spawn_process("C:/t.exe", false, None, &mut trace).unwrap();
    assert_eq!(machine.run(5_000_000, &mut trace), RunExit::AllExited);
    (machine, trace.0)
}

/// Opens `C:/blob` as a section; its handle is left at `SCRATCH + 4`.
fn open_blob_section(asm: &mut Asm) {
    asm.mov_label(Reg::Ebx, "path");
    sys(asm, Sysno::NtOpenFile, &[(Reg::Ecx, 7), (Reg::Edx, SCRATCH)]);
    asm.ld4(Reg::Ebx, M::abs(SCRATCH));
    sys(asm, Sysno::NtCreateSection, &[(Reg::Ecx, SCRATCH + 4)]);
}

fn statuses_of(trace: &[(Sysno, NtStatus)], sysno: Sysno) -> Vec<NtStatus> {
    trace.iter().filter(|(s, _)| *s == sysno).map(|&(_, status)| status).collect()
}

#[test]
fn a_view_reaching_the_kernel_half_is_refused_and_maps_nothing() {
    // 0xffff_f000 is a free page of the shared kernel half; a two-page
    // view at 0x7fff_f000 would run into it. The view at 0x7fff_e000
    // ends exactly at the kernel half and is mapped.
    let mut asm = Asm::new(IMAGE_BASE);
    open_blob_section(&mut asm);
    for va in [0xffff_f000, 0x7fff_f000, 0x7fff_e000] {
        asm.ld4(Reg::Ebx, M::abs(SCRATCH + 4));
        sys(&mut asm, Sysno::NtMapViewOfSection, &[(Reg::Ecx, va), (Reg::Edx, 0b011)]);
    }
    let (machine, trace) = run_with_blob(asm);
    assert_eq!(
        statuses_of(&trace, Sysno::NtMapViewOfSection),
        [NtStatus::InvalidParameter, NtStatus::InvalidParameter, NtStatus::Success]
    );
    let proc = machine.process_by_name("t.exe").unwrap();
    assert!(proc.region_containing(0xffff_f000).is_none());
    assert!(proc.aspace.entry(0xffff_f000).is_none(), "the refused view left a page");
    assert_eq!(proc.region_containing(0x7fff_e000).map(|r| (r.base, r.size)), Some((0x7fff_e000, 0x2000)));
}

#[test]
fn free_and_unmap_view_release_only_their_own_kind_of_region() {
    // A private allocation (the first lands at 0x0100_0000) and a view.
    // Each call on the other's region is refused and unmaps nothing; each
    // on its own kind succeeds.
    let private = 0x0100_0000;
    let view = 0x0500_0000;
    let this = 0xffff_ffff;
    let mut asm = Asm::new(IMAGE_BASE);
    sys(
        &mut asm,
        Sysno::NtAllocateVirtualMemory,
        &[(Reg::Ebx, this), (Reg::Ecx, 0x1000), (Reg::Edx, 0b011), (Reg::Esi, SCRATCH + 8)],
    );
    open_blob_section(&mut asm);
    asm.ld4(Reg::Ebx, M::abs(SCRATCH + 4));
    sys(&mut asm, Sysno::NtMapViewOfSection, &[(Reg::Ecx, view), (Reg::Edx, 0b011)]);
    sys(&mut asm, Sysno::NtFreeVirtualMemory, &[(Reg::Ebx, this), (Reg::Ecx, view)]);
    sys(&mut asm, Sysno::NtUnmapViewOfSection, &[(Reg::Ebx, this), (Reg::Ecx, private)]);
    asm.mov_ri(Reg::Ebp, 0); // both regions are still mapped here
    asm.ld4(Reg::Ecx, M::abs(private));
    asm.ld4(Reg::Ecx, M::abs(view));
    sys(&mut asm, Sysno::NtFreeVirtualMemory, &[(Reg::Ebx, this), (Reg::Ecx, private)]);
    sys(&mut asm, Sysno::NtUnmapViewOfSection, &[(Reg::Ebx, this), (Reg::Ecx, view)]);
    let (machine, trace) = run_with_blob(asm);
    assert_eq!(status_of(&trace, Sysno::NtAllocateVirtualMemory), NtStatus::Success);
    assert_eq!(status_of(&trace, Sysno::NtMapViewOfSection), NtStatus::Success);
    assert_eq!(
        statuses_of(&trace, Sysno::NtFreeVirtualMemory),
        [NtStatus::InvalidParameter, NtStatus::Success]
    );
    assert_eq!(
        statuses_of(&trace, Sysno::NtUnmapViewOfSection),
        [NtStatus::InvalidParameter, NtStatus::Success]
    );
    let proc = machine.process_by_name("t.exe").unwrap();
    assert_eq!(proc.exit_code, Some(0), "the loads between the calls read mapped memory");
    for va in [private, view] {
        assert!(proc.region_containing(va).is_none() && proc.aspace.entry(va).is_none());
    }
}
