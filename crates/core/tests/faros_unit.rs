//! Unit tests of the FAROS plugin's tag-insertion and flagging mechanics,
//! driven by synthetic events (no machine needed): each rule of §V-A in
//! isolation.

use faros::{DetectionKind, Faros, Policy};
use faros_emu::cpu::{CpuHooks, InsnCtx};
use faros_emu::isa::{Instr, Mem, Reg, Width};
use faros_emu::mmu::Asid;
use faros_kernel::event::{ByteRange, CopyRun, KernelEvents};
use faros_kernel::module::{Export, ModuleInfo, EXPORT_ENTRY_SIZE};
use faros_kernel::net::FlowTuple;
use faros_kernel::process::ProcessInfo;
use faros_kernel::{Pid, Tid};
use faros_taint::shadow::ShadowAddr;
use faros_taint::tag::TagKind;

const FLOW: FlowTuple = FlowTuple {
    src_ip: [169, 254, 26, 161],
    src_port: 4444,
    dst_ip: [169, 254, 57, 168],
    dst_port: 49162,
};

fn proc_info(pid: u32, cr3: u32, name: &str) -> ProcessInfo {
    ProcessInfo { pid: Pid(pid), cr3, name: name.to_string(), parent: None }
}

fn ctx_at(vaddr: u32, code_phys_start: u32, len: u8, asid: u32, instr: Instr) -> InsnCtx {
    let mut code_phys = [0u32; faros_emu::encode::MAX_INSTR_LEN];
    for (i, slot) in code_phys.iter_mut().enumerate() {
        *slot = code_phys_start + i as u32;
    }
    InsnCtx { vaddr, code_phys, len, instr, asid: Asid(asid), retired: 0 }
}

fn load_instr() -> Instr {
    Instr::Load { dst: Reg::Eax, mem: Mem::base_disp(Reg::Esi, 28), width: Width::B4 }
}

/// The translated per-byte physical run of a contiguous 4-byte read.
fn run4(phys: u32) -> [u32; 4] {
    [phys, phys + 1, phys + 2, phys + 3]
}

#[test]
fn net_rx_labels_netflow_then_process() {
    let mut faros = Faros::new(Policy::paper());
    faros.process_created(&proc_info(1, 0x2000, "client.exe"));
    faros.net_rx(Pid(1), &FLOW, &[ByteRange { phys: 0x100, len: 4 }]);
    let tags = faros.engine().prov_tags(ShadowAddr::Mem(0x100));
    assert_eq!(tags.len(), 2);
    assert_eq!(tags[0].kind(), TagKind::Netflow);
    assert_eq!(tags[1].kind(), TagKind::Process);
    let rendered = faros.engine().display_list(faros.engine().prov_id(ShadowAddr::Mem(0x102)));
    assert!(rendered.starts_with("NetFlow:"));
    assert!(rendered.ends_with("Process: client.exe"));
}

#[test]
fn net_rx_replaces_stale_provenance() {
    let mut faros = Faros::new(Policy::paper());
    faros.process_created(&proc_info(1, 0x2000, "client.exe"));
    faros.file_read(Pid(1), "C:/old.bin", 1, &[ByteRange { phys: 0x100, len: 4 }]);
    faros.net_rx(Pid(1), &FLOW, &[ByteRange { phys: 0x100, len: 4 }]);
    let id = faros.engine().prov_id(ShadowAddr::Mem(0x100));
    assert!(
        !faros.engine().interner().contains_kind(id, TagKind::File),
        "fresh network bytes overwrite stale file provenance"
    );
}

#[test]
fn file_write_appends_file_tag_to_buffer() {
    let mut faros = Faros::new(Policy::paper());
    faros.process_created(&proc_info(1, 0x2000, "client.exe"));
    faros.net_rx(Pid(1), &FLOW, &[ByteRange { phys: 0x100, len: 2 }]);
    faros.file_write(Pid(1), "C:/drop.bin", 2, &[ByteRange { phys: 0x100, len: 2 }]);
    let id = faros.engine().prov_id(ShadowAddr::Mem(0x101));
    assert!(faros.engine().interner().contains_kind(id, TagKind::Netflow));
    assert!(faros.engine().interner().contains_kind(id, TagKind::File));
}

#[test]
fn kernel_write_clears_shadow() {
    let mut faros = Faros::new(Policy::paper());
    faros.process_created(&proc_info(1, 0x2000, "client.exe"));
    faros.net_rx(Pid(1), &FLOW, &[ByteRange { phys: 0x100, len: 300 }]);
    assert_eq!(faros.engine().shadow().tainted_mem_bytes(), 300);
    faros.kernel_write(Pid(1), &[ByteRange { phys: 0x100, len: 300 }]);
    assert_eq!(faros.engine().shadow().tainted_mem_bytes(), 0);
}

#[test]
fn guest_copy_builds_the_cross_process_chronology() {
    let mut faros = Faros::new(Policy::paper());
    faros.process_created(&proc_info(1, 0x2000, "inject_client.exe"));
    faros.process_created(&proc_info(2, 0x3000, "notepad.exe"));
    faros.net_rx(Pid(1), &FLOW, &[ByteRange { phys: 0x100, len: 4 }]);
    faros.guest_copy(
        Pid(1),
        Pid(2),
        &[CopyRun { dst_phys: 0x900, src_phys: 0x100, len: 4 }],
    );
    let rendered = faros.engine().display_list(faros.engine().prov_id(ShadowAddr::Mem(0x900)));
    assert_eq!(
        rendered,
        "NetFlow: {src ip,port: 169.254.26.161:4444, dest ip,port: 169.254.57.168:49162} \
         ->Process: inject_client.exe ->Process: notepad.exe"
    );
}

#[test]
fn guest_copy_of_untainted_bytes_stays_untainted() {
    let mut faros = Faros::new(Policy::paper());
    faros.process_created(&proc_info(1, 0x2000, "a.exe"));
    faros.process_created(&proc_info(2, 0x3000, "b.exe"));
    faros.guest_copy(
        Pid(1),
        Pid(2),
        &[CopyRun { dst_phys: 0x900, src_phys: 0x100, len: 16 }],
    );
    assert_eq!(
        faros.engine().shadow().tainted_mem_bytes(),
        0,
        "FAROS tracks provenance only for tainted bytes"
    );
}

fn fake_module(table_phys: u32, exports: &[&str]) -> (ModuleInfo, Vec<ByteRange>) {
    let module = ModuleInfo {
        name: "ntdll.fdl".to_string(),
        base: 0x8000_0000,
        entry: 0,
        export_table_va: 0x8001_0000,
        exports: exports
            .iter()
            .enumerate()
            .map(|(i, name)| Export { name: (*name).to_string(), va: 0x8000_0100 + i as u32 * 16 })
            .collect(),
    };
    let len = 4 + exports.len() as u32 * EXPORT_ENTRY_SIZE;
    (module, vec![ByteRange { phys: table_phys, len }])
}

#[test]
fn module_load_taints_only_pointer_fields() {
    let mut faros = Faros::new(Policy::paper());
    let (module, ranges) = fake_module(0x5000, &["VirtualAlloc", "WriteFile"]);
    faros.module_loaded(None, &module, &ranges);
    // Pointer field of entry 0: offset 4 + 28.
    let ptr0 = 0x5000 + 4 + 28;
    for b in 0..4 {
        assert!(faros.engine().has_kind(ShadowAddr::Mem(ptr0 + b), TagKind::ExportTable));
    }
    // Name/hash fields are untainted.
    assert!(!faros.engine().has_kind(ShadowAddr::Mem(0x5000 + 4), TagKind::ExportTable));
    assert!(!faros.engine().has_kind(ShadowAddr::Mem(0x5000 + 4 + 24), TagKind::ExportTable));
    // Named tag renders the function identity.
    let rendered = faros
        .engine()
        .display_list(faros.engine().prov_id(ShadowAddr::Mem(ptr0)));
    assert_eq!(rendered, "Export Table (ntdll.fdl!VirtualAlloc)");
}

/// The kernel module's export names are interned once per process and
/// shared by later engines; a first module with other names, or the same
/// names in another order, must still get its own.
#[test]
fn every_engine_names_its_first_modules_exports() {
    let modules: [&[&str]; 3] = [
        &["VirtualAlloc", "WriteFile"],
        &["WriteFile", "VirtualAlloc", "Sleep"],
        &["VirtualAlloc", "WriteFile"],
    ];
    for exports in modules {
        let mut faros = Faros::new(Policy::paper());
        let (module, ranges) = fake_module(0x5000, exports);
        faros.module_loaded(None, &module, &ranges);
        for (i, name) in exports.iter().enumerate() {
            let ptr = 0x5000 + 4 + i as u32 * EXPORT_ENTRY_SIZE + 28;
            let id = faros.engine().prov_id(ShadowAddr::Mem(ptr));
            assert_eq!(faros.engine().display_list(id), format!("Export Table (ntdll.fdl!{name})"));
        }
    }
}

#[test]
fn confluence_fires_only_with_both_halves() {
    let mut faros = Faros::new(Policy::paper());
    faros.process_created(&proc_info(1, 0x2000, "inject_client.exe"));
    faros.process_created(&proc_info(2, 0x3000, "notepad.exe"));
    let (module, ranges) = fake_module(0x5000, &["VirtualAlloc"]);
    faros.module_loaded(None, &module, &ranges);
    let ptr_phys = 0x5000 + 4 + 28;

    // Inject: netflow bytes land in P1 then get copied into P2's code page.
    faros.net_rx(Pid(1), &FLOW, &[ByteRange { phys: 0x100, len: 16 }]);
    faros.guest_copy(
        Pid(1),
        Pid(2),
        &[CopyRun { dst_phys: 0x900, src_phys: 0x100, len: 16 }],
    );

    // 1. Foreign code reading a non-export address: silent.
    let ctx = ctx_at(0x0100_0000, 0x900, 8, 0x3000, load_instr());
    faros.on_insn(&ctx);
    faros.on_load(&ctx, 0x4000_0000, &run4(0x7777), Width::B4, Reg::Eax);
    assert!(!faros.report().attack_flagged());

    // 2. Clean code reading the export table: silent.
    let clean_ctx = ctx_at(0x0040_0000, 0x4000, 8, 0x3000, load_instr());
    faros.on_insn(&clean_ctx);
    faros.on_load(&clean_ctx, 0x8001_0020, &run4(ptr_phys), Width::B4, Reg::Eax);
    assert!(!faros.report().attack_flagged());

    // 3. Foreign code reading the export table: flagged.
    faros.on_insn(&ctx);
    faros.on_load(&ctx, 0x8001_0020, &run4(ptr_phys), Width::B4, Reg::Eax);
    let report = faros.report();
    assert!(report.attack_flagged());
    let d = &report.detections[0];
    assert_eq!(d.kind, DetectionKind::ExportTableRead);
    assert_eq!(d.process, "notepad.exe");
    assert!(d.via_netflow && d.via_cross_process);

    // 4. Same instruction again: deduplicated.
    faros.on_insn(&ctx);
    faros.on_load(&ctx, 0x8001_0020, &run4(ptr_phys), Width::B4, Reg::Eax);
    assert_eq!(faros.report().detections.len(), 1);
}

#[test]
fn two_processes_flagged_at_one_va_are_both_reported() {
    // Every corpus program is linked at the same base, so two processes
    // running injected code can trip the confluence at one VA. Each
    // process gets its own detection; only a repeat within one process is
    // deduplicated.
    let mut faros = Faros::new(Policy::paper());
    faros.process_created(&proc_info(1, 0x2000, "a.exe"));
    faros.process_created(&proc_info(2, 0x3000, "b.exe"));
    let (module, ranges) = fake_module(0x5000, &["VirtualAlloc"]);
    faros.module_loaded(None, &module, &ranges);
    let ptr_phys = 0x5000 + 4 + 28;
    faros.net_rx(Pid(1), &FLOW, &[ByteRange { phys: 0x100, len: 16 }]);
    faros.net_rx(Pid(2), &FLOW, &[ByteRange { phys: 0x900, len: 16 }]);

    for (cr3, code_phys) in [(0x2000, 0x100), (0x3000, 0x900), (0x3000, 0x900)] {
        let ctx = ctx_at(0x0100_0000, code_phys, 8, cr3, load_instr());
        faros.on_insn(&ctx);
        faros.on_load(&ctx, 0x8001_0020, &run4(ptr_phys), Width::B4, Reg::Eax);
    }
    let report = faros.report();
    let flagged: Vec<(&str, u32, u32)> =
        report.detections.iter().map(|d| (d.process.as_str(), d.cr3, d.insn_vaddr)).collect();
    assert_eq!(flagged, [("a.exe", 0x2000, 0x0100_0000), ("b.exe", 0x3000, 0x0100_0000)]);
}

#[test]
fn context_switch_isolates_register_shadows() {
    let mut faros = Faros::new(Policy::paper());
    faros.process_created(&proc_info(1, 0x2000, "a.exe"));
    faros.process_created(&proc_info(2, 0x3000, "b.exe"));
    faros.net_rx(Pid(1), &FLOW, &[ByteRange { phys: 0x100, len: 4 }]);

    faros.context_switch(None, (Pid(1), Tid(1)));
    // Thread 1 loads a tainted byte into EAX.
    faros.flow_load(Reg::Eax, &[0x100]);
    assert!(faros
        .engine()
        .has_kind(ShadowAddr::Reg { index: 0, off: 0 }, TagKind::Netflow));

    // Switch to thread 2: its register bank is clean.
    faros.context_switch(Some((Pid(1), Tid(1))), (Pid(2), Tid(2)));
    assert!(!faros
        .engine()
        .has_kind(ShadowAddr::Reg { index: 0, off: 0 }, TagKind::Netflow));

    // Switch back: thread 1's taint is restored.
    faros.context_switch(Some((Pid(2), Tid(2))), (Pid(1), Tid(1)));
    assert!(faros
        .engine()
        .has_kind(ShadowAddr::Reg { index: 0, off: 0 }, TagKind::Netflow));
}

#[test]
fn store_appends_current_process_tag() {
    let mut faros = Faros::new(Policy::paper());
    faros.process_created(&proc_info(1, 0x2000, "a.exe"));
    faros.net_rx(Pid(1), &FLOW, &[ByteRange { phys: 0x100, len: 4 }]);
    // Execute in P1's context: load then store to a new location.
    let ctx = ctx_at(0x0040_0000, 0x4000, 8, 0x2000, load_instr());
    faros.on_insn(&ctx);
    faros.flow_load(Reg::Eax, &[0x100]);
    faros.flow_store(&[0x600], Reg::Eax);
    let tags = faros.engine().prov_tags(ShadowAddr::Mem(0x600));
    assert_eq!(tags.len(), 2);
    assert_eq!(tags[0].kind(), TagKind::Netflow);
    assert_eq!(tags[1].kind(), TagKind::Process);
}

#[test]
fn whitelist_routes_detections_aside() {
    let mut faros = Faros::new(Policy::paper().whitelist("java.exe"));
    faros.process_created(&proc_info(1, 0x2000, "java.exe"));
    let (module, ranges) = fake_module(0x5000, &["GetSystemTime"]);
    faros.module_loaded(None, &module, &ranges);
    faros.net_rx(Pid(1), &FLOW, &[ByteRange { phys: 0x900, len: 16 }]);
    let ctx = ctx_at(0x0100_2000, 0x900, 8, 0x2000, load_instr());
    faros.on_insn(&ctx);
    faros.on_load(&ctx, 0x8001_0020, &run4(0x5000 + 4 + 28), Width::B4, Reg::Eax);
    let report = faros.report();
    assert!(!report.attack_flagged());
    assert_eq!(report.whitelisted.len(), 1);
}
