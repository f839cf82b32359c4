//! The memory services against a reference model.
//!
//! A guest stub makes a sequence of allocate, protect, free, map view,
//! unmap view and query calls. A model of the address space, a map of
//! pages to perms plus a list of VAD regions, predicts each call's status
//! and output words. After the run the test compares the statuses, the
//! words each call stored to its own scratch slot, the whole page table
//! and every VAD region's `(base, size, kind)`. A refused call changes
//! nothing in the model, so any change it makes in the kernel shows up.
//!
//! Runs on the in-tree deterministic harness (`faros_support::prop`) with
//! the pinned default seed; set `FAROS_PROP_SEED` to explore other streams.

use faros_emu::asm::Asm;
use faros_emu::cpu::CpuHooks;
use faros_emu::isa::{Mem as M, Reg};
use faros_emu::mem::PAGE_SIZE;
use faros_emu::mmu::{Perms, KERNEL_BASE};
use faros_kernel::event::KernelEvents;
use faros_kernel::machine::{
    Machine, MachineConfig, RunExit, IMAGE_BASE, KERNEL_EXPORT_TABLE_VA, KERNEL_STUBS_VA,
};
use faros_kernel::module::{FdlImage, Section};
use faros_kernel::nt::{NtStatus, Sysno, CURRENT_PROCESS};
use faros_kernel::process::RegionKind;
use faros_kernel::{Pid, Tid};
use faros_support::prop::{check, Config, Rng, Shrink};
use std::collections::BTreeMap;
use std::fmt;

/// The file every view maps: a view of it is two pages.
const SEED_FILE: &str = "C:/seed";
const SEED_LEN: u32 = 0x1800;
/// The stub's code lives below this offset in its image.
const CODE_LIMIT: u32 = 0x2000;
/// Handles from the prologue.
const HANDLES: u32 = IMAGE_BASE + CODE_LIMIT;
/// One 16-byte output slot per call follows the handles.
const SLOTS: u32 = HANDLES + 16;
const MAX_OPS: usize = 32;
/// Where the first allocation lands.
const ARENA: u32 = 0x0100_0000;

/// One memory-service call of the stub, always on the current process.
#[derive(Clone, Copy)]
enum Op {
    Alloc { size: u32, perms: u32 },
    Protect { va: u32, size: u32, perms: u32 },
    Free { va: u32 },
    MapView { va: u32, perms: u32 },
    UnmapView { va: u32 },
    Query { va: u32 },
}

impl fmt::Debug for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Op::Alloc { size, perms } => write!(f, "Alloc({size:#x}, {perms:#x})"),
            Op::Protect { va, size, perms } => write!(f, "Protect({va:#010x}, {size:#x}, {perms:#x})"),
            Op::Free { va } => write!(f, "Free({va:#010x})"),
            Op::MapView { va, perms } => write!(f, "MapView({va:#010x}, {perms:#x})"),
            Op::UnmapView { va } => write!(f, "UnmapView({va:#010x})"),
            Op::Query { va } => write!(f, "Query({va:#010x})"),
        }
    }
}

/// Sequences shrink by dropping calls only: every address stays one the
/// generator drew, so a shrunk sequence never touches the stub's own
/// image or stack.
impl Shrink for Op {}

/// An address from the pools the services branch on: the allocation
/// arena's pages (where allocation bases fall) and one byte either side,
/// the kernel pages every process shares, the top two pages of the user
/// half, and the top two pages.
fn address(r: &mut Rng) -> u32 {
    match r.range_u32(0, 9) {
        0..=4 => {
            let page = ARENA + r.range_u32(0, 12) * PAGE_SIZE;
            page.wrapping_add(*r.pick(&[0, 0, 1, u32::MAX, 0xff0]))
        }
        5 => *r.pick(&[KERNEL_STUBS_VA, KERNEL_EXPORT_TABLE_VA, KERNEL_EXPORT_TABLE_VA + 0x40]),
        6 => *r.pick(&[KERNEL_BASE - 2 * PAGE_SIZE, KERNEL_BASE - PAGE_SIZE]),
        _ => *r.pick(&[0xffff_e000, 0xffff_f000, 0xffff_f001, 0xffff_fff0]),
    }
}

fn size(r: &mut Rng) -> u32 {
    *r.pick(&[0, 1, 0x20, 0x1000, 0x1001, 0x1800, 0x2000, 0x3000, 0x0200_0000, 0xffff_fff0])
}

/// Perms bits, sometimes with bits above X set.
fn perms_bits(r: &mut Rng) -> u32 {
    r.range_u32(0, 8) | if r.range_u32(0, 4) == 0 { 0x40 } else { 0 }
}

fn op(r: &mut Rng) -> Op {
    match r.range_u32(0, 10) {
        0 | 1 => Op::Alloc { size: size(r), perms: perms_bits(r) },
        2..=4 => Op::Protect { va: address(r), size: size(r), perms: perms_bits(r) },
        5 => Op::Free { va: address(r) },
        6 => Op::MapView { va: address(r) & !(PAGE_SIZE - 1), perms: perms_bits(r) },
        7 => Op::UnmapView { va: address(r) },
        _ => Op::Query { va: address(r) },
    }
}

fn perms_of(bits: u32) -> Perms {
    [(1, Perms::R), (2, Perms::W), (4, Perms::X)]
        .into_iter()
        .filter(|&(bit, _)| bits & bit != 0)
        .fold(Perms::NONE, |p, (_, q)| p.union(q))
}

fn bits_of(p: Perms) -> u32 {
    [(1, Perms::R), (2, Perms::W), (4, Perms::X)]
        .into_iter()
        .filter(|&(_, q)| p.contains(q))
        .fold(0, |bits, (bit, _)| bits | bit)
}

fn kind_code(kind: &RegionKind) -> u32 {
    match kind {
        RegionKind::Image { .. } => 0,
        RegionKind::Private => 1,
        RegionKind::Stack => 2,
        RegionKind::Mapped { .. } => 3,
    }
}

/// The reference model of one process's address space.
struct Model {
    /// Every mapped page, kernel pages included, by page address.
    pages: BTreeMap<u32, Perms>,
    /// VAD regions as `(base, size, kind)`, sorted by base.
    regions: Vec<(u32, u32, RegionKind)>,
    next_alloc_va: u32,
    free_frames: u32,
}

impl Model {
    fn region_containing(&self, va: u32) -> Option<&(u32, u32, RegionKind)> {
        self.regions.iter().find(|&&(base, size, _)| va >= base && va - base < size)
    }

    /// Maps `len` bytes (a page multiple) at page-aligned `va`, as the
    /// kernel does: a conflict or a lack of frames refuses the whole map.
    fn map(&mut self, va: u32, len: u32, perms: Perms, kind: RegionKind) -> Result<(), NtStatus> {
        if self.pages.range(va..=va + (len - 1)).next().is_some() {
            return Err(NtStatus::ConflictingAddresses);
        }
        let pages = len / PAGE_SIZE;
        if self.free_frames < pages {
            return Err(NtStatus::NoMemory);
        }
        self.free_frames -= pages;
        for page in 0..pages {
            self.pages.insert(va + page * PAGE_SIZE, perms);
        }
        let at = self.regions.partition_point(|r| r.0 < va);
        self.regions.insert(at, (va, len, kind));
        Ok(())
    }

    /// Unmaps the region based at `va` if `kind_ok` accepts its kind.
    fn unmap(&mut self, va: u32, kind_ok: fn(&RegionKind) -> bool) -> NtStatus {
        let Some(at) = self.regions.iter().position(|r| r.0 == va && kind_ok(&r.2)) else {
            return NtStatus::InvalidParameter;
        };
        let (base, size, _) = self.regions.remove(at);
        for page in 0..size / PAGE_SIZE {
            self.pages.remove(&(base + page * PAGE_SIZE));
        }
        NtStatus::Success
    }

    /// Applies one call; returns its status and the words it stores.
    fn apply(&mut self, op: Op) -> (NtStatus, [u32; 4]) {
        let mut words = [0; 4];
        let status = match op {
            Op::Alloc { size, perms } => {
                let len = size.max(1).checked_next_multiple_of(PAGE_SIZE);
                let base = self.next_alloc_va;
                let next = len.and_then(|len| base.checked_add(len)?.checked_add(PAGE_SIZE));
                match (len, next) {
                    (Some(len), Some(next)) => {
                        match self.map(base, len, perms_of(perms), RegionKind::Private) {
                            Ok(()) => {
                                self.next_alloc_va = next;
                                words[0] = base;
                                NtStatus::Success
                            }
                            Err(status) => status,
                        }
                    }
                    _ => NtStatus::NoMemory,
                }
            }
            Op::Protect { va, size, perms } => {
                // Every page holding a byte of [va, va + size) must lie in
                // a VAD region; a size of 0 means one page.
                let first = va & !(PAGE_SIZE - 1);
                let covered = va.checked_add(size.max(1) - 1).filter(|&last| {
                    let mut at = first;
                    while let Some(&(base, size, _)) = self.region_containing(at) {
                        let end = base + (size - 1);
                        if end >= last {
                            return true;
                        }
                        at = end + 1;
                    }
                    false
                });
                match covered {
                    Some(last) => {
                        let last_page = last & !(PAGE_SIZE - 1);
                        for (_, p) in self.pages.range_mut(first..=last_page) {
                            *p = perms_of(perms);
                        }
                        NtStatus::Success
                    }
                    None => NtStatus::InvalidParameter,
                }
            }
            // Free releases private memory and stacks, UnmapView views
            // and images.
            Op::Free { va } => {
                self.unmap(va, |k| matches!(k, RegionKind::Private | RegionKind::Stack))
            }
            Op::UnmapView { va } => {
                self.unmap(va, |k| matches!(k, RegionKind::Mapped { .. } | RegionKind::Image { .. }))
            }
            Op::MapView { va, perms } => {
                let len = SEED_LEN.next_multiple_of(PAGE_SIZE);
                // A view must be page-aligned and stay below the kernel half.
                let past_user_half = u64::from(va) + u64::from(len) > u64::from(KERNEL_BASE);
                if !va.is_multiple_of(PAGE_SIZE) || past_user_half {
                    NtStatus::InvalidParameter
                } else {
                    let kind = RegionKind::Mapped { path: SEED_FILE.to_string() };
                    match self.map(va, len, perms_of(perms), kind) {
                        Ok(()) => NtStatus::Success,
                        Err(_) => NtStatus::ConflictingAddresses,
                    }
                }
            }
            Op::Query { va } => match self.region_containing(va) {
                Some(&(base, size, ref kind)) => {
                    // The run of pages from the one holding `va` that stays
                    // in the region and shares its perms.
                    let page = va & !(PAGE_SIZE - 1);
                    let perms = self.pages[&page];
                    let end = base + (size - 1);
                    let run = self
                        .pages
                        .range(page..=end)
                        .take_while(|&(_, &p)| p == perms)
                        .count() as u32;
                    words = [page, run * PAGE_SIZE, bits_of(perms), kind_code(kind)];
                    NtStatus::Success
                }
                None => NtStatus::InvalidParameter,
            },
        };
        (status, words)
    }
}

/// Collects the statuses of the syscalls the stub makes.
#[derive(Default)]
struct Statuses(Vec<(Sysno, NtStatus)>);

impl CpuHooks for Statuses {}
impl KernelEvents for Statuses {
    fn syscall_exit(&mut self, _pid: Pid, _tid: Tid, sysno: Sysno, status: NtStatus) {
        self.0.push((sysno, status));
    }
}

fn syscall(asm: &mut Asm, sysno: Sysno, args: &[(Reg, u32)]) {
    for &(reg, val) in args {
        asm.mov_ri(reg, val);
    }
    asm.mov_ri(Reg::Eax, sysno as u32);
    asm.int_syscall();
}

/// The stub: open a section on the seed file, make the calls, exit.
fn stub(ops: &[Op]) -> FdlImage {
    let mut asm = Asm::new(IMAGE_BASE);
    let this = CURRENT_PROCESS;
    asm.mov_label(Reg::Ebx, "path");
    syscall(&mut asm, Sysno::NtOpenFile, &[(Reg::Ecx, SEED_FILE.len() as u32), (Reg::Edx, HANDLES)]);
    asm.ld4(Reg::Ebx, M::abs(HANDLES));
    syscall(&mut asm, Sysno::NtCreateSection, &[(Reg::Ecx, HANDLES + 4)]);
    for (i, &op) in ops.iter().enumerate() {
        let slot = SLOTS + 16 * i as u32;
        match op {
            Op::Alloc { size, perms } => syscall(
                &mut asm,
                Sysno::NtAllocateVirtualMemory,
                &[(Reg::Ebx, this), (Reg::Ecx, size), (Reg::Edx, perms), (Reg::Esi, slot)],
            ),
            Op::Protect { va, size, perms } => syscall(
                &mut asm,
                Sysno::NtProtectVirtualMemory,
                &[(Reg::Ebx, this), (Reg::Ecx, va), (Reg::Edx, size), (Reg::Esi, perms)],
            ),
            Op::Free { va } => {
                syscall(&mut asm, Sysno::NtFreeVirtualMemory, &[(Reg::Ebx, this), (Reg::Ecx, va)])
            }
            Op::MapView { va, perms } => {
                asm.ld4(Reg::Ebx, M::abs(HANDLES + 4));
                syscall(&mut asm, Sysno::NtMapViewOfSection, &[(Reg::Ecx, va), (Reg::Edx, perms)]);
            }
            Op::UnmapView { va } => {
                syscall(&mut asm, Sysno::NtUnmapViewOfSection, &[(Reg::Ebx, this), (Reg::Ecx, va)])
            }
            Op::Query { va } => syscall(
                &mut asm,
                Sysno::NtQueryVirtualMemory,
                &[(Reg::Ebx, this), (Reg::Ecx, va), (Reg::Edx, slot)],
            ),
        }
    }
    asm.hlt();
    asm.label("path");
    asm.raw(SEED_FILE.as_bytes());
    let mut code = asm.assemble().expect("stub assembles");
    assert!(code.len() <= CODE_LIMIT as usize, "stub code overruns its scratch");
    code.resize((CODE_LIMIT + 16 + 16 * MAX_OPS as u32) as usize, 0);
    FdlImage {
        entry: IMAGE_BASE,
        export_table_va: IMAGE_BASE + 0x10_0000,
        sections: vec![Section { va: IMAGE_BASE, data: code, perms: Perms::RWX }],
        exports: vec![],
    }
}

fn page_table(machine: &Machine, pid: Pid) -> BTreeMap<u32, Perms> {
    let proc = machine.process(pid).expect("stub process");
    proc.aspace.iter().map(|(vpn, e)| (vpn * PAGE_SIZE, e.perms)).collect()
}

fn vad(machine: &Machine, pid: Pid) -> Vec<(u32, u32, RegionKind)> {
    let proc = machine.process(pid).expect("stub process");
    proc.regions.iter().map(|r| (r.base, r.size, r.kind.clone())).collect()
}

/// Runs `ops` in a fresh machine and compares the kernel with the model.
fn matches_model(ops: &[Op]) -> Result<(), String> {
    let mut machine = Machine::new(MachineConfig::default());
    machine.install_program("C:/t.exe", &stub(ops)).expect("install stub");
    machine.fs.create(SEED_FILE, vec![0xcc; SEED_LEN as usize]).expect("seed file");
    let mut trace = Statuses::default();
    let pid = machine.spawn_process("C:/t.exe", false, None, &mut trace).expect("spawn stub");
    let mut model = Model {
        pages: page_table(&machine, pid),
        regions: vad(&machine, pid),
        next_alloc_va: machine.process(pid).expect("stub process").next_alloc_va,
        free_frames: machine.mem.free_frames(),
    };
    let exit = machine.run(1_000_000, &mut trace);
    if exit != RunExit::AllExited || machine.process(pid).and_then(|p| p.exit_code) != Some(0) {
        return Err(format!("the stub did not exit cleanly: {exit:?}"));
    }
    // The prologue's open and create-section calls come first.
    let statuses = trace.0.get(2..).unwrap_or_default();
    if statuses.len() != ops.len() {
        return Err(format!("{} statuses for {} calls", statuses.len(), ops.len()));
    }
    for (i, (&op, &(_, got))) in ops.iter().zip(statuses).enumerate() {
        let (want, words) = model.apply(op);
        if got != want {
            return Err(format!("call {i} {op:?}: status {got:?}, model {want:?}"));
        }
        let slot = machine.read_guest(pid, SLOTS + 16 * i as u32, 16).expect("slot readable");
        let stored: Vec<u32> =
            slot.chunks(4).map(|w| u32::from_le_bytes(w.try_into().expect("4 bytes"))).collect();
        if stored != words {
            return Err(format!("call {i} {op:?}: stored {stored:x?}, model {words:x?}"));
        }
    }
    let pages = page_table(&machine, pid);
    if pages != model.pages {
        let differ: Vec<_> = pages
            .iter()
            .map(|(&va, &p)| (va, Some(p)))
            .chain(model.pages.keys().filter(|va| !pages.contains_key(va)).map(|&va| (va, None)))
            .filter(|(va, p)| model.pages.get(va).copied() != *p)
            .map(|(va, p)| format!("{va:#010x}: {p:?}, model {:?}", model.pages.get(&va)))
            .collect();
        return Err(format!("page table differs: {differ:?}"));
    }
    let regions = vad(&machine, pid);
    if regions != model.regions {
        return Err(format!("VAD {regions:x?}, model {:x?}", model.regions));
    }
    Ok(())
}

#[test]
fn memory_services_match_the_reference_model() {
    check(
        "memory_services_match_the_reference_model",
        Config::with_cases(128),
        |rng| rng.vec_of(1, MAX_OPS, op),
        |ops| matches_model(ops),
    );
}

#[test]
fn known_memory_sequences_match_the_reference_model() {
    let rx = 0b101;
    let rw = 0b011;
    let cases: [(&str, &[Op]); 3] = [
        (
            "a protect of part of a region",
            &[
                Op::Alloc { size: 0x2000, perms: rw },
                Op::Protect { va: ARENA + 0x1000, size: 0x1000, perms: rx },
                Op::Query { va: ARENA },
                Op::Query { va: ARENA + 0x1000 },
            ],
        ),
        (
            "an unaligned protect across a page boundary",
            &[
                Op::Alloc { size: 0x2000, perms: rw },
                Op::Protect { va: ARENA + 0xff0, size: 0x20, perms: rx },
                Op::Query { va: ARENA },
            ],
        ),
        (
            "a protect of the shared export table",
            &[Op::Protect { va: KERNEL_EXPORT_TABLE_VA, size: 0x1000, perms: rw }],
        ),
    ];
    let failures: Vec<String> = cases
        .iter()
        .filter_map(|(name, ops)| matches_model(ops).err().map(|e| format!("{name}: {e}")))
        .collect();
    assert!(failures.is_empty(), "{failures:?}");
}
