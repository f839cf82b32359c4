//! The whole machine: CPU + memory + kernel state + scheduler.
//!
//! [`Machine`] is the reproduction's "QEMU + Windows 7 guest". It owns the
//! FE32 CPU, physical memory, the process table, the filesystem and the
//! network fabric, and drives everything from [`Machine::run`], reporting
//! every observable event through an [`Observer`].
//!
//! The kernel is *paravirtual*: syscalls are serviced in Rust, but all
//! guest-visible data movement is reported at physical-byte granularity so a
//! DIFT observer sees exactly the flows an instruction-level kernel trace
//! would produce (DESIGN.md, decision 1).

use crate::event::{ByteRange, CopyRun, Observer};
use crate::fs::FileSystem;
use crate::handle::{Pid, Tid};
use crate::module::{Export, FdlImage, ModuleInfo};
use crate::net::NetworkFabric;
use crate::nt::Sysno;
use crate::process::{
    BlockReason, PendingSyscall, Process, Thread, ThreadState, VadRegion,
};
use faros_emu::asm::Asm;
use faros_emu::cpu::{Cpu, CpuContext, StepEvent};
use faros_emu::isa::{Mem as MemOp, Reg};
use faros_emu::mem::{PhysMem, PAGE_SIZE};
use faros_emu::mmu::{Access, AddressSpace, Asid, Fault, Perms, KERNEL_BASE};
use faros_emu::tcache::{TcStats, TransCache};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// Machine construction parameters.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Physical memory size in 4 KiB frames.
    pub ram_frames: u32,
    /// Guest IPv4 address.
    pub guest_ip: [u8; 4],
    /// Instructions per scheduler quantum.
    pub timeslice: u32,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            ram_frames: 4096, // 16 MiB
            guest_ip: [169, 254, 57, 168],
            timeslice: 200,
        }
    }
}

/// How [`Machine::run`] executes guest instructions.
///
/// Both modes produce byte-identical observer event streams; the cached mode
/// exists purely for speed (decode each block once, then replay the
/// predecoded run). The interpreter is kept selectable so the differential
/// harness can prove the equivalence on every corpus program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Decode-once translation cache with block chaining (default).
    #[default]
    Cached,
    /// Plain fetch-decode-execute interpreter (`Cpu::step` per instruction).
    Interpret,
}

/// Why [`Machine::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunExit {
    /// Every process has exited.
    AllExited,
    /// The instruction budget was exhausted.
    Budget,
    /// No thread can ever run again (all blocked with no wake source).
    Deadlocked,
}

/// Virtual address where the kernel module's API stubs live.
pub const KERNEL_STUBS_VA: u32 = KERNEL_BASE;

/// Virtual address of the kernel module's export table — the region whose
/// function-pointer bytes FAROS taints (the paper's flagged reads target
/// addresses like `0x83B07019` in this half of the address space).
pub const KERNEL_EXPORT_TABLE_VA: u32 = 0x8001_0000;

/// Default image base for user programs.
pub const IMAGE_BASE: u32 = 0x0040_0000;

/// Stack top for main threads.
pub const STACK_TOP: u32 = 0x7ffc_4000;

/// Stack size in bytes.
pub const STACK_SIZE: u32 = 4 * PAGE_SIZE;

/// Error from machine-level operations (spawning, memory services).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// Guest memory exhausted.
    OutOfMemory,
    /// A guest virtual address did not translate.
    BadAddress(Fault),
    /// The referenced process does not exist.
    NoSuchProcess(Pid),
    /// The referenced file does not exist.
    NoSuchFile(String),
    /// The image file is not a valid FDL.
    BadImage(String),
    /// The requested virtual range collides with an existing mapping.
    AddressConflict(u32),
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::OutOfMemory => write!(f, "guest physical memory exhausted"),
            MachineError::BadAddress(fault) => write!(f, "bad guest address: {fault}"),
            MachineError::NoSuchProcess(p) => write!(f, "no such process: {p}"),
            MachineError::NoSuchFile(p) => write!(f, "no such file: {p}"),
            MachineError::BadImage(e) => write!(f, "bad image: {e}"),
            MachineError::AddressConflict(va) => {
                write!(f, "address conflict at {va:#010x}")
            }
        }
    }
}

impl std::error::Error for MachineError {}

/// The whole emulated system.
#[derive(Debug)]
pub struct Machine {
    /// Guest physical memory (public for snapshot scanners).
    pub mem: PhysMem,
    pub(crate) cpu: Cpu,
    pub(crate) procs: BTreeMap<Pid, Process>,
    next_pid: u32,
    next_tid: u32,
    run_queue: VecDeque<(Pid, Tid)>,
    pub(crate) current: Option<(Pid, Tid)>,
    /// The guest filesystem.
    pub fs: FileSystem,
    /// The network fabric.
    pub net: NetworkFabric,
    kernel_pages: Vec<(u32, u32, Perms)>,
    kernel_modules: Vec<ModuleInfo>,
    kernel_export_ranges: Vec<ByteRange>,
    idle_boost: u64,
    console: Vec<(Pid, String)>,
    booted: bool,
    config: MachineConfig,
    exec: ExecMode,
    pub(crate) tcache: TransCache,
}

impl Machine {
    /// Creates a machine with a live-mode network fabric.
    pub fn new(config: MachineConfig) -> Machine {
        let net = NetworkFabric::new_live(config.guest_ip);
        Machine::with_fabric(config, net)
    }

    /// Creates a machine around an existing fabric (live or replay) — the
    /// record/replay driver uses this.
    pub fn with_fabric(config: MachineConfig, net: NetworkFabric) -> Machine {
        let mut m = Machine {
            mem: PhysMem::new(config.ram_frames),
            cpu: Cpu::new(),
            procs: BTreeMap::new(),
            next_pid: 1,
            next_tid: 1,
            run_queue: VecDeque::new(),
            current: None,
            fs: FileSystem::new(),
            net,
            kernel_pages: Vec::new(),
            kernel_modules: Vec::new(),
            kernel_export_ranges: Vec::new(),
            idle_boost: 0,
            console: Vec::new(),
            booted: false,
            config,
            exec: ExecMode::default(),
            tcache: TransCache::new(),
        };
        m.build_kernel_module();
        m
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Selects how guest instructions are executed (see [`ExecMode`]).
    pub fn set_exec_mode(&mut self, exec: ExecMode) {
        self.exec = exec;
    }

    /// Translation-cache counters (`tc.*` metrics source). All zero when the
    /// machine runs in [`ExecMode::Interpret`].
    pub fn tc_stats(&self) -> TcStats {
        self.tcache.stats()
    }

    /// Total virtual time: instructions retired plus idle boosts.
    pub fn ticks(&self) -> u64 {
        self.cpu.retired() + self.idle_boost
    }

    /// Console lines printed by guests, in order.
    pub fn console(&self) -> &[(Pid, String)] {
        &self.console
    }

    /// All processes (alive and exited), by pid.
    pub fn processes(&self) -> impl Iterator<Item = &Process> + '_ {
        self.procs.values()
    }

    /// Looks up a process.
    pub fn process(&self, pid: Pid) -> Option<&Process> {
        self.procs.get(&pid)
    }

    /// Looks up a process by image name (first match in pid order).
    pub fn process_by_name(&self, name: &str) -> Option<&Process> {
        self.procs.values().find(|p| p.name == name)
    }

    /// Boot-time kernel modules (mapped into every process).
    pub fn kernel_modules(&self) -> &[ModuleInfo] {
        &self.kernel_modules
    }

    /// The currently scheduled thread.
    pub fn current_thread(&self) -> Option<(Pid, Tid)> {
        self.current
    }

    /// OSI view: process summaries in pid order (the `pslist` an
    /// introspection tool renders).
    pub fn pslist(&self) -> Vec<crate::process::ProcessInfo> {
        self.procs.values().map(|p| p.info()).collect()
    }

    /// OSI view: the modules loaded in a process (its "DLL list"),
    /// kernel modules first.
    pub fn dlllist(&self, pid: Pid) -> Vec<&ModuleInfo> {
        let mut out: Vec<&ModuleInfo> = self.kernel_modules.iter().collect();
        if let Some(p) = self.procs.get(&pid) {
            out.extend(p.modules.iter());
        }
        out
    }

    // ------------------------------------------------------------------
    // Boot: the kernel module (API stubs + export table)
    // ------------------------------------------------------------------

    /// The Win32-flavoured API surface exported by the kernel module, with
    /// the service each stub invokes.
    fn kernel_api() -> Vec<(&'static str, Option<Sysno>)> {
        vec![
            ("LoadLibraryA", Some(Sysno::LdrLoadDll)),
            ("GetProcAddress", None), // real guest code, see below
            ("VirtualAlloc", Some(Sysno::NtAllocateVirtualMemory)),
            ("VirtualProtect", Some(Sysno::NtProtectVirtualMemory)),
            ("VirtualFree", Some(Sysno::NtFreeVirtualMemory)),
            ("CreateFileA", Some(Sysno::NtCreateFile)),
            ("ReadFile", Some(Sysno::NtReadFile)),
            ("WriteFile", Some(Sysno::NtWriteFile)),
            ("CloseHandle", Some(Sysno::NtClose)),
            ("DeleteFileA", Some(Sysno::NtDeleteFile)),
            ("Socket", Some(Sysno::NtSocketCreate)),
            ("Connect", Some(Sysno::NtSocketConnect)),
            ("Send", Some(Sysno::NtSocketSend)),
            ("Recv", Some(Sysno::NtSocketRecv)),
            ("CreateProcessA", Some(Sysno::NtCreateUserProcess)),
            ("OpenProcess", Some(Sysno::NtOpenProcess)),
            ("WriteProcessMemory", Some(Sysno::NtWriteVirtualMemory)),
            ("ReadProcessMemory", Some(Sysno::NtReadVirtualMemory)),
            ("CreateRemoteThread", Some(Sysno::NtCreateThreadEx)),
            ("SuspendThread", Some(Sysno::NtSuspendThread)),
            ("ResumeThread", Some(Sysno::NtResumeThread)),
            ("GetThreadContext", Some(Sysno::NtGetContextThread)),
            ("SetThreadContext", Some(Sysno::NtSetContextThread)),
            ("UnmapViewOfSection", Some(Sysno::NtUnmapViewOfSection)),
            ("ExitProcess", Some(Sysno::NtTerminateProcess)),
            ("Sleep", Some(Sysno::NtDelayExecution)),
            ("GetSystemTime", Some(Sysno::NtQuerySystemTime)),
            ("OutputDebugStringA", Some(Sysno::NtDisplayString)),
        ]
    }

    /// The services reachable through the kernel module's API stubs. A
    /// stub is `mov eax, sysno; int; ret` — it forwards the *caller's*
    /// argument registers untouched — so any process that can call into
    /// unknown code can exercise any capability these services grant.
    /// The static capability model uses this as its ambient set.
    pub fn kernel_stub_services() -> Vec<Sysno> {
        Self::kernel_api().into_iter().filter_map(|(_, s)| s).collect()
    }

    fn build_kernel_module(&mut self) {
        let api = Self::kernel_api();
        let mut asm = Asm::new(KERNEL_STUBS_VA);
        for (name, sysno) in &api {
            asm.label(name);
            match sysno {
                Some(s) => {
                    asm.mov_ri(Reg::Eax, *s as u32);
                    asm.int_syscall();
                    asm.ret();
                }
                None => {
                    // GetProcAddress(hash in EBX) -> EAX = function pointer.
                    // Walks the kernel export table exactly like a reflective
                    // payload would — but as *clean* boot code, so benign
                    // resolution through this routine never trips FAROS.
                    asm.mov_ri(Reg::Esi, KERNEL_EXPORT_TABLE_VA);
                    asm.ld4(Reg::Ecx, MemOp::reg(Reg::Esi)); // count
                    asm.add_ri(Reg::Esi, 4);
                    asm.label("gpa_loop");
                    asm.cmp_ri(Reg::Ecx, 0);
                    asm.jz("gpa_fail");
                    asm.ld4(Reg::Eax, MemOp::base_disp(Reg::Esi, 24)); // hash
                    asm.cmp_rr(Reg::Eax, Reg::Ebx);
                    asm.jz("gpa_hit");
                    asm.add_ri(Reg::Esi, 32);
                    asm.sub_ri(Reg::Ecx, 1);
                    asm.jmp("gpa_loop");
                    asm.label("gpa_hit");
                    asm.ld4(Reg::Eax, MemOp::base_disp(Reg::Esi, 28)); // fn ptr
                    asm.ret();
                    asm.label("gpa_fail");
                    asm.mov_ri(Reg::Eax, 0);
                    asm.ret();
                }
            }
        }
        let (code, labels) = asm
            .assemble_with_labels()
            .expect("kernel stub assembly is static and must assemble");

        let exports: Vec<Export> = api
            .iter()
            .map(|(name, _)| Export { name: (*name).to_string(), va: labels[*name] })
            .collect();
        let image = FdlImage {
            entry: 0,
            export_table_va: KERNEL_EXPORT_TABLE_VA,
            sections: Vec::new(),
            exports: exports.clone(),
        };
        let table = image.export_table_bytes();

        // Materialize stub code and export table into kernel physical pages.
        self.install_kernel_bytes(KERNEL_STUBS_VA, &code, Perms::RX);
        let table_ranges = self.install_kernel_bytes(KERNEL_EXPORT_TABLE_VA, &table, Perms::R);
        self.kernel_export_ranges = table_ranges;

        self.kernel_modules.push(ModuleInfo {
            name: "ntdll.fdl".to_string(),
            base: KERNEL_STUBS_VA,
            entry: 0,
            export_table_va: KERNEL_EXPORT_TABLE_VA,
            exports,
        });
    }

    fn install_kernel_bytes(&mut self, va: u32, bytes: &[u8], perms: Perms) -> Vec<ByteRange> {
        let pages = bytes.len().div_ceil(PAGE_SIZE as usize).max(1);
        let mut ranges = Vec::with_capacity(pages);
        for page in 0..pages {
            let pfn = self.mem.alloc_frame().expect("boot allocation");
            self.kernel_pages.push((va + page as u32 * PAGE_SIZE, pfn, perms));
            let start = page * PAGE_SIZE as usize;
            let end = (start + PAGE_SIZE as usize).min(bytes.len());
            if start < bytes.len() {
                self.mem
                    .write(pfn * PAGE_SIZE, &bytes[start..end])
                    .expect("boot write");
                ranges.push(ByteRange { phys: pfn * PAGE_SIZE, len: (end - start) as u32 });
            }
        }
        ranges
    }

    fn emit_boot<O: Observer + ?Sized>(&mut self, obs: &mut O) {
        if self.booted {
            return;
        }
        self.booted = true;
        for module in &self.kernel_modules {
            obs.module_loaded(None, module, &self.kernel_export_ranges);
        }
    }

    // ------------------------------------------------------------------
    // Guest memory services
    // ------------------------------------------------------------------

    /// Translates `len` bytes at `va` in `pid`'s address space, coalescing
    /// into contiguous physical runs.
    pub fn phys_runs(
        &self,
        pid: Pid,
        va: u32,
        len: u32,
        access: Access,
    ) -> Result<Vec<ByteRange>, MachineError> {
        let proc = self.procs.get(&pid).ok_or(MachineError::NoSuchProcess(pid))?;
        coalesce_runs(va, len, |vaddr| {
            proc.aspace.translate(vaddr, access).map_err(MachineError::BadAddress)
        })
    }

    /// Reads guest bytes from `pid`'s address space.
    pub fn read_guest(&self, pid: Pid, va: u32, len: u32) -> Result<Vec<u8>, MachineError> {
        let runs = self.phys_runs(pid, va, len, Access::Read)?;
        let mut out = Vec::with_capacity(len as usize);
        for r in runs {
            let slice = self
                .mem
                .slice(r.phys, r.len as usize)
                .expect("translated range in bounds");
            out.extend_from_slice(slice);
        }
        Ok(out)
    }

    /// Reads a guest string (`ptr`, `len` pair as used by path arguments).
    pub fn read_guest_str(&self, pid: Pid, va: u32, len: u32) -> Result<String, MachineError> {
        let bytes = self.read_guest(pid, va, len.min(4096))?;
        Ok(String::from_utf8_lossy(&bytes).into_owned())
    }

    /// Writes host bytes into `pid`'s address space, returning the physical
    /// runs written (callers emit the appropriate taint event).
    pub fn write_guest(
        &mut self,
        pid: Pid,
        va: u32,
        bytes: &[u8],
    ) -> Result<Vec<ByteRange>, MachineError> {
        let runs = self.phys_runs(pid, va, bytes.len() as u32, Access::Write)?;
        self.write_runs(&runs, bytes);
        Ok(runs)
    }

    /// Kernel-mode write: stores host bytes into `pid`'s address space
    /// ignoring page protections (the loader writing read-only image pages,
    /// export tables, mapped views). Returns the physical runs written.
    pub fn write_guest_kernel(
        &mut self,
        pid: Pid,
        va: u32,
        bytes: &[u8],
    ) -> Result<Vec<ByteRange>, MachineError> {
        let proc = self.procs.get(&pid).ok_or(MachineError::NoSuchProcess(pid))?;
        let runs = coalesce_runs(va, bytes.len() as u32, |vaddr| {
            let entry = proc
                .aspace
                .entry(vaddr)
                .ok_or(MachineError::BadAddress(Fault::NotMapped { vaddr }))?;
            Ok(entry.pfn * PAGE_SIZE + (vaddr & (PAGE_SIZE - 1)))
        })?;
        self.write_runs(&runs, bytes);
        Ok(runs)
    }

    /// Writes `bytes` across the translated physical `runs`, in order.
    fn write_runs(&mut self, runs: &[ByteRange], bytes: &[u8]) {
        let mut off = 0usize;
        for r in runs {
            self.mem
                .write(r.phys, &bytes[off..off + r.len as usize])
                .expect("translated range in bounds");
            off += r.len as usize;
        }
    }

    /// Kernel-mediated guest-to-guest copy (the `NtWriteVirtualMemory` /
    /// `NtReadVirtualMemory` data path). Copies the bytes and reports the
    /// physical pairing so shadow state can follow.
    pub fn guest_copy<O: Observer + ?Sized>(
        &mut self,
        src_pid: Pid,
        src_va: u32,
        dst_pid: Pid,
        dst_va: u32,
        len: u32,
        obs: &mut O,
    ) -> Result<(), MachineError> {
        let src_runs = self.phys_runs(src_pid, src_va, len, Access::Read)?;
        let dst_runs = self.phys_runs(dst_pid, dst_va, len, Access::Write)?;
        // Flatten into per-byte pairs, re-coalescing into CopyRuns.
        let mut pairs: Vec<CopyRun> = Vec::new();
        let mut src_iter = src_runs.iter().flat_map(|r| (0..r.len).map(move |i| r.phys + i));
        let mut dst_iter = dst_runs.iter().flat_map(|r| (0..r.len).map(move |i| r.phys + i));
        while let (Some(s), Some(d)) = (src_iter.next(), dst_iter.next()) {
            let byte = self.mem.read_u8(s).expect("translated");
            self.mem.write_u8(d, byte).expect("translated");
            match pairs.last_mut() {
                Some(last)
                    if last.src_phys + last.len == s && last.dst_phys + last.len == d =>
                {
                    last.len += 1;
                }
                _ => pairs.push(CopyRun { dst_phys: d, src_phys: s, len: 1 }),
            }
        }
        obs.guest_copy(src_pid, dst_pid, &pairs);
        Ok(())
    }

    /// Maps `size` bytes of fresh zeroed memory at `va` in `pid`'s address
    /// space and registers a VAD region. Fires `kernel_write` so stale
    /// shadow on recycled frames is cleared.
    pub fn map_fresh<O: Observer + ?Sized>(
        &mut self,
        pid: Pid,
        va: u32,
        size: u32,
        perms: Perms,
        kind: crate::process::RegionKind,
        obs: &mut O,
    ) -> Result<(), MachineError> {
        debug_assert_eq!(va % PAGE_SIZE, 0);
        let pages = size.div_ceil(PAGE_SIZE).max(1);
        {
            let proc = self.procs.get(&pid).ok_or(MachineError::NoSuchProcess(pid))?;
            for page in 0..pages {
                if proc.aspace.entry(va + page * PAGE_SIZE).is_some() {
                    return Err(MachineError::AddressConflict(va + page * PAGE_SIZE));
                }
            }
        }
        let mut ranges = Vec::with_capacity(pages as usize);
        for page in 0..pages {
            let pfn = self.mem.alloc_frame().map_err(|_| MachineError::OutOfMemory)?;
            let proc = self.procs.get_mut(&pid).expect("checked above");
            proc.aspace.map(va + page * PAGE_SIZE, pfn, perms);
            ranges.push(ByteRange { phys: pfn * PAGE_SIZE, len: PAGE_SIZE });
        }
        let proc = self.procs.get_mut(&pid).expect("checked above");
        proc.add_region(VadRegion { base: va, size: pages * PAGE_SIZE, perms, kind });
        // New mappings change what a cached virtual address decodes to.
        self.tcache.invalidate_all(&mut self.mem);
        obs.kernel_write(pid, &ranges);
        Ok(())
    }

    /// Unmaps the region based at `va` in `pid` (frames are *not* recycled
    /// immediately — their stale contents stay visible to forensic
    /// snapshots, as on real hardware).
    pub fn unmap_region(&mut self, pid: Pid, va: u32) -> Result<VadRegion, MachineError> {
        let proc = self.procs.get_mut(&pid).ok_or(MachineError::NoSuchProcess(pid))?;
        let region = proc
            .remove_region(va)
            .ok_or(MachineError::AddressConflict(va))?;
        let pages = region.size / PAGE_SIZE;
        for page in 0..pages {
            proc.aspace.unmap(region.base + page * PAGE_SIZE);
        }
        // Cached blocks for the torn-down mapping must not outlive it
        // (module unload / UnmapViewOfSection).
        self.tcache.invalidate_all(&mut self.mem);
        Ok(region)
    }

    // ------------------------------------------------------------------
    // Processes and threads
    // ------------------------------------------------------------------

    /// Installs an FDL image as a file in the guest filesystem.
    pub fn install_program(&mut self, path: &str, image: &FdlImage) -> Result<(), MachineError> {
        self.fs
            .create(path, image.to_bytes())
            .map_err(|e| MachineError::BadImage(e.to_string()))
    }

    /// Spawns a process from an FDL file in the guest filesystem.
    ///
    /// The image sections are copied into the new address space and reported
    /// as a `file_read` (so the DIFT layer applies file tags), the export
    /// table is materialized, and `module_loaded` fires.
    ///
    /// # Errors
    ///
    /// Fails if the file is missing, not a valid FDL, or memory is
    /// exhausted.
    pub fn spawn_process<O: Observer + ?Sized>(
        &mut self,
        path: &str,
        suspended: bool,
        parent: Option<Pid>,
        obs: &mut O,
    ) -> Result<Pid, MachineError> {
        self.emit_boot(obs);
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        let asid = Asid(0x1000 + pid.0 * 0x1000);
        let mut aspace = AddressSpace::new(asid);
        for &(va, pfn, perms) in &self.kernel_pages {
            aspace.map(va, pfn, perms);
        }
        let name = path.rsplit('/').next().unwrap_or(path).to_string();
        let proc = Process::new(pid, &name, parent, aspace);
        self.procs.insert(pid, proc);
        obs.process_created(&self.procs[&pid].info());

        let module = match self.load_image_into(pid, path, obs) {
            Ok(m) => m,
            Err(e) => {
                // Roll back the half-created process.
                self.procs.remove(&pid);
                return Err(e);
            }
        };

        // Stack + main thread.
        self.map_fresh(
            pid,
            STACK_TOP - STACK_SIZE,
            STACK_SIZE,
            Perms::RW,
            crate::process::RegionKind::Stack,
            obs,
        )?;
        let tid = self.create_thread_raw(pid, module.entry, STACK_TOP, suspended);
        obs.thread_created(pid, tid);
        Ok(pid)
    }

    /// Loads an FDL image file into an existing process: maps its sections
    /// (reported as file reads, so the DIFT layer applies file tags),
    /// materializes its export table, registers the module, and fires
    /// `module_loaded`. This is both the main-image half of
    /// [`Machine::spawn_process`] and the `LdrLoadDll` service (normal —
    /// i.e. *registered* — library loading, the counterpart the reflective
    /// technique bypasses).
    ///
    /// # Errors
    ///
    /// Fails if the file is missing, is not a valid FDL, collides with an
    /// existing mapping, or memory is exhausted.
    pub fn load_image_into<O: Observer + ?Sized>(
        &mut self,
        pid: Pid,
        path: &str,
        obs: &mut O,
    ) -> Result<ModuleInfo, MachineError> {
        let bytes = self
            .fs
            .read(path, 0, usize::MAX / 2)
            .map_err(|_| MachineError::NoSuchFile(path.to_string()))?;
        let version = self.fs.version(path).unwrap_or(1);
        let image = FdlImage::parse(&bytes).map_err(|e| MachineError::BadImage(e.to_string()))?;
        let name = path.rsplit('/').next().unwrap_or(path).to_string();

        // Map sections and copy image bytes; report as file reads.
        let mut base = u32::MAX;
        for section in &image.sections {
            base = base.min(section.va);
            self.map_fresh(
                pid,
                section.va,
                section.data.len() as u32,
                section.perms,
                crate::process::RegionKind::Image { module: name.clone() },
                obs,
            )?;
            // Section pages must be writable during load regardless of their
            // final protection; write in kernel mode.
            let runs = self.write_guest_kernel(pid, section.va, &section.data)?;
            obs.file_read(pid, path, version, &runs);
        }

        // Materialize the module export table (read-only image memory).
        let mut table_runs: Vec<ByteRange> = Vec::new();
        if !image.exports.is_empty() {
            let table = image.export_table_bytes();
            self.map_fresh(
                pid,
                image.export_table_va,
                table.len() as u32,
                Perms::R,
                crate::process::RegionKind::Image { module: name.clone() },
                obs,
            )?;
            table_runs = self.write_guest_kernel(pid, image.export_table_va, &table)?;
            obs.kernel_write(pid, &table_runs);
        }

        let module = ModuleInfo {
            name,
            base: if base == u32::MAX { image.entry } else { base },
            entry: image.entry,
            export_table_va: image.export_table_va,
            exports: image.exports.clone(),
        };
        self.procs
            .get_mut(&pid)
            .ok_or(MachineError::NoSuchProcess(pid))?
            .modules
            .push(module.clone());
        obs.module_loaded(Some(pid), &module, &table_runs);
        Ok(module)
    }

    /// Creates a thread in `pid` with entry `start` and a caller-chosen
    /// stack pointer (no stack is allocated here).
    pub(crate) fn create_thread_raw(
        &mut self,
        pid: Pid,
        start: u32,
        esp: u32,
        suspended: bool,
    ) -> Tid {
        let tid = Tid(self.next_tid);
        self.next_tid += 1;
        let mut ctx = CpuContext { eip: start, ..CpuContext::default() };
        ctx.regs[Reg::Esp.index()] = esp;
        let mut thread = Thread::new(tid, ctx);
        if suspended {
            thread.state = ThreadState::Suspended(1);
        }
        let proc = self.procs.get_mut(&pid).expect("caller validated pid");
        proc.threads.insert(tid, thread);
        if !suspended {
            self.run_queue.push_back((pid, tid));
        }
        tid
    }

    /// Creates a thread with a fresh stack in the target process — the
    /// `NtCreateThreadEx` path (remote thread creation).
    pub fn create_thread_with_stack<O: Observer + ?Sized>(
        &mut self,
        pid: Pid,
        start: u32,
        arg: u32,
        suspended: bool,
        obs: &mut O,
    ) -> Result<Tid, MachineError> {
        // Pick a stack area below the main stack, one slot per thread.
        let slot = self.next_tid;
        let stack_top = STACK_TOP - STACK_SIZE * 2 * slot;
        self.map_fresh(
            pid,
            stack_top - STACK_SIZE,
            STACK_SIZE,
            Perms::RW,
            crate::process::RegionKind::Stack,
            obs,
        )?;
        let tid = self.create_thread_raw(pid, start, stack_top, suspended);
        // Pass the argument in EBX.
        if let Some(t) = self.procs.get_mut(&pid).and_then(|p| p.threads.get_mut(&tid)) {
            t.ctx.regs[Reg::Ebx.index()] = arg;
        }
        obs.thread_created(pid, tid);
        Ok(tid)
    }

    pub(crate) fn wake_thread(&mut self, pid: Pid, tid: Tid) {
        if let Some(t) = self.procs.get_mut(&pid).and_then(|p| p.threads.get_mut(&tid)) {
            if matches!(t.state, ThreadState::Blocked(_)) || t.state == ThreadState::Ready {
                t.state = ThreadState::Ready;
                if !self.run_queue.contains(&(pid, tid)) {
                    self.run_queue.push_back((pid, tid));
                }
            }
        }
    }

    /// Marks a process (and all its threads) exited.
    pub(crate) fn terminate_process<O: Observer + ?Sized>(
        &mut self,
        pid: Pid,
        code: u32,
        obs: &mut O,
    ) {
        let Some(proc) = self.procs.get_mut(&pid) else {
            return;
        };
        if proc.exit_code.is_some() {
            return;
        }
        proc.exit_code = Some(code);
        let name = proc.name.clone();
        let tids: Vec<Tid> = proc.threads.keys().copied().collect();
        for tid in tids {
            let t = proc.threads.get_mut(&tid).expect("listed");
            if t.state != ThreadState::Exited {
                t.state = ThreadState::Exited;
                obs.thread_exited(pid, tid);
            }
        }
        self.run_queue.retain(|&(p, _)| p != pid);
        obs.process_exited(pid, &name);
    }

    // ------------------------------------------------------------------
    // Scheduler
    // ------------------------------------------------------------------

    fn pump_and_wake(&mut self) {
        let tick = self.ticks();
        self.net.pump(tick);
        let mut to_wake: Vec<(Pid, Tid)> = Vec::new();
        for proc in self.procs.values() {
            for t in proc.threads.values() {
                if let ThreadState::Blocked(reason) = t.state {
                    let ready = match reason {
                        BlockReason::NetRecv { conn } => self.net.readable(conn),
                        BlockReason::Sleep { until } => tick >= until,
                        BlockReason::NetAccept { port } => self.net.inbound_ready(port, tick),
                    };
                    if ready {
                        to_wake.push((proc.pid, t.tid));
                    }
                }
            }
        }
        for (pid, tid) in to_wake {
            self.wake_thread(pid, tid);
        }
    }

    fn pick_next(&mut self) -> Option<(Pid, Tid)> {
        for _ in 0..self.run_queue.len() {
            let (pid, tid) = self.run_queue.pop_front()?;
            let ready = self
                .procs
                .get(&pid)
                .and_then(|p| p.threads.get(&tid))
                .is_some_and(|t| t.is_ready());
            if ready {
                return Some((pid, tid));
            }
        }
        None
    }

    fn any_wakeable(&self) -> bool {
        self.procs.values().filter(|p| p.is_alive()).any(|p| {
            p.threads.values().any(|t| {
                matches!(
                    t.state,
                    ThreadState::Ready
                        | ThreadState::Blocked(BlockReason::Sleep { .. })
                        | ThreadState::Blocked(BlockReason::NetRecv { .. })
                        | ThreadState::Blocked(BlockReason::NetAccept { .. })
                )
            })
        })
    }

    fn all_exited(&self) -> bool {
        self.procs.values().all(|p| !p.is_alive() || !p.has_live_threads())
    }

    /// Runs the machine for at most `budget` instructions, reporting events
    /// to `obs`.
    pub fn run<O: Observer + ?Sized>(&mut self, budget: u64, obs: &mut O) -> RunExit {
        self.emit_boot(obs);
        let start_retired = self.cpu.retired();
        let mut idle_rounds = 0u32;
        loop {
            if self.cpu.retired() - start_retired >= budget {
                return RunExit::Budget;
            }
            self.pump_and_wake();
            let Some((pid, tid)) = self.pick_next() else {
                if self.all_exited() {
                    return RunExit::AllExited;
                }
                if !self.any_wakeable() {
                    return RunExit::Deadlocked;
                }
                idle_rounds += 1;
                self.idle_boost += 64;
                obs.tick(self.ticks());
                if idle_rounds > 100_000 {
                    return RunExit::Deadlocked;
                }
                continue;
            };
            idle_rounds = 0;

            obs.tick(self.ticks());
            obs.context_switch(self.current, (pid, tid));
            self.current = Some((pid, tid));

            // Load thread context.
            {
                let proc = self.procs.get(&pid).expect("picked");
                let thread = proc.threads.get(&tid).expect("picked");
                *self.cpu.context_mut() = thread.ctx;
                self.cpu.set_asid(proc.cr3());
            }

            // Retry a parked syscall first.
            let pending = self
                .procs
                .get(&pid)
                .and_then(|p| p.threads.get(&tid))
                .and_then(|t| t.pending);
            if let Some(PendingSyscall { sysno, args }) = pending {
                let done = self.service_syscall(pid, tid, sysno, args, true, obs);
                self.store_context(pid, tid);
                if !done {
                    continue; // still blocked
                }
                if let Some(t) = self.procs.get_mut(&pid).and_then(|p| p.threads.get_mut(&tid))
                {
                    t.pending = None;
                }
            }

            // Run a quantum.
            let mut steps = 0u32;
            let mut reschedule = true;
            while steps < self.config.timeslice {
                let (executed, event) = {
                    let proc = self.procs.get(&pid).expect("picked");
                    match self.exec {
                        ExecMode::Interpret => {
                            (1, self.cpu.step(&mut self.mem, &proc.aspace, obs))
                        }
                        ExecMode::Cached => self.cpu.run_cached(
                            &mut self.mem,
                            &proc.aspace,
                            &mut self.tcache,
                            obs,
                            self.config.timeslice - steps,
                        ),
                    }
                };
                // A terminal event can arrive with zero instructions retired
                // (e.g. a fetch fault on the first instruction of a block);
                // count one step so the quantum always makes progress.
                steps += executed.max(1);
                match event {
                    StepEvent::Normal | StepEvent::Branch => {}
                    StepEvent::Syscall { .. } => {
                        let sysno_raw = self.cpu.reg(Reg::Eax);
                        let args = [
                            self.cpu.reg(Reg::Ebx),
                            self.cpu.reg(Reg::Ecx),
                            self.cpu.reg(Reg::Edx),
                            self.cpu.reg(Reg::Esi),
                            self.cpu.reg(Reg::Edi),
                        ];
                        match Sysno::from_u32(sysno_raw) {
                            Some(sysno) => {
                                let done =
                                    self.service_syscall(pid, tid, sysno, args, false, obs);
                                if !done {
                                    // Parked: remember the request and block.
                                    if let Some(t) = self
                                        .procs
                                        .get_mut(&pid)
                                        .and_then(|p| p.threads.get_mut(&tid))
                                    {
                                        t.pending = Some(PendingSyscall { sysno, args });
                                    }
                                    break;
                                }
                                // The service may have killed the process.
                                if self.procs.get(&pid).is_none_or(|p| !p.is_alive()) {
                                    reschedule = false;
                                    break;
                                }
                                // It may also have suspended this thread.
                                let state = self
                                    .procs
                                    .get(&pid)
                                    .and_then(|p| p.threads.get(&tid))
                                    .map(|t| t.state);
                                if !matches!(state, Some(ThreadState::Ready)) {
                                    break;
                                }
                            }
                            None => {
                                self.cpu
                                    .set_reg(Reg::Eax, crate::nt::NtStatus::NotImplemented as u32);
                            }
                        }
                    }
                    StepEvent::Halt => {
                        self.store_context(pid, tid);
                        if let Some(t) =
                            self.procs.get_mut(&pid).and_then(|p| p.threads.get_mut(&tid))
                        {
                            t.state = ThreadState::Exited;
                        }
                        obs.thread_exited(pid, tid);
                        if self.procs.get(&pid).is_some_and(|p| !p.has_live_threads()) {
                            self.terminate_process(pid, 0, obs);
                        }
                        reschedule = false;
                        break;
                    }
                    StepEvent::Fault(_) | StepEvent::Illegal { .. } => {
                        // Unhandled fault: kill the process (access violation).
                        self.store_context(pid, tid);
                        self.terminate_process(pid, 0xC000_0005, obs);
                        reschedule = false;
                        break;
                    }
                }
            }
            self.store_context(pid, tid);
            if reschedule {
                let still_ready = self
                    .procs
                    .get(&pid)
                    .and_then(|p| p.threads.get(&tid))
                    .is_some_and(|t| t.is_ready());
                if still_ready {
                    self.run_queue.push_back((pid, tid));
                }
            }
        }
    }

    fn store_context(&mut self, pid: Pid, tid: Tid) {
        let ctx = *self.cpu.context();
        if let Some(t) = self.procs.get_mut(&pid).and_then(|p| p.threads.get_mut(&tid)) {
            t.ctx = ctx;
        }
    }

    pub(crate) fn push_console(&mut self, pid: Pid, text: String) {
        self.console.push((pid, text));
    }
}

/// Translates the `len` bytes at `va` one by one through `translate` and
/// coalesces the physical addresses into contiguous runs.
fn coalesce_runs(
    va: u32,
    len: u32,
    mut translate: impl FnMut(u32) -> Result<u32, MachineError>,
) -> Result<Vec<ByteRange>, MachineError> {
    let mut runs: Vec<ByteRange> = Vec::new();
    for i in 0..len {
        let phys = translate(va.wrapping_add(i))?;
        match runs.last_mut() {
            Some(last) if last.phys + last.len == phys => last.len += 1,
            _ => runs.push(ByteRange { phys, len: 1 }),
        }
    }
    Ok(runs)
}
