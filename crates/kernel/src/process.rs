//! Processes, threads, and VAD-style region bookkeeping.

use crate::handle::{HandleTable, Pid, Tid};
use crate::module::ModuleInfo;
use crate::nt::Sysno;
use faros_emu::cpu::CpuContext;
use faros_emu::mmu::{AddressSpace, Asid};
use std::collections::BTreeMap;
use std::fmt;

/// Why a thread is blocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockReason {
    /// Waiting for bytes on a socket connection.
    NetRecv {
        /// Fabric connection id.
        conn: u32,
    },
    /// Waiting for an inbound connection on a listening port.
    NetAccept {
        /// Listening guest port.
        port: u16,
    },
    /// Sleeping until a virtual tick.
    Sleep {
        /// Wake tick.
        until: u64,
    },
}

/// Thread scheduling state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// Runnable.
    Ready,
    /// Parked on a blocking operation.
    Blocked(BlockReason),
    /// Suspended (`NtSuspendThread`, or created suspended). The field is the
    /// suspend count.
    Suspended(u32),
    /// Finished.
    Exited,
}

/// A syscall that returned `Pending` and must be retried when the thread
/// unblocks (the gate instruction has already retired, so the kernel re-runs
/// the *service*, not the instruction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingSyscall {
    /// The service to retry.
    pub sysno: Sysno,
    /// Its captured arguments.
    pub args: [u32; 5],
}

/// A guest thread.
#[derive(Debug, Clone)]
pub struct Thread {
    /// Thread id (machine-wide unique).
    pub tid: Tid,
    /// Saved architectural context.
    pub ctx: CpuContext,
    /// Scheduling state.
    pub state: ThreadState,
    /// Blocked syscall to retry on wake.
    pub pending: Option<PendingSyscall>,
}

impl Thread {
    /// Creates a ready thread with the given context.
    pub fn new(tid: Tid, ctx: CpuContext) -> Thread {
        Thread { tid, ctx, state: ThreadState::Ready, pending: None }
    }

    /// Returns `true` if the scheduler may pick this thread.
    pub fn is_ready(&self) -> bool {
        self.state == ThreadState::Ready
    }
}

/// What a memory region is backed by — the VAD kind
/// `NtQueryVirtualMemory` reports and malfind-style scanners inspect.
/// Page permissions are not VAD information: they live only in the page
/// table ([`Process::aspace`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegionKind {
    /// Part of a loaded module image.
    Image {
        /// Module (file) name.
        module: String,
    },
    /// Anonymous private memory (`NtAllocateVirtualMemory`).
    Private,
    /// A thread stack.
    Stack,
    /// A mapped view of a file section.
    Mapped {
        /// Backing file path.
        path: String,
    },
}

/// One VAD-style virtual memory region: its extent and its kind. Every
/// page of the extent is mapped, and each page's current permissions are
/// its page-table entry's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VadRegion {
    /// Base virtual address (page aligned).
    pub base: u32,
    /// Size in bytes (page multiple).
    pub size: u32,
    /// Backing kind.
    pub kind: RegionKind,
}

impl VadRegion {
    /// Returns `true` if `va` lies inside the region.
    pub fn contains(&self, va: u32) -> bool {
        va >= self.base && (va - self.base) < self.size
    }
}

/// Summary of a process for plugin callbacks (the OSI view).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessInfo {
    /// Process id.
    pub pid: Pid,
    /// CR3 / address-space id — the paper's architecture-level identity.
    pub cr3: u32,
    /// Image name.
    pub name: String,
    /// Parent process, if any.
    pub parent: Option<Pid>,
}

/// A guest process.
#[derive(Debug)]
pub struct Process {
    /// Process id.
    pub pid: Pid,
    /// Image name (e.g. `notepad.exe`).
    pub name: String,
    /// Parent pid.
    pub parent: Option<Pid>,
    /// The process address space; its [`Asid`] is the CR3 value.
    pub aspace: AddressSpace,
    /// Handle table.
    pub handles: HandleTable,
    /// Threads by tid.
    pub threads: BTreeMap<Tid, Thread>,
    /// VAD-style region list, kept sorted by base.
    pub regions: Vec<VadRegion>,
    /// Loaded modules (the "DLL list" sandbox tools inspect).
    pub modules: Vec<ModuleInfo>,
    /// Exit code once terminated.
    pub exit_code: Option<u32>,
    /// Bump pointer for `NtAllocateVirtualMemory` (when no address given).
    pub next_alloc_va: u32,
}

impl Process {
    /// Creates an empty process around an address space.
    pub fn new(pid: Pid, name: &str, parent: Option<Pid>, aspace: AddressSpace) -> Process {
        Process {
            pid,
            name: name.to_string(),
            parent,
            aspace,
            handles: HandleTable::new(),
            threads: BTreeMap::new(),
            regions: Vec::new(),
            modules: Vec::new(),
            exit_code: None,
            next_alloc_va: 0x0100_0000,
        }
    }

    /// The CR3 value (address-space id).
    pub fn cr3(&self) -> Asid {
        self.aspace.asid()
    }

    /// The OSI summary.
    pub fn info(&self) -> ProcessInfo {
        ProcessInfo {
            pid: self.pid,
            cr3: self.cr3().0,
            name: self.name.clone(),
            parent: self.parent,
        }
    }

    /// Returns `true` until the process has exited.
    pub fn is_alive(&self) -> bool {
        self.exit_code.is_none()
    }

    /// Registers a region, keeping the list sorted by base.
    pub fn add_region(&mut self, region: VadRegion) {
        let at = self.regions.partition_point(|r| r.base < region.base);
        self.regions.insert(at, region);
    }

    /// Removes the region starting exactly at `base`, returning it.
    pub fn remove_region(&mut self, base: u32) -> Option<VadRegion> {
        let idx = self.regions.iter().position(|r| r.base == base)?;
        Some(self.regions.remove(idx))
    }

    /// Finds the region containing `va`.
    pub fn region_containing(&self, va: u32) -> Option<&VadRegion> {
        self.regions.iter().find(|r| r.contains(va))
    }

    /// Returns `true` if any thread is not exited.
    pub fn has_live_threads(&self) -> bool {
        self.threads.values().any(|t| t.state != ThreadState::Exited)
    }
}

impl fmt::Display for Process {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}, {})", self.name, self.pid, self.cr3())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proc() -> Process {
        Process::new(Pid(4), "test.exe", None, AddressSpace::new(Asid(0x4000)))
    }

    #[test]
    fn info_exposes_cr3() {
        let p = proc();
        let info = p.info();
        assert_eq!(info.cr3, 0x4000);
        assert_eq!(info.name, "test.exe");
        assert_eq!(info.parent, None);
    }

    #[test]
    fn regions_sorted_and_searchable() {
        let mut p = proc();
        p.add_region(VadRegion { base: 0x3000, size: 0x1000, kind: RegionKind::Private });
        p.add_region(VadRegion { base: 0x1000, size: 0x2000, kind: RegionKind::Image { module: "a".into() } });
        assert_eq!(p.regions[0].base, 0x1000);
        assert_eq!(p.regions[1].base, 0x3000);
        assert!(p.region_containing(0x2fff).is_some());
        assert!(p.region_containing(0x4000).is_none());
        assert_eq!(p.region_containing(0x3000).unwrap().base, 0x3000);
    }

    #[test]
    fn remove_region_by_base() {
        let mut p = proc();
        p.add_region(VadRegion { base: 0x1000, size: 0x1000, kind: RegionKind::Private });
        assert!(p.remove_region(0x2000).is_none());
        assert!(p.remove_region(0x1000).is_some());
        assert!(p.regions.is_empty());
    }

    #[test]
    fn thread_lifecycle() {
        let mut p = proc();
        let t = Thread::new(Tid(1), CpuContext::default());
        assert!(t.is_ready());
        p.threads.insert(t.tid, t);
        assert!(p.has_live_threads());
        p.threads.get_mut(&Tid(1)).unwrap().state = ThreadState::Exited;
        assert!(!p.has_live_threads());
        assert!(p.is_alive());
        p.exit_code = Some(0);
        assert!(!p.is_alive());
    }

    #[test]
    fn region_contains_bounds() {
        let r = VadRegion { base: 0x1000, size: 0x1000, kind: RegionKind::Stack };
        assert!(!r.contains(0xfff));
        assert!(r.contains(0x1000));
        assert!(r.contains(0x1fff));
        assert!(!r.contains(0x2000));
    }
}
