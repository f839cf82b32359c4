//! Kernel event callbacks — the PANDA `syscalls2` / `OSI` surface of the
//! reproduction.
//!
//! Anything that wants to observe the guest (the replay plugin manager, the
//! FAROS detector, the CuckooBox-like baseline) implements [`KernelEvents`]
//! (and usually [`faros_emu::cpu::CpuHooks`] as well; the [`Observer`]
//! supertrait bundles the two). All methods default to no-ops.
//!
//! The taint-relevant callbacks carry guest **physical** byte ranges, so a
//! DIFT observer can label or propagate shadow state without re-translating:
//!
//! * [`KernelEvents::net_rx`] — the netflow taint *source* (DMA labeling
//!   point, like PANDA taint2's virtio hook);
//! * [`KernelEvents::file_read`] / [`KernelEvents::file_write`] — the file
//!   tag insertion points (the 26 hooked file syscalls);
//! * [`KernelEvents::guest_copy`] — kernel-mediated guest-to-guest copies
//!   (`NtWriteVirtualMemory` & co.): shadow must be copied byte-for-byte,
//!   the whole-system equivalent of tracing the kernel's memcpy loop;
//! * [`KernelEvents::kernel_write`] — kernel wrote *fresh, untainted* bytes
//!   over a range: shadow must be cleared (also fired when a recycled
//!   physical frame is mapped, so stale taint never leaks across processes).

use crate::handle::{Pid, Tid};
use crate::module::ModuleInfo;
use crate::net::FlowTuple;
use crate::nt::{NtStatus, Sysno};
use crate::process::ProcessInfo;
use faros_emu::cpu::CpuHooks;

/// A contiguous run of guest physical bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByteRange {
    /// First physical address.
    pub phys: u32,
    /// Length in bytes.
    pub len: u32,
}

/// One contiguous piece of a kernel-mediated guest-to-guest copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyRun {
    /// Destination physical address.
    pub dst_phys: u32,
    /// Source physical address.
    pub src_phys: u32,
    /// Length in bytes.
    pub len: u32,
}

/// Kernel-level callbacks (see module docs). All default to no-ops.
#[allow(unused_variables)]
pub trait KernelEvents {
    /// A syscall is about to be serviced.
    fn syscall_enter(&mut self, pid: Pid, tid: Tid, sysno: Sysno, args: &[u32; 5]) {}

    /// A syscall finished with `status` (blocking services report
    /// [`NtStatus::Pending`] on park and fire again on completion).
    fn syscall_exit(&mut self, pid: Pid, tid: Tid, sysno: Sysno, status: NtStatus) {}

    /// A process was created (OSI event).
    fn process_created(&mut self, info: &ProcessInfo) {}

    /// A process exited or was terminated (OSI event).
    fn process_exited(&mut self, pid: Pid, name: &str) {}

    /// A thread was created.
    fn thread_created(&mut self, pid: Pid, tid: Tid) {}

    /// A thread exited.
    fn thread_exited(&mut self, pid: Pid, tid: Tid) {}

    /// A module was loaded. `pid` is `None` for boot-time kernel modules
    /// (mapped into every process). `export_table` holds the physical bytes
    /// of the materialized export table in on-disk order — the region FAROS
    /// scans to taint function pointers.
    fn module_loaded(&mut self, pid: Option<Pid>, module: &ModuleInfo, export_table: &[ByteRange]) {
    }

    /// Network bytes were placed in guest memory on behalf of `pid` — the
    /// netflow labeling point.
    fn net_rx(&mut self, pid: Pid, flow: &FlowTuple, dst: &[ByteRange]) {}

    /// Guest bytes left for the network.
    fn net_tx(&mut self, pid: Pid, flow: &FlowTuple, src: &[ByteRange]) {}

    /// File bytes were placed in guest memory (read or mapped view).
    fn file_read(&mut self, pid: Pid, path: &str, version: u32, dst: &[ByteRange]) {}

    /// Guest bytes were written to a file.
    fn file_write(&mut self, pid: Pid, path: &str, version: u32, src: &[ByteRange]) {}

    /// The kernel copied guest bytes to guest bytes (e.g.
    /// `NtWriteVirtualMemory`). Shadow state must follow.
    fn guest_copy(&mut self, src_pid: Pid, dst_pid: Pid, runs: &[CopyRun]) {}

    /// The kernel wrote fresh untainted bytes (or mapped a recycled frame);
    /// shadow state over `dst` must be cleared.
    fn kernel_write(&mut self, pid: Pid, dst: &[ByteRange]) {}

    /// The scheduler switched threads; register shadow state should be
    /// swapped alongside.
    fn context_switch(&mut self, from: Option<(Pid, Tid)>, to: (Pid, Tid)) {}

    /// The guest printed to the console (`NtDisplayString`).
    fn console_output(&mut self, pid: Pid, text: &str) {}

    /// The machine's virtual clock advanced to `now` outside instruction
    /// retirement (idle boosts, scheduling points). Observers that timestamp
    /// events keep their clock current from this plus `InsnCtx::retired`.
    fn tick(&mut self, now: u64) {}
}

/// The full observer surface: CPU hooks + kernel events.
///
/// The machine's entry points take `O: Observer + ?Sized`, so the
/// `&mut dyn Observer` a scenario build receives is passed on unchanged.
pub trait Observer: CpuHooks + KernelEvents {}

impl<T: CpuHooks + KernelEvents + ?Sized> Observer for T {}

/// An observer that ignores everything — the "replay without FAROS"
/// configuration of Table V.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl CpuHooks for NullObserver {}
impl KernelEvents for NullObserver {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_observer_is_an_observer() {
        fn takes_observer<O: Observer + ?Sized>(_o: &mut O) {}
        takes_observer(&mut NullObserver);
        let unsized_obs: &mut dyn Observer = &mut NullObserver;
        takes_observer(unsized_obs);
    }

    #[test]
    fn byte_range_and_copy_run_are_plain_data() {
        let r = ByteRange { phys: 0x1000, len: 4 };
        let c = CopyRun { dst_phys: 0x2000, src_phys: 0x1000, len: 4 };
        assert_eq!(r, r.clone());
        assert_eq!(c, c.clone());
    }
}
