//! A CuckooBox-style sandbox analyzer (paper §VI-B).
//!
//! Cuckoo-class tools observe *externally visible events*: system calls,
//! file-system activity, process creation, module (DLL) lists, and network
//! traffic. They do not see memory contents or information flow, which is
//! why in-memory-only injections evade them: the paper "failed to identify
//! a trace of \[the\] DLL under the DLL list either under the injector or the
//! victim process".
//!
//! This reproduction collects exactly that event surface and applies the
//! corresponding artifact-based detection logic, so the comparison harness
//! can demonstrate the same blind spot faithfully.

use faros_emu::cpu::CpuHooks;
use faros_kernel::event::{ByteRange, KernelEvents};
use faros_kernel::module::ModuleInfo;
use faros_kernel::net::FlowTuple;
use faros_kernel::nt::{NtStatus, Sysno};
use faros_kernel::process::ProcessInfo;
use faros_kernel::{Pid, Tid};
use faros_replay::Plugin;
use std::collections::{BTreeMap, BTreeSet};

/// One syscall trace entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyscallEntry {
    /// Calling process.
    pub pid: Pid,
    /// Service invoked.
    pub sysno: Sysno,
    /// Completion status.
    pub status: NtStatus,
}

/// The sandbox report: the information a Cuckoo-class tool hands the
/// analyst.
#[derive(Debug, Clone, Default)]
pub struct CuckooReport {
    /// Full syscall trace, in order.
    pub syscalls: Vec<SyscallEntry>,
    /// Process list (name by pid) — the `pslist` view.
    pub pslist: BTreeMap<u32, String>,
    /// Modules (DLL list) per process — the `dlllist` view.
    pub dll_lists: BTreeMap<u32, Vec<String>>,
    /// Files created or written, with writer pid.
    pub files_touched: Vec<(u32, String)>,
    /// Files deleted.
    pub files_deleted: Vec<(u32, String)>,
    /// Network flows observed (remote `ip:port` strings) with byte counts.
    pub netflows: BTreeMap<String, u64>,
    /// Console output captured.
    pub console: Vec<(u32, String)>,
}

impl CuckooReport {
    /// The artifact-based injection check a Cuckoo-class tool can make
    /// *without* memory visibility: did any module get loaded into a victim
    /// process from disk after process start, or did a monitored loader
    /// leave its payload on the filesystem?
    ///
    /// In-memory injections do neither, so this returns `false` for every
    /// attack in the corpus — reproducing the paper's finding that "without
    /// the malfind plugin ... CuckooBox could not flag the attack".
    pub fn detects_injection(&self) -> bool {
        // A DLL list entry that appeared without a corresponding image file
        // would be the tell — but reflectively injected code never registers
        // a module, so the lists only ever contain disk-backed images.
        let phantom_module = self
            .dll_lists
            .values()
            .flatten()
            .any(|m| m.starts_with("<memory>"));
        // Dropped-payload heuristic: an executable written to disk by a
        // process that also spawned something.
        let dropped_exe = self
            .files_touched
            .iter()
            .any(|(_, path)| path.ends_with(".exe") || path.ends_with(".dll"));
        phantom_module || dropped_exe
    }

    /// Whether the report can attribute observed behaviour to a network
    /// origin (Cuckoo sees flows but cannot connect them to memory
    /// contents; the answer for injected-payload questions is always no).
    pub fn has_payload_provenance(&self) -> bool {
        false
    }
}

/// The sandbox observer. Attach to a run (live or replay); extract the
/// report afterwards.
#[derive(Debug, Default)]
pub struct CuckooSandbox {
    report: CuckooReport,
    seen_flows: BTreeSet<String>,
}

impl CuckooSandbox {
    /// Creates an empty sandbox.
    pub fn new() -> CuckooSandbox {
        CuckooSandbox::default()
    }

    /// The report collected so far.
    pub fn report(&self) -> &CuckooReport {
        &self.report
    }
}

impl CpuHooks for CuckooSandbox {}

impl KernelEvents for CuckooSandbox {
    fn syscall_exit(&mut self, pid: Pid, _tid: Tid, sysno: Sysno, status: NtStatus) {
        self.report.syscalls.push(SyscallEntry { pid, sysno, status });
    }

    fn process_created(&mut self, info: &ProcessInfo) {
        self.report.pslist.insert(info.pid.0, info.name.clone());
    }

    fn module_loaded(&mut self, pid: Option<Pid>, module: &ModuleInfo, _table: &[ByteRange]) {
        if let Some(pid) = pid {
            self.report
                .dll_lists
                .entry(pid.0)
                .or_default()
                .push(module.name.clone());
        }
    }

    fn file_write(&mut self, pid: Pid, path: &str, _version: u32, _src: &[ByteRange]) {
        self.report.files_touched.push((pid.0, path.to_string()));
    }

    fn syscall_enter(&mut self, pid: Pid, _tid: Tid, sysno: Sysno, _args: &[u32; 5]) {
        // Track deletions at the request level (the file is gone by exit).
        if sysno == Sysno::NtDeleteFile {
            self.report.files_deleted.push((pid.0, String::new()));
        }
    }

    fn net_rx(&mut self, _pid: Pid, flow: &FlowTuple, dst: &[ByteRange]) {
        let key = format!(
            "{}.{}.{}.{}:{}",
            flow.src_ip[0], flow.src_ip[1], flow.src_ip[2], flow.src_ip[3], flow.src_port
        );
        self.seen_flows.insert(key.clone());
        let bytes: u64 = dst.iter().map(|r| u64::from(r.len)).sum();
        *self.report.netflows.entry(key).or_insert(0) += bytes;
    }

    fn console_output(&mut self, pid: Pid, text: &str) {
        self.report.console.push((pid.0, text.to_string()));
    }
}

impl Plugin for CuckooSandbox {
    fn name(&self) -> &str {
        "cuckoo"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_detects_nothing() {
        let report = CuckooReport::default();
        assert!(!report.detects_injection());
        assert!(!report.has_payload_provenance());
        assert!(report.syscalls.is_empty());
    }

    #[test]
    fn dropped_executable_is_detected() {
        let mut report = CuckooReport::default();
        report.files_touched.push((1, "C:/temp/stage2.exe".to_string()));
        assert!(report.detects_injection(), "disk artifacts are Cuckoo's bread and butter");
    }

    #[test]
    fn collects_events() {
        let mut sandbox = CuckooSandbox::new();
        sandbox.syscall_exit(Pid(1), Tid(1), Sysno::NtClose, NtStatus::Success);
        sandbox.process_created(&ProcessInfo {
            pid: Pid(1),
            cr3: 0x2000,
            name: "a.exe".into(),
            parent: None,
        });
        sandbox.console_output(Pid(1), "hi");
        let report = sandbox.report();
        assert_eq!(report.syscalls.len(), 1);
        assert_eq!(report.pslist[&1], "a.exe");
        assert_eq!(report.console, vec![(1, "hi".to_string())]);
    }
}
