//! Exercised-capability recording — the dynamic half of the syscall
//! capability cross-check.
//!
//! [`CapabilityMonitor`] rides the existing kernel syscall observation
//! ([`KernelEvents::syscall_enter`] carries the service number and the raw
//! argument registers) and records, per process, which [`Capability`]s the
//! process *concretely exercised*: an `NtAllocateVirtualMemory` with the
//! X bit in its protection argument against a non-self handle is an
//! observed [`Capability::AllocExecRemote`], and so on. Like
//! [`CfiMonitor`](crate::CfiMonitor) it makes no judgement itself — the
//! analysis layer (`faros-analyze`'s `syscap` module) afterwards compares
//! the exercised set against the capability model it derives statically
//! from the process's loaded images.
//!
//! The monitor deliberately implements only [`KernelEvents`] (its
//! [`CpuHooks`] impl is entirely default no-ops), so it adds zero work to
//! the per-instruction fast path: the cost is one match per syscall, and
//! syscalls are rare next to retired instructions.

use crate::plugin::Plugin;
use crate::process::{PerProcess, ProcessRecord};
use faros_emu::cpu::CpuHooks;
use faros_kernel::event::{ByteRange, KernelEvents};
use faros_kernel::module::ModuleInfo;
use faros_kernel::nt::{Sysno, CURRENT_PROCESS, CURRENT_THREAD};
use faros_kernel::process::ProcessInfo;
use faros_kernel::{Pid, Tid};
use faros_support::json::{FromJson, JsonError, JsonValue, ToJson};
use std::collections::BTreeMap;
use std::fmt;

/// The executable-permission bit of a `perms_bits` syscall argument
/// (bit 0 = R, bit 1 = W, bit 2 = X — see `faros-kernel`'s syscall ABI).
const PERM_X: u32 = 0b100;

/// One element of the syscall capability lattice: something an image is
/// able to *do* through the syscall ABI that matters for in-memory
/// injection (or for the data an injected stage would want). Declaration
/// order is the bit index of [`CapSet`] and the sort order everywhere a
/// capability list is rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Capability {
    /// Allocate executable memory in the calling process itself
    /// (`NtAllocateVirtualMemory`, X in perms, self handle).
    AllocExecSelf,
    /// Allocate executable memory in *another* process (X in perms,
    /// non-self handle) — step one of the classic injection recipe.
    AllocExecRemote,
    /// Re-protect existing memory to executable
    /// (`NtProtectVirtualMemory`, X in perms).
    ProtectToExec,
    /// Map a section view executable (`NtMapViewOfSection`, X in perms).
    MapExec,
    /// Write into another process's memory (`NtWriteVirtualMemory`,
    /// non-self handle).
    WriteRemote,
    /// Read another process's memory (`NtReadVirtualMemory`, non-self
    /// handle) — what a debugger holds; benign alone.
    ReadRemote,
    /// Create a thread in another process (`NtCreateThreadEx`, non-self
    /// handle) — the control-redirect step of the classic recipe.
    CreateRemoteThread,
    /// Rewrite another thread's register context
    /// (`NtSetContextThread`, non-self handle) — the hollowing /
    /// hijacking control redirect.
    SetContext,
    /// Spawn a process (`NtCreateUserProcess`).
    SpawnProcess,
    /// Registered library loading (`LdrLoadDll`).
    LoadLibrary,
    /// Send bytes on a socket (`NtSocketSend`).
    SendNet,
    /// Receive bytes from a socket (`NtSocketRecv`).
    RecvNet,
    /// Read file contents (`NtReadFile`).
    ReadSensitive,
}

impl Capability {
    /// Every capability, in declaration (= bit, = sort) order.
    pub const ALL: [Capability; 13] = [
        Capability::AllocExecSelf,
        Capability::AllocExecRemote,
        Capability::ProtectToExec,
        Capability::MapExec,
        Capability::WriteRemote,
        Capability::ReadRemote,
        Capability::CreateRemoteThread,
        Capability::SetContext,
        Capability::SpawnProcess,
        Capability::LoadLibrary,
        Capability::SendNet,
        Capability::RecvNet,
        Capability::ReadSensitive,
    ];

    /// Stable kebab-case name (wire format and report tables).
    pub fn name(self) -> &'static str {
        match self {
            Capability::AllocExecSelf => "alloc-exec-self",
            Capability::AllocExecRemote => "alloc-exec-remote",
            Capability::ProtectToExec => "protect-to-exec",
            Capability::MapExec => "map-exec",
            Capability::WriteRemote => "write-remote",
            Capability::ReadRemote => "read-remote",
            Capability::CreateRemoteThread => "create-remote-thread",
            Capability::SetContext => "set-context",
            Capability::SpawnProcess => "spawn-process",
            Capability::LoadLibrary => "load-library",
            Capability::SendNet => "send-net",
            Capability::RecvNet => "recv-net",
            Capability::ReadSensitive => "read-sensitive",
        }
    }

    fn bit(self) -> u16 {
        1u16 << (self as u16)
    }
}

impl fmt::Display for Capability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl ToJson for Capability {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::Str(self.name().to_string())
    }
}

impl FromJson for Capability {
    fn from_json_value(v: &JsonValue) -> Result<Capability, JsonError> {
        let s = v.as_str().ok_or_else(|| JsonError::decode("Capability must be a string"))?;
        Capability::ALL
            .into_iter()
            .find(|c| c.name() == s)
            .ok_or_else(|| JsonError::decode("unknown Capability"))
    }
}

/// A set of [`Capability`]s — the join-semilattice the capability analysis
/// computes over (join = union, bottom = empty; the lattice is finite, so
/// every ascending chain stabilizes).
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct CapSet(u16);

impl CapSet {
    /// The empty set (lattice bottom, identity of [`CapSet::union`]).
    pub const EMPTY: CapSet = CapSet(0);

    /// A singleton set.
    pub fn of(c: Capability) -> CapSet {
        CapSet(c.bit())
    }

    /// Inserts a capability; returns `true` if it was new.
    pub fn insert(&mut self, c: Capability) -> bool {
        let before = self.0;
        self.0 |= c.bit();
        self.0 != before
    }

    /// Set membership.
    pub fn contains(self, c: Capability) -> bool {
        self.0 & c.bit() != 0
    }

    /// `true` when every element of `other` is in `self`.
    pub fn contains_all(self, other: CapSet) -> bool {
        self.0 & other.0 == other.0
    }

    /// The lattice join (set union).
    pub fn union(self, other: CapSet) -> CapSet {
        CapSet(self.0 | other.0)
    }

    /// Elements of `self` not in `other`.
    pub fn difference(self, other: CapSet) -> CapSet {
        CapSet(self.0 & !other.0)
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of capabilities in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// The members, in [`Capability`] declaration order.
    pub fn iter(self) -> impl Iterator<Item = Capability> {
        Capability::ALL.into_iter().filter(move |c| self.contains(*c))
    }

    /// Renders as `{a, b}` (or `{}` when empty).
    pub fn render(self) -> String {
        let names: Vec<&str> = self.iter().map(Capability::name).collect();
        format!("{{{}}}", names.join(", "))
    }
}

impl FromIterator<Capability> for CapSet {
    fn from_iter<I: IntoIterator<Item = Capability>>(iter: I) -> CapSet {
        let mut s = CapSet::EMPTY;
        for c in iter {
            s.insert(c);
        }
        s
    }
}

impl fmt::Debug for CapSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl ToJson for CapSet {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::Array(self.iter().map(|c| c.to_json_value()).collect())
    }
}

impl FromJson for CapSet {
    fn from_json_value(v: &JsonValue) -> Result<CapSet, JsonError> {
        let caps: Vec<Capability> = Vec::from_json_value(v)?;
        Ok(caps.into_iter().collect())
    }
}

/// The capability a single *concrete* syscall invocation exercises, from
/// the service number and raw argument registers (`a[0..4]` = `ebx ecx
/// edx esi edi`). This is the dynamic twin of the abstract lifting in
/// `faros-analyze`; the two agree by construction on singleton abstract
/// values (pinned by a test on the analyze side).
pub fn concrete_capability(sysno: Sysno, args: &[u32; 5]) -> Option<Capability> {
    match sysno {
        Sysno::NtAllocateVirtualMemory if args[2] & PERM_X != 0 => {
            Some(if args[0] == CURRENT_PROCESS {
                Capability::AllocExecSelf
            } else {
                Capability::AllocExecRemote
            })
        }
        Sysno::NtProtectVirtualMemory if args[3] & PERM_X != 0 => Some(Capability::ProtectToExec),
        Sysno::NtMapViewOfSection if args[2] & PERM_X != 0 => Some(Capability::MapExec),
        Sysno::NtWriteVirtualMemory if args[0] != CURRENT_PROCESS => Some(Capability::WriteRemote),
        Sysno::NtReadVirtualMemory if args[0] != CURRENT_PROCESS => Some(Capability::ReadRemote),
        Sysno::NtCreateThreadEx if args[0] != CURRENT_PROCESS => {
            Some(Capability::CreateRemoteThread)
        }
        Sysno::NtSetContextThread if args[0] != CURRENT_THREAD => Some(Capability::SetContext),
        Sysno::NtCreateUserProcess => Some(Capability::SpawnProcess),
        Sysno::LdrLoadDll => Some(Capability::LoadLibrary),
        Sysno::NtSocketSend => Some(Capability::SendNet),
        Sysno::NtSocketRecv => Some(Capability::RecvNet),
        Sysno::NtReadFile => Some(Capability::ReadSensitive),
        _ => None,
    }
}

/// The capabilities one process concretely exercised.
#[derive(Debug, Clone, Default)]
pub struct CapabilityUse {
    /// Exercised capability → number of exercising syscalls.
    pub counts: BTreeMap<Capability, u64>,
    /// Exercised capabilities in program order, with runs of the same
    /// capability collapsed to one entry — enough to decide subsequence
    /// (recipe) questions while staying bounded by capability alternation
    /// rather than syscall count.
    pub sequence: Vec<Capability>,
}

/// Everything [`CapabilityMonitor`] observed about one process.
pub type ProcessCapabilities = ProcessRecord<CapabilityUse>;

impl ProcessCapabilities {
    /// The set of capabilities the process exercised at least once.
    pub fn exercised(&self) -> CapSet {
        self.seen.counts.keys().copied().collect()
    }

    /// `true` when the steps of `recipe` were exercised in order (as a
    /// subsequence of the observed capability sequence).
    pub fn exercised_in_order(&self, recipe: &[Capability]) -> bool {
        let mut next = 0;
        for &c in &self.seen.sequence {
            if next < recipe.len() && c == recipe[next] {
                next += 1;
            }
        }
        next == recipe.len()
    }
}

/// The exercised-capability recording plugin.
#[derive(Debug, Default)]
pub struct CapabilityMonitor {
    procs: PerProcess<CapabilityUse>,
}

impl CapabilityMonitor {
    /// Creates an empty monitor.
    pub fn new() -> CapabilityMonitor {
        CapabilityMonitor::default()
    }

    /// Consumes the plugin, returning the per-process observations ordered
    /// by pid.
    pub fn into_processes(self) -> Vec<ProcessCapabilities> {
        self.procs.into_records()
    }
}

// All CpuHooks are inherited no-ops: the monitor costs nothing on the
// per-instruction path (the bench-gated fast path stays untouched).
impl CpuHooks for CapabilityMonitor {}

impl KernelEvents for CapabilityMonitor {
    fn syscall_enter(&mut self, pid: Pid, _tid: Tid, sysno: Sysno, args: &[u32; 5]) {
        let Some(cap) = concrete_capability(sysno, args) else { return };
        let p = self.procs.entry(pid);
        *p.counts.entry(cap).or_insert(0) += 1;
        if p.sequence.last() != Some(&cap) {
            p.sequence.push(cap);
        }
    }

    fn process_created(&mut self, info: &ProcessInfo) {
        self.procs.process_created(info);
    }

    fn module_loaded(&mut self, pid: Option<Pid>, module: &ModuleInfo, _table: &[ByteRange]) {
        self.procs.module_loaded(pid, module);
    }
}

impl Plugin for CapabilityMonitor {
    fn name(&self) -> &str {
        "capability-monitor"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SELF_P: u32 = CURRENT_PROCESS;

    #[test]
    fn concrete_lifting_matches_the_abi() {
        // Self RWX alloc vs remote RWX alloc vs RW alloc.
        assert_eq!(
            concrete_capability(Sysno::NtAllocateVirtualMemory, &[SELF_P, 64, 0b111, 0, 0]),
            Some(Capability::AllocExecSelf)
        );
        assert_eq!(
            concrete_capability(Sysno::NtAllocateVirtualMemory, &[7, 64, 0b111, 0, 0]),
            Some(Capability::AllocExecRemote)
        );
        assert_eq!(
            concrete_capability(Sysno::NtAllocateVirtualMemory, &[7, 64, 0b011, 0, 0]),
            None
        );
        // Protect carries perms in a[3]; map in a[2].
        assert_eq!(
            concrete_capability(Sysno::NtProtectVirtualMemory, &[SELF_P, 0x1000, 64, 0b101, 0]),
            Some(Capability::ProtectToExec)
        );
        assert_eq!(
            concrete_capability(Sysno::NtMapViewOfSection, &[3, 0x1000, 0b101, 0, 0]),
            Some(Capability::MapExec)
        );
        // Remote-handle caps vanish on the self handle.
        assert_eq!(
            concrete_capability(Sysno::NtWriteVirtualMemory, &[SELF_P, 0, 0, 0, 0]),
            None
        );
        assert_eq!(
            concrete_capability(Sysno::NtWriteVirtualMemory, &[5, 0, 0, 0, 0]),
            Some(Capability::WriteRemote)
        );
        assert_eq!(
            concrete_capability(Sysno::NtSetContextThread, &[CURRENT_THREAD, 0, 0, 0, 0]),
            None
        );
        assert_eq!(
            concrete_capability(Sysno::NtSetContextThread, &[9, 0, 0, 0, 0]),
            Some(Capability::SetContext)
        );
        // Unconditional caps and non-caps.
        assert_eq!(
            concrete_capability(Sysno::NtSocketRecv, &[1, 0, 0, 0, 0]),
            Some(Capability::RecvNet)
        );
        assert_eq!(concrete_capability(Sysno::NtClose, &[1, 0, 0, 0, 0]), None);
    }

    #[test]
    fn monitor_records_counts_and_order_per_process() {
        let mut mon = CapabilityMonitor::new();
        let t = Tid(1);
        mon.syscall_enter(Pid(1), t, Sysno::NtAllocateVirtualMemory, &[7, 64, 0b111, 0, 0]);
        mon.syscall_enter(Pid(1), t, Sysno::NtWriteVirtualMemory, &[7, 0x1000, 0x2000, 16, 0]);
        mon.syscall_enter(Pid(1), t, Sysno::NtWriteVirtualMemory, &[7, 0x1010, 0x2000, 16, 0]);
        mon.syscall_enter(Pid(1), t, Sysno::NtCreateThreadEx, &[7, 0x1000, 0, 0, 0]);
        mon.syscall_enter(Pid(2), t, Sysno::NtSocketRecv, &[1, 0x3000, 64, 0, 0]);
        let procs = mon.into_processes();
        let (p1, p2) = (&procs[0], &procs[1]);
        assert_eq!(p1.seen.counts[&Capability::WriteRemote], 2);
        assert_eq!(
            p1.seen.sequence,
            vec![
                Capability::AllocExecRemote,
                Capability::WriteRemote,
                Capability::CreateRemoteThread
            ],
            "runs collapse, order preserved"
        );
        assert!(p1.exercised_in_order(&[
            Capability::AllocExecRemote,
            Capability::WriteRemote,
            Capability::CreateRemoteThread
        ]));
        assert!(!p1.exercised_in_order(&[
            Capability::WriteRemote,
            Capability::AllocExecRemote
        ]));
        assert_eq!(p2.exercised(), CapSet::of(Capability::RecvNet));
        assert_eq!(p2.seen.counts[&Capability::RecvNet], 1);
    }

    #[test]
    fn subsequence_matching_handles_interleavings() {
        let mut mon = CapabilityMonitor::new();
        let t = Tid(1);
        // B, A, B orders must match [A, B] (a plain first-occurrence
        // comparison would not).
        mon.syscall_enter(Pid(1), t, Sysno::NtWriteVirtualMemory, &[7, 0, 0, 0, 0]);
        mon.syscall_enter(Pid(1), t, Sysno::NtAllocateVirtualMemory, &[7, 64, 0b111, 0, 0]);
        mon.syscall_enter(Pid(1), t, Sysno::NtWriteVirtualMemory, &[7, 0, 0, 0, 0]);
        let p = &mon.into_processes()[0];
        assert!(p.exercised_in_order(&[Capability::AllocExecRemote, Capability::WriteRemote]));
    }

    #[test]
    fn capset_json_and_render_round_trip() {
        let s: CapSet =
            [Capability::WriteRemote, Capability::AllocExecRemote].into_iter().collect();
        assert_eq!(s.render(), "{alloc-exec-remote, write-remote}");
        assert_eq!(s.len(), 2);
        assert!(s.contains_all(CapSet::of(Capability::WriteRemote)));
        assert!(!CapSet::of(Capability::WriteRemote).contains_all(s));
        let back = CapSet::from_json_value(&s.to_json_value()).unwrap();
        assert_eq!(back, s);
        assert_eq!(CapSet::EMPTY.render(), "{}");
    }
}
