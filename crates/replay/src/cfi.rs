//! Observed control-transfer recording — the dynamic half of the static
//! CFI cross-check.
//!
//! [`CfiMonitor`] watches every *indirect* control transfer the replay
//! retires (`call reg`, `jmp reg`, `ret`) and records, per pid, the
//! site → observed-target sets. It makes no judgement itself: the analysis layer (`faros-analyze`)
//! afterwards checks each observed transfer against the statically derived
//! [`CfiModel`](../../faros_analyze/cfi/struct.CfiModel.html) — ROPocop's
//! shape, where a return landing anywhere but a call-preceded address, or
//! an indirect branch escaping its resolved target set, is a code-reuse
//! signal no injected-byte detector can raise.
//!
//! The monitor reads each target straight from the emulator's
//! `on_control` hook, which fires with the *resolved* destination for
//! every `CallReg`/`JmpReg`/`Ret`, so the recording is exact even across
//! context switches. It is the one record of observed indirect edges: the
//! static value-set analysis is checked against it as well.

use crate::plugin::Plugin;
use faros_emu::cpu::{CpuHooks, InsnCtx, ShadowLoc};
use faros_emu::isa::Instr;
use faros_kernel::event::KernelEvents;
use faros_kernel::{Pid, Tid};
use faros_support::json::{FromJson, JsonError, JsonValue, ToJson};
use std::collections::{BTreeMap, BTreeSet};

/// The class of an observed indirect control transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TransferKind {
    /// `call reg` — indirect call through a register.
    IndirectCall,
    /// `jmp reg` — indirect jump through a register.
    IndirectJmp,
    /// `ret` — return through the stack.
    Return,
}

impl TransferKind {
    /// Stable lower-case name (wire format and report tables).
    pub fn name(self) -> &'static str {
        match self {
            TransferKind::IndirectCall => "indirect-call",
            TransferKind::IndirectJmp => "indirect-jmp",
            TransferKind::Return => "ret",
        }
    }
}

impl ToJson for TransferKind {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::Str(self.name().to_string())
    }
}

impl FromJson for TransferKind {
    fn from_json_value(v: &JsonValue) -> Result<TransferKind, JsonError> {
        match v.as_str() {
            Some("indirect-call") => Ok(TransferKind::IndirectCall),
            Some("indirect-jmp") => Ok(TransferKind::IndirectJmp),
            Some("ret") => Ok(TransferKind::Return),
            _ => Err(JsonError::decode("unknown TransferKind")),
        }
    }
}

/// Every target a single `call reg` / `jmp reg` / `ret` site was observed
/// transferring control to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferSite {
    /// What kind of transfer the site performs.
    pub kind: TransferKind,
    /// The set of destinations control actually reached from this site.
    pub targets: BTreeSet<u32>,
}

/// Everything [`CfiMonitor`] observed about one process: site VA →
/// observed transfer kind and target set.
pub type ProcessTransfers = BTreeMap<u32, TransferSite>;

/// The indirect-control-transfer recording plugin.
#[derive(Debug, Default)]
pub struct CfiMonitor {
    current: Option<(Pid, Tid)>,
    procs: BTreeMap<Pid, ProcessTransfers>,
}

impl CfiMonitor {
    /// Creates an empty monitor.
    pub fn new() -> CfiMonitor {
        CfiMonitor::default()
    }

    /// Consumes the plugin, returning the transfer sites each process
    /// executed, keyed by pid.
    pub fn into_processes(self) -> BTreeMap<Pid, ProcessTransfers> {
        self.procs
    }
}

impl CpuHooks for CfiMonitor {
    fn on_control(&mut self, ctx: &InsnCtx, target: u32, _target_src: Option<ShadowLoc>) {
        let kind = match ctx.instr {
            Instr::CallReg { .. } => TransferKind::IndirectCall,
            Instr::JmpReg { .. } => TransferKind::IndirectJmp,
            Instr::Ret => TransferKind::Return,
            // Direct jumps and calls carry their target in the code bytes;
            // the static CFG already accounts for them.
            _ => return,
        };
        let Some((pid, _tid)) = self.current else { return };
        self.procs
            .entry(pid)
            .or_default()
            .entry(ctx.vaddr)
            .or_insert_with(|| TransferSite { kind, targets: BTreeSet::new() })
            .targets
            .insert(target);
    }
}

impl KernelEvents for CfiMonitor {
    fn context_switch(&mut self, _from: Option<(Pid, Tid)>, to: (Pid, Tid)) {
        self.current = Some(to);
    }
}

impl Plugin for CfiMonitor {
    fn name(&self) -> &str {
        "cfi-monitor"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faros_emu::isa::Reg;

    fn ctx(vaddr: u32, instr: Instr) -> InsnCtx {
        InsnCtx {
            vaddr,
            code_phys: [0; faros_emu::encode::MAX_INSTR_LEN],
            len: 1,
            instr,
            asid: faros_emu::mmu::Asid(0),
            retired: 0,
        }
    }

    #[test]
    fn records_targets_per_site_and_kind() {
        let mut mon = CfiMonitor::new();
        mon.context_switch(None, (Pid(1), Tid(1)));
        mon.on_control(&ctx(0x1000, Instr::CallReg { target: Reg::Ebp }), 0x5000, None);
        mon.on_control(&ctx(0x1000, Instr::CallReg { target: Reg::Ebp }), 0x6000, None);
        mon.on_control(&ctx(0x2000, Instr::Ret), 0x1003, Some(ShadowLoc::Mem(0x40)));
        mon.on_control(&ctx(0x3000, Instr::JmpReg { target: Reg::Edi }), 0x7000, None);
        // Direct transfers are not recorded.
        mon.on_control(&ctx(0x4000, Instr::Jmp { rel: 4 }), 0x4006, None);
        mon.on_control(&ctx(0x4100, Instr::Call { rel: -8 }), 0x40fe, None);
        let procs = mon.into_processes();
        let sites = &procs[&Pid(1)];
        assert_eq!(sites.len(), 3);
        assert_eq!(sites[&0x1000].kind, TransferKind::IndirectCall);
        assert_eq!(
            sites[&0x1000].targets.iter().copied().collect::<Vec<_>>(),
            vec![0x5000, 0x6000]
        );
        assert_eq!(sites[&0x2000].kind, TransferKind::Return);
        assert_eq!(sites[&0x3000].kind, TransferKind::IndirectJmp);
    }

    #[test]
    fn transfers_attribute_to_the_scheduled_process() {
        let mut mon = CfiMonitor::new();
        mon.context_switch(None, (Pid(1), Tid(1)));
        mon.on_control(&ctx(0x1000, Instr::Ret), 0x2000, None);
        mon.context_switch(Some((Pid(1), Tid(1))), (Pid(2), Tid(2)));
        mon.on_control(&ctx(0x1000, Instr::Ret), 0x3000, None);
        let procs = mon.into_processes();
        assert_eq!(procs.keys().copied().collect::<Vec<_>>(), [Pid(1), Pid(2)]);
        assert!(procs.values().all(|sites| sites[&0x1000].targets.len() == 1));
    }
}
