//! Executed basic-block recording — the dynamic half of the
//! static-vs-dynamic coverage cross-check and the raw samples of the
//! deterministic replay profiler.
//!
//! [`BlockCoverage`] watches every retired instruction and records, per
//! process, the virtual addresses at which basic blocks *started*
//! executing (the first instruction after a block-ending one, plus each
//! thread's first instruction), each with the instructions retired inside
//! that block. The keys answer the coverage question an analysis layer
//! (`faros-analyze`) asks afterwards: did any process execute code that no
//! loaded module statically accounts for? That question is ROPocop's
//! hybrid check, and injected payloads answer it loudly — their blocks
//! live in anonymous allocations, not in any image. The counts are the
//! profiler's virtual clock: because they are *instructions retired*
//! rather than wall time, two replays of one recording produce identical
//! samples, which `faros-core` symbolizes into a `ProfileReport`.
//!
//! Counting is per block run, not per instruction: the running thread's
//! open block lives in a field, and its count reaches the per-process map
//! only when the block ends, the thread is switched out, or the results
//! are taken.

use crate::plugin::Plugin;
use faros_emu::cpu::{CpuHooks, InsnCtx};
use faros_kernel::event::KernelEvents;
use faros_kernel::{Pid, Tid};
use std::collections::BTreeMap;

/// Everything [`BlockCoverage`] observed about one process: executed block
/// start VA → instructions retired inside that block.
pub type ProcessBlocks = BTreeMap<u32, u64>;

/// A thread's open block: its start VA and the instructions it retired
/// since its count was last charged.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    block: u32,
    retired: u64,
}

/// The block-coverage recording plugin.
#[derive(Debug, Default)]
pub struct BlockCoverage {
    current: Option<(Pid, Tid)>,
    /// The running thread's open block; `None` when its next instruction
    /// starts a block.
    cursor: Option<Cursor>,
    /// Start VAs of the blocks that switched-out threads are inside.
    parked: BTreeMap<(Pid, Tid), u32>,
    procs: BTreeMap<Pid, ProcessBlocks>,
}

impl BlockCoverage {
    /// Creates an empty recorder.
    pub fn new() -> BlockCoverage {
        BlockCoverage::default()
    }

    /// Consumes the plugin, returning the blocks each process executed,
    /// keyed by pid (the running thread's open block included). Process
    /// identity comes from the replay's machine, not from here.
    pub fn into_processes(mut self) -> BTreeMap<Pid, ProcessBlocks> {
        self.charge_running();
        self.procs
    }

    fn charge_running(&mut self) {
        if let (Some((pid, _)), Some(c)) = (self.current, self.cursor.take()) {
            *self.procs.entry(pid).or_default().entry(c.block).or_insert(0) += c.retired;
        }
    }
}

impl CpuHooks for BlockCoverage {
    fn on_insn(&mut self, ctx: &InsnCtx) {
        if self.current.is_none() {
            return;
        }
        self.cursor.get_or_insert(Cursor { block: ctx.vaddr, retired: 0 }).retired += 1;
        if ctx.instr.ends_block() {
            self.charge_running();
        }
    }
}

impl KernelEvents for BlockCoverage {
    fn context_switch(&mut self, _from: Option<(Pid, Tid)>, to: (Pid, Tid)) {
        if let (Some(key), Some(c)) = (self.current, self.cursor) {
            self.charge_running();
            self.parked.insert(key, c.block);
        }
        self.cursor = self.parked.remove(&to).map(|block| Cursor { block, retired: 0 });
        self.current = Some(to);
    }
}

impl Plugin for BlockCoverage {
    fn name(&self) -> &str {
        "block-coverage"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faros_emu::isa::Instr;

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

    fn blocks(cov: BlockCoverage, pid: Pid) -> Vec<(u32, u64)> {
        let procs = cov.into_processes();
        procs[&pid].iter().map(|(&va, &n)| (va, n)).collect()
    }

    #[test]
    fn instructions_are_charged_to_their_block_start() {
        let mut cov = BlockCoverage::new();
        cov.context_switch(None, (Pid(1), Tid(1)));
        cov.on_insn(&ctx(0x1000, Instr::Nop)); // thread start = block start
        cov.on_insn(&ctx(0x1001, Instr::Nop));
        cov.on_insn(&ctx(0x1002, Instr::Jmp { rel: 10 })); // ends the block
        cov.on_insn(&ctx(0x1010, Instr::Nop)); // after jmp = block start
        cov.on_insn(&ctx(0x1011, Instr::Hlt)); // ends the block
        assert_eq!(blocks(cov, Pid(1)), [(0x1000, 3), (0x1010, 2)]);
    }

    #[test]
    fn a_context_switch_mid_block_keeps_separate_cursors() {
        let mut cov = BlockCoverage::new();
        cov.context_switch(None, (Pid(1), Tid(1)));
        cov.on_insn(&ctx(0x1000, Instr::Nop)); // p1 block start, not a block end
        cov.context_switch(Some((Pid(1), Tid(1))), (Pid(2), Tid(2)));
        cov.on_insn(&ctx(0x2000, Instr::Ret)); // p2 block start and end
        cov.context_switch(Some((Pid(2), Tid(2))), (Pid(1), Tid(1)));
        // p1 resumes mid-block: no new start, still charged to 0x1000.
        cov.on_insn(&ctx(0x1001, Instr::Ret));
        let procs = cov.into_processes();
        let seen: Vec<Vec<(u32, u64)>> =
            procs.values().map(|b| b.iter().map(|(&va, &n)| (va, n)).collect()).collect();
        assert_eq!(seen, [vec![(0x1000, 2)], vec![(0x2000, 1)]]);
    }

    #[test]
    fn a_replay_ending_inside_a_block_still_charges_it() {
        let mut cov = BlockCoverage::new();
        cov.context_switch(None, (Pid(1), Tid(1)));
        cov.on_insn(&ctx(0x1000, Instr::Ret));
        cov.on_insn(&ctx(0x3000, Instr::Nop)); // open when the replay stops
        cov.on_insn(&ctx(0x3001, Instr::Nop));
        assert_eq!(blocks(cov, Pid(1)), [(0x1000, 1), (0x3000, 2)]);
    }

    #[test]
    fn instructions_before_the_first_switch_are_not_attributed() {
        let mut cov = BlockCoverage::new();
        cov.on_insn(&ctx(0x1000, Instr::Nop));
        assert!(cov.into_processes().is_empty());
    }
}
