//! The decode-once translation cache.
//!
//! [`Cpu::step`] pays a full fetch + translate + decode for every retired
//! instruction. The [`TransCache`] removes that cost the way QEMU's TB cache
//! (and SpiderPig's pre-instrumented code regions) do: guest code is decoded
//! once into per-address-space *cached blocks* — straight-line instruction
//! runs ending at a control transfer — and re-executed from the decoded form.
//! The cache saves decoding only: every hook still fires per instruction,
//! exactly as the interpreter fires it.
//!
//! # Key scheme and invalidation
//!
//! Blocks are keyed by `(asid, entry VA)`; the *code version* is implicit —
//! any write into a frame that holds cached code invalidates the whole cache
//! and bumps [`TransCache::version`]. Invalidations come from two directions:
//!
//! * **guest stores** — the block executor watches every store-flavored flow
//!   hook through a private `CodeWatch` and stops the current block before
//!   the next instruction when a watched frame was hit, so self-modifying
//!   code re-decodes before any stale instruction executes;
//! * **kernel writes and mapping changes** — the kernel calls
//!   [`TransCache::note_write`] for writes performed on behalf of syscalls
//!   and [`TransCache::invalidate_all`] when mappings change (module
//!   load/unload, permission changes), since a remap can silently change
//!   what a virtual address decodes to.
//!
//! Correctness bar: running a workload through [`Cpu::run_cached`] must be
//! observably identical — hook for hook, counter for counter — to running it
//! through [`Cpu::step`]. The corpus-wide differential gate in CI holds the
//! two executors to byte-identical analysis reports.

use crate::cpu::{Cpu, CpuHooks, InsnCtx, ShadowLoc, StepEvent};
use crate::encode::MAX_INSTR_LEN;
use crate::isa::{Instr, Reg, Width};
use crate::mem::{page_number, PhysMem};
use crate::mmu::{AddressSpace, Asid};
use std::cell::Cell;
use std::collections::HashMap;

/// Upper bound on instructions per cached block; straight-line runs longer
/// than this are split (the executor chains across the split seamlessly).
const MAX_BLOCK_INSNS: usize = 64;

/// One predecoded instruction: everything `Cpu::step` derives from the code
/// bytes, captured once at build time.
#[derive(Debug, Clone, Copy)]
struct CachedInsn {
    vaddr: u32,
    len: u8,
    instr: Instr,
    code_phys: [u32; MAX_INSTR_LEN],
}

/// A straight-line run of predecoded instructions.
#[derive(Debug)]
struct CachedBlock {
    asid: Asid,
    entry: u32,
    insns: Vec<CachedInsn>,
    /// Last observed successor block (direct block-to-block chaining). The
    /// hint is validated against `(asid, entry)` before use, so a stale or
    /// alternating edge (e.g. a conditional branch) falls back to the map.
    succ: Option<usize>,
}

/// Translation-cache counters, mirrored into the `tc.*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcStats {
    /// Block lookups served from the cache.
    pub hits: u64,
    /// Block lookups that had to decode.
    pub misses: u64,
    /// Whole-cache invalidations (code writes, mapping changes).
    pub invalidations: u64,
    /// Blocks decoded (misses that produced at least one instruction).
    pub blocks_built: u64,
    /// Always 0. Kept only because the job benchmark still reads it as
    /// `emu.tc_elided_blocks`; goes away with that metric.
    pub elided_blocks: u64,
}

/// Watches stores for writes into frames that back cached code.
///
/// The watch is consulted from inside the hook stack (shared reference), so
/// the "a cached frame was written" signal is a [`Cell`] the owning
/// [`TransCache`] drains between blocks.
#[derive(Debug, Default)]
struct CodeWatch {
    /// `code_frames[pfn]` is set when any cached block was decoded from
    /// bytes on that physical frame.
    code_frames: Vec<bool>,
    /// Set by the executor's hook shim when a store hit a watched frame.
    pending: Cell<bool>,
}

impl CodeWatch {
    fn watches(&self, pfn: u32) -> bool {
        self.code_frames.get(pfn as usize).copied().unwrap_or(false)
    }

    fn mark(&mut self, pfn: u32) {
        let i = pfn as usize;
        if self.code_frames.len() <= i {
            self.code_frames.resize(i + 1, false);
        }
        self.code_frames[i] = true;
    }

    fn note_phys(&self, phys: &[u32]) {
        for &p in phys {
            if self.watches(page_number(p)) {
                self.pending.set(true);
            }
        }
    }
}

/// The per-machine decoded-block cache. See the module docs for the key
/// scheme and invalidation rules.
#[derive(Debug, Default)]
pub struct TransCache {
    map: HashMap<(Asid, u32), usize>,
    blocks: Vec<CachedBlock>,
    watch: CodeWatch,
    version: u64,
    stats: TcStats,
}

impl TransCache {
    /// Creates an empty cache.
    pub fn new() -> TransCache {
        TransCache::default()
    }

    /// Lookup / decode / invalidation counters.
    pub fn stats(&self) -> TcStats {
        self.stats
    }

    /// The code version: bumped on every invalidation, so `(asid, VA,
    /// version)` names the decoded bytes a block was built from.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Drops every cached block and bumps the code version.
    pub fn invalidate_all(&mut self) {
        // Cheap when already empty (repeated mapping changes at boot).
        if self.map.is_empty() && self.watch.code_frames.is_empty() {
            self.watch.pending.set(false);
            return;
        }
        self.map.clear();
        self.blocks.clear();
        self.watch.code_frames.clear();
        self.watch.pending.set(false);
        self.version += 1;
        self.stats.invalidations += 1;
    }

    /// Reports a physical-memory write performed outside guest execution
    /// (syscall service, DMA-style kernel copies). Invalidates if the run
    /// `[start, start + len)` overlaps any frame holding cached code.
    pub fn note_write(&mut self, start: u32, len: u32) {
        if len == 0 {
            return;
        }
        let first = page_number(start);
        let last = page_number(start.saturating_add(len - 1));
        for pfn in first..=last {
            if self.watch.watches(pfn) {
                self.invalidate_all();
                return;
            }
        }
    }

    /// Drains the executor's pending-write signal, invalidating when a guest
    /// store hit cached code. Returns `true` if the cache was flushed.
    fn flush_if_pending(&mut self) -> bool {
        if self.watch.pending.get() {
            self.invalidate_all();
            true
        } else {
            false
        }
    }

    fn lookup_or_build(
        &mut self,
        mem: &PhysMem,
        aspace: &AddressSpace,
        asid: Asid,
        entry: u32,
        prev: Option<usize>,
    ) -> Result<usize, StepEvent> {
        // Chained edge first: no hashing when the last block already
        // recorded where control went.
        if let Some(p) = prev {
            if let Some(s) = self.blocks[p].succ {
                let b = &self.blocks[s];
                if b.asid == asid && b.entry == entry {
                    self.stats.hits += 1;
                    return Ok(s);
                }
            }
        }
        if let Some(&idx) = self.map.get(&(asid, entry)) {
            self.stats.hits += 1;
            if let Some(p) = prev {
                self.blocks[p].succ = Some(idx);
            }
            return Ok(idx);
        }
        self.stats.misses += 1;
        let idx = self.build_block(mem, aspace, asid, entry)?;
        if let Some(p) = prev {
            self.blocks[p].succ = Some(idx);
        }
        Ok(idx)
    }

    fn build_block(
        &mut self,
        mem: &PhysMem,
        aspace: &AddressSpace,
        asid: Asid,
        entry: u32,
    ) -> Result<usize, StepEvent> {
        let mut insns = Vec::new();
        let mut va = entry;
        loop {
            let (instr, len, code_phys) = match Cpu::fetch_decode(mem, aspace, va) {
                Ok(ok) => ok,
                // The entry itself is unfetchable: surface the event (the
                // interpreter would report exactly this from `step`).
                Err(ev) if insns.is_empty() => return Err(ev),
                // A later instruction is unfetchable: end the block here.
                // The executor falls off the end, re-enters lookup at the
                // bad address, and the entry case reports the event.
                Err(_) => break,
            };
            for &p in &code_phys[..len] {
                self.watch.mark(page_number(p));
            }
            insns.push(CachedInsn {
                vaddr: va,
                len: len as u8,
                instr,
                code_phys,
            });
            if instr.ends_block() || insns.len() >= MAX_BLOCK_INSNS {
                break;
            }
            va = va.wrapping_add(len as u32);
        }
        let idx = self.blocks.len();
        self.blocks.push(CachedBlock { asid, entry, insns, succ: None });
        self.map.insert((asid, entry), idx);
        self.stats.blocks_built += 1;
        Ok(idx)
    }
}

/// The executor's per-block hook shim: watches stores for self-modifying
/// code and forwards every hook unchanged, so observers see the exact
/// interpreter event stream.
struct BlockHooks<'a, H: CpuHooks> {
    inner: &'a mut H,
    watch: &'a CodeWatch,
}

impl<H: CpuHooks> CpuHooks for BlockHooks<'_, H> {
    fn on_insn(&mut self, ctx: &InsnCtx) {
        self.inner.on_insn(ctx);
    }
    fn flow_copy(&mut self, dst: Reg, src: Reg) {
        self.inner.flow_copy(dst, src);
    }
    fn flow_union(&mut self, dst: Reg, srcs: &[Reg], keep_dst: bool) {
        self.inner.flow_union(dst, srcs, keep_dst);
    }
    fn flow_delete(&mut self, dst: Reg) {
        self.inner.flow_delete(dst);
    }
    fn flow_addr_dep(&mut self, dst: Reg, addr_srcs: &[Reg]) {
        self.inner.flow_addr_dep(dst, addr_srcs);
    }
    fn flow_addr_dep_bytes(&mut self, phys: &[u32], addr_srcs: &[Reg]) {
        self.inner.flow_addr_dep_bytes(phys, addr_srcs);
    }
    fn flow_load(&mut self, dst: Reg, phys: &[u32]) {
        self.inner.flow_load(dst, phys);
    }
    fn flow_store(&mut self, phys: &[u32], src: Reg) {
        self.watch.note_phys(phys);
        self.inner.flow_store(phys, src);
    }
    fn flow_delete_mem(&mut self, phys: &[u32]) {
        self.watch.note_phys(phys);
        self.inner.flow_delete_mem(phys);
    }
    fn on_load(&mut self, ctx: &InsnCtx, vaddr: u32, phys: &[u32], width: Width, dst: Reg) {
        self.inner.on_load(ctx, vaddr, phys, width, dst);
    }
    fn on_control(&mut self, ctx: &InsnCtx, target: u32, target_src: Option<ShadowLoc>) {
        self.inner.on_control(ctx, target, target_src);
    }
    fn on_branch(&mut self, ctx: &InsnCtx, taken: bool) {
        self.inner.on_branch(ctx, taken);
    }
    fn flow_flags(&mut self, srcs: &[Reg]) {
        self.inner.flow_flags(srcs);
    }
}

impl Cpu {
    /// Executes up to `fuel` instructions through the translation cache.
    ///
    /// Observably identical to calling [`Cpu::step`] `fuel` times and
    /// stopping at the first event a scheduler acts on: every hook fires in
    /// the same order with the same arguments.
    ///
    /// Returns the number of instructions retired and the event that ended
    /// the run: [`StepEvent::Syscall`], [`StepEvent::Halt`],
    /// [`StepEvent::Fault`], [`StepEvent::Illegal`] — or
    /// [`StepEvent::Normal`] when the fuel ran out.
    pub fn run_cached<H: CpuHooks>(
        &mut self,
        mem: &mut PhysMem,
        aspace: &AddressSpace,
        tc: &mut TransCache,
        hooks: &mut H,
        fuel: u32,
    ) -> (u32, StepEvent) {
        let mut executed = 0u32;
        let mut prev: Option<usize> = None;
        while executed < fuel {
            if tc.flush_if_pending() {
                prev = None;
            }
            let entry = self.context().eip;
            let asid = self.asid();
            let idx = match tc.lookup_or_build(mem, aspace, asid, entry, prev) {
                Ok(idx) => idx,
                Err(ev) => return (executed, ev),
            };
            let mut event = StepEvent::Normal;
            let mut terminal = false;
            {
                let block = &tc.blocks[idx];
                let mut shim = BlockHooks { inner: hooks, watch: &tc.watch };
                for insn in &block.insns {
                    if executed >= fuel {
                        break;
                    }
                    debug_assert_eq!(self.context().eip, insn.vaddr);
                    let ctx = InsnCtx {
                        vaddr: insn.vaddr,
                        code_phys: insn.code_phys,
                        len: insn.len,
                        instr: insn.instr,
                        asid,
                        retired: self.retired(),
                    };
                    shim.inner.on_insn(&ctx);
                    event = self.exec_instr(mem, aspace, &mut shim, &ctx);
                    if matches!(event, StepEvent::Fault(_)) {
                        // Precise fault: nothing retired, no flows fired.
                        terminal = true;
                        break;
                    }
                    self.retire_one();
                    executed += 1;
                    match event {
                        StepEvent::Normal => {
                            // A store hit cached code: stop before the next
                            // (possibly stale) instruction and re-decode.
                            if shim.watch.pending.get() {
                                break;
                            }
                        }
                        StepEvent::Branch => break,
                        _ => {
                            terminal = true;
                            break;
                        }
                    }
                }
            }
            if terminal {
                return (executed, event);
            }
            prev = Some(idx);
        }
        (executed, StepEvent::Normal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::cpu::NoHooks;
    use crate::isa::Mem;
    use crate::mem::PAGE_SIZE;
    use crate::mmu::Perms;

    fn machine(code: &Asm) -> (Cpu, PhysMem, AddressSpace) {
        let mut mem = PhysMem::new(16);
        let code_frame = mem.alloc_frame().unwrap();
        let data_frame = mem.alloc_frame().unwrap();
        let stack_frame = mem.alloc_frame().unwrap();
        let mut aspace = AddressSpace::new(Asid(0x1000));
        aspace.map(0x1000, code_frame, Perms::RX);
        aspace.map(0x2000, data_frame, Perms::RW);
        aspace.map(0x3000, stack_frame, Perms::RW);
        let bytes = code.clone().assemble().unwrap();
        assert!(bytes.len() <= PAGE_SIZE as usize);
        mem.write(code_frame * PAGE_SIZE, &bytes).unwrap();
        let mut cpu = Cpu::new();
        cpu.context_mut().eip = 0x1000;
        cpu.set_reg(Reg::Esp, 0x4000);
        cpu.set_asid(Asid(0x1000));
        (cpu, mem, aspace)
    }

    fn fib_program() -> Asm {
        let mut a = Asm::new(0x1000);
        a.mov_ri(Reg::Eax, 0);
        a.mov_ri(Reg::Ebx, 1);
        a.mov_ri(Reg::Ecx, 12);
        a.label("loop");
        a.mov_rr(Reg::Edx, Reg::Eax);
        a.add_ri(Reg::Edx, 0);
        a.mov_rr(Reg::Eax, Reg::Ebx);
        a.push(Reg::Ebx);
        a.pop(Reg::Esi);
        a.add_ri(Reg::Edx, 0);
        a.st4(Mem::abs(0x2000), Reg::Esi);
        a.ld4(Reg::Esi, Mem::abs(0x2000));
        // One instruction of every remaining flow and control shape.
        a.lea(Reg::Edi, Mem::abs(0x2010)); // union, no sources
        a.st4(Mem::reg(Reg::Edi), Reg::Edx); // store + memory addr dep
        a.ld1(Reg::Esi, Mem::reg(Reg::Edi)); // narrow load + register addr dep
        a.sub_rr(Reg::Esi, Reg::Edx); // union
        a.xor_rr(Reg::Esi, Reg::Esi); // delete idiom
        a.push_imm(7); // constant store
        a.pop(Reg::Esi);
        a.cmp_rr(Reg::Esi, Reg::Edx); // flags from registers
        a.mov_label(Reg::Ebp, "leaf");
        a.call_reg(Reg::Ebp); // indirect control with a target source
        a.sub_ri(Reg::Ecx, 1);
        a.cmp_ri(Reg::Ecx, 0);
        a.jnz("loop");
        a.hlt();
        a.label("leaf");
        a.ret();
        a
    }

    /// Logs every hook call with its arguments, in order.
    #[derive(Default)]
    struct Recorder(Vec<String>);

    impl CpuHooks for Recorder {
        fn on_insn(&mut self, ctx: &InsnCtx) {
            self.0.push(format!("on_insn {ctx:?}"));
        }
        fn flow_copy(&mut self, dst: Reg, src: Reg) {
            self.0.push(format!("flow_copy {dst:?} {src:?}"));
        }
        fn flow_union(&mut self, dst: Reg, srcs: &[Reg], keep: bool) {
            self.0.push(format!("flow_union {dst:?} {srcs:?} {keep}"));
        }
        fn flow_delete(&mut self, dst: Reg) {
            self.0.push(format!("flow_delete {dst:?}"));
        }
        fn flow_addr_dep(&mut self, dst: Reg, srcs: &[Reg]) {
            self.0.push(format!("flow_addr_dep {dst:?} {srcs:?}"));
        }
        fn flow_addr_dep_bytes(&mut self, phys: &[u32], srcs: &[Reg]) {
            self.0.push(format!("flow_addr_dep_bytes {phys:?} {srcs:?}"));
        }
        fn flow_load(&mut self, dst: Reg, phys: &[u32]) {
            self.0.push(format!("flow_load {dst:?} {phys:?}"));
        }
        fn flow_store(&mut self, phys: &[u32], src: Reg) {
            self.0.push(format!("flow_store {phys:?} {src:?}"));
        }
        fn flow_delete_mem(&mut self, phys: &[u32]) {
            self.0.push(format!("flow_delete_mem {phys:?}"));
        }
        fn on_load(&mut self, ctx: &InsnCtx, vaddr: u32, phys: &[u32], width: Width, dst: Reg) {
            self.0.push(format!("on_load {} {vaddr:#x} {phys:?} {width:?} {dst:?}", ctx.vaddr));
        }
        fn on_control(&mut self, ctx: &InsnCtx, target: u32, target_src: Option<ShadowLoc>) {
            self.0.push(format!("on_control {} {target:#x} {target_src:?}", ctx.vaddr));
        }
        fn on_branch(&mut self, ctx: &InsnCtx, taken: bool) {
            self.0.push(format!("on_branch {} {taken}", ctx.vaddr));
        }
        fn flow_flags(&mut self, srcs: &[Reg]) {
            self.0.push(format!("flow_flags {srcs:?}"));
        }
    }

    #[test]
    fn cached_run_matches_interpreter_state_and_events() {
        let a = fib_program();
        let (mut ic, mut imem, iaspace) = machine(&a);
        let mut interp_log = Recorder::default();
        let mut interp_events = Vec::new();
        loop {
            let ev = ic.step(&mut imem, &iaspace, &mut interp_log);
            interp_events.push(ev);
            if ev == StepEvent::Halt {
                break;
            }
        }
        let (mut cc, mut cmem, caspace) = machine(&a);
        let mut tc = TransCache::new();
        let mut cached_log = Recorder::default();
        let (executed, ev) =
            cc.run_cached(&mut cmem, &caspace, &mut tc, &mut cached_log, u32::MAX);
        assert_eq!(ev, StepEvent::Halt);
        assert_eq!(executed as usize, interp_events.len());
        assert_eq!(cc.context(), ic.context());
        assert_eq!(cc.retired(), ic.retired());
        assert!(tc.stats().hits > 0, "loop body must hit the cache");
        assert!(tc.stats().misses >= 1);
        for hook in [
            "on_insn",
            "flow_copy",
            "flow_union",
            "flow_delete",
            "flow_addr_dep",
            "flow_addr_dep_bytes",
            "flow_load",
            "flow_store",
            "flow_delete_mem",
            "on_load",
            "on_control",
            "on_branch",
            "flow_flags",
        ] {
            let tag = format!("{hook} ");
            assert!(interp_log.0.iter().any(|e| e.starts_with(&tag)), "program never fires {hook}");
        }
        assert_eq!(cached_log.0, interp_log.0, "cached run is hook-for-hook identical");
    }

    #[test]
    fn fuel_is_respected_and_resumable() {
        let a = fib_program();
        let (mut ic, mut imem, iaspace) = machine(&a);
        for _ in 0..7 {
            ic.step(&mut imem, &iaspace, &mut NoHooks);
        }
        let (mut cc, mut cmem, caspace) = machine(&a);
        let mut tc = TransCache::new();
        // Same budget split across awkward quantum sizes.
        let mut left = 7u32;
        while left > 0 {
            let quantum = left.min(3);
            let (n, ev) = cc.run_cached(&mut cmem, &caspace, &mut tc, &mut NoHooks, quantum);
            assert_eq!(n, quantum);
            assert_eq!(ev, StepEvent::Normal);
            left -= n;
        }
        assert_eq!(cc.context(), ic.context());
        assert_eq!(cc.retired(), ic.retired());
    }

    #[test]
    fn guest_store_into_cached_code_invalidates_and_reexecutes() {
        // Self-modifying code: run a mov, then patch its immediate in
        // place and jump back; the second pass must see the new bytes.
        let mut a2 = Asm::new(0x1000);
        a2.label("start");
        a2.mov_ri(Reg::Eax, 11); // imm32 at 0x1002..0x1006, patched to 99
        a2.cmp_ri(Reg::Ebx, 1);
        a2.jz("done");
        a2.mov_ri(Reg::Ecx, 99);
        a2.mov_ri(Reg::Ebx, 1);
        a2.st4(Mem::abs(0x1002), Reg::Ecx);
        a2.jmp("start");
        a2.label("done");
        a2.hlt();
        let mut mem = PhysMem::new(8);
        let code_frame = mem.alloc_frame().unwrap();
        let mut aspace = AddressSpace::new(Asid(0x1000));
        // RWX so the guest may patch itself (the W^X lints in the analysis
        // layers are exactly what flags this in real workloads).
        aspace.map(0x1000, code_frame, Perms::RWX);
        mem.write(code_frame * PAGE_SIZE, &a2.assemble().unwrap()).unwrap();
        let run = |mem: &mut PhysMem, cached: bool| -> (u32, u64) {
            let mut cpu = Cpu::new();
            cpu.context_mut().eip = 0x1000;
            cpu.set_asid(Asid(0x1000));
            if cached {
                let mut tc = TransCache::new();
                let (_, ev) =
                    cpu.run_cached(mem, &aspace, &mut tc, &mut NoHooks, u32::MAX);
                assert_eq!(ev, StepEvent::Halt);
                assert!(tc.stats().invalidations >= 1, "SMC must invalidate");
            } else {
                while cpu.step(mem, &aspace, &mut NoHooks) != StepEvent::Halt {}
            }
            (cpu.reg(Reg::Eax), cpu.retired())
        };
        let mut mem2 = mem.clone();
        let (interp_eax, interp_retired) = run(&mut mem, false);
        let (cached_eax, cached_retired) = run(&mut mem2, true);
        assert_eq!(interp_eax, 99, "second pass executes the patched imm");
        assert_eq!((cached_eax, cached_retired), (interp_eax, interp_retired));
    }

    #[test]
    fn kernel_note_write_invalidates_overlapping_frames() {
        let mut a = Asm::new(0x1000);
        a.nop();
        a.hlt();
        let (mut cpu, mut mem, aspace) = machine(&a);
        let mut tc = TransCache::new();
        let (_, ev) = cpu.run_cached(&mut mem, &aspace, &mut tc, &mut NoHooks, u32::MAX);
        assert_eq!(ev, StepEvent::Halt);
        let v0 = tc.version();
        // A write to a non-code frame does not invalidate.
        tc.note_write(2 * PAGE_SIZE, 16);
        assert_eq!(tc.version(), v0);
        // A write overlapping the code frame does.
        tc.note_write(10, 2);
        assert_eq!(tc.version(), v0 + 1);
        assert_eq!(tc.stats().invalidations, 1);
    }
}
