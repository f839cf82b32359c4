//! The static dataflow engine: indirect-branch resolution and a
//! source→sink taint-flow model, cross-checked against the dynamic engine.
//!
//! [`analyze_image`] drives [`crate::vsa`] to a whole-image fixpoint:
//!
//! 1. **Resolution** — every reachable function is analyzed; indirect
//!    call/jump sites whose target value set is finite are *resolved*, the
//!    edges are spliced back into the [`ModuleCfg`]
//!    ([`ModuleCfg::splice_resolved`]), and the analysis repeats — newly
//!    reachable code may contain further sites — until nothing changes.
//! 2. **Taint summaries** — a second pass, the same block worklist
//!    (`vsa::solve`) over value and taint state together, computes, per
//!    function, which syscall *sources* (`NtSocketRecv`, `NtReadFile`,
//!    `NtReadVirtualMemory`) can reach which *sinks* (output syscalls,
//!    indirect call-outs through tainted registers). Source masks compose
//!    over the static call graph through the same summary fixpoint the
//!    capability analysis uses ([`crate::syscap::summarize`]) into an
//!    inter-procedural [`ImageFlowMap`]: the source→sink flows the image
//!    can exhibit *per the model*, plus the set of instructions tainted
//!    data can reach.
//!
//! Resolved target sets are kept only on the CFG
//! ([`ModuleCfg::resolved_targets`]); every pass reads them there.
//!
//! [`taint_cross_check_with_stats`] is the dynamic half, mirroring the coverage
//! cross-check: each dynamic taint alert is classified *statically
//! explainable* (the static model predicts tainted data at that
//! instruction) or *statically impossible-per-model* (it does not — which
//! is itself an injection signal: the code the alert fired in is not part
//! of any loaded image's modeled flows, exactly like
//! executed-but-unaccounted blocks). Statically feasible flows that no
//! replay ever exercised are reported as *residual attack surface*.
//!
//! The memory model is deliberately coarse — one "tainted memory" bucket
//! per function plus an *ambient* bit for taint inherited from callers —
//! which over-approximates explainability. That is the sound direction:
//! an alert is only called *impossible* when even the coarse model cannot
//! produce tainted data at its address.

use crate::cfg::ModuleCfg;
use crate::model::ProcessTable;
use crate::syscap::summarize;
use crate::vsa::{self, AVal, BlockState, FunctionVsa, State};
use faros_emu::isa::{AluOp, Instr, Mem, Operand, Reg, Width, NUM_REGS};
use faros_emu::mmu::{Perms, KERNEL_BASE};
use faros_kernel::module::FdlImage;
use faros_kernel::nt::Sysno;
use faros_kernel::Pid;
use faros_obs::metrics::MetricsRegistry;
use faros_obs::trace::{RecorderHandle, TraceCategory, TraceEvent};
use faros_replay::ProcessBlocks;
use faros_support::json::{self, FromJson, JsonError, JsonValue, ToJson};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A syscall input source — where external bytes enter the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SourceKind {
    /// `NtSocketRecv` — network input.
    Net,
    /// `NtReadFile` — file input.
    File,
    /// `NtReadVirtualMemory` — bytes read out of another process.
    CrossProcess,
}

impl SourceKind {
    const ALL: [SourceKind; 3] = [SourceKind::Net, SourceKind::File, SourceKind::CrossProcess];

    fn bit(self) -> u8 {
        match self {
            SourceKind::Net => 1,
            SourceKind::File => 2,
            SourceKind::CrossProcess => 4,
        }
    }

    fn name(self) -> &'static str {
        match self {
            SourceKind::Net => "net",
            SourceKind::File => "file",
            SourceKind::CrossProcess => "cross-process",
        }
    }
}

impl fmt::Display for SourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A taint sink — where tainted bytes leave the process or take control.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SinkKind {
    /// `NtSocketSend`.
    Net,
    /// `NtWriteFile`.
    File,
    /// `NtWriteVirtualMemory` — bytes written into another process.
    CrossProcess,
    /// `NtDisplayString`.
    Console,
    /// An indirect call/jump whose target register holds tainted data.
    IndirectCall,
}

impl SinkKind {
    fn name(self) -> &'static str {
        match self {
            SinkKind::Net => "net",
            SinkKind::File => "file",
            SinkKind::CrossProcess => "cross-process",
            SinkKind::Console => "console",
            SinkKind::IndirectCall => "indirect-call",
        }
    }
}

impl fmt::Display for SinkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl ToJson for SourceKind {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::Str(self.name().to_string())
    }
}

impl FromJson for SourceKind {
    fn from_json_value(v: &JsonValue) -> Result<SourceKind, JsonError> {
        match v.as_str() {
            Some("net") => Ok(SourceKind::Net),
            Some("file") => Ok(SourceKind::File),
            Some("cross-process") => Ok(SourceKind::CrossProcess),
            _ => Err(JsonError::decode("unknown SourceKind")),
        }
    }
}

impl ToJson for SinkKind {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::Str(self.name().to_string())
    }
}

impl FromJson for SinkKind {
    fn from_json_value(v: &JsonValue) -> Result<SinkKind, JsonError> {
        match v.as_str() {
            Some("net") => Ok(SinkKind::Net),
            Some("file") => Ok(SinkKind::File),
            Some("cross-process") => Ok(SinkKind::CrossProcess),
            Some("console") => Ok(SinkKind::Console),
            Some("indirect-call") => Ok(SinkKind::IndirectCall),
            _ => Err(JsonError::decode("unknown SinkKind")),
        }
    }
}

/// Taint-mask bit: value depends on memory as it was at function entry
/// (resolved per function via the ambient fixpoint).
const AMBIENT: u8 = 8;
/// All three concrete source bits.
const ALL_SOURCES: u8 = 7;

fn source_of(sysno: u32) -> Option<SourceKind> {
    match sysno {
        x if x == Sysno::NtSocketRecv as u32 => Some(SourceKind::Net),
        x if x == Sysno::NtReadFile as u32 => Some(SourceKind::File),
        x if x == Sysno::NtReadVirtualMemory as u32 => Some(SourceKind::CrossProcess),
        _ => None,
    }
}

/// Output syscalls, with the register carrying the buffer they read
/// (`a0..a4` = `ebx ecx edx esi edi`).
fn sink_of(sysno: u32) -> Option<(SinkKind, Reg)> {
    match sysno {
        x if x == Sysno::NtSocketSend as u32 => Some((SinkKind::Net, Reg::Ecx)),
        x if x == Sysno::NtWriteFile as u32 => Some((SinkKind::File, Reg::Ecx)),
        x if x == Sysno::NtWriteVirtualMemory as u32 => Some((SinkKind::CrossProcess, Reg::Edx)),
        x if x == Sysno::NtDisplayString as u32 => Some((SinkKind::Console, Reg::Ebx)),
        _ => None,
    }
}

fn kinds_of(mask: u8) -> impl Iterator<Item = SourceKind> {
    SourceKind::ALL.into_iter().filter(move |k| mask & k.bit() != 0)
}

/// One statically feasible source→sink flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct StaticFlow {
    /// Where the bytes come from.
    pub source: SourceKind,
    /// Where they can go.
    pub sink: SinkKind,
    /// VA of the sink instruction.
    pub sink_va: u32,
}

impl ToJson for StaticFlow {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("source", self.source.to_json_value()),
            ("sink", self.sink.to_json_value()),
            ("sink_va", self.sink_va.to_json_value()),
        ])
    }
}

impl FromJson for StaticFlow {
    fn from_json_value(v: &JsonValue) -> Result<StaticFlow, JsonError> {
        Ok(StaticFlow {
            source: json::field(v, "source")?,
            sink: json::field(v, "sink")?,
            sink_va: json::field(v, "sink_va")?,
        })
    }
}

/// The inter-procedural source→sink reachability map of one image.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ImageFlowMap {
    /// Module name the map was built for.
    pub module: String,
    /// Syscall source sites: `(site VA, kind)`, sorted, deduped.
    pub sources: Vec<(u32, SourceKind)>,
    /// Feasible flows, sorted, deduped.
    pub flows: Vec<StaticFlow>,
    /// Instruction VAs tainted data can reach per the model — the
    /// explainability set the cross-check consults.
    pub taint_reachable: BTreeSet<u32>,
}

impl ToJson for ImageFlowMap {
    fn to_json_value(&self) -> JsonValue {
        let sources: Vec<JsonValue> = self
            .sources
            .iter()
            .map(|(va, k)| {
                JsonValue::object(vec![("va", va.to_json_value()), ("kind", k.to_json_value())])
            })
            .collect();
        JsonValue::object(vec![
            ("module", self.module.to_json_value()),
            ("sources", JsonValue::Array(sources)),
            ("flows", self.flows.to_json_value()),
            (
                "taint_reachable",
                self.taint_reachable.iter().copied().collect::<Vec<u32>>().to_json_value(),
            ),
        ])
    }
}

/// Cost and outcome counters for one (or several, via [`merge`]) dataflow
/// runs.
///
/// [`merge`]: DataflowStats::merge
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DataflowStats {
    /// VSA worklist iterations (blocks processed, including revisits).
    pub worklist_iterations: u64,
    /// Strided intervals widened to `Top`.
    pub widenings: u64,
    /// Reachable indirect sites whose target set was resolved.
    pub indirects_resolved: u64,
    /// Reachable indirect sites left unresolved.
    pub indirects_unresolved: u64,
    /// Call sites whose callee summary was already memoized.
    pub summary_cache_hits: u64,
    /// Functions analyzed (resolution and taint passes).
    pub functions_analyzed: u64,
}

impl DataflowStats {
    /// Accumulates another run's counters into `self`.
    pub fn merge(&mut self, other: &DataflowStats) {
        self.worklist_iterations += other.worklist_iterations;
        self.widenings += other.widenings;
        self.indirects_resolved += other.indirects_resolved;
        self.indirects_unresolved += other.indirects_unresolved;
        self.summary_cache_hits += other.summary_cache_hits;
        self.functions_analyzed += other.functions_analyzed;
    }

    /// Emits the counters as `analyze.*` metrics, so dataflow cost shows
    /// up in `MetricsSnapshot`s and the Chrome trace alongside everything
    /// else `faros-obs` records.
    pub fn record_into(&self, reg: &mut MetricsRegistry) {
        for (name, value) in self.rows() {
            let id = reg.counter(name);
            reg.add(id, value);
        }
    }

    /// The counters as `(metric name, value)` rows, in emission order —
    /// what [`record_into`](DataflowStats::record_into) writes, exposed so
    /// callers can also stamp them onto a Chrome trace as instant-event
    /// args.
    pub fn rows(&self) -> [(&'static str, u64); 6] {
        [
            ("analyze.worklist.iterations", self.worklist_iterations),
            ("analyze.widenings", self.widenings),
            ("analyze.indirect.resolved", self.indirects_resolved),
            ("analyze.indirect.unresolved", self.indirects_unresolved),
            ("analyze.summary.cache_hits", self.summary_cache_hits),
            ("analyze.functions", self.functions_analyzed),
        ]
    }

    /// Emits the counters as one `analysis`-category instant event (one
    /// arg per counter) into a trace recorder, so the dataflow cost is
    /// visible in the exported Chrome trace.
    pub fn trace_into(&self, rec: &RecorderHandle, ts: u64, module: &str) {
        let mut ev =
            TraceEvent::instant(ts, 0, 0, TraceCategory::Analysis, format!("analyze {module}"));
        for (name, value) in self.rows() {
            ev = ev.arg(name, value.to_string());
        }
        rec.record(ev);
    }
}

impl ToJson for DataflowStats {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("worklist_iterations", self.worklist_iterations.to_json_value()),
            ("widenings", self.widenings.to_json_value()),
            ("indirects_resolved", self.indirects_resolved.to_json_value()),
            ("indirects_unresolved", self.indirects_unresolved.to_json_value()),
            ("summary_cache_hits", self.summary_cache_hits.to_json_value()),
            ("functions_analyzed", self.functions_analyzed.to_json_value()),
        ])
    }
}

/// The VSA view of one reachable syscall (`int`) site: which functions'
/// intra-procedural walks reach it and the joined abstract registers
/// right before the instruction — what the capability analysis
/// (`crate::syscap`) lifts into the capability lattice.
#[derive(Debug, Clone)]
pub struct SyscallSite {
    /// Entries of the functions whose walk visits the site.
    pub functions: BTreeSet<u32>,
    /// Abstract register values at the site, joined over every visiting
    /// function.
    pub regs: [AVal; NUM_REGS],
}

impl SyscallSite {
    /// The abstract service number (`eax` at the site).
    pub fn sysno(&self) -> AVal {
        self.regs[Reg::Eax.index()]
    }

    /// Abstract syscall argument `i` (`a0..a4` = `ebx ecx edx esi edi`).
    pub fn arg(&self, i: usize) -> AVal {
        const ARGS: [Reg; 5] = [Reg::Ebx, Reg::Ecx, Reg::Edx, Reg::Esi, Reg::Edi];
        self.regs[ARGS[i].index()]
    }
}

/// Everything the dataflow engine derives from one image.
#[derive(Debug, Clone)]
pub struct ImageDataflow {
    /// The CFG with resolved indirect edges spliced in.
    pub cfg: ModuleCfg,
    /// The inter-procedural source→sink flow map.
    pub flows: ImageFlowMap,
    /// Reachable `int` sites with their joined VSA register view.
    pub syscall_sites: BTreeMap<u32, SyscallSite>,
    /// Static call graph: function entry → direct and resolved-indirect
    /// in-image callees.
    pub call_graph: BTreeMap<u32, BTreeSet<u32>>,
    /// Externally reachable function entries (image entry + code exports).
    pub roots: BTreeSet<u32>,
    /// Cost/outcome counters.
    pub stats: DataflowStats,
}

/// Externally reachable function entries: the image entry and code exports.
fn roots(cfg: &ModuleCfg, image: &FdlImage) -> BTreeSet<u32> {
    std::iter::once(image.entry)
        .chain(image.exports.iter().map(|e| e.va))
        .filter(|va| cfg.blocks.contains_key(va))
        .collect()
}

/// Function entry points: the roots plus every direct or resolved-indirect
/// call target inside the image.
pub(crate) fn function_entries(cfg: &ModuleCfg, image: &FdlImage) -> BTreeSet<u32> {
    let mut entries = roots(cfg, image);
    entries.extend(cfg.call_edges.iter().map(|&(_, callee)| callee));
    entries.retain(|va| cfg.blocks.contains_key(va));
    entries
}

/// Runs the resolution fixpoint and the taint passes over one image.
pub fn analyze_image(name: &str, image: &FdlImage) -> ImageDataflow {
    let mut cfg = ModuleCfg::recover(name, image);
    let mut stats = DataflowStats::default();
    let mut vsas: BTreeMap<u32, FunctionVsa> = BTreeMap::new();

    // Resolution fixpoint: analyze, resolve, splice, repeat.
    loop {
        let entries = function_entries(&cfg, image);
        vsas.clear();
        for &e in &entries {
            let f = vsa::analyze_function(image, &cfg, e);
            stats.worklist_iterations += f.iterations;
            stats.widenings += f.widenings;
            stats.functions_analyzed += 1;
            vsas.insert(e, f);
        }
        let mut newly: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for f in vsas.values() {
            for (&site, regs) in &f.site_regs {
                if cfg.resolved_targets.contains_key(&site) || newly.contains_key(&site) {
                    continue;
                }
                let target = match cfg.instr_at(site) {
                    Some(Instr::CallReg { target }) | Some(Instr::JmpReg { target }) => target,
                    _ => continue,
                };
                if let AVal::Si(si) = regs[target.index()] {
                    if let Some(targets) = si.enumerate() {
                        newly.insert(site, targets);
                    }
                }
            }
        }
        if newly.is_empty() {
            break;
        }
        cfg.splice_resolved(&newly);
    }

    for site in &cfg.indirect_sites {
        if !site.reachable {
            continue;
        }
        if cfg.resolved_targets.contains_key(&site.va) {
            stats.indirects_resolved += 1;
        } else {
            stats.indirects_unresolved += 1;
        }
    }

    // The syscall-site view and call graph the capability analysis (and
    // the `syscall-number-unresolved` lint) consume, derived from the
    // final VSA fixpoint so nothing is analyzed twice.
    let mut syscall_sites: BTreeMap<u32, SyscallSite> = BTreeMap::new();
    for (&entry, f) in &vsas {
        for (&va, regs) in &f.site_regs {
            if !matches!(cfg.instr_at(va), Some(Instr::Int { .. })) {
                continue;
            }
            let site = syscall_sites.entry(va).or_insert_with(|| SyscallSite {
                functions: BTreeSet::new(),
                regs: [AVal::Bot; NUM_REGS],
            });
            site.functions.insert(entry);
            for (slot, r) in site.regs.iter_mut().zip(regs) {
                *slot = slot.join(r);
            }
        }
    }
    let call_graph: BTreeMap<u32, BTreeSet<u32>> =
        vsas.iter().map(|(&e, f)| (e, callees_of(&cfg, f))).collect();
    let roots = roots(&cfg, image);
    let flows = taint_phases(name, image, &cfg, &vsas, &call_graph, &mut stats);
    ImageDataflow { cfg, flows, syscall_sites, call_graph, roots, stats }
}

/// Direct and resolved-indirect callees of the function `f`, derived from
/// the blocks its intra-procedural walk visited.
fn callees_of(cfg: &ModuleCfg, f: &FunctionVsa) -> BTreeSet<u32> {
    let mut out = BTreeSet::new();
    for bva in &f.blocks {
        let Some(block) = cfg.blocks.get(bva) else { continue };
        let Some(&(va, instr)) = block.instrs.last() else { continue };
        match instr {
            Instr::Call { rel } => {
                let callee = block.end.wrapping_add(rel as u32);
                if cfg.blocks.contains_key(&callee) {
                    out.insert(callee);
                }
            }
            Instr::CallReg { .. } => {
                if let Some(ts) = cfg.resolved_targets.get(&va) {
                    out.extend(ts.iter().copied().filter(|t| cfg.blocks.contains_key(t)));
                }
            }
            _ => {}
        }
    }
    out
}

/// The source bits a function can trigger *without* its in-image callees:
/// its own syscall sources, plus `ALL_SOURCES` for any call into unknown
/// code (unresolved indirects, or resolved targets outside the image).
fn local_source_mask(cfg: &ModuleCfg, f: &FunctionVsa) -> u8 {
    let mut mask = 0u8;
    for (&va, regs) in &f.site_regs {
        match cfg.instr_at(va) {
            Some(Instr::Int { .. }) => match regs[Reg::Eax.index()].as_const() {
                Some(sysno) => {
                    if let Some(k) = source_of(sysno) {
                        mask |= k.bit();
                    }
                }
                // Unknown service number: could be any input syscall.
                None => mask |= ALL_SOURCES,
            },
            // Unresolved, or a target outside the image (JIT buffer,
            // another module): the callee's behavior is unknown.
            Some(Instr::CallReg { .. }) | Some(Instr::JmpReg { .. })
                if cfg.resolved_in_image(va).is_none() =>
            {
                mask |= ALL_SOURCES
            }
            _ => {}
        }
    }
    mask
}

/// Per-function taint facts, with the `AMBIENT` bit still symbolic.
#[derive(Debug, Default)]
struct FnTaint {
    sources: Vec<(u32, SourceKind)>,
    sinks: Vec<(u32, SinkKind, u8)>,
    reach: BTreeMap<u32, u8>,
}

/// Taint masks per register, tracked stack frame, and the coarse "some
/// memory is tainted by these sources" bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TaintState {
    regs: [u8; NUM_REGS],
    stack: BTreeMap<i32, u8>,
    mem: u8,
}

impl TaintState {
    fn entry() -> TaintState {
        // Caller-passed register values may carry caller taint; esp is a
        // pointer the kernel allocated, never data.
        let mut regs = [AMBIENT; NUM_REGS];
        regs[Reg::Esp.index()] = 0;
        TaintState { regs, stack: BTreeMap::new(), mem: 0 }
    }

    /// What an untracked memory location may hold.
    fn unknown(&self) -> u8 {
        self.mem | AMBIENT
    }

    fn join_from(&mut self, other: &TaintState) -> bool {
        let mut changed = false;
        for i in 0..NUM_REGS {
            let j = self.regs[i] | other.regs[i];
            if j != self.regs[i] {
                self.regs[i] = j;
                changed = true;
            }
        }
        if self.mem | other.mem != self.mem {
            self.mem |= other.mem;
            changed = true;
        }
        let keys: Vec<i32> = self.stack.keys().copied().collect();
        for k in keys {
            match other.stack.get(&k) {
                Some(&ov) => {
                    let j = self.stack[&k] | ov;
                    if j != self.stack[&k] {
                        self.stack.insert(k, j);
                        changed = true;
                    }
                }
                // Missing on one side = untracked = `unknown()`; drop it.
                None => {
                    self.stack.remove(&k);
                    changed = true;
                }
            }
        }
        changed
    }
}

fn immutable_image_bytes(image: &FdlImage, addr: u32, width: Width) -> bool {
    image
        .section_containing(addr)
        .is_some_and(|s| !s.perms.contains(Perms::W) && addr + width.bytes() as u32 <= s.end_va())
}

/// Taint of the value a load yields, given the VSA view of the address.
fn taint_load(image: &FdlImage, vstate: &State, t: &TaintState, mem: &Mem, width: Width) -> u8 {
    match vstate.eval_addr(mem) {
        AVal::Sp(off) if width == Width::B4 && off % 4 == 0 => {
            t.stack.get(&off).copied().unwrap_or_else(|| t.unknown())
        }
        AVal::Sp(_) => t.unknown(),
        AVal::Si(si) => match si.enumerate() {
            Some(addrs) if addrs.iter().all(|&a| immutable_image_bytes(image, a, width)) => 0,
            _ => t.unknown(),
        },
        _ => t.unknown(),
    }
}

/// Applies a store of a value with taint `v` through `mem`.
fn taint_store(vstate: &State, t: &mut TaintState, mem: &Mem, width: Width, v: u8) {
    match vstate.eval_addr(mem) {
        AVal::Sp(off) if width == Width::B4 && off % 4 == 0 => {
            t.stack.insert(off, v);
        }
        AVal::Sp(off) => {
            let lo = off - 3;
            let hi = off + width.bytes() as i32 - 1;
            let doomed: Vec<i32> = t.stack.range(lo..=hi).map(|(k, _)| *k).collect();
            for k in doomed {
                t.stack.remove(&k);
            }
            t.mem |= v;
        }
        // Constant addresses: global memory, disjoint from the frame.
        AVal::Si(_) => t.mem |= v,
        _ => {
            t.mem |= v;
            t.stack.clear();
        }
    }
}

impl BlockState for (State, TaintState) {
    fn join_from(&mut self, other: &Self, widen: bool, widenings: &mut u64) -> bool {
        let vc = self.0.join_from(&other.0, widen, widenings);
        let tc = self.1.join_from(&other.1);
        vc || tc
    }
}

/// The taint pass over one function: the block worklist (`vsa::solve`)
/// runs over `(State, TaintState)`, so each instruction's taint transfer
/// reads the value view of the same program point.
fn taint_function(
    image: &FdlImage,
    cfg: &ModuleCfg,
    entry: u32,
    introduces: &BTreeMap<u32, u8>,
    stats: &mut DataflowStats,
) -> FnTaint {
    let mut out = FnTaint::default();
    if !cfg.blocks.contains_key(&entry) {
        return out;
    }
    stats.functions_analyzed += 1;

    // The contribution a callee makes to the memory bucket: its summary,
    // or every source for code without one (outside the image).
    let mut cache_hits = 0;
    let mut callee_mask = |va: u32| -> u8 {
        match introduces.get(&va) {
            Some(&m) => {
                cache_hits += 1;
                m
            }
            None => ALL_SOURCES,
        }
    };

    let init = (State::entry(), TaintState::entry());
    let (iterations, widenings) = vsa::solve(image, cfg, entry, init, |block, (vstate, t)| {
        for &(va, instr) in &block.instrs {
            // The taint an executing instruction is exposed to: every
            // register it reads (esp is a pointer, not data) plus any
            // value it loads.
            let mut used = 0u8;
            for r in instr.regs_read() {
                if r != Reg::Esp {
                    used |= t.regs[r.index()];
                }
            }

            match instr {
                Instr::MovRR { dst, src } => t.regs[dst.index()] = t.regs[src.index()],
                Instr::MovRI { dst, .. } => t.regs[dst.index()] = 0,
                Instr::Load { dst, mem, width } => {
                    let pt: u8 =
                        mem.regs_used().map(|r| t.regs[r.index()]).fold(0, |a, b| a | b);
                    let lv = taint_load(image, vstate, t, &mem, width);
                    used |= lv;
                    t.regs[dst.index()] = lv | pt;
                }
                Instr::Store { mem, src, width } => {
                    let v = t.regs[src.index()];
                    taint_store(vstate, t, &mem, width, v);
                }
                Instr::Lea { dst, mem } => {
                    t.regs[dst.index()] =
                        mem.regs_used().map(|r| t.regs[r.index()]).fold(0, |a, b| a | b);
                }
                Instr::Alu { op, dst, src } => {
                    let rhs = match src {
                        Operand::Reg(r) => t.regs[r.index()],
                        Operand::Imm(_) => 0,
                    };
                    t.regs[dst.index()] = match (op, src) {
                        (AluOp::Xor | AluOp::Sub, Operand::Reg(r)) if r == dst => 0,
                        _ => t.regs[dst.index()] | rhs,
                    };
                }
                Instr::Push { src } => {
                    let v = t.regs[src.index()];
                    // The slot is at esp-4 in the *pre-push* frame.
                    if let AVal::Sp(o) = vstate.reg(Reg::Esp) {
                        t.stack.insert(o - 4, v);
                    } else {
                        t.mem |= v;
                    }
                }
                Instr::PushImm { .. } => {
                    if let AVal::Sp(o) = vstate.reg(Reg::Esp) {
                        t.stack.insert(o - 4, 0);
                    }
                }
                Instr::Pop { dst } => {
                    let v = match vstate.reg(Reg::Esp) {
                        AVal::Sp(o) => t.stack.get(&o).copied().unwrap_or_else(|| t.unknown()),
                        _ => t.unknown(),
                    };
                    used |= v;
                    t.regs[dst.index()] = v;
                }
                Instr::Call { rel } => {
                    t.mem |= callee_mask(block.end.wrapping_add(rel as u32));
                    let u = t.unknown();
                    t.regs = [u; NUM_REGS];
                    t.regs[Reg::Esp.index()] = 0;
                    t.stack.clear();
                }
                Instr::CallReg { target } => {
                    let tt = t.regs[target.index()];
                    if tt != 0 {
                        out.sinks.push((va, SinkKind::IndirectCall, tt));
                    }
                    let c = match cfg.resolved_in_image(va) {
                        Some(ts) => ts.iter().map(|&x| callee_mask(x)).fold(0, |a, b| a | b),
                        None => ALL_SOURCES,
                    };
                    t.mem |= c;
                    let u = t.unknown();
                    t.regs = [u; NUM_REGS];
                    t.regs[Reg::Esp.index()] = 0;
                    t.stack.clear();
                }
                Instr::JmpReg { target } => {
                    let tt = t.regs[target.index()];
                    if tt != 0 {
                        out.sinks.push((va, SinkKind::IndirectCall, tt));
                    }
                }
                Instr::Int { .. } => {
                    match vstate.reg(Reg::Eax).as_const() {
                        Some(sysno) => {
                            if let Some(k) = source_of(sysno) {
                                out.sources.push((va, k));
                                t.mem |= k.bit();
                            }
                            if let Some((kind, buf)) = sink_of(sysno) {
                                // The sink reads memory at the buffer
                                // pointer; its content is at worst the
                                // bucket, plus pointer taint.
                                let mask = t.unknown() | t.regs[buf.index()];
                                out.sinks.push((va, kind, mask));
                            }
                        }
                        // Unknown service number: could be any input.
                        None => t.mem |= ALL_SOURCES,
                    }
                    // Status / scratch come back from the kernel untainted;
                    // out-parameters may have landed anywhere in the frame.
                    t.regs[Reg::Eax.index()] = 0;
                    t.regs[Reg::Edx.index()] = 0;
                    t.stack.clear();
                }
                Instr::Cmp { .. }
                | Instr::Test { .. }
                | Instr::Jmp { .. }
                | Instr::Jcc { .. }
                | Instr::Ret
                | Instr::Hlt
                | Instr::Nop => {}
            }

            if used != 0 {
                *out.reach.entry(va).or_insert(0) |= used;
            }
            vsa::step(image, vstate, &instr);
        }
    });
    stats.worklist_iterations += iterations;
    stats.widenings += widenings;
    stats.summary_cache_hits += cache_hits;
    out
}

/// Substitutes a function's resolved ambient mask for the symbolic
/// `AMBIENT` bit.
fn subst(mask: u8, ambient: u8) -> u8 {
    let concrete = mask & ALL_SOURCES;
    if mask & AMBIENT != 0 {
        concrete | ambient
    } else {
        concrete
    }
}

/// Phases A–C of the taint analysis: per-function source masks, lock-step
/// taint runs, ambient composition over the call graph.
fn taint_phases(
    name: &str,
    image: &FdlImage,
    cfg: &ModuleCfg,
    vsas: &BTreeMap<u32, FunctionVsa>,
    callee_sets: &BTreeMap<u32, BTreeSet<u32>>,
    stats: &mut DataflowStats,
) -> ImageFlowMap {
    // Phase A: which source bits each function (with its callees) can
    // trigger — the call-graph summary of the local source masks.
    let local: BTreeMap<u32, u8> =
        vsas.iter().map(|(&e, f)| (e, local_source_mask(cfg, f))).collect();
    let introduces = summarize(&local, callee_sets, ALL_SOURCES, |a, b| a | b);

    // Phase B: per-function taint facts (AMBIENT still symbolic).
    let taints: BTreeMap<u32, FnTaint> = vsas
        .keys()
        .map(|&e| (e, taint_function(image, cfg, e, &introduces, stats)))
        .collect();

    // Phase C: resolve each function's ambient mask. The process entry
    // starts with clean memory; exports are externally callable after
    // arbitrary prior image activity; everything else inherits from its
    // callers (order-insensitively over-approximated by the caller's full
    // source mask).
    let everything: u8 = introduces.values().fold(0, |a, &b| a | b);
    let mut ambient: BTreeMap<u32, u8> = BTreeMap::new();
    for &e in vsas.keys() {
        ambient.insert(e, 0);
    }
    for ex in &image.exports {
        if ambient.contains_key(&ex.va) {
            ambient.insert(ex.va, everything);
        }
    }
    loop {
        let mut changed = false;
        for (&e, callees) in callee_sets {
            let flow = ambient[&e] | introduces[&e];
            for c in callees {
                if let Some(a) = ambient.get_mut(c) {
                    if *a | flow != *a {
                        *a |= flow;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Assemble the image-level map.
    let mut sources: BTreeSet<(u32, SourceKind)> = BTreeSet::new();
    let mut flows: BTreeSet<StaticFlow> = BTreeSet::new();
    let mut taint_reachable: BTreeSet<u32> = BTreeSet::new();
    for (&e, ft) in &taints {
        let amb = ambient[&e];
        sources.extend(ft.sources.iter().copied());
        for &(va, kind, mask) in &ft.sinks {
            for source in kinds_of(subst(mask, amb)) {
                flows.insert(StaticFlow { source, sink: kind, sink_va: va });
            }
        }
        for (&va, &mask) in &ft.reach {
            if subst(mask, amb) != 0 {
                taint_reachable.insert(va);
            }
        }
    }
    ImageFlowMap {
        module: name.to_string(),
        sources: sources.into_iter().collect(),
        flows: flows.into_iter().collect(),
        taint_reachable,
    }
}

/// One dynamic taint alert, in the vocabulary the cross-check needs (the
/// caller maps `faros-core` detections down to this).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynamicAlert {
    /// Process image name the alert fired in.
    pub process: String,
    /// CR3 of the process the alert fired in — how the alert finds its
    /// process (two processes may share an image name).
    pub cr3: u32,
    /// VA of the flagged instruction.
    pub va: u32,
}

/// Cross-check verdicts for one process.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProcessTaintCheck {
    /// Process image name.
    pub process: String,
    /// Alert VAs the static model explains (tainted data can reach them).
    pub explainable: Vec<u32>,
    /// Alert VAs the static model *cannot* produce — fired in code outside
    /// every loaded module, or at instructions no modeled flow reaches.
    /// Statically impossible-per-model alerts are an injection signal.
    pub impossible: Vec<u32>,
}

/// A statically feasible flow no replay ever exercised.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResidualFlow {
    /// Module the flow lives in.
    pub module: String,
    /// The flow.
    pub flow: StaticFlow,
}

/// The static-vs-dynamic taint cross-check result.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TaintCrossCheck {
    /// Per-process verdicts, ordered by process name.
    pub processes: Vec<ProcessTaintCheck>,
    /// Statically feasible flows never exercised dynamically — residual
    /// attack surface.
    pub residual: Vec<ResidualFlow>,
}

impl TaintCrossCheck {
    /// Returns `true` if the check carries no verdicts and no residual
    /// flows (e.g. the replay ran without the cross-check).
    pub fn is_empty(&self) -> bool {
        self.processes.is_empty() && self.residual.is_empty()
    }

    /// Returns `true` if any alert was statically impossible-per-model.
    pub fn injection_suspected(&self) -> bool {
        self.processes.iter().any(|p| !p.impossible.is_empty())
    }

    /// Total statically impossible alerts.
    pub fn impossible_total(&self) -> usize {
        self.processes.iter().map(|p| p.impossible.len()).sum()
    }

    /// Total statically explainable alerts.
    pub fn explainable_total(&self) -> usize {
        self.processes.iter().map(|p| p.explainable.len()).sum()
    }
}

impl ToJson for ProcessTaintCheck {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("process", self.process.to_json_value()),
            ("explainable", self.explainable.to_json_value()),
            ("impossible", self.impossible.to_json_value()),
        ])
    }
}

impl FromJson for ProcessTaintCheck {
    fn from_json_value(v: &JsonValue) -> Result<ProcessTaintCheck, JsonError> {
        Ok(ProcessTaintCheck {
            process: json::field(v, "process")?,
            explainable: json::field(v, "explainable")?,
            impossible: json::field(v, "impossible")?,
        })
    }
}

impl ToJson for ResidualFlow {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("module", self.module.to_json_value()),
            ("flow", self.flow.to_json_value()),
        ])
    }
}

impl FromJson for ResidualFlow {
    fn from_json_value(v: &JsonValue) -> Result<ResidualFlow, JsonError> {
        Ok(ResidualFlow { module: json::field(v, "module")?, flow: json::field(v, "flow")? })
    }
}

impl ToJson for TaintCrossCheck {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("processes", self.processes.to_json_value()),
            ("residual", self.residual.to_json_value()),
        ])
    }
}

impl FromJson for TaintCrossCheck {
    fn from_json_value(v: &JsonValue) -> Result<TaintCrossCheck, JsonError> {
        Ok(TaintCrossCheck {
            processes: json::field(v, "processes")?,
            residual: json::field(v, "residual")?,
        })
    }
}

/// Classifies dynamic taint alerts against the static flow model of the
/// modules loaded by the process each alert fired in (found by CR3 in the
/// job's [`ProcessTable`]), and reports statically feasible flows no
/// replay exercised, judged on the blocks each process executed (per pid).
/// Each process gets its own row, ordered by name and then pid, so two
/// processes sharing an image name are reported apart; alerts whose CR3
/// matches no process share one row per name.
/// Also returns the merged [`DataflowStats`] of every per-image analysis
/// (for `analyze.*` metrics emission).
pub fn taint_cross_check_with_stats(
    alerts: &[DynamicAlert],
    procs: &ProcessTable,
    observed: &BTreeMap<Pid, ProcessBlocks>,
) -> (TaintCrossCheck, DataflowStats) {
    let mut stats = DataflowStats::default();
    for m in procs.models.values() {
        stats.merge(&m.dataflow.stats);
    }

    let mut rows: BTreeMap<(&str, Option<Pid>), ProcessTaintCheck> = BTreeMap::new();
    for alert in alerts {
        let proc = procs.processes.iter().find(|p| p.cr3 == alert.cr3);
        let key = (alert.process.as_str(), proc.map(|p| p.pid));
        let row = rows.entry(key).or_insert_with(|| ProcessTaintCheck {
            process: alert.process.clone(),
            ..ProcessTaintCheck::default()
        });
        // Kernel-space alerts are outside the per-image model's scope.
        if alert.va >= KERNEL_BASE {
            row.explainable.push(alert.va);
            continue;
        }
        let model = proc.and_then(|p| {
            p.models.iter().find(|m| m.image.section_containing(alert.va).is_some())
        });
        match model {
            // In a module, at an instruction the modeled flows reach.
            Some(m) if m.dataflow.flows.taint_reachable.contains(&alert.va) => {
                row.explainable.push(alert.va)
            }
            // In a module but no modeled flow reaches it, or in no loaded
            // module at all (injected code): impossible per model.
            _ => row.impossible.push(alert.va),
        }
    }

    // Residual surface: a flow is exercised if any process that loaded the
    // module executed the block containing its sink.
    let mut residual = Vec::new();
    for (key, model) in procs.models {
        let analysis = &model.dataflow;
        let loaders: Vec<Pid> = procs.loaders(model).map(|p| p.pid).collect();
        if loaders.is_empty() {
            continue;
        }
        for flow in &analysis.flows.flows {
            let block_start = analysis
                .cfg
                .blocks
                .range(..=flow.sink_va)
                .next_back()
                .filter(|(_, b)| flow.sink_va < b.end)
                .map(|(&s, _)| s);
            let exercised = block_start.is_some_and(|bs| {
                loaders.iter().any(|pid| observed.get(pid).is_some_and(|b| b.contains_key(&bs)))
            });
            if !exercised {
                residual.push(ResidualFlow { module: key.to_string(), flow: *flow });
            }
        }
    }

    (TaintCrossCheck { processes: rows.into_values().collect(), residual }, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tests::{one_process, processes_of};
    use crate::model::ModeledProcess;
    use faros_emu::asm::Asm;
    use faros_kernel::module::{Export, Section};

    const BASE: u32 = 0x40_0000;

    fn image_of(asm: Asm) -> FdlImage {
        FdlImage {
            entry: BASE,
            export_table_va: 0,
            sections: vec![Section {
                va: BASE,
                data: asm.assemble().expect("assembles"),
                perms: Perms::RX,
            }],
            exports: vec![],
        }
    }

    fn sys(asm: &mut Asm, sysno: u32) {
        asm.mov_ri(Reg::Eax, sysno);
        asm.int_syscall();
    }

    #[test]
    fn constant_indirect_call_is_resolved_and_spliced() {
        let mut asm = Asm::new(BASE);
        asm.mov_ri(Reg::Ebp, 0x0100_2000); // external buffer (a JIT region)
        asm.call_reg(Reg::Ebp);
        asm.hlt();
        let image = image_of(asm);
        let r = analyze_image("t", &image);
        assert_eq!(r.stats.indirects_resolved, 1);
        assert_eq!(r.stats.indirects_unresolved, 0);
        let site = r.cfg.indirect_sites[0].va;
        assert_eq!(r.cfg.resolved_targets[&site], vec![0x0100_2000]);
    }

    #[test]
    fn indirect_call_into_the_image_reaches_the_callee() {
        let mut asm = Asm::new(BASE);
        asm.mov_label(Reg::Ebp, "helper");
        asm.call_reg(Reg::Ebp);
        asm.hlt();
        asm.label("helper");
        sys(&mut asm, Sysno::NtSocketRecv as u32); // source inside the callee
        asm.ret();
        let image = image_of(asm);
        let r = analyze_image("t", &image);
        assert_eq!(r.stats.indirects_resolved, 1);
        // The callee's source is found even though it is only reachable
        // through the resolved indirect call.
        assert_eq!(r.flows.sources.len(), 1);
        assert_eq!(r.flows.sources[0].1, SourceKind::Net);
    }

    #[test]
    fn recv_then_send_yields_a_net_to_net_flow() {
        let mut asm = Asm::new(BASE);
        asm.mov_ri(Reg::Ecx, 0x50_0000); // buffer
        sys(&mut asm, Sysno::NtSocketRecv as u32);
        asm.mov_ri(Reg::Ecx, 0x50_0000);
        sys(&mut asm, Sysno::NtSocketSend as u32);
        asm.hlt();
        let image = image_of(asm);
        let r = analyze_image("t", &image);
        assert!(
            r.flows.flows.iter().any(|f| f.source == SourceKind::Net && f.sink == SinkKind::Net),
            "missing net->net flow in {:?}",
            r.flows.flows
        );
    }

    #[test]
    fn send_before_any_source_has_no_flow_from_entry() {
        let mut asm = Asm::new(BASE);
        asm.mov_ri(Reg::Ecx, 0x50_0000);
        sys(&mut asm, Sysno::NtSocketSend as u32);
        sys(&mut asm, Sysno::NtSocketRecv as u32);
        asm.hlt();
        let image = image_of(asm);
        let r = analyze_image("t", &image);
        // The send happens before the recv and the entry starts with clean
        // memory: no source can reach that sink.
        assert!(
            r.flows.flows.iter().all(|f| f.sink != SinkKind::Net),
            "unexpected flow into the early send: {:?}",
            r.flows.flows
        );
    }

    #[test]
    fn sources_compose_across_direct_calls() {
        let mut asm = Asm::new(BASE);
        asm.call("getdata");
        asm.mov_ri(Reg::Ecx, 0x50_0000);
        sys(&mut asm, Sysno::NtWriteFile as u32);
        asm.hlt();
        asm.label("getdata");
        sys(&mut asm, Sysno::NtSocketRecv as u32);
        asm.ret();
        let image = image_of(asm);
        let r = analyze_image("t", &image);
        assert!(
            r.flows
                .flows
                .iter()
                .any(|f| f.source == SourceKind::Net && f.sink == SinkKind::File),
            "callee source must reach caller sink: {:?}",
            r.flows.flows
        );
        assert!(r.stats.summary_cache_hits >= 1, "callee summary lookup must be cached");
    }

    #[test]
    fn exported_functions_assume_ambient_taint() {
        let mut asm = Asm::new(BASE);
        sys(&mut asm, Sysno::NtSocketRecv as u32);
        asm.hlt();
        asm.label("handler"); // export: callable after the recv ran
        asm.mov_ri(Reg::Ecx, 0x50_0000);
        sys(&mut asm, Sysno::NtSocketSend as u32);
        asm.ret();
        let (code, labels) = asm.assemble_with_labels().unwrap();
        let handler = labels["handler"];
        let image = FdlImage {
            entry: BASE,
            export_table_va: 0,
            sections: vec![Section { va: BASE, data: code, perms: Perms::RX }],
            exports: vec![Export { name: "handler".into(), va: handler }],
        };
        let r = analyze_image("t", &image);
        assert!(
            r.flows.flows.iter().any(|f| f.sink == SinkKind::Net),
            "export sink must see ambient sources: {:?}",
            r.flows.flows
        );
    }

    #[test]
    fn alerts_outside_every_module_are_statically_impossible() {
        let mut asm = Asm::new(BASE);
        sys(&mut asm, Sysno::NtSocketRecv as u32);
        asm.hlt();
        let image = image_of(asm);
        let models = crate::model_map([("prog.exe", image)]);
        let observed = BTreeMap::from([(Pid(1), BTreeMap::from([(BASE, 1)]))]);
        let alerts = vec![
            // Payload memory.
            DynamicAlert { process: "prog.exe".into(), cr3: 0x2000, va: 0x0100_2000 },
        ];
        let procs = one_process(&models, "prog.exe");
        let check = taint_cross_check_with_stats(&alerts, &procs, &observed).0;
        assert!(check.injection_suspected());
        assert_eq!(check.impossible_total(), 1);
        assert_eq!(check.explainable_total(), 0);
    }

    #[test]
    fn alerts_find_their_process_by_cr3_not_by_name() {
        // Two `a.exe` processes; only the second loaded `lib.dll`, whose
        // modeled flow reaches the alert VA. A lookup by name would find
        // the first process, which has no model covering the VA.
        let mut asm = Asm::new(BASE);
        asm.hlt();
        let app = image_of(asm);
        const DLL: u32 = 0x0200_0000;
        let mut asm = Asm::new(DLL);
        sys(&mut asm, Sysno::NtSocketRecv as u32);
        asm.ld4(Reg::Eax, Mem::abs(0x50_0000)); // reads the received bytes
        asm.hlt();
        let lib = FdlImage {
            entry: DLL,
            export_table_va: 0,
            sections: vec![Section { va: DLL, data: asm.assemble().unwrap(), perms: Perms::RX }],
            exports: vec![],
        };
        let models = crate::model_map([("a.exe", app), ("lib.dll", lib)]);
        let va = *models["lib.dll"].dataflow.flows.taint_reachable.iter().next().unwrap();
        let table = ProcessTable {
            models: &models,
            processes: vec![
                ModeledProcess {
                    pid: Pid(1),
                    cr3: 0x2000,
                    name: "a.exe",
                    models: vec![&models["a.exe"]],
                    unmodeled: false,
                },
                ModeledProcess {
                    pid: Pid(2),
                    cr3: 0x3000,
                    name: "a.exe",
                    models: vec![&models["a.exe"], &models["lib.dll"]],
                    unmodeled: false,
                },
            ],
        };
        let alerts = vec![DynamicAlert { process: "a.exe".into(), cr3: 0x3000, va }];
        let check = taint_cross_check_with_stats(&alerts, &table, &BTreeMap::new()).0;
        assert_eq!(check.processes.len(), 1);
        assert_eq!(check.processes[0].explainable, [va]);
        assert!(check.processes[0].impossible.is_empty());
    }

    #[test]
    fn processes_sharing_a_name_get_a_row_each() {
        let mut asm = Asm::new(BASE);
        asm.hlt();
        let models = crate::model_map([("a.exe", image_of(asm))]);
        let table = processes_of(&models, "a.exe", &[0x2000, 0x3000]);
        let alerts = [(0x2000, 0x0100_1000), (0x3000, 0x0100_2000)]
            .map(|(cr3, va)| DynamicAlert { process: "a.exe".into(), cr3, va });
        let check = taint_cross_check_with_stats(&alerts, &table, &BTreeMap::new()).0;
        let rows: Vec<(&str, &[u32])> =
            check.processes.iter().map(|p| (&*p.process, &*p.impossible)).collect();
        assert_eq!(rows, [("a.exe", &[0x0100_1000][..]), ("a.exe", &[0x0100_2000][..])]);
    }

    #[test]
    fn unexercised_feasible_flows_are_residual_surface() {
        let mut asm = Asm::new(BASE);
        sys(&mut asm, Sysno::NtSocketRecv as u32);
        asm.mov_ri(Reg::Ecx, 0x50_0000);
        sys(&mut asm, Sysno::NtSocketSend as u32);
        asm.hlt();
        let image = image_of(asm);
        let models = crate::model_map([("prog.exe", image)]);
        // The process loaded the module but never executed anything.
        let procs = one_process(&models, "prog.exe");
        let check = taint_cross_check_with_stats(&[], &procs, &BTreeMap::new()).0;
        assert!(!check.injection_suspected());
        assert!(
            check.residual.iter().any(|r| r.flow.sink == SinkKind::Net),
            "net->net flow never exercised must be residual: {:?}",
            check.residual
        );
    }

    #[test]
    fn cross_check_json_round_trips() {
        let check = TaintCrossCheck {
            processes: vec![ProcessTaintCheck {
                process: "notepad.exe".into(),
                explainable: vec![0x40_1000],
                impossible: vec![0x0100_2000],
            }],
            residual: vec![ResidualFlow {
                module: "prog.exe".into(),
                flow: StaticFlow {
                    source: SourceKind::Net,
                    sink: SinkKind::File,
                    sink_va: 0x40_2000,
                },
            }],
        };
        let v = check.to_json_value();
        let back = TaintCrossCheck::from_json_value(&v).unwrap();
        assert_eq!(back, check);
    }

    #[test]
    fn stats_record_as_analyze_metrics() {
        let stats = DataflowStats {
            worklist_iterations: 10,
            widenings: 2,
            indirects_resolved: 3,
            indirects_unresolved: 1,
            summary_cache_hits: 4,
            functions_analyzed: 5,
        };
        let mut reg = MetricsRegistry::new();
        stats.record_into(&mut reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("analyze.worklist.iterations"), Some(10));
        assert_eq!(snap.counter("analyze.indirect.resolved"), Some(3));
        assert_eq!(snap.counter("analyze.summary.cache_hits"), Some(4));

        // The same counters land in the Chrome trace as an instant event.
        let rec = RecorderHandle::new(16);
        stats.trace_into(&rec, 123, "app.exe");
        let chrome = rec.export_chrome();
        assert!(chrome.contains("\"analysis\""), "{chrome}");
        assert!(chrome.contains("analyze.widenings"), "{chrome}");
    }
}
