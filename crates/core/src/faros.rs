//! The FAROS plugin: provenance tag insertion, propagation glue, and the
//! tag-confluence attack detector (paper §V).

use crate::policy::Policy;
use crate::report::{Detection, FarosReport};
use faros_emu::cpu::{CpuHooks, InsnCtx, ShadowLoc};
use faros_emu::isa::{Reg, Width};
use faros_kernel::event::{ByteRange, CopyRun, KernelEvents};
use faros_kernel::module::{ModuleInfo, EXPORT_ENTRY_SIZE, EXPORT_PTR_OFFSET};
use faros_kernel::net::FlowTuple;
use faros_kernel::process::ProcessInfo;
use faros_kernel::{Pid, Tid};
use faros_obs::metrics::{CounterId, MetricsSnapshot};
use faros_obs::trace::{RecorderHandle, TraceCategory, TraceEvent};
use faros_replay::Plugin;
use faros_support::json::{JsonValue, ToJson};
use faros_taint::engine::{PropagationMode, TaintEngine};
use faros_taint::provlist::ListId;
use faros_taint::shadow::{ShadowAddr, SHADOW_REGS};
use faros_taint::tag::{NetflowTag, ProvTag, TagKind};
use std::collections::{BTreeSet, HashMap, HashSet};

/// The taint engine's address of byte 0 of `r`; a whole-register operand
/// is this address with length 4.
#[inline]
fn reg_addr(r: Reg) -> ShadowAddr {
    ShadowAddr::Reg { index: r.index() as u8, off: 0 }
}

/// Whole-register source operands for the engine, on the stack: an FE32
/// flow names at most two source registers (`Mem::regs_used`, `cmp r, r`).
#[inline]
fn reg_srcs(regs: &[Reg]) -> ([(ShadowAddr, u8); 2], usize) {
    debug_assert!(regs.len() <= 2, "FE32 flows read at most two registers");
    let mut out = [(ShadowAddr::Mem(0), 0); 2];
    for (slot, &r) in out.iter_mut().zip(regs) {
        *slot = (reg_addr(r), 4);
    }
    (out, regs.len().min(2))
}

/// Converts a kernel flow tuple into a netflow tag payload.
fn netflow_of(flow: &FlowTuple) -> NetflowTag {
    NetflowTag {
        src_ip: flow.src_ip,
        src_port: flow.src_port,
        dst_ip: flow.dst_ip,
        dst_port: flow.dst_port,
    }
}

/// Summary counters for a FAROS run.
///
/// Derived on demand from the `faros.*` counters FAROS registers into its
/// engine's metrics registry — a stable read-out view, not the storage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FarosStats {
    /// Instructions observed.
    pub instructions: u64,
    /// Netflow labeling events.
    pub net_labels: u64,
    /// File labeling events.
    pub file_labels: u64,
    /// Export-table pointers tainted.
    pub export_pointers: u64,
    /// Kernel-mediated copies shadowed (bytes).
    pub copied_bytes: u64,
    /// Export-table reads by foreign code (pre-dedup).
    pub confluence_hits: u64,
}

impl ToJson for FarosStats {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("instructions", self.instructions.to_json_value()),
            ("net_labels", self.net_labels.to_json_value()),
            ("file_labels", self.file_labels.to_json_value()),
            ("export_pointers", self.export_pointers.to_json_value()),
            ("copied_bytes", self.copied_bytes.to_json_value()),
            ("confluence_hits", self.confluence_hits.to_json_value()),
        ])
    }
}

/// Ids of the `faros.*` counters inside the engine's registry.
#[derive(Debug, Clone, Copy)]
struct FarosCounters {
    instructions: CounterId,
    net_labels: CounterId,
    file_labels: CounterId,
    export_pointers: CounterId,
    copied_bytes: CounterId,
    confluence_hits: CounterId,
}

impl FarosCounters {
    fn register(engine: &mut TaintEngine) -> FarosCounters {
        let m = engine.metrics_mut();
        FarosCounters {
            instructions: m.counter("faros.instructions"),
            net_labels: m.counter("faros.net_labels"),
            file_labels: m.counter("faros.file_labels"),
            export_pointers: m.counter("faros.export_pointers"),
            copied_bytes: m.counter("faros.copied_bytes"),
            confluence_hits: m.counter("faros.confluence_hits"),
        }
    }
}

/// The FAROS plugin.
///
/// Attach it to a replay (via `faros_replay::PluginManager` or directly as
/// the observer) and read the [`FarosReport`] afterwards.
///
/// # Examples
///
/// ```
/// use faros::{Faros, Policy};
///
/// let faros = Faros::new(Policy::paper());
/// assert!(!faros.report().attack_flagged());
/// ```
#[derive(Debug)]
pub struct Faros {
    engine: TaintEngine,
    policy: Policy,
    /// CR3 -> interned process tag.
    proc_tags: HashMap<u32, ProvTag>,
    /// CR3 -> image name.
    proc_names: HashMap<u32, String>,
    /// Pid -> CR3 (events carry pids; taint identity is the CR3).
    pid_cr3: HashMap<Pid, u32>,
    /// Per-thread register shadow banks, swapped on context switch.
    reg_banks: HashMap<(Pid, Tid), [[ListId; 4]; SHADOW_REGS]>,
    current_thread: Option<(Pid, Tid)>,
    current_cr3: u32,
    detections: Vec<Detection>,
    whitelisted: Vec<Detection>,
    seen_insns: HashSet<u32>,
    /// `(process name, site VA)` pairs whose indirect-transfer target was
    /// read from netflow-tainted data — the taint-fusion input to the CFI
    /// cross-check, recorded independently of the Minos alert policy.
    tainted_transfers: BTreeSet<(String, u32)>,
    ctr: FarosCounters,
    /// Shared flight-recorder ring for taint-event instants; `None` (the
    /// default) keeps tracing entirely off the FAROS hot path.
    recorder: Option<RecorderHandle>,
    /// Virtual clock (instructions retired + idle boosts), kept current
    /// from `InsnCtx::retired` and `tick`.
    now: u64,
}

impl Faros {
    /// Creates a FAROS instance with the given policy and the paper's
    /// propagation configuration (direct flows only).
    pub fn new(policy: Policy) -> Faros {
        Faros::with_mode(policy, PropagationMode::direct_only())
    }

    /// Creates a FAROS instance with an explicit propagation mode (for the
    /// indirect-flow ablation experiments).
    pub fn with_mode(policy: Policy, mode: PropagationMode) -> Faros {
        let mut engine = TaintEngine::new(mode);
        let ctr = FarosCounters::register(&mut engine);
        Faros {
            engine,
            policy,
            proc_tags: HashMap::new(),
            proc_names: HashMap::new(),
            pid_cr3: HashMap::new(),
            reg_banks: HashMap::new(),
            current_thread: None,
            current_cr3: 0,
            detections: Vec::new(),
            whitelisted: Vec::new(),
            seen_insns: HashSet::new(),
            tainted_transfers: BTreeSet::new(),
            ctr,
            recorder: None,
            now: 0,
        }
    }

    /// Attaches a shared flight-recorder ring: detections and labeling
    /// events are emitted as `taint`-category instants alongside whatever
    /// else writes into the same ring (typically the replay trace recorder).
    pub fn attach_recorder(&mut self, recorder: RecorderHandle) {
        self.recorder = Some(recorder);
    }

    /// The policy in effect.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// The underlying DIFT engine (for inspection and tests).
    pub fn engine(&self) -> &TaintEngine {
        &self.engine
    }

    /// `(process name, site VA)` pairs whose indirect-transfer target was
    /// read from netflow-tainted data. Fed to `faros_analyze::cfi::check`
    /// as its taint-fusion input: a CFI violation at one of these sites
    /// means *attacker data decided the escaping control transfer*.
    pub fn tainted_transfers(&self) -> &BTreeSet<(String, u32)> {
        &self.tainted_transfers
    }

    /// Run counters (a read-out of the `faros.*` registry counters).
    pub fn stats(&self) -> FarosStats {
        let m = self.engine.metrics();
        FarosStats {
            instructions: m.get(self.ctr.instructions),
            net_labels: m.get(self.ctr.net_labels),
            file_labels: m.get(self.ctr.file_labels),
            export_pointers: m.get(self.ctr.export_pointers),
            copied_bytes: m.get(self.ctr.copied_bytes),
            confluence_hits: m.get(self.ctr.confluence_hits),
        }
    }

    /// Snapshot of the combined `faros.*` + `taint.*` counters (the engine
    /// registry, gauges refreshed). Sorted and deterministic — mergeable
    /// with other components' snapshots via [`MetricsSnapshot::merge`].
    pub fn metrics_snapshot(&mut self) -> MetricsSnapshot {
        self.engine.metrics_snapshot()
    }

    /// Emits a trace event into the attached recorder, if any. The closure
    /// receives `(now, pid, tid)` for the current thread, so event
    /// construction is skipped entirely when tracing is off.
    fn emit(&self, make: impl FnOnce(u64, u32, u32) -> TraceEvent) {
        if let Some(rec) = &self.recorder {
            let (pid, tid) = self.current_thread.map_or((0, 0), |(p, t)| (p.0, t.0));
            rec.record(make(self.now, pid, tid));
        }
    }

    /// Builds the analyst report.
    pub fn report(&self) -> FarosReport {
        FarosReport {
            detections: self.detections.clone(),
            whitelisted: self.whitelisted.clone(),
            // Filled in by `FarosReport::attach_coverage` /
            // `attach_taint` / `attach_metrics` when the caller opts in.
            coverage: Vec::new(),
            taint: Default::default(),
            cfi: Default::default(),
            capabilities: Default::default(),
            metrics: MetricsSnapshot::default(),
            profile: Default::default(),
        }
    }

    fn process_tag(&mut self, cr3: u32) -> ProvTag {
        if let Some(&t) = self.proc_tags.get(&cr3) {
            return t;
        }
        let name = self
            .proc_names
            .get(&cr3)
            .cloned()
            .unwrap_or_else(|| format!("cr3-{cr3:#x}"));
        let tag = self
            .engine
            .tables_mut()
            .intern_process(cr3, &name)
            .expect("process tag table overflow");
        self.proc_tags.insert(cr3, tag);
        tag
    }

    fn pid_tag(&mut self, pid: Pid) -> Option<ProvTag> {
        let cr3 = *self.pid_cr3.get(&pid)?;
        Some(self.process_tag(cr3))
    }

    fn label_ranges_fresh(&mut self, ranges: &[ByteRange], tag: ProvTag, proc_tag: Option<ProvTag>) {
        // One fused fill per range: the source tag plus (if known) the
        // accessing process's tag as a single interned list, instead of a
        // labeling pass followed by an append pass.
        let (pair, single);
        let tags: &[ProvTag] = match proc_tag {
            Some(pt) => {
                pair = [tag, pt];
                &pair
            }
            None => {
                single = [tag];
                &single
            }
        };
        for r in ranges {
            self.engine.label_range_fresh_tags(r.phys, r.len as usize, tags);
        }
    }

    fn code_provenance(&mut self, ctx: &InsnCtx) -> ListId {
        let mut acc = ListId::EMPTY;
        for &p in ctx.code_bytes() {
            let id = self.engine.prov_id(ShadowAddr::Mem(p));
            if !id.is_empty() {
                acc = self.engine.union_lists(acc, id);
            }
        }
        acc
    }

    fn current_process_name(&self) -> String {
        self.proc_names
            .get(&self.current_cr3)
            .cloned()
            .unwrap_or_else(|| format!("cr3-{:#x}", self.current_cr3))
    }
}

impl CpuHooks for Faros {
    fn on_insn(&mut self, ctx: &InsnCtx) {
        self.engine.metrics_mut().inc(self.ctr.instructions);
        self.now = self.now.max(ctx.retired);
        self.current_cr3 = ctx.asid.0;
    }

    fn flow_copy(&mut self, dst: Reg, src: Reg) {
        self.engine.copy(reg_addr(dst), reg_addr(src), 4);
    }

    fn flow_load(&mut self, dst: Reg, phys: &[u32]) {
        // Batched load: one engine call for the whole translated run, with
        // the zero-extension delete for sub-word widths. Loads write a
        // register, so no process tag is appended.
        let idx = dst.index() as u8;
        self.engine.copy_mem_to_reg(idx, phys);
        let w = phys.len();
        if w < 4 {
            self.engine.delete(ShadowAddr::Reg { index: idx, off: w as u8 }, (4 - w) as u8);
        }
    }

    fn flow_store(&mut self, phys: &[u32], src: Reg) {
        self.engine.copy_reg_to_mem(phys, src.index() as u8);
        // "If a process accesses a byte in memory, FAROS adds a process tag
        // into the head of that byte's provenance list" — applied on stores
        // of tainted bytes, per byte of the translated run (each byte on its
        // own frame — a page-crossing store must not tag `phys[0] + i`).
        // Skipped wholesale while shadow memory is clean: the copy above
        // cannot have tainted anything.
        if self.engine.shadow().tainted_mem_bytes() == 0 {
            return;
        }
        let cr3 = self.current_cr3;
        for &p in phys {
            let a = ShadowAddr::Mem(p);
            if !self.engine.prov_id(a).is_empty() {
                let tag = self.process_tag(cr3);
                self.engine.append_tag(a, tag);
            }
        }
    }

    fn flow_delete_mem(&mut self, phys: &[u32]) {
        self.engine.delete_mem(phys);
    }

    fn flow_union(&mut self, dst: Reg, srcs: &[Reg], keep_dst: bool) {
        let (srcs, n) = reg_srcs(srcs);
        self.engine.union_into(reg_addr(dst), 4, &srcs[..n], keep_dst);
    }

    fn flow_delete(&mut self, dst: Reg) {
        self.engine.delete(reg_addr(dst), 4);
    }

    fn flow_addr_dep(&mut self, dst: Reg, addr_srcs: &[Reg]) {
        let (srcs, n) = reg_srcs(addr_srcs);
        self.engine.addr_dep(reg_addr(dst), 4, &srcs[..n]);
    }

    fn flow_addr_dep_bytes(&mut self, phys: &[u32], addr_srcs: &[Reg]) {
        let (srcs, n) = reg_srcs(addr_srcs);
        self.engine.addr_dep_bytes(phys, &srcs[..n]);
    }

    fn flow_flags(&mut self, srcs: &[Reg]) {
        let (srcs, n) = reg_srcs(srcs);
        self.engine.note_flags(&srcs[..n]);
    }

    fn on_branch(&mut self, _ctx: &InsnCtx, _taken: bool) {
        // Under the conservative (control-dependency) mode, writes after a
        // tainted comparison pick up its provenance until the flags are
        // re-derived from clean data.
        self.engine.enter_branch_scope();
    }

    fn on_load(&mut self, ctx: &InsnCtx, _vaddr: u32, phys: &[u32], _width: Width, _dst: Reg) {
        // The confluence check (§IV): a load whose *code bytes* are foreign
        // reading a location carrying the export-table tag. While no memory
        // byte is tainted, neither the code bytes nor the read target can
        // carry provenance — skip the per-byte scans entirely.
        if self.engine.shadow().tainted_mem_bytes() == 0 {
            return;
        }
        let code_prov = self.code_provenance(ctx);
        if code_prov.is_empty() {
            return;
        }
        let has_netflow = self.engine.interner().contains_kind(code_prov, TagKind::Netflow);
        // Walks the code bytes' chronology newest first, without allocating,
        // and stops at its oldest process tag.
        let cross_process = self
            .engine
            .interner()
            .tags_of_kind(code_prov, TagKind::Process)
            .any(|t| {
                self.engine
                    .tables()
                    .process(t)
                    .is_some_and(|p| p.cr3 != self.current_cr3)
            });
        let foreign = (self.policy.trigger_netflow && has_netflow)
            || (self.policy.trigger_cross_process && cross_process);
        if !foreign {
            return;
        }
        // Any byte of the read carrying the export-table tag triggers. The
        // scan walks the *translated* per-byte addresses: a page-crossing
        // load's upper bytes live on a different frame than `phys[0]`.
        let mut target_id = ListId::EMPTY;
        let mut hit = false;
        for &p in phys {
            let id = self.engine.prov_id(ShadowAddr::Mem(p));
            if self.engine.interner().contains_kind(id, TagKind::ExportTable) {
                target_id = id;
                hit = true;
                break;
            }
        }
        if !hit {
            return;
        }
        self.engine.metrics_mut().inc(self.ctr.confluence_hits);
        if !self.seen_insns.insert(ctx.vaddr) {
            return;
        }
        let process = self.current_process_name();
        let detection = Detection {
            insn_vaddr: ctx.vaddr,
            insn: ctx.instr.to_string(),
            read_vaddr: _vaddr,
            process: process.clone(),
            cr3: self.current_cr3,
            code_provenance: self.engine.display_list(code_prov),
            target_provenance: self.engine.display_list(target_id),
            tick: self.engine.metrics().get(self.ctr.instructions),
            via_netflow: self.policy.trigger_netflow && has_netflow,
            via_cross_process: self.policy.trigger_cross_process && cross_process,
            kind: crate::report::DetectionKind::ExportTableRead,
        };
        self.emit(|now, pid, tid| {
            TraceEvent::instant(now, pid, tid, TraceCategory::Taint, "alert")
                .arg("kind", "export-table-read")
                .arg("process", &detection.process)
                .arg("insn_vaddr", format!("{:#010x}", detection.insn_vaddr))
        });
        if self.policy.is_whitelisted(&process) {
            self.whitelisted.push(detection);
        } else {
            self.detections.push(detection);
        }
    }

    fn on_control(&mut self, ctx: &InsnCtx, target: u32, target_src: Option<ShadowLoc>) {
        let Some(src) = target_src else { return };
        // Fast path for returns: while shadow memory is wholly clean no
        // stack slot can carry netflow provenance.
        if matches!(src, ShadowLoc::Mem(_)) && self.engine.shadow().tainted_mem_bytes() == 0 {
            return;
        }
        let prov = self.engine.prov_id(match src {
            ShadowLoc::Mem(p) => ShadowAddr::Mem(p),
            ShadowLoc::Reg(r) => reg_addr(r),
        });
        if !self.engine.interner().contains_kind(prov, TagKind::Netflow) {
            return;
        }
        // Taint-fusion bit for the CFI cross-check, recorded whether or
        // not the Minos alert policy is on: tainted data decided this
        // control transfer.
        self.tainted_transfers.insert((self.current_process_name(), ctx.vaddr));
        // Extension policy (Minos-style, §VII): flag indirect transfers
        // whose target address was read from netflow-tainted bytes.
        if !self.policy.minos_tainted_pc {
            return;
        }
        if !self.seen_insns.insert(ctx.vaddr) {
            return;
        }
        let process = self.current_process_name();
        let detection = Detection {
            insn_vaddr: ctx.vaddr,
            insn: ctx.instr.to_string(),
            read_vaddr: target,
            process: process.clone(),
            cr3: self.current_cr3,
            code_provenance: self.engine.display_list(prov),
            target_provenance: format!("control transfer target {target:#010x}"),
            tick: self.engine.metrics().get(self.ctr.instructions),
            via_netflow: true,
            via_cross_process: false,
            kind: crate::report::DetectionKind::TaintedControlTransfer,
        };
        self.emit(|now, pid, tid| {
            TraceEvent::instant(now, pid, tid, TraceCategory::Taint, "alert")
                .arg("kind", "tainted-control-transfer")
                .arg("process", &detection.process)
                .arg("insn_vaddr", format!("{:#010x}", detection.insn_vaddr))
        });
        if self.policy.is_whitelisted(&process) {
            self.whitelisted.push(detection);
        } else {
            self.detections.push(detection);
        }
    }
}

impl KernelEvents for Faros {
    fn process_created(&mut self, info: &ProcessInfo) {
        self.proc_names.insert(info.cr3, info.name.clone());
        self.pid_cr3.insert(info.pid, info.cr3);
        let _ = self.process_tag(info.cr3);
    }

    fn module_loaded(&mut self, _pid: Option<Pid>, module: &ModuleInfo, export_table: &[ByteRange]) {
        // Taint the function-pointer field of every export entry (§V-A:
        // "scans all loaded modules and taints the function pointers in the
        // export tables"). Tags are *named* per entry — the paper's stated
        // future work — so reports can say which pointer was read. Each
        // pointer's four bytes are located by walking the (few) physical
        // runs of the table directly and labeled with one bulk range fill;
        // bytes falling past the recorded runs are simply not labeled, as
        // before.
        let mut name = String::with_capacity(module.name.len() + 32);
        for (i, export) in module.exports.iter().enumerate() {
            name.clear();
            name.push_str(&module.name);
            name.push('!');
            name.push_str(&export.name);
            let tag = self
                .engine
                .tables_mut()
                .intern_export(&name)
                .unwrap_or(ProvTag::EXPORT_TABLE);
            let mut off = (4 + i as u32 * EXPORT_ENTRY_SIZE + EXPORT_PTR_OFFSET) as u64;
            let mut remaining = 4usize;
            for r in export_table {
                let rlen = r.len as u64;
                if off < rlen {
                    let take = remaining.min((rlen - off) as usize);
                    self.engine.label_range_fresh(r.phys + off as u32, take, tag);
                    remaining -= take;
                    if remaining == 0 {
                        break;
                    }
                    off = 0;
                } else {
                    off -= rlen;
                }
            }
            self.engine.metrics_mut().inc(self.ctr.export_pointers);
        }
        self.emit(|now, pid, tid| {
            TraceEvent::instant(now, pid, tid, TraceCategory::Taint, "export_table_tainted")
                .arg("module", &module.name)
                .arg("pointers", module.exports.len().to_string())
        });
    }

    fn net_rx(&mut self, pid: Pid, flow: &FlowTuple, dst: &[ByteRange]) {
        self.engine.metrics_mut().inc(self.ctr.net_labels);
        let tag = self
            .engine
            .tables_mut()
            .intern_netflow(netflow_of(flow))
            .expect("netflow tag table overflow");
        let ptag = self.pid_tag(pid);
        self.label_ranges_fresh(dst, tag, ptag);
        self.emit(|now, _pid, _tid| {
            TraceEvent::instant(now, pid.0, 0, TraceCategory::Taint, "netflow_label")
                .arg("flow", flow.to_string())
                .arg("bytes", dst.iter().map(|r| r.len as u64).sum::<u64>().to_string())
        });
    }

    fn file_read(&mut self, pid: Pid, path: &str, version: u32, dst: &[ByteRange]) {
        self.engine.metrics_mut().inc(self.ctr.file_labels);
        let tag = self
            .engine
            .tables_mut()
            .intern_file(path, version)
            .expect("file tag table overflow");
        let ptag = self.pid_tag(pid);
        self.label_ranges_fresh(dst, tag, ptag);
        self.emit(|now, _pid, _tid| {
            TraceEvent::instant(now, pid.0, 0, TraceCategory::Taint, "file_label")
                .arg("path", path)
                .arg("direction", "read")
        });
    }

    fn file_write(&mut self, _pid: Pid, path: &str, version: u32, src: &[ByteRange]) {
        self.engine.metrics_mut().inc(self.ctr.file_labels);
        self.emit(|now, pid, tid| {
            TraceEvent::instant(now, pid, tid, TraceCategory::Taint, "file_label")
                .arg("path", path)
                .arg("direction", "write")
        });
        // "When a buffer is written into a file, FAROS taints the buffer
        // with a file tag" (§V-A).
        let tag = self
            .engine
            .tables_mut()
            .intern_file(path, version)
            .expect("file tag table overflow");
        for r in src {
            self.engine.append_tag_range(r.phys, r.len as usize, tag);
        }
    }

    fn guest_copy(&mut self, _src_pid: Pid, dst_pid: Pid, runs: &[CopyRun]) {
        // Shadow follows the kernel's copy loop byte-for-byte; bytes landing
        // in the destination address space collect its process tag
        // (NetFlow -> injector -> victim chronology of Table II).
        let dst_tag = self.pid_tag(dst_pid);
        for run in runs {
            self.engine.metrics_mut().add(self.ctr.copied_bytes, run.len as u64);
            for i in 0..run.len {
                let dst = ShadowAddr::Mem(run.dst_phys + i);
                let src = ShadowAddr::Mem(run.src_phys + i);
                self.engine.copy(dst, src, 1);
                if let Some(t) = dst_tag {
                    if !self.engine.prov_id(dst).is_empty() {
                        self.engine.append_tag(dst, t);
                    }
                }
            }
        }
    }

    fn kernel_write(&mut self, _pid: Pid, dst: &[ByteRange]) {
        for r in dst {
            self.engine.delete_range(r.phys, r.len as usize);
        }
    }

    fn context_switch(&mut self, from: Option<(Pid, Tid)>, to: (Pid, Tid)) {
        // A missing `reg_banks` entry means an all-empty bank, so threads
        // that never held register taint — the common case — cost no
        // 256-byte bank copies or recounts here.
        if let Some(f) = from {
            if self.engine.shadow().tainted_reg_bytes() == 0 {
                self.reg_banks.remove(&f);
            } else {
                let bank = self.engine.shadow().save_regs();
                self.reg_banks.insert(f, bank);
            }
        }
        match self.reg_banks.get(&to) {
            Some(bank) => self.engine.shadow_mut().restore_regs(*bank),
            None => {
                if self.engine.shadow().tainted_reg_bytes() != 0 {
                    self.engine.shadow_mut().clear_regs();
                }
            }
        }
        self.current_thread = Some(to);
    }

    fn tick(&mut self, now: u64) {
        self.now = self.now.max(now);
    }
}

impl Plugin for Faros {
    fn name(&self) -> &str {
        "faros"
    }
}
