//! Static syscall-capability analysis and its dynamic cross-check.
//!
//! FAROS's thesis is that in-memory injection is a *sequence of capability
//! syscalls*: allocate executable memory in a victim, write foreign bytes
//! into it, redirect control. This module derives, per image, what the
//! image is statically *able to do* through the syscall ABI — not which
//! bytes flow where (that is [`crate::dataflow`]'s job) but which
//! [`Capability`]s its reachable syscall sites can exercise, with the
//! abstract argument values that justify each one.
//!
//! The analysis is an interprocedural abstract interpretation over the
//! [`crate::vsa`] domain, structured exactly like the taint phases:
//!
//! * **Phase A** — at every reachable `int` site whose service number the
//!   VSA resolved to a constant, the abstract arguments (protection bits,
//!   target-handle provenance) are lifted into the capability lattice
//!   ([`CapSet`], join = union) via [`caps_of_syscall`].
//! * **Phase B** — per-function capability summaries compose over the
//!   static call graph to a fixpoint ([`summarize`], the summary the taint
//!   phases also use): a function holds every capability of its callees.
//! * **Phase C** — witness extraction: for each image capability, the
//!   shortest call path from an externally reachable root (entry or
//!   export) to a function exercising it, plus the rendered abstract
//!   arguments ([`CapWitness`]).
//!
//! On top of the per-capability view sit ordered *injection recipes*
//! ([`RECIPES`]): multi-step capability sequences (e.g. `alloc-exec-remote
//! → write-remote → create-remote-thread`) checked for program-order
//! presence. "Program order" is approximated by strictly ascending site
//! VAs across the reachable sites — exact for the straight-line loaders
//! the corpus ships, conservative in general.
//!
//! [`capability_cross_check_with_stats`] is the dynamic half, mirroring
//! the taint cross-check: each capability a process *concretely exercised*
//! (recorded by `faros-replay`'s `CapabilityMonitor`) is classified statically
//! *modeled* or **statically impossible-per-model** — the new alert class:
//! a process exercising an injection capability its own loaded images
//! cannot justify is running injected or laundered code. Because the
//! kernel module's API stubs forward the caller's argument registers
//! verbatim, any image that can call into unknown code (an unresolved
//! indirect, a call target outside the image, or a syscall with an
//! unresolvable service number) is granted the stub-reachable *ambient*
//! set ([`ambient_caps`]) — the sound direction: a capability is only
//! called impossible when even that escape hatch cannot produce it.
//! Statically present recipes no replay ever exercised are reported as
//! *residual capability surface*.

use crate::cfg::ModuleCfg;
use crate::dataflow::ImageDataflow;
use crate::model::ProcessTable;
use crate::lint::{Finding, FindingKind, Severity};
use crate::vsa::AVal;
use faros_emu::isa::Instr;
use faros_kernel::nt::{Sysno, CURRENT_PROCESS, CURRENT_THREAD};
use faros_kernel::{Machine, Pid};
use faros_obs::metrics::MetricsRegistry;
use faros_replay::syscap::{CapSet, Capability, CapabilityUse};
use faros_support::json::{self, FromJson, JsonError, JsonValue, ToJson};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The executable bit of a `perms_bits` argument (bit 0 = R, 1 = W, 2 = X).
const PERM_X: u32 = 0b100;

// ---------------------------------------------------------------------
// Abstract lifting: VSA argument values → capabilities
// ---------------------------------------------------------------------

/// May the abstract value include one with the X permission bit set?
/// `Top`/`Sp` conservatively yes; an interval too wide to enumerate is
/// assumed to cover an X-bearing value.
fn may_have_x(av: &AVal) -> bool {
    match av {
        AVal::Bot => false,
        AVal::Si(si) => match si.enumerate() {
            Some(vs) => vs.iter().any(|v| v & PERM_X != 0),
            None => true,
        },
        _ => true,
    }
}

/// May the abstract value equal `v`?
fn may_eq(av: &AVal, v: u32) -> bool {
    match av {
        AVal::Bot => false,
        AVal::Si(si) => si.contains(v),
        _ => true,
    }
}

/// May the abstract value differ from `v`? Only a singleton `{v}` rules
/// this out.
fn may_ne(av: &AVal, v: u32) -> bool {
    match av {
        AVal::Bot => false,
        AVal::Si(si) => si.as_const() != Some(v),
        _ => true,
    }
}

/// Lifts one syscall invocation with abstract arguments (`args[0..4]` =
/// `ebx ecx edx esi edi`) into the capability lattice. This is the
/// abstract twin of `faros-replay`'s `concrete_capability`; on singleton
/// abstract values the two agree (pinned by a test below).
pub fn caps_of_syscall(sysno: u32, args: &[AVal; 5]) -> CapSet {
    let mut caps = CapSet::EMPTY;
    match Sysno::from_u32(sysno) {
        Some(Sysno::NtAllocateVirtualMemory) if may_have_x(&args[2]) => {
            if may_eq(&args[0], CURRENT_PROCESS) {
                caps.insert(Capability::AllocExecSelf);
            }
            if may_ne(&args[0], CURRENT_PROCESS) {
                caps.insert(Capability::AllocExecRemote);
            }
        }
        Some(Sysno::NtProtectVirtualMemory) if may_have_x(&args[3]) => {
            caps.insert(Capability::ProtectToExec);
        }
        Some(Sysno::NtMapViewOfSection) if may_have_x(&args[2]) => {
            caps.insert(Capability::MapExec);
        }
        Some(Sysno::NtWriteVirtualMemory) if may_ne(&args[0], CURRENT_PROCESS) => {
            caps.insert(Capability::WriteRemote);
        }
        Some(Sysno::NtReadVirtualMemory) if may_ne(&args[0], CURRENT_PROCESS) => {
            caps.insert(Capability::ReadRemote);
        }
        Some(Sysno::NtCreateThreadEx) if may_ne(&args[0], CURRENT_PROCESS) => {
            caps.insert(Capability::CreateRemoteThread);
        }
        Some(Sysno::NtSetContextThread) if may_ne(&args[0], CURRENT_THREAD) => {
            caps.insert(Capability::SetContext);
        }
        Some(Sysno::NtCreateUserProcess) => {
            caps.insert(Capability::SpawnProcess);
        }
        Some(Sysno::LdrLoadDll) => {
            caps.insert(Capability::LoadLibrary);
        }
        Some(Sysno::NtSocketSend) => {
            caps.insert(Capability::SendNet);
        }
        Some(Sysno::NtSocketRecv) => {
            caps.insert(Capability::RecvNet);
        }
        Some(Sysno::NtReadFile) => {
            caps.insert(Capability::ReadSensitive);
        }
        _ => {}
    }
    caps
}

/// The capabilities reachable through the kernel module's API stubs. A
/// stub forwards the caller's argument registers verbatim, so every
/// stubbed service is lifted with all-`Top` arguments. Any image that can
/// call into unknown code gets this set as its escape hatch.
pub fn ambient_caps() -> CapSet {
    let top = [AVal::Top; 5];
    Machine::kernel_stub_services()
        .into_iter()
        .map(|s| caps_of_syscall(s as u32, &top))
        .fold(CapSet::EMPTY, CapSet::union)
}

/// Renders an abstract value for witness output (ASCII, byte-stable).
fn render_aval(av: &AVal) -> String {
    match av {
        AVal::Bot => "bot".to_string(),
        AVal::Top => "top".to_string(),
        AVal::Sp(off) => format!("sp{off:+}"),
        AVal::Si(si) => match si.as_const() {
            Some(v) => format!("{v:#x}"),
            None => format!("{:#x}..{:#x}/{}", si.lo, si.hi, si.stride),
        },
    }
}

/// The argument positions (and names) that justify each capability, for
/// witness rendering.
fn relevant_args(cap: Capability) -> &'static [(usize, &'static str)] {
    match cap {
        Capability::AllocExecSelf | Capability::AllocExecRemote => {
            &[(0, "process"), (2, "perms")]
        }
        Capability::ProtectToExec => &[(0, "process"), (3, "perms")],
        Capability::MapExec => &[(0, "section"), (2, "perms")],
        Capability::WriteRemote | Capability::ReadRemote => &[(0, "process")],
        Capability::CreateRemoteThread => &[(0, "process"), (1, "start")],
        Capability::SetContext => &[(0, "thread")],
        Capability::SpawnProcess | Capability::LoadLibrary => &[],
        Capability::SendNet | Capability::RecvNet => &[(0, "socket")],
        Capability::ReadSensitive => &[(0, "file")],
    }
}

// ---------------------------------------------------------------------
// Phase B: summary composition
// ---------------------------------------------------------------------

/// Composes per-function local values over the static call graph to a
/// fixpoint: a function's summary is its local value joined with every
/// callee's summary, and a callee with no summary of its own contributes
/// `unknown`. `join` is the value lattice's least upper bound and
/// `T::default()` its bottom. The capability analysis summarizes
/// [`CapSet`]s (`unknown` = [`CapSet::EMPTY`]); the taint phases summarize
/// source masks (`unknown` = every source). Monotone in `local` (pinned by
/// the property tests), and terminating because both lattices are finite.
pub fn summarize<T: Copy + Eq + Default>(
    local: &BTreeMap<u32, T>,
    call_graph: &BTreeMap<u32, BTreeSet<u32>>,
    unknown: T,
    join: impl Fn(T, T) -> T,
) -> BTreeMap<u32, T> {
    let mut summary: BTreeMap<u32, T> = local.clone();
    loop {
        let mut changed = false;
        for (&f, callees) in call_graph {
            let mut s = summary.get(&f).copied().unwrap_or_default();
            for c in callees {
                s = join(s, summary.get(c).copied().unwrap_or(unknown));
            }
            if Some(s) != summary.get(&f).copied() {
                summary.insert(f, s);
                changed = true;
            }
        }
        if !changed {
            return summary;
        }
    }
}

// ---------------------------------------------------------------------
// Recipes
// ---------------------------------------------------------------------

/// An ordered multi-step injection recipe over the capability lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recipe {
    /// Stable kebab-case name (wire format and report tables).
    pub name: &'static str,
    /// The capability steps, in required program order.
    pub steps: &'static [Capability],
}

/// The recipe catalogue, in report order. `remote-thread-injection` is
/// the paper's classic three-step; `write-and-redirect` covers hollowing
/// and thread hijacking; `write-and-run-remote` is the laundered variant
/// where another process did the allocation; `download-to-exec` is the
/// self-injection shape (fetch bytes into an executable self-allocation —
/// also what a JIT legitimately does, the known false-positive class).
pub const RECIPES: [Recipe; 4] = [
    Recipe {
        name: "remote-thread-injection",
        steps: &[
            Capability::AllocExecRemote,
            Capability::WriteRemote,
            Capability::CreateRemoteThread,
        ],
    },
    Recipe {
        name: "write-and-redirect",
        steps: &[Capability::WriteRemote, Capability::SetContext],
    },
    Recipe {
        name: "write-and-run-remote",
        steps: &[Capability::WriteRemote, Capability::CreateRemoteThread],
    },
    Recipe {
        name: "download-to-exec",
        steps: &[Capability::AllocExecSelf, Capability::RecvNet],
    },
];

/// Looks a recipe up by its stable name.
pub fn recipe_by_name(name: &str) -> Option<&'static Recipe> {
    RECIPES.iter().find(|r| r.name == name)
}

// ---------------------------------------------------------------------
// The per-image static report
// ---------------------------------------------------------------------

/// The call path and abstract argument values justifying one capability.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapWitness {
    /// The capability witnessed.
    pub capability: Capability,
    /// Function-entry chain from an externally reachable root to the
    /// function containing the site (shortest, ties to lowest entries).
    pub path: Vec<u32>,
    /// VA of the `int` site.
    pub site: u32,
    /// The (constant) service number at the site.
    pub sysno: u32,
    /// Rendered abstract arguments that justify the capability, e.g.
    /// `process=top, perms=0x7`.
    pub args: String,
}

impl ToJson for CapWitness {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("capability", self.capability.to_json_value()),
            ("path", self.path.to_json_value()),
            ("site", self.site.to_json_value()),
            ("sysno", self.sysno.to_json_value()),
            ("args", self.args.to_json_value()),
        ])
    }
}

impl FromJson for CapWitness {
    fn from_json_value(v: &JsonValue) -> Result<CapWitness, JsonError> {
        Ok(CapWitness {
            capability: json::field(v, "capability")?,
            path: json::field(v, "path")?,
            site: json::field(v, "site")?,
            sysno: json::field(v, "sysno")?,
            args: json::field(v, "args")?,
        })
    }
}

/// A statically present recipe: every step has a reachable witness site,
/// in ascending-VA (approximated program) order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecipeHit {
    /// The recipe's stable name.
    pub recipe: String,
    /// `(capability, site VA)` per step, VAs strictly ascending.
    pub steps: Vec<(Capability, u32)>,
}

impl ToJson for RecipeHit {
    fn to_json_value(&self) -> JsonValue {
        let steps: Vec<JsonValue> = self
            .steps
            .iter()
            .map(|(c, va)| {
                JsonValue::object(vec![
                    ("capability", c.to_json_value()),
                    ("site", va.to_json_value()),
                ])
            })
            .collect();
        JsonValue::object(vec![
            ("recipe", self.recipe.to_json_value()),
            ("steps", JsonValue::Array(steps)),
        ])
    }
}

impl FromJson for RecipeHit {
    fn from_json_value(v: &JsonValue) -> Result<RecipeHit, JsonError> {
        let raw = v
            .get("steps")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| JsonError::decode("missing steps array"))?;
        let mut steps = Vec::with_capacity(raw.len());
        for s in raw {
            steps.push((json::field(s, "capability")?, json::field(s, "site")?));
        }
        Ok(RecipeHit { recipe: json::field(v, "recipe")?, steps })
    }
}

/// What one image is statically able to do through the syscall ABI.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CapabilityReport {
    /// Module name the report was built for.
    pub module: String,
    /// Every capability some reachable syscall site can exercise.
    pub caps: CapSet,
    /// One witness chain per capability in `caps`, in capability order.
    pub witnesses: Vec<CapWitness>,
    /// Statically present recipes, in catalogue order.
    pub recipes: Vec<RecipeHit>,
    /// Reachable `int` sites whose service number the VSA could not
    /// resolve to a constant (also surfaced as the
    /// `syscall-number-unresolved` lint).
    pub unresolved_sites: Vec<u32>,
    /// Whether the image can call into code the model cannot see (an
    /// unresolved indirect, a call target outside the image, or an
    /// unresolved service number) — if so, the cross-check grants it the
    /// stub-reachable [`ambient_caps`] escape hatch.
    pub calls_unknown_code: bool,
}

impl CapabilityReport {
    /// `true` when the report carries nothing worth rendering: no
    /// capabilities, no recipes, no unresolved sites.
    pub fn is_empty(&self) -> bool {
        self.caps.is_empty() && self.recipes.is_empty() && self.unresolved_sites.is_empty()
    }
}

impl ToJson for CapabilityReport {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("module", self.module.to_json_value()),
            ("caps", self.caps.to_json_value()),
            ("witnesses", self.witnesses.to_json_value()),
            ("recipes", self.recipes.to_json_value()),
            ("unresolved_sites", self.unresolved_sites.to_json_value()),
            ("calls_unknown_code", self.calls_unknown_code.to_json_value()),
        ])
    }
}

impl FromJson for CapabilityReport {
    fn from_json_value(v: &JsonValue) -> Result<CapabilityReport, JsonError> {
        Ok(CapabilityReport {
            module: json::field(v, "module")?,
            caps: json::field(v, "caps")?,
            witnesses: json::field(v, "witnesses")?,
            recipes: json::field(v, "recipes")?,
            unresolved_sites: json::field(v, "unresolved_sites")?,
            calls_unknown_code: json::field(v, "calls_unknown_code")?,
        })
    }
}

/// Can the image transfer control to code the static model cannot see —
/// a reachable indirect with no (fully in-image) resolved target set, or
/// a reachable direct call to an address the CFG has no block for?
fn calls_unknown_code(cfg: &ModuleCfg) -> bool {
    for site in &cfg.indirect_sites {
        if site.reachable && cfg.resolved_in_image(site.va).is_none() {
            return true;
        }
    }
    for b in cfg.blocks.values() {
        if !b.reachable {
            continue;
        }
        if let Some(&(_va, Instr::Call { rel })) = b.instrs.last() {
            let callee = b.end.wrapping_add(rel as u32);
            if !cfg.blocks.contains_key(&callee) {
                return true;
            }
        }
    }
    false
}

/// Builds the capability report of one image from its dataflow analysis
/// (phases A–C described in the module docs).
pub fn capability_report(df: &ImageDataflow) -> CapabilityReport {
    let mut report = CapabilityReport {
        module: df.cfg.name.clone(),
        calls_unknown_code: calls_unknown_code(&df.cfg),
        ..CapabilityReport::default()
    };

    // Phase A: lift each site; collect per-function local sets and the
    // per-capability site lists used for witnesses and recipes.
    let mut local: BTreeMap<u32, CapSet> = df.call_graph.keys().map(|&f| (f, CapSet::EMPTY)).collect();
    let mut sites_of: BTreeMap<u32, (CapSet, u32)> = BTreeMap::new(); // site -> (caps, sysno)
    for (&va, site) in &df.syscall_sites {
        match site.sysno().as_const() {
            Some(sysno) => {
                let args = [site.arg(0), site.arg(1), site.arg(2), site.arg(3), site.arg(4)];
                let caps = caps_of_syscall(sysno, &args);
                if caps.is_empty() {
                    continue;
                }
                for &f in &site.functions {
                    let e = local.entry(f).or_insert(CapSet::EMPTY);
                    *e = e.union(caps);
                }
                sites_of.insert(va, (caps, sysno));
            }
            None => report.unresolved_sites.push(va),
        }
    }

    // Phase B: summaries over the call graph (kept for the check's image
    // capability set = the roots' summaries).
    let summary = summarize(&local, &df.call_graph, CapSet::EMPTY, CapSet::union);

    // Phase C: breadth-first over the call graph from the externally
    // reachable roots, recording parent pointers for witness paths.
    let mut parent: BTreeMap<u32, Option<u32>> = BTreeMap::new();
    let mut order: Vec<u32> = Vec::new();
    let mut queue: VecDeque<u32> = VecDeque::new();
    for &r in &df.roots {
        if parent.insert(r, None).is_none() {
            queue.push_back(r);
        }
    }
    while let Some(f) = queue.pop_front() {
        order.push(f);
        if let Some(callees) = df.call_graph.get(&f) {
            for &c in callees {
                if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(c) {
                    e.insert(Some(f));
                    queue.push_back(c);
                }
            }
        }
    }
    for &r in &df.roots {
        report.caps = report.caps.union(summary.get(&r).copied().unwrap_or(CapSet::EMPTY));
    }

    // Reachable sites, and per-capability ascending site lists.
    let mut cap_sites: BTreeMap<Capability, Vec<u32>> = BTreeMap::new();
    for (&va, &(caps, _)) in &sites_of {
        let site = &df.syscall_sites[&va];
        if !site.functions.iter().any(|f| parent.contains_key(f)) {
            continue;
        }
        for c in caps.iter() {
            cap_sites.entry(c).or_default().push(va);
        }
    }

    // One witness per capability: first function in BFS order holding a
    // site for it, then the lowest such site VA.
    for cap in report.caps.iter() {
        let Some((&f, &site_va)) = order.iter().find_map(|f| {
            sites_of
                .iter()
                .filter(|(va, (caps, _))| {
                    caps.contains(cap) && df.syscall_sites[*va].functions.contains(f)
                })
                .map(|(va, _)| (f, va))
                .next()
        }) else {
            continue;
        };
        let mut path = vec![f];
        while let Some(Some(p)) = parent.get(path.last().unwrap()) {
            path.push(*p);
        }
        path.reverse();
        let (_, sysno) = sites_of[&site_va];
        let site = &df.syscall_sites[&site_va];
        let args = relevant_args(cap)
            .iter()
            .map(|&(i, name)| format!("{name}={}", render_aval(&site.arg(i))))
            .collect::<Vec<_>>()
            .join(", ");
        report.witnesses.push(CapWitness { capability: cap, path, site: site_va, sysno, args });
    }

    // Recipes: greedy ascending-VA step selection over reachable sites.
    for recipe in &RECIPES {
        let mut steps = Vec::with_capacity(recipe.steps.len());
        let mut min_va = 0u32;
        let mut ok = true;
        for &step in recipe.steps {
            match cap_sites
                .get(&step)
                .and_then(|vas| vas.iter().find(|&&va| steps.is_empty() || va > min_va))
            {
                Some(&va) => {
                    min_va = va;
                    steps.push((step, va));
                }
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            report.recipes.push(RecipeHit { recipe: recipe.name.to_string(), steps });
        }
    }

    report
}

/// The `syscall-number-unresolved` advisory findings of one analyzed
/// image: reachable `int` sites whose service number is not a VSA
/// constant — sites every syscall-indexed static view (taint sources,
/// capability lifting) must otherwise treat as "could be anything".
pub fn unresolved_syscall_findings(module: &str, df: &ImageDataflow) -> Vec<Finding> {
    df.syscall_sites
        .iter()
        .filter(|(_, site)| site.sysno().as_const().is_none())
        .map(|(&va, site)| Finding {
            module: module.to_string(),
            kind: FindingKind::SyscallNumberUnresolved,
            severity: Severity::Advisory,
            va,
            detail: format!(
                "service number {} is not a constant at this syscall site",
                render_aval(&site.sysno())
            ),
        })
        .collect()
}

// ---------------------------------------------------------------------
// The dynamic cross-check
// ---------------------------------------------------------------------

/// Cross-check verdict for one process.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProcessCapCheck {
    /// Process image name.
    pub process: String,
    /// Capabilities the process concretely exercised.
    pub exercised: CapSet,
    /// The statically justified portion (its modules' capability sets,
    /// plus the ambient stub set when an escape hatch applies).
    pub modeled: CapSet,
    /// Exercised but statically impossible per the model — the injection
    /// signal: only code the images cannot account for can have made
    /// these syscalls.
    pub impossible: CapSet,
    /// Recipe names the process completed dynamically, in catalogue
    /// order.
    pub recipes_exercised: Vec<String>,
}

impl ToJson for ProcessCapCheck {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("process", self.process.to_json_value()),
            ("exercised", self.exercised.to_json_value()),
            ("modeled", self.modeled.to_json_value()),
            ("impossible", self.impossible.to_json_value()),
            ("recipes_exercised", self.recipes_exercised.to_json_value()),
        ])
    }
}

impl FromJson for ProcessCapCheck {
    fn from_json_value(v: &JsonValue) -> Result<ProcessCapCheck, JsonError> {
        Ok(ProcessCapCheck {
            process: json::field(v, "process")?,
            exercised: json::field(v, "exercised")?,
            modeled: json::field(v, "modeled")?,
            impossible: json::field(v, "impossible")?,
            recipes_exercised: json::field(v, "recipes_exercised")?,
        })
    }
}

/// A statically present recipe no replay ever exercised.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResidualRecipe {
    /// Module the recipe lives in.
    pub module: String,
    /// The recipe's stable name.
    pub recipe: String,
}

impl ToJson for ResidualRecipe {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("module", self.module.to_json_value()),
            ("recipe", self.recipe.to_json_value()),
        ])
    }
}

impl FromJson for ResidualRecipe {
    fn from_json_value(v: &JsonValue) -> Result<ResidualRecipe, JsonError> {
        Ok(ResidualRecipe { module: json::field(v, "module")?, recipe: json::field(v, "recipe")? })
    }
}

/// The static-vs-dynamic capability cross-check result.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CapabilityCrossCheck {
    /// Per-image static capability reports (with witness chains), ordered
    /// by module name; empty reports are dropped.
    pub reports: Vec<CapabilityReport>,
    /// Per-process verdicts, ordered by pid discovery order.
    pub processes: Vec<ProcessCapCheck>,
    /// Statically present recipes never exercised dynamically — residual
    /// capability surface.
    pub residual: Vec<ResidualRecipe>,
}

impl CapabilityCrossCheck {
    /// `true` when the check carries nothing (e.g. the replay ran without
    /// the capability monitor).
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty() && self.processes.is_empty() && self.residual.is_empty()
    }

    /// `true` when any process exercised a statically impossible
    /// capability or completed an injection recipe.
    pub fn injection_suspected(&self) -> bool {
        self.processes
            .iter()
            .any(|p| !p.impossible.is_empty() || !p.recipes_exercised.is_empty())
    }

    /// Total statically impossible capabilities across processes.
    pub fn impossible_total(&self) -> usize {
        self.processes.iter().map(|p| p.impossible.len()).sum()
    }

    /// Total dynamically completed recipes across processes.
    pub fn recipes_exercised_total(&self) -> usize {
        self.processes.iter().map(|p| p.recipes_exercised.len()).sum()
    }
}

impl ToJson for CapabilityCrossCheck {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("reports", self.reports.to_json_value()),
            ("processes", self.processes.to_json_value()),
            ("residual", self.residual.to_json_value()),
        ])
    }
}

impl FromJson for CapabilityCrossCheck {
    fn from_json_value(v: &JsonValue) -> Result<CapabilityCrossCheck, JsonError> {
        Ok(CapabilityCrossCheck {
            reports: json::field(v, "reports")?,
            processes: json::field(v, "processes")?,
            residual: json::field(v, "residual")?,
        })
    }
}

/// Cost and outcome counters of one capability cross-check — the
/// `syscap.*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyscapStats {
    /// Images analyzed for capabilities.
    pub images_analyzed: u64,
    /// Syscall sites lifted (constant service number).
    pub sites_lifted: u64,
    /// Syscall sites with an unresolvable service number.
    pub sites_unresolved: u64,
    /// Capabilities found statically, summed over images.
    pub caps_static: u64,
    /// Recipes statically present, summed over images.
    pub recipes_static: u64,
    /// Statically impossible exercised capabilities, summed over
    /// processes.
    pub caps_impossible: u64,
    /// Recipes completed dynamically, summed over processes.
    pub recipes_exercised: u64,
    /// Statically present recipes never exercised.
    pub recipes_residual: u64,
}

impl SyscapStats {
    /// The counters as `(metric name, value)` rows, in emission order.
    pub fn rows(&self) -> [(&'static str, u64); 8] {
        [
            ("syscap.images", self.images_analyzed),
            ("syscap.sites.lifted", self.sites_lifted),
            ("syscap.sites.unresolved", self.sites_unresolved),
            ("syscap.caps.static", self.caps_static),
            ("syscap.recipes.static", self.recipes_static),
            ("syscap.caps.impossible", self.caps_impossible),
            ("syscap.recipes.exercised", self.recipes_exercised),
            ("syscap.recipes.residual", self.recipes_residual),
        ]
    }

    /// Emits the counters as `syscap.*` metrics.
    pub fn record_into(&self, reg: &mut MetricsRegistry) {
        for (name, value) in self.rows() {
            let id = reg.counter(name);
            reg.add(id, value);
        }
    }
}

/// Classifies the capabilities each process concretely exercised (per
/// pid) against the static capability models of the modules it loaded, as
/// the job's [`ProcessTable`] lists them, and reports statically present
/// recipes no replay exercised. Also returns the [`SyscapStats`] (for
/// `syscap.*` metrics emission).
pub fn capability_cross_check_with_stats(
    procs: &ProcessTable,
    observed: &BTreeMap<Pid, CapabilityUse>,
) -> (CapabilityCrossCheck, SyscapStats) {
    let models = procs.models;
    let none = CapabilityUse::default();
    let mut stats = SyscapStats::default();
    for r in models.values().map(|m| &m.caps) {
        stats.images_analyzed += 1;
        stats.sites_lifted += r.witnesses.len() as u64;
        stats.sites_unresolved += r.unresolved_sites.len() as u64;
        stats.caps_static += r.caps.len() as u64;
        stats.recipes_static += r.recipes.len() as u64;
    }

    let ambient = ambient_caps();
    let mut processes = Vec::new();
    for p in &procs.processes {
        let used = observed.get(&p.pid).unwrap_or(&none);
        let exercised = used.exercised();
        // A process with no modeled module at all, or with a module no
        // model covers, cannot be fully judged: grant the escape hatch
        // rather than alert on everything it does.
        let mut escape = p.models.is_empty() || p.unmodeled;
        let mut modeled = CapSet::EMPTY;
        for r in p.models.iter().map(|m| &m.caps) {
            modeled = modeled.union(r.caps);
            escape |= r.calls_unknown_code || !r.unresolved_sites.is_empty();
        }
        if escape {
            modeled = modeled.union(ambient);
        }
        let impossible = exercised.difference(modeled);
        let recipes_exercised: Vec<String> = RECIPES
            .iter()
            .filter(|r| used.exercised_in_order(r.steps))
            .map(|r| r.name.to_string())
            .collect();
        stats.caps_impossible += impossible.len() as u64;
        stats.recipes_exercised += recipes_exercised.len() as u64;
        if exercised.is_empty() && recipes_exercised.is_empty() {
            continue;
        }
        processes.push(ProcessCapCheck {
            process: p.name.to_string(),
            exercised,
            modeled,
            impossible,
            recipes_exercised,
        });
    }

    // Residual surface: a static recipe is exercised if any process that
    // loaded the module completed it dynamically.
    let mut residual = Vec::new();
    for (key, model) in models {
        let loaders: Vec<&CapabilityUse> = procs
            .loaders(model)
            .map(|p| observed.get(&p.pid).unwrap_or(&none))
            .collect();
        if loaders.is_empty() {
            continue;
        }
        for hit in &model.caps.recipes {
            let Some(recipe) = recipe_by_name(&hit.recipe) else { continue };
            let exercised = loaders.iter().any(|u| u.exercised_in_order(recipe.steps));
            if !exercised {
                residual.push(ResidualRecipe {
                    module: key.to_string(),
                    recipe: hit.recipe.clone(),
                });
            }
        }
    }
    stats.recipes_residual += residual.len() as u64;

    let reports: Vec<CapabilityReport> =
        models.values().map(|m| &m.caps).filter(|r| !r.is_empty()).cloned().collect();
    (CapabilityCrossCheck { reports, processes, residual }, stats)
}

/// Renders a cross-check as fixed-width report tables (the `faros-cli`
/// `capabilities` section).
pub fn render_capability_check(check: &CapabilityCrossCheck) -> String {
    let mut out = String::new();
    out.push_str("process                | exercised            | impossible           | recipes\n");
    out.push_str("-----------------------+----------------------+----------------------+--------\n");
    for p in &check.processes {
        out.push_str(&format!(
            "{:<22} | {:<20} | {:<20} | {}\n",
            p.process,
            p.exercised.render(),
            p.impossible.render(),
            if p.recipes_exercised.is_empty() {
                "-".to_string()
            } else {
                p.recipes_exercised.join(", ")
            }
        ));
    }
    if check.processes.is_empty() {
        out.push_str("(no capability-exercising processes)\n");
    }
    for r in &check.residual {
        out.push_str(&format!("residual: {} never exercised in {}\n", r.recipe, r.module));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tests::one_process;
    use crate::model::ImageModel;
    use faros_emu::asm::Asm;
    use faros_emu::isa::{Mem as M, Reg};
    use faros_emu::mmu::Perms;
    use faros_kernel::module::{FdlImage, Section};
    use faros_kernel::Tid;
    use faros_replay::syscap::concrete_capability;
    use faros_replay::CapabilityMonitor;

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

    fn sys(asm: &mut Asm, sysno: Sysno) {
        asm.mov_ri(Reg::Eax, sysno as u32);
        asm.int_syscall();
    }

    /// The classic three-step injector, with the victim handle loaded
    /// from writable scratch (abstractly unknown, so remote).
    fn injector_image() -> FdlImage {
        let mut asm = Asm::new(BASE);
        asm.ld4(Reg::Ebx, M::abs(0x50_0000)); // victim handle: unknown
        asm.mov_ri(Reg::Ecx, 0x1000); // size
        asm.mov_ri(Reg::Edx, 0b111); // RWX
        sys(&mut asm, Sysno::NtAllocateVirtualMemory);
        asm.mov_ri(Reg::Ecx, 0x0100_0000);
        asm.mov_ri(Reg::Edx, 0x50_0000);
        asm.mov_ri(Reg::Esi, 0x100);
        sys(&mut asm, Sysno::NtWriteVirtualMemory);
        asm.mov_ri(Reg::Ecx, 0x0100_0000);
        sys(&mut asm, Sysno::NtCreateThreadEx);
        asm.hlt();
        image_of(asm)
    }

    #[test]
    fn abstract_lifting_agrees_with_concrete_on_singletons() {
        // Every tracked service, on a grid of concrete argument vectors:
        // the abstract lifting of singleton values must be exactly the
        // concrete capability.
        let handles = [CURRENT_PROCESS, CURRENT_THREAD, 0, 7];
        let perms = [0b000, 0b011, 0b100, 0b111];
        for s in faros_kernel::nt::Sysno::ALL {
            for &h in &handles {
                for &pm in &perms {
                    let concrete = [h, 0x40, pm, pm, 0];
                    let abstracted = concrete.map(AVal::constant);
                    let want: CapSet =
                        concrete_capability(s, &concrete).into_iter().collect();
                    let got = caps_of_syscall(s as u32, &abstracted);
                    assert_eq!(got, want, "disagree on {s:?} h={h:#x} perms={pm:#b}");
                }
            }
        }
    }

    #[test]
    fn injector_image_reports_the_remote_recipe_with_witnesses() {
        let r = ImageModel::build("inj.exe", injector_image()).caps;
        assert!(r.caps.contains(Capability::AllocExecRemote), "{r:?}");
        assert!(r.caps.contains(Capability::WriteRemote));
        assert!(r.caps.contains(Capability::CreateRemoteThread));
        // The handle comes from writable memory: self allocation is also
        // abstractly possible.
        assert!(r.caps.contains(Capability::AllocExecSelf));
        let hit = r
            .recipes
            .iter()
            .find(|h| h.recipe == "remote-thread-injection")
            .expect("recipe present");
        let vas: Vec<u32> = hit.steps.iter().map(|&(_, va)| va).collect();
        assert!(vas.windows(2).all(|w| w[0] < w[1]), "steps ascend: {vas:?}");
        // Witnesses: one per capability, rooted at the entry.
        let w = r
            .witnesses
            .iter()
            .find(|w| w.capability == Capability::AllocExecRemote)
            .expect("witness present");
        assert_eq!(w.path, vec![BASE]);
        assert_eq!(w.sysno, Sysno::NtAllocateVirtualMemory as u32);
        assert!(w.args.contains("process=top"), "{}", w.args);
        assert!(w.args.contains("perms=0x7"), "{}", w.args);
        assert!(!r.calls_unknown_code);
        assert!(r.unresolved_sites.is_empty());
    }

    #[test]
    fn witness_path_crosses_the_call_graph() {
        let mut asm = Asm::new(BASE);
        asm.call("worker");
        asm.hlt();
        asm.label("worker");
        asm.mov_ri(Reg::Ebx, 7);
        asm.mov_ri(Reg::Ecx, 0x1000);
        asm.mov_ri(Reg::Edx, 0b111);
        sys(&mut asm, Sysno::NtAllocateVirtualMemory);
        asm.ret();
        let r = ImageModel::build("t", image_of(asm)).caps;
        let w = r
            .witnesses
            .iter()
            .find(|w| w.capability == Capability::AllocExecRemote)
            .expect("witness");
        assert_eq!(w.path.len(), 2, "entry -> worker: {:?}", w.path);
        assert_eq!(w.path[0], BASE);
    }

    #[test]
    fn rw_alloc_and_self_handles_grant_no_remote_caps() {
        let mut asm = Asm::new(BASE);
        asm.mov_ri(Reg::Ebx, CURRENT_PROCESS);
        asm.mov_ri(Reg::Ecx, 0x1000);
        asm.mov_ri(Reg::Edx, 0b011); // RW only
        sys(&mut asm, Sysno::NtAllocateVirtualMemory);
        asm.mov_ri(Reg::Ebx, CURRENT_PROCESS);
        sys(&mut asm, Sysno::NtWriteVirtualMemory);
        asm.hlt();
        let r = ImageModel::build("t", image_of(asm)).caps;
        assert!(r.caps.is_empty(), "{:?}", r.caps);
        assert!(r.recipes.is_empty());
    }

    #[test]
    fn unresolved_sysno_sites_are_reported_and_lintable() {
        let mut asm = Asm::new(BASE);
        asm.ld4(Reg::Eax, M::abs(0x50_0000)); // service number from memory
        asm.int_syscall();
        asm.hlt();
        let image = image_of(asm);
        let df = crate::dataflow::analyze_image("t", &image);
        let r = capability_report(&df);
        assert_eq!(r.unresolved_sites.len(), 1);
        let findings = unresolved_syscall_findings("t", &df);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].kind, FindingKind::SyscallNumberUnresolved);
        assert_eq!(findings[0].severity, Severity::Advisory);
        assert_eq!(findings[0].va, r.unresolved_sites[0]);
    }

    #[test]
    fn ambient_caps_cover_the_stub_surface_only() {
        let a = ambient_caps();
        for c in [
            Capability::AllocExecSelf,
            Capability::AllocExecRemote,
            Capability::ProtectToExec,
            Capability::WriteRemote,
            Capability::CreateRemoteThread,
            Capability::SetContext,
            Capability::SendNet,
            Capability::RecvNet,
            Capability::ReadSensitive,
        ] {
            assert!(a.contains(c), "stub surface must include {c}");
        }
        assert!(!a.contains(Capability::MapExec), "no MapViewOfSection stub");
    }

    /// Feeds one process's syscalls through the replay-side monitor and
    /// checks them; the process (pid 1) loaded only the model `module`.
    fn check_one(
        models: &BTreeMap<String, ImageModel>,
        module: &str,
        seq: &[(Sysno, [u32; 5])],
    ) -> (CapabilityCrossCheck, SyscapStats) {
        use faros_kernel::event::KernelEvents;
        let mut mon = CapabilityMonitor::new();
        for (s, args) in seq {
            mon.syscall_enter(Pid(1), Tid(1), *s, args);
        }
        capability_cross_check_with_stats(&one_process(models, module), &mon.into_processes())
    }

    #[test]
    fn injected_code_capabilities_are_statically_impossible() {
        // The victim image does nothing tracked and calls no unknown
        // code; the process nevertheless sends on a socket (the injected
        // stage beaconing) — statically impossible per the model.
        let mut asm = Asm::new(BASE);
        sys(&mut asm, Sysno::NtDisplayString);
        asm.hlt();
        let victim = image_of(asm);
        let models = crate::model_map([("victim.exe", victim)]);
        let (check, stats) =
            check_one(&models, "victim.exe", &[(Sysno::NtSocketSend, [1, 0x50_0000, 32, 0, 0])]);
        assert!(check.injection_suspected());
        assert_eq!(check.impossible_total(), 1);
        assert!(check.processes[0].impossible.contains(Capability::SendNet));
        assert_eq!(stats.caps_impossible, 1);
    }

    #[test]
    fn modeled_capabilities_and_exercised_recipes_classify_cleanly() {
        let models = crate::model_map([("inj.exe", injector_image())]);
        let seq = [
            (Sysno::NtAllocateVirtualMemory, [7, 0x1000, 0b111, 0, 0]),
            (Sysno::NtWriteVirtualMemory, [7, 0x0100_0000, 0x50_0000, 0x100, 0]),
            (Sysno::NtCreateThreadEx, [7, 0x0100_0000, 0, 0, 0]),
        ];
        let check = check_one(&models, "inj.exe", &seq).0;
        // Everything exercised is modeled…
        assert_eq!(check.impossible_total(), 0);
        // …but the completed recipe is still the injection signal.
        assert!(check.injection_suspected());
        assert!(check.processes[0]
            .recipes_exercised
            .contains(&"remote-thread-injection".to_string()));
        // Static reports (with witnesses) ride along in the check.
        assert!(check.reports.iter().any(|r| r.module == "inj.exe" && !r.witnesses.is_empty()));
        // Recipe was exercised: nothing residual.
        assert!(check.residual.is_empty());
    }

    #[test]
    fn unexercised_static_recipes_are_residual_surface() {
        let models = crate::model_map([("inj.exe", injector_image())]);
        // The process loaded the injector image but never ran the recipe.
        let check = check_one(&models, "inj.exe", &[]).0;
        assert!(!check.injection_suspected());
        assert!(
            check
                .residual
                .iter()
                .any(|r| r.recipe == "remote-thread-injection" && r.module == "inj.exe"),
            "{:?}",
            check.residual
        );
    }

    #[test]
    fn debugger_profile_read_remote_only_stays_quiet() {
        let mut asm = Asm::new(BASE);
        asm.mov_ri(Reg::Ebx, 7);
        sys(&mut asm, Sysno::NtReadVirtualMemory);
        asm.hlt();
        let models = crate::model_map([("dbg.exe", image_of(asm))]);
        let seq = [(Sysno::NtReadVirtualMemory, [7, 0x1000, 0x50_0000, 16, 0])];
        let check = check_one(&models, "dbg.exe", &seq).0;
        assert!(!check.injection_suspected(), "{check:?}");
        assert_eq!(check.processes[0].exercised, CapSet::of(Capability::ReadRemote));
    }

    #[test]
    fn cross_check_json_round_trips() {
        let models = crate::model_map([("inj.exe", injector_image())]);
        let seq = [(Sysno::NtWriteVirtualMemory, [7, 0, 0, 0, 0])];
        let check = check_one(&models, "inj.exe", &seq).0;
        let back = CapabilityCrossCheck::from_json_value(&check.to_json_value()).unwrap();
        assert_eq!(back, check);
        let empty = CapabilityCrossCheck::default();
        assert!(empty.is_empty());
        let back = CapabilityCrossCheck::from_json_value(&empty.to_json_value()).unwrap();
        assert_eq!(back, empty);
    }

    #[test]
    fn stats_record_as_syscap_metrics() {
        let stats = SyscapStats {
            images_analyzed: 2,
            sites_lifted: 5,
            sites_unresolved: 1,
            caps_static: 7,
            recipes_static: 2,
            caps_impossible: 1,
            recipes_exercised: 1,
            recipes_residual: 1,
        };
        let mut reg = MetricsRegistry::new();
        stats.record_into(&mut reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("syscap.images"), Some(2));
        assert_eq!(snap.counter("syscap.caps.impossible"), Some(1));
        assert_eq!(snap.counter("syscap.recipes.exercised"), Some(1));
    }

    #[test]
    fn render_shows_processes_and_residual(){
        let models = crate::model_map([("inj.exe", injector_image())]);
        let check = check_one(&models, "inj.exe", &[]).0;
        let table = render_capability_check(&check);
        assert!(table.contains("residual: remote-thread-injection"), "{table}");
    }
}
