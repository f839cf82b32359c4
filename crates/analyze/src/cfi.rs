//! Static control-flow-integrity model and the dynamic CFI cross-check.
//!
//! This is the detection layer the injected-byte signals cannot provide:
//! a code-reuse (ROP/JOP) attack executes *only* image-backed, W^X-clean
//! instructions, so taint confluence, the coverage diff, and every lint
//! stay silent. What a reuse chain cannot fake is *legal control flow* —
//! so, following ROPocop's statically derived invariants:
//!
//! * [`CfiModel::from_cfg`] fuses the recovered CFG, the VSA-resolved
//!   indirect target sets, and the call graph of one image into three
//!   claims: each **resolved indirect site** may only reach its resolved
//!   target set; each **unresolved indirect site** (no VSA claim) may
//!   only reach a known function entry; every **return** must land on a
//!   call-preceded address (the instruction after a `call`/`call reg`).
//! * [`check`] replays the transfers a [`faros_replay::CfiMonitor`]
//!   recorded ([`ProcessTransfers`], per pid) against the models of the
//!   modules each process loaded (the job's [`ProcessTable`]) and emits
//!   one [`CfiViolation`] per escaping `(site, target)` edge.
//!
//! **Soundness on benign code.** Claims are only enforced where the
//! static model has authority: kernel-space sites and targets are the
//! kernel's business, sites outside every modeled image (JIT buffers,
//! injected allocations) already belong to the coverage-diff signal, and
//! a transfer *leaving* modeled code carries no claim either — a JIT host
//! legitimately calls into its runtime-generated buffer. The corpus-wide
//! containment property test pins this: across every benign sample the
//! check raises zero violations, while each ROP/JOP sample trips it.

use crate::cfg::ModuleCfg;
use crate::dataflow;
use crate::model::ProcessTable;
use faros_emu::isa::Instr;
use faros_emu::mmu::KERNEL_BASE;
use faros_kernel::module::FdlImage;
use faros_kernel::Pid;
use faros_obs::metrics::MetricsRegistry;
use faros_replay::{ProcessTransfers, TransferKind};
use faros_support::json::{self, FromJson, JsonError, JsonValue, ToJson};
use std::collections::{BTreeMap, BTreeSet};

/// The statically derived control-flow-integrity model of one image.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CfiModel {
    /// Module name the model was built for.
    pub module: String,
    /// Resolved indirect sites: site VA → the statically legal target set.
    pub indirect_targets: BTreeMap<u32, BTreeSet<u32>>,
    /// Indirect sites the value-set analysis could not bound. These carry
    /// the weaker function-entry claim instead of a target set.
    pub unresolved_sites: BTreeSet<u32>,
    /// Call-preceded addresses — the only legal `ret` landing pads inside
    /// the image (the instruction after every `call` / `call reg`).
    pub return_sites: BTreeSet<u32>,
    /// Known function entries: image entry, code exports, direct call
    /// targets, and in-image resolved indirect targets.
    pub function_entries: BTreeSet<u32>,
}

impl CfiModel {
    /// Builds the model from an analyzed CFG (with resolved targets
    /// spliced in).
    pub fn from_cfg(name: &str, image: &FdlImage, cfg: &ModuleCfg) -> CfiModel {
        let indirect_targets: BTreeMap<u32, BTreeSet<u32>> = cfg
            .resolved_targets
            .iter()
            .map(|(&site, targets)| (site, targets.iter().copied().collect()))
            .collect();
        let unresolved_sites: BTreeSet<u32> = cfg
            .indirect_sites
            .iter()
            .filter(|s| !indirect_targets.contains_key(&s.va))
            .map(|s| s.va)
            .collect();

        // Return sites: every block ending in a call-kind instruction
        // legitimizes its fall-through address, *including* sweep-only
        // blocks and unresolved `call reg` sites — any call instruction
        // in the image makes the next address call-preceded.
        let mut return_sites = BTreeSet::new();
        for block in cfg.blocks.values() {
            if let Some(&(_, last)) = block.instrs.last() {
                if matches!(last, Instr::Call { .. } | Instr::CallReg { .. }) {
                    return_sites.insert(block.end);
                }
            }
        }

        let mut function_entries = dataflow::function_entries(cfg, image);
        function_entries.extend(
            indirect_targets.values().flatten().copied().filter(|t| cfg.blocks.contains_key(t)),
        );

        CfiModel {
            module: name.to_string(),
            indirect_targets,
            unresolved_sites,
            return_sites,
            function_entries,
        }
    }
}

impl ToJson for CfiModel {
    fn to_json_value(&self) -> JsonValue {
        let resolved: Vec<JsonValue> = self
            .indirect_targets
            .iter()
            .map(|(site, targets)| {
                JsonValue::object(vec![
                    ("site", site.to_json_value()),
                    ("targets", targets.iter().copied().collect::<Vec<u32>>().to_json_value()),
                ])
            })
            .collect();
        JsonValue::object(vec![
            ("module", self.module.to_json_value()),
            ("indirect_targets", JsonValue::Array(resolved)),
            (
                "unresolved_sites",
                self.unresolved_sites.iter().copied().collect::<Vec<u32>>().to_json_value(),
            ),
            (
                "return_sites",
                self.return_sites.iter().copied().collect::<Vec<u32>>().to_json_value(),
            ),
            (
                "function_entries",
                self.function_entries.iter().copied().collect::<Vec<u32>>().to_json_value(),
            ),
        ])
    }
}

/// One control transfer that escaped every static claim.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CfiViolation {
    /// Process the transfer executed in.
    pub process: String,
    /// VA of the transferring instruction.
    pub site: u32,
    /// Destination the transfer actually reached.
    pub target: u32,
    /// Transfer class (`ret` / `indirect-call` / `indirect-jmp`).
    pub kind: TransferKind,
    /// Module whose model claims the site.
    pub module: String,
    /// Which claim the edge escaped, in one analyst-facing sentence.
    pub detail: String,
    /// Whether tainted (network-derived) data decided this transfer —
    /// the taint-fusion bit from the FAROS replay.
    pub tainted: bool,
}

/// Check cost and outcome counters — the `cfi.*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CfiStats {
    /// CFI models built (one per distinct loaded image).
    pub models_built: u64,
    /// Dynamic transfer sites observed.
    pub sites_observed: u64,
    /// `(site, target)` edges checked against a static claim.
    pub edges_checked: u64,
    /// Edges skipped: site in kernel space or outside every modeled image.
    pub edges_foreign: u64,
    /// Edges allowed because the target leaves modeled code (JIT buffers,
    /// kernel trampolines) — no static claim applies there.
    pub edges_escaping: u64,
    /// Violations emitted.
    pub violations: u64,
    /// Violations whose deciding data was tainted.
    pub tainted_violations: u64,
}

impl CfiStats {
    /// Emits the counters as `cfi.*` metrics.
    pub fn record_into(&self, reg: &mut MetricsRegistry) {
        for (name, value) in self.rows() {
            let id = reg.counter(name);
            reg.add(id, value);
        }
    }

    /// The counters as `(metric name, value)` rows, in emission order.
    pub fn rows(&self) -> [(&'static str, u64); 7] {
        [
            ("cfi.models", self.models_built),
            ("cfi.sites", self.sites_observed),
            ("cfi.edges.checked", self.edges_checked),
            ("cfi.edges.foreign", self.edges_foreign),
            ("cfi.edges.escaping", self.edges_escaping),
            ("cfi.violations", self.violations),
            ("cfi.violations.tainted", self.tainted_violations),
        ]
    }
}

impl ToJson for CfiStats {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("models_built", self.models_built.to_json_value()),
            ("sites_observed", self.sites_observed.to_json_value()),
            ("edges_checked", self.edges_checked.to_json_value()),
            ("edges_foreign", self.edges_foreign.to_json_value()),
            ("edges_escaping", self.edges_escaping.to_json_value()),
            ("violations", self.violations.to_json_value()),
            ("tainted_violations", self.tainted_violations.to_json_value()),
        ])
    }
}

impl FromJson for CfiStats {
    fn from_json_value(v: &JsonValue) -> Result<CfiStats, JsonError> {
        Ok(CfiStats {
            models_built: json::field(v, "models_built")?,
            sites_observed: json::field(v, "sites_observed")?,
            edges_checked: json::field(v, "edges_checked")?,
            edges_foreign: json::field(v, "edges_foreign")?,
            edges_escaping: json::field(v, "edges_escaping")?,
            violations: json::field(v, "violations")?,
            tainted_violations: json::field(v, "tainted_violations")?,
        })
    }
}

/// The dynamic CFI cross-check result for one replay.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CfiCheckReport {
    /// Every escaping edge, totally ordered (process, site, target).
    pub violations: Vec<CfiViolation>,
    /// Check counters.
    pub stats: CfiStats,
}

impl CfiCheckReport {
    /// Returns `true` if any transfer escaped the static model.
    pub fn violation_found(&self) -> bool {
        !self.violations.is_empty()
    }

    /// Returns `true` if the check never ran (no models, no observations).
    pub fn is_empty(&self) -> bool {
        self.violations.is_empty() && self.stats == CfiStats::default()
    }
}

impl ToJson for CfiCheckReport {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("violations", self.violations.to_json_value()),
            ("stats", self.stats.to_json_value()),
        ])
    }
}

impl FromJson for CfiCheckReport {
    fn from_json_value(v: &JsonValue) -> Result<CfiCheckReport, JsonError> {
        Ok(CfiCheckReport {
            violations: json::field(v, "violations")?,
            stats: json::field(v, "stats")?,
        })
    }
}

/// Checks every observed indirect transfer against the CFI models of the
/// images the process loaded, as the job's [`ProcessTable`] lists them.
///
/// `tainted_sites` carries the taint-fusion bit: `(CR3, site VA)` pairs
/// whose transfer target was read from netflow-tainted data during the
/// FAROS replay (see `Faros::tainted_transfers`); a site is tainted only in
/// the process with that CR3. Pass an empty set when no taint information
/// is available.
pub fn check(
    procs: &ProcessTable,
    observed: &BTreeMap<Pid, ProcessTransfers>,
    tainted_sites: &BTreeSet<(u32, u32)>,
) -> CfiCheckReport {
    // Models are per image, shared across processes.
    let mut stats = CfiStats { models_built: procs.models.len() as u64, ..CfiStats::default() };

    let mut violations: Vec<CfiViolation> = Vec::new();
    for proc in &procs.processes {
        let Some(sites) = observed.get(&proc.pid) else { continue };
        let loaded = &proc.models;
        // A cross-module call may return into the caller's image: returns
        // and weak indirect claims are checked against the union over
        // every loaded module.
        let return_sites: BTreeSet<u32> =
            loaded.iter().flat_map(|m| m.cfi.return_sites.iter().copied()).collect();
        let function_entries: BTreeSet<u32> =
            loaded.iter().flat_map(|m| m.cfi.function_entries.iter().copied()).collect();
        let in_modeled_code =
            |va: u32| va < KERNEL_BASE && loaded.iter().any(|m| m.image.is_code_va(va));

        for (&site, ts) in sites {
            stats.sites_observed += 1;
            let owner = (site < KERNEL_BASE)
                .then(|| loaded.iter().find(|m| m.image.is_code_va(site)))
                .flatten();
            let Some(model) = owner.map(|m| &m.cfi) else {
                // Kernel sites and sites outside every modeled image (JIT
                // buffers, injected code) carry no static claim; the
                // coverage diff owns the latter signal.
                stats.edges_foreign += ts.targets.len() as u64;
                continue;
            };
            let tainted = tainted_sites.contains(&(proc.cr3, site));
            for &target in &ts.targets {
                if !in_modeled_code(target) {
                    // The transfer leaves modeled code (a JIT buffer, a
                    // kernel trampoline): no static claim applies.
                    stats.edges_escaping += 1;
                    continue;
                }
                let (ok, claim) = match ts.kind {
                    TransferKind::Return => {
                        (return_sites.contains(&target), "a call-preceded return site")
                    }
                    TransferKind::IndirectCall | TransferKind::IndirectJmp => {
                        if let Some(legal) = model.indirect_targets.get(&site) {
                            (legal.contains(&target), "the resolved target set")
                        } else {
                            (function_entries.contains(&target), "a known function entry")
                        }
                    }
                };
                stats.edges_checked += 1;
                if ok {
                    continue;
                }
                stats.violations += 1;
                if tainted {
                    stats.tainted_violations += 1;
                }
                violations.push(CfiViolation {
                    process: proc.name.to_string(),
                    site,
                    target,
                    kind: ts.kind,
                    module: model.module.clone(),
                    detail: format!(
                        "{} at {site:#010x} reached {target:#010x}, which is not {claim}",
                        ts.kind.name()
                    ),
                    tainted,
                });
            }
        }
    }
    violations.sort();
    violations.dedup();
    CfiCheckReport { violations, stats }
}

impl ToJson for CfiViolation {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("process", self.process.to_json_value()),
            ("site", self.site.to_json_value()),
            ("target", self.target.to_json_value()),
            ("kind", self.kind.to_json_value()),
            ("module", self.module.to_json_value()),
            ("detail", self.detail.to_json_value()),
            ("tainted", self.tainted.to_json_value()),
        ])
    }
}

impl FromJson for CfiViolation {
    fn from_json_value(v: &JsonValue) -> Result<CfiViolation, JsonError> {
        Ok(CfiViolation {
            process: json::field(v, "process")?,
            site: json::field(v, "site")?,
            target: json::field(v, "target")?,
            kind: json::field(v, "kind")?,
            module: json::field(v, "module")?,
            detail: json::field(v, "detail")?,
            tainted: json::field(v, "tainted")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faros_emu::asm::Asm;
    use faros_emu::isa::Reg;
    use faros_emu::mmu::Perms;
    use crate::model::tests::{one_process, processes_of};
    use crate::model::ImageModel;
    use faros_kernel::module::Section;
    use faros_replay::TransferSite;

    const BASE: u32 = 0x40_0000;

    /// entry: call helper (direct); helper: ret. Plus a resolvable
    /// `call reg` through a constant.
    fn demo_image() -> FdlImage {
        let mut asm = Asm::new(BASE);
        asm.call("helper");
        asm.mov_label(Reg::Ebx, "helper");
        asm.call_reg(Reg::Ebx);
        asm.hlt();
        asm.label("helper");
        asm.ret();
        FdlImage {
            entry: BASE,
            export_table_va: 0,
            sections: vec![Section {
                va: BASE,
                data: asm.assemble().unwrap(),
                perms: Perms::RX,
            }],
            exports: vec![],
        }
    }

    fn labels() -> std::collections::HashMap<String, u32> {
        let mut asm = Asm::new(BASE);
        asm.call("helper");
        asm.mov_label(Reg::Ebx, "helper");
        asm.call_reg(Reg::Ebx);
        asm.hlt();
        asm.label("helper");
        asm.ret();
        asm.assemble_with_labels().unwrap().1
    }

    /// Checks `sites`, observed in one `app.exe` process, against its model.
    fn check_app(
        models: &BTreeMap<String, ImageModel>,
        sites: Vec<(u32, TransferSite)>,
        tainted: &BTreeSet<(u32, u32)>,
    ) -> CfiCheckReport {
        let observed = [(Pid(1), sites.into_iter().collect())].into();
        check(&one_process(models, "app.exe"), &observed, tainted)
    }

    fn site(kind: TransferKind, targets: &[u32]) -> TransferSite {
        TransferSite { kind, targets: targets.iter().copied().collect() }
    }

    #[test]
    fn model_derives_claims_from_the_cfg() {
        let model = ImageModel::build("app.exe", demo_image()).cfi;
        let helper = labels()["helper"];
        // Two call sites (direct + resolved indirect) → two return sites.
        assert_eq!(model.return_sites.len(), 2);
        assert!(model.function_entries.contains(&BASE));
        assert!(model.function_entries.contains(&helper));
        assert_eq!(model.indirect_targets.len(), 1);
        assert!(model.unresolved_sites.is_empty());
    }

    #[test]
    fn legal_transfers_raise_no_violation() {
        let models = crate::model_map([("app.exe", demo_image())]);
        let model = &models["app.exe"].cfi;
        let helper = labels()["helper"];
        let call_site = *model.indirect_targets.keys().next().unwrap();
        let ret_target = *model.return_sites.iter().next().unwrap();
        let sites = vec![
            (call_site, site(TransferKind::IndirectCall, &[helper])),
            (helper, site(TransferKind::Return, &[ret_target])),
        ];
        let report = check_app(&models, sites, &BTreeSet::new());
        assert!(!report.violation_found(), "{:?}", report.violations);
        assert_eq!(report.stats.edges_checked, 2);
    }

    #[test]
    fn rop_style_return_into_non_return_site_is_flagged() {
        let image = demo_image();
        let helper = labels()["helper"];
        let models = crate::model_map([("app.exe", image)]);
        // A ret landing on the helper *entry* — a gadget start, not a
        // call-preceded address.
        let sites = vec![(helper, site(TransferKind::Return, &[helper]))];
        let report = check_app(&models, sites, &BTreeSet::new());
        assert_eq!(report.violations.len(), 1);
        let v = &report.violations[0];
        assert_eq!(v.kind, TransferKind::Return);
        assert!(!v.tainted);
        assert!(v.detail.contains("call-preceded"));
    }

    #[test]
    fn resolved_site_escaping_its_target_set_is_flagged_and_taint_fuses() {
        let models = crate::model_map([("app.exe", demo_image())]);
        let model = &models["app.exe"].cfi;
        let call_site = *model.indirect_targets.keys().next().unwrap();
        // The indirect call reaches a mid-instruction address instead of
        // the resolved helper entry.
        let sites = vec![(call_site, site(TransferKind::IndirectCall, &[BASE + 1]))];
        let tainted: BTreeSet<(u32, u32)> = [(0x2000, call_site)].into();
        let report = check_app(&models, sites, &tainted);
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].tainted);
        assert_eq!(report.stats.tainted_violations, 1);
    }

    #[test]
    fn taint_fuses_only_in_the_process_with_the_tainted_cr3() {
        // Two `app.exe` processes make the same escaping call; only the
        // second one's target came from tainted data.
        let models = crate::model_map([("app.exe", demo_image())]);
        let call_site = *models["app.exe"].cfi.indirect_targets.keys().next().unwrap();
        let table = processes_of(&models, "app.exe", &[0x2000, 0x3000]);
        let escape = || [(call_site, site(TransferKind::IndirectCall, &[BASE + 1]))].into();
        let observed = [(Pid(1), escape()), (Pid(2), escape())].into();
        let report = check(&table, &observed, &[(0x3000, call_site)].into());
        let tainted: Vec<bool> = report.violations.iter().map(|v| v.tainted).collect();
        assert_eq!(tainted, [false, true]);
        assert_eq!((report.stats.violations, report.stats.tainted_violations), (2, 1));
    }

    #[test]
    fn transfers_leaving_modeled_code_carry_no_claim() {
        let models = crate::model_map([("app.exe", demo_image())]);
        let model = &models["app.exe"].cfi;
        let call_site = *model.indirect_targets.keys().next().unwrap();
        let sites = vec![
            // Into an anonymous allocation (a JIT buffer, say).
            (call_site, site(TransferKind::IndirectCall, &[0x0100_0000])),
            // Return into kernel space.
            (BASE + 2, site(TransferKind::Return, &[0x8000_1000])),
            // A site outside modeled code entirely.
            (0x0100_0004, site(TransferKind::Return, &[BASE])),
        ];
        let report = check_app(&models, sites, &BTreeSet::new());
        assert!(!report.violation_found(), "{:?}", report.violations);
        assert_eq!(report.stats.edges_escaping, 2);
        assert_eq!(report.stats.edges_foreign, 1);
    }

    #[test]
    fn violations_round_trip_through_json() {
        let v = CfiViolation {
            process: "app.exe".into(),
            site: 0x40_0010,
            target: 0x40_0003,
            kind: TransferKind::Return,
            module: "app.exe".into(),
            detail: "ret at 0x00400010 reached 0x00400003".into(),
            tainted: true,
        };
        let restored = CfiViolation::from_json_value(&v.to_json_value()).unwrap();
        assert_eq!(restored, v);
        let stats = CfiStats { violations: 1, ..CfiStats::default() };
        assert_eq!(CfiStats::from_json_value(&stats.to_json_value()).unwrap(), stats);
    }
}
