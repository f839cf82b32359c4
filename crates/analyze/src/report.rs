//! The analyst-facing static report for one FDL image.
//!
//! [`StaticReport::build`] is the one-call entry the `faros-cli analyze
//! <image>` subcommand uses: CFG recovery, the dataflow engine
//! (value-set analysis, indirect-branch resolution, taint summaries) and
//! the lint catalogue over a single image, bundled into one stable JSON
//! wire format. The rendering is byte-deterministic — findings and flows
//! are totally ordered, and [`StaticReport::to_json`] always produces the
//! same bytes for the same image (the golden-fixture test relies on it).

use crate::cfi::CfiModel;
use crate::dataflow::{DataflowStats, ImageFlowMap};
use crate::lint::{lint_with_cfg, Finding, FindingKind, Severity};
use crate::model::ImageModel;
use crate::syscap::{self, CapabilityReport};
use faros_kernel::module::FdlImage;
use faros_support::json::{JsonError, JsonValue, ToJson};

impl ToJson for Severity {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::Str(self.to_string())
    }
}

impl ToJson for FindingKind {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::Str(self.to_string())
    }
}

impl ToJson for Finding {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("module", self.module.to_json_value()),
            ("kind", self.kind.to_json_value()),
            ("severity", self.severity.to_json_value()),
            ("va", self.va.to_json_value()),
            ("detail", self.detail.to_json_value()),
        ])
    }
}

/// The full static verdict for one image.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StaticReport {
    /// Module name the report is about.
    pub module: String,
    /// Lint findings (after dataflow discharge), totally ordered.
    pub findings: Vec<Finding>,
    /// Indirect sites the dataflow engine resolved: `(site VA, sorted
    /// target set)`.
    pub resolved_sites: Vec<(u32, Vec<u32>)>,
    /// The inter-procedural source→sink flow map.
    pub flows: ImageFlowMap,
    /// Dataflow cost/outcome counters.
    pub stats: DataflowStats,
    /// The static CFI model (resolved target sets, call-preceded return
    /// sites, function entries) the dynamic cross-check enforces.
    pub cfi: CfiModel,
    /// What the image can do through the syscall ABI: its capability set
    /// with witness chains, and statically present injection recipes.
    pub capabilities: CapabilityReport,
}

impl StaticReport {
    /// Runs the whole static pipeline over one image.
    pub fn build(name: &str, image: &FdlImage) -> StaticReport {
        let ImageModel { dataflow: analysis, cfi, caps: capabilities, .. } =
            ImageModel::build(name, image.clone());
        let mut findings = lint_with_cfg(name, image, &analysis.cfg);
        findings.extend(syscap::unresolved_syscall_findings(name, &analysis));
        findings.sort_by(|a, b| {
            (a.severity, a.kind, a.va, &a.module, &a.detail)
                .cmp(&(b.severity, b.kind, b.va, &b.module, &b.detail))
        });
        findings.dedup();
        let resolved_sites = analysis
            .cfg
            .resolved_targets
            .iter()
            .map(|(&va, targets)| (va, targets.clone()))
            .collect();
        StaticReport {
            module: name.to_string(),
            findings,
            resolved_sites,
            flows: analysis.flows,
            stats: analysis.stats,
            cfi,
            capabilities,
        }
    }

    /// Error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.severity == Severity::Error)
    }

    /// Serializes to pretty-printed, byte-stable JSON.
    ///
    /// # Errors
    ///
    /// Infallible in practice; the `Result` is kept for API stability.
    pub fn to_json(&self) -> Result<String, JsonError> {
        Ok(self.to_json_value().to_pretty())
    }
}

impl ToJson for StaticReport {
    fn to_json_value(&self) -> JsonValue {
        let resolved: Vec<JsonValue> = self
            .resolved_sites
            .iter()
            .map(|(va, targets)| {
                JsonValue::object(vec![
                    ("va", va.to_json_value()),
                    ("targets", targets.to_json_value()),
                ])
            })
            .collect();
        JsonValue::object(vec![
            ("module", self.module.to_json_value()),
            ("findings", self.findings.to_json_value()),
            ("resolved_sites", JsonValue::Array(resolved)),
            ("flows", self.flows.to_json_value()),
            ("stats", self.stats.to_json_value()),
            ("cfi", self.cfi.to_json_value()),
            ("capabilities", self.capabilities.to_json_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faros_emu::asm::Asm;
    use faros_emu::isa::Reg;
    use faros_emu::mmu::Perms;
    use faros_kernel::module::Section;

    const BASE: u32 = 0x40_0000;

    fn demo_image() -> FdlImage {
        let mut asm = Asm::new(BASE);
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

    #[test]
    fn report_resolves_the_indirect() {
        let report = StaticReport::build("demo", &demo_image());
        assert_eq!(report.resolved_sites.len(), 1);
        assert!(report.findings.iter().all(|f| f.kind != FindingKind::UnresolvedIndirect));
        assert_eq!(report.errors().count(), 0);
    }
}
