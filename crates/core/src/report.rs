//! The analyst-facing output: detections with full provenance (Table II).
//!
//! FAROS is a reverse-engineering tool, not just a detector — the report
//! carries, for every flagged instruction, the complete provenance chain
//! ("where did this code come from?") so the analyst does not have to
//! reconstruct it by hand (§V-B).

use faros_obs::metrics::MetricsSnapshot;
use faros_obs::prof::ProfileReport;
use faros_support::json::{self, FromJson, JsonError, JsonValue, ToJson};
use std::fmt;

/// What kind of confluence fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DetectionKind {
    /// Foreign code reading export-table-tagged memory — the paper's
    /// in-memory-injection invariant.
    #[default]
    ExportTableRead,
    /// An indirect control transfer whose target address came from tainted
    /// bytes — the optional Minos-style extension policy.
    TaintedControlTransfer,
}

impl fmt::Display for DetectionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetectionKind::ExportTableRead => write!(f, "export-table read by foreign code"),
            DetectionKind::TaintedControlTransfer => write!(f, "tainted control transfer"),
        }
    }
}

/// One flagged in-memory-injection read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Detection {
    /// Virtual address of the flagged instruction (the `mov` that read the
    /// export table) — the "Memory Address" column of Table II.
    pub insn_vaddr: u32,
    /// Rendered instruction (e.g. `ld4 eax, [0x80010020]`).
    pub insn: String,
    /// Virtual address the instruction read (inside an export table).
    pub read_vaddr: u32,
    /// The executing (victim) process name.
    pub process: String,
    /// CR3 of the executing process.
    pub cr3: u32,
    /// The instruction bytes' provenance chain, rendered Table II style
    /// (`NetFlow: {...} ->Process: inject_client.exe ->Process: notepad.exe`).
    pub code_provenance: String,
    /// The read target's provenance chain (contains `Export Table`).
    pub target_provenance: String,
    /// Virtual tick at detection.
    pub tick: u64,
    /// Which policy triggers fired: netflow presence.
    pub via_netflow: bool,
    /// Which policy triggers fired: cross-process code origin.
    pub via_cross_process: bool,
    /// What kind of confluence fired.
    pub kind: DetectionKind,
}

/// One process's static-vs-dynamic coverage summary — the corroborating
/// signal from `faros-analyze`: code that executed but no loaded module
/// statically accounts for.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageSummary {
    /// Process image name.
    pub process: String,
    /// Executed basic-block starts observed in the process.
    pub executed_blocks: u64,
    /// Executed block starts outside every loaded module's executable
    /// sections — dynamically materialized code.
    pub unaccounted: Vec<u32>,
    /// Executed block starts inside module code the static disassembly
    /// never charted (advisory).
    pub uncharted_blocks: u64,
}

/// The FAROS output for one analyzed replay.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FarosReport {
    /// All detections, in discovery order (one per flagged instruction
    /// address).
    pub detections: Vec<Detection>,
    /// Detections suppressed by the whitelist (still listed for the
    /// analyst, as the paper suggests white-listing is an analyst action).
    pub whitelisted: Vec<Detection>,
    /// Static-vs-dynamic coverage cross-check results, one per process
    /// (empty when the replay ran without the coverage plugin).
    pub coverage: Vec<CoverageSummary>,
    /// Static-vs-dynamic *taint* cross-check: every dynamic alert
    /// classified against the static source→sink flow model, plus the
    /// statically feasible flows the replay never exercised (empty when
    /// the replay ran without the dataflow cross-check).
    pub taint: faros_analyze::TaintCrossCheck,
    /// Dynamic CFI cross-check: every observed `ret` / `call reg` /
    /// `jmp reg` transfer held to the statically derived per-image CFI
    /// model, with violations taint-fused — the code-reuse (ROP/JOP)
    /// signal (empty when the replay ran without the CFI monitor).
    pub cfi: faros_analyze::CfiCheckReport,
    /// Static-vs-dynamic *capability* cross-check: per-image syscall
    /// capability reports with witness chains and injection recipes, every
    /// concretely exercised capability classified statically modeled vs
    /// statically impossible-per-model, plus the residual capability
    /// surface (empty when the replay ran without the capability monitor).
    pub capabilities: faros_analyze::CapabilityCrossCheck,
    /// Deterministic run metrics (empty when the replay ran without
    /// metrics collection).
    pub metrics: MetricsSnapshot,
    /// Deterministic replay profile: retired instructions (the virtual
    /// clock) attributed to basic blocks and symbolized to functions —
    /// byte-identical across replays of one recording (empty when the
    /// job ran without `AnalysisConfig::profile`).
    pub profile: ProfileReport,
}

impl FarosReport {
    /// Returns `true` if any in-memory injection attack was flagged.
    pub fn attack_flagged(&self) -> bool {
        !self.detections.is_empty()
    }

    /// Distinct processes in which flagged instructions executed.
    pub fn flagged_processes(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for d in &self.detections {
            if !out.contains(&d.process.as_str()) {
                out.push(&d.process);
            }
        }
        out
    }

    /// Imports the static-vs-dynamic cross-check result computed by
    /// `faros-analyze`, so one report carries both the taint verdict and
    /// the independently derived coverage signal.
    pub fn attach_coverage(&mut self, coverage: &faros_analyze::CoverageReport) {
        self.coverage = coverage
            .processes
            .iter()
            .map(|p| CoverageSummary {
                process: p.process.clone(),
                executed_blocks: p.executed as u64,
                unaccounted: p.unaccounted.clone(),
                uncharted_blocks: p.uncharted.len() as u64,
            })
            .collect();
    }

    /// Returns `true` if the coverage cross-check saw any process execute
    /// statically unaccounted code.
    pub fn coverage_suspicious(&self) -> bool {
        self.coverage.iter().any(|c| !c.unaccounted.is_empty())
    }

    /// Returns `true` if the taint cross-check classified any dynamic
    /// alert as statically impossible-per-model (injection signal).
    pub fn taint_suspicious(&self) -> bool {
        self.taint.injection_suspected()
    }

    /// Returns `true` if any observed control transfer escaped the static
    /// CFI model — the code-reuse (ROP/JOP) signal.
    pub fn cfi_suspicious(&self) -> bool {
        self.cfi.violation_found()
    }

    /// Returns `true` if any process exercised a statically impossible
    /// capability or completed an injection recipe.
    pub fn capabilities_suspicious(&self) -> bool {
        self.capabilities.injection_suspected()
    }

    /// Renders the report as the paper's Table II: one row per flagged
    /// memory address with its provenance list, followed by the coverage
    /// cross-check (when recorded).
    pub fn to_table(&self) -> String {
        let mut s = String::new();
        s.push_str("Memory Address | Provenance List\n");
        s.push_str("---------------+----------------\n");
        for d in &self.detections {
            s.push_str(&format!("0x{:08X}     | {};\n", d.insn_vaddr, d.code_provenance));
        }
        if self.detections.is_empty() {
            s.push_str("(no in-memory injection attacks flagged)\n");
        }
        if !self.coverage.is_empty() {
            s.push_str("\nProcess            | Executed Blocks | Unaccounted\n");
            s.push_str("-------------------+-----------------+------------\n");
            for c in &self.coverage {
                s.push_str(&format!(
                    "{:<18} | {:>15} | {:>11}\n",
                    c.process,
                    c.executed_blocks,
                    c.unaccounted.len()
                ));
            }
        }
        if !self.taint.is_empty() {
            s.push_str("\nProcess            | Explainable Alerts | Impossible-per-model\n");
            s.push_str("-------------------+--------------------+---------------------\n");
            for p in &self.taint.processes {
                s.push_str(&format!(
                    "{:<18} | {:>18} | {:>20}\n",
                    p.process,
                    p.explainable.len(),
                    p.impossible.len()
                ));
            }
            s.push_str(&format!("residual static flows never exercised: {}\n", self.taint.residual.len()));
        }
        if !self.profile.is_empty() {
            s.push('\n');
            s.push_str(&self.profile.to_table(5));
        }
        if !self.capabilities.is_empty() {
            s.push('\n');
            s.push_str(&faros_analyze::render_capability_check(&self.capabilities));
        }
        if !self.cfi.is_empty() {
            s.push_str(&format!(
                "\nCFI: {} edges checked, {} violations ({} tainted)\n",
                self.cfi.stats.edges_checked,
                self.cfi.stats.violations,
                self.cfi.stats.tainted_violations,
            ));
            for v in &self.cfi.violations {
                s.push_str(&format!(
                    "  {:<18} | {}{}\n",
                    v.process,
                    v.detail,
                    if v.tainted { " [tainted]" } else { "" }
                ));
            }
        }
        s
    }
}

impl FarosReport {
    /// Renders the detections' provenance chains as a Graphviz DOT graph —
    /// the machine-readable form of the paper's Figs. 7-10 diagrams (one
    /// node per tag, edges in chronological order, each chain terminating
    /// at the memory address it read).
    pub fn to_dot(&self) -> String {
        let mut out = String::new();
        out.push_str("digraph provenance {\n  rankdir=LR;\n  node [shape=box];\n");
        for (i, d) in self.detections.iter().enumerate() {
            let stages: Vec<&str> = d.code_provenance.split("->").map(str::trim).collect();
            let mut prev: Option<String> = None;
            for (j, stage) in stages.iter().enumerate() {
                let id = format!("d{i}_{j}");
                let label = stage.replace('"', "'");
                out.push_str(&format!("  {id} [label=\"{label}\"];\n"));
                if let Some(p) = &prev {
                    out.push_str(&format!("  {p} -> {id};\n"));
                }
                prev = Some(id);
            }
            let sink = format!("d{i}_read");
            out.push_str(&format!(
                "  {sink} [label=\"read {:#010x}\\n({})\", shape=ellipse];\n",
                d.read_vaddr,
                d.target_provenance.replace('"', "'")
            ));
            if let Some(p) = prev {
                out.push_str(&format!("  {p} -> {sink} [style=bold, color=red];\n"));
            }
        }
        out.push_str("}\n");
        out
    }

    /// Serializes the report to pretty-printed JSON for downstream
    /// tooling. The rendering is byte-stable: the same report always
    /// produces the same bytes (the golden-fixture tests rely on it).
    ///
    /// # Errors
    ///
    /// Infallible in practice; the `Result` is kept for API stability.
    pub fn to_json(&self) -> Result<String, JsonError> {
        Ok(self.to_json_value().to_pretty())
    }

    /// Deserializes a report from JSON.
    ///
    /// # Errors
    ///
    /// Returns a parse error for malformed input.
    pub fn from_json(json: &str) -> Result<FarosReport, JsonError> {
        FarosReport::from_json_value(&JsonValue::parse(json)?)
    }
}

impl ToJson for DetectionKind {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::Str(
            match self {
                DetectionKind::ExportTableRead => "ExportTableRead",
                DetectionKind::TaintedControlTransfer => "TaintedControlTransfer",
            }
            .to_string(),
        )
    }
}

impl FromJson for DetectionKind {
    fn from_json_value(v: &JsonValue) -> Result<DetectionKind, JsonError> {
        match v.as_str() {
            Some("ExportTableRead") => Ok(DetectionKind::ExportTableRead),
            Some("TaintedControlTransfer") => Ok(DetectionKind::TaintedControlTransfer),
            _ => Err(JsonError::decode("unknown DetectionKind")),
        }
    }
}

impl ToJson for Detection {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("insn_vaddr", self.insn_vaddr.to_json_value()),
            ("insn", self.insn.to_json_value()),
            ("read_vaddr", self.read_vaddr.to_json_value()),
            ("process", self.process.to_json_value()),
            ("cr3", self.cr3.to_json_value()),
            ("code_provenance", self.code_provenance.to_json_value()),
            ("target_provenance", self.target_provenance.to_json_value()),
            ("tick", self.tick.to_json_value()),
            ("via_netflow", self.via_netflow.to_json_value()),
            ("via_cross_process", self.via_cross_process.to_json_value()),
            ("kind", self.kind.to_json_value()),
        ])
    }
}

impl FromJson for Detection {
    fn from_json_value(v: &JsonValue) -> Result<Detection, JsonError> {
        Ok(Detection {
            insn_vaddr: json::field(v, "insn_vaddr")?,
            insn: json::field(v, "insn")?,
            read_vaddr: json::field(v, "read_vaddr")?,
            process: json::field(v, "process")?,
            cr3: json::field(v, "cr3")?,
            code_provenance: json::field(v, "code_provenance")?,
            target_provenance: json::field(v, "target_provenance")?,
            tick: json::field(v, "tick")?,
            via_netflow: json::field(v, "via_netflow")?,
            via_cross_process: json::field(v, "via_cross_process")?,
            // Added after the first release; older reports omit it.
            kind: json::field_or_default(v, "kind")?,
        })
    }
}

impl ToJson for CoverageSummary {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("process", self.process.to_json_value()),
            ("executed_blocks", self.executed_blocks.to_json_value()),
            ("unaccounted", self.unaccounted.to_json_value()),
            ("uncharted_blocks", self.uncharted_blocks.to_json_value()),
        ])
    }
}

impl FromJson for CoverageSummary {
    fn from_json_value(v: &JsonValue) -> Result<CoverageSummary, JsonError> {
        Ok(CoverageSummary {
            process: json::field(v, "process")?,
            executed_blocks: json::field(v, "executed_blocks")?,
            unaccounted: json::field(v, "unaccounted")?,
            uncharted_blocks: json::field(v, "uncharted_blocks")?,
        })
    }
}

impl ToJson for FarosReport {
    fn to_json_value(&self) -> JsonValue {
        let mut fields = vec![
            ("detections", self.detections.to_json_value()),
            ("whitelisted", self.whitelisted.to_json_value()),
        ];
        // Omitted when empty so reports produced before the coverage
        // cross-check (resp. the metrics snapshot) existed serialize
        // byte-identically (golden fixtures).
        if !self.coverage.is_empty() {
            fields.push(("coverage", self.coverage.to_json_value()));
        }
        if !self.taint.is_empty() {
            fields.push(("taint", self.taint.to_json_value()));
        }
        if !self.cfi.is_empty() {
            fields.push(("cfi", self.cfi.to_json_value()));
        }
        if !self.capabilities.is_empty() {
            fields.push(("capabilities", self.capabilities.to_json_value()));
        }
        if !self.metrics.is_empty() {
            fields.push(("metrics", self.metrics.to_json_value()));
        }
        if !self.profile.is_empty() {
            fields.push(("profile", self.profile.to_json_value()));
        }
        JsonValue::object(fields)
    }
}

impl FromJson for FarosReport {
    fn from_json_value(v: &JsonValue) -> Result<FarosReport, JsonError> {
        Ok(FarosReport {
            detections: json::field(v, "detections")?,
            whitelisted: json::field(v, "whitelisted")?,
            // Absent in pre-coverage / pre-taint / pre-metrics reports.
            coverage: json::field_or_default(v, "coverage")?,
            taint: json::field_or_default(v, "taint")?,
            cfi: json::field_or_default(v, "cfi")?,
            capabilities: json::field_or_default(v, "capabilities")?,
            metrics: json::field_or_default(v, "metrics")?,
            profile: json::field_or_default(v, "profile")?,
        })
    }
}

impl fmt::Display for FarosReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_detection(addr: u32, process: &str) -> Detection {
        Detection {
            insn_vaddr: addr,
            insn: "ld4 eax, [0x8001001c]".into(),
            read_vaddr: 0x8001_001c,
            process: process.into(),
            cr3: 0x3000,
            code_provenance:
                "NetFlow: {src ip,port: 169.254.26.161:4444, dest ip,port: \
                 169.254.57.168:49162} ->Process: inject_client.exe ->Process: notepad.exe"
                    .into(),
            target_provenance: "Export Table".into(),
            tick: 1234,
            via_netflow: true,
            via_cross_process: true,
            kind: DetectionKind::ExportTableRead,
        }
    }

    #[test]
    fn empty_report_flags_nothing() {
        let r = FarosReport::default();
        assert!(!r.attack_flagged());
        assert!(r.to_table().contains("no in-memory injection"));
    }

    #[test]
    fn table_matches_paper_shape() {
        let mut r = FarosReport::default();
        r.detections.push(sample_detection(0x83B0_7019, "notepad.exe"));
        r.detections.push(sample_detection(0x83B0_7018, "notepad.exe"));
        let table = r.to_table();
        assert!(table.contains("0x83B07019     | NetFlow:"));
        assert!(table.contains("->Process: inject_client.exe ->Process: notepad.exe;"));
        assert!(r.attack_flagged());
    }

    #[test]
    fn dot_export_draws_the_chain() {
        let mut r = FarosReport::default();
        r.detections.push(sample_detection(0x0100_0043, "notepad.exe"));
        let dot = r.to_dot();
        assert!(dot.starts_with("digraph provenance {"));
        assert!(dot.contains("NetFlow"));
        assert!(dot.contains("Process: notepad.exe"));
        assert!(dot.contains("d0_0 -> d0_1"));
        assert!(dot.contains("read 0x8001001c"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn coverage_round_trips_and_is_omitted_when_empty() {
        let mut r = FarosReport::default();
        r.detections.push(sample_detection(1, "notepad.exe"));
        let bare = r.to_json().unwrap();
        assert!(!bare.contains("coverage"), "empty coverage must not serialize");

        r.coverage.push(CoverageSummary {
            process: "notepad.exe".into(),
            executed_blocks: 42,
            unaccounted: vec![0x0100_0000, 0x0100_0040],
            uncharted_blocks: 0,
        });
        assert!(r.coverage_suspicious());
        let json = r.to_json().unwrap();
        assert!(json.contains("coverage"));
        let restored = FarosReport::from_json(&json).unwrap();
        assert_eq!(restored, r);
        // Pre-coverage reports (no field) still parse.
        let old = FarosReport::from_json(&bare).unwrap();
        assert!(old.coverage.is_empty());
        assert!(!old.coverage_suspicious());
        // The table gains a coverage section.
        assert!(r.to_table().contains("Unaccounted"));
    }

    #[test]
    fn taint_crosscheck_round_trips_and_is_omitted_when_empty() {
        use faros_analyze::{ProcessTaintCheck, TaintCrossCheck};
        let mut r = FarosReport::default();
        r.detections.push(sample_detection(1, "notepad.exe"));
        let bare = r.to_json().unwrap();
        assert!(!bare.contains("\"taint\""), "empty taint check must not serialize");

        r.taint = TaintCrossCheck {
            processes: vec![ProcessTaintCheck {
                process: "notepad.exe".into(),
                explainable: vec![0x40_0010],
                impossible: vec![0x0100_0000],
            }],
            residual: vec![],
        };
        assert!(r.taint_suspicious());
        let json = r.to_json().unwrap();
        assert!(json.contains("\"taint\""));
        assert!(json.contains("impossible"));
        let restored = FarosReport::from_json(&json).unwrap();
        assert_eq!(restored, r);
        // Pre-taint reports (no field) still parse.
        let old = FarosReport::from_json(&bare).unwrap();
        assert!(old.taint.is_empty());
        assert!(!old.taint_suspicious());
        // The table gains a taint section.
        assert!(r.to_table().contains("Impossible-per-model"));
    }

    #[test]
    fn cfi_round_trips_and_is_omitted_when_empty() {
        use faros_analyze::{CfiCheckReport, CfiStats, CfiViolation};
        let mut r = FarosReport::default();
        r.detections.push(sample_detection(1, "notepad.exe"));
        let bare = r.to_json().unwrap();
        assert!(!bare.contains("\"cfi\""), "empty cfi check must not serialize");

        r.cfi = CfiCheckReport {
            violations: vec![CfiViolation {
                process: "notepad.exe".into(),
                site: 0x40_0010,
                target: 0x40_0003,
                kind: faros_replay::TransferKind::Return,
                module: "notepad.exe".into(),
                detail: "ret at 0x00400010 reached 0x00400003, which is not \
                         a call-preceded return site"
                    .into(),
                tainted: true,
            }],
            stats: CfiStats {
                models_built: 1,
                sites_observed: 1,
                edges_checked: 1,
                violations: 1,
                tainted_violations: 1,
                ..CfiStats::default()
            },
        };
        assert!(r.cfi_suspicious());
        let json = r.to_json().unwrap();
        assert!(json.contains("\"cfi\""));
        let restored = FarosReport::from_json(&json).unwrap();
        assert_eq!(restored, r);
        // Pre-CFI reports (no field) still parse.
        let old = FarosReport::from_json(&bare).unwrap();
        assert!(old.cfi.is_empty());
        assert!(!old.cfi_suspicious());
        // The table gains a CFI section with the taint-fusion marker.
        assert!(r.to_table().contains("CFI: 1 edges checked, 1 violations (1 tainted)"));
        assert!(r.to_table().contains("[tainted]"));
    }

    #[test]
    fn profile_round_trips_and_is_omitted_when_empty() {
        use faros_obs::prof::{ModuleLayout, ProcessSamples};
        use std::collections::BTreeMap;
        let mut r = FarosReport::default();
        r.detections.push(sample_detection(1, "notepad.exe"));
        let bare = r.to_json().unwrap();
        assert!(!bare.contains("\"profile\""), "empty profile must not serialize");

        let mut blocks = BTreeMap::new();
        blocks.insert(0x40_0000u32, 100u64);
        let mut functions = BTreeMap::new();
        functions.insert(0x40_0000u32, "main".to_string());
        r.profile = ProfileReport::build(vec![ProcessSamples {
            pid: 4,
            process: "notepad.exe".into(),
            blocks,
            modules: vec![ModuleLayout {
                name: "notepad.exe".into(),
                base: 0x40_0000,
                limit: 0x41_0000,
                functions,
            }],
        }]);
        let json = r.to_json().unwrap();
        assert!(json.contains("\"profile\""));
        assert!(json.contains("total_retired"));
        let restored = FarosReport::from_json(&json).unwrap();
        assert_eq!(restored, r);
        // Pre-profile reports (no field) still parse.
        let old = FarosReport::from_json(&bare).unwrap();
        assert!(old.profile.is_empty());
        // The table gains a profile section naming the hot function.
        assert!(r.to_table().contains("profile: 100 retired instructions"));
        assert!(r.to_table().contains("main"));
    }

    #[test]
    fn metrics_round_trip_and_is_omitted_when_empty() {
        let mut r = FarosReport::default();
        r.detections.push(sample_detection(1, "notepad.exe"));
        let bare = r.to_json().unwrap();
        assert!(!bare.contains("metrics"), "empty metrics must not serialize");

        let mut reg = faros_obs::metrics::MetricsRegistry::new();
        let insns = reg.counter("cpu.instructions");
        reg.add(insns, 12_345);
        r.metrics = reg.snapshot();
        let json = r.to_json().unwrap();
        assert!(json.contains("cpu.instructions"));
        let restored = FarosReport::from_json(&json).unwrap();
        assert_eq!(restored, r);
        assert_eq!(restored.metrics.counter("cpu.instructions"), Some(12_345));
        // Pre-metrics reports (no field) still parse.
        let old = FarosReport::from_json(&bare).unwrap();
        assert!(old.metrics.is_empty());
    }

    #[test]
    fn flagged_processes_dedup() {
        let mut r = FarosReport::default();
        r.detections.push(sample_detection(1, "a.exe"));
        r.detections.push(sample_detection(2, "a.exe"));
        r.detections.push(sample_detection(3, "b.exe"));
        assert_eq!(r.flagged_processes(), vec!["a.exe", "b.exe"]);
    }
}
