//! The static lint catalogue over FDL images.
//!
//! Severity is split deliberately:
//!
//! * **Error** findings are invariant violations no well-formed FDL binary
//!   produces — a writable-and-executable section, a reachable store whose
//!   statically known target lands in code, an export pointing outside
//!   every code section, or two exports whose djb2 hashes collide (a
//!   reflective resolver would bind the wrong function). The entire benign
//!   corpus carries zero of these; injected payload blobs carry at least
//!   one (they ship as RWX by construction).
//! * **Advisory** findings are facts an analyst wants but legitimate
//!   binaries routinely exhibit: indirect call/jump sites with no static
//!   target (every API call through a resolved pointer) and sweep-only
//!   code descent never reached (data mistaken for code, or functions only
//!   reached indirectly).

use crate::cfg::ModuleCfg;
use faros_emu::isa::Instr;
use faros_kernel::module::FdlImage;
use std::fmt;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Invariant violation; never emitted for a well-formed benign image.
    Error,
    /// Informational; expected on legitimate binaries.
    Advisory,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Advisory => write!(f, "advisory"),
        }
    }
}

/// What a finding is about. The derived order (declaration order) is part
/// of the deterministic sort key for rendered findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FindingKind {
    /// A section mapped both writable and executable.
    WxSection,
    /// A reachable store whose statically resolved target is inside an
    /// executable section.
    WriteToCode,
    /// An indirect call/jump with no statically resolvable target.
    UnresolvedIndirect,
    /// Code found by the sweep that recursive descent never reached.
    UnreachableBlock,
    /// An export whose VA is outside every executable section.
    ExportOutsideCode,
    /// Two differently named exports with the same djb2 name hash.
    ExportHashCollision,
    /// A syscall site whose service number the VSA cannot resolve to a
    /// constant — every syscall-indexed static view (taint sources,
    /// capability lifting) must treat it as "could be any service".
    SyscallNumberUnresolved,
}

impl FindingKind {
    /// The severity class of this kind of finding.
    pub fn severity(self) -> Severity {
        match self {
            FindingKind::WxSection
            | FindingKind::WriteToCode
            | FindingKind::ExportOutsideCode
            | FindingKind::ExportHashCollision => Severity::Error,
            FindingKind::UnresolvedIndirect
            | FindingKind::UnreachableBlock
            | FindingKind::SyscallNumberUnresolved => Severity::Advisory,
        }
    }
}

impl fmt::Display for FindingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FindingKind::WxSection => "w^x-section",
            FindingKind::WriteToCode => "write-to-code",
            FindingKind::UnresolvedIndirect => "unresolved-indirect",
            FindingKind::UnreachableBlock => "unreachable-block",
            FindingKind::ExportOutsideCode => "export-outside-code",
            FindingKind::ExportHashCollision => "export-hash-collision",
            FindingKind::SyscallNumberUnresolved => "syscall-number-unresolved",
        };
        write!(f, "{s}")
    }
}

/// One structured lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Module the finding is about.
    pub module: String,
    /// What was found.
    pub kind: FindingKind,
    /// The finding's severity (derived from `kind`).
    pub severity: Severity,
    /// VA the finding anchors at (section base, instruction, export VA).
    pub va: u32,
    /// Human-readable detail.
    pub detail: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} {} @ {:#010x}: {}",
            self.severity, self.module, self.kind, self.va, self.detail
        )
    }
}

fn finding(module: &str, kind: FindingKind, va: u32, detail: String) -> Finding {
    Finding { module: module.to_string(), kind, severity: kind.severity(), va, detail }
}

/// Runs every lint over `image`, returning findings with `Error`s first,
/// then by VA.
pub fn lint_image(name: &str, image: &FdlImage) -> Vec<Finding> {
    let cfg = ModuleCfg::recover(name, image);
    lint_with_cfg(name, image, &cfg)
}

/// [`lint_image`] over an already-recovered CFG (so callers analyzing the
/// same image for coverage do not disassemble twice).
pub fn lint_with_cfg(name: &str, image: &FdlImage, cfg: &ModuleCfg) -> Vec<Finding> {
    let mut out = Vec::new();

    // W^X: a section both writable and executable.
    for s in &image.sections {
        if s.perms.is_wx() {
            out.push(finding(
                name,
                FindingKind::WxSection,
                s.va,
                format!("{}-byte section mapped writable and executable", s.data.len()),
            ));
        }
    }

    // Reachable stores with a statically known target inside code.
    for (va, instr) in cfg.reachable_instrs() {
        if let Instr::Store { mem, .. } = instr {
            if mem.base.is_none() && mem.index.is_none() {
                let target = mem.disp as u32;
                if image.is_code_va(target) {
                    out.push(finding(
                        name,
                        FindingKind::WriteToCode,
                        va,
                        format!("store targets code VA {target:#010x}"),
                    ));
                }
            }
        }
    }

    // Exports must land in executable bytes.
    for e in &image.exports {
        if !image.is_code_va(e.va) {
            out.push(finding(
                name,
                FindingKind::ExportOutsideCode,
                e.va,
                format!("export `{}` points outside every code section", e.name),
            ));
        }
    }

    // djb2 collisions between exports break reflective hash resolution.
    for (i, a) in image.exports.iter().enumerate() {
        for b in image.exports.iter().skip(i + 1) {
            if a.name != b.name && a.hash() == b.hash() {
                out.push(finding(
                    name,
                    FindingKind::ExportHashCollision,
                    a.va,
                    format!("exports `{}` and `{}` share hash {:#010x}", a.name, b.name, a.hash()),
                ));
            }
        }
    }

    // Advisory: statically unresolvable control flow. Sites the dataflow
    // engine resolved (`ModuleCfg::splice_resolved` recorded a finite
    // target set) are discharged — pass a CFG out of
    // `dataflow::analyze_image` to get the discharge.
    for site in &cfg.indirect_sites {
        if site.reachable && !cfg.resolved_targets.contains_key(&site.va) {
            out.push(finding(
                name,
                FindingKind::UnresolvedIndirect,
                site.va,
                format!("`{}` has no statically resolvable target", site.instr),
            ));
        }
    }

    // Advisory: sweep-only code.
    for b in cfg.unreachable_blocks() {
        out.push(finding(
            name,
            FindingKind::UnreachableBlock,
            b.start,
            format!("{}-instruction block unreachable from entry/exports", b.instr_count()),
        ));
    }

    // Deterministic output: total order over every field, then dedup —
    // two lints anchoring an identical finding at the same VA (or one
    // lint walking a shared block twice) must render once.
    out.sort_by(|a, b| {
        (a.severity, a.kind, a.va, &a.module, &a.detail).cmp(&(
            b.severity,
            b.kind,
            b.va,
            &b.module,
            &b.detail,
        ))
    });
    out.dedup();
    out
}

/// Renders findings as a fixed-width table, one row per finding.
pub fn render_findings(findings: &[Finding]) -> String {
    let mut out = String::new();
    out.push_str("severity | module                 | finding              | va         | detail\n");
    out.push_str("---------+------------------------+----------------------+------------+-------\n");
    for f in findings {
        out.push_str(&format!(
            "{:<8} | {:<22} | {:<20} | {:#010x} | {}\n",
            f.severity.to_string(),
            f.module,
            f.kind.to_string(),
            f.va,
            f.detail
        ));
    }
    if findings.is_empty() {
        out.push_str("(no findings)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use faros_emu::asm::Asm;
    use faros_emu::isa::{Mem as M, Reg};
    use faros_emu::mmu::Perms;
    use faros_kernel::module::{Export, Section};

    const BASE: u32 = 0x40_0000;

    fn rx_image(asm: Asm) -> FdlImage {
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

    fn errors(findings: &[Finding]) -> Vec<&Finding> {
        findings.iter().filter(|f| f.severity == Severity::Error).collect()
    }

    #[test]
    fn clean_image_has_no_error_findings() {
        let mut asm = Asm::new(BASE);
        asm.mov_ri(Reg::Eax, 1);
        asm.hlt();
        let findings = lint_image("clean", &rx_image(asm));
        assert!(errors(&findings).is_empty(), "{findings:?}");
    }

    #[test]
    fn rwx_section_is_an_error() {
        let mut asm = Asm::new(BASE);
        asm.hlt();
        let mut image = rx_image(asm);
        image.sections[0].perms = Perms::RWX;
        let findings = lint_image("payload", &image);
        assert!(findings.iter().any(|f| f.kind == FindingKind::WxSection));
        assert_eq!(findings[0].severity, Severity::Error);
    }

    #[test]
    fn self_modifying_store_is_an_error() {
        let mut asm = Asm::new(BASE);
        asm.mov_ri(Reg::Eax, 0x90);
        asm.st4(M::abs(BASE + 1), Reg::Eax); // patches own code
        asm.hlt();
        let findings = lint_image("patcher", &rx_image(asm));
        let hits: Vec<_> =
            findings.iter().filter(|f| f.kind == FindingKind::WriteToCode).collect();
        assert_eq!(hits.len(), 1);
        assert!(hits[0].detail.contains("0x00400001"));
    }

    #[test]
    fn store_to_data_is_clean() {
        let mut asm = Asm::new(BASE);
        asm.mov_ri(Reg::Eax, 7);
        asm.st4(M::abs(0x50_0000), Reg::Eax); // outside the image entirely
        asm.hlt();
        let findings = lint_image("writer", &rx_image(asm));
        assert!(findings.iter().all(|f| f.kind != FindingKind::WriteToCode));
    }

    #[test]
    fn indirect_call_is_advisory_only() {
        let mut asm = Asm::new(BASE);
        asm.mov_ri(Reg::Ebp, 0x8000_0000);
        asm.call_reg(Reg::Ebp);
        asm.hlt();
        let findings = lint_image("api-user", &rx_image(asm));
        let inds: Vec<_> =
            findings.iter().filter(|f| f.kind == FindingKind::UnresolvedIndirect).collect();
        assert_eq!(inds.len(), 1);
        assert_eq!(inds[0].severity, Severity::Advisory);
        assert!(errors(&findings).is_empty());
    }

    #[test]
    fn dangling_and_colliding_exports_are_errors() {
        let mut asm = Asm::new(BASE);
        asm.hlt();
        let mut image = rx_image(asm);
        image.exports = vec![
            Export { name: "dangling".into(), va: 0x0900_0000 },
            // djb2 collides for these two (crafted): find a pair by brute
            // force over short suffixes in-test instead of hardcoding.
        ];
        let findings = lint_image("exports", &image);
        assert!(findings.iter().any(|f| f.kind == FindingKind::ExportOutsideCode));

        // Construct a genuine djb2 collision: "a" then shift; djb2 is
        // linear, so `{prefix}bX` and `{prefix}aY` collide when
        // 33*'b'+X == 33*'a'+Y  =>  Y = X + 33.
        let mut asm2 = Asm::new(BASE);
        asm2.hlt();
        let mut image2 = rx_image(asm2);
        let x = b'0';
        let y = x + 33;
        let n1 = format!("b{}", x as char);
        let n2 = format!("a{}", y as char);
        image2.exports = vec![
            Export { name: n1, va: BASE },
            Export { name: n2, va: BASE },
        ];
        let findings2 = lint_image("collide", &image2);
        assert!(
            findings2.iter().any(|f| f.kind == FindingKind::ExportHashCollision),
            "{findings2:?}"
        );
    }

    #[test]
    fn findings_sort_by_severity_kind_va_and_dedup() {
        // Duplicate exports produce byte-identical findings; an RWX section
        // plus sweep-only code give one error and one advisory to order.
        let mut asm = Asm::new(BASE);
        asm.hlt();
        asm.mov_ri(Reg::Eax, 1); // after hlt: sweep-only, unreachable
        asm.hlt();
        let mut image = rx_image(asm);
        image.sections[0].perms = Perms::RWX;
        image.exports = vec![
            Export { name: "dup".into(), va: 0x0900_0000 },
            Export { name: "dup".into(), va: 0x0900_0000 },
        ];
        let findings = lint_image("m", &image);
        let dups: Vec<_> =
            findings.iter().filter(|f| f.kind == FindingKind::ExportOutsideCode).collect();
        assert_eq!(dups.len(), 1, "identical findings must dedup: {findings:?}");
        let keys: Vec<_> =
            findings.iter().map(|f| (f.severity, f.kind, f.va, &f.module, &f.detail)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "findings must come out in total order");
        assert!(findings.iter().any(|f| f.kind == FindingKind::UnreachableBlock));
    }

    #[test]
    fn dataflow_resolved_indirects_are_discharged() {
        // `mov ebx, helper; call ebx` is an unresolved-indirect advisory
        // for the plain recovered CFG, but the dataflow engine resolves it
        // to a constant and the lint discharges the finding.
        let mut asm = Asm::new(BASE);
        asm.mov_label(Reg::Ebx, "helper");
        asm.call_reg(Reg::Ebx);
        asm.hlt();
        asm.label("helper");
        asm.ret();
        let image = rx_image(asm);
        let plain = lint_image("m", &image);
        assert!(plain.iter().any(|f| f.kind == FindingKind::UnresolvedIndirect));
        let df = crate::dataflow::analyze_image("m", &image);
        let resolved = lint_with_cfg("m", &image, &df.cfg);
        assert!(
            resolved.iter().all(|f| f.kind != FindingKind::UnresolvedIndirect),
            "{resolved:?}"
        );
    }

    #[test]
    fn findings_render_as_table() {
        let mut asm = Asm::new(BASE);
        asm.hlt();
        let mut image = rx_image(asm);
        image.sections[0].perms = Perms::RWX;
        let findings = lint_image("m", &image);
        let table = render_findings(&findings);
        assert!(table.contains("w^x-section"));
        assert!(render_findings(&[]).contains("no findings"));
    }
}
