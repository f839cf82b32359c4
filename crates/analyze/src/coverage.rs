//! The static-vs-dynamic coverage cross-check.
//!
//! [`diff`] takes the per-process executed-block sets a replay recorded
//! (via [`faros_replay::BlockCoverage`]) and the static models of every
//! module image, and classifies each executed block start:
//!
//! * **kernel** — kernel-space VAs (`>= KERNEL_BASE`); the kernel module
//!   is assembled at boot, not loaded from an image, and is trusted;
//! * **accounted** — inside an executable section of a loaded module whose
//!   static disassembly charts the address;
//! * **uncharted** — inside a module's executable section, but at an
//!   address the static model never decoded (decoder desync, or data
//!   executed in place) — advisory;
//! * **unaccounted** — user-space code *outside every loaded module's
//!   executable sections*: dynamically materialized code. This is the
//!   independent injection signal — reflective payloads, hollowed images
//!   and RAT stages all execute out of anonymous allocations, while the
//!   whole benign corpus (JIT applets excepted, by design) executes only
//!   image-backed code.

use crate::model::{loaded_models, ImageModel};
use faros_emu::mmu::KERNEL_BASE;
use faros_kernel::Pid;
use faros_replay::ProcessBlocks;
use std::collections::BTreeMap;
use std::fmt;

/// Coverage classification for one process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessCoverage {
    /// Process id.
    pub pid: Pid,
    /// Process image name.
    pub process: String,
    /// Total executed block starts observed.
    pub executed: usize,
    /// Block starts in kernel space.
    pub kernel: usize,
    /// Block starts charted by a loaded module's static model.
    pub accounted: usize,
    /// Block starts inside a module's code sections but never statically
    /// decoded (advisory).
    pub uncharted: Vec<u32>,
    /// Block starts outside every loaded module's executable sections —
    /// statically unaccounted, dynamically materialized code.
    pub unaccounted: Vec<u32>,
}

/// The cross-check result for one replay.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageReport {
    /// Per-process classifications, ordered by pid.
    pub processes: Vec<ProcessCoverage>,
}

impl CoverageReport {
    /// Returns `true` if any process executed statically unaccounted code.
    pub fn injection_suspected(&self) -> bool {
        self.processes.iter().any(|p| !p.unaccounted.is_empty())
    }

    /// Processes that executed statically unaccounted code.
    pub fn suspicious_processes(&self) -> Vec<&ProcessCoverage> {
        self.processes.iter().filter(|p| !p.unaccounted.is_empty()).collect()
    }

    /// The coverage row for a process name, if observed.
    pub fn process(&self, name: &str) -> Option<&ProcessCoverage> {
        self.processes.iter().find(|p| p.process == name)
    }

    /// Renders the report as a fixed-width table, one row per process.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "process                | blocks | kernel | accounted | uncharted | unaccounted\n",
        );
        out.push_str(
            "-----------------------+--------+--------+-----------+-----------+------------\n",
        );
        for p in &self.processes {
            out.push_str(&format!(
                "{:<22} | {:>6} | {:>6} | {:>9} | {:>9} | {:>11}\n",
                p.process,
                p.executed,
                p.kernel,
                p.accounted,
                p.uncharted.len(),
                p.unaccounted.len(),
            ));
        }
        out
    }
}

impl fmt::Display for CoverageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render_table())
    }
}

/// Diffs replay-observed block starts against the static models of each
/// process's loaded modules.
pub fn diff(observed: &[ProcessBlocks], models: &BTreeMap<String, ImageModel>) -> CoverageReport {
    let mut processes = Vec::new();
    for proc in observed {
        let loaded: Vec<&ImageModel> = loaded_models(&proc.modules, models).collect();
        let mut cov = ProcessCoverage {
            pid: proc.pid,
            process: proc.name.clone(),
            executed: proc.seen.len(),
            kernel: 0,
            accounted: 0,
            uncharted: Vec::new(),
            unaccounted: Vec::new(),
        };
        for &va in proc.seen.keys() {
            if va >= KERNEL_BASE {
                cov.kernel += 1;
            } else if let Some(model) = loaded.iter().find(|m| m.image.is_code_va(va)) {
                if model.dataflow.cfg.accounts_for(va) {
                    cov.accounted += 1;
                } else {
                    cov.uncharted.push(va);
                }
            } else {
                cov.unaccounted.push(va);
            }
        }
        processes.push(cov);
    }
    CoverageReport { processes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faros_emu::asm::Asm;
    use faros_emu::mmu::Perms;
    use faros_kernel::module::{FdlImage, ModuleInfo, Section};
    use faros_kernel::Pid;

    const BASE: u32 = 0x40_0000;

    fn simple_image() -> FdlImage {
        let mut asm = Asm::new(BASE);
        asm.mov_ri(faros_emu::isa::Reg::Eax, 1);
        asm.hlt();
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

    fn observed(name: &str, blocks: &[u32]) -> ProcessBlocks {
        ProcessBlocks {
            pid: Pid(1),
            name: name.into(),
            modules: vec![ModuleInfo {
                name: format!("C:/{name}"),
                base: BASE,
                entry: BASE,
                export_table_va: 0,
                exports: vec![],
            }],
            seen: blocks.iter().map(|&va| (va, 1)).collect(),
        }
    }

    #[test]
    fn image_backed_blocks_are_accounted() {
        let models = crate::model_map([("C:/app.exe", simple_image())]);
        let report = diff(&[observed("app.exe", &[BASE])], &models);
        assert!(!report.injection_suspected());
        let p = report.process("app.exe").unwrap();
        assert_eq!(p.accounted, 1);
        assert!(p.unaccounted.is_empty());
    }

    #[test]
    fn anonymous_code_is_unaccounted() {
        let models = crate::model_map([("C:/app.exe", simple_image())]);
        let report = diff(&[observed("app.exe", &[BASE, 0x0100_0000])], &models);
        assert!(report.injection_suspected());
        let p = report.process("app.exe").unwrap();
        assert_eq!(p.unaccounted, vec![0x0100_0000]);
        assert_eq!(report.suspicious_processes().len(), 1);
    }

    #[test]
    fn kernel_space_blocks_are_trusted() {
        let models = crate::model_map([("C:/app.exe", simple_image())]);
        let report = diff(&[observed("app.exe", &[0x8000_0010])], &models);
        assert!(!report.injection_suspected());
        assert_eq!(report.processes[0].kernel, 1);
    }

    #[test]
    fn code_section_bytes_never_decoded_are_uncharted_not_unaccounted() {
        // Pad the image's code section; a mid-padding VA is inside code but
        // charted (nops). A VA past the section end is unaccounted.
        let mut image = simple_image();
        let len = image.sections[0].data.len() as u32;
        image.sections[0].data.resize(len as usize + 16, 0);
        let models = crate::model_map([("C:/app.exe", image)]);
        let report = diff(&[observed("app.exe", &[BASE + len + 2])], &models);
        assert_eq!(report.processes[0].accounted, 1); // nop padding is charted
        assert!(!report.injection_suspected());
    }

    #[test]
    fn table_lists_every_process() {
        let models = crate::model_map([("C:/app.exe", simple_image())]);
        let report = diff(&[observed("app.exe", &[BASE])], &models);
        let t = report.render_table();
        assert!(t.contains("app.exe"));
        assert!(t.contains("unaccounted"));
    }
}
