//! The CuckooBox / malfind / FAROS comparison harness (paper §VI-B).
//!
//! Records a sample once and runs the detonation job over the recording
//! ([`faros::analyze_recording`]: FAROS's flow view plus the coverage and
//! CFI cross-checks against the static models of the images the replay
//! loaded), replays it once more under the Cuckoo-style sandbox (event
//! view), and scans that replay's final machine state with the
//! malfind-style scanner (snapshot view), reporting who detected what and
//! who could provide provenance.

use crate::cuckoo::CuckooSandbox;
use crate::malfind;
use faros::AnalysisConfig;
use faros_corpus::Sample;
use faros_replay::{record, replay};
use std::fmt;

/// Comparison outcome for one sample.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonRow {
    /// Sample name.
    pub sample: String,
    /// Ground truth: is it an in-memory injection attack?
    pub is_attack: bool,
    /// Cuckoo-style event analysis flagged it.
    pub cuckoo: bool,
    /// malfind-style snapshot scan flagged it.
    pub malfind: bool,
    /// FAROS flagged it.
    pub faros: bool,
    /// FAROS provided a netflow/process provenance chain.
    pub faros_provenance: bool,
    /// The static-vs-dynamic coverage cross-check found executed blocks
    /// unaccounted for by any loaded module's static CFG.
    pub coverage_gap: bool,
    /// The dynamic CFI cross-check found an indirect transfer or return
    /// violating the static control-flow model — the only signal that
    /// sees pure code reuse (ROP/JOP), which executes image-backed bytes
    /// exclusively.
    pub cfi_violation: bool,
}

impl fmt::Display for ComparisonRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn mark(b: bool) -> &'static str {
            if b {
                "X"
            } else {
                "-"
            }
        }
        write!(
            f,
            "{:<24} | {:^6} | {:^7} | {:^8} | {:^3} | {:^5} | {:^10}",
            self.sample,
            mark(self.cuckoo),
            mark(self.malfind),
            mark(self.coverage_gap),
            mark(self.cfi_violation),
            mark(self.faros),
            mark(self.faros_provenance),
        )
    }
}

/// Error running a comparison.
#[derive(Debug, Clone)]
pub struct ComparisonError(pub String);

impl fmt::Display for ComparisonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "comparison failed: {}", self.0)
    }
}

impl std::error::Error for ComparisonError {}

/// Runs every analyzer over one sample: one recording, the detonation job
/// and one Cuckoo replay.
///
/// # Errors
///
/// Returns [`ComparisonError`] if the scenario fails to build or the
/// replay diverges.
pub fn compare(sample: &Sample, budget: u64) -> Result<ComparisonRow, ComparisonError> {
    use faros_replay::Scenario as _;
    let (recording, _live) =
        record(&sample.scenario, budget).map_err(|e| ComparisonError(e.to_string()))?;
    let job = faros::analyze_recording(
        &sample.scenario,
        &recording,
        &AnalysisConfig { budget, ..AnalysisConfig::default() },
    )
    .map_err(|e| ComparisonError(e.to_string()))?;
    let report = job.report;

    // The Cuckoo sandbox runs live on the victim VM; malfind scans the
    // final memory state of that run (the "memory dump").
    let mut cuckoo = CuckooSandbox::new();
    let outcome = replay(&sample.scenario, &recording, budget, &mut cuckoo)
        .map_err(|e| ComparisonError(e.to_string()))?;

    Ok(ComparisonRow {
        sample: sample.scenario.name().to_string(),
        is_attack: sample.category.is_attack(),
        cuckoo: cuckoo.report().detects_injection(),
        malfind: malfind::scan(&outcome.machine).detects_injection(),
        faros: report.attack_flagged(),
        faros_provenance: report.detections.iter().any(|d| d.code_provenance.contains("->")),
        coverage_gap: report.coverage_suspicious(),
        cfi_violation: report.cfi_suspicious(),
    })
}

/// Renders comparison rows as the §VI-B discussion table.
pub fn render_table(rows: &[ComparisonRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "Sample                   | Cuckoo | malfind | coverage | CFI | FAROS | provenance\n",
    );
    out.push_str(
        "-------------------------+--------+---------+----------+-----+-------+-----------\n",
    );
    for row in rows {
        out.push_str(&row.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use faros_corpus::attacks;

    const BUDGET: u64 = 20_000_000;

    #[test]
    fn faros_beats_baselines_on_reflective_injection() {
        let row = compare(&attacks::reflective_dll_inject(), BUDGET).unwrap();
        assert!(row.is_attack);
        assert!(!row.cuckoo, "event-based analysis misses in-memory injection");
        assert!(row.malfind, "the persistent payload is visible in the dump");
        assert!(row.coverage_gap, "payload blocks execute outside every module image");
        assert!(row.faros);
        assert!(row.faros_provenance, "only FAROS explains where the code came from");
    }

    #[test]
    fn only_faros_catches_the_transient_attack() {
        let row = compare(&attacks::transient_reflective(), BUDGET).unwrap();
        assert!(!row.cuckoo);
        assert!(!row.malfind, "wiped payload defeats the snapshot scanner");
        assert!(
            row.coverage_gap,
            "unlike the snapshot, the coverage check saw the blocks execute"
        );
        assert!(row.faros, "FAROS saw the flow while it happened");
    }

    #[test]
    fn table_renders_all_rows() {
        let rows = vec![ComparisonRow {
            sample: "x".into(),
            is_attack: true,
            cuckoo: false,
            malfind: true,
            faros: true,
            faros_provenance: true,
            coverage_gap: true,
            cfi_violation: false,
        }];
        let table = render_table(&rows);
        assert!(table.contains("Cuckoo"));
        assert!(table.contains("coverage"));
        assert!(table.contains("CFI"));
        assert!(table.contains('x'));
    }
}

#[cfg(test)]
mod reuse_tests {
    use super::*;
    use faros_corpus::reuse;

    const BUDGET: u64 = 20_000_000;

    #[test]
    fn only_the_cfi_check_sees_code_reuse() {
        // ROP/JOP is the blind spot of every byte-centric view: no foreign
        // bytes exist for malfind to dump, no unaccounted blocks for the
        // coverage diff, no write-then-execute confluence for FAROS's
        // taint verdict. The CFI cross-check alone flags it.
        for sample in reuse::reuse_attack_samples() {
            let row = compare(&sample, BUDGET).unwrap();
            assert!(row.is_attack, "{}: reuse is ground-truth attack", row.sample);
            assert!(!row.cuckoo, "{}: no suspicious event sequence", row.sample);
            assert!(!row.malfind, "{}: no foreign bytes in the dump", row.sample);
            assert!(!row.coverage_gap, "{}: every block is image-backed", row.sample);
            assert!(!row.faros, "{}: no write-then-execute confluence", row.sample);
            assert!(row.cfi_violation, "{}: the CFI check must catch it", row.sample);
        }
    }

    #[test]
    fn dense_indirect_foils_draw_no_cfi_column() {
        for sample in reuse::reuse_benign_samples() {
            let row = compare(&sample, BUDGET).unwrap();
            assert!(!row.is_attack);
            assert!(!row.cfi_violation, "{}: benign foil tripped CFI", row.sample);
            assert!(!row.faros && !row.malfind, "{}: benign foil flagged", row.sample);
        }
    }
}

#[cfg(test)]
mod dropped_dll_tests {
    use super::*;
    use faros_corpus::dll;

    #[test]
    fn dropped_dll_is_cuckoos_catch_not_faros() {
        // The complementary threat models of §II: disk-dropping malware is
        // the classic case event tools own and FAROS scopes out.
        let row = compare(&dll::dropped_dll_attack(), 20_000_000).unwrap();
        assert!(row.cuckoo, "the dropped .dll artifact is Cuckoo's bread and butter");
        assert!(!row.faros, "registered, disk-backed loading is no confluence");
        assert!(
            !row.coverage_gap,
            "disk-backed module code is fully charted by the static CFGs"
        );
    }
}
