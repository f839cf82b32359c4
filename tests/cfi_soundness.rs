//! The CFI-layer differential checks.
//!
//! Two claims, both testable against the whole corpus:
//!
//! 1. **Soundness on benign code** (zero false positives): across every
//!    non-attack sample — benign software, non-injecting malware, and
//!    all twenty JIT workloads — the dynamic CFI cross-check raises zero
//!    violations. Every observed `ret` lands call-preceded, every
//!    resolved `call reg`/`jmp reg` stays inside its resolved target
//!    set, and every unresolved one lands on a known function entry (or
//!    legally escapes modeled code, the JIT caveat).
//! 2. **The reuse truth table**: each ROP/JOP sample raises at least one
//!    CFI violation while every injected-byte signal (taint confluence,
//!    coverage diff) stays silent — proving the CFI layer detects the
//!    attack class the rest of FAROS cannot see — and the benign
//!    dense-indirect foils raise none.

use faros::{analyze_recording, AnalysisConfig};
use faros_repro::analyze;
use faros_repro::corpus::{reuse, sample_registry};
use faros_repro::replay::{record, replay, CfiMonitor, Scenario as _};
use std::collections::BTreeSet;

const BUDGET: u64 = 20_000_000;

#[test]
fn benign_corpus_raises_zero_cfi_violations() {
    let mut edges_checked = 0u64;
    let mut samples_run = 0usize;
    for sample in sample_registry() {
        if sample.category.is_attack() {
            continue;
        }
        samples_run += 1;
        let (recording, _) = record(&sample.scenario, BUDGET).unwrap();
        let mut monitor = CfiMonitor::new();
        replay(&sample.scenario, &recording, BUDGET, &mut monitor).unwrap();
        let models = analyze::model_map(
            sample.scenario.programs().iter().map(|(p, i)| (p.as_str(), i.clone())),
        );
        let report =
            analyze::cfi::check(&monitor.into_processes(), &models, &BTreeSet::new());
        assert!(
            !report.violation_found(),
            "{}: benign sample tripped the CFI check: {:?}",
            sample.scenario.name(),
            report.violations,
        );
        edges_checked += report.stats.edges_checked;
    }
    // Vacuousness floors: the property must have exercised real corpus
    // breadth and real transfer volume. (Most benign corpus programs use
    // direct control flow; the dense-indirect foils, the plugin host and
    // the evasion samples supply the checked-edge volume, while kernel
    // sites and JIT escapes are correctly skipped.)
    assert!(samples_run >= 100, "only {samples_run} non-attack samples ran");
    assert!(edges_checked >= 20, "only {edges_checked} edges were checked");
}

#[test]
fn reuse_attacks_trip_cfi_and_nothing_else() {
    for sample in reuse::reuse_attack_samples() {
        let name = sample.scenario.name().to_string();
        let (recording, _) = record(&sample.scenario, BUDGET).unwrap();
        let job =
            analyze_recording(&sample.scenario, &recording, &AnalysisConfig::default())
                .unwrap();
        let report = &job.report;
        // The injected-byte signals must stay silent: no byte of attacker
        // code exists, let alone executes.
        assert!(!report.attack_flagged(), "{name}: taint confluence fired on pure reuse");
        assert!(
            !report.coverage_suspicious(),
            "{name}: coverage diff fired — reuse executes only image-backed code",
        );
        // The CFI cross-check is the one signal that sees it.
        assert!(report.cfi_suspicious(), "{name}: no CFI violation raised");
        assert!(report.cfi.stats.violations >= 1);
    }
}

#[test]
fn net_assembled_chain_violations_carry_the_taint_fusion_bit() {
    let sample = reuse::rop_net_chain();
    let (recording, _) = record(&sample.scenario, BUDGET).unwrap();
    let job = analyze_recording(&sample.scenario, &recording, &AnalysisConfig::default())
        .unwrap();
    let report = &job.report;
    assert!(report.cfi_suspicious());
    assert!(
        report.cfi.violations.iter().any(|v| v.tainted),
        "chain words are byte-for-byte network copies; the popped return \
         targets must carry netflow taint: {:?}",
        report.cfi.violations,
    );
    assert!(report.cfi.stats.tainted_violations >= 1);
    // The local-chain variant, by contrast, violates untainted.
    let local = reuse::rop_pivot_chain();
    let (recording, _) = record(&local.scenario, BUDGET).unwrap();
    let job =
        analyze_recording(&local.scenario, &recording, &AnalysisConfig::default()).unwrap();
    assert!(job.report.cfi_suspicious());
    assert!(job.report.cfi.violations.iter().all(|v| !v.tainted));
}

#[test]
fn benign_reuse_foils_stay_clean_through_the_full_pipeline() {
    for sample in reuse::reuse_benign_samples() {
        let name = sample.scenario.name().to_string();
        let (recording, _) = record(&sample.scenario, BUDGET).unwrap();
        let job =
            analyze_recording(&sample.scenario, &recording, &AnalysisConfig::default())
                .unwrap();
        let report = &job.report;
        assert!(!report.attack_flagged(), "{name}: false taint flag");
        assert!(!report.coverage_suspicious(), "{name}: false coverage flag");
        assert!(!report.cfi_suspicious(), "{name}: false CFI flag: {:?}", report.cfi.violations);
        // Not vacuous: the foils are *dense* in indirect transfers.
        assert!(
            report.cfi.stats.edges_checked >= 5,
            "{name}: only {} edges checked",
            report.cfi.stats.edges_checked,
        );
    }
}
