//! The static-vs-dynamic coverage truth table.
//!
//! Mirrors the detection truth table of the end-to-end tests, but for the
//! `faros-analyze` cross-check instead of the taint verdict: every
//! injection scenario must execute at least one basic block no loaded
//! module's static CFG accounts for, every non-injecting family variant
//! must execute none, and the JIT applets are the *only* benign exception
//! (dynamically materialized code is exactly what a JIT emits). The static
//! linter side of the table: every legitimate corpus image is W^X-clean
//! with zero error-severity findings, while every carved attack payload
//! image draws at least one.

use faros_repro::analyze;
use faros_repro::corpus::{attacks, dll, families, jit, Sample};
use faros_repro::faros::{self, AnalysisConfig};
use faros_repro::kernel::NullObserver;
use faros_repro::replay::{record, replay, BlockCoverage, Scenario as _};

const BUDGET: u64 = 20_000_000;

/// Records the sample, replays it with the block-coverage plugin, and
/// diffs the executed blocks against the static CFGs of the images each
/// process of the replay's machine loaded.
fn coverage_for(sample: &Sample) -> analyze::CoverageReport {
    let (recording, _) = record(&sample.scenario, BUDGET).unwrap();
    let mut blocks = BlockCoverage::new();
    let outcome = replay(&sample.scenario, &recording, BUDGET, &mut blocks).unwrap();
    let models = analyze::model_map(outcome.machine.loaded_images().clone());
    let procs = analyze::ProcessTable::join(&outcome.machine, &models);
    analyze::diff(&procs, &blocks.into_processes())
}

/// Pins the corpus-wide `unresolved-indirect` residue to an exact,
/// per-site-justified set. VSA folds jump-table loads from *read-only*
/// image data (see `vsa::tests::masked_index_table_load_enumerates_the_table`),
/// so every site left here is unresolvable from the image alone, not a
/// missed fold:
///
/// * `gadget.exe` — `call ebp`, pointer received over the network at
///   runtime (the tainted-function-pointer evasion sample);
/// * `cleanptr.exe` — `call ebp`, pointer produced by a hash walk over
///   the *kernel's* export table, another module's runtime memory;
/// * `host.exe` / `dropper.exe` — `call ebp`, pointer from a hash walk
///   over a loaded DLL's export table (same cross-module dependence);
/// * `renderer.exe` — `jmp ebx`, the JOP dispatcher's gadget table lives
///   in writable scratch memory (unresolvable *by design*: that is what
///   the CFI function-entry claim is for);
/// * `switchboard.exe` — `call ebx`, the benign callback table is also
///   built at runtime in writable memory;
/// * `smcbench.exe` — the patch loop's `call ebp` re-enters a routine the
///   program instantiated into a runtime RWX allocation (the benign SMC
///   sample), so the target exists in no module image. The *first*
///   `call ebp`, right after `mov ebp, imm`, folds via dataflow.
///
/// The `analyze --corpus` gate pins the same totals
/// (`GATE_UNRESOLVED_BASELINE`/`GATE_UNRESOLVED_AFTER` in `faros_cli.rs`);
/// this test pins the membership so a new unresolved site cannot hide
/// behind an unchanged count.
#[test]
fn unresolved_sites_are_exactly_the_justified_set() {
    use std::collections::BTreeSet;
    let mut leftover: BTreeSet<String> = BTreeSet::new();
    for sample in faros_repro::corpus::sample_registry() {
        for (path, image) in sample.scenario.programs() {
            for f in analyze::StaticReport::build(path, image)
                .findings
                .iter()
                .filter(|f| f.kind == analyze::FindingKind::UnresolvedIndirect)
            {
                leftover.insert(format!("{} {}", f.module, f.detail));
            }
        }
    }
    let expected: BTreeSet<String> = [
        "C:/cleanptr.exe `call ebp` has no statically resolvable target",
        "C:/dropper.exe `call ebp` has no statically resolvable target",
        "C:/gadget.exe `call ebp` has no statically resolvable target",
        "C:/host.exe `call ebp` has no statically resolvable target",
        "C:/renderer.exe `jmp ebx` has no statically resolvable target",
        "C:/smcbench.exe `call ebp` has no statically resolvable target",
        "C:/switchboard.exe `call ebx` has no statically resolvable target",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    assert_eq!(leftover, expected);
}

#[test]
fn every_injection_scenario_executes_unaccounted_blocks() {
    for sample in attacks::all_injecting_samples() {
        use faros_repro::replay::Scenario as _;
        let report = coverage_for(&sample);
        assert!(
            report.injection_suspected(),
            "{}: injected code must execute outside every module's static CFG\n{report}",
            sample.scenario.name(),
        );
        let suspicious = report.suspicious_processes();
        assert!(
            suspicious.iter().any(|p| !p.unaccounted.is_empty()),
            "{}: expected >=1 unaccounted block in the victim",
            sample.scenario.name(),
        );
    }
}

#[test]
fn family_variants_execute_only_charted_code() {
    let rows: Vec<_> = families::malware_rows()
        .into_iter()
        .chain(families::benign_rows())
        .collect();
    for family in rows {
        let sample = families::build_family_sample(&family, 0, 1);
        let report = coverage_for(&sample);
        assert!(
            !report.injection_suspected(),
            "{}: non-injecting family must execute only image-backed code\n{report}",
            family.name,
        );
    }
}

#[test]
fn benign_plugin_host_is_fully_charted() {
    let report = coverage_for(&dll::plugin_host());
    assert!(!report.injection_suspected(), "{report}");
}

#[test]
fn dropped_dll_is_modeled_from_the_image_the_loader_mapped() {
    // The attack writes `dropped.dll` at run time and loads it through the
    // registered loader, so it is no program image of the scenario. The
    // job models every image the loader mapped: the DLL's blocks are
    // charted, its indirect transfers land in a model, and the profile
    // names its functions.
    let sample = dll::dropped_dll_attack();
    assert!(sample.scenario.programs().iter().all(|(path, _)| !path.ends_with("dropped.dll")));
    let (recording, _) = record(&sample.scenario, BUDGET).unwrap();
    let cfg = AnalysisConfig { budget: BUDGET, profile: true, ..AnalysisConfig::default() };
    let report = faros::analyze_recording(&sample.scenario, &recording, &cfg).unwrap().report;
    assert!(!report.coverage_suspicious(), "{:?}", report.coverage);
    assert_eq!(report.cfi.stats.edges_escaping, 0);
    assert!(
        report
            .profile
            .processes
            .iter()
            .flat_map(|p| &p.functions)
            .any(|f| (f.module.as_str(), f.function.as_str()) == ("dropped.dll", "PluginMain")),
        "{:?}",
        report.profile
    );
}

#[test]
fn jit_applets_are_the_only_benign_exception() {
    // A JIT's entire business is materializing code at runtime; the
    // coverage check flags all of them, which is why it is an advisory
    // signal and the taint verdict stays the detector of record.
    for sample in jit::jit_workloads() {
        use faros_repro::replay::Scenario as _;
        let report = coverage_for(&sample);
        assert!(
            report.injection_suspected(),
            "{}: JIT-emitted code is by definition statically unaccounted",
            sample.scenario.name(),
        );
    }
}

#[test]
fn corpus_images_lint_clean_and_payloads_do_not() {
    // Every image the corpus ships as a legitimate program is W^X-clean by
    // construction and must draw zero error-severity findings.
    let mut scenarios: Vec<Sample> = attacks::all_injecting_samples();
    scenarios.extend(jit::jit_workloads());
    scenarios.push(dll::plugin_host());
    scenarios.push(dll::dropped_dll_attack());
    for family in families::malware_rows().into_iter().chain(families::benign_rows()) {
        scenarios.push(families::build_family_sample(&family, 0, 1));
    }
    for sample in &scenarios {
        for (path, image) in sample.scenario.programs() {
            let errors: Vec<_> = analyze::lint_image(path, image)
                .into_iter()
                .filter(|f| f.severity == analyze::Severity::Error)
                .collect();
            assert!(
                errors.is_empty(),
                "{path}: legitimate corpus image must lint clean, got {errors:?}"
            );
        }
    }

    // Every carved attack payload image draws at least one W^X finding.
    for (name, image) in attacks::payload_images() {
        let findings = analyze::lint_image(&name, &image);
        assert!(
            findings
                .iter()
                .any(|f| f.kind == analyze::FindingKind::WxSection),
            "{name}: RWX payload image must draw a W^X finding"
        );
    }
}

#[test]
fn coverage_attaches_to_the_faros_report() {
    let sample = attacks::reflective_dll_inject();
    let (recording, _) = record(&sample.scenario, BUDGET).unwrap();
    let report =
        faros::analyze_recording(&sample.scenario, &recording, &AnalysisConfig::default())
            .unwrap()
            .report;

    assert!(report.attack_flagged());
    assert!(report.coverage_suspicious());
    let table = report.to_table();
    assert!(table.contains("Unaccounted"));

    // The coverage section round-trips through the JSON report.
    let json = report.to_json().unwrap();
    let restored = faros_repro::faros::FarosReport::from_json(&json).unwrap();
    assert_eq!(report, restored);
}

#[test]
fn coverage_rows_are_the_machines_process_table() {
    // The job takes process identity from the replay's final machine, the
    // OSI view, and from nowhere else: its coverage section has one row
    // per process the machine lists, alive or exited, in pid order, so
    // row `i` is `pslist()[i]`.
    for sample in faros_repro::corpus::sample_registry() {
        let name = sample.scenario.name().to_string();
        let (recording, _) = record(&sample.scenario, BUDGET).unwrap();
        let plain = replay(&sample.scenario, &recording, BUDGET, &mut NullObserver).unwrap();
        let pslist: Vec<String> = plain.machine.pslist().into_iter().map(|p| p.name).collect();
        let job = faros::analyze_recording(&sample.scenario, &recording, &AnalysisConfig::default())
            .unwrap();
        let rows: Vec<String> = job.report.coverage.into_iter().map(|c| c.process).collect();
        assert_eq!(rows, pslist, "{name}: coverage rows are not the machine's process table");
    }
}
