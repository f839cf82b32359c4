//! Workspace-level integration tests: the full pipeline through the
//! `faros-repro` facade.

use faros_repro::baselines;
use faros_repro::corpus::{attacks, families, jit};
use faros_repro::faros::{Faros, Policy};
use faros_repro::replay::{record, record_and_replay, replay, Recording};

const BUDGET: u64 = 20_000_000;

#[test]
fn quickstart_pipeline_flags_the_attack() {
    let sample = attacks::reflective_dll_inject();
    let mut faros = Faros::new(Policy::paper());
    let (_recording, outcome) =
        record_and_replay(&sample.scenario, BUDGET, &mut faros).unwrap();
    assert_eq!(outcome.exit, faros_repro::kernel::RunExit::AllExited);
    let report = faros.report();
    assert!(report.attack_flagged());
    assert_eq!(report.flagged_processes(), vec!["notepad.exe"]);
}

#[test]
fn replay_is_deterministic_across_runs() {
    // Two independent replays of the same recording must produce identical
    // FAROS reports, instruction counts, and console output.
    let sample = attacks::darkcomet_rat();
    let (recording, _) = record(&sample.scenario, BUDGET).unwrap();

    let run = |policy: Policy| {
        let mut faros = Faros::new(policy);
        let outcome = replay(&sample.scenario, &recording, BUDGET, &mut faros).unwrap();
        let console: Vec<String> =
            outcome.machine.console().iter().map(|(_, s)| s.clone()).collect();
        (faros.report(), outcome.instructions, console)
    };
    let (report_a, instr_a, console_a) = run(Policy::paper());
    let (report_b, instr_b, console_b) = run(Policy::paper());
    assert_eq!(report_a, report_b);
    assert_eq!(instr_a, instr_b);
    assert_eq!(console_a, console_b);
}

#[test]
fn recording_round_trips_through_json() {
    let sample = attacks::reverse_tcp_dns();
    let (recording, _) = record(&sample.scenario, BUDGET).unwrap();
    let json = recording.to_json().unwrap();
    let restored = Recording::from_json(&json).unwrap();
    assert_eq!(recording, restored);

    // A replay from the restored recording still detects the attack.
    let mut faros = Faros::new(Policy::paper());
    replay(&sample.scenario, &restored, BUDGET, &mut faros).unwrap();
    assert!(faros.report().attack_flagged());
}

#[test]
fn recording_saves_to_disk_and_loads() {
    let sample = attacks::bypassuac_injection();
    let (recording, _) = record(&sample.scenario, BUDGET).unwrap();
    let dir = std::env::temp_dir().join("faros-repro-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bypassuac.recording.json");
    recording.save(&path).unwrap();
    let loaded = Recording::load(&path).unwrap();
    assert_eq!(recording, loaded);
    std::fs::remove_file(&path).ok();
}

#[test]
fn faros_report_round_trips_through_json() {
    let sample = attacks::process_hollowing();
    let mut faros = Faros::new(Policy::paper());
    record_and_replay(&sample.scenario, BUDGET, &mut faros).unwrap();
    let report = faros.report();
    let json = report.to_json().unwrap();
    let restored = faros_repro::faros::FarosReport::from_json(&json).unwrap();
    assert_eq!(report, restored);
}

#[test]
fn plugin_manager_stacks_faros_with_cuckoo() {
    // FAROS and the Cuckoo-style sandbox observe the same replay through
    // the plugin manager — the PANDA-style multi-plugin workflow.
    use faros_repro::replay::PluginManager;
    let sample = attacks::njrat_rat();
    let (recording, _) = record(&sample.scenario, BUDGET).unwrap();
    let mut manager = PluginManager::new();
    manager.register(Box::new(Faros::new(Policy::paper())));
    manager.register(Box::new(baselines::CuckooSandbox::new()));
    replay(&sample.scenario, &recording, BUDGET, &mut manager).unwrap();
    assert_eq!(manager.plugin_names(), vec!["faros", "cuckoo"]);
    // The stacked FAROS saw the run: extract it and check its verdict.
    let faros = manager.take_as::<Faros>("faros").unwrap();
    assert!(faros.report().attack_flagged());
}

#[test]
fn full_corpus_ground_truth_confusion_matrix() {
    // A compact version of the paper's overall result: all injecting
    // samples detected, zero FPs outside the JIT class, exactly two JIT
    // FPs.
    let mut true_positives = 0u32;
    let mut false_negatives = 0u32;
    for sample in attacks::all_injecting_samples() {
        let mut faros = Faros::new(Policy::paper());
        record_and_replay(&sample.scenario, BUDGET, &mut faros).unwrap();
        if faros.report().attack_flagged() {
            true_positives += 1;
        } else {
            false_negatives += 1;
        }
    }
    assert_eq!((true_positives, false_negatives), (9, 0));

    // Spot-check the negative classes (the full sweeps run in
    // crates/corpus/tests/false_positives.rs and the bench harness).
    let mut fp = 0u32;
    for sample in families::fp_dataset().iter().take(10) {
        let mut faros = Faros::new(Policy::paper());
        record_and_replay(&sample.scenario, BUDGET, &mut faros).unwrap();
        fp += u32::from(faros.report().attack_flagged());
    }
    assert_eq!(fp, 0);

    let mut jit_fp = 0u32;
    for sample in jit::jit_workloads() {
        let mut faros = Faros::new(Policy::paper());
        record_and_replay(&sample.scenario, BUDGET, &mut faros).unwrap();
        jit_fp += u32::from(faros.report().attack_flagged());
    }
    assert_eq!(jit_fp, 2);
}

#[test]
fn detection_truth_table_matches_per_sample_ground_truth() {
    // The paper's evaluation as an explicit per-sample truth table: every
    // injecting attack must be flagged, one variant of every Table-IV
    // family (malware and benign) must not be, and of the 20 Table-III JIT
    // workloads exactly the two copy-and-patch applets are expected false
    // positives. Unlike the aggregate confusion matrix above, a mismatch
    // here names the exact sample that flipped.
    use faros_repro::corpus::jit::FLAGGED_APPLETS;
    use faros_repro::corpus::Sample;

    let mut table: Vec<(Sample, bool)> = Vec::new();
    for sample in attacks::all_injecting_samples() {
        table.push((sample, true));
    }
    for family in families::malware_rows().iter().chain(families::benign_rows().iter()) {
        table.push((families::build_family_sample(family, 0, 1), false));
    }
    for sample in jit::jit_workloads() {
        let expected = FLAGGED_APPLETS.iter().any(|a| sample.name() == format!("jit_{a}"));
        table.push((sample, expected));
    }
    assert_eq!(table.len(), 9 + 17 + 4 + 20);

    let mut mismatches: Vec<String> = Vec::new();
    for (sample, expected) in &table {
        // Ground-truth sanity: outside the known JIT FP class, the
        // expectation must agree with the sample's own category label.
        if sample.category != faros_repro::corpus::Category::Jit {
            assert_eq!(
                *expected,
                sample.category.should_flag(),
                "truth table disagrees with category label for {}",
                sample.name()
            );
        }
        let mut faros = Faros::new(Policy::paper());
        record_and_replay(&sample.scenario, BUDGET, &mut faros).unwrap();
        let flagged = faros.report().attack_flagged();
        if flagged != *expected {
            mismatches.push(format!(
                "{}: expected flagged={expected}, got {flagged}",
                sample.name()
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "detection truth table mismatches:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn malfind_scan_works_through_facade() {
    let sample = attacks::reflective_dll_inject();
    let (recording, _) = record(&sample.scenario, BUDGET).unwrap();
    let mut sink = faros_repro::kernel::NullObserver;
    let outcome = replay(&sample.scenario, &recording, BUDGET, &mut sink).unwrap();
    let report = baselines::scan(&outcome.machine);
    assert!(report.detects_injection());
}
