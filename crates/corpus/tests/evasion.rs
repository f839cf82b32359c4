//! Evasion experiments (§VI-D): the limitations the paper documents, shown
//! end-to-end, plus the extension policies that close them.

use faros::{Faros, Policy};
use faros_corpus::evasion;
use faros_replay::record_and_replay;
use faros_taint::engine::PropagationMode;

const BUDGET: u64 = 20_000_000;

#[test]
fn laundered_attack_evades_the_shipping_policy() {
    // §VI-D: "The output produced by such a loop would be identical to the
    // input but would be untainted." The attack works...
    let sample = evasion::laundered_reflective();
    let mut faros = Faros::new(Policy::paper());
    let (_rec, outcome) =
        record_and_replay(&sample.scenario, BUDGET, &mut faros).unwrap();
    assert_eq!(outcome.exit, faros_kernel::RunExit::AllExited);
    // ... the stage really ran in the victim ...
    assert!(
        outcome
            .machine
            .console()
            .iter()
            .any(|(_, s)| s == "laundered stage"),
        "the laundered payload must execute"
    );
    // ... and FAROS, as the paper admits, does not see it.
    assert!(
        !faros.report().attack_flagged(),
        "direct-flow FAROS must miss the control-dependency-laundered payload"
    );
}

#[test]
fn conservative_mode_recovers_the_laundered_attack() {
    // The overtainting horn of the §IV dilemma: propagate control
    // dependencies and the laundered bytes stay tainted.
    let sample = evasion::laundered_reflective();
    let mut faros = Faros::with_mode(Policy::paper(), PropagationMode::conservative());
    record_and_replay(&sample.scenario, BUDGET, &mut faros).unwrap();
    assert!(
        faros.report().attack_flagged(),
        "control-dependency propagation must catch the laundered payload"
    );
}

#[test]
fn tainted_function_pointer_needs_the_minos_extension() {
    // Leak the stub address host-side the way an infoleak would.
    let machine = faros_kernel::Machine::new(faros_kernel::MachineConfig::default());
    let target = machine.kernel_modules()[0]
        .find_export("OutputDebugStringA")
        .unwrap()
        .va;

    // The export-table invariant stays silent...
    let sample = evasion::tainted_function_pointer(target);
    let mut faros = Faros::new(Policy::paper());
    let (_rec, outcome) =
        record_and_replay(&sample.scenario, BUDGET, &mut faros).unwrap();
    assert!(
        outcome
            .machine
            .console()
            .iter()
            .any(|(_, s)| s == "redirect!"),
        "the redirected call must land"
    );
    assert!(!faros.report().attack_flagged());

    // ... the Minos-style tainted-PC extension flags it.
    let sample = evasion::tainted_function_pointer(target);
    let mut faros = Faros::new(Policy::paper().with_tainted_pc());
    record_and_replay(&sample.scenario, BUDGET, &mut faros).unwrap();
    let report = faros.report();
    assert!(report.attack_flagged());
    let d = &report.detections[0];
    assert_eq!(d.kind, faros::DetectionKind::TaintedControlTransfer);
    assert!(d.code_provenance.contains("NetFlow"));
    assert_eq!(d.read_vaddr, target);
}

#[test]
fn minos_extension_has_no_fp_on_clean_indirect_calls() {
    let machine = faros_kernel::Machine::new(faros_kernel::MachineConfig::default());
    let gpa = machine.kernel_modules()[0]
        .find_export("GetProcAddress")
        .unwrap()
        .va;
    let sample = evasion::clean_indirect_call(gpa);
    let mut faros = Faros::new(Policy::paper().with_tainted_pc());
    let (_rec, outcome) =
        record_and_replay(&sample.scenario, BUDGET, &mut faros).unwrap();
    assert!(outcome.machine.console().iter().any(|(_, s)| s == "clean"));
    assert!(
        !faros.report().attack_flagged(),
        "clean GetProcAddress-resolved calls must not trip the tainted-PC policy"
    );
}

#[test]
fn named_export_tags_identify_the_read_pointer() {
    // The paper's future-work extension: the report names the function
    // whose pointer the injected code read.
    let sample = faros_corpus::attacks::process_hollowing();
    let mut faros = Faros::new(Policy::paper());
    record_and_replay(&sample.scenario, BUDGET, &mut faros).unwrap();
    let report = faros.report();
    assert!(report.attack_flagged());
    let d = &report.detections[0];
    assert!(
        d.target_provenance.contains("ntdll.fdl!WriteFile"),
        "target provenance must name the resolved export: {}",
        d.target_provenance
    );
}

#[test]
fn taint_bomb_growth_is_linear_not_explosive() {
    // §VI-D: an attacker tries to exhaust FAROS' memory by manufacturing
    // long provenance chronologies. The interner must grow at most linearly
    // with the attack rounds (and never flag — nothing is injected as code).
    let mut lists_at = Vec::new();
    for rounds in [4u32, 8, 16] {
        let sample = evasion::taint_bomb(rounds);
        let mut faros = Faros::new(Policy::paper());
        let (_rec, outcome) =
            record_and_replay(&sample.scenario, BUDGET, &mut faros).unwrap();
        assert_eq!(outcome.exit, faros_kernel::RunExit::AllExited);
        assert!(!faros.report().attack_flagged());
        lists_at.push((rounds, faros.engine().interner().len()));
    }
    let (r1, l1) = lists_at[0];
    let (r3, l3) = lists_at[2];
    // Linear bound with slack: quadrupling rounds must not grow lists by
    // more than ~6x (pure doubling per round would explode far past this).
    let growth = l3 as f64 / l1 as f64;
    let round_growth = r3 as f64 / r1 as f64;
    assert!(
        growth <= round_growth * 1.5,
        "interner growth {growth:.1}x for {round_growth:.1}x rounds: {lists_at:?}"
    );
}

#[test]
fn taint_bomb_stored_size_is_linear() {
    // §VI-D again, counting what the interner stores rather than how many
    // lists it hands out: each round appends two tags to an ever-longer
    // chronology, so a store that copied whole lists would grow with the
    // square of the rounds.
    let heap_at = |rounds: u32| {
        let sample = evasion::taint_bomb(rounds);
        let mut faros = Faros::new(Policy::paper());
        let (_rec, outcome) =
            record_and_replay(&sample.scenario, BUDGET, &mut faros).unwrap();
        assert_eq!(outcome.exit, faros_kernel::RunExit::AllExited);
        assert!(!faros.report().attack_flagged());
        faros.engine().interner().heap_bytes()
    };
    let small = heap_at(1200);
    let large = heap_at(4800);
    assert!(
        large as f64 <= small as f64 * 4.5,
        "interner heap {large} B at 4800 rounds vs {small} B at 1200"
    );
    assert!(large <= 1 << 20, "interner heap {large} B at 4800 rounds exceeds 1 MiB");
}
