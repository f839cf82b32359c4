//! The static-vs-dynamic *taint* cross-check truth table.
//!
//! The dataflow engine's source→sink flow map gives every dynamic taint
//! alert a second, independent reading: an alert at an instruction the
//! static model says tainted data can reach is *statically explainable*;
//! an alert anywhere else (injected code outside every module, or module
//! code no modeled flow touches) is *statically impossible-per-model* —
//! an injection signal. The truth table: every injecting sample raises at
//! least one impossible alert, every non-injecting family variant none.

use faros_repro::analyze::{self, DynamicAlert, TaintCrossCheck};
use faros_repro::corpus::{attacks, families, Sample};
use faros_repro::faros::{Faros, Policy};
use faros_repro::replay::{record, replay, BlockCoverage, Scenario as _};

const BUDGET: u64 = 20_000_000;

fn cross_check(sample: &Sample) -> TaintCrossCheck {
    let (recording, _) = record(&sample.scenario, BUDGET).unwrap();
    let mut faros = Faros::new(Policy::paper());
    replay(&sample.scenario, &recording, BUDGET, &mut faros).unwrap();
    let mut blocks = BlockCoverage::new();
    replay(&sample.scenario, &recording, BUDGET, &mut blocks).unwrap();
    let models = analyze::model_map(
        sample.scenario.programs().iter().map(|(p, i)| (p.as_str(), i.clone())),
    );
    let alerts: Vec<DynamicAlert> = faros
        .report()
        .detections
        .iter()
        .map(|d| DynamicAlert { process: d.process.clone(), va: d.insn_vaddr })
        .collect();
    analyze::taint_cross_check_with_stats(&alerts, &blocks.into_processes(), &models).0
}

#[test]
fn every_injecting_sample_raises_a_statically_impossible_alert() {
    for sample in attacks::all_injecting_samples() {
        let cc = cross_check(&sample);
        assert!(
            cc.injection_suspected(),
            "{}: the taint alerts fire in injected code, which the static \
             flow model cannot produce — expected >=1 impossible alert, got \
             {} explainable / {} impossible",
            sample.scenario.name(),
            cc.explainable_total(),
            cc.impossible_total(),
        );
    }
}

#[test]
fn family_variants_raise_no_statically_impossible_alerts() {
    let rows: Vec<_> =
        families::malware_rows().into_iter().chain(families::benign_rows()).collect();
    assert_eq!(rows.len(), 21, "the family corpus is part of the truth table");
    for family in rows {
        let sample = families::build_family_sample(&family, 0, 1);
        let cc = cross_check(&sample);
        assert_eq!(
            cc.impossible_total(),
            0,
            "{}: non-injecting family variant must have zero statically \
             impossible alerts",
            family.name,
        );
    }
}

#[test]
fn cross_check_attaches_to_the_faros_report() {
    let sample = attacks::reflective_dll_inject();
    let (recording, _) = record(&sample.scenario, BUDGET).unwrap();
    let mut faros = Faros::new(Policy::paper());
    replay(&sample.scenario, &recording, BUDGET, &mut faros).unwrap();
    let mut report = faros.report();

    let mut blocks = BlockCoverage::new();
    replay(&sample.scenario, &recording, BUDGET, &mut blocks).unwrap();
    let models = analyze::model_map(
        sample.scenario.programs().iter().map(|(p, i)| (p.as_str(), i.clone())),
    );
    let alerts: Vec<DynamicAlert> = report
        .detections
        .iter()
        .map(|d| DynamicAlert { process: d.process.clone(), va: d.insn_vaddr })
        .collect();
    let (taint, stats) =
        analyze::taint_cross_check_with_stats(&alerts, &blocks.into_processes(), &models);
    report.attach_taint(taint);

    // The analyze.* metrics ride the same report.
    let mut reg = faros_repro::obs::metrics::MetricsRegistry::new();
    stats.record_into(&mut reg);
    report.attach_metrics(reg.snapshot());

    assert!(report.attack_flagged());
    assert!(report.taint_suspicious());
    assert!(report.metrics.counter("analyze.functions").unwrap_or(0) > 0);
    assert!(report.to_table().contains("Impossible-per-model"));

    // And the section round-trips through the JSON report.
    let json = report.to_json().unwrap();
    let restored = faros_repro::faros::FarosReport::from_json(&json).unwrap();
    assert_eq!(report, restored);
}
