//! Golden-file serialization tests: the JSON wire formats for analyst
//! reports and recordings are load-bearing interfaces (analysts archive
//! recordings; tooling diffs reports), so they must be *byte-stable*
//! across refactors, not merely round-trippable. Beyond the single-sample
//! fixtures, `registry_report_digests.txt` pins a digest of every registry
//! sample's job report, so a refactor that must not change report bytes is
//! checked on the whole corpus.
//!
//! The fixtures live in `tests/fixtures/`. If an intentional format change
//! invalidates them, regenerate with:
//!
//! ```sh
//! FAROS_REGEN_GOLDEN=1 cargo test --test golden_roundtrip
//! ```
//!
//! and review the resulting diff like any other API change.

use faros_repro::corpus::attacks;
use faros_repro::faros::{Faros, FarosReport, Policy};
use faros_repro::obs::trace::{FlightRecorder, TraceCategory, TraceEvent};
use faros_repro::replay::{record, record_and_replay, Recording};
use faros_repro::support::json::JsonValue;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const BUDGET: u64 = 20_000_000;

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("fixtures").join(name)
}

/// Compares `actual` against the checked-in fixture, or rewrites the
/// fixture when `FAROS_REGEN_GOLDEN` is set.
fn check_golden(name: &str, actual: &str) {
    let path = fixture_path(name);
    if std::env::var("FAROS_REGEN_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); regenerate with FAROS_REGEN_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "serialized {name} drifted from the golden fixture; if the format \
         change is intentional, regenerate with FAROS_REGEN_GOLDEN=1 and \
         review the diff"
    );
}

#[test]
fn report_json_is_byte_stable_and_lossless() {
    let sample = attacks::process_hollowing();
    let mut faros = Faros::new(Policy::paper());
    record_and_replay(&sample.scenario, BUDGET, &mut faros).unwrap();
    let report = faros.report();

    let json = report.to_json().unwrap();
    check_golden("report_process_hollowing.json", &json);

    // Lossless: the parsed fixture equals the freshly computed report.
    let restored = FarosReport::from_json(&json).unwrap();
    assert_eq!(report, restored);
}

#[test]
fn report_fixture_parses_and_is_flagged() {
    // The checked-in fixture itself (not just this build's serialization)
    // must stay parseable — it stands in for reports archived by analysts
    // under earlier builds.
    if std::env::var("FAROS_REGEN_GOLDEN").is_ok() {
        return; // fixtures are being rewritten by the sibling tests
    }
    let text = std::fs::read_to_string(fixture_path("report_process_hollowing.json"))
        .expect("fixture must exist; regenerate with FAROS_REGEN_GOLDEN=1");
    let report = FarosReport::from_json(&text).unwrap();
    assert!(report.attack_flagged());
    assert!(!report.detections.is_empty());
}

#[test]
fn capability_check_json_is_byte_stable_and_lossless() {
    use faros_repro::analyze::CapabilityCrossCheck;
    use faros_repro::support::json::{FromJson, ToJson};

    // The pipeline-produced capability cross-check is the wire format
    // the truth-table gate and the service verdicts ride on; pin the
    // laundering sample's check (one impossible capability on the
    // victim, one exercised recipe on the accomplice, witness chains on
    // every static report) byte for byte.
    let sample = faros_repro::corpus::laundering::capability_laundering();
    let (recording, _) = record(&sample.scenario, BUDGET).unwrap();
    let job =
        faros::analyze_recording(&sample.scenario, &recording, &faros::AnalysisConfig::default())
            .unwrap();
    let caps = &job.report.capabilities;
    assert!(caps.injection_suspected());
    assert!(caps.reports.iter().all(|r| r.caps.len() == r.witnesses.len()));

    let json = caps.to_json_value().to_pretty();
    check_golden("capability_check_laundering.json", &json);

    let restored = CapabilityCrossCheck::from_json_value(&JsonValue::parse(&json).unwrap()).unwrap();
    assert_eq!(caps, &restored);
}

#[test]
fn comparison_vi_b_is_byte_stable() {
    use faros_repro::baselines::{comparison, malfind};
    use faros_repro::kernel::event::NullObserver;

    // The §VI-B table, then the malfind render of each sample's final
    // replayed machine: what the snapshot scanner saw, hit by hit, and
    // that the transient sample leaves it nothing.
    let samples = attacks::all_injecting_samples();
    let rows: Vec<_> = samples.iter().map(|s| comparison::compare(s, BUDGET).unwrap()).collect();
    let mut actual = comparison::render_table(&rows);
    for sample in &samples {
        let (_, outcome) = record_and_replay(&sample.scenario, BUDGET, &mut NullObserver).unwrap();
        actual += &format!("\n== {} ==\n", sample.name());
        actual += &malfind::scan(&outcome.machine).render();
    }
    check_golden("comparison_vi_b.txt", &actual);
}

#[test]
fn recording_json_is_byte_stable_and_lossless() {
    let sample = attacks::reverse_tcp_dns();
    let (recording, _) = record(&sample.scenario, BUDGET).unwrap();

    let json = recording.to_json().unwrap();
    check_golden("recording_reverse_tcp_dns.json", &json);

    let restored = Recording::from_json(&json).unwrap();
    assert_eq!(recording, restored);
}

/// A small hand-built trace covering every event shape the exporter emits:
/// a process-name meta record, a syscall span, instants with args, and a
/// parked-syscall completion.
fn smoke_trace() -> FlightRecorder {
    let mut rec = FlightRecorder::new(16);
    rec.record(TraceEvent::process_name(4, "loader.exe"));
    rec.record(
        TraceEvent::instant(0, 4, 1, TraceCategory::Module, "module_loaded")
            .arg("module", "ntdll.fdl")
            .arg("base", "0x80000000"),
    );
    rec.record(TraceEvent::begin(10, 4, 1, TraceCategory::Syscall, "NtCreateFile"));
    rec.record(
        TraceEvent::end(25, 4, 1, TraceCategory::Syscall, "NtCreateFile")
            .arg("status", "Success"),
    );
    rec.record(
        TraceEvent::instant(30, 4, 1, TraceCategory::Sched, "context_switch")
            .arg("to", "8:2"),
    );
    rec.record(
        TraceEvent::instant(42, 8, 2, TraceCategory::Taint, "alert")
            .arg("kind", "tainted-control-transfer"),
    );
    rec
}

#[test]
fn chrome_trace_json_is_byte_stable_and_round_trips() {
    let rec = smoke_trace();
    let json = rec.to_chrome_json();
    check_golden("trace_smoke.json", &json);

    // Round-trip: the export re-parses, and parse -> pretty-print is a
    // fixed point, so the bytes are canonical.
    let v = JsonValue::parse(&json).unwrap();
    let events = v.get("traceEvents").and_then(JsonValue::as_array).unwrap();
    assert_eq!(events.len(), rec.len());
    assert_eq!(v.to_pretty(), json.trim_end());
}

#[test]
fn trace_fixture_parses_with_balanced_spans() {
    // The checked-in fixture itself must stay loadable by the in-tree
    // parser — it stands in for traces archived from earlier builds.
    if std::env::var("FAROS_REGEN_GOLDEN").is_ok() {
        return; // fixtures are being rewritten by the sibling tests
    }
    let text = std::fs::read_to_string(fixture_path("trace_smoke.json"))
        .expect("fixture must exist; regenerate with FAROS_REGEN_GOLDEN=1");
    let v = JsonValue::parse(&text).unwrap();
    let events = v.get("traceEvents").and_then(JsonValue::as_array).unwrap();
    assert_eq!(events.len(), 6);
    let count = |ph: &str| {
        events
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some(ph))
            .count()
    };
    assert_eq!(count("B"), count("E"), "unbalanced spans in fixture");
    assert_eq!(count("M"), 1);
    assert!(count("i") >= 3);
}

#[test]
fn recording_fixture_replays_to_the_same_verdict() {
    // An archived recording must stay replayable: load the checked-in
    // fixture and confirm the attack is still detected from it.
    if std::env::var("FAROS_REGEN_GOLDEN").is_ok() {
        return; // fixtures are being rewritten by the sibling tests
    }
    let text = std::fs::read_to_string(fixture_path("recording_reverse_tcp_dns.json"))
        .expect("fixture must exist; regenerate with FAROS_REGEN_GOLDEN=1");
    let recording = Recording::from_json(&text).unwrap();
    let sample = attacks::reverse_tcp_dns();
    let mut faros = Faros::new(Policy::paper());
    faros_repro::replay::replay(&sample.scenario, &recording, BUDGET, &mut faros).unwrap();
    assert!(faros.report().attack_flagged());
}

#[test]
fn profile_sections_are_byte_stable() {
    use faros_repro::support::json::ToJson;

    // The replay profiler's output is part of the report under
    // `AnalysisConfig::profile`: pin the section for an injection (whose
    // payload bills `[anon]` rows) and for the function-pointer farm
    // (whose indirectly reached functions bill under their own entries).
    let cfg = faros::AnalysisConfig { profile: true, ..faros::AnalysisConfig::default() };
    for name in ["process_hollowing", "fn_pointer_farm"] {
        let sample = faros_repro::corpus::find_sample(name).expect("registry sample");
        let (recording, _) = record(&sample.scenario, BUDGET).unwrap();
        let job = faros::analyze_recording(&sample.scenario, &recording, &cfg).unwrap();
        assert!(!job.report.profile.is_empty(), "{name}: profile requested");
        let json = job.report.profile.to_json_value().to_pretty() + "\n";
        check_golden(&format!("profile_{name}.json"), &json);
    }
}

/// 64-bit FNV-1a of `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

#[test]
fn every_registry_report_is_pinned_by_digest() {
    // One line per registry sample: the FNV-1a digests of its job report
    // with the profile off and on. Any change to any section of any
    // sample's report moves a digest, so refactors that must not change
    // report bytes are checked against the whole corpus, not one sample.
    // With `profile` reset to its default the report serializes to the
    // bytes of a job run with profiling off.
    let cfg = faros::AnalysisConfig { profile: true, ..faros::AnalysisConfig::default() };
    let mut actual = String::new();
    for sample in faros_repro::corpus::sample_registry() {
        let (recording, _) = record(&sample.scenario, cfg.budget).unwrap();
        let mut report =
            faros::analyze_recording(&sample.scenario, &recording, &cfg).unwrap().report;
        let on = fnv1a64(report.to_json().unwrap().as_bytes());
        report.profile = Default::default();
        let off = fnv1a64(report.to_json().unwrap().as_bytes());
        actual += &format!("{} {off:016x} {on:016x}\n", sample.name());
    }
    let name = "registry_report_digests.txt";
    if std::env::var("FAROS_REGEN_GOLDEN").is_ok() {
        check_golden(name, &actual);
        return;
    }
    let expected = std::fs::read_to_string(fixture_path(name)).unwrap_or_else(|e| {
        panic!("missing fixture {name} ({e}); regenerate with FAROS_REGEN_GOLDEN=1")
    });
    let want: BTreeSet<&str> = expected.lines().collect();
    let got: BTreeSet<&str> = actual.lines().collect();
    let moved: BTreeSet<&str> = want
        .symmetric_difference(&got)
        .map(|line| line.split(' ').next().unwrap_or(line))
        .collect();
    assert!(
        moved.is_empty(),
        "report digests moved for {} sample(s): {moved:?}; if the report change is \
         intentional, regenerate with FAROS_REGEN_GOLDEN=1 and review the diff",
        moved.len()
    );
    assert_eq!(actual, expected, "{name}: sample order or line format changed");
}
