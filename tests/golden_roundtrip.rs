//! Golden-file serialization tests: the JSON wire formats for analyst
//! reports and recordings are load-bearing interfaces (analysts archive
//! recordings; tooling diffs reports), so they must be *byte-stable*
//! across refactors, not merely round-trippable.
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
