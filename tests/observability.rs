//! Acceptance tests for the observability layer: replaying a recording with
//! the flight recorder attached must produce a deterministic,
//! Perfetto-shaped Chrome trace and a metrics snapshot with the
//! whole-system counters the paper's evaluation leans on.

use faros_repro::corpus::attacks;
use faros_repro::faros::{Faros, FarosReport, Policy};
use faros_repro::obs::metrics::MetricsSnapshot;
use faros_repro::obs::trace::RecorderHandle;
use faros_repro::replay::{record, replay, PluginManager, Recording, TraceRecorder};
use faros_repro::support::json::JsonValue;
use faros_repro::taint::engine::PropagationMode;

const BUDGET: u64 = 20_000_000;

/// Replays `recording` under a full observability stack and returns the
/// Chrome trace export plus the merged metrics snapshot.
fn traced_replay(
    sample: &faros_repro::corpus::scenario::Sample,
    recording: &Recording,
) -> (String, MetricsSnapshot) {
    let ring = RecorderHandle::default();
    let mut faros = Faros::with_mode(Policy::paper(), PropagationMode::with_address_deps());
    faros.attach_recorder(ring.clone());
    let mut plugins = PluginManager::new();
    plugins.register(Box::new(TraceRecorder::new(ring.clone())));
    plugins.register(Box::new(faros));
    replay(&sample.scenario, recording, BUDGET, &mut plugins).unwrap();

    let tracer = plugins.take_as::<TraceRecorder>(TraceRecorder::NAME).unwrap();
    let mut faros = plugins.take_as::<Faros>("faros").unwrap();
    let mut metrics = faros.metrics_snapshot();
    metrics.merge(&tracer.metrics_snapshot());
    metrics.merge(&plugins.metrics_snapshot());
    (ring.export_chrome(), metrics)
}

/// Events of the parsed trace as (name, cat, ph, pid, tid) tuples.
fn events(trace: &JsonValue) -> Vec<(String, String, String, i128, i128)> {
    trace
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|e| {
            let s = |k: &str| e.get(k).and_then(JsonValue::as_str).unwrap().to_string();
            let n = |k: &str| e.get(k).and_then(JsonValue::as_int).unwrap();
            (s("name"), s("cat"), s("ph"), n("pid"), n("tid"))
        })
        .collect()
}

#[test]
fn traced_replay_emits_the_acceptance_events_and_counters() {
    let sample = attacks::process_hollowing();
    let (recording, _) = record(&sample.scenario, BUDGET).unwrap();
    let (trace_json, metrics) = traced_replay(&sample, &recording);

    let trace = JsonValue::parse(&trace_json).expect("chrome export parses");
    let evs = events(&trace);
    assert!(!evs.is_empty());

    // Syscall spans: balanced B/E pairs in the syscall category.
    let begins = evs.iter().filter(|e| e.1 == "syscall" && e.2 == "B").count();
    let ends = evs.iter().filter(|e| e.1 == "syscall" && e.2 == "E").count();
    assert!(begins > 0, "no syscall spans in trace");
    assert_eq!(begins, ends, "unbalanced syscall spans");

    // Context-switch instants.
    assert!(
        evs.iter().any(|e| e.0 == "context_switch" && e.2 == "i"),
        "no context-switch instants"
    );

    // Taint-alert instants carry a real (pid, tid) attribution.
    let alert = evs
        .iter()
        .find(|e| e.1 == "taint" && e.0 == "alert" && e.2 == "i")
        .expect("no taint-alert instant");
    assert!(alert.3 > 0, "taint alert not attributed to a pid");

    // Whole-system counters the evaluation leans on are all live.
    for name in ["cpu.instructions", "syscalls.total", "taint.unions"] {
        let v = metrics.counter(name).unwrap_or(0);
        assert!(v > 0, "counter {name} is zero");
    }
}

#[test]
fn two_replays_export_byte_identical_traces_and_metrics() {
    let sample = attacks::process_hollowing();
    let (recording, _) = record(&sample.scenario, BUDGET).unwrap();

    let (trace_a, metrics_a) = traced_replay(&sample, &recording);
    let (trace_b, metrics_b) = traced_replay(&sample, &recording);

    assert_eq!(trace_a, trace_b, "trace exports diverged across replays");
    assert_eq!(metrics_a, metrics_b, "metrics snapshots diverged across replays");
}

#[test]
fn report_metrics_section_round_trips_through_json() {
    let sample = attacks::reflective_dll_inject();
    let (recording, _) = record(&sample.scenario, BUDGET).unwrap();

    let mut faros = Faros::new(Policy::paper());
    replay(&sample.scenario, &recording, BUDGET, &mut faros).unwrap();
    let report = FarosReport { metrics: faros.metrics_snapshot(), ..faros.report() };

    assert!(report.metrics.counter("faros.instructions").unwrap_or(0) > 0);
    let json = report.to_json().unwrap();
    let restored = FarosReport::from_json(&json).unwrap();
    assert_eq!(restored, report);
}
