//! Replay-fidelity tests: divergence detection, recording tampering, and
//! the stock trace plugin over the real attack corpus.

use faros_repro::corpus::attacks;
use faros_repro::kernel::net::NetEvent;
use faros_repro::obs::trace::{RecorderHandle, TraceEvent};
use faros_repro::replay::{record, replay, PluginManager, ReplayError, TraceRecorder};

const BUDGET: u64 = 20_000_000;

#[test]
fn tampered_recording_is_detected_as_divergence() {
    let sample = attacks::reflective_dll_inject();
    let (mut recording, _) = record(&sample.scenario, BUDGET).unwrap();

    // An analyst (or attacker) edits the recorded flow to point elsewhere:
    // the replayed guest still connects to the original address, so the
    // fabric must flag the mismatch instead of silently proceeding.
    for event in &mut recording.net_log.events {
        if let NetEvent::Connect { flow, .. } = event {
            flow.src_port = 9999;
        }
    }
    let mut sink = faros_repro::kernel::NullObserver;
    let err = replay(&sample.scenario, &recording, BUDGET, &mut sink)
        .expect_err("tampered recording must not replay cleanly");
    assert!(matches!(err, ReplayError::Diverged(_)), "{err}");
}

#[test]
fn truncated_recording_diverges_or_changes_behavior() {
    let sample = attacks::reverse_tcp_dns();
    let (mut recording, live) = record(&sample.scenario, BUDGET).unwrap();
    // Drop the payload delivery: the loader will block forever waiting for
    // bytes that never arrive (the run must not falsely reproduce).
    recording
        .net_log
        .events
        .retain(|e| !matches!(e, NetEvent::Rx { .. }));
    let mut sink = faros_repro::kernel::NullObserver;
    match replay(&sample.scenario, &recording, BUDGET, &mut sink) {
        Ok(outcome) => {
            assert_ne!(
                outcome.machine.console().len(),
                live.machine.console().len(),
                "a truncated recording cannot reproduce the original run"
            );
        }
        Err(ReplayError::Diverged(_)) => {} // also acceptable
        Err(other) => panic!("unexpected error: {other}"),
    }
}

#[test]
fn trace_plugin_captures_the_attack_timeline() {
    let sample = attacks::reflective_dll_inject();
    let (recording, _) = record(&sample.scenario, BUDGET).unwrap();
    let ring = RecorderHandle::default();
    let mut manager = PluginManager::new();
    manager.register(Box::new(TraceRecorder::new(ring.clone())));
    replay(&sample.scenario, &recording, BUDGET, &mut manager).unwrap();
    assert!(manager.take_as::<TraceRecorder>(TraceRecorder::NAME).is_some());
    assert_eq!(ring.dropped(), 0);
    let events: Vec<TraceEvent> = ring.with(|rec| rec.events().cloned().collect());

    // The timeline tells the §II attack story in order: loader created →
    // payload downloaded → victim created → cross-process copy → victim exit.
    let arg = |e: &TraceEvent, key: &str| {
        e.args.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone()).unwrap_or_default()
    };
    let idx = |pred: &dyn Fn(&TraceEvent) -> bool| {
        events
            .iter()
            .position(pred)
            .unwrap_or_else(|| panic!("event missing from timeline"))
    };
    let loader_created =
        idx(&|e| e.name == "process_created" && arg(e, "name") == "inject_client.exe");
    let rx = idx(&|e| e.name == "net_rx");
    let victim_created = idx(&|e| e.name == "process_created" && arg(e, "name") == "notepad.exe");
    let injection =
        idx(&|e| e.name == "guest_copy" && arg(e, "src_pid") != e.pid.to_string());
    let victim_exit = idx(&|e| e.name == "process_exited" && arg(e, "name") == "notepad.exe");
    assert!(loader_created < rx);
    assert!(rx < victim_created);
    assert!(victim_created < injection);
    assert!(injection < victim_exit);

    // The loader's self-deletion shows in the syscall trace.
    assert!(events.iter().any(|e| e.name == "NtDeleteFile"));
}
