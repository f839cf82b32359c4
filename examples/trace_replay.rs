//! Whole-system tracing walkthrough: replay the process-hollowing attack
//! with the flight recorder and FAROS sharing one trace buffer, then export
//! a Chrome `trace_event` JSON you can drop into Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! ```text
//! cargo run --example trace_replay
//! ```
//!
//! Produces under `target/`:
//!
//! * `trace_replay.trace.json` — syscall spans, context-switch / taint-alert
//!   instants, per-(pid,tid), timestamped by the deterministic virtual
//!   clock (instructions retired);
//! * `trace_replay.metrics.json` — the merged metrics snapshot (FAROS
//!   counters + recorder counters + plugin dispatch counts).

use faros_repro::corpus::attacks;
use faros_repro::faros::{Faros, FarosReport, Policy};
use faros_repro::taint::engine::PropagationMode;
use faros_repro::obs::trace::RecorderHandle;
use faros_repro::replay::{record, replay, PluginManager, TraceRecorder};
use faros_repro::support::json::{JsonValue, ToJson};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sample = attacks::process_hollowing();
    let (recording, _) = record(&sample.scenario, 20_000_000)?;

    // One shared flight-recorder ring: the TraceRecorder plugin fills it
    // with syscall/sched/OS events, FAROS adds taint-alert instants.
    let ring = RecorderHandle::default();
    let tracer = TraceRecorder::new(ring.clone());
    // Address-dependency propagation on, so table-indexed copies union
    // provenance (richer traces than the direct-flow default).
    let mut faros = Faros::with_mode(Policy::paper(), PropagationMode::with_address_deps());
    faros.attach_recorder(ring.clone());

    let mut plugins = PluginManager::new();
    plugins.enable_dispatch_profiling();
    plugins.register(Box::new(tracer));
    plugins.register(Box::new(faros));

    let outcome = replay(&sample.scenario, &recording, 20_000_000, &mut plugins)?;

    // Read results back out by downcasting the plugins.
    let tracer = plugins
        .take_as::<TraceRecorder>(TraceRecorder::NAME)
        .expect("trace recorder registered");
    let mut faros = plugins.take_as::<Faros>("faros").expect("faros registered");

    let mut metrics = faros.metrics_snapshot();
    metrics.merge(&tracer.metrics_snapshot());
    metrics.merge(&plugins.metrics_snapshot());
    let report = FarosReport { metrics: metrics.clone(), ..faros.report() };

    let trace_json = ring.export_chrome();
    let out_dir = std::path::Path::new("target");
    std::fs::create_dir_all(out_dir)?;
    let trace_path = out_dir.join("trace_replay.trace.json");
    let metrics_path = out_dir.join("trace_replay.metrics.json");
    std::fs::write(&trace_path, &trace_json)?;
    std::fs::write(&metrics_path, metrics.to_json_value().to_pretty())?;

    // Self-validate: both emitted files must parse as JSON.
    let parsed = JsonValue::parse(&trace_json)?;
    let n_events = parsed
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .map_or(0, <[JsonValue]>::len);
    JsonValue::parse(&std::fs::read_to_string(&metrics_path)?)?;

    println!("replayed {} instructions", outcome.instructions);
    println!(
        "attack flagged: {} ({} detection(s))",
        report.attack_flagged(),
        report.detections.len()
    );
    println!(
        "trace: {} events ({} dropped) -> {}",
        n_events,
        ring.dropped(),
        trace_path.display()
    );
    println!("metrics -> {}", metrics_path.display());
    for name in [
        "cpu.instructions",
        "syscalls.total",
        "sched.context_switches",
        "taint.unions",
    ] {
        println!("  {name} = {}", metrics.counter(name).unwrap_or(0));
    }

    println!("\nphase wall-clock:\n{}", outcome.phases.to_table());
    println!("plugin dispatch costs:");
    for c in plugins.dispatch_costs() {
        println!(
            "  {:<16} {:>10} dispatches  {:>9.3} ms",
            c.name,
            c.dispatches,
            c.wall_ns as f64 / 1e6
        );
    }
    println!("\nopen {} in https://ui.perfetto.dev", trace_path.display());
    Ok(())
}
