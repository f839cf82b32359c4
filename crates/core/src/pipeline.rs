//! Job-scoped report assembly — the one detonation pipeline shared by the
//! CLI (`faros-cli analyze`/`replay`) and the detonation service
//! (`faros-service` workers).
//!
//! A *job* is one recording analyzed end to end: one replay under FAROS
//! with the block-coverage, CFI-transfer and capability observers stacked
//! beside it (and the flight recorder when tracing), then one static
//! [`faros_analyze::ImageModel`] per program image, shared by the coverage
//! diff, the taint, CFI and capability cross-checks and profile
//! symbolization, whose results and merged metrics attach to the
//! [`FarosReport`]. Each replay signal has exactly one observer: the
//! executed blocks [`BlockCoverage`] records, with their retired
//! instructions, feed both the coverage diff and the profile.
//! Keeping the assembly in one place is what makes the service's parallel
//! reports *byte-identical* to sequential CLI runs: both sides call
//! [`analyze_recording`], so there is no second pipeline to drift.
//!
//! Trace capture is deliberately kept out of the report: the per-job
//! flight-recorder ring and its counters live in [`TraceCapture`], so a
//! job analyzed with tracing on produces the same report bytes as one
//! analyzed with tracing off.

use crate::faros::Faros;
use crate::policy::Policy;
use crate::report::FarosReport;
use faros_analyze::DynamicAlert;
use faros_obs::metrics::{MetricsRegistry, MetricsSnapshot};
use faros_obs::prof::{ProcessSamples, ProfileReport};
use faros_obs::profile::PhaseProfile;
use faros_obs::trace::RecorderHandle;
use faros_kernel::machine::ExecMode;
use faros_replay::{
    replay_with_exec, BlockCoverage, CapabilityMonitor, CfiMonitor, PluginCost, PluginManager,
    Recording, ReplayError, Scenario, TraceRecorder,
};
use faros_taint::engine::PropagationMode;
use std::time::Instant;

/// Configuration of one analysis job.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Detection policy (trigger configuration).
    pub policy: Policy,
    /// Taint propagation mode.
    pub mode: PropagationMode,
    /// Instruction budget per replay.
    pub budget: u64,
    /// Capture a per-job flight-recorder trace (spans, instants, taint
    /// alerts). Never changes the report bytes — see [`TraceCapture`].
    pub capture_trace: bool,
    /// Ring capacity of the per-job flight recorder (events kept).
    pub trace_capacity: usize,
    /// Attach the deterministic replay profile: the retired instructions
    /// (virtual clock) [`BlockCoverage`] charged to each executed block,
    /// symbolized via the static function tables, as the report's
    /// `profile` section. Also turns on per-plugin wall-clock dispatch
    /// profiling for [`JobCost`]. Off by default — with it off, report
    /// bytes are identical to pre-profiler builds. The replay itself is
    /// the same either way.
    pub profile: bool,
    /// How the replay executes guest code. Defaults to
    /// [`ExecMode::Cached`]; the differential gate sets
    /// [`ExecMode::Interpret`] and requires byte-identical reports.
    pub exec: ExecMode,
}

impl Default for AnalysisConfig {
    fn default() -> AnalysisConfig {
        AnalysisConfig {
            policy: Policy::paper(),
            mode: PropagationMode::direct_only(),
            budget: faros_replay::DEFAULT_BUDGET,
            capture_trace: false,
            trace_capacity: faros_obs::trace::FlightRecorder::DEFAULT_CAPACITY,
            profile: false,
            exec: ExecMode::Cached,
        }
    }
}

/// The wall-clock cost breakdown of one job — where the host's real time
/// went, kept *outside* the report (wall-clock is nondeterministic, so it
/// never enters report bytes, merged service metrics, or golden fixtures).
#[derive(Debug, Clone, Default)]
pub struct JobCost {
    /// Per-phase wall-clock totals: `replay` (the one replay pass) and
    /// `analyze` (static models, cross-checks and report assembly); the service
    /// adds `queue_wait` and `report` around them.
    pub phases: PhaseProfile,
    /// Per-plugin dispatch counts of the replay pass; `wall_ns` is
    /// populated when [`AnalysisConfig::profile`] is on.
    pub plugins: Vec<PluginCost>,
}

impl JobCost {
    /// Renders the cost breakdown as a metrics snapshot: one-sample
    /// `phase.<name>_ns` histograms (so merging across jobs yields
    /// per-phase latency distributions with approximate p50/p95) plus
    /// `plugin.<name>.dispatches` / `plugin.<name>.wall_ns` counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut reg = MetricsRegistry::new();
        for (name, ns) in self.phases.entries() {
            let h = reg.histogram(&format!("phase.{name}_ns"));
            reg.observe(h, *ns);
        }
        for p in &self.plugins {
            let d = reg.counter(&format!("plugin.{}.dispatches", p.name));
            reg.add(d, p.dispatches);
            let w = reg.counter(&format!("plugin.{}.wall_ns", p.name));
            reg.add(w, p.wall_ns);
        }
        reg.snapshot()
    }
}

/// The per-job flight-recorder capture: the post-mortem story of one job,
/// kept *outside* the report so tracing never perturbs report bytes.
#[derive(Debug, Clone)]
pub struct TraceCapture {
    /// Events held in the ring at the end of the replay.
    pub events: u64,
    /// Events the bounded ring evicted.
    pub dropped: u64,
    /// The ring rendered as Chrome `trace_event` JSON (Perfetto-loadable).
    pub chrome_json: String,
    /// The trace recorder's own counters (syscall counts, event totals) —
    /// deterministic, merged into service-level stats, never into the
    /// job report.
    pub recorder_metrics: MetricsSnapshot,
}

/// Everything one analysis job produces.
#[derive(Debug)]
pub struct AnalyzedJob {
    /// The assembled report: detections, coverage diff, taint cross-check,
    /// merged metrics.
    pub report: FarosReport,
    /// The FAROS plugin in its post-run state (taint map and engine
    /// inspection — the CLI's human-facing summary lines read from here).
    pub faros: Faros,
    /// Instructions retired by the replay.
    pub instructions: u64,
    /// The per-job flight-recorder capture, when requested.
    pub trace: Option<TraceCapture>,
    /// Wall-clock phase timings and per-plugin dispatch costs — the job's
    /// own cost breakdown, never part of the report.
    pub cost: JobCost,
}

/// Analyzes one recording end to end and assembles the job report.
///
/// Pipeline: one replay with FAROS, [`BlockCoverage`], [`CfiMonitor`] and
/// [`CapabilityMonitor`] (plus the trace recorder when capture is on) in
/// one [`PluginManager`]; one static model per program image; then the
/// coverage diff and the taint, CFI and capability cross-checks against
/// those models, attached with the merged FAROS + cross-check metrics, and
/// the profile symbolized from the same block counts when
/// [`AnalysisConfig::profile`] is on.
///
/// # Errors
///
/// Propagates [`ReplayError`] from the replay.
pub fn analyze_recording<S: Scenario + ?Sized>(
    scenario: &S,
    recording: &Recording,
    cfg: &AnalysisConfig,
) -> Result<AnalyzedJob, ReplayError> {
    let mut faros = Faros::with_mode(cfg.policy.clone(), cfg.mode);
    let ring = if cfg.capture_trace {
        let ring = RecorderHandle::new(cfg.trace_capacity);
        faros.attach_recorder(ring.clone());
        Some(ring)
    } else {
        None
    };

    let mut cost = JobCost::default();

    // One replay: FAROS plus the observers the static-vs-dynamic
    // cross-checks and the profile read (block coverage with retired
    // instructions, CFI transfers, capabilities), plus the trace recorder
    // when capture is on. The manager wrapping is unconditional so the
    // dispatch path is identical with and without tracing.
    let mut plugins = PluginManager::new();
    if cfg.profile {
        plugins.enable_dispatch_profiling();
    }
    if let Some(ring) = &ring {
        plugins.register(Box::new(TraceRecorder::new(ring.clone())));
    }
    plugins.register(Box::new(faros));
    plugins.register(Box::new(BlockCoverage::new()));
    plugins.register(Box::new(CfiMonitor::new()));
    plugins.register(Box::new(CapabilityMonitor::new()));
    let replay_start = Instant::now();
    let outcome = replay_with_exec(scenario, recording, cfg.budget, cfg.exec, &mut plugins)?;
    cost.phases.add_ns("replay", replay_start.elapsed().as_nanos() as u64);
    let mut faros = *plugins
        .take_as::<Faros>("faros")
        .expect("the faros plugin was registered above");
    let trace = ring.map(|ring| {
        let tracer = plugins
            .take_as::<TraceRecorder>("trace-recorder")
            .expect("the trace recorder was registered above");
        TraceCapture {
            events: ring.len() as u64,
            dropped: ring.dropped(),
            chrome_json: ring.export_chrome(),
            recorder_metrics: tracer.metrics_snapshot(),
        }
    });
    let blocks = *plugins
        .take_as::<BlockCoverage>("block-coverage")
        .expect("the coverage plugin was registered above");
    let monitor = *plugins
        .take_as::<CfiMonitor>("cfi-monitor")
        .expect("the cfi monitor was registered above");
    let capmon = *plugins
        .take_as::<CapabilityMonitor>("capability-monitor")
        .expect("the capability monitor was registered above");
    cost.plugins.extend(plugins.dispatch_costs().iter().cloned());

    // One static model per image, shared by every cross-check below.
    let analyze_start = Instant::now();
    let mut report = faros.report();
    let models = faros_analyze::model_map(
        scenario.programs().iter().map(|(p, i)| (p.as_str(), i.clone())),
    );
    let observed = blocks.into_processes();
    report.attach_coverage(&faros_analyze::diff(&observed, &models));
    let alerts: Vec<DynamicAlert> = report
        .detections
        .iter()
        .map(|d| DynamicAlert { process: d.process.clone(), va: d.insn_vaddr })
        .collect();
    let (taint, stats) = faros_analyze::taint_cross_check_with_stats(&alerts, &observed, &models);
    report.attach_taint(taint);
    let transfers = monitor.into_processes();
    let cfi = faros_analyze::cfi::check(&transfers, &models, faros.tainted_transfers());
    let caps_observed = capmon.into_processes();
    let (caps, cap_stats) =
        faros_analyze::capability_cross_check_with_stats(&caps_observed, &models);
    let mut reg = MetricsRegistry::new();
    stats.record_into(&mut reg);
    cfi.stats.record_into(&mut reg);
    cap_stats.record_into(&mut reg);
    report.attach_cfi(cfi);
    report.attach_capabilities(caps);
    if cfg.profile {
        // Symbolize the per-block retired-instruction counts through the
        // images' static function tables — a pure function of recording +
        // images, so the attached profile is byte-identical across
        // replays.
        let samples: Vec<ProcessSamples> = observed
            .into_iter()
            .map(|p| ProcessSamples {
                pid: p.pid.0,
                process: p.name,
                modules: faros_analyze::layouts_for(&p.modules, &models),
                blocks: p.seen,
            })
            .collect();
        report.attach_profile(ProfileReport::build(samples));
    }
    let mut snap = faros.metrics_snapshot();
    snap.merge(&reg.snapshot());
    report.attach_metrics(snap);
    cost.phases.add_ns("analyze", analyze_start.elapsed().as_nanos() as u64);

    Ok(AnalyzedJob { report, faros, instructions: outcome.instructions, trace, cost })
}

#[cfg(test)]
mod tests {
    use super::*;
    use faros_kernel::event::Observer;
    use faros_kernel::machine::{Machine, MachineConfig, MachineError};
    use faros_kernel::net::NetworkFabric;

    /// A minimal scenario with no programs: the pipeline must still run
    /// and produce an empty-but-valid report.
    struct Empty;
    impl Scenario for Empty {
        fn name(&self) -> &str {
            "empty"
        }
        fn build(
            &self,
            fabric: NetworkFabric,
            _obs: &mut dyn Observer,
        ) -> Result<Machine, MachineError> {
            Ok(Machine::with_fabric(MachineConfig::default(), fabric))
        }
    }

    #[test]
    fn profiling_is_off_by_default_and_deterministic_when_on() {
        let (recording, _) = faros_replay::record(&Empty, 100_000).unwrap();
        let plain = analyze_recording(&Empty, &recording, &AnalysisConfig::default()).unwrap();
        assert!(plain.report.profile.is_empty(), "profiler must be opt-in");
        // Phase costs are always collected, even without profiling.
        assert!(plain.cost.phases.ns("replay").is_some());
        assert!(plain.cost.phases.ns("analyze").is_some());
        assert!(!plain.cost.plugins.is_empty());
        assert!(plain.cost.metrics().counter("plugin.faros.dispatches").is_some());

        let cfg = AnalysisConfig { profile: true, ..AnalysisConfig::default() };
        let a = analyze_recording(&Empty, &recording, &cfg).unwrap();
        let b = analyze_recording(&Empty, &recording, &cfg).unwrap();
        assert_eq!(
            a.report.to_json().unwrap(),
            b.report.to_json().unwrap(),
            "profile must be byte-identical across replays"
        );
        assert_eq!(a.report.profile.folded(), b.report.profile.folded());
    }

    #[test]
    fn trace_capture_does_not_change_report_bytes() {
        let (recording, _) = faros_replay::record(&Empty, 100_000).unwrap();
        let plain = analyze_recording(&Empty, &recording, &AnalysisConfig::default()).unwrap();
        let traced = analyze_recording(
            &Empty,
            &recording,
            &AnalysisConfig { capture_trace: true, ..AnalysisConfig::default() },
        )
        .unwrap();
        assert!(plain.trace.is_none());
        let capture = traced.trace.expect("trace requested");
        assert_eq!(capture.dropped, 0);
        assert_eq!(
            plain.report.to_json().unwrap(),
            traced.report.to_json().unwrap(),
            "tracing must never perturb the report"
        );
    }
}
