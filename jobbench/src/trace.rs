//! The traced run: each job once as the real call (`job` span tree), then
//! once more split into separate calls to each layer's public entry point
//! (`layers` span tree). Spans stay in memory and are written at the end
//! as a Chrome trace plus a per-layer summary. End-to-end metrics never
//! come from this run.

use crate::inputs::Workload;
use crate::run::{Bench, Limits};
use crate::stats::median;
use faros::{Faros, FarosReport};
use faros_analyze::{analyze_image, ModuleCfg};
use faros_replay::{
    record, replay_with_exec, BlockCoverage, CapabilityMonitor, CfiMonitor, PluginManager, Scenario,
};
use faros_service::protocol::decode_request;
use faros_service::{read_frame, write_frame, JobSpec, Request};
use faros_support::json::{JsonValue, ToJson};
use std::path::Path;
use std::time::{Duration, Instant};

/// Jobs a traced run replays at most: the first ones of the timed
/// sequence.
pub const TRACED_JOBS: usize = 200;

/// The per-layer metrics, in `BENCHMARK.json` order: name and unit.
pub const PER_LAYER: [(&str, &str); 24] = [
    ("replay.record_ms", "ms"),
    ("emu.replay_ms", "ms"),
    ("emu.guest_mips", "Minsn/s"),
    ("emu.tc_hit_ratio", "ratio"),
    ("emu.tc_elided_blocks", "count"),
    ("taint.self_ms", "ms"),
    ("taint.overhead_x", "x"),
    ("taint.copies_per_insn", "ratio"),
    ("taint.interner_lists", "count"),
    ("replay.observers_self_ms", "ms"),
    ("core.replay_phase_ms", "ms"),
    ("core.analyze_phase_ms", "ms"),
    ("core.analyze_share", "ratio"),
    ("analyze.model_ms", "ms"),
    ("analyze.cfg_ms", "ms"),
    ("analyze.images_per_job", "count"),
    ("analyze.rebuild_factor", "x"),
    ("core.report_serialize_ms", "ms"),
    ("core.report_kb", "KB"),
    ("service.frame_ms", "ms"),
    ("service.recording_kb", "KB"),
    ("corpus.find_sample_ms", "ms"),
    ("job.overhead_ms", "ms"),
    ("host.runqueue_ms", "ms"),
];

#[derive(Debug)]
struct Span {
    job: usize,
    name: &'static str,
    parent: Option<usize>,
    start: Duration,
    dur: Duration,
}

/// Records spans relative to one epoch.
#[derive(Debug)]
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn push(
        &mut self,
        job: usize,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        dur: Duration,
    ) -> usize {
        self.spans.push(Span { job, name, parent, start: start.duration_since(self.epoch), dur });
        self.spans.len() - 1
    }

    /// Times `f` as a child span of `parent`.
    fn time<R>(
        &mut self,
        job: usize,
        name: &'static str,
        parent: usize,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let dur = start.elapsed();
        self.push(job, name, Some(parent), start, dur);
        (out, dur.as_secs_f64() * 1e3)
    }
}

/// One traced job's layer measurements (times in ms).
#[derive(Debug, Default)]
struct Sample {
    job: f64,
    replay_phase: f64,
    analyze_phase: f64,
    record: f64,
    plain: f64,
    faros: f64,
    observers: f64,
    tc_hit_ratio: f64,
    tc_elided: f64,
    copies: f64,
    interner_lists: f64,
    faros_insns: f64,
    model: f64,
    cfg: f64,
    images: f64,
    serialize: f64,
    report_kb: f64,
    frame: f64,
    recording_kb: f64,
    find_sample: f64,
    runqueue: f64,
}

/// What a traced run produced.
#[derive(Debug)]
pub struct Traced {
    /// Per-layer metrics, in [`PER_LAYER`] order.
    pub metrics: Vec<f64>,
    /// Jobs traced.
    pub attempted: usize,
    /// Jobs that failed.
    pub failed: Vec<String>,
    /// Check failures (reports, instruction counts, round trips).
    pub wrong: Vec<String>,
    /// `core.replay + core.analyze` over `job`, median.
    pub phase_cover: f64,
    /// The files written.
    pub files: Vec<String>,
}

/// Runs the traced phase on the first caller of `bench` and writes
/// `<dir>/<workload>.trace.json` and `<dir>/<workload>.layers.json`.
pub fn run_traced(bench: &mut Bench, limits: &Limits, dir: &Path) -> Traced {
    let mut tracer = Tracer { epoch: Instant::now(), spans: Vec::new() };
    let deadline = tracer.epoch + Duration::from_secs_f64(limits.seconds);
    let mut caller = bench.callers.remove(0);
    let mut samples = Vec::new();
    let (mut attempted, mut failed, mut wrong) = (0, Vec::new(), Vec::new());
    for id in 0..limits.max_jobs.min(TRACED_JOBS) {
        if Instant::now() >= deadline {
            break;
        }
        let Some(job) = bench.next_job() else { break };
        attempted += 1;
        let done = match bench.detonate(&mut caller, &job) {
            Ok(done) => done,
            Err(e) => {
                failed.push(e);
                continue;
            }
        };
        if let Err(e) = bench.check(&job, &done) {
            wrong.push(e);
        }

        // `job`: the real call, its phases laid out in execution order.
        let job_dur = Duration::from_nanos(done.latency_ns);
        let root = tracer.push(id, "job", None, done.start, job_dur);
        let mut at = done.start;
        for &(name, ns) in &done.phases {
            tracer.push(id, name, Some(root), at, Duration::from_nanos(ns));
            at += Duration::from_nanos(ns);
        }

        // `layers`: one separate call per layer.
        let input = bench.input(&job);
        let (sc, rec, budget) = (&input.sample.scenario, &input.recording, bench.cfg.budget);
        let layers_start = Instant::now();
        let layers = tracer.push(id, "layers", None, layers_start, Duration::ZERO);
        let mut s = Sample {
            job: job_dur.as_secs_f64() * 1e3,
            runqueue: done.window_wait_ns as f64 / 1e6,
            copies: done.counters[0] as f64,
            interner_lists: done.counters[1] as f64,
            faros_insns: done.counters[2] as f64,
            ..Sample::default()
        };
        s.replay_phase = phase_ms(&done.phases, "core.replay");
        s.analyze_phase = phase_ms(&done.phases, "core.analyze");

        let (again, ms) = tracer.time(id, "replay.record", layers, || record(sc, budget));
        s.record = ms;
        if !again.is_ok_and(|(r, _)| r == *rec) {
            wrong.push(format!("{}: re-recording differs", sc.name()));
        }
        let mut retired = Vec::new();
        let (plain, ms) = tracer.time(id, "emu.replay", layers, || {
            replay_with_exec(sc, rec, budget, bench.cfg.exec, &mut PluginManager::new())
        });
        s.plain = ms;
        retired.push(plain.map(|o| o.instructions));
        let (faros_run, ms) = tracer.time(id, "taint.replay", layers, || {
            let mut plugins = PluginManager::new();
            plugins.register(Box::new(Faros::with_mode(bench.cfg.policy.clone(), bench.cfg.mode)));
            replay_with_exec(sc, rec, budget, bench.cfg.exec, &mut plugins)
        });
        s.faros = ms;
        if let Ok(out) = &faros_run {
            let tc = out.machine.tc_stats();
            s.tc_hit_ratio = tc.hits as f64 / (tc.hits + tc.misses).max(1) as f64;
            s.tc_elided = tc.elided_blocks as f64;
        }
        retired.push(faros_run.map(|o| o.instructions));
        let (observed, ms) = tracer.time(id, "replay.observers", layers, || {
            let mut plugins = PluginManager::new();
            plugins.register(Box::new(BlockCoverage::new()));
            plugins.register(Box::new(CfiMonitor::new()));
            plugins.register(Box::new(CapabilityMonitor::new()));
            replay_with_exec(sc, rec, budget, bench.cfg.exec, &mut plugins)
        });
        s.observers = ms;
        retired.push(observed.map(|o| o.instructions));
        for r in retired {
            if r.as_ref().ok() != Some(&done.instructions) {
                wrong.push(format!(
                    "{}: a layer replay retired {r:?}, the job {}",
                    sc.name(),
                    done.instructions
                ));
            }
        }

        for (path, image) in sc.programs() {
            s.model += tracer.time(id, "analyze.model", layers, || analyze_image(path, image)).1;
            s.cfg += tracer.time(id, "analyze.cfg", layers, || ModuleCfg::recover(path, image)).1;
        }
        s.images = sc.programs().len() as f64;

        let report = match &done.report {
            Some(report) => report.clone(),
            None => FarosReport::from_json(&done.report_json).expect("service report parses"),
        };
        let (json, ms) = tracer.time(id, "core.report_serialize", layers, || report.to_json());
        s.serialize = ms;
        if json.ok().as_deref() != Some(done.report_json.as_str()) {
            wrong.push(format!("{}: re-serialized report differs", sc.name()));
        }
        s.report_kb = done.report_json.len() as f64 / 1024.0;

        let rec_json = rec.to_json().expect("recording serializes");
        s.recording_kb = rec_json.len() as f64 / 1024.0;
        let request = Request::Submit(JobSpec::Recording { json: rec_json });
        let (decoded, ms) = tracer.time(id, "service.frame", layers, || {
            let mut wire = Vec::new();
            write_frame(&mut wire, &request.to_json_value().to_compact()).expect("frame fits");
            let payload =
                read_frame(&mut wire.as_slice()).expect("frame reads").expect("one frame");
            decode_request(&payload).expect("request decodes")
        });
        s.frame = ms;
        if decoded != request {
            wrong.push(format!("{}: submit frame did not round-trip", sc.name()));
        }
        s.find_sample = tracer
            .time(id, "corpus.find_sample", layers, || faros_corpus::find_sample(&rec.scenario))
            .1;

        tracer.spans[layers].dur = layers_start.elapsed();
        samples.push(s);
    }
    bench.callers.insert(0, caller);

    let metrics = layer_metrics(&samples);
    let job_ms: Vec<f64> = samples.iter().map(|s| s.job).collect();
    let phase_cover = median(
        &samples.iter().map(|s| (s.replay_phase + s.analyze_phase) / s.job).collect::<Vec<_>>(),
    );
    let files = write_files(bench.workload, dir, &tracer, &metrics, median(&job_ms), samples.len());
    Traced { metrics, attempted, failed, wrong, phase_cover, files }
}

fn phase_ms(phases: &[(&'static str, u64)], name: &str) -> f64 {
    phases.iter().filter(|(n, _)| *n == name).map(|(_, ns)| *ns as f64 / 1e6).sum()
}

/// Medians per job, in [`PER_LAYER`] order (`host.runqueue_ms` is a mean:
/// most jobs wait not at all, so its median says nothing).
fn layer_metrics(samples: &[Sample]) -> Vec<f64> {
    let med = |f: &dyn Fn(&Sample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    vec![
        med(&|s| s.record),
        med(&|s| s.plain),
        med(&|s| s.faros_insns / s.plain / 1e3),
        med(&|s| s.tc_hit_ratio),
        med(&|s| s.tc_elided),
        med(&|s| s.faros - s.plain),
        med(&|s| s.faros / s.plain),
        med(&|s| s.copies / s.faros_insns.max(1.0)),
        med(&|s| s.interner_lists),
        med(&|s| s.observers - s.plain),
        med(&|s| s.replay_phase),
        med(&|s| s.analyze_phase),
        med(&|s| s.analyze_phase / (s.replay_phase + s.analyze_phase)),
        med(&|s| s.model),
        med(&|s| s.cfg),
        med(&|s| s.images),
        med(&|s| s.analyze_phase / s.model),
        med(&|s| s.serialize),
        med(&|s| s.report_kb),
        med(&|s| s.frame),
        med(&|s| s.recording_kb),
        med(&|s| s.find_sample),
        med(&|s| s.job - s.replay_phase - s.analyze_phase),
        samples.iter().map(|s| s.runqueue).sum::<f64>() / samples.len().max(1) as f64,
    ]
}

/// Writes the Chrome trace and the per-layer summary; returns their paths.
fn write_files(
    workload: Workload,
    dir: &Path,
    tracer: &Tracer,
    metrics: &[f64],
    job_ms: f64,
    jobs: usize,
) -> Vec<String> {
    let us = |d: Duration| JsonValue::Float(d.as_secs_f64() * 1e6);
    let events: Vec<JsonValue> = tracer
        .spans
        .iter()
        .map(|s| {
            let tree = if s.name == "job" || s.parent.is_some_and(|p| tracer.spans[p].name == "job")
            {
                "job"
            } else {
                "layers"
            };
            JsonValue::object(vec![
                ("name", s.name.to_json_value()),
                ("cat", tree.to_json_value()),
                ("ph", "X".to_json_value()),
                ("ts", us(s.start)),
                ("dur", us(s.dur)),
                ("pid", 1u64.to_json_value()),
                ("tid", 1u64.to_json_value()),
                ("args", JsonValue::object(vec![("job", (s.job as u64).to_json_value())])),
            ])
        })
        .collect();
    let trace = JsonValue::object(vec![
        ("traceEvents", JsonValue::Array(events)),
        ("displayTimeUnit", "ms".to_json_value()),
    ]);

    // Self time: a span minus its children, summed per job and layer name.
    let mut child_ns = vec![Duration::ZERO; tracer.spans.len()];
    for s in &tracer.spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur;
        }
    }
    let mut names: Vec<&'static str> = Vec::new();
    for s in &tracer.spans {
        if !names.contains(&s.name) {
            names.push(s.name);
        }
    }
    let layers: Vec<JsonValue> = names
        .iter()
        .map(|&name| {
            let mut per_job: Vec<(usize, f64)> = Vec::new();
            for (i, s) in tracer.spans.iter().enumerate().filter(|(_, s)| s.name == name) {
                let self_ms = s.dur.saturating_sub(child_ns[i]).as_secs_f64() * 1e3;
                match per_job.last_mut() {
                    Some((job, total)) if *job == s.job => *total += self_ms,
                    _ => per_job.push((s.job, self_ms)),
                }
            }
            let self_ms = median(&per_job.iter().map(|p| p.1).collect::<Vec<_>>());
            JsonValue::object(vec![
                ("name", name.to_json_value()),
                ("median_self_ms", JsonValue::Float(self_ms)),
                ("share_of_job", JsonValue::Float(self_ms / job_ms)),
                ("jobs", (per_job.len() as u64).to_json_value()),
            ])
        })
        .collect();
    let summary = JsonValue::object(vec![
        ("workload", workload.name().to_json_value()),
        ("jobs", (jobs as u64).to_json_value()),
        ("job_median_ms", JsonValue::Float(job_ms)),
        ("layers", JsonValue::Array(layers)),
        (
            "metrics",
            JsonValue::object(
                PER_LAYER
                    .iter()
                    .zip(metrics)
                    .map(|((n, _), v)| (*n, JsonValue::Float(*v)))
                    .collect(),
            ),
        ),
    ]);

    std::fs::create_dir_all(dir).expect("trace directory is creatable");
    let mut files = Vec::new();
    for (suffix, doc) in [("trace.json", trace), ("layers.json", summary)] {
        let text = doc.to_pretty();
        JsonValue::parse(&text).expect("the benchmark writes valid JSON");
        let path = dir.join(format!("{}.{suffix}", workload.name()));
        std::fs::write(&path, text).expect("trace file is writable");
        files.push(path.display().to_string());
    }
    files
}
