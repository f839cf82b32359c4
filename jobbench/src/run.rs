//! Set-up, closed-loop callers and the timed phase of one workload.
//!
//! A job is one detonation as its user sees it: `faros::analyze_recording`
//! called in process, or a `JobSpec::Recording` submitted over the service
//! socket and waited for. Everything the benchmark does around a job
//! (building and recording a fresh input, serializing and checking the
//! report) is harness work: its wall and CPU time are taken out of the
//! phase totals, so `jobs_per_s` and `cpu_ms_per_job` price the jobs alone.

use crate::inputs::{self, Expect, FreshImages, Input, Sequence, Spec, Workload};
use crate::stats;
use faros::{analyze_recording, AnalysisConfig, FarosReport};
use faros_service::{serve, Client, JobSpec, JobStatus, ServerHandle, ServiceConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Where sockets and trace files go, relative to the working directory.
pub const OUT_DIR: &str = "target/faros-benchmark";

/// `peak_rss_mb` is read when this many timed jobs have completed (or at
/// the end of a shorter phase), so it does not grow with throughput: the
/// service keeps every finished job's result, and a faster build would
/// otherwise read as a memory regression.
const RSS_AT_JOB: usize = 200;

/// Fresh warm-up inputs re-detonated after the timed phase to check that a
/// repeat gives identical report bytes.
const FRESH_REPEATS: usize = 8;

/// How much a run does.
#[derive(Debug, Clone)]
pub struct Limits {
    /// Length of the timed (or traced) phase.
    pub seconds: f64,
    /// Cap on timed (or traced) jobs.
    pub max_jobs: usize,
    /// Set-ups run; `setup_s` is their median.
    pub setups: usize,
}

impl Limits {
    /// A measuring run of `seconds`.
    pub fn timed(seconds: f64) -> Limits {
        Limits { seconds, max_jobs: usize::MAX, setups: 3 }
    }
}

/// One detonation's result, as the caller received it.
#[derive(Debug)]
pub struct Done {
    /// When the call started.
    pub start: Instant,
    /// Call → report (service: submit → `Wait` reply).
    pub latency_ns: u64,
    /// Caller-thread CPU time inside the call window.
    pub window_cpu_ns: u64,
    /// Caller-thread run-queue wait inside the call window.
    pub window_wait_ns: u64,
    /// The report's byte-stable JSON.
    pub report_json: String,
    /// The report itself (in-process jobs only).
    pub report: Option<FarosReport>,
    /// Whether an injection was flagged.
    pub flagged: bool,
    /// Instructions the job's replay retired.
    pub instructions: u64,
    /// The job's own phases in execution order, as `(span name, ns)`.
    pub phases: Vec<(&'static str, u64)>,
    /// Report counters: `taint.copies`, `taint.interner_lists`,
    /// `faros.instructions`.
    pub counters: [u64; 3],
}

/// A closed-loop caller: waits for each verdict before the next job.
#[derive(Debug)]
pub enum Caller {
    /// Calls `analyze_recording` in process.
    Direct,
    /// Submits over its own connection to the service socket.
    Service(Client),
}

/// The next job's input.
#[derive(Debug)]
pub enum Job {
    /// Index into the pool.
    Pool(usize),
    /// A never-repeating input.
    Fresh(Box<Input>),
}

/// What the service callers share across threads (corpus samples are not
/// `Sync`, so the callers see the pool only through this).
#[derive(Debug)]
pub struct Shared {
    seq: Mutex<Sequence>,
    names: Vec<String>,
    /// Reference report bytes per pooled input, from a direct
    /// `analyze_recording` in set-up.
    refs: Vec<String>,
    /// Recording JSON per pooled input (service only).
    jsons: Vec<String>,
}

impl Shared {
    fn next_index(&self) -> usize {
        self.seq.lock().expect("sequence lock").next_index()
    }

    fn check(&self, i: usize, done: &Done) -> Result<(), String> {
        if done.report_json == self.refs[i] {
            Ok(())
        } else {
            Err(format!("{}: report differs from the set-up reference", self.names[i]))
        }
    }
}

/// A set-up workload, ready to run jobs.
#[derive(Debug)]
pub struct Bench {
    /// Which workload.
    pub workload: Workload,
    /// The analysis configuration every job runs under.
    pub cfg: AnalysisConfig,
    /// Pooled inputs (empty for `fresh_images`).
    pub pool: Vec<Input>,
    shared: Shared,
    fresh: Option<FreshImages>,
    /// One per closed-loop caller.
    pub callers: Vec<Caller>,
    server: Option<ServerHandle>,
    /// Digest of the reference reports (fresh: of the warm-up reports).
    pub digest: u64,
    /// Fresh warm-up inputs and their report digests, for the repeat check.
    warm_fresh: Vec<(Spec, u64)>,
    /// Check failures found in set-up.
    pub wrong: Vec<String>,
}

/// What a phase of closed-loop jobs measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Per job: its latency (ms).
    pub jobs: Vec<f64>,
    /// Phase wall time minus the callers' mean harness time, s.
    pub wall_s: f64,
    /// Process CPU over the phase minus harness CPU, ns.
    pub cpu_ns: u64,
    /// Jobs started.
    pub attempted: usize,
    /// Jobs that failed, were refused or hit a protocol error.
    pub failed: Vec<String>,
    /// Reports that failed a check.
    pub wrong: Vec<String>,
    /// `VmHWM` after [`RSS_AT_JOB`] jobs, MB.
    pub rss_mb: Option<f64>,
    /// Fresh jobs in stream order: spec and report digest.
    pub fresh: Vec<(Spec, u64)>,
}

impl Bench {
    /// Builds, records and references every input, starts the service for
    /// `service_corpus`, and runs the warm-up jobs. `n` numbers set-ups
    /// within one process.
    pub fn setup(workload: Workload, seed: u64, n: usize) -> Bench {
        let cfg = AnalysisConfig::default();
        let rows = inputs::family_rows();
        let mut pool = Vec::new();
        if workload == Workload::ServiceCorpus {
            let injectors = inputs::injector_names();
            let registry = faros_corpus::sample_registry();
            for (i, sample) in registry.into_iter().enumerate() {
                pool.push(Input::record(Spec::Registry(i), sample, &injectors, cfg.budget));
            }
        } else if let Some(specs) = inputs::pool_specs(workload, seed) {
            for spec in specs {
                pool.push(Input::record(spec, inputs::build(spec, &rows), &[], cfg.budget));
            }
        }

        let mut wrong = Vec::new();
        let mut refs = Vec::new();
        let mut digest = stats::FNV_INIT;
        for input in &pool {
            let job = analyze_recording(&input.sample.scenario, &input.recording, &cfg)
                .unwrap_or_else(|e| panic!("reference run of {} failed: {e}", input.sample.name()));
            if let Err(e) = check_expect(input, job.report.attack_flagged(), &job.report) {
                wrong.push(e);
            }
            let json = job.report.to_json().expect("report serializes");
            digest =
                stats::fnv1a(digest, &stats::fnv1a(stats::FNV_INIT, json.as_bytes()).to_le_bytes());
            refs.push(json);
        }

        let (jsons, server, callers) = if workload == Workload::ServiceCorpus {
            let jsons =
                pool.iter().map(|i| i.recording.to_json().expect("recording serializes")).collect();
            std::fs::create_dir_all(OUT_DIR).expect("output directory is creatable");
            let socket = PathBuf::from(format!("{OUT_DIR}/svc-{}-{n}.sock", std::process::id()));
            let config =
                ServiceConfig { workers: 2, analysis: cfg.clone(), ..ServiceConfig::default() };
            let server = serve(&socket, config).expect("service socket binds");
            let callers = (0..workload.callers())
                .map(|_| Caller::Service(Client::connect(&socket).expect("client connects")))
                .collect();
            (jsons, Some(server), callers)
        } else {
            (Vec::new(), None, vec![Caller::Direct])
        };

        let mut bench = Bench {
            workload,
            cfg,
            shared: Shared {
                seq: Mutex::new(Sequence::new(pool.len(), seed)),
                names: pool.iter().map(|i| i.sample.name().to_string()).collect(),
                refs,
                jsons,
            },
            pool,
            fresh: (workload == Workload::FreshImages).then(|| FreshImages::new(seed)),
            callers,
            server,
            digest,
            warm_fresh: Vec::new(),
            wrong,
        };

        let warm = bench.run_phase(workload.warmup(), None);
        bench.wrong.extend(warm.wrong);
        bench.wrong.extend(warm.failed);
        if workload == Workload::FreshImages {
            bench.digest = warm
                .fresh
                .iter()
                .fold(stats::FNV_INIT, |d, (_, h)| stats::fnv1a(d, &h.to_le_bytes()));
            bench.warm_fresh = warm.fresh;
        }
        bench
    }

    /// Takes the next job of the seeded sequence; `None` once a fresh
    /// stream has no unseen image left.
    pub fn next_job(&mut self) -> Option<Job> {
        let Some(fresh) = &mut self.fresh else {
            return Some(Job::Pool(self.shared.next_index()));
        };
        let (spec, sample) = fresh.next_sample()?;
        Some(Job::Fresh(Box::new(Input::record(spec, sample, &[], self.cfg.budget))))
    }

    /// The input a job detonates.
    pub fn input<'a>(&'a self, job: &'a Job) -> &'a Input {
        match job {
            Job::Pool(i) => &self.pool[*i],
            Job::Fresh(input) => input,
        }
    }

    /// Runs one job through `caller`.
    pub fn detonate(&self, caller: &mut Caller, job: &Job) -> Result<Done, String> {
        match (caller, job) {
            (Caller::Direct, job) => direct(&self.cfg, self.input(job)),
            (Caller::Service(client), Job::Pool(i)) => service(client, &self.shared, *i),
            (Caller::Service(_), Job::Fresh(_)) => unreachable!("the service runs pooled inputs"),
        }
    }

    /// Checks a job's report: pooled inputs must match their reference
    /// byte for byte; fresh inputs must carry their expected verdict.
    pub fn check(&self, job: &Job, done: &Done) -> Result<(), String> {
        match job {
            Job::Pool(i) => self.shared.check(*i, done),
            Job::Fresh(input) => check_expect(
                input,
                done.flagged,
                done.report.as_ref().expect("fresh jobs run in process"),
            ),
        }
    }

    /// Runs up to `max_jobs` jobs on every caller until `deadline`.
    pub fn run_phase(&mut self, max_jobs: usize, deadline: Option<Instant>) -> Phase {
        let ctl = Control {
            started: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            rss: Mutex::new(None),
            t0: Instant::now(),
            max_jobs,
            deadline,
        };
        let callers = std::mem::take(&mut self.callers);
        let n_callers = callers.len().max(1) as u64;
        let cpu0 = stats::process_cpu_ns();
        let tallies: Vec<CallerTally> = if self.server.is_none() {
            let tally = ctl.run(|| {
                let job = self.next_job()?;
                Some(self.detonate(&mut Caller::Direct, &job).map(|done| {
                    let fresh = match &job {
                        Job::Fresh(input) => Some((
                            input.spec,
                            stats::fnv1a(stats::FNV_INIT, done.report_json.as_bytes()),
                        )),
                        Job::Pool(_) => None,
                    };
                    (self.check(&job, &done).err(), fresh, done)
                }))
            });
            self.callers = callers;
            vec![tally]
        } else {
            let shared = &self.shared;
            let ctl = &ctl;
            let (tallies, clients): (Vec<_>, Vec<_>) = std::thread::scope(|s| {
                let handles: Vec<_> = callers
                    .into_iter()
                    .map(|mut caller| {
                        s.spawn(move || {
                            let Caller::Service(client) = &mut caller else {
                                unreachable!("service callers")
                            };
                            let tally = ctl.run(|| {
                                let i = shared.next_index();
                                Some(
                                    service(client, shared, i)
                                        .map(|done| (shared.check(i, &done).err(), None, done)),
                                )
                            });
                            (tally, caller)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("caller thread panicked")).unzip()
            });
            self.callers = clients;
            tallies
        };
        let wall = ctl.t0.elapsed();
        let cpu = stats::process_cpu_ns() - cpu0;

        let mut phase = Phase::default();
        let (mut harness_ns, mut harness_cpu_ns) = (0u64, 0u64);
        for tally in tallies {
            phase.jobs.extend(tally.jobs);
            phase.attempted += tally.attempted;
            phase.failed.extend(tally.failed);
            phase.wrong.extend(tally.wrong);
            phase.fresh.extend(tally.fresh);
            harness_ns += tally.harness_ns;
            harness_cpu_ns += tally.harness_cpu_ns;
        }
        phase.wall_s =
            wall.saturating_sub(Duration::from_nanos(harness_ns / n_callers)).as_secs_f64();
        phase.cpu_ns = cpu.saturating_sub(harness_cpu_ns);
        phase.rss_mb = ctl.rss.into_inner().expect("rss lock");
        phase
    }

    /// Re-detonates the first fresh warm-up inputs, rebuilt from their
    /// specs, and checks the report bytes repeat.
    pub fn check_fresh_repeats(&self) -> Vec<String> {
        let rows = inputs::family_rows();
        let mut wrong = Vec::new();
        for &(spec, digest) in self.warm_fresh.iter().take(FRESH_REPEATS) {
            let input = Input::record(spec, inputs::build(spec, &rows), &[], self.cfg.budget);
            match direct(&self.cfg, &input) {
                Ok(done)
                    if stats::fnv1a(stats::FNV_INIT, done.report_json.as_bytes()) == digest => {}
                Ok(_) => wrong.push(format!("{spec:?}: a repeat gave other report bytes")),
                Err(e) => wrong.push(e),
            }
        }
        wrong
    }

    /// Closes the client connections and stops the service; returns any
    /// service-side failure its stats show.
    pub fn teardown(mut self) -> Vec<String> {
        self.callers.clear();
        let Some(server) = self.server.take() else { return Vec::new() };
        let stats = server.stop();
        if stats.failed > 0 || stats.rejected > 0 || stats.workers_replaced > 0 {
            return vec![format!(
                "service stats: {} failed, {} rejected, {} workers replaced",
                stats.failed, stats.rejected, stats.workers_replaced
            )];
        }
        Vec::new()
    }
}

/// One in-process job: `analyze_recording`, then (outside the timed
/// window) the report's serialization.
fn direct(cfg: &AnalysisConfig, input: &Input) -> Result<Done, String> {
    let (cpu0, wait0) = stats::thread_sched_ns();
    let start = Instant::now();
    let out = analyze_recording(&input.sample.scenario, &input.recording, cfg);
    let latency_ns = start.elapsed().as_nanos() as u64;
    let (cpu1, wait1) = stats::thread_sched_ns();
    let out = out.map_err(|e| format!("{}: {e}", input.sample.name()))?;
    let report_json = out.report.to_json().map_err(|e| e.to_string())?;
    let counter = |n| out.report.metrics.counter(n).unwrap_or(0);
    Ok(Done {
        start,
        latency_ns,
        window_cpu_ns: cpu1 - cpu0,
        window_wait_ns: wait1 - wait0,
        report_json,
        flagged: out.report.attack_flagged(),
        instructions: out.instructions,
        phases: vec![
            ("core.replay", out.cost.phases.ns("replay").unwrap_or(0)),
            ("core.analyze", out.cost.phases.ns("analyze").unwrap_or(0)),
        ],
        counters: [
            counter("taint.copies"),
            counter("taint.interner_lists"),
            counter("faros.instructions"),
        ],
        report: Some(out.report),
    })
}

/// One service job: submit pooled input `i` and wait for its verdict.
fn service(client: &mut Client, shared: &Shared, i: usize) -> Result<Done, String> {
    let spec = JobSpec::Recording { json: shared.jsons[i].clone() };
    let (cpu0, wait0) = stats::thread_sched_ns();
    let start = Instant::now();
    let view = client
        .submit(spec)
        .map_err(|e| format!("submit: {e}"))?
        .map_err(|r| format!("submit refused: {r:?}"))
        .and_then(|id| client.wait(id).map_err(|e| format!("wait: {e}")));
    let latency_ns = start.elapsed().as_nanos() as u64;
    let (cpu1, wait1) = stats::thread_sched_ns();
    let result = match view?.status {
        JobStatus::Done(result) => result,
        JobStatus::Failed(f) => return Err(format!("{}: {f}", shared.names[i])),
        other => return Err(format!("wait returned a live job: {other:?}")),
    };
    let phase = |n: &str| result.cost.histogram(&format!("phase.{n}_ns")).map_or(0, |h| h.sum);
    let counter = |n| result.metrics.counter(n).unwrap_or(0);
    Ok(Done {
        start,
        latency_ns,
        window_cpu_ns: cpu1 - cpu0,
        window_wait_ns: wait1 - wait0,
        flagged: result.flagged,
        instructions: result.instructions,
        phases: vec![
            ("service.queue_wait", phase("queue_wait")),
            ("core.replay", phase("replay")),
            ("core.analyze", phase("analyze")),
            ("service.report", phase("report")),
        ],
        counters: [
            counter("taint.copies"),
            counter("taint.interner_lists"),
            counter("faros.instructions"),
        ],
        report_json: result.report_json,
        report: None,
    })
}

/// A job's outcome as a caller loop sees it: check failure, fresh digest,
/// and the result.
type Step = (Option<String>, Option<(Spec, u64)>, Done);

/// The limits every caller of one phase shares.
#[derive(Debug)]
struct Control {
    started: AtomicUsize,
    completed: AtomicUsize,
    rss: Mutex<Option<f64>>,
    t0: Instant,
    max_jobs: usize,
    deadline: Option<Instant>,
}

#[derive(Debug, Default)]
struct CallerTally {
    jobs: Vec<f64>,
    attempted: usize,
    failed: Vec<String>,
    wrong: Vec<String>,
    fresh: Vec<(Spec, u64)>,
    harness_ns: u64,
    harness_cpu_ns: u64,
}

impl Control {
    /// One closed-loop caller: runs `job` until the deadline, the job cap
    /// or the end of the input stream, and accounts the time between jobs
    /// as harness time.
    fn run(&self, mut job: impl FnMut() -> Option<Result<Step, String>>) -> CallerTally {
        let mut tally = CallerTally::default();
        let (mut cpu_mark, _) = stats::thread_sched_ns();
        let mut mark = Instant::now();
        loop {
            if self.deadline.is_some_and(|d| Instant::now() >= d)
                || self.started.fetch_add(1, Ordering::Relaxed) >= self.max_jobs
            {
                break;
            }
            let Some(result) = job() else { break };
            tally.attempted += 1;
            let (wrong, fresh, done) = match result {
                Ok(step) => step,
                Err(e) => {
                    tally.failed.push(e);
                    continue;
                }
            };
            tally.jobs.push(done.latency_ns as f64 / 1e6);
            tally.wrong.extend(wrong);
            tally.fresh.extend(fresh);
            if self.completed.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AT_JOB {
                *self.rss.lock().expect("rss lock") = Some(stats::peak_rss_mb());
            }
            let now = Instant::now();
            let (cpu_now, _) = stats::thread_sched_ns();
            let iter_ns = now.duration_since(mark).as_nanos() as u64;
            tally.harness_ns += iter_ns.saturating_sub(done.latency_ns);
            tally.harness_cpu_ns += (cpu_now - cpu_mark).saturating_sub(done.window_cpu_ns);
            (mark, cpu_mark) = (now, cpu_now);
        }
        tally
    }
}

/// Checks a report against the verdict its input must get.
fn check_expect(input: &Input, flagged: bool, report: &FarosReport) -> Result<(), String> {
    let quiet = !flagged
        && !report.coverage_suspicious()
        && !report.taint_suspicious()
        && !report.cfi_suspicious()
        && !report.capabilities_suspicious();
    let name = input.sample.name();
    match input.expect {
        Expect::Flagged if !flagged => Err(format!("{name}: injector not flagged")),
        Expect::NotFlagged if flagged => Err(format!("{name}: flagged, but injects nothing")),
        Expect::Quiet if !quiet => Err(format!("{name}: a detector fired on a family variant")),
        _ => Ok(()),
    }
}

/// The end-to-end result of one workload run.
#[derive(Debug)]
pub struct Outcome {
    /// The timed phase.
    pub phase: Phase,
    /// Each set-up's duration, s.
    pub setups_s: Vec<f64>,
    /// Reference-report digest.
    pub digest: u64,
    /// Every check failure (set-up, timed phase, repeats, service stats).
    pub wrong: Vec<String>,
    /// Whether a fresh stream ran out before the deadline.
    pub exhausted: bool,
}

/// Sets the workload up and runs the timed phase, then sets it up again
/// `limits.setups - 1` times for `setup_s` alone. The extra set-ups come
/// last so the memory they leave in the allocator does not reach
/// `peak_rss_mb`; each must reproduce the reference digest.
pub fn run_workload(workload: Workload, seed: u64, limits: &Limits) -> Outcome {
    let t = Instant::now();
    let mut bench = Bench::setup(workload, seed, 0);
    let mut setups_s = vec![t.elapsed().as_secs_f64()];
    let mut wrong = std::mem::take(&mut bench.wrong);

    let deadline = Instant::now() + Duration::from_secs_f64(limits.seconds);
    let mut phase = bench.run_phase(limits.max_jobs, Some(deadline));
    let exhausted = phase.attempted < limits.max_jobs && Instant::now() < deadline;
    if phase.rss_mb.is_none() {
        phase.rss_mb = Some(stats::peak_rss_mb());
    }
    wrong.append(&mut phase.wrong);
    wrong.extend(bench.check_fresh_repeats());
    let digest = bench.digest;
    wrong.extend(bench.teardown());

    for n in 1..limits.setups {
        let t = Instant::now();
        let mut again = Bench::setup(workload, seed, n);
        setups_s.push(t.elapsed().as_secs_f64());
        wrong.append(&mut again.wrong);
        if again.digest != digest {
            wrong.push(format!("set-up {n} gave another reference digest"));
        }
        wrong.extend(again.teardown());
    }
    Outcome { phase, setups_s, digest, wrong, exhausted }
}
