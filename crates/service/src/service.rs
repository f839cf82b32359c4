//! The detonation service core: a bounded job queue feeding a pool of
//! replay+analyze workers.
//!
//! [`Detonator::start`] spawns N workers that take job ids off the
//! bounded queue, resolve each job's scenario, replay and analyze it
//! through the *same* pipeline the CLI uses
//! ([`faros::analyze_recording`]) — which is what makes parallel
//! reports byte-identical to sequential runs — and publish a structured
//! [`JobStatus`].
//!
//! All mutable service state — the queue, the job table and running
//! claims, the counters, the merged snapshots, the flight recorder and the
//! worker handles — sits behind one lock. Workers wait on one condvar for
//! work; waiters and blocked submitters wait on the other for progress.
//! Jobs execute outside the lock.
//!
//! Fault containment is claim-token based. Every execution attempt takes a
//! fresh claim token; results are only accepted when the publishing
//! attempt still holds the job's token. A worker that panics mid-job has
//! the panic caught per job ([`std::panic::catch_unwind`]), publishes a
//! `worker-panic` failure, and is replaced. A worker that blows the
//! per-job deadline is *retired* by the supervisor: the job fails with
//! `deadline-exceeded`, the stalled thread is detached (its claim token is
//! dead, so a late result is dropped on the floor), and a replacement
//! worker joins the pool.
//!
//! Shutdown is drain-based: [`Detonator::shutdown`] closes the queue
//! (new submissions are refused), lets the workers finish the backlog,
//! then joins them. [`Detonator::shutdown_now`] additionally cancels jobs
//! still queued.

use crate::fault::{self, Fault, FaultPlan, PanicAt};
use crate::health::{self, HealthReport};
use crate::job::{FailureKind, JobFailure, JobResult, JobSpec, JobStatus, JobView};
use faros::AnalysisConfig;
use faros_obs::metrics::MetricsSnapshot;
use faros_obs::trace::{FlightRecorder, TraceCategory, TraceEvent};
use faros_replay::{record, replay, Recording};
use faros_support::json::{self, FromJson, JsonError, JsonValue, ToJson};
use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Configuration of a [`Detonator`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Queue capacity — the backpressure boundary. Submissions beyond it
    /// are refused with [`SubmitError::QueueFull`].
    pub queue_capacity: usize,
    /// Per-job deadline. When set, a supervisor thread retires workers
    /// that stall past it and fails their job with `deadline-exceeded`.
    pub deadline: Option<Duration>,
    /// The analysis configuration every job runs under (policy, taint
    /// mode, budget, per-job trace capture).
    pub analysis: AnalysisConfig,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 4,
            queue_capacity: 64,
            deadline: None,
            analysis: AnalysisConfig::default(),
        }
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity; retry after jobs drain.
    QueueFull,
    /// The service is shutting down and no longer admits jobs.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => f.write_str("queue full"),
            SubmitError::ShuttingDown => f.write_str("service shutting down"),
        }
    }
}

/// A point-in-time view of the service, merged across all finished jobs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Jobs admitted.
    pub submitted: u64,
    /// Submissions refused for backpressure (`QueueFull`).
    pub rejected: u64,
    /// Jobs finished successfully.
    pub completed: u64,
    /// Jobs finished with a structured failure (incl. cancelled).
    pub failed: u64,
    /// Jobs cancelled by [`Detonator::shutdown_now`].
    pub cancelled: u64,
    /// Current queue depth.
    pub queue_depth: u64,
    /// Deepest the queue has ever been.
    pub queue_high_water: u64,
    /// Workers currently alive.
    pub live_workers: u64,
    /// Workers ever spawned (initial pool + replacements).
    pub workers_spawned: u64,
    /// Workers replaced after a panic or deadline retirement.
    pub workers_replaced: u64,
    /// Job execution attempts the pool has run to completion.
    pub jobs_executed: u64,
    /// Wall-clock spent inside job execution, summed over workers.
    /// Human-facing only — never deterministic.
    pub busy_ns: u64,
    /// Flight-recorder events captured across all jobs.
    pub trace_events: u64,
    /// Flight-recorder events dropped across all jobs.
    pub trace_dropped: u64,
    /// Jobs failed by the deadline supervisor (each also replaced a
    /// worker).
    pub deadline_kills: u64,
    /// Every finished job's report metrics, merged. Order-independent, so
    /// it is identical however jobs interleave.
    pub merged: MetricsSnapshot,
    /// Every finished job's cost channel (queue-wait/replay/analyze/report
    /// phase histograms, plugin dispatch counts), merged. Wall-clock,
    /// human-facing only — kept apart from `merged` so that snapshot stays
    /// deterministic.
    pub cost: MetricsSnapshot,
}

impl ToJson for ServiceStats {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("submitted", self.submitted.to_json_value()),
            ("rejected", self.rejected.to_json_value()),
            ("completed", self.completed.to_json_value()),
            ("failed", self.failed.to_json_value()),
            ("cancelled", self.cancelled.to_json_value()),
            ("queue_depth", self.queue_depth.to_json_value()),
            ("queue_high_water", self.queue_high_water.to_json_value()),
            ("live_workers", self.live_workers.to_json_value()),
            ("workers_spawned", self.workers_spawned.to_json_value()),
            ("workers_replaced", self.workers_replaced.to_json_value()),
            ("jobs_executed", self.jobs_executed.to_json_value()),
            ("busy_ns", self.busy_ns.to_json_value()),
            ("trace_events", self.trace_events.to_json_value()),
            ("trace_dropped", self.trace_dropped.to_json_value()),
            ("deadline_kills", self.deadline_kills.to_json_value()),
            ("merged", self.merged.to_json_value()),
            ("cost", self.cost.to_json_value()),
        ])
    }
}

impl FromJson for ServiceStats {
    fn from_json_value(v: &JsonValue) -> Result<ServiceStats, JsonError> {
        Ok(ServiceStats {
            submitted: json::field(v, "submitted")?,
            rejected: json::field(v, "rejected")?,
            completed: json::field(v, "completed")?,
            failed: json::field(v, "failed")?,
            cancelled: json::field(v, "cancelled")?,
            queue_depth: json::field(v, "queue_depth")?,
            queue_high_water: json::field(v, "queue_high_water")?,
            live_workers: json::field(v, "live_workers")?,
            workers_spawned: json::field(v, "workers_spawned")?,
            workers_replaced: json::field(v, "workers_replaced")?,
            jobs_executed: json::field(v, "jobs_executed")?,
            busy_ns: json::field(v, "busy_ns")?,
            trace_events: json::field(v, "trace_events")?,
            trace_dropped: json::field(v, "trace_dropped")?,
            deadline_kills: json::field_or_default(v, "deadline_kills")?,
            merged: json::field(v, "merged")?,
            cost: json::field_or_default(v, "cost")?,
        })
    }
}

/// One job's execution claim: who is running it and since when.
#[derive(Debug)]
struct RunningJob {
    token: u64,
    worker: u64,
    started: Instant,
}

#[derive(Debug)]
struct JobEntry {
    spec: JobSpec,
    label: String,
    status: JobStatus,
    /// When the job was admitted; a claiming worker turns the elapsed time
    /// into the job's `queue_wait` phase.
    submitted: Instant,
}

impl JobEntry {
    fn view(&self, id: u64) -> JobView {
        JobView { id, label: self.label.clone(), status: self.status.clone() }
    }
}

/// Everything about the service that changes, behind the one lock.
struct State {
    /// Admitted job ids not yet claimed, oldest first. A job is `Queued`
    /// exactly while its id is here.
    queue: VecDeque<u64>,
    /// Set by shutdown: admission is refused, and workers exit once
    /// `queue` is empty.
    closed: bool,
    /// Every admitted job, indexed by id.
    jobs: Vec<JobEntry>,
    /// The claim of each running job; a result is accepted only from the
    /// attempt whose token is still here.
    running: HashMap<u64, RunningJob>,
    /// The service's counters and merged snapshots; `queue_depth` is read
    /// from `queue` when stats are taken.
    stats: ServiceStats,
    recorder: FlightRecorder,
    workers: HashMap<u64, JoinHandle<()>>,
    /// Workers counted out of the pool (panicked or past the deadline).
    retired: Vec<u64>,
    next_worker: u64,
    next_token: u64,
}

impl State {
    /// The service-level counters behind [`Detonator::service_metrics`],
    /// in name order. Wall-clock fields are human-facing only.
    fn service_metrics(&self) -> MetricsSnapshot {
        let counters = [
            ("service.queue.depth", self.queue.len() as u64),
            ("service.queue.high_water", self.stats.queue_high_water),
            ("service.workers.busy_ns", self.stats.busy_ns),
            ("service.workers.jobs", self.stats.jobs_executed),
        ];
        MetricsSnapshot {
            counters: counters.iter().map(|&(name, v)| (name.to_string(), v)).collect(),
            histograms: Vec::new(),
        }
    }

    /// Claims queued job `id` for `worker`: a fresh token, and how long the
    /// job sat queued (its `queue_wait` phase).
    fn claim(&mut self, id: u64, worker: u64) -> (u64, JobSpec, Duration) {
        let token = self.next_token;
        self.next_token += 1;
        let entry = &mut self.jobs[id as usize];
        entry.status = JobStatus::Running;
        let claim = (token, entry.spec.clone(), entry.submitted.elapsed());
        self.running.insert(id, RunningJob { token, worker, started: Instant::now() });
        claim
    }

    /// Publishes a terminal status for the attempt holding `token`.
    /// Returns `false` (dropping the result) when the claim is stale —
    /// the supervisor already failed the job and moved on.
    fn publish(&mut self, id: u64, token: u64, status: JobStatus) -> bool {
        if self.running.get(&id).is_none_or(|run| run.token != token) {
            return false;
        }
        self.running.remove(&id);
        match &status {
            JobStatus::Done(result) => {
                self.stats.completed += 1;
                self.stats.trace_events += result.trace_events;
                self.stats.trace_dropped += result.trace_dropped;
                self.stats.merged.merge(&result.metrics);
                self.stats.cost.merge(&result.cost);
            }
            JobStatus::Failed(_) => self.stats.failed += 1,
            JobStatus::Queued | JobStatus::Running => unreachable!("publish is terminal-only"),
        }
        self.jobs[id as usize].status = status;
        true
    }
}

struct Inner {
    config: ServiceConfig,
    faults: Arc<FaultPlan>,
    epoch: Instant,
    state: Mutex<State>,
    /// Workers wait here for a queued job or for close.
    work: Condvar,
    /// Waiters, `drain`, and submitters blocked on a full queue wait here
    /// for a job to settle, queue space, or close.
    progress: Condvar,
}

/// The detonation service: bounded queue + worker pool + supervisor.
///
/// # Examples
///
/// ```
/// use faros_service::{Detonator, JobSpec, JobStatus, ServiceConfig};
///
/// let svc = Detonator::start(ServiceConfig { workers: 2, ..ServiceConfig::default() });
/// let id = svc.submit(JobSpec::Scenario { name: "process_hollowing".into() }).unwrap();
/// let view = svc.wait(id);
/// match view.status {
///     JobStatus::Done(result) => assert!(result.flagged, "hollowing must be flagged"),
///     other => panic!("unexpected terminal state {other:?}"),
/// }
/// svc.shutdown();
/// ```
pub struct Detonator {
    inner: Arc<Inner>,
    supervisor: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for Detonator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Detonator")
            .field("workers", &self.inner.config.workers)
            .field("queue_capacity", &self.inner.config.queue_capacity)
            .finish()
    }
}

impl Detonator {
    /// Starts the service with no fault plan.
    pub fn start(config: ServiceConfig) -> Detonator {
        Detonator::start_with_faults(config, Arc::new(FaultPlan::new()))
    }

    /// Starts the service with a fault plan (the fault-injection suite's
    /// entry point; production callers pass an empty plan via
    /// [`Detonator::start`]).
    pub fn start_with_faults(config: ServiceConfig, faults: Arc<FaultPlan>) -> Detonator {
        let inner = Arc::new(Inner {
            config,
            faults,
            epoch: Instant::now(),
            state: Mutex::new(State {
                queue: VecDeque::new(),
                closed: false,
                jobs: Vec::new(),
                running: HashMap::new(),
                stats: ServiceStats::default(),
                recorder: FlightRecorder::new(1 << 12),
                workers: HashMap::new(),
                retired: Vec::new(),
                next_worker: 0,
                next_token: 0,
            }),
            work: Condvar::new(),
            progress: Condvar::new(),
        });
        {
            let mut st = inner.lock();
            for _ in 0..inner.config.workers.max(1) {
                Inner::spawn_worker(&inner, &mut st);
            }
        }
        let supervisor = inner.config.deadline.map(|deadline| {
            let inner = Arc::clone(&inner);
            thread::spawn(move || supervisor_loop(&inner, deadline))
        });
        Detonator { inner, supervisor: Mutex::new(supervisor) }
    }

    /// Submits a job without blocking. Refused with
    /// [`SubmitError::QueueFull`] when the queue is at capacity — the
    /// structured backpressure signal — and
    /// [`SubmitError::ShuttingDown`] after shutdown began.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, SubmitError> {
        self.inner.admit(spec, false)
    }

    /// Submits a job, blocking while the queue is full. Fails only with
    /// [`SubmitError::ShuttingDown`].
    pub fn submit_wait(&self, spec: JobSpec) -> Result<u64, SubmitError> {
        self.inner.admit(spec, true)
    }

    /// The current view of job `id`, or `None` for an unknown id.
    pub fn status(&self, id: u64) -> Option<JobView> {
        self.inner.lock().jobs.get(id as usize).map(|e| e.view(id))
    }

    /// Blocks until job `id` reaches a terminal state and returns it.
    ///
    /// # Panics
    ///
    /// Panics on an unknown job id.
    pub fn wait(&self, id: u64) -> JobView {
        let mut st = self.inner.lock();
        loop {
            let entry = st.jobs.get(id as usize).expect("unknown job id");
            if entry.status.is_terminal() {
                return entry.view(id);
            }
            st = self.inner.wait_progress(st);
        }
    }

    /// Blocks until every submitted job is terminal (the queue is empty
    /// and no job is running).
    pub fn drain(&self) {
        let mut st = self.inner.lock();
        // Every admitted job ends completed or failed (cancelled included).
        while st.stats.completed + st.stats.failed < st.stats.submitted {
            st = self.inner.wait_progress(st);
        }
    }

    /// A point-in-time stats snapshot.
    pub fn stats(&self) -> ServiceStats {
        let st = self.inner.lock();
        ServiceStats { queue_depth: st.queue.len() as u64, ..st.stats.clone() }
    }

    /// The configured queue capacity (the backpressure boundary).
    pub fn queue_capacity(&self) -> usize {
        self.inner.capacity()
    }

    /// The service-level counters: `service.queue.depth` and
    /// `service.queue.high_water`, `service.workers.jobs` and
    /// `service.workers.busy_ns`. Wall-clock fields are human-facing only.
    pub fn service_metrics(&self) -> MetricsSnapshot {
        self.inner.lock().service_metrics()
    }

    /// The live telemetry snapshot behind `Request::Metrics`: the
    /// deterministic merged report metrics, the wall-clock cost channel
    /// (phase latencies, plugin dispatches), and the service counters,
    /// folded into one snapshot. The three namespaces are disjoint, so the
    /// fold is lossless.
    pub fn telemetry_metrics(&self) -> MetricsSnapshot {
        let st = self.inner.lock();
        let mut snapshot = st.stats.merged.clone();
        snapshot.merge(&st.stats.cost);
        snapshot.merge(&st.service_metrics());
        snapshot
    }

    /// Evaluates the health SLOs against the current stats (see
    /// [`crate::health::evaluate`]).
    pub fn health(&self) -> HealthReport {
        health::evaluate(&self.stats(), self.queue_capacity() as u64)
    }

    /// The newest `n` service flight-recorder events (oldest first) plus
    /// how many the ring has evicted in total.
    pub fn trace_tail(&self, n: usize) -> (Vec<TraceEvent>, u64) {
        let st = self.inner.lock();
        (st.recorder.tail(n), st.recorder.dropped())
    }

    /// Graceful shutdown: refuse new jobs, let the workers drain the
    /// backlog, join the pool, and return the final stats. Idempotent —
    /// callers holding the service in an `Arc` (the socket server) may
    /// race here safely.
    pub fn shutdown(&self) -> ServiceStats {
        self.shutdown_inner(false)
    }

    /// Fast shutdown: refuse new jobs, cancel everything still queued,
    /// finish only in-flight jobs, join the pool.
    pub fn shutdown_now(&self) -> ServiceStats {
        self.shutdown_inner(true)
    }

    fn shutdown_inner(&self, cancel_queued: bool) -> ServiceStats {
        let handles = {
            let mut st = self.inner.lock();
            if cancel_queued {
                for id in std::mem::take(&mut st.queue) {
                    st.jobs[id as usize].status = JobStatus::Failed(JobFailure::new(
                        FailureKind::Cancelled,
                        "service shut down before the job ran",
                    ));
                    st.stats.cancelled += 1;
                    st.stats.failed += 1;
                }
            }
            st.closed = true;
            // No worker is spawned after close, so this is the whole pool.
            std::mem::take(&mut st.workers)
        };
        self.inner.work.notify_all();
        self.inner.progress.notify_all();
        for (_, handle) in handles {
            let _ = handle.join();
        }
        let supervisor = self.supervisor.lock().expect("supervisor poisoned").take();
        if let Some(handle) = supervisor {
            let _ = handle.join();
        }
        self.stats()
    }
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("service state poisoned")
    }

    fn wait_progress<'a>(&self, st: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        self.progress.wait(st).expect("service state poisoned")
    }

    fn capacity(&self) -> usize {
        self.config.queue_capacity.max(1)
    }

    fn admit(&self, spec: JobSpec, block: bool) -> Result<u64, SubmitError> {
        let label = spec.label();
        let mut st = self.lock();
        loop {
            if st.closed {
                return Err(SubmitError::ShuttingDown);
            }
            if st.queue.len() < self.capacity() {
                break;
            }
            if !block {
                st.stats.rejected += 1;
                self.trace_instant(&mut st, "submit-rejected");
                return Err(SubmitError::QueueFull);
            }
            st = self.wait_progress(st);
        }
        let id = st.jobs.len() as u64;
        let submitted = Instant::now();
        st.jobs.push(JobEntry { spec, label, status: JobStatus::Queued, submitted });
        st.queue.push_back(id);
        st.stats.submitted += 1;
        st.stats.queue_high_water = st.stats.queue_high_water.max(st.queue.len() as u64);
        drop(st);
        self.work.notify_one();
        Ok(id)
    }

    fn timestamp(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn trace_instant(&self, st: &mut State, label: &str) {
        let ts = self.timestamp();
        st.recorder.record(TraceEvent::instant(ts, 1, 0, TraceCategory::Service, label));
    }

    fn spawn_worker(inner: &Arc<Inner>, st: &mut State) {
        let worker = st.next_worker;
        st.next_worker += 1;
        st.stats.live_workers += 1;
        st.stats.workers_spawned += 1;
        let for_thread = Arc::clone(inner);
        st.workers.insert(worker, thread::spawn(move || worker_loop(&for_thread, worker)));
    }

    /// Retires a worker (stalled past the deadline, or exiting after a
    /// caught job panic) and spawns a replacement. Idempotent per worker:
    /// the supervisor and the worker's own panic path can race here, and
    /// exactly one of them wins — so the live count drops exactly once and
    /// exactly one replacement joins the pool.
    fn retire_and_replace(inner: &Arc<Inner>, st: &mut State, worker: u64) {
        if st.retired.contains(&worker) {
            return;
        }
        st.retired.push(worker);
        // Detach the handle: a stalled thread is not joinable on any
        // useful timescale (its claim token is already dead), and a
        // panicking one is about to exit anyway.
        st.workers.remove(&worker);
        st.stats.live_workers -= 1;
        st.stats.workers_replaced += 1;
        if !st.closed {
            Inner::spawn_worker(inner, st);
        }
    }
}

fn worker_loop(inner: &Arc<Inner>, worker: u64) {
    let mut st = inner.lock();
    loop {
        if st.retired.contains(&worker) {
            // Counted out of the pool when it was retired.
            return;
        }
        let Some(id) = st.queue.pop_front() else {
            if st.closed {
                st.stats.live_workers -= 1;
                return;
            }
            st = inner.work.wait(st).expect("service state poisoned");
            continue;
        };
        if st.queue.len() + 1 == inner.capacity() {
            // The queue was full: a blocked submitter may proceed.
            inner.progress.notify_all();
        }
        let (token, spec, queue_wait) = st.claim(id, worker);
        let label = format!("job-{id}");
        let ts = inner.timestamp();
        st.recorder.record(TraceEvent::begin(ts, 1, worker as u32, TraceCategory::Service, &label));
        drop(st);

        // The job runs outside the lock, so a panic in it cannot poison it.
        let started = Instant::now();
        let outcome =
            panic::catch_unwind(AssertUnwindSafe(|| execute_job(inner, id, &spec, queue_wait)));
        let busy = started.elapsed();
        let panicked = outcome.is_err();
        let status = match outcome {
            Ok(Ok(result)) => validate(result),
            Ok(Err(failure)) => JobStatus::Failed(failure),
            Err(payload) => JobStatus::Failed(JobFailure::new(
                FailureKind::WorkerPanic,
                fault::payload_message(payload.as_ref()),
            )),
        };

        st = inner.lock();
        st.stats.jobs_executed += 1;
        st.stats.busy_ns += busy.as_nanos() as u64;
        let ts = inner.timestamp();
        st.recorder.record(TraceEvent::end(ts, 1, worker as u32, TraceCategory::Service, &label));
        if st.publish(id, token, status) {
            inner.progress.notify_all();
        }
        if panicked {
            Inner::retire_and_replace(inner, &mut st, worker);
            return;
        }
    }
}

/// A successful result whose report fails validation becomes a
/// `corrupt-report` failure (the server-side check
/// [`Fault::CorruptReport`] exercises).
fn validate(result: JobResult) -> JobStatus {
    match JsonValue::parse(&result.report_json) {
        Ok(_) => JobStatus::Done(result),
        Err(err) => JobStatus::Failed(JobFailure::new(
            FailureKind::CorruptReport,
            format!("report failed validation: {err}"),
        )),
    }
}

/// Resolves and analyzes one job, applying any scheduled fault. The
/// pipeline's phase/plugin cost channel is extended with the service-side
/// phases (`queue_wait`, `report`) and shipped as the result's `cost`.
fn execute_job(
    inner: &Inner,
    id: u64,
    spec: &JobSpec,
    queue_wait: Duration,
) -> Result<JobResult, JobFailure> {
    let fault = inner.faults.get(id);
    let (sample, recording) = resolve(inner, spec)?;
    match fault {
        Some(Fault::Stall(pause)) => thread::sleep(pause),
        Some(Fault::PanicMidReplay(after)) => {
            // A genuinely doomed replay pass: the panic unwinds out of the
            // instruction hook, exactly like a real analysis bug.
            let _ = replay(
                &sample.scenario,
                &recording,
                inner.config.analysis.budget,
                &mut PanicAt::new(after),
            );
        }
        Some(Fault::CorruptReport) | None => {}
    }
    let job = faros::analyze_recording(&sample.scenario, &recording, &inner.config.analysis)
        .map_err(|e| JobFailure::new(FailureKind::Replay, e.to_string()))?;
    let report_started = Instant::now();
    let mut report_json = job
        .report
        .to_json()
        .map_err(|e| JobFailure::new(FailureKind::CorruptReport, e.to_string()))?;
    if fault == Some(Fault::CorruptReport) {
        report_json.truncate(report_json.len() / 2);
    }
    let mut cost = job.cost.clone();
    cost.phases.add_ns("queue_wait", queue_wait.as_nanos() as u64);
    cost.phases.add_ns("report", report_started.elapsed().as_nanos() as u64);
    let (trace_events, trace_dropped) =
        job.trace.as_ref().map_or((0, 0), |t| (t.events, t.dropped));
    Ok(JobResult {
        metrics: job.report.metrics.clone(),
        report_json,
        instructions: job.instructions,
        flagged: job.report.attack_flagged(),
        trace_events,
        trace_dropped,
        cost: cost.metrics(),
    })
}

fn resolve(
    inner: &Inner,
    spec: &JobSpec,
) -> Result<(&'static faros_corpus::Sample, Recording), JobFailure> {
    match spec {
        JobSpec::Scenario { name } => {
            let sample = faros_corpus::find_sample(name).ok_or_else(|| {
                JobFailure::new(FailureKind::InvalidSpec, format!("unknown scenario `{name}`"))
            })?;
            let (recording, _outcome) = record(&sample.scenario, inner.config.analysis.budget)
                .map_err(|e| JobFailure::new(FailureKind::Replay, e.to_string()))?;
            Ok((sample, recording))
        }
        JobSpec::Recording { json } => {
            let recording = Recording::from_json(json).map_err(|e| {
                JobFailure::new(FailureKind::InvalidSpec, format!("unparseable recording: {e}"))
            })?;
            let sample = faros_corpus::find_sample(&recording.scenario).ok_or_else(|| {
                JobFailure::new(
                    FailureKind::InvalidSpec,
                    format!("recording names unknown scenario `{}`", recording.scenario),
                )
            })?;
            Ok((sample, recording))
        }
    }
}

fn supervisor_loop(inner: &Arc<Inner>, deadline: Duration) {
    let tick = (deadline / 4).min(Duration::from_millis(20)).max(Duration::from_millis(1));
    loop {
        thread::sleep(tick);
        let mut st = inner.lock();
        if st.closed && st.stats.live_workers == 0 {
            // Shut down, and no job is left that could overrun.
            return;
        }
        let expired: Vec<(u64, u64, u64)> = st
            .running
            .iter()
            .filter(|(_, run)| run.started.elapsed() > deadline)
            .map(|(&job, run)| (job, run.token, run.worker))
            .collect();
        for &(job, token, worker) in &expired {
            st.publish(
                job,
                token,
                JobStatus::Failed(JobFailure::new(
                    FailureKind::DeadlineExceeded,
                    format!("exceeded the per-job deadline of {deadline:?}"),
                )),
            );
            st.stats.deadline_kills += 1;
            inner.trace_instant(&mut st, "deadline-exceeded");
            Inner::retire_and_replace(inner, &mut st, worker);
        }
        if !expired.is_empty() {
            inner.progress.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_round_trip_json() {
        let stats = ServiceStats {
            submitted: 10,
            completed: 8,
            failed: 2,
            queue_high_water: 5,
            live_workers: 4,
            workers_spawned: 5,
            workers_replaced: 1,
            jobs_executed: 10,
            ..ServiceStats::default()
        };
        let json = stats.to_json_value().to_pretty();
        let back =
            ServiceStats::from_json_value(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(back, stats);
    }

    #[test]
    fn backpressure_rejects_when_full() {
        // Zero live workers isn't possible (min 1), so fill the queue with
        // jobs behind a stalling fault to hold capacity.
        let faults = Arc::new(FaultPlan::new());
        faults.set(0, Fault::Stall(Duration::from_millis(300)));
        let svc = Detonator::start_with_faults(
            ServiceConfig { workers: 1, queue_capacity: 2, ..ServiceConfig::default() },
            faults,
        );
        // Job 0 stalls the lone worker. Wait until the worker has actually
        // picked it up, so the queue is empty before jobs 1..=2 fill it.
        svc.submit(JobSpec::Scenario { name: "process_hollowing".into() }).unwrap();
        while !matches!(svc.status(0).unwrap().status, JobStatus::Running) {
            thread::sleep(Duration::from_millis(2));
        }
        for _ in 0..2 {
            svc.submit(JobSpec::Scenario { name: "process_hollowing".into() }).unwrap();
        }
        let err = svc
            .submit(JobSpec::Scenario { name: "process_hollowing".into() })
            .expect_err("fourth submission must hit backpressure");
        assert_eq!(err, SubmitError::QueueFull);
        let stats = svc.shutdown();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.submitted, 3);
    }
}
