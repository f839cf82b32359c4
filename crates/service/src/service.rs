//! The detonation service core: a bounded job queue feeding a pool of
//! replay+analyze workers.
//!
//! [`Detonator::start`] spawns N workers that pop job ids off a
//! [`BoundedQueue`], resolve each job's scenario, replay and analyze it
//! through the *same* pipeline the CLI uses
//! ([`faros::analyze_recording`]) — which is what makes parallel
//! reports byte-identical to sequential runs — and publish a structured
//! [`JobStatus`].
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
use crate::queue::{BoundedQueue, PushError};
use faros::AnalysisConfig;
use faros_obs::metrics::{MetricsRegistry, MetricsSnapshot, QueueGauges, Utilization};
use faros_obs::trace::{FlightRecorder, TraceCategory, TraceEvent};
use faros_replay::{record, replay, Recording};
use faros_support::json::{self, FromJson, JsonError, JsonValue, ToJson};
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
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
    /// The claim token of the attempt allowed to publish; `None` when no
    /// attempt may (queued or terminal).
    claim: Option<u64>,
    /// When the job was admitted; a claiming worker turns the elapsed time
    /// into the job's `queue_wait` phase.
    submitted: Instant,
}

#[derive(Debug, Default)]
struct JobsTable {
    entries: Vec<JobEntry>,
    running: HashMap<u64, RunningJob>,
}

/// Service-level metrics: queue gauges + worker utilization in one
/// registry (see `faros_obs::metrics`).
struct ServiceMetrics {
    registry: MetricsRegistry,
    queue: QueueGauges,
    workers: Utilization,
}

struct Inner {
    config: ServiceConfig,
    faults: Arc<FaultPlan>,
    queue: BoundedQueue<u64>,
    jobs: Mutex<JobsTable>,
    jobs_cv: Condvar,
    metrics: Mutex<ServiceMetrics>,
    merged: Mutex<MetricsSnapshot>,
    cost: Mutex<MetricsSnapshot>,
    recorder: Mutex<FlightRecorder>,
    epoch: Instant,
    workers: Mutex<HashMap<u64, JoinHandle<()>>>,
    retired: Mutex<Vec<u64>>,
    stop_supervisor: AtomicBool,
    next_worker: AtomicU64,
    next_token: AtomicU64,
    submitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    live_workers: AtomicU64,
    workers_spawned: AtomicU64,
    workers_replaced: AtomicU64,
    trace_events: AtomicU64,
    trace_dropped: AtomicU64,
    deadline_kills: AtomicU64,
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
        let mut registry = MetricsRegistry::new();
        let queue_gauges = QueueGauges::register(&mut registry, "service.queue");
        let utilization = Utilization::register(&mut registry, "service.workers");
        let inner = Arc::new(Inner {
            queue: BoundedQueue::new(config.queue_capacity),
            config,
            faults,
            jobs: Mutex::new(JobsTable::default()),
            jobs_cv: Condvar::new(),
            metrics: Mutex::new(ServiceMetrics {
                registry,
                queue: queue_gauges,
                workers: utilization,
            }),
            merged: Mutex::new(MetricsSnapshot::default()),
            cost: Mutex::new(MetricsSnapshot::default()),
            recorder: Mutex::new(FlightRecorder::new(1 << 12)),
            epoch: Instant::now(),
            workers: Mutex::new(HashMap::new()),
            retired: Mutex::new(Vec::new()),
            stop_supervisor: AtomicBool::new(false),
            next_worker: AtomicU64::new(0),
            next_token: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            live_workers: AtomicU64::new(0),
            workers_spawned: AtomicU64::new(0),
            workers_replaced: AtomicU64::new(0),
            trace_events: AtomicU64::new(0),
            trace_dropped: AtomicU64::new(0),
            deadline_kills: AtomicU64::new(0),
        });
        for _ in 0..inner.config.workers.max(1) {
            Inner::spawn_worker(&inner);
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
        let table = self.inner.jobs.lock().expect("jobs poisoned");
        table.entries.get(id as usize).map(|e| JobEntry::view(e, id))
    }

    /// Blocks until job `id` reaches a terminal state and returns it.
    ///
    /// # Panics
    ///
    /// Panics on an unknown job id.
    pub fn wait(&self, id: u64) -> JobView {
        let mut table = self.inner.jobs.lock().expect("jobs poisoned");
        loop {
            let entry = table.entries.get(id as usize).expect("unknown job id");
            if entry.status.is_terminal() {
                return JobEntry::view(entry, id);
            }
            table = self.inner.jobs_cv.wait(table).expect("jobs poisoned");
        }
    }

    /// Blocks until every submitted job is terminal (the queue is empty
    /// and no job is running).
    pub fn drain(&self) {
        let mut table = self.inner.jobs.lock().expect("jobs poisoned");
        while !table.entries.iter().all(|e| e.status.is_terminal()) {
            table = self.inner.jobs_cv.wait(table).expect("jobs poisoned");
        }
    }

    /// A point-in-time stats snapshot.
    pub fn stats(&self) -> ServiceStats {
        self.inner.stats()
    }

    /// The configured queue capacity (the backpressure boundary).
    pub fn queue_capacity(&self) -> usize {
        self.inner.queue.capacity()
    }

    /// The service-level metrics registry snapshot (queue gauges, worker
    /// utilization). Wall-clock fields are human-facing only.
    pub fn service_metrics(&self) -> MetricsSnapshot {
        self.inner.metrics.lock().expect("metrics poisoned").registry.snapshot()
    }

    /// The live telemetry snapshot behind `Request::Metrics`: the
    /// deterministic merged report metrics, the wall-clock cost channel
    /// (phase latencies, plugin dispatches), and the service registry
    /// (queue gauges, worker utilization), folded into one snapshot. The
    /// three namespaces are disjoint, so the fold is lossless.
    pub fn telemetry_metrics(&self) -> MetricsSnapshot {
        let mut snapshot = self.inner.merged.lock().expect("merged poisoned").clone();
        snapshot.merge(&self.inner.cost.lock().expect("cost poisoned"));
        snapshot.merge(&self.service_metrics());
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
        let rec = self.inner.recorder.lock().expect("recorder poisoned");
        (rec.tail(n), rec.dropped())
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
        if cancel_queued {
            // Mark still-queued jobs cancelled *before* closing: workers
            // popping them observe the terminal state and skip. This keeps
            // the cancel set exact (no race with the drain).
            let mut table = self.inner.jobs.lock().expect("jobs poisoned");
            for entry in table.entries.iter_mut() {
                if matches!(entry.status, JobStatus::Queued) {
                    entry.status = JobStatus::Failed(JobFailure::new(
                        FailureKind::Cancelled,
                        "service shut down before the job ran",
                    ));
                    self.inner.cancelled.fetch_add(1, Ordering::Relaxed);
                    self.inner.failed.fetch_add(1, Ordering::Relaxed);
                }
            }
            self.inner.jobs_cv.notify_all();
        }
        self.inner.queue.close();
        // Join workers until the table stays empty (panic replacements may
        // appear while joining; after close they exit immediately).
        loop {
            let handles: Vec<JoinHandle<()>> = {
                let mut workers = self.inner.workers.lock().expect("workers poisoned");
                workers.drain().map(|(_, h)| h).collect()
            };
            if handles.is_empty() {
                break;
            }
            for handle in handles {
                let _ = handle.join();
            }
        }
        self.inner.stop_supervisor.store(true, Ordering::SeqCst);
        let supervisor = self.supervisor.lock().expect("supervisor poisoned").take();
        if let Some(handle) = supervisor {
            let _ = handle.join();
        }
        self.inner.stats()
    }
}

impl JobEntry {
    fn view(entry: &JobEntry, id: u64) -> JobView {
        JobView { id, label: entry.label.clone(), status: entry.status.clone() }
    }
}

impl Inner {
    fn admit(&self, spec: JobSpec, block: bool) -> Result<u64, SubmitError> {
        loop {
            {
                // Id reservation and push happen under the jobs lock so the
                // entry exists before any worker can claim the popped id.
                // Only the *non-blocking* push runs under the lock — a
                // blocking push here would deadlock against workers that
                // need the lock to drain the queue.
                let mut table = self.jobs.lock().expect("jobs poisoned");
                let id = table.entries.len() as u64;
                match self.queue.try_push(id) {
                    Ok(()) => {
                        table.entries.push(JobEntry {
                            label: spec.label(),
                            spec,
                            status: JobStatus::Queued,
                            claim: None,
                            submitted: Instant::now(),
                        });
                        drop(table);
                        self.submitted.fetch_add(1, Ordering::Relaxed);
                        self.observe_queue_depth();
                        return Ok(id);
                    }
                    Err(PushError::Closed) => return Err(SubmitError::ShuttingDown),
                    Err(PushError::Full) if !block => {
                        drop(table);
                        self.rejected.fetch_add(1, Ordering::Relaxed);
                        self.trace_instant("submit-rejected");
                        return Err(SubmitError::QueueFull);
                    }
                    Err(PushError::Full) => {}
                }
            }
            if !self.queue.wait_space() {
                return Err(SubmitError::ShuttingDown);
            }
        }
    }

    fn observe_queue_depth(&self) {
        let depth = self.queue.len() as u64;
        let mut m = self.metrics.lock().expect("metrics poisoned");
        let gauges = m.queue;
        gauges.observe_depth(&mut m.registry, depth);
    }

    fn record_utilization(&self, busy: Duration) {
        let mut m = self.metrics.lock().expect("metrics poisoned");
        let workers = m.workers;
        workers.record_job(&mut m.registry, busy);
    }

    fn is_retired(&self, worker: u64) -> bool {
        self.retired.lock().expect("retired poisoned").contains(&worker)
    }

    fn spawn_worker(inner: &Arc<Inner>) -> u64 {
        let worker_id = inner.next_worker.fetch_add(1, Ordering::SeqCst);
        inner.live_workers.fetch_add(1, Ordering::SeqCst);
        inner.workers_spawned.fetch_add(1, Ordering::Relaxed);
        let for_thread = Arc::clone(inner);
        let handle = thread::spawn(move || worker_loop(&for_thread, worker_id));
        inner.workers.lock().expect("workers poisoned").insert(worker_id, handle);
        worker_id
    }

    /// Claims the next execution attempt on `id`. Returns `None` when the
    /// job is already terminal (e.g. cancelled while queued). The third
    /// element is how long the job sat queued — its `queue_wait` phase.
    fn claim(&self, id: u64, worker: u64) -> Option<(u64, JobSpec, Duration)> {
        let mut table = self.jobs.lock().expect("jobs poisoned");
        let entry = table.entries.get_mut(id as usize)?;
        if entry.status.is_terminal() {
            return None;
        }
        let token = self.next_token.fetch_add(1, Ordering::SeqCst);
        entry.status = JobStatus::Running;
        entry.claim = Some(token);
        let spec = entry.spec.clone();
        let queue_wait = entry.submitted.elapsed();
        table.running.insert(id, RunningJob { token, worker, started: Instant::now() });
        Some((token, spec, queue_wait))
    }

    /// Publishes a terminal status for the attempt holding `token`.
    /// Returns `false` (dropping the result) when the claim is stale —
    /// the supervisor already failed the job and moved on.
    fn publish(&self, id: u64, token: u64, status: JobStatus) -> bool {
        let mut table = self.jobs.lock().expect("jobs poisoned");
        match table.running.get(&id) {
            Some(run) if run.token == token => {}
            _ => return false,
        }
        table.running.remove(&id);
        let entry = &mut table.entries[id as usize];
        entry.claim = None;
        match &status {
            JobStatus::Done(_) => {
                self.completed.fetch_add(1, Ordering::Relaxed);
            }
            JobStatus::Failed(_) => {
                self.failed.fetch_add(1, Ordering::Relaxed);
            }
            JobStatus::Queued | JobStatus::Running => unreachable!("publish is terminal-only"),
        }
        entry.status = status;
        self.jobs_cv.notify_all();
        true
    }

    /// Validates and publishes a successful result; a result whose report
    /// fails validation is converted into a `corrupt-report` failure (this
    /// is the server-side check [`Fault::CorruptReport`] exercises).
    fn publish_result(&self, id: u64, token: u64, result: JobResult) -> bool {
        if let Err(err) = JsonValue::parse(&result.report_json) {
            return self.publish(
                id,
                token,
                JobStatus::Failed(JobFailure::new(
                    FailureKind::CorruptReport,
                    format!("report failed validation: {err}"),
                )),
            );
        }
        self.trace_events.fetch_add(result.trace_events, Ordering::Relaxed);
        self.trace_dropped.fetch_add(result.trace_dropped, Ordering::Relaxed);
        self.merged.lock().expect("merged poisoned").merge(&result.metrics);
        self.cost.lock().expect("cost poisoned").merge(&result.cost);
        self.publish(id, token, JobStatus::Done(result))
    }

    fn trace_span(&self, worker: u64, label: &str, begin: bool) {
        let ts = self.epoch.elapsed().as_micros() as u64;
        let mut rec = self.recorder.lock().expect("recorder poisoned");
        let ev = if begin {
            TraceEvent::begin(ts, 1, worker as u32, TraceCategory::Service, label)
        } else {
            TraceEvent::end(ts, 1, worker as u32, TraceCategory::Service, label)
        };
        rec.record(ev);
    }

    fn trace_instant(&self, label: &str) {
        let ts = self.epoch.elapsed().as_micros() as u64;
        let mut rec = self.recorder.lock().expect("recorder poisoned");
        rec.record(TraceEvent::instant(ts, 1, 0, TraceCategory::Service, label));
    }

    /// Retires a worker (stalled past the deadline, or exiting after a
    /// caught job panic) and spawns a replacement. Idempotent per worker:
    /// the supervisor and the worker's own panic path can race here, and
    /// exactly one of them wins — so the live count drops exactly once and
    /// exactly one replacement joins the pool.
    fn retire_and_replace(inner: &Arc<Inner>, worker: u64) {
        {
            let mut retired = inner.retired.lock().expect("retired poisoned");
            if retired.contains(&worker) {
                return;
            }
            retired.push(worker);
        }
        // Detach the handle: a stalled thread is not joinable on any
        // useful timescale (its claim token is already dead), and a
        // panicking one is about to exit anyway.
        inner.workers.lock().expect("workers poisoned").remove(&worker);
        inner.live_workers.fetch_sub(1, Ordering::SeqCst);
        inner.workers_replaced.fetch_add(1, Ordering::Relaxed);
        if !inner.queue.is_closed() {
            Inner::spawn_worker(inner);
        }
    }

    fn stats(&self) -> ServiceStats {
        let (depth, high_water, jobs_executed, busy_ns) = {
            let m = self.metrics.lock().expect("metrics poisoned");
            let (depth, high) = m.queue.read(&m.registry);
            let (jobs, busy) = m.workers.read(&m.registry);
            (depth, high, jobs, busy)
        };
        // The gauge lags the queue between observe points; report the live
        // depth and keep the gauge's high-water.
        let _ = depth;
        ServiceStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            queue_depth: self.queue.len() as u64,
            queue_high_water: high_water.max(self.queue.high_water() as u64),
            live_workers: self.live_workers.load(Ordering::SeqCst),
            workers_spawned: self.workers_spawned.load(Ordering::Relaxed),
            workers_replaced: self.workers_replaced.load(Ordering::Relaxed),
            jobs_executed,
            busy_ns,
            trace_events: self.trace_events.load(Ordering::Relaxed),
            trace_dropped: self.trace_dropped.load(Ordering::Relaxed),
            deadline_kills: self.deadline_kills.load(Ordering::Relaxed),
            merged: self.merged.lock().expect("merged poisoned").clone(),
            cost: self.cost.lock().expect("cost poisoned").clone(),
        }
    }
}

fn worker_loop(inner: &Arc<Inner>, worker_id: u64) {
    loop {
        if inner.is_retired(worker_id) {
            break;
        }
        let Some(job_id) = inner.queue.pop() else { break };
        inner.observe_queue_depth();
        let Some((token, spec, queue_wait)) = inner.claim(job_id, worker_id) else { continue };
        let label = format!("job-{job_id}");
        inner.trace_span(worker_id, &label, true);
        let started = Instant::now();
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            execute_job(inner, job_id, &spec, queue_wait)
        }));
        let busy = started.elapsed();
        inner.record_utilization(busy);
        inner.trace_span(worker_id, &label, false);
        match outcome {
            Ok(Ok(result)) => {
                inner.publish_result(job_id, token, result);
            }
            Ok(Err(failure)) => {
                inner.publish(job_id, token, JobStatus::Failed(failure));
            }
            Err(payload) => {
                let msg = fault::payload_message(payload.as_ref());
                inner.publish(
                    job_id,
                    token,
                    JobStatus::Failed(JobFailure::new(FailureKind::WorkerPanic, msg)),
                );
                Inner::retire_and_replace(inner, worker_id);
                return;
            }
        }
    }
    if !inner.is_retired(worker_id) {
        // Retired workers were already counted out by the supervisor.
        inner.live_workers.fetch_sub(1, Ordering::SeqCst);
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
    while !inner.stop_supervisor.load(Ordering::SeqCst) {
        thread::sleep(tick);
        let expired: Vec<(u64, u64)> = {
            let table = inner.jobs.lock().expect("jobs poisoned");
            table
                .running
                .iter()
                .filter(|(_, run)| run.started.elapsed() > deadline)
                .map(|(&job, run)| (job, run.worker))
                .collect()
        };
        for (job_id, worker) in expired {
            let failed = inner.publish(
                job_id,
                inner_token_of(inner, job_id).unwrap_or(u64::MAX),
                JobStatus::Failed(JobFailure::new(
                    FailureKind::DeadlineExceeded,
                    format!("exceeded the per-job deadline of {deadline:?}"),
                )),
            );
            if failed {
                inner.deadline_kills.fetch_add(1, Ordering::Relaxed);
                inner.trace_instant("deadline-exceeded");
                Inner::retire_and_replace(inner, worker);
            }
        }
    }
}

/// The claim token currently attached to `job_id`, if it is running.
fn inner_token_of(inner: &Inner, job_id: u64) -> Option<u64> {
    let table = inner.jobs.lock().expect("jobs poisoned");
    table.running.get(&job_id).map(|run| run.token)
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
