//! End-to-end service tests over the Unix socket: submit/wait/stats
//! round-trips, hostile framing, and shutdown semantics; plus the
//! in-process queue contract (drain on shutdown, blocking admission).

use faros_service::protocol::{read_frame, write_frame, FrameError, Request, Response, MAX_FRAME};
use faros_service::server::{serve, Client};
use faros_service::{
    Detonator, Fault, FaultPlan, JobSpec, JobStatus, ServiceConfig, SubmitError,
};
use faros_support::json::ToJson;
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

fn socket_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("faros-service-tests");
    std::fs::create_dir_all(&dir).expect("socket dir");
    dir.join(format!("{tag}-{}.sock", std::process::id()))
}

fn config() -> ServiceConfig {
    ServiceConfig { workers: 2, queue_capacity: 16, ..ServiceConfig::default() }
}

#[test]
fn submit_wait_stats_shutdown_over_the_socket() {
    let path = socket_path("basic");
    let server = serve(&path, config()).expect("bind");
    let mut client = Client::connect(&path).expect("connect");
    client.ping().expect("ping");

    let id = client
        .submit(JobSpec::Scenario { name: "process_hollowing".into() })
        .expect("protocol")
        .expect("admitted");
    let view = client.wait(id).expect("wait");
    let result = match view.status {
        JobStatus::Done(r) => r,
        other => panic!("hollowing must complete, got {other:?}"),
    };
    assert!(result.flagged, "process hollowing must be flagged");
    assert!(result.report_json.contains("detections"));

    let benign = client
        .submit(JobSpec::Scenario { name: "teamviewer_v209".into() })
        .expect("protocol")
        .expect("admitted");
    let view = client.wait(benign).expect("wait");
    match view.status {
        JobStatus::Done(r) => assert!(!r.flagged, "teamviewer must stay clean"),
        other => panic!("benign job must complete, got {other:?}"),
    }

    let stats = client.stats().expect("stats");
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.live_workers, 2);

    let finals = client.shutdown(true).expect("shutdown");
    assert_eq!(finals.completed, 2);
    assert_eq!(finals.queue_depth, 0);
    server.join();
    assert!(!path.exists(), "socket file removed on shutdown");
}

#[test]
fn unknown_ids_and_unknown_scenarios_are_structured() {
    let path = socket_path("unknown");
    let server = serve(&path, config()).expect("bind");
    let mut client = Client::connect(&path).expect("connect");

    match client.request(&Request::Status { id: 42 }).expect("protocol") {
        Response::UnknownJob { id: 42 } => {}
        other => panic!("expected unknown-job, got {other:?}"),
    }
    match client.request(&Request::Wait { id: 7 }).expect("protocol") {
        Response::UnknownJob { id: 7 } => {}
        other => panic!("expected unknown-job, got {other:?}"),
    }
    let id = client
        .submit(JobSpec::Scenario { name: "definitely_not_a_scenario".into() })
        .expect("protocol")
        .expect("admitted — validation happens at execution");
    let view = client.wait(id).expect("wait");
    assert!(
        matches!(view.status, JobStatus::Failed(ref f) if f.detail.contains("unknown scenario")),
        "got {:?}",
        view.status
    );
    server.stop();
}

#[test]
fn hostile_framing_never_kills_the_server_or_a_worker() {
    let path = socket_path("hostile");
    let server = serve(&path, config()).expect("bind");

    // 1. Valid frame, garbage JSON payload: structured error, connection
    //    stays usable.
    let mut stream = UnixStream::connect(&path).expect("connect");
    write_frame(&mut stream, "this is not json {{{").expect("write");
    match read_frame(&mut stream).expect("read").as_deref() {
        Some(payload) => assert!(payload.contains("error"), "got {payload}"),
        None => panic!("server must answer garbage with an error frame"),
    }
    write_frame(&mut stream, &Request::Ping.to_json_value().to_compact()).expect("write");
    let pong = read_frame(&mut stream).expect("read").expect("pong frame");
    assert!(pong.contains("pong"), "connection survives a malformed request: {pong}");

    // 2. Oversized length prefix: refused before allocation, structured
    //    error, connection closed.
    let mut stream = UnixStream::connect(&path).expect("connect");
    stream.write_all(&(MAX_FRAME + 1).to_le_bytes()).expect("write");
    stream.write_all(b"boom").expect("write");
    let err = read_frame(&mut stream).expect("read").expect("error frame");
    assert!(err.contains("exceeds"), "got {err}");
    // The connection is torn down. With the trailing garbage still unread
    // on the server side the kernel may reset instead of delivering a
    // graceful EOF — both count as closed.
    match read_frame(&mut stream) {
        Ok(None) => {}
        Err(FrameError::Io(e)) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("connection must be closed, got {other:?}"),
    }

    // 3. Truncated frame: declare 100 bytes, send 3, hang up.
    let mut stream = UnixStream::connect(&path).expect("connect");
    stream.write_all(&100u32.to_le_bytes()).expect("write");
    stream.write_all(b"abc").expect("write");
    stream.shutdown(std::net::Shutdown::Write).expect("half-close");
    let err = read_frame(&mut stream).expect("read").expect("error frame");
    assert!(err.contains("truncated"), "got {err}");

    // 4. A frame that *is* valid JSON but an unknown request type.
    let mut stream = UnixStream::connect(&path).expect("connect");
    write_frame(&mut stream, "{\"type\":\"warp-core\"}").expect("write");
    let err = read_frame(&mut stream).expect("read").expect("error frame");
    assert!(err.contains("unknown request type"), "got {err}");

    // After all of that: the server still works and no worker was lost.
    let mut client = Client::connect(&path).expect("connect");
    client.ping().expect("server alive");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.live_workers, 2, "hostile framing must not cost workers");
    assert_eq!(stats.workers_replaced, 0);
    let id = client
        .submit(JobSpec::Scenario { name: "teamviewer_v209".into() })
        .expect("protocol")
        .expect("admitted");
    assert!(matches!(client.wait(id).expect("wait").status, JobStatus::Done(_)));
    server.stop();
}

#[test]
fn telemetry_verbs_work_over_the_socket() {
    use faros_service::HealthStatus;

    let path = socket_path("telemetry");
    let server = serve(&path, config()).expect("bind");
    let mut client = Client::connect(&path).expect("connect");

    let id = client
        .submit(JobSpec::Scenario { name: "process_hollowing".into() })
        .expect("protocol")
        .expect("admitted");
    let view = client.wait(id).expect("wait");
    assert!(matches!(view.status, JobStatus::Done(_)));

    // Metrics: the merged fold plus the wall-clock cost channel plus the
    // service's own gauges, all in one snapshot.
    let metrics = client.metrics().expect("metrics");
    assert!(!metrics.is_empty());
    assert!(
        metrics.histogram("phase.replay_ns").is_some(),
        "per-phase latency histograms ride the telemetry snapshot"
    );
    assert!(
        metrics.counter("service.queue.submitted").is_some()
            || metrics.counters.iter().any(|(name, _)| name.starts_with("service.")),
        "service gauges ride the telemetry snapshot: {:?}",
        metrics.counters
    );

    // Health: one completed job, no drops, no replacements -> all green.
    let health = client.health().expect("health");
    assert_eq!(health.verdict, HealthStatus::Ok, "got {health:?}");
    assert!(!health.checks.is_empty());

    // Trace: the flight recorder saw the job's service-side events.
    let (events, dropped) = client.trace(8).expect("trace");
    assert!(!events.is_empty(), "the flight recorder must hold service events");
    assert!(events.len() <= 8, "tail honours the requested bound");
    assert_eq!(dropped, 0, "a 4096-slot ring does not overflow on one job");

    server.stop();
}

#[test]
fn tiny_trace_rings_report_drops_at_every_layer() {
    use faros::AnalysisConfig;
    use faros_service::HealthStatus;

    // A per-job trace ring far smaller than the event stream a detonation
    // produces: the ring overwrites, every casualty is counted, and the
    // count surfaces at every layer traces are consumed — the job result,
    // the aggregated service stats, and the health verdict.
    let analysis = AnalysisConfig {
        capture_trace: true,
        trace_capacity: 4,
        ..AnalysisConfig::default()
    };
    let svc = Detonator::start(ServiceConfig {
        workers: 1,
        queue_capacity: 4,
        analysis,
        ..ServiceConfig::default()
    });
    let id = svc
        .submit_wait(JobSpec::Scenario { name: "process_hollowing".into() })
        .expect("admit");
    let result = match svc.wait(id).status {
        JobStatus::Done(r) => r,
        other => panic!("hollowing must complete, got {other:?}"),
    };
    assert!(result.trace_dropped > 0, "a 4-slot ring must drop events");
    assert!(
        result.trace_events <= 4,
        "the ring never holds more than its capacity, got {}",
        result.trace_events
    );

    let health = svc.health();
    let trace_check = health
        .checks
        .iter()
        .find(|c| c.name == "trace")
        .expect("health reports a trace check");
    assert_eq!(trace_check.status, HealthStatus::Warn, "drops degrade the trace check");

    let stats = svc.shutdown();
    assert_eq!(
        stats.trace_dropped, result.trace_dropped,
        "aggregated drops equal the single job's drops"
    );
}

#[test]
fn submissions_after_shutdown_are_refused() {
    let path = socket_path("after-shutdown");
    let server = serve(&path, config()).expect("bind");
    let mut client = Client::connect(&path).expect("connect");
    // Drain-shutdown from a second client while the first stays connected.
    let mut closer = Client::connect(&path).expect("connect");
    closer.shutdown(true).expect("shutdown");
    match client.submit(JobSpec::Scenario { name: "teamviewer_v209".into() }) {
        Ok(Err(Response::ShuttingDown)) => {}
        Ok(Err(other)) => panic!("expected shutting-down, got {other:?}"),
        Ok(Ok(id)) => panic!("admitted job {id} after shutdown"),
        Err(e) => {
            // Also acceptable: the accept loop already tore the stream down.
            let _ = e;
        }
    }
    server.join();
}

/// Starts a one-worker service whose job 0 stalls for `stall`, submits job
/// 0 and returns once the worker is running it, so the queue is empty.
fn stalled_service(queue_capacity: usize, stall: Duration) -> Arc<Detonator> {
    let faults = Arc::new(FaultPlan::new());
    faults.set(0, Fault::Stall(stall));
    let svc = Arc::new(Detonator::start_with_faults(
        ServiceConfig { workers: 1, queue_capacity, ..ServiceConfig::default() },
        faults,
    ));
    svc.submit(hollowing()).expect("admit job 0");
    while !matches!(svc.status(0).unwrap().status, JobStatus::Running) {
        thread::sleep(Duration::from_millis(2));
    }
    svc
}

fn hollowing() -> JobSpec {
    JobSpec::Scenario { name: "process_hollowing".into() }
}

#[test]
fn shutdown_runs_the_backlog_then_refuses_new_jobs() {
    let svc = stalled_service(4, Duration::from_millis(100));
    for _ in 0..3 {
        svc.submit(hollowing()).expect("admit");
    }
    let stats = svc.shutdown();
    for id in 0..4 {
        assert!(matches!(svc.status(id).unwrap().status, JobStatus::Done(_)), "job {id}");
    }
    assert_eq!((stats.submitted, stats.completed, stats.queue_depth), (4, 4, 0));
    assert_eq!(svc.submit(hollowing()), Err(SubmitError::ShuttingDown));
}

#[test]
fn submit_wait_blocks_until_space_and_fails_on_shutdown() {
    // Job 0 holds the worker and job 1 fills the one queue slot, so a
    // third submission blocks until the worker takes job 1.
    let svc = stalled_service(1, Duration::from_millis(200));
    svc.submit(hollowing()).expect("admit job 1");
    let blocked = {
        let svc = Arc::clone(&svc);
        thread::spawn(move || svc.submit_wait(hollowing()))
    };
    thread::sleep(Duration::from_millis(20));
    assert!(!blocked.is_finished(), "submit_wait returned while the queue was full");
    assert_eq!(svc.stats().submitted, 2);
    assert_eq!(blocked.join().unwrap(), Ok(2));
    assert!(!matches!(svc.status(1).unwrap().status, JobStatus::Queued));
    svc.shutdown();

    let svc = stalled_service(1, Duration::from_millis(200));
    svc.submit(hollowing()).expect("admit job 1");
    let blocked = {
        let svc = Arc::clone(&svc);
        thread::spawn(move || svc.submit_wait(hollowing()))
    };
    thread::sleep(Duration::from_millis(20));
    assert!(!blocked.is_finished(), "submit_wait returned while the queue was full");
    let stats = svc.shutdown_now();
    assert_eq!(blocked.join().unwrap(), Err(SubmitError::ShuttingDown));
    assert_eq!((stats.submitted, stats.cancelled), (2, 1));
}
