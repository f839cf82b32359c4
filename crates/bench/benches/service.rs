//! Detonation-service benchmarks: batch throughput at 1, 4, and 16
//! workers, plus the framed protocol's encode/decode cost.
//!
//! Runs on the in-tree harness (`faros_support::bench`); set
//! `FAROS_BENCH_WRITE=<dir>` to emit `BENCH_service.json`, which
//! `faros-cli service-gate` then checks for worker scaling. The gate is
//! core-count-aware — on a single-core runner the 4-worker batch cannot
//! beat the 1-worker batch, and the gate only demands real speedup when
//! the machine can physically provide it.
//!
//! Workers resolve jobs against the corpus registry, which
//! `faros_corpus::find_sample` builds once per process, on first use. In
//! a fresh service process the first batch pays that one-time build. Here
//! the setup lookup of the shared recording below comes first and pays
//! it, so every measured batch sees the built registry.
//!
//! ## The workers_4 > workers_1 "inversion"
//!
//! On a 1-core runner the checked-in numbers show the 4-worker batch
//! *slower* than the 1-worker batch (e.g. 171 ms vs 124 ms median). That
//! is not queue contention: the per-benchmark breakdown emitted here
//! (`queue_wait_sum_ns` vs `worker_busy_sum_ns`, next to the top-level
//! `cores` count) shows the summed queue wait staying roughly flat from
//! 1 to 4 workers while the summed *on-worker busy time* inflates about
//! five-fold — four threads time-slicing one core re-run the same
//! instructions plus OS context-switch and cache-eviction overhead.
//! The slowdown lives in execution, not in the queue; the fix is more
//! cores, not a different scheduler, and `service-gate` already prices
//! this in via its core-count-aware floor.

use faros_replay::record;
use faros_service::{Detonator, JobSpec, JobStatus, Request, ServiceConfig};
use faros_support::bench::BenchGroup;
use faros_support::bench_main;
use faros_support::json::ToJson;
use std::sync::{Arc, Mutex};

/// Jobs per measured batch: enough that 16 workers each get one.
const BATCH: usize = 16;

fn bench_service() {
    let mut group = BenchGroup::new("service");
    group.sample_size(10);

    // One small benign recording, shared by every job in the batch: the
    // bench measures the scheduler + pipeline, not corpus variety.
    let sample = faros_corpus::find_sample("teamviewer_v209").expect("corpus sample");
    let (recording, _) = record(&sample.scenario, 20_000_000).expect("record");
    let recording_json = recording.to_json().expect("recording json");

    for workers in [1usize, 4, 16] {
        let json = recording_json.clone();
        // Queue-wait vs worker-busy breakdown from the last measured batch:
        // the diagnosis channel for the single-core scaling inversion (see
        // the module docs).
        let probe = Arc::new(Mutex::new((0u64, 0u64)));
        let probe_in = Arc::clone(&probe);
        group.bench_function(format!("detonate_batch/workers_{workers}"), move |b| {
            b.iter(|| {
                let svc = Detonator::start(ServiceConfig {
                    workers,
                    queue_capacity: BATCH,
                    ..ServiceConfig::default()
                });
                let ids: Vec<u64> = (0..BATCH)
                    .map(|_| {
                        svc.submit_wait(JobSpec::Recording { json: json.clone() })
                            .expect("admit")
                    })
                    .collect();
                svc.drain();
                let mut flagged = 0u64;
                for id in ids {
                    match svc.wait(id).status {
                        JobStatus::Done(r) => flagged += u64::from(r.flagged),
                        other => panic!("bench job must complete, got {other:?}"),
                    }
                }
                let stats = svc.shutdown();
                assert_eq!(stats.completed, BATCH as u64);
                let queue_wait =
                    stats.cost.histogram("phase.queue_wait_ns").map_or(0, |h| h.sum);
                *probe_in.lock().expect("probe") = (queue_wait, stats.busy_ns);
                (stats.merged, flagged)
            })
        });
        let (queue_wait_sum_ns, worker_busy_sum_ns) = *probe.lock().expect("probe");
        group.annotate("queue_wait_sum_ns", queue_wait_sum_ns);
        group.annotate("worker_busy_sum_ns", worker_busy_sum_ns);
    }

    // Protocol cost in isolation: encode + decode one submit request
    // carrying the full recording payload.
    let submit = Request::Submit(JobSpec::Recording { json: recording_json.clone() });
    let encoded = submit.to_json_value().to_compact();
    group.bench_function("protocol/submit_roundtrip", move |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(encoded.len() + 4);
            faros_service::write_frame(&mut buf, &encoded).expect("frame");
            let mut cursor = &buf[..];
            let payload = faros_service::read_frame(&mut cursor)
                .expect("read")
                .expect("one frame");
            faros_service::protocol::decode_request(&payload).expect("decode");
            buf.len()
        })
    });

    group.finish();
}

bench_main!(bench_service);
