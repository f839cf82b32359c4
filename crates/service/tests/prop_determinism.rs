//! Determinism property: the service's parallel reports are byte-identical
//! to sequential pipeline runs.
//!
//! A 30-scenario corpus (the 9 injecting attacks + 21 Table IV family
//! variants) is recorded once, analyzed sequentially through
//! `faros::analyze_recording` (the baseline bytes), then submitted to
//! services at 1, 4, and 16 workers — each time in a differently shuffled
//! order under a pinned seed. Every worker-count/order combination must
//! reproduce the sequential report bytes exactly, and the merged metrics
//! (an order-independent fold) must be identical across all runs.

use faros::AnalysisConfig;
use faros_obs::metrics::MetricsSnapshot;
use faros_replay::{record, Recording};
use faros_service::{Detonator, JobSpec, JobStatus, ServiceConfig};
use faros_support::prop::Rng;
use std::collections::HashMap;

/// The 30-scenario corpus, by registry name: all 9 injecting samples plus
/// the first 21 entries of the Table IV false-positive dataset.
fn corpus_names() -> Vec<String> {
    let mut names: Vec<String> = faros_corpus::attacks::all_injecting_samples()
        .iter()
        .map(|s| s.name().to_string())
        .collect();
    names.extend(
        faros_corpus::families::fp_dataset().iter().take(21).map(|s| s.name().to_string()),
    );
    assert_eq!(names.len(), 30, "the determinism corpus is pinned at 30 scenarios");
    names
}

fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

#[test]
fn parallel_reports_are_byte_identical_to_sequential() {
    let cfg = AnalysisConfig::default();
    let names = corpus_names();

    // Record each scenario once; every run (sequential and service) then
    // analyzes the *same* recording bytes.
    let mut recordings: Vec<(String, Recording)> = Vec::new();
    let mut baseline: HashMap<String, String> = HashMap::new();
    let mut sequential_fold = MetricsSnapshot::default();
    for name in &names {
        let sample = faros_corpus::find_sample(name).expect("corpus name resolves");
        let (recording, _) = record(&sample.scenario, cfg.budget).expect("record");
        let job = faros::analyze_recording(&sample.scenario, &recording, &cfg).expect("analyze");
        baseline.insert(name.clone(), job.report.to_json().expect("report json"));
        sequential_fold.merge(&job.report.metrics);
        recordings.push((name.clone(), recording));
    }

    let mut merged_reference = None;
    for (workers, seed) in [(1usize, 11u64), (4, 22), (16, 33)] {
        let mut order: Vec<usize> = (0..recordings.len()).collect();
        let mut rng = Rng::new(seed);
        shuffle(&mut order, &mut rng);

        let svc = Detonator::start(ServiceConfig {
            workers,
            queue_capacity: recordings.len(),
            ..ServiceConfig::default()
        });
        let mut submitted: Vec<(u64, &str)> = Vec::new();
        for &idx in &order {
            let (name, recording) = &recordings[idx];
            let id = svc
                .submit_wait(JobSpec::Recording { json: recording.to_json().unwrap() })
                .expect("admit");
            submitted.push((id, name));
        }
        svc.drain();
        for (id, name) in submitted {
            let view = svc.wait(id);
            let result = match view.status {
                JobStatus::Done(r) => r,
                other => panic!("{name} must complete at {workers} workers, got {other:?}"),
            };
            assert_eq!(
                &result.report_json, &baseline[name],
                "{name}: report bytes at {workers} workers differ from the sequential run"
            );
        }
        let stats = svc.shutdown();
        assert_eq!(stats.completed, recordings.len() as u64);
        assert_eq!(stats.failed, 0);
        // Every admitted job ran exactly once.
        assert_eq!(stats.jobs_executed, stats.submitted);
        // The merged metrics fold is order-independent, so every worker
        // count and submission order lands on the same snapshot — and that
        // snapshot must equal the sequential fold of the per-report
        // metrics, not just agree between service runs.
        assert_eq!(
            stats.merged, sequential_fold,
            "merged metrics at {workers} workers diverged from the sequential fold"
        );
        match &merged_reference {
            None => merged_reference = Some(stats.merged),
            Some(reference) => assert_eq!(
                &stats.merged, reference,
                "merged metrics at {workers} workers diverged"
            ),
        }
    }
}

/// Profiler determinism: with `profile` enabled, the `ProfileReport`
/// section (and its collapsed-stack export) is a pure function of the
/// recording — repeated replays produce byte-identical output, and
/// service workers at any parallelism reproduce the sequential bytes.
#[test]
fn profiled_reports_and_folded_stacks_are_deterministic() {
    let cfg = AnalysisConfig { profile: true, ..AnalysisConfig::default() };
    let samples: Vec<_> = faros_corpus::attacks::all_injecting_samples()
        .into_iter()
        .take(4)
        .collect();

    let mut recordings: Vec<(String, Recording)> = Vec::new();
    let mut baseline: HashMap<String, String> = HashMap::new();
    for sample in &samples {
        let name = sample.name().to_string();
        let (recording, _) = record(&sample.scenario, cfg.budget).expect("record");

        let first =
            faros::analyze_recording(&sample.scenario, &recording, &cfg).expect("analyze");
        let second =
            faros::analyze_recording(&sample.scenario, &recording, &cfg).expect("analyze");
        assert!(
            !first.report.profile.is_empty(),
            "{name}: the profiler must attribute retired instructions"
        );
        assert_eq!(
            first.report.profile.folded(),
            second.report.profile.folded(),
            "{name}: collapsed stacks differ between replays of one recording"
        );
        let report_json = first.report.to_json().expect("report json");
        assert_eq!(
            report_json,
            second.report.to_json().expect("report json"),
            "{name}: profiled report bytes differ between replays"
        );
        baseline.insert(name.clone(), report_json);
        recordings.push((name, recording));
    }

    for workers in [1usize, 4] {
        let svc = Detonator::start(ServiceConfig {
            workers,
            queue_capacity: recordings.len(),
            analysis: cfg.clone(),
            ..ServiceConfig::default()
        });
        let ids: Vec<(u64, &str)> = recordings
            .iter()
            .map(|(name, recording)| {
                let id = svc
                    .submit_wait(JobSpec::Recording { json: recording.to_json().unwrap() })
                    .expect("admit");
                (id, name.as_str())
            })
            .collect();
        svc.drain();
        for (id, name) in ids {
            match svc.wait(id).status {
                JobStatus::Done(result) => assert_eq!(
                    &result.report_json, &baseline[name],
                    "{name}: profiled report bytes at {workers} workers differ from sequential"
                ),
                other => panic!("{name} must complete, got {other:?}"),
            }
        }
        svc.shutdown();
    }
}
