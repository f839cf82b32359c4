//! Registry sanity: every sample has a unique name, builds, and carries a
//! coherent ground-truth label — the contract the CLI and bench harness
//! rely on.

use faros_corpus::{find_sample, sample_registry, Category, Sample};
use faros_kernel::event::NullObserver;
use faros_kernel::net::NetworkFabric;
use faros_replay::Scenario as _;
use std::collections::HashSet;

#[test]
fn names_are_unique_and_lookup_works() {
    let samples = sample_registry();
    assert!(samples.len() >= 140, "{}", samples.len());
    let mut seen = HashSet::new();
    for s in &samples {
        assert!(seen.insert(s.name().to_string()), "duplicate name {}", s.name());
    }
    assert!(find_sample("reflective_dll_inject").is_some());
    assert!(find_sample("jit_pulleysystem").is_some());
    assert!(find_sample("taint_bomb").is_some());
    assert!(find_sample("no_such_sample").is_none());
}

/// The registry behind `find_sample` is shared by service worker threads,
/// so `Sample` must stay `Send + Sync` (this fails to compile otherwise).
fn assert_sync<T: Send + Sync>() {}
const _: fn() = assert_sync::<Sample>;

#[test]
fn lookup_returns_the_one_registry_entry() {
    let first = find_sample("process_hollowing").expect("registry sample");
    let second = find_sample("process_hollowing").expect("registry sample");
    assert!(std::ptr::eq(first, second), "find_sample rebuilt the registry");
}

#[test]
fn category_counts_are_coherent() {
    let samples = sample_registry();
    let injecting = samples.iter().filter(|s| s.category.should_flag()).count();
    let jit = samples.iter().filter(|s| s.category == Category::Jit).count();
    // 9 mainline attacks + laundered + tainted-function-pointer
    // + capability-laundering = 12.
    assert_eq!(injecting, 12, "injecting samples");
    assert_eq!(jit, 20, "Table III workloads");
    let negatives = samples.len() - injecting;
    assert!(negatives >= 124, "FP dataset + benign + demos: {negatives}");
}

#[test]
fn every_registered_sample_builds() {
    // Building is cheap (no execution); a sample that cannot build would
    // poison the CLI and harness.
    for sample in sample_registry() {
        let fabric = NetworkFabric::new_live(sample.scenario.guest_ip());
        sample
            .scenario
            .build(fabric, &mut NullObserver)
            .unwrap_or_else(|e| panic!("{}: {e}", sample.name()));
    }
}
