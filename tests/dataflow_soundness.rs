//! The VSA soundness differential check.
//!
//! The static dataflow engine claims, for every indirect call/jump site it
//! resolves, a *complete* target set ("soundly coarse": the enumeration
//! over-approximates). The replay side records the target every indirect
//! branch actually took ([`CfiMonitor`]'s `call reg` / `jmp reg` sites in
//! [`ProcessTransfers`](faros_repro::replay::ProcessTransfers)), so the
//! claim is testable: across the whole corpus, no dynamically observed
//! target at a resolved site may fall outside the statically resolved
//! set. FDL images are position-dependent, so static VAs and runtime VAs
//! coincide and the comparison is exact.
//!
//! Sites the engine leaves unresolved, and sites in dynamically
//! materialized code (no static model exists), make no claim and are
//! skipped.

use faros_repro::analyze;
use faros_repro::corpus::sample_registry;
use faros_repro::replay::{record, replay, CfiMonitor, Scenario as _, TransferKind};

const BUDGET: u64 = 20_000_000;

#[test]
fn observed_indirect_targets_are_contained_in_resolved_sets() {
    let mut sites_checked = 0usize;
    let mut targets_checked = 0usize;
    for sample in sample_registry() {
        let (recording, _) = record(&sample.scenario, BUDGET).unwrap();
        let mut monitor = CfiMonitor::new();
        replay(&sample.scenario, &recording, BUDGET, &mut monitor).unwrap();
        let models = analyze::model_map(
            sample.scenario.programs().iter().map(|(p, i)| (p.as_str(), i.clone())),
        );
        for proc in monitor.into_processes() {
            for (site, observed) in &proc.seen {
                if observed.kind == TransferKind::Return {
                    continue;
                }
                // The site must be inside a statically modeled image
                // (injected code has no model) ...
                let Some(model) = models.values().find(|m| m.image.is_code_va(*site)) else {
                    continue;
                };
                // ... and the engine must have claimed a target set.
                let Some(resolved) = model.dataflow.cfg.resolved_targets.get(site) else {
                    continue;
                };
                sites_checked += 1;
                for t in &observed.targets {
                    targets_checked += 1;
                    assert!(
                        resolved.contains(t),
                        "{}: site {site:#010x} branched to {t:#010x}, outside the \
                         statically resolved set {resolved:x?} — the VSA is unsound here",
                        sample.scenario.name(),
                    );
                }
            }
        }
    }
    // The check is vacuous if nothing was compared; keep a floor so a
    // regression that stops resolving (or stops recording) sites fails
    // loudly instead of silently passing.
    assert!(
        sites_checked >= 10,
        "expected >=10 dynamically exercised resolved sites across the corpus, \
         got {sites_checked} ({targets_checked} targets)"
    );
}
