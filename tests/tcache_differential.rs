//! Interpreter-vs-cache differential over representative corpus samples.
//!
//! The translation cache is pure mechanism: decode-once, block chaining and
//! self-modifying-code invalidation. None of it may be *policy* — for any
//! recording, the report assembled from a cached
//! replay must be byte-for-byte the report assembled from an interpreted
//! replay, across every section (taint detections, coverage diff, CFI
//! cross-check, metrics, and the deterministic profile).
//!
//! This test proves it for a representative slice: every injecting attack,
//! the self-modifying-code sample, both JIT compiler shapes, a ROP chain,
//! and a benign family variant. `faros-cli differential` extends the same
//! check to the full registry as a CI gate.

use faros::{analyze_recording, AnalysisConfig};
use faros_repro::corpus::{attacks, find_sample, Sample};
use faros_repro::kernel::machine::ExecMode;
use faros_repro::replay::{record, Scenario as _};

const BUDGET: u64 = 20_000_000;

#[test]
fn cached_and_interpreted_reports_are_byte_identical() {
    let injecting = attacks::all_injecting_samples();
    let mut samples: Vec<&Sample> = injecting.iter().collect();
    for name in [
        "smc_patch_loop",
        "jit_pulleysystem", // copy-and-patch JIT (flagged FP class)
        "jit_gmail_com",    // template JIT (clean)
        "rop_pivot_chain",
        "laundered_reflective",
    ] {
        if let Some(s) = find_sample(name) {
            samples.push(s);
        } else {
            panic!("corpus sample {name} disappeared");
        }
    }

    for sample in samples {
        let (recording, _) = record(&sample.scenario, BUDGET).unwrap();
        let mut jsons = Vec::new();
        for exec in [ExecMode::Cached, ExecMode::Interpret] {
            let cfg = AnalysisConfig { profile: true, exec, ..AnalysisConfig::default() };
            let job = analyze_recording(&sample.scenario, &recording, &cfg).unwrap();
            jsons.push((exec, job.instructions, job.report.to_json().unwrap()));
        }
        let (_, cached_insns, cached_json) = &jsons[0];
        let (_, interp_insns, interp_json) = &jsons[1];
        assert_eq!(
            cached_insns,
            interp_insns,
            "{}: retired-instruction parity",
            sample.scenario.name()
        );
        assert_eq!(
            cached_json,
            interp_json,
            "{}: cached and interpreted reports diverged",
            sample.scenario.name()
        );
    }
}
