//! Pins for the one-model-per-image job pipeline.
//!
//! Every cross-check of a detonation job reads the same
//! [`analyze::ImageModel`], whose CFG carries the VSA-resolved indirect
//! edges. Two facts make that sharing safe and useful:
//!
//! 1. Splicing resolved edges never changes which addresses are charted
//!    instruction starts, so the coverage diff reads the same answer off
//!    the resolved CFG as off the freshly recovered one.
//! 2. The profiler's function table comes from the resolved model, so a
//!    function reached only through a resolved `call reg` / `jmp reg` is
//!    billed under its own name instead of to whatever precedes it.

use faros::{analyze_recording, AnalysisConfig};
use faros_repro::analyze::{self, ModuleCfg};
use faros_repro::corpus::{attacks, reuse, sample_registry};
use faros_repro::replay::{record, Scenario as _};

#[test]
fn splicing_resolved_targets_leaves_the_charted_instruction_starts_unchanged() {
    let mut images: Vec<(String, faros_repro::kernel::module::FdlImage)> = Vec::new();
    for sample in sample_registry() {
        images.extend(sample.scenario.programs().iter().cloned());
    }
    images.extend(attacks::payload_images());
    let mut spliced_images = 0;
    for (name, image) in &images {
        let recovered = ModuleCfg::recover(name, image);
        let resolved = analyze::analyze_image(name, image).cfg;
        if !resolved.resolved_targets.is_empty() {
            spliced_images += 1;
        }
        for s in image.code_sections() {
            for va in s.va..s.end_va() {
                assert_eq!(
                    recovered.accounts_for(va),
                    resolved.accounts_for(va),
                    "{name}: splicing changed whether {va:#010x} is charted"
                );
            }
        }
    }
    assert!(images.len() >= 150, "only {} images checked", images.len());
    assert!(spliced_images >= 10, "only {spliced_images} images had resolved sites to splice");
}

#[test]
fn profile_bills_indirectly_reached_functions_under_their_own_entries() {
    // `relay.exe` reaches `step_a` (0x400018) and `step_b` (0x40001f)
    // only through resolved `call reg` sites, and `finish` (0x40002b)
    // only through a resolved `jmp reg` tail jump. Symbolized against the
    // unresolved CFG, all 21 retired instructions landed in the entry
    // function.
    let sample = reuse::fn_pointer_farm();
    let cfg = AnalysisConfig { profile: true, ..AnalysisConfig::default() };
    let (recording, _) = record(&sample.scenario, cfg.budget).unwrap();
    let job = analyze_recording(&sample.scenario, &recording, &cfg).unwrap();
    let relay = job
        .report
        .profile
        .processes
        .iter()
        .find(|p| p.process == "relay.exe")
        .expect("relay.exe was profiled");
    let functions: Vec<(&str, u32, u64)> =
        relay.functions.iter().map(|f| (f.function.as_str(), f.entry, f.retired)).collect();
    assert_eq!(
        functions,
        vec![
            ("sub_0040002b", 0x40_002b, 8),
            ("sub_00400000", 0x40_0000, 6),
            ("sub_00400018", 0x40_0018, 4),
            ("sub_0040001f", 0x40_001f, 3),
        ]
    );
}
