//! The full analyst tour: one recording of the thread-hijack attack viewed
//! through every lens the repository provides — event trace, OSI process
//! and module lists, malfind snapshot scan, and the FAROS provenance
//! report.
//!
//! ```text
//! cargo run --example analyst_tour
//! ```

use faros_repro::baselines;
use faros_repro::corpus::attacks;
use faros_repro::faros::{Faros, Policy};
use faros_repro::obs::trace::RecorderHandle;
use faros_repro::replay::{record, replay, TraceRecorder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sample = attacks::thread_hijack();
    println!("=== recording {} ===", sample.name());
    let (recording, _) = record(&sample.scenario, 20_000_000)?;

    // Lens 1: the raw event timeline (syscalls2/OSI view), from the
    // flight recorder.
    let ring = RecorderHandle::default();
    let outcome =
        replay(&sample.scenario, &recording, 20_000_000, &mut TraceRecorder::new(ring.clone()))?;
    println!("\n--- event timeline ({} events, first 14) ---", ring.len());
    ring.with(|rec| {
        for ev in rec.events().take(14) {
            println!("  {ev}");
        }
    });

    // Lens 2: OSI — the pslist / dlllist an introspection tool shows.
    println!("\n--- pslist ---");
    for info in outcome.machine.pslist() {
        println!("  {:<6} cr3={:#08x}  {}", info.pid.to_string(), info.cr3, info.name);
    }
    let victim = outcome
        .machine
        .process_by_name("svchost.exe")
        .expect("victim exists");
    println!("--- dlllist for {} ---", victim.name);
    for module in outcome.machine.dlllist(victim.pid) {
        println!("  {:#010x}  {}", module.base, module.name);
    }
    println!("  (note: no module for the injected stage — it was never registered)");

    // Lens 3: the memory dump (malfind view).
    let malfind = baselines::scan(&outcome.machine);
    println!("\n--- malfind ({} hit(s)) ---", malfind.hits.len());
    for hit in &malfind.hits {
        println!(
            "  {} {:#010x}+{:#x} {} ({} instructions decode)",
            hit.process, hit.base, hit.size, hit.perms, hit.decoded_instructions
        );
        for line in hit.disassembly.iter().take(4) {
            println!("      {line}");
        }
    }

    // Lens 4: FAROS — the only view that explains *where it came from*.
    let mut faros = Faros::new(Policy::paper());
    replay(&sample.scenario, &recording, 20_000_000, &mut faros)?;
    println!("\n--- FAROS ---");
    print!("{}", faros.report());
    Ok(())
}
