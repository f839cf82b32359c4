//! A Volatility/malfind-style memory snapshot scanner (paper §VI-B).
//!
//! malfind inspects a memory dump taken at one point in time: it walks each
//! process's VAD tree looking for *private* regions with an *executable*
//! page (perms come from the page table) containing plausible code — the
//! signature injected payloads leave behind. Its two
//! structural weaknesses, both demonstrated by the comparison harness:
//!
//! * **transience** — "once the malicious payload is injected and executed,
//!   there is nothing stopping the attacker from cleaning up memory before
//!   the VM is stopped" (§I): a wiped payload leaves no decodable code;
//! * **no provenance** — even on a hit, the dump cannot say where the bytes
//!   came from (no netflow, no injector process chain).

use faros_emu::encode::decode;
use faros_emu::mem::{PAGE_SIZE, PAGE_MASK};
use faros_emu::mmu::Perms;
use faros_kernel::machine::Machine;
use faros_kernel::process::RegionKind;
use faros_kernel::Pid;

/// One criterion of the scanner that a flagged region satisfied — the
/// "why was this flagged" provenance a bare hit list lacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchCriterion {
    /// A page of the region is executable (the `X` protection flag in
    /// its page-table entry).
    Executable,
    /// The region is a private (anonymous) allocation, not image- or
    /// file-backed.
    PrivateAllocation,
    /// The region head decodes as a run of this many real (non-`nop`)
    /// instructions.
    DecodesAsCode {
        /// Instructions decoded from the window.
        instructions: u32,
    },
    /// The window holds this many non-zero bytes (not a wiped page).
    NonZeroContent {
        /// Non-zero bytes in the window.
        bytes: u32,
    },
}

impl std::fmt::Display for MatchCriterion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatchCriterion::Executable => write!(f, "executable VAD protection"),
            MatchCriterion::PrivateAllocation => write!(f, "private allocation"),
            MatchCriterion::DecodesAsCode { instructions } => {
                write!(f, "{instructions} instructions decode")
            }
            MatchCriterion::NonZeroContent { bytes } => {
                write!(f, "{bytes} non-zero bytes")
            }
        }
    }
}

/// One suspicious region found in the snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MalfindHit {
    /// Owning process.
    pub pid: Pid,
    /// Process image name.
    pub process: String,
    /// Region base virtual address.
    pub base: u32,
    /// Region size.
    pub size: u32,
    /// The union of the region's page permissions, rendered (e.g. `rwx`).
    pub perms: String,
    /// Count of instructions that decoded cleanly from the region head.
    pub decoded_instructions: u32,
    /// Hexdump of the first bytes (the analyst-facing preview malfind
    /// prints).
    pub preview: String,
    /// Disassembly listing of the region head (the way Volatility renders a
    /// hit), one line per instruction.
    pub disassembly: Vec<String>,
    /// The criteria this region matched — the section flags and content
    /// evidence that made the scanner flag it.
    pub matched: Vec<MatchCriterion>,
}

/// The scanner's report for one snapshot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MalfindReport {
    /// All hits, in (pid, base) order.
    pub hits: Vec<MalfindHit>,
}

impl MalfindReport {
    /// Returns `true` if any injected-looking region was found.
    pub fn detects_injection(&self) -> bool {
        !self.hits.is_empty()
    }

    /// Like Cuckoo, a dump-based tool has no flow history to offer.
    pub fn has_payload_provenance(&self) -> bool {
        false
    }

    /// Renders the report the way Volatility prints malfind hits: one
    /// block per region with permissions, a hex preview, and a
    /// disassembly listing.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if self.hits.is_empty() {
            out.push_str("malfind: no suspicious regions\n");
            return out;
        }
        for h in &self.hits {
            let _ = writeln!(
                out,
                "Process: {} Pid: {} Address: {:#010x} ({} bytes, {})",
                h.process, h.pid.0, h.base, h.size, h.perms
            );
            let matched: Vec<String> =
                h.matched.iter().map(|m| m.to_string()).collect();
            let _ = writeln!(out, "  Matched: {}", matched.join(", "));
            let _ = writeln!(out, "  {}", h.preview);
            for line in &h.disassembly {
                let _ = writeln!(out, "  {line}");
            }
            out.push('\n');
        }
        out
    }
}

/// Minimum cleanly-decodable instructions for a region head to count as
/// code.
const MIN_DECODED: u32 = 6;

/// Minimum non-zero bytes in the preview window — an all-zero (wiped) page
/// technically decodes as a run of `nop`s but is not code.
const MIN_NONZERO: usize = 8;

/// Bytes examined at the head of each region.
const WINDOW: usize = 96;

/// Scans a machine's final state the way malfind scans a memory dump.
///
/// Every process (alive or exited — their page tables are still in the
/// dump) is walked; private regions with an executable page whose head
/// decodes as FE32 code are reported.
pub fn scan(machine: &Machine) -> MalfindReport {
    let mut report = MalfindReport::default();
    for proc in machine.processes() {
        for region in &proc.regions {
            if !matches!(region.kind, RegionKind::Private) {
                continue;
            }
            // The region is executable if any of its pages is.
            let perms = proc
                .aspace
                .pages_in(region.base, region.base + (region.size - 1))
                .fold(Perms::NONE, |p, (_, e)| p.union(e.perms));
            if !perms.contains(Perms::X) {
                continue;
            }
            // Read the region head through the page tables.
            let mut window = Vec::with_capacity(WINDOW);
            for i in 0..WINDOW as u32 {
                let va = region.base + i;
                let Some(entry) = proc.aspace.entry(va) else {
                    break;
                };
                let phys = entry.pfn * PAGE_SIZE + (va & PAGE_MASK);
                match machine.mem.read_u8(phys) {
                    Ok(b) => window.push(b),
                    Err(_) => break,
                }
            }
            let nonzero = window.iter().filter(|&&b| b != 0).count();
            if nonzero < MIN_NONZERO {
                continue; // wiped or never-used page
            }
            // Try to decode a run of instructions from the head.
            let mut off = 0usize;
            let mut decoded = 0u32;
            while off < window.len() {
                match decode(&window[off..]) {
                    Ok((instr, len)) => {
                        // Runs of NOPs (zero bytes) don't count as code.
                        if !matches!(instr, faros_emu::isa::Instr::Nop) {
                            decoded += 1;
                        }
                        off += len;
                    }
                    Err(_) => break,
                }
            }
            if decoded < MIN_DECODED {
                continue;
            }
            let preview: String = window
                .iter()
                .take(16)
                .map(|b| format!("{b:02x}"))
                .collect::<Vec<_>>()
                .join(" ");
            let disassembly: Vec<String> = faros_emu::encode::disassemble(&window, region.base)
                .into_iter()
                .take(8)
                .map(|(addr, instr)| format!("{addr:#010x}  {instr}"))
                .collect();
            report.hits.push(MalfindHit {
                pid: proc.pid,
                process: proc.name.clone(),
                base: region.base,
                size: region.size,
                perms: perms.to_string(),
                decoded_instructions: decoded,
                preview,
                disassembly,
                matched: vec![
                    MatchCriterion::Executable,
                    MatchCriterion::PrivateAllocation,
                    MatchCriterion::DecodesAsCode { instructions: decoded },
                    MatchCriterion::NonZeroContent { bytes: nonzero as u32 },
                ],
            });
        }
    }
    report.hits.sort_by_key(|h| (h.pid.0, h.base));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use faros_corpus::attacks;
    use faros_kernel::event::NullObserver;
    use faros_kernel::machine::RunExit;
    use faros_kernel::net::NetworkFabric;
    use faros_replay::Scenario as _;

    fn run_to_completion(sample: &faros_corpus::Sample) -> Machine {
        let fabric = NetworkFabric::new_live(sample.scenario.guest_ip());
        let mut machine = sample.scenario.build(fabric, &mut NullObserver).unwrap();
        assert_eq!(machine.run(20_000_000, &mut NullObserver), RunExit::AllExited);
        machine
    }

    #[test]
    fn finds_persistent_injected_region() {
        let machine = run_to_completion(&attacks::reflective_dll_inject());
        let report = scan(&machine);
        assert!(report.detects_injection());
        let hit = report
            .hits
            .iter()
            .find(|h| h.process == "notepad.exe")
            .expect("the injected RWX region in notepad must be found");
        assert_eq!(hit.base, attacks::PAYLOAD_BASE);
        assert!(hit.perms.contains('x'));
        assert!(hit.decoded_instructions >= MIN_DECODED);
        assert!(!report.has_payload_provenance());
    }

    #[test]
    fn hits_report_the_flags_they_matched_on() {
        let machine = run_to_completion(&attacks::reflective_dll_inject());
        let report = scan(&machine);
        let hit = report
            .hits
            .iter()
            .find(|h| h.process == "notepad.exe")
            .expect("the injected region must be found");
        assert!(hit.matched.contains(&MatchCriterion::Executable));
        assert!(hit.matched.contains(&MatchCriterion::PrivateAllocation));
        assert!(hit.matched.iter().any(|m| matches!(
            m,
            MatchCriterion::DecodesAsCode { instructions } if *instructions >= MIN_DECODED
        )));
        assert!(hit.matched.iter().any(|m| matches!(
            m,
            MatchCriterion::NonZeroContent { bytes } if *bytes as usize >= MIN_NONZERO
        )));
        let rendered = report.render();
        assert!(rendered.contains("executable VAD protection"));
        assert!(rendered.contains("private allocation"));
    }

    #[test]
    fn misses_transient_attack() {
        // The paper's core argument for whole-system DIFT: snapshot tools
        // only see one point in time.
        let machine = run_to_completion(&attacks::transient_reflective());
        let report = scan(&machine);
        let notepad_hits: Vec<_> = report
            .hits
            .iter()
            .filter(|h| h.process == "notepad.exe")
            .collect();
        assert!(
            notepad_hits.is_empty(),
            "the wiped payload must be invisible to the snapshot scanner: {notepad_hits:?}"
        );
    }

    #[test]
    fn render_prints_volatility_style_blocks() {
        let machine = run_to_completion(&attacks::reflective_dll_inject());
        let report = scan(&machine);
        let rendered = report.render();
        assert!(rendered.contains("Process: notepad.exe"));
        assert!(rendered.contains("Address: 0x01000000"));
        assert!(rendered.contains("rwx"));
        assert!(
            MalfindReport::default().render().contains("no suspicious regions")
        );
    }

    #[test]
    fn clean_machine_has_no_hits() {
        use faros_corpus::SampleScenario;
        let scenario = SampleScenario::new("clean")
            .program("C:/notepad.exe", attacks::benign_victim("notepad", 3))
            .autostart("C:/notepad.exe");
        let fabric = NetworkFabric::new_live(scenario.guest_ip());
        let mut machine = scenario.build(fabric, &mut NullObserver).unwrap();
        assert_eq!(machine.run(20_000_000, &mut NullObserver), RunExit::AllExited);
        assert!(!scan(&machine).detects_injection());
    }

    #[test]
    fn finds_hollowed_region() {
        let machine = run_to_completion(&attacks::process_hollowing());
        let report = scan(&machine);
        assert!(report
            .hits
            .iter()
            .any(|h| h.process == "svchost.exe"));
    }
}
