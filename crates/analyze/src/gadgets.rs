//! Gadget-surface scanner — how much raw material an image offers a
//! code-reuse (ROP/JOP) attacker.
//!
//! A *gadget* is a short instruction run ending in a free-branch
//! instruction (`ret`, `call reg`, `jmp reg`) that an attacker can chain
//! without injecting a single byte. The scanner linear-sweeps every
//! executable section **at every byte offset** (the Galileo approach —
//! attackers are not obliged to respect instruction boundaries), finds
//! each decodable free-branch *endpoint*, classifies it as *intended*
//! (on a CFG instruction boundary) or *unintended* (inside the encoding
//! of another instruction), and counts the distinct start offsets from
//! which a straight-line decode reaches the endpoint within a short
//! suffix window. The per-section density score — gadget starts per KiB
//! of code — is what an analyst compares across images: a high density
//! means a rich reuse surface even though the static linter sees a
//! perfectly W^X-clean module.
//!
//! Everything here is a pure function of the image bytes, so the
//! [`GadgetReport`] is byte-deterministic and JSON-stable.

use crate::cfg::ModuleCfg;
use faros_emu::encode::decode_at;
use faros_emu::isa::Instr;
use faros_kernel::module::FdlImage;
use faros_obs::metrics::MetricsRegistry;
use faros_obs::trace::{RecorderHandle, TraceCategory, TraceEvent};
use faros_support::json::{JsonValue, ToJson};

/// Maximum bytes a gadget body may span before its endpoint.
pub const SUFFIX_WINDOW: u32 = 16;

/// Maximum instructions in a gadget body (endpoint included).
pub const MAX_GADGET_INSNS: u32 = 5;

/// Gadget counts for one executable section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SectionGadgets {
    /// Section start VA.
    pub va: u32,
    /// Bytes scanned (the section length).
    pub bytes: u32,
    /// Decodable `ret` endpoints.
    pub ret_endpoints: u32,
    /// Decodable `call reg` endpoints.
    pub call_endpoints: u32,
    /// Decodable `jmp reg` endpoints.
    pub jmp_endpoints: u32,
    /// Endpoints not on a CFG instruction boundary.
    pub unintended_endpoints: u32,
    /// Distinct `(start, endpoint)` gadget bodies within the suffix
    /// window.
    pub gadgets: u32,
    /// Gadget bodies per KiB of section bytes (rounded down).
    pub density_per_kib: u32,
}

impl SectionGadgets {
    /// All free-branch endpoints in the section.
    pub fn endpoints(&self) -> u32 {
        self.ret_endpoints + self.call_endpoints + self.jmp_endpoints
    }
}

/// Scan counters — the `gadgets.*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GadgetStats {
    /// Executable sections scanned.
    pub sections_scanned: u64,
    /// Total bytes swept (every byte is a candidate decode offset).
    pub bytes_scanned: u64,
    /// Free-branch endpoints found.
    pub endpoints: u64,
    /// Endpoints off any CFG instruction boundary.
    pub unintended: u64,
    /// Gadget bodies counted.
    pub gadgets: u64,
}

impl GadgetStats {
    /// Emits the counters as `gadgets.*` metrics.
    pub fn record_into(&self, reg: &mut MetricsRegistry) {
        for (name, value) in self.rows() {
            let id = reg.counter(name);
            reg.add(id, value);
        }
    }

    /// The counters as `(metric name, value)` rows, in emission order.
    pub fn rows(&self) -> [(&'static str, u64); 5] {
        [
            ("gadgets.sections", self.sections_scanned),
            ("gadgets.bytes_scanned", self.bytes_scanned),
            ("gadgets.endpoints", self.endpoints),
            ("gadgets.unintended", self.unintended),
            ("gadgets.found", self.gadgets),
        ]
    }

    /// Emits the counters as one `analysis`-category instant event into a
    /// trace recorder.
    pub fn trace_into(&self, rec: &RecorderHandle, ts: u64, module: &str) {
        let mut ev =
            TraceEvent::instant(ts, 0, 0, TraceCategory::Analysis, format!("gadgets {module}"));
        for (name, value) in self.rows() {
            ev = ev.arg(name, value.to_string());
        }
        rec.record(ev);
    }
}

impl ToJson for GadgetStats {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("sections_scanned", self.sections_scanned.to_json_value()),
            ("bytes_scanned", self.bytes_scanned.to_json_value()),
            ("endpoints", self.endpoints.to_json_value()),
            ("unintended", self.unintended.to_json_value()),
            ("gadgets", self.gadgets.to_json_value()),
        ])
    }
}

/// The gadget surface of one image.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GadgetReport {
    /// Module name the scan ran over.
    pub module: String,
    /// Per-section counts, in section VA order.
    pub sections: Vec<SectionGadgets>,
    /// Whole-image counters (the `gadgets.*` metrics).
    pub stats: GadgetStats,
}

impl GadgetReport {
    /// Whole-image gadget density per KiB of executable bytes.
    pub fn density_per_kib(&self) -> u64 {
        if self.stats.bytes_scanned == 0 {
            return 0;
        }
        self.stats.gadgets * 1024 / self.stats.bytes_scanned
    }
}

/// Returns `true` if `instr` is a free branch usable as a gadget endpoint.
fn is_endpoint(instr: Instr) -> bool {
    matches!(instr, Instr::Ret | Instr::CallReg { .. } | Instr::JmpReg { .. })
}

/// Scans every executable section of `image` for gadget endpoints and
/// bodies. `cfg` supplies the intended instruction boundaries (any
/// recovered CFG for the same image works — resolution state is
/// irrelevant here).
pub fn scan_image(name: &str, image: &FdlImage, cfg: &ModuleCfg) -> GadgetReport {
    let mut sections = Vec::new();
    let mut stats = GadgetStats::default();
    for s in image.sections.iter().filter(|s| s.is_code()) {
        let mut sec = SectionGadgets {
            va: s.va,
            bytes: s.data.len() as u32,
            ..SectionGadgets::default()
        };
        // Pass 1: every byte offset that decodes to a free branch is an
        // endpoint.
        let mut endpoints: Vec<u32> = Vec::new();
        for off in 0..s.data.len() {
            let Ok((instr, len)) = decode_at(&s.data, off) else { continue };
            if off + len > s.data.len() || !is_endpoint(instr) {
                continue;
            }
            let va = s.va + off as u32;
            endpoints.push(off as u32);
            match instr {
                Instr::Ret => sec.ret_endpoints += 1,
                Instr::CallReg { .. } => sec.call_endpoints += 1,
                _ => sec.jmp_endpoints += 1,
            }
            if cfg.instr_at(va).is_none() {
                sec.unintended_endpoints += 1;
            }
        }
        // Pass 2: for each endpoint, count the distinct starts within the
        // suffix window whose straight-line decode lands exactly on it.
        for &end in &endpoints {
            let lo = end.saturating_sub(SUFFIX_WINDOW);
            for start in lo..=end {
                if decodes_to(&s.data, start, end) {
                    sec.gadgets += 1;
                }
            }
        }
        sec.density_per_kib =
            if sec.bytes == 0 { 0 } else { (sec.gadgets as u64 * 1024 / sec.bytes as u64) as u32 };
        stats.sections_scanned += 1;
        stats.bytes_scanned += sec.bytes as u64;
        stats.endpoints += sec.endpoints() as u64;
        stats.unintended += sec.unintended_endpoints as u64;
        stats.gadgets += sec.gadgets as u64;
        sections.push(sec);
    }
    GadgetReport { module: name.to_string(), sections, stats }
}

/// Returns `true` if decoding straight-line from `start` reaches exactly
/// the endpoint at `end` within [`MAX_GADGET_INSNS`] instructions, with
/// no earlier control transfer.
fn decodes_to(data: &[u8], start: u32, end: u32) -> bool {
    let mut pos = start;
    for _ in 0..MAX_GADGET_INSNS {
        if pos == end {
            return true;
        }
        if pos > end {
            return false;
        }
        let Ok((instr, len)) = decode_at(data, pos as usize) else { return false };
        if instr.ends_block() {
            // A jump/call/ret before the endpoint breaks the chain.
            return false;
        }
        pos += len as u32;
    }
    false
}

impl ToJson for SectionGadgets {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("va", self.va.to_json_value()),
            ("bytes", self.bytes.to_json_value()),
            ("ret_endpoints", self.ret_endpoints.to_json_value()),
            ("call_endpoints", self.call_endpoints.to_json_value()),
            ("jmp_endpoints", self.jmp_endpoints.to_json_value()),
            ("unintended_endpoints", self.unintended_endpoints.to_json_value()),
            ("gadgets", self.gadgets.to_json_value()),
            ("density_per_kib", self.density_per_kib.to_json_value()),
        ])
    }
}

impl ToJson for GadgetReport {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("module", self.module.to_json_value()),
            ("sections", self.sections.to_json_value()),
            ("stats", self.stats.to_json_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faros_emu::asm::Asm;
    use faros_emu::isa::{Mem, Reg};
    use faros_emu::mmu::Perms;
    use faros_kernel::module::Section;

    const BASE: u32 = 0x40_0000;

    fn image_of(asm: Asm) -> FdlImage {
        FdlImage {
            entry: BASE,
            export_table_va: 0,
            sections: vec![Section {
                va: BASE,
                data: asm.assemble().unwrap(),
                perms: Perms::RX,
            }],
            exports: vec![],
        }
    }

    fn scan(image: &FdlImage) -> GadgetReport {
        let cfg = ModuleCfg::recover("t", image);
        scan_image("t", image, &cfg)
    }

    #[test]
    fn straight_line_code_has_a_small_intended_surface() {
        let mut asm = Asm::new(BASE);
        asm.mov_ri(Reg::Eax, 1);
        asm.mov_ri(Reg::Ebx, 2);
        asm.hlt();
        let report = scan(&image_of(asm));
        assert_eq!(report.sections.len(), 1);
        assert_eq!(report.stats.endpoints, 0);
        assert_eq!(report.stats.gadgets, 0);
        assert_eq!(report.density_per_kib(), 0);
    }

    #[test]
    fn every_ret_is_an_endpoint_with_suffix_starts() {
        let mut asm = Asm::new(BASE);
        asm.mov_ri(Reg::Eax, 7); // entry block, falls into the ret
        asm.ret();
        let report = scan(&image_of(asm));
        assert_eq!(report.stats.endpoints, 1);
        let sec = &report.sections[0];
        assert_eq!(sec.ret_endpoints, 1);
        // At minimum the ret itself and the mov prefix form gadget bodies.
        assert!(sec.gadgets >= 2, "{}", sec.gadgets);
        assert_eq!(sec.unintended_endpoints, 0);
    }

    #[test]
    fn unintended_endpoints_hide_inside_immediates() {
        // A 4-byte immediate containing the `ret` opcode byte yields an
        // endpoint off every CFG instruction boundary.
        let ret_opcode = {
            let mut a = Asm::new(0);
            a.ret();
            a.assemble().unwrap()[0] as u32
        };
        let mut asm = Asm::new(BASE);
        asm.mov_ri(Reg::Eax, ret_opcode); // immediate bytes: rr 00 00 00
        asm.hlt();
        let report = scan(&image_of(asm));
        let sec = &report.sections[0];
        assert!(sec.unintended_endpoints >= 1, "{sec:?}");
        assert!(report.stats.gadgets >= 1);
    }

    #[test]
    fn indirect_branches_count_as_jop_endpoints() {
        let mut asm = Asm::new(BASE);
        asm.ld4(Reg::Ebx, Mem::abs(BASE + 0x100));
        asm.call_reg(Reg::Ebx);
        asm.jmp_reg(Reg::Ecx);
        let report = scan(&image_of(asm));
        let sec = &report.sections[0];
        assert!(sec.call_endpoints >= 1);
        assert!(sec.jmp_endpoints >= 1);
    }
}
