//! Golden-file test for the `faros-cli analyze <image.fdl>` wire format.
//!
//! The static report JSON is a load-bearing interface (tooling diffs it,
//! CI pins it), so it must be byte-stable. The FDL demo image itself is
//! also checked in, so `scripts/ci.sh` can drive the actual CLI binary
//! over it and compare against the same golden report.
//!
//! Regenerate both fixtures after an intentional format change with:
//!
//! ```sh
//! FAROS_REGEN_GOLDEN=1 cargo test --test analyze_cli
//! ```

use faros_repro::analyze::{FindingKind, SinkKind, SourceKind, StaticReport};
use faros_repro::emu::asm::Asm;
use faros_repro::emu::isa::{Mem, Reg};
use faros_repro::emu::Perms;
use faros_repro::kernel::module::Section;
use faros_repro::kernel::nt::Sysno;
use faros_repro::kernel::FdlImage;
use std::path::{Path, PathBuf};

const BASE: u32 = 0x40_0000;
const DATA: u32 = 0x40_1000;

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("fixtures").join(name)
}

/// A small image exercising every report section: a net source, a net
/// sink, a register-indirect call the VSA resolves to a constant, and an
/// indirect call through a writable data slot it (soundly) cannot.
fn demo_image() -> FdlImage {
    let mut asm = Asm::new(BASE);
    // recv(buf) -- taints the buffer (and coarse memory) with Net.
    asm.mov_ri(Reg::Eax, Sysno::NtSocketRecv as u32);
    asm.mov_ri(Reg::Ecx, DATA + 0x100);
    asm.int_syscall();
    // Constant-register indirect call: resolvable.
    asm.mov_label(Reg::Ebx, "helper");
    asm.call_reg(Reg::Ebx);
    // send(buf) -- the Net -> Net flow.
    asm.mov_ri(Reg::Eax, Sysno::NtSocketSend as u32);
    asm.mov_ri(Reg::Ecx, DATA + 0x100);
    asm.int_syscall();
    asm.hlt();
    asm.label("helper");
    // Function pointer fetched from writable data: stays unresolved.
    asm.ld4(Reg::Edx, Mem::abs(DATA));
    asm.call_reg(Reg::Edx);
    asm.ret();
    FdlImage {
        entry: BASE,
        export_table_va: 0,
        sections: vec![
            Section { va: BASE, data: asm.assemble().unwrap(), perms: Perms::RX },
            Section { va: DATA, data: vec![0; 0x200], perms: Perms::RW },
        ],
        exports: vec![],
    }
}

fn check_golden_bytes(name: &str, actual: &[u8]) {
    let path = fixture_path(name);
    if std::env::var("FAROS_REGEN_GOLDEN").is_ok() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read(&path).unwrap_or_else(|e| {
        panic!("missing fixture {} ({e}); regenerate with FAROS_REGEN_GOLDEN=1", path.display())
    });
    assert_eq!(
        actual,
        &expected[..],
        "{name} drifted from the golden fixture; if intentional, regenerate \
         with FAROS_REGEN_GOLDEN=1 and review the diff"
    );
}

#[test]
fn demo_image_fixture_is_current() {
    // The checked-in .fdl must be exactly what `demo_image()` builds, so
    // the CI gate and this test analyze the same bytes.
    check_golden_bytes("analyze_demo.fdl", &demo_image().to_bytes());
}

#[test]
fn static_report_json_is_byte_stable_and_lossless() {
    // Same module name the CLI derives from the fixture path.
    let report = StaticReport::build("analyze_demo.fdl", &demo_image());
    let json = report.to_json().unwrap();
    check_golden_bytes("analyze_demo_report.json", json.as_bytes());
}

#[test]
fn demo_report_has_the_expected_shape() {
    let report = StaticReport::build("analyze_demo.fdl", &demo_image());
    // The constant-register call resolves; the data-pointer call cannot.
    assert_eq!(report.resolved_sites.len(), 1);
    assert_eq!(
        report
            .findings
            .iter()
            .filter(|f| f.kind == FindingKind::UnresolvedIndirect)
            .count(),
        1
    );
    assert_eq!(report.errors().count(), 0);
    // recv -> send is a feasible net-to-net flow.
    assert!(report
        .flows
        .flows
        .iter()
        .any(|f| f.source == SourceKind::Net && f.sink == SinkKind::Net));
}

#[test]
fn checked_in_fdl_parses_and_reanalyzes_to_the_golden_report() {
    // The path `scripts/ci.sh` exercises through the CLI binary, minus the
    // process spawn: parse the archived image, analyze, compare bytes.
    if std::env::var("FAROS_REGEN_GOLDEN").is_ok() {
        return; // fixtures are being rewritten by the sibling tests
    }
    let bytes = std::fs::read(fixture_path("analyze_demo.fdl"))
        .expect("fixture must exist; regenerate with FAROS_REGEN_GOLDEN=1");
    let image = FdlImage::parse(&bytes).unwrap();
    let json = StaticReport::build("analyze_demo.fdl", &image).to_json().unwrap();
    let expected = std::fs::read_to_string(fixture_path("analyze_demo_report.json")).unwrap();
    assert_eq!(json, expected);
}
