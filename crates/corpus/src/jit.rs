//! The JIT workloads of Table III: 10 Java applets and 10 AJAX websites.
//!
//! The paper found that JIT engines "operate similarly to memory injection
//! attacks: the system receives data over the network, which is linked and
//! loaded with export tables", producing 2 false positives among the 20
//! workloads (10%). This module reproduces the mechanism with a mini-JIT:
//!
//! * **copy-and-patch JIT** (2 applets): the site serves pre-compiled code
//!   stencils, which the host memcpy's into an RWX buffer — downloaded bytes
//!   *become code*, so the generated code carries the netflow tag and its
//!   export-table resolution trips the FAROS invariant (the paper's two
//!   flagged applets);
//! * **template JIT** (8 applets + all 10 AJAX sites): the downloaded
//!   bytecode is only *interpreted*; the emitted machine code comes from a
//!   clean template in the engine's own image, so the generated code carries
//!   no netflow tag and stays clean even though it too resolves helpers via
//!   the export table.

use crate::builder::{connect, exit_process, finish_image, print_label, recv_into, sys, SCRATCH};
use crate::endpoints::{BytecodeServer, EndpointFactory, WEB_IP, WEB_PORT};
use crate::scenario::{Behavior, Category, Sample, SampleScenario};
use faros_emu::asm::Asm;
use faros_emu::isa::{Mem as M, Reg};
use faros_kernel::machine::IMAGE_BASE;
use faros_kernel::module::hash_name;
use faros_kernel::nt::Sysno;

/// The Java applets of Table III (from walter-fendt.de/ph14e).
pub const APPLETS: [&str; 10] = [
    "acceleration",
    "equilibrium",
    "pulleysystem",
    "projectile",
    "ncradle",
    "keplerlaw1",
    "inclplane",
    "lever",
    "keplerlaw2",
    "collision",
];

/// The AJAX websites of Table III.
pub const AJAX_SITES: [&str; 10] = [
    "gmail.com",
    "maps.google.com",
    "kayak.com",
    "netflix.com/top100",
    "kiko.com",
    "backpackit.com",
    "sudokucarving.com",
    "pressdisplay.com",
    "rpad.com",
    "brainking.com",
];

/// The two applets whose JIT engine uses copy-and-patch compilation and is
/// therefore flagged (the paper's 2/20 = 10% JIT false-positive rate).
pub const FLAGGED_APPLETS: [&str; 2] = ["pulleysystem", "collision"];

/// Where the JIT host downloads bytecode (first allocation).
const BYTECODE_BUF: u32 = 0x0100_0000;

/// Where generated code lives (second allocation).
const JIT_BUF: u32 = 0x0100_2000;

/// The generated-code routine every workload ends up executing: resolve
/// `GetSystemTime` via the export-table walk, call it, return. Built
/// host-side; shipped either as a network stencil (copy-and-patch) or as an
/// image-embedded template (template JIT).
fn generated_code() -> Vec<u8> {
    let mut asm = Asm::new(JIT_BUF);
    // Export-table resolution from inside generated code: harmless when the
    // code is clean, the flagged confluence when it came off the wire.
    crate::builder::emit_resolve_export(&mut asm, hash_name("GetSystemTime"), "gst");
    asm.mov_rr(Reg::Ebp, Reg::Eax);
    asm.mov_ri(Reg::Ebx, SCRATCH + 0x80); // out param for the time query
    asm.call_reg(Reg::Ebp);
    asm.ret();
    asm.assemble().expect("generated code assembles")
}

/// Builds one JIT workload sample.
///
/// `direct` selects copy-and-patch (downloaded stencil becomes code) vs.
/// template compilation (downloaded bytes only interpreted).
fn jit_sample(site: &str, engine: &str, direct: bool) -> Sample {
    let gen_code = generated_code();
    let gen_len = gen_code.len() as u32;
    let exe = format!("C:/{engine}.exe");
    let request = format!("GET {site}");

    let mut asm = Asm::new(IMAGE_BASE);
    connect(&mut asm, WEB_IP, WEB_PORT, 0);
    // Download buffer (RW) then JIT buffer (RWX).
    sys(
        &mut asm,
        Sysno::NtAllocateVirtualMemory,
        &[
            (Reg::Ebx, 0xffff_ffff),
            (Reg::Ecx, 0x1000),
            (Reg::Edx, 0b011),
            (Reg::Esi, SCRATCH + 8),
        ],
    );
    sys(
        &mut asm,
        Sysno::NtAllocateVirtualMemory,
        &[
            (Reg::Ebx, 0xffff_ffff),
            (Reg::Ecx, 0x1000),
            (Reg::Edx, 0b111),
            (Reg::Esi, SCRATCH + 12),
        ],
    );
    // Fetch the applet/page.
    asm.ld4(Reg::Ebx, M::abs(SCRATCH));
    asm.mov_label(Reg::Ecx, "req");
    sys(
        &mut asm,
        Sysno::NtSocketSend,
        &[(Reg::Edx, request.len() as u32), (Reg::Esi, 0)],
    );
    recv_into(&mut asm, 0, BYTECODE_BUF, 0x1000, 4);

    if direct {
        // Copy-and-patch: the downloaded stencil IS the generated code.
        crate::builder::emit_memcpy(&mut asm, JIT_BUF, BYTECODE_BUF, gen_len, "stencil");
    } else {
        // Template JIT: interpret the bytecode (checksum walk — the
        // downloaded bytes influence only data/branches), then instantiate
        // the clean template from our own image.
        asm.mov_ri(Reg::Esi, BYTECODE_BUF);
        asm.ld4(Reg::Ecx, M::abs(SCRATCH + 4)); // bytes received
        asm.mov_ri(Reg::Eax, 0);
        asm.label("interp");
        asm.cmp_ri(Reg::Ecx, 0);
        asm.jz("interp_done");
        asm.ld1(Reg::Edx, M::reg(Reg::Esi));
        asm.add_rr(Reg::Eax, Reg::Edx);
        asm.add_ri(Reg::Esi, 1);
        asm.sub_ri(Reg::Ecx, 1);
        asm.jmp("interp");
        asm.label("interp_done");
        asm.st4(M::abs(SCRATCH + 0x90), Reg::Eax); // "interpretation result"
        // memcpy(JIT_BUF, template_label, gen_len)
        asm.mov_label(Reg::Esi, "template");
        asm.mov_ri(Reg::Edi, JIT_BUF);
        asm.mov_ri(Reg::Ecx, gen_len);
        asm.label("tpl_copy");
        asm.cmp_ri(Reg::Ecx, 0);
        asm.jz("tpl_done");
        asm.ld1(Reg::Edx, M::reg(Reg::Esi));
        asm.st1(M::reg(Reg::Edi), Reg::Edx);
        asm.add_ri(Reg::Esi, 1);
        asm.add_ri(Reg::Edi, 1);
        asm.sub_ri(Reg::Ecx, 1);
        asm.jmp("tpl_copy");
        asm.label("tpl_done");
    }
    // Run the JIT-compiled function.
    asm.mov_ri(Reg::Ebp, JIT_BUF);
    asm.call_reg(Reg::Ebp);
    print_label(&mut asm, "done", 4);
    exit_process(&mut asm, 0);
    asm.label("req");
    asm.raw(request.as_bytes());
    asm.label("done");
    asm.raw(b"done");
    if !direct {
        asm.label("template");
        asm.raw(&gen_code);
    }

    let sanitized: String = site
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    let mut scenario = SampleScenario::new(&format!("jit_{sanitized}"))
        .program(&exe, finish_image(asm))
        .autostart(&exe);
    scenario = if direct {
        let stencil = gen_code;
        scenario.endpoint(EndpointFactory::new(WEB_IP, WEB_PORT, move || {
            // The "site" serves pre-compiled stencils; key off the GET like
            // the bytecode server does.
            StencilServer { stencil: stencil.clone() }
        }))
    } else {
        scenario.endpoint(EndpointFactory::new(WEB_IP, WEB_PORT, || {
            BytecodeServer::new(96)
        }))
    };
    Sample {
        scenario,
        category: Category::Jit,
        behaviors: vec![Behavior::Download, Behavior::Run],
    }
}

/// Serves a pre-compiled code stencil to any `GET`.
struct StencilServer {
    stencil: Vec<u8>,
}

impl faros_kernel::net::RemoteEndpoint for StencilServer {
    fn on_data(&mut self, data: &[u8]) -> Vec<Vec<u8>> {
        if data.starts_with(b"GET ") {
            vec![self.stencil.clone()]
        } else {
            Vec::new()
        }
    }
}

/// All 20 Table III workloads: 10 applets (2 copy-and-patch, 8 template)
/// and 10 AJAX sites (all template).
pub fn jit_workloads() -> Vec<Sample> {
    let mut out = Vec::with_capacity(20);
    for applet in APPLETS {
        let direct = FLAGGED_APPLETS.contains(&applet);
        out.push(jit_sample(applet, "java", direct));
    }
    for site in AJAX_SITES {
        out.push(jit_sample(site, "browser", false));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use faros_kernel::event::NullObserver;
    use faros_kernel::machine::RunExit;
    use faros_kernel::net::NetworkFabric;
    use faros_replay::Scenario as _;

    #[test]
    fn twenty_workloads_two_direct() {
        let ws = jit_workloads();
        assert_eq!(ws.len(), 20);
        assert!(ws.iter().all(|s| s.category == Category::Jit));
    }

    #[test]
    fn both_jit_variants_execute_generated_code() {
        for site in ["pulleysystem", "acceleration", "gmail.com"] {
            let direct = FLAGGED_APPLETS.contains(&site);
            let engine = if site.contains('.') { "browser" } else { "java" };
            let sample = jit_sample(site, engine, direct);
            let fabric = NetworkFabric::new_live(sample.scenario.guest_ip());
            let mut machine = sample.scenario.build(fabric, &mut NullObserver).unwrap();
            let exit = machine.run(20_000_000, &mut NullObserver);
            assert_eq!(exit, RunExit::AllExited, "{site} must terminate");
            assert!(
                machine.console().iter().any(|(_, s)| s == "done"),
                "{site}: generated code must return control"
            );
        }
    }
}
