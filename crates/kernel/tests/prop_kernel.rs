//! Property tests for kernel substrates: the filesystem, handle tables,
//! a differential test of guest ALU execution against a host-side model,
//! and the machine's page walk against a per-byte translation oracle.
//!
//! Runs on the in-tree deterministic harness (`faros_support::prop`) with
//! the pinned default seed; set `FAROS_PROP_SEED` to explore other streams.

use faros_emu::asm::Asm;
use faros_emu::cpu::{Cpu, NoHooks, StepEvent};
use faros_emu::isa::{AluOp, Reg};
use faros_emu::mem::{PhysMem, PAGE_MASK, PAGE_SIZE};
use faros_emu::mmu::{Access, AddressSpace, Asid, Fault, Perms};
use faros_kernel::event::{ByteRange, NullObserver};
use faros_kernel::fs::FileSystem;
use faros_kernel::handle::{HandleObject, HandleTable, Pid};
use faros_kernel::machine::{Machine, MachineConfig, MachineError, IMAGE_BASE};
use faros_kernel::module::{FdlImage, Section};
use faros_kernel::process::RegionKind;
use faros_support::arb;
use faros_support::prop::{check, Config, Rng};
use faros_support::{prop_assert, prop_assert_eq};

#[test]
fn fs_write_read_round_trip() {
    check(
        "fs_write_read_round_trip",
        Config::default(),
        |rng| {
            rng.vec_of(1, 12, |r| {
                (r.range_u32(0, 256), r.vec_of(1, 32, |r2| r2.next_u8()))
            })
        },
        |chunks| {
            // Apply a series of writes; a host-side Vec<u8> is the model.
            let mut fs = FileSystem::new();
            fs.create("f", Vec::new()).unwrap();
            let mut model: Vec<u8> = Vec::new();
            for (offset, bytes) in chunks {
                fs.write("f", *offset, bytes).unwrap();
                let end = *offset as usize + bytes.len();
                if model.len() < end {
                    model.resize(end, 0);
                }
                model[*offset as usize..end].copy_from_slice(bytes);
            }
            prop_assert_eq!(fs.read("f", 0, model.len() + 16).unwrap(), model);
            prop_assert_eq!(fs.version("f"), Some(1 + chunks.len() as u32));
            Ok(())
        },
    );
}

#[test]
fn handle_table_is_a_map() {
    check(
        "handle_table_is_a_map",
        Config::default(),
        |rng| rng.vec_of(1, 64, |r| r.next_bool()),
        |ops| {
            // Interleave inserts and closes; handles must stay unique and
            // live entries must stay resolvable.
            let mut table = HandleTable::new();
            let mut live: Vec<faros_kernel::Handle> = Vec::new();
            let mut inserted = 0u32;
            for &insert in ops {
                if insert || live.is_empty() {
                    let h = table.insert(HandleObject::Process(Pid(inserted)));
                    prop_assert!(!live.contains(&h), "handles never repeat while open");
                    live.push(h);
                    inserted += 1;
                } else {
                    let h = live.remove(live.len() / 2);
                    prop_assert!(table.close(h));
                    prop_assert!(table.get(h).is_none());
                }
            }
            prop_assert_eq!(table.len(), live.len());
            for h in live {
                prop_assert!(table.get(h).is_some());
            }
            Ok(())
        },
    );
}

#[test]
fn guest_alu_matches_host_model() {
    check(
        "guest_alu_matches_host_model",
        Config::default(),
        |rng| {
            (
                rng.next_u32(),
                rng.vec_of(1, 24, |r| (arb::alu_op(r), r.next_u32())),
            )
        },
        |(seed, ops)| {
            // Run `eax = seed; eax op= imm; ...` in the guest and compare
            // with the host-side AluOp::apply model.
            let mut asm = Asm::new(0x1000);
            asm.mov_ri(Reg::Eax, *seed);
            let mut expected = *seed;
            for (op, imm) in ops {
                // Emit `op eax, imm` via the matching helper.
                match op {
                    AluOp::Add => {
                        asm.add_ri(Reg::Eax, *imm);
                    }
                    AluOp::Sub => {
                        asm.sub_ri(Reg::Eax, *imm);
                    }
                    AluOp::And => {
                        asm.and_ri(Reg::Eax, *imm);
                    }
                    AluOp::Or => {
                        asm.or_ri(Reg::Eax, *imm);
                    }
                    AluOp::Xor => {
                        asm.xor_ri(Reg::Eax, *imm);
                    }
                    AluOp::Mul => {
                        asm.mul_ri(Reg::Eax, *imm);
                    }
                    AluOp::Shl => {
                        asm.shl_ri(Reg::Eax, *imm);
                    }
                    AluOp::Shr => {
                        asm.shr_ri(Reg::Eax, *imm);
                    }
                }
                expected = op.apply(expected, *imm);
            }
            asm.hlt();
            let code = asm.assemble().unwrap();
            prop_assert!(code.len() <= 4096, "program must fit one page");

            let mut mem = PhysMem::new(4);
            let frame = mem.alloc_frame().unwrap();
            mem.write(frame * 4096, &code).unwrap();
            let mut aspace = AddressSpace::new(Asid(1));
            aspace.map(0x1000, frame, Perms::RX);
            let mut cpu = Cpu::new();
            cpu.context_mut().eip = 0x1000;
            let mut steps = 0;
            loop {
                match cpu.step(&mut mem, &aspace, &mut NoHooks) {
                    StepEvent::Halt => break,
                    StepEvent::Normal | StepEvent::Branch => {}
                    other => prop_assert!(false, "unexpected event {other:?}"),
                }
                steps += 1;
                prop_assert!(steps < 10_000);
            }
            prop_assert_eq!(cpu.reg(Reg::Eax), expected);
            Ok(())
        },
    );
}

#[test]
fn page_round_trip_through_translation() {
    check(
        "page_round_trip_through_translation",
        Config::default(),
        |rng| rng.vec_of(1, 32, |r| r.range_u32(0, 4096)),
        |offsets| {
            // Bytes written through one mapping must be readable through a
            // second mapping of the same frame (aliasing is how
            // cross-process visibility works).
            let mut mem = PhysMem::new(4);
            let frame = mem.alloc_frame().unwrap();
            let mut a = AddressSpace::new(Asid(1));
            let mut b = AddressSpace::new(Asid(2));
            a.map(0x10_000, frame, Perms::RW);
            b.map(0x90_000, frame, Perms::R);
            for (i, off) in offsets.iter().enumerate() {
                let pa = a
                    .translate(0x10_000 + off, faros_emu::mmu::Access::Write)
                    .unwrap();
                mem.write_u8(pa, i as u8).unwrap();
                let pb = b
                    .translate(0x90_000 + off, faros_emu::mmu::Access::Read)
                    .unwrap();
                prop_assert_eq!(pa, pb, "same frame, same offset");
                prop_assert_eq!(mem.read_u8(pb).unwrap(), i as u8);
            }
            Ok(())
        },
    );
}

/// Pages the page-walk property maps and probes: a run of user pages, the
/// first two pages and the last two pages of the address space (so ranges
/// wrap past `0xffff_ffff` to page 0).
fn walk_page(rng: &mut Rng) -> u32 {
    match rng.range_u32(0, 8) {
        0 => rng.range_u32(0, 2) * PAGE_SIZE,
        1 => 0u32.wrapping_sub(rng.range_u32(1, 3) * PAGE_SIZE),
        _ => 0x0050_0000 + rng.range_u32(0, 10) * PAGE_SIZE,
    }
}

/// A region to map: base VA, page count, index into the protections.
type Region = (u32, u32, u32);

/// A random address space: regions of 1-3 pages with random protections
/// (unmapped pages in between are holes; mapping order scatters frames),
/// and the `(va, len)` ranges to walk, most of them crossing pages.
fn walk_case(rng: &mut Rng) -> (Vec<Region>, Vec<(u32, u32)>) {
    let regions = rng.vec_of(1, 10, |r| (walk_page(r), r.range_u32(1, 4), r.range_u32(0, 5)));
    let ranges = rng.vec_of(1, 12, |r| {
        let off = match r.range_u32(0, 3) {
            0 => r.range_u32(0, PAGE_SIZE),
            _ => PAGE_SIZE - r.range_u32(1, 16),
        };
        (walk_page(r).wrapping_add(off), r.range_u32(0, 3 * PAGE_SIZE))
    });
    (regions, ranges)
}

/// The reference walk: translate every byte and coalesce the physical
/// addresses into runs.
fn per_byte_runs(
    va: u32,
    len: u32,
    translate: impl Fn(u32) -> Result<u32, MachineError>,
) -> Result<Vec<ByteRange>, MachineError> {
    let mut runs: Vec<ByteRange> = Vec::new();
    for i in 0..len {
        let phys = translate(va.wrapping_add(i))?;
        match runs.last_mut() {
            Some(last) if last.phys + last.len == phys => last.len += 1,
            _ => runs.push(ByteRange { phys, len: 1 }),
        }
    }
    Ok(runs)
}

/// `phys_runs` (under every access kind) and `write_guest_kernel` walk a
/// range a page at a time; they must give the per-byte walk's runs and,
/// on a hole or a forbidden page, the same error with the same fault VA.
#[test]
fn page_walk_matches_the_per_byte_oracle() {
    let image = FdlImage {
        entry: IMAGE_BASE,
        export_table_va: 0,
        sections: vec![Section { va: IMAGE_BASE, data: vec![0; 16], perms: Perms::RX }],
        exports: vec![],
    };
    let perms = [Perms::NONE, Perms::R, Perms::RW, Perms::RX, Perms::RWX];
    check(
        "page_walk_matches_the_per_byte_oracle",
        Config::with_cases(128),
        walk_case,
        |(regions, ranges)| {
            let mut machine = Machine::new(MachineConfig::default());
            machine.install_program("C:/walk.exe", &image).unwrap();
            let pid = machine.spawn_process("C:/walk.exe", true, None, &mut NullObserver).unwrap();
            for &(va, pages, p) in regions {
                let (size, kind) = (pages * PAGE_SIZE, RegionKind::Private);
                let before: Vec<_> = machine.process(pid).unwrap().aspace.iter().collect();
                let got = machine.map_fresh(pid, va, size, perms[p as usize], kind, &mut NullObserver);
                // A region past the top of the address space is refused,
                // and a refused region (or a collision) maps no page.
                if u64::from(va) + u64::from(size) > 1 << 32 {
                    prop_assert_eq!(&got, &Err(MachineError::BadRegion(va)));
                }
                if got.is_err() {
                    let after: Vec<_> = machine.process(pid).unwrap().aspace.iter().collect();
                    prop_assert_eq!(after, before, "map_fresh({va:#x}, {size:#x}) -> {got:?}");
                }
            }
            let aspace = machine.process(pid).unwrap().aspace.clone();
            for &(va, len) in ranges {
                for access in [Access::Read, Access::Write, Access::Exec] {
                    let want = per_byte_runs(va, len, |v| {
                        aspace.translate(v, access).map_err(MachineError::BadAddress)
                    });
                    let got = machine.phys_runs(pid, va, len, access);
                    prop_assert_eq!(got, want, "phys_runs({va:#x}, {len}, {access:?})");
                }
                let want = per_byte_runs(va, len, |vaddr| {
                    let entry = aspace
                        .entry(vaddr)
                        .ok_or(MachineError::BadAddress(Fault::NotMapped { vaddr }))?;
                    Ok(entry.pfn * PAGE_SIZE + (vaddr & PAGE_MASK))
                });
                let bytes: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
                let got = machine.write_guest_kernel(pid, va, &bytes);
                prop_assert_eq!(&got, &want, "write_guest_kernel({va:#x}, {len})");
                if let Ok(runs) = got {
                    let mut written = Vec::new();
                    for r in runs {
                        let mut buf = vec![0; r.len as usize];
                        machine.mem.read(r.phys, &mut buf).unwrap();
                        written.extend(buf);
                    }
                    prop_assert_eq!(written, bytes, "bytes land in the walked runs");
                }
            }
            Ok(())
        },
    );
}
