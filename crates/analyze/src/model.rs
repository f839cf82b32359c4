//! The per-job static model of one image.
//!
//! Every cross-check a detonation job runs — the coverage diff, the static
//! taint cross-check, CFI, capabilities — and the profiler's symbolization
//! read the same facts about each loaded image. [`ImageModel`] computes
//! them once: one [`analyze_image`] run (CFG recovery plus the VSA
//! resolution fixpoint and taint summaries), and everything the checkers
//! derive from its resolved CFG. The checkers take the
//! [`model_map`] by reference and never rebuild a model themselves.
//!
//! [`ProcessTable::join`] is the one place a process's loaded modules are
//! resolved to models: it reads the replay's final machine (the OSI view:
//! pid, CR3, image name, module list) once per job, and every checker and
//! the profiler read the joined table. Identities are the kernel's: a
//! process is its pid and CR3, a module is the name the loader gave it,
//! and a model is keyed by that same name, so nothing here derives a name.
//!
//! The model also carries the symbolization hook for the deterministic
//! replay profiler: a [`ModuleLayout`] that rolls the profiler's
//! basic-block start VAs up to named functions. Function entries come from
//! the CFI model (image entry point, code exports, direct call targets,
//! resolved indirect targets); names come from the export table, with a
//! `sub_<va>` synthesized for entries no export names. Everything here is
//! a pure function of the image bytes, so symbolization never perturbs the
//! profiler's replay-identical output.

use crate::cfi::CfiModel;
use crate::dataflow::{analyze_image, ImageDataflow};
use crate::syscap::{capability_report, CapabilityReport};
use faros_kernel::machine::Machine;
use faros_kernel::module::FdlImage;
use faros_kernel::Pid;
use faros_obs::prof::ModuleLayout;
use std::collections::BTreeMap;

/// Everything the job-level checkers need to know about one image.
#[derive(Debug, Clone)]
pub struct ImageModel {
    /// The image itself (section bounds for "is this VA code").
    pub image: FdlImage,
    /// The dataflow analysis: the CFG with resolved indirect edges spliced
    /// in, the source→sink flow map, syscall sites and call graph.
    pub dataflow: ImageDataflow,
    /// The CFI claims derived from the resolved CFG.
    pub cfi: CfiModel,
    /// The static capability report.
    pub caps: CapabilityReport,
    /// The function table the profiler symbolizes against.
    pub layout: ModuleLayout,
}

impl ImageModel {
    /// Builds the model of `image` under the module name `name`.
    pub fn build(name: &str, image: FdlImage) -> ImageModel {
        let dataflow = analyze_image(name, &image);
        let cfi = CfiModel::from_cfg(name, &image, &dataflow.cfg);
        let caps = capability_report(&dataflow);
        let mut functions: BTreeMap<u32, String> =
            cfi.function_entries.iter().map(|&va| (va, format!("sub_{va:08x}"))).collect();
        for e in &image.exports {
            // Exports name entries the CFI model already proved are code;
            // an export pointing at data stays out of the table.
            if let Some(slot) = functions.get_mut(&e.va) {
                *slot = e.name.clone();
            }
        }
        let base = image.sections.iter().map(|s| s.va).min().unwrap_or(0);
        let limit = image.sections.iter().map(|s| s.end_va()).max().unwrap_or(0);
        let layout = ModuleLayout { name: name.to_string(), base, limit, functions };
        ImageModel { image, dataflow, cfi, caps, layout }
    }
}

/// Builds one [`ImageModel`] per image, keyed by the module name it comes
/// with. A job feeds it the images its replay loaded
/// ([`Machine::loaded_images`](faros_kernel::machine::Machine::loaded_images):
/// programs and registered DLLs, dropped ones included) under the names
/// the loader gave them.
pub fn model_map<S: Into<String>>(
    entries: impl IntoIterator<Item = (S, FdlImage)>,
) -> BTreeMap<String, ImageModel> {
    entries
        .into_iter()
        .map(|(name, image)| {
            let name = name.into();
            let model = ImageModel::build(&name, image);
            (name, model)
        })
        .collect()
}

/// One process of a job's machine, its loaded modules resolved to models.
#[derive(Debug, Clone)]
pub struct ModeledProcess<'a> {
    /// Process id.
    pub pid: Pid,
    /// CR3 (address-space id) — the identity a taint alert carries.
    pub cr3: u32,
    /// Image name (e.g. `notepad.exe`).
    pub name: &'a str,
    /// The models of the process's loaded modules, in load order.
    pub models: Vec<&'a ImageModel>,
    /// Whether some loaded module has no model.
    pub unmodeled: bool,
}

/// A job's process table joined to its static models: what every checker
/// and the profiler read about which process ran which images.
#[derive(Debug, Clone)]
pub struct ProcessTable<'a> {
    /// Every model of the job, keyed by module name (see [`model_map`]).
    pub models: &'a BTreeMap<String, ImageModel>,
    /// Every process, in pid order.
    pub processes: Vec<ModeledProcess<'a>>,
}

impl<'a> ProcessTable<'a> {
    /// Joins every process of `machine`, alive and exited, to the models
    /// of its loaded modules, matched by module name exactly.
    pub fn join(machine: &'a Machine, models: &'a BTreeMap<String, ImageModel>) -> Self {
        let processes = machine
            .processes()
            .map(|p| {
                let loaded: Vec<&ImageModel> =
                    p.modules.iter().filter_map(|m| models.get(&m.name)).collect();
                ModeledProcess {
                    pid: p.pid,
                    cr3: p.cr3().0,
                    name: &p.name,
                    unmodeled: loaded.len() < p.modules.len(),
                    models: loaded,
                }
            })
            .collect();
        ProcessTable { models, processes }
    }

    /// The processes that loaded `model`.
    pub(crate) fn loaders<'s>(
        &'s self,
        model: &'s ImageModel,
    ) -> impl Iterator<Item = &'s ModeledProcess<'a>> + 's {
        self.processes.iter().filter(move |p| p.models.iter().any(|m| std::ptr::eq(*m, model)))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use faros_emu::asm::Asm;
    use faros_emu::isa::Reg;
    use faros_emu::mmu::Perms;
    use faros_kernel::module::{Export, Section};

    const BASE: u32 = 0x40_0000;

    /// A table of processes named after the one model each loaded: pid
    /// `i + 1` has CR3 `cr3s[i]`.
    pub(crate) fn processes_of<'a>(
        models: &'a BTreeMap<String, ImageModel>,
        module: &'a str,
        cr3s: &[u32],
    ) -> ProcessTable<'a> {
        let processes = (1..)
            .zip(cr3s)
            .map(|(pid, &cr3)| ModeledProcess {
                pid: Pid(pid),
                cr3,
                name: module,
                models: vec![&models[module]],
                unmodeled: false,
            })
            .collect();
        ProcessTable { models, processes }
    }

    /// A table of one process (pid 1, CR3 0x2000) named after the one
    /// model it loaded.
    pub(crate) fn one_process<'a>(
        models: &'a BTreeMap<String, ImageModel>,
        module: &'a str,
    ) -> ProcessTable<'a> {
        processes_of(models, module, &[0x2000])
    }

    #[test]
    fn models_are_keyed_by_the_name_they_are_given() {
        let mut asm = Asm::new(BASE);
        asm.hlt();
        let image = FdlImage {
            entry: BASE,
            export_table_va: 0,
            sections: vec![Section { va: BASE, data: asm.assemble().unwrap(), perms: Perms::RX }],
            exports: vec![],
        };
        let models = model_map([("a.exe", image.clone()), ("b.exe", image)]);
        assert_eq!(models.keys().collect::<Vec<_>>(), ["a.exe", "b.exe"]);
        let m = &models["a.exe"];
        assert_eq!(m.dataflow.cfg.name, "a.exe");
        assert_eq!(m.cfi.module, "a.exe");
        assert_eq!(m.caps.module, "a.exe");
        assert_eq!(m.layout.name, "a.exe");
    }

    /// entry: `call reg` through a constant to `helper`, which nothing
    /// else reaches; `named` is an export.
    fn indirect_image() -> (FdlImage, u32, u32) {
        let mut asm = Asm::new(BASE);
        asm.mov_label(Reg::Ebx, "helper");
        asm.call_reg(Reg::Ebx);
        asm.hlt();
        asm.label("helper");
        asm.ret();
        asm.label("named");
        asm.ret();
        let (data, labels) = asm.assemble_with_labels().unwrap();
        let image = FdlImage {
            entry: BASE,
            export_table_va: 0,
            sections: vec![Section { va: BASE, data, perms: Perms::RX }],
            exports: vec![Export { name: "named".into(), va: labels["named"] }],
        };
        (image, labels["helper"], labels["named"])
    }

    #[test]
    fn layout_names_exports_and_lists_resolved_indirect_targets() {
        let (image, helper, named) = indirect_image();
        let m = ImageModel::build("app.exe", image);
        assert_eq!(m.layout.base, BASE);
        assert!(m.layout.limit > named);
        assert_eq!(m.layout.functions.get(&named).map(String::as_str), Some("named"));
        assert_eq!(
            m.layout.functions.get(&BASE).map(String::as_str),
            Some(&*format!("sub_{BASE:08x}")),
            "the unexported entry point gets a synthesized name"
        );
        assert_eq!(
            m.layout.functions.get(&helper).map(String::as_str),
            Some(&*format!("sub_{helper:08x}")),
            "a function reached only through a resolved `call reg` is a layout entry"
        );
    }

    #[test]
    fn the_join_lists_every_process_with_its_models_in_load_order() {
        use faros_kernel::event::NullObserver;
        use faros_kernel::machine::MachineConfig;
        let (image, _, _) = indirect_image();
        let dll = |base: u32| {
            let mut asm = Asm::new(base);
            asm.ret();
            let data = asm.assemble().unwrap();
            FdlImage {
                entry: base,
                export_table_va: 0,
                sections: vec![Section { va: base, data, perms: Perms::RX }],
                exports: vec![],
            }
        };
        let (lib, other) = (dll(0x0200_0000), dll(0x0300_0000));
        let mut machine = Machine::new(MachineConfig::default());
        machine.install_program("C:/app.exe", &image).unwrap();
        machine.install_program("C:/lib.dll", &lib).unwrap();
        machine.install_program("C:/other.dll", &other).unwrap();
        let obs = &mut NullObserver;
        let a = machine.spawn_process("C:/app.exe", true, None, obs).unwrap();
        let b = machine.spawn_process("C:/app.exe", true, None, obs).unwrap();
        machine.load_image_into(b, "C:/lib.dll", obs).unwrap();
        machine.load_image_into(b, "C:/other.dll", obs).unwrap();
        // `other.dll` was loaded but has no model.
        let models = model_map([("app.exe", image), ("lib.dll", lib)]);
        let table = ProcessTable::join(&machine, &models);

        let rows: Vec<(Pid, &str, Vec<&str>, bool)> = table
            .processes
            .iter()
            .map(|p| {
                let names = p.models.iter().map(|m| &*m.layout.name).collect();
                (p.pid, p.name, names, p.unmodeled)
            })
            .collect();
        assert_eq!(
            rows,
            [
                (a, "app.exe", vec!["app.exe"], false),
                (b, "app.exe", vec!["app.exe", "lib.dll"], true),
            ]
        );
        let cr3s: Vec<u32> = table.processes.iter().map(|p| p.cr3).collect();
        assert_eq!(cr3s, [a, b].map(|pid| machine.process(pid).unwrap().cr3().0));
        let loaders: Vec<Pid> = table.loaders(&models["lib.dll"]).map(|p| p.pid).collect();
        assert_eq!(loaders, [b]);
    }

    #[test]
    fn cfi_and_caps_come_from_the_resolved_cfg() {
        let (image, helper, _) = indirect_image();
        let m = ImageModel::build("app.exe", image);
        assert_eq!(m.cfi.indirect_targets.values().next(), Some(&[helper].into()));
        assert!(m.cfi.function_entries.contains(&helper));
        assert!(m.dataflow.cfg.is_reachable(helper));
        assert!(!m.caps.calls_unknown_code, "the only indirect site resolved in-image");
    }
}
