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
use faros_kernel::module::{FdlImage, ModuleInfo};
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

/// Builds one [`ImageModel`] per image, keyed by basename so
/// `C:/notepad.exe` and `notepad.exe` name the same model. A job feeds it
/// the images its replay loaded
/// ([`Machine::loaded_images`](faros_kernel::machine::Machine::loaded_images):
/// programs and registered DLLs, dropped ones included). A later entry with
/// the same basename replaces an earlier one before anything is built.
pub fn model_map<S: AsRef<str>>(
    entries: impl IntoIterator<Item = (S, FdlImage)>,
) -> BTreeMap<String, ImageModel> {
    let images: BTreeMap<String, FdlImage> = entries
        .into_iter()
        .map(|(path, image)| (basename(path.as_ref()).to_string(), image))
        .collect();
    images
        .into_iter()
        .map(|(name, image)| (name.clone(), ImageModel::build(&name, image)))
        .collect()
}

/// The final path component, so `C:/notepad.exe` and `notepad.exe` key the
/// same image.
pub(crate) fn basename(path: &str) -> &str {
    path.rsplit(['/', '\\']).next().unwrap_or(path)
}

/// The models of a process's loaded modules, in load order, matched by
/// basename (`C:/notepad.exe` loads the `notepad.exe` model). Modules with
/// no archived image are skipped. Every cross-check resolves modules to
/// models through here.
pub fn loaded_models<'a>(
    modules: &'a [ModuleInfo],
    models: &'a BTreeMap<String, ImageModel>,
) -> impl Iterator<Item = &'a ImageModel> + 'a {
    modules.iter().filter_map(|m| models.get(basename(&m.name)))
}

/// Selects the layouts of a process's loaded modules (see
/// [`loaded_models`]). Modules with no archived image are skipped — their
/// blocks symbolize to `[anon]`.
pub fn layouts_for(
    modules: &[ModuleInfo],
    models: &BTreeMap<String, ImageModel>,
) -> Vec<ModuleLayout> {
    loaded_models(modules, models).map(|m| m.layout.clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use faros_emu::asm::Asm;
    use faros_emu::isa::Reg;
    use faros_emu::mmu::Perms;
    use faros_kernel::module::{Export, Section};

    const BASE: u32 = 0x40_0000;

    #[test]
    fn models_are_keyed_by_basename_and_built_once_per_image() {
        let mut asm = Asm::new(BASE);
        asm.hlt();
        let image = FdlImage {
            entry: BASE,
            export_table_va: 0,
            sections: vec![Section { va: BASE, data: asm.assemble().unwrap(), perms: Perms::RX }],
            exports: vec![],
        };
        let models = model_map([("C:/a.exe", image.clone()), ("a.exe", image.clone())]);
        assert_eq!(models.keys().collect::<Vec<_>>(), ["a.exe"]);
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
    fn cfi_and_caps_come_from_the_resolved_cfg() {
        let (image, helper, _) = indirect_image();
        let m = ImageModel::build("app.exe", image);
        assert_eq!(m.cfi.indirect_targets.values().next(), Some(&[helper].into()));
        assert!(m.cfi.function_entries.contains(&helper));
        assert!(m.dataflow.cfg.is_reachable(helper));
        assert!(!m.caps.calls_unknown_code, "the only indirect site resolved in-image");
    }
}
