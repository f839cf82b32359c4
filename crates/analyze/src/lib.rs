//! # faros-analyze — static FE32/FDL binary analysis
//!
//! The static counterpart to FAROS' dynamic taint engine, in the hybrid
//! shape of SpiderPig's static pre-analysis and ROPocop's statically
//! derived code invariants:
//!
//! * [`mod@cfg`] — recursive-descent + linear-sweep disassembly over an
//!   [`FdlImage`](faros_kernel::module::FdlImage)'s executable sections,
//!   recovering basic blocks, a control-flow graph, and direct call edges
//!   — without executing a single instruction;
//! * [`lint`] — a pass over the image and its recovered CFG emitting
//!   structured [`lint::Finding`]s: W^X sections, reachable
//!   writes into code, statically unresolvable indirect control flow,
//!   unreachable code, dangling exports, export-hash collisions;
//! * [`vsa`] — worklist-based intra-procedural value-set analysis over
//!   the FE32 registers and stack slots (strided-interval domain), the
//!   abstract interpreter behind indirect-branch resolution;
//! * [`dataflow`] — drives [`vsa`] to a whole-image fixpoint: resolves
//!   indirect call/jump targets (spliced back into the [`ModuleCfg`]),
//!   computes per-function taint summaries composed into an
//!   inter-procedural source→sink flow map, and cross-checks dynamic
//!   taint alerts against the static model (`statically explainable` vs
//!   `statically impossible-per-model` — the latter an injection signal);
//! * [`gadgets`] — the gadget-surface scanner: a byte-granular linear
//!   sweep for free-branch endpoints (`ret`, `call reg`, `jmp reg`) and
//!   the short instruction runs that reach them, scoring each image's
//!   code-reuse raw material by gadget density;
//! * [`cfi`] — the static control-flow-integrity model ([`cfi::CfiModel`]:
//!   resolved indirect target sets, call-preceded return sites, function
//!   entries) and the dynamic cross-check ([`cfi::check`]) that holds
//!   every replay-observed `ret`/`call reg`/`jmp reg` transfer to it —
//!   the code-reuse (ROP/JOP) detection signal;
//! * [`model`] — [`ImageModel`], the per-job static model of one image
//!   (dataflow over the resolved CFG, CFI claims, capability report,
//!   profiler function table), built once per job and shared by every
//!   cross-check below and by profile symbolization, and
//!   [`loaded_models`], the one basename lookup from a process's loaded
//!   modules to their models;
//! * [`report`] — the one-call bundle behind `faros-cli analyze <image>`:
//!   CFG + dataflow + lints over a single image rendered to a stable JSON
//!   wire format;
//! * [`coverage`] — the static-vs-dynamic cross-check: diff the basic
//!   blocks a replay actually executed (recorded by
//!   [`faros_replay::BlockCoverage`]) against the union of static models
//!   of every loaded module, so *dynamically executed but statically
//!   unaccounted code* becomes an independent injection signal.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cfg;
pub mod cfi;
pub mod coverage;
pub mod dataflow;
pub mod gadgets;
pub mod lint;
pub mod model;
pub mod report;
pub mod syscap;
pub mod vsa;

pub use cfg::{BasicBlock, ModuleCfg};
pub use cfi::{CfiCheckReport, CfiModel, CfiStats, CfiViolation};
pub use coverage::{diff, CoverageReport, ProcessCoverage};
pub use gadgets::{GadgetReport, GadgetStats, SectionGadgets};
pub use dataflow::{
    analyze_image, taint_cross_check_with_stats, DataflowStats, DynamicAlert,
    ImageDataflow, ImageFlowMap, ProcessTaintCheck, ResidualFlow, SinkKind, SourceKind,
    StaticFlow, TaintCrossCheck,
};
pub use lint::{lint_image, render_findings, Finding, FindingKind, Severity};
pub use model::{layouts_for, loaded_models, model_map, ImageModel};
pub use report::StaticReport;
pub use syscap::{
    ambient_caps, capability_cross_check_with_stats,
    caps_of_syscall, render_capability_check, CapWitness, CapabilityCrossCheck, CapabilityReport,
    ProcessCapCheck, Recipe, RecipeHit, ResidualRecipe, SyscapStats, RECIPES,
};
pub use vsa::{AVal, StridedInterval};
