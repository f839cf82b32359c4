//! # faros-replay — record/replay and the plugin architecture
//!
//! The PANDA equivalent of the reproduction:
//!
//! * [`plugin`] — the [`plugin::Plugin`] trait and the fan-out
//!   [`plugin::PluginManager`] (FAROS attaches here, exactly as the paper's
//!   plugin attaches to PANDA);
//! * [`scenario`] — deterministic machine setups;
//! * [`driver`] — [`driver::record`] captures nondeterminism into a
//!   serializable [`driver::Recording`]; [`driver::replay`] re-executes it
//!   bit-identically under an arbitrary plugin stack;
//! * [`recorder`] — the [`recorder::TraceRecorder`] plugin, emitting the
//!   structured flight-recorder trace and metrics of `faros-obs` (the
//!   one event timeline: the CLI's `trace` view reads it too);
//! * the observers the static-vs-dynamic cross-checks read, one per replay
//!   signal: [`coverage::BlockCoverage`] (executed blocks, each with its
//!   retired instructions — the coverage diff and the replay profiler
//!   both read it), [`cfi::CfiMonitor`] (indirect control transfers) and
//!   [`syscap::CapabilityMonitor`] (exercised syscall capabilities). Each
//!   returns only what it saw, keyed by pid; process identity (name, CR3,
//!   loaded modules) is read from the replay's final
//!   [`Machine`](faros_kernel::machine::Machine), the OSI view, as the
//!   paper's plugin reads it from PANDA.
//!
//! Table V's measurement is `replay` wall-clock with an empty plugin stack
//! vs. with FAROS registered.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cfi;
pub mod coverage;
pub mod syscap;
pub mod driver;
pub mod plugin;
pub mod recorder;
pub mod scenario;

pub use cfi::{CfiMonitor, ProcessTransfers, TransferKind, TransferSite};
pub use coverage::{BlockCoverage, ProcessBlocks};
pub use driver::{
    record, record_and_replay, replay, replay_with_exec, Recording, ReplayError, RunOutcome,
    DEFAULT_BUDGET,
};
pub use plugin::{Plugin, PluginCost, PluginManager};
pub use recorder::TraceRecorder;
pub use syscap::{CapSet, Capability, CapabilityMonitor, CapabilityUse};
pub use scenario::{Scenario, DEFAULT_GUEST_IP};
