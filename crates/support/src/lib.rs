//! # faros-support — hermetic in-tree infrastructure
//!
//! The reproduction carries its own minimal infrastructure so that the
//! whole workspace builds and tests with no network and no crates.io
//! registry (the same philosophy as TaintAssembly's self-contained taint
//! instrumentation: no ecosystem dependency between the evidence and the
//! claim). Three std-only subsystems:
//!
//! * [`json`] — a [`json::JsonValue`] tree with a recursive-descent parser,
//!   compact and pretty printers, and [`json::ToJson`] / [`json::FromJson`]
//!   traits — the substitute for `serde`/`serde_json`;
//! * [`prop`] — a deterministic property-testing harness (xorshift64\*
//!   PRNG, fixed-seed reproduction, greedy input shrinking) — the
//!   substitute for `proptest`;
//! * [`mod@bench`] — a wall-clock micro-bench harness (warmup, N samples,
//!   median/p95, `BENCH_*.json` output) — the substitute for `criterion`;
//! * [`arb`] — `Arbitrary`-style generators for the FE32 ISA and
//!   guest-program domains, shared by the property suites.

#![warn(missing_docs)]

pub mod arb;
pub mod bench;
pub mod json;
pub mod prop;
