//! # faros-service — the detonation service
//!
//! The deployment story of the FAROS reproduction: instead of one CLI
//! invocation per sample, a long-running service ingests detonation jobs
//! (corpus scenario names or raw recordings), fans them out to a pool of
//! replay+analyze workers, and serves back per-job [`FarosReport`]s plus
//! merged fleet metrics — the shape a malware-triage pipeline actually
//! runs FAROS in.
//!
//! [`FarosReport`]: faros::FarosReport
//!
//! The layers, bottom up:
//!
//! * [`job`] — the wire types: job specs, statuses, structured failures,
//!   results;
//! * [`fault`] — fault injection (panic mid-replay, corrupt report,
//!   stall), used by the crash-test suite to prove containment;
//! * [`service`] — the [`Detonator`]: bounded queue (its capacity is the
//!   backpressure boundary, its close-then-drain the shutdown contract),
//!   worker pool, claim-token result publishing, deadline supervisor,
//!   worker replacement, graceful shutdown, merged stats;
//! * [`health`] — SLO rules turning a stats snapshot into a structured
//!   [`HealthReport`] (queue saturation, trace drops, worker
//!   replacements, deadline kills);
//! * [`protocol`] — length-prefixed JSON frames and the request/response
//!   enums spoken over the socket, including the live telemetry verbs
//!   (`metrics` / `health` / `trace`);
//! * [`server`] — the Unix-socket server ([`serve`]) and blocking
//!   [`Client`].
//!
//! Every job is analyzed by `faros::analyze_recording` — the same
//! pipeline the CLI calls — so a report produced by a 16-worker service is
//! byte-identical to the one a sequential `faros-cli analyze` run prints.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fault;
pub mod health;
pub mod job;
pub mod protocol;
pub mod server;
pub mod service;

pub use fault::{Fault, FaultPlan};
pub use health::{HealthCheck, HealthReport, HealthStatus};
pub use job::{FailureKind, JobFailure, JobResult, JobSpec, JobStatus, JobView};
pub use protocol::{read_frame, write_frame, FrameError, Request, Response};
pub use server::{serve, Client, ServerHandle};
pub use service::{Detonator, ServiceConfig, ServiceStats, SubmitError};
