//! Record/replay drivers — the PANDA usage scenario of FAROS §V-C.
//!
//! The analyst workflow the paper describes maps onto three calls:
//!
//! 1. [`record`] — run the scenario live (scripted attacker endpoints
//!    attached), capturing every nondeterministic input into a
//!    [`Recording`];
//! 2. [`replay`] — re-execute deterministically from the recording with an
//!    arbitrary plugin stack attached (e.g. FAROS performing taint
//!    analysis);
//! 3. inspect whatever the plugins produced.
//!
//! A replay of the same recording is *bit-identical* to the original run
//! (same instruction count, console, process tree); the driver asserts no
//! divergence was detected.

use crate::scenario::Scenario;
use faros_kernel::event::{NullObserver, Observer};
use faros_kernel::machine::{ExecMode, Machine, RunExit};
use faros_kernel::net::{NetLog, NetworkFabric};
use faros_obs::profile::PhaseProfile;
use faros_support::json::{self, FromJson, JsonError, JsonValue, ToJson};
use std::fmt;

/// Captured nondeterminism plus run metadata — everything needed to
/// re-execute a scenario deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recording {
    /// Scenario name it was recorded from.
    pub scenario: String,
    /// The network nondeterminism log.
    pub net_log: NetLog,
    /// Instructions retired during the recording run.
    pub instructions: u64,
    /// How the recording run ended.
    pub clean_exit: bool,
}

impl ToJson for Recording {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("scenario", self.scenario.to_json_value()),
            ("net_log", self.net_log.to_json_value()),
            ("instructions", self.instructions.to_json_value()),
            ("clean_exit", self.clean_exit.to_json_value()),
        ])
    }
}

impl FromJson for Recording {
    fn from_json_value(v: &JsonValue) -> Result<Recording, JsonError> {
        Ok(Recording {
            scenario: json::field(v, "scenario")?,
            net_log: json::field(v, "net_log")?,
            instructions: json::field(v, "instructions")?,
            clean_exit: json::field(v, "clean_exit")?,
        })
    }
}

impl Recording {
    /// Serializes the recording to JSON (PANDA recordings are files the
    /// analyst stores and replays later). The rendering is compact and
    /// byte-stable: the same recording always produces the same bytes.
    ///
    /// # Errors
    ///
    /// Infallible in practice; the `Result` is kept for API stability.
    pub fn to_json(&self) -> Result<String, JsonError> {
        Ok(self.to_json_value().to_compact())
    }

    /// Deserializes a recording from JSON.
    ///
    /// # Errors
    ///
    /// Returns a parse error for malformed input.
    pub fn from_json(json: &str) -> Result<Recording, JsonError> {
        Recording::from_json_value(&JsonValue::parse(json)?)
    }

    /// Writes the recording to a file.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the file cannot be written.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        let json = self.to_json().map_err(std::io::Error::other)?;
        std::fs::write(path, json)
    }

    /// Reads a recording from a file.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the file cannot be read or parsed.
    pub fn load(path: &std::path::Path) -> std::io::Result<Recording> {
        let json = std::fs::read_to_string(path)?;
        Recording::from_json(&json).map_err(std::io::Error::other)
    }
}

/// Outcome of a [`record`] or [`replay`] run.
pub struct RunOutcome {
    /// The machine in its final state (for console/pslist/memory
    /// inspection).
    pub machine: Machine,
    /// How the run ended.
    pub exit: RunExit,
    /// Instructions retired.
    pub instructions: u64,
    /// Wall-clock per driver phase (`setup`, `record`/`replay`; the
    /// `replay` phase is the measurement behind Table V, and the sum of
    /// both is the job's `replay` cost in `faros::pipeline`); callers
    /// merge their own phases (e.g. `report`) in. Human-facing diagnostics
    /// only — never part of deterministic exports.
    pub phases: PhaseProfile,
}

impl fmt::Debug for RunOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunOutcome")
            .field("exit", &self.exit)
            .field("instructions", &self.instructions)
            .field("phases", &self.phases)
            .finish()
    }
}

/// Error from the replay driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The replay consumed inputs differently from the recording.
    Diverged(String),
    /// The scenario failed to build (missing program, bad image, ...).
    Setup(String),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Diverged(d) => write!(f, "replay diverged: {d}"),
            ReplayError::Setup(e) => write!(f, "scenario setup failed: {e}"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Default instruction budget for scenario runs.
pub const DEFAULT_BUDGET: u64 = 20_000_000;

/// Runs a scenario live and captures a [`Recording`].
///
/// # Errors
///
/// Returns [`ReplayError::Setup`] if the scenario fails to build.
pub fn record<S: Scenario + ?Sized>(
    scenario: &S,
    budget: u64,
) -> Result<(Recording, RunOutcome), ReplayError> {
    let mut phases = PhaseProfile::new();
    let fabric = NetworkFabric::new_live(scenario.guest_ip());
    let mut obs = NullObserver;
    let mut machine = phases
        .time("setup", || scenario.build(fabric, &mut obs))
        .map_err(|e| ReplayError::Setup(e.to_string()))?;
    let exit = phases.time("record", || machine.run(budget, &mut obs));
    let instructions = machine.ticks();
    let recording = Recording {
        scenario: scenario.name().to_string(),
        net_log: machine.net.recorded().clone(),
        instructions,
        clean_exit: exit == RunExit::AllExited,
    };
    Ok((recording, RunOutcome { machine, exit, instructions, phases }))
}

/// Replays a recording with the given observer (plugin stack) attached,
/// using the default execution mode ([`ExecMode::Cached`]).
///
/// # Errors
///
/// Returns [`ReplayError::Diverged`] if the replay consumed network inputs
/// in a different order than the recording, and [`ReplayError::Setup`] if
/// the scenario fails to build.
pub fn replay<S: Scenario + ?Sized, O: Observer>(
    scenario: &S,
    recording: &Recording,
    budget: u64,
    obs: &mut O,
) -> Result<RunOutcome, ReplayError> {
    replay_with_exec(scenario, recording, budget, ExecMode::Cached, obs)
}

/// Like [`replay`], but with an explicit [`ExecMode`] — the differential
/// harness runs the same recording under [`ExecMode::Interpret`] and
/// [`ExecMode::Cached`] and requires byte-identical reports.
///
/// # Errors
///
/// Same as [`replay`].
pub fn replay_with_exec<S: Scenario + ?Sized, O: Observer>(
    scenario: &S,
    recording: &Recording,
    budget: u64,
    exec: ExecMode,
    obs: &mut O,
) -> Result<RunOutcome, ReplayError> {
    let mut phases = PhaseProfile::new();
    let fabric = NetworkFabric::new_replay(scenario.guest_ip(), recording.net_log.clone());
    let mut machine = phases
        .time("setup", || scenario.build(fabric, obs))
        .map_err(|e| ReplayError::Setup(e.to_string()))?;
    machine.set_exec_mode(exec);
    let exit = phases.time("replay", || machine.run(budget, obs));
    if let Some(d) = machine.net.divergence() {
        return Err(ReplayError::Diverged(d.detail.clone()));
    }
    let instructions = machine.ticks();
    Ok(RunOutcome { machine, exit, instructions, phases })
}

/// Records a scenario, then replays it under the observer — the
/// one-call analyst workflow ("run malware in the VM, then analyze the
/// capture with FAROS loaded", §V-C).
///
/// # Errors
///
/// Propagates [`record`] and [`replay`] errors.
pub fn record_and_replay<S: Scenario + ?Sized, O: Observer>(
    scenario: &S,
    budget: u64,
    obs: &mut O,
) -> Result<(Recording, RunOutcome), ReplayError> {
    let (recording, live) = record(scenario, budget)?;
    let mut outcome = replay(scenario, &recording, budget, obs)?;
    outcome.phases.merge(&live.phases);
    Ok((recording, outcome))
}
