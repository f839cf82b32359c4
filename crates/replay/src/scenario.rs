//! Scenario abstraction: a reproducible machine setup.
//!
//! A [`Scenario`] describes everything *deterministic* about a run: which
//! guest programs exist, which processes start, and which scripted remote
//! endpoints are on the network. The record/replay driver supplies the
//! fabric (live for recording, log-backed for replay); the scenario builds
//! an identical machine either way, which is what makes replay faithful.

use faros_kernel::event::Observer;
use faros_kernel::machine::{Machine, MachineConfig, MachineError};
use faros_kernel::module::FdlImage;
use faros_kernel::net::NetworkFabric;

/// The default guest IP (matches the victim address in the paper's
/// Table II: `169.254.57.168`).
pub const DEFAULT_GUEST_IP: [u8; 4] = [169, 254, 57, 168];

/// A reproducible machine setup.
///
/// Implementations must be deterministic: given equivalent fabrics, `build`
/// must produce machines that execute identically. All corpus samples
/// (attacks, benign workloads, JIT sites) implement this trait.
pub trait Scenario {
    /// Scenario name (used in recordings and reports).
    fn name(&self) -> &str;

    /// The guest's IP address.
    fn guest_ip(&self) -> [u8; 4] {
        DEFAULT_GUEST_IP
    }

    /// Builds the machine: installs programs, registers endpoints on the
    /// fabric (ignored during replay), spawns the initial process(es).
    ///
    /// # Errors
    ///
    /// Returns a [`MachineError`] if program installation or spawning fails.
    fn build(
        &self,
        fabric: NetworkFabric,
        obs: &mut dyn Observer,
    ) -> Result<Machine, MachineError>;

    /// Machine configuration (override for bigger RAM etc.).
    fn config(&self) -> MachineConfig {
        MachineConfig { guest_ip: self.guest_ip(), ..MachineConfig::default() }
    }

    /// The guest program images the scenario installs, as `(path, image)`
    /// pairs — the module set static analysis lints without executing
    /// anything. Scenarios that build their machines some other way may
    /// return an empty slice. Job-scoped report assembly does not read
    /// this: it models the images the replay's loader mapped.
    fn programs(&self) -> &[(String, FdlImage)] {
        &[]
    }
}

impl std::fmt::Debug for dyn Scenario + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Scenario({})", self.name())
    }
}
