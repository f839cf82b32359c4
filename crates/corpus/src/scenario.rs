//! Sample scenarios: a named machine setup plus ground truth.
//!
//! Every corpus entry (attack, non-injecting malware, benign app, JIT
//! workload) is a [`Sample`]: a buildable [`faros_replay::Scenario`]
//! carrying its ground-truth label and Table IV behaviour profile.

use crate::endpoints::{EndpointFactory, InboundFactory};
use faros_kernel::event::Observer;
use faros_kernel::machine::{Machine, MachineConfig, MachineError};
use faros_kernel::module::FdlImage;
use faros_kernel::net::NetworkFabric;
use faros_replay::Scenario;
use std::fmt;

/// Which in-memory injection technique a sample implements (§II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InjectionKind {
    /// Reflective DLL injection.
    ReflectiveDll,
    /// Process hollowing / replacement.
    Hollowing,
    /// Code/process injection (RAT-style).
    CodeInjection,
}

impl fmt::Display for InjectionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InjectionKind::ReflectiveDll => "reflective DLL injection",
            InjectionKind::Hollowing => "process hollowing/replacement",
            InjectionKind::CodeInjection => "code/process injection",
        };
        f.write_str(s)
    }
}

/// Ground-truth category of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// In-memory-injecting malware (FAROS must flag it).
    Injecting(InjectionKind),
    /// Code-reuse (ROP/JOP) attack: executes only image-backed bytes, so
    /// the injected-byte signals stay silent by design — the CFI
    /// cross-check must raise a violation instead.
    ReuseAttack,
    /// Malware without in-memory injection (must not be flagged).
    NonInjectingMalware,
    /// Benign software (must not be flagged).
    Benign,
    /// JIT-compiling workload (applet/AJAX; flagging is a known FP class).
    Jit,
}

impl Category {
    /// Returns `true` when the FAROS *taint* signal should flag the
    /// sample. Code-reuse attacks are deliberately excluded: they inject
    /// no bytes, so the taint-confluence detector must stay silent (the
    /// CFI cross-check owns that signal — see [`Category::is_attack`]).
    pub fn should_flag(self) -> bool {
        matches!(self, Category::Injecting(_))
    }

    /// Returns `true` when the sample is an attack by *some* FAROS signal
    /// (taint confluence for injections, CFI violations for code reuse).
    pub fn is_attack(self) -> bool {
        matches!(self, Category::Injecting(_) | Category::ReuseAttack)
    }
}

/// The Table IV behaviour columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Behavior {
    /// Sits idle (sleep loop).
    Idle,
    /// Plain computation.
    Run,
    /// Records from the audio device to a file.
    AudioRecord,
    /// Moves files over the network.
    FileTransfer,
    /// Logs keystrokes to a file.
    KeyLogger,
    /// Streams the screen and accepts commands.
    RemoteDesktop,
    /// Uploads a file to the C2.
    Upload,
    /// Downloads data from the C2 to a file.
    Download,
    /// Executes C2-issued commands.
    RemoteShell,
}

impl Behavior {
    /// All behaviours, in the paper's column order.
    pub const ALL: [Behavior; 9] = [
        Behavior::Idle,
        Behavior::Run,
        Behavior::AudioRecord,
        Behavior::FileTransfer,
        Behavior::KeyLogger,
        Behavior::RemoteDesktop,
        Behavior::Upload,
        Behavior::Download,
        Behavior::RemoteShell,
    ];

    /// The Table IV column header.
    pub fn column(&self) -> &'static str {
        match self {
            Behavior::Idle => "Idle",
            Behavior::Run => "Run",
            Behavior::AudioRecord => "Audio Record",
            Behavior::FileTransfer => "File Transfer",
            Behavior::KeyLogger => "Key logger",
            Behavior::RemoteDesktop => "Remote Desktop",
            Behavior::Upload => "Upload",
            Behavior::Download => "Download",
            Behavior::RemoteShell => "Remote Shell",
        }
    }

    /// Returns `true` if the behaviour needs a C2 connection.
    pub fn needs_network(&self) -> bool {
        matches!(
            self,
            Behavior::FileTransfer
                | Behavior::RemoteDesktop
                | Behavior::Upload
                | Behavior::Download
                | Behavior::RemoteShell
        )
    }
}

/// A buildable corpus scenario.
pub struct SampleScenario {
    name: String,
    programs: Vec<(String, FdlImage)>,
    seed_files: Vec<(String, Vec<u8>)>,
    endpoints: Vec<EndpointFactory>,
    inbound: Vec<InboundFactory>,
    autostart: Vec<String>,
    config: MachineConfig,
}

impl fmt::Debug for SampleScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SampleScenario")
            .field("name", &self.name)
            .field("programs", &self.programs.iter().map(|(p, _)| p).collect::<Vec<_>>())
            .field("autostart", &self.autostart)
            .finish()
    }
}

impl SampleScenario {
    /// Creates an empty scenario.
    pub fn new(name: &str) -> SampleScenario {
        SampleScenario {
            name: name.to_string(),
            programs: Vec::new(),
            seed_files: Vec::new(),
            endpoints: Vec::new(),
            inbound: Vec::new(),
            autostart: Vec::new(),
            config: MachineConfig::default(),
        }
    }

    /// Adds a guest program image at `path`.
    pub fn program(mut self, path: &str, image: FdlImage) -> SampleScenario {
        self.programs.push((path.to_string(), image));
        self
    }

    /// Adds a plain data file to the guest filesystem (device feeds,
    /// documents to exfiltrate, ...).
    pub fn seed_file(mut self, path: &str, data: Vec<u8>) -> SampleScenario {
        self.seed_files.push((path.to_string(), data));
        self
    }

    /// Registers a scripted remote endpoint.
    pub fn endpoint(mut self, factory: EndpointFactory) -> SampleScenario {
        self.endpoints.push(factory);
        self
    }

    /// Schedules a remote-initiated (inbound) connection.
    pub fn inbound(mut self, factory: InboundFactory) -> SampleScenario {
        self.inbound.push(factory);
        self
    }

    /// Marks a program to be spawned at machine start.
    pub fn autostart(mut self, path: &str) -> SampleScenario {
        self.autostart.push(path.to_string());
        self
    }
}

impl Scenario for SampleScenario {
    fn name(&self) -> &str {
        &self.name
    }

    fn build(
        &self,
        mut fabric: NetworkFabric,
        obs: &mut dyn Observer,
    ) -> Result<Machine, MachineError> {
        for factory in &self.endpoints {
            fabric.add_endpoint(factory.ip, factory.port, (factory.make)());
        }
        for factory in &self.inbound {
            fabric.schedule_inbound(
                factory.remote,
                factory.guest_port,
                factory.at_tick,
                (factory.make)(),
            );
        }
        let mut machine = Machine::with_fabric(self.config.clone(), fabric);
        for (path, data) in &self.seed_files {
            machine
                .fs
                .create(path, data.clone())
                .map_err(|e| MachineError::BadImage(e.to_string()))?;
        }
        for (path, image) in &self.programs {
            machine.install_program(path, image)?;
        }
        for path in &self.autostart {
            machine.spawn_process(path, false, None, obs)?;
        }
        Ok(machine)
    }

    fn config(&self) -> MachineConfig {
        self.config.clone()
    }

    /// The scenario's guest program images, as `(path, image)` pairs — the
    /// module set the static analyzer lints without executing anything.
    fn programs(&self) -> &[(String, FdlImage)] {
        &self.programs
    }
}

/// A corpus sample: scenario + ground truth + behaviour profile.
#[derive(Debug)]
pub struct Sample {
    /// The buildable scenario.
    pub scenario: SampleScenario,
    /// Ground-truth category.
    pub category: Category,
    /// Table IV behaviour profile (empty for attacks/JIT workloads).
    pub behaviors: Vec<Behavior>,
}

impl Sample {
    /// The sample's name.
    pub fn name(&self) -> &str {
        use faros_replay::Scenario as _;
        self.scenario.name()
    }
}
