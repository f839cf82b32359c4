//! The virtual clock, pinned end to end: how every run ends and how many
//! ticks it took.
//!
//! The scheduler's idle time (rounds in which no thread is ready) advances
//! the virtual clock without retiring instructions, and that clock reaches
//! the recording (`instructions`, every `NetEvent`'s `at_tick`), the job
//! report and the replay's exit. `tests/fixtures/replay_clock.txt` holds
//! one line per input:
//!
//! ```text
//! <name> <live exit> <replay exit> <live ticks> <replay ticks> <net-log digest> <report digest>
//! ```
//!
//! The inputs are every registry sample and the four largest Table V apps
//! (variant 300) at 3, 9 and 11 times their Table V rounds; at 9 and 11
//! times, three of the four end `Deadlocked`, so the idle path runs all
//! the way to its horizon. The digests are FNV-1a over the recording's net
//! log JSON and over the job report JSON.
//!
//! A second test guards the cost of idle time by counts, not by wall
//! time: an idle stretch reaches the observers as one `tick`. Every
//! dispatch of a thread delivers one tick and one context switch, and
//! every idle stretch ends in a dispatch or in the end of the run, so a
//! replay whose waits all end on their wake tick delivers at most twice
//! as many ticks as context switches, plus one.
//!
//! Regenerate after an intentional clock change with:
//!
//! ```sh
//! FAROS_REGEN_GOLDEN=1 cargo test --test replay_clock
//! ```

use faros_repro::corpus::families::{benign_rows, build_family_sample, malware_rows};
use faros_repro::corpus::{sample_registry, Sample};
use faros_repro::emu::cpu::CpuHooks;
use faros_repro::faros::{analyze_recording, AnalysisConfig};
use faros_repro::kernel::event::KernelEvents;
use faros_repro::kernel::machine::{ExecMode, RunExit};
use faros_repro::kernel::{Pid, Tid};
use faros_repro::replay::{record, replay, PluginManager};
use faros_repro::support::json::ToJson;
use std::path::Path;

/// The four largest Table V apps and their Table V rounds.
const TABLE_V_APPS: [(&str, u32); 4] =
    [("Skype", 60), ("Remote Utility", 58), ("Spygate v3.2", 26), ("TeamViewer", 22)];

/// 64-bit FNV-1a of `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The fixture line of one sample.
fn clock_line(name: &str, sample: &Sample) -> String {
    let cfg = AnalysisConfig::default();
    let (recording, live) = record(&sample.scenario, cfg.budget).expect("record");
    let replayed = replay(&sample.scenario, &recording, cfg.budget, &mut PluginManager::new())
        .expect("replay");
    let job = analyze_recording(&sample.scenario, &recording, &cfg).expect("job");
    assert_eq!(job.instructions, replayed.instructions, "{name}: the job replays the same clock");
    let net = fnv1a64(recording.net_log.to_json_value().to_compact().as_bytes());
    let report = fnv1a64(job.report.to_json().expect("report json").as_bytes());
    format!(
        "{name} {:?} {:?} {} {} {net:016x} {report:016x}\n",
        live.exit, replayed.exit, live.instructions, replayed.instructions
    )
}

/// Table V app `app`, variant 300, at `rounds` rounds.
fn table_v_app(app: &str, rounds: u32) -> Sample {
    let row = malware_rows()
        .into_iter()
        .chain(benign_rows())
        .find(|f| f.name == app)
        .expect("Table V app row");
    build_family_sample(&row, 300, rounds)
}

/// The Table V inputs: each app at 3, 9 and 11 times its rounds.
fn table_v_inputs() -> Vec<(String, Sample)> {
    let mut out = Vec::new();
    for (app, rounds) in TABLE_V_APPS {
        for scale in [3, 9, 11] {
            let name = format!("{}_x{scale}", app.replace(' ', "_").to_lowercase());
            out.push((name, table_v_app(app, rounds * scale)));
        }
    }
    out
}

#[test]
fn every_run_ends_on_its_pinned_exit_and_tick() {
    let mut actual = String::new();
    for sample in sample_registry() {
        actual += &clock_line(sample.name(), &sample);
    }
    for (name, sample) in table_v_inputs() {
        actual += &clock_line(&name, &sample);
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/replay_clock.txt");
    if std::env::var("FAROS_REGEN_GOLDEN").is_ok() {
        std::fs::write(&path, &actual).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing fixture {} ({e}); regenerate with FAROS_REGEN_GOLDEN=1", path.display())
    });
    let moved: Vec<String> = expected
        .lines()
        .zip(actual.lines())
        .filter(|(want, got)| want != got)
        .map(|(want, got)| format!("\n  want {want}\n  got  {got}"))
        .collect();
    assert!(moved.is_empty(), "{} input(s) moved:{}", moved.len(), moved.concat());
    assert_eq!(actual, expected, "replay_clock.txt: input list or line format changed");
}

/// Counts the `tick` and `context_switch` events it receives.
#[derive(Default)]
struct TickCount {
    ticks: u64,
    switches: u64,
}

impl CpuHooks for TickCount {}

impl KernelEvents for TickCount {
    fn tick(&mut self, _: u64) {
        self.ticks += 1;
    }
    fn context_switch(&mut self, _: Option<(Pid, Tid)>, _: (Pid, Tid)) {
        self.switches += 1;
    }
}

#[test]
fn idle_time_reaches_the_observers_as_one_tick_per_stretch() {
    // TeamViewer at 220 rounds blocks for good in a receive and idles out
    // to the deadlock horizon: 100,000 rounds, once one tick each (100,409
    // ticks against 396 context switches).
    let sample = table_v_app("TeamViewer", 220);
    let cfg = AnalysisConfig::default();
    let (recording, _) = record(&sample.scenario, cfg.budget).expect("record");
    let mut count = TickCount::default();
    let outcome = replay(&sample.scenario, &recording, cfg.budget, &mut count).expect("replay");
    assert_eq!(outcome.exit, RunExit::Deadlocked);
    assert!(
        count.ticks <= 2 * count.switches + 1,
        "{} tick deliveries against {} context switches",
        count.ticks,
        count.switches
    );
    // The plugins of a job see the same events under either executor.
    let dispatches = |exec| {
        let cfg = AnalysisConfig { exec, ..AnalysisConfig::default() };
        let job = analyze_recording(&sample.scenario, &recording, &cfg).expect("job");
        job.cost.plugins.iter().map(|p| (p.name.clone(), p.dispatches)).collect::<Vec<_>>()
    };
    assert_eq!(dispatches(ExecMode::Cached), dispatches(ExecMode::Interpret));
}
