//! `faros-cli` — the analyst-facing command-line workflow of §V-C.
//!
//! ```text
//! faros-cli list                      list every corpus sample
//! faros-cli record <sample> -o FILE   run live, save the recording (JSON)
//! faros-cli analyze <sample> [opts]   record + replay under FAROS, print report
//!                                     (with the static coverage, taint, CFI
//!                                     and capability cross-checks attached)
//! faros-cli analyze <image.fdl>       static-only: CFG + dataflow (VSA,
//!                                     indirect-branch resolution, taint flow
//!                                     map, syscall capabilities) + lints over
//!                                     one FDL image file
//! faros-cli analyze --corpus          run the static/dynamic cross-check
//!                                     truth-table gate over the whole corpus
//! faros-cli replay <sample> -i FILE   replay a saved recording under FAROS
//! faros-cli compare <sample>          Cuckoo vs malfind vs FAROS
//! faros-cli trace <sample>            record and print the event timeline
//! faros-cli run-asm FILE [opts]       assemble FE32 text source and run it
//!                                     as a guest process under FAROS
//! faros-cli json-check FILE...        validate files parse as JSON (Chrome
//!                                     traces also need a traceEvents array)
//! faros-cli bench-gate FILE           read BENCH_replay.json and fail if the
//!                                     FAROS replay regressed past 4x baseline
//! faros-cli serve --socket PATH       run the detonation service on a Unix
//!                                     socket (--workers N, --queue N)
//! faros-cli submit <sample> --socket PATH
//!                                     submit a job (or -i FILE for a saved
//!                                     recording), wait, print the verdict
//! faros-cli stop --socket PATH        drain and stop a running service
//!                                     (--now cancels queued jobs instead)
//! faros-cli soak [--jobs N] [--workers N]
//!                                     in-process soak: push N jobs through
//!                                     the pool, check the queue drains and
//!                                     the merged metrics balance exactly
//! faros-cli service-gate FILE         read BENCH_service.json and fail if
//!                                     worker scaling fell below the
//!                                     core-count-aware floor
//! faros-cli profile <sample> [opts]   deterministic replay profiler: rank
//!                                     functions by retired instructions
//!                                     (--json for the byte-stable report,
//!                                     --folded FILE for collapsed stacks)
//! faros-cli top --socket PATH         live telemetry panel from a running
//!                                     service: stats, health verdict,
//!                                     phase latency histograms, trace tail
//!                                     (--tail N events, default 12)
//!
//! analyze/replay options:
//!   --policy paper|netflow|cross-process   trigger configuration
//!   --minos                                enable the tainted-PC extension
//!   --conservative                         propagate all indirect flows
//!   --whitelist NAME                       suppress detections in NAME
//!   --json                                 emit the report as JSON
//!   --taint-map                            dump the coalesced taint map
//!   --dot                                  emit provenance chains as Graphviz
//!   --trace FILE                           (static analyze) write the
//!                                          analyze.* counters as a Chrome trace
//! ```

use faros::{AnalysisConfig, Faros, FarosReport, Policy};
use faros_analyze::StaticReport;
use faros_baselines::comparison;
use faros_corpus::{families, find_sample, sample_registry, Sample};
use faros_obs::trace::RecorderHandle;
use faros_replay::{record, replay, Recording, Scenario as _, TraceRecorder};
use faros_taint::engine::PropagationMode;
use std::path::PathBuf;
use std::process::exit;

const BUDGET: u64 = 20_000_000;

fn usage() -> ! {
    eprintln!(
        "usage: faros-cli <list | record <sample> -o FILE | analyze <sample> [opts] \
         | replay <sample> -i FILE [opts] | compare <sample> | trace <sample>\n\
         | run-asm FILE [opts] | json-check FILE... | bench-gate FILE | differential\n\
         | serve --socket PATH [--workers N] [--queue N]\n\
         | submit <sample> --socket PATH [-i FILE] [--json]\n\
         | stop --socket PATH [--now] | soak [--jobs N] [--workers N]\n\
         | service-gate FILE | profile <sample> [--json] [--folded FILE]\n\
         | top --socket PATH [--tail N]>\n\
         opts: --policy paper|netflow|cross-process, --minos, --conservative,\n\
               --whitelist NAME, --json"
    );
    exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    exit(1);
}

struct Opts {
    policy: Policy,
    conservative: bool,
    json: bool,
    dot: bool,
    taint_map: bool,
    file: Option<PathBuf>,
    trace: Option<PathBuf>,
    socket: Option<PathBuf>,
    workers: Option<usize>,
    queue: Option<usize>,
    jobs: Option<usize>,
    now: bool,
    folded: Option<PathBuf>,
    tail: Option<usize>,
}

fn parse_opts(args: &[String]) -> Opts {
    let mut opts = Opts {
        policy: Policy::paper(),
        conservative: false,
        json: false,
        dot: false,
        taint_map: false,
        file: None,
        trace: None,
        socket: None,
        workers: None,
        queue: None,
        jobs: None,
        now: false,
        folded: None,
        tail: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--policy" => match it.next().map(String::as_str) {
                Some("paper") => opts.policy = Policy::paper(),
                Some("netflow") => opts.policy = Policy::netflow_only(),
                Some("cross-process") => opts.policy = Policy::cross_process_only(),
                _ => usage(),
            },
            "--minos" => opts.policy = opts.policy.clone().with_tainted_pc(),
            "--conservative" => opts.conservative = true,
            "--whitelist" => match it.next() {
                Some(name) => opts.policy = opts.policy.clone().whitelist(name),
                None => usage(),
            },
            "--json" => opts.json = true,
            "--taint-map" => opts.taint_map = true,
            "--dot" => opts.dot = true,
            "-o" | "-i" => match it.next() {
                Some(path) => opts.file = Some(PathBuf::from(path)),
                None => usage(),
            },
            "--trace" => match it.next() {
                Some(path) => opts.trace = Some(PathBuf::from(path)),
                None => usage(),
            },
            "--socket" => match it.next() {
                Some(path) => opts.socket = Some(PathBuf::from(path)),
                None => usage(),
            },
            "--workers" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) if n > 0 => opts.workers = Some(n),
                _ => usage(),
            },
            "--queue" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) if n > 0 => opts.queue = Some(n),
                _ => usage(),
            },
            "--jobs" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) if n > 0 => opts.jobs = Some(n),
                _ => usage(),
            },
            "--now" => opts.now = true,
            "--folded" => match it.next() {
                Some(path) => opts.folded = Some(PathBuf::from(path)),
                None => usage(),
            },
            "--tail" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) if n > 0 => opts.tail = Some(n),
                _ => usage(),
            },
            _ => usage(),
        }
    }
    opts
}

fn make_faros(opts: &Opts) -> Faros {
    let mode = if opts.conservative {
        PropagationMode::conservative()
    } else {
        PropagationMode::direct_only()
    };
    Faros::with_mode(opts.policy.clone(), mode)
}

/// The job-scoped pipeline configuration for the given CLI options.
fn analysis_config(opts: &Opts) -> AnalysisConfig {
    let mode = if opts.conservative {
        PropagationMode::conservative()
    } else {
        PropagationMode::direct_only()
    };
    AnalysisConfig {
        policy: opts.policy.clone(),
        mode,
        budget: BUDGET,
        ..AnalysisConfig::default()
    }
}

/// Runs the shared job pipeline (`faros::pipeline::analyze_recording`) —
/// the exact assembly the detonation service workers execute, which is
/// what keeps service reports byte-identical to CLI runs.
fn analyze_job(sample: &Sample, recording: &Recording, opts: &Opts) -> faros::pipeline::AnalyzedJob {
    faros::analyze_recording(&sample.scenario, recording, &analysis_config(opts))
        .unwrap_or_else(|e| fail(&e.to_string()))
}

fn print_report(faros: &Faros, report: &FarosReport, opts: &Opts) {
    if opts.json {
        println!("{}", report.to_json().expect("report serializes"));
        return;
    }
    if opts.dot {
        print!("{}", report.to_dot());
        return;
    }
    print!("{report}");
    if report.attack_flagged() {
        println!(
            "\n[!] in-memory injection flagged in: {}",
            report.flagged_processes().join(", ")
        );
        for d in &report.detections {
            println!("    {} at {:#010x}: {}", d.kind, d.insn_vaddr, d.insn);
        }
    } else {
        println!("\n[ok] nothing flagged");
    }
    if report.cfi_suspicious() {
        println!(
            "[!] control-flow integrity violated: {} edge(s) off the static model ({} tainted)",
            report.cfi.stats.violations, report.cfi.stats.tainted_violations
        );
    }
    if report.capabilities_suspicious() {
        println!(
            "[!] capability cross-check: {} statically impossible capability exercise(s), \
             {} injection recipe(s) completed",
            report.capabilities.impossible_total(),
            report.capabilities.recipes_exercised_total()
        );
    }
    if !report.whitelisted.is_empty() {
        println!("[i] {} whitelisted detection(s) suppressed", report.whitelisted.len());
    }
    let stats = faros.stats();
    println!(
        "[i] {} instructions observed, {} tainted bytes live, {} export pointers tagged",
        stats.instructions,
        faros.engine().shadow().tainted_mem_bytes(),
        stats.export_pointers
    );
    if opts.taint_map {
        let regions = faros.engine().tainted_regions();
        println!("\n[taint map] {} region(s):", regions.len());
        for r in regions.iter().take(40) {
            println!(
                "  {:#010x}+{:<6} {}",
                r.phys,
                format!("{:#x}", r.len),
                faros.engine().display_list(r.list)
            );
        }
        if regions.len() > 40 {
            println!("  ... {} more", regions.len() - 40);
        }
    }
}

/// Maximum allowed ratio of the FAROS replay median over the plain replay
/// median. With the translation cache's fused taint plans eliding clean
/// flow batches, the FAROS replay runs near parity with the base replay;
/// the gate catches hot-path regressions before they merge.
const BENCH_GATE_MAX_RATIO: f64 = 1.5;

fn bench_median(doc: &faros_support::json::JsonValue, name: &str) -> u64 {
    let benches = doc
        .get("benchmarks")
        .and_then(|b| b.as_array())
        .unwrap_or_else(|| fail("bench file has no `benchmarks` array"));
    let entry = benches
        .iter()
        .find(|b| b.get("name").and_then(|n| n.as_str()) == Some(name))
        .unwrap_or_else(|| fail(&format!("bench file has no `{name}` entry")));
    let median = entry
        .get("median_ns")
        .and_then(|m| m.as_int())
        .unwrap_or_else(|| fail(&format!("`{name}` has no integer median_ns")));
    u64::try_from(median).unwrap_or_else(|_| fail(&format!("`{name}` median_ns negative")))
}

fn bench_gate(file: &str) {
    let text =
        std::fs::read_to_string(file).unwrap_or_else(|e| fail(&format!("{file}: {e}")));
    let doc = faros_support::json::JsonValue::parse(&text)
        .unwrap_or_else(|e| fail(&format!("{file}: invalid JSON: {e}")));
    let base = bench_median(&doc, "replay_base");
    let faros = bench_median(&doc, "replay_faros");
    if base == 0 {
        fail("replay_base median is zero; cannot compute a ratio");
    }
    let ratio = faros as f64 / base as f64;
    println!(
        "bench-gate: replay_faros {faros} ns / replay_base {base} ns = {ratio:.2}x \
         (limit {BENCH_GATE_MAX_RATIO:.1}x)"
    );
    if ratio > BENCH_GATE_MAX_RATIO {
        fail(&format!(
            "FAROS replay overhead {ratio:.2}x exceeds the {BENCH_GATE_MAX_RATIO:.1}x gate"
        ));
    }
    println!("bench-gate: ok");
}

/// Interpreter-vs-cache differential over the full sample registry: for
/// every sample, record once, run the shared job pipeline under both
/// execution modes (profiler on, so the deterministic profile section is
/// covered too), and require byte-identical report JSON. Afterwards the
/// aggregated `tc.*` translation-cache counters are printed.
fn differential_gate() {
    use faros_kernel::machine::ExecMode;
    let mut bad = 0usize;
    let mut n = 0usize;
    let mut totals = faros_emu::TcStats::default();
    for sample in sample_registry() {
        n += 1;
        let (recording, _) =
            record(&sample.scenario, BUDGET).unwrap_or_else(|e| fail(&e.to_string()));
        let mut jsons = Vec::new();
        for exec in [ExecMode::Cached, ExecMode::Interpret] {
            let cfg = AnalysisConfig { profile: true, exec, ..AnalysisConfig::default() };
            let job = faros::analyze_recording(&sample.scenario, &recording, &cfg)
                .unwrap_or_else(|e| fail(&e.to_string()));
            jsons.push((job.instructions, job.report.to_json().expect("report serializes")));
        }
        let ok = jsons[0] == jsons[1];
        let outcome = faros_replay::replay_with_exec(
            &sample.scenario,
            &recording,
            BUDGET,
            ExecMode::Cached,
            &mut faros_kernel::NullObserver,
        )
        .unwrap_or_else(|e| fail(&e.to_string()));
        let tc = outcome.machine.tc_stats();
        totals.hits += tc.hits;
        totals.misses += tc.misses;
        totals.invalidations += tc.invalidations;
        totals.blocks_built += tc.blocks_built;
        totals.elided_blocks += tc.elided_blocks;
        println!(
            "differential: {:<28} {} (tc: {} hits, {} blocks, {} invalidations)",
            sample.name(),
            if ok { "ok" } else { "FAIL (cached vs interpreter reports diverged)" },
            tc.hits,
            tc.blocks_built,
            tc.invalidations,
        );
        if !ok {
            bad += 1;
        }
    }
    for (name, value) in [
        ("tc.hits", totals.hits),
        ("tc.misses", totals.misses),
        ("tc.invalidations", totals.invalidations),
        ("tc.blocks_built", totals.blocks_built),
        ("tc.elided_blocks", totals.elided_blocks),
    ] {
        println!("differential: {name} = {value}");
    }
    if bad > 0 {
        fail(&format!("differential: {bad}/{n} samples diverged"));
    }
    println!("differential: ok ({n} samples, both modes byte-identical)");
}

/// Static-only analysis of one FDL image file: CFG recovery, the dataflow
/// engine (VSA, indirect-branch resolution, taint flow map) and the lint
/// catalogue, rendered as a stable JSON report or a table.
fn analyze_static(path: &str, opts: &Opts) {
    let bytes = std::fs::read(path).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
    let image = faros_kernel::FdlImage::parse(&bytes)
        .unwrap_or_else(|e| fail(&format!("{path}: not an FDL image: {e}")));
    let name = path.rsplit(['/', '\\']).next().unwrap_or(path);
    let report = StaticReport::build(name, &image);
    if let Some(out) = &opts.trace {
        let rec = faros_obs::trace::RecorderHandle::new(16);
        report.stats.trace_into(&rec, 0, name);
        report.gadgets.stats.trace_into(&rec, 0, name);
        std::fs::write(out, rec.export_chrome())
            .unwrap_or_else(|e| fail(&format!("{}: {e}", out.display())));
    }
    if opts.json {
        println!("{}", report.to_json().expect("report serializes"));
        return;
    }
    print!("{}", faros_analyze::render_findings(&report.findings));
    println!(
        "\n[i] {} indirect site(s) resolved, {} left unresolved",
        report.stats.indirects_resolved, report.stats.indirects_unresolved
    );
    for (va, targets) in &report.resolved_sites {
        let rendered: Vec<String> = targets.iter().map(|t| format!("{t:#010x}")).collect();
        println!("    {va:#010x} -> {{{}}}", rendered.join(", "));
    }
    println!("[i] {} statically feasible source->sink flow(s):", report.flows.flows.len());
    for f in &report.flows.flows {
        println!("    {} -> {} at {:#010x}", f.source, f.sink, f.sink_va);
    }
    println!(
        "[i] dataflow cost: {} worklist iteration(s), {} widening(s), {} function(s)",
        report.stats.worklist_iterations, report.stats.widenings, report.stats.functions_analyzed
    );
    println!(
        "[i] gadget surface: {} endpoint(s) ({} unintended), {} gadget(s) over {} byte(s), \
         {} per KiB",
        report.gadgets.stats.endpoints,
        report.gadgets.stats.unintended,
        report.gadgets.stats.gadgets,
        report.gadgets.stats.bytes_scanned,
        report.gadgets.density_per_kib()
    );
    for s in &report.gadgets.sections {
        println!(
            "    section {:#010x}: {} ret / {} call / {} jmp endpoint(s), {} gadget(s), \
             density {}/KiB",
            s.va, s.ret_endpoints, s.call_endpoints, s.jmp_endpoints, s.gadgets, s.density_per_kib
        );
    }
    println!(
        "[i] CFI model: {} resolved site(s), {} unresolved, {} return site(s), \
         {} function entries",
        report.cfi.indirect_targets.len(),
        report.cfi.unresolved_sites.len(),
        report.cfi.return_sites.len(),
        report.cfi.function_entries.len()
    );
    let caps = &report.capabilities;
    println!(
        "[i] capability surface: {} ({} recipe(s) statically present, {} unresolved \
         service-number site(s){})",
        caps.caps.render(),
        caps.recipes.len(),
        caps.unresolved_sites.len(),
        if caps.calls_unknown_code { ", calls unknown code" } else { "" }
    );
    for w in &caps.witnesses {
        let path: Vec<String> = w.path.iter().map(|f| format!("{f:#010x}")).collect();
        println!(
            "    {} at {:#010x} (sysno {:#04x}, {}) via {}",
            w.capability,
            w.site,
            w.sysno,
            w.args,
            path.join(" -> ")
        );
    }
    for r in &caps.recipes {
        let steps: Vec<String> =
            r.steps.iter().map(|(c, va)| format!("{c} @ {va:#010x}")).collect();
        println!("    recipe {}: {}", r.recipe, steps.join(" -> "));
    }
    if report.errors().count() > 0 {
        exit(1);
    }
}

/// Pinned truth-table numbers for `analyze --corpus`. The unresolved
/// counts are the total `unresolved-indirect` advisories over every
/// program image in the registry, before and after the dataflow engine's
/// indirect-branch resolution; a change in either is a behavior change
/// that must be acknowledged here.
///
/// The six sites left after resolution are each justified and pinned by
/// name in `tests/static_coverage.rs`
/// (`unresolved_sites_are_exactly_the_justified_set`): four read targets
/// that only exist at runtime (a network-received pointer, export-table
/// hash walks over other modules' memory), two walk function-pointer
/// tables in *writable* memory (the JOP dispatcher and its benign foil).
/// VSA folds jump-table loads from read-only image data, so none of
/// these is a missed fold.
const GATE_UNRESOLVED_BASELINE: u64 = 33;
const GATE_UNRESOLVED_AFTER: u64 = 7;

/// Pinned corpus-wide `syscall-number-unresolved` advisory count. The
/// corpus builder materializes every service number as a constant
/// `mov eax, imm` before the `int`, so the VSA resolves every *intended*
/// site. The single pinned advisory is a decode artifact in
/// `taint_bomb`'s `C:/pong.exe` (site `0x0040004d`): the recovered block
/// falls through the terminal `NtTerminateProcess` into the `"pong"`
/// banner string, whose bytes happen to decode as an `int` with a
/// clobbered (post-syscall) EAX. A change in this count means a new
/// sample computes its service number (acknowledge it here) or the VSA
/// regressed.
const GATE_SYSNO_UNRESOLVED: u64 = 1;

/// Records and replays one sample through the shared job pipeline and
/// returns the full fused report (taint verdict, coverage diff, CFI and
/// capability cross-checks).
fn pipeline_report(sample: &Sample) -> FarosReport {
    let (recording, _) =
        record(&sample.scenario, BUDGET).unwrap_or_else(|e| fail(&e.to_string()));
    let job = faros::analyze_recording(&sample.scenario, &recording, &AnalysisConfig::default())
        .unwrap_or_else(|e| fail(&e.to_string()));
    job.report
}

/// The static/dynamic cross-check truth table over the whole corpus:
/// every injecting sample must raise at least one statically
/// impossible-per-model alert, every non-injecting family variant none,
/// and the corpus-wide `unresolved-indirect` advisory counts must match
/// the pinned values (the dataflow engine's resolution rate is a gated
/// behavior, not a best-effort extra).
fn corpus_gate() {
    let mut bad = 0usize;
    for sample in faros_corpus::attacks::all_injecting_samples() {
        let report = pipeline_report(&sample);
        let cc = &report.taint;
        let caps = &report.capabilities;
        let ok = cc.impossible_total() >= 1 && caps.injection_suspected();
        println!(
            "corpus-gate: {:<28} impossible={} cap-impossible={} recipes-exercised={} {}",
            sample.name(),
            cc.impossible_total(),
            caps.impossible_total(),
            caps.recipes_exercised_total(),
            if ok { "ok" } else { "FAIL (expected >=1 taint alert and a capability alert)" }
        );
        if !ok {
            bad += 1;
        }
    }
    for family in families::malware_rows().into_iter().chain(families::benign_rows()) {
        let sample = families::build_family_sample(&family, 0, 1);
        let report = pipeline_report(&sample);
        let cc = &report.taint;
        let caps = &report.capabilities;
        let ok = cc.impossible_total() == 0
            && caps.impossible_total() == 0
            && caps.recipes_exercised_total() == 0;
        println!(
            "corpus-gate: {:<28} impossible={} cap-alerts={} {}",
            family.name,
            cc.impossible_total(),
            caps.impossible_total() + caps.recipes_exercised_total(),
            if ok { "ok" } else { "FAIL (expected 0)" }
        );
        if !ok {
            bad += 1;
        }
    }

    // The capability truth table's own corner cases: the two-process
    // laundering injector must light *both* capability alert classes —
    // the injected stage beacons over a socket the victim's image cannot
    // statically justify (impossible capability) and the accomplice
    // completes the write-and-run-remote recipe — while the
    // debugger-shaped foil (cross-process reads only, all statically
    // modeled) must stay quiet.
    {
        let report = pipeline_report(&faros_corpus::laundering::capability_laundering());
        let caps = &report.capabilities;
        let ok = caps.impossible_total() >= 1 && caps.recipes_exercised_total() >= 1;
        println!(
            "corpus-gate: {:<28} cap-impossible={} recipes-exercised={} {}",
            "capability_laundering",
            caps.impossible_total(),
            caps.recipes_exercised_total(),
            if ok { "ok" } else { "FAIL (expected an impossible capability and a recipe)" }
        );
        if !ok {
            bad += 1;
        }
        let report = pipeline_report(&faros_corpus::laundering::debugger_foil());
        let caps = &report.capabilities;
        let ok = !caps.injection_suspected() && report.taint.impossible_total() == 0;
        println!(
            "corpus-gate: {:<28} cap-impossible={} recipes-exercised={} {}",
            "debugger_foil",
            caps.impossible_total(),
            caps.recipes_exercised_total(),
            if ok { "ok" } else { "FAIL (expected 0)" }
        );
        if !ok {
            bad += 1;
        }
    }

    // The JIT hosts allocate executable buffers and then download code
    // into their address space — dynamically that is the
    // download-to-exec recipe, a known false positive of the capability
    // signal (Table III's copy-and-patch JITs really do behave this
    // way). Reported here for visibility, excluded from the gated clean
    // set.
    for name in ["jit_pulleysystem", "jit_gmail_com"] {
        let sample =
            find_sample(name).unwrap_or_else(|| fail(&format!("unknown jit sample `{name}`")));
        let report = pipeline_report(sample);
        println!(
            "corpus-gate: {:<28} recipes-exercised={} (known JIT FP, informational)",
            name,
            report.capabilities.recipes_exercised_total()
        );
    }

    // The CFI reuse truth table: every ROP/JOP sample must raise at
    // least one CFI violation while the injected-byte signals (taint
    // confluence, coverage diff) stay silent — pure code reuse executes
    // only image-backed bytes — and the benign dense-indirect foils
    // must raise none.
    for sample in faros_corpus::reuse::reuse_attack_samples() {
        let report = pipeline_report(&sample);
        let ok = report.cfi.stats.violations >= 1
            && !report.attack_flagged()
            && !report.coverage_suspicious()
            && !report.capabilities_suspicious();
        println!(
            "corpus-gate: {:<28} cfi-violations={} taint={} {}",
            sample.name(),
            report.cfi.stats.violations,
            report.attack_flagged(),
            if ok {
                "ok"
            } else {
                "FAIL (expected >=1 CFI, taint/coverage/capability silent)"
            }
        );
        if !ok {
            bad += 1;
        }
    }
    for sample in faros_corpus::reuse::reuse_benign_samples() {
        let report = pipeline_report(&sample);
        let ok = report.cfi.stats.violations == 0
            && !report.attack_flagged()
            && !report.coverage_suspicious()
            && !report.capabilities_suspicious();
        println!(
            "corpus-gate: {:<28} cfi-violations={} {}",
            sample.name(),
            report.cfi.stats.violations,
            if ok { "ok" } else { "FAIL (expected 0)" }
        );
        if !ok {
            bad += 1;
        }
    }

    let (mut baseline, mut after, mut sysno_unresolved) = (0u64, 0u64, 0u64);
    for sample in sample_registry() {
        for (path, image) in sample.scenario.programs() {
            baseline += faros_analyze::lint_image(path, image)
                .iter()
                .filter(|f| f.kind == faros_analyze::FindingKind::UnresolvedIndirect)
                .count() as u64;
            let report = StaticReport::build(path, image);
            after += report
                .findings
                .iter()
                .filter(|f| f.kind == faros_analyze::FindingKind::UnresolvedIndirect)
                .count() as u64;
            sysno_unresolved += report
                .findings
                .iter()
                .filter(|f| f.kind == faros_analyze::FindingKind::SyscallNumberUnresolved)
                .count() as u64;
        }
    }
    println!(
        "corpus-gate: unresolved-indirect advisories: {baseline} before dataflow, {after} \
         after (pinned {GATE_UNRESOLVED_BASELINE}/{GATE_UNRESOLVED_AFTER})"
    );
    if baseline != GATE_UNRESOLVED_BASELINE || after != GATE_UNRESOLVED_AFTER {
        println!("corpus-gate: FAIL (unresolved-indirect counts moved off the pins)");
        bad += 1;
    }
    println!(
        "corpus-gate: syscall-number-unresolved advisories: {sysno_unresolved} \
         (pinned {GATE_SYSNO_UNRESOLVED})"
    );
    if sysno_unresolved != GATE_SYSNO_UNRESOLVED {
        println!("corpus-gate: FAIL (syscall-number-unresolved count moved off the pin)");
        bad += 1;
    }
    if bad > 0 {
        fail(&format!("corpus-gate: {bad} truth-table violation(s)"));
    }
    println!("corpus-gate: ok");
}

/// Runs the detonation service on a Unix socket until a client stops it.
fn serve_cmd(opts: &Opts) {
    let Some(socket) = &opts.socket else { usage() };
    let config = faros_service::ServiceConfig {
        workers: opts.workers.unwrap_or(4),
        queue_capacity: opts.queue.unwrap_or(64),
        ..faros_service::ServiceConfig::default()
    };
    let workers = config.workers;
    let server = faros_service::serve(socket, config)
        .unwrap_or_else(|e| fail(&format!("{}: {e}", socket.display())));
    println!(
        "serving on {} with {workers} worker(s); stop with `faros-cli stop --socket {}`",
        server.path().display(),
        server.path().display()
    );
    server.join();
    println!("service stopped");
}

/// Submits one job over the socket, waits for the verdict, prints it.
fn submit_cmd(name: &str, opts: &Opts) {
    let Some(socket) = &opts.socket else { usage() };
    let spec = match &opts.file {
        Some(path) => {
            let json = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())));
            faros_service::JobSpec::Recording { json }
        }
        None => faros_service::JobSpec::Scenario { name: name.to_string() },
    };
    let mut client = faros_service::Client::connect(socket)
        .unwrap_or_else(|e| fail(&format!("{}: {e}", socket.display())));
    let id = match client.submit(spec) {
        Ok(Ok(id)) => id,
        Ok(Err(refusal)) => fail(&format!("submission refused: {refusal:?}")),
        Err(e) => fail(&format!("protocol error: {e}")),
    };
    let view = client.wait(id).unwrap_or_else(|e| fail(&format!("protocol error: {e}")));
    match view.status {
        faros_service::JobStatus::Done(result) => {
            if result.trace_dropped > 0 {
                eprintln!(
                    "warning: the job's flight recorder dropped {} event(s) — \
                     the trace ring was undersized",
                    result.trace_dropped
                );
            }
            if opts.json {
                println!("{}", result.report_json);
                return;
            }
            println!(
                "job {id} ({}): {} — {} instruction(s) analyzed",
                view.label,
                if result.flagged { "IN-MEMORY INJECTION FLAGGED" } else { "clean" },
                result.instructions
            );
        }
        faros_service::JobStatus::Failed(f) => {
            fail(&format!("job {id} ({}) failed [{}]: {}", view.label, f.kind, f.detail))
        }
        other => fail(&format!("job {id} ended non-terminal: {other:?}")),
    }
}

/// Stops a running service over the socket and prints its final stats.
fn stop_cmd(opts: &Opts) {
    let Some(socket) = &opts.socket else { usage() };
    let mut client = faros_service::Client::connect(socket)
        .unwrap_or_else(|e| fail(&format!("{}: {e}", socket.display())));
    let stats = client
        .shutdown(!opts.now)
        .unwrap_or_else(|e| fail(&format!("protocol error: {e}")));
    println!(
        "service stopped: {} completed, {} failed, {} cancelled, {} worker(s) replaced",
        stats.completed, stats.failed, stats.cancelled, stats.workers_replaced
    );
}

/// In-process soak: push `--jobs` recordings through a `--workers` pool and
/// check the accounting balances exactly — the queue drains to zero, every
/// job lands terminal, the merged metrics equal the fold of the per-job
/// snapshots, and the flight recorder dropped nothing.
fn soak_cmd(opts: &Opts) {
    use faros_service::{Detonator, JobSpec, JobStatus, ServiceConfig};
    let jobs = opts.jobs.unwrap_or(200);
    let workers = opts.workers.unwrap_or(4);

    // Alternate a benign family variant with a real injection so both
    // report shapes flow through the pool.
    let specs: Vec<(&str, String)> = ["teamviewer_v209", "process_hollowing"]
        .into_iter()
        .map(|name| {
            let sample = find_sample(name).unwrap_or_else(|| fail("soak corpus name"));
            let (recording, _) =
                record(&sample.scenario, BUDGET).unwrap_or_else(|e| fail(&e.to_string()));
            (name, recording.to_json().unwrap_or_else(|e| fail(&e.to_string())))
        })
        .collect();

    let svc = Detonator::start(ServiceConfig {
        workers,
        queue_capacity: 32,
        ..ServiceConfig::default()
    });
    let started = std::time::Instant::now();
    let ids: Vec<u64> = (0..jobs)
        .map(|i| {
            let (_, json) = &specs[i % specs.len()];
            svc.submit_wait(JobSpec::Recording { json: json.clone() })
                .unwrap_or_else(|e| fail(&format!("submit: {e}")))
        })
        .collect();
    svc.drain();

    let mut folded = faros_obs::metrics::MetricsSnapshot::default();
    let mut flagged = 0usize;
    for id in ids {
        match svc.wait(id).status {
            JobStatus::Done(result) => {
                folded.merge(&result.metrics);
                flagged += usize::from(result.flagged);
            }
            other => fail(&format!("soak job {id} did not complete: {other:?}")),
        }
    }
    let stats = svc.shutdown();
    let elapsed = started.elapsed();
    println!(
        "soak: {jobs} job(s) on {workers} worker(s) in {:.2}s ({:.1} jobs/s), {} flagged",
        elapsed.as_secs_f64(),
        jobs as f64 / elapsed.as_secs_f64().max(1e-9),
        flagged
    );

    let mut bad = 0usize;
    let mut check = |name: &str, ok: bool, detail: String| {
        println!("soak: {name}: {}", if ok { "ok".to_string() } else { format!("FAIL ({detail})") });
        if !ok {
            bad += 1;
        }
    };
    check("all jobs completed", stats.completed == jobs as u64, format!("{}/{jobs}", stats.completed));
    check("no failures", stats.failed == 0, format!("{} failed", stats.failed));
    check("queue drained", stats.queue_depth == 0, format!("depth {}", stats.queue_depth));
    check(
        "merged metrics balance",
        stats.merged == folded,
        "merged snapshot != fold of per-job snapshots".to_string(),
    );
    check(
        "no workers lost",
        stats.workers_replaced == 0 && stats.live_workers == 0,
        format!("{} replaced, {} live after shutdown", stats.workers_replaced, stats.live_workers),
    );
    check(
        "flight recorder kept up",
        stats.trace_dropped == 0,
        format!("{} event(s) dropped", stats.trace_dropped),
    );
    check(
        "expected verdict mix",
        flagged == jobs / 2,
        format!("{flagged} flagged, expected {}", jobs / 2),
    );
    if bad > 0 {
        fail(&format!("soak: {bad} invariant violation(s)"));
    }
    println!("soak: ok");
}

/// Renders a nanosecond quantity for the `top` panel.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// The deterministic replay profiler: record the sample, run the job
/// pipeline with the profile section on, and print retired-instruction
/// attribution per function. The profile rides the report (virtual
/// clock), so `--json` output is byte-identical across runs; the
/// wall-clock phase/plugin costs printed in table mode are not.
fn profile_cmd(name: &str, opts: &Opts) {
    let sample = find_sample(name)
        .unwrap_or_else(|| fail(&format!("unknown sample `{name}` (try `list`)")));
    let (recording, _) =
        record(&sample.scenario, BUDGET).unwrap_or_else(|e| fail(&e.to_string()));
    let mut config = analysis_config(opts);
    config.profile = true;
    let job = faros::analyze_recording(&sample.scenario, &recording, &config)
        .unwrap_or_else(|e| fail(&e.to_string()));
    let profile = &job.report.profile;
    if let Some(path) = &opts.folded {
        std::fs::write(path, profile.folded())
            .unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())));
        eprintln!("wrote collapsed stacks to {}", path.display());
    }
    if opts.json {
        use faros_support::json::ToJson;
        println!("{}", profile.to_json_value().to_pretty());
        return;
    }
    print!("{}", profile.to_table(5));
    if !job.cost.phases.is_empty() {
        println!("\nwall-clock phases (non-deterministic):");
        print!("{}", job.cost.phases.to_table());
    }
    if !job.cost.plugins.is_empty() {
        println!("\nplugin cost:");
        for p in &job.cost.plugins {
            println!(
                "  {:<16} {:>12} dispatch(es)  {:>10} wall",
                p.name,
                p.dispatches,
                fmt_ns(p.wall_ns)
            );
        }
    }
}

/// One-shot live telemetry panel: stats, health verdict, phase latency
/// histograms, plugin dispatch counters, and the service trace tail, all
/// fetched over the socket protocol's telemetry verbs.
fn top_cmd(opts: &Opts) {
    let Some(socket) = &opts.socket else { usage() };
    let mut client = faros_service::Client::connect(socket)
        .unwrap_or_else(|e| fail(&format!("{}: {e}", socket.display())));
    let stats = client.stats().unwrap_or_else(|e| fail(&format!("protocol error: {e}")));
    let health = client.health().unwrap_or_else(|e| fail(&format!("protocol error: {e}")));
    let metrics =
        client.metrics().unwrap_or_else(|e| fail(&format!("protocol error: {e}")));
    let tail = opts.tail.unwrap_or(12);
    let (events, dropped) =
        client.trace(tail as u64).unwrap_or_else(|e| fail(&format!("protocol error: {e}")));

    println!("faros service @ {}", socket.display());
    println!(
        "jobs:    {} submitted, {} completed, {} failed ({} cancelled), {} rejected",
        stats.submitted, stats.completed, stats.failed, stats.cancelled, stats.rejected
    );
    println!(
        "queue:   depth {} (high water {}); workers {} live / {} spawned ({} replaced)",
        stats.queue_depth,
        stats.queue_high_water,
        stats.live_workers,
        stats.workers_spawned,
        stats.workers_replaced
    );
    print!("{}", health.to_table());

    let phases: Vec<_> = metrics
        .histograms
        .iter()
        .filter(|h| h.name.starts_with("phase.") && h.count > 0)
        .collect();
    if !phases.is_empty() {
        println!("phase latency (wall-clock, per job):");
        for h in phases {
            let name = h.name.trim_start_matches("phase.").trim_end_matches("_ns");
            println!(
                "  {:<12} n={:<5} p50 {:>10} p95 {:>10} max {:>10}",
                name,
                h.count,
                fmt_ns(h.approx_p50()),
                fmt_ns(h.approx_p95()),
                fmt_ns(h.max)
            );
        }
    }
    let plugins: Vec<_> = metrics
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("plugin.") && name.ends_with(".dispatches"))
        .collect();
    if !plugins.is_empty() {
        println!("plugin dispatches:");
        for (name, v) in plugins {
            let plugin = name
                .trim_start_matches("plugin.")
                .trim_end_matches(".dispatches");
            println!("  {plugin:<16} {v}");
        }
    }
    let syscap: Vec<_> = metrics
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("syscap."))
        .collect();
    if !syscap.is_empty() {
        println!("capability analysis (summed over jobs):");
        for (name, v) in syscap {
            println!("  {:<24} {v}", name.trim_start_matches("syscap."));
        }
    }
    println!("trace tail ({} event(s), {dropped} dropped):", events.len());
    for ev in &events {
        println!("  {ev}");
    }
    if dropped > 0 {
        eprintln!("warning: the service flight recorder dropped {dropped} event(s)");
    }
}

/// Minimum 4-worker-over-1-worker batch speedup demanded by
/// `service-gate`, per available core count. The 16-job bench batch is
/// embarrassingly parallel, so on >=4 cores a 4-worker pool must run the
/// batch at least 3x faster than a single worker. Below 4 cores that
/// speedup is physically impossible — a 1-core runner executes the same
/// instructions either way, plus real OS context-switch and cache
/// overhead from oversubscription (measured ~1.3-1.5x slowdown at 4
/// threads on 1 core) — so the gate only rules out *pathological*
/// scheduler cost: 0.5x per usable core, i.e. "oversubscription never
/// worse than a 2x-per-core tax".
fn service_gate_floor(cores: usize) -> f64 {
    if cores >= 4 {
        3.0
    } else {
        0.5 * cores as f64
    }
}

fn service_gate(file: &str) {
    let text =
        std::fs::read_to_string(file).unwrap_or_else(|e| fail(&format!("{file}: {e}")));
    let doc = faros_support::json::JsonValue::parse(&text)
        .unwrap_or_else(|e| fail(&format!("{file}: invalid JSON: {e}")));
    let one = bench_median(&doc, "detonate_batch/workers_1");
    let four = bench_median(&doc, "detonate_batch/workers_4");
    let sixteen = bench_median(&doc, "detonate_batch/workers_16");
    if four == 0 {
        fail("workers_4 median is zero; cannot compute a speedup");
    }
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let floor = service_gate_floor(cores);
    let speedup = one as f64 / four as f64;
    println!(
        "service-gate: workers_1 {one} ns / workers_4 {four} ns = {speedup:.2}x speedup \
         (floor {floor:.2}x on {cores} core(s))"
    );
    println!(
        "service-gate: workers_16 median {sixteen} ns ({:.2}x vs workers_4, informational)",
        four as f64 / sixteen.max(1) as f64
    );
    if speedup < floor {
        fail(&format!(
            "4-worker speedup {speedup:.2}x fell below the {floor:.2}x floor for {cores} core(s)"
        ));
    }
    println!("service-gate: ok");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else { usage() };
    match cmd {
        "list" => {
            let samples = sample_registry();
            println!("{} samples:", samples.len());
            for s in &samples {
                println!("  {:<28} {:?}", s.name(), s.category);
            }
        }
        "record" => {
            let name = args.get(1).unwrap_or_else(|| usage());
            let opts = parse_opts(&args[2..]);
            let Some(path) = opts.file else { usage() };
            let sample = find_sample(name)
                .unwrap_or_else(|| fail(&format!("unknown sample `{name}` (try `list`)")));
            let (recording, outcome) =
                record(&sample.scenario, BUDGET).unwrap_or_else(|e| fail(&e.to_string()));
            recording.save(&path).unwrap_or_else(|e| fail(&e.to_string()));
            println!(
                "recorded {} virtual ticks ({} net events) -> {}",
                outcome.instructions,
                recording.net_log.events.len(),
                path.display()
            );
        }
        "analyze" => {
            let name = args.get(1).unwrap_or_else(|| usage());
            if name == "--corpus" {
                corpus_gate();
                return;
            }
            let opts = parse_opts(&args[2..]);
            if std::path::Path::new(name).is_file() {
                analyze_static(name, &opts);
                return;
            }
            let sample = find_sample(name)
                .unwrap_or_else(|| fail(&format!("unknown sample `{name}` (try `list`)")));
            let (recording, _) =
                record(&sample.scenario, BUDGET).unwrap_or_else(|e| fail(&e.to_string()));
            let job = analyze_job(sample, &recording, &opts);
            print_report(&job.faros, &job.report, &opts);
        }
        "replay" => {
            let name = args.get(1).unwrap_or_else(|| usage());
            let opts = parse_opts(&args[2..]);
            let Some(path) = opts.file.clone() else { usage() };
            let sample = find_sample(name)
                .unwrap_or_else(|| fail(&format!("unknown sample `{name}` (try `list`)")));
            let recording =
                Recording::load(&path).unwrap_or_else(|e| fail(&e.to_string()));
            let job = analyze_job(sample, &recording, &opts);
            print_report(&job.faros, &job.report, &opts);
        }
        "run-asm" => {
            let file = args.get(1).unwrap_or_else(|| usage());
            let opts = parse_opts(&args[2..]);
            let source = std::fs::read_to_string(file)
                .unwrap_or_else(|e| fail(&format!("{file}: {e}")));
            let bytes =
                faros_emu::text::assemble_text(&source, faros_kernel::machine::IMAGE_BASE)
                    .unwrap_or_else(|e| fail(&e.to_string()));
            let mut padded = bytes;
            padded.resize(padded.len().next_multiple_of(0x1000) + 0x1000, 0);
            let image = faros_kernel::FdlImage {
                entry: faros_kernel::machine::IMAGE_BASE,
                export_table_va: faros_kernel::machine::IMAGE_BASE + 0x10_0000,
                sections: vec![faros_kernel::module::Section {
                    va: faros_kernel::machine::IMAGE_BASE,
                    data: padded,
                    perms: faros_emu::Perms::RWX,
                }],
                exports: vec![],
            };
            let mut machine =
                faros_kernel::Machine::new(faros_kernel::MachineConfig::default());
            machine
                .install_program("C:/user.exe", &image)
                .unwrap_or_else(|e| fail(&e.to_string()));
            let mut faros = make_faros(&opts);
            machine
                .spawn_process("C:/user.exe", false, None, &mut faros)
                .unwrap_or_else(|e| fail(&e.to_string()));
            let exit = machine.run(BUDGET, &mut faros);
            println!("run: {exit:?}, {} virtual ticks", machine.ticks());
            for (pid, line) in machine.console() {
                println!("  {pid}: {line}");
            }
            let report = faros.report();
            print_report(&faros, &report, &opts);
        }
        "trace" => {
            let name = args.get(1).unwrap_or_else(|| usage());
            let sample = find_sample(name)
                .unwrap_or_else(|| fail(&format!("unknown sample `{name}` (try `list`)")));
            let (recording, _) =
                record(&sample.scenario, BUDGET).unwrap_or_else(|e| fail(&e.to_string()));
            let ring = RecorderHandle::default();
            replay(&sample.scenario, &recording, BUDGET, &mut TraceRecorder::new(ring.clone()))
                .unwrap_or_else(|e| fail(&e.to_string()));
            ring.with(|rec| {
                println!("trace ({} event(s), {} dropped):", rec.len(), rec.dropped());
                for ev in rec.events() {
                    println!("  {ev}");
                }
            });
        }
        "json-check" => {
            if args.len() < 2 {
                usage();
            }
            for file in &args[1..] {
                let text = std::fs::read_to_string(file)
                    .unwrap_or_else(|e| fail(&format!("{file}: {e}")));
                let v = faros_support::json::JsonValue::parse(&text)
                    .unwrap_or_else(|e| fail(&format!("{file}: invalid JSON: {e}")));
                // Chrome trace files must carry a non-empty traceEvents
                // array; plain JSON files just need to parse.
                match v.get("traceEvents") {
                    Some(events) => {
                        let n = events.as_array().map_or(0, <[_]>::len);
                        if n == 0 {
                            fail(&format!("{file}: traceEvents is empty"));
                        }
                        println!("{file}: ok ({n} trace events)");
                    }
                    None => println!("{file}: ok"),
                }
            }
        }
        "bench-gate" => {
            let file = args.get(1).unwrap_or_else(|| usage());
            bench_gate(file);
        }
        "differential" => differential_gate(),
        "serve" => serve_cmd(&parse_opts(&args[1..])),
        "submit" => {
            let name = args.get(1).unwrap_or_else(|| usage());
            if name.starts_with('-') {
                usage();
            }
            submit_cmd(name, &parse_opts(&args[2..]));
        }
        "stop" => stop_cmd(&parse_opts(&args[1..])),
        "soak" => soak_cmd(&parse_opts(&args[1..])),
        "service-gate" => {
            let file = args.get(1).unwrap_or_else(|| usage());
            service_gate(file);
        }
        "profile" => {
            let name = args.get(1).unwrap_or_else(|| usage());
            if name.starts_with('-') {
                usage();
            }
            profile_cmd(name, &parse_opts(&args[2..]));
        }
        "top" => top_cmd(&parse_opts(&args[1..])),
        "compare" => {
            let name = args.get(1).unwrap_or_else(|| usage());
            let sample = find_sample(name)
                .unwrap_or_else(|| fail(&format!("unknown sample `{name}` (try `list`)")));
            let row = comparison::compare(sample, BUDGET)
                .unwrap_or_else(|e| fail(&e.to_string()));
            println!("{}", comparison::render_table(std::slice::from_ref(&row)));
        }
        _ => usage(),
    }
}
