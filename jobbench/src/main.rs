//! `faros-benchmark`: the job-level detonation benchmark.
//!
//! ```text
//! faros-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--trace-dir <dir>]
//! faros-benchmark --all --seed <n> [--seconds <s>] [--trace 0|1] [--trace-dir <dir>]
//! faros-benchmark compare <parent-dir> <change-dir>
//! ```
//!
//! One workload runs per process, so `peak_rss_mb` is that workload's own.
//! The run prints every metric as `<workload> <metric> <value> <unit>`,
//! then, as its last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` reports the end-to-end metrics of a
//! timed phase; `--trace 1` skips it and reports the per-layer metrics of
//! a traced run, also written as a Chrome trace and a layer summary. Any
//! wrong report makes the run exit 1.

mod compare;
mod inputs;
mod run;
mod stats;
mod trace;

use faros_support::json::{JsonValue, ToJson};
use inputs::Workload;
use run::{Bench, Limits, OUT_DIR};
use std::path::PathBuf;
use std::process::Command;

/// The benchmark's contract, read for metric bounds and checked for parity.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The end-to-end metrics, in `BENCHMARK.json` order: name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("jobs_per_s", "jobs/s"),
    ("job_p50_ms", "ms"),
    ("cpu_ms_per_job", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

const USAGE: &str = "usage: faros-benchmark (--workload <name> | --all) --seed <n> \
[--seconds <s>] [--trace 0|1] [--trace-dir <dir>]\n       faros-benchmark compare <parent-dir> <change-dir>\n\
workloads: service_corpus fresh_images long_replay taint_storm";

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out =
        Args { workload: None, seed: 0, seconds: 10.0, trace: false, trace_dir: OUT_DIR.into() };
    let (mut all, mut seed) = (false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--all" {
            all = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                out.workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                out.seconds = value.parse().map_err(|_| format!("bad seconds `{value}`"))?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            "--trace-dir" => out.trace_dir = value.into(),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    out.seed = seed.ok_or("--seed is required")?;
    if all == out.workload.is_some() {
        return Err("give exactly one of --workload and --all".into());
    }
    Ok(out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = if args.first().is_some_and(|a| a == "compare") {
        compare::main(&args[1..], BENCHMARK_JSON)
    } else {
        match parse_args(&args) {
            Ok(a) => match a.workload {
                Some(w) => run_one(w, &a),
                None => run_all(&args),
            },
            Err(e) => {
                eprintln!("error: {e}\n{USAGE}");
                2
            }
        }
    };
    std::process::exit(code);
}

/// Runs every workload, each in a child process of its own.
fn run_all(args: &[String]) -> i32 {
    let exe = std::env::current_exe().expect("own executable path");
    let rest: Vec<&String> = args.iter().filter(|a| *a != "--all").collect();
    let mut code = 0;
    for w in Workload::ALL {
        let status = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(&rest)
            .status()
            .expect("child benchmark process starts");
        code = code.max(status.code().unwrap_or(1));
    }
    code
}

fn run_one(workload: Workload, args: &Args) -> i32 {
    let limits = Limits::timed(args.seconds);
    let name = workload.name();
    let (metrics, attempted, failed, wrong): (Vec<(&str, &str, f64)>, _, _, _) = if args.trace {
        let mut bench = Bench::setup(workload, args.seed, 0);
        let mut wrong = std::mem::take(&mut bench.wrong);
        let t = trace::run_traced(&mut bench, &limits, &args.trace_dir);
        wrong.extend(t.wrong);
        wrong.extend(bench.teardown());
        println!("{name} traced_jobs {} count", t.attempted);
        println!("{name} phase_cover {:.4} ratio", t.phase_cover);
        for f in &t.files {
            println!("{name} wrote {f} -");
        }
        let m = trace::PER_LAYER.iter().zip(&t.metrics).map(|(&(n, u), &v)| (n, u, v)).collect();
        (m, t.attempted, t.failed, wrong)
    } else {
        let o = run::run_workload(workload, args.seed, &limits);
        let p = &o.phase;
        let done = p.jobs.len() as f64;
        let values = [
            done / p.wall_s,
            stats::percentile(&p.jobs, 0.50),
            p.cpu_ns as f64 / 1e6 / done,
            stats::median(&o.setups_s),
            p.rss_mb.unwrap_or(0.0),
        ];
        println!("{name} jobs {} count", p.jobs.len());
        println!("{name} fail_share {} ratio", p.failed.len() as f64 / p.attempted.max(1) as f64);
        println!("{name} report_digest {:016x} fnv1a64", o.digest);
        if o.exhausted {
            println!("{name} note fresh-images-exhausted-before-deadline -");
        }
        let m = END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, u, v)).collect();
        (m, p.attempted, o.phase.failed, o.wrong)
    };

    for (n, u, v) in &metrics {
        println!("{name} {n} {v} {u}");
    }
    for e in failed.iter().chain(&wrong).take(20) {
        eprintln!("{name}: {e}");
    }
    let correct = failed.is_empty() && wrong.is_empty() && attempted > 0;
    let fields = metrics
        .iter()
        .map(|&(n, u, v)| {
            (
                n,
                JsonValue::object(vec![
                    ("value", JsonValue::Float(v)),
                    ("unit", u.to_json_value()),
                ]),
            )
        })
        .collect();
    let result = JsonValue::object(vec![
        ("correct", correct.to_json_value()),
        ("attempted", (attempted as u64).to_json_value()),
        ("failed", (failed.len() as u64).to_json_value()),
        ("metrics", JsonValue::object(fields)),
    ]);
    println!("{}", result.to_compact());
    if correct {
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(section: &str) -> Vec<(String, String)> {
        let doc = JsonValue::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let list = doc.get(section).and_then(JsonValue::as_array).expect("metric list");
        list.iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(JsonValue::as_str).expect("string field").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_names_match_benchmark_json_both_ways() {
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&trace::PER_LAYER));
        let doc = JsonValue::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).expect("workload name"))
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
    }

    #[test]
    fn arguments_are_checked() {
        let a = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&a("--workload taint_storm --seed 3 --seconds 10 --trace 1"))
            .expect("valid");
        assert_eq!((ok.workload, ok.seed, ok.trace), (Some(Workload::TaintStorm), 3, true));
        assert!(parse_args(&a("--all --seed 1")).is_ok_and(|a| a.workload.is_none()));
        for bad in [
            "--workload nope --seed 1",
            "--workload taint_storm",
            "--workload taint_storm --seed 1 --trace 2",
            "--workload taint_storm --all --seed 1",
            "--seed 1",
            "--workload taint_storm --seed 1 --seconds 0",
        ] {
            assert!(parse_args(&a(bad)).is_err(), "{bad}");
        }
    }

    /// Every workload end to end at about 20 jobs, the service path over a
    /// real socket included, timed and traced.
    #[test]
    fn smoke_every_workload_timed_and_traced() {
        let limits = Limits { seconds: 600.0, max_jobs: 20, setups: 1 };
        let dir = PathBuf::from(OUT_DIR).join("smoke");
        for w in Workload::ALL {
            let o = run::run_workload(w, 5, &limits);
            assert_eq!(o.phase.jobs.len(), 20, "{}", w.name());
            assert!(
                o.phase.failed.is_empty() && o.wrong.is_empty(),
                "{}: {:?} {:?}",
                w.name(),
                o.phase.failed,
                o.wrong
            );
            assert!(o.phase.wall_s > 0.0 && o.phase.rss_mb.is_some_and(|r| r > 0.0));

            let mut bench = Bench::setup(w, 5, 1);
            let t = trace::run_traced(&mut bench, &limits, &dir);
            assert_eq!(t.attempted, 20);
            assert!(
                t.failed.is_empty() && t.wrong.is_empty(),
                "{}: {:?} {:?}",
                w.name(),
                t.failed,
                t.wrong
            );
            assert!(bench.teardown().is_empty());
            assert!(t.metrics.iter().all(|m| m.is_finite()));
            for f in &t.files {
                let text = std::fs::read_to_string(f).expect("trace file written");
                JsonValue::parse(&text).expect("trace file is JSON");
            }
        }
    }
}
