//! `faros-benchmark compare <parent-dir> <change-dir>`: the choosing-metrics
//! §8 rule applied to every workload and end-to-end metric.
//!
//! Each directory holds the standard output of runs, one file per run;
//! the i-th file (by name) of the parent is paired with the i-th of the
//! change, so alternate which side runs first when producing them.

use crate::inputs::Workload;
use crate::stats::{median, quartiles};
use faros_support::json::JsonValue;
use std::collections::BTreeMap;
use std::path::Path;

/// How a change compares with its parent on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Wins ≥ 9/10 of the pairs and the medians differ by more than the
    /// parent's interquartile range.
    Improved,
    /// The median is worse by more than the bound.
    Worse,
    /// A side's spread (IQR over median) is wider than the bound.
    Unresolved,
    /// None of the above.
    Unchanged,
}

/// One end-to-end metric's rule from `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Metric name.
    pub name: String,
    /// `true` when higher is better.
    pub higher: bool,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// The end-to-end rules of a `BENCHMARK.json` document.
pub fn rules(benchmark_json: &str) -> Vec<Rule> {
    let doc = JsonValue::parse(benchmark_json).expect("BENCHMARK.json parses");
    let list = doc.get("end_to_end").and_then(JsonValue::as_array).expect("end_to_end list");
    list.iter()
        .map(|m| Rule {
            name: m.get("name").and_then(JsonValue::as_str).expect("metric name").to_string(),
            higher: m.get("better").and_then(JsonValue::as_str) == Some("higher"),
            bound: match m.get("bound") {
                Some(JsonValue::Float(b)) => *b,
                Some(JsonValue::Int(b)) => *b as f64,
                _ => panic!("metric bound"),
            },
        })
        .collect()
}

/// Applies the rule to paired runs (`parent[i]` ran next to `change[i]`).
pub fn verdict(parent: &[f64], change: &[f64], rule: &Rule) -> Verdict {
    let better = |a: f64, b: f64| if rule.higher { a > b } else { a < b };
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    let (pm, cm) = (median(parent), median(change));
    let (q1, q3) = quartiles(parent);
    let worse_share = if rule.higher { (pm - cm) / pm } else { (cm - pm) / pm };
    let spread = |v: &[f64]| {
        let (a, b) = quartiles(v);
        (b - a) / median(v)
    };
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    if pairs > 0 && wins * 10 >= pairs * 9 && better(cm, pm) && (cm - pm).abs() > q3 - q1 {
        Verdict::Improved
    } else if worse_share > rule.bound {
        Verdict::Worse
    } else if (spread(parent) > rule.bound || spread(change) > rule.bound) && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

/// `(workload, metric) → values` and `workload → digests`, over every run
/// file in `dir` in name order.
type Runs = (BTreeMap<(String, String), Vec<f64>>, BTreeMap<String, Vec<String>>);

fn read_runs(dir: &Path) -> Result<Runs, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_file())
        .collect();
    files.sort();
    let (mut values, mut digests) = (BTreeMap::new(), BTreeMap::<String, Vec<String>>::new());
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        for line in text.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            if f.len() != 4 || Workload::parse(f[0]).is_none() {
                continue;
            }
            if f[1] == "report_digest" {
                digests.entry(f[0].to_string()).or_default().push(f[2].to_string());
            } else if let Ok(v) = f[2].parse::<f64>() {
                values.entry((f[0].to_string(), f[1].to_string())).or_insert_with(Vec::new).push(v);
            }
        }
    }
    Ok((values, digests))
}

/// Prints one row per workload and metric; returns the process exit code
/// (1 when any metric got worse or a report digest changed).
pub fn main(args: &[String], benchmark_json: &str) -> i32 {
    let [parent, change] = args else {
        eprintln!("usage: faros-benchmark compare <parent-dir> <change-dir>");
        return 2;
    };
    let (p, c) = match (read_runs(Path::new(parent)), read_runs(Path::new(change))) {
        (Ok(p), Ok(c)) => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let mut code = 0;
    for w in Workload::ALL.map(Workload::name) {
        for rule in rules(benchmark_json) {
            let key = (w.to_string(), rule.name.clone());
            let (Some(pv), Some(cv)) = (p.0.get(&key), c.0.get(&key)) else { continue };
            let v = verdict(pv, cv, &rule);
            let (pq1, pq3) = quartiles(pv);
            let (cq1, cq3) = quartiles(cv);
            println!(
                "{w} {} parent {:.4} [{pq1:.4}, {pq3:.4}] change {:.4} [{cq1:.4}, {cq3:.4}] runs {}/{} {v:?}",
                rule.name,
                median(pv),
                median(cv),
                pv.len(),
                cv.len()
            );
            if v == Verdict::Worse {
                code = 1;
            }
        }
        let (pd, cd) = (p.1.get(w), c.1.get(w));
        if pd.is_some() && cd.is_some() && pd != cd {
            println!("{w} report_digest differs: {pd:?} vs {cd:?}");
            code = 1;
        }
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(higher: bool, bound: f64) -> Rule {
        Rule { name: "m".into(), higher, bound }
    }

    #[test]
    fn improved_needs_nine_of_ten_wins_and_a_gap_beyond_the_parent_iqr() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
        let faster: Vec<f64> = parent.iter().map(|p| p + 20.0).collect();
        assert_eq!(verdict(&parent, &faster, &rule(true, 0.1)), Verdict::Improved);
        // Wins every pair by a hair: the gap is inside the parent's IQR.
        let hair: Vec<f64> = parent.iter().map(|p| p + 0.5).collect();
        assert_eq!(verdict(&parent, &hair, &rule(true, 0.1)), Verdict::Unchanged);
        // Lower is better: the same numbers read the other way round.
        assert_eq!(verdict(&faster, &parent, &rule(false, 0.1)), Verdict::Improved);
    }

    #[test]
    fn worse_beyond_the_bound_and_unresolved_beyond_the_spread() {
        let parent = vec![100.0; 10];
        let slower = vec![85.0; 10];
        assert_eq!(verdict(&parent, &slower, &rule(true, 0.1)), Verdict::Worse);
        assert_eq!(verdict(&parent, &slower, &rule(true, 0.2)), Verdict::Unchanged);
        let noisy = vec![60.0, 140.0, 70.0, 130.0, 100.0, 65.0, 135.0, 100.0, 90.0, 110.0];
        assert_eq!(verdict(&parent, &noisy, &rule(true, 0.1)), Verdict::Unresolved);
    }

    #[test]
    fn benchmark_json_rules_parse() {
        let rules = rules(crate::BENCHMARK_JSON);
        let setup = rules.iter().find(|r| r.name == "setup_s").expect("setup_s");
        assert!(!setup.higher);
        assert!(rules.iter().all(|r| r.bound > 0.0 && r.bound <= 0.25 && r.bound <= setup.bound));
    }
}
