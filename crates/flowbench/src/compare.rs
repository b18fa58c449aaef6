//! Comparison of result files (`--out` appends one result set per run; a
//! file with several runs is compared by its per-metric medians):
//! `--agree A B` — two sets of runs of the same code must lie within every
//! bound, in both directions; `--check BASELINE CANDIDATE` — the one-sided
//! regression gate.

use std::process::ExitCode;

use crate::catalog::{worse_beyond_bound, END_TO_END};
use crate::json::{self, Value};
use crate::stats;

/// One workload's end-to-end values out of a result set.
struct Row {
    workload: String,
    correct: bool,
    values: Vec<(String, f64)>,
}

/// Reads a result file: one result set per line (`--out` appends), so a
/// file may hold several runs of the same workloads. Each workload's row
/// is the per-metric median over the file's runs; it is correct only if
/// every run was.
fn load(path: &str) -> Result<(bool, Vec<Row>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut comparable = true;
    let mut rows: Vec<Row> = Vec::new();
    let mut runs: Vec<Vec<(String, Vec<f64>)>> = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let doc = json::parse(line).map_err(|e| format!("{path}: {e}"))?;
        comparable &= doc.get("comparable").and_then(Value::as_bool) == Some(true)
            && doc.get("trace").and_then(Value::as_f64) == Some(0.0);
        let results = doc
            .get("results")
            .ok_or_else(|| format!("{path}: not a flowbench result set"))?;
        for r in results.items() {
            let workload = r.get("workload").and_then(Value::as_str).unwrap_or("?");
            let correct = r.get("correct").and_then(Value::as_bool) == Some(true);
            let at = match rows.iter().position(|row| row.workload == workload) {
                Some(at) => at,
                None => {
                    rows.push(Row {
                        workload: workload.to_owned(),
                        correct: true,
                        values: Vec::new(),
                    });
                    runs.push(Vec::new());
                    rows.len() - 1
                }
            };
            rows[at].correct &= correct;
            for (name, m) in r.get("metrics").map(Value::members).unwrap_or(&[]) {
                let Some(value) = m.get("value").and_then(Value::as_f64) else {
                    continue;
                };
                match runs[at].iter_mut().find(|(n, _)| n == name) {
                    Some((_, values)) => values.push(value),
                    None => runs[at].push((name.clone(), vec![value])),
                }
            }
        }
    }
    if rows.is_empty() {
        return Err(format!("{path}: holds no result set"));
    }
    for (row, metrics) in rows.iter_mut().zip(runs) {
        row.values = metrics
            .into_iter()
            .map(|(name, values)| (name, stats::median(&values)))
            .collect();
    }
    Ok((comparable, rows))
}

/// Every violation of the bounds between two result sets. With
/// `both_directions` the candidate may be neither worse nor better than
/// the baseline by more than the bound (same code must agree with itself).
fn violations(baseline: &[Row], candidate: &[Row], both_directions: bool) -> Vec<String> {
    let mut out = Vec::new();
    for base in baseline {
        let Some(cand) = candidate.iter().find(|c| c.workload == base.workload) else {
            out.push(format!("{}: missing from the candidate", base.workload));
            continue;
        };
        for row in [base, cand] {
            if !row.correct {
                out.push(format!("{}: a run failed its output checks", row.workload));
            }
        }
        for metric in &END_TO_END {
            let value = |row: &Row| {
                row.values
                    .iter()
                    .find(|(n, _)| n == metric.name)
                    .map(|(_, v)| *v)
            };
            let (Some(b), Some(c)) = (value(base), value(cand)) else {
                out.push(format!("{}: {} missing", base.workload, metric.name));
                continue;
            };
            let worse = worse_beyond_bound(metric, b, c);
            let better = both_directions && worse_beyond_bound(metric, c, b);
            if worse || better {
                out.push(format!(
                    "{}: {} {} -> {} {} ({:+.1} %, bound {} %)",
                    base.workload,
                    metric.name,
                    b,
                    c,
                    metric.unit,
                    (c - b) / b * 100.0,
                    metric.bound * 100.0
                ));
            }
        }
    }
    out
}

pub fn main(argv: &[String]) -> ExitCode {
    let [mode, a, b] = argv else {
        eprintln!("usage: flowbench --agree A.json B.json | --check BASELINE.json CANDIDATE.json");
        return ExitCode::from(2);
    };
    let (base, cand) = match (load(a), load(b)) {
        (Ok(base), Ok(cand)) => (base, cand),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if !(base.0 && cand.0) {
        eprintln!("not comparable: both sets must be untraced runs of the committed length");
        return ExitCode::from(2);
    }
    let found = violations(&base.1, &cand.1, mode == "--agree");
    for v in &found {
        println!("{v}");
    }
    if found.is_empty() {
        println!(
            "{}: {} workloads x {} metrics within bounds",
            mode.trim_start_matches('-'),
            base.1.len(),
            END_TO_END.len()
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(p50: f64, rate: f64) -> Row {
        let mut values: Vec<(String, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name.to_owned(), 1.0))
            .collect();
        for (name, v) in &mut values {
            match name.as_str() {
                "peak_rss_mb" => *v = p50,
                "items_per_s" => *v = rate,
                _ => {}
            }
        }
        Row {
            workload: "w".into(),
            correct: true,
            values,
        }
    }

    #[test]
    fn check_is_one_sided_and_agree_is_two_sided() {
        let base = [row(1.0, 1000.0)];
        // 30 % smaller: fine for the gate, a disagreement for same code.
        let faster = [row(0.7, 1000.0)];
        assert!(violations(&base, &faster, false).is_empty());
        assert_eq!(violations(&base, &faster, true).len(), 1);
        // 30 % slower fails both.
        let slower = [row(1.3, 1000.0)];
        assert_eq!(violations(&base, &slower, false).len(), 1);
        assert_eq!(violations(&base, &slower, true).len(), 1);
        // Within the bound passes both.
        let close = [row(1.05, 995.0)];
        assert!(violations(&base, &close, true).is_empty());
    }

    #[test]
    fn failed_runs_and_missing_workloads_are_violations() {
        let base = [row(1.0, 1000.0)];
        let mut bad = row(1.0, 1000.0);
        bad.correct = false;
        assert_eq!(violations(&base, &[bad], false).len(), 1);
        assert_eq!(violations(&base, &[], false).len(), 1);
    }
}
