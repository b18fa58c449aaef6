//! Table rendering: regenerates the paper's result tables as text and
//! JSON.

use crate::experiment::{RatePoint, SweepResult};

/// Renders one table in the paper's layout (sampling rate, average,
/// maximum), with measured count and percentiles appended.
pub fn render_table(title: &str, points: &[RatePoint]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:>12} | {:>12} | {:>12} | {:>8} | {:>10} | {:>10}\n",
        "rate (Hz)", "avg (ms)", "max (ms)", "n", "p50 (ms)", "p95 (ms)"
    ));
    out.push_str(&"-".repeat(78));
    out.push('\n');
    for p in points {
        out.push_str(&format!(
            "{:>12} | {:>12.3} | {:>12.3} | {:>8} | {:>10.3} | {:>10.3}\n",
            p.rate_hz, p.avg_ms, p.max_ms, p.count, p.p50_ms, p.p95_ms
        ));
    }
    out
}

/// Renders a measured-vs-paper comparison table.
pub fn render_comparison(title: &str, measured: &[RatePoint], paper: &[(f64, f64, f64)]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:>10} | {:>14} | {:>14} | {:>14} | {:>14}\n",
        "rate (Hz)", "paper avg", "measured avg", "paper max", "measured max"
    ));
    out.push_str(&"-".repeat(78));
    out.push('\n');
    for p in measured {
        let reference = paper.iter().find(|(r, _, _)| (*r - p.rate_hz).abs() < 1e-9);
        match reference {
            Some((_, avg, max)) => out.push_str(&format!(
                "{:>10} | {:>14.3} | {:>14.3} | {:>14.3} | {:>14.3}\n",
                p.rate_hz, avg, p.avg_ms, max, p.max_ms
            )),
            None => out.push_str(&format!(
                "{:>10} | {:>14} | {:>14.3} | {:>14} | {:>14.3}\n",
                p.rate_hz, "-", p.avg_ms, "-", p.max_ms
            )),
        }
    }
    out
}

/// Serializes a sweep result to pretty JSON (for EXPERIMENTS.md capture):
/// two-space indent, one field per line, floats in their shortest
/// round-trip form — the layout `sweep_2016.json` is kept in.
pub fn to_json(result: &SweepResult) -> String {
    fn number(v: f64) -> String {
        if v.is_finite() {
            format!("{v:?}")
        } else {
            "null".to_owned()
        }
    }
    let series = |points: &[RatePoint]| {
        if points.is_empty() {
            return "[]".to_owned();
        }
        let rows: Vec<String> = points
            .iter()
            .map(|p| {
                format!(
                    "    {{\n      \"rate_hz\": {},\n      \"count\": {},\n      \"avg_ms\": {},\n      \"max_ms\": {},\n      \"p50_ms\": {},\n      \"p95_ms\": {}\n    }}",
                    number(p.rate_hz),
                    p.count,
                    number(p.avg_ms),
                    number(p.max_ms),
                    number(p.p50_ms),
                    number(p.p95_ms)
                )
            })
            .collect();
        format!("[\n{}\n  ]", rows.join(",\n"))
    };
    format!(
        "{{\n  \"training\": {},\n  \"predicting\": {}\n}}",
        series(&result.training),
        series(&result.predicting)
    )
}

/// Serializes a sweep result to CSV (one row per rate and series) for
/// external plotting tools.
pub fn to_csv(result: &SweepResult) -> String {
    let mut out = String::from("series,rate_hz,count,avg_ms,max_ms,p50_ms,p95_ms\n");
    for (series, points) in [
        ("training", &result.training),
        ("predicting", &result.predicting),
    ] {
        for p in points {
            out.push_str(&format!(
                "{series},{},{},{:.3},{:.3},{:.3},{:.3}\n",
                p.rate_hz, p.count, p.avg_ms, p.max_ms, p.p50_ms, p.p95_ms
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points() -> Vec<RatePoint> {
        vec![
            RatePoint {
                rate_hz: 5.0,
                count: 25,
                avg_ms: 58.9,
                max_ms: 357.6,
                p50_ms: 50.0,
                p95_ms: 200.0,
            },
            RatePoint {
                rate_hz: 80.0,
                count: 400,
                avg_ms: 1636.9,
                max_ms: 1913.7,
                p50_ms: 1600.0,
                p95_ms: 1900.0,
            },
        ]
    }

    #[test]
    fn table_contains_every_rate_row() {
        let s = render_table("Table II (reproduced)", &points());
        assert!(s.contains("Table II"));
        assert!(s.contains("58.900"));
        assert!(s.contains("1913.700"));
        assert_eq!(s.lines().count(), 5);
    }

    #[test]
    fn comparison_pairs_measured_with_paper() {
        let paper = [(5.0, 58.969, 357.619)];
        let s = render_comparison("cmp", &points(), &paper);
        assert!(s.contains("58.969"));
        assert!(s.contains("58.900"));
        // The 80 Hz row has no paper reference: dashes.
        assert!(s.lines().any(|l| l.contains('-') && l.contains("1636.900")));
    }

    #[test]
    fn csv_has_one_row_per_point_plus_header() {
        let result = SweepResult {
            training: points(),
            predicting: points(),
        };
        let csv = to_csv(&result);
        assert_eq!(csv.lines().count(), 1 + 4);
        assert!(csv.starts_with("series,rate_hz"));
        assert!(csv.contains("training,5,25,58.900"));
        assert!(csv.contains("predicting,80,400"));
    }

    /// Rebuilds the committed capture from its own numbers: the writer
    /// reproduces the file byte for byte.
    #[test]
    fn json_layout_is_the_committed_capture() {
        let committed = include_str!("../../../sweep_2016.json");
        let values: Vec<f64> = committed
            .lines()
            .filter_map(|line| {
                line.split_once("\": ")?
                    .1
                    .trim_end_matches(',')
                    .parse()
                    .ok()
            })
            .collect();
        let mut points = values.chunks_exact(6).map(|v| RatePoint {
            rate_hz: v[0],
            count: v[1] as usize,
            avg_ms: v[2],
            max_ms: v[3],
            p50_ms: v[4],
            p95_ms: v[5],
        });
        let result = SweepResult {
            training: points.by_ref().take(5).collect(),
            predicting: points.collect(),
        };
        assert_eq!(result.predicting.len(), 5);
        assert_eq!(to_json(&result), committed);
        let empty = SweepResult {
            training: Vec::new(),
            predicting: Vec::new(),
        };
        assert_eq!(
            to_json(&empty),
            "{\n  \"training\": [],\n  \"predicting\": []\n}"
        );
    }
}
