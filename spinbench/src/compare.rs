//! `--compare a.jsonl b.jsonl`: the benchmark's own bounds applied to two
//! sets of runs, one row per workload and metric, no combined score.
//!
//! A set is a file of result lines as `--all --out` writes them; running
//! `--all` several times (other seeds, or the same) into one file makes
//! a set with a spread. `a` is the baseline, `b` the candidate.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::metrics::{Better, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, spread};

/// One set of runs: values by (workload, metric), plus failures.
#[derive(Default)]
pub struct RunSet {
    values: BTreeMap<(String, String), Vec<f64>>,
    failed: BTreeMap<String, u64>,
    incorrect: BTreeMap<String, u64>,
}

/// One result line as `--all` writes it.
pub fn result_line(workload: &str, seed: u64, trace: bool, result_json: &str) -> String {
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {}, \"result\": {result_json}}}",
        crate::json::quote(workload),
        u8::from(trace)
    )
}

impl RunSet {
    /// Parse a file of result lines.
    pub fn parse(text: &str) -> Result<RunSet, String> {
        let mut set = RunSet::default();
        for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
            let at = |what: &str| format!("line {}: {what}", n + 1);
            let doc = Json::parse(line).map_err(|e| at(&e))?;
            let workload =
                doc.get("workload").and_then(Json::as_str).ok_or_else(|| at("no workload"))?;
            let result = doc.get("result").ok_or_else(|| at("no result"))?;
            let metrics =
                result.get("metrics").and_then(Json::as_obj).ok_or_else(|| at("no metrics"))?;
            for (name, m) in metrics {
                let v = m.get("value").and_then(Json::as_f64).ok_or_else(|| at("no value"))?;
                set.values.entry((workload.to_string(), name.clone())).or_default().push(v);
            }
            let failed = result.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
            *set.failed.entry(workload.to_string()).or_default() += failed;
            if result.get("correct") != Some(&Json::Bool(true)) {
                *set.incorrect.entry(workload.to_string()).or_default() += 1;
            }
        }
        Ok(set)
    }
}

/// The verdict on one workload and metric.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Better than the baseline by more than the bound.
    Improved,
    /// Within the bound, and both sets' spreads are within it too.
    Unchanged,
    /// Worse than the baseline by more than the bound.
    Regressed,
    /// Within the bound, but a set's own spread exceeds it.
    Unresolved,
}

/// Judge candidate values `b` against baseline values `a`.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    let (ma, mb) = (median(a), median(b));
    let worse = match def.better {
        Better::Lower => (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
        Better::Higher => (ma - mb) / ma.abs().max(f64::MIN_POSITIVE),
    };
    let verdict = if worse > def.bound {
        Verdict::Regressed
    } else if worse < -def.bound {
        Verdict::Improved
    } else if spread(a) > def.bound || spread(b) > def.bound {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    };
    (verdict, worse)
}

/// The comparison table and whether anything regressed (a metric beyond
/// its bound, more failed operations, or an incorrect candidate run).
pub fn compare(a: &RunSet, b: &RunSet) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    out.push_str(&format!(
        "{:<13} {:<46} {:>14} {:>14} {:>9}  verdict\n",
        "workload", "metric", "baseline", "candidate", "worse by"
    ));
    for (workload, _) in WORKLOADS {
        for (defs, bounded) in [(&END_TO_END[..], true), (&PER_LAYER[..], false)] {
            for def in defs {
                let key = (workload.to_string(), def.name.to_string());
                let (Some(va), Some(vb)) = (a.values.get(&key), b.values.get(&key)) else {
                    continue;
                };
                let (verdict, worse) = judge(def, va, vb);
                let shown = if bounded {
                    regressed |= verdict == Verdict::Regressed;
                    format!("{verdict:?}").to_lowercase()
                } else {
                    "-".to_string()
                };
                out.push_str(&format!(
                    "{workload:<13} {:<46} {:>14.4} {:>14.4} {:>8.2}%  {shown}\n",
                    def.name,
                    median(va),
                    median(vb),
                    worse * 100.0
                ));
            }
        }
        let (fa, fb) = (
            a.failed.get(workload).copied().unwrap_or(0),
            b.failed.get(workload).copied().unwrap_or(0),
        );
        let bad_runs = b.incorrect.get(workload).copied().unwrap_or(0);
        if fb > fa || bad_runs > 0 {
            regressed = true;
            out.push_str(&format!(
                "{workload:<13} failed operations {fa} -> {fb}, incorrect candidate runs {bad_runs}: regressed\n"
            ));
        }
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(better: Better, bound: f64) -> MetricDef {
        MetricDef { name: "m", unit: "x", better, bound }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = def(Better::Lower, 0.05);
        assert_eq!(
            judge(&lower, &[100.0, 101.0, 99.0], &[110.0, 111.0, 109.0]).0,
            Verdict::Regressed
        );
        assert_eq!(judge(&lower, &[100.0, 101.0, 99.0], &[90.0, 91.0, 89.0]).0, Verdict::Improved);
        assert_eq!(
            judge(&lower, &[100.0, 101.0, 99.0], &[102.0, 101.0, 103.0]).0,
            Verdict::Unchanged
        );
        // Same medians, but the baseline itself spreads by 40 %.
        assert_eq!(
            judge(&lower, &[80.0, 100.0, 120.0], &[100.0, 100.0, 100.0]).0,
            Verdict::Unresolved
        );
        let higher = def(Better::Higher, 0.10);
        assert_eq!(judge(&higher, &[100.0], &[85.0]).0, Verdict::Regressed);
        assert_eq!(judge(&higher, &[100.0], &[115.0]).0, Verdict::Improved);
    }

    #[test]
    fn sets_parse_and_failed_operations_regress() {
        let line = |failed: u64, v: f64| {
            result_line(
                "write-sat",
                11,
                false,
                &format!(
                    "{{\"correct\": true, \"attempted\": 10, \"failed\": {failed}, \
                     \"metrics\": {{\"v_ops_per_s\": {{\"value\": {v}, \"unit\": \"ops/s\"}}}}}}"
                ),
            )
        };
        let a = RunSet::parse(&format!("{}\n{}\n", line(0, 100.0), line(0, 101.0))).unwrap();
        let same = RunSet::parse(&line(0, 100.5)).unwrap();
        let (table, regressed) = compare(&a, &same);
        assert!(!regressed && table.contains("unchanged"), "{table}");
        let failing = RunSet::parse(&line(1, 100.5)).unwrap();
        assert!(compare(&a, &failing).1);
        let slower = RunSet::parse(&line(0, 80.0)).unwrap();
        let (table, regressed) = compare(&a, &slower);
        assert!(regressed && table.contains("regressed"), "{table}");
    }
}
