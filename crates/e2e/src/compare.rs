//! `bench_e2e compare A.json B.json`: did B regress against A?
//!
//! Applies the bounds in `BENCHMARK.json` per (end-to-end metric,
//! workload) to two results files written by `bench_e2e suite`. With
//! repeated runs on both sides the verdict follows the measuring rule the
//! benchmark is built to: a pairing whose run-to-run spread is wider than
//! its bound is *unresolved*, not unchanged — unless every run of B beats
//! every run of A. Counts that a seed determines must be equal.

use std::path::Path;

use crate::json::Json;
use crate::recorder::quantile;
use crate::suite::Spec;

/// Metrics a seed determines exactly: any difference is a change in what
/// the program does, not noise. Only importance ordering, the penalty or
/// the ε semantics may move them.
pub const EXACT_COUNTS: [&str; 3] = [
    "retrievals_to_eps",
    "storage.shard_rpcs",
    "core.master_keys_per_batch",
];

/// Verdict on one (metric, workload) pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (or equal, for exact counts).
    Pass,
    /// B's median is worse than A's by more than the bound, or an exact
    /// count differs.
    Regressed,
    /// Spread wider than the bound: the runs cannot tell.
    Unresolved,
}

/// Every value of `metric` on `workload` in a results file.
fn values(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("runs")
        .map(Json::items)
        .unwrap_or_default()
        .iter()
        .filter(|run| run.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|run| {
            run.get("result")?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// Interquartile range over median (0 for fewer than two values).
fn spread(values: &[f64]) -> f64 {
    let median = quantile(values, 0.5);
    if values.len() < 2 || median == 0.0 {
        return 0.0;
    }
    (quantile(values, 0.75) - quantile(values, 0.25)) / median.abs()
}

/// The verdict for one bounded metric given both sides' runs.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (med_a, med_b) = (quantile(a, 0.5), quantile(b, 0.5));
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    if spread(a).max(spread(b)) > bound {
        let b_always_wins = b.iter().all(|&x| a.iter().all(|&y| better(x, y)));
        return if b_always_wins {
            Verdict::Pass
        } else {
            Verdict::Unresolved
        };
    }
    let worsening = if lower_is_better {
        (med_b - med_a) / med_a.abs()
    } else {
        (med_a - med_b) / med_a.abs()
    };
    if worsening > bound {
        Verdict::Regressed
    } else {
        Verdict::Pass
    }
}

/// Compares two results files; returns whether every pairing passed.
pub fn compare(a_path: &Path, b_path: &Path, benchmark: &Path) -> Result<bool, String> {
    let spec = Spec::load(benchmark)?;
    let load = |path: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (doc_a, doc_b) = (load(a_path)?, load(b_path)?);
    let mut all_pass = true;
    println!(
        "{:<14} {:<28} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound"
    );
    let mut row = |workload: &str, metric: &str, a: &[f64], b: &[f64], bound: &str, v: Verdict| {
        let (med_a, med_b) = (quantile(a, 0.5), quantile(b, 0.5));
        let change = if med_a == 0.0 {
            0.0
        } else {
            100.0 * (med_b - med_a) / med_a.abs()
        };
        println!(
            "{workload:<14} {metric:<28} {med_a:>14.4} {med_b:>14.4} {change:>+7.2}% {bound:>6}  {}",
            match v {
                Verdict::Pass => "pass",
                Verdict::Regressed => "REGRESSED",
                Verdict::Unresolved => "UNRESOLVED (spread wider than bound)",
            }
        );
        all_pass &= v == Verdict::Pass;
    };
    for workload in &spec.workloads {
        for metric in &spec.end_to_end {
            let (a, b) = (
                values(&doc_a, workload, &metric.name),
                values(&doc_b, workload, &metric.name),
            );
            if a.is_empty() || b.is_empty() {
                return Err(format!(
                    "{} on {workload} is missing from a results file",
                    metric.name
                ));
            }
            let bound = metric.bound.unwrap_or(0.0);
            let verdict = if EXACT_COUNTS.contains(&metric.name.as_str()) {
                exact(&a, &b)
            } else {
                judge(&a, &b, metric.lower_is_better, bound)
            };
            let bound = format!("{:.0}%", 100.0 * bound);
            row(workload, &metric.name, &a, &b, &bound, verdict);
        }
        for name in EXACT_COUNTS {
            if spec.per_layer.iter().any(|m| m.name == name) {
                let (a, b) = (
                    values(&doc_a, workload, name),
                    values(&doc_b, workload, name),
                );
                row(workload, name, &a, &b, "exact", exact(&a, &b));
            }
        }
    }
    Ok(all_pass)
}

/// Exact counts pass only when every run on both sides reads the same.
fn exact(a: &[f64], b: &[f64]) -> Verdict {
    match a.first() {
        Some(first) if a.iter().chain(b).all(|v| v == first) && !b.is_empty() => Verdict::Pass,
        _ => Verdict::Regressed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_bound_in_the_metric_direction() {
        // Lower is better, 10 % bound.
        assert_eq!(judge(&[100.0], &[109.0], true, 0.10), Verdict::Pass);
        assert_eq!(judge(&[100.0], &[111.0], true, 0.10), Verdict::Regressed);
        assert_eq!(judge(&[100.0], &[50.0], true, 0.10), Verdict::Pass);
        // Higher is better.
        assert_eq!(judge(&[100.0], &[91.0], false, 0.10), Verdict::Pass);
        assert_eq!(judge(&[100.0], &[89.0], false, 0.10), Verdict::Regressed);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_b_always_wins() {
        let noisy = [80.0, 100.0, 120.0];
        assert_eq!(
            judge(&noisy, &[90.0, 100.0, 130.0], true, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&noisy, &[60.0, 70.0, 75.0], true, 0.10),
            Verdict::Pass
        );
    }

    #[test]
    fn exact_counts_must_repeat() {
        assert_eq!(exact(&[7.0, 7.0], &[7.0]), Verdict::Pass);
        assert_eq!(exact(&[7.0, 7.0], &[7.5]), Verdict::Regressed);
        assert_eq!(exact(&[], &[7.0]), Verdict::Regressed);
    }
}
