//! Trace analysis for `progress_report`: per-trace summaries, A/B diffs,
//! and ASCII penalty-bound curves.
//!
//! A trace is the `exec.*` JSONL stream of DESIGN.md §8 — the paper's
//! deliverable rendered as data: one `exec.step` per retrieval carrying
//! the Theorem-1 (`worst_case_bound`) and Theorem-2 (`expected_penalty`)
//! penalty families.  This module reduces a trace to a [`TraceSummary`]
//! (step series, totals, steps-to-bound milestones), computes the
//! per-step [`TraceDiff`] between two traces (engine-vs-engine or
//! layout-vs-layout A/B — the comparison the paper's Figures 5–7 are
//! built from), and renders the bound curves as log-scale ASCII charts so
//! the replay tool needs no plotting dependency.
//!
//! Everything here is pure data → data; the `progress_report` binary is a
//! thin shell over it, which keeps the diff semantics unit-testable.

use std::collections::BTreeMap;

use batchbb_obs::jsonl::ParsedEvent;

/// One retrieval step of a trace, as far as penalty tracking goes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepSample {
    /// Cumulative retrieval count at this step (the `step` field).
    pub step: u64,
    /// Theorem 1's worst-case bound, if the engine tracks importance.
    pub worst_case_bound: Option<f64>,
    /// Theorem 2's expected penalty, if tracked.
    pub expected_penalty: Option<f64>,
}

/// The two penalty families every engine can report per step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundFamily {
    /// Theorem 1: `K^α · max ι_p` over everything unresolved.
    WorstCase,
    /// Theorem 2: expected penalty over the uniform sphere.
    Expected,
}

impl BoundFamily {
    /// Both families, in report order.
    pub const ALL: [BoundFamily; 2] = [BoundFamily::WorstCase, BoundFamily::Expected];

    /// Human label used in tables and chart titles.
    pub fn label(self) -> &'static str {
        match self {
            BoundFamily::WorstCase => "worst-case bound (Thm 1)",
            BoundFamily::Expected => "expected penalty (Thm 2)",
        }
    }

    /// Compact label for fixed-width table columns.
    pub fn short(self) -> &'static str {
        match self {
            BoundFamily::WorstCase => "Thm1 bound",
            BoundFamily::Expected => "Thm2 E[pen]",
        }
    }

    fn of(self, sample: &StepSample) -> Option<f64> {
        match self {
            BoundFamily::WorstCase => sample.worst_case_bound,
            BoundFamily::Expected => sample.expected_penalty,
        }
    }
}

/// Count and total duration of one span name's occurrences in a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanAggregate {
    /// Closed spans with this name.
    pub count: u64,
    /// Summed span duration in nanoseconds.
    pub total_ns: u64,
}

/// Everything `progress_report` needs from one trace, in step order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// The engine label of the first `exec.*` event carrying one.
    pub engine: Option<String>,
    /// One sample per `exec.step`, in trace order.
    pub steps: Vec<StepSample>,
    /// `exec.step` events with `kind = "recovered"`.
    pub recovered: u64,
    /// First-deferral events (`exec.defer` with `first = true`).
    pub deferrals: u64,
    /// `store.fault` events.
    pub store_faults: u64,
    /// Cumulative attempts from the last `exec.finish` (0 if none).
    pub attempts: u64,
    /// `metrics.*` dump values keyed by `"<kind> <name>"` (counters and
    /// gauges verbatim; histograms expanded to `count`/`mean`/`p99`).
    /// When a trace holds several dumps the last one wins, matching the
    /// registry's cumulative semantics.
    pub metrics: BTreeMap<String, f64>,
    /// Per-name aggregates over the causal `span.start`/`span.end`
    /// stream (empty for untraced runs).  Counts diff exactly across
    /// runs of the same workload; durations are wall-clock and noisy,
    /// so the diff reports them without gating on them.
    pub spans: BTreeMap<String, SpanAggregate>,
}

impl TraceSummary {
    /// Reduces parsed events to a summary.
    pub fn from_events(events: &[ParsedEvent]) -> Self {
        let mut summary = TraceSummary::default();
        // Tolerant span pairing: id -> (name, start). The diff only
        // aggregates; the strict structural checks live in
        // [`crate::spans::SpanSet`].
        let mut open_spans: BTreeMap<u64, (String, u64)> = BTreeMap::new();
        for event in events {
            match event.name() {
                "exec.step" => {
                    summary.steps.push(StepSample {
                        step: event.u64("step").unwrap_or(summary.steps.len() as u64 + 1),
                        worst_case_bound: event.num("worst_case_bound"),
                        expected_penalty: event.num("expected_penalty"),
                    });
                    if event.str("kind") == Some("recovered") {
                        summary.recovered += 1;
                    }
                }
                "exec.defer" if event.bool("first") == Some(true) => summary.deferrals += 1,
                "store.fault" => summary.store_faults += 1,
                "exec.finish" => summary.attempts = event.u64("attempts").unwrap_or(0),
                "metrics.counter" | "metrics.gauge" => {
                    if let (Some(name), Some(value)) = (event.str("name"), event.num("value")) {
                        let kind = event.name().trim_start_matches("metrics.");
                        summary.metrics.insert(format!("{kind} {name}"), value);
                    }
                }
                "metrics.histogram" => {
                    if let Some(name) = event.str("name") {
                        for field in ["count", "mean", "p99"] {
                            if let Some(value) = event.num(field) {
                                summary
                                    .metrics
                                    .insert(format!("hist {name}.{field}"), value);
                            }
                        }
                    }
                }
                "span.start" => {
                    if let (Some(name), Some(id), Some(ts)) =
                        (event.str("name"), event.u64("span"), event.u64("ts_ns"))
                    {
                        open_spans.insert(id, (name.to_string(), ts));
                    }
                }
                "span.end" => {
                    if let (Some(id), Some(ts)) = (event.u64("span"), event.u64("ts_ns")) {
                        if let Some((name, start)) = open_spans.remove(&id) {
                            let agg = summary.spans.entry(name).or_default();
                            agg.count += 1;
                            agg.total_ns += ts.saturating_sub(start);
                        }
                    }
                }
                _ => {}
            }
            if summary.engine.is_none() {
                if let Some(engine) = event.str("engine") {
                    summary.engine = Some(engine.to_string());
                }
            }
        }
        summary
    }

    /// Total retrievals (= `exec.step` events).
    pub fn retrievals(&self) -> u64 {
        self.steps.len() as u64
    }

    /// The family's series, skipping steps where it is untracked.
    pub fn series(&self, family: BoundFamily) -> Vec<(u64, f64)> {
        self.steps
            .iter()
            .filter_map(|s| family.of(s).map(|b| (s.step, b)))
            .collect()
    }

    /// First bound sample of the family, if any.
    pub fn initial_bound(&self, family: BoundFamily) -> Option<f64> {
        self.steps.iter().find_map(|s| family.of(s))
    }

    /// Last bound sample of the family, if any.
    pub fn final_bound(&self, family: BoundFamily) -> Option<f64> {
        self.steps.iter().rev().find_map(|s| family.of(s))
    }

    /// Retrievals needed before the family's bound first drops to
    /// `fraction` of its initial value (`None` when untracked or never
    /// reached) — the "steps-to-bound" milestone the diff table compares.
    pub fn steps_to_bound(&self, family: BoundFamily, fraction: f64) -> Option<u64> {
        let initial = self.initial_bound(family)?;
        let target = initial * fraction;
        self.series(family)
            .into_iter()
            .find(|&(_, bound)| bound <= target)
            .map(|(step, _)| step)
    }
}

/// One row of the per-step diff: the same step index in both traces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffRow {
    /// Step index (1-based retrieval count).
    pub step: u64,
    /// Trace A's bound at this step, if tracked.
    pub a: Option<f64>,
    /// Trace B's bound at this step, if tracked.
    pub b: Option<f64>,
}

impl DiffRow {
    /// `a - b` when both sides track the bound.
    pub fn delta(&self) -> Option<f64> {
        match (self.a, self.b) {
            (Some(a), Some(b)) => Some(a - b),
            _ => None,
        }
    }
}

/// The per-step comparison of one bound family across two traces.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceDiff {
    /// One row per step index present in either trace (up to the longer
    /// trace's length).
    pub rows: Vec<DiffRow>,
    /// Largest `|a - b|` over rows where both sides report the bound.
    pub max_abs_delta: f64,
    /// Steps where exactly one trace reports the bound.
    pub one_sided: u64,
}

impl TraceDiff {
    /// Aligns the family's series of both traces by step index.
    pub fn compute(a: &TraceSummary, b: &TraceSummary, family: BoundFamily) -> Self {
        let len = a.steps.len().max(b.steps.len());
        let mut diff = TraceDiff::default();
        for i in 0..len {
            let row = DiffRow {
                step: i as u64 + 1,
                a: a.steps.get(i).and_then(|s| family.of(s)),
                b: b.steps.get(i).and_then(|s| family.of(s)),
            };
            if let Some(delta) = row.delta() {
                diff.max_abs_delta = diff.max_abs_delta.max(delta.abs());
            } else if row.a.is_some() != row.b.is_some() {
                diff.one_sided += 1;
            }
            diff.rows.push(row);
        }
        diff
    }

    /// Whether the aligned series are identical (no deltas, no one-sided
    /// samples) — true for a self-diff of any trace.
    pub fn is_zero(&self) -> bool {
        self.max_abs_delta == 0.0 && self.one_sided == 0
    }
}

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:.4e}"),
        None => "-".to_string(),
    }
}

fn fmt_opt_u64(v: Option<u64>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "-".to_string(),
    }
}

fn fmt_i64_delta(a: u64, b: u64) -> String {
    let delta = a as i64 - b as i64;
    if delta == 0 {
        "0".to_string()
    } else {
        format!("{delta:+}")
    }
}

/// The summary comparison block: retrievals, deferrals, faults, and the
/// steps-to-bound milestones of both penalty families, for A, B, and Δ.
pub fn format_summary_diff(a: &TraceSummary, b: &TraceSummary) -> String {
    let mut out = String::new();
    let name = |s: &TraceSummary| s.engine.clone().unwrap_or_else(|| "?".to_string());
    out.push_str(&format!(
        "{:<34} {:>14} {:>14} {:>10}\n",
        "metric",
        format!("A ({})", name(a)),
        format!("B ({})", name(b)),
        "delta"
    ));
    let mut counter = |label: &str, av: u64, bv: u64| {
        out.push_str(&format!(
            "{label:<34} {av:>14} {bv:>14} {:>10}\n",
            fmt_i64_delta(av, bv)
        ));
    };
    counter("retrievals", a.retrievals(), b.retrievals());
    counter("recovered", a.recovered, b.recovered);
    counter("deferrals", a.deferrals, b.deferrals);
    counter("store faults", a.store_faults, b.store_faults);
    counter("attempts", a.attempts, b.attempts);
    for family in BoundFamily::ALL {
        for fraction in [0.5, 0.1, 0.01, 0.001] {
            let label = format!("steps to {fraction}x {}", family.short());
            let av = a.steps_to_bound(family, fraction);
            let bv = b.steps_to_bound(family, fraction);
            let delta = match (av, bv) {
                (Some(av), Some(bv)) => fmt_i64_delta(av, bv),
                _ => "-".to_string(),
            };
            out.push_str(&format!(
                "{label:<34} {:>14} {:>14} {delta:>10}\n",
                fmt_opt_u64(av),
                fmt_opt_u64(bv),
            ));
        }
        let label = format!("final {}", family.short());
        out.push_str(&format!(
            "{label:<34} {:>14} {:>14} {:>10}\n",
            fmt_opt(a.final_bound(family)),
            fmt_opt(b.final_bound(family)),
            match (a.final_bound(family), b.final_bound(family)) {
                (Some(av), Some(bv)) if av == bv => "0".to_string(),
                (Some(av), Some(bv)) => format!("{:+.2e}", av - bv),
                _ => "-".to_string(),
            },
        ));
    }
    // `metrics.*` dumps and `span.*` aggregates, over the union of keys
    // so a measurement present on one side only still shows up (as `-`).
    let keys: Vec<&String> = {
        let mut keys: Vec<&String> = a.metrics.keys().chain(b.metrics.keys()).collect();
        keys.sort();
        keys.dedup();
        keys
    };
    for key in keys {
        let (av, bv) = (a.metrics.get(key).copied(), b.metrics.get(key).copied());
        let delta = match (av, bv) {
            (Some(av), Some(bv)) if av == bv => "0".to_string(),
            (Some(av), Some(bv)) => format!("{:+.4}", av - bv),
            _ => "-".to_string(),
        };
        let label = format!("metric {key}");
        out.push_str(&format!(
            "{label:<34} {:>14} {:>14} {delta:>10}\n",
            fmt_opt(av),
            fmt_opt(bv),
        ));
    }
    let span_names: Vec<&String> = {
        let mut names: Vec<&String> = a.spans.keys().chain(b.spans.keys()).collect();
        names.sort();
        names.dedup();
        names
    };
    for name in span_names {
        let (av, bv) = (a.spans.get(name), b.spans.get(name));
        let label = format!("spans {name}");
        out.push_str(&format!(
            "{label:<34} {:>14} {:>14} {:>10}\n",
            fmt_opt_u64(av.map(|s| s.count)),
            fmt_opt_u64(bv.map(|s| s.count)),
            match (av, bv) {
                (Some(av), Some(bv)) => fmt_i64_delta(av.count, bv.count),
                _ => "-".to_string(),
            },
        ));
        let label = format!("spans {name} total ms");
        out.push_str(&format!(
            "{label:<34} {:>14} {:>14} {:>10}\n",
            fmt_opt(av.map(|s| s.total_ns as f64 / 1e6)),
            fmt_opt(bv.map(|s| s.total_ns as f64 / 1e6)),
            "wallclock",
        ));
    }
    out
}

/// The per-step delta table of one family, head/tail-elided to `limit`
/// rows each.
pub fn format_diff_table(diff: &TraceDiff, family: BoundFamily, limit: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!("per-step delta: {}\n", family.label()));
    out.push_str(&format!(
        "{:>6} {:>14} {:>14} {:>12}\n",
        "step", "A", "B", "A-B"
    ));
    let rows = &diff.rows;
    let elide = rows.len() > 2 * limit;
    for (i, row) in rows.iter().enumerate() {
        if elide && i == limit {
            out.push_str(&format!(
                "{:>6} ... {} rows elided ...\n",
                "",
                rows.len() - 2 * limit
            ));
        }
        if elide && (limit..rows.len() - limit).contains(&i) {
            continue;
        }
        let delta = match row.delta() {
            Some(d) if d != 0.0 => format!("{d:+.2e}"),
            Some(_) => "0".to_string(),
            None => "-".to_string(),
        };
        out.push_str(&format!(
            "{:>6} {:>14} {:>14} {delta:>12}\n",
            row.step,
            fmt_opt(row.a),
            fmt_opt(row.b),
        ));
    }
    out
}

/// Chart height in rows (excluding axes).
const CURVE_ROWS: usize = 16;
/// Chart width in columns (excluding the y-axis gutter).
const CURVE_COLS: usize = 72;

/// Renders the family's bound curves of up to two traces as a log-y ASCII
/// chart (`A`/`B` glyphs, `#` where they overlap), matching the paper's
/// log-scale penalty figures.  Returns `None` when no trace tracks the
/// family.
pub fn render_curves(traces: &[(&str, &TraceSummary)], family: BoundFamily) -> Option<String> {
    let series: Vec<(&str, Vec<(u64, f64)>)> = traces
        .iter()
        .map(|(glyph, summary)| (*glyph, summary.series(family)))
        .filter(|(_, s)| !s.is_empty())
        .collect();
    if series.is_empty() {
        return None;
    }
    let max_step = series
        .iter()
        .flat_map(|(_, s)| s.iter().map(|&(step, _)| step))
        .max()?
        .max(1);
    // Log y-axis over the positive samples; zeros draw on a dedicated
    // bottom "exact" row so convergence to 0 stays visible.
    let positives: Vec<f64> = series
        .iter()
        .flat_map(|(_, s)| s.iter().map(|&(_, b)| b))
        .filter(|&b| b > 0.0)
        .collect();
    let (lo, hi) = match (
        positives.iter().cloned().reduce(f64::min),
        positives.iter().cloned().reduce(f64::max),
    ) {
        (Some(lo), Some(hi)) if hi > 0.0 => (
            lo.log10().floor(),
            hi.log10().ceil().max(lo.log10().floor() + 1.0),
        ),
        _ => (0.0, 1.0),
    };
    let mut grid = vec![vec![' '; CURVE_COLS]; CURVE_ROWS + 1]; // +1: exact row
    for (glyph, samples) in &series {
        let glyph = glyph.chars().next().unwrap_or('*');
        for &(step, bound) in samples {
            let col = ((step.saturating_sub(1)) as usize * (CURVE_COLS - 1))
                / (max_step.saturating_sub(1).max(1) as usize);
            let row = if bound > 0.0 {
                let frac = (bound.log10() - lo) / (hi - lo);
                let r = ((1.0 - frac) * (CURVE_ROWS - 1) as f64).round();
                (r.clamp(0.0, (CURVE_ROWS - 1) as f64)) as usize
            } else {
                CURVE_ROWS // the exact row
            };
            let cell = &mut grid[row][col];
            *cell = match *cell {
                ' ' => glyph,
                c if c == glyph => c,
                _ => '#',
            };
        }
    }
    let mut out = String::new();
    out.push_str(&format!("{} vs retrieval step (log y)\n", family.label()));
    for (row, cells) in grid.iter().enumerate() {
        let label = if row == CURVE_ROWS {
            "    exact".to_string()
        } else {
            let frac = 1.0 - row as f64 / (CURVE_ROWS - 1) as f64;
            format!("{:>9}", format!("1e{:+.1}", lo + frac * (hi - lo)))
        };
        let line: String = cells.iter().collect();
        out.push_str(&format!("{label} |{}\n", line.trim_end()));
    }
    out.push_str(&format!(
        "{:>9} +{}\n{:>9}  1{:>width$}\n",
        "",
        "-".repeat(CURVE_COLS),
        "",
        max_step,
        width = CURVE_COLS - 1
    ));
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchbb_obs::jsonl;

    fn events(lines: &[String]) -> Vec<ParsedEvent> {
        lines
            .iter()
            .map(|l| jsonl::parse_line(l).unwrap())
            .collect()
    }

    fn synthetic_trace(bounds: &[f64], engine: &str) -> Vec<String> {
        let mut lines = vec![format!(
            r#"{{"event":"exec.start","engine":"{engine}","queries":1,"coefficients":{}}}"#,
            bounds.len()
        )];
        for (i, b) in bounds.iter().enumerate() {
            lines.push(format!(
                r#"{{"event":"exec.step","engine":"{engine}","kind":"retrieved","step":{},"worst_case_bound":{b},"expected_penalty":{}}}"#,
                i + 1,
                b / 10.0
            ));
        }
        lines.push(format!(
            r#"{{"event":"exec.finish","engine":"{engine}","status":"exact","retrieved":{},"exact":true,"attempts":{}}}"#,
            bounds.len(),
            bounds.len()
        ));
        lines
    }

    #[test]
    fn summary_reduces_steps_and_milestones() {
        let lines = synthetic_trace(&[8.0, 4.0, 2.0, 1.0, 0.5, 0.0], "progressive");
        let s = TraceSummary::from_events(&events(&lines));
        assert_eq!(s.engine.as_deref(), Some("progressive"));
        assert_eq!(s.retrievals(), 6);
        assert_eq!(s.attempts, 6);
        assert_eq!(s.initial_bound(BoundFamily::WorstCase), Some(8.0));
        assert_eq!(s.final_bound(BoundFamily::WorstCase), Some(0.0));
        // 0.5× of 8.0 = 4.0, first reached at step 2.
        assert_eq!(s.steps_to_bound(BoundFamily::WorstCase, 0.5), Some(2));
        assert_eq!(s.steps_to_bound(BoundFamily::WorstCase, 0.1), Some(5));
        assert_eq!(s.steps_to_bound(BoundFamily::WorstCase, 1e-9), Some(6));
        // Expected penalty is bounds/10 — same milestones.
        assert_eq!(s.steps_to_bound(BoundFamily::Expected, 0.5), Some(2));
    }

    #[test]
    fn self_diff_is_zero() {
        let lines = synthetic_trace(&[8.0, 4.0, 1.0, 0.0], "progressive");
        let s = TraceSummary::from_events(&events(&lines));
        for family in BoundFamily::ALL {
            let diff = TraceDiff::compute(&s, &s, family);
            assert!(diff.is_zero(), "{family:?} self-diff must be zero");
            assert_eq!(diff.rows.len(), 4);
        }
    }

    #[test]
    fn diff_reports_max_delta_and_length_mismatch() {
        let a = TraceSummary::from_events(&events(&synthetic_trace(&[8.0, 4.0, 1.0], "a")));
        let b = TraceSummary::from_events(&events(&synthetic_trace(&[8.0, 3.0], "b")));
        let diff = TraceDiff::compute(&a, &b, BoundFamily::WorstCase);
        assert!(!diff.is_zero());
        assert_eq!(diff.rows.len(), 3);
        assert_eq!(diff.max_abs_delta, 1.0);
        assert_eq!(diff.one_sided, 1, "step 3 exists only in A");
        assert_eq!(diff.rows[1].delta(), Some(1.0));
    }

    #[test]
    fn untracked_bounds_diff_as_absent_not_zero() {
        // A round-robin style trace: steps without bound fields.
        let mut lines = vec![r#"{"event":"exec.start","engine":"round_robin"}"#.to_string()];
        for i in 1..=3u64 {
            lines.push(format!(
                r#"{{"event":"exec.step","engine":"round_robin","kind":"retrieved","step":{i}}}"#
            ));
        }
        let rr = TraceSummary::from_events(&events(&lines));
        assert_eq!(rr.retrievals(), 3);
        assert_eq!(rr.initial_bound(BoundFamily::WorstCase), None);
        assert_eq!(rr.steps_to_bound(BoundFamily::WorstCase, 0.5), None);
        let prog = TraceSummary::from_events(&events(&synthetic_trace(&[8.0, 4.0, 1.0], "p")));
        let diff = TraceDiff::compute(&prog, &rr, BoundFamily::WorstCase);
        assert_eq!(diff.one_sided, 3, "every step is one-sided");
        assert_eq!(diff.max_abs_delta, 0.0);
        assert!(!diff.is_zero());
        // The formatted table renders absences as '-'.
        let table = format_diff_table(&diff, BoundFamily::WorstCase, 10);
        assert!(table.contains('-'));
    }

    #[test]
    fn summary_diff_formats_all_milestones() {
        let a = TraceSummary::from_events(&events(&synthetic_trace(&[8.0, 4.0, 0.5, 0.0], "pe")));
        let b = TraceSummary::from_events(&events(&synthetic_trace(&[8.0, 6.0, 4.0, 2.0], "rr")));
        let text = format_summary_diff(&a, &b);
        assert!(text.contains("retrievals"));
        assert!(text.contains("steps to 0.5x Thm1 bound"));
        assert!(text.contains("final Thm2 E[pen]"));
        assert!(text.contains("A (pe)") && text.contains("B (rr)"));
    }

    #[test]
    fn metrics_and_span_aggregates_join_the_summary_diff() {
        let mut lines = synthetic_trace(&[8.0, 4.0], "a");
        lines.push(r#"{"event":"metrics.counter","name":"slo.admitted","value":5}"#.to_string());
        lines.push(
            r#"{"event":"metrics.histogram","name":"exec.latency","count":10,"mean":2.5,"p99":7}"#
                .to_string(),
        );
        lines.push(
            r#"{"event":"span.start","name":"batch","trace":1,"span":1,"ts_ns":100,"batch":0}"#
                .to_string(),
        );
        lines.push(r#"{"event":"span.end","trace":1,"span":1,"ts_ns":400}"#.to_string());
        let a = TraceSummary::from_events(&events(&lines));
        assert_eq!(a.metrics.get("counter slo.admitted"), Some(&5.0));
        assert_eq!(a.metrics.get("hist exec.latency.p99"), Some(&7.0));
        let agg = a.spans.get("batch").unwrap();
        assert_eq!((agg.count, agg.total_ns), (1, 300));

        // B carries neither metrics nor spans: rows are one-sided, not 0.
        let b = TraceSummary::from_events(&events(&synthetic_trace(&[8.0, 4.0], "b")));
        let text = format_summary_diff(&a, &b);
        assert!(text.contains("metric counter slo.admitted"));
        assert!(text.contains("metric hist exec.latency.count"));
        assert!(text.contains("spans batch"));
        assert!(text.contains("wallclock"), "durations never gate the diff");

        // A self-diff of the instrumented trace has zero deltas on every
        // metric and span-count row (durations are reported, not gated).
        let self_text = format_summary_diff(&a, &a);
        let gated = self_text
            .lines()
            .filter(|l| l.starts_with("metric counter") || l.starts_with("metric hist"))
            .chain(
                self_text
                    .lines()
                    .filter(|l| l.starts_with("spans ") && !l.contains("wallclock")),
            );
        for line in gated {
            assert!(line.trim_end().ends_with(" 0"), "nonzero self-diff: {line}");
        }
    }

    #[test]
    fn curves_render_both_traces_with_log_axis() {
        let a = TraceSummary::from_events(&events(&synthetic_trace(
            &[1000.0, 100.0, 10.0, 1.0, 0.1, 0.0],
            "a",
        )));
        let b = TraceSummary::from_events(&events(&synthetic_trace(
            &[1000.0, 500.0, 250.0, 125.0, 60.0, 30.0],
            "b",
        )));
        let chart = render_curves(&[("A", &a), ("B", &b)], BoundFamily::WorstCase).unwrap();
        assert!(chart.contains("worst-case bound"));
        assert!(chart.contains('A') && chart.contains('B'));
        assert!(chart.contains("exact"), "A's zero tail uses the exact row");
        // Identical first samples overlap into '#'.
        assert!(chart.contains('#'));
        // An untracked family renders nothing rather than an empty chart.
        let mut no_bounds = a.clone();
        for s in &mut no_bounds.steps {
            s.worst_case_bound = None;
        }
        assert!(render_curves(&[("A", &no_bounds)], BoundFamily::WorstCase).is_none());
    }
}
