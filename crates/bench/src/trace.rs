//! Trace analysis for `progress_report`: the per-batch reduction of a
//! trace and its invariant check, A/B diffs, and the text renderers.
//!
//! A trace is the `exec.*` JSONL stream of DESIGN.md §8 — the paper's
//! deliverable rendered as data: one `exec.step` per retrieval carrying
//! the Theorem-1 (`worst_case_bound`) and Theorem-2 (`expected_penalty`)
//! penalty families.  This module reduces a trace to a [`TraceSummary`]:
//! the step series in trace order, and the event counts of each `batch`
//! label (a serve trace interleaves its batches; a trace with no label
//! is one batch), which [`TraceSummary::check`] reconciles against that
//! batch's own `exec.finish`.  It computes the per-step [`TraceDiff`]
//! between two traces (engine-vs-engine or layout-vs-layout A/B — the
//! comparison the paper's Figures 5–7 are built from), and renders the
//! step table, the SLO summary, the diff tables and log-scale ASCII bound
//! curves, so the replay tool needs no plotting dependency.
//!
//! Everything here is pure data → data; the `progress_report` binary is a
//! thin shell over it, which keeps the replay semantics unit-testable.

use std::collections::{BTreeMap, BTreeSet};

use batchbb_obs::jsonl::ParsedEvent;
use batchbb_storage::FaultStats;

use crate::spans::SpanSet;

/// One retrieval step of a trace, as far as penalty tracking goes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepSample {
    /// Cumulative retrieval count at this step (the `step` field).
    pub step: u64,
    /// The batch label, for a serve trace.
    batch: Option<u64>,
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

/// One batch's `exec.*` events, counted.
#[derive(Debug, Clone, Copy, Default)]
struct BatchTrace {
    /// `exec.step` events.
    steps: u64,
    /// Of those, the ones with `kind = "recovered"`.
    recovered: u64,
    /// First-deferral events (`exec.defer` with `first = true`).
    deferrals: u64,
    /// `(retrieved, counters)` of the batch's last `exec.finish` — the
    /// counters are cumulative, so the last one wins.  `None` for a
    /// batch finalized mid-flight (deadline expiry, shed), which emits
    /// none.
    finish: Option<(u64, FaultStats)>,
}

/// Everything `progress_report` needs from one trace.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// The engine label of the first event carrying one.
    pub engine: Option<String>,
    /// One sample per `exec.step`, in trace order.
    pub steps: Vec<StepSample>,
    /// The `exec.*` events grouped by their `batch` label (`None` for
    /// unlabelled events).
    batches: BTreeMap<Option<u64>, BatchTrace>,
    /// `store.fault` events.
    pub store_faults: u64,
    /// `metrics.*` dump values keyed by `"<kind> <name>"` (counters and
    /// gauges verbatim; histograms expanded to `count`/`mean`/`p99`).
    /// When a trace holds several dumps the last one wins, matching the
    /// registry's cumulative semantics.
    pub metrics: BTreeMap<String, f64>,
    /// The causal `span.start`/`span.end` forest (empty for untraced
    /// runs).
    pub spans: SpanSet,
}

impl TraceSummary {
    /// Reduces parsed events to a summary.  Errors when the span stream
    /// is torn (see [`SpanSet::from_events`]).
    pub fn from_events(events: &[ParsedEvent]) -> Result<Self, String> {
        let mut summary = TraceSummary {
            spans: SpanSet::from_events(events)?,
            ..TraceSummary::default()
        };
        for event in events {
            let batch = event.u64("batch");
            match event.name() {
                "exec.step" => {
                    let group = summary.batches.entry(batch).or_default();
                    group.steps += 1;
                    group.recovered += u64::from(event.str("kind") == Some("recovered"));
                    summary.steps.push(StepSample {
                        step: event.u64("step").unwrap_or(group.steps),
                        batch,
                        worst_case_bound: event.num("worst_case_bound"),
                        expected_penalty: event.num("expected_penalty"),
                    });
                }
                "exec.defer" => {
                    summary.batches.entry(batch).or_default().deferrals +=
                        u64::from(event.bool("first") == Some(true));
                }
                "exec.finish" => {
                    let c = |key: &str| event.u64(key).unwrap_or(0);
                    let fault = FaultStats {
                        attempts: c("attempts"),
                        successes: c("successes"),
                        transient_failures: c("transient_failures"),
                        permanent_failures: c("permanent_failures"),
                        retries: c("retries"),
                        deferrals: c("deferrals"),
                        recoveries: c("recoveries"),
                        backoff_ticks: c("backoff_ticks"),
                    };
                    summary.batches.entry(batch).or_default().finish =
                        Some((c("retrieved"), fault));
                }
                "store.fault" => summary.store_faults += 1,
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
                _ => {}
            }
            if summary.engine.is_none() {
                if let Some(engine) = event.str("engine") {
                    summary.engine = Some(engine.to_string());
                }
            }
        }
        Ok(summary)
    }

    /// Total retrievals (= `exec.step` events).
    pub fn retrievals(&self) -> u64 {
        self.steps.len() as u64
    }

    /// Recovered steps, over every batch.
    pub fn recovered(&self) -> u64 {
        self.batches.values().map(|b| b.recovered).sum()
    }

    /// First deferrals, over every batch.
    pub fn deferrals(&self) -> u64 {
        self.batches.values().map(|b| b.deferrals).sum()
    }

    /// Attempts, summed over each batch's last `exec.finish`.
    pub fn attempts(&self) -> u64 {
        self.batches
            .values()
            .filter_map(|b| b.finish)
            .map(|(_, fault)| fault.attempts)
            .sum()
    }

    /// Checks the trace invariants batch by batch; returns a one-line
    /// summary, or the first violation:
    ///
    /// * `worst_case_bound` never rises along a batch's progression (the
    ///   degradation contract of Theorems 1/2, extended to deferrals);
    /// * a batch's last `exec.finish` reconciles with its own events:
    ///   `attempts = successes + transient + permanent`, `recoveries ≤
    ///   deferrals`, its first-deferral events are its deferrals, its
    ///   recovered steps its recoveries, and its `retrieved` its step
    ///   events (a batch without `exec.finish` has nothing to reconcile);
    /// * when the trace holds spans, every span closes inside its
    ///   parent, dedup riders resolve, and each batch's phase intervals
    ///   partition its wall time ([`SpanSet::verify`]).
    pub fn check(&self) -> Result<String, String> {
        if self.steps.is_empty() {
            return Err("trace holds no exec.step events".to_string());
        }
        let mut last: BTreeMap<Option<u64>, f64> = BTreeMap::new();
        for (i, sample) in self.steps.iter().enumerate() {
            let Some(bound) = sample.worst_case_bound else {
                continue; // engines without importance tracking omit the field
            };
            if let Some(&prev) = last.get(&sample.batch) {
                if bound > prev * (1.0 + 1e-12) + 1e-12 {
                    return Err(format!(
                        "worst_case_bound rose from {prev} to {bound} at step event {i}"
                    ));
                }
            }
            last.insert(sample.batch, bound);
        }
        if self.batches.values().all(|b| b.finish.is_none()) {
            return Err("trace holds no exec.finish event".to_string());
        }
        for (batch, group) in &self.batches {
            let Some((retrieved, f)) = group.finish else {
                continue;
            };
            let violation = if !f.attempts_reconcile() {
                format!(
                    "attempts {} != successes {} + transient {} + permanent {}",
                    f.attempts, f.successes, f.transient_failures, f.permanent_failures
                )
            } else if f.deferrals < f.recoveries {
                format!(
                    "recoveries {} exceed deferrals {}",
                    f.recoveries, f.deferrals
                )
            } else if group.deferrals != f.deferrals {
                format!(
                    "{} first-deferral events vs {} counted deferrals",
                    group.deferrals, f.deferrals
                )
            } else if group.recovered != f.recoveries {
                format!(
                    "{} recovered steps vs {} counted recoveries",
                    group.recovered, f.recoveries
                )
            } else if retrieved != group.steps {
                format!(
                    "finish reports {retrieved} retrievals but the trace holds {} step events",
                    group.steps
                )
            } else {
                continue;
            };
            let tag = batch.map(|b| format!("batch {b}: ")).unwrap_or_default();
            return Err(format!("{tag}{violation}"));
        }
        let span_note = if self.spans.spans.is_empty() {
            String::new()
        } else {
            format!(
                ", {} spans ({} batch lifecycles partitioned)",
                self.spans.spans.len(),
                self.spans.verify()?.len()
            )
        };
        // The headline bound: the worst final bound across batches.
        let final_bound = last.values().copied().reduce(f64::max);
        Ok(format!(
            "OK: {} steps ({} recovered), {} deferrals, {} store faults, {} attempts, final worst-case bound {}{span_note}",
            self.retrievals(),
            self.recovered(),
            self.deferrals(),
            self.store_faults,
            self.attempts(),
            fmt_opt(final_bound),
        ))
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
    counter("recovered", a.recovered(), b.recovered());
    counter("deferrals", a.deferrals(), b.deferrals());
    counter("store faults", a.store_faults, b.store_faults);
    counter("attempts", a.attempts(), b.attempts());
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
    let keys: BTreeSet<&String> = a.metrics.keys().chain(b.metrics.keys()).collect();
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
    // Per span name, `(count, total ns)`. Counts diff exactly across
    // runs of the same workload; durations are wall-clock and noisy, so
    // they are reported without gating on them.
    let aggregate = |s: &TraceSummary| {
        let mut out: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for span in &s.spans.spans {
            let (count, total_ns) = out.entry(span.name.clone()).or_default();
            *count += 1;
            *total_ns += span.duration_ns();
        }
        out
    };
    let (a_spans, b_spans) = (aggregate(a), aggregate(b));
    let span_names: BTreeSet<&String> = a_spans.keys().chain(b_spans.keys()).collect();
    for name in span_names {
        let (av, bv) = (a_spans.get(name), b_spans.get(name));
        let label = format!("spans {name}");
        out.push_str(&format!(
            "{label:<34} {:>14} {:>14} {:>10}\n",
            fmt_opt_u64(av.map(|s| s.0)),
            fmt_opt_u64(bv.map(|s| s.0)),
            match (av, bv) {
                (Some(av), Some(bv)) => fmt_i64_delta(av.0, bv.0),
                _ => "-".to_string(),
            },
        ));
        let label = format!("spans {name} total ms");
        out.push_str(&format!(
            "{label:<34} {:>14} {:>14} {:>10}\n",
            fmt_opt(av.map(|s| s.1 as f64 / 1e6)),
            fmt_opt(bv.map(|s| s.1 as f64 / 1e6)),
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
    push_elided(&mut out, &diff.rows, limit, |row| {
        let delta = match row.delta() {
            Some(d) if d != 0.0 => format!("{d:+.2e}"),
            Some(_) => "0".to_string(),
            None => "-".to_string(),
        };
        format!(
            "{:>6} {:>14} {:>14} {delta:>12}",
            row.step,
            fmt_opt(row.a),
            fmt_opt(row.b),
        )
    });
    out
}

/// Appends one line per row, keeping the first and last `limit` rows and
/// one elision line between them.
fn push_elided<T>(out: &mut String, rows: &[T], limit: usize, line: impl Fn(&T) -> String) {
    let elide = rows.len() > 2 * limit;
    for (i, row) in rows.iter().enumerate() {
        if elide && i == limit {
            out.push_str(&format!(
                "{:>6} ... {} rows elided ...\n",
                "",
                rows.len() - 2 * limit
            ));
        }
        if !(elide && (limit..rows.len() - limit).contains(&i)) {
            out.push_str(&line(row));
            out.push('\n');
        }
    }
}

/// The per-step table of a trace: one row per `exec.step` and
/// `exec.defer`, head/tail-elided to `limit` rows each.
pub fn format_step_table(events: &[ParsedEvent], limit: usize) -> String {
    let rows: Vec<&ParsedEvent> = events
        .iter()
        .filter(|e| matches!(e.name(), "exec.step" | "exec.defer"))
        .collect();
    let mut out = format!(
        "{:>6}  {:<10} {:<18} {:>11} {:>8} {:>8} {:>12} {:>12} {:>9} {:>8}\n",
        "step",
        "kind",
        "key",
        "importance",
        "pending",
        "deferred",
        "E[penalty]",
        "worst-case",
        "attempts",
        "retries"
    );
    push_elided(&mut out, &rows, limit, |e| {
        let kind = match e.name() {
            "exec.defer" if e.bool("first") == Some(false) => "re-defer",
            "exec.defer" => "defer",
            _ => e.str("kind").unwrap_or("?"),
        };
        format!(
            "{:>6}  {:<10} {:<18} {:>11} {:>8} {:>8} {:>12} {:>12} {:>9} {:>8}",
            e.u64("step").map(|s| s.to_string()).unwrap_or_default(),
            kind,
            e.str("key").unwrap_or("?"),
            fmt_opt(e.num("importance")),
            e.u64("pending").unwrap_or(0),
            e.u64("deferred").unwrap_or(0),
            fmt_opt(e.num("expected_penalty")),
            fmt_opt(e.num("worst_case_bound")),
            e.u64("attempts").unwrap_or(0),
            e.u64("retries").unwrap_or(0),
        )
    });
    out
}

/// The `slo.*` events per priority class: admissions, rejections,
/// outcomes, and the certified-bound range of finalized batches.  Empty
/// for a trace without an SLO layer.
pub fn format_slo_summary(events: &[ParsedEvent]) -> String {
    let slo: Vec<&ParsedEvent> = events
        .iter()
        .filter(|e| e.name().starts_with("slo."))
        .collect();
    if slo.is_empty() {
        return String::new();
    }
    // Priority classes actually present, in ascending order.
    let priorities: BTreeSet<u64> = slo.iter().filter_map(|e| e.u64("priority")).collect();
    let mut out = format!(
        "# slo summary (per priority class)\n{:>8} {:>9} {:>9} {:>6} {:>9} {:>9} {:>5} {:>13} {:>13}\n",
        "priority",
        "admitted",
        "rejected",
        "met",
        "degraded",
        "deadline",
        "shed",
        "bound min",
        "bound max"
    );
    for p in priorities {
        let class = || slo.iter().filter(move |e| e.u64("priority") == Some(p));
        let of = |name: &str| class().filter(|e| e.name() == name).count();
        let outcomes = || class().filter(|e| e.name() == "slo.outcome");
        let count =
            |field: &str, label: &str| outcomes().filter(|e| e.str(field) == Some(label)).count();
        let bounds: Vec<f64> = outcomes().filter_map(|e| e.num("bound")).collect();
        out.push_str(&format!(
            "{:>8} {:>9} {:>9} {:>6} {:>9} {:>9} {:>5} {:>13} {:>13}\n",
            p,
            of("slo.admitted"),
            of("slo.rejected"),
            count("outcome", "met"),
            count("outcome", "degraded_at_bound"),
            count("cause", "deadline_expired"),
            count("cause", "shed"),
            fmt_opt(bounds.iter().copied().reduce(f64::min)),
            fmt_opt(bounds.iter().copied().reduce(f64::max)),
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

    fn summarize(lines: &[String]) -> TraceSummary {
        TraceSummary::from_events(&events(lines)).unwrap()
    }

    fn synthetic_trace(bounds: &[f64], engine: &str) -> Vec<String> {
        let mut lines = vec![format!(
            r#"{{"event":"exec.start","engine":"{engine}","queries":1}}"#
        )];
        for (i, b) in bounds.iter().enumerate() {
            lines.push(format!(
                r#"{{"event":"exec.step","engine":"{engine}","kind":"retrieved","step":{},"worst_case_bound":{b},"expected_penalty":{}}}"#,
                i + 1,
                b / 10.0
            ));
        }
        lines.push(format!(
            r#"{{"event":"exec.finish","engine":"{engine}","status":"exact","retrieved":{},"attempts":{}}}"#,
            bounds.len(),
            bounds.len()
        ));
        lines
    }

    #[test]
    fn summary_reduces_steps_and_milestones() {
        let lines = synthetic_trace(&[8.0, 4.0, 2.0, 1.0, 0.5, 0.0], "progressive");
        let s = summarize(&lines);
        assert_eq!(s.engine.as_deref(), Some("progressive"));
        assert_eq!(s.retrievals(), 6);
        assert_eq!(s.attempts(), 6);
        assert_eq!(s.initial_bound(BoundFamily::WorstCase), Some(8.0));
        assert_eq!(s.final_bound(BoundFamily::WorstCase), Some(0.0));
        // 0.5× of 8.0 = 4.0, first reached at step 2.
        assert_eq!(s.steps_to_bound(BoundFamily::WorstCase, 0.5), Some(2));
        assert_eq!(s.steps_to_bound(BoundFamily::WorstCase, 0.1), Some(5));
        assert_eq!(s.steps_to_bound(BoundFamily::WorstCase, 1e-9), Some(6));
        // Expected penalty is bounds/10 — same milestones.
        assert_eq!(s.steps_to_bound(BoundFamily::Expected, 0.5), Some(2));
    }

    /// Two batches interleaved in one trace, each reconciled against its
    /// own `exec.finish`: batch 1's bound starts above batch 0's last one
    /// without that being a rise, and the totals sum the batches.
    #[test]
    fn check_reconciles_each_batch_against_its_own_finish() {
        let step = |batch: u64, step: u64, bound: f64| {
            format!(
                r#"{{"event":"exec.step","kind":"retrieved","step":{step},"worst_case_bound":{bound},"batch":{batch}}}"#
            )
        };
        let finish = |batch: u64, retrieved: u64, attempts: u64| {
            format!(
                r#"{{"event":"exec.finish","retrieved":{retrieved},"attempts":{attempts},"successes":{retrieved},"transient_failures":{},"batch":{batch}}}"#,
                attempts - retrieved
            )
        };
        let mut lines = vec![
            step(0, 1, 4.0),
            step(1, 1, 9.0),
            step(0, 2, 1.0),
            step(1, 2, 3.0),
            step(1, 3, 0.0),
            finish(0, 2, 3),
            finish(1, 3, 5),
        ];
        let s = summarize(&lines);
        assert_eq!(s.batches.len(), 2);
        assert_eq!(s.batches[&Some(1)].steps, 3);
        assert_eq!(s.attempts(), 8, "3 + 5, not the last finish alone");
        let ok = s.check().unwrap();
        assert!(ok.contains("5 steps") && ok.contains("8 attempts"), "{ok}");

        lines[6] = finish(1, 2, 5);
        let err = summarize(&lines).check().unwrap_err();
        assert!(err.starts_with("batch 1: finish reports 2"), "{err}");
        lines[6] = finish(1, 3, 5);
        lines[4] = step(1, 3, 3.5);
        let err = summarize(&lines).check().unwrap_err();
        assert!(err.contains("rose from 3 to 3.5"), "{err}");

        // A torn span stream fails the reduction itself.
        lines.push(r#"{"event":"span.start","name":"batch","span":1,"ts_ns":5}"#.to_string());
        assert!(TraceSummary::from_events(&events(&lines)).is_err());
    }

    #[test]
    fn self_diff_is_zero() {
        let lines = synthetic_trace(&[8.0, 4.0, 1.0, 0.0], "progressive");
        let s = summarize(&lines);
        for family in BoundFamily::ALL {
            let diff = TraceDiff::compute(&s, &s, family);
            assert!(diff.is_zero(), "{family:?} self-diff must be zero");
            assert_eq!(diff.rows.len(), 4);
        }
    }

    #[test]
    fn diff_reports_max_delta_and_length_mismatch() {
        let a = summarize(&synthetic_trace(&[8.0, 4.0, 1.0], "a"));
        let b = summarize(&synthetic_trace(&[8.0, 3.0], "b"));
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
        let rr = summarize(&lines);
        assert_eq!(rr.retrievals(), 3);
        assert_eq!(rr.initial_bound(BoundFamily::WorstCase), None);
        assert_eq!(rr.steps_to_bound(BoundFamily::WorstCase, 0.5), None);
        let prog = summarize(&synthetic_trace(&[8.0, 4.0, 1.0], "p"));
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
        let a = summarize(&synthetic_trace(&[8.0, 4.0, 0.5, 0.0], "pe"));
        let b = summarize(&synthetic_trace(&[8.0, 6.0, 4.0, 2.0], "rr"));
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
        let a = summarize(&lines);
        assert_eq!(a.metrics.get("counter slo.admitted"), Some(&5.0));
        assert_eq!(a.metrics.get("hist exec.latency.p99"), Some(&7.0));
        let span = a.spans.named("batch").next().unwrap();
        assert_eq!(span.duration_ns(), 300);

        // B carries neither metrics nor spans: rows are one-sided, not 0.
        let b = summarize(&synthetic_trace(&[8.0, 4.0], "b"));
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
        let a = summarize(&synthetic_trace(&[1000.0, 100.0, 10.0, 1.0, 0.1, 0.0], "a"));
        let b = summarize(&synthetic_trace(
            &[1000.0, 500.0, 250.0, 125.0, 60.0, 30.0],
            "b",
        ));
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
