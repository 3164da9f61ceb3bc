//! Span-model analysis for causal batch-lifecycle traces: reconstruction
//! of the `span.start`/`span.end` forest, the structural checks behind
//! `progress_report attribute`, and the per-phase attribution reports.
//!
//! A traced serve run (see `batchbb_obs::trace`) emits one root `batch`
//! span per admitted batch, child `phase` spans that must **partition**
//! the root's wall time exactly (u64 boundary equality, no slack), plus
//! root-level store spans (`store.read`, `store.rider`) linked causally
//! through the `physical` field rather than through parentage — a
//! physical read outlives the batches riding it.  This module rebuilds that forest from parsed JSONL, verifies the
//! structural invariants (every span closes, children nest inside their
//! parents, riders reference a real physical read, phase intervals
//! telescope), and reduces it to the three attribution views the replay
//! tool prints: the per-batch phase waterfall, time-in-phase per priority
//! class, and the SLO-miss table naming each miss's dominant phase.
//!
//! Everything here is pure data → data; the `progress_report` binary is a
//! thin shell over [`format_attribution`].

use std::collections::{BTreeMap, BTreeSet};

use batchbb_obs::jsonl::ParsedEvent;
use batchbb_obs::Phase;

/// One closed span reconstructed from a `span.start`/`span.end` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The span's name (`batch`, `phase`, `store.read`, ...).
    pub name: String,
    /// The span id, unique within the trace.
    pub id: u64,
    /// The enclosing span id, or `None` for a root span.
    pub parent: Option<u64>,
    /// Start timestamp (tracer nanoseconds).
    pub start: u64,
    /// End timestamp (tracer nanoseconds, `>= start`).
    pub end: u64,
    /// The batch index, for `batch`/`phase` spans.
    pub batch: Option<u64>,
    /// The lifecycle phase, for `phase` spans.
    pub phase: Option<Phase>,
    /// The physical `store.read` span id, for `store.rider` spans.
    pub physical: Option<u64>,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end - self.start
    }
}

/// The reconstructed span forest of one trace, in start order.
#[derive(Debug, Clone, Default)]
pub struct SpanSet {
    /// Every closed span, sorted by `(start, id)`.
    pub spans: Vec<Span>,
}

impl SpanSet {
    /// Rebuilds the span forest from parsed events.  Errors on schema
    /// violations: a start without the required fields, a duplicate span
    /// id, an end without a start, an end before its start, or a span
    /// that never ends (flush is part of finalize, so a complete trace
    /// closes everything).
    pub fn from_events(events: &[ParsedEvent]) -> Result<SpanSet, String> {
        let mut open: BTreeMap<u64, Span> = BTreeMap::new();
        let mut seen: BTreeSet<u64> = BTreeSet::new();
        let mut spans = Vec::new();
        for event in events {
            match event.name() {
                "span.start" => {
                    let id = event.u64("span").ok_or("span.start without a span id")?;
                    let name = event
                        .str("name")
                        .ok_or(format!("span.start {id} without a name"))?;
                    let start = event
                        .u64("ts_ns")
                        .ok_or(format!("span.start {id} without ts_ns"))?;
                    if !seen.insert(id) {
                        return Err(format!("span id {id} started twice"));
                    }
                    let phase = match event.str("phase") {
                        Some(label) => Some(
                            Phase::from_label(label)
                                .ok_or(format!("span {id} names unknown phase `{label}`"))?,
                        ),
                        None => None,
                    };
                    open.insert(
                        id,
                        Span {
                            name: name.to_string(),
                            id,
                            parent: event.u64("parent"),
                            start,
                            end: start,
                            batch: event.u64("batch"),
                            phase,
                            physical: event.u64("physical"),
                        },
                    );
                }
                "span.end" => {
                    let id = event.u64("span").ok_or("span.end without a span id")?;
                    let end = event
                        .u64("ts_ns")
                        .ok_or(format!("span.end {id} without ts_ns"))?;
                    let mut span = open
                        .remove(&id)
                        .ok_or(format!("span.end {id} without a matching span.start"))?;
                    if end < span.start {
                        return Err(format!(
                            "span {id} ({}) ends at {end} before its start {}",
                            span.name, span.start
                        ));
                    }
                    span.end = end;
                    spans.push(span);
                }
                _ => {}
            }
        }
        if let Some((id, span)) = open.iter().next() {
            return Err(format!("span {id} ({}) never ended", span.name));
        }
        spans.sort_by_key(|s| (s.start, s.id));
        Ok(SpanSet { spans })
    }

    /// The span with the given id, if any.
    pub fn get(&self, id: u64) -> Option<&Span> {
        self.spans.iter().find(|s| s.id == id)
    }

    /// All spans with the given name, in start order.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Verifies the structural span invariants:
    ///
    /// 1. every `parent` reference resolves, and the child's interval
    ///    lies inside the parent's (spans nest);
    /// 2. every `store.rider` span names the physical `store.read` span
    ///    it joined (dedup attribution is never dangling);
    /// 3. every batch's phase intervals partition its root span exactly
    ///    (the accounting identity — delegated to [`SpanSet::lifecycles`],
    ///    whose lifecycles it returns).
    pub fn verify(&self) -> Result<Vec<BatchLifecycle>, String> {
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let p = self.get(parent).ok_or(format!(
                    "span {} ({}) references missing parent {parent}",
                    span.id, span.name
                ))?;
                if span.start < p.start || span.end > p.end {
                    return Err(format!(
                        "span {} ({}) [{}, {}] escapes parent {} ({}) [{}, {}]",
                        span.id, span.name, span.start, span.end, p.id, p.name, p.start, p.end
                    ));
                }
            }
            if span.name == "store.rider" {
                let physical = span.physical.ok_or(format!(
                    "store.rider span {} without a physical id",
                    span.id
                ))?;
                let read = self.get(physical).ok_or(format!(
                    "store.rider span {} references missing physical span {physical}",
                    span.id
                ))?;
                if read.name != "store.read" {
                    return Err(format!(
                        "store.rider span {} references a `{}` span, not a store.read",
                        span.id, read.name
                    ));
                }
            }
        }
        self.lifecycles()
    }

    /// Extracts one [`BatchLifecycle`] per root `batch` span, verifying
    /// the partition identity on the way: the batch's `phase` children,
    /// sorted by start, must begin at the root's start, share every
    /// interior boundary timestamp exactly, and end at the root's end.
    pub fn lifecycles(&self) -> Result<Vec<BatchLifecycle>, String> {
        let mut out = Vec::new();
        for root in self.named("batch") {
            let batch = root
                .batch
                .ok_or(format!("batch span {} without a batch index", root.id))?;
            let mut intervals: Vec<(Phase, u64, u64)> = self
                .spans
                .iter()
                .filter(|s| s.name == "phase" && s.parent == Some(root.id))
                .map(|s| {
                    let phase = s
                        .phase
                        .ok_or(format!("phase span {} without a phase label", s.id))?;
                    Ok((phase, s.start, s.end))
                })
                .collect::<Result<_, String>>()?;
            intervals.sort_by_key(|&(_, start, _)| start);
            let mut cursor = root.start;
            for &(phase, start, end) in &intervals {
                if start != cursor {
                    return Err(format!(
                        "batch {batch}: {} interval starts at {start}, expected {cursor} — \
                         phases do not partition the batch's wall time",
                        phase.label()
                    ));
                }
                if end <= start {
                    return Err(format!(
                        "batch {batch}: empty {} interval survived the flush",
                        phase.label()
                    ));
                }
                cursor = end;
            }
            if cursor != root.end {
                return Err(format!(
                    "batch {batch}: phases end at {cursor} but the batch span ends at {} — \
                     {} ns unattributed",
                    root.end,
                    root.end - cursor
                ));
            }
            out.push(BatchLifecycle {
                batch,
                root: root.id,
                start: root.start,
                end: root.end,
                intervals,
            });
        }
        out.sort_by_key(|l| l.batch);
        Ok(out)
    }
}

/// One batch's verified phase timeline: its root span extent plus the
/// phase intervals that partition it.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchLifecycle {
    /// The batch index.
    pub batch: u64,
    /// The root span id.
    pub root: u64,
    /// Root span start (tracer nanoseconds).
    pub start: u64,
    /// Root span end.
    pub end: u64,
    /// `(phase, start, end)` intervals in time order, telescoping from
    /// `start` to `end`.
    pub intervals: Vec<(Phase, u64, u64)>,
}

impl BatchLifecycle {
    /// Admitted-to-finalized wall time in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.end - self.start
    }

    /// Total nanoseconds per phase.  By the partition identity the values
    /// sum to [`BatchLifecycle::total_ns`].
    pub fn phase_totals(&self) -> BTreeMap<Phase, u64> {
        let mut totals = BTreeMap::new();
        for &(phase, start, end) in &self.intervals {
            *totals.entry(phase).or_insert(0) += end - start;
        }
        totals
    }

    /// The phase the batch spent the most time in (ties break toward the
    /// earlier phase in canonical order), with its total.  `None` only
    /// for a zero-length lifecycle.
    pub fn dominant_phase(&self) -> Option<(Phase, u64)> {
        let totals = self.phase_totals();
        heaviest(Phase::ALL.map(|p| totals.get(&p).copied().unwrap_or(0)))
    }
}

/// The phase with the largest of `totals` (indexed in [`Phase::ALL`]
/// order), ties going to the earlier phase; `None` when every total is 0.
fn heaviest(totals: [u64; Phase::ALL.len()]) -> Option<(Phase, u64)> {
    // `max_by_key` keeps the *last* maximum, so walk the phases backwards.
    Phase::ALL
        .into_iter()
        .zip(totals)
        .rev()
        .filter(|&(_, ns)| ns > 0)
        .max_by_key(|&(_, ns)| ns)
}

/// Time-in-phase totals for one priority class.
#[derive(Debug, Clone, PartialEq)]
pub struct PriorityBreakdown {
    /// The priority class.
    pub priority: u64,
    /// Traced batches in the class.
    pub batches: u64,
    /// Summed nanoseconds per phase across the class.
    pub totals: BTreeMap<Phase, u64>,
}

/// Joins lifecycles against `slo.admitted` events to aggregate
/// time-in-phase per priority class.  Batches with no admission event
/// (serve runs without an SLO layer) fall into priority 0.
pub fn priority_breakdown(
    events: &[ParsedEvent],
    lifecycles: &[BatchLifecycle],
) -> Vec<PriorityBreakdown> {
    let priorities = batch_priorities(events);
    let mut classes: BTreeMap<u64, PriorityBreakdown> = BTreeMap::new();
    for lifecycle in lifecycles {
        let priority = priorities.get(&lifecycle.batch).copied().unwrap_or(0);
        let class = classes.entry(priority).or_insert(PriorityBreakdown {
            priority,
            batches: 0,
            totals: BTreeMap::new(),
        });
        class.batches += 1;
        for (phase, ns) in lifecycle.phase_totals() {
            *class.totals.entry(phase).or_insert(0) += ns;
        }
    }
    classes.into_values().collect()
}

/// One SLO miss with its dominant-phase attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct SloMiss {
    /// The batch index.
    pub batch: u64,
    /// The batch's priority class.
    pub priority: u64,
    /// The terminal cause (`deadline_expired` or `shed`).
    pub cause: String,
    /// The phase the batch spent the most wall time in.
    pub dominant: Phase,
    /// Nanoseconds spent in the dominant phase.
    pub dominant_ns: u64,
    /// The batch's total traced wall time.
    pub total_ns: u64,
}

/// Attributes every `slo.outcome` with cause `deadline_expired` or `shed`
/// to the dominant phase of that batch's lifecycle.  A missed batch whose
/// lifecycle is absent from the trace is an error — a traced run flushes
/// every admitted batch, so a gap means the trace is torn.
pub fn slo_misses(
    events: &[ParsedEvent],
    lifecycles: &[BatchLifecycle],
) -> Result<Vec<SloMiss>, String> {
    let by_batch: BTreeMap<u64, &BatchLifecycle> =
        lifecycles.iter().map(|l| (l.batch, l)).collect();
    let mut out = Vec::new();
    for event in events {
        if event.name() != "slo.outcome" {
            continue;
        }
        let cause = event.str("cause").unwrap_or("");
        if cause != "deadline_expired" && cause != "shed" {
            continue;
        }
        let batch = event.u64("batch").ok_or("slo.outcome without a batch")?;
        let lifecycle = by_batch.get(&batch).ok_or(format!(
            "batch {batch} missed its SLO ({cause}) but has no lifecycle spans in the trace"
        ))?;
        let (dominant, dominant_ns) = lifecycle
            .dominant_phase()
            .ok_or(format!("batch {batch} has a zero-length lifecycle"))?;
        out.push(SloMiss {
            batch,
            priority: event.u64("priority").unwrap_or(0),
            cause: cause.to_string(),
            dominant,
            dominant_ns,
            total_ns: lifecycle.total_ns(),
        });
    }
    out.sort_by_key(|m| m.batch);
    Ok(out)
}

fn batch_priorities(events: &[ParsedEvent]) -> BTreeMap<u64, u64> {
    events
        .iter()
        .filter(|e| e.name() == "slo.admitted")
        .filter_map(|e| Some((e.u64("batch")?, e.u64("priority").unwrap_or(0))))
        .collect()
}

/// Waterfall width in columns (excluding the row label gutter).
const WATERFALL_COLS: usize = 64;

fn fmt_ms(ns: u64) -> String {
    format!("{:.3}ms", ns as f64 / 1e6)
}

/// Renders the per-batch phase waterfall: one row per batch over a shared
/// time axis, each column showing the [`Phase::letter`] of the phase that
/// dominates that time bin (`.` outside the batch's lifetime).
pub fn render_waterfall(lifecycles: &[BatchLifecycle]) -> String {
    let mut out = String::new();
    let Some(t0) = lifecycles.iter().map(|l| l.start).min() else {
        return out;
    };
    let t1 = lifecycles.iter().map(|l| l.end).max().unwrap_or(t0);
    let window = (t1 - t0).max(1);
    out.push_str(&format!(
        "# phase waterfall ({} batches over {})\n",
        lifecycles.len(),
        fmt_ms(t1 - t0)
    ));
    let legend: Vec<String> = Phase::ALL
        .iter()
        .map(|p| format!("{}={}", p.letter(), p.label()))
        .collect();
    out.push_str(&format!("#   {}\n", legend.join(" ")));
    for lifecycle in lifecycles {
        let mut row = vec!['.'; WATERFALL_COLS];
        // Each column is one time bin; the glyph is the phase with the
        // largest summed overlap in the bin, so brief phases cannot erase
        // long ones at coarse resolution.
        for (i, cell) in row.iter_mut().enumerate() {
            let bin_start = t0 + (window * i as u64) / WATERFALL_COLS as u64;
            let bin_end = t0 + (window * (i as u64 + 1)) / WATERFALL_COLS as u64;
            let mut overlap = [0; Phase::ALL.len()];
            for &(phase, start, end) in &lifecycle.intervals {
                // `Phase::ALL` lists the phases in declaration order.
                overlap[phase as usize] += end.min(bin_end).saturating_sub(start.max(bin_start));
            }
            if let Some((phase, _)) = heaviest(overlap) {
                *cell = phase.letter();
            }
        }
        let line: String = row.into_iter().collect();
        let dominant = lifecycle
            .dominant_phase()
            .map(|(p, _)| p.label())
            .unwrap_or("-");
        out.push_str(&format!(
            "batch {:>4} |{line}| {:>10}  dominant: {dominant}\n",
            lifecycle.batch,
            fmt_ms(lifecycle.total_ns()),
        ));
    }
    out
}

/// Formats the per-priority time-in-phase table (nanoseconds summed per
/// class, one column per phase, plus each class's share of its own total).
pub fn format_priority_table(classes: &[PriorityBreakdown]) -> String {
    let mut out = String::new();
    out.push_str("# time in phase per priority class\n");
    out.push_str(&format!("{:>8} {:>7}", "priority", "batches"));
    for phase in Phase::ALL {
        out.push_str(&format!(" {:>11}", phase.label()));
    }
    out.push('\n');
    for class in classes {
        let total: u64 = class.totals.values().sum();
        out.push_str(&format!("{:>8} {:>7}", class.priority, class.batches));
        for phase in Phase::ALL {
            let ns = class.totals.get(&phase).copied().unwrap_or(0);
            let share = if total > 0 {
                format!("{:.0}%", ns as f64 * 100.0 / total as f64)
            } else {
                "-".to_string()
            };
            out.push_str(&format!(" {:>11}", format!("{} {share}", fmt_ms(ns))));
        }
        out.push('\n');
    }
    out
}

/// Formats the SLO-miss attribution table, or a one-line all-clear.
pub fn format_miss_table(misses: &[SloMiss]) -> String {
    let mut out = String::new();
    out.push_str("# slo-miss attribution\n");
    if misses.is_empty() {
        out.push_str("no deadline or shed misses in this trace\n");
        return out;
    }
    out.push_str(&format!(
        "{:>6} {:>8} {:>16} {:>10} {:>12} {:>6}\n",
        "batch", "priority", "cause", "dominant", "time", "share"
    ));
    for miss in misses {
        out.push_str(&format!(
            "{:>6} {:>8} {:>16} {:>10} {:>12} {:>6}\n",
            miss.batch,
            miss.priority,
            miss.cause,
            miss.dominant.label(),
            fmt_ms(miss.dominant_ns),
            format!(
                "{:.0}%",
                miss.dominant_ns as f64 * 100.0 / miss.total_ns.max(1) as f64
            ),
        ));
    }
    out
}

/// The whole `attribute` report: verifies the span invariants, then
/// renders the waterfall, the per-priority breakdown, and the miss table.
/// Errors (exit-nonzero in the binary) on any structural violation or on
/// a trace with no spans at all — the mode is a gate, not a best-effort
/// printer.
pub fn format_attribution(events: &[ParsedEvent]) -> Result<String, String> {
    let set = SpanSet::from_events(events)?;
    if set.spans.is_empty() {
        return Err("trace holds no span.* events — was the run traced?".to_string());
    }
    let lifecycles = set.verify()?;
    if lifecycles.is_empty() {
        return Err("trace holds spans but no batch lifecycles".to_string());
    }
    let misses = slo_misses(events, &lifecycles)?;
    let mut out = String::new();
    out.push_str(&render_waterfall(&lifecycles));
    out.push('\n');
    out.push_str(&format_priority_table(&priority_breakdown(
        events,
        &lifecycles,
    )));
    out.push('\n');
    out.push_str(&format_miss_table(&misses));
    out.push('\n');
    let riders = set.named("store.rider").count();
    let reads = set.named("store.read").count();
    let phases = set.named("phase").count();
    out.push_str(&format!(
        "span integrity OK: {} spans, {} batches partition their wall time exactly \
         ({:.1} phase spans per batch), {riders} dedup riders over {reads} physical reads\n",
        set.spans.len(),
        lifecycles.len(),
        phases as f64 / lifecycles.len() as f64,
    ));
    Ok(out)
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

    fn span_start(name: &str, id: u64, ts: u64, extra: &str) -> String {
        format!(
            r#"{{"event":"span.start","name":"{name}","trace":1,"span":{id},"ts_ns":{ts}{extra}}}"#
        )
    }

    fn span_end(id: u64, ts: u64) -> String {
        format!(r#"{{"event":"span.end","trace":1,"span":{id},"ts_ns":{ts}}}"#)
    }

    /// One traced batch: root span 1 over [10, 100], phases queued
    /// [10, 40), executing [40, 90), finalize [90, 100).
    fn lifecycle_lines(batch: u64, root: u64, t0: u64) -> Vec<String> {
        let b = format!(r#","batch":{batch}"#);
        let p = format!(r#","parent":{root}"#);
        vec![
            span_start("batch", root, t0, &format!("{b},\"phases\":3")),
            span_start(
                "phase",
                root + 1,
                t0,
                &format!("{b}{p},\"phase\":\"queued\""),
            ),
            span_end(root + 1, t0 + 30),
            span_start(
                "phase",
                root + 2,
                t0 + 30,
                &format!("{b}{p},\"phase\":\"executing\""),
            ),
            span_end(root + 2, t0 + 80),
            span_start(
                "phase",
                root + 3,
                t0 + 80,
                &format!("{b}{p},\"phase\":\"finalize\""),
            ),
            span_end(root + 3, t0 + 90),
            span_end(root, t0 + 90),
        ]
    }

    #[test]
    fn reconstructs_and_verifies_a_partitioned_lifecycle() {
        let lines = lifecycle_lines(0, 1, 10);
        let set = SpanSet::from_events(&events(&lines)).unwrap();
        assert_eq!(set.spans.len(), 4);
        set.verify().unwrap();
        let lifecycles = set.lifecycles().unwrap();
        assert_eq!(lifecycles.len(), 1);
        let l = &lifecycles[0];
        assert_eq!(l.total_ns(), 90);
        assert_eq!(
            l.dominant_phase(),
            Some((Phase::Executing, 50)),
            "executing holds 50 of 90 ns"
        );
        let totals = l.phase_totals();
        assert_eq!(totals.values().sum::<u64>(), l.total_ns());
    }

    #[test]
    fn partition_gaps_and_overruns_are_violations() {
        // A gap: the executing phase starts 5ns after queued ends.
        let mut lines = lifecycle_lines(0, 1, 10);
        lines[3] = span_start(
            "phase",
            3,
            45,
            r#","batch":0,"parent":1,"phase":"executing""#,
        );
        let set = SpanSet::from_events(&events(&lines)).unwrap();
        let err = set.lifecycles().unwrap_err();
        assert!(err.contains("do not partition"), "got: {err}");

        // An overrun: the last phase ends before the root does.
        let mut lines = lifecycle_lines(0, 1, 10);
        lines[6] = span_end(4, 95);
        let err = SpanSet::from_events(&events(&lines))
            .unwrap()
            .lifecycles()
            .unwrap_err();
        assert!(err.contains("unattributed"), "got: {err}");
    }

    #[test]
    fn unclosed_and_escaping_spans_are_violations() {
        let mut lines = lifecycle_lines(0, 1, 10);
        lines.pop(); // root never ends
        let err = SpanSet::from_events(&events(&lines)).unwrap_err();
        assert!(err.contains("never ended"), "got: {err}");

        // A child escaping its parent's interval fails nesting.
        let lines = vec![
            span_start("batch", 1, 10, r#","batch":0"#),
            span_start("phase", 2, 5, r#","batch":0,"parent":1,"phase":"queued""#),
            span_end(2, 20),
            span_end(1, 20),
        ];
        let err = SpanSet::from_events(&events(&lines))
            .unwrap()
            .verify()
            .unwrap_err();
        assert!(err.contains("escapes parent"), "got: {err}");
    }

    #[test]
    fn rider_spans_must_reference_a_physical_read() {
        let read = vec![
            span_start("store.read", 7, 10, r#","keys":2,"tag":1"#),
            span_end(7, 50),
        ];
        let rider = |physical: u64| {
            vec![
                span_start(
                    "store.rider",
                    8,
                    20,
                    &format!(r#","physical":{physical},"keys":1"#),
                ),
                span_end(8, 20),
            ]
        };
        let mut ok = read.clone();
        ok.extend(rider(7));
        SpanSet::from_events(&events(&ok))
            .unwrap()
            .verify()
            .unwrap();

        let mut dangling = read;
        dangling.extend(rider(99));
        let err = SpanSet::from_events(&events(&dangling))
            .unwrap()
            .verify()
            .unwrap_err();
        assert!(err.contains("missing physical"), "got: {err}");
    }

    #[test]
    fn attribution_joins_slo_events() {
        let mut lines = lifecycle_lines(0, 1, 10);
        lines.extend(lifecycle_lines(1, 10, 40));
        lines.push(r#"{"event":"slo.admitted","batch":0,"priority":2}"#.to_string());
        lines.push(r#"{"event":"slo.admitted","batch":1,"priority":0}"#.to_string());
        lines.push(
            r#"{"event":"slo.outcome","batch":1,"priority":0,"outcome":"degraded_at_bound","cause":"deadline_expired","bound":1.5,"elapsed_ticks":9}"#
                .to_string(),
        );
        let events = events(&lines);
        let set = SpanSet::from_events(&events).unwrap();
        let lifecycles = set.lifecycles().unwrap();

        let classes = priority_breakdown(&events, &lifecycles);
        assert_eq!(classes.len(), 2);
        assert_eq!(classes[0].priority, 0);
        assert_eq!(classes[0].batches, 1);
        assert_eq!(classes[1].priority, 2);

        let misses = slo_misses(&events, &lifecycles).unwrap();
        assert_eq!(misses.len(), 1);
        assert_eq!(misses[0].batch, 1);
        assert_eq!(misses[0].cause, "deadline_expired");
        assert_eq!(misses[0].dominant, Phase::Executing);

        let report = format_attribution(&events).unwrap();
        assert!(report.contains("phase waterfall (2 batches"));
        assert!(report.contains("dominant: executing"));
        assert!(report.contains("deadline_expired"));
        assert!(report.contains("span integrity OK"));
    }

    #[test]
    fn misses_without_lifecycles_are_torn_traces() {
        let mut lines = lifecycle_lines(0, 1, 10);
        lines.push(
            r#"{"event":"slo.outcome","batch":5,"outcome":"degraded_at_bound","cause":"shed","bound":1.0,"elapsed_ticks":3}"#
                .to_string(),
        );
        let events = events(&lines);
        let lifecycles = SpanSet::from_events(&events).unwrap().lifecycles().unwrap();
        let err = slo_misses(&events, &lifecycles).unwrap_err();
        assert!(err.contains("no lifecycle spans"), "got: {err}");
    }

    #[test]
    fn dominant_phase_ties_go_to_the_earlier_phase() {
        let lifecycle = BatchLifecycle {
            batch: 0,
            root: 1,
            start: 0,
            end: 100,
            intervals: vec![(Phase::Queued, 0, 50), (Phase::Executing, 50, 100)],
        };
        assert_eq!(lifecycle.dominant_phase(), Some((Phase::Queued, 50)));
    }

    #[test]
    fn waterfall_column_sums_overlap_per_phase() {
        // 640 ns over 64 columns: the first column is [0, 10), holding
        // executing 3 + 3 ns around one 4 ns store wait.
        let lifecycle = BatchLifecycle {
            batch: 0,
            root: 1,
            start: 0,
            end: 640,
            intervals: vec![
                (Phase::Executing, 0, 3),
                (Phase::StoreWait, 3, 7),
                (Phase::Executing, 7, 640),
            ],
        };
        let chart = render_waterfall(&[lifecycle]);
        let row = chart.lines().find(|l| l.starts_with("batch")).unwrap();
        let first = row.split('|').nth(1).unwrap().chars().next();
        assert_eq!(first, Some('E'), "row: {row}");
    }

    #[test]
    fn waterfall_renders_phase_letters() {
        let lines = lifecycle_lines(3, 1, 0);
        let lifecycles = SpanSet::from_events(&events(&lines))
            .unwrap()
            .lifecycles()
            .unwrap();
        let chart = render_waterfall(&lifecycles);
        assert!(chart.contains("batch    3"));
        assert!(chart.contains('Q') && chart.contains('E') && chart.contains('F'));
        assert!(chart.contains("Q=queued"), "legend present");
    }
}
