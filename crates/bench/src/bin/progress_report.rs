//! Replays an observability trace (`exec.*` JSONL, see DESIGN.md §8) into a
//! per-step progress table and *verifies* the trace's invariants:
//!
//! * the `worst_case_bound` column is monotonically non-increasing (the
//!   degradation contract of Theorems 1/2 extended to deferrals);
//! * the final `exec.finish` counters reconcile with the per-step events
//!   (`attempts = successes + transient + permanent`, first-deferral events
//!   match the deferral count, recovered steps match the recovery count).
//!
//! Any violation prints a diagnostic and exits nonzero, which makes this
//! binary a CI gate over the event schema, not just a pretty-printer.
//!
//! With no `--input`, a self-contained demo runs first: a fault-injected
//! progressive evaluation of the §6 temperature workload (two permanently
//! broken top coefficients plus a transient fault rate), degraded drain,
//! store heal, recovery drain — the richest trace the executor can emit.
//!
//! With `--diff a.jsonl b.jsonl`, the binary instead *compares* two traces
//! (engine A/B runs over the same workload, e.g. progressive vs
//! round-robin): a summary diff (retrievals, deferrals, faults,
//! steps-to-bound milestones), a per-step penalty delta table, and ASCII
//! penalty-bound curves for both families (Theorem 1 worst case, Theorem 2
//! expected). Both traces are still verified — an invariant violation in
//! either exits nonzero; mere differences do not, and identical traces
//! diff to zero and exit 0.
//!
//! With `--attribute trace.jsonl`, the binary replays a *causally traced*
//! run (a trace carrying `span.*` events, see DESIGN.md §14): it verifies
//! the span invariants — every span closes, children nest inside their
//! parents, dedup riders reference a real physical read, and each batch's
//! phase intervals **partition** its admitted-to-finalized wall time
//! exactly — then prints the per-batch phase waterfall, the time-in-phase
//! table per priority class, and the SLO-miss table attributing every
//! `deadline_expired`/`shed` outcome to its dominant phase.  Any
//! structural violation exits nonzero.
//!
//! With `--serve-trace out.jsonl`, the binary generates the traced
//! seeded-fault overload fixture (deadline-bound batches over a
//! transiently faulty store at overcommitted capacity) and writes its
//! trace for `--attribute` to replay — the pair forms the CI tracing
//! gate.  The trace is validated before it is written.
//!
//! Modes, one per run: the demo (no mode flag), `--input trace.jsonl`
//! (replay instead of demo), `--diff a b` (compare two traces),
//! `--attribute trace.jsonl` (span attribution replay), `--serve-trace
//! out.jsonl` (generate a traced overload run). Options: `--output
//! trace.jsonl` (save the demo trace), `--curves true` (append
//! single-trace ASCII penalty log-curves for both bound families to the
//! table), `--limit N` (table head/tail rows, default 10), `--records N`,
//! `--cells N`, `--seed N` (demo workload). Any other flag, or a flag
//! without its value, is rejected with exit status 2.

use std::process::ExitCode;
use std::sync::Arc;

use batchbb_bench::trace::{
    format_diff_table, format_summary_diff, render_curves, BoundFamily, TraceDiff, TraceSummary,
};
use batchbb_bench::{spans, temperature_workload, Args};
use batchbb_core::{BatchQueries, ExecObserver, ProgressiveExecutor};
use batchbb_obs::jsonl::{self, ParsedEvent};
use batchbb_obs::{MemorySink, Tracer};
use batchbb_penalty::Sse;
use batchbb_query::{partition, LinearStrategy, RangeSum, WaveletStrategy};
use batchbb_serve::{BatchRequest, BatchServer, ServeConfig, SloContract};
use batchbb_storage::{
    FaultInjectingStore, FaultPlan, InstrumentedStore, MemoryStore, RetryPolicy,
};
use batchbb_wavelet::Wavelet;

fn main() -> ExitCode {
    // `--diff` takes two values, which the strict `--flag value` parser
    // cannot express; strip it from argv before delegating.
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let mut diff_paths: Option<(String, String)> = None;
    if let Some(i) = argv.iter().position(|a| a == "--diff") {
        if argv.len() < i + 3 {
            eprintln!("--diff needs two trace paths: --diff a.jsonl b.jsonl");
            return ExitCode::FAILURE;
        }
        let rest: Vec<String> = argv.drain(i..i + 3).collect();
        diff_paths = Some((rest[1].clone(), rest[2].clone()));
    }
    let known = [
        "input",
        "output",
        "attribute",
        "serve-trace",
        "curves",
        "limit",
        "records",
        "cells",
        "seed",
    ];
    let args = match Args::parse_from(argv, &known) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let limit = args.usize("limit", 10);

    if let Some((path_a, path_b)) = diff_paths {
        return diff_mode(&path_a, &path_b, limit);
    }
    if let Some(path) = args.get("attribute") {
        return attribute_mode(path);
    }
    if let Some(path) = args.get("serve-trace") {
        return serve_trace_mode(path, args.usize("records", 8_000), args.u64("seed", 7));
    }

    let lines: Vec<String> = match args.get("input") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("cannot read --input {path}: {e}"));
            text.lines().map(str::to_string).collect()
        }
        None => {
            let lines = demo_trace(
                args.usize("records", 20_000),
                args.usize("cells", 16),
                args.u64("seed", 7),
            );
            if let Some(path) = args.get("output") {
                let mut text = lines.join("\n");
                text.push('\n');
                std::fs::write(path, text)
                    .unwrap_or_else(|e| panic!("cannot write --output {path}: {e}"));
                println!("# trace saved to {path}");
            }
            lines
        }
    };

    let events = parse_events(&lines);

    print_table(&events, limit);
    print_slo_summary(&events);
    if args.flag("curves", false) {
        // Single-trace penalty log-curves: the same renderer the diff
        // mode uses, with one series per chart.
        let summary = TraceSummary::from_events(&events);
        for family in BoundFamily::ALL {
            if let Some(chart) = render_curves(&[("trace", &summary)], family) {
                println!();
                print!("{chart}");
            }
        }
    }
    match verify(&events) {
        Ok(summary) => {
            println!("{summary}");
            ExitCode::SUCCESS
        }
        Err(violation) => {
            eprintln!("TRACE INVARIANT VIOLATED: {violation}");
            ExitCode::FAILURE
        }
    }
}

/// Parses non-empty lines into events, panicking with the line number on
/// malformed JSONL.
fn parse_events(lines: &[String]) -> Vec<ParsedEvent> {
    lines
        .iter()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| {
            jsonl::parse_line(l).unwrap_or_else(|e| panic!("line {}: bad JSONL: {e}", i + 1))
        })
        .collect()
}

/// The `--diff a b` mode: summary diff, per-step penalty delta tables,
/// ASCII bound curves, and invariant verification of both traces.
fn diff_mode(path_a: &str, path_b: &str, limit: usize) -> ExitCode {
    let load = |path: &str| -> Vec<ParsedEvent> {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read trace {path}: {e}"));
        parse_events(&text.lines().map(str::to_string).collect::<Vec<_>>())
    };
    let events_a = load(path_a);
    let events_b = load(path_b);
    let a = TraceSummary::from_events(&events_a);
    let b = TraceSummary::from_events(&events_b);

    println!("# trace diff: A = {path_a}, B = {path_b}");
    println!();
    print!("{}", format_summary_diff(&a, &b));

    let mut all_zero = true;
    for family in BoundFamily::ALL {
        let diff = TraceDiff::compute(&a, &b, family);
        all_zero &= diff.is_zero();
        println!();
        print!("{}", format_diff_table(&diff, family, limit));
        if let Some(chart) = render_curves(&[("A", &a), ("B", &b)], family) {
            println!();
            print!("{chart}");
        }
    }
    println!();
    if all_zero {
        println!("traces are identical on both penalty families");
    }

    // Both traces must individually satisfy the schema invariants; a
    // violation in either is a hard failure, a mere difference is not.
    for (label, events) in [("A", &events_a), ("B", &events_b)] {
        match verify(events) {
            Ok(summary) => println!("{label}: {summary}"),
            Err(violation) => {
                eprintln!("TRACE INVARIANT VIOLATED in {label}: {violation}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// The `--attribute` mode: verifies the causal span invariants and prints
/// the phase waterfall, per-priority time-in-phase, and SLO-miss
/// attribution (all in `batchbb_bench::spans` — this is a thin shell).
fn attribute_mode(path: &str) -> ExitCode {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read trace {path}: {e}"));
    let events = parse_events(&text.lines().map(str::to_string).collect::<Vec<_>>());
    match spans::format_attribution(&events) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(violation) => {
            eprintln!("SPAN INVARIANT VIOLATED: {violation}");
            ExitCode::FAILURE
        }
    }
}

/// The `--serve-trace` mode: generates the traced seeded-fault overload
/// fixture, validates its spans, and writes the trace for `--attribute`
/// to replay.  Validation happens *before* the write so the generator can
/// never hand CI a torn trace.
fn serve_trace_mode(path: &str, records: usize, seed: u64) -> ExitCode {
    let lines = serve_trace(records, seed);
    let events = parse_events(&lines);
    if let Err(violation) = spans::format_attribution(&events) {
        eprintln!("SPAN INVARIANT VIOLATED in generated trace: {violation}");
        return ExitCode::FAILURE;
    }
    let mut text = lines.join("\n");
    text.push('\n');
    std::fs::write(path, text).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!(
        "# traced serve run saved to {path} ({} events)",
        lines.len()
    );
    ExitCode::SUCCESS
}

/// Runs the traced overload fixture and returns its JSONL trace: six
/// 3-query batches over the §6 temperature wavelet store, half of them
/// deadline-bound (10 ticks — far under their serial cost, so the
/// deadline certainly expires), all under a 20 % transient fault rate
/// with capacity declared ~5 % below the fault-free total so inflated
/// actuals trip shedding.  One [`Tracer`] is wired through the pool, so
/// every batch flushes a phase lifecycle into the same trace as its
/// `exec.*`/`slo.*` streams.
fn serve_trace(records: usize, seed: u64) -> Vec<String> {
    let w = temperature_workload(records, 8, false, true, seed);
    let strategy = WaveletStrategy::new(Wavelet::Haar);
    let store = MemoryStore::from_entries(strategy.transform_data(w.cube.tensor()));
    let k = store.abs_sum();
    let batches: Vec<BatchQueries> = (0..6)
        .map(|b| {
            let queries: Vec<RangeSum> = partition::random_partition(&w.domain, 3, seed + 100 + b)
                .into_iter()
                .map(RangeSum::count)
                .collect();
            BatchQueries::rewrite(&strategy, queries, &w.domain).expect("ranges fit the domain")
        })
        .collect();
    let total: u64 = batches
        .iter()
        .map(|b| {
            let mut probe = ProgressiveExecutor::new(b, &Sse, &store);
            probe.run_to_end();
            probe.retrieved() as u64
        })
        .sum();
    let faulty = FaultInjectingStore::new(&store, FaultPlan::new(seed).with_transient_rate(0.2));
    let requests: Vec<BatchRequest<'_>> = batches
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let slo = if i % 2 == 0 {
                SloContract::new()
                    .with_deadline_ticks(10)
                    .with_priority((i % 3) as u8)
            } else {
                SloContract::new().with_priority((i % 3) as u8)
            };
            BatchRequest::new(b, &Sse).with_slo(slo)
        })
        .collect();
    let sink = Arc::new(MemorySink::new());
    let server = BatchServer::new(
        ServeConfig::new(w.domain.len(), k)
            .workers(3)
            .slice_steps(4)
            .capacity(total.saturating_sub(total / 20).max(1))
            .sink(sink.clone())
            .tracing(Tracer::new(seed)),
    );
    server.serve(&faulty, &requests);
    sink.lines()
}

/// Runs the fault-injected demo evaluation and returns its JSONL trace.
fn demo_trace(records: usize, cells: usize, seed: u64) -> Vec<String> {
    let w = temperature_workload(records, cells, false, true, seed);
    let strategy = WaveletStrategy::new(Wavelet::Haar);
    let store = MemoryStore::from_entries(strategy.transform_data(w.cube.tensor()));
    let batch = BatchQueries::rewrite(&strategy, w.queries.clone(), &w.domain)
        .expect("workload queries fit their domain");

    // Break the two most important coefficients of the progression, so the
    // executor must defer real mass and the penalty bound visibly plateaus
    // until the store heals.
    let mut probe = ProgressiveExecutor::new(&batch, &Sse, &store);
    let broken: Vec<_> = (0..2).filter_map(|_| probe.step().map(|i| i.key)).collect();
    let faulty = FaultInjectingStore::new(
        &store,
        FaultPlan::new(seed)
            .with_transient_rate(0.1)
            .with_permanent_keys(broken),
    );

    let sink = Arc::new(MemorySink::new());
    let wrapped = InstrumentedStore::new(faulty).with_sink(sink.clone());
    let observer = ExecObserver::new(sink.clone()).with_bounds(w.domain.len(), store.abs_sum());
    let mut exec = ProgressiveExecutor::new(&batch, &Sse, &wrapped).with_observer(observer);

    let policy = RetryPolicy::default();
    exec.drain_with_faults(&policy); // degraded: permanent keys deferred
    wrapped.inner().heal();
    exec.drain_with_faults(&policy); // recovers the deferred mass, exact
    assert!(exec.is_exact(), "demo must converge after heal");
    sink.lines()
}

fn fmt_f64(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:.4e}"),
        None => "-".to_string(),
    }
}

/// Prints the per-step table: head/tail `limit` rows of the progression.
fn print_table(events: &[ParsedEvent], limit: usize) {
    let rows: Vec<&ParsedEvent> = events
        .iter()
        .filter(|e| e.name() == "exec.step" || e.name() == "exec.defer")
        .collect();
    println!(
        "{:>6}  {:<10} {:<18} {:>11} {:>8} {:>8} {:>12} {:>12} {:>9} {:>8}",
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
    let elide = rows.len() > 2 * limit;
    for (i, e) in rows.iter().enumerate() {
        if elide && i == limit {
            println!("{:>6}  ... {} rows elided ...", "", rows.len() - 2 * limit);
        }
        if elide && (limit..rows.len() - limit).contains(&i) {
            continue;
        }
        let kind = match e.name() {
            "exec.defer" => {
                let first = e.bool("first").unwrap_or(true);
                if first {
                    "defer"
                } else {
                    "re-defer"
                }
            }
            _ => e.str("kind").unwrap_or("?"),
        };
        println!(
            "{:>6}  {:<10} {:<18} {:>11} {:>8} {:>8} {:>12} {:>12} {:>9} {:>8}",
            e.u64("step").map(|s| s.to_string()).unwrap_or_default(),
            kind,
            e.str("key").unwrap_or("?"),
            fmt_f64(e.num("importance")),
            e.u64("pending").unwrap_or(0),
            e.u64("deferred").unwrap_or(0),
            fmt_f64(e.num("expected_penalty")),
            fmt_f64(e.num("worst_case_bound")),
            e.u64("attempts").unwrap_or(0),
            e.u64("retries").unwrap_or(0),
        );
    }
}

/// Summarizes `slo.*` events per priority class: admissions, rejections,
/// outcomes, and the certified-bound range of finalized batches. Serve
/// traces without an SLO layer (no `slo.*` events) print nothing.
fn print_slo_summary(events: &[ParsedEvent]) {
    let slo: Vec<&ParsedEvent> = events
        .iter()
        .filter(|e| e.name().starts_with("slo."))
        .collect();
    if slo.is_empty() {
        return;
    }
    // Priority classes actually present, in ascending order.
    let mut priorities: Vec<u64> = slo.iter().filter_map(|e| e.u64("priority")).collect();
    priorities.sort_unstable();
    priorities.dedup();
    println!();
    println!("# slo summary (per priority class)");
    println!(
        "{:>8} {:>9} {:>9} {:>6} {:>9} {:>9} {:>5} {:>13} {:>13}",
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
        let of = |name: &str| {
            slo.iter()
                .filter(|e| e.name() == name && e.u64("priority") == Some(p))
                .count()
        };
        let outcomes: Vec<&&ParsedEvent> = slo
            .iter()
            .filter(|e| e.name() == "slo.outcome" && e.u64("priority") == Some(p))
            .collect();
        let outcome = |label: &str| {
            outcomes
                .iter()
                .filter(|e| e.str("outcome") == Some(label))
                .count()
        };
        let cause = |label: &str| {
            outcomes
                .iter()
                .filter(|e| e.str("cause") == Some(label))
                .count()
        };
        let bounds: Vec<f64> = outcomes.iter().filter_map(|e| e.num("bound")).collect();
        let bound_min = bounds.iter().copied().reduce(f64::min);
        let bound_max = bounds.iter().copied().reduce(f64::max);
        println!(
            "{:>8} {:>9} {:>9} {:>6} {:>9} {:>9} {:>5} {:>13} {:>13}",
            p,
            of("slo.admitted"),
            of("slo.rejected"),
            outcome("met"),
            outcome("degraded_at_bound"),
            cause("deadline_expired"),
            cause("shed"),
            fmt_f64(bound_min),
            fmt_f64(bound_max),
        );
    }
}

/// Checks the trace invariants; returns a one-line summary or the first
/// violation found.
///
/// Serve-pool traces interleave several batches (each event stamped with
/// its `batch` label by the pool's sink), so both checks group by batch:
/// the bound must be monotone *within* each batch's progression, and the
/// counters of each batch's last `exec.finish` are summed before
/// reconciling against the event stream.  Single-executor traces carry
/// no `batch` field and land in one group, preserving the old semantics.
fn verify(events: &[ParsedEvent]) -> Result<String, String> {
    let steps: Vec<&ParsedEvent> = events.iter().filter(|e| e.name() == "exec.step").collect();
    if steps.is_empty() {
        return Err("trace holds no exec.step events".to_string());
    }

    // 1. The worst-case penalty bound never increases along any batch's
    //    progression.
    let mut last_by_batch: std::collections::BTreeMap<Option<u64>, f64> = Default::default();
    for (i, e) in steps.iter().enumerate() {
        let Some(bound) = e.num("worst_case_bound") else {
            continue; // engines without importance tracking omit the field
        };
        let batch = e.u64("batch");
        if let Some(&prev) = last_by_batch.get(&batch) {
            if bound > prev * (1.0 + 1e-12) + 1e-12 {
                return Err(format!(
                    "worst_case_bound rose from {prev} to {bound} at step event {i}"
                ));
            }
        }
        last_by_batch.insert(batch, bound);
    }
    // The headline bound: the worst final bound across batches.
    let last = last_by_batch.values().copied().reduce(f64::max);

    // 2. The final cumulative counters reconcile with the event stream,
    //    batch by batch.  A batch finalized mid-flight (deadline expiry,
    //    shed) never emits `exec.finish`, so only finished batches have
    //    counters to reconcile — their step/defer events are matched by
    //    the shared `batch` label.
    let mut finishes: std::collections::BTreeMap<Option<u64>, &ParsedEvent> = Default::default();
    for e in events.iter().filter(|e| e.name() == "exec.finish") {
        finishes.insert(e.u64("batch"), e); // cumulative: the last wins
    }
    if finishes.is_empty() {
        return Err("trace holds no exec.finish event".to_string());
    }
    for (&batch, finish) in &finishes {
        let tag = batch.map(|b| format!("batch {b}: ")).unwrap_or_default();
        let c = |k: &str| finish.u64(k).unwrap_or(0);
        let (attempts, successes) = (c("attempts"), c("successes"));
        let (transient, permanent) = (c("transient_failures"), c("permanent_failures"));
        let (deferrals, recoveries) = (c("deferrals"), c("recoveries"));
        if attempts != successes + transient + permanent {
            return Err(format!(
                "{tag}attempts {attempts} != successes {successes} + transient {transient} + permanent {permanent}"
            ));
        }
        if deferrals < recoveries {
            return Err(format!(
                "{tag}recoveries {recoveries} exceed deferrals {deferrals}"
            ));
        }
        let first_deferrals = events
            .iter()
            .filter(|e| {
                e.name() == "exec.defer" && e.bool("first") == Some(true) && e.u64("batch") == batch
            })
            .count() as u64;
        if first_deferrals != deferrals {
            return Err(format!(
                "{tag}{first_deferrals} first-deferral events vs {deferrals} counted deferrals"
            ));
        }
        let batch_steps: Vec<&&ParsedEvent> =
            steps.iter().filter(|e| e.u64("batch") == batch).collect();
        let recovered_steps = batch_steps
            .iter()
            .filter(|e| e.str("kind") == Some("recovered"))
            .count() as u64;
        if recovered_steps != recoveries {
            return Err(format!(
                "{tag}{recovered_steps} recovered steps vs {recoveries} counted recoveries"
            ));
        }
        if c("retrieved") != batch_steps.len() as u64 {
            return Err(format!(
                "{tag}finish reports {} retrievals but the trace holds {} step events",
                c("retrieved"),
                batch_steps.len()
            ));
        }
    }
    let attempts = finishes
        .values()
        .map(|e| e.u64("attempts").unwrap_or(0))
        .sum::<u64>();
    let deferrals = events
        .iter()
        .filter(|e| e.name() == "exec.defer" && e.bool("first") == Some(true))
        .count() as u64;
    let recovered_steps = steps
        .iter()
        .filter(|e| e.str("kind") == Some("recovered"))
        .count() as u64;

    // 3. Causal spans, when present: every span closes, children nest
    //    inside their parents, dedup riders resolve, and each batch's
    //    phase intervals partition its wall time exactly.  Untraced
    //    traces (no `span.*` events) skip this silently.
    let span_note = if events.iter().any(|e| e.name().starts_with("span.")) {
        let set = spans::SpanSet::from_events(events)?;
        set.verify()?;
        let lifecycles = set.lifecycles()?;
        format!(
            ", {} spans ({} batch lifecycles partitioned)",
            set.spans.len(),
            lifecycles.len()
        )
    } else {
        String::new()
    };

    let store_faults = events.iter().filter(|e| e.name() == "store.fault").count();
    let final_bound = last.map(|b| format!("{b:.4e}")).unwrap_or("-".to_string());
    Ok(format!(
        "OK: {} steps ({} recovered), {} deferrals, {} store faults, {} attempts, final worst-case bound {}{}",
        steps.len(),
        recovered_steps,
        deferrals,
        store_faults,
        attempts,
        final_bound,
        span_note
    ))
}
