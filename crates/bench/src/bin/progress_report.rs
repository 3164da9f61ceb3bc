//! Replays observability traces (`exec.*` JSONL, see DESIGN.md §8) and
//! *verifies* their invariants, one subcommand per job:
//!
//! * `demo [--output FILE]` — runs a fault-injected progressive
//!   evaluation of the §6 temperature workload (two permanently broken
//!   top coefficients, a transient fault rate, a degraded drain, a heal,
//!   a recovery drain — the richest trace the executor emits), optionally
//!   saves its trace, and replays it;
//! * `replay FILE` — the per-step table and the per-priority SLO summary,
//!   then [`batchbb_bench::trace::TraceSummary::check`]: the
//!   `worst_case_bound` column never rises, and each batch's last
//!   `exec.finish` reconciles with that batch's own events;
//! * `diff A B` — two traces of one workload (e.g. progressive vs
//!   round-robin): summary diff, per-step penalty delta tables and ASCII
//!   bound curves for both families, then the check of each trace; mere
//!   differences pass, identical traces diff to zero;
//! * `attribute FILE` — a causally traced run (`span.*` events, DESIGN.md
//!   §14): checks the span invariants, then prints the per-batch phase
//!   waterfall, time-in-phase per priority class, and the SLO-miss table
//!   naming each miss's dominant phase;
//! * `serve-trace OUT` — generates the traced seeded-fault overload
//!   fixture (deadline-bound batches, a transiently faulty store,
//!   overcommitted capacity), checks its spans, and writes it.
//!
//! Options, each taken only by the subcommands that use it: `--limit N`
//! (table head/tail rows, default 10), `--curves true` (single-trace
//! penalty log-curves), `--records N`, `--cells N`, `--seed N` (the
//! generated workloads). An invariant violation exits 1, which makes
//! this binary a CI gate over the event schema; an unknown subcommand or
//! flag, a missing path, or a flag without its value exits 2.

use std::process::ExitCode;
use std::sync::Arc;

use batchbb_bench::trace::{
    format_diff_table, format_slo_summary, format_step_table, format_summary_diff, render_curves,
    BoundFamily, TraceDiff, TraceSummary,
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

/// Each subcommand: its name, how many paths it takes, and its flags.
const COMMANDS: [(&str, usize, &[&str]); 5] = [
    (
        "demo",
        0,
        &["output", "curves", "limit", "records", "cells", "seed"],
    ),
    ("replay", 1, &["curves", "limit"]),
    ("diff", 2, &["limit"]),
    ("attribute", 1, &[]),
    ("serve-trace", 1, &["records", "seed"]),
];

const USAGE: &str = "usage: progress_report demo [--output FILE] | replay FILE | \
                     diff A B | attribute FILE | serve-trace OUT [--flag value ...]";

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_default();
    let Some(&(_, n_paths, known)) = COMMANDS.iter().find(|(name, ..)| *name == command) else {
        eprintln!("unknown subcommand `{command}`\n{USAGE}");
        return ExitCode::from(2);
    };
    let mut options: Vec<String> = argv.collect();
    let paths: Vec<String> = options.drain(..n_paths.min(options.len())).collect();
    let args = if paths.len() < n_paths || paths.iter().any(|p| p.starts_with("--")) {
        Err(format!(
            "`{command}` takes {n_paths} path(s) before its flags\n{USAGE}"
        ))
    } else {
        Args::parse_from(options, known)
    };
    let Ok(args) = args.map_err(|e| eprintln!("{e}")) else {
        return ExitCode::from(2);
    };
    let limit = args.usize("limit", 10);
    let curves = args.flag("curves", false);
    let outcome = match command.as_str() {
        "demo" => {
            let lines = demo_trace(
                args.usize("records", 20_000),
                args.usize("cells", 16),
                args.u64("seed", 7),
            );
            if let Some(path) = args.get("output") {
                write_lines(path, &lines);
                println!("# trace saved to {path}");
            }
            replay(&parse_events(&lines), limit, curves)
        }
        "replay" => replay(&load(&paths[0]), limit, curves),
        "diff" => diff(&paths[0], &paths[1], limit),
        "attribute" => spans::format_attribution(&load(&paths[0])).map(|report| print!("{report}")),
        _ => serve_trace_mode(&paths[0], args.usize("records", 8_000), args.u64("seed", 7)),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
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

/// Reads and parses the trace at `path`.
fn load(path: &str) -> Vec<ParsedEvent> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read trace {path}: {e}"));
    parse_events(&text.lines().map(str::to_string).collect::<Vec<_>>())
}

/// Writes `lines` to `path` as JSONL.
fn write_lines(path: &str, lines: &[String]) {
    let mut text = lines.join("\n");
    text.push('\n');
    std::fs::write(path, text).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
}

/// The per-step table, the SLO summary, optionally the bound curves, and
/// the invariant check of one trace.
fn replay(events: &[ParsedEvent], limit: usize, curves: bool) -> Result<(), String> {
    print!("{}", format_step_table(events, limit));
    let slo = format_slo_summary(events);
    if !slo.is_empty() {
        println!();
        print!("{slo}");
    }
    let summary = TraceSummary::from_events(events)?;
    if curves {
        for family in BoundFamily::ALL {
            if let Some(chart) = render_curves(&[("trace", &summary)], family) {
                println!();
                print!("{chart}");
            }
        }
    }
    println!("{}", summary.check()?);
    Ok(())
}

/// The summary diff, per-step penalty delta tables and bound curves of
/// two traces, then the invariant check of each.
fn diff(path_a: &str, path_b: &str, limit: usize) -> Result<(), String> {
    let summarize = |label: &str, path: &str| {
        TraceSummary::from_events(&load(path)).map_err(|e| format!("{label}: {e}"))
    };
    let (a, b) = (summarize("A", path_a)?, summarize("B", path_b)?);

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
    for (label, summary) in [("A", &a), ("B", &b)] {
        let ok = summary.check().map_err(|e| format!("{label}: {e}"))?;
        println!("{label}: {ok}");
    }
    Ok(())
}

/// Generates the traced overload fixture, checks its spans, and writes
/// the trace for `attribute` to replay.  The check comes *before* the
/// write, so the generator can never hand CI a torn trace.
fn serve_trace_mode(path: &str, records: usize, seed: u64) -> Result<(), String> {
    let lines = serve_trace(records, seed);
    spans::format_attribution(&parse_events(&lines))
        .map_err(|e| format!("generated trace: {e}"))?;
    write_lines(path, &lines);
    println!(
        "# traced serve run saved to {path} ({} events)",
        lines.len()
    );
    Ok(())
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
