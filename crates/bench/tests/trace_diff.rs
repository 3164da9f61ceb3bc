//! End-to-end trace diff over real engine traces: the progressive
//! executor and the round-robin baseline run the same workload under the
//! same observer schema, and the diff machinery of `batchbb_bench::trace`
//! must separate them the way the paper's §2.2 comparison does —
//! round-robin retrieves more, tracks no penalty bounds, and the
//! progressive trace self-diffs to zero.  A serve trace interleaving
//! several faulty batches must sum to what the batches report.

use std::sync::Arc;

use batchbb_bench::temperature_workload;
use batchbb_bench::trace::{BoundFamily, TraceDiff, TraceSummary};
use batchbb_core::round_robin::RoundRobin;
use batchbb_core::{BatchQueries, ExecObserver, ProgressiveExecutor};
use batchbb_obs::jsonl::{self, ParsedEvent};
use batchbb_obs::MemorySink;
use batchbb_penalty::Sse;
use batchbb_query::{partition, LinearStrategy, RangeSum, WaveletStrategy};
use batchbb_serve::{BatchRequest, BatchServer, ServeConfig};
use batchbb_storage::{FaultInjectingStore, FaultPlan, FaultStats, MemoryStore};
use batchbb_wavelet::Wavelet;

fn parse(lines: Vec<String>) -> Vec<ParsedEvent> {
    lines
        .iter()
        .map(|l| jsonl::parse_line(l).unwrap())
        .collect()
}

/// Both engines' traces over the §6 workload, progressive first.
fn engine_traces() -> (Vec<ParsedEvent>, Vec<ParsedEvent>) {
    let w = temperature_workload(10_000, 8, false, true, 11);
    let strategy = WaveletStrategy::new(Wavelet::Haar);
    let store = MemoryStore::from_entries(strategy.transform_data(w.cube.tensor()));
    let batch = BatchQueries::rewrite(&strategy, w.queries.clone(), &w.domain).unwrap();

    let prog_sink = Arc::new(MemorySink::new());
    let observer =
        ExecObserver::new(prog_sink.clone()).with_bounds(w.domain.len(), store.abs_sum());
    let mut exec = ProgressiveExecutor::new(&batch, &Sse, &store).with_observer(observer);
    exec.run_to_end();
    assert!(exec.is_exact());

    let rr_sink = Arc::new(MemorySink::new());
    let observer = ExecObserver::new(rr_sink.clone()).with_bounds(w.domain.len(), store.abs_sum());
    let mut rr = RoundRobin::new(&batch, &store).with_observer(observer);
    rr.run_to_end();

    (parse(prog_sink.lines()), parse(rr_sink.lines()))
}

#[test]
fn progressive_vs_round_robin_diff_separates_the_engines() {
    let (prog_events, rr_events) = engine_traces();
    let prog = TraceSummary::from_events(&prog_events).unwrap();
    let rr = TraceSummary::from_events(&rr_events).unwrap();

    assert_eq!(prog.engine.as_deref(), Some("progressive"));
    assert_eq!(rr.engine.as_deref(), Some("round_robin"));

    // §2.2: round-robin "wastes a tremendous amount of I/O" — shared
    // coefficients are fetched once per query instead of once per batch.
    assert!(
        rr.retrievals() > prog.retrievals(),
        "round-robin {} retrievals must exceed progressive {}",
        rr.retrievals(),
        prog.retrievals()
    );

    // Only the batch executor tracks the Theorem 1/2 penalty families.
    for family in BoundFamily::ALL {
        assert!(prog.initial_bound(family).is_some());
        assert!(rr.initial_bound(family).is_none());
        assert!(prog.steps_to_bound(family, 0.5).is_some());
        assert!(rr.steps_to_bound(family, 0.5).is_none());

        let diff = TraceDiff::compute(&prog, &rr, family);
        assert!(!diff.is_zero());
        // Every progressive step is one-sided: the baseline never reports.
        assert_eq!(diff.one_sided, prog.retrievals());
        assert_eq!(diff.max_abs_delta, 0.0);
        assert_eq!(
            diff.rows.len() as u64,
            rr.retrievals().max(prog.retrievals())
        );
    }
}

#[test]
fn identical_engine_traces_diff_to_zero() {
    let (prog_events, _) = engine_traces();
    let prog = TraceSummary::from_events(&prog_events).unwrap();
    for family in BoundFamily::ALL {
        assert!(TraceDiff::compute(&prog, &prog, family).is_zero());
    }
}

#[test]
fn exact_convergence_reaches_every_milestone() {
    let (prog_events, _) = engine_traces();
    let prog = TraceSummary::from_events(&prog_events).unwrap();
    // The run converged to exact, so the bound hits 0 and every fractional
    // milestone is reached, in non-decreasing step order.
    for family in BoundFamily::ALL {
        assert_eq!(prog.final_bound(family), Some(0.0));
        let mut last = 0;
        for fraction in [0.5, 0.1, 0.01, 0.001] {
            let step = prog
                .steps_to_bound(family, fraction)
                .expect("exact run reaches every milestone");
            assert!(step >= last, "milestones must be monotone in step");
            last = step;
        }
    }
}

/// Three batches served through one faulty store into one sink: the
/// summary's totals are the sums of what each batch reports, not the
/// last batch's `exec.finish`, and every batch checks out.
#[test]
fn a_serve_trace_sums_every_batch() {
    let w = temperature_workload(8_000, 8, false, true, 5);
    let strategy = WaveletStrategy::new(Wavelet::Haar);
    let store = MemoryStore::from_entries(strategy.transform_data(w.cube.tensor()));
    let batches: Vec<BatchQueries> = (0..3)
        .map(|b| {
            let queries: Vec<RangeSum> = partition::random_partition(&w.domain, 3, 40 + b)
                .into_iter()
                .map(RangeSum::count)
                .collect();
            BatchQueries::rewrite(&strategy, queries, &w.domain).unwrap()
        })
        .collect();
    let faulty = FaultInjectingStore::new(&store, FaultPlan::new(5).with_transient_rate(0.2));
    let sink = Arc::new(MemorySink::new());
    let server = BatchServer::new(
        ServeConfig::new(w.domain.len(), store.abs_sum())
            .workers(2)
            .slice_steps(4)
            .sink(sink.clone()),
    );
    let requests: Vec<BatchRequest<'_>> =
        batches.iter().map(|b| BatchRequest::new(b, &Sse)).collect();
    let results = server.serve(&faulty, &requests);

    let mut total = FaultStats::default();
    for result in &results {
        total.merge(&result.report.fault);
    }
    let summary = TraceSummary::from_events(&parse(sink.lines())).unwrap();
    assert!(
        results
            .iter()
            .all(|r| r.report.fault.attempts < total.attempts),
        "every batch reads: {total:?}"
    );
    assert_eq!(summary.attempts(), total.attempts);
    assert_eq!(summary.deferrals(), total.deferrals);
    assert_eq!(summary.recovered(), total.recoveries);
    summary.check().unwrap();
}
