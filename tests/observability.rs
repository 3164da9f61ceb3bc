//! End-to-end acceptance tests for the observability layer (DESIGN.md §8):
//!
//! * a fault-injected drain's JSONL trace **reconciles** with the
//!   executor's own [`FaultStats`] — every counted deferral has a
//!   first-deferral event, every counted recovery has a `recovered` step,
//!   and the final `exec.finish` record carries the same counters;
//! * the `worst_case_bound` column parsed back from the trace is
//!   monotonically non-increasing (the degradation contract of
//!   Theorems 1/2, now enforceable from the trace alone);
//! * attaching an observer (or the default [`NullSink`]) changes the
//!   estimates **bit for bit not at all** — observation is read-only;
//! * a serve-pool run tracing through a [`BoundedSink`] over a *slow*
//!   inner sink never blocks the workers — wall clock stays bounded and
//!   the sink's ledger (`emitted == written + dropped`) is exact;
//! * every [`BatchResult`] carries the run's final [`MetricsSnapshot`],
//!   and its counters reconcile with the trace events; traced, the same
//!   run emits one lifecycle (root `batch` span) per batch;
//! * a traced batch records its phases once per slice, not per retrieval,
//!   and its `store_wait` phase still holds the time spent in the store.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use batchbb::prelude::*;

struct Fixture {
    store: MemoryStore,
    batch: BatchQueries,
    n_total: usize,
    k_abs_sum: f64,
}

fn fixture() -> Fixture {
    let shape = Shape::new(vec![16, 16]).unwrap();
    let data = Tensor::from_fn(shape.clone(), |ix| ((3 * ix[0] + 5 * ix[1]) % 7) as f64);
    let strategy = WaveletStrategy::new(Wavelet::Haar);
    let store = MemoryStore::from_entries(strategy.transform_data(&data));
    let queries = vec![
        RangeSum::count(HyperRect::new(vec![1, 2], vec![10, 13])),
        RangeSum::count(HyperRect::new(vec![0, 5], vec![15, 9])),
        RangeSum::count(HyperRect::new(vec![6, 0], vec![11, 15])),
        RangeSum::count(HyperRect::new(vec![3, 3], vec![12, 12])),
    ];
    let batch = BatchQueries::rewrite(&strategy, queries, &shape).unwrap();
    let k_abs_sum = store.abs_sum();
    Fixture {
        store,
        batch,
        n_total: 16 * 16,
        k_abs_sum,
    }
}

/// The two most important coefficients of the progression, used as
/// permanent-fault targets so the trace carries real deferrals.
fn top_keys(fx: &Fixture, n: usize) -> Vec<CoeffKey> {
    let mut probe = ProgressiveExecutor::new(&fx.batch, &Sse, &fx.store);
    (0..n).filter_map(|_| probe.step().map(|i| i.key)).collect()
}

/// Runs a degraded drain + heal + recovery drain under full observation and
/// returns the executor's estimates, its fault stats, and the JSONL trace.
fn observed_faulty_run(fx: &Fixture) -> (Vec<f64>, FaultStats, Vec<String>) {
    let broken = top_keys(fx, 2);
    let flaky = FaultInjectingStore::new(
        &fx.store,
        FaultPlan::new(11)
            .with_transient_rate(0.25)
            .with_permanent_keys(broken),
    );
    let sink = Arc::new(MemorySink::new());
    let instrumented = InstrumentedStore::new(flaky).with_sink(sink.clone());
    let observer = ExecObserver::new(sink.clone()).with_bounds(fx.n_total, fx.k_abs_sum);
    let mut exec = ProgressiveExecutor::new(&fx.batch, &Sse, &instrumented).with_observer(observer);

    let policy = RetryPolicy::default();
    let status = exec.drain_with_faults(&policy);
    assert_eq!(status, DrainStatus::Degraded, "permanent keys must defer");
    instrumented.inner().heal();
    let status = exec.drain_with_faults(&policy);
    assert_eq!(status, DrainStatus::Exact, "healed store must converge");

    let stats = exec.fault_stats();
    (exec.estimates().to_vec(), stats, sink.lines())
}

fn parse(lines: &[String]) -> Vec<jsonl::ParsedEvent> {
    lines
        .iter()
        .map(|l| jsonl::parse_line(l).expect("every sink line is valid JSONL"))
        .collect()
}

#[test]
fn trace_reconciles_with_fault_stats() {
    let fx = fixture();
    let (_, stats, lines) = observed_faulty_run(&fx);
    let events = parse(&lines);

    assert!(stats.attempts_reconcile(), "executor stats self-consistent");
    assert!(stats.deferrals > 0, "fixture must exercise the fault path");
    assert!(stats.recoveries == stats.deferrals, "run ends exact");

    // Every *first* deferral emits exactly one exec.defer{first=true}.
    let first_deferrals = events
        .iter()
        .filter(|e| e.name() == "exec.defer" && e.bool("first") == Some(true))
        .count() as u64;
    assert_eq!(first_deferrals, stats.deferrals);

    // Every recovery emits exactly one exec.step{kind="recovered"}.
    let recovered_steps = events
        .iter()
        .filter(|e| e.name() == "exec.step" && e.str("kind") == Some("recovered"))
        .count() as u64;
    assert_eq!(recovered_steps, stats.recoveries);

    // The last exec.finish snapshot carries the same cumulative counters
    // the executor reports through fault_stats().
    let finish = events
        .iter()
        .rev()
        .find(|e| e.name() == "exec.finish")
        .expect("drain emits exec.finish");
    assert_eq!(finish.str("status"), Some("exact"));
    assert_eq!(finish.u64("attempts"), Some(stats.attempts));
    assert_eq!(finish.u64("successes"), Some(stats.successes));
    assert_eq!(
        finish.u64("transient_failures"),
        Some(stats.transient_failures)
    );
    assert_eq!(
        finish.u64("permanent_failures"),
        Some(stats.permanent_failures)
    );
    assert_eq!(finish.u64("deferrals"), Some(stats.deferrals));
    assert_eq!(finish.u64("recoveries"), Some(stats.recoveries));

    // The instrumented store saw every injected fault as a store.fault
    // event of its class: one per transient and one per permanent failure.
    let store_faults = |class: &str| {
        events
            .iter()
            .filter(|e| e.name() == "store.fault" && e.str("error") == Some(class))
            .count() as u64
    };
    assert_eq!(store_faults("transient"), stats.transient_failures);
    assert_eq!(store_faults("permanent"), stats.permanent_failures);
}

#[test]
fn traced_penalty_bound_is_monotone() {
    let fx = fixture();
    let (_, _, lines) = observed_faulty_run(&fx);
    let events = parse(&lines);

    let bounds: Vec<f64> = events
        .iter()
        .filter(|e| e.name() == "exec.step")
        .filter_map(|e| e.num("worst_case_bound"))
        .collect();
    assert!(bounds.len() > 10, "progression must emit bound samples");
    for w in bounds.windows(2) {
        assert!(
            w[1] <= w[0] * (1.0 + 1e-12) + 1e-12,
            "worst-case bound rose from {} to {}",
            w[0],
            w[1]
        );
    }
    assert_eq!(*bounds.last().unwrap(), 0.0, "exact end state bounds zero");
}

#[test]
fn observation_is_bit_for_bit_free() {
    let fx = fixture();

    // Reference: never-observed, fault-free run.
    let mut plain = ProgressiveExecutor::new(&fx.batch, &Sse, &fx.store);
    plain.run_to_end();
    let reference = plain.estimates().to_vec();

    // Fully observed fault-free run: same bits.
    let sink = Arc::new(MemorySink::new());
    let observer = ExecObserver::new(sink.clone()).with_bounds(fx.n_total, fx.k_abs_sum);
    let instrumented = InstrumentedStore::new(&fx.store).with_sink(sink.clone());
    let mut observed =
        ProgressiveExecutor::new(&fx.batch, &Sse, &instrumented).with_observer(observer);
    observed.run_to_end();
    assert_eq!(observed.estimates(), reference.as_slice());
    assert!(!sink.lines().is_empty(), "observer actually recorded");

    // NullSink observer (metrics only, no events): same bits again.
    let null = ExecObserver::new(Arc::new(NullSink)).with_bounds(fx.n_total, fx.k_abs_sum);
    let mut quiet = ProgressiveExecutor::new(&fx.batch, &Sse, &fx.store).with_observer(null);
    quiet.run_to_end();
    assert_eq!(quiet.estimates(), reference.as_slice());

    // And the faulty observed run from the shared helper converges onto the
    // same bits after healing (canonical finalization).
    let (faulty_estimates, _, _) = observed_faulty_run(&fx);
    assert_eq!(faulty_estimates, reference);
}

/// An event sink that takes `delay` per line — a stand-in for a stalled
/// disk or network collector.
struct SlowSink {
    inner: MemorySink,
    delay: Duration,
}

impl EventSink for SlowSink {
    fn emit(&self, event: &Event) {
        std::thread::sleep(self.delay);
        self.inner.emit(event);
    }
}

#[test]
fn bounded_sink_never_blocks_the_serve_pool() {
    let fx = fixture();
    let requests: Vec<BatchRequest<'_>> = (0..10)
        .map(|_| BatchRequest::new(&fx.batch, &Sse))
        .collect();

    let delay = Duration::from_millis(1);
    let slow = Arc::new(SlowSink {
        inner: MemorySink::new(),
        delay,
    });
    let sink = Arc::new(BoundedSink::builder().capacity(64).build(slow.clone()));
    let server = BatchServer::new(
        ServeConfig::new(fx.n_total, fx.k_abs_sum)
            .workers(2)
            .slice_steps(32)
            .sink(sink.clone()),
    );

    let start = Instant::now();
    let results = server.serve(&fx.store, &requests);
    let elapsed = start.elapsed();
    assert!(results.iter().all(|r| r.status == BatchStatus::Exact));

    sink.close();
    let stats = sink.stats();
    // 10 batches of ~75 events each: far more than the slow sink could
    // absorb synchronously inside the measured window.
    assert!(
        stats.emitted > 500,
        "fixture must emit plenty ({} events)",
        stats.emitted
    );
    // Had every emit paid the inner sink's delay, the run would take at
    // least emitted × delay; the queue handoff keeps it well under half.
    let blocking_floor = delay * stats.emitted as u32;
    assert!(
        elapsed < blocking_floor / 2,
        "serve took {elapsed:?}, blocking would take >= {blocking_floor:?}"
    );
    // The overflow ledger is exact: nothing vanishes silently.
    assert_eq!(stats.emitted, stats.written + stats.dropped, "{stats:?}");
    assert_eq!(slow.inner.len() as u64, stats.written);
    assert!(
        stats.dropped > 0,
        "a 64-slot queue over a 1ms sink must overflow"
    );
}

#[test]
fn batch_results_metrics_reconcile_with_the_trace() {
    let fx = fixture();
    let requests: Vec<BatchRequest<'_>> =
        (0..3).map(|_| BatchRequest::new(&fx.batch, &Sse)).collect();

    let registry = Arc::new(MetricsRegistry::new());
    let sink = Arc::new(MemorySink::new());
    let server = BatchServer::new(
        ServeConfig::new(fx.n_total, fx.k_abs_sum)
            .workers(2)
            .slice_steps(32)
            .registry(registry.clone())
            .sink(sink.clone())
            .tracing(Tracer::new(7)),
    );
    let results = server.serve(&fx.store, &requests);
    assert_eq!(results.len(), requests.len());
    let events = parse(&sink.lines());

    // A traced serve emits one lifecycle (a root `batch` span) per batch.
    let lifecycles = events
        .iter()
        .filter(|e| e.name() == "span.start" && e.str("name") == Some("batch"))
        .count();
    assert_eq!(lifecycles, requests.len());

    // The caller's registry, read once the serve has returned, holds the
    // whole run.
    let snapshot = registry.snapshot();

    // The snapshot's counters reconcile with the trace events.
    let steps = events.iter().filter(|e| e.name() == "exec.step").count() as u64;
    let finishes = events.iter().filter(|e| e.name() == "exec.finish").count();
    assert_eq!(snapshot.counter("serve.steps"), Some(steps));
    assert_eq!(finishes, requests.len(), "one finish per batch");
    assert_eq!(snapshot.counter("serve.deferrals").unwrap_or(0), 0);
    let step_ns = snapshot
        .histogram("serve.step_ns")
        .expect("step latency histogram recorded");
    assert_eq!(step_ns.count, steps);

    // The same snapshot was appended to the trace as metrics.* events, so
    // the trace file alone reconstructs the counters.
    let dumped: Vec<_> = events
        .iter()
        .filter(|e| e.name() == "metrics.counter")
        .collect();
    assert!(
        !dumped.is_empty(),
        "serve dumps the snapshot into the trace"
    );
    let traced_steps = dumped
        .iter()
        .find(|e| e.str("name") == Some("serve.steps"))
        .and_then(|e| e.u64("value"));
    assert_eq!(traced_steps, Some(steps));
}

#[test]
fn registry_aggregates_all_components() {
    let fx = fixture();
    let registry = Arc::new(MetricsRegistry::new());
    let sink = Arc::new(MemorySink::new());

    let instrumented = InstrumentedStore::new(&fx.store)
        .with_registry(registry.clone())
        .with_sink(sink.clone());
    let observer = ExecObserver::new(sink.clone())
        .with_registry(registry.clone())
        .with_bounds(fx.n_total, fx.k_abs_sum);
    let mut exec = ProgressiveExecutor::new(&fx.batch, &Sse, &instrumented).with_observer(observer);
    exec.run_to_end();

    let snap = registry.snapshot();
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == &name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("counter {name} missing from registry"))
    };
    let steps = counter("progressive.steps");
    assert!(steps > 0);
    // Every step issues exactly one retrieval; sparse stores answer absent
    // (zero) coefficients as misses, so hits + misses covers the steps.
    assert_eq!(
        counter("store.hits") + counter("store.misses"),
        steps,
        "one store retrieval per step"
    );
    let hist = snap
        .histograms
        .iter()
        .find(|(n, _)| n.as_str() == "progressive.step_ns")
        .map(|(_, h)| h)
        .expect("step latency histogram registered");
    assert_eq!(hist.count, steps);
}

/// The fields each traced event writes are the ones some reader parses
/// (DESIGN.md §8): `exec.step` carries the Theorem-1/2 trajectory and what
/// the `progress_report` step table prints, `exec.start` the batch size,
/// and a serve labels both with `batch`; `exec.defer` carries what the
/// step table's defer rows print, `exec.finish` the status and the
/// counters `TraceSummary::check` reconciles, and `store.fault` the class
/// `trace_reconciles_with_fault_stats` counts. The observer keeps no gauge
/// that every batch of a serve would overwrite.
#[test]
fn every_trace_field_has_a_reader() {
    let fx = fixture();
    let requests: Vec<BatchRequest<'_>> =
        (0..3).map(|_| BatchRequest::new(&fx.batch, &Sse)).collect();
    let registry = Arc::new(MetricsRegistry::new());
    let sink = Arc::new(MemorySink::new());
    let server = BatchServer::new(
        ServeConfig::new(fx.n_total, fx.k_abs_sum)
            .workers(2)
            .slice_steps(16)
            .registry(registry.clone())
            .sink(sink.clone())
            .tracing(Tracer::new(5)),
    );
    let results = server.serve(&fx.store, &requests);
    assert!(results.iter().all(|r| r.status == BatchStatus::Exact));

    let fields = |e: &jsonl::ParsedEvent| -> Vec<String> { e.fields().keys().cloned().collect() };
    let sorted = |names: &[&str]| -> Vec<String> {
        let mut names: Vec<String> = names.iter().map(|n| n.to_string()).collect();
        names.sort();
        names
    };
    let step_fields = sorted(&[
        "engine",
        "kind",
        "step",
        "key",
        "importance",
        "pending",
        "deferred",
        "expected_penalty",
        "worst_case_bound",
        "attempts",
        "retries",
        "batch",
    ]);
    let start_fields = sorted(&["engine", "queries", "batch"]);
    let (mut steps, mut starts) = (0, 0);
    for event in parse(&sink.lines()) {
        match event.name() {
            "exec.step" => {
                assert_eq!(fields(&event), step_fields, "exec.step");
                steps += 1;
            }
            "exec.start" => {
                assert_eq!(fields(&event), start_fields, "exec.start");
                starts += 1;
            }
            _ => {}
        }
    }
    assert_eq!(starts, requests.len());
    assert!(steps > 0, "the serve must step");

    let defer_fields = sorted(&[
        "engine",
        "key",
        "importance",
        "first",
        "deferred",
        "attempts",
        "retries",
    ]);
    let finish_fields = sorted(&[
        "engine",
        "status",
        "retrieved",
        "attempts",
        "successes",
        "transient_failures",
        "permanent_failures",
        "retries",
        "deferrals",
        "recoveries",
        "backoff_ticks",
    ]);
    let fault_fields = sorted(&["error"]);
    let (_, _, lines) = observed_faulty_run(&fx);
    let mut seen = BTreeMap::new();
    for event in parse(&lines) {
        let want = match event.name() {
            "exec.defer" => &defer_fields,
            "exec.finish" => &finish_fields,
            "store.fault" => &fault_fields,
            _ => continue,
        };
        assert_eq!(&fields(&event), want, "{}", event.name());
        *seen.entry(event.name().to_string()).or_insert(0) += 1;
    }
    assert_eq!(seen.len(), 3, "the faulty run emits all three: {seen:?}");

    let snapshot = registry.snapshot();
    assert_eq!(snapshot.gauge("serve.pending"), None);
    assert_eq!(snapshot.gauge("serve.deferred"), None);
    assert_eq!(snapshot.counter("serve.recoveries"), None);
}

/// One traced batch, read back from its spans.
#[derive(Default)]
struct TracedBatch {
    /// The root `batch` span's duration.
    wall_ns: u64,
    /// Each `phase` span as `(phase, duration)`.
    phases: Vec<(String, u64)>,
}

/// Every traced batch of a serve run, by batch index.
fn traced_batches(events: &[jsonl::ParsedEvent]) -> BTreeMap<u64, TracedBatch> {
    let ends: BTreeMap<u64, u64> = events
        .iter()
        .filter(|e| e.name() == "span.end")
        .map(|e| (e.u64("span").unwrap(), e.u64("ts_ns").unwrap()))
        .collect();
    let mut out: BTreeMap<u64, TracedBatch> = BTreeMap::new();
    for e in events.iter().filter(|e| e.name() == "span.start") {
        let (Some(batch), Some(start)) = (e.u64("batch"), e.u64("ts_ns")) else {
            continue;
        };
        let ns = ends[&e.u64("span").unwrap()] - start;
        let traced = out.entry(batch).or_default();
        match e.str("name") {
            Some("batch") => traced.wall_ns = ns,
            Some("phase") => traced
                .phases
                .push((e.str("phase").unwrap().to_string(), ns)),
            _ => {}
        }
    }
    out
}

#[test]
fn traced_serve_records_phases_per_slice() {
    let fx = fixture();
    let requests: Vec<BatchRequest<'_>> =
        (0..3).map(|_| BatchRequest::new(&fx.batch, &Sse)).collect();
    let sink = Arc::new(MemorySink::new());
    let server = BatchServer::new(
        ServeConfig::new(fx.n_total, fx.k_abs_sum)
            .workers(1)
            .slice_steps(8)
            .prefetch_window(1)
            .sink(sink.clone())
            .tracing(Tracer::new(3)),
    );
    let results = server.serve(&fx.store, &requests);
    let traced = traced_batches(&parse(&sink.lines()));
    assert_eq!(traced.len(), requests.len());
    for (i, result) in results.iter().enumerate() {
        assert_eq!(result.status, BatchStatus::Exact);
        let phases = traced[&(i as u64)].phases.len();
        assert!(
            phases <= 3 * result.slices + 3,
            "batch {i}: {phases} phase spans over {} slices and {} retrievals",
            result.slices,
            result.retrieved_entries.len()
        );
    }
}

#[test]
fn store_wait_phase_holds_the_store_time() {
    const CALL_NS: u64 = 200_000;
    let fx = fixture();
    let slow = LatencyStore::new(&fx.store, CALL_NS, 0);
    let requests: Vec<BatchRequest<'_>> =
        (0..2).map(|_| BatchRequest::new(&fx.batch, &Sse)).collect();
    let sink = Arc::new(MemorySink::new());
    let server = BatchServer::new(
        ServeConfig::new(fx.n_total, fx.k_abs_sum)
            .workers(1)
            .slice_steps(16)
            .prefetch_window(1)
            .share_cache(false)
            .sink(sink.clone())
            .tracing(Tracer::new(4)),
    );
    let results = server.serve(&slow, &requests);
    let traced = traced_batches(&parse(&sink.lines()));
    for (i, result) in results.iter().enumerate() {
        let batch = &traced[&(i as u64)];
        let store_wait: u64 = batch
            .phases
            .iter()
            .filter(|(phase, _)| phase == "store_wait")
            .map(|(_, ns)| ns)
            .sum();
        // Uncached, every retrieval at W = 1 is one store call charged
        // CALL_NS.
        let floor = result.retrieved_entries.len() as u64 * CALL_NS;
        assert!(
            store_wait >= floor,
            "batch {i}: store_wait {store_wait} ns < {floor} ns"
        );
        assert!(
            store_wait <= batch.wall_ns,
            "batch {i}: more than its wall time"
        );
    }
}
