//! Observability end to end: metrics and trace events from the executor
//! and the store.
//!
//! Rewrites a batch, evaluates it over a fault-injected, instrumented
//! store with an `ExecObserver` attached —
//! tracing through a `BoundedSink`, so the emitting threads pay a queue
//! handoff instead of sink I/O — then prints the metrics registry (with
//! the sink's own `obs.*` ledger), appends the snapshot to the trace as
//! `metrics.*` events, and proves observation is free of side effects by
//! comparing the estimates against an unobserved run bit for bit.
//!
//! Run with: `cargo run --example observed_run`

use std::sync::Arc;

use batchbb::prelude::*;

fn main() {
    // Data and preprocessed wavelet view.
    let shape = Shape::new(vec![32, 32]).unwrap();
    let data = Tensor::from_fn(shape.clone(), |ix| ((ix[0] * 5 + ix[1]) % 9) as f64);
    let strategy = WaveletStrategy::new(Wavelet::Haar);
    let store = MemoryStore::from_entries(strategy.transform_data(&data));
    let n_total = shape.len();
    let k = store.abs_sum();

    // Everything records into ONE registry and ONE event sink — a bounded
    // queue draining to memory off-thread, the production shape (swap the
    // MemorySink for a JsonlSink over a file and nothing else changes).
    let registry = Arc::new(MetricsRegistry::new());
    let inner = Arc::new(MemorySink::new());
    let sink = Arc::new(
        BoundedSink::builder()
            .registry(registry.clone())
            .build(inner.clone()),
    );

    let queries: Vec<RangeSum> = (0..8)
        .map(|i| RangeSum::count(HyperRect::new(vec![0, i * 4], vec![31, i * 4 + 3])))
        .collect();
    let batch = BatchQueries::rewrite(&strategy, queries, &shape).unwrap();

    // Observed progressive evaluation over an instrumented, fault-injected
    // store (one permanently broken coefficient).
    let broken = {
        let mut probe = ProgressiveExecutor::new(&batch, &Sse, &store);
        probe.step().unwrap().key
    };
    let flaky = FaultInjectingStore::new(
        &store,
        FaultPlan::new(42)
            .with_transient_rate(0.2)
            .with_permanent_keys([broken]),
    );
    let instrumented = InstrumentedStore::new(flaky)
        .with_registry(registry.clone())
        .with_sink(sink.clone());

    let exec_obs = ExecObserver::new(sink.clone())
        .with_registry(registry.clone())
        .with_bounds(n_total, k);
    let mut exec = ProgressiveExecutor::new(&batch, &Sse, &instrumented).with_observer(exec_obs);
    let policy = RetryPolicy::default();
    let status = exec.drain_with_faults(&policy);
    println!("first drain            : {status:?}");
    instrumented.inner().heal();
    let status = exec.drain_with_faults(&policy);
    println!("after heal             : {status:?}");

    // Observation is read-only: an unobserved run lands on the same bits.
    let mut plain = ProgressiveExecutor::new(&batch, &Sse, &store);
    plain.run_to_end();
    assert_eq!(
        exec.estimates(),
        plain.estimates(),
        "observer changed bits!"
    );
    println!("estimates match plain  : bit for bit");

    // Flush the bounded queue conclusively; its ledger must be exact.
    sink.close();
    let stats = sink.stats();
    assert_eq!(
        stats.emitted,
        stats.written + stats.dropped,
        "bounded-sink ledger out of balance: {stats:?}"
    );
    println!(
        "bounded sink           : {} emitted = {} written + {} dropped",
        stats.emitted, stats.written, stats.dropped
    );

    // The registry aggregates all components, including the sink's own
    // obs.* counters.
    let snap = registry.snapshot();
    println!("\nmetrics:");
    for (name, value) in &snap.counters {
        println!("  {name:<28} {value}");
    }
    for (name, h) in &snap.histograms {
        println!(
            "  {name:<28} n={} mean={:.0}ns p99<={}ns",
            h.count,
            h.mean(),
            h.quantile_upper_bound(0.99)
        );
    }

    // The snapshot itself exports as JSONL, so metrics and events land in
    // one trace file (`progress_report diff` compares such files).
    let mut lines = inner.lines();
    lines.extend(snap.to_jsonl_lines());
    for line in &lines {
        jsonl::parse_line(line).expect("every trace line re-parses");
    }

    // And the trace is replayable JSONL (see `progress_report` in
    // batchbb-bench for the full table + invariant checks).
    println!("\ntrace: {} events; first and last three:", lines.len());
    for line in lines.iter().take(3) {
        println!("  {line}");
    }
    println!("  ...");
    for line in lines.iter().skip(lines.len().saturating_sub(3)) {
        println!("  {line}");
    }
}
