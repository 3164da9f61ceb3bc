//! Criterion benchmark for the observability pipeline itself: the
//! per-event cost of each [`EventSink`] on the emitting thread
//! (DESIGN.md §8's "observation must not perturb the observed" budget).
//! Print-only. What tracing costs a whole serve is the ledger's
//! `obs.trace_overhead_ratio` and `obs.span_events_per_batch`
//! (`bench_e2e --trace 1`), measured at the design size.
//!
//! Sinks compared: [`NullSink`] (schema cost only), [`MemorySink`]
//! (serialize + lock), [`JsonlSink`] over a discarding writer (serialize +
//! write), and [`BoundedSink`] draining to the same JSONL writer
//! off-thread (queue handoff on the hot path).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use batchbb_obs::{BoundedSink, Event, EventSink, JsonlSink, MemorySink, NullSink};

/// The sinks under comparison, in increasing ambition.
fn sink_variants() -> Vec<(&'static str, Arc<dyn EventSink>)> {
    vec![
        ("null", Arc::new(NullSink) as Arc<dyn EventSink>),
        ("memory", Arc::new(MemorySink::new())),
        ("jsonl_devnull", Arc::new(JsonlSink::new(std::io::sink()))),
        (
            "bounded_jsonl",
            Arc::new(BoundedSink::builder().build(Arc::new(JsonlSink::new(std::io::sink())))),
        ),
    ]
}

/// A representative `exec.step` event (the hot-path shape: several numeric
/// fields plus a key string).
fn step_event(i: u64) -> Event {
    Event::new("exec.step")
        .str("engine", "bench")
        .u64("step", i)
        .str("key", "3.1.4/1.5.9")
        .f64("importance", 2.75)
        .u64("pending", 1000 - (i % 1000))
        .f64("worst_case_bound", 1e6 / (i + 1) as f64)
        .f64("expected_penalty", 1e3 / (i + 1) as f64)
}

/// Raw emit throughput per sink: the cost the *emitting* thread pays per
/// event, with no executor around it.
fn bench_emit_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("obs_emit_per_event");
    for (name, sink) in sink_variants() {
        g.bench_with_input(BenchmarkId::new("sink", name), &sink, |b, sink| {
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                sink.emit(&step_event(i));
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_emit_throughput);
criterion_main!(benches);
