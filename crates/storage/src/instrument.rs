//! A metrics-and-tracing wrapper for any [`CoefficientStore`].
//!
//! [`InstrumentedStore`] sits between an evaluation engine and the real
//! store: every key read is timed into the `store.try_get_ns` latency
//! histogram and counted as a hit (the key held a value) or a miss
//! (absent ⇒ zero).  Failures are classified per [`StorageError::class`] into
//! `store.fault.{transient,permanent,io}` counters, and — when an event
//! sink is attached — emit one `store.fault` trace event each.  Successful
//! retrievals emit *no* events: at one event per retrieval the trace would
//! dwarf the executor's own, and the executor already records per-step
//! retrieval latency.
//!
//! Wrapping is observation-only: values, errors, and the inner store's own
//! [`IoStats`] accounting pass through unchanged.

use std::sync::Arc;

use batchbb_obs::{Counter, Event, EventSink, Histogram, MetricsRegistry, NullSink, SpanTimer};
use batchbb_tensor::CoeffKey;

use crate::{CoefficientStore, Completion, IoStats, StorageError};

/// Wraps a [`CoefficientStore`] with latency histograms, hit/miss/fault
/// counters, and optional `store.fault` trace events.
pub struct InstrumentedStore<S> {
    inner: S,
    sink: Arc<dyn EventSink>,
    registry: Arc<MetricsRegistry>,
    try_get_ns: Histogram,
    hits: Counter,
    misses: Counter,
    transient: Counter,
    permanent: Counter,
    io: Counter,
}

impl<S: CoefficientStore> InstrumentedStore<S> {
    /// Wraps `inner` with a fresh private registry and no event sink.
    pub fn new(inner: S) -> Self {
        Self::build(inner, Arc::new(NullSink), Arc::new(MetricsRegistry::new()))
    }

    fn build(inner: S, sink: Arc<dyn EventSink>, registry: Arc<MetricsRegistry>) -> Self {
        InstrumentedStore {
            try_get_ns: registry.histogram("store.try_get_ns"),
            hits: registry.counter("store.hits"),
            misses: registry.counter("store.misses"),
            transient: registry.counter("store.fault.transient"),
            permanent: registry.counter("store.fault.permanent"),
            io: registry.counter("store.fault.io"),
            inner,
            sink,
            registry,
        }
    }

    /// Records into `registry` (shared with other components) instead of a
    /// private one.
    pub fn with_registry(self, registry: Arc<MetricsRegistry>) -> Self {
        Self::build(self.inner, self.sink, registry)
    }

    /// Emits `store.fault` events to `sink` (the default no-op sink emits
    /// nothing).
    pub fn with_sink(self, sink: Arc<dyn EventSink>) -> Self {
        Self::build(self.inner, sink, self.registry)
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The registry this wrapper records into.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    fn count_value(&self, value: &Option<f64>) {
        if value.is_some() {
            self.hits.inc();
        } else {
            self.misses.inc();
        }
    }

    fn count_error(&self, key: &CoeffKey, error: &StorageError) {
        match error {
            StorageError::Transient { .. } => self.transient.inc(),
            StorageError::Permanent { .. } => self.permanent.inc(),
            StorageError::Io { .. } => self.io.inc(),
        }
        if self.sink.enabled() {
            self.sink.emit(
                &Event::new("store.fault")
                    .str("key", key.to_string())
                    .str("error", error.class()),
            );
        }
    }
}

impl<S: CoefficientStore> CoefficientStore for InstrumentedStore<S> {
    /// The wrapper's one read body, key by key ([`Completion::per_key`])
    /// rather than forwarded to the inner store's batched path: each key
    /// gets its own `store.try_get_ns` sample and hit/miss/fault
    /// classification, so the histograms and counters are byte-identical
    /// however callers batch.  Instrumentation trades away inner batching
    /// (and asynchrony) for per-key observability — wrap the instrumented
    /// store *inside* a batching wrapper or an engine if both are wanted.
    fn submit(&self, keys: &[CoeffKey]) -> Completion {
        Completion::per_key(keys, |key| {
            let timer = SpanTimer::start();
            let result = self.inner.try_get(key);
            timer.finish(&self.try_get_ns);
            match &result {
                Ok(value) => self.count_value(value),
                Err(error) => self.count_error(key, error),
            }
            result
        })
    }

    fn quiesce(&self) {
        self.inner.quiesce()
    }

    fn version_tag(&self) -> u64 {
        self.inner.version_tag()
    }

    fn nnz(&self) -> usize {
        self.inner.nnz()
    }

    fn stats(&self) -> IoStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultInjectingStore, FaultPlan, MemoryStore};
    use batchbb_obs::MemorySink;

    fn inner() -> MemoryStore {
        MemoryStore::from_entries([
            (CoeffKey::new(&[0, 0]), 12.5),
            (CoeffKey::new(&[1, 3]), -2.0),
        ])
    }

    #[test]
    fn counts_hits_misses_and_latency() {
        let store = InstrumentedStore::new(inner());
        assert_eq!(store.get(&CoeffKey::new(&[0, 0])), Some(12.5));
        assert_eq!(store.get(&CoeffKey::new(&[9, 9])), None);
        assert_eq!(store.try_get(&CoeffKey::new(&[1, 3])), Ok(Some(-2.0)));
        let snap = store.registry().snapshot();
        assert_eq!(snap.counter("store.hits"), Some(2));
        assert_eq!(snap.counter("store.misses"), Some(1));
        assert_eq!(snap.histogram("store.try_get_ns").unwrap().count, 3);
        // Inner accounting passes through: 3 logical retrievals.
        assert_eq!(store.stats().retrievals, 3);
        assert_eq!(store.nnz(), 2);
    }

    #[test]
    fn classifies_faults_and_emits_events() {
        let sink = Arc::new(MemorySink::new());
        let broken = CoeffKey::new(&[1, 3]);
        let faulty =
            FaultInjectingStore::new(inner(), FaultPlan::new(3).with_permanent_keys([broken]));
        let store = InstrumentedStore::new(faulty).with_sink(sink.clone());
        assert!(store.try_get(&broken).is_err());
        assert_eq!(store.try_get(&CoeffKey::new(&[0, 0])), Ok(Some(12.5)));
        let snap = store.registry().snapshot();
        assert_eq!(snap.counter("store.fault.permanent"), Some(1));
        assert_eq!(snap.counter("store.fault.transient"), Some(0));
        assert_eq!(snap.counter("store.hits"), Some(1));
        let lines = sink.lines();
        assert_eq!(lines.len(), 1, "successes must not emit events");
        let parsed = batchbb_obs::jsonl::parse_line(&lines[0]).unwrap();
        assert_eq!(parsed.name(), "store.fault");
        assert_eq!(parsed.str("error"), Some("permanent"));
    }

    #[test]
    fn observation_leaves_values_unchanged() {
        let plain = inner();
        let wrapped = InstrumentedStore::new(inner());
        for key in [
            CoeffKey::new(&[0, 0]),
            CoeffKey::new(&[1, 3]),
            CoeffKey::new(&[7, 7]),
        ] {
            assert_eq!(plain.get(&key), wrapped.get(&key));
            assert_eq!(plain.try_get(&key), wrapped.try_get(&key));
        }
    }
}
