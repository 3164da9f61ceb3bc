//! Observability hooks for the progressive pipeline.
//!
//! Every evaluation engine in this crate — [`crate::ProgressiveExecutor`],
//! the [`crate::round_robin::RoundRobin`] baseline, and the bounded
//! two-pass variant in [`crate::bounded`] — can carry an [`ExecObserver`]
//! that emits one uniform event schema per retrieval, so trajectories from
//! different engines are directly comparable (and replayable by the
//! `progress_report` harness in `batchbb-bench`).  Query rewriting is
//! observed separately through [`RewriteObserver`].
//!
//! Observation is strictly read-only: with the default
//! [`batchbb_obs::NullSink`] the instrumented paths produce output
//! bit-for-bit identical to uninstrumented runs (the e2e tests pin this
//! down).  The full event schema is documented in DESIGN.md §8.

use std::sync::Arc;

use batchbb_obs::{
    span_end_event, span_start_event, Counter, Event, EventSink, Gauge, Histogram, Lifecycle,
    MetricsRegistry, NullSink, Phase, PhaseGuard, SpanTimer,
};
use batchbb_storage::{FaultStats, StorageError};
use batchbb_tensor::CoeffKey;

use crate::StepInfo;

/// What one observed retrieval step looked like, as reported by an engine
/// to [`ExecObserver::on_step`].
///
/// Engines that do not track a quantity pass `f64::NAN` (for the
/// importance masses) or `None` (for the unresolved maximum); the
/// corresponding event fields are then omitted rather than fabricated.
pub(crate) struct StepObservation<'a> {
    /// `"retrieved"` for progression progress, `"recovered"` for a deferred
    /// coefficient that finally resolved.
    pub kind: &'static str,
    /// The retrieval itself.
    pub info: &'a StepInfo,
    /// Coefficients still pending in normal progression order.
    pub pending: usize,
    /// Coefficients parked in the deferral queue.
    pub deferred: usize,
    /// Σ ι_p over pending coefficients (NaN when untracked).
    pub remaining_importance: f64,
    /// Σ ι_p over deferred coefficients (NaN when untracked).
    pub deferred_importance: f64,
    /// `max ι_p` over pending ∪ deferred, `None` once exact (Theorem 1's
    /// `ι_p(ξ′)`); engines without importance tracking also pass `None`
    /// *with* NaN masses, which suppresses the bound fields entirely.
    pub max_unresolved: Option<f64>,
    /// The penalty's homogeneity degree α (for `K^α`).
    pub homogeneity: f64,
    /// Cumulative retrievals, including this one.
    pub retrieved: usize,
    /// Cumulative fault counters after this step.
    pub fault: FaultStats,
    /// Wall-clock nanoseconds the retrieval took (store time only).
    pub latency_ns: u64,
}

/// Observer attached to an evaluation engine: counts and times every
/// retrieval into a [`MetricsRegistry`] and emits `exec.*` trace events to
/// an [`EventSink`].
///
/// The default sink is [`NullSink`], which disables event construction
/// entirely; metrics are always maintained (they are a handful of relaxed
/// atomic adds per step).
pub struct ExecObserver {
    sink: Arc<dyn EventSink>,
    registry: Arc<MetricsRegistry>,
    engine: &'static str,
    n_total: Option<usize>,
    k_abs_sum: Option<f64>,
    lifecycle: Option<Lifecycle>,
    steps: Counter,
    deferrals: Counter,
    recoveries: Counter,
    prefetch_batches: Counter,
    prefetch_keys: Counter,
    parks: Counter,
    pending_depth: Gauge,
    deferred_depth: Gauge,
    step_ns: Histogram,
    prefetch_ns: Histogram,
}

impl ExecObserver {
    /// An observer emitting to `sink`, with a fresh private registry and
    /// the `"progressive"` engine label.
    pub fn new(sink: Arc<dyn EventSink>) -> Self {
        Self::build(sink, Arc::new(MetricsRegistry::new()), "progressive")
    }

    /// An observer that records metrics but emits no events.
    pub fn metrics_only() -> Self {
        Self::new(Arc::new(NullSink))
    }

    fn build(
        sink: Arc<dyn EventSink>,
        registry: Arc<MetricsRegistry>,
        engine: &'static str,
    ) -> Self {
        let metric = |suffix: &str| format!("{engine}.{suffix}");
        ExecObserver {
            steps: registry.counter(&metric("steps")),
            deferrals: registry.counter(&metric("deferrals")),
            recoveries: registry.counter(&metric("recoveries")),
            prefetch_batches: registry.counter(&metric("prefetch.batches")),
            prefetch_keys: registry.counter(&metric("prefetch.keys")),
            parks: registry.counter(&metric("parks")),
            pending_depth: registry.gauge(&metric("pending")),
            deferred_depth: registry.gauge(&metric("deferred")),
            step_ns: registry.histogram(&metric("step_ns")),
            prefetch_ns: registry.histogram(&metric("prefetch_ns")),
            sink,
            registry,
            engine,
            n_total: None,
            k_abs_sum: None,
            lifecycle: None,
        }
    }

    /// Uses `registry` (shared with other components) instead of a private
    /// one. Metric names are re-registered under the current engine label.
    pub fn with_registry(self, registry: Arc<MetricsRegistry>) -> Self {
        let mut built = Self::build(self.sink, registry, self.engine);
        built.n_total = self.n_total;
        built.k_abs_sum = self.k_abs_sum;
        built.lifecycle = self.lifecycle;
        built
    }

    /// Relabels the engine (`"progressive"`, `"round_robin"`, `"bounded"`,
    /// …); the label prefixes metric names and tags every event.
    pub fn with_engine(self, engine: &'static str) -> Self {
        let mut built = Self::build(self.sink, self.registry, engine);
        built.n_total = self.n_total;
        built.k_abs_sum = self.k_abs_sum;
        built.lifecycle = self.lifecycle;
        built
    }

    /// Attaches the batch's lifecycle recorder (causal tracing, DESIGN.md
    /// §14). The executor then carves [`Phase::StoreWait`] out of the
    /// batch's executing time around every store call and emits a
    /// `prefetch` span per prefetch window under the batch's root span.
    /// Without this the tracing sites stay `None`-guarded no-ops.
    pub fn with_lifecycle(mut self, lifecycle: Lifecycle) -> Self {
        self.lifecycle = Some(lifecycle);
        self
    }

    /// Enables the per-step penalty-bound fields: `n_total` is the domain
    /// size `N^d` (Theorem 2's denominator) and `k_abs_sum` the data's
    /// coefficient ℓ¹-norm `K` (Theorem 1's scale factor).
    pub fn with_bounds(mut self, n_total: usize, k_abs_sum: f64) -> Self {
        assert!(n_total > 1, "need a non-trivial domain");
        self.n_total = Some(n_total);
        self.k_abs_sum = Some(k_abs_sum);
        self
    }

    /// The registry this observer records into.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The sink this observer emits to.
    pub fn sink(&self) -> &Arc<dyn EventSink> {
        &self.sink
    }

    /// Starts a span timer — but only when someone will look at the
    /// reading, so unobserved paths never touch the clock.
    pub(crate) fn maybe_timer(observer: &Option<ExecObserver>) -> Option<SpanTimer> {
        observer.as_ref().map(|_| SpanTimer::start())
    }

    /// Brackets a store call as [`Phase::StoreWait`] in the batch's
    /// lifecycle: the guard enters the phase now and restores the previous
    /// phase (normally `Executing`) when dropped. `None` — a free no-op —
    /// unless a lifecycle recorder is attached.
    pub(crate) fn store_wait_scope(observer: &Option<ExecObserver>) -> Option<PhaseGuard> {
        observer
            .as_ref()
            .and_then(|o| o.lifecycle.as_ref())
            .map(|lifecycle| PhaseGuard::enter(lifecycle, Phase::StoreWait))
    }

    pub(crate) fn on_start(&self, batch_size: usize, coefficients: usize) {
        if !self.sink.enabled() {
            return;
        }
        self.sink.emit(
            &Event::new("exec.start")
                .str("engine", self.engine)
                .u64("batch", batch_size as u64)
                .u64("coefficients", coefficients as u64)
                .f64_finite(
                    "n_total",
                    self.n_total.map(|n| n as f64).unwrap_or(f64::NAN),
                )
                .f64_finite("k_abs_sum", self.k_abs_sum.unwrap_or(f64::NAN)),
        );
    }

    pub(crate) fn on_step(&self, o: &StepObservation<'_>) {
        self.steps.inc();
        if o.kind == "recovered" {
            self.recoveries.inc();
        }
        self.step_ns.record(o.latency_ns);
        self.pending_depth.set(o.pending as i64);
        self.deferred_depth.set(o.deferred as i64);
        if !self.sink.enabled() {
            return;
        }
        let unresolved_mass = o.remaining_importance + o.deferred_importance;
        let expected_penalty = match self.n_total {
            Some(n) => unresolved_mass / (n as f64 - 1.0),
            None => f64::NAN,
        };
        // Theorem 1's bound: K^α · max ι_p over everything unresolved.
        // `max_unresolved = None` means either "exact" (finite masses → the
        // bound is a genuine 0) or "not tracked" (NaN masses → omit).
        let worst_case_bound = match (self.k_abs_sum, o.max_unresolved) {
            (Some(k), Some(iota)) => k.powf(o.homogeneity) * iota,
            (Some(_), None) if unresolved_mass == 0.0 => 0.0,
            _ => f64::NAN,
        };
        self.sink.emit(
            &Event::new("exec.step")
                .str("engine", self.engine)
                .str("kind", o.kind)
                .u64("step", o.retrieved as u64)
                .str("key", o.info.key.to_string())
                .f64("importance", o.info.importance)
                .f64("value", o.info.value)
                .u64("queries", o.info.queries_advanced as u64)
                .u64("pending", o.pending as u64)
                .u64("deferred", o.deferred as u64)
                .f64_finite("remaining_iota", o.remaining_importance)
                .f64_finite("deferred_iota", o.deferred_importance)
                .f64_finite("expected_penalty", expected_penalty)
                .f64_finite("worst_case_bound", worst_case_bound)
                .u64("attempts", o.fault.attempts)
                .u64("retries", o.fault.retries)
                .u64("backoff_ticks", o.fault.backoff_ticks)
                .u64("latency_ns", o.latency_ns),
        );
    }

    /// One batched prefetch of `batch` coefficients (`ok = false` when the
    /// fetch failed as a whole and the executor fell back to singleton
    /// retrievals).
    pub(crate) fn on_prefetch(&self, batch: usize, ok: bool, latency_ns: u64) {
        self.prefetch_batches.inc();
        self.prefetch_keys.add(batch as u64);
        self.prefetch_ns.record(latency_ns);
        if !self.sink.enabled() {
            return;
        }
        self.sink.emit(
            &Event::new("exec.prefetch")
                .str("engine", self.engine)
                .u64("batch", batch as u64)
                .bool("ok", ok)
                .u64("latency_ns", latency_ns),
        );
        // With a lifecycle attached, the prefetch window also lands as a
        // causal span under the batch's root: the window resolved *now*
        // and covered `latency_ns` (the overlap latency for parked async
        // fetches), so its start is reconstructed backwards.
        if let Some(lifecycle) = &self.lifecycle {
            if let Ok(recorder) = lifecycle.lock() {
                let tracer = recorder.tracer();
                let ctx = tracer.child_context(recorder.root_span());
                let end = tracer.now_ns();
                let start = end.saturating_sub(latency_ns);
                self.sink.emit(
                    &span_start_event("prefetch", ctx, start)
                        .u64("keys", batch as u64)
                        .bool("ok", ok),
                );
                self.sink.emit(&span_end_event(ctx, end));
            }
        }
    }

    /// A batched prefetch of `batch` coefficients was submitted to an
    /// asynchronous store and is still in flight: the executor parked
    /// instead of blocking.  `heap` is what remains in normal progression
    /// order behind the parked entries.  Only genuinely asynchronous
    /// stores produce these — synchronous runs emit no `exec.park`.
    pub(crate) fn on_park(&self, batch: usize, heap: usize) {
        self.parks.inc();
        if !self.sink.enabled() {
            return;
        }
        self.sink.emit(
            &Event::new("exec.park")
                .str("engine", self.engine)
                .u64("batch", batch as u64)
                .u64("heap", heap as u64),
        );
    }

    /// The parked prefetch of `batch` coefficients landed and the executor
    /// resumed; the matching `exec.prefetch` record (with the overlap
    /// latency and the batch verdict) follows immediately.
    pub(crate) fn on_resume(&self, batch: usize) {
        if !self.sink.enabled() {
            return;
        }
        self.sink.emit(
            &Event::new("exec.resume")
                .str("engine", self.engine)
                .u64("batch", batch as u64),
        );
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_defer(
        &self,
        key: &CoeffKey,
        importance: f64,
        error: &StorageError,
        first: bool,
        deferred: usize,
        fault: &FaultStats,
    ) {
        if first {
            self.deferrals.inc();
        }
        self.deferred_depth.set(deferred as i64);
        if !self.sink.enabled() {
            return;
        }
        self.sink.emit(
            &Event::new("exec.defer")
                .str("engine", self.engine)
                .str("key", key.to_string())
                .f64("importance", importance)
                .str("error", error.class())
                .bool("first", first)
                .u64("deferred", deferred as u64)
                .u64("attempts", fault.attempts)
                .u64("retries", fault.retries),
        );
    }

    pub(crate) fn on_finish(
        &self,
        status: &str,
        retrieved: usize,
        exact: bool,
        fault: &FaultStats,
    ) {
        if !self.sink.enabled() {
            return;
        }
        self.sink.emit(
            &Event::new("exec.finish")
                .str("engine", self.engine)
                .str("status", status)
                .u64("retrieved", retrieved as u64)
                .bool("exact", exact)
                .u64("attempts", fault.attempts)
                .u64("successes", fault.successes)
                .u64("transient_failures", fault.transient_failures)
                .u64("permanent_failures", fault.permanent_failures)
                .u64("retries", fault.retries)
                .u64("deferrals", fault.deferrals)
                .u64("recoveries", fault.recoveries)
                .u64("backoff_ticks", fault.backoff_ticks),
        );
    }
}

/// Observer for the query-rewrite stage ([`crate::BatchQueries`]): per-query
/// rewrite latency and coefficient counts, plus a batch summary event.
pub struct RewriteObserver {
    sink: Arc<dyn EventSink>,
    registry: Arc<MetricsRegistry>,
    queries: Counter,
    coefficients: Counter,
    query_ns: Histogram,
}

impl RewriteObserver {
    /// An observer emitting to `sink` with a fresh private registry.
    pub fn new(sink: Arc<dyn EventSink>) -> Self {
        Self::build(sink, Arc::new(MetricsRegistry::new()))
    }

    fn build(sink: Arc<dyn EventSink>, registry: Arc<MetricsRegistry>) -> Self {
        RewriteObserver {
            queries: registry.counter("rewrite.queries"),
            coefficients: registry.counter("rewrite.coefficients"),
            query_ns: registry.histogram("rewrite.query_ns"),
            sink,
            registry,
        }
    }

    /// Uses `registry` (shared with other components) instead of a private
    /// one.
    pub fn with_registry(self, registry: Arc<MetricsRegistry>) -> Self {
        Self::build(self.sink, registry)
    }

    /// The registry this observer records into.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    pub(crate) fn on_query(&self, qi: usize, coefficients: usize, latency_ns: u64) {
        self.queries.inc();
        self.coefficients.add(coefficients as u64);
        self.query_ns.record(latency_ns);
        if !self.sink.enabled() {
            return;
        }
        self.sink.emit(
            &Event::new("rewrite.query")
                .u64("query", qi as u64)
                .u64("coefficients", coefficients as u64)
                .u64("latency_ns", latency_ns),
        );
    }

    pub(crate) fn on_batch(
        &self,
        queries: usize,
        total_coefficients: usize,
        threads: usize,
        latency_ns: u64,
    ) {
        if !self.sink.enabled() {
            return;
        }
        self.sink.emit(
            &Event::new("rewrite.batch")
                .u64("queries", queries as u64)
                .u64("total_coefficients", total_coefficients as u64)
                .u64("threads", threads as u64)
                .u64("latency_ns", latency_ns),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchbb_obs::MemorySink;

    #[test]
    fn observer_builders_compose() {
        let registry = Arc::new(MetricsRegistry::new());
        let obs = ExecObserver::new(Arc::new(MemorySink::new()))
            .with_engine("round_robin")
            .with_bounds(1024, 2.0)
            .with_registry(Arc::clone(&registry));
        assert!(Arc::ptr_eq(obs.registry(), &registry));
        obs.steps.inc();
        assert_eq!(registry.snapshot().counter("round_robin.steps"), Some(1));
        // Bounds survive the builder chain.
        assert_eq!(obs.n_total, Some(1024));
        assert_eq!(obs.k_abs_sum, Some(2.0));
    }

    #[test]
    fn metrics_only_observer_emits_nothing() {
        let obs = ExecObserver::metrics_only();
        assert!(!obs.sink().enabled());
        obs.on_start(4, 100);
        obs.on_finish("exact", 100, true, &FaultStats::default());
        assert_eq!(
            obs.registry().snapshot().counter("progressive.steps"),
            Some(0)
        );
    }

    #[test]
    fn defer_event_carries_error_class() {
        let sink = Arc::new(MemorySink::new());
        let obs = ExecObserver::new(sink.clone());
        let key = CoeffKey::one(3);
        obs.on_defer(
            &key,
            0.5,
            &StorageError::Permanent { key },
            true,
            1,
            &FaultStats::default(),
        );
        let line = sink.lines().pop().unwrap();
        let parsed = batchbb_obs::jsonl::parse_line(&line).unwrap();
        assert_eq!(parsed.name(), "exec.defer");
        assert_eq!(parsed.str("error"), Some("permanent"));
        assert_eq!(parsed.bool("first"), Some(true));
    }

    #[test]
    fn rewrite_observer_counts_queries_and_coefficients() {
        let sink = Arc::new(MemorySink::new());
        let obs = RewriteObserver::new(sink.clone());
        obs.on_query(0, 10, 100);
        obs.on_query(1, 20, 200);
        obs.on_batch(2, 30, 1, 500);
        let snap = obs.registry().snapshot();
        assert_eq!(snap.counter("rewrite.queries"), Some(2));
        assert_eq!(snap.counter("rewrite.coefficients"), Some(30));
        assert_eq!(snap.histogram("rewrite.query_ns").unwrap().count, 2);
        assert_eq!(sink.len(), 3);
    }
}
