//! Observability hooks for the progressive pipeline.
//!
//! Both engines in this crate — [`crate::ProgressiveExecutor`] and the
//! [`crate::round_robin::RoundRobin`] baseline, which drives one executor
//! per query — can carry an
//! [`ExecObserver`] that emits one uniform event schema per retrieval, so
//! trajectories from the two are directly comparable (and replayable by the
//! `progress_report` harness in `batchbb-bench`).
//!
//! Observation is strictly read-only: with the default
//! [`batchbb_obs::NullSink`] the instrumented paths produce output
//! bit-for-bit identical to uninstrumented runs (the e2e tests pin this
//! down).  The full event schema is documented in DESIGN.md §8.

use std::sync::Arc;

use batchbb_obs::{Counter, Event, EventSink, Histogram, MetricsRegistry, NullSink, SpanTimer};
use batchbb_storage::FaultStats;
use batchbb_tensor::CoeffKey;

use crate::optimality::{theorem1_bound, theorem2_penalty};
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
    bounds: Option<(usize, f64)>,
    batch: Option<u64>,
    steps: Counter,
    deferrals: Counter,
    step_ns: Histogram,
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
            step_ns: registry.histogram(&metric("step_ns")),
            sink,
            registry,
            engine,
            bounds: None,
            batch: None,
        }
    }

    /// Re-registers the metric handles under `registry` and `engine`,
    /// keeping every other setting.
    fn rebuild(self, registry: Arc<MetricsRegistry>, engine: &'static str) -> Self {
        ExecObserver {
            bounds: self.bounds,
            batch: self.batch,
            ..Self::build(self.sink, registry, engine)
        }
    }

    /// Uses `registry` (shared with other components) instead of a private
    /// one. Metric names are re-registered under the current engine label.
    pub fn with_registry(self, registry: Arc<MetricsRegistry>) -> Self {
        let engine = self.engine;
        self.rebuild(registry, engine)
    }

    /// Relabels the engine (`"progressive"`, `"round_robin"`, `"serve"`,
    /// …); the label prefixes metric names and tags every event.
    pub fn with_engine(self, engine: &'static str) -> Self {
        let registry = Arc::clone(&self.registry);
        self.rebuild(registry, engine)
    }

    /// Labels every event with `batch = index`, as its last field, so
    /// several engines sharing one sink (a serve pool's batches) stay
    /// separable in the trace.
    pub fn with_batch(mut self, index: u64) -> Self {
        self.batch = Some(index);
        self
    }

    /// Enables the per-step penalty-bound fields: `n_total` is the domain
    /// size `N^d` (Theorem 2's denominator) and `k_abs_sum` the data's
    /// coefficient ℓ¹-norm `K` (Theorem 1's scale factor).
    pub fn with_bounds(mut self, n_total: usize, k_abs_sum: f64) -> Self {
        assert!(n_total > 1, "need a non-trivial domain");
        assert!(
            k_abs_sum >= 0.0 && k_abs_sum.is_finite(),
            "K must be finite and non-negative"
        );
        self.bounds = Some((n_total, k_abs_sum));
        self
    }

    /// Replaces `K` in the bounds set by [`ExecObserver::with_bounds`]
    /// (a no-op without them).
    pub(crate) fn reprice(&mut self, k_abs_sum: f64) {
        if let Some((_, k)) = &mut self.bounds {
            *k = k_abs_sum;
        }
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

    /// Sends one `exec.*` event, with the batch label appended last when
    /// one is set.
    fn emit(&self, event: Event) {
        let event = match self.batch {
            Some(index) => event.u64("batch", index),
            None => event,
        };
        self.sink.emit(&event);
    }

    pub(crate) fn on_start(&self, queries: usize) {
        if !self.sink.enabled() {
            return;
        }
        self.emit(
            Event::new("exec.start")
                .str("engine", self.engine)
                .u64("queries", queries as u64),
        );
    }

    pub(crate) fn on_step(&self, o: &StepObservation<'_>) {
        self.steps.inc();
        self.step_ns.record(o.latency_ns);
        if !self.sink.enabled() {
            return;
        }
        let unresolved_mass = o.remaining_importance + o.deferred_importance;
        let expected_penalty = self
            .bounds
            .map_or(f64::NAN, |(n, _)| theorem2_penalty(unresolved_mass, n));
        // Theorem 1's bound: K^α · max ι_p over everything unresolved.
        // `max_unresolved = None` means either "exact" (finite masses → the
        // bound is a genuine 0) or "not tracked" (NaN masses → omit).
        let worst_case_bound = match (self.bounds, o.max_unresolved) {
            (Some((_, k)), Some(iota)) => theorem1_bound(k, o.homogeneity, iota),
            (Some(_), None) if unresolved_mass == 0.0 => 0.0,
            _ => f64::NAN,
        };
        self.emit(
            Event::new("exec.step")
                .str("engine", self.engine)
                .str("kind", o.kind)
                .u64("step", o.retrieved as u64)
                .str("key", o.info.key.to_string())
                .f64("importance", o.info.importance)
                .u64("pending", o.pending as u64)
                .u64("deferred", o.deferred as u64)
                .f64_finite("expected_penalty", expected_penalty)
                .f64_finite("worst_case_bound", worst_case_bound)
                .u64("attempts", o.fault.attempts)
                .u64("retries", o.fault.retries),
        );
    }

    pub(crate) fn on_defer(
        &self,
        key: &CoeffKey,
        importance: f64,
        first: bool,
        deferred: usize,
        fault: &FaultStats,
    ) {
        if first {
            self.deferrals.inc();
        }
        if !self.sink.enabled() {
            return;
        }
        self.emit(
            Event::new("exec.defer")
                .str("engine", self.engine)
                .str("key", key.to_string())
                .f64("importance", importance)
                .bool("first", first)
                .u64("deferred", deferred as u64)
                .u64("attempts", fault.attempts)
                .u64("retries", fault.retries),
        );
    }

    pub(crate) fn on_finish(&self, status: &str, retrieved: usize, fault: &FaultStats) {
        if !self.sink.enabled() {
            return;
        }
        self.emit(
            Event::new("exec.finish")
                .str("engine", self.engine)
                .str("status", status)
                .u64("retrieved", retrieved as u64)
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
        assert_eq!(obs.bounds, Some((1024, 2.0)));
    }

    #[test]
    fn metrics_only_observer_emits_nothing() {
        let obs = ExecObserver::metrics_only();
        assert!(!obs.sink().enabled());
        obs.on_start(4);
        obs.on_finish("exact", 100, &FaultStats::default());
        assert_eq!(
            obs.registry().snapshot().counter("progressive.steps"),
            Some(0)
        );
    }
}
