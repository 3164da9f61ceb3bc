//! The round-robin single-query baseline (§2.2).
//!
//! "One simple solution is to use s instances of the single query
//! evaluation technique, and advance them in a round-robin fashion. This
//! turns out to waste a tremendous amount of I/O."  Each query runs its own
//! biggest-B progression (ordered by its own `|q̂ᵢ[ξ]|²`), retrieving its
//! coefficients independently — shared coefficients are fetched once *per
//! query* instead of once per batch.

use std::collections::VecDeque;

use batchbb_storage::{
    retry::get_with_retry, CoefficientStore, FaultStats, RetryPolicy, StorageError,
};
use batchbb_tensor::CoeffKey;

use crate::observe::{ExecObserver, StepObservation};
use crate::{BatchQueries, StepInfo};

/// One query's private progression state.
struct SingleQuery {
    /// Coefficients sorted by decreasing |value| (single-query biggest-B,
    /// i.e. ProPolyne's progression order).
    plan: Vec<(CoeffKey, f64)>,
    cursor: usize,
    estimate: f64,
    /// This query's coefficients whose retrieval exhausted its retries, as
    /// indices into `plan` (per-query queue keeps the baseline fair: a
    /// broken coefficient stalls only the query that needs it).
    deferred: VecDeque<usize>,
}

/// Round-robin evaluation of a batch using independent single-query
/// instances.
pub struct RoundRobin<'a> {
    store: &'a dyn CoefficientStore,
    queries: Vec<SingleQuery>,
    retrievals: u64,
    next: usize,
    fault: FaultStats,
    observer: Option<ExecObserver>,
}

impl<'a> RoundRobin<'a> {
    /// Builds per-query plans from a rewritten batch.
    pub fn new(batch: &BatchQueries, store: &'a dyn CoefficientStore) -> Self {
        let queries = batch
            .coefficients()
            .iter()
            .map(|coeffs| {
                let mut plan: Vec<(CoeffKey, f64)> = coeffs.entries().to_vec();
                plan.sort_by(|a, b| {
                    (b.1 * b.1)
                        .total_cmp(&(a.1 * a.1))
                        .then_with(|| a.0.cmp(&b.0))
                });
                SingleQuery {
                    plan,
                    cursor: 0,
                    estimate: 0.0,
                    deferred: VecDeque::new(),
                }
            })
            .collect();
        RoundRobin {
            store,
            queries,
            retrievals: 0,
            next: 0,
            fault: FaultStats::default(),
            observer: None,
        }
    }

    /// Attaches an observer (relabelled to the `"round_robin"` engine) so
    /// baseline runs emit the same `exec.*` schema as the batch executor.
    /// The baseline does not track importance masses, so the penalty-bound
    /// fields are omitted from its step events.
    pub fn with_observer(mut self, observer: ExecObserver) -> Self {
        let observer = observer.with_engine("round_robin");
        let total: usize = self.queries.iter().map(|q| q.plan.len()).sum();
        observer.on_start(self.queries.len(), total);
        self.observer = Some(observer);
        self
    }

    /// The attached observer, if any.
    pub fn observer(&self) -> Option<&ExecObserver> {
        self.observer.as_ref()
    }

    /// Plan entries not yet attempted, across all queries.
    fn pending_count(&self) -> usize {
        self.queries.iter().map(|q| q.plan.len() - q.cursor).sum()
    }

    fn observe_step(
        &self,
        kind: &'static str,
        key: CoeffKey,
        coeff: f64,
        value: f64,
        latency_ns: u64,
    ) {
        if let Some(obs) = &self.observer {
            // Single-query biggest-B importance is |q̂ᵢ[ξ]|²; batch-wide
            // masses are untracked (NaN ⇒ bound fields omitted).
            let info = StepInfo {
                key,
                importance: coeff * coeff,
                value,
                queries_advanced: 1,
            };
            obs.on_step(&StepObservation {
                kind,
                info: &info,
                pending: self.pending_count(),
                deferred: self.deferred_count(),
                remaining_importance: f64::NAN,
                deferred_importance: f64::NAN,
                max_unresolved: None,
                homogeneity: 2.0,
                retrieved: self.retrievals as usize,
                fault: self.fault,
                latency_ns,
            });
        }
    }

    /// Advances one query by one retrieval, cycling through the batch.
    /// Returns `false` when every query is exact.  This is
    /// [`RoundRobin::try_step`] with one attempt a key.
    ///
    /// # Panics
    ///
    /// If the retrieval fails.
    pub fn step(&mut self) -> bool {
        match self.advance(&crate::ONE_ATTEMPT) {
            Some(Err(error)) => panic!("retrieval failed: {error}"),
            advanced => advanced.is_some(),
        }
    }

    /// Runs to exact completion, returning total retrievals.
    pub fn run_to_end(&mut self) -> u64 {
        while self.step() {}
        if let Some(obs) = &self.observer {
            obs.on_finish("exact", self.retrievals as usize, true, &self.fault);
        }
        self.retrievals
    }

    /// The baseline's step: retries transient failures under `policy` and
    /// defers coefficients that keep failing onto the owning query's
    /// queue, so the baseline degrades the same way the batch executor
    /// does and comparisons under faults stay fair.
    ///
    /// Returns `false` when nothing was attempted: no query has pending
    /// work (fresh plan entries or deferred retrievals), or the policy's
    /// `total_attempt_budget` is spent.
    pub fn try_step(&mut self, policy: &RetryPolicy) -> bool {
        self.advance(policy).is_some()
    }

    /// The one stepping body: `None` when nothing was attempted, otherwise
    /// whether the attempted retrieval landed or was deferred (and why).
    fn advance(&mut self, policy: &RetryPolicy) -> Option<Result<(), StorageError>> {
        let attempts_allowed = policy.attempts_allowed(self.fault.attempts)?;
        let s = self.queries.len();
        for probe in 0..s {
            let qi = (self.next + probe) % s;
            let q = &mut self.queries[qi];
            // Fresh plan entries first; fall back to this query's deferral
            // queue once its cursor is exhausted.
            let (plan_ix, from_deferred) = if q.cursor < q.plan.len() {
                let ix = q.cursor;
                q.cursor += 1;
                (ix, false)
            } else if let Some(ix) = q.deferred.pop_front() {
                (ix, true)
            } else {
                continue;
            };
            let (key, coeff) = q.plan[plan_ix];
            let timer = ExecObserver::maybe_timer(&self.observer);
            let outcome = get_with_retry(self.store, &key, policy, attempts_allowed);
            let latency_ns = timer.map_or(0, |t| t.elapsed_ns());
            outcome.record(&mut self.fault);
            match outcome.result {
                Ok(value) => {
                    if from_deferred {
                        self.fault.recoveries += 1;
                    }
                    let value = value.unwrap_or(0.0);
                    self.queries[qi].estimate += coeff * value;
                    self.retrievals += 1;
                    self.next = (qi + 1) % s;
                    let kind = if from_deferred {
                        "recovered"
                    } else {
                        "retrieved"
                    };
                    self.observe_step(kind, key, coeff, value, latency_ns);
                    return Some(Ok(()));
                }
                Err(error) => {
                    if !from_deferred {
                        self.fault.deferrals += 1;
                    }
                    self.queries[qi].deferred.push_back(plan_ix);
                    self.next = (qi + 1) % s;
                    if let Some(obs) = &self.observer {
                        obs.on_defer(
                            &key,
                            coeff * coeff,
                            &error,
                            !from_deferred,
                            self.deferred_count(),
                            &self.fault,
                        );
                    }
                    return Some(Err(error));
                }
            }
        }
        None
    }

    /// Drives [`RoundRobin::try_step`] until every query is exact or the
    /// deferral queues stop making progress (a full cycle over the batch
    /// recovers nothing). Returns `true` when all queries finished exact.
    pub fn run_with_faults(&mut self, policy: &RetryPolicy) -> bool {
        let exact = self.fault_loop(policy);
        if let Some(obs) = &self.observer {
            let status = if exact { "exact" } else { "degraded" };
            obs.on_finish(status, self.retrievals as usize, exact, &self.fault);
        }
        exact
    }

    fn fault_loop(&mut self, policy: &RetryPolicy) -> bool {
        loop {
            if self.pending_count() > 0 {
                if !self.try_step(policy) {
                    return false; // attempt budget spent mid-plan
                }
                continue;
            }
            let deferred = self.deferred_count();
            if deferred == 0 {
                return true;
            }
            // Only deferred work remains: give every pending retrieval
            // one more round, and stop if none of them recovered (or the
            // attempt budget ran out first).
            let before = self.fault.recoveries;
            for _ in 0..deferred {
                self.try_step(policy);
            }
            if self.fault.recoveries == before {
                return false;
            }
        }
    }

    /// Coefficients currently parked on deferral queues, across all queries.
    pub fn deferred_count(&self) -> usize {
        self.queries.iter().map(|q| q.deferred.len()).sum()
    }

    /// Accumulated fault/retry counters for the fallible path.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault
    }

    /// Current progressive estimates.
    pub fn estimates(&self) -> Vec<f64> {
        self.queries.iter().map(|q| q.estimate).collect()
    }

    /// Retrievals so far.
    pub fn retrievals(&self) -> u64 {
        self.retrievals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProgressiveExecutor;
    use batchbb_penalty::Sse;
    use batchbb_query::{HyperRect, LinearStrategy, RangeSum, WaveletStrategy};
    use batchbb_storage::MemoryStore;
    use batchbb_tensor::{Shape, Tensor};
    use batchbb_wavelet::Wavelet;

    fn fixture() -> (Tensor, MemoryStore, Shape, WaveletStrategy) {
        let shape = Shape::new(vec![16, 16]).unwrap();
        let data = Tensor::from_fn(shape.clone(), |ix| ((ix[0] + 2 * ix[1]) % 4) as f64);
        let strategy = WaveletStrategy::new(Wavelet::Haar);
        let store = MemoryStore::from_entries(strategy.transform_data(&data));
        (data, store, shape, strategy)
    }

    fn queries() -> Vec<RangeSum> {
        vec![
            RangeSum::count(HyperRect::new(vec![0, 0], vec![7, 15])),
            RangeSum::count(HyperRect::new(vec![8, 0], vec![15, 15])),
            RangeSum::count(HyperRect::new(vec![4, 4], vec![11, 11])),
        ]
    }

    #[test]
    fn exact_at_completion() {
        let (data, store, shape, strategy) = fixture();
        let batch = BatchQueries::rewrite(&strategy, queries(), &shape).unwrap();
        let mut rr = RoundRobin::new(&batch, &store);
        rr.run_to_end();
        for (q, est) in batch.queries().iter().zip(rr.estimates()) {
            let truth = q.eval_direct(&data);
            assert!((est - truth).abs() < 1e-6, "{est} vs {truth}");
        }
    }

    #[test]
    fn wastes_io_relative_to_batch() {
        let (_, store, shape, strategy) = fixture();
        let batch = BatchQueries::rewrite(&strategy, queries(), &shape).unwrap();
        let mut rr = RoundRobin::new(&batch, &store);
        let rr_cost = rr.run_to_end();
        assert_eq!(rr_cost as usize, batch.total_coefficients());

        store.reset_stats();
        let mut exec = ProgressiveExecutor::new(&batch, &Sse, &store);
        let batch_cost = exec.run_to_end();
        assert!(
            (batch_cost as u64) < rr_cost,
            "batch {batch_cost} should beat round-robin {rr_cost}"
        );
    }

    #[test]
    fn cycles_between_queries() {
        let (_, store, shape, strategy) = fixture();
        let batch = BatchQueries::rewrite(&strategy, queries(), &shape).unwrap();
        let mut rr = RoundRobin::new(&batch, &store);
        for _ in 0..3 {
            assert!(rr.step());
        }
        // After s steps every query should have advanced exactly once.
        for q in &rr.queries {
            assert_eq!(q.cursor, 1);
        }
    }

    #[test]
    fn empty_batch_terminates() {
        let (_, store, shape, strategy) = fixture();
        let batch = BatchQueries::rewrite(&strategy, vec![], &shape).unwrap();
        let mut rr = RoundRobin::new(&batch, &store);
        assert_eq!(rr.run_to_end(), 0);
    }

    #[test]
    fn an_attempt_budget_stops_after_exactly_that_many_attempts() {
        use batchbb_storage::{FaultInjectingStore, FaultPlan};
        let (_, store, shape, strategy) = fixture();
        let flaky = FaultInjectingStore::new(store, FaultPlan::new(0xb0d).with_transient_rate(0.6));
        let batch = BatchQueries::rewrite(&strategy, queries(), &shape).unwrap();
        let unbudgeted = {
            let mut rr = RoundRobin::new(&batch, &flaky);
            rr.run_with_faults(&RetryPolicy::default());
            rr.fault_stats().attempts
        };
        flaky.reset_fault_state();
        // A budget that is not a multiple of `max_attempts`, so the last
        // retrieval must be clamped to what is left, not granted three.
        let n = unbudgeted / 2 + 1;
        let policy = RetryPolicy {
            total_attempt_budget: Some(n),
            ..RetryPolicy::default()
        };
        let mut rr = RoundRobin::new(&batch, &flaky);
        assert!(
            !rr.run_with_faults(&policy),
            "half the attempts cannot finish"
        );
        assert!(!rr.try_step(&policy), "a spent budget attempts nothing");
        let fs = rr.fault_stats();
        assert_eq!(fs.attempts, n);
        assert_eq!(flaky.injected().attempts, n, "the store saw no more either");
        assert!(fs.attempts_reconcile());
        assert!(
            fs.deferrals > 0,
            "a 60 % rate defers something in {n} attempts"
        );
        assert!(fs.deferrals_reconcile(rr.deferred_count() as u64));
    }

    #[test]
    fn transient_faults_still_converge_exactly() {
        use batchbb_storage::{FaultInjectingStore, FaultPlan};
        let (data, store, shape, strategy) = fixture();
        let flaky =
            FaultInjectingStore::new(store, FaultPlan::new(0xcafe).with_transient_rate(0.3));
        let batch = BatchQueries::rewrite(&strategy, queries(), &shape).unwrap();
        let mut rr = RoundRobin::new(&batch, &flaky);
        assert!(rr.run_with_faults(&RetryPolicy::default()));
        for (q, est) in batch.queries().iter().zip(rr.estimates()) {
            let truth = q.eval_direct(&data);
            assert!((est - truth).abs() < 1e-6, "{est} vs {truth}");
        }
        let fs = rr.fault_stats();
        assert!(fs.transient_failures > 0, "30% rate should hit something");
        assert!(fs.attempts_reconcile());
        assert!(fs.deferrals_reconcile(rr.deferred_count() as u64));
    }

    #[test]
    fn permanent_fault_stalls_only_its_query() {
        use batchbb_storage::{FaultInjectingStore, FaultPlan};
        let (data, store, shape, strategy) = fixture();
        let batch = BatchQueries::rewrite(&strategy, queries(), &shape).unwrap();
        // Break the most important coefficient of query 0's plan.
        let broken = {
            let rr = RoundRobin::new(&batch, &store);
            rr.queries[0].plan[0].0
        };
        let flaky =
            FaultInjectingStore::new(store, FaultPlan::new(7).with_permanent_keys([broken]));
        let mut rr = RoundRobin::new(&batch, &flaky);
        assert!(!rr.run_with_faults(&RetryPolicy::default()));
        assert!(rr.deferred_count() >= 1);
        let fs = rr.fault_stats();
        assert!(fs.permanent_failures > 0);
        assert!(fs.deferrals_reconcile(rr.deferred_count() as u64));
        // Queries that never touch the broken key are already exact.
        for (qi, (q, est)) in batch.queries().iter().zip(rr.estimates()).enumerate() {
            let touches = rr.queries[qi].plan.iter().any(|&(k, _)| k == broken);
            if !touches {
                let truth = q.eval_direct(&data);
                assert!((est - truth).abs() < 1e-6, "query {qi}: {est} vs {truth}");
            }
        }
        // Healing the store lets the deferred retrieval drain to exactness.
        flaky.heal();
        assert!(rr.run_with_faults(&RetryPolicy::default()));
        for (q, est) in batch.queries().iter().zip(rr.estimates()) {
            let truth = q.eval_direct(&data);
            assert!((est - truth).abs() < 1e-6, "{est} vs {truth}");
        }
        assert!(rr.fault_stats().recoveries >= 1);
    }
}
