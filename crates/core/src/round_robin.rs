//! The round-robin single-query baseline (§2.2).
//!
//! "One simple solution is to use s instances of the single query
//! evaluation technique, and advance them in a round-robin fashion. This
//! turns out to waste a tremendous amount of I/O."  This module is exactly
//! that: one [`ProgressiveExecutor`] per query under [`Sse`], whose
//! single-query progression is `|q̂ᵢ[ξ]|²` descending with ties by key —
//! ProPolyne's order.  Each instance retrieves its own coefficients, so
//! shared coefficients are fetched once *per query* instead of once per
//! batch.  Retries, deferral and the attempt budget are the executor's;
//! this module only picks the next instance and sums what they report.

use batchbb_penalty::Sse;
use batchbb_storage::{CoefficientStore, FaultStats, RetryPolicy};

use crate::observe::{ExecObserver, StepObservation};
use crate::{BatchQueries, ProgressiveExecutor, StepInfo, TryStepOutcome};

/// Round-robin evaluation of a batch using independent single-query
/// instances.
pub struct RoundRobin<'a> {
    /// One single-query executor per query, in batch order.
    instances: Vec<ProgressiveExecutor<'a>>,
    /// The instance the next step tries first.
    next: usize,
    observer: Option<ExecObserver>,
}

impl<'a> RoundRobin<'a> {
    /// Builds one single-query executor per query of a rewritten batch.
    pub fn new(batch: &BatchQueries, store: &'a dyn CoefficientStore) -> Self {
        let instances = (0..batch.len())
            .map(|i| ProgressiveExecutor::new(&batch.single(i), &Sse, store))
            .collect();
        RoundRobin {
            instances,
            next: 0,
            observer: None,
        }
    }

    /// Attaches an observer (relabelled to the `"round_robin"` engine) so
    /// baseline runs emit the same `exec.*` schema as the batch executor.
    /// The baseline does not track batch-wide importance masses, so the
    /// penalty-bound fields are omitted from its step events.
    pub fn with_observer(mut self, observer: ExecObserver) -> Self {
        let observer = observer.with_engine("round_robin");
        observer.on_start(self.instances.len());
        self.observer = Some(observer);
        self
    }

    /// The attached observer, if any.
    pub fn observer(&self) -> Option<&ExecObserver> {
        self.observer.as_ref()
    }

    /// Coefficients not yet attempted, across all queries.
    fn pending_count(&self) -> usize {
        self.instances
            .iter()
            .map(ProgressiveExecutor::remaining)
            .sum()
    }

    fn observe_step(&self, kind: &'static str, info: &StepInfo, latency_ns: u64) {
        if let Some(obs) = &self.observer {
            // Batch-wide masses are untracked (NaN ⇒ bound fields omitted).
            obs.on_step(&StepObservation {
                kind,
                info,
                pending: self.pending_count(),
                deferred: self.deferred_count(),
                remaining_importance: f64::NAN,
                deferred_importance: f64::NAN,
                max_unresolved: None,
                homogeneity: 2.0,
                retrieved: self.retrievals() as usize,
                fault: self.fault_stats(),
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
            Some(TryStepOutcome::Deferred { error, .. }) => panic!("retrieval failed: {error}"),
            advanced => advanced.is_some(),
        }
    }

    /// Runs to exact completion, returning total retrievals.
    pub fn run_to_end(&mut self) -> u64 {
        while self.step() {}
        self.finish(true);
        self.retrievals()
    }

    /// The baseline's step: the next query in rotation with work left runs
    /// its executor's [`ProgressiveExecutor::try_step`], which retries
    /// transient failures under `policy` and defers coefficients that keep
    /// failing onto that query's own queue — so the baseline degrades the
    /// same way the batch executor does and comparisons under faults stay
    /// fair.
    ///
    /// Returns `false` when nothing was attempted: no query has pending
    /// work (fresh progression entries or deferred retrievals), or the
    /// policy's `total_attempt_budget` — batch-wide, shared by every query
    /// — is spent.
    pub fn try_step(&mut self, policy: &RetryPolicy) -> bool {
        self.advance(policy).is_some()
    }

    /// The one stepping body: `None` when nothing was attempted, otherwise
    /// the outcome of the instance that stepped.
    fn advance(&mut self, policy: &RetryPolicy) -> Option<TryStepOutcome> {
        let s = self.instances.len();
        let qi = (0..s)
            .map(|probe| (self.next + probe) % s)
            .find(|&qi| !self.instances[qi].is_exact())?;
        let before = self.instances[qi].fault_stats();
        // The batch-wide budget, less what the other instances spent.
        let policy = RetryPolicy {
            total_attempt_budget: policy.total_attempt_budget.map(|budget| {
                let others = self.fault_stats().attempts - before.attempts;
                budget.saturating_sub(others)
            }),
            ..*policy
        };
        let timer = ExecObserver::maybe_timer(&self.observer);
        let outcome = self.instances[qi].try_step(&policy);
        let latency_ns = timer.map_or(0, |t| t.elapsed_ns());
        match &outcome {
            TryStepOutcome::Retrieved(info) => self.observe_step("retrieved", info, latency_ns),
            TryStepOutcome::Recovered(info) => self.observe_step("recovered", info, latency_ns),
            TryStepOutcome::Deferred {
                key, importance, ..
            } => {
                if let Some(obs) = &self.observer {
                    let first = self.instances[qi].fault_stats().deferrals > before.deferrals;
                    let (deferred, fault) = (self.deferred_count(), self.fault_stats());
                    obs.on_defer(key, *importance, first, deferred, &fault);
                }
            }
            TryStepOutcome::BudgetExhausted => return None,
            TryStepOutcome::Pending | TryStepOutcome::Exhausted => {
                unreachable!("a window-1 instance with work left attempts it")
            }
        }
        self.next = (qi + 1) % s;
        Some(outcome)
    }

    /// Drives [`RoundRobin::try_step`] until every query is exact or the
    /// deferral queues stop making progress (a full cycle over the batch
    /// recovers nothing). Returns `true` when all queries finished exact.
    pub fn run_with_faults(&mut self, policy: &RetryPolicy) -> bool {
        let exact = self.fault_loop(policy);
        self.finish(exact);
        exact
    }

    /// Emits `exec.finish` for a run that ended exact or degraded.
    fn finish(&self, exact: bool) {
        if let Some(obs) = &self.observer {
            let status = if exact { "exact" } else { "degraded" };
            let retrieved = self.retrievals() as usize;
            obs.on_finish(status, retrieved, &self.fault_stats());
        }
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
            let before = self.fault_stats().recoveries;
            for _ in 0..deferred {
                self.try_step(policy);
            }
            if self.fault_stats().recoveries == before {
                return false;
            }
        }
    }

    /// Coefficients currently parked on deferral queues, across all queries.
    pub fn deferred_count(&self) -> usize {
        self.instances
            .iter()
            .map(ProgressiveExecutor::deferred_count)
            .sum()
    }

    /// Accumulated fault/retry counters for the fallible path, merged over
    /// the instances.
    pub fn fault_stats(&self) -> FaultStats {
        let mut total = FaultStats::default();
        for instance in &self.instances {
            total.merge(&instance.fault_stats());
        }
        total
    }

    /// Current progressive estimates.
    pub fn estimates(&self) -> Vec<f64> {
        self.instances.iter().map(|e| e.estimates()[0]).collect()
    }

    /// Retrievals so far.
    pub fn retrievals(&self) -> u64 {
        self.instances.iter().map(|e| e.retrieved() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchbb_query::{HyperRect, LinearStrategy, RangeSum, WaveletStrategy};
    use batchbb_storage::MemoryStore;
    use batchbb_tensor::{CoeffKey, Shape, Tensor};
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
        for instance in &rr.instances {
            assert_eq!(instance.retrieved(), 1);
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
        // Break the most important coefficient of query 0's progression.
        let plans: Vec<Vec<CoeffKey>> = RoundRobin::new(&batch, &store)
            .instances
            .iter()
            .map(|e| e.progression().iter().map(|p| p.key).collect())
            .collect();
        let broken = plans[0][0];
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
            let touches = plans[qi].contains(&broken);
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
