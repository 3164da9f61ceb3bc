//! Bounded-workspace evaluation (§2.2).
//!
//! "It is of practical interest to avoid simultaneous materialization of
//! all of the query coefficients and reduce workspace requirements."
//! This module implements a two-pass variant of Batch-Biggest-B whose
//! resident state never exceeds `O(budget + max single-query coefficient
//! count)`:
//!
//! * **Pass 1 (score):** rewrite queries one at a time, streaming their
//!   coefficient keys into a bounded top-`budget` selection of the most
//!   important coefficients (importance accumulates across queries — SSE
//!   and any diagonal quadratic accumulate exactly; see
//!   [`evaluate_bounded`] for the restriction).
//! * **Retrieve:** fetch exactly the selected coefficients.
//! * **Pass 2 (apply):** rewrite queries one at a time again, dotting each
//!   against the retrieved values.
//!
//! The price is doing the query rewrite twice; the reward is that the
//! master list is never materialized.

use batchbb_obs::SpanTimer;
use batchbb_penalty::Penalty;
use batchbb_query::{LinearStrategy, RangeSum, StrategyError};
use batchbb_storage::{retry::get_with_retry, CoefficientStore, FaultStats, RetryPolicy};
use batchbb_tensor::{CoeffKey, KeyMap, Shape};

use crate::observe::{ExecObserver, StepObservation};
use crate::StepInfo;

/// Result of a bounded-workspace evaluation.
#[derive(Debug, Clone)]
pub struct BoundedResult {
    /// Per-query progressive estimates using the selected coefficients.
    pub estimates: Vec<f64>,
    /// Number of coefficients retrieved (≤ the requested budget).
    pub retrieved: usize,
    /// Peak number of scored coefficient keys held resident in pass 1.
    pub peak_workspace: usize,
}

/// Result of a fallible bounded-workspace evaluation: the estimates use
/// every coefficient that could be retrieved; the rest are reported as
/// deferred with their accumulated importance, mirroring
/// [`crate::DegradationReport`].
#[derive(Debug, Clone)]
pub struct BoundedFallibleResult {
    /// Per-query estimates over the successfully retrieved selection.
    pub estimates: Vec<f64>,
    /// Coefficients successfully retrieved.
    pub retrieved: usize,
    /// Selected coefficients whose retrieval failed after retries, as
    /// `(key, accumulated importance)`, most important first.
    pub deferred: Vec<(CoeffKey, f64)>,
    /// Σ importance over `deferred`.
    pub deferred_importance: f64,
    /// Peak number of scored coefficient keys held resident in pass 1.
    pub peak_workspace: usize,
    /// Fault-path counters for the retrieval phase.
    pub fault: FaultStats,
}

/// Evaluates `queries` with at most `budget` coefficient retrievals while
/// keeping the workspace bounded.
///
/// Restriction: importance must accumulate additively per query —
/// `ι_p(ξ) = Σ_i contribution(q̂ᵢ[ξ])` — which holds for every *diagonal*
/// quadratic penalty (SSE, cursored SSE).  Cross-query quadratic forms need
/// the full master list; use [`crate::ProgressiveExecutor`] for those.
pub fn evaluate_bounded(
    strategy: &dyn LinearStrategy,
    queries: &[RangeSum],
    domain: &Shape,
    store: &dyn CoefficientStore,
    penalty: &dyn Penalty,
    budget: usize,
) -> Result<BoundedResult, StrategyError> {
    evaluate_bounded_observed(strategy, queries, domain, store, penalty, budget, None)
}

/// [`evaluate_bounded`] with an optional [`ExecObserver`] emitting one
/// `exec.step` event per retrieval in the shared schema (label the observer
/// with `with_engine("bounded")` so the events are tagged truthfully).
/// `remaining_importance` tracks the not-yet-retrieved tail of the
/// selection, so the penalty-bound columns are comparable with the full
/// executor's over the selected set.
///
/// This is [`evaluate_bounded_fallible_observed`] with one attempt a key.
///
/// # Panics
///
/// If a retrieval fails.
pub fn evaluate_bounded_observed(
    strategy: &dyn LinearStrategy,
    queries: &[RangeSum],
    domain: &Shape,
    store: &dyn CoefficientStore,
    penalty: &dyn Penalty,
    budget: usize,
    observer: Option<&ExecObserver>,
) -> Result<BoundedResult, StrategyError> {
    let out = evaluate_bounded_fallible_observed(
        strategy,
        queries,
        domain,
        store,
        penalty,
        budget,
        &crate::ONE_ATTEMPT,
        observer,
    )?;
    if let Some((key, _)) = out.deferred.first() {
        panic!("retrieval failed at {key}");
    }
    Ok(BoundedResult {
        estimates: out.estimates,
        retrieved: out.retrieved,
        peak_workspace: out.peak_workspace,
    })
}

/// The bounded evaluation proper ([`evaluate_bounded`] wraps it): retrieves
/// the selection with retries under `policy`; selected
/// coefficients that stay unavailable are excluded from the estimates and
/// reported as deferred, so the caller gets the best evaluation the store's
/// current health allows instead of a panic or an abort.
pub fn evaluate_bounded_fallible(
    strategy: &dyn LinearStrategy,
    queries: &[RangeSum],
    domain: &Shape,
    store: &dyn CoefficientStore,
    penalty: &dyn Penalty,
    budget: usize,
    policy: &RetryPolicy,
) -> Result<BoundedFallibleResult, StrategyError> {
    evaluate_bounded_fallible_observed(
        strategy, queries, domain, store, penalty, budget, policy, None,
    )
}

/// [`evaluate_bounded_fallible`] with an optional [`ExecObserver`] (see
/// [`evaluate_bounded_observed`]). A deferral caused by a failed retrieval
/// emits `exec.defer`; deferrals caused by an exhausted attempt budget are
/// counted in [`FaultStats`] but attempt nothing, so they emit no event.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_bounded_fallible_observed(
    strategy: &dyn LinearStrategy,
    queries: &[RangeSum],
    domain: &Shape,
    store: &dyn CoefficientStore,
    penalty: &dyn Penalty,
    budget: usize,
    policy: &RetryPolicy,
    observer: Option<&ExecObserver>,
) -> Result<BoundedFallibleResult, StrategyError> {
    let (ranked, peak) = score_and_select(strategy, queries, domain, penalty, budget)?;
    if let Some(obs) = observer {
        obs.on_start(queries.len(), ranked.len());
    }

    let mut values: KeyMap<f64> =
        KeyMap::with_capacity_and_hasher(ranked.len(), Default::default());
    let mut deferred: Vec<(CoeffKey, f64)> = Vec::new();
    let mut fault = FaultStats::default();
    let mut remaining: f64 = ranked.iter().map(|&(_, i)| i).sum();
    let mut deferred_mass = 0.0;
    for (ix, &(key, importance)) in ranked.iter().enumerate() {
        let Some(attempts_allowed) = policy.attempts_allowed(fault.attempts) else {
            // Out of attempts: everything still unretrieved is deferred
            // (and counted — `deferrals = recoveries + still-deferred`
            // must hold here too). `ranked` is most-important-first, so
            // the deferred list stays sorted that way as well.
            fault.deferrals += 1;
            deferred.push((key, importance));
            continue;
        };
        let timer = observer.map(|_| SpanTimer::start());
        let out = get_with_retry(store, &key, policy, attempts_allowed);
        let latency_ns = timer.map_or(0, |t| t.elapsed_ns());
        out.record(&mut fault);
        // The processed entry's mass leaves the pending tail either way —
        // into the estimates on success, into the deferred mass on failure.
        remaining = if ix + 1 == ranked.len() {
            0.0 // no rounding residue once the selection is walked
        } else {
            (remaining - importance).max(0.0)
        };
        match out.result {
            Ok(value) => {
                values.insert(key, value.unwrap_or(0.0));
                if let Some(obs) = observer {
                    let info = StepInfo {
                        key,
                        importance,
                        value: value.unwrap_or(0.0),
                        queries_advanced: 0,
                    };
                    // The bounded variant never recovers deferrals, so the
                    // most important unresolved coefficient is whichever is
                    // larger of the deferred head (sorted descending) and
                    // the next ranked entry.
                    let max_unresolved = deferred
                        .first()
                        .map(|&(_, i)| i)
                        .into_iter()
                        .chain(ranked.get(ix + 1).map(|&(_, i)| i))
                        .fold(None::<f64>, |acc, i| Some(acc.map_or(i, |a| a.max(i))));
                    obs.on_step(&StepObservation {
                        kind: "retrieved",
                        info: &info,
                        pending: ranked.len() - ix - 1,
                        deferred: deferred.len(),
                        remaining_importance: remaining,
                        deferred_importance: deferred_mass,
                        max_unresolved,
                        homogeneity: penalty.homogeneity(),
                        retrieved: values.len(),
                        fault,
                        latency_ns,
                    });
                }
            }
            Err(error) => {
                fault.deferrals += 1;
                deferred.push((key, importance));
                deferred_mass += importance;
                if let Some(obs) = observer {
                    obs.on_defer(&key, importance, &error, true, deferred.len(), &fault);
                }
            }
        }
    }

    let estimates = apply_selected(strategy, queries, domain, &values)?;
    let deferred_importance = deferred.iter().map(|&(_, i)| i).sum();
    if let Some(obs) = observer {
        let status = if deferred.is_empty() {
            "exact"
        } else {
            "degraded"
        };
        obs.on_finish(status, values.len(), deferred.is_empty(), &fault);
    }
    Ok(BoundedFallibleResult {
        estimates,
        retrieved: values.len(),
        deferred,
        deferred_importance,
        peak_workspace: peak,
        fault,
    })
}

/// Most important first, ties toward the smaller key — the executor's
/// progression order.  Both the prune and the final cut use it, so which
/// of several equally important keys survive never depends on the map's
/// iteration order.
fn selection_order(a: &(CoeffKey, f64), b: &(CoeffKey, f64)) -> std::cmp::Ordering {
    b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0))
}

/// Pass 1: accumulate importance per key with a bounded working set, and
/// return the top-`budget` selection (most important first) plus the peak
/// resident key count.
fn score_and_select(
    strategy: &dyn LinearStrategy,
    queries: &[RangeSum],
    domain: &Shape,
    penalty: &dyn Penalty,
    budget: usize,
) -> Result<(Vec<(CoeffKey, f64)>, usize), StrategyError> {
    let s = queries.len();
    // The cap is 4× the budget: pruning only removes keys whose importance
    // can no longer reach the running top-`budget` cut, and a slack factor
    // keeps the amortized cost low while staying O(budget).
    let cap = budget.saturating_mul(4).max(16);
    let mut scores: KeyMap<f64> =
        KeyMap::with_capacity_and_hasher(cap.min(1 << 20), Default::default());
    let mut peak = 0usize;
    for (qi, q) in queries.iter().enumerate() {
        let coeffs = strategy.query_coefficients(q, domain)?;
        for &(key, v) in coeffs.entries() {
            let contribution = penalty.importance(&[(qi, v)], s);
            *scores.entry(key).or_insert(0.0) += contribution;
        }
        peak = peak.max(scores.len());
        if scores.len() > cap {
            // Keep the current top `cap/2` keys. Keys dropped here may be
            // re-inserted by later queries; their earlier contributions are
            // lost, which makes the selection approximate — the exactness
            // of the *estimates* for the selected set is unaffected.
            let mut ranked: Vec<(CoeffKey, f64)> = scores.drain().collect();
            ranked.sort_by(selection_order);
            ranked.truncate(cap / 2);
            scores = ranked.into_iter().collect();
        }
    }
    let mut ranked: Vec<(CoeffKey, f64)> = scores.into_iter().collect();
    ranked.sort_by(selection_order);
    ranked.truncate(budget);
    Ok((ranked, peak))
}

/// Pass 2: dot each query's coefficients against the retrieved values.
fn apply_selected(
    strategy: &dyn LinearStrategy,
    queries: &[RangeSum],
    domain: &Shape,
    values: &KeyMap<f64>,
) -> Result<Vec<f64>, StrategyError> {
    let mut estimates = vec![0.0; queries.len()];
    for (qi, q) in queries.iter().enumerate() {
        let coeffs = strategy.query_coefficients(q, domain)?;
        estimates[qi] = coeffs
            .entries()
            .iter()
            .filter_map(|(k, v)| values.get(k).map(|w| v * w))
            .sum();
    }
    Ok(estimates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BatchQueries, ProgressiveExecutor};
    use batchbb_penalty::Sse;
    use batchbb_query::{HyperRect, WaveletStrategy};
    use batchbb_storage::MemoryStore;
    use batchbb_tensor::Tensor;
    use batchbb_wavelet::Wavelet;

    fn fixture() -> (Tensor, MemoryStore, Shape, WaveletStrategy, Vec<RangeSum>) {
        let shape = Shape::new(vec![32, 32]).unwrap();
        let data = Tensor::from_fn(shape.clone(), |ix| ((ix[0] * ix[1] + 3) % 6) as f64);
        let strategy = WaveletStrategy::new(Wavelet::Haar);
        let store = MemoryStore::from_entries(strategy.transform_data(&data));
        let queries: Vec<RangeSum> = (0..8)
            .map(|i| RangeSum::count(HyperRect::new(vec![i * 4, 0], vec![i * 4 + 3, 31])))
            .collect();
        (data, store, shape, strategy, queries)
    }

    #[test]
    fn unlimited_budget_is_exact() {
        let (data, store, shape, strategy, queries) = fixture();
        let r =
            evaluate_bounded(&strategy, &queries, &shape, &store, &Sse, usize::MAX / 8).unwrap();
        for (q, est) in queries.iter().zip(&r.estimates) {
            let truth = q.eval_direct(&data);
            assert!((est - truth).abs() < 1e-6, "{est} vs {truth}");
        }
    }

    #[test]
    fn matches_full_executor_selection() {
        // With additive (SSE) importance and a budget below the master-list
        // size, the bounded variant must select the same top-B keys and
        // produce the same estimates as running the executor B steps.
        let (_, store, shape, strategy, queries) = fixture();
        let batch = BatchQueries::rewrite(&strategy, queries.clone(), &shape).unwrap();
        let master_len = crate::MasterList::build(&batch).len();
        let b = master_len / 2;
        assert!(b > 0, "fixture must produce a non-trivial master list");
        let bounded = evaluate_bounded(&strategy, &queries, &shape, &store, &Sse, b).unwrap();
        let mut exec = ProgressiveExecutor::new(&batch, &Sse, &store);
        exec.run(b);
        for (a, e) in bounded.estimates.iter().zip(exec.estimates()) {
            assert!((a - e).abs() < 1e-9, "{a} vs {e}");
        }
        assert_eq!(bounded.retrieved, b);
    }

    #[test]
    fn workspace_stays_bounded() {
        let (_, store, shape, strategy, queries) = fixture();
        let budget = 8;
        let r = evaluate_bounded(&strategy, &queries, &shape, &store, &Sse, budget).unwrap();
        assert!(
            r.peak_workspace <= budget * 4 + 200,
            "workspace {} should be O(budget)",
            r.peak_workspace
        );
    }

    #[test]
    fn zero_budget_returns_zero_estimates() {
        let (_, store, shape, strategy, queries) = fixture();
        let r = evaluate_bounded(&strategy, &queries, &shape, &store, &Sse, 0).unwrap();
        assert!(r.estimates.iter().all(|&e| e == 0.0));
        assert_eq!(r.retrieved, 0);
    }

    #[test]
    fn fallible_defers_unavailable_keys_and_reports_importance() {
        use batchbb_storage::{FaultInjectingStore, FaultPlan};

        let (_, store, shape, strategy, queries) = fixture();
        let b = 32;
        // Break the most important selected key. (The aligned fixture
        // produces fewer distinct keys than the budget, so size assertions
        // below use the actual selection size `n`.)
        let (ranked, _) = score_and_select(&strategy, &queries, &shape, &Sse, b).unwrap();
        let n = ranked.len();
        assert!((2..=b).contains(&n));
        let broken = ranked[0];
        let faulty =
            FaultInjectingStore::new(&store, FaultPlan::new(4).with_permanent_keys([broken.0]));
        let r = evaluate_bounded_fallible(
            &strategy,
            &queries,
            &shape,
            &faulty,
            &Sse,
            b,
            &RetryPolicy::default(),
        )
        .unwrap();
        assert_eq!(r.deferred, vec![broken]);
        assert!((r.deferred_importance - broken.1).abs() < 1e-12);
        assert_eq!(r.retrieved, n - 1);
        assert_eq!(r.fault.permanent_failures, 1);
        assert!(r.fault.deferrals_reconcile(1));
        assert!(r.fault.attempts_reconcile());
        // The degraded estimates differ from exact only through the broken
        // coefficient's contributions.
        let exact = evaluate_bounded(&strategy, &queries, &shape, &store, &Sse, b).unwrap();
        let differing = r
            .estimates
            .iter()
            .zip(&exact.estimates)
            .filter(|(a, e)| (**a - **e).abs() > 1e-12)
            .count();
        assert!(differing > 0, "breaking the top key must move something");
    }

    #[test]
    fn fallible_respects_total_attempt_budget() {
        use batchbb_storage::{FaultInjectingStore, FaultPlan};

        let (_, store, shape, strategy, queries) = fixture();
        let b = 32;
        // Size the attempt budget off the actual selection: each attempt
        // retrieves at most one key, so `n/2` attempts must defer ≥ n/2 keys.
        let n = score_and_select(&strategy, &queries, &shape, &Sse, b)
            .unwrap()
            .0
            .len();
        assert!(n >= 4);
        let attempt_budget = (n / 2) as u64;
        let faulty = FaultInjectingStore::new(&store, FaultPlan::new(6).with_transient_rate(0.5));
        let policy = RetryPolicy {
            total_attempt_budget: Some(attempt_budget),
            ..RetryPolicy::default()
        };
        let r = evaluate_bounded_fallible(&strategy, &queries, &shape, &faulty, &Sse, b, &policy)
            .unwrap();
        assert!(r.fault.attempts <= attempt_budget);
        assert_eq!(r.retrieved + r.deferred.len(), n);
        assert!(
            r.deferred.len() >= n - attempt_budget as usize,
            "{} attempts cannot cover {n} keys",
            attempt_budget
        );
        assert!(r.fault.deferrals_reconcile(r.deferred.len() as u64));
        assert!(r.fault.attempts_reconcile());
    }
}
