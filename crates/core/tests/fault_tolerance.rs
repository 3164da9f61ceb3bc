//! End-to-end acceptance tests for the fallible retrieval path: a
//! progressive evaluation over a fault-injecting store completes, its
//! degradation bounds shrink monotonically as deferrals drain, the fault
//! counters reconcile at every snapshot, and — thanks to the executor's
//! canonical finalization, which re-sums the estimates in sorted key order
//! the moment evaluation turns exact — the final estimates match the
//! fault-free run **bit for bit**, no matter where faults reordered the
//! retrievals.

use batchbb_core::{BatchQueries, DrainStatus, ProgressiveExecutor, TryStepOutcome};
use batchbb_penalty::Sse;
use batchbb_query::{HyperRect, LinearStrategy, RangeSum, WaveletStrategy};
use batchbb_storage::{FaultInjectingStore, FaultPlan, MemoryStore, RetryPolicy};
use batchbb_tensor::{Shape, Tensor};
use batchbb_wavelet::Wavelet;

struct Fixture {
    data: Tensor,
    store: MemoryStore,
    batch: BatchQueries,
    n_total: usize,
    k_abs_sum: f64,
}

fn fixture() -> Fixture {
    let shape = Shape::new(vec![16, 16]).unwrap();
    // Integer data so the Haar coefficients are dyadic rationals.
    let data = Tensor::from_fn(shape.clone(), |ix| ((3 * ix[0] + 5 * ix[1]) % 7) as f64);
    let strategy = WaveletStrategy::new(Wavelet::Haar);
    let store = MemoryStore::from_entries(strategy.transform_data(&data));
    // Unaligned ranges produce non-trivial coefficient lists.
    let queries = vec![
        RangeSum::count(HyperRect::new(vec![1, 2], vec![10, 13])),
        RangeSum::count(HyperRect::new(vec![0, 5], vec![15, 9])),
        RangeSum::count(HyperRect::new(vec![6, 0], vec![11, 15])),
        RangeSum::count(HyperRect::new(vec![3, 3], vec![12, 12])),
    ];
    let batch = BatchQueries::rewrite(&strategy, queries, &shape).unwrap();
    let n_total = 16 * 16;
    let k_abs_sum = store.abs_sum();
    Fixture {
        data,
        store,
        batch,
        n_total,
        k_abs_sum,
    }
}

/// Fault-free reference estimates, run to exactness.
fn reference(fx: &Fixture) -> Vec<f64> {
    let mut exec = ProgressiveExecutor::new(&fx.batch, &Sse, &fx.store);
    exec.run_to_end();
    assert!(exec.is_exact());
    exec.estimates().to_vec()
}

/// Asserts the two reconciliation invariants at one snapshot.
fn assert_reconciled(exec: &ProgressiveExecutor<'_>) {
    let fs = exec.fault_stats();
    assert!(
        fs.attempts_reconcile(),
        "attempts {} != successes {} + transient {} + permanent {}",
        fs.attempts,
        fs.successes,
        fs.transient_failures,
        fs.permanent_failures
    );
    assert!(
        fs.deferrals_reconcile(exec.deferred_count() as u64),
        "deferrals {} != recoveries {} + still-deferred {}",
        fs.deferrals,
        fs.recoveries,
        exec.deferred_count()
    );
}

#[test]
fn transient_faults_converge_bit_for_bit() {
    let fx = fixture();
    let truth = reference(&fx);

    // ≥10% transient rate (acceptance floor); the seed is arbitrary but
    // fixed, so the whole fault history is reproducible.
    let flaky = FaultInjectingStore::new(
        &fx.store,
        FaultPlan::new(0x0b5e_55ed).with_transient_rate(0.25),
    );
    let mut exec = ProgressiveExecutor::new(&fx.batch, &Sse, &flaky);
    let policy = RetryPolicy::default();

    let mut prev_expected = f64::INFINITY;
    let mut prev_worst = f64::INFINITY;
    let mut deferred_seen = false;
    let mut steps = 0usize;
    loop {
        steps += 1;
        assert!(steps < 100_000, "fallible evaluation must terminate");
        match exec.try_step(&policy) {
            TryStepOutcome::Exhausted => break,
            TryStepOutcome::Deferred { .. } => deferred_seen = true,
            TryStepOutcome::Retrieved(_) | TryStepOutcome::Recovered(_) => {}
            TryStepOutcome::BudgetExhausted => {
                panic!("no budget configured, must never exhaust")
            }
            TryStepOutcome::Pending => {
                panic!("synchronous store never parks a fetch")
            }
        }
        // Invariants hold at EVERY snapshot, not just at the end.
        assert_reconciled(&exec);
        let report = exec.degradation_report(fx.n_total, fx.k_abs_sum);
        assert!(
            report.expected_penalty <= prev_expected + 1e-12,
            "expected penalty must not grow: {} after {}",
            report.expected_penalty,
            prev_expected
        );
        assert!(
            report.worst_case_bound <= prev_worst + 1e-12,
            "worst-case bound must not grow: {} after {}",
            report.worst_case_bound,
            prev_worst
        );
        prev_expected = report.expected_penalty;
        prev_worst = report.worst_case_bound;
    }

    assert!(exec.is_exact());
    let fs = exec.fault_stats();
    assert!(fs.transient_failures > 0, "25% rate must inject something");
    assert_reconciled(&exec);
    let report = exec.degradation_report(fx.n_total, fx.k_abs_sum);
    assert!(report.is_exact);
    assert_eq!(report.expected_penalty, 0.0);
    assert_eq!(report.worst_case_bound, 0.0);

    // Canonical finalization: exact equality with the fault-free run, not
    // tolerance.
    assert_eq!(exec.estimates(), truth.as_slice());
    // Sanity: the estimates are the true range sums up to reconstruction
    // rounding (the orthonormal Haar filters carry 1/√2 factors).
    for (q, est) in fx.batch.queries().iter().zip(exec.estimates()) {
        assert!((est - q.eval_direct(&fx.data)).abs() < 1e-6);
    }
    let _ = deferred_seen; // informative only: rate 0.25 with 3 attempts may or may not defer
}

#[test]
fn permanent_faults_degrade_then_heal_to_exact() {
    let fx = fixture();
    let truth = reference(&fx);

    // Break the three most important coefficients outright.
    let ranked = {
        let mut exec = ProgressiveExecutor::new(&fx.batch, &Sse, &fx.store);
        let mut keys = Vec::new();
        for _ in 0..3 {
            keys.push(exec.step().unwrap().key);
        }
        keys
    };
    let flaky = FaultInjectingStore::new(
        &fx.store,
        FaultPlan::new(9).with_permanent_keys(ranked.iter().copied()),
    );
    let mut exec = ProgressiveExecutor::new(&fx.batch, &Sse, &flaky);
    let policy = RetryPolicy::default();

    assert_eq!(exec.drain_with_faults(&policy), DrainStatus::Degraded);
    assert_eq!(exec.deferred_count(), 3);
    assert!(!exec.is_exact());
    assert_reconciled(&exec);
    let degraded = exec.degradation_report(fx.n_total, fx.k_abs_sum);
    assert!(!degraded.is_exact);
    assert_eq!(degraded.deferred.len(), 3);
    assert!(degraded.deferred_importance > 0.0);
    assert!(degraded.expected_penalty > 0.0);
    assert!(degraded.worst_case_bound > 0.0);
    let deferred_keys: Vec<_> = degraded.deferred.iter().map(|&(k, _)| k).collect();
    for k in &ranked {
        assert!(deferred_keys.contains(k), "{k} must be reported deferred");
    }

    // Heal the store and drain: each recovery must tighten both bounds.
    flaky.heal();
    let mut prev_expected = degraded.expected_penalty;
    let mut prev_worst = degraded.worst_case_bound;
    loop {
        match exec.try_step(&policy) {
            TryStepOutcome::Exhausted => break,
            TryStepOutcome::Recovered(_) => {}
            other => panic!("healed drain saw {other:?}"),
        }
        assert_reconciled(&exec);
        let report = exec.degradation_report(fx.n_total, fx.k_abs_sum);
        assert!(report.expected_penalty <= prev_expected + 1e-12);
        assert!(report.worst_case_bound <= prev_worst + 1e-12);
        prev_expected = report.expected_penalty;
        prev_worst = report.worst_case_bound;
    }

    assert!(exec.is_exact());
    assert_eq!(exec.fault_stats().recoveries, 3);
    assert_reconciled(&exec);
    // Bit-for-bit against the fault-free run, despite the three most
    // important coefficients being applied last instead of first.
    assert_eq!(exec.estimates(), truth.as_slice());
}

/// The public bound accessors are the certificate: once the top key is
/// deferred they still count its mass, exactly as `degradation_report`.
#[test]
fn bound_accessors_count_deferred_mass() {
    let fx = fixture();
    let top = ProgressiveExecutor::new(&fx.batch, &Sse, &fx.store).progression()[0].key;
    let broken = FaultInjectingStore::new(&fx.store, FaultPlan::new(5).with_permanent_keys([top]));
    let mut exec = ProgressiveExecutor::new(&fx.batch, &Sse, &broken);
    let outcome = exec.try_step(&RetryPolicy::default());
    assert!(
        matches!(outcome, TryStepOutcome::Deferred { key, .. } if key == top),
        "the broken top key defers: {outcome:?}"
    );
    let report = exec.degradation_report(fx.n_total, fx.k_abs_sum);
    assert_eq!(
        exec.worst_case_bound(fx.k_abs_sum).to_bits(),
        report.worst_case_bound.to_bits()
    );
    assert_eq!(
        exec.expected_penalty(fx.n_total).to_bits(),
        report.expected_penalty.to_bits()
    );
}

#[test]
fn attempt_budget_is_a_hard_ceiling() {
    let fx = fixture();
    let flaky = FaultInjectingStore::new(&fx.store, FaultPlan::new(11).with_transient_rate(0.4));
    let mut exec = ProgressiveExecutor::new(&fx.batch, &Sse, &flaky);
    let policy = RetryPolicy {
        total_attempt_budget: Some(8),
        ..RetryPolicy::default()
    };
    assert_eq!(
        exec.drain_with_faults(&policy),
        DrainStatus::BudgetExhausted
    );
    assert!(exec.fault_stats().attempts <= 8);
    assert_reconciled(&exec);
    // The report stays coherent mid-flight: estimates valid, bounds finite.
    let report = exec.degradation_report(fx.n_total, fx.k_abs_sum);
    assert!(!report.is_exact);
    assert!(report.expected_penalty.is_finite() && report.worst_case_bound.is_finite());

    // Lifting the budget finishes the job exactly.
    assert_eq!(
        exec.drain_with_faults(&RetryPolicy::default()),
        DrainStatus::Exact
    );
    assert_eq!(exec.estimates(), reference(&fx).as_slice());
}

#[test]
fn strategy_is_send_sync_probe() {
    // Compile-time probe: the fallible wrapper must stay shareable across
    // threads like every other store (the executor holds `&dyn`).
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<FaultInjectingStore<MemoryStore>>();
    let _ = WaveletStrategy::new(Wavelet::Haar).name();
}
