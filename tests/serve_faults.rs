//! Fault tolerance under concurrency: a seeded `FaultInjectingStore`
//! behind the batch-server pool. Per-batch `FaultStats` must reconcile
//! exactly — across batches, no deferral may be lost or double-counted —
//! and degraded batches must publish the penalty-bounded contract.

use batchbb::prelude::*;

fn fixture() -> (MemoryStore, Vec<BatchQueries>, Shape) {
    let schema = Schema::new(vec![
        Attribute::new("x", 0.0, 16.0, 4),
        Attribute::new("y", 0.0, 16.0, 4),
    ])
    .unwrap();
    let mut dfd = FrequencyDistribution::new(schema);
    for i in 0..16 {
        for j in 0..16 {
            let w = ((i * 7 + j * 3) % 5) as f64;
            if w != 0.0 {
                dfd.insert_binned(&[i, j], w);
            }
        }
    }
    let strategy = WaveletStrategy::new(Wavelet::Haar);
    let store = MemoryStore::from_entries(strategy.transform_data(dfd.tensor()));
    let shape = dfd.schema().domain();
    let mut batches = Vec::new();
    for b in 0..5u64 {
        let queries: Vec<RangeSum> = partition::random_partition(&shape, 3, 90 + b)
            .into_iter()
            .map(RangeSum::count)
            .collect();
        batches.push(BatchQueries::rewrite(&strategy, queries, &shape).unwrap());
    }
    (store, batches, shape)
}

/// Serves `batches` over `store` and returns the results, at prefetch
/// window `window` if given, else at the serving default.
fn serve_all<'a>(
    store: &dyn CoefficientStore,
    batches: &'a [BatchQueries],
    n_total: usize,
    k: f64,
    retry: RetryPolicy,
    window: Option<usize>,
) -> Vec<BatchResult> {
    let requests: Vec<BatchRequest<'a>> =
        batches.iter().map(|b| BatchRequest::new(b, &Sse)).collect();
    let mut config = ServeConfig::new(n_total, k)
        .workers(4)
        .slice_steps(3)
        .retry(retry);
    if let Some(window) = window {
        config = config.prefetch_window(window);
    }
    BatchServer::new(config).serve(store, &requests)
}

#[test]
fn per_batch_fault_stats_reconcile_under_concurrency() {
    let (store, batches, shape) = fixture();
    let k = store.abs_sum();
    let faulty = FaultInjectingStore::new(store, FaultPlan::new(42).with_transient_rate(0.3));
    // Singleton reads: a failed prefetch window's attempts reach no
    // batch's ledger, so the injector is reconciled at W = 1.
    let results = serve_all(
        &faulty,
        &batches,
        shape.len(),
        k,
        RetryPolicy::default(),
        Some(1),
    );
    let mut merged = FaultStats::default();
    for result in &results {
        let fault = &result.report.fault;
        // Every batch's own ledger balances: each attempt ended exactly
        // one way, and each deferral either recovered or is still parked.
        assert!(fault.attempts_reconcile(), "torn ledger: {fault:?}");
        assert!(fault.deferrals_reconcile(result.report.deferred.len() as u64));
        // Transient-only faults with generous retries: everything lands.
        assert_eq!(result.status, BatchStatus::Exact);
        assert!(result.report.deferred.is_empty());
        merged.merge(fault);
    }
    // Cross-batch reconciliation: the executors' merged ledger balances
    // too, and matches the injector's view of the world — attempts the
    // store saw were issued by exactly one batch each (none lost, none
    // double-counted). No cache sits in between by default, so the
    // injector sees every attempt the executors issued.
    assert!(merged.attempts_reconcile());
    assert!(merged.deferrals_reconcile(0));
    let injected = faulty.injected();
    assert!(injected.attempts_reconcile());
    assert_eq!(injected.attempts, merged.attempts);
    assert_eq!(
        merged.transient_failures, injected.transient_failures,
        "every injected transient fault must surface in exactly one batch"
    );
}

/// The serve's default window over the same faulty store. A window that
/// fails is charged to no batch (ROADMAP item 19): its keys are re-read
/// singly, and only those reads reach a ledger. So every answer is still
/// the singleton run's and every ledger balances, but the batches' merged
/// transient failures fall short of the injector's — by one per failed
/// window, since the injector stops a window at its first failure. The
/// shortfall is asserted, not just bounded, so that charging failed
/// windows (which turns it into an equality) shows up here.
#[test]
fn the_default_window_leaves_failed_windows_off_the_ledger() {
    let (store, batches, shape) = fixture();
    let k = store.abs_sum();
    let serve = |window| {
        let faulty = FaultInjectingStore::new(&store, FaultPlan::new(42).with_transient_rate(0.3));
        let results = serve_all(
            &faulty,
            &batches,
            shape.len(),
            k,
            RetryPolicy::default(),
            window,
        );
        (results, faulty.injected())
    };
    let (windowed, injected) = serve(None);
    let (singleton, _) = serve(Some(1));
    let mut merged = FaultStats::default();
    for (result, reference) in windowed.iter().zip(&singleton) {
        assert_eq!(result.status, BatchStatus::Exact);
        assert_eq!(result.estimates(), reference.estimates());
        assert_eq!(result.retrieved_entries, reference.retrieved_entries);
        assert!(result.report.fault.attempts_reconcile());
        merged.merge(&result.report.fault);
    }
    assert!(injected.attempts_reconcile());
    assert_eq!(merged.permanent_failures, injected.permanent_failures);
    assert!(
        merged.transient_failures < injected.transient_failures,
        "failed windows reached a ledger: served {merged:?}, injected {injected:?}"
    );
}

#[test]
fn permanent_faults_degrade_each_batch_with_a_valid_contract() {
    let (store, batches, shape) = fixture();
    let k = store.abs_sum();
    let n_total = shape.len();
    // Break three keys every batch needs: the coarsest coefficients are
    // on every master list.
    let broken = [
        CoeffKey::new(&[0, 0]),
        CoeffKey::new(&[0, 1]),
        CoeffKey::new(&[1, 0]),
    ];
    let faulty = FaultInjectingStore::new(
        store,
        FaultPlan::new(7).with_permanent_keys(broken.iter().copied()),
    );
    let results = serve_all(&faulty, &batches, n_total, k, RetryPolicy::default(), None);
    for result in &results {
        assert_eq!(result.status, BatchStatus::Degraded);
        let report = &result.report;
        let fault = &report.fault;
        assert!(fault.attempts_reconcile());
        // No deferral lost or double-counted: the queue the report shows
        // is exactly deferrals minus recoveries.
        assert!(fault.deferrals_reconcile(report.deferred.len() as u64));
        assert_eq!(fault.recoveries, 0, "permanent faults never recover");
        // The deferred population is exactly the broken keys this batch
        // needed — each counted once.
        let mut deferred_keys: Vec<CoeffKey> = report.deferred.iter().map(|d| d.0).collect();
        deferred_keys.sort();
        deferred_keys.dedup();
        assert_eq!(
            deferred_keys.len(),
            report.deferred.len(),
            "a deferred key appeared twice in one batch"
        );
        for key in &deferred_keys {
            assert!(broken.contains(key));
        }
        // The degradation contract stays penalty-bounded: deferred mass
        // keeps the worst-case bound strictly positive.
        assert!(report.worst_case_bound > 0.0);
        assert!(report.expected_penalty > 0.0);
        assert!(!report.is_exact);
        // Bounds at finish match the final bound-history entry.
        assert_eq!(
            *result.bound_history.last().unwrap(),
            report.worst_case_bound
        );
    }
}

#[test]
fn healing_mid_serve_lets_deferred_batches_recover() {
    let (store, batches, shape) = fixture();
    let k = store.abs_sum();
    let n_total = shape.len();
    let broken = [CoeffKey::new(&[0, 0]), CoeffKey::new(&[1, 1])];
    let faulty = FaultInjectingStore::new(
        store,
        FaultPlan::new(3).with_permanent_keys(broken.iter().copied()),
    );
    let requests: Vec<BatchRequest<'_>> =
        batches.iter().map(|b| BatchRequest::new(b, &Sse)).collect();
    // No cache: recovery must hit the healed physical store directly.
    let server = BatchServer::new(
        ServeConfig::new(n_total, k)
            .workers(2)
            .slice_steps(2)
            .share_cache(false),
    );
    let (results, _) = server.serve_with(&faulty, &requests, |session| {
        // Heal the store while batches are in flight (or already
        // degraded — either way the run must stay coherent).
        faulty.heal();
        let _ = session.all_finished();
    });
    for result in &results {
        let fault = &result.report.fault;
        assert!(fault.attempts_reconcile());
        assert!(fault.deferrals_reconcile(result.report.deferred.len() as u64));
        match result.status {
            // Healed in time: every deferral recovered, finals exact.
            BatchStatus::Exact => {
                assert!(result.report.deferred.is_empty());
                assert_eq!(fault.deferrals, fault.recoveries);
            }
            // A full deferral pass concluded before the heal landed.
            BatchStatus::Degraded => {
                assert!(!result.report.deferred.is_empty());
                assert!(result.report.worst_case_bound > 0.0);
            }
            other => panic!("unexpected status {other:?}"),
        }
    }
}
