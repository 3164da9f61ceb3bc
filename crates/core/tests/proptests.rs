//! Property-based tests of the Batch-Biggest-B invariants: exactness at
//! completion, non-increasing importance, I/O sharing never losing to the
//! round-robin baseline, and Theorem 1/2 optimality against random
//! alternative retained sets.

use proptest::prelude::*;

use batchbb_core::{
    bounded::evaluate_bounded, optimality, round_robin::RoundRobin, BatchQueries, DrainStatus,
    MasterList, ProgressiveExecutor,
};
use batchbb_penalty::{DiagonalQuadratic, Penalty, Sse};
use batchbb_query::{partition, LinearStrategy, RangeSum, WaveletStrategy};
use batchbb_storage::{AsyncFetchStore, FaultInjectingStore, FaultPlan, MemoryStore, RetryPolicy};
use batchbb_tensor::{CoeffKey, KeySet, Shape, Tensor};
use batchbb_wavelet::Wavelet;

/// A random instance: data tensor, store, and a partition-count batch.
fn arb_instance() -> impl Strategy<Value = (Tensor, Vec<RangeSum>, Shape)> {
    (2u32..5, 2u32..5, 2usize..12, 0u64..1000).prop_flat_map(|(bx, by, cells, seed)| {
        let shape = Shape::new(vec![1usize << bx, 1usize << by]).unwrap();
        let len = shape.len();
        let cells = cells.min(len);
        prop::collection::vec(0.0f64..9.0, len).prop_map(move |vals| {
            let shape = Shape::new(vec![1usize << bx, 1usize << by]).unwrap();
            let data = Tensor::from_vec(shape.clone(), vals).unwrap();
            let queries = partition::random_partition(&shape, cells, seed)
                .into_iter()
                .map(RangeSum::count)
                .collect();
            (data, queries, shape)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Progressive estimates equal direct evaluation once the heap drains,
    /// for both Haar and Db4.
    #[test]
    fn exact_at_completion((data, queries, shape) in arb_instance()) {
        for w in [Wavelet::Haar, Wavelet::Db4] {
            let strategy = WaveletStrategy::new(w);
            let store = MemoryStore::from_entries(strategy.transform_data(&data));
            let batch = BatchQueries::rewrite(&strategy, queries.clone(), &shape).unwrap();
            let mut exec = ProgressiveExecutor::new(&batch, &Sse, &store);
            exec.run_to_end();
            for (q, est) in batch.queries().iter().zip(exec.estimates()) {
                let truth = q.eval_direct(&data);
                prop_assert!((est - truth).abs() < 1e-6 * truth.abs().max(1.0),
                    "{w}: {est} vs {truth}");
            }
        }
    }

    /// The executor's importance stream is non-increasing, and the number
    /// of retrievals equals the master-list size — never more than the
    /// round-robin baseline.
    #[test]
    fn sharing_never_loses((data, queries, shape) in arb_instance()) {
        let strategy = WaveletStrategy::new(Wavelet::Haar);
        let store = MemoryStore::from_entries(strategy.transform_data(&data));
        let batch = BatchQueries::rewrite(&strategy, queries, &shape).unwrap();
        let master = MasterList::build(&batch).len();
        let mut exec = ProgressiveExecutor::new(&batch, &Sse, &store);
        let mut last = f64::INFINITY;
        let mut steps = 0;
        while let Some(info) = exec.step() {
            prop_assert!(info.importance <= last + 1e-12);
            last = info.importance;
            steps += 1;
        }
        prop_assert_eq!(steps, master);
        let mut rr = RoundRobin::new(&batch, &store);
        let rr_cost = rr.run_to_end();
        prop_assert!(master as u64 <= rr_cost);
        // and both are exact
        for (a, b) in exec.estimates().iter().zip(rr.estimates()) {
            prop_assert!((a - b).abs() < 1e-6 * a.abs().max(1.0));
        }
    }

    /// Theorem 1 bound holds on arbitrary data at every step: observed
    /// penalty ≤ K^α · ι(next) with K = Σ|Δ̂|.
    #[test]
    fn theorem1_bound_pointwise((data, queries, shape) in arb_instance()) {
        let strategy = WaveletStrategy::new(Wavelet::Haar);
        let store = MemoryStore::from_entries(strategy.transform_data(&data));
        let k = store.abs_sum();
        let batch = BatchQueries::rewrite(&strategy, queries, &shape).unwrap();
        let exact: Vec<f64> = batch.queries().iter().map(|q| q.eval_direct(&data)).collect();
        let mut exec = ProgressiveExecutor::new(&batch, &Sse, &store);
        loop {
            let bound = exec.worst_case_bound(k);
            let sse: f64 = exec.estimates().iter().zip(&exact)
                .map(|(e, x)| (e - x) * (e - x)).sum();
            prop_assert!(sse <= bound * (1.0 + 1e-9) + 1e-9,
                "SSE {sse} > bound {bound}");
            if exec.step().is_none() {
                break;
            }
        }
    }

    /// Theorem 1/2: the biggest-B retained set is never beaten by a random
    /// B-subset on the worst-case or expected penalty, under SSE and a
    /// random diagonal quadratic.
    #[test]
    fn biggest_b_is_best(
        (data, queries, shape) in arb_instance(),
        weights in prop::collection::vec(0.0f64..5.0, 12),
        frac in 0.1f64..0.9,
        subset_seed in 0u64..100,
    ) {
        let _ = data;
        let strategy = WaveletStrategy::new(Wavelet::Haar);
        let batch = BatchQueries::rewrite(&strategy, queries, &shape).unwrap();
        let s = batch.len();
        let penalties: Vec<Box<dyn Penalty>> = vec![
            Box::new(Sse),
            Box::new(DiagonalQuadratic::new(weights[..s.min(12)].iter().copied()
                .chain(std::iter::repeat(1.0)).take(s).collect())),
        ];
        for p in &penalties {
            let ranked = optimality::importance_ranking(&batch, p.as_ref());
            let b = ((ranked.len() as f64) * frac) as usize;
            let best = optimality::biggest_b_set(&batch, p.as_ref(), b);
            let best_wc = optimality::worst_case_penalty(&batch, p.as_ref(), &best, 1.0);
            let best_e = optimality::expected_penalty(&batch, p.as_ref(), &best, shape.len());
            // one deterministic "random" alternative subset
            let mut alt: Vec<CoeffKey> = ranked.iter().map(|(k, _)| *k).collect();
            let n = alt.len();
            for i in 0..b {
                let j = i + ((subset_seed as usize).wrapping_mul(31).wrapping_add(i * 17)) % (n - i);
                alt.swap(i, j);
            }
            let alt: KeySet = alt[..b].iter().copied().collect();
            prop_assert!(best_wc <= optimality::worst_case_penalty(&batch, p.as_ref(), &alt, 1.0) + 1e-12);
            prop_assert!(best_e <= optimality::expected_penalty(&batch, p.as_ref(), &alt, shape.len()) + 1e-12);
        }
    }

    /// Final estimates and retrieved entries are bit-identical across
    /// prefetch windows, on arbitrary instances and under injected
    /// transient faults: the window changes how values cross the store
    /// boundary, never what the executor computes.
    #[test]
    fn prefetch_windows_agree_bit_for_bit(
        (data, queries, shape) in arb_instance(),
        window in 2usize..64,
        rate in 0.0f64..0.4,
        seed in 0u64..1000,
    ) {
        let _ = data;
        let strategy = WaveletStrategy::new(Wavelet::Haar);
        let store = MemoryStore::from_entries(strategy.transform_data(&data));
        let batch = BatchQueries::rewrite(&strategy, queries, &shape).unwrap();
        let policy = RetryPolicy::default();
        let run = |w: usize| {
            let faulty = FaultInjectingStore::new(
                &store,
                FaultPlan::new(seed).with_transient_rate(rate),
            );
            let mut exec = ProgressiveExecutor::new(&batch, &Sse, &faulty)
                .with_prefetch_window(w);
            if exec.drain_with_faults(&policy) != DrainStatus::Exact {
                // Unlucky transient streak exhausted the retry budget:
                // heal and finish — canonical finalization still applies.
                faulty.heal();
                assert_eq!(exec.drain_with_faults(&policy), DrainStatus::Exact);
            }
            (exec.estimates().to_vec(), exec.retrieved_entries())
        };
        let (base_est, base_entries) = run(1);
        for w in [window, 16] {
            let (est, entries) = run(w);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&est), bits(&base_est),
                "estimates diverge at window {}", w);
            prop_assert_eq!(&entries, &base_entries,
                "retrieved entries diverge at window {}", w);
        }
    }

    /// ✦ The asynchronous completion engine is a transparent storage-engine
    /// swap for the executor: across pool shapes (I/O thread counts),
    /// prefetch windows, and seeded transient faults, the parked-completion
    /// path produces bit-identical final estimates, the same
    /// retrieved-entry witness, and the *exact same* fault ledger as the
    /// blocking `try_get_many` path (fault draws are per `(key, attempt)`,
    /// so thread interleaving cannot change them).
    #[test]
    fn async_completion_agrees_with_sync_bit_for_bit(
        (data, queries, shape) in arb_instance(),
        window in 2usize..64,
        io_threads in 1usize..5,
        rate in 0.0f64..0.4,
        seed in 0u64..1000,
    ) {
        let strategy = WaveletStrategy::new(Wavelet::Haar);
        let entries = strategy.transform_data(&data);
        let batch = BatchQueries::rewrite(&strategy, queries, &shape).unwrap();
        let policy = RetryPolicy::default();
        let plan = || FaultPlan::new(seed).with_transient_rate(rate);

        // Blocking reference: every prefetch window crosses the store
        // boundary through `try_get_many` and stalls the caller.
        let sync_store =
            FaultInjectingStore::new(MemoryStore::from_entries(entries.clone()), plan());
        let mut sync_exec = ProgressiveExecutor::new(&batch, &Sse, &sync_store)
            .with_prefetch_window(window);
        if sync_exec.drain_with_faults(&policy) != DrainStatus::Exact {
            // Unlucky transient streak exhausted the retry budget: heal
            // and finish — canonical finalization still applies.
            sync_store.heal();
            assert_eq!(sync_exec.drain_with_faults(&policy), DrainStatus::Exact);
        }

        // Completion path: the same windows submitted to the async engine;
        // the executor parks on the Completion and the drain resolves it.
        let engine = AsyncFetchStore::new(
            FaultInjectingStore::new(MemoryStore::from_entries(entries), plan()),
            io_threads,
        );
        let mut async_exec = ProgressiveExecutor::new(&batch, &Sse, &engine)
            .with_prefetch_window(window);
        if async_exec.drain_with_faults(&policy) != DrainStatus::Exact {
            engine.inner().heal();
            assert_eq!(async_exec.drain_with_faults(&policy), DrainStatus::Exact);
        }

        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(async_exec.estimates()), bits(sync_exec.estimates()),
            "completion path diverged from blocking finals");
        prop_assert_eq!(async_exec.retrieved_entries(), sync_exec.retrieved_entries(),
            "completion path retrieved a different witness");
        let (sync_stats, async_stats) = (sync_exec.fault_stats(), async_exec.fault_stats());
        prop_assert!(sync_stats.attempts_reconcile(), "sync ledger: {:?}", sync_stats);
        prop_assert!(async_stats.attempts_reconcile(), "async ledger: {:?}", async_stats);
        prop_assert_eq!(async_stats, sync_stats,
            "the storage engine must not change the fault ledger");
    }

    /// Bounded-workspace evaluation with an unlimited budget is exact.
    #[test]
    fn bounded_exact_with_full_budget((data, queries, shape) in arb_instance()) {
        let strategy = WaveletStrategy::new(Wavelet::Haar);
        let store = MemoryStore::from_entries(strategy.transform_data(&data));
        let r = evaluate_bounded(&strategy, &queries, &shape, &store, &Sse, usize::MAX / 8).unwrap();
        for (q, est) in queries.iter().zip(&r.estimates) {
            let truth = q.eval_direct(&data);
            prop_assert!((est - truth).abs() < 1e-6 * truth.abs().max(1.0));
        }
    }
}

use batchbb_core::TryStepOutcome;
use batchbb_storage::CoefficientStore;

/// Window *k* fails while window *k+1* is in flight — and, the engine's
/// one worker being busy when both were submitted, the two cross the wire
/// as one call.  The failed window arms singleton steps for its own keys
/// only, the one behind it stays and lands, and nothing below the engine
/// can tell: finals, witness and fault ledger equal the blocking run's,
/// and every key was read as often as the blocking run read it (outside
/// the failed window: once).
#[test]
fn a_window_failing_ahead_of_one_in_flight_agrees_with_the_blocking_run() {
    use batchbb_storage::testing::Gated;

    const W: usize = 4;
    let shape = Shape::new(vec![16, 16]).unwrap();
    let values = (0..shape.len()).map(|i| ((i * 7) % 5) as f64).collect();
    let data = Tensor::from_vec(shape.clone(), values).unwrap();
    let strategy = WaveletStrategy::new(Wavelet::Haar);
    let queries = partition::random_partition(&shape, 4, 11)
        .into_iter()
        .map(RangeSum::count)
        .collect();
    let batch = BatchQueries::rewrite(&strategy, queries, &shape).unwrap();
    let order: Vec<CoeffKey> = reference_walk(&batch, &Sse)
        .iter()
        .map(|&(key, _)| key)
        .collect();
    assert!(
        order.len() >= 3 * W,
        "the case needs windows behind the two"
    );
    // Inside window 0 with a key ahead of it: the failed call has a prefix.
    let victim = order[1];
    let faulty = |gate_open: bool| {
        let gated = Gated::new(MemoryStore::from_entries(strategy.transform_data(&data)));
        gated.set_gate(gate_open);
        FaultInjectingStore::new(gated, FaultPlan::new(3).with_permanent_keys([victim]))
    };
    let policy = RetryPolicy::default();

    let blocking = faulty(true);
    let mut sync_exec = ProgressiveExecutor::new(&batch, &Sse, &blocking).with_prefetch_window(W);
    assert_eq!(sync_exec.drain_with_faults(&policy), DrainStatus::Degraded);

    let engine = AsyncFetchStore::new(faulty(false), 1);
    let gate = engine.inner().inner();
    // Park the worker on a read of no interest, so windows 0 and 1 queue
    // up behind it and cross as one call.
    let blocker = engine.submit(&[CoeffKey::new(&[999, 999])]);
    while gate.calls().is_empty() {
        std::thread::yield_now();
    }
    let mut async_exec = ProgressiveExecutor::new(&batch, &Sse, &engine).with_prefetch_window(W);
    assert_eq!(async_exec.drain_with_faults_budgeted(&policy, 2 * W), None);
    assert!(async_exec.fetch_pending() && !async_exec.fetch_ready());
    gate.set_gate(true);
    blocker.wait().unwrap();
    assert_eq!(async_exec.drain_with_faults(&policy), DrainStatus::Degraded);

    assert_eq!(async_exec.estimates(), sync_exec.estimates());
    assert_eq!(
        async_exec.retrieved_entries(),
        sync_exec.retrieved_entries()
    );
    assert_eq!(async_exec.fault_stats(), sync_exec.fault_stats());
    assert_eq!(async_exec.deferred_keys(), vec![victim]);
    engine.quiesce();
    for (at, key) in order.iter().enumerate() {
        let reads = gate.reads_of(key);
        assert_eq!(reads, blocking.inner().reads_of(key), "key {at}");
        // Past the failed window nothing is read twice; inside it the key
        // ahead of the victim is read by the window and by its singleton.
        assert_eq!(
            reads,
            [2, 0, 1, 1].get(at).copied().unwrap_or(1),
            "key {at}"
        );
    }
}

/// `(key, importance bits)` — what "the same progression" is compared on.
type Walk = Vec<(CoeffKey, u64)>;

fn reference_walk(batch: &BatchQueries, penalty: &dyn Penalty) -> Walk {
    optimality::importance_ranking(batch, penalty)
        .into_iter()
        .map(|(key, iota)| (key, iota.to_bits()))
        .collect()
}

/// Drives `try_step` at window `w` under `policy` until the progression
/// is drained or the attempt budget spent (yielding on `Pending`),
/// checking the executor's books against `reference` after every call;
/// returns the walk of retrieved steps, the keys that deferred, and how
/// many keys the store was asked for, in-flight reads settled.  With a
/// `target` of `(ε, K)` it drives the ε-targeted drain instead, one step a
/// call, until it reports a status — the entry point that knows where
/// read-ahead must stop.
fn try_walk(
    batch: &BatchQueries,
    penalty: &dyn Penalty,
    store: &dyn CoefficientStore,
    w: usize,
    reference: &Walk,
    policy: &RetryPolicy,
    target: Option<(f64, f64)>,
) -> Result<(Walk, Vec<CoeffKey>, u64), TestCaseError> {
    let mut exec = ProgressiveExecutor::new(batch, penalty, store).with_prefetch_window(w);
    let (mut walk, mut deferred) = (Vec::new(), Vec::new());
    while exec.remaining() > 0 {
        if let Some((epsilon, k_abs_sum)) = target {
            let before = exec.remaining();
            match exec.drain_with_faults_budgeted_to_bound(policy, 1, epsilon, k_abs_sum) {
                Some(_) => break,
                None if exec.remaining() < before => walk.push(reference[reference.len() - before]),
                None => std::thread::yield_now(),
            }
        } else {
            match exec.try_step(policy) {
                TryStepOutcome::Retrieved(info) => walk.push((info.key, info.importance.to_bits())),
                TryStepOutcome::Deferred { key, .. } => deferred.push(key),
                TryStepOutcome::Pending => std::thread::yield_now(),
                TryStepOutcome::BudgetExhausted => break,
                other => prop_assert!(false, "unexpected outcome {:?}", other),
            }
        }
        prop_assert_eq!(
            exec.retrieved() + exec.remaining() + exec.deferred_count(),
            reference.len()
        );
        let position = reference.len() - exec.remaining();
        prop_assert_eq!(
            exec.next_importance().map(f64::to_bits),
            reference.get(position).map(|&(_, iota)| iota)
        );
    }
    drop(exec);
    store.quiesce();
    Ok((walk, deferred, store.stats().retrievals))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The executor's progression *is* the reference ranking, element for
    /// element and ties included — through `step`, through `try_step` at
    /// W = 1 and a random W, and through the asynchronous engine's parked
    /// windows — under SSE and a random diagonal quadratic (whose zero
    /// weights make whole runs of importances tie).
    #[test]
    fn executor_walks_the_reference_ranking(
        (data, queries, shape) in arb_instance(),
        weights in prop::collection::vec(0.0f64..5.0, 12),
        window in 2usize..64,
    ) {
        let strategy = WaveletStrategy::new(Wavelet::Haar);
        let entries = strategy.transform_data(&data);
        let store = MemoryStore::from_entries(entries.clone());
        let engine = AsyncFetchStore::new(MemoryStore::from_entries(entries), 2);
        let batch = BatchQueries::rewrite(&strategy, queries, &shape).unwrap();
        let penalties: [Box<dyn Penalty>; 2] = [
            Box::new(Sse),
            Box::new(DiagonalQuadratic::new(weights.into_iter().chain(std::iter::repeat(1.0))
                .take(batch.len()).collect())),
        ];
        for p in &penalties {
            let reference = reference_walk(&batch, p.as_ref());
            let mut exec = ProgressiveExecutor::new(&batch, p.as_ref(), &store);
            let stepped: Walk = std::iter::from_fn(|| exec.step())
                .map(|info| (info.key, info.importance.to_bits()))
                .collect();
            prop_assert_eq!(&stepped, &reference, "step()");
            let stores: [(&dyn CoefficientStore, usize); 3] =
                [(&store, 1), (&store, window), (&engine, window)];
            let policy = RetryPolicy::default();
            for (store, w) in stores {
                let (walk, deferred, _) =
                    try_walk(&batch, p.as_ref(), store, w, &reference, &policy, None)?;
                prop_assert_eq!(&walk, &reference, "try_step at W = {}", w);
                prop_assert!(deferred.is_empty());
            }
        }
    }

    /// A window that fails as a whole rewinds to its first entry: with one
    /// permanently failing key inside it, that key alone defers and every
    /// other key still comes out in reference order, over the blocking
    /// store and over the engine's parked windows alike.
    #[test]
    fn a_failed_window_resumes_in_reference_order(
        (data, queries, shape) in arb_instance(),
        window in 2usize..64,
        pick in 0usize..1000,
    ) {
        let strategy = WaveletStrategy::new(Wavelet::Haar);
        let entries = strategy.transform_data(&data);
        let batch = BatchQueries::rewrite(&strategy, queries, &shape).unwrap();
        let mut reference = reference_walk(&batch, &Sse);
        let victim = reference[pick % reference.len()].0;
        let faulty = || {
            FaultInjectingStore::new(
                MemoryStore::from_entries(entries.clone()),
                FaultPlan::new(0).with_permanent_keys([victim]),
            )
        };
        let (blocking, engine) = (faulty(), AsyncFetchStore::new(faulty(), 2));
        let policy = RetryPolicy::default();
        let walks = [
            try_walk(&batch, &Sse, &blocking, window, &reference, &policy, None)?,
            try_walk(&batch, &Sse, &engine, window, &reference, &policy, None)?,
        ];
        reference.retain(|&(key, _)| key != victim);
        for (walk, deferred, _) in walks {
            prop_assert_eq!(&walk, &reference);
            prop_assert_eq!(deferred, vec![victim]);
        }
    }

    /// Read-ahead is invisible to counts: over the engine, an ε-targeted
    /// drain asks the store for exactly the keys the blocking drain asks
    /// for — no window is submitted that the blocking run never reaches —
    /// and under `total_attempt_budget = n` no more than `n` keys are ever
    /// requested, the same ones.
    #[test]
    fn read_ahead_is_invisible_to_counts(
        (data, queries, shape) in arb_instance(),
        window in 2usize..64,
        pick in 0usize..1000,
        budget in 1u64..200,
    ) {
        let strategy = WaveletStrategy::new(Wavelet::Haar);
        let entries = strategy.transform_data(&data);
        let batch = BatchQueries::rewrite(&strategy, queries, &shape).unwrap();
        let reference = reference_walk(&batch, &Sse);
        let k_abs_sum = MemoryStore::from_entries(entries.clone()).abs_sum();
        // The bound of a random entry, so whole runs of ties sit on ε.
        let iota = f64::from_bits(reference[pick % reference.len()].1);
        let epsilon = k_abs_sum.powf(Sse.homogeneity()) * iota;
        let capped = RetryPolicy { total_attempt_budget: Some(budget), ..RetryPolicy::default() };
        for (policy, target) in [
            (RetryPolicy::default(), Some((epsilon, k_abs_sum))),
            (capped, None),
        ] {
            let blocking = MemoryStore::from_entries(entries.clone());
            let engine = AsyncFetchStore::new(MemoryStore::from_entries(entries.clone()), 2);
            let (walk, _, asked) =
                try_walk(&batch, &Sse, &blocking, window, &reference, &policy, target)?;
            let (engine_walk, _, engine_asked) =
                try_walk(&batch, &Sse, &engine, window, &reference, &policy, target)?;
            prop_assert_eq!(engine_walk, walk);
            prop_assert_eq!(engine_asked, asked, "target {:?}", target);
            if target.is_none() {
                prop_assert!(asked <= budget);
            }
        }
    }
}
