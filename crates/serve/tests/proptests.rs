//! Property-based determinism tests for the batch server: random batch
//! mixes pushed through the worker pool produce final answers
//! bit-identical to sequential executor runs, for every penalty function
//! and every pool shape.

use proptest::prelude::*;

use batchbb_core::{BatchQueries, ProgressiveExecutor};
use batchbb_penalty::{Combination, DiagonalQuadratic, LaplacianPenalty, LpPenalty, Penalty, Sse};
use batchbb_query::{partition, LinearStrategy, RangeSum, WaveletStrategy};
use batchbb_serve::{BatchRequest, BatchServer, BatchStatus, ServeConfig, SloContract, SloOutcome};
use batchbb_storage::{FaultInjectingStore, FaultPlan, MemoryStore};
use batchbb_tensor::{Shape, Tensor};
use batchbb_wavelet::Wavelet;

/// A random instance: data tensor plus several random-partition batches.
fn arb_instance() -> impl Strategy<Value = (Tensor, Vec<Vec<RangeSum>>, Shape)> {
    (2u32..5, 2u32..4, 2usize..5, 0u64..1000).prop_flat_map(|(bx, by, nbatches, seed)| {
        let shape = Shape::new(vec![1usize << bx, 1usize << by]).unwrap();
        let len = shape.len();
        prop::collection::vec(0.0f64..9.0, len).prop_map(move |vals| {
            let shape = Shape::new(vec![1usize << bx, 1usize << by]).unwrap();
            let data = Tensor::from_vec(shape.clone(), vals).unwrap();
            let batches = (0..nbatches)
                .map(|b| {
                    let cells = 2 + (seed as usize + b) % 4;
                    partition::random_partition(&shape, cells.min(shape.len()), seed + b as u64)
                        .into_iter()
                        .map(RangeSum::count)
                        .collect()
                })
                .collect();
            (data, batches, shape)
        })
    })
}

/// One penalty per family the workspace ships, sized for `batch_size`
/// (several families carry per-query weights and are batch-size
/// specific).
fn penalty_family(family: usize, batch_size: usize) -> Box<dyn Penalty> {
    match family {
        0 => Box::new(Sse),
        1 => Box::new(DiagonalQuadratic::new(
            (0..batch_size).map(|i| 1.0 + i as f64).collect(),
        )),
        2 => Box::new(LpPenalty::new(1.0)),
        3 => Box::new(LaplacianPenalty::path(batch_size)),
        _ => Box::new(Combination::new(vec![
            (0.5, Box::new(Sse) as Box<dyn Penalty>),
            (0.5, Box::new(DiagonalQuadratic::new(vec![2.0; batch_size]))),
        ])),
    }
}

const FAMILIES: usize = 5;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random batch mixes through the pool equal sequential runs bit for
    /// bit, for every penalty function — scheduling decides interleaving,
    /// never content.
    #[test]
    fn pool_is_bit_identical_to_sequential((data, query_batches, shape) in arb_instance(),
                                           workers in 1usize..5,
                                           slice in 1usize..9,
                                           share in any::<bool>()) {
        let strategy = WaveletStrategy::new(Wavelet::Haar);
        let store = MemoryStore::from_entries(strategy.transform_data(&data));
        let n_total = shape.len().max(2);
        let k = store.abs_sum();
        let batches: Vec<BatchQueries> = query_batches
            .iter()
            .map(|qs| BatchQueries::rewrite(&strategy, qs.clone(), &shape).unwrap())
            .collect();
        for family in 0..FAMILIES {
            let panel: Vec<Box<dyn Penalty>> = batches
                .iter()
                .map(|b| penalty_family(family, b.len()))
                .collect();
            let requests: Vec<BatchRequest<'_>> = batches
                .iter()
                .zip(&panel)
                .map(|(b, p)| BatchRequest::new(b, p.as_ref()))
                .collect();
            let server = BatchServer::new(
                ServeConfig::new(n_total, k)
                    .workers(workers)
                    .slice_steps(slice)
                    .share_cache(share),
            );
            let results = server.serve(&store, &requests);
            prop_assert_eq!(results.len(), batches.len());
            for ((batch, penalty), result) in batches.iter().zip(&panel).zip(&results) {
                prop_assert_eq!(result.status, BatchStatus::Exact);
                let mut serial = ProgressiveExecutor::new(batch, penalty.as_ref(), &store);
                serial.run_to_end();
                prop_assert_eq!(result.estimates(), serial.estimates(),
                    "penalty {} diverged under workers={} slice={} share={}",
                    penalty.name(), workers, slice, share);
                prop_assert_eq!(&result.retrieved_entries, &serial.retrieved_entries());
            }
        }
    }

    /// Prefetch windows change only fetch batching, never answers: a pool
    /// run with W ∈ {4, 16} is bit-identical to the W = 1 singleton path,
    /// batch for batch.
    #[test]
    fn prefetch_window_is_bit_identical((data, query_batches, shape) in arb_instance(),
                                        workers in 1usize..5,
                                        slice in 1usize..9,
                                        share in any::<bool>()) {
        let strategy = WaveletStrategy::new(Wavelet::Haar);
        let store = MemoryStore::from_entries(strategy.transform_data(&data));
        let n_total = shape.len().max(2);
        let k = store.abs_sum();
        let batches: Vec<BatchQueries> = query_batches
            .iter()
            .map(|qs| BatchQueries::rewrite(&strategy, qs.clone(), &shape).unwrap())
            .collect();
        let panel: Vec<Box<dyn Penalty>> = batches
            .iter()
            .enumerate()
            .map(|(i, b)| penalty_family(i % FAMILIES, b.len()))
            .collect();
        let requests: Vec<BatchRequest<'_>> = batches
            .iter()
            .zip(&panel)
            .map(|(b, p)| BatchRequest::new(b, p.as_ref()))
            .collect();
        let serve = |w: usize| {
            BatchServer::new(
                ServeConfig::new(n_total, k)
                    .workers(workers)
                    .slice_steps(slice)
                    .share_cache(share)
                    .prefetch_window(w),
            )
            .serve(&store, &requests)
        };
        let baseline = serve(1);
        for w in [4usize, 16] {
            let results = serve(w);
            prop_assert_eq!(results.len(), baseline.len());
            for (got, want) in results.iter().zip(&baseline) {
                prop_assert_eq!(got.status, want.status);
                prop_assert_eq!(got.estimates(), want.estimates(),
                    "prefetch window {} diverged under workers={} slice={} share={}",
                    w, workers, slice, share);
                prop_assert_eq!(&got.retrieved_entries, &want.retrieved_entries);
            }
        }
    }

    /// Degraded results carry *reconciling* certificates: under seeded
    /// faults (transient rates plus permanently broken keys) and every
    /// pool shape, each batch — whatever its terminal status — publishes
    /// a monotone non-increasing bound history ending at its final
    /// certified bound, a fault ledger that balances exactly, and an
    /// `SloOutcome` that agrees with the certificate (`Met` iff the final
    /// bound meets the target).
    #[test]
    fn degraded_results_carry_reconciling_certificates(
        (data, query_batches, shape) in arb_instance(),
        workers in 1usize..5,
        slice in 1usize..9,
        seed in 0u64..1000,
        rate in 0.0f64..0.5,
        broken in 0usize..3,
        eps_scale in 0.0f64..1.0,
    ) {
        let strategy = WaveletStrategy::new(Wavelet::Haar);
        let store = MemoryStore::from_entries(strategy.transform_data(&data));
        let n_total = shape.len().max(2);
        let k = store.abs_sum();
        let broken_keys: Vec<_> = store.iter().map(|(key, _)| *key).take(broken).collect();
        let faulty = FaultInjectingStore::new(
            store,
            FaultPlan::new(seed)
                .with_transient_rate(rate)
                .with_permanent_keys(broken_keys),
        );
        let batches: Vec<BatchQueries> = query_batches
            .iter()
            .map(|qs| BatchQueries::rewrite(&strategy, qs.clone(), &shape).unwrap())
            .collect();
        let epsilon = k * eps_scale * 1e-2;
        let requests: Vec<BatchRequest<'_>> = batches
            .iter()
            .map(|b| {
                BatchRequest::new(b, &Sse)
                    .with_slo(SloContract::new().with_target_bound(epsilon))
            })
            .collect();
        let server = BatchServer::new(
            ServeConfig::new(n_total, k).workers(workers).slice_steps(slice),
        );
        let results = server.serve(&faulty, &requests);
        prop_assert_eq!(results.len(), batches.len(), "no batch lost");
        for result in &results {
            let history = &result.bound_history;
            prop_assert!(!history.is_empty());
            prop_assert!(history.windows(2).all(|w| w[1] <= w[0]),
                "bound history not monotone under faults: {history:?}");
            prop_assert_eq!(*history.last().unwrap(), result.report.worst_case_bound,
                "history must end at the final certified bound");
            let fault = &result.report.fault;
            prop_assert!(fault.attempts_reconcile(), "torn ledger: {fault:?}");
            prop_assert!(fault.deferrals_reconcile(result.report.deferred.len() as u64));
            let met = result.report.worst_case_bound <= epsilon;
            match result.slo {
                SloOutcome::Met => prop_assert!(met,
                    "Met with bound {} above target {epsilon}", result.report.worst_case_bound),
                SloOutcome::DegradedAtBound => prop_assert!(!met,
                    "DegradedAtBound with bound {} within target {epsilon}",
                    result.report.worst_case_bound),
                SloOutcome::Rejected { .. } =>
                    prop_assert_eq!(result.status, BatchStatus::Rejected),
            }
            prop_assert!(result.report.worst_case_bound >= 0.0);
            prop_assert!(result.report.worst_case_bound.is_finite());
        }
    }

    /// Rejection never loses or tears a batch: under an arbitrary declared
    /// capacity every submitted batch comes back exactly once, rejected
    /// batches performed zero retrievals and carry their full initial
    /// certificate, and admitted batches (fault-free store) finish exact,
    /// bit-identical to sequential runs — admission decides *whether* a
    /// batch runs, never *what* it computes.
    #[test]
    fn rejection_never_loses_or_tears_admitted_batches(
        (data, query_batches, shape) in arb_instance(),
        workers in 1usize..5,
        slice in 1usize..9,
        capacity in 0u64..400,
    ) {
        let strategy = WaveletStrategy::new(Wavelet::Haar);
        let store = MemoryStore::from_entries(strategy.transform_data(&data));
        let n_total = shape.len().max(2);
        let k = store.abs_sum();
        let batches: Vec<BatchQueries> = query_batches
            .iter()
            .map(|qs| BatchQueries::rewrite(&strategy, qs.clone(), &shape).unwrap())
            .collect();
        let requests: Vec<BatchRequest<'_>> =
            batches.iter().map(|b| BatchRequest::new(b, &Sse)).collect();
        let server = BatchServer::new(
            ServeConfig::new(n_total, k)
                .workers(workers)
                .slice_steps(slice)
                .capacity(capacity),
        );
        let results = server.serve(&store, &requests);
        prop_assert_eq!(results.len(), batches.len(), "every batch returns exactly once");
        let mut committed = 0u64;
        for (batch, result) in batches.iter().zip(&results) {
            let mut serial = ProgressiveExecutor::new(batch, &Sse, &store);
            serial.run_to_end();
            let cost = serial.retrieved() as u64;
            match result.status {
                BatchStatus::Rejected => {
                    prop_assert!(result.retrieved_entries.is_empty(),
                        "a rejected batch must not have touched the store");
                    prop_assert!(
                        matches!(result.slo, SloOutcome::Rejected { .. }),
                        "rejected status without a Rejected outcome"
                    );
                    prop_assert!(committed + cost > capacity,
                        "batch rejected although its cost fit the capacity left");
                }
                BatchStatus::Exact => {
                    prop_assert!(committed + cost <= capacity,
                        "batch admitted although its cost overflowed the capacity left");
                    committed += cost;
                    prop_assert_eq!(result.estimates(), serial.estimates(),
                        "admitted batch diverged from its sequential run");
                    prop_assert_eq!(&result.retrieved_entries, &serial.retrieved_entries());
                    prop_assert_eq!(result.slo, SloOutcome::Met);
                }
                other => prop_assert!(false, "fault-free admitted batch ended {other:?}"),
            }
        }
    }

    /// Tracing is bit-for-bit free: a run with a causal tracer and sink
    /// attached publishes exactly the results of the untraced run —
    /// estimates, retrieved entries, statuses, bound histories, and (on
    /// the single-worker faulty configuration, where interleaving is
    /// deterministic) the whole fault ledger. Spans observe; they never
    /// steer.
    #[test]
    fn tracing_is_bit_for_bit_free(
        (data, query_batches, shape) in arb_instance(),
        workers in 1usize..5,
        slice in 1usize..9,
        seed in 0u64..1000,
        rate in 0.0f64..0.4,
    ) {
        use batchbb_obs::{MemorySink, Tracer};
        use std::sync::Arc;

        let strategy = WaveletStrategy::new(Wavelet::Haar);
        let store = MemoryStore::from_entries(strategy.transform_data(&data));
        let n_total = shape.len().max(2);
        let k = store.abs_sum();
        let batches: Vec<BatchQueries> = query_batches
            .iter()
            .map(|qs| BatchQueries::rewrite(&strategy, qs.clone(), &shape).unwrap())
            .collect();
        let requests: Vec<BatchRequest<'_>> =
            batches.iter().map(|b| BatchRequest::new(b, &Sse)).collect();
        // Fault-free, any pool shape: content is interleaving-independent,
        // so traced and untraced runs must agree exactly.
        let run = |traced: bool| {
            let mut config = ServeConfig::new(n_total, k).workers(workers).slice_steps(slice);
            if traced {
                config = config
                    .tracing(Tracer::new(seed))
                    .sink(Arc::new(MemorySink::new()));
            }
            BatchServer::new(config).serve(&store, &requests)
        };
        let plain = run(false);
        let traced = run(true);
        prop_assert_eq!(plain.len(), traced.len());
        for (want, got) in plain.iter().zip(&traced) {
            prop_assert_eq!(want.status, got.status);
            prop_assert_eq!(want.estimates(), got.estimates());
            prop_assert_eq!(&want.retrieved_entries, &got.retrieved_entries);
            prop_assert_eq!(&want.bound_history, &got.bound_history);
        }
        // Seeded faults, one worker: the whole run is deterministic, so
        // the comparison extends to the fault ledger tick for tick. Each
        // run gets a *fresh* fault plan — the injector's schedule advances
        // with every attempt, so a shared instance would desynchronize.
        let run_faulty = |traced: bool| {
            let faulty = FaultInjectingStore::new(
                MemoryStore::from_entries(strategy.transform_data(&data)),
                FaultPlan::new(seed).with_transient_rate(rate),
            );
            let mut config = ServeConfig::new(n_total, k).workers(1).slice_steps(slice);
            if traced {
                config = config
                    .tracing(Tracer::new(seed))
                    .sink(Arc::new(MemorySink::new()));
            }
            BatchServer::new(config).serve(&faulty, &requests)
        };
        let plain = run_faulty(false);
        let traced = run_faulty(true);
        for (want, got) in plain.iter().zip(&traced) {
            prop_assert_eq!(want.status, got.status);
            prop_assert_eq!(want.estimates(), got.estimates());
            prop_assert_eq!(&want.retrieved_entries, &got.retrieved_entries);
            prop_assert_eq!(&want.bound_history, &got.bound_history);
            prop_assert_eq!(&want.report.fault, &got.report.fault,
                "tracing must not perturb the fault ledger");
            prop_assert_eq!(want.report.worst_case_bound.to_bits(),
                got.report.worst_case_bound.to_bits());
            prop_assert_eq!(want.report.expected_penalty.to_bits(),
                got.report.expected_penalty.to_bits());
        }
    }

    /// The composed stack — shared cache above the asynchronous engine
    /// above a seeded fault injector — changes who waits for a read, never
    /// a result: across pool sizes, prefetch windows and a bounded or
    /// unbounded cache, every batch finishes exact with finals and
    /// retrieval order bit-identical to a serial run over the plain store,
    /// and every fault ledger balances. Transient faults only, with enough
    /// retries that none outlives its batch; which batch draws a given
    /// fault depends on the interleaving, so the ledgers are checked for
    /// reconciliation, not equality.
    #[test]
    fn cache_over_async_engine_is_bit_identical_to_serial(
        (data, query_batches, shape) in arb_instance(),
        workers in prop::sample::select(vec![1usize, 2, 4]),
        slice in 1usize..9,
        bounded in any::<bool>(),
        seed in 0u64..1000,
        rate in 0.0f64..0.3,
    ) {
        use batchbb_storage::{AsyncFetchStore, CoefficientStore, RetryPolicy};

        let strategy = WaveletStrategy::new(Wavelet::Haar);
        let entries = strategy.transform_data(&data);
        let store = MemoryStore::from_entries(entries.clone());
        let n_total = shape.len().max(2);
        let k = store.abs_sum();
        let batches: Vec<BatchQueries> = query_batches
            .iter()
            .map(|qs| BatchQueries::rewrite(&strategy, qs.clone(), &shape).unwrap())
            .collect();
        let requests: Vec<BatchRequest<'_>> =
            batches.iter().map(|b| BatchRequest::new(b, &Sse)).collect();
        let serial: Vec<_> = batches
            .iter()
            .map(|batch| {
                let mut exec = ProgressiveExecutor::new(batch, &Sse, &store);
                exec.run_to_end();
                (exec.estimates().to_vec(), exec.retrieved_entries())
            })
            .collect();
        for window in [1usize, 4, 16] {
            let engine = AsyncFetchStore::new(
                FaultInjectingStore::new(
                    MemoryStore::from_entries(entries.clone()),
                    FaultPlan::new(seed).with_transient_rate(rate),
                ),
                2,
            );
            let mut config = ServeConfig::new(n_total, k)
                .workers(workers)
                .slice_steps(slice)
                .share_cache(true)
                .prefetch_window(window)
                .retry(RetryPolicy { max_attempts: 24, ..RetryPolicy::default() });
            if bounded {
                config = config.cache_capacity(8);
            }
            let results = BatchServer::new(config).serve(&engine, &requests);
            engine.quiesce();
            prop_assert_eq!(results.len(), batches.len());
            for (result, (estimates, retrieved)) in results.iter().zip(&serial) {
                prop_assert_eq!(result.status, BatchStatus::Exact,
                    "W={} workers={} bounded={}", window, workers, bounded);
                prop_assert_eq!(result.estimates(), estimates.as_slice(),
                    "finals diverged at W={} workers={} bounded={}", window, workers, bounded);
                prop_assert_eq!(&result.retrieved_entries, retrieved);
                let fault = &result.report.fault;
                prop_assert!(fault.attempts_reconcile(), "torn ledger: {fault:?}");
                prop_assert!(fault.deferrals_reconcile(0), "exact, so nothing stays deferred");
            }
            prop_assert!(engine.inner().injected().attempts_reconcile());
        }
    }

    /// Every served batch's per-slice worst-case bound trace is monotone
    /// non-increasing and terminates at zero on a fault-free store —
    /// Theorem 1 survives any scheduling interleaving.
    #[test]
    fn bounds_are_monotone_under_any_schedule((data, query_batches, shape) in arb_instance(),
                                              workers in 1usize..5) {
        let strategy = WaveletStrategy::new(Wavelet::Haar);
        let store = MemoryStore::from_entries(strategy.transform_data(&data));
        let n_total = shape.len().max(2);
        let k = store.abs_sum();
        let batches: Vec<BatchQueries> = query_batches
            .iter()
            .map(|qs| BatchQueries::rewrite(&strategy, qs.clone(), &shape).unwrap())
            .collect();
        let requests: Vec<BatchRequest<'_>> =
            batches.iter().map(|b| BatchRequest::new(b, &Sse)).collect();
        let server =
            BatchServer::new(ServeConfig::new(n_total, k).workers(workers).slice_steps(2));
        for result in server.serve(&store, &requests) {
            let history = &result.bound_history;
            prop_assert!(!history.is_empty());
            prop_assert!(history.windows(2).all(|w| w[1] <= w[0]),
                "bound history not monotone: {history:?}");
            prop_assert_eq!(*history.last().unwrap(), 0.0);
        }
    }
}
