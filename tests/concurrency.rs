//! Concurrency contract of the batch server (DESIGN.md §9): many threads
//! and batches over one shared store — with live updates interleaved —
//! always land on answers bit-identical to serial replays, with monotone
//! penalty bounds and strictly fewer physical fetches than independent
//! executors.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use batchbb::prelude::*;

fn fixture() -> (MemoryStore, Vec<BatchQueries>, WaveletStrategy, Shape) {
    let schema = Schema::new(vec![
        Attribute::new("x", 0.0, 32.0, 5),
        Attribute::new("y", 0.0, 32.0, 5),
    ])
    .unwrap();
    let mut dfd = FrequencyDistribution::new(schema);
    for i in 0..32 {
        for j in 0..32 {
            let w = ((i * 13 + j * 5) % 7) as f64;
            if w != 0.0 {
                dfd.insert_binned(&[i, j], w);
            }
        }
    }
    let strategy = WaveletStrategy::new(Wavelet::Haar);
    let store = MemoryStore::from_entries(strategy.transform_data(dfd.tensor()));
    let shape = dfd.schema().domain();
    let mut batches = Vec::new();
    for b in 0..6u64 {
        let cells = 2 + (b as usize % 3);
        let queries: Vec<RangeSum> = partition::random_partition(&shape, cells, 40 + b)
            .into_iter()
            .map(RangeSum::count)
            .collect();
        batches.push(BatchQueries::rewrite(&strategy, queries, &shape).unwrap());
    }
    (store, batches, strategy, shape)
}

/// An exact store that serves only a fixed entry map — the replay target:
/// re-running a batch against exactly the values it retrieved must
/// reproduce its estimates bit for bit.
struct ReplayStore {
    entries: HashMap<CoeffKey, f64>,
}

impl CoefficientStore for ReplayStore {
    fn submit(&self, keys: &[CoeffKey]) -> Completion {
        Completion::per_key(keys, |key| {
            Ok(self.entries.get(key).copied().filter(|v| *v != 0.0))
        })
    }

    fn nnz(&self) -> usize {
        self.entries.len()
    }

    fn stats(&self) -> IoStats {
        IoStats::default()
    }

    fn reset_stats(&self) {}
}

fn replay(batch: &BatchQueries, retrieved: &[(CoeffKey, f64)]) -> Vec<f64> {
    let store = ReplayStore {
        entries: retrieved.iter().copied().collect(),
    };
    let mut exec = ProgressiveExecutor::new(batch, &Sse, &store);
    exec.run_to_end();
    exec.estimates().to_vec()
}

#[test]
fn stress_many_threads_many_batches_bit_identical() {
    let (store, batches, _, shape) = fixture();
    let n_total = shape.len();
    let k = store.abs_sum();
    // 4 caller threads, each serving all 6 batches on its own 3-worker
    // pool — 12 pool workers hammering one store.
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let store = &store;
            let batches = &batches;
            scope.spawn(move || {
                let requests: Vec<BatchRequest<'_>> =
                    batches.iter().map(|b| BatchRequest::new(b, &Sse)).collect();
                let server =
                    BatchServer::new(ServeConfig::new(n_total, k).workers(3).slice_steps(4));
                let results = server.serve(store, &requests);
                for (batch, result) in batches.iter().zip(&results) {
                    assert_eq!(result.status, BatchStatus::Exact);
                    // Bit-identical to a serial replay of the same
                    // retrieved values — determinism under contention.
                    assert_eq!(result.estimates(), replay(batch, &result.retrieved_entries));
                }
            });
        }
    });
}

#[test]
fn live_point_updates_interleaved_with_serving() {
    let (store, batches, strategy, shape) = fixture();
    let n_total = shape.len();
    let k = store.abs_sum();
    let versioned = VersionedStore::from_entries(store.iter().map(|(k, v)| (*k, *v)));
    let requests: Vec<BatchRequest<'_>> =
        batches.iter().map(|b| BatchRequest::new(b, &Sse)).collect();
    let server = BatchServer::new(ServeConfig::new(n_total, k).workers(4).slice_steps(2));
    let inserts: &[(usize, usize, f64)] = &[(3, 7, 2.0), (17, 29, 1.0), (9, 9, 5.0)];
    let v0 = versioned.current_version();
    let (results, _) = server.serve_versioned_with(&versioned, &requests, |session| {
        // Stream point inserts while the pool runs; each is one publish,
        // after which every unfinished batch opts forward and is repaired.
        for &(x, y, w) in inserts {
            let entries = cube::point_entries(&shape, &[x, y], w, strategy.wavelet);
            session.update(&entries, || ());
            for i in 0..session.batches() {
                session.advance_batch(i);
            }
            std::thread::yield_now();
        }
    });
    for (batch, result) in batches.iter().zip(&results) {
        assert_eq!(result.status, BatchStatus::Exact);
        // Bit-identical replay: final estimates are a pure function of
        // the values actually retrieved (plus version-advance repairs,
        // which leave `retrieved_entries` equal to the version the batch
        // finished pinned to).
        assert_eq!(
            result.estimates(),
            replay(batch, &result.retrieved_entries),
            "live updates must not tear a batch's value view"
        );
        // A batch's bound trace stays monotone under contention while it
        // stays on its version; an advance re-prices it at `K + Σ|Δ|`, so
        // only a batch that never advanced must be monotone throughout.
        if result.pinned_version == Some(v0) {
            assert!(result.bound_history.windows(2).all(|w| w[1] <= w[0]));
        }
        assert_eq!(*result.bound_history.last().unwrap(), 0.0);
    }
}

/// Acceptance bar: a 4-worker pool serving 8 identical
/// batches performs strictly fewer physical fetches than 8 independent
/// executors, while every batch's finals stay bit-identical to its
/// serial run.
#[test]
fn shared_cache_beats_independent_executors_on_fetches() {
    let (store, batches, _, shape) = fixture();
    let n_total = shape.len();
    let batch = &batches[0];
    let instrumented = InstrumentedStore::new(store);
    let k = {
        let mut probe = ProgressiveExecutor::new(batch, &Sse, &instrumented);
        probe.run_to_end();
        instrumented.inner().abs_sum()
    };

    // Baseline: 8 independent executors, each paying full price.
    instrumented.inner().reset_stats();
    let mut serial_estimates = Vec::new();
    for _ in 0..8 {
        let mut exec = ProgressiveExecutor::new(batch, &Sse, &instrumented);
        exec.run_to_end();
        serial_estimates = exec.estimates().to_vec();
    }
    let independent_fetches = instrumented.inner().stats().retrievals;

    // Pool: 8 identical batches behind the shared read-through cache.
    instrumented.inner().reset_stats();
    let requests: Vec<BatchRequest<'_>> = (0..8).map(|_| BatchRequest::new(batch, &Sse)).collect();
    let server = BatchServer::new(
        ServeConfig::new(n_total, k)
            .workers(4)
            .slice_steps(4)
            .share_cache(true),
    );
    let results = server.serve(&instrumented, &requests);
    let pooled_fetches = instrumented.inner().stats().retrievals;

    assert!(
        pooled_fetches < independent_fetches,
        "shared cache must save physical I/O: pooled {pooled_fetches} vs independent {independent_fetches}"
    );
    // With 8 identical batches, the cache collapses the workload to at
    // most one physical fetch per master-list key.
    assert!(pooled_fetches <= independent_fetches / 8);
    for result in &results {
        assert_eq!(result.status, BatchStatus::Exact);
        assert_eq!(result.estimates(), serial_estimates.as_slice());
    }
}

#[test]
fn cancellation_under_contention_is_clean() {
    let (store, batches, _, shape) = fixture();
    let n_total = shape.len();
    let k = store.abs_sum();
    let requests: Vec<BatchRequest<'_>> =
        batches.iter().map(|b| BatchRequest::new(b, &Sse)).collect();
    let server = BatchServer::new(ServeConfig::new(n_total, k).workers(2).slice_steps(1));
    let cancelled = AtomicUsize::new(0);
    let (results, _) = server.serve_with(&store, &requests, |session| {
        for handle in session.handles().iter().step_by(2) {
            if handle.cancel() {
                cancelled.fetch_add(1, Ordering::SeqCst);
            }
        }
    });
    assert_eq!(cancelled.load(Ordering::SeqCst), 3);
    for (i, result) in results.iter().enumerate() {
        match result.status {
            BatchStatus::Exact => {
                assert!(result.report.is_exact);
            }
            BatchStatus::Cancelled => {
                assert!(i % 2 == 0, "only even batches were cancelled");
                // A cancelled batch still honors the replay contract for
                // what it did retrieve: its partial estimates are the
                // canonical partial sums of its retrieved values.
                assert!(!result.report.is_exact || result.report.deferred.is_empty());
            }
            other => panic!("unexpected status {other:?}"),
        }
    }
    // The uncancelled batches must all be exact.
    for result in results.iter().skip(1).step_by(2) {
        assert_eq!(result.status, BatchStatus::Exact);
    }
}

mod snapshot_isolation {
    //! DESIGN.md §13: versioned serving under concurrent publishers.
    //! Writers publish new store versions while the pool drains; every
    //! batch's final answer must be bit-identical to a fresh serial run
    //! against the exact version it finished pinned to — never a torn
    //! mix of two versions — across pool shapes, prefetch windows, and
    //! mid-flight `advance_batch` opt-ins.

    use super::*;
    use proptest::prelude::*;

    fn versioned_fixture() -> (VersionedStore, Vec<BatchQueries>, WaveletStrategy, Shape) {
        let schema = Schema::new(vec![
            Attribute::new("x", 0.0, 32.0, 5),
            Attribute::new("y", 0.0, 32.0, 5),
        ])
        .unwrap();
        let mut dfd = FrequencyDistribution::new(schema);
        for i in 0..32 {
            for j in 0..32 {
                let w = ((i * 13 + j * 5) % 7) as f64;
                if w != 0.0 {
                    dfd.insert_binned(&[i, j], w);
                }
            }
        }
        let strategy = WaveletStrategy::new(Wavelet::Haar);
        let store = VersionedStore::from_entries(strategy.transform_data(dfd.tensor()));
        let shape = dfd.schema().domain();
        let mut batches = Vec::new();
        for b in 0..6u64 {
            let cells = 2 + (b as usize % 3);
            let queries: Vec<RangeSum> = partition::random_partition(&shape, cells, 40 + b)
                .into_iter()
                .map(RangeSum::count)
                .collect();
            batches.push(BatchQueries::rewrite(&strategy, queries, &shape).unwrap());
        }
        (store, batches, strategy, shape)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn snapshot_isolation_never_tears(
            workers in 1usize..5,
            slice_steps in 1usize..6,
            window in 0usize..4,
            publishes in 1usize..5,
            advance_mask in 0u8..64,
            seed in 0u64..1000,
        ) {
            let (store, batches, strategy, shape) = versioned_fixture();
            let n_total = shape.len();
            let k = store.abs_sum();
            let requests: Vec<BatchRequest<'_>> =
                batches.iter().map(|b| BatchRequest::new(b, &Sse)).collect();
            let server = BatchServer::new(
                ServeConfig::new(n_total, k)
                    .workers(workers)
                    .slice_steps(slice_steps)
                    .prefetch_window(window),
            );
            const WRITERS: u64 = 2;
            let results = std::thread::scope(|scope| {
                // Writer threads publish point-insert deltas concurrently
                // with admission, draining, and the driver's own update.
                for w in 0..WRITERS {
                    let store = &store;
                    let shape = &shape;
                    let wavelet = strategy.wavelet;
                    scope.spawn(move || {
                        for p in 0..publishes as u64 {
                            let x = ((seed + 13 * w + 7 * p) % 32) as usize;
                            let y = ((seed * 3 + 5 * w + 11 * p) % 32) as usize;
                            let delta = 1.0 + (w + p) as f64;
                            let entries = cube::point_entries(shape, &[x, y], delta, wavelet);
                            store.publish(&entries);
                            std::thread::yield_now();
                        }
                    });
                }
                let driver_entries =
                    cube::point_entries(&shape, &[(seed % 32) as usize, 7], 2.5, strategy.wavelet);
                server
                    .serve_versioned_with(&store, &requests, |session| {
                        session.update(&driver_entries, || ());
                        (0..session.batches())
                            .map(|i| advance_mask & (1 << i) != 0 && session.advance_batch(i).is_some())
                            .collect::<Vec<bool>>()
                    })
            });
            let (results, advanced) = results;
            // Version monotonicity: every publish bumped the version by
            // exactly one, in some order, from v0.
            let published = WRITERS * publishes as u64 + 1;
            prop_assert_eq!(store.current_version().as_u64(), published);
            for (i, (batch, result)) in batches.iter().zip(&results).enumerate() {
                prop_assert_eq!(result.status, BatchStatus::Exact);
                let pinned = result.pinned_version.expect("versioned runs pin every batch");
                prop_assert!(pinned.as_u64() <= published);
                // Bit-identical to a fresh serial run against the pinned
                // snapshot: reads were never torn across versions.
                let view = store.pin_at(pinned).expect("pinned versions are retained");
                let mut serial = ProgressiveExecutor::new(batch, &Sse, &view);
                serial.run_to_end();
                prop_assert_eq!(
                    result.estimates(),
                    serial.estimates(),
                    "batch {} pinned {} must replay bit-for-bit",
                    i,
                    pinned
                );
                prop_assert_eq!(&result.retrieved_entries, &serial.retrieved_entries());
                // An advance re-prices the batch at `K + Σ|Δ|`; a batch the
                // driver never advanced keeps a monotone bound trace.
                if !advanced[i] {
                    prop_assert!(result.bound_history.windows(2).all(|w| w[1] <= w[0]));
                }
            }
        }
    }
}
