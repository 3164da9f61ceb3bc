//! Slice-boundary regression pin: the prefetch buffer must carry across
//! budgeted slices.  A budget that expires mid-window hands control back
//! with retrieved-but-unapplied coefficients sitting in the buffer; if
//! resuming re-fetched them (or flushed the buffer), a sliced run would
//! issue more physical round-trips than an unsliced one.  The serve pool
//! slices every batch, so that regression would silently tax every
//! round-trip the prefetch window is supposed to save.

use std::sync::atomic::{AtomicU64, Ordering};

use batchbb_core::{BatchQueries, DrainStatus, MasterList, ProgressiveExecutor};
use batchbb_penalty::Sse;
use batchbb_query::{partition, LinearStrategy, RangeSum, WaveletStrategy};
use batchbb_relation::synth;
use batchbb_storage::{CoefficientStore, Completion, IoStats, MemoryStore, RetryPolicy};
use batchbb_tensor::CoeffKey;
use batchbb_wavelet::Wavelet;

/// Counts physical round-trips (calls, not keys), singleton and batched
/// apart — what [`IoStats`] deliberately does not distinguish.
struct CallCounter<S> {
    inner: S,
    singleton: AtomicU64,
    batch: AtomicU64,
}

impl<S> CallCounter<S> {
    fn new(inner: S) -> Self {
        CallCounter {
            inner,
            singleton: AtomicU64::new(0),
            batch: AtomicU64::new(0),
        }
    }

    fn calls(&self) -> (u64, u64) {
        (
            self.singleton.load(Ordering::Relaxed),
            self.batch.load(Ordering::Relaxed),
        )
    }
}

impl<S: CoefficientStore> CoefficientStore for CallCounter<S> {
    /// A window of one is a singleton call (`try_get` is one); the executor
    /// never submits one as a prefetch window.
    fn submit(&self, keys: &[CoeffKey]) -> Completion {
        let calls = if keys.len() == 1 {
            &self.singleton
        } else {
            &self.batch
        };
        calls.fetch_add(1, Ordering::Relaxed);
        self.inner.submit(keys)
    }

    fn quiesce(&self) {
        self.inner.quiesce()
    }

    fn version_tag(&self) -> u64 {
        self.inner.version_tag()
    }

    fn nnz(&self) -> usize {
        self.inner.nnz()
    }

    fn stats(&self) -> IoStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
}

fn workload() -> (MemoryStore, BatchQueries) {
    let dataset = synth::clustered(2, 6, 8_000, 3, 5);
    let dfd = dataset.to_frequency_distribution();
    let domain = dfd.schema().domain();
    let strategy = WaveletStrategy::new(Wavelet::Haar);
    let store = MemoryStore::from_entries(strategy.transform_data(dfd.tensor()));
    let queries: Vec<RangeSum> = partition::random_partition(&domain, 24, 9)
        .into_iter()
        .map(RangeSum::count)
        .collect();
    let batch = BatchQueries::rewrite(&strategy, queries, &domain).unwrap();
    (store, batch)
}

#[test]
fn prefetch_buffer_carries_across_slice_boundaries() {
    let (store, batch) = workload();
    let policy = RetryPolicy::default();
    let window = 16;

    let unsliced_counter = CallCounter::new(&store);
    let mut unsliced =
        ProgressiveExecutor::new(&batch, &Sse, &unsliced_counter).with_prefetch_window(window);
    assert_eq!(unsliced.drain_with_faults(&policy), DrainStatus::Exact);
    // The window is the round-trip unit: a drain at window W crosses the
    // store in exactly ceil(master keys / W) batched calls and never key
    // by key. Losing the batching path lands at one call per key.
    let master_keys = MasterList::build(&batch).len() as u64;
    assert!(
        master_keys > 10 * window as u64,
        "the drain spans many windows"
    );
    assert_eq!(
        unsliced_counter.calls(),
        (0, master_keys.div_ceil(window as u64)),
        "(singleton, batch) calls for {master_keys} master keys at W={window}"
    );

    // Budget 7 never divides the 16-key window, so every slice boundary
    // lands mid-window with retrieved coefficients still buffered.
    let sliced_counter = CallCounter::new(&store);
    let mut sliced =
        ProgressiveExecutor::new(&batch, &Sse, &sliced_counter).with_prefetch_window(window);
    let mut slices = 0u64;
    let status = loop {
        match sliced.drain_with_faults_budgeted(&policy, 7) {
            Some(status) => break status,
            None => slices += 1,
        }
    };
    assert_eq!(status, DrainStatus::Exact);
    assert!(
        slices > 2,
        "the workload must actually cross slice boundaries, got {slices} slices"
    );

    assert_eq!(
        sliced_counter.calls(),
        unsliced_counter.calls(),
        "slicing must not change the physical round-trip count: the \
         prefetch buffer carries across budget boundaries \
         (singleton, batch) sliced vs unsliced"
    );
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(sliced.estimates()),
        bits(unsliced.estimates()),
        "sliced and unsliced finals must be bit-identical"
    );
}
