//! The slow-store latency-hiding fixture.
//!
//! The slow store is a [`LatencyStore`] with a base charge and no per-key
//! term: a fixed wall-clock latency per *physical* store round-trip — one
//! sleep per store call (singleton or window), the way a disk seek or
//! an object-store GET charges per request, not per key.
//! [`OverlapFixture`] runs the same serve workload against that store
//! three ways — workers blocking on every round-trip, the asynchronous
//! completion engine parking batches over in-flight fetches, and that
//! engine beneath the pool's shared cache — and reports the throughput
//! ratios. The CI `--slow-store` gate (`tests/slow_store.rs`) runs this
//! measurement and asserts its floors; DESIGN.md §12 describes the
//! workflow.

use std::time::{Duration, Instant};

use batchbb_core::BatchQueries;
use batchbb_penalty::Sse;
use batchbb_query::{partition, LinearStrategy, RangeSum, WaveletStrategy};
use batchbb_relation::synth;
use batchbb_serve::{BatchRequest, BatchServer, ServeConfig};
use batchbb_storage::{AsyncFetchStore, CoefficientStore, LatencyStore, MemoryStore};
use batchbb_tensor::CoeffKey;
use batchbb_wavelet::Wavelet;

/// Shape of the blocking-vs-overlapped measurement.
#[derive(Debug, Clone)]
pub struct OverlapConfig {
    /// Concurrent batches offered to the pool.
    pub batches: usize,
    /// Range-sum queries per batch.
    pub queries_per_batch: usize,
    /// Records in the synthetic clustered dataset.
    pub records: usize,
    /// Worker threads — *equal* on both sides of the comparison; only the
    /// storage engine differs.
    pub workers: usize,
    /// Scheduling slice budget.
    pub slice_steps: usize,
    /// Prefetch window (keys per round-trip). Must be > 1 or the executor
    /// never batches and nothing can overlap.
    pub window: usize,
    /// Simulated latency per physical round-trip.
    pub latency: Duration,
    /// I/O threads backing the overlapped side's [`AsyncFetchStore`].
    pub io_threads: usize,
}

impl Default for OverlapConfig {
    fn default() -> Self {
        OverlapConfig {
            batches: 12,
            queries_per_batch: 16,
            records: 30_000,
            workers: 1,
            slice_steps: 64,
            window: 32,
            latency: Duration::from_millis(2),
            io_threads: 12,
        }
    }
}

/// One side of the comparison, measured.
#[derive(Debug, Clone)]
pub struct OverlapRun {
    /// Wall-clock seconds for the whole pool run.
    pub elapsed_secs: f64,
    /// Coefficients retrieved across all batches.
    pub retrieved: u64,
    /// Physical round-trips charged by the slow store.
    pub store_calls: u64,
    /// Retrievals per second.
    pub throughput: f64,
    /// Final estimates per batch, for the bit-identity check.
    pub estimates: Vec<Vec<f64>>,
}

/// All three arms plus the headline ratios.
#[derive(Debug, Clone)]
pub struct OverlapReport {
    /// Workers stalling on every round-trip.
    pub blocking: OverlapRun,
    /// Same pool, batches parked over in-flight fetches.
    pub overlapped: OverlapRun,
    /// The overlapped arm served through the pool's shared cache.
    pub cached: OverlapRun,
    /// `overlapped.throughput / blocking.throughput`.
    pub speedup: f64,
    /// `cached.throughput / blocking.throughput`.
    pub cached_speedup: f64,
}

/// The prepared workload: coefficients, query batches, serve config.
pub struct OverlapFixture {
    cfg: OverlapConfig,
    entries: Vec<(CoeffKey, f64)>,
    store: MemoryStore,
    batches: Vec<BatchQueries>,
    n_total: usize,
    k: f64,
}

impl OverlapFixture {
    /// Builds the workload once; the serve runs reuse it.
    pub fn build(cfg: OverlapConfig) -> Self {
        let dataset = synth::clustered(2, 7, cfg.records, 4, 11);
        let dfd = dataset.to_frequency_distribution();
        let domain = dfd.schema().domain();
        let strategy = WaveletStrategy::new(Wavelet::Haar);
        let entries = strategy.transform_data(dfd.tensor());
        let store = MemoryStore::from_entries(entries.clone());
        let batches = (0..cfg.batches)
            .map(|b| {
                let queries: Vec<RangeSum> =
                    partition::random_partition(&domain, cfg.queries_per_batch, b as u64)
                        .into_iter()
                        .map(RangeSum::count)
                        .collect();
                BatchQueries::rewrite(&strategy, queries, &domain).unwrap()
            })
            .collect();
        let n_total = domain.len();
        let k = store.abs_sum();
        OverlapFixture {
            cfg,
            entries,
            store,
            batches,
            n_total,
            k,
        }
    }

    /// The serve config every arm runs under; only `share_cache` differs.
    /// The blocking and overlapped arms keep the pool's cache off so their
    /// round-trip counts are the executors' own windows; the cached arm
    /// turns it on over the same engine — the cache forwards each window's
    /// misses as one non-blocking `submit`, so it keeps the overlap and
    /// only removes round-trips (DESIGN.md §12).
    fn serve_config(&self, share_cache: bool) -> ServeConfig {
        ServeConfig::new(self.n_total, self.k)
            .workers(self.cfg.workers)
            .slice_steps(self.cfg.slice_steps)
            .share_cache(share_cache)
            .prefetch_window(self.cfg.window)
    }

    fn run(
        &self,
        eff: &dyn CoefficientStore,
        share_cache: bool,
        calls: impl Fn() -> u64,
    ) -> OverlapRun {
        let requests: Vec<BatchRequest<'_>> = self
            .batches
            .iter()
            .map(|batch| BatchRequest::new(batch, &Sse))
            .collect();
        let server = BatchServer::new(self.serve_config(share_cache));
        let started = Instant::now();
        let results = server.serve(eff, &requests);
        let elapsed_secs = started.elapsed().as_secs_f64();
        let retrieved: u64 = results
            .iter()
            .map(|r| r.retrieved_entries.len() as u64)
            .sum();
        OverlapRun {
            elapsed_secs,
            retrieved,
            store_calls: calls(),
            throughput: retrieved as f64 / elapsed_secs.max(1e-9),
            estimates: results.iter().map(|r| r.report.estimates.clone()).collect(),
        }
    }

    /// `inner` charging the configured latency per round-trip (per *call*,
    /// not per key — batching round-trips is exactly the saving the
    /// prefetch window buys).  Its `submit` is the trait default, so the
    /// latency lands in the charged `submit`: to hide it, wrap the
    /// store in `AsyncFetchStore` (the sleep then runs on its I/O threads).
    fn slow<S: CoefficientStore>(&self, inner: S) -> LatencyStore<S> {
        LatencyStore::new(inner, self.cfg.latency.as_nanos() as u64, 0)
    }

    /// Baseline: every round-trip stalls the worker that issued it.
    pub fn serve_blocking(&self) -> OverlapRun {
        let slow = self.slow(&self.store);
        self.run(&slow, false, || slow.calls())
    }

    /// Latency-hiding: the same pool over `AsyncFetchStore(slow store)` —
    /// a worker that submits a fetch parks the batch and advances another
    /// while the I/O threads absorb the sleep.
    pub fn serve_overlapped(&self) -> OverlapRun {
        self.serve_engine(false)
    }

    /// The overlapped arm again with `share_cache(true)`: the pool's
    /// shared cache sits above the same engine.
    pub fn serve_cached(&self) -> OverlapRun {
        self.serve_engine(true)
    }

    fn serve_engine(&self, share_cache: bool) -> OverlapRun {
        let slow = self.slow(MemoryStore::from_entries(self.entries.clone()));
        let engine = AsyncFetchStore::new(slow, self.cfg.io_threads);
        self.run(&engine, share_cache, || engine.inner().calls())
    }

    /// Runs all three arms and reports the throughput ratios.
    pub fn measure(&self) -> OverlapReport {
        let blocking = self.serve_blocking();
        let overlapped = self.serve_overlapped();
        let cached = self.serve_cached();
        let over_blocking = |run: &OverlapRun| run.throughput / blocking.throughput.max(1e-9);
        OverlapReport {
            speedup: over_blocking(&overlapped),
            cached_speedup: over_blocking(&cached),
            blocking,
            overlapped,
            cached,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_store_charges_per_call() {
        let inner = MemoryStore::from_entries(vec![(CoeffKey::new(&[0]), 1.0)]);
        let slow = LatencyStore::new(inner, 10_000, 0);
        let key = CoeffKey::new(&[0]);
        assert_eq!(slow.get(&key), Some(1.0));
        assert_eq!(slow.try_get_many(&[key, key]).unwrap().len(), 2);
        assert_eq!(slow.calls(), 2, "one charge per round-trip, not per key");
    }
}
