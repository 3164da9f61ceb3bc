//! A batch of queries rewritten into the transform domain.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use batchbb_obs::SpanTimer;
use batchbb_penalty::Penalty;
use batchbb_query::{LinearStrategy, RangeSum, StrategyError};
use batchbb_tensor::Shape;
use batchbb_wavelet::SparseCoeffs;

use crate::executor::{progression_order, Progression};
use crate::observe::RewriteObserver;
use crate::MasterList;

/// A query batch after step 2 of Batch-Biggest-B: every query's sparse
/// coefficient list in the strategy's transform domain.
#[derive(Debug)]
pub struct BatchQueries {
    queries: Vec<RangeSum>,
    coeffs: Vec<SparseCoeffs>,
    /// Step 3, built on first use and shared by every executor (and every
    /// clone) of this batch: it depends on the coefficients alone.
    master: OnceLock<Arc<MasterList>>,
    /// The last progression sorted for this batch, shared by every
    /// executor whose scores match it ([`BatchQueries::progression`]).
    progression: Mutex<Option<Progression>>,
}

impl Clone for BatchQueries {
    /// A clone shares the master list and the last progression.
    fn clone(&self) -> Self {
        BatchQueries {
            queries: self.queries.clone(),
            coeffs: self.coeffs.clone(),
            master: self.master.clone(),
            progression: Mutex::new(self.memo().clone()),
        }
    }
}

impl BatchQueries {
    fn new(queries: Vec<RangeSum>, coeffs: Vec<SparseCoeffs>) -> Self {
        BatchQueries {
            queries,
            coeffs,
            master: OnceLock::new(),
            progression: Mutex::new(None),
        }
    }

    /// Rewrites the batch sequentially.
    pub fn rewrite(
        strategy: &dyn LinearStrategy,
        queries: Vec<RangeSum>,
        domain: &Shape,
    ) -> Result<Self, StrategyError> {
        BatchQueries::rewrite_observed(strategy, queries, domain, None)
    }

    /// [`BatchQueries::rewrite`] with an optional [`RewriteObserver`]:
    /// per-query rewrite latency and coefficient counts go to `rewrite.*`
    /// metrics and events. With `None` no clock is ever read.
    pub fn rewrite_observed(
        strategy: &dyn LinearStrategy,
        queries: Vec<RangeSum>,
        domain: &Shape,
        observer: Option<&RewriteObserver>,
    ) -> Result<Self, StrategyError> {
        let batch_timer = observer.map(|_| SpanTimer::start());
        let coeffs = queries
            .iter()
            .enumerate()
            .map(|(qi, q)| {
                let timer = observer.map(|_| SpanTimer::start());
                let coeffs = strategy.query_coefficients(q, domain)?;
                if let Some(obs) = observer {
                    obs.on_query(qi, coeffs.nnz(), timer.map_or(0, |t| t.elapsed_ns()));
                }
                Ok(coeffs)
            })
            .collect::<Result<Vec<_>, StrategyError>>()?;
        if let Some(obs) = observer {
            let total = coeffs.iter().map(SparseCoeffs::nnz).sum();
            obs.on_batch(
                queries.len(),
                total,
                1,
                batch_timer.map_or(0, |t| t.elapsed_ns()),
            );
        }
        Ok(BatchQueries::new(queries, coeffs))
    }

    /// Rewrites the batch on `threads` scoped worker threads.
    ///
    /// Query rewriting is embarrassingly parallel — each query's
    /// coefficient list is independent — and dominates preprocessing time
    /// for large batches.
    pub fn rewrite_parallel(
        strategy: &(dyn LinearStrategy + Sync),
        queries: Vec<RangeSum>,
        domain: &Shape,
        threads: usize,
    ) -> Result<Self, StrategyError> {
        BatchQueries::rewrite_parallel_observed(strategy, queries, domain, threads, None)
    }

    /// [`BatchQueries::rewrite_parallel`] with an optional
    /// [`RewriteObserver`]. Workers emit `rewrite.query` events concurrently
    /// (the sink serializes); the `rewrite.batch` summary carries the
    /// wall-clock time of the whole scoped fan-out.
    pub fn rewrite_parallel_observed(
        strategy: &(dyn LinearStrategy + Sync),
        queries: Vec<RangeSum>,
        domain: &Shape,
        threads: usize,
        observer: Option<&RewriteObserver>,
    ) -> Result<Self, StrategyError> {
        assert!(threads >= 1, "need at least one thread");
        if threads == 1 || queries.len() < 2 {
            return BatchQueries::rewrite_observed(strategy, queries, domain, observer);
        }
        let batch_timer = observer.map(|_| SpanTimer::start());
        let mut slots: Vec<Option<Result<SparseCoeffs, StrategyError>>> =
            (0..queries.len()).map(|_| None).collect();
        let chunk = queries.len().div_ceil(threads);
        // A panicking worker propagates its panic when the scope exits.
        std::thread::scope(|scope| {
            for (ci, (qs, outs)) in queries
                .chunks(chunk)
                .zip(slots.chunks_mut(chunk))
                .enumerate()
            {
                scope.spawn(move || {
                    for (i, (q, out)) in qs.iter().zip(outs.iter_mut()).enumerate() {
                        let timer = observer.map(|_| SpanTimer::start());
                        let result = strategy.query_coefficients(q, domain);
                        if let (Some(obs), Ok(coeffs)) = (observer, &result) {
                            obs.on_query(
                                ci * chunk + i,
                                coeffs.nnz(),
                                timer.map_or(0, |t| t.elapsed_ns()),
                            );
                        }
                        *out = Some(result);
                    }
                });
            }
        });
        let coeffs = slots
            .into_iter()
            .map(|s| s.expect("all slots filled"))
            .collect::<Result<Vec<_>, _>>()?;
        if let Some(obs) = observer {
            let total = coeffs.iter().map(SparseCoeffs::nnz).sum();
            obs.on_batch(
                queries.len(),
                total,
                threads,
                batch_timer.map_or(0, |t| t.elapsed_ns()),
            );
        }
        Ok(BatchQueries::new(queries, coeffs))
    }

    /// The queries, in batch order.
    pub fn queries(&self) -> &[RangeSum] {
        &self.queries
    }

    /// Per-query sparse coefficient lists, aligned with
    /// [`BatchQueries::queries`].
    pub fn coefficients(&self) -> &[SparseCoeffs] {
        &self.coeffs
    }

    /// Batch size `s`.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True for an empty batch.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Total coefficient count over all queries — what the round-robin
    /// single-query baseline must retrieve (no sharing).
    pub fn total_coefficients(&self) -> usize {
        self.coeffs.iter().map(SparseCoeffs::nnz).sum()
    }

    /// Query `i` alone, as a batch of one — the unit the round-robin
    /// baseline runs one executor over.
    pub(crate) fn single(&self, i: usize) -> BatchQueries {
        BatchQueries::new(vec![self.queries[i].clone()], vec![self.coeffs[i].clone()])
    }

    /// The batch's master list, merged on the first call and shared after
    /// it: every [`crate::ProgressiveExecutor::new`] over this batch — each
    /// serve of a prepared batch, each penalty — indexes the same list.
    pub fn master(&self) -> Arc<MasterList> {
        self.master
            .get_or_init(|| Arc::new(MasterList::build(self)))
            .clone()
    }

    /// The batch's progression under `penalty` — steps 4–5's retrieval
    /// order, sorted once per distinct score vector.  `ι_p` is a function
    /// of the batch and the penalty alone, so a re-serve (or a serve after
    /// a live update) scores every key again and, when each score matches
    /// the last progression bit for bit, shares it: the order is a pure
    /// function of the scores, so that is exactly what a fresh sort would
    /// return.  Otherwise the fresh sort replaces the memo.  Concurrent
    /// admissions under different penalties stay correct either way: each
    /// gets a progression its own scores were checked or sorted against.
    pub(crate) fn progression(&self, penalty: &dyn Penalty) -> Progression {
        let master = self.master();
        let cached = self.memo().clone();
        if let Some(cached) = cached.filter(|p| p.scores_match(&master, penalty, self.len())) {
            return cached;
        }
        let fresh = progression_order(&master, penalty, self.len());
        *self.memo() = Some(fresh.clone());
        fresh
    }

    /// The memo, locked.  It is only ever replaced whole, so a lock
    /// poisoned by a panicking admission still holds a valid one.
    fn memo(&self) -> MutexGuard<'_, Option<Progression>> {
        self.progression.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchbb_query::{HyperRect, WaveletStrategy};
    use batchbb_wavelet::Wavelet;

    fn batch(n_queries: usize) -> Vec<RangeSum> {
        (0..n_queries)
            .map(|i| RangeSum::count(HyperRect::new(vec![i, 0], vec![i + 4, 7])))
            .collect()
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let domain = Shape::new(vec![16, 16]).unwrap();
        let strategy = WaveletStrategy::new(Wavelet::Haar);
        let seq = BatchQueries::rewrite(&strategy, batch(8), &domain).unwrap();
        for threads in [1, 2, 3, 8, 16] {
            let par =
                BatchQueries::rewrite_parallel(&strategy, batch(8), &domain, threads).unwrap();
            assert_eq!(seq.len(), par.len());
            for (a, b) in seq.coefficients().iter().zip(par.coefficients()) {
                assert!(a.max_abs_diff(b) < 1e-12, "threads={threads}");
            }
        }
    }

    #[test]
    fn error_propagates_from_any_query() {
        let domain = Shape::new(vec![16, 16]).unwrap();
        let strategy = WaveletStrategy::new(Wavelet::Haar);
        let mut queries = batch(3);
        queries.push(RangeSum::count(HyperRect::new(vec![0, 0], vec![16, 7]))); // out of domain
        assert!(BatchQueries::rewrite(&strategy, queries.clone(), &domain).is_err());
        assert!(BatchQueries::rewrite_parallel(&strategy, queries, &domain, 4).is_err());
    }

    #[test]
    fn total_coefficients_sums_nnz() {
        let domain = Shape::new(vec![16, 16]).unwrap();
        let strategy = WaveletStrategy::new(Wavelet::Haar);
        let b = BatchQueries::rewrite(&strategy, batch(4), &domain).unwrap();
        let total: usize = b.coefficients().iter().map(|c| c.nnz()).sum();
        assert_eq!(b.total_coefficients(), total);
        assert!(total > 0);
    }
}
