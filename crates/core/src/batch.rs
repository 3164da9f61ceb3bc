//! A batch of queries rewritten into the transform domain.

use batchbb_obs::SpanTimer;
use batchbb_query::{LinearStrategy, RangeSum, StrategyError};
use batchbb_tensor::Shape;
use batchbb_wavelet::SparseCoeffs;

use crate::observe::RewriteObserver;

/// A query batch after step 2 of Batch-Biggest-B: every query's sparse
/// coefficient list in the strategy's transform domain.
#[derive(Debug, Clone)]
pub struct BatchQueries {
    queries: Vec<RangeSum>,
    coeffs: Vec<SparseCoeffs>,
}

impl BatchQueries {
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
        Ok(BatchQueries { queries, coeffs })
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
        Ok(BatchQueries { queries, coeffs })
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
