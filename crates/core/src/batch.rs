//! A batch of queries rewritten into the transform domain.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use batchbb_penalty::{Penalty, PenaltyKey};
use batchbb_query::{LinearStrategy, RangeSum, StrategyError};
use batchbb_tensor::Shape;
use batchbb_wavelet::SparseCoeffs;

use crate::executor::{progression_order, Progression};
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
    /// The last progression sorted for this batch under a keyed penalty,
    /// with that penalty's key; shared by every executor whose penalty has
    /// an equal one ([`BatchQueries::progression`]).
    progression: Mutex<Option<(PenaltyKey, Progression)>>,
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
        BatchQueries::rewrite_parallel(strategy, queries, domain, 1)
    }

    /// Rewrites the batch on `threads` scoped worker threads; one thread,
    /// or one query, rewrites on the caller.
    ///
    /// Query rewriting is embarrassingly parallel — each query's
    /// coefficient list is independent — and dominates preprocessing time
    /// for large batches.
    pub fn rewrite_parallel(
        strategy: &dyn LinearStrategy,
        queries: Vec<RangeSum>,
        domain: &Shape,
        threads: usize,
    ) -> Result<Self, StrategyError> {
        assert!(threads >= 1, "need at least one thread");
        let threads = if queries.len() < 2 { 1 } else { threads };
        let rewrite = |q: &RangeSum| strategy.query_coefficients(q, domain);
        let coeffs = if threads == 1 {
            queries
                .iter()
                .map(rewrite)
                .collect::<Result<Vec<_>, StrategyError>>()?
        } else {
            let chunk = queries.len().div_ceil(threads);
            std::thread::scope(|scope| {
                let rewrite = &rewrite;
                let workers: Vec<_> = queries
                    .chunks(chunk)
                    .map(|qs| scope.spawn(move || qs.iter().map(rewrite).collect::<Vec<_>>()))
                    .collect();
                // Joined here, not left to the scope: the scope returns once
                // each worker's closure has, while its OS thread may still be
                // exiting (the serve pool joins its workers for the same
                // reason). A panicking worker propagates its panic.
                workers
                    .into_iter()
                    .flat_map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                    .collect::<Result<Vec<_>, StrategyError>>()
            })?
        };
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
    /// order, sorted once per penalty key.  Equal [`Penalty::scoring_key`]s
    /// score every column bit-identically, so a re-serve (or a serve after
    /// a live update) under the memo's key shares the memo, scoring and
    /// sorting nothing: it is exactly what a fresh sort would return.
    /// Otherwise the batch is scored and sorted afresh, and the sort
    /// replaces the memo — unless the penalty is keyless: then it is the
    /// executor's alone, and the memo stays.  Concurrent admissions under
    /// different penalties each get a progression sorted under their key.
    pub(crate) fn progression(&self, penalty: &dyn Penalty) -> Progression {
        let master = self.master();
        let Some(key) = penalty.scoring_key() else {
            return progression_order(&master, penalty, self.len());
        };
        if let Some((_, cached)) = self.memo().as_ref().filter(|(memo, _)| *memo == key) {
            return cached.clone();
        }
        let fresh = progression_order(&master, penalty, self.len());
        *self.memo() = Some((key, fresh.clone()));
        fresh
    }

    /// The memo, locked.  It is only ever replaced whole, so a lock
    /// poisoned by a panicking admission still holds a valid one.
    fn memo(&self) -> MutexGuard<'_, Option<(PenaltyKey, Progression)>> {
        self.progression.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchbb_query::{HyperRect, WaveletStrategy};
    use batchbb_tensor::CoeffKey;
    use batchbb_wavelet::Wavelet;
    use std::sync::atomic::{AtomicUsize, Ordering};

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

    /// Threads that rewrote through [`ExitWatch`], and how many of them
    /// have finished exiting.
    static MARKED: AtomicUsize = AtomicUsize::new(0);
    static EXITED: AtomicUsize = AtomicUsize::new(0);

    /// Set on a thread's first rewrite through [`ExitWatch`]; dropped as
    /// the thread exits, slowly, so an exit still under way is easy to
    /// catch.
    struct ExitMark;

    impl Drop for ExitMark {
        fn drop(&mut self) {
            std::thread::sleep(std::time::Duration::from_millis(50));
            EXITED.fetch_add(1, Ordering::SeqCst);
        }
    }

    thread_local! {
        static EXIT_MARK: ExitMark = {
            MARKED.fetch_add(1, Ordering::SeqCst);
            ExitMark
        };
    }

    /// A strategy that marks every thread rewriting through it.
    struct ExitWatch(WaveletStrategy);

    impl LinearStrategy for ExitWatch {
        fn name(&self) -> String {
            self.0.name()
        }

        fn transform_data(&self, data: &batchbb_tensor::Tensor) -> Vec<(CoeffKey, f64)> {
            self.0.transform_data(data)
        }

        fn query_coefficients(
            &self,
            query: &RangeSum,
            domain: &Shape,
        ) -> Result<SparseCoeffs, StrategyError> {
            EXIT_MARK.with(|_| ());
            self.0.query_coefficients(query, domain)
        }
    }

    /// A parallel rewrite returns only once its workers have exited,
    /// thread-local destructors and all.
    #[test]
    fn rewrite_parallel_returns_after_its_workers_have_exited() {
        let domain = Shape::new(vec![16, 16]).unwrap();
        let strategy = ExitWatch(WaveletStrategy::new(Wavelet::Haar));
        BatchQueries::rewrite_parallel(&strategy, batch(8), &domain, 4).unwrap();
        let marked = MARKED.load(Ordering::SeqCst);
        assert_eq!(marked, 4, "the four workers, and not the caller, rewrote");
        assert_eq!(EXITED.load(Ordering::SeqCst), marked);
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
