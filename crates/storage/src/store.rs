//! The storage traits.

use batchbb_tensor::CoeffKey;

use crate::{Completion, IoStats, StorageError};

/// Read access to a materialized view of transform coefficients.
///
/// Every call to [`CoefficientStore::get`] is counted as one logical
/// retrieval — the cost unit of the paper's experiments.  Implementations
/// must be usable through `&self` from multiple threads.
pub trait CoefficientStore: Send + Sync {
    /// Retrieves the coefficient at `key`, counting one retrieval.
    ///
    /// Returns `None` when the coefficient is absent, which callers must
    /// treat as exactly zero (sparse stores only hold nonzeros). The
    /// retrieval is still counted: the paper's cost model charges for the
    /// lookup, not for the value.
    fn get(&self, key: &CoeffKey) -> Option<f64>;

    /// Fallible retrieval: like [`CoefficientStore::get`], but surfaces
    /// retrieval failures instead of panicking or silently absorbing them.
    ///
    /// The default implementation delegates to `get` and never fails, so
    /// purely in-memory stores get a correct fallible path for free.
    /// Implementations backed by physical I/O ([`crate::FileStore`],
    /// [`crate::BlockStore`]) override this to map backend errors to
    /// [`StorageError::Io`]; [`crate::FaultInjectingStore`] overrides it to
    /// inject faults from a deterministic plan. As with `get`, the attempt
    /// is counted as one logical retrieval whether or not it succeeds.
    fn try_get(&self, key: &CoeffKey) -> Result<Option<f64>, StorageError> {
        Ok(self.get(key))
    }

    /// Batched fallible retrieval: the value (or absence) of every key in
    /// `keys`, in input order.
    ///
    /// The default implementation is a loop over
    /// [`CoefficientStore::try_get`], so every store has a correct batched
    /// path with byte-identical accounting to the singleton path.  Stores
    /// with real batching opportunities override it: [`crate::BlockStore`]
    /// groups keys by block and reads each block at most once,
    /// [`crate::FileStore`] coalesces sorted slots into single-pass reads,
    /// and [`crate::ShardedCachingStore`] forwards a batch's misses to its
    /// inner store as one call.
    ///
    /// Contract (see DESIGN.md §10): each key still counts as one logical
    /// retrieval; `Err` means the batch as a whole failed and *no* result
    /// ordering is implied beyond "nothing was returned" — callers that
    /// need per-key failure attribution fall back to key-by-key `try_get`.
    /// Overrides may perform *fewer* physical reads than the equivalent
    /// singleton sequence (that is the point) but must never return
    /// different values or absence verdicts.
    fn try_get_many(&self, keys: &[CoeffKey]) -> Result<Vec<Option<f64>>, StorageError> {
        keys.iter().map(|k| self.try_get(k)).collect()
    }

    /// Submits a batched fetch and returns a [`Completion`] that resolves
    /// to the same `Result` [`CoefficientStore::try_get_many`] would return
    /// for `keys`.
    ///
    /// The default implementation fetches synchronously and returns an
    /// already-resolved completion, so every blocking store supports the
    /// completion API with byte-identical values and accounting.  Genuinely
    /// asynchronous backends ([`crate::AsyncFetchStore`]) return a pending
    /// completion instead: the caller may poll [`Completion::is_ready`],
    /// park the work that needs the values, and [`Completion::wait`] later
    /// — the latency-hiding primitive of DESIGN.md §12.  Wrappers that
    /// account per call (fault injection, instrumentation) keep this
    /// default so the adapter routes through *their* `try_get_many`;
    /// pass-through wrappers forward it to preserve asynchrony, and
    /// [`crate::ShardedCachingStore`] forwards a window's misses as one
    /// inner `submit` and memoizes when the completion is taken, so a
    /// cache above an asynchronous engine keeps the engine's overlap.
    fn submit(&self, keys: &[CoeffKey]) -> Completion {
        Completion::ready(self.try_get_many(keys))
    }

    /// Blocks until every asynchronous fetch submitted to this store has
    /// completed and its in-flight bookkeeping is retired.
    ///
    /// A no-op for synchronous stores (the default).  Callers use it to
    /// settle an asynchronous engine before reading its counters or
    /// tearing it down ([`crate::ShardRouter`] also drains cancelled
    /// hedges); it is *not* part of the update path — data changes only
    /// by [`crate::VersionedStore::publish`], which needs no barrier.
    /// Wrappers must forward it to their inner store.
    fn quiesce(&self) {}

    /// The data version this store currently answers from, as an opaque
    /// tag.
    ///
    /// Unversioned stores return `0` (the default) — "there is only one
    /// version".  [`crate::VersionedStore`] returns the current
    /// [`crate::VersionId`] and a pinned [`crate::VersionView`] returns its
    /// pinned id, so version-aware wrappers ([`crate::ShardedCachingStore`],
    /// [`crate::AsyncFetchStore`]) can key cache and in-flight tables by
    /// `(version, key)` and never serve one version's value to a reader of
    /// another.  Pass-through wrappers must forward it.
    fn version_tag(&self) -> u64 {
        0
    }

    /// Number of stored (nonzero) coefficients.
    fn nnz(&self) -> usize;

    /// Snapshot of the retrieval counters.
    fn stats(&self) -> IoStats;

    /// Resets the retrieval counters.
    fn reset_stats(&self);
}

/// A store that also supports incremental updates — the wavelet view is
/// update-efficient (new tuples in `O((2δ+1)^d log^d N)`, §3.1), and this is
/// the write half of that claim.
pub trait MutableStore: CoefficientStore {
    /// Adds `delta` to the coefficient at `key`, creating it if absent and
    /// removing it if the result is (numerically) zero.
    fn add(&mut self, key: CoeffKey, delta: f64);
}

impl<S: CoefficientStore + ?Sized> CoefficientStore for &S {
    fn get(&self, key: &CoeffKey) -> Option<f64> {
        (**self).get(key)
    }

    fn try_get(&self, key: &CoeffKey) -> Result<Option<f64>, StorageError> {
        (**self).try_get(key)
    }

    fn try_get_many(&self, keys: &[CoeffKey]) -> Result<Vec<Option<f64>>, StorageError> {
        (**self).try_get_many(keys)
    }

    fn submit(&self, keys: &[CoeffKey]) -> Completion {
        (**self).submit(keys)
    }

    fn quiesce(&self) {
        (**self).quiesce()
    }

    fn version_tag(&self) -> u64 {
        (**self).version_tag()
    }

    fn nnz(&self) -> usize {
        (**self).nnz()
    }

    fn stats(&self) -> IoStats {
        (**self).stats()
    }

    fn reset_stats(&self) {
        (**self).reset_stats()
    }
}
