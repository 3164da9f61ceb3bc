//! The storage traits.

use batchbb_tensor::CoeffKey;

use crate::{Completion, IoStats, StorageError};

/// Read access to a materialized view of transform coefficients.
///
/// A store implements **one** retrieval primitive,
/// [`CoefficientStore::submit`], and decides a value — and what it costs —
/// there.  The reads above it (`try_get`, its window of one, `get` and
/// `try_get_many`) are provided and never overridden in this workspace
/// (`scripts/ci.sh` checks), so they agree with it by construction
/// (DESIGN.md §10).
///
/// Every requested key counts as one logical retrieval — the cost unit of
/// the paper's experiments — whether or not the attempt succeeds.
/// Implementations must be usable through `&self` from multiple threads.
pub trait CoefficientStore: Send + Sync {
    /// [`CoefficientStore::try_get`] for callers with nothing to do about
    /// a failure: panics on one.
    fn get(&self, key: &CoeffKey) -> Option<f64> {
        self.try_get(key)
            .unwrap_or_else(|e| panic!("retrieval failed: {e}"))
    }

    /// Retrieves the coefficient at `key`, counting one retrieval: the
    /// window of one, `submit(&[key]).wait_one()`.
    ///
    /// `Ok(None)` means the coefficient is absent, which callers must
    /// treat as exactly zero (sparse stores only hold nonzeros); the
    /// retrieval is still counted: the paper's cost model charges for the
    /// lookup, not for the value.  Purely in-memory stores never fail;
    /// stores backed by physical I/O map backend errors to
    /// [`StorageError::Io`], and [`crate::FaultInjectingStore`] injects
    /// faults from a deterministic plan.
    fn try_get(&self, key: &CoeffKey) -> Result<Option<f64>, StorageError> {
        self.submit(std::slice::from_ref(key)).wait_one()
    }

    /// [`CoefficientStore::submit`], waited on: the value (or absence) of
    /// every key in `keys`, in input order, or the batch's error.
    fn try_get_many(&self, keys: &[CoeffKey]) -> Result<Vec<Option<f64>>, StorageError> {
        self.submit(keys).wait()
    }

    /// Submits a batched fetch of `keys` and returns a [`Completion`]
    /// resolving to their values in input order.
    ///
    /// A store that decides key by key — a point store, or a wrapper that
    /// accounts per key (fault injection, instrumentation) — answers with
    /// [`Completion::per_key`], resolved at submit time and allocation-free
    /// for a window of one.  Stores with real batching do better:
    /// [`crate::BlockStore`] reads each block at most once per window,
    /// [`crate::FileStore`] coalesces sorted slots into single-pass reads,
    /// [`crate::ShardedCachingStore`] forwards a window's misses to its
    /// inner store as one `submit` and memoizes when the completion is
    /// taken.  The asynchronous engine ([`crate::ShardRouter`]) returns a
    /// pending completion: the caller may poll [`Completion::is_ready`],
    /// park the work that needs the values, and [`Completion::wait`] later
    /// — the latency-hiding primitive of DESIGN.md §12.
    ///
    /// Contract (DESIGN.md §10): each key counts as one logical
    /// retrieval; `Err` means the batch as a whole failed, with the error
    /// the key-by-key loop would hit first and no per-key verdicts —
    /// callers that need attribution fall back to `try_get`.  An
    /// implementation may perform *fewer* physical reads than that loop
    /// (that is the point) but never returns different values or absence
    /// verdicts.
    fn submit(&self, keys: &[CoeffKey]) -> Completion;

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
    /// version".  A pinned [`crate::VersionView`] returns its pinned
    /// [`crate::VersionId`] (a [`crate::VersionedStore`] is read only
    /// through its views), so version-aware wrappers
    /// ([`crate::ShardedCachingStore`], [`crate::AsyncFetchStore`]) can key
    /// cache and in-flight tables by `(version, key)` and never serve one
    /// version's value to a reader of another.  Pass-through wrappers must
    /// forward it.
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
