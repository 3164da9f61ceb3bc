//! `TimedStore`: the harness's measuring point beneath the I/O engines.
//!
//! A pass-through [`CoefficientStore`] that times every retrieval call into
//! the store it wraps and counts calls, keys and errors. The traced run
//! places one beneath `AsyncFetchStore`, inside each `ShardClient`, and
//! around the serial replay's store; the untraced run has none. Counters
//! live behind an [`Arc`] so the harness keeps a [`TimedHandle`] after the
//! store itself has been moved into an engine.
//!
//! Everything that is not a retrieval (`quiesce`, `version_tag`, `nnz`,
//! `stats`, `reset_stats`) is forwarded untouched, and `submit` is
//! forwarded rather than adapted so an asynchronous inner store stays
//! asynchronous — `tests/timed_store.rs` checks all of it against the bare
//! store.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use batchbb_storage::{CoefficientStore, Completion, IoStats, StorageError};
use batchbb_tensor::CoeffKey;

/// Counter totals of one [`TimedStore`] at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimedTotals {
    /// Retrieval calls (`get`, `try_get`, `try_get_many`, `submit`).
    pub calls: u64,
    /// Keys asked for across those calls.
    pub keys: u64,
    /// Calls that returned an error.
    pub errors: u64,
    /// Nanoseconds spent inside the wrapped store.
    pub busy_ns: u64,
}

impl TimedTotals {
    /// Component-wise `self - earlier`.
    pub fn since(&self, earlier: &TimedTotals) -> TimedTotals {
        TimedTotals {
            calls: self.calls - earlier.calls,
            keys: self.keys - earlier.keys,
            errors: self.errors - earlier.errors,
            busy_ns: self.busy_ns - earlier.busy_ns,
        }
    }
}

#[derive(Default)]
struct Shared {
    calls: AtomicU64,
    keys: AtomicU64,
    errors: AtomicU64,
    busy_ns: AtomicU64,
    /// Per-call latency in nanoseconds (saturating at `u32::MAX` ≈ 4.3 s).
    latencies: Mutex<Vec<u32>>,
}

/// The harness's view of a [`TimedStore`]'s counters.
#[derive(Clone)]
pub struct TimedHandle(Arc<Shared>);

impl TimedHandle {
    /// The counters now.
    pub fn totals(&self) -> TimedTotals {
        TimedTotals {
            calls: self.0.calls.load(Ordering::Relaxed),
            keys: self.0.keys.load(Ordering::Relaxed),
            errors: self.0.errors.load(Ordering::Relaxed),
            busy_ns: self.0.busy_ns.load(Ordering::Relaxed),
        }
    }

    /// Appends every per-call latency recorded so far, in microseconds.
    pub fn latencies_us(&self, out: &mut Vec<f64>) {
        let latencies = self.0.latencies.lock().expect("latency log poisoned");
        out.extend(latencies.iter().map(|&ns| f64::from(ns) / 1e3));
    }
}

/// Sum of `handles`' totals.
pub fn sum_totals(handles: &[TimedHandle]) -> TimedTotals {
    handles
        .iter()
        .map(TimedHandle::totals)
        .fold(TimedTotals::default(), |a, b| TimedTotals {
            calls: a.calls + b.calls,
            keys: a.keys + b.keys,
            errors: a.errors + b.errors,
            busy_ns: a.busy_ns + b.busy_ns,
        })
}

/// A timing pass-through over `S`.
pub struct TimedStore<S> {
    inner: S,
    shared: Arc<Shared>,
}

impl<S: CoefficientStore> TimedStore<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        TimedStore {
            inner,
            shared: Arc::new(Shared::default()),
        }
    }

    /// A handle onto this store's counters.
    pub fn handle(&self) -> TimedHandle {
        TimedHandle(Arc::clone(&self.shared))
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn record(&self, started: Instant, keys: usize, failed: bool) {
        let ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let shared = &self.shared;
        shared.calls.fetch_add(1, Ordering::Relaxed);
        shared.keys.fetch_add(keys as u64, Ordering::Relaxed);
        shared.busy_ns.fetch_add(ns, Ordering::Relaxed);
        if failed {
            shared.errors.fetch_add(1, Ordering::Relaxed);
        }
        shared
            .latencies
            .lock()
            .expect("latency log poisoned")
            .push(ns.min(u64::from(u32::MAX)) as u32);
    }
}

impl<S: CoefficientStore> CoefficientStore for TimedStore<S> {
    fn get(&self, key: &CoeffKey) -> Option<f64> {
        let started = Instant::now();
        let value = self.inner.get(key);
        self.record(started, 1, false);
        value
    }

    fn try_get(&self, key: &CoeffKey) -> Result<Option<f64>, StorageError> {
        let started = Instant::now();
        let value = self.inner.try_get(key);
        self.record(started, 1, value.is_err());
        value
    }

    fn try_get_many(&self, keys: &[CoeffKey]) -> Result<Vec<Option<f64>>, StorageError> {
        let started = Instant::now();
        let values = self.inner.try_get_many(keys);
        self.record(started, keys.len(), values.is_err());
        values
    }

    /// Forwards to the inner `submit`. Over a blocking store the default
    /// adapter resolves inline, so the interval is the whole fetch; over an
    /// asynchronous one it is the submission only, and the fetch is timed
    /// by whichever `TimedStore` sits beneath that engine.
    fn submit(&self, keys: &[CoeffKey]) -> Completion {
        let started = Instant::now();
        let completion = self.inner.submit(keys);
        self.record(started, keys.len(), false);
        completion
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
