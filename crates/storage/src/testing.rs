//! The one test double this crate's unit tests share.

use std::sync::{Condvar, Mutex};

use batchbb_tensor::CoeffKey;

use crate::{CoefficientStore, Completion, IoStats, StorageError};

/// A pass-through store that records every read reaching it (one entry
/// per call, holding that call's keys) and holds each call at a gate, so
/// a read can be pinned in flight while a test arranges what arrives
/// meanwhile. The gate starts open.
pub(crate) struct Gated<S> {
    pub(crate) inner: S,
    calls: Mutex<Vec<Vec<CoeffKey>>>,
    open: Mutex<bool>,
    cv: Condvar,
}

impl<S> Gated<S> {
    pub(crate) fn new(inner: S) -> Self {
        Gated {
            inner,
            calls: Mutex::new(Vec::new()),
            open: Mutex::new(true),
            cv: Condvar::new(),
        }
    }

    /// [`Gated::new`] with the gate closed.
    pub(crate) fn closed(inner: S) -> Self {
        let gated = Gated::new(inner);
        gated.set_gate(false);
        gated
    }

    pub(crate) fn set_gate(&self, open: bool) {
        *self.open.lock().unwrap() = open;
        self.cv.notify_all();
    }

    fn enter(&self, keys: &[CoeffKey]) {
        self.calls.lock().unwrap().push(keys.to_vec());
        let open = self.open.lock().unwrap();
        drop(self.cv.wait_while(open, |open| !*open).unwrap());
    }

    /// The key lists of the reads seen so far (entered, not necessarily
    /// let through), in arrival order.
    pub(crate) fn calls(&self) -> Vec<Vec<CoeffKey>> {
        self.calls.lock().unwrap().clone()
    }

    /// How many times `key` was read, over all calls.
    pub(crate) fn reads_of(&self, key: &CoeffKey) -> usize {
        let calls = self.calls.lock().unwrap();
        calls.iter().flatten().filter(|k| *k == key).count()
    }
}

impl<S: CoefficientStore> CoefficientStore for Gated<S> {
    fn try_get(&self, key: &CoeffKey) -> Result<Option<f64>, StorageError> {
        self.enter(&[*key]);
        self.inner.try_get(key)
    }

    fn submit(&self, keys: &[CoeffKey]) -> Completion {
        self.enter(keys);
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
