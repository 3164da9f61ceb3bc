//! The one test double the engine's tests share, here and in the crates
//! above (`batchbb_core`'s executor tests pin windows in flight with it).

use std::sync::{Condvar, Mutex};

use batchbb_tensor::CoeffKey;

use crate::{CoefficientStore, Completion, IoStats};

/// A pass-through store that records every read reaching it (one entry
/// per call, holding that call's keys) and holds each call at a gate, so
/// a read can be pinned in flight while a test arranges what arrives
/// meanwhile. The gate starts open.
pub struct Gated<S> {
    /// The wrapped store.
    pub inner: S,
    calls: Mutex<Vec<Vec<CoeffKey>>>,
    open: Mutex<bool>,
    cv: Condvar,
}

impl<S> Gated<S> {
    /// Wraps `inner`, gate open.
    pub fn new(inner: S) -> Self {
        Gated {
            inner,
            calls: Mutex::new(Vec::new()),
            open: Mutex::new(true),
            cv: Condvar::new(),
        }
    }

    /// [`Gated::new`] with the gate closed.
    pub fn closed(inner: S) -> Self {
        let gated = Gated::new(inner);
        gated.set_gate(false);
        gated
    }

    /// Opens or shuts the gate; opening releases every held call.
    pub fn set_gate(&self, open: bool) {
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
    pub fn calls(&self) -> Vec<Vec<CoeffKey>> {
        self.calls.lock().unwrap().clone()
    }

    /// How many times `key` was read, over all calls.
    pub fn reads_of(&self, key: &CoeffKey) -> usize {
        let calls = self.calls.lock().unwrap();
        calls.iter().flatten().filter(|k| *k == key).count()
    }
}

impl<S: CoefficientStore> CoefficientStore for Gated<S> {
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
