//! The pass-through forwarding check, shared (via `#[path]`) by every
//! crate that ships a `CoefficientStore` wrapper.
//!
//! A wrapper that forgets to forward `version_tag` tags every version `0`,
//! so a version-keyed cache or in-flight table above it can hand one
//! version's value to a reader of another — silently voiding the
//! certificate. One that forgets `quiesce` leaves an asynchronous engine
//! beneath it undrained.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use batchbb_storage::{CoefficientStore, IoStats, VersionView, VersionedStore};
use batchbb_tensor::CoeffKey;

/// The innermost store of a conformance stack: a pinned [`VersionView`]
/// that counts the `quiesce` calls reaching it.
pub(crate) struct Probe {
    view: Arc<VersionView>,
    quiesces: Arc<AtomicU64>,
}

impl CoefficientStore for Probe {
    fn get(&self, key: &CoeffKey) -> Option<f64> {
        self.view.get(key)
    }

    fn quiesce(&self) {
        self.quiesces.fetch_add(1, Ordering::SeqCst);
    }

    fn version_tag(&self) -> u64 {
        self.view.version_tag()
    }

    fn nnz(&self) -> usize {
        self.view.nnz()
    }

    fn stats(&self) -> IoStats {
        self.view.stats()
    }

    fn reset_stats(&self) {
        self.view.reset_stats()
    }
}

/// A versioned store already one publish past its load, a view pinned
/// there (so a forgotten forward reads `0`, never the right tag by luck),
/// and the probe's quiesce counter.
pub(crate) struct Harness {
    store: VersionedStore,
    view: Arc<VersionView>,
    quiesces: Arc<AtomicU64>,
}

impl Harness {
    pub(crate) fn new() -> Self {
        let key = CoeffKey::one(1);
        let store = VersionedStore::from_entries([(key, 2.0)]);
        store.publish(&[(key, 1.0)]);
        let view = Arc::new(store.pin());
        Harness {
            store,
            view,
            quiesces: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The store to wrap.
    pub(crate) fn probe(&self) -> Probe {
        Probe {
            view: Arc::clone(&self.view),
            quiesces: Arc::clone(&self.quiesces),
        }
    }

    /// Asserts `wrapped` (a wrapper stack over [`Harness::probe`]) reports
    /// the view's version before and after a publish + advance, reads the
    /// advanced version's value, and forwards `quiesce` to the probe.
    pub(crate) fn check(&self, wrapped: &dyn CoefficientStore, name: &str) {
        let key = CoeffKey::one(1);
        assert_eq!(self.view.version().as_u64(), 1);
        assert_eq!(wrapped.version_tag(), 1, "{name}: version_tag at v1");
        assert_eq!(wrapped.try_get(&key), Ok(Some(3.0)), "{name}: v1");

        self.store.publish(&[(key, 4.0)]);
        self.view.advance_to_current();
        assert_eq!(self.view.version().as_u64(), 2);
        assert_eq!(
            wrapped.version_tag(),
            2,
            "{name}: version_tag must follow the view's advance"
        );
        assert_eq!(
            wrapped.try_get(&key),
            Ok(Some(7.0)),
            "{name}: a read after the advance must see the new version"
        );

        let before = self.quiesces.load(Ordering::SeqCst);
        wrapped.quiesce();
        assert!(
            self.quiesces.load(Ordering::SeqCst) > before,
            "{name}: quiesce must reach the inner store"
        );
    }
}
