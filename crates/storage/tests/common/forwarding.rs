//! The pass-through forwarding check, shared (via `#[path]`) by every
//! crate that ships a `CoefficientStore` wrapper.
//!
//! A wrapper that forgets to forward `version_tag` tags every version `0`,
//! so a version-keyed cache or in-flight table above it can hand one
//! version's value to a reader of another — silently voiding the
//! certificate. One that forgets `quiesce` leaves an asynchronous engine
//! beneath it undrained. And whatever a wrapper does with `submit` —
//! keep the default, forward it, batch it — the completion must resolve
//! to exactly what `try_get_many` returns, at the same accounting cost.

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
    /// advanced version's value, answers `submit` like `try_get_many`, and
    /// forwards `quiesce` to the probe.
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

        // Present, absent and repeated keys, out of key order: same
        // values in the same order on both paths.
        let absent = [CoeffKey::one(9), CoeffKey::one(5)];
        let window = [absent[0], key, absent[1], key, absent[0]];
        let want = Ok(vec![None, Some(7.0), None, Some(7.0), None]);
        assert_eq!(wrapped.try_get_many(&window), want, "{name}: try_get_many");
        assert_eq!(
            wrapped.submit(&window).wait(),
            want,
            "{name}: submit(keys).wait() must equal try_get_many(keys)"
        );
        // Same accounting cost too. Measured on distinct keys (an engine
        // that shares in-flight reads charges a repeated key once) and on
        // a stack the calls above already warmed, so both start equal.
        let distinct = &window[..3];
        let s0 = wrapped.stats();
        wrapped.try_get_many(distinct).unwrap();
        let s1 = wrapped.stats();
        wrapped.submit(distinct).wait().unwrap();
        let s2 = wrapped.stats();
        let delta = |a: IoStats, b: IoStats| {
            (
                b.retrievals - a.retrievals,
                b.physical_reads - a.physical_reads,
                b.cache_hits - a.cache_hits,
            )
        };
        assert_eq!(
            delta(s0, s1),
            delta(s1, s2),
            "{name}: submit must cost what try_get_many costs"
        );

        let before = self.quiesces.load(Ordering::SeqCst);
        wrapped.quiesce();
        assert!(
            self.quiesces.load(Ordering::SeqCst) > before,
            "{name}: quiesce must reach the inner store"
        );
    }
}
