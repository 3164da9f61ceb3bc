//! The store-contract check, shared (via `#[path]`) by every crate that
//! ships a `CoefficientStore`.
//!
//! A store has one read primitive, `submit`, and `try_get` is its window
//! of one; a wider window must resolve to what the key-by-key loop of
//! windows of one returns — values in input order, one logical retrieval
//! per key, and on failure the error the loop would hit first
//! ([`reads_agree`], [`faults_agree`]).  That is what a store batching
//! for real (or the cache, which branches on a window's length) could get
//! wrong.  (`get` and `try_get_many` are provided on top and never
//! overridden, so they have nothing of their own to check.)
//!
//! A wrapper must also forward what is not a read. One that forgets
//! `version_tag` tags every version `0`, so a version-keyed cache or
//! in-flight table above it can hand one version's value to a reader of
//! another — silently voiding the certificate. One that forgets `quiesce`
//! leaves an asynchronous engine beneath it undrained.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use batchbb_storage::{
    CoefficientStore, Completion, FaultInjectingStore, FaultPlan, IoStats, VersionView,
    VersionedStore,
};
use batchbb_tensor::CoeffKey;

/// The innermost store of a conformance stack: a pinned [`VersionView`]
/// that counts the `quiesce` calls reaching it.
pub(crate) struct Probe {
    view: Arc<VersionView>,
    quiesces: Arc<AtomicU64>,
}

impl CoefficientStore for Probe {
    fn submit(&self, keys: &[CoeffKey]) -> Completion {
        Completion::per_key(keys, |key| self.view.try_get(key))
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
    /// advanced version's value, answers `submit` like the `try_get` loop,
    /// and forwards `quiesce` to the probe.
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

        let absent = [CoeffKey::one(9), CoeffKey::one(5)];
        let window = [absent[0], key, absent[1], key, absent[0]];
        reads_agree(wrapped, &window, name);
        assert_eq!(
            wrapped.submit(&window).wait(),
            Ok(vec![None, Some(7.0), None, Some(7.0), None]),
            "{name}: submit"
        );

        let before = self.quiesces.load(Ordering::SeqCst);
        wrapped.quiesce();
        assert!(
            self.quiesces.load(Ordering::SeqCst) > before,
            "{name}: quiesce must reach the inner store"
        );
    }
}

/// Asserts `try_get` ≡ `submit` on `store`: the window resolves to the
/// key-by-key loop's values in input order — present, absent and repeated
/// keys, in any order — and its distinct keys cost the same logical
/// retrievals either way, one each.  (Counted on distinct keys: an engine
/// that shares in-flight reads charges a key repeated within one window
/// once.)
pub(crate) fn reads_agree(store: &dyn CoefficientStore, window: &[CoeffKey], name: &str) {
    let looped: Result<Vec<_>, _> = window.iter().map(|k| store.try_get(k)).collect();
    assert_eq!(
        store.submit(window).wait(),
        looped,
        "{name}: submit(keys).wait() must equal the try_get loop"
    );
    let mut distinct = window.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let r0 = store.stats().retrievals;
    for key in &distinct {
        store.try_get(key).unwrap();
    }
    let r1 = store.stats().retrievals;
    store.submit(&distinct).wait().unwrap();
    let r2 = store.stats().retrievals;
    assert_eq!(
        (r1 - r0, r2 - r1),
        (distinct.len() as u64, distinct.len() as u64),
        "{name}: one logical retrieval a key, looped or submitted"
    );
}

/// Asserts first-error identity: over two identical stacks built by
/// `wrap` on a seeded fault injector (one permanently failing key, the
/// rest failing transiently at even odds), a window of distinct keys
/// fails — or succeeds — on `submit` exactly as the `try_get` loop does,
/// with the same error.  Distinct keys, because an engine that shares
/// in-flight reads rolls a repeated key once where the loop rolls twice.
pub(crate) fn faults_agree<W: CoefficientStore>(
    wrap: impl Fn(FaultInjectingStore<Probe>) -> W,
    name: &str,
) {
    let h = Harness::new();
    let window: Vec<CoeffKey> = (0..12).map(CoeffKey::one).collect();
    for seed in 0..16 {
        let stack = || {
            let plan = FaultPlan::new(seed)
                .with_transient_rate(0.5)
                .with_permanent_keys([window[7]]);
            wrap(FaultInjectingStore::new(h.probe(), plan))
        };
        for len in [1, 7, 8, 12] {
            let (looped, submitted) = (stack(), stack());
            let want: Result<Vec<_>, _> = window[..len].iter().map(|k| looped.try_get(k)).collect();
            assert_eq!(
                submitted.submit(&window[..len]).wait(),
                want,
                "{name}: seed {seed}, {len} keys: submit must fail as the loop does"
            );
        }
    }
}
