//! `TimedStore` conformance: a measuring wrapper must not change what is
//! measured. Through every retrieval entry point it returns the bare
//! store's values in the bare store's slot order, and everything that is
//! not a retrieval is forwarded — over a plain store, a pinned version
//! view, and the asynchronous engine.

use batchbb_e2e::timed_store::TimedStore;
use batchbb_storage::{
    AsyncFetchStore, CoefficientStore, IoStats, MemoryStore, StorageError, VersionedStore,
};
use batchbb_tensor::CoeffKey;

fn entries() -> Vec<(CoeffKey, f64)> {
    (0..40)
        .map(|i| (CoeffKey::new(&[i % 8, i / 8]), 0.5 + i as f64))
        .collect()
}

/// Present keys, absent keys, and a duplicate, in a deliberately unsorted
/// order so a wrapper that sorted or deduplicated would be caught.
fn probe_keys() -> Vec<CoeffKey> {
    vec![
        CoeffKey::new(&[7, 4]),
        CoeffKey::new(&[0, 0]),
        CoeffKey::new(&[9, 9]),
        CoeffKey::new(&[3, 2]),
        CoeffKey::new(&[0, 0]),
        CoeffKey::new(&[1, 7]),
    ]
}

/// Drives `bare` and `timed` — two stacks over equal data — through the
/// whole trait and compares.
fn conforms<A: CoefficientStore, B: CoefficientStore>(bare: &A, timed: &TimedStore<B>) {
    let keys = probe_keys();
    for key in &keys {
        assert_eq!(timed.get(key), bare.get(key), "get {key:?}");
        assert_eq!(timed.try_get(key), bare.try_get(key), "try_get {key:?}");
    }
    assert_eq!(timed.try_get_many(&keys), bare.try_get_many(&keys));
    assert_eq!(timed.submit(&keys).wait(), bare.submit(&keys).wait());
    let empty: Result<Vec<Option<f64>>, StorageError> = Ok(Vec::new());
    assert_eq!(timed.try_get_many(&[]), empty);

    assert_eq!(timed.version_tag(), bare.version_tag());
    assert_eq!(timed.nnz(), bare.nnz());
    // Both sides saw the same call sequence, so forwarded counters agree.
    assert_eq!(timed.stats(), bare.stats());
    timed.quiesce();
    timed.reset_stats();
    assert_eq!(timed.stats(), IoStats::default());
    assert_eq!(timed.inner().stats(), IoStats::default());

    let totals = timed.handle().totals();
    // 2 singleton calls per key, then try_get_many, submit, and the empty
    // try_get_many.
    assert_eq!(totals.calls, 2 * keys.len() as u64 + 3);
    assert_eq!(totals.keys, 4 * keys.len() as u64);
    assert_eq!(totals.errors, 0);
    let mut latencies = Vec::new();
    timed.handle().latencies_us(&mut latencies);
    assert_eq!(latencies.len() as u64, totals.calls);
}

#[test]
fn conforms_over_memory_store() {
    let bare = MemoryStore::from_entries(entries());
    let timed = TimedStore::new(MemoryStore::from_entries(entries()));
    conforms(&bare, &timed);
}

#[test]
fn conforms_over_a_pinned_version_view() {
    let store = VersionedStore::from_entries(entries());
    store.publish(&[
        (CoeffKey::new(&[3, 2]), 10.0),
        (CoeffKey::new(&[9, 9]), 1.0),
    ]);
    let (bare, inner) = (store.pin(), store.pin());
    // A later publish must stay invisible to both pinned views, and the
    // wrapper must report the pinned version, not the store's head.
    store.publish(&[(CoeffKey::new(&[0, 0]), -3.0)]);
    let timed = TimedStore::new(inner);
    assert_eq!(timed.version_tag(), 1);
    assert_ne!(timed.version_tag(), store.version_tag());
    conforms(&bare, &timed);
    assert_eq!(timed.get(&CoeffKey::new(&[9, 9])), Some(1.0));
    assert_eq!(timed.get(&CoeffKey::new(&[0, 0])), Some(0.5));
}

#[test]
fn conforms_over_the_async_engine_and_keeps_it_asynchronous() {
    let bare = AsyncFetchStore::new(MemoryStore::from_entries(entries()), 2);
    let timed = TimedStore::new(AsyncFetchStore::new(
        MemoryStore::from_entries(entries()),
        2,
    ));
    conforms(&bare, &timed);
    // `submit` went to the engine's queue rather than through the blocking
    // adapter: only the engine's in-flight table can dedup a key submitted
    // twice in one call.
    assert_eq!(timed.inner().dedup_hits(), bare.dedup_hits());
    assert!(timed.inner().dedup_hits() >= 1);
}

#[test]
fn errors_are_counted_and_passed_through() {
    use batchbb_storage::{FaultInjectingStore, FaultPlan};
    let key = CoeffKey::new(&[1, 1]);
    let failing = FaultInjectingStore::new(
        MemoryStore::from_entries(entries()),
        FaultPlan::new(3).with_permanent_keys([key]),
    );
    let timed = TimedStore::new(failing);
    assert!(timed.try_get(&key).is_err());
    assert!(timed.try_get_many(&[CoeffKey::new(&[0, 0]), key]).is_err());
    assert_eq!(timed.try_get(&CoeffKey::new(&[0, 0])), Ok(Some(0.5)));
    let totals = timed.handle().totals();
    assert_eq!((totals.calls, totals.errors), (3, 2));
}
