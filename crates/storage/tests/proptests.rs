//! Property-based tests: every store implementation returns exactly the
//! values it was loaded with, for arbitrary entry sets, the counters
//! account for every retrieval, and the batched retrieval path
//! (`try_get_many`) is observationally identical to the key-by-key
//! singleton path — same values, same fault outcomes, same cache fills,
//! same logical-retrieval counts — across every wrapper and layout.  The
//! versioned store is additionally held, version by version, to a model:
//! one `MemoryStore` per version built by replaying `MutableStore::add`.

use proptest::prelude::*;

#[cfg(unix)]
use batchbb_storage::{BlockLayout, BlockStore, FileStore};
use batchbb_storage::{
    CoefficientStore, FaultInjectingStore, FaultPlan, InstrumentedStore, MemoryStore, MutableStore,
    ShardedCachingStore, VersionId, VersionView, VersionedStore,
};
use batchbb_tensor::CoeffKey;

fn arb_entries() -> impl Strategy<Value = Vec<(CoeffKey, f64)>> {
    prop::collection::btree_map((0usize..32, 0usize..32), -100.0f64..100.0, 0..64).prop_map(|m| {
        m.into_iter()
            .filter(|&(_, v)| v.abs() > 1e-9)
            .map(|((a, b), v)| (CoeffKey::new(&[a, b]), v))
            .collect()
    })
}

fn check_store(store: &dyn CoefficientStore, entries: &[(CoeffKey, f64)]) {
    store.reset_stats();
    for (k, v) in entries {
        let got = store.get(k);
        assert_eq!(got, Some(*v), "{k}");
    }
    let absent = CoeffKey::new(&[999, 999]);
    assert_eq!(store.get(&absent), None);
    let st = store.stats();
    assert_eq!(st.retrievals, entries.len() as u64 + 1);
}

/// Asserts `a.try_get_many(queries)` on one store instance equals the
/// key-by-key `try_get` loop on an identically constructed instance `b`:
/// same values, and the same logical-retrieval count (physical reads MAY
/// differ — doing fewer of them is the point of batching).
fn assert_batch_matches_singletons(
    a: &dyn CoefficientStore,
    b: &dyn CoefficientStore,
    queries: &[CoeffKey],
) {
    let batched = a.try_get_many(queries).unwrap();
    let singles: Vec<Option<f64>> = queries.iter().map(|k| b.try_get(k).unwrap()).collect();
    assert_eq!(batched, singles, "batched values diverge from singletons");
    assert_eq!(
        a.stats().retrievals,
        b.stats().retrievals,
        "each key must count as one logical retrieval on both paths"
    );
}

/// A query mix guaranteed to exercise present keys, absent keys, and
/// within-batch duplicates.
fn query_mix(entries: &[(CoeffKey, f64)], extra: Vec<(usize, usize)>) -> Vec<CoeffKey> {
    let mut queries: Vec<CoeffKey> = extra
        .into_iter()
        .map(|(x, y)| CoeffKey::new(&[x, y]))
        .collect();
    queries.extend(entries.iter().take(12).map(|(k, _)| *k));
    let dups: Vec<CoeffKey> = queries.iter().take(4).copied().collect();
    queries.extend(dups);
    queries
}

/// Keys the versioned-store model draws from; the first `MODEL_SEEDED`
/// start populated.  Small on purpose: an overlay of five slots outgrows
/// an eighth of the base, so schedules cross the re-base-by-copy rule.
const MODEL_KEYS: usize = 40;
const MODEL_SEEDED: usize = 32;

fn model_key(i: usize) -> CoeffKey {
    CoeffKey::new(&[i % 8, i / 8])
}

fn model_copy(model: &MemoryStore) -> MemoryStore {
    MemoryStore::from_entries(model.iter().map(|(k, v)| (*k, *v)))
}

/// Asserts `store` (a view, or the versioned store's head) reads exactly
/// what `model` does: every key bit for bit — present, absent, evicted,
/// re-inserted — `nnz` exactly, `abs_sum` to summation order.
fn assert_reads_like(store: &dyn CoefficientStore, abs_sum: f64, model: &MemoryStore, what: &str) {
    for i in 0..MODEL_KEYS + 1 {
        let key = model_key(i);
        assert_eq!(
            store.get(&key).map(f64::to_bits),
            model.get(&key).map(f64::to_bits),
            "{what}: {key} diverged from the replay"
        );
    }
    assert_eq!(store.nnz(), model.nnz(), "{what}: nnz");
    let want = model.abs_sum();
    assert!(
        (abs_sum - want).abs() <= 1e-9 * (1.0 + want),
        "{what}: abs_sum {abs_sum} vs {want}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_stores_roundtrip(entries in arb_entries()) {
        // memory
        check_store(&MemoryStore::from_entries(entries.clone()), &entries);
        // versioned: a pinned view
        check_store(&VersionedStore::from_entries(entries.clone()).pin(), &entries);
        // caching over memory — twice, to cover the memoized path
        let caching = ShardedCachingStore::new(MemoryStore::from_entries(entries.clone()));
        check_store(&caching, &entries);
        check_store(&caching, &entries);
        #[cfg(unix)]
        {
            // file
            let fpath = std::env::temp_dir().join(format!(
                "batchbb-prop-file-{}-{}",
                std::process::id(),
                entries.len()
            ));
            check_store(&FileStore::create(&fpath, entries.clone()).unwrap(), &entries);
            std::fs::remove_file(&fpath).unwrap();
            // block, both layouts, block size not dividing entry count
            for layout in [BlockLayout::KeyOrder, BlockLayout::LevelMajor] {
                let bpath = std::env::temp_dir().join(format!(
                    "batchbb-prop-block-{layout:?}-{}-{}",
                    std::process::id(),
                    entries.len()
                ));
                check_store(
                    &BlockStore::create(&bpath, entries.clone(), 7, 3, layout).unwrap(),
                    &entries,
                );
                std::fs::remove_file(&bpath).unwrap();
            }
        }
    }

    /// `try_get_many` ≡ key-by-key `try_get` on every wrapper: identical
    /// values and logical-retrieval counts, identical cache fills (a
    /// second pass over a warmed cache behaves the same on both paths),
    /// and identical instrumentation counts.
    #[test]
    fn try_get_many_matches_singleton_path(
        entries in arb_entries(),
        extra in prop::collection::vec((0usize..40, 0usize..40), 0..24),
    ) {
        let queries = query_mix(&entries, extra);

        // Default loop (memory; the versioned stores use it too).
        assert_batch_matches_singletons(
            &MemoryStore::from_entries(entries.clone()),
            &MemoryStore::from_entries(entries.clone()),
            &queries,
        );

        // Caching wrapper: the batched path must leave the memo in the
        // same state as singletons (duplicates within a batch count as
        // hits, missed fills memoize), so a second pass agrees too, and
        // the wrapper's full IoStats — hits included — match exactly.
        let sa = ShardedCachingStore::with_shards(MemoryStore::from_entries(entries.clone()), 4);
        let sb = ShardedCachingStore::with_shards(MemoryStore::from_entries(entries.clone()), 4);
        for _pass in 0..2 {
            assert_batch_matches_singletons(&sa, &sb, &queries);
        }
        assert_eq!(sa.stats(), sb.stats(), "sharded caching stats diverge");

        // Instrumentation: the pass-through deliberately loops key by key,
        // so counters are byte-identical to the singleton path.
        let ia = InstrumentedStore::new(MemoryStore::from_entries(entries.clone()));
        let ib = InstrumentedStore::new(MemoryStore::from_entries(entries.clone()));
        assert_batch_matches_singletons(&ia, &ib, &queries);
        assert_eq!(ia.stats(), ib.stats(), "instrumented stats diverge");

        #[cfg(unix)]
        {
            let tag = format!("{}-{}-{}", std::process::id(), entries.len(), queries.len());
            let fa = std::env::temp_dir().join(format!("batchbb-prop-bfile-a-{tag}"));
            let fb = std::env::temp_dir().join(format!("batchbb-prop-bfile-b-{tag}"));
            assert_batch_matches_singletons(
                &FileStore::create(&fa, entries.clone()).unwrap(),
                &FileStore::create(&fb, entries.clone()).unwrap(),
                &queries,
            );
            std::fs::remove_file(&fa).unwrap();
            std::fs::remove_file(&fb).unwrap();

            let ranking: batchbb_tensor::KeyMap<f64> =
                entries.iter().map(|&(k, v)| (k, v.abs())).collect();
            let layouts = [
                BlockLayout::KeyOrder,
                BlockLayout::LevelMajor,
                BlockLayout::ImportanceOrder(std::sync::Arc::new(ranking)),
            ];
            for (li, layout) in layouts.into_iter().enumerate() {
                let ba = std::env::temp_dir().join(format!("batchbb-prop-bblk-a{li}-{tag}"));
                let bb = std::env::temp_dir().join(format!("batchbb-prop-bblk-b{li}-{tag}"));
                assert_batch_matches_singletons(
                    &BlockStore::create(&ba, entries.clone(), 7, 3, layout.clone()).unwrap(),
                    &BlockStore::create(&bb, entries.clone(), 7, 3, layout).unwrap(),
                    &queries,
                );
                std::fs::remove_file(&ba).unwrap();
                std::fs::remove_file(&bb).unwrap();
            }
        }
    }

    /// Under injected faults the batched path takes the same per-key
    /// decisions as singletons: same first failure (batch `Err` ≡ the
    /// singleton loop's first `Err`), same values before it, and the same
    /// injected fault accounting.
    #[test]
    fn try_get_many_matches_singleton_faults(
        entries in arb_entries(),
        extra in prop::collection::vec((0usize..40, 0usize..40), 0..24),
        rate in 0.0f64..0.6,
        seed in 0u64..1000,
    ) {
        let queries = query_mix(&entries, extra);
        let make = || FaultInjectingStore::new(
            MemoryStore::from_entries(entries.clone()),
            FaultPlan::new(seed).with_transient_rate(rate),
        );
        let a = make();
        let b = make();
        let batched = a.try_get_many(&queries);
        let mut singles: Vec<Option<f64>> = Vec::new();
        let mut first_err = None;
        for k in &queries {
            match b.try_get(k) {
                Ok(v) => singles.push(v),
                Err(e) => { first_err = Some(e); break; }
            }
        }
        match (batched, first_err) {
            (Ok(values), None) => prop_assert_eq!(values, singles),
            (Err(ea), Some(eb)) => prop_assert_eq!(format!("{ea:?}"), format!("{eb:?}")),
            (batched, first_err) => {
                prop_assert!(false,
                    "paths disagree on failure: batched {:?} vs singleton {:?}",
                    batched, first_err);
            }
        }
        prop_assert_eq!(a.injected(), b.injected(), "fault accounting diverges");
        prop_assert_eq!(a.stats().retrievals, b.stats().retrievals);
    }

    #[cfg(unix)]
    #[test]
    fn block_store_physical_reads_bounded(entries in arb_entries()) {
        prop_assume!(!entries.is_empty());
        let bpath = std::env::temp_dir().join(format!(
            "batchbb-prop-bounded-{}-{}",
            std::process::id(),
            entries.len()
        ));
        let store =
            BlockStore::create(&bpath, entries.clone(), 8, 64, BlockLayout::KeyOrder).unwrap();
        for (k, _) in &entries {
            store.get(k);
        }
        // Pool is big enough to never evict: physical reads ≤ block count.
        let st = store.stats();
        prop_assert!(st.physical_reads <= store.n_blocks());
        prop_assert_eq!(st.physical_reads + st.cache_hits, st.retrievals);
        std::fs::remove_file(&bpath).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random schedules of publish / pin / advance / drop-a-view / compact
    /// against one `MemoryStore` + `MutableStore::add` replay per version.
    /// After every operation the head and every live view read bit-equal
    /// to the replay of their version, the retained range is what the
    /// compaction rule says (cut at the argument, the head, or the oldest
    /// live pin, whichever is oldest), and `delta_between` over it is the
    /// raw concatenation of what was published.
    #[test]
    fn versioned_store_agrees_with_a_replay_model(
        schedule in prop::collection::vec(
            (
                0usize..7,
                0usize..1000,
                0usize..1000,
                prop::collection::vec((0usize..MODEL_KEYS, 0usize..5, -4.0f64..4.0), 0..4),
            ),
            1..48,
        ),
    ) {
        let seed = (0..MODEL_SEEDED).map(|i| (model_key(i), 1.0 + i as f64 * 0.37));
        let store = VersionedStore::from_entries(seed.clone());
        // models[v] and published[v] describe version v; published[0] is unused.
        let mut models = vec![MemoryStore::from_entries(seed)];
        let mut published: Vec<Vec<(CoeffKey, f64)>> = vec![Vec::new()];
        let mut views: Vec<VersionView> = Vec::new();
        let mut oldest_retained = 0usize;
        let concat = |published: &[Vec<(CoeffKey, f64)>], from: usize, to: usize| {
            published[from + 1..=to].concat()
        };
        let at = |view: &VersionView| view.version().as_u64() as usize;
        let id = |version: usize| VersionId(version as u64);
        for (op, a, b, draws) in schedule {
            let head = models.len() - 1;
            match op {
                0..=2 => {
                    let mut model = model_copy(&models[head]);
                    let mut entries = Vec::new();
                    for (key, kind, magnitude) in draws {
                        let key = model_key(key);
                        let delta = match (kind, model.get(&key)) {
                            // Cancel the slot exactly: the eviction path.
                            (0, Some(value)) => -value,
                            // Below tolerance: an absent slot stays absent.
                            (0, None) | (1, _) => magnitude * 1e-14,
                            _ => magnitude,
                        };
                        model.add(key, delta);
                        entries.push((key, delta));
                    }
                    prop_assert_eq!(store.publish(&entries), id(head + 1));
                    models.push(model);
                    published.push(entries);
                }
                3 if views.len() < 6 => {
                    let version = oldest_retained + a % (head - oldest_retained + 1);
                    let view = if b % 2 == 0 { Some(store.pin()) } else { store.pin_at(id(version)) };
                    views.push(view.expect("a retained version pins"));
                }
                4 if !views.is_empty() => {
                    let view = &views[a % views.len()];
                    let from = at(view);
                    let to = from + b % (head - from + 1);
                    let delta = if to == head {
                        view.advance_to_current().1
                    } else {
                        view.advance_to(id(to)).expect("a forward, retained target")
                    };
                    prop_assert_eq!(at(view), to);
                    prop_assert_eq!(delta, concat(&published, from, to));
                }
                5 if !views.is_empty() => drop(views.swap_remove(a % views.len())),
                6 => {
                    // May over-state both the head and every live pin.
                    let wanted = a % (head + 3);
                    store.compact(id(wanted));
                    let pinned = views.iter().map(at).min().unwrap_or(head);
                    oldest_retained = oldest_retained.max(wanted.min(head).min(pinned));
                }
                _ => {}
            }
            let head = models.len() - 1;
            prop_assert_eq!(store.current_version(), id(head));
            prop_assert_eq!(store.retained_versions(), head - oldest_retained + 1);
            assert_reads_like(&store.pin(), store.abs_sum(), &models[head], "head");
            for view in &views {
                let version = at(view);
                prop_assert_eq!(view.version_tag(), version as u64);
                assert_reads_like(view, view.abs_sum(), &models[version], "view");
            }
            prop_assert_eq!(
                store.delta_between(id(oldest_retained), id(head)),
                Some(concat(&published, oldest_retained, head))
            );
            if oldest_retained > 0 {
                prop_assert!(store.pin_at(id(oldest_retained - 1)).is_none());
                prop_assert!(store.delta_between(id(oldest_retained - 1), id(head)).is_none());
            }
        }
    }
}
