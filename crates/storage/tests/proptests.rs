//! Property-based tests: every store implementation returns exactly the
//! values it was loaded with, for arbitrary entry sets, the counters
//! account for every retrieval, and the batched retrieval path
//! (`try_get_many`) is observationally identical to the key-by-key
//! singleton path — same values, same fault outcomes, same cache fills,
//! same logical-retrieval counts — across every wrapper and layout.

use proptest::prelude::*;

use batchbb_storage::{
    ArrayStore, CoefficientStore, FaultInjectingStore, FaultPlan, InstrumentedStore, MemoryStore,
    ShardedCachingStore, VersionedStore,
};
#[cfg(unix)]
use batchbb_storage::{BlockLayout, BlockStore, FileStore};
use batchbb_tensor::{CoeffKey, Shape, Tensor};

fn arb_entries() -> impl Strategy<Value = Vec<(CoeffKey, f64)>> {
    prop::collection::btree_map((0usize..32, 0usize..32), -100.0f64..100.0, 0..64).prop_map(|m| {
        m.into_iter()
            .filter(|&(_, v)| v.abs() > 1e-9)
            .map(|((a, b), v)| (CoeffKey::new(&[a, b]), v))
            .collect()
    })
}

fn check_store(store: &dyn CoefficientStore, entries: &[(CoeffKey, f64)], dense: bool) {
    store.reset_stats();
    for (k, v) in entries {
        let got = store.get(k);
        assert_eq!(got, Some(*v), "{k}");
    }
    if !dense {
        // array stores hold the whole domain; out-of-domain keys panic and
        // are not probed
        let absent = CoeffKey::new(&[999, 999]);
        assert_eq!(store.get(&absent), None);
    }
    let st = store.stats();
    let expected = entries.len() as u64 + if dense { 0 } else { 1 };
    assert_eq!(st.retrievals, expected);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_stores_roundtrip(entries in arb_entries()) {
        // memory
        check_store(&MemoryStore::from_entries(entries.clone()), &entries, false);
        // versioned: the store itself (reads the current version) and a
        // pinned view
        let versioned = VersionedStore::from_entries(entries.clone());
        check_store(&versioned, &entries, false);
        check_store(&versioned.pin(), &entries, false);
        // caching over memory — twice, to cover the memoized path
        let caching = ShardedCachingStore::new(MemoryStore::from_entries(entries.clone()));
        check_store(&caching, &entries, false);
        check_store(&caching, &entries, false);
        // array
        let shape = Shape::new(vec![32, 32]).unwrap();
        let mut t = Tensor::zeros(shape);
        for (k, v) in &entries {
            t[&[k.coord(0), k.coord(1)]] = *v;
        }
        check_store(&ArrayStore::from_tensor(t), &entries, true);
        #[cfg(unix)]
        {
            // file
            let fpath = std::env::temp_dir().join(format!(
                "batchbb-prop-file-{}-{}",
                std::process::id(),
                entries.len()
            ));
            check_store(&FileStore::create(&fpath, entries.clone()).unwrap(), &entries, false);
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
                    false,
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

            let ranking: std::collections::HashMap<CoeffKey, f64> =
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
